"""tclean: Clifford+T circuit construction, verification, and T-count accounting.

The package is organized around the temporary logical-AND gadget (4 T to
compute, 0 T to erase) and what it buys: in-place adders at 4n-4 T,
controlled adders at 8n+O(1), T-free uncomputation of out-of-place sums,
multi-controlled NOTs at 4k-4, shared rotations through a Hamming-weight
register, phase gradients by addition, a Toffoli-pair replacement pass, and
an opportunity-cost model pricing held ancillae against |T>-state production.
"""

__version__ = "0.1.0"
