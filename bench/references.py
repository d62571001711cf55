"""Reference values the benchmark checks every job against.

Everything here is written out by the benchmark itself: the headline
resource counts from the README and the paper, and the ideal maps from
integer arithmetic.  Nothing is taken from ``tclean`` (no
``gadgets.expected_counts``, no CLI or golden-corpus checkers), so a wrong
number in the program cannot also be a wrong number in its reference.

The self-test subclasses :class:`References` with deliberately wrong values
to prove that the checks can fail.
"""
from __future__ import annotations


class References:
    """Expected counts per construction, and the integer maps behind the ideals."""

    def report(self, kind: str, n: int) -> dict[str, int]:
        """Exact expected fields of ``resources.count`` for a construction.

        ``t_count_max`` is an upper bound rather than an exact value.
        """
        if kind == "gidney":
            return {"t_count": 4 * n - 4, "meas_depth": 2 * n - 2, "ccx_count": 0}
        if kind == "gidney-cout":
            return {"t_count": 4 * n, "meas_depth": 2 * n, "ccx_count": 0}
        if kind == "controlled":
            return {"t_count": 8 * n - 4, "ccx_count": 0}
        if kind == "out-of-place":
            return {"t_count": 4 * n, "ccx_count": 0}
        if kind == "mcx":
            return {"t_count": 4 * n - 4, "ccx_count": 0}
        if kind == "hamming":
            return {"t_count_max": 4 * n, "ccx_count": 0}
        if kind == "phase-gradient":  # one in-place adder
            return {"t_count": 4 * n - 4, "meas_depth": 2 * n - 2, "ccx_count": 0}
        if kind == "cuccaro":
            return {"t_count": 0, "ccx_count": 2 * n - 2}
        if kind == "cuccaro-cout":
            return {"t_count": 0, "ccx_count": 2 * n}
        if kind == "cuccaro-replaced":
            return {"t_count": 4 * n - 4, "ccx_count": 0}
        if kind == "cuccaro-cout-replaced":
            return {"t_count": 4 * n, "ccx_count": 0}
        if kind == "cuccaro-paired4":
            return {"t_count": 8 * n - 8, "ccx_count": 0}
        if kind == "cuccaro-cout-paired4":
            return {"t_count": 8 * n, "ccx_count": 0}
        if kind == "and-compute":
            return {"t_count": 4, "meas_depth": 1, "ccx_count": 0}
        if kind == "and-roundtrip":
            return {"t_count": 4, "meas_depth": 2, "ccx_count": 0}
        if kind == "oracle":  # n counts the expression's AND/OR nodes
            return {"t_count": 4 * n, "ccx_count": 0}
        raise KeyError(kind)

    def add(self, a: int, b: int, n: int) -> int:
        """a + b in an n-bit register."""
        return (a + b) % (1 << n)

    def popcount(self, x: int) -> int:
        return bin(x).count("1")


def report_problems(refs: References, kind: str, n: int, report) -> list[str]:
    """Mismatches between a ``ResourceReport`` and the reference table."""
    problems = []
    for key, want in refs.report(kind, n).items():
        if key == "t_count_max":
            if report.t_count > want:
                problems.append(f"{kind} n={n}: t_count {report.t_count} > {want}")
        elif getattr(report, key) != want:
            problems.append(f"{kind} n={n}: {key} {getattr(report, key)} != {want}")
    return problems
