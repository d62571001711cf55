"""tclean: Clifford+T circuit construction, verification, and T-count accounting.

The package is organized around the temporary logical-AND gadget (4 T to
compute, 0 T to erase) and what it buys: in-place adders at 4n-4 T,
controlled adders at 8n+O(1), T-free uncomputation of out-of-place sums,
multi-controlled NOTs at 4k-4, shared rotations through a Hamming-weight
register, phase gradients by addition, a Toffoli-pair replacement pass, and
an opportunity-cost model pricing held ancillae against |T>-state production.
"""
from .ir import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    GadgetSpan,
    GadgetTag,
    Instruction,
    Op,
    Register,
    Template,
    Violation,
    ViolationCode,
    concatenate,
    shift_qubits,
    validate,
)
from .textfmt import TextFormatError, from_text, to_text
from .sim import (
    BranchResult,
    DimensionMismatchError,
    EquivalenceResult,
    ReleaseEntangledError,
    RunResult,
    SimulationError,
    TooManyBranchesError,
    channel_equiv,
    decode_register,
    enumerate_branches,
    fidelity,
    gradient_state,
    register_basis,
    run,
)
from .gadgets import (
    AND_COMPUTE,
    AND_REVERSE_NET_T,
    AND_T_COUNT,
    AND_UNCOMPUTE,
    AdderSpec,
    HammingConstruction,
    and_gadget_circuit,
    controlled_adder,
    cuccaro_adder,
    and_compute,
    and_uncompute,
    emit_inverse,
    gidney_adder,
    hamming_roundtrip,
    hamming_weight,
    multi_controlled_x,
    outofplace_adder,
    outofplace_adder_inverse,
    phase_gradient_add,
)
from .resources import (
    CostModel,
    NoCrossoverError,
    ResourceReport,
    count,
    crossover,
    effective_t,
    effective_t_formula,
    hybrid_cutoff,
    serialize_report,
)
from .rewrite import (
    PHASE_TOFFOLI,
    PHASE_TOFFOLI_DAGGER,
    TEXTBOOK_TOFFOLI,
    PairMatch,
    find_pairs,
    lower_ccx,
    replace_pairs,
)
from .oracle import (
    OracleParseError,
    TooManyVariablesError,
    binary_node_count,
    compile_oracle,
    evaluate,
    parse_expression,
)

__version__ = "0.1.0"
