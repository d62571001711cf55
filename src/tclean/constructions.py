"""The construction table: every buildable construction, stated once.

An entry gives, at width n, how the construction is built, the exact
resource counts it must measure at (the paper's formulas: Gidney, "Halving
the cost of quantum addition", arXiv:1709.06648), the ideal map it must
implement, and the checks ``tclean verify`` runs.  ``tclean build`` and
``tclean verify``, the golden corpus and the tests all read this table, so a
new construction is one new entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .gadgets import (
    AdderSpec,
    and_gadget_circuit,
    controlled_adder,
    cuccaro_adder,
    gidney_adder,
    hamming_weight,
    multi_controlled_x,
    outofplace_adder,
    outofplace_adder_inverse,
    phase_gradient_add,
)
from .ir import Circuit
from .resources import count
from .rewrite import replace_pairs
from .sim import basis_equiv

#: One check's outcome: passed, worst fidelity, measurement branches simulated.
Result = tuple[bool, float, int]
#: A check of an entry built at width n, with carry-out or not: (entry, circuit, n, carry_out).
Check = Callable[["Construction", Circuit, int, bool], Result]


# -- checks -----------------------------------------------------------------------


def counts(entry: Construction, circuit: Circuit, n: int, carry_out: bool = False) -> Result:
    """The measured report matches ``entry.expected(n, carry_out)`` field for field."""
    report = count(circuit)
    return all(getattr(report, key) == want for key, want in entry.expected(n, carry_out).items()), 1.0, 0


def exhaustive(entry: Construction, circuit: Circuit, n: int, carry_out: bool = False) -> Result:
    """Every basis input, branch and relative phase against the ideal, in one walk."""
    read = entry.readout(circuit, n) if entry.readout else None
    res = basis_equiv(circuit, entry.ideal(n, carry_out), read)
    return res.equivalent, res.worst_fidelity, res.branch_count


_STANDARD: tuple[tuple[str, Check], ...] = (("counts", counts), ("channel", exhaustive))


def _on(other: Construction, check: Check) -> Check:
    """``check`` applied to ``other`` built at the same width and carry-out."""
    return lambda entry, circuit, n, carry_out: check(other, other.build(n, carry_out), n, carry_out)


def _replace_pairs_t(entry: Construction, circuit: Circuit, n: int, carry_out: bool) -> Result:
    """Replacing the Toffoli pairs lands on the AND adder's T-count."""
    return count(replace_pairs(circuit)).t_count == GIDNEY.expected(n, carry_out)["t_count"], 1.0, 0


def _inverse_t_free(entry: Construction, circuit: Circuit, n: int, carry_out: bool) -> Result:
    """Uncomputing the out-of-place sum costs no T."""
    return count(outofplace_adder_inverse(AdderSpec(n))).t_count == 0, 1.0, 0


@dataclass(frozen=True)
class Construction:
    """One construction.

    ``build(n, carry_out)`` emits it at width n; kinds without a carry-out
    ignore the flag.  ``expected(n, carry_out)`` maps report fields to the
    exact values it measures at.  ``ideal(n, carry_out)`` maps an input basis index to the
    output basis index it must produce or, where ``readout`` is set, to the
    value ``readout(circuit, n)`` reads out of the output index.  ``semantics``
    is the golden corpus descriptor, and ``checks`` are the lines ``tclean
    verify`` prints, in order: each compares counts, or walks every basis input,
    branch and relative phase against ``ideal`` (:func:`exhaustive`).
    """

    name: str
    build: Callable[..., Circuit]
    expected: Callable[..., dict[str, int]]
    ideal: Callable[..., Callable[[int], int]]
    semantics: str = ""
    checks: tuple[tuple[str, Check], ...] = _STANDARD
    readout: Callable[[Circuit, int], Callable[[int], int]] | None = None


# -- ideal maps and readouts ----------------------------------------------------------


def _adder(n: int, carry_out: bool = False, *, controlled: bool = False) -> Callable[[int], int]:
    """(ctrl,) a, b -> (ctrl,) a, a + b, the sum mod 2^n or with its carry bit on top.

    With a control bit that is 0, b is left as it is.
    """
    low = n + 1 if controlled else n  # the bits below b: the control, then a
    mask = (1 << n) - 1

    def fn(k: int) -> int:
        a, b = (k >> (low - n)) & mask, (k >> low) & mask
        total = a + b if (k & 1 or not controlled) else b
        return (k & ((1 << low) - 1)) | ((total if carry_out else total & mask) << low)
    return fn


def _weight_register(circuit: Circuit, n: int) -> Callable[[int], int]:
    """Reads the popcount register out of an output basis index."""
    pos = circuit.output_positions
    register = hamming_weight(n).register
    return lambda out: sum(((out >> pos[q]) & 1) << p for p, q in enumerate(register))


# -- the table -----------------------------------------------------------------------

_ADD = "add n={n}{carry_out}"

GIDNEY = Construction(
    "gidney-adder",
    build=lambda n, carry_out=False: gidney_adder(AdderSpec(n, carry_out=carry_out)),
    # With carry-out: one more AND and the carry-out qubit.
    expected=lambda n, carry_out=False: (
        {"t_count": 4 * n, "meas_depth": 2 * n, "ancilla_max": n + 1, "ancilla_depth": n * n + 3 * n + 1}
        if carry_out else
        {"t_count": 4 * n - 4, "meas_depth": 2 * n - 2, "ancilla_max": n - 1, "ancilla_depth": n * n - n}),
    ideal=_adder,
    semantics=_ADD,
)

#: The AND gadget's compute half alone; ``verify --kind and`` checks it first.
AND_COMPUTE = Construction(
    "and-compute",
    build=lambda n, carry_out=False: and_gadget_circuit("compute"),
    expected=lambda n, carry_out=False: {"t_count": 4, "meas_depth": 1, "ancilla_max": 1, "ancilla_depth": 1},
    ideal=lambda n, carry_out=False: lambda k: k | ((k & 1 & (k >> 1)) << 2),
)

CONSTRUCTIONS: dict[str, Construction] = {entry.name: entry for entry in (
    GIDNEY,
    Construction(
        "cuccaro-adder",
        build=lambda n, carry_out=False: cuccaro_adder(AdderSpec(n, carry_out=carry_out)),
        expected=lambda n, carry_out=False: (
            {"t_count": 0, "ccx_count": 2 * n, "meas_depth": 0, "ancilla_max": n + 2, "ancilla_depth": n + 2}
            if carry_out else
            {"t_count": 0, "ccx_count": 2 * n - 2, "meas_depth": 0, "ancilla_max": n if n > 1 else 0,
             "ancilla_depth": n if n > 1 else 0}),
        ideal=_adder,
        semantics=_ADD,
        checks=_STANDARD + (("replace-pairs-t", _replace_pairs_t),),
    ),
    Construction(
        "controlled-adder",
        build=lambda n, carry_out=False: controlled_adder(AdderSpec(n, carry_out=carry_out)),
        expected=lambda n, carry_out=False: (
            {"t_count": 8 * n + 4, "meas_depth": 4 * n + 2, "ancilla_max": n + 2,
             "ancilla_depth": 2 * n * n + 8 * n + 5} if carry_out
            else {"t_count": 8 * n - 4, "meas_depth": 4 * n - 2, "ancilla_max": n, "ancilla_depth": 2 * n * n}),
        ideal=lambda n, carry_out=False: _adder(n, carry_out, controlled=True),
        semantics="add n={n}{carry_out} controlled=1",
    ),
    Construction(
        "out-of-place-adder",
        build=lambda n, carry_out=False: outofplace_adder(AdderSpec(n)),
        expected=lambda n, carry_out=False: {"t_count": 4 * n, "meas_depth": n, "ancilla_max": n + 1,
                                             "ancilla_depth": (n + 1) * (n + 2) // 2},
        ideal=lambda n, carry_out=False: lambda k: k | (((k & ((1 << n) - 1)) + (k >> n)) << (2 * n)),
        semantics="oop-add n={n}",
        checks=_STANDARD + (("inverse-t-free", _inverse_t_free),),
    ),
    Construction(
        "and",
        build=lambda n, carry_out=False: and_gadget_circuit("roundtrip"),
        expected=lambda n, carry_out=False: {"t_count": 4, "meas_depth": 2, "ancilla_max": 1, "ancilla_depth": 2},
        ideal=lambda n, carry_out=False: lambda k: k,
        semantics="identity",
        checks=(("compute-counts", _on(AND_COMPUTE, counts)),
                ("compute-channel", _on(AND_COMPUTE, exhaustive)),
                ("roundtrip-counts", counts), ("roundtrip-channel", exhaustive)),
    ),
    Construction(
        "mcx",
        build=lambda n, carry_out=False: multi_controlled_x(n),
        expected=lambda n, carry_out=False: {"t_count": 4 * n - 4, "meas_depth": 2 * n - 2,
                                             "ancilla_max": n - 1, "ancilla_depth": n * n - n},
        ideal=lambda n, carry_out=False: (
            lambda k: k ^ (1 << n) if (k & ((1 << n) - 1)) == (1 << n) - 1 else k),
        semantics="mcx k={n}",
    ),
    Construction(
        "hamming",
        build=lambda n, carry_out=False: hamming_weight(n).circuit,
        # One AND per full or half adder, n - popcount(n) of them, none erased.  Its
        # ancilla_depth follows the adder tree and has no closed form to check.
        expected=lambda n, carry_out=False: {"t_count": 4 * (n - bin(n).count("1")),
                                             "ancilla_max": n - bin(n).count("1")},
        ideal=lambda n, carry_out=False: lambda k: bin(k).count("1"),
        semantics="hamming n={n}",
        checks=(("t-bound", counts), ("popcount", exhaustive)),
        readout=_weight_register,
    ),
    Construction(
        "phase-gradient",
        build=lambda n, carry_out=False: phase_gradient_add(n),
        expected=lambda n, carry_out=False: GIDNEY.expected(n),
        ideal=lambda n, carry_out=False: _adder(n),
        semantics="phase-gradient n={n}",
        # The exact adder map on every input; on the gradient eigenstate it is the kickback.
        checks=(("t-equals-adder", counts), ("kickback-phases", exhaustive)),
    ),
)}


def verify(entry: Construction, n: int, carry_out: bool = False) -> Iterator[tuple[str, bool, float, int]]:
    """Run ``entry``'s checks at width n, with carry-out or not: yields (name, passed, worst fidelity, branches) each.

    Each line is yielded as soon as its check finishes, so a caller can show
    the lines before a later check refuses.  Kinds without a carry-out
    ignore the flag, as ``build`` does.  Every semantic line is one
    :func:`exhaustive` walk, so ``verify`` refuses where
    :func:`~tclean.sim.basis_equiv` does, with a
    :class:`~tclean.sim.SimulationError` raised before the walk starts: past
    ``MAX_TERMS`` basis inputs (half of it in a circuit with an ``alloct``)
    or (input, branch) pairs, or past
    ``MAX_MEASUREMENTS`` measurements.
    """
    circuit = entry.build(n, carry_out)
    for name, check in entry.checks:
        yield (name, *check(entry, circuit, n, carry_out))
