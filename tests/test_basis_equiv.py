"""The one-walk basis check (``sim.basis_equiv``) against the per-input checks it replaced."""
import pytest

import tclean.sim as sim
from tclean.constructions import CONSTRUCTIONS, exhaustive
from tclean.goldens import ENTRIES, default_corpus_dir
from tclean.ir import Circuit, CircuitError, Instruction, Op, Register
from tclean.sim import (MAX_MEASUREMENTS, MAX_TERMS, SimulationError, TooManyBranchesError,
                        basis_equiv)
from tclean.textfmt import from_text, to_text

from basis_reference import reference_corpus_check, reference_exhaustive


def _middle(text: str, pick, change):
    """``text`` with ``change`` applied to the middle line ``pick`` selects, or None without one."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if pick(line.split())]
    if not hits:
        return None
    i = hits[len(hits) // 2]
    lines[i] = change(lines[i])
    return "".join(lines)


def _swap_cx(line: str) -> str:
    op, a, b = line.split()
    return f"{op} {b} {a}\n"


#: Mutants of a circuit's text: drop the middle t/tdg, the middle s, the
#: middle conditioned CZ fixup, or swap the middle cx's control and target.
MUTANTS = {
    "drop-t": lambda tokens: tokens[0] in ("t", "tdg"),
    "drop-s": lambda tokens: tokens[0] == "s",
    "drop-cz-fixup": lambda tokens: tokens[0] == "?" and tokens[3] == "cz",
    "swap-cx": lambda tokens: tokens[0] == "cx",
}


def _mutant(circuit: Circuit, name: str) -> Circuit | None:
    text = _middle(to_text(circuit), MUTANTS[name], _swap_cx if name == "swap-cx" else lambda _: "")
    try:
        return None if text is None else from_text(text)
    except CircuitError:
        return None


def _new_passes(entry, circuit, n) -> bool:
    try:
        return exhaustive(entry, circuit, n)[0]
    except SimulationError:
        return False


def _reference_passes(entry, circuit, n) -> bool:
    try:
        reference_corpus_check(entry, circuit, n)
    except (AssertionError, SimulationError):
        return False
    return True


CASES = [(kind, n) for kind in CONSTRUCTIONS for n in (1, 2, 3)]


@pytest.mark.parametrize("kind,n", CASES)
def test_correct_circuits_pass_both_checks(kind, n):
    entry = CONSTRUCTIONS[kind]
    circuit = entry.build(n)
    assert _reference_passes(entry, circuit, n)
    ok, worst, branches = exhaustive(entry, circuit, n)
    assert ok and worst >= 1 - 1e-10 and branches > 0


@pytest.mark.parametrize("kind,n", CASES)
def test_every_mutant_the_reference_fails_fails(kind, n):
    entry = CONSTRUCTIONS[kind]
    for name in MUTANTS:
        mutant = _mutant(entry.build(n), name)
        if mutant is not None and not _reference_passes(entry, mutant, n):
            assert not _new_passes(entry, mutant, n), name


def test_dropped_cz_fixup_fails_where_basis_inputs_pass():
    entry = CONSTRUCTIONS["gidney-adder"]
    mutant = _mutant(entry.build(3), "drop-cz-fixup")
    assert reference_exhaustive(entry, mutant, 3)[0]
    ok, worst, _ = exhaustive(entry, mutant, 3)
    assert not ok and worst < 0.5


def test_hamming_entry_without_an_s_fails_its_corpus_check():
    # The popcount readout sees only basis values; the lost phase shows in one walk.
    (spec,) = [spec for spec in ENTRIES if spec.name == "hamming-n5"]
    mutant = _mutant(from_text((default_corpus_dir() / spec.name / "circuit.qc").read_text()), "drop-s")
    reference_corpus_check(CONSTRUCTIONS["hamming"], mutant, 5)  # the old check passes it
    with pytest.raises(AssertionError):
        spec.check(mutant)


def test_measuring_an_input_is_not_the_identity():
    measured = from_text("#input a 0 1\nmz 0 -> c0\n")
    entry = CONSTRUCTIONS["and"]  # ideal: the identity
    assert reference_exhaustive(entry, measured, 2)[0]  # every basis input is left as it was
    ok, worst, branches = exhaustive(entry, measured, 2)
    assert not ok
    assert worst == pytest.approx(0.5)
    assert branches == 4  # each input lands in exactly one of the two branches


def test_a_readout_takes_one_term_per_input():
    # The value read is right in both terms of each input, but the output is
    # no basis state: summing both terms would report fidelity 2.
    spread = from_text("#input a 0\n#output a 0\n#output g 1\nalloc0 1\nh 1\n")
    res = basis_equiv(spread, lambda k: k, read=lambda out: out & 1)
    assert not res.equivalent
    assert res.worst_fidelity == pytest.approx(0.5)


@pytest.mark.parametrize("kind,n", [("gidney-adder", 3), ("hamming", 4), ("phase-gradient", 2)])
def test_exhaustive_compiles_once(kind, n, monkeypatch):
    calls = []
    compile_ = sim._compile

    def counted(*args):
        calls.append(args[1])
        return compile_(*args)

    monkeypatch.setattr(sim, "_compile", counted)
    entry = CONSTRUCTIONS[kind]
    assert exhaustive(entry, entry.build(n), n)[0]
    assert calls == [sim.SparseState]


def test_too_many_measurements_is_refused():
    circuit = Circuit(tuple(Instruction(Op.MZ, (0,), result=b) for b in range(MAX_MEASUREMENTS + 1)),
                      inputs=(Register("a", (0,)),))
    with pytest.raises(TooManyBranchesError, match=f"exceeds bound {MAX_MEASUREMENTS}"):
        basis_equiv(circuit, lambda k: k)


def test_too_many_starting_terms_is_refused_before_allocating():
    width = MAX_TERMS.bit_length()  # 2^width inputs: twice MAX_TERMS
    circuit = Circuit((), inputs=(Register("a", tuple(range(width))),))
    with pytest.raises(SimulationError, match=f"more than {MAX_TERMS} sparse terms"):
        basis_equiv(circuit, lambda k: k)
