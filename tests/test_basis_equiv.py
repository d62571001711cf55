"""The one-walk basis check (``sim.basis_equiv``) against the per-input checks it replaced."""
import cmath

import numpy as np
import pytest

import tclean.sim as sim
from tclean.constructions import CONSTRUCTIONS, exhaustive
from tclean.gadgets import and_gadget_circuit
from tclean.goldens import ENTRIES, default_corpus_dir
from tclean.ir import Circuit, CircuitError, Instruction, Op, Register
from tclean.oracle import compile_oracle, evaluate, parse_expression
from tclean.sim import (MAX_MEASUREMENTS, MAX_TERMS, SimulationError, TooManyBranchesError,
                        basis_equiv)
from tclean.textfmt import from_text, to_text

from basis_reference import (SAMPLED, reference_corpus_check, reference_exhaustive,
                             reference_phase_oracle_check, reference_sampled_check)
from test_acceptance import _random_expression
from test_goldens import CZ_FIXUP, bare


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
    text = _middle(bare(to_text(circuit)), MUTANTS[name], _swap_cx if name == "swap-cx" else lambda _: "")
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


def _fails(check, *args) -> bool:
    try:
        check(*args)
    except (AssertionError, SimulationError):
        return True
    return False


@pytest.mark.parametrize("name,kind,n,carry_out,samples", SAMPLED, ids=[row[0] for row in SAMPLED])
def test_the_walk_fails_every_corpus_mutant_the_sampled_check_fails(name, kind, n, carry_out, samples):
    (spec,) = [spec for spec in ENTRIES if spec.name == name]
    entry = CONSTRUCTIONS[kind]
    text = (default_corpus_dir() / name / "circuit.qc").read_text()
    stored = from_text(text)
    assert not _fails(reference_sampled_check, entry, stored, n, samples, carry_out)
    assert not _fails(spec.check, stored)
    mutants = {mutant: _mutant(stored, mutant) for mutant in MUTANTS}
    if CZ_FIXUP.search(text):
        mutants["strip-cz-fixups"] = from_text(bare(CZ_FIXUP.sub("", text)))
    for mutant, circuit in mutants.items():
        if circuit is not None and _fails(reference_sampled_check, entry, circuit, n, samples, carry_out):
            assert _fails(spec.check, circuit), mutant


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


def test_too_many_input_branch_pairs_is_refused_before_walking(monkeypatch):
    # The AND round trip's 4 inputs and one measurement allow 8 pairs: at the cap, then past it.
    circuit = and_gadget_circuit("roundtrip")
    monkeypatch.setattr(sim, "MAX_TERMS", 8)
    assert basis_equiv(circuit, lambda k: k).branch_count == 8
    monkeypatch.setattr(sim, "MAX_TERMS", 7)
    monkeypatch.setattr(sim, "_walk", lambda *args: pytest.fail("the walk started"))
    with pytest.raises(SimulationError,
                       match=r"^2\^2 inputs and 2\^1 branches allow more than 7 \(input, branch\) pairs$"):
        basis_equiv(circuit, lambda k: k)


def test_an_alloct_that_doubles_past_the_term_limit_is_refused_before_walking(monkeypatch):
    # The AND compute's 2 inputs make 4 terms, and its alloct doubles them to 8
    # with no measurement: at the cap, then past it.
    circuit = and_gadget_circuit("compute")
    monkeypatch.setattr(sim, "MAX_TERMS", 8)
    assert basis_equiv(circuit, lambda k: k | (k == 3) << 2)
    monkeypatch.setattr(sim, "MAX_TERMS", 7)
    monkeypatch.setattr(sim, "_walk", lambda *args: pytest.fail("the walk started"))
    with pytest.raises(SimulationError, match=r"^2 input qubits need more than 7 sparse terms$"):
        basis_equiv(circuit, lambda k: k)


@pytest.mark.parametrize("phased", [False, True])
def test_want_is_called_once_per_input(phased):
    # gidney-adder n=3 walks 2^6 inputs over 4 branches.
    entry = CONSTRUCTIONS["gidney-adder"]
    ideal, calls = entry.ideal(3), []

    def want(k):
        calls.append(k)
        return (ideal(k), 1j) if phased else ideal(k)

    assert basis_equiv(entry.build(3), want)
    assert sorted(calls) == list(range(64))


# -- phased ideals -------------------------------------------------------------------


def _oracle_phases(expr: str):
    """The phase oracle's ideal: input k stays k, times -1 where the expression holds."""
    ast = parse_expression(expr)
    return lambda k: (k, -1 if evaluate(ast, k) else 1)


def test_a_phase_is_conjugated_against_the_amplitude():
    # s takes |1> to i|1>: the ideal (1, i) matches it, (1, -i) is orthogonal
    # to it, and the int ideal sees only the basis map.
    s = from_text("#input a 0\ns 0\n")
    assert basis_equiv(s, lambda k: (k, 1j if k else 1)).worst_fidelity == pytest.approx(1)
    assert basis_equiv(s, lambda k: (k, -1j if k else 1)).worst_fidelity == pytest.approx(0)
    assert basis_equiv(s, lambda k: k).worst_fidelity == pytest.approx(0.5)
    t = from_text("#input a 0\nt 0\n")
    assert basis_equiv(t, lambda k: (k, cmath.exp(1j * cmath.pi / 4) if k else 1))


def test_one_flipped_sign_fails_a_phase_oracle():
    circuit = compile_oracle("x0 & x1")
    want = _oracle_phases("x0 & x1")
    assert basis_equiv(circuit, want)
    assert basis_equiv(circuit, lambda k: (k, 1j * want(k)[1]))  # a global phase is no error
    for flipped in range(4):
        res = basis_equiv(circuit, lambda k: (k, -want(k)[1] if k == flipped else want(k)[1]))
        # one of four terms against its ideal: |(3 - 1) / 4|^2
        assert not res.equivalent and res.worst_fidelity == pytest.approx(0.25)


def test_a_phase_off_the_unit_circle_is_refused():
    # Phase 2 would lift the measured input's fidelity from 0.5 to 1.
    measured = from_text("#input a 0 1\nmz 0 -> c0\n")
    with pytest.raises(ValueError, match=r"phase 2 for input \d is not of unit modulus"):
        basis_equiv(measured, lambda k: (k, 2))


def test_a_nan_phase_is_refused():
    # NaN fails every comparison, so a guard written as `> tol` lets it through.
    circuit = and_gadget_circuit("roundtrip")
    with pytest.raises(ValueError, match=r"phase \(nan\+0j\) for input \d+ is not of unit modulus"):
        basis_equiv(circuit, lambda k: (k, complex("nan")))


#: ``exhaustive`` results of int ideals as the walk gave them before phased
#: ideals were accepted: (kind, n, mutant or None, (ok, worst fidelity, branches)).
INT_IDEAL_RESULTS = [
    ("gidney-adder", 2, None, (True, 1.0, 32)),
    ("gidney-adder", 3, "drop-cz-fixup", (False, 0.24999999999999994, 256)),
    ("hamming", 3, None, (True, 1.0, 8)),
    ("hamming", 3, "drop-s", (False, 0.6250000000000001, 8)),
    ("phase-gradient", 2, None, (True, 1.0, 32)),
    ("mcx", 3, "drop-t", (False, 0.8535533905932733, 64)),
    ("and", None, "swap-cx", (False, 0.12500000000000003, 8)),
]


@pytest.mark.parametrize("kind,n,mutant,expected", INT_IDEAL_RESULTS)
def test_an_int_ideal_gives_the_same_result(kind, n, mutant, expected):
    entry = CONSTRUCTIONS[kind]
    circuit = entry.build(n) if mutant is None else _mutant(entry.build(n), mutant)
    assert exhaustive(entry, circuit, n) == expected
    if entry.readout is None:  # the same ideal with phase 1 everywhere
        want = entry.ideal(n, False)
        assert basis_equiv(circuit, lambda k: (want(k), 1)) == basis_equiv(circuit, want)


def _criterion_09_expressions():
    """The 50 seeded expressions acceptance criterion 09 checks, in its order."""
    rng = np.random.default_rng(99)
    exprs = []
    while len(exprs) < 50:
        expr = _random_expression(rng, n_vars=int(rng.integers(2, 7)), max_binary=4)
        if compile_oracle(expr, "and").n_qubits <= 16:
            exprs.append(expr)
    return exprs


def _dense_passes(circuit: Circuit, expr: str) -> bool:
    try:
        reference_phase_oracle_check(circuit, expr)
    except AssertionError:
        return False
    return True


def test_the_walk_passes_every_oracle_the_dense_check_passes():
    passed = 0
    for expr in _criterion_09_expressions():
        for impl in ("and", "ccx"):
            circuit = compile_oracle(expr, impl)
            if _dense_passes(circuit, expr):
                passed += 1
                assert basis_equiv(circuit, _oracle_phases(expr)), (expr, impl)
    assert passed == 100
