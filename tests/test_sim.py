"""Statevector simulator: projection, branching, release rules, determinism."""
import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tclean import sim
from tclean.constructions import CONSTRUCTIONS
from tclean.gadgets import AdderSpec, gidney_adder
from tclean.ir import CircuitBuilder, Op, Register
from tclean.sim import (
    MAX_LIVE_QUBITS,
    MAX_MEASUREMENTS,
    DimensionMismatchError,
    EquivalenceResult,
    ReleaseEntangledError,
    SimulationError,
    T_STATE,
    TooManyBranchesError,
    channel_equiv,
    decode_register,
    enumerate_branches,
    fidelity,
    run,
)

from tclean.textfmt import from_text

import sim_reference as reference
from sim_reference import GATES_1Q
from basis_reference import ideal_map
from strategies import random_circuit, random_state, seeded_states


def test_gate_matrix_identities():
    ident = np.eye(2)
    assert np.allclose(GATES_1Q[Op.T] @ GATES_1Q[Op.TDG], ident, atol=1e-12)
    assert np.allclose(GATES_1Q[Op.T] @ GATES_1Q[Op.T], GATES_1Q[Op.S], atol=1e-12)
    assert np.allclose(GATES_1Q[Op.H] @ GATES_1Q[Op.H], ident, atol=1e-12)


def test_alloct_prepares_t_state():
    b = CircuitBuilder()
    q = b.alloct()
    b.output("q", (q,))
    result = run(b.build(), seed=0)
    expect = np.array([1, cmath.exp(1j * math.pi / 4)]) / math.sqrt(2)
    assert fidelity(result.final_state, expect) > 1 - 1e-12
    assert np.allclose(result.final_state, T_STATE)


def test_forced_outcome_projects():
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    b.h(q)
    bit = b.mz(q)
    c = b.build()
    result = run(c, 0, force={bit: 1})
    assert result.classbits[bit] == 1
    assert abs(result.final_state[1]) > 1 - 1e-12


def test_same_seed_same_outcome():
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    b.h(q)
    b.mz(q)
    c = b.build()
    runs = [run(c, 0, seed=123).classbits for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_clifford_deterministic_measurement_across_seeds():
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    b.x(q)
    bit = b.mz(q)
    c = b.build()
    assert all(run(c, 0, seed=s).classbits[bit] == 1 for s in (0, 1, 99))


def test_bell_pair_branches():
    b = CircuitBuilder()
    qs = b.register("q", 2)
    b.h(qs[0])
    b.cx(qs[0], qs[1])
    b.mz(qs[0])
    branches = enumerate_branches(b.build(), 0)
    assert len(branches) == 2
    assert all(abs(br.probability - 0.5) < 1e-12 for br in branches)
    assert abs(sum(br.probability for br in branches) - 1.0) < 1e-9


def test_no_measurement_single_branch():
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    b.h(q)
    branches = enumerate_branches(b.build(), 0)
    assert len(branches) == 1
    assert abs(branches[0].probability - 1.0) < 1e-12


def test_zero_probability_branches_omitted():
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    b.x(q)
    b.mz(q)
    branches = enumerate_branches(b.build(), 0)
    assert len(branches) == 1
    assert branches[0].outcomes == ((0, 1),)


def test_too_many_branches():
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    for _ in range(MAX_MEASUREMENTS + 1):
        b.h(q)
        b.mz(q)
    c = b.build()
    message = f"^{MAX_MEASUREMENTS + 1} measurements exceeds bound {MAX_MEASUREMENTS}$"
    with pytest.raises(TooManyBranchesError, match=message):
        enumerate_branches(c, 0)
    with pytest.raises(TooManyBranchesError, match=message):
        channel_equiv(c, lambda v: v, input_states=[0])


def test_release_entangled_rejected():
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    anc = b.alloc0()
    b.h(q)
    b.cx(q, anc)
    b.release(anc)
    b.output("q", (q,))
    with pytest.raises(ReleaseEntangledError):
        run(b.build(), 0, seed=0)


def test_release_after_measure_allowed():
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    anc = b.alloc0()
    b.h(q)
    b.cx(q, anc)
    b.mx(anc)
    b.release(anc)
    b.output("q", (q,))
    for br in enumerate_branches(b.build(), 0):
        assert abs(np.linalg.norm(br.final_state) - 1) < 1e-12


def test_only_an_executed_gate_ends_the_release_exemption():
    # After MX the ancilla is |+> or |->, so only the just-measured rule lets it go.
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    anc = b.alloc0()
    bit = b.mx(anc)
    b.z(anc, cond=bit)
    b.release(anc)
    b.output("q", (q,))
    c = b.build()
    assert run(c, 0, force={bit: 0}).classbits[bit] == 0
    with pytest.raises(ReleaseEntangledError):
        run(c, 0, force={bit: 1})
    with pytest.raises(ReleaseEntangledError):
        reference.run(c, 0, force={bit: 1})


@pytest.mark.parametrize("state", [0, np.array([1, 0], dtype=complex)], ids=["sparse", "dense"])
def test_forcing_an_impossible_outcome_is_refused(state):
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    bit = b.mz(q)
    c = b.build()
    with pytest.raises(SimulationError, match=f"forced outcome 1 for c{bit} has probability 0"):
        run(c, state, force={bit: 1})


SPLIT = (math.sqrt(0.9), math.sqrt(0.1))


@pytest.mark.parametrize("state", [dict(enumerate(SPLIT)), np.array(SPLIT, dtype=complex)],
                         ids=["sparse", "dense"])
@pytest.mark.parametrize("value", [2, -1, 0.5])
def test_forcing_an_outcome_other_than_0_or_1_is_refused(state, value):
    # Value 2 would project onto outcome 1 but divide by outcome 0's probability.
    c = from_text("#input a 0\nmz 0 -> c0\n")
    with pytest.raises(ValueError, match=f"forced outcome {value!r} for c0 is not 0 or 1"):
        run(c, state, force={0: value})
    assert run(c, state, force={0: 1}).classbits == {0: 1}


def test_dimension_mismatch():
    b = CircuitBuilder()
    b.register("q", 2)
    c = b.build()
    with pytest.raises(DimensionMismatchError):
        run(c, np.ones(8) / math.sqrt(8), seed=0)
    with pytest.raises(DimensionMismatchError):
        run(c, "101", seed=0)


def _too_many_inputs():
    b = CircuitBuilder()
    b.register("q", MAX_LIVE_QUBITS + 1)
    return b.build()


def test_too_many_inputs_rejected_before_allocating():
    # The dense engine's refusals; a basis input runs sparse (next test).
    c = _too_many_inputs()
    with pytest.raises(SimulationError, match="input qubits"):
        run(c, np.ones(1), seed=0)
    with pytest.raises(SimulationError, match="input qubits"):
        channel_equiv(c, lambda v: v, input_states=[0])


def test_basis_input_past_the_dense_limit_runs_sparse():
    assert run(_too_many_inputs(), 0, seed=0).final_state == {0: 1}


def test_decode_register_reads_the_output_register_of_that_name():
    # Input a is qubit 0, output a qubit 1: input 1 leaves qubit 1 at 0.
    c = from_text("#input a 0\n#output z 0\n#output a 1\nalloc0 1\ncx 0 1\nx 1\n")
    out = int(np.flatnonzero(run(c, 1).final_state)[0])
    assert out == 1
    assert (decode_register(c, out, "z"), decode_register(c, out, "a")) == (1, 0)


def test_x_is_not_z():
    bx = CircuitBuilder()
    (q,) = bx.register("q", 1)
    bx.x(q)
    c = bx.build()
    z_matrix = np.diag([1.0, -1.0])
    res = channel_equiv(c, lambda v: z_matrix @ v, input_states=seeded_states(c, 8, seed=0))
    assert not res.equivalent


def test_identity_is_identity():
    b = CircuitBuilder()
    b.register("q", 2)
    c = b.build()
    res = channel_equiv(c, lambda v: v, input_states=seeded_states(c, 5, seed=0))
    assert res.equivalent
    assert res.worst_fidelity > 1 - 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_norm_preserved_and_probabilities_sum(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, simulable=True)
    state = random_state(len(c.input_qubits()), rng)
    branches = enumerate_branches(c, state)
    assert abs(sum(br.probability for br in branches) - 1.0) < 1e-9
    for br in branches:
        assert abs(np.linalg.norm(br.final_state) - 1.0) < 1e-9


#: Every engine kernel that moves amplitudes; a measurement moves them in its projection.
_AMPLITUDE_KERNELS = ("alloc", "release", "flip", "phase", "h", "y", "project", "project_x")


def _unit_after(kernel, calls: list[str]):
    """``kernel``, asserting that it leaves the branch a unit state."""
    def checked(branch, *args):
        kernel(branch, *args)
        amps = branch.amps
        norm = np.linalg.norm(list(amps.values()) if isinstance(amps, dict) else amps)
        assert abs(norm - 1.0) <= 1e-12, f"{kernel.__qualname__} left norm {norm!r}"
        calls.append(kernel.__qualname__)

    return checked


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_norm_holds_after_every_instruction(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, simulable=True)
    state = random_state(len(c.input_qubits()), rng)
    # Each unconditioned instruction runs exactly one kernel; a conditioned one at most one.
    unconditioned = sum(instr.cond is None for instr in c.instructions)
    calls: list[str] = []
    with pytest.MonkeyPatch.context() as mp:
        for engine in (sim.SimState, sim.SparseState):
            for name in _AMPLITUDE_KERNELS:
                mp.setattr(engine, name, _unit_after(getattr(engine, name), calls))
        for engine, start in ((sim.SimState, state), (sim.SparseState, dict(enumerate(state)))):
            calls.clear()
            run(c, start, seed=seed % 97)
            assert unconditioned <= len(calls) <= len(c.instructions)
            assert {call.split(".")[0] for call in calls} <= {engine.__name__}


def _x_on_first_of_two():
    b = CircuitBuilder()
    qs = b.register("q", 2)
    b.x(qs[0])
    return b.build()


@pytest.mark.parametrize("state", [np.zeros(4), np.full(4, np.nan), [1, np.inf, 0, 0]],
                         ids=["zero", "nan", "inf"])
def test_degenerate_input_is_rejected(state):
    c = _x_on_first_of_two()
    with pytest.raises(DimensionMismatchError, match="norm"):
        run(c, state)
    with pytest.raises(DimensionMismatchError, match="norm"):
        enumerate_branches(c, state)
    with pytest.raises(DimensionMismatchError, match="norm"):
        channel_equiv(c, lambda v: v, input_states=[state])


def test_nan_fidelity_is_never_equivalent():
    c = _x_on_first_of_two()
    res = channel_equiv(c, lambda v: np.full(4, np.nan), input_states=seeded_states(c, 2, seed=0))
    assert not res.equivalent
    assert math.isnan(res.worst_fidelity)
    assert res.branch_count == 2


@pytest.mark.parametrize("checks_nothing", [{"input_states": []},
                                            {"input_states": [0], "branches": 2},
                                            {"input_states": [0], "branches": "some"}],
                         ids=["no-input-states", "int-branches", "other-branches"])
def test_a_check_of_no_branch_is_refused_before_compiling(checks_nothing, monkeypatch):
    # An empty check would pass a wrong ideal as (True, 1.0, 0); every branch
    # is followed, so any other ``branches`` is refused too.
    c = gidney_adder(AdderSpec(2))
    monkeypatch.setattr(sim, "_compile", lambda *args: pytest.fail("compiled"))
    with pytest.raises(ValueError, match="branches must be 'all'|no input state"):
        channel_equiv(c, lambda v: np.zeros_like(v), **checks_nothing)


def test_the_benchmark_call_form_checks_every_branch_of_the_given_states():
    # channel_equiv(c, ideal, input_states=[...], branches="all"), as the
    # benchmark calls it: gidney n = 3 makes 2 measurements, so 4 branches per state.
    entry = CONSTRUCTIONS["gidney-adder"]
    c = entry.build(3)
    res = channel_equiv(c, ideal_map(entry, c, 3), input_states=seeded_states(c, 2, seed=0),
                        branches="all")
    assert res == EquivalenceResult(True, 1.0, 8)


@pytest.mark.parametrize("state", [None, 0, np.int64(0), "", np.array([1.0])],
                         ids=["none", "int", "np-int", "empty-string", "unit-vector"])
def test_circuit_without_inputs_takes_every_input_form(state):
    b = CircuitBuilder()
    q = b.alloc0()
    b.x(q)
    b.output("q", (q,))
    c = b.build()
    assert np.allclose(run(c, state).final_state, [0, 1])
    (branch,) = enumerate_branches(c, state)
    assert np.allclose(branch.final_state, [0, 1])


def test_circuit_without_inputs_rejects_a_wider_state():
    c = CircuitBuilder().build()
    with pytest.raises(DimensionMismatchError):
        run(c, np.ones(2))
    with pytest.raises(DimensionMismatchError):
        enumerate_branches(c, np.ones(2))


# -- differential tests against the moveaxis engine ----------------------------------


def _outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type of the exception it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:  # any type: the two engines must raise the same one
        return type(err)


def assert_engines_agree(circuit, state, seed):
    new = _outcome(enumerate_branches, circuit, state)
    old = _outcome(reference.enumerate_branches, circuit, state)
    if isinstance(new, type) or isinstance(old, type):
        assert new == old
    else:
        assert [b.outcomes for b in new] == [b.outcomes for b in old]
        for got, want in zip(new, old):
            assert abs(got.probability - want.probability) <= 1e-12
            assert np.allclose(got.final_state, want.final_state, rtol=0, atol=1e-12)

    new = _outcome(run, circuit, state, seed=seed)
    old = _outcome(reference.run, circuit, state, seed=seed)
    if isinstance(new, type) or isinstance(old, type):
        assert new == old
    else:
        assert new.classbits == old.classbits
        assert np.allclose(new.final_state, old.final_state, rtol=0, atol=1e-12)


def _declare_live_outputs(c):
    """``c`` with every qubit live at its end declared an output."""
    live = list(c.input_qubits())
    for instr in c.instructions:
        if instr.op in (Op.ALLOC0, Op.ALLOCT):
            live.append(instr.qubits[0])
        elif instr.op is Op.RELEASE:
            live.remove(instr.qubits[0])
    return dataclasses.replace(c, outputs=(Register("live", tuple(live)),))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["simulable", "free", "free-outputs"]),
       st.booleans())
@example(seed=305325, kind="free", basis=False)  # an early leaf fails before a later release
def test_engine_agrees_with_moveaxis_reference(seed, kind, basis):
    # "free" circuits also hold CCX and releases of unmeasured, entangled
    # ancillae; without declared outputs their final extraction fails.
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, simulable=kind == "simulable")
    if kind == "free-outputs":
        c = _declare_live_outputs(c)
    n_in = len(c.input_qubits())
    state = int(rng.integers(1 << n_in)) if basis else random_state(n_in, rng)
    assert_engines_agree(c, state, seed % 1000)


def _random_case(seed, kind, basis):
    """A random circuit of ``kind`` and an input: a basis index (sparse) or amplitudes (dense)."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, simulable=kind == "simulable")
    if kind == "free-outputs":
        c = _declare_live_outputs(c)
    n_in = len(c.input_qubits())
    return c, int(rng.integers(1 << n_in)) if basis else random_state(n_in, rng)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["simulable", "free", "free-outputs"]),
       st.booleans())
def test_run_follows_one_branch_of_the_walk(seed, kind, basis):
    # run and enumerate_branches walk the same tree: forcing a branch's
    # outcomes reproduces it, and a seeded run ends on one of the branches.
    c, state = _random_case(seed, kind, basis)
    branches = _outcome(enumerate_branches, c, state)
    if isinstance(branches, type):
        return  # the error itself is compared with the reference above
    for branch in branches:
        forced = run(c, state, force=dict(branch.outcomes))
        assert forced.classbits == dict(branch.outcomes)
        assert np.allclose(forced.final_state, branch.final_state, rtol=0, atol=1e-12)
    sampled = run(c, state, seed=seed % 1000)
    (branch,) = [b for b in branches if dict(b.outcomes) == sampled.classbits]
    assert np.allclose(sampled.final_state, branch.final_state, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_constructions_agree_with_moveaxis_reference(name, n):
    c = CONSTRUCTIONS[name].build(n)
    rng = np.random.default_rng(n)
    assert_engines_agree(c, random_state(len(c.input_qubits()), rng), n)


@pytest.mark.parametrize("entangle_first", (False, True))
def test_live_qubit_limit_agrees_with_moveaxis_reference(monkeypatch, entangle_first):
    # The limit is checked when an allocation executes, so a failing release
    # before it is reported first.
    for module in (sim, reference):
        monkeypatch.setattr(module, "MAX_LIVE_QUBITS", 2)
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    if entangle_first:
        anc = b.alloc0()
        b.h(q)
        b.cx(q, anc)
        b.release(anc)
    b.alloc0()
    b.alloc0()
    c = b.build()
    expected = ReleaseEntangledError if entangle_first else SimulationError
    one_hot = np.array([1.0, 0.0])  # an amplitude array runs the dense engine and its limit
    assert _outcome(run, c, one_hot) is expected
    assert_engines_agree(c, one_hot, 0)
