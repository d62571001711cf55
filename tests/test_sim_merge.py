"""The walk merges a measurement's two branches where they reconverge and reports what it did unmerged.

The random circuits here are built from AND erasures, whose two outcomes
reconverge after the CZ fixup; X and Z measurements with no fixup, whose
outcomes do not; erasures whose bit a gate reads after the next
measurement, where the merge must be refused; and releases that fail after
outcome 0 only, in the second branch's stretch.  On both engines,
``enumerate_branches``, ``channel_equiv`` and ``basis_equiv`` must return
exactly what they return on the unmerged walk (``walk_reference``), raise
the same errors, and agree with the moveaxis engine (``sim_reference``)
within the differential tests' tolerances.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tclean import sim
from tclean.gadgets import and_compute, and_uncompute, multi_controlled_x
from tclean.ir import CircuitBuilder
from tclean.sim import (
    ReleaseEntangledError,
    SimulationError,
    basis_equiv,
    channel_equiv,
    enumerate_branches,
    fidelity,
)

import sim_reference as reference
from strategies import random_state
from walk_reference import unmerged_walk

#: Most measurements a random circuit makes: 64 branches at most, for the moveaxis engine.
MAX_MEASURED = 6


def branching_circuit(rng: np.random.Generator):
    """A random circuit of gates, AND erasures, unfixed measurements, failing releases and leaks."""
    b = CircuitBuilder()
    live = list(b.register("q", int(rng.integers(2, 4))))
    bits: list[int] = []  # bits a later conditioned gate may read
    measured = 0

    def pick(k: int = 1) -> list[int]:
        return [int(q) for q in rng.choice(live, size=k, replace=False)]

    def gates() -> None:
        for _ in range(int(rng.integers(1, 4))):
            roll = rng.random()
            (q,) = pick()
            if roll < 0.5:
                getattr(b, ("h", "t", "s", "tdg", "x")[int(rng.integers(5))])(q)
            elif roll < 0.6:
                b.rz(float(rng.uniform(-3.1, 3.1)), q)
            elif roll < 0.85:
                p, r = pick(2)
                (b.cx if rng.random() < 0.5 else b.cz)(p, r)
            elif bits:
                b.x(q, cond=bits[int(rng.integers(len(bits)))])

    def erasure(read_later: bool) -> None:
        x, y = pick(2)
        anc = and_compute(b, x, y)
        if not read_later:
            and_uncompute(b, x, y, anc)
            return
        # The same erasure, written out to name its bit, which a gate reads
        # after the next measurement: the two outcomes must not merge.
        bit = b.mx(anc)
        b.cz(x, y, cond=bit)
        b.release(anc)
        erasure(False)
        (q,) = pick()
        b.x(q, cond=bit)

    for _ in range(int(rng.integers(1, 6))):
        segment = rng.choice(["gates", "and", "and-read-later", "unfixed", "fails-on-0", "leak"],
                             p=[0.25, 0.25, 0.15, 0.15, 0.1, 0.1])
        if segment == "gates":
            gates()
        elif segment == "and" and measured < MAX_MEASURED:
            erasure(False)
            measured += 1
        elif segment == "and-read-later" and measured + 2 <= MAX_MEASURED:
            erasure(True)
            measured += 2
        elif segment == "unfixed" and measured < MAX_MEASURED:
            (q,) = pick()
            bits.append((b.mx if rng.random() < 0.5 else b.mz)(q))
            measured += 1
        elif segment == "fails-on-0" and measured < MAX_MEASURED:
            # Outcome 1 resets the ancilla; outcome 0, the second branch the
            # walk takes up, releases it in |1>.
            (q,) = pick()
            b.h(q)
            bit = b.mz(q)
            anc = b.alloc0()
            b.x(anc)
            b.x(anc, cond=bit)
            b.release(anc)
            measured += 1
        elif segment == "leak" and len(live) < 5:
            q = b.alloc0()
            b.h(q)
            live.append(q)
    if rng.random() < 0.8:  # else a leaked qubit fails every leaf's extraction
        b.output("live", tuple(live))
    return b.build()


def _outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type of the exception it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:  # any type: both walks must raise the same one
        return type(err)


def _unmerged(fn, *args, **kwargs):
    """``_outcome`` of ``fn`` with the unmerged walk in place of the walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_walk", unmerged_walk)
        return _outcome(fn, *args, **kwargs)


def _errored(result) -> bool:
    return isinstance(result, type)


def _assert_same_branches(got, want) -> None:
    """The same branches, exactly, each with its own array."""
    if _errored(got) or _errored(want):
        assert got == want
        return
    assert [b.outcomes for b in got] == [b.outcomes for b in want]
    assert [b.probability for b in got] == [b.probability for b in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.final_state, w.final_state)
    assert len({id(b.final_state) for b in got}) == len(got)


def _assert_near_reference(got, ref) -> None:
    if _errored(got) or _errored(ref):
        assert got == ref
        return
    assert [b.outcomes for b in got] == [b.outcomes for b in ref]
    for g, r in zip(got, ref):
        assert abs(g.probability - r.probability) <= 1e-12
        assert np.allclose(g.final_state, r.final_state, rtol=0, atol=1e-12)


def _paths_before_error(walk, circuit, state):
    """Every path ``walk`` yields, and the type of the error that ends it, if any."""
    engine, read = sim._engine(state)
    program = sim._compile(circuit, engine)
    seen = []
    try:
        for leaf in walk(program, read(circuit, state), sim._every):
            seen += [tuple(sorted(bits.items())) for bits, _ in leaf.paths]
    except SimulationError as err:
        return seen, type(err)
    return seen, None


def _ideal(circuit, rng: np.random.Generator):
    """The moveaxis engine's first branch on each input, or a fixed random state where it raises."""
    fallback = random_state(len(circuit.output_qubits()), rng)
    seen = {}

    def ideal(vec):
        key = vec.tobytes()
        if key not in seen:
            branches = _outcome(reference.enumerate_branches, circuit, vec)
            seen[key] = fallback if _errored(branches) else branches[0].final_state
        return seen[key]

    return ideal


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_merged_walk_reports_what_the_unmerged_walk_and_the_reference_report(seed):
    rng = np.random.default_rng(seed)
    c = branching_circuit(rng)
    n_in = len(c.input_qubits())
    dense = random_state(n_in, rng)
    basis = int(rng.integers(1 << n_in))
    other = basis ^ 1 << int(rng.integers(n_in))
    pair = {basis: 0.6, other: 0.8j}  # two terms: the sparse engine
    pair_vec = np.zeros(1 << n_in, dtype=complex)
    pair_vec[[basis, other]] = 0.6, 0.8j

    for state, ref_state in ((dense, dense), (basis, basis), (pair, pair_vec)):
        got = _outcome(enumerate_branches, c, state)
        _assert_same_branches(got, _unmerged(enumerate_branches, c, state))
        _assert_near_reference(got, _outcome(reference.enumerate_branches, c, ref_state))
        merged, merged_error = _paths_before_error(sim._walk, c, state)
        unmerged, unmerged_error = _paths_before_error(unmerged_walk, c, state)
        # An error in the second branch's stretch comes after every leaf of the
        # first; a merged branch may have yielded more paths before one it carries.
        assert merged_error == unmerged_error
        assert set(unmerged) <= set(merged)
        if merged_error is None:
            assert sorted(merged) == sorted(unmerged)

    states = [dense, random_state(n_in, rng)]
    ideal = _ideal(c, rng)
    got = _outcome(channel_equiv, c, ideal, input_states=states)
    assert got == _unmerged(channel_equiv, c, ideal, input_states=states)
    refs = [_outcome(reference.enumerate_branches, c, s) for s in states]
    if not _errored(got) and not any(map(_errored, refs)):
        assert got.branch_count == sum(map(len, refs))
        worst = min(fidelity(ideal(s), b.final_state) for s, bs in zip(states, refs) for b in bs)
        assert abs(got.worst_fidelity - worst) <= 1e-9

    refs = [_outcome(reference.enumerate_branches, c, i) for i in range(1 << n_in)]
    want = [0 if _errored(bs) else int(np.argmax(np.abs(bs[0].final_state))) for bs in refs]
    got = _outcome(basis_equiv, c, want.__getitem__)
    assert got == _unmerged(basis_equiv, c, want.__getitem__)
    if not _errored(got) and not any(map(_errored, refs)):
        assert got.branch_count == sum(map(len, refs))
        if got.equivalent:  # the one walk also compares phases across inputs
            assert all(abs(b.final_state[want[i]]) ** 2 >= 1 - 1e-9
                       for i, bs in enumerate(refs) for b in bs)


def _erasure_pair(read_first_bit: bool):
    """Two ANDs of the same inputs, the first erasure written out so that a
    gate can read its bit after the second."""
    b = CircuitBuilder()
    x, y = b.register("q", 2)
    anc = and_compute(b, x, y)
    bit = b.mx(anc)
    b.cz(x, y, cond=bit)
    b.release(anc)
    and_uncompute(b, x, y, and_compute(b, x, y))
    if read_first_bit:
        b.x(x, cond=bit)
    return b.build()


@pytest.mark.parametrize("read_first_bit,paths", [(False, [4]), (True, [2, 2])])
@pytest.mark.parametrize("engine", ["dense", "sparse"])
def test_an_erasure_merges_unless_its_bit_is_read_after_the_next_measurement(read_first_bit, paths, engine):
    c = _erasure_pair(read_first_bit)
    state = np.full(4, 0.5, dtype=complex) if engine == "dense" else {k: 0.5 for k in range(4)}
    engine_type, read = sim._engine(state)
    leaves = list(sim._walk(sim._compile(c, engine_type), read(c, state), sim._every))
    assert [len(leaf.paths) for leaf in leaves] == paths
    _assert_same_branches(enumerate_branches(c, state), _unmerged(enumerate_branches, c, state))


def test_measured_branches_that_differ_are_not_merged():
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    b.h(q)
    b.mx(b.alloc0())  # a fresh |0> measured in X: two equally likely outcomes, never fixed up
    c = b.build()
    leaves = list(sim._walk(sim._compile(c, sim.SparseState), {1: 1.0}, sim._every))
    assert [len(leaf.paths) for leaf in leaves] == [1, 1]


def test_equal_terms_in_another_order_are_not_merged():
    # Outcome 1's fixup maps its terms onto outcome 0's, in another order.
    # Merged, the last measurement would sum the terms in outcome 1's order
    # for outcome 0's path too, and round its probability otherwise.
    b = CircuitBuilder()
    q, _, _, u = b.register("q", 4)
    bit = b.mz(q)
    b.x(q, cond=bit)
    b.z(q)  # touches q on both branches, so their just-measured sets agree
    b.mz(u)
    c = b.build()
    state = {0b0000: 0.5, 0b0010: 0.5, 0b0100: 0.3, 0b0101: 0.3, 0b0001: 0.5, 0b0011: 0.5}
    leaves = list(sim._walk(sim._compile(c, sim.SparseState), sim._input_terms(c, state), sim._every))
    assert [len(leaf.paths) for leaf in leaves] == [1, 1]
    _assert_same_branches(enumerate_branches(c, state), _unmerged(enumerate_branches, c, state))


def test_a_release_failing_after_outcome_0_is_raised_after_outcome_1s_leaves():
    b = CircuitBuilder()
    q, r = b.register("q", 2)
    b.h(q)
    bit = b.mz(q)
    anc = b.alloc0()
    b.x(anc)
    b.x(anc, cond=bit)
    b.release(anc)
    and_uncompute(b, q, r, and_compute(b, q, r))
    c = b.build()
    for state in (np.array([1, 0, 0, 0], dtype=complex), 0):
        seen, error = _paths_before_error(sim._walk, c, state)
        assert error is ReleaseEntangledError
        assert sorted(seen) == [((0, 1), (1, 0)), ((0, 1), (1, 1))]


#: Engine kernels that touch amplitudes, measurements' included.
_KERNELS = ("alloc", "release", "flip", "phase", "h", "y", "probs", "project", "probs_x", "project_x")


def _kernel_calls(circuit, state) -> int:
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in _KERNELS:
            kernel = getattr(sim.SparseState, name)
            mp.setattr(sim.SparseState, name, lambda branch, *args, _kernel=kernel:
                       calls.append(_kernel.__name__) or _kernel(branch, *args))
        enumerate_branches(circuit, state)
    return len(calls)


@pytest.mark.parametrize("k", (4, 8, 12))
def test_branch_enumeration_calls_kernels_in_proportion_to_instructions(k, monkeypatch):
    # k - 1 erasures give 2^(k-1) branches; merged, each stretch runs at most
    # twice, once per outcome, so no count grows with the branches.  Results
    # as terms, not 2^(k+1)-entry vectors: 2048 of those would take 256 MiB at k = 12.
    monkeypatch.setattr(sim, "MAX_LIVE_QUBITS", k)
    c = multi_controlled_x(k)
    ones = (1 << k) - 1  # every control set: the target flips
    assert _kernel_calls(c, ones) <= 2 * len(c.instructions)
    if k == 8:  # the unmerged walk's count grows with the branches
        monkeypatch.setattr(sim, "_walk", unmerged_walk)
        assert _kernel_calls(c, ones) > 8 * len(c.instructions)
