"""An AND record runs as one kernel and reports what its instructions report.

``tclean.sim`` compiles each record whose template measures and releases
nothing to one step: the engine's ``record`` kernel on the template's action,
derived by running the template's instructions.  The reference is the same
circuit with its records expanded into bare instructions, which compiles one
step per instruction (and ``sim_reference``, the moveaxis engine, beside it).
``run``, ``enumerate_branches``, ``channel_equiv`` and ``basis_equiv`` must
give the same outcomes, branch and pair counts and verdicts on both, with
amplitudes and probabilities within 1e-12, and raise the same error with the
same message after the same branches, also with the simulator's limits
lowered.  The results agree to rounding, not bit for bit: the record
multiplies by its derived amplitudes instead of running twelve kernels.

An erasure record compiles to a fused step before its instructions, and the
walk takes it, with no fork, where both outcomes lead to one state.  Its
reference is the same circuit with that step left out
(``walk_reference.fusion_off``): the same classical bits from ``run``, the
same outcomes and path counts elsewhere, and the rest within 1e-12.  Where
the step does not apply, the walk must run exactly what it runs without it.
"""
import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tclean import sim
from tclean.constructions import CONSTRUCTIONS
from tclean.gadgets import (AdderSpec, and_compute, and_gadget_circuit, and_uncompute, gidney_adder,
                            multi_controlled_x)
from tclean.ir import AND_COMPUTE, AND_UNCOMPUTE, Circuit, CircuitBuilder, Gadget, Register, Template
from tclean.sim import (
    MAX_MEASUREMENTS,
    ReleaseEntangledError,
    SimulationError,
    TooManyBranchesError,
    basis_equiv,
    channel_equiv,
    enumerate_branches,
    run,
)
from tclean.textfmt import from_text, to_text

import sim_reference as reference
from basis_reference import ideal_map
from strategies import random_circuit, random_state, seeded_states
from test_goldens import bare
from walk_reference import fusion_off, per_slab_record, uncompiled

TOL = 1e-12
#: Most measurements for which ``enumerate_branches`` is compared: every path
#: gets its own output vector, so 2^14 of them would cost more than the check.
MAX_ENUMERATED = 10


def expanded(circuit: Circuit) -> Circuit:
    """``circuit`` with every record spelled as its bare instructions."""
    return Circuit(circuit.instructions, circuit.inputs, circuit.outputs)


def _outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and message of the SimulationError it raises."""
    try:
        return fn(*args, **kwargs)
    except SimulationError as err:
        return type(err), str(err)


def _errored(result) -> bool:
    return isinstance(result, tuple) and isinstance(result[0], type)


def _same_branches(got, want) -> None:
    if _errored(got) or _errored(want):
        assert got == want
        return
    assert [b.outcomes for b in got] == [b.outcomes for b in want]
    for g, w in zip(got, want):
        assert abs(g.probability - w.probability) <= TOL
        assert np.allclose(g.final_state, w.final_state, rtol=0, atol=TOL)


def _same_run(got, want) -> None:
    if _errored(got) or _errored(want):
        assert got == want
        return
    assert got.classbits == want.classbits
    assert np.allclose(got.final_state, want.final_state, rtol=0, atol=TOL)


def _same_verdict(got, want) -> None:
    if _errored(got) or _errored(want):
        assert got == want
        return
    assert (got.equivalent, got.branch_count) == (want.equivalent, want.branch_count)
    assert abs(got.worst_fidelity - want.worst_fidelity) <= TOL


def _inputs(circuit: Circuit, rng: np.random.Generator) -> list:
    """A dense random state, a basis index and a two-term mapping: both engines, and a relative phase."""
    n_in = len(circuit.input_qubits())
    basis = int(rng.integers(1 << n_in))
    other = basis ^ 1 << int(rng.integers(n_in)) if n_in else basis
    pair = {basis: 0.6, other: 0.8j} if other != basis else {basis: 1.0}
    return [random_state(n_in, rng), basis, pair]


def _compare_runs(circuit: Circuit, flat: Circuit, rng: np.random.Generator, *, enumerate_all: bool) -> None:
    for state in _inputs(circuit, rng):
        _same_run(_outcome(run, circuit, state, seed=3), _outcome(run, flat, state, seed=3))
        if enumerate_all:
            _same_branches(_outcome(enumerate_branches, circuit, state),
                           _outcome(enumerate_branches, flat, state))


def _measurements(circuit: Circuit) -> int:
    return sum(instr.result is not None for instr in circuit.instructions)


def _fused_records(circuit: Circuit) -> int:
    return sum(isinstance(step, Gadget) and step.template is AND_COMPUTE for step in circuit.body)


def _erasure_records(circuit: Circuit) -> int:
    return sum(isinstance(step, Gadget) and step.template is AND_UNCOMPUTE for step in circuit.body)


def _distinct_builds():
    """(name, n, carry_out) for every construction at n = 1 to 4 whose circuit the flag changes."""
    cases = []
    for name, entry in sorted(CONSTRUCTIONS.items()):
        for n in range(1, 5):
            plain = entry.build(n, False)
            cases.append((name, n, False))
            if entry.build(n, True) != plain:
                cases.append((name, n, True))
    return cases


# -- the record's one kernel --------------------------------------------------------


def test_the_and_action_is_the_and():
    action = sim._action(AND_COMPUTE)
    assert [(out, inp) for out, inp, _ in action.entries] == [(0, 0), (1, 1), (2, 2), (7, 3)]
    assert all(abs(amp - 1) <= 1e-15 for _, _, amp in action.entries)
    assert not action.summing and action.doubles == 1
    assert action.agree is None and action.probs is None


def test_the_erasure_action_drops_an_ancilla_holding_the_and():
    # Patterns x + 2y + 4anc: the outcomes agree where anc == x & y, and
    # there both drop the ancilla, each at probability 1/2.
    action = sim._action(AND_UNCOMPUTE)
    assert action.agree == (0b000, 0b001, 0b010, 0b111)
    assert action.entries == ((0, 0b000, 1), (1, 0b001, 1), (2, 0b010, 1), (3, 0b111, 1))
    assert action.probs == (0.5, 0.5) and action.dead == (2,)
    assert not action.summing and action.doubles == 0


def test_a_measuring_template_is_fused_where_its_own_outcomes_agree():
    # Wire roles come from the instructions.  An ancilla that copies x is
    # erased by an X measurement and a Z fixup on x: the outcomes agree where
    # anc == x (patterns x + 2anc).  A Z measurement's never do: on a basis
    # state one outcome has probability zero.
    copy = sim._action(Template(None, "x anc", """
        mx anc
        ? z x
        release anc
    """))
    assert (copy.agree, copy.entries) == ((0, 3), ((0, 0, 1), (1, 3, 1)))
    assert (copy.probs, copy.dead) == ((0.5, 0.5), (1,))
    assert sim._action(Template(None, "x anc", """
        cx x anc
        mz anc
        release anc
    """)) is None


@pytest.mark.parametrize("template", [AND_COMPUTE, AND_UNCOMPUTE], ids=["compute", "erasure"])
def test_the_dense_record_kernel_agrees_with_the_per_slab_reference(template):
    # Random states a few qubits wider than the live-in wires, which sit at
    # random positions: within the patterns where an erasure's outcomes
    # agree or with support outside them, with exact zeros, and with one NaN
    # amplitude.  The kernel copies where the reference multiplies by 1, so a
    # NaN part may spread to the other part in the reference only.
    action = sim._action(template)
    verdicts = collections.Counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(action.width, action.width + 4))
        where = tuple(int(p) for p in rng.permutation(n)[:action.width])
        args = sim._slab_moves(n, where, action)
        outside, old_shape = args[0], args[2]
        for case in ("within", "outside", "zeros", "nan"):
            amps = random_state(n, rng)
            if case != "outside" and (case == "within" or rng.random() < 0.5):
                for slab in outside:
                    amps.reshape(old_shape)[slab] = 0
            if case == "zeros":
                amps[rng.random(amps.size) < 0.5] = 0
            if case == "nan":
                amps[rng.integers(amps.size)] = np.nan
            got, want = sim.SimState(amps), sim.SimState(amps)
            with np.errstate(invalid="ignore"):
                applied = got.record(*args)
                assert applied == per_slab_record(want, *args)
            assert np.array_equal(got.amps, want.amps, equal_nan=True)
            if not applied:
                assert np.array_equal(got.amps, amps, equal_nan=True)
            verdicts[case, applied] += 1
    if action.agree is None:
        assert not any(applied is False for _, applied in verdicts)
    else:  # every case both ways, but "within", which always applies, and "outside", which never does
        assert verdicts.keys() == {("within", True), ("outside", False), ("zeros", True), ("zeros", False),
                                   ("nan", True), ("nan", False)}


@pytest.mark.parametrize("engine", [sim.SimState, sim.SparseState], ids=["dense", "sparse"])
def test_each_compute_record_compiles_to_one_step(engine):
    # And each erasure record to its fused step before its instructions.
    c = gidney_adder(AdderSpec(3, carry_out=True))
    records = _fused_records(c)
    erasures = _erasure_records(c)
    assert (records, erasures) == (3, 3)
    steps = sim._compile(c, engine).steps
    flat_steps = sim._compile(expanded(c), engine).steps
    assert len(steps) == len(flat_steps) - (AND_COMPUTE.size - 1) * records + erasures
    assert sum(kernel == engine.record for _, _, kernel, _ in steps) == records
    assert sum(isinstance(args, sim._Erasure) for _, _, _, args in steps) == erasures
    assert not any(kernel == engine.record or isinstance(args, sim._Erasure)
                   for _, _, kernel, args in flat_steps)


#: A template whose action sends two inputs to one output (its H), so the
#: kernel sums: a broken template is still simulated as written.
_SUMMING = Template(None, "x y anc", """
    alloct anc
    h x
    cx x anc
    t y
    cz y anc
""")


@pytest.mark.parametrize("wires", [(2, 0, 4), (0, 3, 4), (3, 1, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_a_summing_action_runs_what_its_instructions_do(wires, seed):
    inputs = (0, 1, 2, 3)
    flat = Circuit(_SUMMING.instantiate(wires), (Register("q", inputs),), (Register("out", inputs + (4,)),))
    action = sim._action(_SUMMING)
    assert action.summing
    rng = np.random.default_rng(seed)
    state = random_state(len(inputs), rng)
    x = inputs.index(wires[0])
    # x in |->: the H's two contributions to x = 0 cancel, which the sparse engine drops.
    minus = np.zeros(16, dtype=complex)
    minus[[0, 1 << x]] = 1, -1
    for start in (state, minus / np.linalg.norm(minus)):
        want = run(flat, start).final_state
        for initial in (start, dict(enumerate(start))):  # the dense engine, then the sparse one
            engine, read = sim._engine(initial)
            layout = engine.layout(inputs)
            branch = engine(read(flat, initial))
            branch.record(*layout.record(wires, action))
            got = branch.extract(layout.final(), inputs + (4,))
            assert np.allclose(got, want, rtol=0, atol=TOL)
            if engine is sim.SparseState:
                assert all(abs(a) > sim._PRUNE_TOL for a in branch.amps.values())
                assert len(branch.amps) == np.count_nonzero(np.abs(want) > sim._PRUNE_TOL)


# -- every construction, against its expansion -----------------------------------------


@pytest.mark.parametrize("name, n, carry_out", _distinct_builds())
def test_constructions_agree_with_their_expansion(name, n, carry_out):
    entry = CONSTRUCTIONS[name]
    c = entry.build(n, carry_out)
    flat = expanded(c)
    rng = np.random.default_rng(n + 8 * carry_out)
    _compare_runs(c, flat, rng, enumerate_all=_measurements(c) <= MAX_ENUMERATED)
    ideal = ideal_map(entry, c, n, carry_out)
    states = seeded_states(c, 2, seed=n)
    _same_verdict(_outcome(channel_equiv, c, ideal, input_states=states),
                  _outcome(channel_equiv, flat, ideal, input_states=states))
    read, flat_read = ((entry.readout(c, n), entry.readout(flat, n)) if entry.readout else (None, None))
    want = entry.ideal(n, carry_out)
    got = _outcome(basis_equiv, c, want, read)
    _same_verdict(got, _outcome(basis_equiv, flat, want, flat_read))
    if not _errored(got):
        assert got.equivalent


@pytest.mark.parametrize("name", ["gidney-adder", "controlled-adder", "mcx", "hamming", "and"])
def test_constructions_agree_with_the_moveaxis_reference(name):
    c = CONSTRUCTIONS[name].build(2)
    state = random_state(len(c.input_qubits()), np.random.default_rng(2))
    _same_branches(_outcome(enumerate_branches, c, state), _outcome(reference.enumerate_branches, c, state))


# -- random circuits ------------------------------------------------------------------


def _reference_ideal(circuit: Circuit, rng: np.random.Generator):
    """The expanded circuit's first branch on each input, or a fixed random state where it raises."""
    fallback = random_state(len(circuit.output_qubits()), rng)
    seen = {}

    def ideal(vec):
        key = vec.tobytes()
        if key not in seen:
            branches = _outcome(enumerate_branches, circuit, vec)
            seen[key] = fallback if _errored(branches) else branches[0].final_state
        return seen[key]

    return ideal


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_circuits_agree_with_their_expansion(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, simulable=True)
    flat = expanded(c)
    _compare_runs(c, flat, rng, enumerate_all=True)
    state = _inputs(c, rng)[0]
    _same_branches(_outcome(enumerate_branches, c, state), _outcome(reference.enumerate_branches, c, state))
    ideal = _reference_ideal(flat, rng)
    states = seeded_states(c, 2, seed=seed % 1000)
    _same_verdict(_outcome(channel_equiv, c, ideal, input_states=states),
                  _outcome(channel_equiv, flat, ideal, input_states=states))
    n_out = len(c.output_qubits())
    shift = int(rng.integers(1 << n_out))

    def want(i: int) -> int:
        return (i + shift) % (1 << n_out)

    _same_verdict(_outcome(basis_equiv, c, want), _outcome(basis_equiv, flat, want))


# -- limits ---------------------------------------------------------------------------


def _walked(circuit: Circuit, state):
    """The outcomes and weight of every path the walk yields from ``state``, and
    the error that ends it (type, message), or None."""
    engine, read = sim._engine(state)
    outcomes, weights = [], []
    try:
        program = sim._compile(circuit, engine)
        for leaf in sim._walk(program, read(circuit, state), sim._every):
            outcomes += [tuple(sorted(bits.items())) for bits, _ in leaf.paths]
            weights += [weight for _, weight in leaf.paths]
    except SimulationError as err:
        return outcomes, weights, (type(err), str(err))
    return outcomes, weights, None


def _same_walk(got, want) -> None:
    assert (got[0], got[2]) == (want[0], want[2])
    assert np.allclose(got[1], want[1], rtol=0, atol=TOL)


def _peak_live(circuit: Circuit) -> int:
    lives = (instr.op.lifetime for instr in circuit.instructions)
    return max(itertools.accumulate(lives, initial=len(circuit.input_qubits())))


@pytest.mark.parametrize("name", ["gidney-adder", "controlled-adder", "mcx", "hamming", "and"])
def test_live_qubit_limit_is_met_where_the_expansion_meets_it(monkeypatch, name):
    c = CONSTRUCTIONS[name].build(3)
    flat = expanded(c)
    n_in = len(c.input_qubits())
    state = random_state(n_in, np.random.default_rng(5))
    raised = 0
    for limit in range(max(n_in, 3), _peak_live(c) + 1):
        monkeypatch.setattr(sim, "MAX_LIVE_QUBITS", limit)
        got = _walked(c, state)
        _same_walk(got, _walked(flat, state))
        raised += got[2] is not None
        _same_run(_outcome(run, c, state, seed=1), _outcome(run, flat, state, seed=1))
        if _measurements(c) <= MAX_ENUMERATED:
            _same_branches(_outcome(enumerate_branches, c, state), _outcome(enumerate_branches, flat, state))
    assert raised == _peak_live(c) - max(n_in, 3)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_term_cap_is_met_where_the_expansion_meets_it(monkeypatch, n):
    # Every basis input: the first record's alloct doubles the terms, 2^(2n)
    # of them, which is where the expanded walk peaks.  With n = 1 the
    # circuit is one AND compute, which no later step doubles again.
    c = and_gadget_circuit("compute") if n == 1 else gidney_adder(AdderSpec(n))
    flat = expanded(c)
    terms = 1 << len(c.input_qubits())
    everything = {k: 1.0 for k in range(terms)}
    outcomes = set()
    for cap in range(terms, 2 * terms + 2):
        monkeypatch.setattr(sim, "MAX_TERMS", cap)
        got = _walked(c, everything)
        _same_walk(got, _walked(flat, everything))
        outcomes.add(got[2])
        _same_run(_outcome(run, c, everything, seed=2), _outcome(run, flat, everything, seed=2))
    assert outcomes == {(SimulationError, f"more than {cap} sparse terms") for cap in range(terms, 2 * terms)} | {None}


def test_a_record_ends_the_just_measured_state_of_its_wires():
    # a is measured, then read by the record, then released: after outcome 1
    # it holds 1 and was not just measured, so the release must refuse.
    b = CircuitBuilder()
    (y,) = b.register("y", 1)
    a = b.alloc0()
    b.h(a)
    b.mz(a)
    anc = and_compute(b, a, y)
    b.release(a)
    b.output("out", (y, anc))
    c = b.build()
    for state in (random_state(1, np.random.default_rng(1)), 1, {0: 0.6, 1: 0.8j}):
        got = _walked(c, state)
        _same_walk(got, _walked(expanded(c), state))
        assert got[2] is not None and got[2][0] is ReleaseEntangledError


def _overflow_after_a_record(before: int, after: int) -> Circuit:
    """An AND record, ``before`` measurements, an allocation past a limit of 3 live qubits, ``after`` more."""
    b = CircuitBuilder()
    x, y = b.register("q", 2)
    and_compute(b, x, y)
    for _ in range(before):
        b.mz(x)
    b.alloc0()
    for _ in range(after):
        b.mz(y)
    return b.build()


@pytest.mark.parametrize("before, after", [(0, MAX_MEASUREMENTS + 1), (5, MAX_MEASUREMENTS - 4),
                                           (5, MAX_MEASUREMENTS - 5), (0, MAX_MEASUREMENTS)])
def test_an_overflow_after_a_record_counts_every_measurement(monkeypatch, before, after):
    # Nothing past the overflowing allocation compiles, but the measurement
    # bound counts the circuit's every measurement, as the expansion does.
    monkeypatch.setattr(sim, "MAX_LIVE_QUBITS", 3)
    c = _overflow_after_a_record(before, after)
    state = random_state(2, np.random.default_rng(0))
    got = _outcome(enumerate_branches, c, state)
    assert got == _outcome(enumerate_branches, expanded(c), state)
    if before + after > MAX_MEASUREMENTS:
        assert got == (TooManyBranchesError,
                       f"{before + after} measurements exceeds bound {MAX_MEASUREMENTS}")
    else:
        assert got == (SimulationError, "more than 3 live qubits")
    program = sim._compile(c, sim.SimState)
    assert program.measurements == before + after
    assert len(program.steps) == 1 + before + 1  # the record, the measurements, the allocation


def test_an_action_derived_under_a_lowered_limit_is_the_action(monkeypatch):
    # The derivation holds the template's three wires whatever limit a caller
    # set, so the record meets the bound where its expansion does.
    b = CircuitBuilder()
    x, y = b.register("q", 2)
    and_compute(b, x, y)
    for _ in range(MAX_MEASUREMENTS + 1):
        b.mz(x)
    c = b.build()
    derived = sim._action(AND_COMPUTE).entries
    sim._action.cache_clear()
    monkeypatch.setattr(sim, "MAX_LIVE_QUBITS", 2)
    for state in (0, random_state(2, np.random.default_rng(0))):
        with pytest.raises(TooManyBranchesError):
            enumerate_branches(c, state)
        assert _outcome(enumerate_branches, c, state) == _outcome(enumerate_branches, expanded(c), state)
    assert sim._action(AND_COMPUTE).entries == derived


def test_merged_branches_agree_with_their_expansion_on_many_erasures():
    # k - 1 erasures: each record's two outcomes reconverge after the fixup.
    c = multi_controlled_x(6)
    flat = expanded(c)
    for state in (63 | 1 << 6, {63: 0.6, 62: 0.8j}, random_state(7, np.random.default_rng(6))):
        _same_branches(_outcome(enumerate_branches, c, state), _outcome(enumerate_branches, flat, state))


# -- erasure records, against fusion off -------------------------------------------------


def _unfused(fn, *args, **kwargs):
    """``_outcome`` of ``fn`` with every erasure record compiled as its instructions."""
    with fusion_off():
        return _outcome(fn, *args, **kwargs)


@pytest.mark.parametrize("name, n, carry_out", _distinct_builds())
def test_fused_erasures_agree_with_fusion_off(name, n, carry_out):
    entry = CONSTRUCTIONS[name]
    c = entry.build(n, carry_out)
    rng = np.random.default_rng(100 + n + 8 * carry_out)
    bits = _measurements(c)
    for state in _inputs(c, rng):
        for seed in range(3):
            _same_run(_outcome(run, c, state, seed=seed), _unfused(run, c, state, seed=seed))
        force = {bit: int(rng.integers(2)) for bit in range(bits)}
        _same_run(_outcome(run, c, state, force=force), _unfused(run, c, state, force=force))
        if bits <= MAX_ENUMERATED:
            _same_branches(_outcome(enumerate_branches, c, state), _unfused(enumerate_branches, c, state))
    ideal = ideal_map(entry, c, n, carry_out)
    states = seeded_states(c, 2, seed=n)
    _same_verdict(_outcome(channel_equiv, c, ideal, input_states=states),
                  _unfused(channel_equiv, c, ideal, input_states=states))
    read = entry.readout(c, n) if entry.readout else None
    want = entry.ideal(n, carry_out)
    _same_verdict(_outcome(basis_equiv, c, want, read), _unfused(basis_equiv, c, want, read))


def _flipped_ancilla() -> Circuit:
    """The ancilla flipped between the compute and the erasure: no pattern agrees."""
    b = CircuitBuilder()
    x, y = b.register("q", 2)
    anc = and_compute(b, x, y)
    b.x(anc)
    and_uncompute(b, x, y, anc)
    return b.build()


def _bit_read_later() -> Circuit:
    b = CircuitBuilder()
    x, y = b.register("q", 2)
    and_uncompute(b, x, y, and_compute(b, x, y))
    b.x(x, cond=0)  # the builder hands out bit 0 first: the erasure's
    return b.build()


def _wire_just_measured(released: bool) -> Circuit:
    """An erasure of the AND of ``a`` right after ``a`` is measured, and ``a``
    released after it where ``released``: after outcome 1 of both, ``a``
    holds 1, and the fixup ended its just-measured state, so the release
    must refuse."""
    b = CircuitBuilder()
    (y,) = b.register("y", 1)
    a = b.alloc0()
    b.h(a)
    anc = and_compute(b, a, y)
    b.mz(a)
    and_uncompute(b, a, y, anc)
    if released:
        b.release(a)
    b.output("out", (y,) if released else (y, a))
    return b.build()


def _bare_erasures() -> Circuit:
    """A gidney adder read back without its span markers, as the corpus mutants are."""
    return from_text(bare(to_text(gidney_adder(AdderSpec(2)))))


def _projections(fn, circuit, *args):
    """``_outcome`` of ``fn`` on a copy of ``circuit`` compiled afresh, and how
    many outcome probabilities in X it computed."""
    counts = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        for engine in (sim.SimState, sim.SparseState):
            kernel = engine.probs_x
            mp.setattr(engine, "probs_x", lambda branch, *a, _kernel=kernel:
                       counts.update(["probs_x"]) or _kernel(branch, *a))
        return _outcome(fn, uncompiled(circuit), *args), counts["probs_x"]


def _assert_identical_branches(got, want) -> None:
    if _errored(got) or _errored(want):
        assert got == want
        return
    assert [(b.outcomes, b.probability) for b in got] == [(b.outcomes, b.probability) for b in want]
    assert all(np.array_equal(g.final_state, w.final_state) for g, w in zip(got, want))


@pytest.mark.parametrize("build, raises", [
    (_flipped_ancilla, False),
    (_bit_read_later, False),
    (lambda: _wire_just_measured(False), False),
    (lambda: _wire_just_measured(True), True),
    (_bare_erasures, False),
], ids=["flipped-ancilla", "bit-read-later", "wire-just-measured", "wire-just-measured-then-released",
        "bare"])
def test_an_erasure_that_cannot_fuse_runs_its_instructions(build, raises):
    # Not fused: as many X-basis probabilities as with fusion off, and every
    # result bit for bit what the walk returns with fusion off.
    sim._action(AND_UNCOMPUTE)  # derived by walks of its own, once per process
    c = build()
    for state in _inputs(c, np.random.default_rng(7)):
        got, calls = _projections(enumerate_branches, c, state)
        with fusion_off():
            want, want_calls = _projections(enumerate_branches, c, state)
        assert calls == want_calls > 0
        _assert_identical_branches(got, want)
        assert _errored(got) == raises
        if raises:
            assert got[0] is ReleaseEntangledError


def test_every_erasure_fuses_without_a_fork():
    # gidney-adder n = 3 and mcx k = 6 measure only in their erasures: with
    # every erasure fused, none computes an X-basis probability, projects or
    # copies a branch, and every path is still reported.
    sim._action(AND_UNCOMPUTE)
    counts = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((sim.SimState, "probs_x"), (sim.SimState, "project_x"), (sim._Branch, "copy")):
            kernel = getattr(owner, name)
            mp.setattr(owner, name, lambda *a, _kernel=kernel, _name=name:
                       counts.update([_name]) or _kernel(*a))
        adder = gidney_adder(AdderSpec(3))
        ideal = ideal_map(CONSTRUCTIONS["gidney-adder"], adder, 3)
        result = channel_equiv(adder, ideal, input_states=seeded_states(adder, 2, seed=3))
        mcx = multi_controlled_x(6)
        branches = enumerate_branches(mcx, np.full(1 << 7, 2 ** -3.5, dtype=complex))
    assert not counts
    assert result.equivalent and result.branch_count == 2 << _measurements(adder)
    assert len(branches) == 1 << _measurements(mcx) == 32
