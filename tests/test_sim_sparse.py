"""Sparse basis-state engine: against the dense engine, and adder semantics at n = 64 to 1024.

A basis index, a bit string, ``None`` or a ``{basis index: amplitude}``
mapping runs the sparse engine; the same state as an amplitude array runs the
dense one.  The differential tests require both to return the same branches,
classical bits and exceptions, and states within 1e-12.  The large-n tests
decode every output register against integer arithmetic, on seeded runs and
on forced all-0, all-1 and alternating MX outcomes.  Basis inputs cannot see
a missing CZ fixup, which only costs a branch a global phase, so two-term
inputs check the relative phase too.
"""
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tclean import sim
from tclean.constructions import CONSTRUCTIONS
from tclean.gadgets import (
    AdderSpec,
    controlled_adder,
    cuccaro_adder,
    gidney_adder,
    multi_controlled_x,
    outofplace_adder,
)
from tclean.ir import CircuitBuilder, Op
from tclean.sim import (
    MAX_LIVE_QUBITS,
    DimensionMismatchError,
    SimulationError,
    decode_register,
    enumerate_branches,
    register_basis,
    run,
)

import sim_reference as reference
from strategies import random_circuit, random_state
from test_sim import _declare_live_outputs, _outcome

_SQ = 1 / math.sqrt(2)


def _dense(state, n_in: int) -> np.ndarray:
    """The amplitude array of a basis index or a ``{basis index: amplitude}`` mapping."""
    terms = state if isinstance(state, dict) else {state: 1.0}
    vec = np.zeros(1 << n_in, dtype=complex)
    for k, amp in terms.items():
        vec[k] = amp
    return vec


def _assert_same(got, want) -> None:
    """Two outcomes of :func:`_outcome`: equal exception types or matching results."""
    if isinstance(got, type) or isinstance(want, type):
        assert got == want
    elif isinstance(got, list):
        assert [b.outcomes for b in got] == [b.outcomes for b in want]
        for g, w in zip(got, want):
            assert abs(g.probability - w.probability) <= 1e-12
            assert np.allclose(g.final_state, w.final_state, rtol=0, atol=1e-12)
    else:
        assert got.classbits == want.classbits
        assert np.allclose(got.final_state, want.final_state, rtol=0, atol=1e-12)


def assert_sparse_matches_dense(circuit, state, seed: int) -> None:
    """``state`` (basis index or mapping) on the sparse engine against its array on the dense one."""
    vec = _dense(state, len(circuit.input_qubits()))
    _assert_same(_outcome(enumerate_branches, circuit, state),
                 _outcome(enumerate_branches, circuit, vec))
    _assert_same(_outcome(run, circuit, state, seed=seed), _outcome(run, circuit, vec, seed=seed))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["simulable", "free", "free-outputs"]),
       st.booleans())
@example(131, "free-outputs", True)  # branches of probability 1e-5 and 2e-6
def test_sparse_engine_agrees_with_dense(seed, kind, two_terms):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, simulable=kind == "simulable")
    if kind == "free-outputs":
        c = _declare_live_outputs(c)
    dim = 1 << len(c.input_qubits())
    state = int(rng.integers(dim))
    if two_terms and dim > 1:
        other = (state + int(rng.integers(1, dim))) % dim
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = {state: complex(amps[0]), other: complex(amps[1])}
    assert_sparse_matches_dense(c, state, seed % 1000)


def _some_inputs(n_in: int, rng: np.random.Generator) -> list[int]:
    return list(range(1 << n_in)) if n_in <= 4 else [int(k) for k in rng.integers(1 << n_in, size=4)]


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_constructions_agree_on_both_engines(name, n):
    c = CONSTRUCTIONS[name].build(n)
    rng = np.random.default_rng(n)
    for k in _some_inputs(len(c.input_qubits()), rng):
        assert_sparse_matches_dense(c, k, n)


def _mx_circuit(rng: np.random.Generator):
    """Entangling layers, then X-basis measurements, fixups and releases."""
    b = CircuitBuilder()
    qs = list(b.register("q", 3))
    anc = [b.alloc0(), b.alloct()]
    live = qs + anc
    for _ in range(3):
        for q in live:
            getattr(b, ("h", "t", "s", "y")[int(rng.integers(4))])(q)
        q1, q2 = (int(q) for q in rng.choice(live, size=2, replace=False))
        b.cx(q1, q2)
    for q in anc:
        bit = b.mx(q)
        b.cz(qs[0], qs[1], cond=bit)
        b.release(q)
    b.mx(qs[2])
    b.output("q", qs)
    return b.build()


@pytest.mark.parametrize("seed", range(12))
def test_x_basis_measurement_agrees_with_moveaxis_reference(seed):
    # The fused X-basis kernels of both engines against H, Z-projection, H.
    rng = np.random.default_rng(seed)
    c = _mx_circuit(rng)
    for state in (random_state(3, rng), int(rng.integers(8))):
        _assert_same(_outcome(enumerate_branches, c, state),
                     _outcome(reference.enumerate_branches, c, state))
        _assert_same(_outcome(run, c, state, seed=seed),
                     _outcome(reference.run, c, state, seed=seed))


@pytest.mark.parametrize("basis", ["z", "x"])
@pytest.mark.parametrize("engine", ["dense", "sparse"])
def test_unlikely_outcome_is_summed_not_subtracted(engine, basis):
    # p0 = 1e-9: as 1 - p1 it keeps only ~7 digits, and its root scales the branch.
    small, big = math.sqrt(1e-9), math.sqrt(1 - 1e-9)
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    (b.mx if basis == "x" else b.mz)(q)
    c = b.build()
    terms = {0: small, 1: big} if basis == "z" else {0: (small + big) * _SQ, 1: (small - big) * _SQ}
    state = terms if engine == "sparse" else _dense(terms, 1)
    low = enumerate_branches(c, state)[0]
    assert low.outcomes == ((0, 0),)
    assert abs(low.probability - 1e-9) <= 1e-9 * 1e-9  # x: the input's own rounding is ~1e-12
    assert abs(np.linalg.norm(low.final_state) - 1) <= 1e-14


# -- inputs, results and limits -------------------------------------------------------


def _two_qubits():
    b = CircuitBuilder()
    qs = b.register("q", 2)
    b.x(qs[0])
    return b.build()


def test_mapping_input_is_normalised_like_an_array():
    c = _two_qubits()
    got = run(c, {0: 3.0, 2: 4j}).final_state
    assert np.allclose(got, run(c, np.array([3.0, 0, 4j, 0])).final_state, rtol=0, atol=1e-15)
    assert np.allclose(got, [0, 0.6, 0, 0.8j], rtol=0, atol=1e-15)


@pytest.mark.parametrize("state", [{4: 1.0}, {-1: 1.0}, {"1": 1.0}, {0: 0.0}, {},
                                   {0: np.nan}, {0: 1.0, 1: np.inf}, "3", 4, -1],
                         ids=["index-4", "negative", "string-key", "zero", "empty", "nan",
                              "inf", "bad-string", "int-4", "int-negative"])
def test_bad_sparse_input_is_rejected(state):
    c = _two_qubits()
    with pytest.raises(DimensionMismatchError):
        run(c, state)
    with pytest.raises(DimensionMismatchError):
        enumerate_branches(c, state)


def test_wide_results_are_terms_and_narrow_ones_are_vectors():
    b = CircuitBuilder()
    qs = b.register("q", MAX_LIVE_QUBITS + 1)
    b.h(qs[-1])
    c = b.build()
    key = register_basis(c, {"q": 5})
    assert run(c, key).final_state.keys() == {5, 5 | 1 << MAX_LIVE_QUBITS}
    assert all(abs(amp - _SQ) < 1e-15 for amp in run(c, key).final_state.values())
    narrow = run(_two_qubits(), "01").final_state
    assert isinstance(narrow, np.ndarray) and np.allclose(narrow, [0, 0, 0, 1])


def test_term_cap_raises(monkeypatch):
    monkeypatch.setattr(sim, "MAX_TERMS", 4)
    b = CircuitBuilder()
    qs = b.register("q", 3)
    for q in qs[:2]:
        b.h(q)
    c = b.build()
    run(c, 0)
    b.h(qs[2])
    with pytest.raises(SimulationError, match="sparse terms"):
        run(b.build(), 0)
    with pytest.raises(SimulationError, match="sparse terms"):
        run(c, {k: 1.0 for k in range(5)})
    run(b.build(), np.eye(8)[0])  # the dense engine has no term cap


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_live_width_refuses_where_the_dense_engine_does(monkeypatch, name):
    # The live width is the most qubits live at once; the dense engine holds
    # at most MAX_LIVE_QUBITS of them, and the sparse engine has no such limit.
    c = CONSTRUCTIONS[name].build(3)
    n_in = len(c.input_qubits())
    peak = max(itertools.accumulate((instr.op.lifetime for instr in c.instructions), initial=n_in))
    for limit in range(n_in, peak + 1):
        monkeypatch.setattr(sim, "MAX_LIVE_QUBITS", limit)
        dense = _outcome(run, c, np.eye(1 << n_in)[0])
        if limit < peak:
            assert dense is SimulationError
        else:
            assert not isinstance(dense, type)
        assert not isinstance(_outcome(run, c, 0), type)


# -- adder semantics at n = 64, 256 and 1024 -----------------------------------------

SIZES = (64, 256, 1024)

#: kind -> builder and the registers it must end with, given a, b (and ctrl).
ADDERS = {
    "gidney": (lambda n: gidney_adder(AdderSpec(n)),
               lambda n, a, b, ctrl: {"a": a, "b": (a + b) % (1 << n)}),
    "gidney-cout": (lambda n: gidney_adder(AdderSpec(n, carry_out=True)),
                    lambda n, a, b, ctrl: {"a": a, "b": (a + b) % (1 << n), "cout": (a + b) >> n}),
    "cuccaro": (lambda n: cuccaro_adder(AdderSpec(n)),
                lambda n, a, b, ctrl: {"a": a, "b": (a + b) % (1 << n)}),
    "controlled": (lambda n: controlled_adder(AdderSpec(n)),
                   lambda n, a, b, ctrl: {"ctrl": ctrl, "a": a,
                                          "b": (a + b) % (1 << n) if ctrl else b}),
    "out-of-place": (lambda n: outofplace_adder(AdderSpec(n)),
                     lambda n, a, b, ctrl: {"a": a, "b": b, "s": a + b}),
}
#: Outcomes forced on the i-th MX of a circuit; None draws them from the seed.
PATTERNS = {
    "seeded": None,
    "all-0": lambda i: 0,
    "all-1": lambda i: 1,
    "alternating": lambda i: i % 2,
}


@functools.lru_cache(maxsize=None)
def _adder(kind: str, n: int):
    return ADDERS[kind][0](n)


def _force(circuit, pattern):
    if pattern is None:
        return None
    mx = [instr.result for instr in circuit.instructions if instr.op is Op.MX]
    return {bit: pattern(i) for i, bit in enumerate(mx)}


def _bits(n: int, rng: np.random.Generator) -> int:
    """A uniformly random n-bit integer."""
    return int.from_bytes(rng.bytes((n + 7) // 8), "little") % (1 << n)


def _single_term(final_state) -> int:
    """The output index of a basis state, which must be the whole state."""
    ((index, amp),) = final_state.items()
    assert abs(abs(amp) - 1) < 1e-9
    return index


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", sorted(ADDERS))
def test_adder_registers_at_large_n(kind, n, pattern):
    c = _adder(kind, n)
    rng = np.random.default_rng(n)
    values = {"a": _bits(n, rng), "b": _bits(n, rng)}
    for ctrl in ((0, 1) if kind == "controlled" else (None,)):
        if ctrl is not None:
            values["ctrl"] = ctrl
        result = run(c, register_basis(c, values), seed=n, force=_force(c, PATTERNS[pattern]))
        index = _single_term(result.final_state)
        want = ADDERS[kind][1](n, values["a"], values["b"], ctrl)
        assert {name: decode_register(c, index, name) for name in want} == want


@pytest.mark.parametrize("k", (64, 256))
def test_mcx_at_large_k(k):
    c = multi_controlled_x(k)
    rng = np.random.default_rng(k)
    for controls in ((1 << k) - 1, _bits(k, rng)):
        for target in (0, 1):
            result = run(c, register_basis(c, {"c": controls, "t": target}), seed=k)
            index = _single_term(result.final_state)
            assert decode_register(c, index, "c") == controls
            assert decode_register(c, index, "t") == target ^ (controls == (1 << k) - 1)


#: Constructions whose ANDs are erased by measurement and CZ fixup.
_FIXED_UP = {
    "gidney": lambda n: gidney_adder(AdderSpec(n)),
    "gidney-cout": lambda n: gidney_adder(AdderSpec(n, carry_out=True)),
    "controlled": lambda n: controlled_adder(AdderSpec(n)),
    "mcx": multi_controlled_x,
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", sorted(_FIXED_UP))
def test_relative_phase_of_two_term_inputs(kind, n):
    # (|x> + |x'>)/sqrt(2) must come out as (|f(x)> + |f(x')>)/sqrt(2): the
    # fixup outcomes may cost a global phase only, never a relative one.
    c = _adder(kind, n) if kind in ADDERS else _FIXED_UP[kind](n)
    n_in = len(c.input_qubits())
    rng = np.random.default_rng(n + 1)
    for pattern in ("seeded", "all-1"):
        for _ in range(3):  # each pair shows a missing fixup with probability about 1/2
            x, x2 = _bits(n_in, rng), _bits(n_in, rng)
            if kind == "controlled":
                x, x2 = x | 1, x2 | 1  # ctrl is input bit 0: both terms add
            if kind == "mcx":
                x = (1 << n) - 1 | x & (1 << n)  # all controls set: the target flips
            result = run(c, {x: _SQ, x2: _SQ}, seed=n, force=_force(c, PATTERNS[pattern]))
            amps = [amp for _, amp in sorted(result.final_state.items())]
            assert len(amps) == 2
            assert all(abs(abs(amp) - _SQ) < 1e-9 for amp in amps)
            assert abs(amps[0] / amps[1] - 1) < 1e-9, f"{kind} n={n} {pattern}"
