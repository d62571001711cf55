"""The per-input and sampled checks that ``sim.basis_equiv`` replaced, kept as the reference for tests.

``reference_exhaustive`` is ``constructions.exhaustive`` as it was: one dense
``channel_equiv`` per basis input, or for a construction with a readout one
sparse ``enumerate_branches`` per input, and phase-gradient's kickback
inputs in place of basis inputs.  ``reference_corpus_check`` is the golden
corpus check built on it, which ran ``PHASE_TRIALS`` random states after a
basis check against a basis map, since a basis input cannot see a phase
that differs between inputs.  ``reference_phase_oracle_check`` is the
corpus oracle check as it was: one dense ``channel_equiv`` on the uniform
state, which no basis permutation that fixes the signed uniform state can
fail.  ``reference_sampled_check`` is the check the ``SAMPLED`` corpus
entries ran before every entry became one walk: N random states from seed 7
on the dense engine, through ``channel`` and ``ideal_map`` as they were, with
the carry-out only the corpus passed.  The differential tests require the
one-walk check to fail every circuit these fail.
"""
from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from tclean.constructions import Construction
from tclean.ir import Circuit
from tclean.oracle import evaluate, parse_expression
from tclean.sim import IdealMap, channel_equiv, enumerate_branches, gradient_state, input_width

from strategies import seeded_states

#: Random states each basis-checked construction entry also ran on.
PHASE_TRIALS = 4

#: The corpus entries that ran ``samples`` random states: (name, kind, n, carry_out, samples).
SAMPLED = (
    ("gidney-adder-n4", "gidney-adder", 4, False, 12),
    ("gidney-adder-n5", "gidney-adder", 5, False, 8),
    ("gidney-adder-n6", "gidney-adder", 6, False, 6),
    ("gidney-adder-n5-carry", "gidney-adder", 5, True, 8),
    ("cuccaro-adder-n4", "cuccaro-adder", 4, False, 12),
    ("controlled-adder-n3", "controlled-adder", 3, False, 10),
    ("out-of-place-adder-n3", "out-of-place-adder", 3, False, 10),
    ("and-gadget", "and", None, False, 6),
)


def permutation_map(fn: Callable[[int], int], n_in: int, n_out: int | None = None) -> IdealMap:
    """Ideal unitary/isometry given as a basis-index permutation/injection."""
    n_out = n_in if n_out is None else n_out
    table = np.array([fn(k) for k in range(1 << n_in)], dtype=np.int64)

    def apply(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(1 << n_out, dtype=complex)
        np.add.at(out, table, vec)
        return out

    return apply


def ideal_map(entry: Construction, circuit: Circuit, n: int, carry_out: bool = False) -> IdealMap:
    """The entry's ideal as a map on states over the circuit's inputs and outputs."""
    return permutation_map(entry.ideal(n, carry_out), input_width(circuit),
                           len(circuit.output_qubits()))


def channel(entry: Construction, circuit: Circuit, n: int, rng: np.random.Generator,
            trials: int, carry_out: bool = False) -> tuple[bool, float, int]:
    """``trials`` random input states, every measurement branch, against the ideal."""
    states = seeded_states(circuit, trials, int(rng.integers(1 << 32)))
    res = channel_equiv(circuit, ideal_map(entry, circuit, n, carry_out), input_states=states)
    return res.equivalent, res.worst_fidelity, res.branch_count


def reference_sampled_check(entry: Construction, circuit: Circuit, n: int | None, samples: int,
                            carry_out: bool = False) -> None:
    """A ``samples=N`` corpus entry's check; AssertionError on a failure."""
    ok, worst, _ = channel(entry, circuit, n, np.random.default_rng(7), samples, carry_out)
    if not ok:
        raise AssertionError(f"{entry.name} semantics fail: worst fidelity {worst:.12f}")


def _kickback_inputs(n: int) -> Iterable[np.ndarray]:
    """Target |k> beside the prepared gradient register, for every k.

    Adding k into the gradient register multiplies it by exp(2*pi*i*k/2^n),
    so the adder's basis map is the kickback's ideal on these inputs.
    """
    grad = gradient_state(n)
    return (np.kron(grad, np.arange(1 << n) == k) for k in range(1 << n))


#: Each kind's inputs of the exhaustive check, where not every basis input.
BASIS_CASES = {"phase-gradient": _kickback_inputs}


def reference_exhaustive(entry: Construction, circuit: Circuit, n: int,
                         rng: np.random.Generator | None = None, trials: int | None = None,
                         carry_out: bool = False) -> tuple[bool, float, int]:
    """Every input of the entry's basis cases, every measurement branch, against the ideal."""
    basis_cases = BASIS_CASES.get(entry.name)
    cases = basis_cases(n) if basis_cases else range(1 << input_width(circuit))
    if entry.readout is None:
        res = channel_equiv(circuit, ideal_map(entry, circuit, n, carry_out), input_states=cases)
        return res.equivalent, res.worst_fidelity, res.branch_count
    want, read = entry.ideal(n, carry_out), entry.readout(circuit, n)
    ok, branches = True, 0
    for k in cases:
        for branch in enumerate_branches(circuit, k):
            out = int(np.argmax(np.abs(branch.final_state)))
            ok &= abs(branch.final_state[out]) ** 2 > 1 - 1e-9 and read(out) == want(k)
            branches += 1
    return ok, 1.0, branches


def reference_corpus_check(entry: Construction, circuit: Circuit, n: int | None,
                           carry_out: bool = False) -> None:
    """A corpus entry's check with every basis case (``samples=all``); AssertionError on a failure."""
    runs = [(reference_exhaustive, None)]
    if entry.readout is None:
        runs.append((channel, PHASE_TRIALS))
    rng = np.random.default_rng(7)
    for run_check, trials in runs:
        ok, worst, _ = run_check(entry, circuit, n, rng, trials, carry_out)
        if not ok:
            raise AssertionError(f"{entry.name} semantics fail: worst fidelity {worst:.12f}")


def reference_phase_oracle_check(circuit: Circuit, expr: str) -> None:
    """The oracle's phases on the uniform state over its inputs; AssertionError on a failure."""
    ast = parse_expression(expr)
    n = len(circuit.input_qubits())
    uniform = np.full(1 << n, (1 << n) ** -0.5, dtype=complex)
    signs = np.array([-1.0 if evaluate(ast, k) else 1.0 for k in range(1 << n)])
    if not channel_equiv(circuit, lambda vec: signs * vec, input_states=[uniform]):
        raise AssertionError(f"oracle phases wrong for {expr!r}")
