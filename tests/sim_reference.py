"""The dense engine ``tclean.sim`` used before its flat-vector kernels, kept as the reference for tests.

This engine keeps the state as a tensor with one axis per live qubit and
moves each gate's axes to the front with ``np.moveaxis``; it picks every
gate's kernel by looking up its op on each execution.  It is slower, but
each rule reads directly off the tensor.  The differential tests require
the production engine to return the same branches, probabilities, states,
classical bits and exceptions.
"""
from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

import numpy as np

from tclean.ir import Circuit, Instruction, Op
from tclean.sim import (
    MAX_LIVE_QUBITS,
    T_STATE,
    ZERO_STATE,
    BranchResult,
    DimensionMismatchError,
    ReleaseEntangledError,
    RunResult,
    SimulationError,
    TooManyBranchesError,
    input_width,
)

_SQ = 1 / math.sqrt(2)
#: The 1-qubit gates as matrices, which this engine applies by ``apply_1q``.
GATES_1Q: dict[Op, np.ndarray] = {
    Op.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Op.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Op.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    Op.H: np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    Op.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    Op.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    Op.T: np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    Op.TDG: np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
}

_ZERO_TOL = 1e-9
_BRANCH_EPS = 1e-12

MEASUREMENTS = frozenset({Op.MZ, Op.MX})

_DIAG_PHASE: dict[Op, complex] = {
    Op.Z: -1.0,
    Op.S: 1j,
    Op.SDG: -1j,
    Op.T: cmath.exp(1j * math.pi / 4),
    Op.TDG: cmath.exp(-1j * math.pi / 4),
}


def _dominant_row(moved: np.ndarray) -> int:
    # After a projective measurement the off-outcome row is exactly zero.
    n0 = float(np.sum(np.abs(moved[0]) ** 2))
    n1 = float(np.sum(np.abs(moved[1]) ** 2))
    return 0 if n0 >= n1 else 1


class SimState:
    """Mutable statevector over the currently live qubits (single owner)."""

    def __init__(self) -> None:
        self.amps = np.ones((), dtype=complex)  # rank-0: no live qubits
        self.pos: dict[int, int] = {}
        self.classbits: dict[int, int] = {}
        self.weight = 1.0
        self._just_measured: set[int] = set()

    @property
    def n_live(self) -> int:
        return len(self.pos)

    def copy(self) -> "SimState":
        dup = SimState.__new__(SimState)
        dup.amps = self.amps.copy()
        dup.pos = dict(self.pos)
        dup.classbits = dict(self.classbits)
        dup.weight = self.weight
        dup._just_measured = set(self._just_measured)
        return dup

    # -- lifetime -------------------------------------------------------------

    def alloc(self, q: int, vec: np.ndarray) -> None:
        if self.n_live + 1 > MAX_LIVE_QUBITS:
            raise SimulationError(f"more than {MAX_LIVE_QUBITS} live qubits")
        self.amps = np.multiply.outer(self.amps, vec.astype(complex))
        self.pos[q] = self.amps.ndim - 1

    def release(self, q: int) -> None:
        ax = self.pos[q]
        moved = np.moveaxis(self.amps, ax, 0)
        if q in self._just_measured:
            row = moved[_dominant_row(moved)]
        else:
            if math.sqrt(float(np.sum(np.abs(moved[1]) ** 2))) > _ZERO_TOL:
                raise ReleaseEntangledError(
                    f"qubit {q} released while not |0> and not just measured")
            row = moved[0]
        norm = math.sqrt(float(np.sum(np.abs(row) ** 2)))
        self.amps = np.array(row / norm, dtype=complex)
        del self.pos[q]
        for other, p in self.pos.items():
            if p > ax:
                self.pos[other] = p - 1
        self._just_measured.discard(q)

    # -- gates ----------------------------------------------------------------

    def _touch(self, qubits: Iterable[int]) -> None:
        for q in qubits:
            self._just_measured.discard(q)

    def apply_1q(self, mat: np.ndarray, q: int) -> None:
        self._touch((q,))
        a = np.moveaxis(self.amps, self.pos[q], 0)
        a0 = a[0].copy()
        a1 = a[1].copy()
        a[0] = mat[0, 0] * a0 + mat[0, 1] * a1
        a[1] = mat[1, 0] * a0 + mat[1, 1] * a1

    def apply_phase(self, phase: complex, q: int) -> None:
        self._touch((q,))
        a = np.moveaxis(self.amps, self.pos[q], 0)
        a[1] *= phase

    def apply_cx(self, control: int, target: int) -> None:
        self._touch((control, target))
        a = np.moveaxis(self.amps, (self.pos[control], self.pos[target]), (0, 1))
        tmp = a[1, 0].copy()
        a[1, 0] = a[1, 1]
        a[1, 1] = tmp

    def apply_cz(self, a_q: int, b_q: int) -> None:
        self._touch((a_q, b_q))
        a = np.moveaxis(self.amps, (self.pos[a_q], self.pos[b_q]), (0, 1))
        a[1, 1] *= -1

    def apply_ccx(self, c1: int, c2: int, target: int) -> None:
        self._touch((c1, c2, target))
        a = np.moveaxis(self.amps, (self.pos[c1], self.pos[c2], self.pos[target]), (0, 1, 2))
        tmp = a[1, 1, 0].copy()
        a[1, 1, 0] = a[1, 1, 1]
        a[1, 1, 1] = tmp

    # -- measurement ------------------------------------------------------------

    def probs(self, q: int) -> tuple[float, float]:
        """Probabilities of outcomes 0 and 1, each summed from its own half."""
        a = np.moveaxis(self.amps, self.pos[q], 0)
        return float(np.sum(np.abs(a[0]) ** 2)), float(np.sum(np.abs(a[1]) ** 2))

    def project(self, q: int, outcome: int, prob: float) -> None:
        a = np.moveaxis(self.amps, self.pos[q], 0)
        a[1 - outcome] = 0
        self.amps /= math.sqrt(prob)
        self.weight *= prob
        self._just_measured.add(q)

    # -- extraction ---------------------------------------------------------------

    def extract(self, qubits: Sequence[int]) -> np.ndarray:
        """Statevector over `qubits` (little-endian), which must be all live qubits."""
        if set(qubits) != set(self.pos):
            missing = set(qubits) ^ set(self.pos)
            raise SimulationError(f"live qubits do not match requested ones: {sorted(missing)}")
        order = [self.pos[q] for q in reversed(qubits)]
        return np.transpose(self.amps, order).reshape(-1).copy()



def _input_vector(circuit: Circuit, state: np.ndarray | str | int | None) -> np.ndarray:
    n_in = input_width(circuit)
    dim = 1 << n_in
    if state is None:
        state = 0
    if isinstance(state, str):
        if len(state) != n_in or any(ch not in "01" for ch in state):
            raise DimensionMismatchError(f"basis string must be {n_in} bits of 0/1")
        state = sum(1 << j for j, ch in enumerate(state) if ch == "1")
    if isinstance(state, (int, np.integer)):
        if not 0 <= state < dim:
            raise DimensionMismatchError(f"basis index {state} out of range for {n_in} qubits")
        vec = np.zeros(dim, dtype=complex)
        vec[state] = 1.0
        return vec
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.shape[0] != dim:
        raise DimensionMismatchError(f"input dimension {vec.shape[0]} != 2^{n_in}")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-6:
        vec = vec / norm
    return vec


def _init_state(circuit: Circuit, input_state: np.ndarray | str | int | None) -> SimState:
    state = SimState()
    inputs = circuit.input_qubits()
    if inputs:
        vec = _input_vector(circuit, input_state)
        # C-order reshape puts the most significant index bit on axis 0.
        # Copy: execution mutates amps in place and must not alias caller data.
        state.amps = vec.reshape((2,) * len(inputs)).astype(complex, copy=True)
        for j, q in enumerate(inputs):
            state.pos[q] = len(inputs) - 1 - j
    elif input_state is not None and not isinstance(input_state, int):
        raise DimensionMismatchError("circuit declares no inputs")
    return state


def _step(state: SimState, instr: Instruction) -> None:
    """Execute one non-measurement instruction in place."""
    if instr.cond is not None and state.classbits[instr.cond] != 1:
        return
    op = instr.op
    if op in _DIAG_PHASE:
        state.apply_phase(_DIAG_PHASE[op], instr.qubits[0])
    elif op in GATES_1Q:
        state.apply_1q(GATES_1Q[op], instr.qubits[0])
    elif op is Op.RZ:
        state.apply_phase(cmath.exp(1j * instr.angle), instr.qubits[0])
    elif op is Op.CX:
        state.apply_cx(*instr.qubits)
    elif op is Op.CZ:
        state.apply_cz(*instr.qubits)
    elif op is Op.CCX:
        state.apply_ccx(*instr.qubits)
    elif op is Op.ALLOC0:
        state.alloc(instr.qubits[0], ZERO_STATE)
    elif op is Op.ALLOCT:
        state.alloc(instr.qubits[0], T_STATE)
    elif op is Op.RELEASE:
        state.release(instr.qubits[0])
    else:  # pragma: no cover - measurements are handled by the executors
        raise SimulationError(f"unexpected instruction {op}")


def _measure(state: SimState, instr: Instruction, outcome: int | None,
             rng: np.random.Generator | None) -> int:
    """Projective measurement; MX measures in the X basis via H conjugation."""
    q = instr.qubits[0]
    if instr.op is Op.MX:
        state.apply_1q(GATES_1Q[Op.H], q)
    p0, p1 = state.probs(q)
    if outcome is None:
        if rng is None:
            outcome = int(p1 >= 0.5)  # deterministic tie-break for seedless runs
        else:
            outcome = int(rng.random() < p1)
    prob = p1 if outcome == 1 else p0
    if prob <= _BRANCH_EPS:
        raise SimulationError(f"forced outcome {outcome} for c{instr.result} has probability 0")
    state.project(q, outcome, prob)
    if instr.op is Op.MX:
        state.apply_1q(GATES_1Q[Op.H], q)
        state._just_measured.add(q)
    state.classbits[instr.result] = outcome
    return outcome


def run(circuit: Circuit, input_state: np.ndarray | str | int | None = None, *,
        seed: int | None = 0, force: dict[int, int] | None = None) -> RunResult:
    """Execute the circuit once, sampling measurements from `seed`.

    `force` pins chosen classical bits to fixed outcomes (error if that
    outcome has probability zero).  Same seed, same input: identical result.
    """
    rng = np.random.default_rng(seed) if seed is not None else None
    state = _init_state(circuit, input_state)
    for instr in circuit.instructions:
        if instr.op in MEASUREMENTS:
            forced = force.get(instr.result) if force else None
            _measure(state, instr, forced, rng)
        else:
            _step(state, instr)
    return RunResult(state.extract(circuit.output_qubits()), dict(state.classbits))


def enumerate_branches(circuit: Circuit, input_state: np.ndarray | str | int | None = None,
                       *, max_measurements: int = 16) -> list[BranchResult]:
    """All reachable measurement branches, by projection and renormalization.

    Zero-probability branches are omitted; the returned probabilities sum
    to 1.  Results are sorted by outcome assignment.
    """
    n_meas = sum(1 for i in circuit.instructions if i.op in MEASUREMENTS)
    if n_meas > max_measurements:
        raise TooManyBranchesError(f"{n_meas} measurements exceeds bound {max_measurements}")

    outputs = circuit.output_qubits()
    results: list[BranchResult] = []
    stack: list[tuple[SimState, int]] = [(_init_state(circuit, input_state), 0)]
    while stack:
        state, start = stack.pop()
        i = start
        done = True
        while i < len(circuit.instructions):
            instr = circuit.instructions[i]
            if instr.op in MEASUREMENTS:
                for outcome in (0, 1):
                    branch = state.copy()
                    try:
                        _measure(branch, instr, outcome, None)
                    except SimulationError:
                        continue  # zero-probability outcome
                    stack.append((branch, i + 1))
                done = False
                break
            _step(state, instr)
            i += 1
        if done:
            items = tuple(sorted(state.classbits.items()))
            results.append(BranchResult(items, state.weight, state.extract(outputs)))
    results.sort(key=lambda b: b.outcomes)
    return results
