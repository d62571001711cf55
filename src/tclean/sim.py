"""Dense statevector execution with mid-circuit measurement and feedback.

The state is a complex tensor with one axis per live qubit.  Allocation
appends an axis, release contracts one out.  Measurements either sample from
seeded pseudorandomness (:func:`run`) or fork the execution
(:func:`enumerate_branches`), which is how gadget constructions are certified
to be outcome-independent.

Conventions: basis index bit ``j`` is the value of the ``j``-th qubit in the
declared register order (little-endian), and the T-resource state is
``(|0> + exp(i*pi/4)|1>)/sqrt(2)``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .ir import Circuit, Instruction, MEASUREMENTS, Op

#: Dense simulation is exact but exponential; keep acceptance checks under this.
MAX_LIVE_QUBITS = 26

_NORM_TOL = 1e-12
_ZERO_TOL = 1e-9
_BRANCH_EPS = 1e-12

T_STATE = np.array([1.0, cmath.exp(1j * math.pi / 4)], dtype=complex) / math.sqrt(2)
ZERO_STATE = np.array([1.0, 0.0], dtype=complex)

_SQ = 1 / math.sqrt(2)
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

_DIAG_PHASE: dict[Op, complex] = {
    Op.Z: -1.0,
    Op.S: 1j,
    Op.SDG: -1j,
    Op.T: cmath.exp(1j * math.pi / 4),
    Op.TDG: cmath.exp(-1j * math.pi / 4),
}


def rz_matrix(theta: float) -> np.ndarray:
    """Exact-angle phase gate diag(1, exp(i*theta)); T == rz(pi/4)."""
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)


class SimulationError(Exception):
    pass


class ReleaseEntangledError(SimulationError):
    """RELEASE_ENTANGLED: released qubit neither |0> within tolerance nor just measured."""


class DimensionMismatchError(SimulationError):
    """DIMENSION_MISMATCH: input state does not match the declared input registers."""


class TooManyBranchesError(SimulationError):
    """TOO_MANY_BRANCHES: measurement count exceeds the enumeration bound."""


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

    def prob_one(self, q: int) -> float:
        a = np.moveaxis(self.amps, self.pos[q], 0)
        return float(np.sum(np.abs(a[1]) ** 2))

    def project(self, q: int, outcome: int, prob: float) -> None:
        a = np.moveaxis(self.amps, self.pos[q], 0)
        a[1 - outcome] = 0
        self.amps /= math.sqrt(prob)
        self.weight *= prob
        self._just_measured.add(q)

    # -- extraction ---------------------------------------------------------------

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.amps) ** 2)))

    def extract(self, qubits: Sequence[int]) -> np.ndarray:
        """Statevector over `qubits` (little-endian), which must be all live qubits."""
        if set(qubits) != set(self.pos):
            missing = set(qubits) ^ set(self.pos)
            raise SimulationError(f"live qubits do not match requested ones: {sorted(missing)}")
        order = [self.pos[q] for q in reversed(qubits)]
        return np.transpose(self.amps, order).reshape(-1).copy()


@dataclass(frozen=True)
class BranchResult:
    outcomes: tuple[tuple[int, int], ...]  # sorted (classbit, value) pairs
    probability: float
    final_state: np.ndarray

    def outcome_of(self, bit: int) -> int:
        return dict(self.outcomes)[bit]


@dataclass(frozen=True)
class RunResult:
    final_state: np.ndarray
    classbits: dict[int, int]


def input_width(circuit: Circuit) -> int:
    """Number of declared input qubits; SimulationError past ``MAX_LIVE_QUBITS``.

    Call before allocating anything sized by 2^inputs.
    """
    n_in = len(circuit.input_qubits())
    if n_in > MAX_LIVE_QUBITS:
        raise SimulationError(f"{n_in} input qubits exceed the simulator's {MAX_LIVE_QUBITS}")
    return n_in


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
    p1 = state.prob_one(q)
    if outcome is None:
        if rng is None:
            outcome = int(p1 >= 0.5)  # deterministic tie-break for seedless runs
        else:
            outcome = int(rng.random() < p1)
    prob = p1 if outcome == 1 else 1.0 - p1
    if prob <= _BRANCH_EPS:
        raise SimulationError(f"forced outcome {outcome} for c{instr.result} has probability 0")
    state.project(q, outcome, prob)
    if instr.op is Op.MX:
        state.apply_1q(GATES_1Q[Op.H], q)
        state._just_measured.add(q)
    state.classbits[instr.result] = outcome
    return outcome


def run(circuit: Circuit, input_state: np.ndarray | str | int | None = None, *,
        seed: int | None = 0, force: dict[int, int] | None = None,
        check_norm: bool = False) -> RunResult:
    """Execute the circuit once, sampling measurements from `seed`.

    `force` pins chosen classical bits to fixed outcomes (error if that
    outcome has probability zero).  Same seed, same input: identical result.
    `check_norm` asserts unit norm after every instruction.
    """
    rng = np.random.default_rng(seed) if seed is not None else None
    state = _init_state(circuit, input_state)
    for instr in circuit.instructions:
        if instr.op in MEASUREMENTS:
            forced = force.get(instr.result) if force else None
            _measure(state, instr, forced, rng)
        else:
            _step(state, instr)
        if check_norm and abs(state.norm() - 1.0) > _NORM_TOL:
            raise SimulationError(f"norm drifted to {state.norm()!r} after {instr.op.value}")
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


# -- equivalence checking -------------------------------------------------------

IdealMap = Callable[[np.ndarray], np.ndarray]


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Squared overlap of two normalized pure states (global phase quotiented)."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(abs(np.vdot(u, v)) ** 2 / (nu * nv) ** 2)


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return vec / np.linalg.norm(vec)


def as_ideal_map(ideal: IdealMap | np.ndarray) -> IdealMap:
    if callable(ideal):
        return ideal
    matrix = np.asarray(ideal, dtype=complex)
    return lambda vec: matrix @ vec


def permutation_map(fn: Callable[[int], int], n_in: int, n_out: int | None = None) -> IdealMap:
    """Ideal unitary/isometry given as a basis-index permutation/injection."""
    n_out = n_in if n_out is None else n_out
    table = np.array([fn(k) for k in range(1 << n_in)], dtype=np.int64)

    def apply(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(1 << n_out, dtype=complex)
        np.add.at(out, table, vec)
        return out

    return apply


def diagonal_map(phase_fn: Callable[[int], complex], n: int) -> IdealMap:
    phases = np.array([phase_fn(k) for k in range(1 << n)], dtype=complex)
    return lambda vec: phases * vec


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    worst_fidelity: float
    branch_count: int

    def __bool__(self) -> bool:
        return self.equivalent


def channel_equiv(circuit: Circuit, ideal: IdealMap | np.ndarray, *, trials: int = 20,
                  tol: float = 1e-10, seed: int = 0,
                  input_states: Sequence[np.ndarray | str | int] | None = None,
                  branches: str | int = "all") -> EquivalenceResult:
    """Check the circuit acts as `ideal` on random (or given) input states.

    With ``branches="all"`` every measurement branch must match; with an
    integer, that many seeded sample runs are checked instead (for circuits
    whose outcome-independence has been certified at smaller sizes).
    """
    ideal_map = as_ideal_map(ideal)
    rng = np.random.default_rng(seed)
    n_in = input_width(circuit)
    if input_states is None:
        input_states = [random_state(n_in, rng) for _ in range(trials)]

    worst = 1.0
    n_branches = 0
    for state in input_states:
        vec = _input_vector(circuit, state)
        expected = ideal_map(vec)
        if branches == "all":
            for branch in enumerate_branches(circuit, vec):
                worst = min(worst, fidelity(expected, branch.final_state))
                n_branches += 1
        else:
            for k in range(int(branches)):
                result = run(circuit, vec, seed=int(rng.integers(1 << 63)) if k else 0)
                worst = min(worst, fidelity(expected, result.final_state))
                n_branches += 1
    return EquivalenceResult(worst >= 1.0 - tol, worst, n_branches)


def gradient_state(n: int) -> np.ndarray:
    """The phase-kickback eigenstate 2^(-n/2) * sum_k exp(-2*pi*i*k/2^n)|k>."""
    k = np.arange(1 << n)
    return np.exp(-2j * math.pi * k / (1 << n)) / math.sqrt(1 << n)


def register_basis(circuit: Circuit, values: dict[str, int]) -> int:
    """Basis index over the declared inputs with each named register set to a value."""
    index = 0
    position = 0
    for reg in circuit.inputs:
        val = values.get(reg.name, 0)
        if not 0 <= val < (1 << len(reg.qubits)):
            raise ValueError(f"value {val} out of range for register {reg.name}")
        index |= val << position
        position += len(reg.qubits)
    return index


def decode_register(circuit: Circuit, basis_index: int, name: str) -> int:
    """Read one output register's integer value out of an output basis index."""
    outputs = circuit.output_qubits()
    pos_of = {q: j for j, q in enumerate(outputs)}
    value = 0
    for bit, q in enumerate(circuit.register(name).qubits):
        value |= ((basis_index >> pos_of[q]) & 1) << bit
    return value
