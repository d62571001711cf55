"""Dense statevector execution with mid-circuit measurement and feedback.

The state is one flat, contiguous complex vector over the live qubits.  Each
live qubit has a bit position in the vector's index, counted from the most
significant bit.  The declared inputs hold the top bits, the last declared
one the most significant, so an input vector is used as it is; allocation
appends a qubit as the new least significant bit, and release drops a
qubit's bit.  A gate works on a reshaped view of the vector with one size-2
axis per gate qubit: qubits at positions p < r of an n-qubit state split it
as ``(2^p, 2, 2^(r-p-1), 2, 2^(n-1-r))``.

Lifetimes do not depend on measurement outcomes, so every instruction's bit
positions, view shape and kernel are fixed once per call, before anything
runs.  Measurements either sample from seeded pseudorandomness (:func:`run`)
or fork the execution (:func:`enumerate_branches`), which is how gadget
constructions are certified to be outcome-independent.

Conventions: basis index bit ``j`` is the value of the ``j``-th qubit in the
declared register order (little-endian), and the T-resource state is
``(|0> + exp(i*pi/4)|1>)/sqrt(2)``.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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
#: The 1-qubit gates as matrices; the kernels below apply them without forming them.
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

#: Gates that multiply the slab where all their qubits are 1 by a phase.
_PHASES: dict[Op, complex] = {
    Op.Z: -1.0,
    Op.CZ: -1.0,
    Op.S: 1j,
    Op.SDG: -1j,
    Op.T: cmath.exp(1j * math.pi / 4),
    Op.TDG: cmath.exp(-1j * math.pi / 4),
}

#: Gates that flip their last qubit where all the others are 1.
_FLIPS = frozenset({Op.X, Op.CX, Op.CCX})


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


_ALL = slice(None)
_FLIP = slice(None, None, -1)


def _sqnorm(amps: np.ndarray) -> float:
    return float(np.vdot(amps, amps).real)


class SimState:
    """One execution's state: a flat amplitude vector, classical bits and weight.

    ``amps`` is always a contiguous 1-D vector of 2^n amplitudes over the n
    live qubits.  The qubit at bit position p, counted from the most
    significant bit, is bit n-1-p of the index.  The positions live in the
    compiled program (:func:`_compile`), not here: every kernel gets the
    view shape and index tuples it works on as arguments.  Single owner:
    :meth:`copy` before handing it to a second branch.
    """

    __slots__ = ("amps", "classbits", "weight", "_just_measured")

    def __init__(self, amps: np.ndarray) -> None:
        self.amps = np.array(amps, dtype=complex)  # a copy: kernels write in place
        self.classbits: dict[int, int] = {}
        self.weight = 1.0
        self._just_measured: set[int] = set()

    def copy(self) -> "SimState":
        dup = SimState.__new__(SimState)
        dup.amps = self.amps.copy()
        dup.classbits = dict(self.classbits)
        dup.weight = self.weight
        dup._just_measured = set(self._just_measured)
        return dup

    # -- lifetime -------------------------------------------------------------

    def alloc(self, vec: np.ndarray) -> None:
        """Append a qubit in state ``vec`` as the least significant bit."""
        self.amps = np.multiply.outer(self.amps, vec).reshape(-1)

    def release(self, shape: tuple[int, ...], q: int) -> None:
        """Drop qubit q, split out as axis 1 of ``shape``."""
        view = self.amps.reshape(shape)
        n0, n1 = _sqnorm(view[:, 0]), _sqnorm(view[:, 1])
        if q in self._just_measured:
            # After a projective measurement the off-outcome half is exactly zero.
            keep = 0 if n0 >= n1 else 1
        elif math.sqrt(n1) > _ZERO_TOL:
            raise ReleaseEntangledError(f"qubit {q} released while not |0> and not just measured")
        else:
            keep = 0
        self.amps = (view[:, keep] / math.sqrt((n0, n1)[keep])).reshape(-1)

    # -- gates ----------------------------------------------------------------

    def flip(self, shape: tuple[int, ...], ones: tuple, flip: tuple) -> None:
        """X on the target axis of the slab where every control is 1 (X, CX, CCX)."""
        slab = self.amps.reshape(shape)[ones]
        slab[...] = slab[flip]  # numpy buffers the overlapping copy

    def phase(self, shape: tuple[int, ...], ones: tuple, phase: complex) -> None:
        """Multiply the slab where every gate qubit is 1 (diagonal gates, CZ)."""
        self.amps.reshape(shape)[ones] *= phase

    def h(self, shape: tuple[int, ...]) -> None:
        """Hadamard on axis 1 of ``shape``."""
        view = self.amps.reshape(shape)
        a0, a1 = view[:, 0], view[:, 1]
        diff = a0 - a1
        a0 += a1
        a1[...] = diff
        self.amps *= _SQ

    def y(self, shape: tuple[int, ...]) -> None:
        """Pauli Y on axis 1 of ``shape``: swap the halves, then phases -i and i."""
        view = self.amps.reshape(shape)
        view[...] = view[:, ::-1]
        view[:, 0] *= -1j
        view[:, 1] *= 1j

    # -- measurement ------------------------------------------------------------

    def prob_one(self, shape: tuple[int, ...]) -> float:
        return _sqnorm(self.amps.reshape(shape)[:, 1])

    def project(self, shape: tuple[int, ...], q: int, outcome: int, prob: float) -> None:
        view = self.amps.reshape(shape)
        view[:, 1 - outcome] = 0
        view[:, outcome] /= math.sqrt(prob)
        self.weight *= prob
        self._just_measured.add(q)

    # -- extraction ---------------------------------------------------------------

    def norm(self) -> float:
        return math.sqrt(_sqnorm(self.amps))

    def extract(self, pos: dict[int, int], qubits: Sequence[int]) -> np.ndarray:
        """Statevector over `qubits` (little-endian), which must be all live qubits.

        ``pos`` gives each live qubit's bit position, counted from the most
        significant bit.
        """
        if set(qubits) != set(pos):
            missing = set(qubits) ^ set(pos)
            raise SimulationError(f"live qubits do not match requested ones: {sorted(missing)}")
        order = [pos[q] for q in reversed(qubits)]
        return np.transpose(self.amps.reshape((2,) * len(pos)), order).reshape(-1).copy()


def _over_limit(state: SimState) -> None:
    raise SimulationError(f"more than {MAX_LIVE_QUBITS} live qubits")


class _Step(NamedTuple):
    """One instruction with its kernel and the kernel's arguments."""

    instr: Instruction
    kernel: Callable[..., None] | None  # None for a measurement; the executor runs it
    args: tuple


class _Program(NamedTuple):
    """A circuit compiled for one call: its steps and the layout they end in."""

    steps: tuple[_Step, ...]
    final: dict[int, int]  # bit position of every qubit live at the end
    outputs: tuple[int, ...]
    measurements: int


def _select(axes: Sequence[int]) -> tuple:
    """Index tuple picking value 1 on each of `axes` and everything elsewhere."""
    index = [_ALL] * (max(axes, default=-1) + 1)
    for axis in axes:
        index[axis] = 1
    return tuple(index)


@functools.lru_cache(maxsize=4096)
def _geometry(n: int, where: tuple[int, ...]) -> tuple[tuple[int, ...], tuple, tuple, tuple]:
    """How kernels see the qubits at bit positions `where` of an n-qubit state.

    Returns the view shape with one size-2 axis per qubit (positions p < r
    give ``(2^p, 2, 2^(r-p-1), 2, 2^(n-1-r))``); the index of the slab where
    every one of the qubits is 1; the index of the slab where every qubit but
    the last is 1; and the index reversing the last qubit's axis in that slab.
    """
    cuts = sorted(where)
    shape: list[int] = []
    prev = -1
    for p in cuts:
        shape += (1 << (p - prev - 1), 2)
        prev = p
    shape.append(1 << (n - 1 - prev))
    axes = [2 * cuts.index(p) + 1 for p in where]
    *controls, target = axes
    reduced = target - sum(a < target for a in controls)
    return tuple(shape), _select(axes), _select(controls), (_ALL,) * reduced + (_FLIP,)


def _compile(circuit: Circuit) -> _Program:
    """Pick every instruction's kernel and fix its view shape, once per call.

    Inputs take the most significant bits, input j at position n_in - 1 - j,
    so the input vector needs no reordering.
    """
    inputs = circuit.input_qubits()
    pos = {q: len(inputs) - 1 - j for j, q in enumerate(inputs)}
    steps = []
    for instr in circuit.instructions:
        if len(pos) > MAX_LIVE_QUBITS:
            break  # nothing past here runs: the input check or an over-limit step raises first
        op, qubits = instr.op, instr.qubits
        if op is Op.ALLOC0 or op is Op.ALLOCT:
            if len(pos) >= MAX_LIVE_QUBITS:
                kernel, args = _over_limit, ()
            else:
                kernel, args = SimState.alloc, (ZERO_STATE if op is Op.ALLOC0 else T_STATE,)
            pos[qubits[0]] = len(pos)
        else:
            shape, ones, controls, flip = _geometry(len(pos), tuple([pos[q] for q in qubits]))
            if op is Op.RELEASE:
                kernel, args = SimState.release, (shape, qubits[0])
                gone = pos.pop(qubits[0])
                pos = {q: p - (p > gone) for q, p in pos.items()}
            elif op in MEASUREMENTS:
                kernel, args = None, (shape,)
            elif op in _FLIPS:
                kernel, args = SimState.flip, (shape, controls, flip)
            elif op in _PHASES:
                kernel, args = SimState.phase, (shape, ones, _PHASES[op])
            elif op is Op.RZ:
                kernel, args = SimState.phase, (shape, ones, cmath.exp(1j * instr.angle))
            elif op is Op.H:
                kernel, args = SimState.h, (shape,)
            else:
                kernel, args = SimState.y, (shape,)
        steps.append(_Step(instr, kernel, args))
    measurements = sum(instr.op in MEASUREMENTS for instr in circuit.instructions)
    return _Program(tuple(steps), pos, circuit.output_qubits(), measurements)


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
    """The input as a unit vector over the declared inputs (dimension 1 when there are none).

    A basis index, a bit string (qubit j is character j) or amplitudes; raises
    DimensionMismatchError on a wrong size or a zero or non-finite norm.
    """
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
    norm = float(np.linalg.norm(vec))
    if not (math.isfinite(norm) and norm > 0):
        raise DimensionMismatchError(f"input state has norm {norm}; it must be finite and nonzero")
    if abs(norm - 1.0) > 1e-6:
        vec = vec / norm
    return vec


def _advance(state: SimState, steps: Sequence[_Step], i: int, check_norm: bool = False) -> int:
    """Execute steps from i up to the next measurement; return its index (or len(steps)).

    An executed instruction ends the just-measured state of its qubits.
    """
    while i < len(steps):
        instr, kernel, args = steps[i]
        if kernel is None:
            return i
        if instr.cond is None or state.classbits[instr.cond] == 1:
            kernel(state, *args)
            if state._just_measured:
                state._just_measured.difference_update(instr.qubits)
        if check_norm:
            _check_norm(state, instr)
        i += 1
    return i


def _check_norm(state: SimState, instr: Instruction) -> None:
    if abs(state.norm() - 1.0) > _NORM_TOL:
        raise SimulationError(f"norm drifted to {state.norm()!r} after {instr.op.value}")


def _finish(state: SimState, instr: Instruction, shape: tuple[int, ...], outcome: int,
            prob: float) -> None:
    """Project onto ``outcome``, undo MX's basis change and record the bit."""
    q = instr.qubits[0]
    state.project(shape, q, outcome, prob)
    if instr.op is Op.MX:
        state.h(shape)
    state.classbits[instr.result] = outcome


def _measure(state: SimState, step: _Step, outcome: int | None,
             rng: np.random.Generator | None) -> None:
    """Projective measurement; MX measures in the X basis via H conjugation."""
    instr, _, (shape,) = step
    if instr.op is Op.MX:
        state.h(shape)
    p1 = state.prob_one(shape)
    if outcome is None:
        if rng is None:
            outcome = int(p1 >= 0.5)  # deterministic tie-break for seedless runs
        else:
            outcome = int(rng.random() < p1)
    prob = p1 if outcome == 1 else 1.0 - p1
    if prob <= _BRANCH_EPS:
        raise SimulationError(f"forced outcome {outcome} for c{instr.result} has probability 0")
    _finish(state, instr, shape, outcome, prob)


def _fork(state: SimState, step: _Step) -> list[SimState]:
    """One state per outcome of nonzero probability, in outcome order.

    The last one is ``state`` itself, so a measurement copies the state at
    most once.
    """
    instr, _, (shape,) = step
    if instr.op is Op.MX:
        state.h(shape)
    p1 = state.prob_one(shape)
    # Skip exactly the outcomes a forced run() rejects (probability <= eps).
    outcomes = [(o, p) for o, p in ((0, 1.0 - p1), (1, p1)) if not p <= _BRANCH_EPS]
    forks = [state.copy() for _ in outcomes[1:]] + [state]
    for branch, (outcome, prob) in zip(forks, outcomes):
        _finish(branch, instr, shape, outcome, prob)
    return forks


def _sample(program: _Program, vec: np.ndarray, rng: np.random.Generator | None,
            force: dict[int, int] | None, check_norm: bool) -> RunResult:
    """One execution of ``program`` on ``vec``, as :func:`run` describes it."""
    state = SimState(vec)
    steps = program.steps
    i = _advance(state, steps, 0, check_norm)
    while i < len(steps):
        instr = steps[i].instr
        _measure(state, steps[i], force.get(instr.result) if force else None, rng)
        if check_norm:
            _check_norm(state, instr)
        i = _advance(state, steps, i + 1, check_norm)
    return RunResult(state.extract(program.final, program.outputs), dict(state.classbits))


def _check_bound(program: _Program, max_measurements: int) -> None:
    if program.measurements > max_measurements:
        raise TooManyBranchesError(
            f"{program.measurements} measurements exceeds bound {max_measurements}")


def _branches(program: _Program, vec: np.ndarray) -> list[BranchResult]:
    """Every branch of ``program`` on ``vec``, as :func:`enumerate_branches` describes them."""
    steps = program.steps
    results: list[BranchResult] = []
    stack: list[tuple[SimState, int]] = [(SimState(vec), 0)]
    while stack:
        state, i = stack.pop()
        i = _advance(state, steps, i)
        if i < len(steps):
            stack += [(branch, i + 1) for branch in _fork(state, steps[i])]
        else:
            items = tuple(sorted(state.classbits.items()))
            results.append(BranchResult(items, state.weight,
                                        state.extract(program.final, program.outputs)))
    results.sort(key=lambda b: b.outcomes)
    return results


def run(circuit: Circuit, input_state: np.ndarray | str | int | None = None, *,
        seed: int | None = 0, force: dict[int, int] | None = None,
        check_norm: bool = False) -> RunResult:
    """Execute the circuit once, sampling measurements from `seed`.

    `force` pins chosen classical bits to fixed outcomes (error if that
    outcome has probability zero).  Same seed, same input: identical result.
    `check_norm` asserts unit norm after every instruction.
    """
    rng = np.random.default_rng(seed) if seed is not None else None
    vec = _input_vector(circuit, input_state)
    return _sample(_compile(circuit), vec, rng, force, check_norm)


def enumerate_branches(circuit: Circuit, input_state: np.ndarray | str | int | None = None,
                       *, max_measurements: int = 16) -> list[BranchResult]:
    """All reachable measurement branches, by projection and renormalization.

    Zero-probability branches are omitted; the returned probabilities sum
    to 1.  Results are sorted by outcome assignment.
    """
    program = _compile(circuit)
    _check_bound(program, max_measurements)
    return _branches(program, _input_vector(circuit, input_state))


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

    program = _compile(circuit)
    fidelities: list[float] = []
    for state in input_states:
        vec = _input_vector(circuit, state)
        expected = ideal_map(vec)
        if branches == "all":
            _check_bound(program, 16)
            fidelities += [fidelity(expected, b.final_state) for b in _branches(program, vec)]
        else:
            for k in range(int(branches)):
                sample_rng = np.random.default_rng(int(rng.integers(1 << 63)) if k else 0)
                result = _sample(program, vec, sample_rng, None, False)
                fidelities.append(fidelity(expected, result.final_state))
    # np.min propagates a NaN fidelity, and NaN >= 1 - tol is False: NaN never passes.
    worst = float(np.min(fidelities, initial=1.0))
    return EquivalenceResult(worst >= 1.0 - tol, worst, len(fidelities))


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
