"""Statevector execution with mid-circuit measurement and feedback, on two engines.

One executor runs a circuit on either of two state engines, and the form of
the input state picks which:

* an amplitude array runs the dense engine (:class:`SimState`): one flat
  complex vector over the live qubits, at most ``MAX_LIVE_QUBITS`` of them;
* a basis index, a bit string, ``None`` (basis state 0) or a mapping
  ``{basis index: amplitude}`` runs the sparse engine (:class:`SparseState`):
  a dict from basis key to nonzero amplitude.  It has no qubit limit, and
  raises :class:`SimulationError` rather than hold more than ``MAX_TERMS``
  terms.  A mapping is normalised and rejected exactly as an array is.  On a
  basis input the adders here hold one or two terms at every step, so they
  run at thousands of qubits.

Dense layout: each live qubit has a bit position in the vector's index,
counted from the most significant bit.  The declared inputs hold the top
bits, the last declared one the most significant, so an input vector is used
as it is; allocation appends a qubit as the new least significant bit, and
release drops a qubit's bit.  A gate works on a reshaped view of the vector
with one size-2 axis per gate qubit: qubits at positions p < r of an n-qubit
state split it as ``(2^p, 2, 2^(r-p-1), 2, 2^(n-1-r))``.

Sparse layout: each live qubit owns one bit of every key, its slot, from
allocation to release.  Input j holds bit j, so a basis index over the inputs
is its own key.  Allocation reuses a freed slot and release clears its bit,
so no other qubit is ever renumbered.

Lifetimes do not depend on measurement outcomes, so every step's kernel and
the kernel's arguments (view shape or slot masks, and a measurement's basis)
are fixed before anything runs, once per circuit and engine: the compiled
program is kept on the circuit (:func:`_compile`).  A step is one instruction,
or one whole gadget record whose template measures nothing and releases
nothing: an AND compute.  Such a record runs as one kernel, each engine's
``record``, which applies the template's action, a matrix from the basis
states of its live-in wires to those of its live-in and newly allocated
wires.  The action is derived once per template per process, on first use,
by running the template's own instructions one step each from every basis
state of its live-in wires (:func:`_action`), so a record does what its
instructions do, whatever they do.  Results agree with running the
instructions one by one to rounding, not bit for bit.  A record that
measures (an AND erasure) gets the same kernel on the map that both its
outcomes apply where they agree, derived the same way with each outcome
forced: for ``and_uncompute`` that is where the ancilla holds ``x & y``,
and the map drops it, each outcome at probability 1/2.  Its step comes
before its instructions, which run instead where the branch's state leaves
that set.  One depth-first walk of the measurement tree (:func:`_walk`)
serves :func:`run`, :func:`enumerate_branches`, :func:`channel_equiv` and
:func:`basis_equiv`.  It follows every outcome of nonzero probability,
which is how gadget constructions are certified to be outcome-independent,
or one outcome per measurement, forced or sampled from seeded
pseudorandomness.  At an erasure that can run as its one kernel, the
branch takes the outcomes it follows as histories of its own and forks
nothing.  Elsewhere, where the two outcomes of a measurement lead to
exactly the same state by the walk's next stop, as a bare erased AND's do
after its fixup, and no later step reads the measured bit, the walk goes
on with one branch that carries both outcome histories.  Either way the
rest of the circuit runs once, not once per outcome, and every history is
still reported and counted as its own branch.  Both engines share one
branch record (:class:`_Branch`) for the histories (classical bits and
weight) and the just-measured qubits, which only the walk writes; the
kernels move amplitudes.

A result's ``final_state`` is a dense vector over the output qubits while
they number at most ``MAX_LIVE_QUBITS``; a wider sparse result is a dict
``{output basis index: amplitude}``.  :func:`channel_equiv` always runs
dense: it checks the input states it is given against an ideal map on dense
vectors, on every branch, for ideals that are not basis maps.
:func:`basis_equiv` runs sparse: its ideal sends each basis input to one
output index, times a phase where given, which covers permutations, readouts
and diagonal (oracle) maps.

Conventions: basis index bit ``j`` is the value of the ``j``-th qubit in the
declared register order (little-endian), and the T-resource state is
``(|0> + exp(i*pi/4)|1>)/sqrt(2)``.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .ir import Circuit, Gadget, Instruction, Op, Register, Template

#: Dense simulation is exact but exponential; keep acceptance checks under this.
MAX_LIVE_QUBITS = 26
#: Most terms the sparse engine holds.  A term (dict slot, int key, complex
#: value) takes about 120 bytes, eight dense amplitudes, so a full sparse
#: state weighs about what a dense one does at ``MAX_LIVE_QUBITS``.
MAX_TERMS = 1 << (MAX_LIVE_QUBITS - 3)
#: Most measurements a circuit may make for every branch to be followed (in
#: ``enumerate_branches``, ``channel_equiv`` and ``basis_equiv``): 2^16 branches at most.
MAX_MEASUREMENTS = 16

_ZERO_TOL = 1e-9
_BRANCH_EPS = 1e-12
#: Amplitudes at or below this after a cancelling kernel are rounding residue
#: where the exact value is zero, and are dropped: whole sparse terms, and
#: dense real and imaginary parts.  Without it, sibling branches that the
#: walk could merge differ by residue of about 1e-16.
_PRUNE_TOL = 1e-13
#: Real and imaginary parts the dense prune reads at a time, a cache-sized block.
_PRUNE_BLOCK = 1 << 14
#: An equivalence check passes a branch whose fidelity is at least 1 minus this.
_FIDELITY_TOL = 1e-10

T_STATE = np.array([1.0, cmath.exp(1j * math.pi / 4)], dtype=complex) / math.sqrt(2)
ZERO_STATE = np.array([1.0, 0.0], dtype=complex)

_SQ = 1 / math.sqrt(2)

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
_FLIPS = (Op.X, Op.CX, Op.CCX)


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


def _prune(amps: np.ndarray) -> None:
    """Zero the real and imaginary parts of `amps` at or below ``_PRUNE_TOL``, in place."""
    parts = amps.view(np.float64)
    for start in range(0, parts.size, _PRUNE_BLOCK):
        block = parts[start:start + _PRUNE_BLOCK]  # a view: the product writes through
        block *= np.abs(block) > _PRUNE_TOL


def _release_keep(q: int, n0: float, n1: float, just_measured: set[int]) -> int:
    """Which value of a released qubit survives, given each value's squared norm."""
    if q in just_measured:
        # After a projective measurement the off-outcome half is exactly zero.
        return 0 if n0 >= n1 else 1
    if math.sqrt(n1) > _ZERO_TOL:
        raise ReleaseEntangledError(f"qubit {q} released while not |0> and not just measured")
    return 0


# -- the branch record ------------------------------------------------------------


class _Branch:
    """One execution branch on either engine: its amplitudes and its bookkeeping.

    ``amps`` is the engine's state, which only the engine's kernels move.
    The walk (:func:`_walk`) keeps the rest: the paths the branch stands
    for, and the qubits measured with nothing executed on them since, which
    a release may drop whatever their value.  A path is one history of
    outcomes, a ``[classbits, weight]`` pair: the classical bits measured so
    far and the product of their outcome probabilities.  A branch holds
    several paths once sibling branches that reached the same state have
    merged; they differ only in bits no later step reads.  Single owner:
    :meth:`copy` before handing it to a second branch.
    """

    __slots__ = ("amps", "paths", "_just_measured")

    def __init__(self, amps: np.ndarray | dict[int, complex]) -> None:
        self.amps = amps.copy()  # kernels write in place
        self.paths: list[list] = [[{}, 1.0]]
        self._just_measured: set[int] = set()

    def copy(self) -> "_Branch":
        dup = object.__new__(type(self))
        dup.amps = self.amps.copy()
        dup.paths = [[dict(classbits), weight] for classbits, weight in self.paths]
        dup._just_measured = set(self._just_measured)
        return dup

    def same(self, other: "_Branch") -> bool:
        """Whether ``other`` continues exactly as this branch would: equal
        amplitudes (:meth:`same_amps`) and equal just-measured qubits."""
        return self._just_measured == other._just_measured and self.same_amps(other.amps)


# -- dense engine -----------------------------------------------------------------


def _view(n: int, where: Sequence[int]) -> tuple[tuple[int, ...], list[int]]:
    """The view shape of an n-qubit state with one size-2 axis per qubit at the
    bit positions `where` (positions p < r give ``(2^p, 2, 2^(r-p-1), 2,
    2^(n-1-r))``), and each of those qubits' axis, in the order of `where`."""
    cuts = sorted(where)
    shape: list[int] = []
    prev = -1
    for p in cuts:
        shape += (1 << (p - prev - 1), 2)
        prev = p
    shape.append(1 << (n - 1 - prev))
    return tuple(shape), [2 * cuts.index(p) + 1 for p in where]


@functools.lru_cache(maxsize=4096)
def _geometry(n: int, where: tuple[int, ...]) -> tuple[tuple[int, ...], tuple, tuple, tuple]:
    """How kernels see the qubits at bit positions `where` of an n-qubit state.

    Returns the view shape (:func:`_view`); the index of the slab where
    every one of the qubits is 1; the index of the slab where every qubit but
    the last is 1; and the index reversing the last qubit's axis in that slab.
    """
    shape, axes = _view(n, where)
    *controls, target = axes
    reduced = target - sum(a < target for a in controls)
    return shape, _select(axes), _select(controls), (_ALL,) * reduced + (_FLIP,)


def _select(axes: Sequence[int]) -> tuple:
    """Index tuple picking value 1 on each of `axes` and everything elsewhere."""
    index = [_ALL] * (max(axes, default=-1) + 1)
    for axis in axes:
        index[axis] = 1
    return tuple(index)


class _DenseLayout:
    """Each live qubit's bit position in the dense vector, while a circuit compiles.

    Every method returns the kernel arguments for one step.  A release
    renumbers the qubits after it, which is cheap at ``MAX_LIVE_QUBITS``.
    """

    def __init__(self, inputs: Sequence[int]) -> None:
        # Input j at position n_in - 1 - j, so the input vector needs no reordering.
        self.pos = {q: len(inputs) - 1 - j for j, q in enumerate(inputs)}

    @property
    def overflowed(self) -> bool:
        """More qubits live than the engine holds: no later instruction runs."""
        return len(self.pos) > MAX_LIVE_QUBITS

    def _geometry(self, qubits: Sequence[int]) -> tuple:
        return _geometry(len(self.pos), tuple([self.pos[q] for q in qubits]))

    def alloc(self, qubits: Sequence[int], vec: np.ndarray) -> tuple:
        self.pos[qubits[0]] = len(self.pos)
        return (vec,)

    def record(self, wires: tuple[int, ...], action: _Action) -> tuple:
        n = len(self.pos)
        where = tuple([self.pos[q] for q in action.live_in(wires)])
        for q in action.born(wires):
            self.pos[q] = len(self.pos)
        return _slab_moves(n, where, action)

    def release(self, qubits: Sequence[int]) -> tuple:
        args = self.axis(qubits) + (qubits[0],)
        gone = self.pos.pop(qubits[0])
        self.pos = {r: p - (p > gone) for r, p in self.pos.items()}
        return args

    def axis(self, qubits: Sequence[int]) -> tuple:
        return (self._geometry(qubits)[0],)

    def flip(self, qubits: Sequence[int]) -> tuple:
        shape, _, controls, flip = self._geometry(qubits)
        return shape, controls, flip

    def phase(self, qubits: Sequence[int], phase: complex) -> tuple:
        shape, ones, _, _ = self._geometry(qubits)
        return shape, ones, phase

    def final(self) -> dict[int, int]:
        return self.pos


class SimState(_Branch):
    """The dense engine: ``amps`` is a flat amplitude vector.

    ``amps`` is always a contiguous 1-D vector of 2^n amplitudes over the n
    live qubits.  The qubit at bit position p, counted from the most
    significant bit, is bit n-1-p of the index.  The positions live in the
    compiled program (:func:`_compile`), not here: every kernel gets the
    view shape and index tuples it works on as arguments.
    """

    __slots__ = ()
    layout = _DenseLayout

    # -- lifetime -------------------------------------------------------------

    def alloc(self, vec: np.ndarray) -> None:
        """Append a qubit in state ``vec`` as the least significant bit."""
        if self.amps.size >> MAX_LIVE_QUBITS:
            raise SimulationError(f"more than {MAX_LIVE_QUBITS} live qubits")
        self.amps = np.multiply.outer(self.amps, vec).reshape(-1)

    def record(self, outside: tuple, born: int, old_shape: tuple[int, ...], new_shape: tuple[int, ...],
               blank: Callable[..., np.ndarray], moves: tuple, summing: bool) -> bool:
        """A fused record (:func:`_slab_moves`): write each output slab of a new
        vector, ``born`` qubits longer and shorter by the dead ones, from the
        input slabs that reach it, copied where the amplitude is exactly 1
        (None).  Where an input slab in ``outside`` is not exactly zero (an
        erasure's support leaves the patterns where its outcomes agree; a NaN
        counts as nonzero), return False and change nothing."""
        old = self.amps.reshape(old_shape)
        for slab in outside:
            if np.count_nonzero(old[slab]):
                return False
        if born and self.amps.size >> (MAX_LIVE_QUBITS + 1 - born):
            raise SimulationError(f"more than {MAX_LIVE_QUBITS} live qubits")
        new = blank(new_shape, dtype=complex)
        for out, src, amp, more in moves:
            slab = new[out]
            if amp is None:
                slab[...] = old[src]
            else:
                np.multiply(old[src], amp, out=slab)
            for src, amp in more:
                slab += old[src] * amp
        self.amps = new.reshape(-1)
        if summing:
            _prune(self.amps)
        return True

    def release(self, shape: tuple[int, ...], q: int) -> None:
        """Drop qubit q, split out as axis 1 of ``shape``."""
        norms = self.probs(shape)
        keep = _release_keep(q, *norms, self._just_measured)
        self.amps = (self.amps.reshape(shape)[:, keep] / math.sqrt(norms[keep])).reshape(-1)

    # -- gates ----------------------------------------------------------------

    def flip(self, shape: tuple[int, ...], ones: tuple, flip: tuple) -> None:
        """X on the target axis of the slab where every control is 1 (X, CX, CCX)."""
        slab = self.amps.reshape(shape)[ones]
        slab[...] = slab[flip]  # numpy buffers the overlapping copy

    def phase(self, shape: tuple[int, ...], ones: tuple, phase: complex) -> None:
        """Multiply the slab where every gate qubit is 1 (diagonal gates, CZ)."""
        self.amps.reshape(shape)[ones] *= phase

    def h(self, shape: tuple[int, ...]) -> None:
        """Hadamard on axis 1 of ``shape``, then zero the real and imaginary
        parts at or below ``_PRUNE_TOL``, the residue of its cancellations."""
        view = self.amps.reshape(shape)
        a0, a1 = view[:, 0], view[:, 1]
        diff = a0 - a1
        a0 += a1
        a1[...] = diff
        self.amps *= _SQ
        _prune(self.amps)

    def y(self, shape: tuple[int, ...]) -> None:
        """Pauli Y on axis 1 of ``shape``: swap the halves, then phases -i and i."""
        view = self.amps.reshape(shape)
        view[...] = view[:, ::-1]
        view[:, 0] *= -1j
        view[:, 1] *= 1j

    # -- measurement ------------------------------------------------------------

    def probs(self, shape: tuple[int, ...]) -> tuple[float, float]:
        """Probabilities of outcomes 0 and 1: the halves' squared norms."""
        view = self.amps.reshape(shape)
        return _sqnorm(view[:, 0]), _sqnorm(view[:, 1])

    def project(self, shape: tuple[int, ...], outcome: int, prob: float) -> None:
        view = self.amps.reshape(shape)
        view[:, 1 - outcome] = 0
        view[:, outcome] /= math.sqrt(prob)

    def probs_x(self, shape: tuple[int, ...]) -> tuple[float, float]:
        """Probabilities of |+> and |->: half the squared norms of the halves' sum and difference."""
        view = self.amps.reshape(shape)
        a0, a1 = view[:, 0], view[:, 1]
        return _sqnorm(a0 + a1) / 2, _sqnorm(a0 - a1) / 2

    def project_x(self, shape: tuple[int, ...], outcome: int, prob: float) -> None:
        """Project onto |+> (outcome 0) or |-> (1): both halves become (a0 +- a1)/2, signed."""
        view = self.amps.reshape(shape)
        a0, a1 = view[:, 0], view[:, 1]
        if outcome:
            a0 -= a1
        else:
            a0 += a1
        a0 *= 0.5 / math.sqrt(prob)
        if outcome:
            np.negative(a0, out=a1)
        else:
            a1[...] = a0

    def same_amps(self, amps: np.ndarray) -> bool:
        return np.array_equal(self.amps, amps)

    # -- extraction ---------------------------------------------------------------

    def extract(self, pos: dict[int, int], qubits: Sequence[int]) -> np.ndarray:
        """Statevector over `qubits` (little-endian), which must be all live qubits.

        ``pos`` gives each live qubit's bit position, counted from the most
        significant bit.
        """
        _check_live(pos, qubits)
        order = [pos[q] for q in reversed(qubits)]
        return np.transpose(self.amps.reshape((2,) * len(pos)), order).reshape(-1).copy()


def _check_live(live: dict[int, int], qubits: Sequence[int]) -> None:
    if set(qubits) != set(live):
        missing = set(qubits) ^ set(live)
        raise SimulationError(f"live qubits do not match requested ones: {sorted(missing)}")


# -- sparse engine ----------------------------------------------------------------


class _SparseLayout:
    """Each live qubit's slot, its bit in every sparse key, while a circuit compiles.

    Every method returns the kernel arguments for one step.  Input j
    holds slot j.  An allocation takes the slot freed last, or a new one, so
    keys stay as wide as the most qubits live at once; a release frees its
    slot and moves no other qubit.  ``bit`` maps each live qubit to
    ``1 << slot``.
    """

    overflowed = False

    def __init__(self, inputs: Sequence[int]) -> None:
        self.bit = {q: 1 << j for j, q in enumerate(inputs)}
        self.free: list[int] = []

    def _slot(self, q: int) -> int:
        # With no free slot, every slot made so far is live.
        bit = self.bit[q] = self.free.pop() if self.free else 1 << len(self.bit)
        return bit

    def alloc(self, qubits: Sequence[int], vec: np.ndarray) -> tuple:
        return tuple(vec.tolist()), self._slot(qubits[0])

    def record(self, wires: tuple[int, ...], action: _Action) -> tuple:
        bit = self.bit
        bits = tuple([bit[q] for q in action.live_in(wires)] + [self._slot(q) for q in action.born(wires)])
        return _key_moves(action, bits)

    def release(self, qubits: Sequence[int]) -> tuple:
        self.free.append(self.bit.pop(qubits[0]))
        return self.free[-1], qubits[0]

    def axis(self, qubits: Sequence[int]) -> tuple:
        return (self.bit[qubits[0]],)

    def flip(self, qubits: Sequence[int]) -> tuple:
        bit = self.bit
        controls = 0
        for q in qubits[:-1]:
            controls |= bit[q]
        return controls, bit[qubits[-1]]

    def phase(self, qubits: Sequence[int], phase: complex) -> tuple:
        bit = self.bit
        mask = 0
        for q in qubits:
            mask |= bit[q]
        return mask, phase

    def final(self) -> dict[int, int]:
        return {q: b.bit_length() - 1 for q, b in self.bit.items()}


@functools.lru_cache(maxsize=4096)
def _key_moves(action: _Action, bits: tuple[int, ...]) -> tuple:
    """The sparse ``record`` kernel's arguments for `action` on wires whose
    slots are ``bits`` (``1 << slot`` each), live-in wires first: the allocs'
    term growth, the live-in wires' mask, and for each value of a key under
    the mask, but those outside ``action.agree``, the (xor, amplitude) pairs
    that take its term to its images.  A dead wire's bit is clear in every image."""
    ins, outs = [0], [0]  # ins[pattern], outs[pattern]: the key bits that hold it (see _Action)
    for bit in bits[:action.width]:
        ins += [key | bit for key in ins]
    for i, bit in enumerate(bits):
        if i not in action.dead:
            outs += [key | bit for key in outs]
    agree = range(len(ins)) if action.agree is None else action.agree
    images: dict[int, list[tuple[int, complex]]] = {ins[inp]: [] for inp in agree}
    for out, inp, amp in action.entries:
        images[ins[inp]].append((ins[inp] ^ outs[out], amp))
    # Shared by every compile that meets these bits: read only.
    table = {key: tuple(pairs) for key, pairs in images.items()}
    return action.doubles, ins[-1], table, action.summing


def _capped(terms: dict[int, complex]) -> dict[int, complex]:
    if len(terms) > MAX_TERMS:
        raise SimulationError(f"more than {MAX_TERMS} sparse terms")
    return terms


def _gather(slots: Sequence[int]) -> list[tuple[int, int, int]]:
    """(source slot, width mask, destination bit) for each run of consecutive slots
    that lands on consecutive output bits, so a key maps to its index run by run."""
    runs = []
    start = 0
    for j in range(1, len(slots) + 1):
        if j == len(slots) or slots[j] != slots[j - 1] + 1:
            runs.append((slots[start], (1 << (j - start)) - 1, start))
            start = j
    return runs


class SparseState(_Branch):
    """The sparse engine: ``amps`` is a dict of nonzero terms, basis key -> amplitude.

    Bit s of a key is the value of the qubit in slot s.  The slots live in
    the compiled program (:class:`_SparseLayout`): every kernel gets the
    bit masks it works on as arguments.  Kernels that can cancel amplitudes
    (H and the X-basis projection) drop what is left at or below
    ``_PRUNE_TOL``, so ``amps`` holds the state's support and no rounding
    residue.
    """

    __slots__ = ()
    layout = _SparseLayout

    # -- lifetime -------------------------------------------------------------

    def alloc(self, vec: tuple[complex, complex], bit: int) -> None:
        """Put the qubit whose slot is ``bit`` (clear in every key) in state ``vec``."""
        v0, v1 = vec
        terms = {k: a * v0 for k, a in self.amps.items()}
        if v1:  # |T>; |0> adds no term
            terms.update({k | bit: a * v1 for k, a in self.amps.items()})
        self.amps = _capped(terms)

    def record(self, doubles: int, mask: int, table: dict[int, tuple[tuple[int, complex], ...]],
               summing: bool) -> bool:
        """A fused record (:func:`_key_moves`): send each term to its
        images, refusing first where the template's allocs would take the
        terms past ``MAX_TERMS``.  Where a term's pattern is not in
        ``table`` (an erasure's support leaves the patterns where its
        outcomes agree), return False and change nothing."""
        terms = self.amps
        if len(terms) << doubles > MAX_TERMS:
            raise SimulationError(f"more than {MAX_TERMS} sparse terms")
        try:
            if not summing:  # no two terms reach one key
                self.amps = _capped({k ^ d: a * amp for k, a in terms.items() for d, amp in table[k & mask]})
                return True
            out: dict[int, complex] = {}
            for k, a in terms.items():
                for d, amp in table[k & mask]:
                    out[k ^ d] = out.get(k ^ d, 0) + a * amp
        except KeyError:
            return False
        self.amps = _capped({k: a for k, a in out.items() if abs(a) > _PRUNE_TOL})
        return True

    def release(self, bit: int, q: int) -> None:
        """Drop qubit q, whose slot is ``bit``, and clear that bit in every key."""
        norms = self.probs(bit)
        keep = _release_keep(q, *norms, self._just_measured)
        scale = math.sqrt(norms[keep])
        want = bit if keep else 0
        self.amps = {k ^ want: a / scale for k, a in self.amps.items() if k & bit == want}

    # -- gates ----------------------------------------------------------------

    def flip(self, controls: int, target: int) -> None:
        """Flip bit ``target`` of every key holding all of ``controls`` (X, CX, CCX)."""
        self.amps = {(k ^ target if k & controls == controls else k): a
                     for k, a in self.amps.items()}

    def phase(self, mask: int, phase: complex) -> None:
        """Multiply every term whose key holds all of ``mask`` (diagonal gates, CZ)."""
        terms = self.amps
        for k, a in terms.items():
            if k & mask == mask:
                terms[k] = a * phase  # same keys: safe while iterating

    def h(self, bit: int) -> None:
        """Hadamard on the qubit whose slot is ``bit``."""
        out = {}
        for k0, a0, a1 in self._pairs(bit):
            s, d = (a0 + a1) * _SQ, (a0 - a1) * _SQ
            if abs(s) > _PRUNE_TOL:
                out[k0] = s
            if abs(d) > _PRUNE_TOL:
                out[k0 | bit] = d
        self.amps = _capped(out)

    def y(self, bit: int) -> None:
        """Pauli Y on the qubit whose slot is ``bit``: |0> -> i|1>, |1> -> -i|0>."""
        self.amps = {k ^ bit: a * (-1j if k & bit else 1j) for k, a in self.amps.items()}

    # -- measurement ------------------------------------------------------------

    def probs(self, bit: int) -> tuple[float, float]:
        """Probabilities of outcomes 0 and 1: the squared norms of the terms with ``bit`` clear and set."""
        p0 = p1 = 0.0
        for k, a in self.amps.items():
            if k & bit:
                p1 += a.real * a.real + a.imag * a.imag
            else:
                p0 += a.real * a.real + a.imag * a.imag
        return p0, p1

    def project(self, bit: int, outcome: int, prob: float) -> None:
        want = bit if outcome else 0
        scale = math.sqrt(prob)
        self.amps = {k: a / scale for k, a in self.amps.items() if k & bit == want}

    def _pairs(self, bit: int):
        """Each (key with ``bit`` clear, its amplitude, its partner's amplitude) once."""
        terms = self.amps
        for k, a in terms.items():
            if k & bit:
                if k ^ bit not in terms:
                    yield k ^ bit, 0, a
            else:
                yield k, a, terms.get(k | bit, 0)

    def probs_x(self, bit: int) -> tuple[float, float]:
        """Probabilities of |+> and |->: half the squared norms of the halves' sum and difference."""
        p0 = p1 = 0.0
        for _, a0, a1 in self._pairs(bit):
            s, d = a0 + a1, a0 - a1
            p0 += s.real * s.real + s.imag * s.imag
            p1 += d.real * d.real + d.imag * d.imag
        return p0 / 2, p1 / 2

    def project_x(self, bit: int, outcome: int, prob: float) -> None:
        """Project onto |+> (outcome 0) or |-> (1): both halves become (a0 +- a1)/2, signed."""
        scale = 0.5 / math.sqrt(prob)
        out = {}
        for k0, a0, a1 in self._pairs(bit):
            v = ((a0 - a1) if outcome else (a0 + a1)) * scale
            if abs(v) > _PRUNE_TOL:
                out[k0] = v
                out[k0 | bit] = -v if outcome else v
        self.amps = _capped(out)

    def same_amps(self, amps: dict[int, complex]) -> bool:
        # In the same order too: later kernels sum over the terms in dict order.
        return self.amps == amps and list(self.amps) == list(amps)

    # -- extraction ---------------------------------------------------------------

    def extract(self, slots: dict[int, int],
                qubits: Sequence[int]) -> np.ndarray | dict[int, complex]:
        """State over `qubits` (little-endian), which must be all live qubits.

        A dense vector up to ``MAX_LIVE_QUBITS`` qubits, else a dict
        ``{index: amplitude}``.  ``slots`` gives each live qubit's slot.
        """
        _check_live(slots, qubits)
        runs = _gather([slots[q] for q in qubits])
        out = {}
        for k, a in self.amps.items():
            index = 0
            for src, mask, dst in runs:
                index |= ((k >> src) & mask) << dst
            out[index] = a
        if len(qubits) > MAX_LIVE_QUBITS:
            return out
        vec = np.zeros(1 << len(qubits), dtype=complex)
        vec[list(out)] = list(out.values())
        return vec


# -- the executor -----------------------------------------------------------------

Engine = Union[type[SimState], type[SparseState]]


#: One instruction or fused record: ``(cond, qubits, kernel, args)``, the bit
#: that conditions it (None for none), the qubits whose just-measured state it
#: ends, its kernel and the kernel's arguments.  The walk runs the steps with
#: kernel None itself, its stops.  A measurement has arguments ``(instr,
#: probs, project, args, merge)``: the instruction, its basis's two kernels,
#: their arguments, and whether no step from the next stop on reads its bit,
#: so that its two outcomes' branches may merge there.  An erasure record's
#: fused step has an :class:`_Erasure`.  A plain tuple: a circuit compiles one
#: per step.
_Step = tuple[Union[int, None], tuple[int, ...], Union[Callable[..., None], None], tuple]


class _Erasure(NamedTuple):
    """The arguments of an erasure record's fused step, which :func:`_walk`
    takes in place of the record's instructions, the steps after it, where it
    applies."""

    instr: Instruction  # the record's measurement
    probs: tuple[float, float]  # its outcomes' derived probabilities
    kernel: Callable[..., bool]  # the engine's ``record``
    args: tuple
    end: int | None  # the step after the record's instructions; None where a later step reads its bit


class _Program(NamedTuple):
    """A circuit compiled for one engine, kept on the circuit (:func:`_compile`):
    its steps and the layout they end in.  Read only: every walk of the
    circuit on that engine shares it."""

    engine: Engine
    steps: tuple[_Step, ...]
    final: dict[int, int]  # where every qubit live at the end sits: bit position or slot
    outputs: tuple[int, ...]
    measurements: int


#: Each op's engine kernel (None for a measurement, which the executor runs),
#: the layout method that gives the kernel's arguments, and that method's
#: arguments after the qubits.  RZ's phase comes from the instruction's angle.
_DISPATCH: dict[Op, tuple[str | None, str, tuple]] = {
    **{op: ("flip", "flip", ()) for op in _FLIPS},
    **{op: ("phase", "phase", (phase,)) for op, phase in _PHASES.items()},
    Op.RZ: ("phase", "phase", ()),
    Op.H: ("h", "axis", ()),
    Op.Y: ("y", "axis", ()),
    Op.ALLOC0: ("alloc", "alloc", (ZERO_STATE,)),
    Op.ALLOCT: ("alloc", "alloc", (T_STATE,)),
    Op.RELEASE: ("release", "release", ()),
    Op.MZ: (None, "axis", ()),
    Op.MX: (None, "axis", ()),
}

#: Each measurement's engine kernels in its basis: the outcomes' probabilities
#: and the projection onto one of them.
_BASES: dict[Op, tuple[str, str]] = {Op.MZ: ("probs", "project"), Op.MX: ("probs_x", "project_x")}


def _compile(circuit: Circuit, engine: Engine) -> _Program:
    """The circuit's program on `engine`, compiled on first use and kept on
    the circuit (``Circuit.programs``), so that every later call on the same
    circuit object runs it as it is.  The key holds what the compile reads
    besides the circuit: the engine, ``MAX_LIVE_QUBITS`` and the ``_action``
    in force."""
    key = (engine, MAX_LIVE_QUBITS, _action)
    program = circuit.programs.get(key)
    if program is None:
        program = circuit.programs[key] = _translate(circuit, engine)
    return program


def _translate(circuit: Circuit, engine: Engine) -> _Program:
    """Pick every step's kernel and fix its arguments (:func:`_compile` keeps the result).

    A record whose template measures nothing and releases nothing compiles to
    one step, its engine's ``record`` kernel on the template's action
    (:func:`_action`).  A record whose template measures and has an action
    (an AND erasure) compiles to its fused step, a stop that applies the
    action where it can (:func:`_walk`), then its instructions, which the
    walk runs where it cannot and which alone move the layout: the action
    allocates nothing, and its dead wires are the ones they release.  Any
    other record compiles as its instructions.
    """
    layout = engine.layout(circuit.input_qubits())
    table = {op: (kernel and getattr(engine, kernel), getattr(layout, method), extra)
             for op, (kernel, method, extra) in _DISPATCH.items()}
    bases = {op: (getattr(engine, probs), getattr(engine, project))
             for op, (probs, project) in _BASES.items()}
    record = engine.record
    steps = []
    stops = []  # the stops' steps: measurements and fused erasures
    last_read = {}  # each conditioning bit's last reader's step
    rz = Op.RZ  # an Op member read costs ~100 ns
    for step in circuit.body:
        if layout.overflowed:
            break  # nothing past here runs: the input check or an over-limit alloc raises first
        if step.__class__ is Gadget:
            action = _action(step.template)
            if action is not None and action.probs is None:
                steps.append((None, step.wires, record, layout.record(step.wires, action)))
                continue
            instrs = step.template.instantiate(step.wires, step.bit)
            if action is not None:
                stops.append(len(steps))
                steps.append((None, step.wires, None, _Erasure(None, action.probs, record,
                                                                layout.record(step.wires, action),
                                                                len(steps) + 1 + len(instrs))))
        else:
            instrs = (step,)
        for instr in instrs:
            if layout.overflowed:
                break
            kernel, method, extra = table[instr.op]
            if instr.op is rz:
                extra = (cmath.exp(1j * instr.angle),)
            args = method(instr.qubits, *extra)
            if kernel is None:
                stops.append(len(steps))
                args = (instr, args)
            elif instr.cond is not None:
                last_read[instr.cond] = len(steps)
            steps.append((instr.cond, instr.qubits, kernel, args))
    # Every branch reaches the same stops, so where a measurement's two
    # branches next meet, and whether a step from there on reads its bit, is
    # fixed here, once per measurement; so is whether a step after an
    # erasure's instructions reads its bit.
    measurements = len(stops)
    for i, meet in zip(stops, stops[1:] + [len(steps)]):
        cond, qubits, _, stop = steps[i]
        if stop.__class__ is _Erasure:
            measurements -= 1
            instr = steps[meet][3][0]  # the next stop: its instructions' one measurement
            read = last_read.get(instr.result, -1) >= stop.end
            steps[i] = (cond, qubits, None, stop._replace(instr=instr, end=None if read else stop.end))
            continue
        instr, args = stop
        steps[i] = (cond, qubits, None,
                    (instr, *bases[instr.op], args, last_read.get(instr.result, -1) < meet))
    if layout.overflowed:
        # Nothing past the overflow compiled, but every measurement counts
        # toward the bound: a gadget template measures at most once.
        measurements = sum(step.template.measures if step.__class__ is Gadget else step.op.measures
                           for step in circuit.body)
    return _Program(engine, tuple(steps), layout.final(), circuit.output_qubits(), measurements)


# -- fused records -------------------------------------------------------------


class _Action:
    """What a fused template does to its wires, as a matrix from the basis
    states of its live-in wires to those of the wires it leaves live: the
    live-in ones it does not release, then the born ones.

    A basis state is a pattern whose bit i is the value of wire i, the
    wires in that order, each group in the template's wire order; ``dead``
    holds the input bits of the live-in wires it releases.  ``entries``
    holds ``(output pattern, input pattern, amplitude)`` for every nonzero
    amplitude; ``summing`` says two input patterns reach one output
    pattern.  ``doubles`` counts the template's ``alloct``s, each of which
    doubles the sparse terms on the way.  A measuring template's action (an
    AND erasure's) is the one map both its outcomes apply where they agree
    (:func:`_agreed`): ``agree`` lists those input patterns, the only ones
    with entries, and ``probs`` the two outcomes' probabilities, the same
    on each of them.  For a template that measures nothing both are None.
    Compared and hashed by identity: the kernel arguments are memoised per
    action.
    """

    __slots__ = ("live_in", "born", "width", "born_count", "dead", "entries", "summing", "doubles",
                 "agree", "probs")

    def __init__(self, template: Template, entries: Sequence[tuple[int, int, complex]],
                 agree: tuple[int, ...] | None = None, probs: tuple[float, float] | None = None) -> None:
        wires = tuple(range(template.n_wires))
        self.live_in, self.born = template.live_in, template.born
        live_in, dies = template.live_in(wires), template.dies(wires)
        self.width, self.born_count = len(live_in), len(template.born(wires))
        self.dead = tuple(i for i, w in enumerate(live_in) if w in dies)
        self.entries = tuple(entries)
        outs = [out for out, _, _ in entries]
        self.summing = len(set(outs)) < len(outs)
        self.doubles = template.ops.count(Op.ALLOCT)
        self.agree, self.probs = agree, probs


class _DerivingLayout(_DenseLayout):
    overflowed = False


class _DerivingState(SimState):
    """The dense engine without its live-qubit limit, which :func:`_action`
    derives on: a template is a few wires wide, and what its records do must
    not hang on a limit that a caller may have lowered."""

    __slots__ = ()
    layout = _DerivingLayout

    def alloc(self, vec: np.ndarray) -> None:
        self.amps = np.multiply.outer(self.amps, vec).reshape(-1)


@functools.lru_cache(maxsize=None)
def _action(template: Template) -> _Action | None:
    """The action of a record of `template`, or None where its records
    compile as their instructions alone: where the template releases and
    measures nothing, or measures and has no action (:func:`_agreed`).

    Derived on a record's first compile and kept for the process: the
    template's own instructions, compiled one step each, run on the dense
    engine, with no module limit applied, from every basis state of its
    live-in wires, and each output is read over the wires it leaves live.
    Parts at or below ``_PRUNE_TOL`` are rounding residue and are zeroed.
    So a record runs what its template's instructions do, whatever that
    is, to rounding.
    """
    if template.measures:
        return _agreed(template)
    if template.dies(tuple(range(template.n_wires))):
        return None
    program = _template_program(template)
    entries = []
    for inp, basis in enumerate(_bases(template)):
        (leaf,) = _walk(program, basis, _every)
        entries += _column(program, leaf, inp)
    return _Action(template, entries)


def _template_program(template: Template) -> _Program:
    """The template's instructions on wires 0, 1, ..., measuring into bit 0,
    compiled on :class:`_DerivingState`, from its live-in wires to the wires
    it leaves live, in :class:`_Action`'s order."""
    wires = tuple(range(template.n_wires))
    live_in, dies = template.live_in(wires), template.dies(wires)
    kept = tuple(w for w in live_in + template.born(wires) if w not in dies)
    circuit = Circuit(template.instantiate(wires, 0 if template.measures else None),
                      (Register("in", live_in),), (Register("out", kept),))
    return _compile(circuit, _DerivingState)


def _bases(template: Template) -> np.ndarray:
    """Every basis state of the template's live-in wires, pattern p in row p."""
    return np.eye(1 << len(template.live_in(tuple(range(template.n_wires)))), dtype=complex)


def _column(program: _Program, leaf: _Branch, inp: int) -> list[tuple[int, int, complex]]:
    """The entries of input pattern ``inp`` read off its leaf, with the residue zeroed."""
    column = leaf.extract(program.final, program.outputs)
    _prune(column)
    return [(int(out), inp, complex(column[out])) for out in np.flatnonzero(column)]


def _agreed(template: Template) -> _Action | None:
    """The action of a template that measures once and allocates nothing, on
    the input patterns where its two outcomes agree; None for any other
    template, or where no pattern agrees.

    The template runs from each basis state of its live-in wires once per
    outcome, forced.  Its outcomes agree on a pattern where neither has
    probability zero or raises, both leave the same amplitudes, and neither
    leaves a wire just measured.  For ``and_uncompute`` these are the
    patterns with ``anc == x & y``, where both outcomes, each at
    probability 1/2, drop the ancilla.  The action stands for both outcomes
    on any superposition of agreeing patterns only where each outcome's
    probability is the same on all of them and their images are
    orthonormal; else there is none.  A record's fused step leaves the
    layout to its instructions' releases (:func:`_compile`), so its
    template may allocate nothing.
    """
    if sum(op.measures for op in template.ops) != 1 or any(op.lifetime > 0 for op in template.ops):
        return None
    program = _template_program(template)
    entries, agree, probs = [], [], set()
    for inp, basis in enumerate(_bases(template)):
        try:
            leaves = [leaf for outcome in (0, 1)
                      for leaf in _walk(program, basis, _sampled(None, {0: outcome}))]
        except SimulationError:  # an outcome of probability zero, or a refused release
            continue
        columns = [_column(program, leaf, inp) for leaf in leaves]
        if columns[0] == columns[1] and not any(leaf._just_measured for leaf in leaves):
            entries += columns[0]
            agree.append(inp)
            probs.add(tuple(weight for leaf in leaves for _, weight in leaf.paths))
    if len(probs) != 1:
        return None
    images = np.zeros((len(agree), 1 << len(program.outputs)), dtype=complex)
    for out, inp, amp in entries:
        images[agree.index(inp), out] = amp
    if not np.allclose(images @ images.conj().T, np.eye(len(agree)), rtol=0, atol=_ZERO_TOL):
        return None
    return _Action(template, entries, tuple(agree), probs.pop())


def _slab(axes: Sequence[int], pattern: int) -> tuple:
    """Index tuple picking bit i of `pattern` on ``axes[i]`` and everything elsewhere."""
    index = [_ALL] * (max(axes, default=-1) + 1)
    for i, axis in enumerate(axes):
        index[axis] = pattern >> i & 1
    return tuple(index)


@functools.lru_cache(maxsize=4096)
def _slab_moves(n: int, where: tuple[int, ...], action: _Action) -> tuple:
    """The dense ``record`` kernel's arguments for `action` on an n-qubit
    state whose live-in wires sit at bit positions `where`; the born wires
    take the new least significant bits, as allocations do.

    One move per output pattern: its slab in the new vector's view, and the
    input slabs and amplitudes that reach it, the first apart, with None for
    an amplitude of exactly 1 (every erasure's), which the kernel copies.
    Before them, the input slabs of the patterns outside ``action.agree``,
    which must be zero for the map to apply (none for an action that
    measures nothing), and how the new vector is made: ``np.empty`` where
    the moves write every output pattern, else ``np.zeros``.
    """
    born = action.born_count
    old_shape, old_axes = _view(n, where)
    new_shape, new_axes = _view(n + born, where + tuple(range(n, n + born)))
    # Each born axis leaves a size-1 axis after it in the new view, which
    # the old view repeats so that a slab of one fits the other's.  A dead
    # wire's axis shrinks to size 1 in the new view, where every slab picks
    # its 0, the bit past the output pattern's, so the rest still fits.
    old_shape += (1,) * born
    dead = [new_axes[i] for i in action.dead]
    new_shape = tuple(1 if axis in dead else size for axis, size in enumerate(new_shape))
    out_axes = [axis for axis in new_axes if axis not in dead] + dead
    sources: dict[int, list[tuple[tuple, complex]]] = {}
    for out, inp, amp in action.entries:
        sources.setdefault(out, []).append((_slab(old_axes, inp), amp))
    moves = tuple((_slab(out_axes, out), src, None if amp == 1 else amp, tuple(more))
                  for out, ((src, amp), *more) in sources.items())
    agree = range(1 << action.width) if action.agree is None else action.agree
    outside = tuple(_slab(old_axes, inp) for inp in range(1 << action.width) if inp not in agree)
    blank = np.empty if len(moves) == 1 << (len(new_axes) - len(dead)) else np.zeros
    return outside, born, old_shape, new_shape, blank, moves, action.summing


FinalState = Union[np.ndarray, dict[int, complex]]


@dataclass(frozen=True)
class BranchResult:
    outcomes: tuple[tuple[int, int], ...]  # sorted (classbit, value) pairs
    probability: float
    final_state: FinalState


@dataclass(frozen=True)
class RunResult:
    final_state: FinalState
    classbits: dict[int, int]


InputState = Union[np.ndarray, Sequence[complex], Mapping[int, complex], str, int, None]


def input_width(circuit: Circuit) -> int:
    """Number of declared input qubits; SimulationError past ``MAX_LIVE_QUBITS``.

    Call before allocating anything sized by 2^inputs.
    """
    n_in = len(circuit.input_qubits())
    if n_in > MAX_LIVE_QUBITS:
        raise SimulationError(f"{n_in} input qubits exceed the simulator's {MAX_LIVE_QUBITS}")
    return n_in


def _basis_key(state: str | int, n_in: int) -> int:
    """A basis index, or a bit string (qubit j is character j), checked against n_in qubits."""
    if isinstance(state, str):
        if len(state) != n_in or any(ch not in "01" for ch in state):
            raise DimensionMismatchError(f"basis string must be {n_in} bits of 0/1")
        return int(state[::-1] or "0", 2)
    if not 0 <= state < 1 << n_in:
        raise DimensionMismatchError(f"basis index {state} out of range for {n_in} qubits")
    return int(state)


def _checked_norm(norm: float) -> float:
    if not (math.isfinite(norm) and norm > 0):
        raise DimensionMismatchError(f"input state has norm {norm}; it must be finite and nonzero")
    return norm


def _input_vector(circuit: Circuit, state: InputState) -> np.ndarray:
    """The input as a unit vector over the declared inputs (dimension 1 when there are none).

    A basis index, a bit string or amplitudes; raises DimensionMismatchError
    on a wrong size or a zero or non-finite norm.
    """
    n_in = input_width(circuit)
    dim = 1 << n_in
    if state is None or isinstance(state, (str, int, np.integer)):
        vec = np.zeros(dim, dtype=complex)
        vec[_basis_key(0 if state is None else state, n_in)] = 1.0
        return vec
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.shape[0] != dim:
        raise DimensionMismatchError(f"input dimension {vec.shape[0]} != 2^{n_in}")
    norm = _checked_norm(float(np.linalg.norm(vec)))
    if abs(norm - 1.0) > 1e-6:
        vec = vec / norm
    return vec


def _input_terms(circuit: Circuit, state: Mapping[int, complex] | str | int | None
                 ) -> dict[int, complex]:
    """The input as unit-norm sparse terms over the declared inputs, rejected as
    :func:`_input_vector` rejects arrays: a key out of range stands for a wrong size."""
    n_in = len(circuit.input_qubits())
    if not isinstance(state, Mapping):
        return {_basis_key(0 if state is None else state, n_in): 1 + 0j}
    terms = {}
    for key, amp in state.items():
        if not isinstance(key, (int, np.integer)) or not 0 <= key < 1 << n_in:
            raise DimensionMismatchError(f"basis index {key!r} out of range for {n_in} qubits")
        if amp:
            terms[int(key)] = complex(amp)
    norm = _checked_norm(math.hypot(*map(abs, terms.values())))
    if abs(norm - 1.0) > 1e-6:
        terms = {k: a / norm for k, a in terms.items()}
    return _capped(terms)


def _engine(input_state: InputState) -> tuple[Engine, Callable]:
    """The engine the input's form picks, and the reader of its initial state."""
    if input_state is None or isinstance(input_state, (int, np.integer, str, Mapping)):
        return SparseState, _input_terms
    return SimState, _input_vector


def _advance(branch: _Branch, steps: Sequence[_Step], i: int) -> int:
    """Execute steps from i up to the next measurement; return its index (or len(steps)).

    An executed step ends the just-measured state of its qubits.  A
    conditioned step reads the first path's bits: every path of a branch
    holds the same value of each bit read from here on.
    """
    classbits = branch.paths[0][0]
    while i < len(steps):
        cond, qubits, kernel, args = steps[i]
        if kernel is None:
            return i
        if cond is None or classbits[cond] == 1:
            kernel(branch, *args)
            if branch._just_measured:
                branch._just_measured.difference_update(qubits)
        i += 1
    return i


#: Picks the outcomes a walk follows at a measurement, from the measurement
#: and its outcomes' probabilities: ``(outcome, probability)`` pairs in outcome order.
Choose = Callable[[Instruction, float, float], Sequence[tuple[int, float]]]


def _every(instr: Instruction, p0: float, p1: float) -> list[tuple[int, float]]:
    """Every outcome a forced :func:`run` accepts; written so that a NaN passes."""
    return [(outcome, p) for outcome, p in enumerate((p0, p1)) if not p <= _BRANCH_EPS]


def _sampled(rng: np.random.Generator, force: dict[int, int] | None) -> Choose:
    """One outcome per measurement: forced, or drawn from ``rng``."""
    def choose(instr: Instruction, p0: float, p1: float) -> tuple[tuple[int, float]]:
        outcome = force.get(instr.result) if force else None
        if outcome is None:
            outcome = int(rng.random() < p1)
        elif outcome not in (0, 1):
            raise ValueError(f"forced outcome {outcome!r} for c{instr.result} is not 0 or 1")
        prob = p1 if outcome == 1 else p0
        if prob <= _BRANCH_EPS:
            raise SimulationError(f"forced outcome {outcome} for c{instr.result} has probability 0")
        return ((outcome, prob),)

    return choose


def _walk(program: _Program, initial, choose: Choose):
    """Run ``program`` from ``initial`` depth first along the outcomes ``choose`` picks.

    Yields each branch as soon as it ends, so a caller that extracts every
    branch it is given meets an error in an earlier branch before any later
    one.  The last outcome picked is followed first, and every other one gets
    a copy of the branch, so a measurement copies the state once per extra
    outcome.  The walk alone records an outcome in every path, scales the
    paths' weights and marks the measured qubit; the engines' projections
    only move amplitudes.  Where a measurement's two branches may merge,
    :func:`_meet` runs both to the next stop and merges them if they
    arrive equal, so the rest of the circuit runs once for both outcomes.

    An erasure record's fused step (:class:`_Erasure`) forks nothing where
    the branch's support lies in the patterns where the record's outcomes
    agree (the engine's ``record`` kernel tests it), no later step reads the
    record's bit, and none of its wires was just measured.  There the
    outcomes ``choose`` picks from the derived probabilities become paths of
    the one branch, as a merge would leave them, the kernel applies the
    derived map, and the walk goes on after the record's instructions.
    Elsewhere it runs those instructions, which fork as any measurement does.
    """
    steps = program.steps
    stack: list[tuple[_Branch | SimulationError, int]] = [(program.engine(initial), 0)]
    while stack:
        branch, i = stack.pop()
        if isinstance(branch, SimulationError):
            raise branch  # from :func:`_meet`, in the place of the branch that raised it
        i = _advance(branch, steps, i)
        if i == len(steps):
            yield branch
            continue
        stop = steps[i][3]
        if stop.__class__ is _Erasure:
            just = branch._just_measured
            if (stop.end is None or (just and not just.isdisjoint(steps[i][1]))
                    or not stop.kernel(branch, *stop.args)):
                stack.append((branch, i + 1))
                continue
            picked = choose(stop.instr, *stop.probs)
            last = len(picked) - 1
            paths = []
            for k, (outcome, prob) in enumerate(picked):
                for classbits, weight in branch.paths:
                    if k < last:  # the last outcome takes the dicts over
                        classbits = dict(classbits)
                    classbits[stop.instr.result] = outcome
                    paths.append([classbits, weight * prob])
            if paths:
                branch.paths = paths
                stack.append((branch, stop.end))
            continue
        instr, probs, project, args, merge = stop
        # Each probability is summed from its own half of the state, not taken
        # as one minus the other: ``1 - p1`` loses every digit of a small
        # ``p0`` that the rounding of ``p1`` covers, and projection divides by its root.
        picked = choose(instr, *probs(branch, *args))
        last = len(picked) - 1
        for k, (outcome, prob) in enumerate(picked):
            fork = branch if k == last else branch.copy()
            project(fork, *args, outcome, prob)
            for path in fork.paths:
                path[0][instr.result] = outcome
                path[1] *= prob
            fork._just_measured.add(instr.qubits[0])
            stack.append((fork, i + 1))
        if merge and last:
            _meet(stack, steps)


def _meet(stack: list, steps: Sequence[_Step]) -> None:
    """Run the two branches on top of ``stack``, one measurement's outcomes, to
    the next stop (or the end), and merge them there if they are equal.

    The measurement's bit is read by no step from there on, so if the
    branches arrive equal (:meth:`_Branch.same`), one branch carrying both
    branches' paths goes on, and the rest of the circuit runs once for both
    outcomes: an erased AND's fixup makes its two outcomes' states equal.
    A fused erasure record forks nothing, so this serves the erasures that
    fork: bare ones, written as instructions, as the corpus mutants are read
    with their markers stripped, and records whose fused step does not
    apply.
    Each path's weight is then multiplied by the same probabilities, in the
    same order, as its own branch's would be.  An error in the second
    branch's stretch replaces it on the stack, so it is raised after every
    leaf of the first, where the unmerged walk would raise it.
    """
    (second, i), (first, _) = stack[-2:]
    del stack[-2:]
    meet = _advance(first, steps, i)
    try:
        _advance(second, steps, i)
    except SimulationError as err:
        stack += [(err, meet), (first, meet)]
        return
    if first.same(second):
        first.paths = second.paths + first.paths
        stack.append((first, meet))
    else:
        stack += [(second, meet), (first, meet)]


def _check_bound(program: _Program) -> None:
    if program.measurements > MAX_MEASUREMENTS:
        raise TooManyBranchesError(
            f"{program.measurements} measurements exceeds bound {MAX_MEASUREMENTS}")


def run(circuit: Circuit, input_state: InputState = None, *,
        seed: int = 0, force: dict[int, int] | None = None) -> RunResult:
    """Execute the circuit once, sampling measurements from `seed`.

    `force` pins chosen classical bits to fixed outcomes (error if that
    outcome has probability zero).  Same seed, same input: identical result.
    A circuit compiles on its first call on an engine and keeps the program
    (:func:`_compile`): later calls on the same circuit object, of this or
    any other walk here, skip the compile.
    With at most ``MAX_LIVE_QUBITS`` outputs even a sparse run returns a dense
    2^outputs vector, however few terms it holds: 16 MiB for ``gidney_adder``
    n = 10, 1 GiB for n = 13.
    """
    engine, read = _engine(input_state)
    initial = read(circuit, input_state)
    program = _compile(circuit, engine)
    (leaf,) = _walk(program, initial, _sampled(np.random.default_rng(seed), force))
    ((classbits, _),) = leaf.paths
    return RunResult(leaf.extract(program.final, program.outputs), classbits)


def enumerate_branches(circuit: Circuit, input_state: InputState = None) -> list[BranchResult]:
    """All reachable measurement branches, by projection and renormalization.

    Zero-probability branches are omitted; the returned probabilities sum
    to 1.  Results are sorted by outcome assignment.  A circuit with more
    than ``MAX_MEASUREMENTS`` measurements raises :class:`TooManyBranchesError`.
    Each branch's state is dense over the outputs while they number at most
    ``MAX_LIVE_QUBITS``, as in :func:`run`, on either engine.  Branches the
    walk merged share one extraction, and each gets its own copy of it.
    """
    engine, read = _engine(input_state)
    program = _compile(circuit, engine)
    _check_bound(program)
    results = []
    for leaf in _walk(program, read(circuit, input_state), _every):
        state = leaf.extract(program.final, program.outputs)
        results += [BranchResult(tuple(sorted(bits.items())), weight, state if k == 0 else state.copy())
                    for k, (bits, weight) in enumerate(leaf.paths)]
    return sorted(results, key=lambda b: b.outcomes)


# -- equivalence checking -------------------------------------------------------

IdealMap = Callable[[np.ndarray], np.ndarray]


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Squared overlap of two normalized pure states (global phase quotiented)."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(abs(np.vdot(u, v)) ** 2 / (nu * nv) ** 2)


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    worst_fidelity: float
    branch_count: int

    def __bool__(self) -> bool:
        return self.equivalent


def channel_equiv(circuit: Circuit, ideal: IdealMap, *,
                  input_states: Iterable[np.ndarray | str | int],
                  branches: str = "all") -> EquivalenceResult:
    """Check the circuit acts as `ideal` on each of `input_states`, on every measurement branch.

    ``ideal`` maps a dense input vector to the wanted output vector.  A branch
    passes at fidelity at least 1 - 1e-10 to it, as in :func:`basis_equiv`.
    ``branches`` takes only ``"all"``.  A check of no branch proves nothing,
    so an empty `input_states` raises ValueError, as does any other
    ``branches``, both before compiling.
    """
    if branches != "all":
        raise ValueError(f"branches must be 'all', got {branches!r}")
    input_states = list(input_states)
    if not input_states:
        raise ValueError("no input state to check: empty input_states")
    program = _compile(circuit, SimState)
    _check_bound(program)
    fidelities: list[float] = []  # one per leaf, which stands for each of its paths
    branch_count = 0
    for state in input_states:
        vec = _input_vector(circuit, state)
        expected = ideal(vec)
        for leaf in _walk(program, vec, _every):
            fidelities.append(fidelity(expected, leaf.extract(program.final, program.outputs)))
            branch_count += len(leaf.paths)
    # np.min propagates a NaN fidelity, and NaN >= 1 - tol is False: NaN never passes.
    worst = float(np.min(fidelities, initial=1.0))
    return EquivalenceResult(worst >= 1.0 - _FIDELITY_TOL, worst, branch_count)


def basis_equiv(circuit: Circuit, want: Callable[[int], int | tuple[int, complex]],
                read: Callable[[int], int] | None = None) -> EquivalenceResult:
    """Check the circuit maps each basis input i to ``want(i)``, relative phases included.

    ``want(i)`` is an output index, or a pair (output index, phase) whose phase,
    of unit modulus (else ValueError), the ideal multiplies input i by.  One walk
    from sum_i |i>|i>_ref / sqrt(N) over the N inputs (Choi 1975), the ref copy
    of i in key bits from ``circuit.n_qubits`` up, where no slot reaches.  A
    branch's fidelity to sum_i phase_i |want(i)>|i>_ref / sqrt(N) is
    |sum conj(phase) a / sqrt(N)|^2 over one term per ref, the largest whose
    output index (through ``read`` where given) is want's.  ``branch_count``
    counts the (input, branch) pairs, each path of a merged branch apart.
    Where 2^inputs, or 2^(inputs + measurements), the most pairs there can
    be, passes ``MAX_TERMS``, or 2^(inputs + 1) does in a circuit with an
    ``alloct`` (which doubles every term), it raises :class:`SimulationError`
    before walking.
    """
    n_in = len(circuit.input_qubits())
    if 1 << n_in > MAX_TERMS:
        raise SimulationError(f"{n_in} input qubits need more than {MAX_TERMS} sparse terms")
    program = _compile(circuit, SparseState)
    _check_bound(program)
    if (1 << n_in) << program.measurements > MAX_TERMS:
        raise SimulationError(f"2^{n_in} inputs and 2^{program.measurements} branches "
                              f"allow more than {MAX_TERMS} (input, branch) pairs")
    # The bound above lets this through only with no measurement, so an alloct meets every term.
    if 2 << n_in > MAX_TERMS and any(Op.ALLOCT in step.template.ops if step.__class__ is Gadget
                                     else step.op is Op.ALLOCT for step in circuit.body):
        raise SimulationError(f"{n_in} input qubits need more than {MAX_TERMS} sparse terms")
    _check_live(program.final, program.outputs)
    ideal = [want(i) for i in range(1 << n_in)]  # want's term per input, a phase conjugated
    for i, index in enumerate(ideal):
        if type(index) is tuple:
            index, phase = index
            # A longer phase could pass a wrong branch; `not <=` refuses NaN too.
            if not abs(abs(phase) - 1) <= _ZERO_TOL:
                raise ValueError(f"phase {phase!r} for input {i} is not of unit modulus")
            ideal[i] = index, phase.conjugate()
    runs = _gather([program.final[q] for q in program.outputs])
    shift, scale = circuit.n_qubits, (1 << n_in) ** -0.5
    fidelities, pairs = [], 0
    for leaf in _walk(program, {i | i << shift: scale for i in range(1 << n_in)}, _every):
        picked: dict[int, complex] = {}  # ref -> its term's amplitude, 0 where none reads right
        for key, a in leaf.amps.items():
            ref, out = key >> shift, 0
            for src, mask, dst in runs:
                out |= ((key >> src) & mask) << dst
            index = ideal[ref]
            if type(index) is tuple:
                index, conj = index
                a *= conj
            hit = a if (read(out) if read else out) == index else 0
            if abs(hit) >= abs(picked.get(ref, 0)):
                picked[ref] = hit
        fidelities.append(abs(sum(picked.values()) * scale) ** 2)
        pairs += len(picked) * len(leaf.paths)
    worst = float(np.min(fidelities, initial=1.0))  # a NaN propagates and fails
    return EquivalenceResult(worst >= 1.0 - _FIDELITY_TOL, worst, pairs)


def gradient_state(n: int) -> np.ndarray:
    """The phase-kickback eigenstate 2^(-n/2) * sum_k exp(-2*pi*i*k/2^n)|k>."""
    k = np.arange(1 << n)
    return np.exp(-2j * math.pi * k / (1 << n)) / math.sqrt(1 << n)


def register_basis(circuit: Circuit, values: dict[str, int]) -> int:
    """Basis index over the declared inputs with each named register set to a value.

    A name that is no declared input register raises ValueError.
    """
    unknown = set(values).difference(reg.name for reg in circuit.inputs)
    if unknown:
        raise ValueError(f"no input register named {sorted(unknown)[0]!r}")
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
    """Read one output register's integer value out of an output basis index.

    The register is the output of that name, or the input where the circuit
    declares no outputs, as ``Circuit.output_qubits`` reads them.  Another
    name raises KeyError.
    """
    reg = next((reg for reg in circuit.outputs or circuit.inputs if reg.name == name), None)
    if reg is None:
        raise KeyError(name)
    pos_of = circuit.output_positions
    value = 0
    for bit, q in enumerate(reg.qubits):
        value |= ((basis_index >> pos_of[q]) & 1) << bit
    return value
