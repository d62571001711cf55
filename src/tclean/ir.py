"""Circuit intermediate representation.

A circuit is an ordered list of instructions over integer qubit ids and
classical bit ids.  Ancilla lifetimes are explicit: qubits either belong to a
declared input register (live for the whole circuit) or are created by an
``alloc0``/``alloct`` instruction and destroyed by ``release``.  Measurement
outcomes land in write-once classical bits, and Clifford instructions may be
conditioned on one of those bits (the measure-and-fixup idiom).  Each
instruction kind's properties (arity, read-only controls, Clifford, T-type,
measurement, diagonal, allocation lifetime) are stated once, as attributes of
its :class:`Op` member, and every pass reads them there.

Contiguous instruction ranges can be tagged as AND-gadget spans.  Spans are
flat: no two share an instruction.  They are annotations only: simulation
executes the instructions inside them normally, while depth accounting
counts each span as a single unit-weight event on every wire it touches.

Every :class:`Circuit` is valid: constructing one makes the walk that
:func:`validate` makes and raises :class:`CircuitError` on the first
violation.  The same walk derives the circuit's widths from its contents, no
id exceeds ``MAX_INDEX``, and the spans are stored in start order, so
the text format carries every circuit exactly.  Builders, the text parser
and the composition helpers all end in that constructor, so passes take
their input as checked and never check it again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Sequence

#: Largest qubit or classical-bit id a circuit may name: passes keep per-wire
#: state up to the largest id, and the text format writes no larger one.
MAX_INDEX = (1 << 20) - 1


class Op(Enum):
    """Instruction alphabet: each kind's text-format mnemonic (its value) and properties.

    ``arity`` is the number of qubits and ``controls`` how many leading ones
    are only read.  A ``clifford`` kind is cheap in the surface code and the
    only kind a classical condition may guard.  Each ``t_type`` kind costs one
    T: T, T-dagger and the injected |T> state.  A ``measures`` kind writes a
    classical bit.  A ``diagonal`` kind never changes a computational-basis
    value.  ``lifetime`` is +1 for a kind that allocates its qubit, -1 for
    one that releases it and 0 otherwise.

    Members hash by identity, in C, instead of by name as ``Enum`` does:
    each member is a singleton, so equal members are the same object.
    """

    X = "x", 1, 0, "clifford"
    Y = "y", 1, 0, "clifford"
    Z = "z", 1, 0, "clifford diagonal"
    H = "h", 1, 0, "clifford"
    S = "s", 1, 0, "clifford diagonal"
    SDG = "sdg", 1, 0, "clifford diagonal"
    T = "t", 1, 0, "t_type diagonal"
    TDG = "tdg", 1, 0, "t_type diagonal"
    RZ = "rz", 1, 0, "diagonal"
    CX = "cx", 2, 1, "clifford"
    CZ = "cz", 2, 2, "clifford diagonal"
    CCX = "ccx", 3, 2, ""
    ALLOC0 = "alloc0", 1, 0, "", +1
    ALLOCT = "alloct", 1, 0, "t_type", +1
    RELEASE = "release", 1, 0, "", -1
    MZ = "mz", 1, 0, "measures"
    MX = "mx", 1, 0, "measures"

    def __new__(cls, mnemonic: str, arity: int, controls: int, flags: str, lifetime: int = 0) -> Op:
        op = object.__new__(cls)
        op._value_ = mnemonic
        op.arity, op.controls, op.lifetime = arity, controls, lifetime
        op.clifford, op.t_type, op.measures, op.diagonal = (
            flag in flags.split() for flag in ("clifford", "t_type", "measures", "diagonal"))
        return op

    __hash__ = object.__hash__


# The members as module globals, for the builder's gate methods: reading one
# through its class (``Op.CX``) takes ~130 ns on Python 3.11, a global ~10 ns.
_X, _Y, _Z, _H, _S, _SDG, _T, _TDG, _RZ = Op.X, Op.Y, Op.Z, Op.H, Op.S, Op.SDG, Op.T, Op.TDG, Op.RZ
_CX, _CZ, _CCX = Op.CX, Op.CZ, Op.CCX
_ALLOC0, _ALLOCT, _RELEASE, _MZ, _MX = Op.ALLOC0, Op.ALLOCT, Op.RELEASE, Op.MZ, Op.MX

#: The arity of each gate: a kind that takes no angle, writes no classical
#: bit and leaves every qubit's lifetime as it is.
_GATE_ARITY = {op: op.arity for op in Op if op is not _RZ and not op.measures and not op.lifetime}


class GadgetTag(Enum):
    AND_COMPUTE = "and_compute"
    AND_UNCOMPUTE = "and_uncompute"


class Instruction(NamedTuple):
    """One gate, measurement, or allocation event.

    ``result`` names the classical bit written by a measurement; ``cond``
    names the classical bit guarding a conditioned Clifford.  A named tuple:
    immutable, compared and hashed field by field as a tuple, and copied
    with fields replaced by ``_replace``.
    """

    op: Op
    qubits: tuple[int, ...]
    angle: float | None = None
    result: int | None = None
    cond: int | None = None


#: ``_new_record(Instruction, fields)`` makes an instruction from its five
#: fields without the Python-level ``Instruction.__new__``.
_new_record = tuple.__new__


class Template:
    """A fixed instruction sequence over named wires, placed on concrete qubits.

    Written one instruction a line in the text format's mnemonics, with wire
    names where the text has qubit ids (``cx x anc``).  A measurement writes
    the instance's classical bit, and a line that starts with ``?`` is
    conditioned on it.  A template with a ``tag`` is one gadget span
    wherever it is placed.  Each construction that is placed whole, by the
    builder or by a rewriting pass, is defined once as a template.
    """

    def __init__(self, tag: GadgetTag | None, wires: str, text: str) -> None:
        self.tag = tag
        names = wires.split()
        gates = []
        for line in text.strip().splitlines():
            tokens = line.split()
            cond = tokens[0] == "?"
            op = Op(tokens[cond])
            slots = tuple(names.index(name) for name in tokens[cond + 1:])
            if len(slots) != op.arity or op is _RZ or (cond and not op.clifford):
                raise ValueError(f"bad template line {line.strip()!r}")
            gates.append((op, slots, cond))
        self.ops = tuple(op for op, _, _ in gates)
        self.measures = any(op.measures for op in self.ops)
        # An instance makes each distinct instruction once and repeats the
        # record where the sequence repeats it.  Each is made with one C-level
        # getter that returns its qubits as a tuple: a one-qubit instruction
        # takes a one-element slice of the wires.
        distinct = list(dict.fromkeys(gates))
        self._order = tuple(map(distinct.index, gates))
        self._gates = tuple(
            (op, itemgetter(*slots) if len(slots) > 1 else itemgetter(slice(slots[0], slots[0] + 1)),
             op.measures, cond)
            for op, slots, cond in distinct)
        # (instruction, position) where each wire is first named, for match.
        self._first = tuple(
            min((g, p) for g, (_, slots, _) in enumerate(gates) for p, s in enumerate(slots) if s == w)
            for w in range(len(names)))

    def instantiate(self, wires: tuple[int, ...], bit: int | None = None) -> tuple[Instruction, ...]:
        """The instructions on qubit ids `wires` (a tuple, one id per wire name), with classical bit `bit`."""
        made = [_new_record(Instruction, (op, get(wires), None, bit if measures else None,
                                          bit if cond else None))
                for op, get, measures, cond in self._gates]
        return tuple(map(made.__getitem__, self._order))

    def match(self, instrs: Sequence[Instruction]) -> tuple[int, ...] | None:
        """The qubit ids `instrs` are an instance of this template on, or None if they are not one."""
        if tuple(instr.op for instr in instrs) != self.ops:
            return None
        wires = tuple(instrs[g].qubits[p] for g, p in self._first)
        bit = next((instr.result for instr in instrs if instr.result is not None), None)
        return wires if self.instantiate(wires, bit) == tuple(instrs) else None


class GadgetSpan(NamedTuple):
    """Nonempty half-open instruction range [start, end) tagged as one gadget; spans share no instruction."""

    start: int
    end: int
    tag: GadgetTag


@dataclass(frozen=True)
class Register:
    name: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    """A valid circuit: construction raises :class:`CircuitError` otherwise.

    ``n_qubits`` and ``n_classbits`` are not arguments: they are one more
    than the largest qubit id the registers and instructions name and one
    more than the largest result bit, found in the validating walk.  The
    spans are flat, so they are stored sorted by start alone, and circuits
    that differ only in the order their spans were given are equal.
    """

    instructions: tuple[Instruction, ...]
    spans: tuple[GadgetSpan, ...] = ()
    inputs: tuple[Register, ...] = ()
    outputs: tuple[Register, ...] = ()
    n_qubits: int = field(init=False)
    n_classbits: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "spans", tuple(sorted(self.spans, key=itemgetter(0))))
        found = _check(self)
        if isinstance(found, Violation):
            raise CircuitError(found)
        object.__setattr__(self, "n_qubits", found[0])
        object.__setattr__(self, "n_classbits", found[1])

    def input_qubits(self) -> tuple[int, ...]:
        return tuple(q for reg in self.inputs for q in reg.qubits)

    def output_qubits(self) -> tuple[int, ...]:
        if self.outputs:
            return tuple(q for reg in self.outputs for q in reg.qubits)
        return self.input_qubits()

    @cached_property
    def output_positions(self) -> dict[int, int]:
        """Each output qubit's bit in an output basis index, computed once per circuit."""
        return {q: j for j, q in enumerate(self.output_qubits())}

    def __len__(self) -> int:
        return len(self.instructions)


class ViolationCode(Enum):
    USE_AFTER_RELEASE = "USE_AFTER_RELEASE"
    USE_BEFORE_ALLOC = "USE_BEFORE_ALLOC"
    CLASSBIT_READ_BEFORE_WRITE = "CLASSBIT_READ_BEFORE_WRITE"
    BAD_ARITY = "BAD_ARITY"
    NONCLIFFORD_CONDITIONED = "NONCLIFFORD_CONDITIONED"
    OVERLAPPING_GADGET_SPANS = "OVERLAPPING_GADGET_SPANS"
    # Cases the canonical six do not cover.
    ALLOC_WHILE_LIVE = "ALLOC_WHILE_LIVE"
    CLASSBIT_REWRITE = "CLASSBIT_REWRITE"
    OUTPUT_NOT_LIVE = "OUTPUT_NOT_LIVE"
    REGISTER_OVERLAP = "REGISTER_OVERLAP"
    BAD_REGISTER_NAME = "BAD_REGISTER_NAME"


@dataclass(frozen=True)
class Violation:
    code: ViolationCode
    index: int
    message: str


class CircuitError(Exception):
    """Raised when the contents given for a :class:`Circuit` break an invariant."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(f"{violation.code.value} at instruction {violation.index}: {violation.message}")


def validate(circuit: Circuit) -> Violation | None:
    """Check every lifetime, arity, classical-bit, id-limit, register-name and span invariant.

    Returns the first violation in instruction order, or None if the circuit
    is valid.  Deterministic: depends only on the circuit contents.
    """
    found = _check(circuit)
    return found if isinstance(found, Violation) else None


def _check(circuit: Circuit) -> Violation | tuple[int, int]:
    """The first violation :func:`validate` reports, or else the widths ``(n_qubits, n_classbits)``.

    Only in-range ids enter ``live``: an input register's ids and an
    allocated id are range-checked first.  So a live qubit is in range and
    ``max_qubit`` already counts it, and a gate on live qubits (the common
    instruction) is accepted by one test with no range or width work.  Any
    instruction that test does not accept takes the full checks, which
    alone word each violation, so the first violation does not depend on
    the test.
    """
    n = len(circuit.instructions)
    prev_end = 0
    for start, end, _ in circuit.spans:  # stored by start
        if start < 0 or end > n:
            problem = "out of bounds"
        elif start >= end:
            problem = "is empty"
        elif start < prev_end:
            problem = "overlaps the span before it"
        else:
            prev_end = end
            continue
        return Violation(ViolationCode.OVERLAPPING_GADGET_SPANS, start, f"span [{start},{end}) {problem}")

    for side, regs in (("input", circuit.inputs), ("output", circuit.outputs)):
        names: set[str] = set()
        for reg in regs:
            if reg.name.split() != [reg.name]:
                return Violation(ViolationCode.BAD_REGISTER_NAME, 0,
                                 f"register name {reg.name!r} is empty or holds whitespace")
            if reg.name in names:
                return Violation(ViolationCode.BAD_REGISTER_NAME, 0,
                                 f"register name {reg.name!r} declared twice as an {side}")
            names.add(reg.name)
    live: set[int] = set()
    ever_released: set[int] = set()
    max_qubit = max_bit = -1
    for reg in circuit.inputs:
        top = max(reg.qubits, default=-1)
        if top > MAX_INDEX or min(reg.qubits, default=0) < 0:
            return Violation(ViolationCode.BAD_ARITY, 0, f"qubit index out of range in {reg.qubits}")
        max_qubit = max(max_qubit, top)
        for q in reg.qubits:
            if q in live:
                return Violation(ViolationCode.REGISTER_OVERLAP, 0,
                                 f"qubit {q} declared in two input registers")
            live.add(q)

    written_bits: set[int] = set()

    def liveness_error(q: int, i: int) -> Violation:
        if q in ever_released:
            return Violation(ViolationCode.USE_AFTER_RELEASE, i, f"qubit {q} used after release")
        return Violation(ViolationCode.USE_BEFORE_ALLOC, i, f"qubit {q} used before allocation")

    gate_arity = _GATE_ARITY
    all_live = live.issuperset
    rz = Op.RZ
    for i, (op, qubits, angle, result, cond) in enumerate(circuit.instructions):
        # The accept test: a gate that breaks none of the checks below.  Its
        # qubits are live, so they are in range and max_qubit counts them.
        arity = gate_arity.get(op)
        if (arity == len(qubits) and angle is None and result is None and all_live(qubits)
                and (cond is None or (op.clifford and cond in written_bits))
                and (arity == 1 or (qubits[0] != qubits[1] if arity == 2 else len(set(qubits)) == arity))):
            continue
        arity = op.arity
        if len(qubits) != arity or (arity > 1 and len(set(qubits)) != arity):
            return Violation(ViolationCode.BAD_ARITY, i,
                             f"{op.value} expects {arity} distinct qubits, got {qubits}")
        top = max(qubits)
        if top > max_qubit:
            if top > MAX_INDEX:
                return Violation(ViolationCode.BAD_ARITY, i, f"qubit index out of range in {qubits}")
            max_qubit = top
        if min(qubits) < 0:
            return Violation(ViolationCode.BAD_ARITY, i, f"qubit index out of range in {qubits}")
        if (angle is not None) != (op is rz):
            return Violation(ViolationCode.BAD_ARITY, i, "angle is required for rz and forbidden elsewhere")
        if angle is not None and not math.isfinite(angle):
            return Violation(ViolationCode.BAD_ARITY, i, f"rz angle must be finite, got {angle}")
        measures = op.measures
        if (result is not None) != measures:
            return Violation(ViolationCode.BAD_ARITY, i, "result bit is required for measurements only")

        if cond is not None:
            if not op.clifford:
                return Violation(ViolationCode.NONCLIFFORD_CONDITIONED, i,
                                 f"conditioned {op.value} is not a Clifford fixup")
            if cond not in written_bits:
                return Violation(ViolationCode.CLASSBIT_READ_BEFORE_WRITE, i,
                                 f"classical bit c{cond} read before any measurement wrote it")

        lifetime = op.lifetime
        if lifetime > 0:
            q = qubits[0]
            if q in live:
                return Violation(ViolationCode.ALLOC_WHILE_LIVE, i, f"qubit {q} allocated while live")
            live.add(q)
            ever_released.discard(q)
        elif lifetime < 0:
            q = qubits[0]
            if q not in live:
                return liveness_error(q, i)
            live.discard(q)
            ever_released.add(q)
        else:
            if not live.issuperset(qubits):
                return liveness_error(next(q for q in qubits if q not in live), i)
            if measures:
                if result > max_bit:
                    if result > MAX_INDEX:
                        return Violation(ViolationCode.BAD_ARITY, i, f"classical bit {result} out of range")
                    max_bit = result
                if result < 0:
                    return Violation(ViolationCode.BAD_ARITY, i, f"classical bit {result} out of range")
                if result in written_bits:
                    return Violation(ViolationCode.CLASSBIT_REWRITE, i,
                                     f"classical bit c{result} written twice")
                written_bits.add(result)

    outputs: set[int] = set()
    for q in circuit.output_qubits():
        if q not in live:
            return Violation(ViolationCode.OUTPUT_NOT_LIVE, n, f"declared output qubit {q} not live at end")
        if q in outputs:
            return Violation(ViolationCode.REGISTER_OVERLAP, n, f"qubit {q} declared twice as an output")
        outputs.add(q)
    return max_qubit + 1, max_bit + 1


class CircuitBuilder:
    """Single-owner builder; the built Circuit is immutable and freely shared.

    Qubit ids are handed out in declaration/allocation order, so ancilla
    lifetimes stay first-class for the cost model.  The id counter moves only
    where ids are handed out or adopted, never at a gate: the constructor derives widths.
    """

    def __init__(self) -> None:
        self._instructions: list[Instruction] = []
        self._spans: list[GadgetSpan] = []
        self._inputs: list[Register] = []
        self._outputs: list[Register] = []
        self._next_qubit = 0
        self._next_bit = 0

    # -- registers ----------------------------------------------------------

    def register(self, name: str, size: int) -> tuple[int, ...]:
        """Declare an input register of `size` fresh qubits, live from the start."""
        qubits = tuple(range(self._next_qubit, self._next_qubit + size))
        self._next_qubit += size
        self._inputs.append(Register(name, qubits))
        return qubits

    def adopt_register(self, name: str, qubits: Sequence[int]) -> tuple[int, ...]:
        """Declare an input register over caller-chosen qubit ids."""
        qubits = tuple(qubits)
        if qubits:
            self._next_qubit = max(self._next_qubit, max(qubits) + 1)
        self._inputs.append(Register(name, qubits))
        return qubits

    def output(self, name: str, qubits: Sequence[int]) -> None:
        self._outputs.append(Register(name, tuple(qubits)))

    # -- instructions --------------------------------------------------------

    def _emit(self, op: Op, qubits: tuple[int, ...], angle: float | None = None,
              result: int | None = None, cond: int | None = None) -> None:
        self._instructions.append(_new_record(Instruction, (op, qubits, angle, result, cond)))

    def fresh_qubit(self, q: int | None = None) -> int:
        """`q`, or the next unused id when None; either way it is adopted."""
        if q is None:
            q = self._next_qubit
        self._next_qubit = max(self._next_qubit, q + 1)
        return q

    def alloc0(self, q: int | None = None) -> int:
        q = self.fresh_qubit(q)
        self._emit(_ALLOC0, (q,))
        return q

    def alloct(self, q: int | None = None) -> int:
        q = self.fresh_qubit(q)
        self._emit(_ALLOCT, (q,))
        return q

    def release(self, q: int) -> None:
        self._emit(_RELEASE, (q,))

    def x(self, q: int, cond: int | None = None) -> None:
        self._emit(_X, (q,), None, None, cond)

    def y(self, q: int, cond: int | None = None) -> None:
        self._emit(_Y, (q,), None, None, cond)

    def z(self, q: int, cond: int | None = None) -> None:
        self._emit(_Z, (q,), None, None, cond)

    def h(self, q: int, cond: int | None = None) -> None:
        self._emit(_H, (q,), None, None, cond)

    def s(self, q: int, cond: int | None = None) -> None:
        self._emit(_S, (q,), None, None, cond)

    def sdg(self, q: int, cond: int | None = None) -> None:
        self._emit(_SDG, (q,), None, None, cond)

    def t(self, q: int) -> None:
        self._emit(_T, (q,))

    def tdg(self, q: int) -> None:
        self._emit(_TDG, (q,))

    def rz(self, angle: float, q: int) -> None:
        self._emit(_RZ, (q,), float(angle))

    def cx(self, control: int, target: int, cond: int | None = None) -> None:
        self._emit(_CX, (control, target), None, None, cond)

    def cz(self, a: int, b: int, cond: int | None = None) -> None:
        self._emit(_CZ, (a, b), None, None, cond)

    def ccx(self, c1: int, c2: int, target: int) -> None:
        self._emit(_CCX, (c1, c2, target))

    def mz(self, q: int) -> int:
        bit = self._next_bit
        self._next_bit += 1
        self._emit(_MZ, (q,), None, bit)
        return bit

    def mx(self, q: int) -> int:
        bit = self._next_bit
        self._next_bit += 1
        self._emit(_MX, (q,), None, bit)
        return bit

    def emit_template(self, template: Template, wires: tuple[int, ...]) -> None:
        """Append `template` on qubit ids `wires`, as one gadget span if it is tagged.

        A measuring template writes a fresh classical bit.
        """
        bit = self._next_bit
        self._next_bit += template.measures
        top = max(wires) + 1
        if top > self._next_qubit:
            self._next_qubit = top
        instrs = self._instructions
        start = len(instrs)
        instrs += template.instantiate(wires, bit)
        if template.tag is not None:
            self._spans.append(GadgetSpan(start, len(instrs), template.tag))

    def append(self, instr: Instruction) -> None:
        """Append a prebuilt instruction, adopting any ids it references."""
        if instr.qubits:
            self._next_qubit = max(self._next_qubit, max(instr.qubits) + 1)
        for bit in (instr.result, instr.cond):
            if bit is not None:
                self._next_bit = max(self._next_bit, bit + 1)
        self._instructions.append(instr)

    def reserve_classbits(self, n: int) -> None:
        self._next_bit = max(self._next_bit, n)

    def add_span(self, span: GadgetSpan) -> None:
        """Adopt a prebuilt span (absolute indices into this builder's list)."""
        self._spans.append(span)

    # -- fragments ---------------------------------------------------------------

    @property
    def next_index(self) -> int:
        return len(self._instructions)

    def mark(self) -> tuple[int, int]:
        """Checkpoint for :meth:`fragment_since`."""
        return (len(self._instructions), len(self._spans))

    def fragment_since(self, mark: tuple[int, int]) -> tuple[tuple[Instruction, ...], tuple[GadgetSpan, ...]]:
        """Instructions appended since `mark`, with span indices rebased to 0."""
        i0, s0 = mark
        instrs = tuple(self._instructions[i0:])
        spans = tuple(GadgetSpan(s.start - i0, s.end - i0, s.tag) for s in self._spans[s0:])
        return instrs, spans

    # -- finish ----------------------------------------------------------------

    def build(self) -> Circuit:
        return Circuit(tuple(self._instructions), spans=tuple(self._spans),
                       inputs=tuple(self._inputs), outputs=tuple(self._outputs))


def concatenate(first: Circuit, second: Circuit) -> Circuit:
    """Sequential composition on a shared qubit index space.

    The second circuit's classical bits are renumbered to follow the first's.
    An input register of the second circuit is re-declared only when the
    first circuit never touches its qubits (disjoint composition); otherwise
    those qubits must already be live when the second circuit starts, or
    the composition raises :class:`CircuitError`.
    Outputs are taken from the second circuit if declared, else the first.
    """
    offset = first.n_classbits

    def shift(instr: Instruction) -> Instruction:
        result = instr.result + offset if instr.result is not None else None
        cond = instr.cond + offset if instr.cond is not None else None
        return instr._replace(result=result, cond=cond)

    instrs = first.instructions + tuple(shift(i) for i in second.instructions)
    base = len(first.instructions)
    spans = first.spans + tuple(
        GadgetSpan(s.start + base, s.end + base, s.tag) for s in second.spans
    )
    touched = set(first.input_qubits())
    for instr in first.instructions:
        touched.update(instr.qubits)
    inputs = list(first.inputs)
    names = {reg.name for reg in inputs}
    for reg in second.inputs:
        if set(reg.qubits) & touched:
            continue
        name = reg.name
        while name in names:
            name += "'"
        names.add(name)
        inputs.append(Register(name, reg.qubits))
    return Circuit(instrs, spans=spans, inputs=tuple(inputs), outputs=second.outputs or first.outputs)


def shift_qubits(circuit: Circuit, offset: int) -> Circuit:
    """Remap every qubit id by +offset, for composing independent circuits."""
    if offset < 0:
        raise ValueError("offset must be nonnegative")

    def shift_reg(reg: Register) -> Register:
        return Register(reg.name, tuple(q + offset for q in reg.qubits))

    return Circuit(tuple(i._replace(qubits=tuple(q + offset for q in i.qubits))
                         for i in circuit.instructions),
                   spans=circuit.spans,
                   inputs=tuple(shift_reg(r) for r in circuit.inputs),
                   outputs=tuple(shift_reg(r) for r in circuit.outputs))
