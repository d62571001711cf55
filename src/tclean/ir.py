"""Circuit intermediate representation.

A circuit is an ordered body of steps over integer qubit ids and classical
bit ids.  A step is one instruction or one gadget record: an instance of
:data:`AND_COMPUTE` or :data:`AND_UNCOMPUTE` placed on concrete wires, which
is one gadget span.  Ancilla lifetimes are explicit: qubits either belong to
a declared input register (live for the whole circuit) or are created by an
``alloc0``/``alloct`` instruction and destroyed by ``release``.  Measurement
outcomes land in write-once classical bits, and Clifford instructions may be
conditioned on one of those bits (the measure-and-fixup idiom).  Each
instruction kind's properties (arity, read-only controls, Clifford, T-type,
measurement, diagonal, allocation lifetime) are stated once, as attributes of
its :class:`Op` member, and every pass reads them there.

A record is a span by construction: it holds its template, not the
instructions, so its body is always an exact instance.  Passes that price
or check a circuit step over each record once, and so does the simulator's
compile; the Toffoli matcher reads :attr:`Circuit.instructions`, the body
with every record expanded.  Depth accounting counts each record as a
single unit-weight event on every wire it touches.

Every :class:`Circuit` is valid: constructing one makes the walk that
:func:`validate` makes and raises :class:`CircuitError` on the first
violation.  The same walk derives the circuit's widths and instruction count
from its contents, and no id exceeds ``MAX_INDEX``, so the text format
carries every circuit exactly.  The builder, the text parser and the
rewriting passes all end in that constructor, so passes take their input as
checked and never check it again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence, Union

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


def _tuple_getter(slots: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A C-level getter of the items at `slots` as a tuple: a one-item slice for one slot."""
    if len(slots) == 1:
        return itemgetter(slice(slots[0], slots[0] + 1))
    if slots:
        return itemgetter(*slots)
    return lambda wires: ()


class Template:
    """A fixed instruction sequence over named wires, placed on concrete qubits.

    Written one instruction a line in the text format's mnemonics, with wire
    names where the text has qubit ids (``cx x anc``).  A measurement writes
    the instance's classical bit, and a line that starts with ``?`` is
    conditioned on it.  Each construction that is placed whole, by the
    builder or by a rewriting pass, is defined once as a template.  A
    gadget's template is its one name: its ``tag`` is its text-format
    marker (``and_compute``) and its key in :data:`TEMPLATES`, its
    ``inverse`` is the gadget that undoes it on the same wires, and the
    circuit stores it as one :class:`Gadget` record.  Only the templates of
    :data:`TEMPLATES` carry a tag; an untagged one is placed as its
    instructions.

    A record is priced and checked without its instructions, so a template
    states what its instructions do to each wire: ``live_in`` picks the
    wires that must be live on entry, ``born`` those it allocates and
    ``dies`` those it releases.  A tagged template whose instructions break
    an invariant on distinct wires that meet those needs raises ValueError,
    so a record on such wires is valid.
    """

    def __init__(self, tag: str | None, wires: str, text: str) -> None:
        self.tag = tag
        self.inverse: Template | None = None
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
        self.lines = tuple(gates)  # each line's (op, wire slots, conditioned)
        self.ops = tuple(op for op, _, _ in gates)
        self.size = len(gates)
        self.n_wires = len(names)
        self.measures = any(op.measures for op in self.ops)
        self.t_count = sum(op.t_type for op in self.ops)
        self.ccx_count = self.ops.count(_CCX)
        # An instance makes each distinct instruction once and repeats the
        # record where the sequence repeats it.  Each is made with one C-level
        # getter that returns its qubits as a tuple.
        distinct = list(dict.fromkeys(gates))
        self._order = tuple(map(distinct.index, gates))
        self._gates = tuple((op, _tuple_getter(slots), op.measures, cond) for op, slots, cond in distinct)
        # (instruction, position) where each wire is first named, for match.
        self._first = tuple(
            min((g, p) for g, (_, slots, _) in enumerate(gates) for p, s in enumerate(slots) if s == w)
            for w in range(len(names)))

        lifetimes = [[op.lifetime for op, slots, _ in gates if w in slots] for w in range(len(names))]
        self.live_in = _tuple_getter([w for w, life in enumerate(lifetimes) if life[0] <= 0])
        self.born = _tuple_getter([w for w, life in enumerate(lifetimes) if life[0] > 0])
        self.dies = _tuple_getter([w for w, life in enumerate(lifetimes) if life[-1] < 0])
        if tag is not None:
            wire_ids = tuple(range(len(names)))
            found = _check(self.instantiate(wire_ids, 0 if self.measures else None),
                           (Register("in", self.live_in(wire_ids)),), (Register("out", ()),))
            if isinstance(found, Violation) or self.size < 2:
                raise ValueError(f"tagged template {tag} is no valid gadget: {found}")

    def __repr__(self) -> str:
        return f"<Template {self.tag or 'untagged'}: {' '.join(op.value for op in self.ops)}>"

    def instantiate(self, wires: tuple[int, ...], bit: int | None = None) -> tuple[Instruction, ...]:
        """The instructions on qubit ids `wires` (a tuple, one id per wire name), with classical bit `bit`."""
        made = [_new_record(Instruction, (op, get(wires), None, bit if measures else None,
                                          bit if cond else None))
                for op, get, measures, cond in self._gates]
        return tuple(map(made.__getitem__, self._order))

    def match(self, instrs: Sequence[Instruction]) -> Gadget | None:
        """The record of this template that `instrs` spell, or None if they are no instance of it."""
        if tuple(instr.op for instr in instrs) != self.ops:
            return None
        wires = tuple(instrs[g].qubits[p] for g, p in self._first)
        bit = next((instr.result for instr in instrs if instr.result is not None), None)
        return Gadget(self, wires, bit) if self.instantiate(wires, bit) == tuple(instrs) else None


class Gadget(NamedTuple):
    """One gadget span, stored as one step: its template placed on `wires`.

    ``wires`` holds one qubit id per template wire, in the template's wire
    order, and ``bit`` the classical bit the template's measurement writes,
    None for a template that measures nothing.
    """

    template: Template
    wires: tuple[int, ...]
    bit: int | None = None


#: One step of a circuit body.
Step = Union[Instruction, Gadget]


@dataclass(frozen=True)
class Register:
    name: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    """A valid circuit: construction raises :class:`CircuitError` otherwise.

    ``n_qubits`` and ``n_classbits`` are not arguments: they are one more
    than the largest qubit id the registers and steps name and one more than
    the largest result bit, found in the validating walk, which also counts
    the instructions ``len`` returns.
    """

    body: tuple[Step, ...]
    inputs: tuple[Register, ...] = ()
    outputs: tuple[Register, ...] = ()
    n_qubits: int = field(init=False)
    n_classbits: int = field(init=False)
    _length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        found = _check(self.body, self.inputs, self.outputs)
        if isinstance(found, Violation):
            raise CircuitError(found)
        object.__setattr__(self, "n_qubits", found[0])
        object.__setattr__(self, "n_classbits", found[1])
        object.__setattr__(self, "_length", found[2])
        if found[2] == len(self.body):  # every record stands for two or more instructions
            self.__dict__["instructions"] = self.body

    @cached_property
    def instructions(self) -> tuple[Instruction, ...]:
        """The body with each record expanded into its instructions, made on first read."""
        out: list[Instruction] = []
        for step in self.body:
            if step.__class__ is Gadget:
                out += step.template.instantiate(step.wires, step.bit)
            else:
                out.append(step)
        return tuple(out)

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
        return self._length


class ViolationCode(Enum):
    USE_AFTER_RELEASE = "USE_AFTER_RELEASE"
    USE_BEFORE_ALLOC = "USE_BEFORE_ALLOC"
    CLASSBIT_READ_BEFORE_WRITE = "CLASSBIT_READ_BEFORE_WRITE"
    BAD_ARITY = "BAD_ARITY"
    NONCLIFFORD_CONDITIONED = "NONCLIFFORD_CONDITIONED"
    MALFORMED_GADGET_SPAN = "MALFORMED_GADGET_SPAN"
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
    """Check every lifetime, arity, classical-bit, id-limit, register-name and record invariant.

    Returns the first violation in instruction order, with its index in
    :attr:`Circuit.instructions`, or None if the circuit is valid.
    Deterministic: depends only on the circuit contents.
    """
    found = _check(circuit.body, circuit.inputs, circuit.outputs)
    return found if isinstance(found, Violation) else None


def _check(body: Sequence[Step], inputs: Sequence[Register],
           outputs: Sequence[Register]) -> Violation | tuple[int, int, int]:
    """The first violation :func:`validate` reports, or else ``(n_qubits, n_classbits, instruction count)``.

    Only in-range ids enter ``live``: an input register's ids and an
    allocated id are range-checked first.  So a live qubit is in range and
    ``max_qubit`` already counts it, and a gate on live qubits (the common
    instruction) is accepted by one test with no range or width work, as
    are an allocation of a dead id in range and a release of a live one.  A
    record is accepted by one test too: its wires distinct and in range,
    the ones its template needs live, the ones it allocates not, and its bit
    unwritten.  Any step that its test does not accept takes the full
    per-instruction checks (a record on each instruction of its expansion),
    which alone word each violation, so the first violation does not depend
    on the tests.
    """
    for side, regs in (("input", inputs), ("output", outputs)):
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
    for reg in inputs:
        top = max(reg.qubits, default=-1)
        if top > MAX_INDEX or min(reg.qubits, default=0) < 0:
            q = next(q for q in reg.qubits if not 0 <= q <= MAX_INDEX)
            return Violation(ViolationCode.BAD_ARITY, 0,
                             f"qubit index {q} out of range in input register {reg.name!r}")
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
    no_live = live.isdisjoint
    gadget = Gadget
    extra = 0  # instructions the records before this step stand for, less one each
    for s, step in enumerate(body):
        if step.__class__ is gadget:
            template, wires, bit = step
            plan = _RECORD_PLANS.get(template)
            if (plan is None or wires.__class__ is not tuple or len(wires) != plan[0]
                    or (bit is None) == plan[4]):
                return Violation(ViolationCode.MALFORMED_GADGET_SPAN, s + extra,
                                 f"record of {template!r} on {wires!r} with bit {bit!r} "
                                 "is no placed instance of a gadget template")
            n_wires, live_in, born_of, dies_of, measures, grow = plan
            born = born_of(wires)
            # The accept test: a record whose expansion breaks none of the checks.
            # Its live wires are in range and max_qubit counts them.
            if (all_live(live_in(wires)) and no_live(born) and len(set(wires)) == n_wires
                    and (not measures or (bit.__class__ is int and 0 <= bit <= MAX_INDEX
                                          and bit not in written_bits))
                    and (not born or (min(born) >= 0 and max(born) <= MAX_INDEX))):
                if born:
                    top = max(born)
                    if top > max_qubit:
                        max_qubit = top
                    live.update(born)
                    ever_released.difference_update(born)
                dies = dies_of(wires)
                if dies:
                    live.difference_update(dies)
                    ever_released.update(dies)
                if measures:
                    written_bits.add(bit)
                    if bit > max_bit:
                        max_bit = bit
                extra += grow
                continue
            pending = template.instantiate(wires, bit)
        else:
            op, qubits, angle, result, cond = step
            # The accept test: a gate that breaks none of the checks below.  Its
            # qubits are live, so they are in range and max_qubit counts them.
            arity = gate_arity.get(op)
            if (arity == len(qubits) and angle is None and result is None and all_live(qubits)
                    and (cond is None or (op.clifford and cond in written_bits))
                    and (arity == 1 or (qubits[0] != qubits[1] if arity == 2 else len(set(qubits)) == arity))):
                continue
            # The accept test of an allocation or release: the one qubit in range and dead, or live.
            lifetime = op.lifetime
            if lifetime and len(qubits) == 1 and angle is None and result is None and cond is None:
                q = qubits[0]
                if lifetime < 0:
                    if q in live:
                        live.discard(q)
                        ever_released.add(q)
                        continue
                elif q not in live and 0 <= q <= MAX_INDEX:
                    live.add(q)
                    ever_released.discard(q)
                    if q > max_qubit:
                        max_qubit = q
                    continue
            pending = (step,)

        # Every check on each instruction of the step, with its effect on the walk's state.
        for i, (op, qubits, angle, result, cond) in enumerate(pending, s + extra):
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
            if (angle is not None) != (op is _RZ):
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
        extra += len(pending) - 1

    n = len(body) + extra
    seen: set[int] = set()
    for q in (q for reg in (outputs or inputs) for q in reg.qubits):
        if q not in live:
            return Violation(ViolationCode.OUTPUT_NOT_LIVE, n, f"declared output qubit {q} not live at end")
        if q in seen:
            return Violation(ViolationCode.REGISTER_OVERLAP, n, f"qubit {q} declared twice as an output")
        seen.add(q)
    return max_qubit + 1, max_bit + 1, n


# -- the temporary logical-AND ----------------------------------------------------------

#: x AND y into a fresh ancilla: exactly |x,y,0> -> |x,y,x&y>.  T-count 4:
#: the injected |T> state plus three T-type gates.  One AND_COMPUTE span, so
#: depth accounting treats it as one event.
AND_COMPUTE = Template("and_compute", "x y anc", """
    alloct anc
    cx x anc
    cx y anc
    cx anc x
    cx anc y
    tdg x
    tdg y
    t anc
    cx anc x
    cx anc y
    h anc
    s anc
""")

#: Erasure of an ancilla holding x AND y: measure it in X, fix the phase up
#: with a CZ conditioned on the outcome, release it.  T-count 0.
AND_UNCOMPUTE = Template("and_uncompute", "x y anc", """
    mx anc
    ? cz x y
    release anc
""")

AND_COMPUTE.inverse, AND_UNCOMPUTE.inverse = AND_UNCOMPUTE, AND_COMPUTE

#: Each gadget template by its tag, the marker that brackets it in the text format.
TEMPLATES: dict[str, Template] = {t.tag: t for t in (AND_COMPUTE, AND_UNCOMPUTE)}
#: What the accept test reads of each template a record may place:
#: ``(n_wires, live_in, born, dies, measures, size - 1)``.
_RECORD_PLANS = {t: (t.n_wires, t.live_in, t.born, t.dies, t.measures, t.size - 1) for t in TEMPLATES.values()}


def _past_limit(q: int, index: int) -> CircuitError:
    """The builder's refusal of qubit id `q` past ``MAX_INDEX``, at instruction `index`."""
    return CircuitError(Violation(ViolationCode.BAD_ARITY, index, f"qubit index {q} exceeds the limit {MAX_INDEX}"))


class CircuitBuilder:
    """Single-owner builder; the built Circuit is immutable and freely shared.

    Qubit ids are handed out in declaration/allocation order, so ancilla
    lifetimes stay first-class for the cost model.  The id counter moves only
    where ids are handed out or adopted, never at a gate: the constructor derives widths.
    """

    def __init__(self) -> None:
        self._body: list[Step] = []
        self._inputs: list[Register] = []
        self._outputs: list[Register] = []
        self._next_qubit = 0
        self._next_bit = 0

    # -- registers ----------------------------------------------------------

    def register(self, name: str, size: int) -> tuple[int, ...]:
        """Declare an input register of `size` fresh qubits, live from the start.

        A register that would hold an id past ``MAX_INDEX`` raises
        :class:`CircuitError` naming the first such id, before it is made.
        """
        if self._next_qubit + size - 1 > MAX_INDEX:
            raise _past_limit(max(self._next_qubit, MAX_INDEX + 1), 0)
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
        self._body.append(_new_record(Instruction, (op, qubits, angle, result, cond)))

    def fresh_qubit(self, q: int | None = None) -> int:
        """`q`, or the next unused id when None; either way it is adopted.

        An id past ``MAX_INDEX`` raises :class:`CircuitError` at the index of
        the instruction that would allocate it, so an over-wide circuit is
        refused before the rest of it is built.
        """
        if q is None:
            q = self._next_qubit
        if q > MAX_INDEX:
            index = sum(step.template.size if step.__class__ is Gadget else 1 for step in self._body)
            raise _past_limit(q, index)
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
        """Append one :class:`Gadget` record of `template` on qubit ids `wires`.

        A measuring template writes a fresh classical bit.
        """
        top = max(wires) + 1
        if top > self._next_qubit:
            self._next_qubit = top
        bit = None
        if template.measures:
            bit = self._next_bit
            self._next_bit += 1
        self._body.append(Gadget(template, wires, bit))

    def append(self, step: Step) -> None:
        """Append a prebuilt instruction or record, adopting any ids it references."""
        if step.__class__ is Gadget:
            qubits, bits = step.wires, (step.bit,)
        else:
            qubits, bits = step.qubits, (step.result, step.cond)
        if qubits:
            self._next_qubit = max(self._next_qubit, max(qubits) + 1)
        for bit in bits:
            if bit is not None:
                self._next_bit = max(self._next_bit, bit + 1)
        self._body.append(step)

    # -- fragments ---------------------------------------------------------------

    def mark(self) -> int:
        """Checkpoint for :meth:`fragment_since`."""
        return len(self._body)

    def fragment_since(self, mark: int) -> tuple[Step, ...]:
        """The steps appended since `mark`."""
        return tuple(self._body[mark:])

    # -- finish ----------------------------------------------------------------

    def build(self) -> Circuit:
        return Circuit(tuple(self._body), inputs=tuple(self._inputs), outputs=tuple(self._outputs))
