"""Toffoli-pair replacement and Toffoli lowering passes.

A Toffoli that computes onto a fresh |0> ancilla and is later exactly undone
by an identical Toffoli can be replaced by a temporary logical-AND, saving 4
T gates per pair versus the best paired lowering.  The match conditions here
are deliberately conservative (sound, incomplete): the semantic requirement
is that intermediate operations not be sensitive to the entangled ancilla,
and the syntactic conditions below imply it. A missed match only costs
optimality, never correctness.  The conditions are checked in one forward
walk that carries each fresh ancilla's candidate pair from one reference to
the next (see :func:`find_pairs`).  Replacement takes one round: it adds no
Toffoli, so it cannot unblock a pair (see :func:`replace_pairs`).

Every pass walks the circuit body, one step per instruction or gadget
record, and reads what a record does to its wires from its template; none
expands a record into its instructions.  Both passes splice rather than
rebuild.  The output is the input's body cut at each rewritten instruction:
the runs between them are copied as slices, and each rewritten instruction
gets an instance of a fixed :class:`~tclean.ir.Template`.  The AND
templates (``ir.AND_COMPUTE``, ``ir.AND_UNCOMPUTE``) are the records the
builder emits; the two Toffoli lowerings are templates here, placed as
plain instructions.  The result is an ordinary, validated
:class:`~tclean.ir.Circuit`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ir import AND_COMPUTE, AND_UNCOMPUTE, Circuit, Gadget, Op, Step, Template


@dataclass(frozen=True)
class PairMatch:
    """A compute/uncompute Toffoli pair eligible for AND replacement.

    Every index is a position in ``circuit.body``, where a gadget record is
    one step; it is the instruction index too in a body with no record.
    """

    first_index: int
    second_index: int
    controls: tuple[int, int]
    target: int
    alloc_index: int
    release_index: int


def find_pairs(circuit: Circuit) -> list[PairMatch]:
    """Non-overlapping Toffoli pairs, matched greedily earliest-first.

    A pair qualifies when (1) the target was alloc'd |0> and untouched before
    the first Toffoli, (2) between the pair nothing writes a control or the
    target and the target appears only as a control of other gates, and
    (3) the next reference to the target after the second Toffoli releases it.

    Matching is one forward walk over the body.  An ``alloc0`` opens its
    qubit's stage: the pair it may still be the target of, as
    ``(alloc_index,)``, then ``(alloc_index, first_index)`` once a CCX
    targets it and ``(alloc_index, first_index, second_index)`` once the
    matching CCX does.  Each later reference to the qubit advances its stage
    by the rules or ends it, and a release that ends the last stage is a
    match; matches are found at their releases, so they are sorted by first
    index at the end.  A second CCX never opens a pair, since the reference
    before it is no ``alloc0``.  Every qubit carries only the index of its
    last write, by the one write rule below (``alloc0`` and ``release``
    included), so "a control is written between the pair" is one comparison
    at the second.

    A record is one step, and what it does to each wire comes from its
    template, as its instructions would meet the rules one by one.  A
    gadget template holds no CCX and no ``alloc0``, and no wire of it is
    first named by a ``release``.  So a record keeps a stage only between
    the pair and only on a wire it only reads (``Template.reads``), and it
    writes ``Template.writes``.
    """
    body = circuit.body
    ccx, alloc0, release = Op.CCX, Op.ALLOC0, Op.RELEASE  # an Op member read costs ~100 ns
    gadget = Gadget
    stages: dict[int, tuple[int, ...]] = {}
    last_write: dict[int, int] = {}
    matches: list[PairMatch] = []
    for i, step in enumerate(body):
        if step.__class__ is gadget:
            template, wires, _ = step
            for q in wires:
                if q in stages:
                    stage = stages.pop(q)
                    if len(stage) == 2 and q in template.reads(wires):
                        stages[q] = stage
            for q in template.writes(wires):
                last_write[q] = i
            continue
        op, qubits, _, _, _ = step
        for q in qubits:
            if q not in stages:
                continue
            stage = stages.pop(q)
            if op is ccx and q == qubits[2]:
                if len(stage) == 1:
                    stages[q] = (stage[0], i)
                elif len(stage) == 2:
                    first = stage[1]
                    c1, c2, _ = body[first].qubits
                    if ({c1, c2} == {qubits[0], qubits[1]}
                            and last_write.get(c1, -1) < first and last_write.get(c2, -1) < first):
                        stages[q] = (*stage, i)
            elif len(stage) == 2 and q in qubits[:op.controls]:
                stages[q] = stage
            elif len(stage) == 3 and op is release:
                alloc_index, first, second = stage
                matches.append(PairMatch(first, second, body[first].qubits[:2], q, alloc_index, i))
        if op is alloc0:
            stages[qubits[0]] = (i,)
        if not op.diagonal:  # a gate may change every qubit it does not only read
            for q in qubits[op.controls:]:
                last_write[q] = i
    matches.sort(key=lambda m: m.first_index)
    return matches


#: An edit: the template placed at an index and the qubit ids of its wires,
#: or None to delete the instruction there.
Edit = tuple[Template, tuple[int, ...]] | None


def _splice(circuit: Circuit, edits: dict[int, Edit]) -> Circuit:
    """The circuit with the step at each body position of `edits` replaced by its edit.

    Each position names a CCX, or the ``alloc0`` or ``release`` of a matched
    pair, so an instruction: a record holds no CCX and no ``alloc0``, and
    the matcher never reads one as a release.  Runs of steps between edited
    ones are copied as slices.  A tagged template becomes one
    :class:`~tclean.ir.Gadget` record, an untagged one its instructions, and
    a measuring one writes the next new classical bit, numbered from
    ``circuit.n_classbits`` in body order.  The constructor derives the
    output's widths.
    """
    body = circuit.body
    out: list[Step] = []
    bit = circuit.n_classbits
    last = 0
    for s in sorted(edits):
        out += body[last:s]
        last = s + 1
        edit = edits[s]
        if edit is not None:
            template, wires = edit
            if template.tag is not None:
                out.append(Gadget(template, wires, bit if template.measures else None))
            else:
                out += template.instantiate(wires, bit)
            bit += template.measures
    out += body[last:]
    return Circuit(tuple(out), inputs=circuit.inputs, outputs=circuit.outputs)


def replace_pairs(circuit: Circuit) -> Circuit:
    """Replace every matched Toffoli pair with an AND compute/erase gadget.

    Channel-equivalent to the input.  After lowering, each replaced pair
    costs 4 T instead of the matched-pair baseline's 8.  The pair's first
    Toffoli becomes a record of ``ir.AND_COMPUTE`` and its second one of
    ``ir.AND_UNCOMPUTE``, both on (controls, target); the
    target's ``alloc0`` and ``release`` are deleted, since the gadgets
    allocate and release it.  See :func:`_splice` for how the output is made.

    One round leaves no pair to match, so the pass is idempotent: a
    replacement adds no CCX, and on the wires it touches (the pair's controls
    and target) it adds only writes and uses other than as a control, since
    the AND gadget writes its controls and its ancilla.  A pair blocked
    before the round therefore stays blocked after it.
    """
    matches = find_pairs(circuit)
    if not matches:
        return circuit
    edits: dict[int, Edit] = {}
    for m in matches:
        wires = (*m.controls, m.target)
        edits[m.alloc_index] = edits[m.release_index] = None
        edits[m.first_index] = (AND_COMPUTE, wires)
        edits[m.second_index] = (AND_UNCOMPUTE, wires)
    return _splice(circuit, edits)


#: Exact Toffoli on (c1, c2, t) in Clifford+T: seven T gates.
TEXTBOOK_TOFFOLI = Template(None, "c1 c2 t", """
    h t
    cx c2 t
    tdg t
    cx c1 t
    t t
    cx c2 t
    tdg t
    cx c1 t
    t c2
    t t
    h t
    cx c1 c2
    t c1
    tdg c2
    cx c1 c2
""")


def _phase_toffoli(pos: str, neg: str) -> Template:
    return Template(None, "c1 c2 t", f"""
        h t
        {pos} t
        cx c2 t
        {neg} t
        cx c1 t
        {pos} t
        cx c2 t
        {neg} t
        cx c1 t
        h t
    """)


#: Four-T Toffoli with a diagonal phase error on the controls: CCX times a
#: controlled-S^(-1) on them.  Its dagger variant carries a controlled-S, so
#: a matched pair lowered as the two cancels its phase errors as long as
#: nothing between them writes the controls.
PHASE_TOFFOLI = _phase_toffoli("t", "tdg")
PHASE_TOFFOLI_DAGGER = _phase_toffoli("tdg", "t")


def lower_ccx(circuit: Circuit, mode: str = "textbook7") -> Circuit:
    """Expand CCX macros into Clifford+T.

    ``textbook7``: every Toffoli becomes :data:`TEXTBOOK_TOFFOLI`, 7 T
    exactly.  ``paired4``: the first Toffoli of each matched compute/uncompute
    pair becomes :data:`PHASE_TOFFOLI` and the second
    :data:`PHASE_TOFFOLI_DAGGER`, 4 T each with cancelling phase errors;
    unpaired ones fall back to textbook7.  See :func:`_splice` for how the
    output is made.
    """
    if mode not in ("textbook7", "paired4"):
        raise ValueError(f"unknown lowering mode {mode!r}")
    templates: dict[int, Template] = {}
    for m in find_pairs(circuit) if mode == "paired4" else ():
        templates[m.first_index] = PHASE_TOFFOLI
        templates[m.second_index] = PHASE_TOFFOLI_DAGGER
    ccx = Op.CCX  # an Op member read costs ~100 ns
    # A record's first field is its template, never an op.
    return _splice(circuit, {s: (templates.get(s, TEXTBOOK_TOFFOLI), step[1])
                             for s, step in enumerate(circuit.body) if step[0] is ccx})
