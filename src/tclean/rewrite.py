"""Toffoli-pair replacement and Toffoli lowering passes.

A Toffoli that computes onto a fresh |0> ancilla and is later exactly undone
by an identical Toffoli can be replaced by a temporary logical-AND, saving 4
T gates per pair versus the best paired lowering.  The match conditions here
are deliberately conservative (sound, incomplete): the semantic requirement
is that intermediate operations not be sensitive to the entangled ancilla,
and the syntactic conditions below imply it. A missed match only costs
optimality, never correctness.  Replacement takes one round: it adds no
Toffoli, so it cannot unblock a pair (see :func:`replace_pairs`).

Both passes splice rather than rebuild.  The output is the input's
instruction tuple cut at each rewritten index: the runs between those
indices are copied as slices, and each rewritten index gets an instance of
a fixed :class:`~tclean.ir.Template`.  The AND templates
(``gadgets.AND_COMPUTE``, ``gadgets.AND_UNCOMPUTE``) are the ones the
builder emits; the two Toffoli lowerings are templates here.  Existing
spans shift by the length change before them, and the result is an
ordinary, validated :class:`~tclean.ir.Circuit`.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .gadgets import AND_COMPUTE, AND_UNCOMPUTE
from .ir import Circuit, GadgetSpan, Instruction, Op, Template


@dataclass(frozen=True)
class PairMatch:
    """A compute/uncompute Toffoli pair eligible for AND replacement."""

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

    Matching takes time linear in the instruction count: one pass builds the
    use list of every CCX target and the write list of every CCX control,
    the only lists the conditions read, and every condition is checked
    against those lists instead of by rescanning the circuit.
    """
    instrs = circuit.instructions
    ccx, alloc0, release = Op.CCX, Op.ALLOC0, Op.RELEASE  # an Op member read costs ~100 ns
    ccx_at = [i for i, instr in enumerate(instrs) if instr.op is ccx]
    if not ccx_at:
        return []
    uses = {instrs[i].qubits[2]: [] for i in ccx_at}
    writes = {c: [] for i in ccx_at for c in instrs[i].qubits[:2]}
    # position of each CCX in its target's use list
    target_pos: dict[int, int] = {}
    for i, instr in enumerate(instrs):
        qubits = instr.qubits
        if instr.op is ccx:
            target_pos[i] = len(uses[qubits[2]])
        for q in qubits:
            if q in uses:
                uses[q].append(i)
        op = instr.op
        if not op.diagonal:  # a gate may change every qubit it does not only read
            for q in qubits[op.controls:]:
                if q in writes:
                    writes[q].append(i)

    seconds: set[int] = set()  # a CCX matched as a second cannot start a pair
    matches: list[PairMatch] = []
    for i, pos in target_pos.items():
        if i in seconds:
            continue
        c1, c2, target = instrs[i].qubits
        t_uses = uses[target]
        if pos == 0 or instrs[t_uses[pos - 1]].op is not alloc0:
            continue

        # Every reference to the target up to the matching second CCX must
        # read it as a control, so nothing writes it; the first reference
        # that does not blocks the pair.
        # Each walk stops at the next CCX targeting the qubit, so walks cover
        # disjoint stretches of a use list, and no earlier match can have
        # taken that CCX as its second.
        second_pos = None
        for k in range(pos + 1, len(t_uses)):
            j = t_uses[k]
            cur = instrs[j]
            if (cur.op is ccx and cur.qubits[2] == target
                    and set(cur.qubits[:2]) == {c1, c2}):
                second_pos = k
                break
            if target not in cur.qubits[:cur.op.controls]:
                break
        if second_pos is None or second_pos + 1 == len(t_uses):
            continue
        j = t_uses[second_pos]
        if any(_written_between(writes[c], i, j) for c in (c1, c2)):
            continue
        release_index = t_uses[second_pos + 1]
        if instrs[release_index].op is not release:
            continue

        matches.append(PairMatch(i, j, (c1, c2), target, t_uses[pos - 1], release_index))
        seconds.add(j)
    return matches


def _written_between(write_list: list[int], lo: int, hi: int) -> bool:
    """Whether a sorted write list holds an index strictly between lo and hi."""
    k = bisect_right(write_list, lo)
    return k < len(write_list) and write_list[k] < hi


#: An edit: the template placed at an index and the qubit ids of its wires,
#: or None to delete the instruction there.
Edit = tuple[Template, tuple[int, ...]] | None


def _splice(circuit: Circuit, edits: dict[int, Edit]) -> Circuit:
    """The circuit with the instruction at each index of `edits` replaced by its edit.

    Runs between edited indices are copied as slices.  A tagged template's
    instance becomes a gadget span, and a measuring one writes the next new
    classical bit, numbered from ``circuit.n_classbits`` in instruction
    order.  An existing span moves by the length change of the edits before
    each of its ends.  The constructor orders the spans, refuses one that
    the edits emptied or that shares an instruction with a new span, and
    derives the output's widths.
    """
    instrs = circuit.instructions
    out: list[Instruction] = []
    spans: list[GadgetSpan] = []
    at = sorted(edits)
    shift = [0]  # shift[k]: how far the first k edits move the instructions after them
    bit = circuit.n_classbits
    last = 0
    for i in at:
        out += instrs[last:i]
        last = i + 1
        edit = edits[i]
        if edit is not None:
            template, wires = edit
            start = len(out)
            out += template.instantiate(wires, bit)
            bit += template.measures
            if template.tag is not None:
                spans.append(GadgetSpan(start, len(out), template.tag))
        shift.append(len(out) - last)
    out += instrs[last:]
    for span in circuit.spans:
        start, end = span.start, span.end
        spans.append(GadgetSpan(start + shift[bisect_left(at, start)],
                                end + shift[bisect_left(at, end)], span.tag))
    return Circuit(tuple(out), spans=tuple(spans), inputs=circuit.inputs, outputs=circuit.outputs)


def replace_pairs(circuit: Circuit) -> Circuit:
    """Replace every matched Toffoli pair with an AND compute/erase gadget.

    Channel-equivalent to the input.  After lowering, each replaced pair
    costs 4 T instead of the matched-pair baseline's 8.  The pair's first
    Toffoli becomes an instance of ``gadgets.AND_COMPUTE`` and its second
    one of ``gadgets.AND_UNCOMPUTE``, both on (controls, target); the
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
    return _splice(circuit, {i: (templates.get(i, TEXTBOOK_TOFFOLI), instr.qubits)
                             for i, instr in enumerate(circuit.instructions) if instr.op is ccx})
