"""Toffoli-pair replacement and Toffoli lowering passes.

A Toffoli that computes onto a fresh |0> ancilla and is later exactly undone
by an identical Toffoli can be replaced by a temporary logical-AND, saving 4
T gates per pair versus the best paired lowering.  The match conditions here
are deliberately conservative (sound, incomplete): the semantic requirement
is that intermediate operations not be sensitive to the entangled ancilla,
and the syntactic conditions below imply it. A missed match only costs
optimality, never correctness.  Replacement takes one round: it adds no
Toffoli, so it cannot unblock a pair (see :func:`replace_pairs`).
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .gadgets import and_compute, and_uncompute
from .ir import (
    Circuit,
    CircuitBuilder,
    GadgetSpan,
    Instruction,
    Op,
)


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
        for q in instr.writes():
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


def _replay(circuit: Circuit, expand) -> Circuit:
    """Rebuild a circuit, letting `expand(index, instr, builder)` rewrite instructions.

    `expand` returns True when it handled the instruction (including dropping
    it); existing gadget spans are carried over with shifted indices.
    """
    b = CircuitBuilder()
    for reg in circuit.inputs:
        b.adopt_register(reg.name, reg.qubits)
    b.reserve_qubits(circuit.n_qubits)
    b.reserve_classbits(circuit.n_classbits)
    bounds = {i for span in circuit.spans for i in (span.start, span.end)}
    newpos: dict[int, int] = {}
    for i, instr in enumerate(circuit.instructions):
        if i in bounds:
            newpos[i] = b.next_index
        if not expand(i, instr, b):
            b.append(instr)
    newpos[len(circuit.instructions)] = b.next_index
    for span in circuit.spans:
        b.add_span(GadgetSpan(newpos[span.start], newpos[span.end], span.tag))
    for reg in circuit.outputs:
        b.output(reg.name, reg.qubits)
    return b.build()


def replace_pairs(circuit: Circuit) -> Circuit:
    """Replace every matched Toffoli pair with an AND compute/erase gadget.

    Channel-equivalent to the input.  After lowering, each replaced pair
    costs 4 T instead of the matched-pair baseline's 8.

    One round leaves no pair to match, so the pass is idempotent: a
    replacement adds no CCX, and on the wires it touches (the pair's controls
    and target) it adds only writes and uses other than as a control, since
    the AND gadget writes its controls and its ancilla.  A pair blocked
    before the round therefore stays blocked after it.
    """
    matches = find_pairs(circuit)
    if not matches:
        return circuit
    drop = {m.alloc_index for m in matches} | {m.release_index for m in matches}
    first = {m.first_index: m for m in matches}
    second = {m.second_index: m for m in matches}

    def expand(i: int, instr: Instruction, b: CircuitBuilder) -> bool:
        if i in drop:
            return True
        if i in first:
            m = first[i]
            and_compute(b, m.controls[0], m.controls[1], anc=m.target)
            return True
        if i in second:
            m = second[i]
            and_uncompute(b, m.controls[0], m.controls[1], m.target)
            return True
        return False

    return _replay(circuit, expand)


def _emit_textbook_toffoli(b: CircuitBuilder, c1: int, c2: int, t: int) -> None:
    """Exact Toffoli in Clifford+T: seven T gates."""
    b.h(t)
    b.cx(c2, t)
    b.tdg(t)
    b.cx(c1, t)
    b.t(t)
    b.cx(c2, t)
    b.tdg(t)
    b.cx(c1, t)
    b.t(c2)
    b.t(t)
    b.h(t)
    b.cx(c1, c2)
    b.t(c1)
    b.tdg(c2)
    b.cx(c1, c2)


def _emit_phase_toffoli(b: CircuitBuilder, c1: int, c2: int, t: int, dagger: bool) -> None:
    """Four-T Toffoli with a diagonal phase error on the controls.

    Equals CCX times a controlled-S^(-1) (or controlled-S for the dagger
    variant) on the controls, so a pair with matched variants cancels its
    phase errors as long as nothing between them writes the controls.
    """
    pos, neg = (b.t, b.tdg) if not dagger else (b.tdg, b.t)
    b.h(t)
    pos(t)
    b.cx(c2, t)
    neg(t)
    b.cx(c1, t)
    pos(t)
    b.cx(c2, t)
    neg(t)
    b.cx(c1, t)
    b.h(t)


def lower_ccx(circuit: Circuit, mode: str = "textbook7") -> Circuit:
    """Expand CCX macros into Clifford+T.

    ``textbook7``: every Toffoli costs 7 T, exactly.
    ``paired4``: Toffolis in matched compute/uncompute pairs cost 4 T each
    with cancelling phase errors; unpaired ones fall back to textbook7.
    """
    if mode not in ("textbook7", "paired4"):
        raise ValueError(f"unknown lowering mode {mode!r}")
    pairs = find_pairs(circuit) if mode == "paired4" else []
    first = {m.first_index for m in pairs}
    second = {m.second_index for m in pairs}

    def expand(i: int, instr: Instruction, b: CircuitBuilder) -> bool:
        if instr.op is not Op.CCX:
            return False
        c1, c2, t = instr.qubits
        if i in first:
            _emit_phase_toffoli(b, c1, c2, t, dagger=False)
        elif i in second:
            _emit_phase_toffoli(b, c1, c2, t, dagger=True)
        else:
            _emit_textbook_toffoli(b, c1, c2, t)
        return True

    return _replay(circuit, expand)
