"""The forward-scan Toffoli-pair matcher, kept as the reference for tests.

This is the matcher ``tclean.rewrite.find_pairs`` used before it moved to
per-qubit use lists.  It rescans the circuit from every CCX, so it takes
quadratic time, but each rule reads directly as a scan.  The differential
tests require the production matcher to return exactly its match list.
Its write rule (the body ``Instruction.writes`` had then) and its
control-read rule are local copies rather than calls into ``tclean``, so a
change to the production rules shows up as a difference instead of moving
the reference with it.
"""
from __future__ import annotations

from tclean.ir import Circuit, Instruction, Op
from tclean.rewrite import PairMatch


#: Kinds that never change computational-basis values (phase-only).
DIAGONAL_GATES = frozenset({Op.Z, Op.S, Op.SDG, Op.T, Op.TDG, Op.RZ, Op.CZ})


def reference_writes(instr: Instruction) -> frozenset[int]:
    """Qubits whose computational-basis value this instruction may change."""
    if instr.op in DIAGONAL_GATES:
        return frozenset()
    if instr.op is Op.CX:
        return frozenset({instr.qubits[1]})
    if instr.op is Op.CCX:
        return frozenset({instr.qubits[2]})
    return frozenset(instr.qubits)


def reference_reads_as_control(instr: Instruction, q: int) -> bool:
    if instr.op is Op.CX:
        return instr.qubits[0] == q
    if instr.op is Op.CZ:
        return q in instr.qubits
    if instr.op is Op.CCX:
        return q in instr.qubits[:2]
    return False


def reference_find_pairs(circuit: Circuit) -> list[PairMatch]:
    """Non-overlapping Toffoli pairs, matched greedily earliest-first.

    A pair qualifies when (1) the target was alloc'd |0> and untouched before
    the first Toffoli, (2) between the pair nothing writes a control or the
    target and the target appears only as a control of other gates, and
    (3) the next reference to the target after the second Toffoli releases it.
    """
    instrs = circuit.instructions
    consumed: set[int] = set()
    matches: list[PairMatch] = []
    for i, instr in enumerate(instrs):
        if instr.op is not Op.CCX or i in consumed:
            continue
        c1, c2, target = instr.qubits

        alloc_index = None
        for j in range(i - 1, -1, -1):
            if target in instrs[j].qubits:
                if instrs[j].op is Op.ALLOC0:
                    alloc_index = j
                break
        if alloc_index is None:
            continue

        second = None
        blocked = False
        for j in range(i + 1, len(instrs)):
            cur = instrs[j]
            if (cur.op is Op.CCX and j not in consumed and cur.qubits[2] == target
                    and set(cur.qubits[:2]) == {c1, c2}):
                second = j
                break
            if reference_writes(cur) & {c1, c2, target}:
                blocked = True
                break
            if target in cur.qubits and not reference_reads_as_control(cur, target):
                blocked = True
                break
        if blocked or second is None:
            continue

        release_index = None
        for j in range(second + 1, len(instrs)):
            if target in instrs[j].qubits:
                if instrs[j].op is Op.RELEASE:
                    release_index = j
                break
        if release_index is None:
            continue

        matches.append(PairMatch(i, second, (c1, c2), target, alloc_index, release_index))
        consumed.update((i, second, alloc_index, release_index))
    return matches
