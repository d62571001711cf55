"""The replaying rewriter, kept as the reference for tests.

This is how ``tclean.rewrite.replace_pairs`` and ``lower_ccx`` made their
output before they spliced templates into the input's instruction tuple:
every instruction went through a fresh :class:`CircuitBuilder`, kept ones
by ``append`` and rewritten ones by one builder call per gate, and existing
spans were re-added at the builder positions their boundaries reached.  The
gate sequences are local copies of the builder calls the passes made then,
not reads of the production templates, so a change to a template shows up
as a difference instead of moving the reference with it.  Pairs come from
the production matcher, which ``pairs_reference`` checks on its own.
"""
from __future__ import annotations

from tclean.ir import Circuit, CircuitBuilder, GadgetSpan, GadgetTag, Instruction, Op
from tclean.rewrite import find_pairs


def _replay(circuit: Circuit, expand) -> Circuit:
    """Rebuild a circuit, letting `expand(index, instr, builder)` rewrite instructions.

    `expand` returns True when it handled the instruction (including dropping
    it); existing gadget spans are carried over with shifted indices.
    """
    b = CircuitBuilder()
    for reg in circuit.inputs:
        b.adopt_register(reg.name, reg.qubits)
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


def _and_compute(b: CircuitBuilder, x: int, y: int, anc: int) -> None:
    start = b.next_index
    b.alloct(anc)
    b.cx(x, anc)
    b.cx(y, anc)
    b.cx(anc, x)
    b.cx(anc, y)
    b.tdg(x)
    b.tdg(y)
    b.t(anc)
    b.cx(anc, x)
    b.cx(anc, y)
    b.h(anc)
    b.s(anc)
    b.add_span(GadgetSpan(start, b.next_index, GadgetTag.AND_COMPUTE))


def _and_uncompute(b: CircuitBuilder, x: int, y: int, anc: int) -> None:
    start = b.next_index
    bit = b.mx(anc)
    b.cz(x, y, cond=bit)
    b.release(anc)
    b.add_span(GadgetSpan(start, b.next_index, GadgetTag.AND_UNCOMPUTE))


def reference_replace_pairs(circuit: Circuit) -> Circuit:
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
            _and_compute(b, m.controls[0], m.controls[1], m.target)
            return True
        if i in second:
            m = second[i]
            _and_uncompute(b, m.controls[0], m.controls[1], m.target)
            return True
        return False

    return _replay(circuit, expand)


def _textbook_toffoli(b: CircuitBuilder, c1: int, c2: int, t: int) -> None:
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


def _phase_toffoli(b: CircuitBuilder, c1: int, c2: int, t: int, dagger: bool) -> None:
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


def reference_lower_ccx(circuit: Circuit, mode: str = "textbook7") -> Circuit:
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
            _phase_toffoli(b, c1, c2, t, dagger=False)
        elif i in second:
            _phase_toffoli(b, c1, c2, t, dagger=True)
        else:
            _textbook_toffoli(b, c1, c2, t)
        return True

    return _replay(circuit, expand)
