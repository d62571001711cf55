"""The replaying rewriter, kept as the reference for tests.

This is how ``tclean.rewrite.replace_pairs`` and ``lower_ccx`` made their
output before they spliced templates into the input's instruction tuple:
every instruction went through a fresh :class:`CircuitBuilder`, kept ones
by ``append`` and rewritten ones by one builder call per gate.  The gate
sequences are local copies of the builder calls the passes made then, not
reads of the production templates: an AND gadget's gates are made in a
scratch builder and matched against its template to make the record, so a
change to a template shows up as a failed match instead of moving the
reference with it.  Pairs come from
the production matcher, which ``pairs_reference`` checks on its own.
"""
from __future__ import annotations

from itertools import count

from tclean.ir import AND_COMPUTE, AND_UNCOMPUTE, Circuit, CircuitBuilder, Gadget, Instruction, Op, Template
from tclean.rewrite import find_pairs


def _replay(circuit: Circuit, expand) -> Circuit:
    """Rebuild a circuit, letting `expand(index, instr, builder)` rewrite instructions.

    `index` is the instruction's position in ``circuit.instructions``.
    `expand` returns True when it handled the instruction (including
    dropping it); every other step, records included, is appended as it is.
    """
    b = CircuitBuilder()
    for reg in circuit.inputs:
        b.adopt_register(reg.name, reg.qubits)
    i = 0
    for step in circuit.body:
        if isinstance(step, Gadget):
            b.append(step)
            i += len(step.template.ops)
            continue
        if not expand(i, step, b):
            b.append(step)
        i += 1
    for reg in circuit.outputs:
        b.output(reg.name, reg.qubits)
    return b.build()


def _record(template: Template, scratch: CircuitBuilder) -> Gadget:
    """The record the gates made in `scratch` spell; fails if they are no instance of `template`."""
    record = template.match(scratch.fragment_since(0))
    assert record is not None, f"the {template.tag} gates are no instance of its template"
    return record


def _and_compute(b: CircuitBuilder, x: int, y: int, anc: int) -> None:
    s = CircuitBuilder()
    s.alloct(anc)
    s.cx(x, anc)
    s.cx(y, anc)
    s.cx(anc, x)
    s.cx(anc, y)
    s.tdg(x)
    s.tdg(y)
    s.t(anc)
    s.cx(anc, x)
    s.cx(anc, y)
    s.h(anc)
    s.s(anc)
    b.append(_record(AND_COMPUTE, s))


def _and_uncompute(b: CircuitBuilder, x: int, y: int, anc: int, bit: int) -> None:
    s = CircuitBuilder()
    s.append(Instruction(Op.MX, (anc,), result=bit))
    s.cz(x, y, cond=bit)
    s.release(anc)
    b.append(_record(AND_UNCOMPUTE, s))


def reference_replace_pairs(circuit: Circuit) -> Circuit:
    matches = find_pairs(circuit)
    if not matches:
        return circuit
    drop = {m.alloc_index for m in matches} | {m.release_index for m in matches}
    first = {m.first_index: m for m in matches}
    second = {m.second_index: m for m in matches}
    bits = count(circuit.n_classbits)  # each erasure's bit, numbered past the input's

    def expand(i: int, instr: Instruction, b: CircuitBuilder) -> bool:
        if i in drop:
            return True
        if i in first:
            m = first[i]
            _and_compute(b, m.controls[0], m.controls[1], m.target)
            return True
        if i in second:
            m = second[i]
            _and_uncompute(b, m.controls[0], m.controls[1], m.target, next(bits))
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
