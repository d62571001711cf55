"""The circuit representation used before gadget records, kept as the reference for tests.

A flat circuit is a tuple of instructions with the gadget spans beside it,
as half-open ``(start, end, tag)`` instruction ranges, where a tag is a key
of ``tclean.ir.TEMPLATES``.  The reference codec, ``validate`` and DAG
``count`` read and make flat circuits.  :func:`flatten`
writes a :class:`~tclean.ir.Circuit` that way, and :func:`from_flat` makes
the circuit a flat one stands for, refusing a span that is not one exact
instance of its tag's template, as the text parser does.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from tclean.ir import TEMPLATES, Circuit, CircuitError, Gadget, Instruction, Register, Violation, ViolationCode


class GadgetSpan(NamedTuple):
    """Half-open instruction range [start, end) tagged as one gadget."""

    start: int
    end: int
    tag: str


@dataclass(frozen=True)
class FlatCircuit:
    """Instructions and spans, with no check made; widths are derived from the ids named.

    ``lines`` holds each span's ``#begin`` and ``#end`` line numbers, in the
    order of ``spans``, when the flat circuit was read from text, and is
    empty otherwise.  It is not compared: the same circuit may be written
    with its markers on other lines.
    """

    instructions: tuple[Instruction, ...]
    spans: tuple[GadgetSpan, ...] = ()
    inputs: tuple[Register, ...] = ()
    outputs: tuple[Register, ...] = ()
    lines: tuple[tuple[int, int], ...] = field(default=(), compare=False)

    @property
    def n_qubits(self) -> int:
        ids = [q for reg in self.inputs for q in reg.qubits] + [q for i in self.instructions for q in i.qubits]
        return max(ids, default=-1) + 1

    @property
    def n_classbits(self) -> int:
        return max((i.result for i in self.instructions if i.result is not None), default=-1) + 1

    def input_qubits(self) -> tuple[int, ...]:
        return tuple(q for reg in self.inputs for q in reg.qubits)

    def output_qubits(self) -> tuple[int, ...]:
        if self.outputs:
            return tuple(q for reg in self.outputs for q in reg.qubits)
        return self.input_qubits()


def flatten(circuit: Circuit) -> FlatCircuit:
    """`circuit` as instructions and spans: each record becomes its instructions and one span."""
    instructions: list[Instruction] = []
    spans: list[GadgetSpan] = []
    for step in circuit.body:
        if isinstance(step, Gadget):
            start = len(instructions)
            instructions += step.template.instantiate(step.wires, step.bit)
            spans.append(GadgetSpan(start, len(instructions), step.template.tag))
        else:
            instructions.append(step)
    return FlatCircuit(tuple(instructions), tuple(spans), circuit.inputs, circuit.outputs)


def malformed_spans(flat: FlatCircuit) -> list[int]:
    """The indices of the spans a record cannot stand for: empty, holding another span, or no instance.

    A span read from text holds another when the other's ``#begin`` line
    lies between its own markers.  Without lines, it holds every other span
    whose range lies within its own, which cannot tell an empty span that
    closes a block from one just after it.
    """
    bad = []
    for k, span in enumerate(flat.spans):
        if flat.lines:
            begin, end = flat.lines[k]
            inner = any(begin < other < end for other, _ in flat.lines)
        else:
            inner = any(j != k and span.start <= other.start and other.end <= span.end
                        for j, other in enumerate(flat.spans))
        if inner or TEMPLATES[span.tag].match(flat.instructions[span.start:span.end]) is None:
            bad.append(k)
    return bad


def from_flat(flat: FlatCircuit) -> Circuit:
    """The circuit whose records the spans of `flat` spell; CircuitError if a span spells none.

    Spans must share no instruction.  The first malformed span by start is
    the one refused, with ``MALFORMED_GADGET_SPAN`` at its start.
    """
    spans = sorted(flat.spans, key=lambda s: (s.start, -s.end))
    bad = ([flat.spans[k] for k in malformed_spans(flat)]
           + [span for span, before in zip(spans[1:], spans) if span.start < before.end])
    if bad:
        first = min(bad, key=lambda s: (s.start, -s.end))
        raise CircuitError(Violation(ViolationCode.MALFORMED_GADGET_SPAN, first.start,
                                     f"span [{first.start},{first.end}) is no instance of its template"))
    body: list = []
    done = 0
    for span in spans:
        body += flat.instructions[done:span.start]
        body.append(TEMPLATES[span.tag].match(flat.instructions[span.start:span.end]))
        done = span.end
    body += flat.instructions[done:]
    return Circuit(tuple(body), inputs=flat.inputs, outputs=flat.outputs)


def edited(circuit: Circuit, index: int, duplicate: bool) -> FlatCircuit:
    """`circuit` flattened, with instruction `index` dropped or duplicated and its spans shifted to match.

    A span the edit touches is dropped: a record can only hold its
    template's exact instructions, so the edit leaves its instructions bare.
    """
    flat = flatten(circuit)
    instrs = list(flat.instructions)
    shift = 1 if duplicate else -1
    if duplicate:
        instrs.insert(index, instrs[index])
    else:
        del instrs[index]

    def moved(pos: int) -> int:
        return pos + shift if pos > index else pos

    spans = [span._replace(start=moved(span.start), end=moved(span.end)) for span in flat.spans
             if not span.start <= index < span.end]
    return FlatCircuit(tuple(instrs), tuple(spans), flat.inputs, flat.outputs)


def flat_violation(flat: FlatCircuit) -> Violation | None:
    """The violation constructing the circuit `flat` stands for reports, or None."""
    try:
        from_flat(flat)
    except CircuitError as err:
        return err.violation
    return None
