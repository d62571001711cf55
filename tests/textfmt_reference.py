"""The text codec ``tclean.textfmt`` used before its mnemonic table, kept as the reference for tests.

This parser branches on each line's op and converts every qubit token on
its own with ``int()``; this formatter checks the span boundaries at every
instruction index and joins each line from a generator.  It is slower, but
each rule reads directly as a branch.  It reads and makes the flat
representation of ``spans_reference``: its parser returns instructions and
spans unchecked, as the old parser did before its constructor ran, with the
lines of each span's markers beside them.  The
differential tests require the production codec to format the same text,
and to parse the same circuit or raise the same error (type, line number
and message), on every input
except the token cases the production parser now refuses: ids that are not
ASCII decimal digits (``1_0``, ``+9``, non-ASCII digits, ``-0``) or that
exceed ``tclean.ir.MAX_INDEX``.  A token of more than 4,300 digits, which
``int()`` will not read, differs too: here it is no id at all, and the
production parser names its value past the limit (or as negative), or
reads it if all but its last few digits are leading zeros.
"""
from __future__ import annotations

from tclean.ir import TEMPLATES, Circuit, Instruction, Op, Register
from tclean.textfmt import TextFormatError

from spans_reference import FlatCircuit, GadgetSpan, flatten

_MNEMONIC = {op.value: op for op in Op}


def _format_instruction(instr: Instruction) -> str:
    parts: list[str] = []
    if instr.cond is not None:
        parts.extend(["?", f"c{instr.cond}", ":"])
    parts.append(instr.op.value)
    if instr.op is Op.RZ:
        parts.append("%.17g" % instr.angle)
    parts.extend(str(q) for q in instr.qubits)
    if instr.result is not None:
        parts.extend(["->", f"c{instr.result}"])
    return " ".join(parts)


def reference_to_text(circuit: Circuit | FlatCircuit) -> str:
    if isinstance(circuit, Circuit):
        circuit = flatten(circuit)
    lines: list[str] = []
    for reg in circuit.inputs:
        lines.append("#input " + " ".join([reg.name] + [str(q) for q in reg.qubits]))
    for reg in circuit.outputs:
        lines.append("#output " + " ".join([reg.name] + [str(q) for q in reg.qubits]))

    begins: dict[int, list[GadgetSpan]] = {}
    ends: dict[int, list[GadgetSpan]] = {}
    for span in circuit.spans:
        begins.setdefault(span.start, []).append(span)
        ends.setdefault(span.end, []).append(span)
    for i in range(len(circuit.instructions) + 1):
        for span in sorted(ends.get(i, []), key=lambda s: s.start, reverse=True):
            lines.append(f"#end {span.tag}")
        for span in sorted(begins.get(i, []), key=lambda s: s.end, reverse=True):
            lines.append(f"#begin {span.tag}")
        if i < len(circuit.instructions):
            lines.append(_format_instruction(circuit.instructions[i]))
    return "\n".join(lines) + "\n"


def _parse_qubit(token: str, line_no: int) -> int:
    try:
        q = int(token)
    except ValueError:
        raise TextFormatError(line_no, f"expected qubit index, got {token!r}") from None
    if q < 0:
        raise TextFormatError(line_no, f"negative qubit index {q}")
    return q


def _parse_classbit(token: str, line_no: int) -> int:
    if not token.startswith("c"):
        raise TextFormatError(line_no, f"expected classical bit like c0, got {token!r}")
    try:
        bit = int(token[1:])
    except ValueError:
        raise TextFormatError(line_no, f"expected classical bit like c0, got {token!r}") from None
    if bit < 0:
        raise TextFormatError(line_no, f"negative classical bit {bit}")
    return bit


def reference_from_text(text: str) -> FlatCircuit:
    """The instructions and spans `text` spells, unchecked; TextFormatError on malformed text."""
    instructions: list[Instruction] = []
    spans: list[GadgetSpan] = []
    span_lines: list[tuple[int, int]] = []  # each span's #begin and #end line
    open_spans: list[tuple[int, str, int]] = []
    inputs: list[Register] = []
    outputs: list[Register] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "#input" or head == "#output":
            if len(tokens) < 2:
                raise TextFormatError(line_no, f"{head} needs a register name")
            qubits = tuple(_parse_qubit(t, line_no) for t in tokens[2:])
            (inputs if head == "#input" else outputs).append(Register(tokens[1], qubits))
            continue
        if head == "#begin":
            if len(tokens) != 2:
                raise TextFormatError(line_no, "#begin needs a gadget tag")
            tag = tokens[1]
            if tag not in TEMPLATES:
                raise TextFormatError(line_no, f"unknown gadget tag {tag!r}")
            open_spans.append((len(instructions), tag, line_no))
            continue
        if head == "#end":
            if len(tokens) != 2:
                raise TextFormatError(line_no, "#end needs a gadget tag")
            if not open_spans:
                raise TextFormatError(line_no, "#end without matching #begin")
            start, tag, begin_line = open_spans.pop()
            if tag != tokens[1]:
                raise TextFormatError(line_no, f"#end {tokens[1]} does not match #begin {tag}")
            spans.append(GadgetSpan(start, len(instructions), tag))
            span_lines.append((begin_line, line_no))
            continue
        if head.startswith("#"):
            continue  # comment

        cond: int | None = None
        if head == "?":
            if len(tokens) < 4 or tokens[2] != ":":
                raise TextFormatError(line_no, "conditioned form is '? c<k> : <gate...>'")
            cond = _parse_classbit(tokens[1], line_no)
            tokens = tokens[3:]
            head = tokens[0]

        op = _MNEMONIC.get(head)
        if op is None:
            raise TextFormatError(line_no, f"unknown instruction {head!r}")

        angle: float | None = None
        rest = tokens[1:]
        if op is Op.RZ:
            if not rest:
                raise TextFormatError(line_no, "rz needs an angle")
            try:
                angle = float(rest[0])
            except ValueError:
                raise TextFormatError(line_no, f"bad angle {rest[0]!r}") from None
            rest = rest[1:]

        result: int | None = None
        if op.measures:
            if len(rest) != 3 or rest[1] != "->":
                raise TextFormatError(line_no, f"{op.value} form is '{op.value} q -> c<k>'")
            result = _parse_classbit(rest[2], line_no)
            rest = rest[:1]

        if len(rest) != op.arity:
            raise TextFormatError(line_no, f"{op.value} expects {op.arity} qubits, got {len(rest)}")
        qubits = tuple(_parse_qubit(t, line_no) for t in rest)
        instructions.append(Instruction(op, qubits, angle=angle, result=result, cond=cond))

    if open_spans:
        raise TextFormatError(open_spans[-1][2], f"unclosed #begin {open_spans[-1][1]}")

    return FlatCircuit(instructions=tuple(instructions), spans=tuple(spans), inputs=tuple(inputs),
                       outputs=tuple(outputs), lines=tuple(span_lines))
