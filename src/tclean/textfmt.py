"""Bit-exact text serialization of circuits.

One instruction per line, lowercase, space-separated:

    #input a 0 1 2
    #output sum 3 4 5
    alloc0 6
    cx 0 3
    rz 0.78539816339744828 4
    mz 6 -> c0
    ? c0 : cz 0 3
    #begin and_compute
    ...
    #end and_compute

A line's form is its kind's row of the mnemonic table ``_ROWS``, which both
directions read: plain ``op q...``, ``rz angle q`` or ``mz|mx q -> c<k>``,
after an optional condition ``? c<k> :``.  Ids are ASCII decimal digits, at
most ``MAX_INDEX``.  Angles are printed with 17 significant digits, which
round-trips IEEE doubles exactly.  Lines starting with '#' that are not one
of the #input/#output/#begin/#end directives are comments.
"""
from __future__ import annotations

from .ir import MAX_INDEX, Circuit, GadgetSpan, GadgetTag, Instruction, Op, Register

_PLAIN, _ANGLE, _MEASURE = "plain", "angle", "measure"


def _row(op: Op) -> tuple[Op, str, str]:
    """A kind's row of the mnemonic table: the kind, its text form and its line template."""
    if op is Op.RZ:
        return op, _ANGLE, "rz %.17g %d"
    if op.measures:
        return op, _MEASURE, op.value + " %d -> c%d"
    return op, _PLAIN, " ".join([op.value] + ["%d"] * op.arity)


#: The mnemonic table, by mnemonic for the parser and by kind for the formatter.
_ROWS = {op.value: _row(op) for op in Op}
_ROW_OF = {row[0]: row for row in _ROWS.values()}
_TAGS = {tag.value: tag for tag in GadgetTag}


class TextFormatError(Exception):
    """PARSE_ERROR: malformed circuit text."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _format(instructions: tuple[Instruction, ...], lines: list[str]) -> None:
    """Append one line per instruction to `lines`."""
    for op, qubits, angle, result, cond in instructions:
        _, form, template = _ROW_OF[op]
        if form is _PLAIN:
            line = template % qubits
        elif form is _ANGLE:
            line = template % (angle, qubits[0])
        else:
            line = template % (qubits[0], result)
        lines.append(line if cond is None else "? c%d : %s" % (cond, line))


def to_text(circuit: Circuit) -> str:
    lines: list[str] = []
    for reg in circuit.inputs:
        lines.append("#input " + " ".join([reg.name] + [str(q) for q in reg.qubits]))
    for reg in circuit.outputs:
        lines.append("#output " + " ".join([reg.name] + [str(q) for q in reg.qubits]))

    instructions = circuit.instructions
    done = 0
    # The spans are flat and stored by start: the run before each span, then the span in its markers.
    for start, end, tag in circuit.spans:
        _format(instructions[done:start], lines)
        lines.append("#begin " + tag.value)
        _format(instructions[start:end], lines)
        lines.append("#end " + tag.value)
        done = end
    _format(instructions[done:], lines)
    return "\n".join(lines) + "\n"


def _parse_index(token: str, digits: str, line_no: int, kind: str, expected: str) -> int:
    """The id that `token` spells as `digits`; `kind` and `expected` word its errors."""
    if not (digits.isdecimal() and digits.isascii()):
        magnitude = digits[1:]
        if digits[:1] == "-" and magnitude.isdecimal() and magnitude.isascii() and int(magnitude):
            raise TextFormatError(line_no, f"negative {kind} {int(digits)}")
        raise TextFormatError(line_no, f"expected {expected}, got {token!r}")
    value = int(digits)
    if value > MAX_INDEX:
        raise TextFormatError(line_no, f"{kind} {value} exceeds the limit {MAX_INDEX}")
    return value


def _parse_qubits(tokens: list[str], line_no: int) -> tuple[int, ...]:
    return tuple(_parse_index(t, t, line_no, "qubit index", "qubit index") for t in tokens)


def _parse_classbit(token: str, line_no: int) -> int:
    digits = token[1:] if token[:1] == "c" else ""
    return _parse_index(token, digits, line_no, "classical bit", "classical bit like c0")


def from_text(text: str) -> Circuit:
    instructions: list[Instruction] = []
    spans: list[GadgetSpan] = []
    open_spans: list[tuple[int, GadgetTag, int]] = []
    inputs: list[Register] = []
    outputs: list[Register] = []

    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]

        if head[0] == "#":
            if head == "#input" or head == "#output":
                if len(tokens) < 2:
                    raise TextFormatError(line_no, f"{head} needs a register name")
                qubits = _parse_qubits(tokens[2:], line_no)
                (inputs if head == "#input" else outputs).append(Register(tokens[1], qubits))
            elif head == "#begin":
                if len(tokens) != 2:
                    raise TextFormatError(line_no, "#begin needs a gadget tag")
                tag = _TAGS.get(tokens[1])
                if tag is None:
                    raise TextFormatError(line_no, f"unknown gadget tag {tokens[1]!r}")
                open_spans.append((len(instructions), tag, line_no))
            elif head == "#end":
                if len(tokens) != 2:
                    raise TextFormatError(line_no, "#end needs a gadget tag")
                if not open_spans:
                    raise TextFormatError(line_no, "#end without matching #begin")
                start, tag, _ = open_spans.pop()
                if _TAGS.get(tokens[1]) is not tag:
                    raise TextFormatError(line_no, f"#end {tokens[1]} does not match #begin {tag.value}")
                spans.append(GadgetSpan(start, len(instructions), tag))
            continue  # any other '#' line is a comment

        cond: int | None = None
        if head == "?":
            if len(tokens) < 4 or tokens[2] != ":":
                raise TextFormatError(line_no, "conditioned form is '? c<k> : <gate...>'")
            cond = _parse_classbit(tokens[1], line_no)
            del tokens[:3]
            head = tokens[0]
        row = _ROWS.get(head)
        if row is None:
            raise TextFormatError(line_no, f"unknown instruction {head!r}")

        op, form, _ = row
        args = tokens[1:]
        angle: float | None = None
        result: int | None = None
        if form is _ANGLE:
            if not args:
                raise TextFormatError(line_no, "rz needs an angle")
            try:
                angle = float(args[0])
            except ValueError:
                raise TextFormatError(line_no, f"bad angle {args[0]!r}") from None
            del args[0]
        elif form is _MEASURE:
            if len(args) != 3 or args[1] != "->":
                raise TextFormatError(line_no, f"{op.value} form is '{op.value} q -> c<k>'")
            result = _parse_classbit(args[2], line_no)
            del args[1:]

        if len(args) != op.arity:
            raise TextFormatError(line_no, f"{op.value} expects {op.arity} qubits, got {len(args)}")
        # One conversion for the whole line; the per-token parse only words its error.
        digits = "".join(args)
        if digits.isdecimal() and digits.isascii():
            qubits = tuple(map(int, args))
        else:
            qubits = _parse_qubits(args, line_no)  # raises: some token is not an id
        if max(qubits) > MAX_INDEX:
            _parse_qubits(args, line_no)  # raises: names the first id past the limit
        instructions.append(Instruction(op, qubits, angle, result, cond))

    if open_spans:
        raise TextFormatError(open_spans[-1][2], f"unclosed #begin {open_spans[-1][1].value}")

    return Circuit(tuple(instructions), spans=tuple(spans), inputs=tuple(inputs), outputs=tuple(outputs))

