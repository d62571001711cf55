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

from .ir import MAX_INDEX, Circuit, GadgetSpan, GadgetTag, Instruction, Op, Register, _new_record

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
#: Each plain kind by mnemonic, with the token count of its unconditioned line.
_GATES = {mnemonic: (op, op.arity + 1) for mnemonic, (op, form, _) in _ROWS.items() if form is _PLAIN}


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


_MAX_DIGITS = len(str(MAX_INDEX))


def _id_value(digits: str) -> int | None:
    """The id that `digits` spells in ASCII decimal digits, or None if they spell none up to ``MAX_INDEX``.

    Leading zeros are dropped and a longer value refused before ``int()``
    reads the digits: ``int()`` refuses a string of more than 4,300 digits.
    """
    if digits.isdecimal() and digits.isascii():
        magnitude = digits.lstrip("0")
        if len(magnitude) <= _MAX_DIGITS:
            value = int(magnitude or "0")
            if value <= MAX_INDEX:
                return value
    return None


def _parse_index(token: str, digits: str, line_no: int, kind: str, expected: str) -> int:
    """The id that `token` spells as `digits`; `kind` and `expected` word its errors."""
    value = _id_value(digits)
    if value is not None:
        return value
    if digits.isdecimal() and digits.isascii():
        raise TextFormatError(line_no, f"{kind} {digits.lstrip('0')} exceeds the limit {MAX_INDEX}")
    magnitude = digits[1:]
    if digits[:1] == "-" and magnitude.isdecimal() and magnitude.isascii() and magnitude.strip("0"):
        raise TextFormatError(line_no, f"negative {kind} -{magnitude.lstrip('0')}")
    raise TextFormatError(line_no, f"expected {expected}, got {token!r}")


class _Ids(dict):
    """Each id token's value, read once per distinct token; a token that is not an id raises KeyError."""

    def __missing__(self, token: str) -> int:
        value = _id_value(token)
        if value is None:
            raise KeyError(token)
        self[token] = value
        return value


def _parse_qubits(tokens: list[str], line_no: int) -> tuple[int, ...]:
    return tuple(_parse_index(t, t, line_no, "qubit index", "qubit index") for t in tokens)


def _parse_classbit(token: str, line_no: int) -> int:
    digits = token[1:] if token[:1] == "c" else ""
    return _parse_index(token, digits, line_no, "classical bit", "classical bit like c0")


def from_text(text: str) -> Circuit:
    """The circuit `text` spells; raises :class:`TextFormatError` on malformed text.

    Each distinct id token is read once per call.  A plain gate line whose
    tokens are all ids is made straight from them; every other line takes
    the general path, which alone raises :class:`TextFormatError`.
    """
    read_id = _Ids().__getitem__
    instructions: list[Instruction] = []
    spans: list[GadgetSpan] = []
    open_spans: list[tuple[int, GadgetTag, int]] = []
    inputs: list[Register] = []
    outputs: list[Register] = []
    append = instructions.append

    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        gate = _GATES.get(head)
        if gate is not None and len(tokens) == gate[1]:
            # A plain gate line: each id is read through the cache, and a
            # one- or two-qubit line's without building a map.
            try:
                if gate[1] == 3:
                    qubits = (read_id(tokens[1]), read_id(tokens[2]))
                elif gate[1] == 2:
                    qubits = (read_id(tokens[1]),)
                else:
                    qubits = tuple(map(read_id, tokens[1:]))
            except KeyError:
                pass  # not an id: the general path below words the error
            else:
                append(_new_record(Instruction, (gate[0], qubits, None, None, None)))
                continue

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
        try:
            qubits = tuple(map(read_id, args))
        except KeyError:
            qubits = _parse_qubits(args, line_no)  # raises: names the first token that is not an id
        append(_new_record(Instruction, (op, qubits, angle, result, cond)))

    if open_spans:
        raise TextFormatError(open_spans[-1][2], f"unclosed #begin {open_spans[-1][1].value}")

    return Circuit(tuple(instructions), spans=tuple(spans), inputs=tuple(inputs), outputs=tuple(outputs))

