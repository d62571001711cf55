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
of the #input/#output/#begin/#end directives are comments.  A
``#begin``...``#end`` block is one gadget record: its template's
instructions on the record's wires, between markers naming its template's
tag, its key in ``ir.TEMPLATES``.  Both directions read a record's block
from its template's text, the formatter as a format string and the parser
as a pattern compiled from the same text.
"""
from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from itertools import islice

from .ir import (
    MAX_INDEX,
    TEMPLATES,
    Circuit,
    CircuitError,
    Gadget,
    Instruction,
    Op,
    Register,
    Template,
    Violation,
    ViolationCode,
    _new_record,
    _tuple_getter,
)

_PLAIN, _ANGLE, _MEASURE = "plain", "angle", "measure"


def _line(op: Op, qubits: list[str], angle: str, result: str) -> str:
    """A line of kind `op`, with its qubits, angle and result bit spelled by the strings given."""
    if op is Op.RZ:
        return f"rz {angle} {qubits[0]}"
    if op.measures:
        return f"{op.value} {qubits[0]} -> c{result}"
    return " ".join([op.value, *qubits])


def _conditioned(cond: str, line: str) -> str:
    return f"? c{cond} : {line}"


def _row(op: Op) -> tuple[Op, str, str]:
    """A kind's row of the mnemonic table: the kind, its text form and its line template."""
    form = _ANGLE if op is Op.RZ else _MEASURE if op.measures else _PLAIN
    return op, form, _line(op, ["%d"] * op.arity, "%.17g", "%d")


#: The mnemonic table, by mnemonic for the parser and by kind for the formatter.
_ROWS = {op.value: _row(op) for op in Op}
_ROW_OF = {row[0]: row for row in _ROWS.values()}
_COND = _conditioned("%d", "%s")
#: Each plain kind by mnemonic, with the token count of its unconditioned line.
_GATES = {mnemonic: (op, op.arity + 1) for mnemonic, (op, form, _) in _ROWS.items() if form is _PLAIN}


def _block(template: Template) -> tuple[str, re.Pattern[str], Callable[[Sequence[str]], tuple[str, ...]]]:
    """How a record of `template` is written and read back.

    The first item is the record's ``#begin``...``#end`` block as a format
    string, with field ``{w}`` for wire w and field ``{n_wires}`` for the
    bit.  The second is a pattern of exactly the blocks that string makes
    from ids spelled in ASCII decimal digits: each field's first spelling
    captures its digits and every later one repeats them.  The third takes
    a match's groups to the record's wire digits and bit digits, in field
    order.
    """
    fields = ["{%d}" % k for k in range(template.n_wires + 1)]
    lines = ["#begin " + template.tag]
    for op, slots, cond in template.lines:
        line = _line(op, [fields[s] for s in slots], "", fields[-1])
        lines.append(_conditioned(fields[-1], line) if cond else line)
    lines.append("#end " + template.tag)
    form = "\n".join(lines)
    pattern, captured = [], []  # captured: the fields in the order the pattern captures them
    for k, part in enumerate(re.split(r"\{(\d+)\}", form)):
        if k % 2 == 0:
            pattern.append(re.escape(part))
        elif int(part) in captured:
            pattern.append(f"(?P=f{part})")
        else:
            captured.append(int(part))
            pattern.append(f"(?P<f{part}>[0-9]+)")
    read_fields = _tuple_getter([captured.index(f) for f in range(template.n_wires + template.measures)])
    return form, re.compile("".join(pattern)), read_fields


#: Each record template's block format, pattern and field getter (see :func:`_block`).
_BLOCKS = {template: _block(template) for template in TEMPLATES.values()}


class TextFormatError(Exception):
    """PARSE_ERROR: malformed circuit text."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def to_text(circuit: Circuit) -> str:
    lines: list[str] = []
    for reg in circuit.inputs:
        lines.append("#input " + " ".join([reg.name] + [str(q) for q in reg.qubits]))
    for reg in circuit.outputs:
        lines.append("#output " + " ".join([reg.name] + [str(q) for q in reg.qubits]))

    gadget, blocks, rows = Gadget, _BLOCKS, _ROW_OF
    append = lines.append
    for step in circuit.body:
        if step.__class__ is gadget:
            append(blocks[step.template][0].format(*step.wires, step.bit))
            continue
        op, qubits, angle, result, cond = step
        _, form, template = rows[op]
        if form is _PLAIN:
            line = template % qubits
        elif form is _ANGLE:
            line = template % (angle, qubits[0])
        else:
            line = template % (qubits[0], result)
        append(line if cond is None else _COND % (cond, line))
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

    Each distinct id token is read once per call, on every line.  A plain
    gate line whose tokens are all ids is made straight from them.  A
    ``#begin`` block whose lines are exactly a record's text (as
    :func:`to_text` writes it) is made straight into that record: its lines
    are one full match of the pattern compiled from its template's text,
    whose groups are the record's wire and bit ids.  Every other line takes
    the general path, which alone raises :class:`TextFormatError`; there a
    block's instructions are parsed one by one and then matched with its
    tag's template.  A block that is no instance of it, or that holds another
    ``#begin``, raises :class:`~tclean.ir.CircuitError` with
    ``MALFORMED_GADGET_SPAN`` once the whole text has parsed, naming the
    first such ``#begin``.
    """
    read_id = _Ids().__getitem__
    body: list = []
    extra = 0  # instructions the records in `body` stand for, less one each
    open_blocks: list[list] = []  # [body index, instruction index, template, line, holds a #begin]
    malformed: tuple[int, int, str] | None = None  # the first bad block's line, index and tag
    inputs: list[Register] = []
    outputs: list[Register] = []
    append = body.append
    lines = text.splitlines()
    numbered = enumerate(lines, start=1)

    for line_no, line in numbered:
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
                try:
                    qubits = tuple(map(read_id, tokens[2:]))
                except KeyError:
                    qubits = _parse_qubits(tokens[2:], line_no)  # raises: names the first token that is not an id
                (inputs if head == "#input" else outputs).append(Register(tokens[1], qubits))
            elif head == "#begin":
                if len(tokens) != 2:
                    raise TextFormatError(line_no, "#begin needs a gadget tag")
                template = TEMPLATES.get(tokens[1])
                if template is None:
                    raise TextFormatError(line_no, f"unknown gadget tag {tokens[1]!r}")
                if not open_blocks:
                    # A record's exact text: one match of its template's block pattern.
                    _, pattern, fields = _BLOCKS[template]
                    match = pattern.fullmatch("\n".join(lines[line_no - 1:line_no + template.size + 1]))
                    if match is not None:
                        try:
                            ids = tuple(map(read_id, fields(match.groups())))
                        except KeyError:
                            pass  # an id past MAX_INDEX: the general path words it
                        else:
                            n = template.n_wires
                            append(_new_record(Gadget, (template, ids[:n], ids[n] if template.measures else None)))
                            extra += template.size - 1
                            next(islice(numbered, template.size, None))  # skip to the #end line
                            continue
                else:
                    open_blocks[-1][4] = True
                open_blocks.append([len(body), len(body) + extra, template, line_no, False])
            elif head == "#end":
                if len(tokens) != 2:
                    raise TextFormatError(line_no, "#end needs a gadget tag")
                if not open_blocks:
                    raise TextFormatError(line_no, "#end without matching #begin")
                start, at, template, begin_line, nested = open_blocks.pop()
                if tokens[1] != template.tag:
                    raise TextFormatError(line_no, f"#end {tokens[1]} does not match #begin {template.tag}")
                record = None if nested else template.match(body[start:])
                if record is not None:
                    del body[start:]
                    append(record)
                    extra += template.size - 1
                elif malformed is None or begin_line < malformed[0]:
                    malformed = (begin_line, at, template.tag)
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

    if open_blocks:
        raise TextFormatError(open_blocks[-1][3], f"unclosed #begin {open_blocks[-1][2].tag}")
    if malformed is not None:
        begin_line, at, tag = malformed
        raise CircuitError(Violation(ViolationCode.MALFORMED_GADGET_SPAN, at,
                                     f"#begin {tag} on line {begin_line} does not hold "
                                     "one instance of its template"))
    return Circuit(tuple(body), inputs=tuple(inputs), outputs=tuple(outputs))
