"""Text serialization round trips and parse errors."""
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tclean.constructions import CONSTRUCTIONS
from tclean.goldens import default_corpus_dir
from tclean.ir import (Circuit, CircuitBuilder, CircuitError, Gadget, Instruction, Op, Register, Template,
                       ViolationCode, validate)
from tclean.textfmt import MAX_INDEX, TextFormatError, from_text, to_text

from spans_reference import flatten, from_flat
from strategies import random_circuit


def test_cx_line_parses():
    c = from_text("#input q 0 1\ncx 0 1\n")
    assert c.instructions == (Instruction(Op.CX, (0, 1)),)
    assert c.n_qubits == 2


def test_invalid_circuit_is_circuit_error_and_malformed_text_is_parse_error():
    with pytest.raises(CircuitError) as err:
        from_text("cx 0 1\n")
    assert err.value.violation.code is ViolationCode.USE_BEFORE_ALLOC
    assert err.value.violation.index == 0
    with pytest.raises(TextFormatError):
        from_text("cx 0 one\n")


def test_malformed_arity_is_parse_error():
    with pytest.raises(TextFormatError) as err:
        from_text("h 0\ncx 0\n")
    assert err.value.line_no == 2


def test_unknown_mnemonic_is_parse_error():
    with pytest.raises(TextFormatError):
        from_text("frobnicate 0\n")


def test_unclosed_gadget_is_parse_error():
    with pytest.raises(TextFormatError):
        from_text("#begin and_compute\nh 0\n")


def test_comments_and_blank_lines_are_ignored():
    c = from_text("#input q 0\n# a comment\n\nh 0\n#another\n")
    assert len(c.instructions) == 1


def test_measurement_and_condition_round_trip():
    text = "#input a 0 1\nmz 0 -> c0\n? c0 : cz 0 1\n"
    c = from_text(text)
    assert to_text(c) == text
    assert c.instructions[1].cond == 0


def test_angle_round_trips_exactly():
    b = CircuitBuilder()
    (q,) = b.register("a", 1)
    b.rz(0.1 + 0.2, q)  # a float with no short decimal form
    c = b.build()
    assert from_text(to_text(c)) == c


def test_gadget_spans_round_trip():
    from tclean.gadgets import and_gadget_circuit

    c = and_gadget_circuit("roundtrip")
    again = from_text(to_text(c))
    assert again == c
    assert [type(step) for step in again.body] == [Gadget, Gadget]


def test_round_trip_thousand_random_circuits():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        c = random_circuit(rng)
        assert from_text(to_text(c)) == c


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    c = random_circuit(np.random.default_rng(seed))
    assert validate(c) is None
    assert from_text(to_text(c)) == c


def with_contents_the_builder_never_makes(c, data):
    """`c` built directly, with extra input registers on ids it never names and its result bits
    renumbered to sparse ids."""
    named = set(c.input_qubits()) | {q for instr in c.instructions for q in instr.qubits}
    unused = data.draw(st.lists(st.integers(0, MAX_INDEX).filter(lambda q: q not in named),
                                max_size=6, unique=True))
    cut = data.draw(st.integers(0, len(unused)))
    extra = (Register("pad", tuple(unused[:cut])), Register("pad2", tuple(unused[cut:])))
    bits = sorted(instr.result for instr in c.instructions if instr.result is not None)
    sparse = dict(zip(bits, data.draw(st.lists(st.integers(0, MAX_INDEX), min_size=len(bits),
                                               max_size=len(bits), unique=True))))
    body = tuple(step._replace(bit=sparse.get(step.bit)) if isinstance(step, Gadget)
                 else step._replace(result=sparse.get(step.result), cond=sparse.get(step.cond))
                 for step in c.body)
    return Circuit(body, inputs=c.inputs + extra, outputs=c.outputs)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_round_trip_of_directly_built_circuits(seed, data):
    c = with_contents_the_builder_never_makes(random_circuit(np.random.default_rng(seed)), data)
    assert from_text(to_text(c)) == c
    qubits = c.input_qubits() + tuple(q for instr in c.instructions for q in instr.qubits)
    results = [instr.result for instr in c.instructions if instr.result is not None]
    assert (c.n_qubits, c.n_classbits) == (max(qubits, default=-1) + 1, max(results, default=-1) + 1)
    flat = flatten(c)
    reordered = from_flat(dataclasses.replace(flat, spans=flat.spans[::-1]))
    assert reordered == c and to_text(reordered) == to_text(c)


def test_round_trip_keeps_registers_on_unused_ids():
    c = Circuit((Instruction(Op.X, (0,)),), inputs=(Register("a", (0, 5)),))
    assert c.n_qubits == 6
    assert from_text(to_text(c)) == c


@pytest.mark.parametrize("text, line_no, message", [
    ("#input q 0\nx 1_0\n", 2, "expected qubit index, got '1_0'"),
    ("#input q 0\nx +0\n", 2, "expected qubit index, got '+0'"),
    ("#input q 0\nx ٠\n", 2, "expected qubit index, got '٠'"),   # Arabic-Indic zero
    ("#input q 0\nx ０\n", 2, "expected qubit index, got '０'"),   # fullwidth zero
    ("#input q 0\nx -0\n", 2, "expected qubit index, got '-0'"),
    ("#input q 0 +1\n", 1, "expected qubit index, got '+1'"),
    ("#input q 0\nmz 0 -> c1_0\n", 2, "expected classical bit like c0, got 'c1_0'"),
    ("#input q 0\nmz 0 -> c+0\n", 2, "expected classical bit like c0, got 'c+0'"),
    ("#input q 0\nmz 0 -> c٠\n", 2, "expected classical bit like c0, got 'c٠'"),
    ("#input q 0\nmz 0 -> c0\n? c-0 : x 0\n", 3, "expected classical bit like c0, got 'c-0'"),
])
def test_ids_are_ascii_decimal_digits(text, line_no, message):
    with pytest.raises(TextFormatError) as err:
        from_text(text)
    assert (err.value.line_no, str(err.value)) == (line_no, f"line {line_no}: {message}")


@pytest.mark.parametrize("text, message", [
    ("#input q 0\nx -3\n", "line 2: negative qubit index -3"),
    ("#input q 0\ncx 0 -03\n", "line 2: negative qubit index -3"),
    ("#input q 0\nmz 0 -> c-2\n", "line 2: negative classical bit -2"),
    ("#input q 0 -1\n", "line 1: negative qubit index -1"),
])
def test_negative_ids_keep_their_messages(text, message):
    with pytest.raises(TextFormatError, match=f"^{message}$"):
        from_text(text)


def test_ids_up_to_the_limit_parse_and_past_it_fail():
    top = MAX_INDEX
    c = from_text(f"#input q {top}\nx {top}\nmz {top} -> c{top}\n")
    assert (c.n_qubits, c.n_classbits) == (top + 1, top + 1)
    for text, message in [
        (f"#input q 0 {top + 1}\n", f"line 1: qubit index {top + 1} exceeds the limit {top}"),
        (f"#input q 0\ncx 0 {top + 1}\n", f"line 2: qubit index {top + 1} exceeds the limit {top}"),
        (f"#input q 0\nmz 0 -> c{top + 1}\n",
         f"line 2: classical bit {top + 1} exceeds the limit {top}"),
        # the first offending token is named, as a token-by-token parse would
        (f"#input q 0\nccx 0 {top + 5} {top + 9}\n", f"line 2: qubit index {top + 5} exceeds the limit {top}"),
    ]:
        with pytest.raises(TextFormatError, match=f"^{message}$"):
            from_text(text)


#: More digits than ``int()`` reads from a string (Python's default limit is 4,300).
LONG = "1" * 4301


@pytest.mark.parametrize("text, message", [
    (f"#input q 0\nx {LONG}\n", f"line 2: qubit index {LONG} exceeds the limit {MAX_INDEX}"),
    (f"#input q 0\ncx 0 00{LONG}\n", f"line 2: qubit index {LONG} exceeds the limit {MAX_INDEX}"),
    (f"#input q 0 {LONG}\n", f"line 1: qubit index {LONG} exceeds the limit {MAX_INDEX}"),
    (f"#input q 0\nmz 0 -> c{LONG}\n", f"line 2: classical bit {LONG} exceeds the limit {MAX_INDEX}"),
    (f"#input q 0\nmz 0 -> c0\n? c{LONG} : x 0\n",
     f"line 3: classical bit {LONG} exceeds the limit {MAX_INDEX}"),
    (f"#input q 0\nx -0{LONG}\n", f"line 2: negative qubit index -{LONG}"),
], ids=["gate", "padded", "register", "result", "condition", "negative"])
def test_ids_longer_than_int_reads_are_parse_errors(text, message):
    with pytest.raises(TextFormatError) as err:
        from_text(text)
    assert str(err.value) == message


def test_leading_zeros_read_as_the_value_at_any_length():
    zeros = "0" * 4301
    c = from_text(f"#input q {zeros} 7\nx {zeros}7\ncx 07 {zeros}\nmz {zeros}7 -> c{zeros}2\n"
                  f"? c002 : x {zeros}\n")
    assert c.inputs == (Register("q", (0, 7)),)
    assert c.instructions == (Instruction(Op.X, (7,)), Instruction(Op.CX, (7, 0)),
                              Instruction(Op.MZ, (7,), result=2), Instruction(Op.X, (0,), cond=2))


class GeneralPath(Exception):
    """Raised by a stand-in ``Template.match``: a block reached the line-by-line path."""


def test_written_records_take_the_exact_record_path(monkeypatch):
    # Every corpus file and every kind's text at n = 1-4 reads each block as
    # one record without the general path, which alone calls Template.match.
    texts = [path.read_text() for path in sorted(Path(default_corpus_dir()).glob("*/circuit.qc"))]
    texts += [to_text(CONSTRUCTIONS[kind].build(n, carry_out))
              for kind in sorted(CONSTRUCTIONS) for n in range(1, 5) for carry_out in (False, True)]
    circuits = [from_text(text) for text in texts]
    assert sum(step.__class__ is Gadget for c in circuits for step in c.body) > 100

    def general_path(self, instrs):
        raise GeneralPath(self.tag)

    monkeypatch.setattr(Template, "match", general_path)
    for text, circuit in zip(texts, circuits):
        assert from_text(text) == circuit
    # str.splitlines ends a line at CRLF, so a CRLF copy is read the same way.
    text = texts[0]
    assert from_text(text.replace("\n", "\r\n")) == circuits[0]
    # Tabs for spaces are no record's exact text: the general path reads them.
    tabbed = text.replace(" ", "\t")
    with pytest.raises(GeneralPath):
        from_text(tabbed)
    monkeypatch.undo()
    assert from_text(tabbed) == circuits[0]
