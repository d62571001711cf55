"""Validation, lifetimes, and builder behaviour."""
import numpy as np
import pytest

from tclean.ir import (
    AND_COMPUTE,
    AND_UNCOMPUTE,
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gadget,
    MAX_INDEX,
    TEMPLATES,
    Instruction,
    Op,
    Register,
    Template,
    ViolationCode,
    _new_record,
    validate,
)

import dataclasses
from types import SimpleNamespace

from tclean.gadgets import and_compute, and_uncompute
from tclean.rewrite import TEXTBOOK_TOFFOLI
from tclean.textfmt import TextFormatError, from_text

from pairs_reference import reference_reads_as_control, reference_writes
from spans_reference import FlatCircuit, GadgetSpan, edited, flat_violation, flatten, from_flat
from strategies import random_circuit
from textfmt_reference import reference_to_text
from validate_reference import reference_validate


def build_violation(b: CircuitBuilder):
    """The violation that building `b` raises."""
    with pytest.raises(CircuitError) as err:
        b.build()
    return err.value.violation


def test_constructor_rejects_invalid_contents():
    with pytest.raises(CircuitError) as err:
        Circuit(body=(Instruction(Op.X, (0,)),))
    assert err.value.violation.code is ViolationCode.USE_BEFORE_ALLOC
    assert str(err.value) == "USE_BEFORE_ALLOC at instruction 0: qubit 0 used before allocation"


def test_a_gate_on_an_id_nothing_handed_out_fails_at_that_gate():
    """A gate adopts no id: the next fresh id is unchanged, and building names the gate."""
    b = CircuitBuilder()
    b.register("a", 1)
    b.cx(0, 5)
    assert b.alloc0() == 1
    v = build_violation(b)
    assert (v.code, v.index, v.message) == (ViolationCode.USE_BEFORE_ALLOC, 0, "qubit 5 used before allocation")


def test_empty_circuit_is_valid():
    assert validate(CircuitBuilder().build()) is None


def test_use_after_release():
    b = CircuitBuilder()
    q = b.alloc0()
    b.release(q)
    b.x(q)
    v = build_violation(b)
    assert v.code is ViolationCode.USE_AFTER_RELEASE
    assert v.index == 2


def test_use_before_alloc():
    b = CircuitBuilder()
    b.register("a", 1)
    b.cx(0, 1)
    v = build_violation(b)
    assert v.code is ViolationCode.USE_BEFORE_ALLOC
    assert v.index == 0


def test_conditioned_t_is_rejected():
    b = CircuitBuilder()
    (q,) = b.register("a", 1)
    bit = b.mz(q)
    b._emit(Op.T, (q,), cond=bit)
    v = build_violation(b)
    assert v.code is ViolationCode.NONCLIFFORD_CONDITIONED
    assert v.index == 1


def test_classbit_read_before_write():
    b = CircuitBuilder()
    (q,) = b.register("a", 1)
    b.x(q, cond=0)
    v = build_violation(b)
    assert v.code is ViolationCode.CLASSBIT_READ_BEFORE_WRITE
    assert v.index == 0


def test_classbit_written_twice():
    b = CircuitBuilder()
    (q,) = b.register("a", 1)
    bit = b.mz(q)
    b._emit(Op.MZ, (q,), result=bit)
    v = build_violation(b)
    assert v.code is ViolationCode.CLASSBIT_REWRITE
    assert v.index == 1


def test_bad_arity_duplicate_qubits():
    b = CircuitBuilder()
    b.register("a", 2)
    b._emit(Op.CX, (0, 0))
    v = build_violation(b)
    assert v.code is ViolationCode.BAD_ARITY
    assert v.index == 0


def test_alloc_while_live():
    b = CircuitBuilder()
    (q,) = b.register("a", 1)
    b.alloc0(q)
    v = build_violation(b)
    assert v.code is ViolationCode.ALLOC_WHILE_LIVE
    assert v.index == 0


def test_overlapping_gadget_spans():
    # Spans that share an instruction cannot be written as records: the text
    # that would hold them is refused, naming the first block that holds a
    # #begin.  (Partial overlap cannot be written at all; see REFUSED_SPANS.)
    text = reference_to_text(FlatCircuit((Instruction(Op.X, (0,)),) * 4, (
        GadgetSpan(0, 3, AND_COMPUTE.tag), GadgetSpan(0, 2, AND_UNCOMPUTE.tag)),
        inputs=(Register("a", (0,)),)))
    with pytest.raises(CircuitError) as err:
        from_text(text)
    assert err.value.violation.code is ViolationCode.MALFORMED_GADGET_SPAN
    assert err.value.violation.index == 0


@pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
def test_non_finite_rz_angle_is_rejected(angle):
    with pytest.raises(CircuitError) as err:
        from_text(f"#input a 0\nh 0\nrz {angle} 0\n")
    assert err.value.violation.code is ViolationCode.BAD_ARITY
    assert err.value.violation.message == f"rz angle must be finite, got {float(angle)}"
    b = CircuitBuilder()
    (q,) = b.register("a", 1)
    b.rz(float(angle), q)
    assert build_violation(b).code is ViolationCode.BAD_ARITY


@pytest.mark.parametrize("instr, message", [
    (Instruction(Op.RZ, (0,)), "angle is required for rz and forbidden elsewhere"),
    (Instruction(Op.H, (0,), angle=0.5), "angle is required for rz and forbidden elsewhere"),
    (Instruction(Op.MZ, (0,)), "result bit is required for measurements only"),
    (Instruction(Op.X, (0,), result=0), "result bit is required for measurements only"),
])
def test_angle_and_result_bit_belong_to_their_kinds(instr, message):
    with pytest.raises(CircuitError) as err:
        Circuit((instr,), inputs=(Register("a", (0,)),))
    assert err.value.violation.code is ViolationCode.BAD_ARITY
    assert err.value.violation.message == message


#: Span sets over four instructions and the text the reference formatter
#: writes for them: the parser refuses each, as malformed at the index given
#: or, where the text cannot nest them, as TextFormatError (None).  A pair
#: partly overlapping nests when both tags match and misnests otherwise.
REFUSED_SPANS = {
    "nested": (((0, 4), (1, 3)), 0, 0),
    "nested-inner-first": (((1, 3), (0, 4)), 0, 0),
    "same-start": (((0, 4), (0, 2)), 0, 0),
    "same-range": (((0, 4), (0, 4)), 0, None),
    "partial": (((0, 3), (2, 4)), 0, None),
    "empty": (((2, 2),), None, None),
    "reversed": (((3, 1),), None, None),
    "past-the-end": (((2, 5),), None, None),
    "negative": (((-1, 2),), None, None),
}


def _parse_refusal(flat: FlatCircuit):
    """How the parser refuses the text of `flat`: the malformed index, or None for a TextFormatError."""
    try:
        from_text(reference_to_text(flat))
    except TextFormatError:
        return None
    except CircuitError as err:
        assert err.violation.code is ViolationCode.MALFORMED_GADGET_SPAN
        return err.violation.index
    raise AssertionError("accepted")


@pytest.mark.parametrize("same_tag", [True, False], ids=["same-tag", "other-tag"])
@pytest.mark.parametrize("name", sorted(REFUSED_SPANS))
def test_spans_must_be_flat_and_nonempty(name, same_tag):
    ranges, same, other = REFUSED_SPANS[name]
    tags = [AND_COMPUTE.tag, AND_COMPUTE.tag if same_tag else AND_UNCOMPUTE.tag]
    spans = tuple(GadgetSpan(start, end, tag) for (start, end), tag in zip(ranges, tags))
    instructions = (Instruction(Op.X, (0,)),) * 4
    # Given the other way round, a tie on start is still not broken by comparing tags.
    for given in (spans, spans[::-1]):
        assert _parse_refusal(FlatCircuit(instructions, given, (Register("a", (0,)),))) == (
            same if same_tag else other)


def test_span_nesting_matches_the_reference_on_random_span_sets():
    # Random span sets over one AND round trip, half of them its own two
    # spans: the parser accepts the text of a set exactly when every span is
    # an instance of its template and holds no other span, and then makes
    # the circuit the reference makes.
    b = CircuitBuilder()
    x, y = b.register("a", 2)
    and_uncompute(b, x, y, and_compute(b, x, y))
    flat = flatten(b.build())
    rng = np.random.default_rng(12)
    seen = set()
    for _ in range(1500):
        spans = []
        for _ in range(rng.integers(0, 3)):
            if rng.random() < 0.5:
                spans.append(flat.spans[int(rng.integers(2))])
                continue
            start = int(rng.integers(0, 15))
            spans.append(GadgetSpan(start, int(rng.integers(start, 16)), str(rng.choice(list(TEMPLATES)))))
        given = FlatCircuit(flat.instructions, tuple(spans), flat.inputs)
        text = reference_to_text(given)
        try:
            got = from_text(text)
        except (CircuitError, TextFormatError):
            got = None
        try:
            want = from_flat(given)
        except CircuitError:
            want = None
        assert got == want, spans
        seen.add(got is None)
    assert seen == {True, False}


def test_released_id_can_be_reallocated():
    b = CircuitBuilder()
    q = b.alloc0()
    b.release(q)
    b.alloc0(q)
    b.release(q)
    assert validate(b.build()) is None


def test_output_must_be_live():
    b = CircuitBuilder()
    q = b.alloc0()
    b.release(q)
    b.output("dead", (q,))
    v = build_violation(b)
    assert v.code is ViolationCode.OUTPUT_NOT_LIVE
    assert v.index == 2


DUPLICATE_OUTPUTS = {
    "two-registers": "#input a 0\n#output a 0\n#output b 0\nx 0\n",
    "one-register": "#input a 0\n#output a 0 0\nx 0\n",
}


@pytest.mark.parametrize("text", DUPLICATE_OUTPUTS.values(), ids=DUPLICATE_OUTPUTS)
def test_an_output_qubit_declared_twice_is_refused(text):
    # One live qubit read as two outputs would give its state four amplitudes.
    want = (ViolationCode.REGISTER_OVERLAP, 1, "qubit 0 declared twice as an output")
    with pytest.raises(CircuitError) as info:
        from_text(text)
    got = info.value.violation
    assert (got.code, got.index, got.message) == want
    ref = reference_validate(SimpleNamespace(instructions=(Instruction(Op.X, (0,)),),
                                             inputs=(Register("a", (0,)),), outputs=(),
                                             n_qubits=1, n_classbits=0,
                                             output_qubits=lambda: (0, 0)))
    assert (ref.code, ref.index, ref.message) == want


def _violation(**fields):
    """The violation that constructing a Circuit from ``fields`` reports, or None."""
    try:
        Circuit(**fields)
    except CircuitError as err:
        return err.violation
    return None


def test_validate_is_deterministic():
    # A Circuit is valid once built, so determinism is checked on invalid
    # contents: a random circuit with one instruction dropped or duplicated.
    rng = np.random.default_rng(0)
    broken = 0
    for _ in range(200):
        c = random_circuit(rng)
        if not len(c):
            continue
        flat = edited(c, int(rng.integers(len(c))), rng.random() < 0.5)
        first = flat_violation(flat)
        assert flat_violation(flat) == first
        broken += first is not None
    assert broken > 30  # the edits often break an invariant, so violations are compared


def test_validate_order_independent_of_unrelated_instructions():
    # swapping adjacent instructions on disjoint qubits cannot change validity
    rng = np.random.default_rng(8)
    swaps = 0
    for _ in range(80):
        flat = flatten(random_circuit(rng))
        instructions = flat.instructions
        for i in range(len(instructions) - 1):
            a, b = instructions[i], instructions[i + 1]
            bits_a = {a.result, a.cond} - {None}
            bits_b = {b.result, b.cond} - {None}
            if set(a.qubits) & set(b.qubits) or bits_a & bits_b:
                continue
            # keep record contents untouched
            if any(s.start <= i < s.end or s.start <= i + 1 < s.end for s in flat.spans):
                continue
            swapped = list(instructions)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert validate(from_flat(dataclasses.replace(flat, instructions=tuple(swapped)))) is None
            swaps += 1
    assert swaps > 10  # the loop actually exercised swaps


# -- widths, id limit and register names ---------------------------------------


def test_widths_are_derived_not_given():
    with pytest.raises(TypeError):
        Circuit(body=(), n_qubits=9, n_classbits=4)
    c = Circuit((Instruction(Op.X, (0,)),), inputs=(Register("a", (0, 5)),))
    assert (c.n_qubits, c.n_classbits) == (6, 0)
    assert (CircuitBuilder().build().n_qubits, CircuitBuilder().build().n_classbits) == (0, 0)


def test_span_order_is_canonical():
    b = CircuitBuilder()
    (x, y) = b.register("a", 2)
    anc = and_compute(b, x, y)
    and_uncompute(b, x, y, anc)
    c = b.build()
    flat = flatten(c)
    assert len(flat.spans) == 2 == len(c.body)
    # Records stand in body order, whatever order the spans were listed in.
    assert from_flat(dataclasses.replace(flat, spans=flat.spans[::-1])) == c


def one_gate(instr, register=(0,)):
    """The violation constructing `instr` on input register `register` reports, or None."""
    return _violation(body=(instr,), inputs=(Register("a", register),))


TOO_BIG = MAX_INDEX + 1


@pytest.mark.parametrize("instr, register, message", [
    (Instruction(Op.X, (TOO_BIG,)), (0,), f"qubit index out of range in ({TOO_BIG},)"),
    (Instruction(Op.CX, (0, TOO_BIG)), (0,), f"qubit index out of range in (0, {TOO_BIG})"),
    (Instruction(Op.X, (0,)), (0, TOO_BIG), f"qubit index {TOO_BIG} out of range in input register 'a'"),
    (Instruction(Op.MZ, (0,), result=TOO_BIG), (0,), f"classical bit {TOO_BIG} out of range"),
    # negative ids keep their messages, and a register's are refused too
    (Instruction(Op.X, (-1,)), (0,), "qubit index out of range in (-1,)"),
    (Instruction(Op.MZ, (0,), result=-2), (0,), "classical bit -2 out of range"),
    (Instruction(Op.X, (0,)), (0, -1), "qubit index -1 out of range in input register 'a'"),
])
def test_ids_the_text_cannot_carry_are_refused(instr, register, message):
    violation = one_gate(instr, register)
    assert (violation.code, violation.index, violation.message) == (ViolationCode.BAD_ARITY, 0, message)


@pytest.mark.parametrize("qubits", [range(MAX_INDEX + 2), range(1, MAX_INDEX + 2), range(-1, MAX_INDEX)],
                         ids=["past-the-limit", "2^20-ids", "negative-first"])
def test_an_out_of_range_register_is_named_in_a_short_message(qubits):
    # The message names the register and its first id out of range, not every id it holds.
    qubits = tuple(qubits)
    assert len(qubits) >= 1 << 20
    bad = next(q for q in qubits if not 0 <= q <= MAX_INDEX)
    with pytest.raises(CircuitError) as info:
        Circuit((), inputs=(Register("a", qubits),))
    assert info.value.violation.message == f"qubit index {bad} out of range in input register 'a'"
    assert len(str(info.value)) < 200


def test_ids_at_the_limit_are_accepted():
    top = MAX_INDEX
    c = Circuit((Instruction(Op.X, (top,)), Instruction(Op.MZ, (top,), result=top)),
                inputs=(Register("a", (top,)),))
    assert (c.n_qubits, c.n_classbits) == (top + 1, top + 1)


def _gate(op, qubits, angle=None, result=None, cond=None):
    """An instruction made as the builder makes one, with no check of its fields."""
    return _new_record(Instruction, (op, qubits, angle, result, cond))


#: Instructions after ``mz 0 -> c0`` on input qubits 0, 1 and 2, one for each
#: guard of the walk's accept test, with the violation each must give.
ACCEPT_GUARDS = {
    "conditioned-t": ((_gate(Op.T, (1,), cond=0),), ViolationCode.NONCLIFFORD_CONDITIONED),
    "cx-on-unwritten-bit": ((_gate(Op.CX, (1, 2), cond=1),), ViolationCode.CLASSBIT_READ_BEFORE_WRITE),
    "ccx-repeats-a-qubit": ((_gate(Op.CCX, (1, 1, 2)),), ViolationCode.BAD_ARITY),
    "cx-repeats-a-qubit": ((_gate(Op.CX, (2, 2)),), ViolationCode.BAD_ARITY),
    "cx-one-qubit": ((_gate(Op.CX, (1,)),), ViolationCode.BAD_ARITY),
    "cx-past-the-limit": ((_gate(Op.CX, (1, TOO_BIG)),), ViolationCode.BAD_ARITY),
    "cz-negative": ((_gate(Op.CZ, (1, -1)),), ViolationCode.BAD_ARITY),
    "cx-unallocated": ((_gate(Op.CX, (1, 3)),), ViolationCode.USE_BEFORE_ALLOC),
    "x-released": ((_gate(Op.ALLOC0, (3,)), _gate(Op.RELEASE, (3,)), _gate(Op.X, (3,))),
                   ViolationCode.USE_AFTER_RELEASE),
    "z-with-angle": ((_gate(Op.Z, (1,), angle=0.5),), ViolationCode.BAD_ARITY),
    "z-with-result": ((_gate(Op.Z, (1,), result=1),), ViolationCode.BAD_ARITY),
    "accepted": ((_gate(Op.CX, (1, 2), cond=0), _gate(Op.CCX, (0, 1, 2)), _gate(Op.T, (2,))), None),
    # The allocation and release test.
    "alloc-live": ((_gate(Op.ALLOC0, (1,)),), ViolationCode.ALLOC_WHILE_LIVE),
    "alloc-past-the-limit": ((_gate(Op.ALLOCT, (TOO_BIG,)),), ViolationCode.BAD_ARITY),
    "alloc-negative": ((_gate(Op.ALLOC0, (-1,)),), ViolationCode.BAD_ARITY),
    "alloc-conditioned": ((_gate(Op.ALLOC0, (3,), cond=0),), ViolationCode.NONCLIFFORD_CONDITIONED),
    "alloc-two-qubits": ((_gate(Op.ALLOC0, (3, 4)),), ViolationCode.BAD_ARITY),
    "release-unallocated": ((_gate(Op.RELEASE, (3,)),), ViolationCode.USE_BEFORE_ALLOC),
    "release-twice": ((_gate(Op.RELEASE, (1,)), _gate(Op.RELEASE, (1,))), ViolationCode.USE_AFTER_RELEASE),
    "alloc-and-release-accepted": ((_gate(Op.ALLOC0, (3,)), _gate(Op.RELEASE, (3,)), _gate(Op.ALLOCT, (3,))),
                                   None),
}


@pytest.mark.parametrize("name", sorted(ACCEPT_GUARDS))
def test_accept_test_guards_give_the_reference_violation(name):
    tail, code = ACCEPT_GUARDS[name]
    instructions = (_gate(Op.MZ, (0,), result=0),) + tail
    inputs = (Register("a", (0, 1, 2)),)
    got = _violation(body=instructions, inputs=inputs)
    # The reference checks ranges against n_qubits: give it the widest a circuit may have.
    want = reference_validate(SimpleNamespace(instructions=instructions, inputs=inputs,
                                              n_qubits=MAX_INDEX + 1, n_classbits=MAX_INDEX + 1,
                                              output_qubits=lambda: (0, 1, 2)))
    assert got == want
    if code is None:
        assert got is None
    else:
        assert (got.code, got.index) == (code, len(instructions) - 1)


#: Records after ``mz 0 -> c0`` on input qubits 0, 1 and 2 (instruction 0),
#: outputs 0 and 1, one for each guard of the walk's record test, with the
#: violation each must give: the reference's on the record's instructions.
RECORD_GUARDS = {
    "compute-on-a-live-ancilla": (Gadget(AND_COMPUTE, (0, 1, 2)), ViolationCode.ALLOC_WHILE_LIVE, 1),
    "compute-on-an-unallocated-control": (Gadget(AND_COMPUTE, (0, 5, 6)), ViolationCode.USE_BEFORE_ALLOC, 3),
    "compute-past-the-limit": (Gadget(AND_COMPUTE, (0, 1, TOO_BIG)), ViolationCode.BAD_ARITY, 1),
    "compute-negative": (Gadget(AND_COMPUTE, (0, 1, -1)), ViolationCode.BAD_ARITY, 1),
    "compute-on-one-control-twice": (Gadget(AND_COMPUTE, (1, 1, 4)), None, None),
    "uncompute-on-one-control-twice": (Gadget(AND_UNCOMPUTE, (1, 1, 2), 1), ViolationCode.BAD_ARITY, 2),
    "uncompute-a-written-bit": (Gadget(AND_UNCOMPUTE, (0, 1, 2), 0), ViolationCode.CLASSBIT_REWRITE, 1),
    "uncompute-an-unallocated-ancilla": (Gadget(AND_UNCOMPUTE, (0, 1, 7), 1), ViolationCode.USE_BEFORE_ALLOC, 1),
    "uncompute-bit-past-the-limit": (Gadget(AND_UNCOMPUTE, (0, 1, 2), TOO_BIG), ViolationCode.BAD_ARITY, 1),
    "accepted": (Gadget(AND_UNCOMPUTE, (0, 1, 2), 1), None, None),
}


@pytest.mark.parametrize("name", sorted(RECORD_GUARDS))
def test_record_guards_give_the_reference_violation(name):
    record, code, index = RECORD_GUARDS[name]
    body = (_gate(Op.MZ, (0,), result=0), record)
    inputs, outputs = (Register("a", (0, 1, 2)),), (Register("a", (0, 1)),)
    got = _violation(body=body, inputs=inputs, outputs=outputs)
    instructions = (body[0],) + record.template.instantiate(record.wires, record.bit)
    want = reference_validate(SimpleNamespace(instructions=instructions, inputs=inputs,
                                              n_qubits=MAX_INDEX + 1, n_classbits=MAX_INDEX + 1,
                                              output_qubits=lambda: (0, 1)))
    assert got == want
    assert (got.code, got.index) == (code, index) if code else got is None


#: AND_COMPUTE's own text under its own tag, made again: a template not in TEMPLATES.
AND_COMPUTE_COPY = Template(AND_COMPUTE.tag, "x y anc", "\n".join(
    ("? " if cond else "") + " ".join([op.value, *("x y anc".split()[s] for s in slots)])
    for op, slots, cond in AND_COMPUTE.lines))


def test_the_copy_of_and_compute_is_the_same_text_but_not_the_template():
    assert AND_COMPUTE_COPY.lines == AND_COMPUTE.lines and AND_COMPUTE_COPY.tag == AND_COMPUTE.tag
    assert AND_COMPUTE_COPY not in TEMPLATES.values()


@pytest.mark.parametrize("record", [
    Gadget(TEXTBOOK_TOFFOLI, (0, 1, 2)),  # untagged
    Gadget(AND_COMPUTE_COPY, (0, 1, 3)),  # tagged, but not the template of its tag
    Gadget(AND_COMPUTE, [0, 1, 3]),  # wires not a tuple
    Gadget(AND_COMPUTE, (0, 1)),  # too few wires
    Gadget(AND_COMPUTE, (0, 1, 3), 0),  # a bit it does not measure
    Gadget(AND_UNCOMPUTE, (0, 1, 2)),  # no bit for its measurement
], ids=["untagged", "copy", "list", "two-wires", "extra-bit", "no-bit"])
def test_a_record_no_template_instance_is_refused(record):
    violation = _violation(body=(Instruction(Op.X, (0,)), record), inputs=(Register("a", (0, 1, 2)),))
    assert (violation.code, violation.index) == (ViolationCode.MALFORMED_GADGET_SPAN, 1)


def test_records_count_as_their_instructions():
    b = CircuitBuilder()
    x, y = b.register("a", 2)
    anc = and_compute(b, x, y)
    b.cx(anc, x)
    and_uncompute(b, x, y, anc)
    c = b.build()
    assert [type(step) for step in c.body] == [Gadget, Instruction, Gadget]
    assert len(c) == len(c.instructions) == AND_COMPUTE.size + 1 + AND_UNCOMPUTE.size
    assert c.instructions == flatten(c).instructions
    assert (c.n_qubits, c.n_classbits) == (3, 1)


@pytest.mark.parametrize("name", ["", " ", "a b", " a", "a\t", "a\n", "a\u00a0b"])
@pytest.mark.parametrize("where", ["inputs", "outputs"])
def test_register_names_the_text_cannot_carry_are_refused(name, where):
    reg = Register(name, (0,))
    fields = dict(inputs=(reg,)) if where == "inputs" else dict(inputs=(Register("a", (0,)),), outputs=(reg,))
    violation = _violation(body=(Instruction(Op.X, (0,)),), **fields)
    assert violation.code is ViolationCode.BAD_REGISTER_NAME
    assert violation.message == f"register name {name!r} is empty or holds whitespace"


@pytest.mark.parametrize("where", ["inputs", "outputs"])
def test_a_register_name_repeated_on_one_side_is_refused(where):
    regs = (Register("a", (0,)), Register("a", (1,)))
    fields = dict(inputs=regs) if where == "inputs" else dict(inputs=(Register("q", (0, 1)),), outputs=regs)
    violation = _violation(body=(Instruction(Op.X, (0,)),), **fields)
    assert violation.code is ViolationCode.BAD_REGISTER_NAME
    assert violation.message == f"register name 'a' declared twice as an {where[:-1]}"


#: Every kind as the tables it replaced stated it: mnemonic, arity, controls,
#: clifford, t_type, measures, diagonal and lifetime.
OP_TABLE = {
    Op.X: ("x", 1, 0, True, False, False, False, 0),
    Op.Y: ("y", 1, 0, True, False, False, False, 0),
    Op.Z: ("z", 1, 0, True, False, False, True, 0),
    Op.H: ("h", 1, 0, True, False, False, False, 0),
    Op.S: ("s", 1, 0, True, False, False, True, 0),
    Op.SDG: ("sdg", 1, 0, True, False, False, True, 0),
    Op.T: ("t", 1, 0, False, True, False, True, 0),
    Op.TDG: ("tdg", 1, 0, False, True, False, True, 0),
    Op.RZ: ("rz", 1, 0, False, False, False, True, 0),
    Op.CX: ("cx", 2, 1, True, False, False, False, 0),
    Op.CZ: ("cz", 2, 2, True, False, False, True, 0),
    Op.CCX: ("ccx", 3, 2, False, False, False, False, 0),
    Op.ALLOC0: ("alloc0", 1, 0, False, False, False, False, 1),
    Op.ALLOCT: ("alloct", 1, 0, False, True, False, False, 1),
    Op.RELEASE: ("release", 1, 0, False, False, False, False, -1),
    Op.MZ: ("mz", 1, 0, False, False, True, False, 0),
    Op.MX: ("mx", 1, 0, False, False, True, False, 0),
}


def test_op_table_states_every_kind():
    assert list(OP_TABLE) == list(Op)
    for op, row in OP_TABLE.items():
        assert (op.value, op.arity, op.controls, op.clifford, op.t_type, op.measures,
                op.diagonal, op.lifetime) == row, op
        assert Op(op.value) is op
        instr = Instruction(op, tuple(range(5, 5 + op.arity)))
        # The write rule find_pairs inlines: every non-control qubit, unless diagonal.
        writes = () if op.diagonal else instr.qubits[op.controls:]
        assert frozenset(writes) == reference_writes(instr), op
        for q in instr.qubits + (0,):
            assert (q in instr.qubits[:op.controls]) == reference_reads_as_control(instr, q), (op, q)
