"""Pair matching, AND replacement, and Toffoli lowering."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tclean.ir
from tclean.gadgets import AdderSpec, and_compute, and_uncompute, cuccaro_adder, gidney_adder
from tclean.ir import (AND_COMPUTE, AND_UNCOMPUTE, TEMPLATES, Circuit, CircuitBuilder, CircuitError, Instruction, Op,
                       validate)
from tclean.oracle import compile_oracle
from tclean.resources import count
from tclean.rewrite import find_pairs, lower_ccx, replace_pairs
from tclean.sim import basis_equiv, channel_equiv, enumerate_branches, run
from tclean.textfmt import from_text

from pairs_reference import at_instructions, reference_find_pairs
from rewrite_reference import reference_lower_ccx, reference_replace_pairs
from spans_reference import GadgetSpan, flatten
from strategies import near_miss_circuit, random_circuit, random_paired_circuit, records_around_pairs, seeded_states
from textfmt_reference import reference_to_text


def canonical_pair(between=None):
    b = CircuitBuilder()
    (a,) = b.register("a", 1)
    (c,) = b.register("b", 1)
    (x,) = b.register("x", 1)
    t = b.alloc0()
    b.ccx(a, c, t)
    if between:
        between(b, a, c, t, x)
    else:
        b.cx(t, x)
    b.ccx(a, c, t)
    b.release(t)
    return b.build()


def test_canonical_pattern_matches():
    c = canonical_pair()
    (match,) = find_pairs(c)
    assert match.controls == (0, 1)
    assert match.target == 3
    assert (match.first_index, match.second_index) == (1, 3)


def test_written_control_blocks_match():
    c = canonical_pair(lambda b, a, c2, t, x: (b.cx(t, x), b.x(a)))
    assert find_pairs(c) == []


def test_hadamard_on_control_blocks_match():
    c = canonical_pair(lambda b, a, c2, t, x: b.h(a))
    assert find_pairs(c) == []


def test_diagonal_on_control_is_allowed():
    c = canonical_pair(lambda b, a, c2, t, x: (b.t(a), b.cx(t, x), b.s(c2)))
    assert len(find_pairs(c)) == 1


def test_gate_on_target_blocks_match():
    # even a diagonal on the target disqualifies: it may only be read as a control
    c = canonical_pair(lambda b, a, c2, t, x: b.s(t))
    assert find_pairs(c) == []


def test_target_not_fresh_blocks_match():
    b = CircuitBuilder()
    (a,) = b.register("a", 1)
    (c,) = b.register("b", 1)
    t = b.alloc0()
    b.x(t)  # no longer provably |0>
    b.ccx(a, c, t)
    b.ccx(a, c, t)
    b.release(t)
    assert find_pairs(b.build()) == []


def test_unreleased_target_blocks_match():
    b = CircuitBuilder()
    (a,) = b.register("a", 1)
    (c,) = b.register("b", 1)
    t = b.alloc0()
    b.ccx(a, c, t)
    b.ccx(a, c, t)
    b.output("a", (a,))
    b.output("b", (c,))
    b.output("t", (t,))
    assert find_pairs(b.build()) == []


def test_nested_ladder_matches_both_pairs():
    # two-control ladder: outer pair's target is the inner pair's control
    b = CircuitBuilder()
    cs = b.register("c", 3)
    (tgt,) = b.register("t", 1)
    u1 = b.alloc0()
    b.ccx(cs[0], cs[1], u1)
    u2 = b.alloc0()
    b.ccx(u1, cs[2], u2)
    b.cx(u2, tgt)
    b.ccx(u1, cs[2], u2)
    b.release(u2)
    b.ccx(cs[0], cs[1], u1)
    b.release(u1)
    c = b.build()
    assert len(find_pairs(c)) == 2
    replaced = replace_pairs(c)
    assert count(replaced).t_count == 8
    res = channel_equiv(replaced, lambda v: run(c, v, seed=0).final_state,
                        input_states=seeded_states(replaced, 8, seed=1))
    assert res.equivalent


def test_replacement_saves_four_t():
    c = canonical_pair()
    baseline = count(lower_ccx(c, "paired4")).t_count
    after = count(replace_pairs(c)).t_count
    assert baseline == 8
    assert after == 4
    assert baseline - after == 4


def test_replace_pairs_idempotent():
    c = canonical_pair()
    once = replace_pairs(c)
    assert replace_pairs(once) == once


def test_replace_pairs_without_matches_is_identity():
    b = CircuitBuilder()
    qs = b.register("q", 3)
    b.ccx(*qs)  # data target: no match
    c = b.build()
    assert replace_pairs(c) == c


def test_replaced_circuit_is_channel_equivalent():
    c = canonical_pair()
    replaced = replace_pairs(c)
    assert validate(replaced) is None
    res = channel_equiv(replaced, lambda v: run(c, v, seed=0).final_state,
                        input_states=seeded_states(replaced, 12, seed=2))
    assert res.equivalent


def test_textbook7_is_exact_toffoli():
    b = CircuitBuilder()
    qs = b.register("q", 3)
    b.ccx(*qs)
    macro = b.build()
    lowered = lower_ccx(macro, "textbook7")
    assert count(lowered).t_count == 7
    assert count(lowered).ccx_count == 0
    res = channel_equiv(lowered, lambda v: run(macro, v, seed=0).final_state,
                        input_states=seeded_states(lowered, 12, seed=3))
    assert res.equivalent and res.worst_fidelity >= 1 - 1e-12


def test_paired4_costs_eight_per_pair():
    lowered = lower_ccx(canonical_pair(), "paired4")
    assert count(lowered).t_count == 8


def test_paired4_unpaired_falls_back_to_textbook():
    b = CircuitBuilder()
    qs = b.register("q", 3)
    b.ccx(*qs)
    assert count(lower_ccx(b.build(), "paired4")).t_count == 7


def test_paired4_pair_is_channel_exact():
    c = canonical_pair()
    lowered = lower_ccx(c, "paired4")
    res = channel_equiv(lowered, lambda v: run(c, v, seed=0).final_state,
                        input_states=seeded_states(lowered, 12, seed=4))
    assert res.equivalent


@pytest.mark.parametrize("n", range(2, 7))
def test_cuccaro_pass_halves_leading_term(n):
    c = cuccaro_adder(AdderSpec(n))
    assert count(lower_ccx(c, "paired4")).t_count == 8 * n - 8
    replaced = replace_pairs(c)
    assert count(replaced).t_count == 4 * n - 4
    assert count(replaced).t_count == count(gidney_adder(AdderSpec(n))).t_count


@pytest.mark.parametrize("n", (2, 3))
def test_cuccaro_pass_channel_equivalent_all_branches(n):
    c = cuccaro_adder(AdderSpec(n))
    replaced = replace_pairs(c)
    res = channel_equiv(replaced, lambda v: run(c, v, seed=0).final_state,
                        input_states=seeded_states(replaced, 8, seed=5))
    assert res.equivalent


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_t_count_never_increases_under_pass(seed):
    c = random_circuit(np.random.default_rng(seed))
    baseline = count(lower_ccx(c, "paired4")).t_count
    after = count(lower_ccx(replace_pairs(c), "paired4")).t_count
    assert after <= baseline


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_paired_circuits_replace_equivalently(seed):
    c = random_paired_circuit(np.random.default_rng(seed))
    matches = find_pairs(c)
    assert len(matches) == sum(1 for i in c.instructions if i.op is Op.CCX) // 2
    replaced = replace_pairs(c)
    assert validate(replaced) is None
    assert replace_pairs(replaced) == replaced
    res = channel_equiv(replaced, lambda v: run(c, v, seed=0).final_state,
                        input_states=seeded_states(replaced, 3, seed=seed % 1000))
    assert res.equivalent


def test_lower_ccx_rejects_unknown_mode_before_validating():
    # An invalid circuit cannot reach a pass: constructing it raises.
    with pytest.raises(CircuitError):
        Circuit(body=(Instruction(Op.X, (0,)),))
    with pytest.raises(ValueError, match="unknown lowering mode 'bogus'"):
        lower_ccx(canonical_pair(), "bogus")


def test_passes_validate_input_once(monkeypatch):
    # A circuit is validated once, when it is made; no pass checks its input.
    c = cuccaro_adder(AdderSpec(4))
    pair = canonical_pair()
    calls = []
    real = tclean.ir._check  # the constructor's validating walk
    monkeypatch.setattr(tclean.ir, "_check",
                        lambda body, *registers: calls.append(body) or real(body, *registers))
    replace_pairs(c)
    assert len(calls) == 1  # the build after the only rewriting round
    calls.clear()
    lower_ccx(c, "paired4")
    assert len(calls) == 1  # the build of the lowered circuit
    calls.clear()
    find_pairs(c)
    count(c)
    run(c, 0)
    enumerate_branches(pair, 0)
    channel_equiv(pair, lambda v: run(pair, v).final_state, input_states=[0])
    basis_equiv(pair, lambda k: k)
    assert calls == []


GENERATORS = {
    "random": random_circuit,
    "paired": random_paired_circuit,
    "near_miss": near_miss_circuit,
}


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32 - 1))
def test_matcher_agrees_with_forward_scan_reference(kind, seed):
    c = GENERATORS[kind](np.random.default_rng(seed))
    assert at_instructions(c, find_pairs(c)) == reference_find_pairs(c)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_near_miss_rules_each_block_exactly_their_pair(seed):
    # Unbroken planted pairs all match and every broken one is blocked, so
    # the differential test above sees both outcomes for every rule.
    clean = near_miss_circuit(np.random.default_rng(seed), break_prob=0.0)
    n_ccx = sum(1 for i in clean.instructions if i.op is Op.CCX)
    assert 2 * len(find_pairs(clean)) == n_ccx
    broken = near_miss_circuit(np.random.default_rng(seed), break_prob=1.0)
    assert find_pairs(broken) == []


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32 - 1))
def test_one_round_leaves_no_pair(kind, seed):
    # A replacement adds no CCX, and on its own wires only writes and
    # non-control uses, so a pair blocked before the round stays blocked.
    c = GENERATORS[kind](np.random.default_rng(seed))
    assert find_pairs(replace_pairs(c)) == []


@pytest.mark.parametrize("carry_out", (False, True))
@pytest.mark.parametrize("n", range(1, 13))
def test_one_round_leaves_no_pair_in_cuccaro_adders(n, carry_out):
    c = cuccaro_adder(AdderSpec(n, carry_out=carry_out))
    assert find_pairs(replace_pairs(c)) == []


CCX_ORACLE_EXPRS = ["x0 & x1", "x0 & (x1 | x2)", "(x0 ^ x1) & x2", "!x0 & (x1 | (x2 & x3))"]


@pytest.mark.parametrize("expr", CCX_ORACLE_EXPRS)
def test_one_round_leaves_no_pair_in_ccx_oracles(expr):
    c = compile_oracle(expr, "ccx")
    assert find_pairs(c)
    assert find_pairs(replace_pairs(c)) == []


#: A control released and allocated again between the two CCX: both are writes.
CONTROL_REALLOCATED = """#input a 0
alloc0 1
alloc0 2
ccx 0 1 2
release 1
alloc0 1
ccx 0 1 2
release 2
release 1
"""


def test_matcher_agrees_with_forward_scan_reference_on_structured_circuits():
    circuits = [cuccaro_adder(AdderSpec(n, carry_out=carry_out))
                for n in range(1, 41) for carry_out in (False, True)]
    circuits += [compile_oracle(expr, "ccx") for expr in CCX_ORACLE_EXPRS]
    circuits.append(from_text(CONTROL_REALLOCATED))
    for c in circuits:
        assert at_instructions(c, find_pairs(c)) == reference_find_pairs(c)
    assert find_pairs(circuits[-1]) == []
    # The same circuit with the control left live between the pair matches.
    kept = from_text(CONTROL_REALLOCATED.replace("release 1\nalloc0 1\n", ""))
    assert len(find_pairs(kept)) == 1 and at_instructions(kept, find_pairs(kept)) == reference_find_pairs(kept)


@pytest.mark.parametrize("body", [
    "alloc0 3\nccx 0 1 3\ncx 3 2\nccx 0 1 3\nrelease 3\n",  # the canonical pair
    "x 1048575\n",  # no CCX at all
])
def test_find_pairs_memory_does_not_grow_with_the_largest_id(body):
    # Ids up to 2^20 - 1 parse; the matcher indexes only CCX wires, not every id.
    c = from_text("#input a 0\n#input b 1\n#input x 2 1048575\n" + body)
    tracemalloc.start()
    try:
        pairs = find_pairs(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == body.count("ccx") // 2
    assert peak < 1 << 20


@pytest.mark.parametrize("carry_out", (False, True))
def test_cuccaro_rewrite_at_n_1024(carry_out):
    n = 1024
    c = cuccaro_adder(AdderSpec(n, carry_out=carry_out))
    pairs = n if carry_out else n - 1
    assert len(find_pairs(c)) == pairs
    assert count(replace_pairs(c)).t_count == 4 * pairs
    assert count(lower_ccx(c, "paired4")).t_count == 8 * pairs
    small = cuccaro_adder(AdderSpec(256, carry_out=carry_out))
    assert at_instructions(small, find_pairs(small)) == reference_find_pairs(small)


# -- the splice against the replaying reference ------------------------------------

LOWERINGS = ("textbook7", "paired4")


def outcome(rewrite, circuit, *args):
    """The pass's output circuit, or the violation its output circuit raised."""
    try:
        return rewrite(circuit, *args)
    except CircuitError as exc:
        return exc.violation


def assert_passes_agree_with_reference(c):
    for got, want in [(outcome(replace_pairs, c), outcome(reference_replace_pairs, c))] + [
            (outcome(lower_ccx, c, mode), outcome(reference_lower_ccx, c, mode)) for mode in LOWERINGS]:
        if isinstance(want, Circuit):
            assert got.instructions == want.instructions
            assert got.body == want.body
        assert got == want  # body, ids, registers or the violation


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32 - 1))
def test_splice_agrees_with_replay_reference(kind, seed):
    assert_passes_agree_with_reference(GENERATORS[kind](np.random.default_rng(seed)))


@pytest.mark.parametrize("carry_out", (False, True))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 32, 91, 256))
def test_splice_agrees_with_replay_reference_on_cuccaro_adders(n, carry_out):
    assert_passes_agree_with_reference(cuccaro_adder(AdderSpec(n, carry_out=carry_out)))


def spans_beside_a_pair() -> Circuit:
    """A replaceable pair with an AND span ending at its alloc0 and one starting after its release.

    Indices: AND compute 0-11, alloc0 12, CCX 13, cx 14, CCX 15, release 16, AND erase 17-19.
    """
    b = CircuitBuilder()
    a, c, x = (b.register(name, 1)[0] for name in "abx")
    anc = and_compute(b, a, x)
    t = b.alloc0()
    b.ccx(a, c, t)
    b.cx(t, x)
    b.ccx(c, a, t)
    b.release(t)
    and_uncompute(b, a, x, anc)
    return b.build()


# Each extra span holds instructions of the pair or the gate between them,
# which no template makes, so the text that holds it is refused.  Before
# records, the splice shifted such spans and the constructor refused the
# ones it emptied or that shared an instruction with a new span.
@pytest.mark.parametrize("extra", [
    None,
    (12, 13),  # the deleted alloc0 alone: empty after the splice
    (12, 14),  # alloc0 and the first CCX: the same range as the new compute span
    (13, 14),  # the first CCX alone: likewise
    (13, 15),  # the first CCX and the gate after it: encloses the new compute span
    (14, 15),  # the gate between the Toffolis: valid, beside both new spans
    (15, 17),  # the second CCX and the release: the same range as the new erase span
    (16, 17),  # the deleted release alone
    (12, 17),  # the whole pair
    (14, 16),  # the gate between and the second CCX: encloses the new erase span
    (14, 17),  # the same and the release: likewise
])
def test_splice_shifts_spans_beside_and_around_a_pair(extra):
    c = spans_beside_a_pair()
    assert len(find_pairs(c)) == 1
    if extra is not None:
        flat = flatten(c)
        spanned = dataclasses.replace(flat, spans=flat.spans + (GadgetSpan(*extra, AND_COMPUTE.tag),))
        with pytest.raises(CircuitError, match="^MALFORMED_GADGET_SPAN"):
            from_text(reference_to_text(spanned))
        return
    assert_passes_agree_with_reference(c)
    starts = [span.start for span in flatten(replace_pairs(c)).spans]
    assert starts == [0, 12, 25, 28]  # AND compute, new compute, new erase, AND erase


# -- gadget records around pairs ------------------------------------------------------


@pytest.mark.parametrize("template", TEMPLATES.values(), ids=lambda t: t.tag)
def test_gadget_templates_meet_what_the_matcher_assumes_of_a_record(template):
    # find_pairs steps over a record as one step, which holds only where its
    # instructions could neither open nor advance a pair nor end one as a match.
    assert Op.CCX not in template.ops and Op.ALLOC0 not in template.ops
    for w in range(template.n_wires):
        first = next(op for op, slots, _ in template.lines if w in slots)
        assert first is not Op.RELEASE


def pair_beside_an_and(between) -> Circuit:
    """A pair on controls (a, b) with an AND of (a, x) computed before it.

    Body: AND compute 0, alloc0 1, CCX 2, ``between(b, a, c, t, x, anc)``,
    CCX, release.
    """
    b = CircuitBuilder()
    a, c, x = (b.register(name, 1)[0] for name in "abx")
    anc = and_compute(b, a, x)
    t = b.alloc0()
    b.ccx(a, c, t)
    between(b, a, c, t, x, anc)
    b.ccx(a, c, t)
    b.release(t)
    return b.build()


@pytest.mark.parametrize("between", [
    lambda b, a, c, t, x, anc: and_uncompute(b, a, x, anc),  # its fixup CZ reads the control a
    lambda b, a, c, t, x, anc: b.emit_template(AND_UNCOMPUTE, (t, x, anc)),  # its fixup CZ reads the target
], ids=["control", "target"])
def test_an_erasure_that_only_reads_a_pair_wire_keeps_the_pair(between):
    c = pair_beside_an_and(between)
    (match,) = find_pairs(c)
    assert (match.alloc_index, match.first_index, match.second_index, match.release_index) == (1, 2, 4, 5)
    assert at_instructions(c, [match]) == reference_find_pairs(c)
    assert reference_find_pairs(c)[0].first_index == 13  # past the 12 instructions of the record
    assert_passes_agree_with_reference(c)


def test_a_pair_around_an_erasure_is_replaced_equivalently():
    c = pair_beside_an_and(lambda b, a, c, t, x, anc: and_uncompute(b, a, x, anc))
    replaced = replace_pairs(c)
    assert count(replaced).t_count == 8  # the AND before and the one that replaced the pair
    res = channel_equiv(replaced, lambda v: run(c, v, seed=0).final_state,
                        input_states=seeded_states(replaced, 4, seed=3))
    assert res.equivalent


@pytest.mark.parametrize("between", [
    lambda b, a, c, t, x, anc: and_compute(b, c, x),  # writes the control b
    lambda b, a, c, t, x, anc: and_compute(b, t, x),  # writes the target
], ids=["control", "target"])
def test_an_and_compute_on_a_pair_wire_blocks_the_pair(between):
    c = pair_beside_an_and(between)
    assert find_pairs(c) == reference_find_pairs(c) == []


@pytest.mark.parametrize("where", ["before-the-first", "after-the-second"])
def test_a_record_on_the_target_outside_the_pair_blocks_it(where):
    # Only the pair's own Toffolis may follow the alloc0 and precede the release.
    b = CircuitBuilder()
    a, c, x = (b.register(name, 1)[0] for name in "abx")
    anc = and_compute(b, a, x)
    t = b.alloc0()
    if where == "before-the-first":
        b.emit_template(AND_UNCOMPUTE, (t, x, anc))
    b.ccx(a, c, t)
    b.ccx(a, c, t)
    if where == "after-the-second":
        b.emit_template(AND_UNCOMPUTE, (t, x, anc))
    b.release(t)
    circuit = b.build()
    assert find_pairs(circuit) == reference_find_pairs(circuit) == []


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_records_around_pairs_agree_with_both_references(seed):
    c = records_around_pairs(np.random.default_rng(seed))
    assert at_instructions(c, find_pairs(c)) == reference_find_pairs(c)
    assert_passes_agree_with_reference(c)
    assert find_pairs(replace_pairs(c)) == []


def test_records_around_pairs_keep_and_block_pairs():
    # The property test above sees a record between a matched pair read its
    # target and read a control, and an AND compute on a control block one.
    seen = set()
    for seed in range(100):
        c = records_around_pairs(np.random.default_rng(seed))
        matched = {m.first_index: m for m in find_pairs(c)}
        ccx = [s for s, step in enumerate(c.body) if step[0] is Op.CCX]
        for first, second in zip(ccx[::2], ccx[1::2]):  # the generator plants one pair after another
            controls = set(c.body[first].qubits[:2])
            for step in c.body[first + 1:second]:
                if step[0] is AND_UNCOMPUTE and first in matched:
                    seen.add("reads target" if matched[first].target in step.wires
                             else "reads control" if controls & set(step.wires[:2]) else "erasure")
                if step[0] is AND_COMPUTE and controls & set(step.wires[:2]):
                    assert first not in matched
                    seen.add("compute blocks")
    assert seen >= {"reads target", "reads control", "compute blocks"}
