"""The temporary logical-AND: counts, exactness, outcome independence."""
from pathlib import Path

import numpy as np
import pytest

from tclean.gadgets import (
    AND_COMPUTE,
    AND_REVERSE_NET_T,
    AND_UNCOMPUTE,
    and_gadget_circuit,
    emit_inverse,
)
from tclean.goldens import default_corpus_dir
from tclean.ir import TEMPLATES, CircuitBuilder, CircuitError, Gadget, Op, Register, validate
from tclean.resources import count
from tclean.sim import (
    T_STATE,
    basis_equiv,
    channel_equiv,
    enumerate_branches,
    fidelity,
    run,
)
from tclean.textfmt import from_text

from spans_reference import FlatCircuit, GadgetSpan
from strategies import random_state, seeded_states
from textfmt_reference import reference_to_text

#: T-count contributors: T, T-dagger and the injected |T> state.
T_FAMILY = frozenset({Op.T, Op.TDG, Op.ALLOCT})


def and_isometry(k):
    return k | (k & 1 & k >> 1) << 2


def test_truth_table():
    c = and_gadget_circuit("compute")
    for a in (0, 1):
        for b in (0, 1):
            result = run(c, a | (b << 1), seed=0)
            out = int(np.argmax(np.abs(result.final_state)))
            assert out >> 2 == (a & b)
            assert abs(result.final_state[out]) > 1 - 1e-12


def test_compute_t_count_is_four():
    c = and_gadget_circuit("compute")
    assert count(c).t_count == AND_COMPUTE.t_count == 4
    assert count(c).meas_depth == 1


def test_compute_matches_ideal_isometry_on_superpositions():
    # One walk from a superposition of every basis input checks relative phases too.
    c = and_gadget_circuit("compute")
    res = basis_equiv(c, and_isometry)
    assert res.equivalent
    assert res.worst_fidelity >= 1 - 1e-10


def test_uncompute_has_zero_t_and_is_outcome_independent():
    c = and_gadget_circuit("roundtrip")
    (uncompute,) = [s for s in c.body if isinstance(s, Gadget) and s.template is AND_UNCOMPUTE]
    fragment = uncompute.template.instantiate(uncompute.wires, uncompute.bit)
    assert sum(1 for i in fragment if i.op in T_FAMILY) == 0
    assert count(c).t_count == 4  # all of it in the compute half

    rng = np.random.default_rng(11)
    state = random_state(2, rng)
    branches = enumerate_branches(c, state)
    assert len(branches) == 2  # the fixup measurement forks, both outcomes reachable
    for br in branches:
        assert fidelity(br.final_state, state) >= 1 - 1e-10
    assert fidelity(branches[0].final_state, branches[1].final_state) >= 1 - 1e-10


def test_forced_fixup_outcomes_agree():
    c = and_gadget_circuit("roundtrip")
    bit = next(i.result for i in c.instructions if i.result is not None)
    rng = np.random.default_rng(13)
    state = random_state(2, rng)
    out0 = run(c, state, force={bit: 0}).final_state
    out1 = run(c, state, force={bit: 1}).final_state
    assert fidelity(out0, out1) >= 1 - 1e-10


def test_roundtrip_is_identity_channel():
    c = and_gadget_circuit("roundtrip")
    res = basis_equiv(c, lambda k: k)
    assert res.equivalent


def test_reverse_variant_counts():
    c = and_gadget_circuit("reverse")
    # Raw T-type instructions: 4 in the compute, 3 in the reversal.
    assert count(c).t_count == 7
    reverse_t = count(c).t_count - AND_COMPUTE.t_count
    assert reverse_t - 1 == AND_REVERSE_NET_T == 2  # one |T> state is recovered
    assert AND_COMPUTE.t_count + AND_REVERSE_NET_T == 6  # the comparison variant's total


def test_reverse_variant_restores_state_and_recovers_t():
    c = and_gadget_circuit("reverse")

    def ideal(vec):
        return np.kron(T_STATE, vec)  # ancilla (high bit) ends in |T>

    res = channel_equiv(c, ideal, input_states=seeded_states(c, 15, seed=9))
    assert res.equivalent


def test_all_variants_validate():
    for variant in ("compute", "roundtrip", "reverse"):
        assert validate(and_gadget_circuit(variant)) is None


# -- inversion reads AND operands from the templates ---------------------------------

#: Corpus circuits with gadget records, by entry name.
CORPUS_WITH_SPANS = {
    name: circuit
    for name, circuit in ((path.parent.name, from_text(path.read_text()))
                          for path in sorted(Path(default_corpus_dir()).glob("*/circuit.qc")))
    if any(isinstance(step, Gadget) for step in circuit.body)
}


def invert(record: Gadget) -> tuple:
    """The steps emit_inverse makes of one record, in a fresh builder (its first new bit is 0)."""
    b = CircuitBuilder()
    emit_inverse(b, (record,))
    return b.fragment_since(0)


def test_corpus_has_both_and_spans():
    tags = {step.template.tag for circuit in CORPUS_WITH_SPANS.values() for step in circuit.body
            if isinstance(step, Gadget)}
    assert tags == set(TEMPLATES)


@pytest.mark.parametrize("name", CORPUS_WITH_SPANS)
def test_inverting_every_corpus_and_span_round_trips(name):
    circuit = CORPUS_WITH_SPANS[name]
    for record in circuit.body:
        if not isinstance(record, Gadget):
            continue
        fragment = record.template.instantiate(record.wires, record.bit)
        assert TEMPLATES[record.template.tag].match(fragment) == record
        (inverse,) = invert(record)
        # The inverse is the other template on the same wires, as one record.
        assert inverse.template is record.template.inverse is not record.template
        assert inverse.wires == record.wires
        assert invert(inverse) == (record._replace(bit=None if record.bit is None else 0),)


@pytest.mark.parametrize("tag", TEMPLATES)
def test_each_gadget_template_is_its_own_one_name(tag):
    # The tag is the template's key, and the two AND halves invert each other.
    template = TEMPLATES[tag]
    assert template.tag == tag and TEMPLATES[template.tag] is template
    assert template.inverse.inverse is template
    assert TEMPLATES[template.inverse.tag] is template.inverse


@pytest.mark.parametrize("tag", TEMPLATES)
def test_emit_inverse_places_the_inverse_template_on_the_same_wires(tag):
    template = TEMPLATES[tag]
    record = Gadget(template, (3, 5, 7), 4 if template.measures else None)
    want = Gadget(template.inverse, (3, 5, 7), 0 if template.inverse.measures else None)
    assert invert(record) == (want,)


@pytest.mark.parametrize("tag", TEMPLATES)
def test_inverting_an_and_span_that_is_no_template_instance_raises(tag):
    # Such a span cannot become a record, so there is nothing to invert: the
    # text that holds it is refused.
    fragment = TEMPLATES[tag].instantiate((0, 1, 2), 0)
    swapped = (fragment[1], fragment[0]) + fragment[2:]
    assert TEMPLATES[tag].match(swapped) is None
    flat = FlatCircuit(swapped, (GadgetSpan(0, len(swapped), tag),), (Register("a", (0, 1, 2)),))
    with pytest.raises(CircuitError, match="MALFORMED_GADGET_SPAN at instruction 0"):
        from_text(reference_to_text(flat))
