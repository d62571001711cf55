"""Counting, the opportunity-cost model, and the crossover solver."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tclean.constructions import CONSTRUCTIONS
from tclean.gadgets import AdderSpec, and_gadget_circuit, cuccaro_adder, gidney_adder
from tclean.goldens import default_corpus_dir
from tclean.ir import MAX_INDEX, TEMPLATES, CircuitBuilder, CircuitError
from tclean.resources import (
    CostModel,
    NoCrossoverError,
    count,
    crossover,
    effective_t,
    effective_t_formula,
    hybrid_cutoff,
    serialize_report,
)
from tclean.rewrite import lower_ccx, replace_pairs
from tclean.textfmt import from_text

from dag_reference import reference_count
from spans_reference import GadgetSpan, flatten, malformed_spans
from strategies import near_miss_circuit, random_circuit, random_paired_circuit
from textfmt_reference import reference_to_text


def test_five_bit_adder_numbers():
    r = count(gidney_adder(AdderSpec(5)))
    assert r.t_count == 16
    assert r.meas_depth == 8


def test_building_block_numbers():
    r = count(gidney_adder(AdderSpec(1, carry_out=True)))
    assert r.t_count == 4
    assert r.meas_depth == 2


def test_clifford_only_counts():
    b = CircuitBuilder()
    qs = b.register("q", 2)
    b.h(qs[0])
    b.cx(qs[0], qs[1])
    b.s(qs[1])
    b.mz(qs[0])
    r = count(b.build())
    assert r.t_count == 0
    assert r.meas_depth == 1  # only the measurement carries depth


def test_unlowered_ccx_reported_not_t_counted():
    b = CircuitBuilder()
    qs = b.register("q", 3)
    b.ccx(*qs)
    r = count(b.build())
    assert r.ccx_count == 1
    assert r.t_count == 0


def test_rotation_bucket_counts_rz():
    b = CircuitBuilder()
    (q,) = b.register("q", 1)
    b.rz(0.1, q)
    b.rz(0.2, q)
    assert count(b.build()).rotation_bucket == 2


def test_serialize_report_format():
    text = serialize_report(count(gidney_adder(AdderSpec(5))))
    assert text == (
        "t_count 16\n"
        "ccx_count 0\n"
        "meas_depth 8\n"
        "ancilla_max 4\n"
        "ancilla_depth 20\n"
        "rotation_bucket 0\n"
        "effective_t 16.041667\n"
    )


def test_crossover_at_1920():
    model = CostModel()
    n = crossover(lambda n: effective_t_formula(n, "temporary-and", model),
                  lambda n: effective_t_formula(n, "cuccaro", model))
    assert n == 1920
    # strict inequality first holds one step later
    assert effective_t_formula(1920, "temporary-and", model) == effective_t_formula(1920, "cuccaro", model)
    assert effective_t_formula(1921, "temporary-and", model) > effective_t_formula(1921, "cuccaro", model)


def test_crossover_identical_functions():
    with pytest.raises(NoCrossoverError):
        crossover(lambda n: 8.0 * n, lambda n: 8.0 * n, bound=10**6)


def test_crossover_against_log_depth_cost():
    # A log-depth adder's opportunity cost grows like n*lg(n): a finite
    # crossover against the quadratic ripple cost must exist.
    model = CostModel()
    ripple = lambda n: effective_t_formula(n, "temporary-and", model)
    log_depth = lambda n: 12.0 * n + n * math.log2(n) / 480.0
    n = crossover(ripple, log_depth, bound=1 << 22)
    assert ripple(n - 1) <= log_depth(n - 1) or n == 1
    assert ripple(n + 1) > log_depth(n + 1)


def test_hybrid_cutoff_values():
    assert hybrid_cutoff(CostModel()) == 960
    assert hybrid_cutoff(CostModel(idle_factor=6)) == 5760
    assert hybrid_cutoff(CostModel(t_state_volume=math.inf)) == math.inf
    # cheaper |T> states pull the cutoff down
    assert hybrid_cutoff(CostModel(t_state_volume=480)) == 480


def test_effective_t_closed_forms():
    model = CostModel()
    assert effective_t_formula(1920, "temporary-and", model) == pytest.approx(1920**2 / 480 + 4 * 1920)
    assert effective_t_formula(100, "cuccaro", model) == 800
    idle = CostModel(idle_factor=6)
    assert effective_t_formula(240, "temporary-and", idle) == pytest.approx(240**2 / 2880 + 960)


def test_effective_t_monotone_in_inputs():
    import dataclasses

    base = count(gidney_adder(AdderSpec(6)))
    more_t = dataclasses.replace(base, t_count=base.t_count + 1)
    more_depth = dataclasses.replace(base, ancilla_depth=base.ancilla_depth + 5)
    assert effective_t(more_t) > effective_t(base)
    assert effective_t(more_depth) > effective_t(base)


def test_cost_model_rejects_nonpositive():
    with pytest.raises(ValueError):
        CostModel(t_state_volume=0)


@pytest.mark.parametrize("field, value", [("t_state_volume", math.nan), ("idle_factor", math.nan)])
def test_cost_model_rejects_nan_constants(field, value):
    with pytest.raises(ValueError, match="positive numbers"):
        CostModel(**{field: value})


def test_meas_depth_of_disjoint_parts_is_max():
    b1 = CircuitBuilder()
    (q,) = b1.register("u", 1)
    b1.t(q)
    b1.t(q)
    c1 = b1.build()

    b2 = CircuitBuilder()
    qs = b2.register("v", 3)
    b2.t(qs[0])
    c2 = b2.build()

    b = CircuitBuilder()
    (q,) = b.register("u", 1)
    qs = b.register("v", 3)
    b.t(q)
    b.t(q)
    b.t(qs[0])
    combo = b.build()
    assert count(combo).meas_depth == max(count(c1).meas_depth, count(c2).meas_depth) == 2


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_report_fields_nonnegative(seed):
    r = count(random_circuit(np.random.default_rng(seed)))
    assert min(r.t_count, r.ccx_count, r.meas_depth, r.ancilla_max,
               r.ancilla_depth, r.rotation_bucket) >= 0


# -- spans and the DAG reference -------------------------------------------------------

GENERATORS = {
    "random": random_circuit,
    "paired": random_paired_circuit,
    "near_miss": near_miss_circuit,
}


@settings(max_examples=2000, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32 - 1))
def test_count_agrees_with_dag_reference_on_random_circuits(kind, seed):
    c = GENERATORS[kind](np.random.default_rng(seed))
    assert count(c) == reference_count(c)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32 - 1), st.data())
def test_count_agrees_with_dag_reference_on_arbitrary_flat_spans(kind, seed, data):
    # Spans at random cuts, beside the generator's own spans that they leave
    # whole.  The text that holds a span no template makes is refused as
    # malformed; the text whose spans are all template instances parses into
    # records, and count agrees with the DAG reference on it.
    flat = flatten(GENERATORS[kind](np.random.default_rng(seed)))
    cuts = sorted(data.draw(st.sets(st.integers(0, len(flat.instructions)), max_size=12)))
    spans = [GadgetSpan(start, end, data.draw(st.sampled_from(list(TEMPLATES))))
             for start, end in zip(cuts[::2], cuts[1::2])]
    spans += [old for old in flat.spans if all(old.end <= start or end <= old.start for start, end, _ in spans)]
    spanned = dataclasses.replace(flat, spans=tuple(spans))
    if malformed_spans(spanned):
        with pytest.raises(CircuitError, match="^MALFORMED_GADGET_SPAN"):
            from_text(reference_to_text(spanned))
    else:
        assert count(from_text(reference_to_text(spanned))) == reference_count(spanned)


@pytest.mark.parametrize("kind", sorted(CONSTRUCTIONS))
def test_count_agrees_with_dag_reference_on_constructions(kind):
    for n in range(1, 12):
        for carry_out in (False, True):
            c = CONSTRUCTIONS[kind].build(n, carry_out)
            assert count(c) == reference_count(c), (n, carry_out)


def test_count_agrees_with_dag_reference_on_rewrites():
    for n in range(1, 12):
        for carry_out in (False, True):
            c = cuccaro_adder(AdderSpec(n, carry_out=carry_out))
            for rewritten in (replace_pairs(c), lower_ccx(c, "paired4"), lower_ccx(c)):
                assert count(rewritten) == reference_count(rewritten), (n, carry_out)


def test_count_agrees_with_dag_reference_on_corpus():
    paths = sorted(default_corpus_dir().glob("*/circuit.qc"))
    assert paths
    for path in paths:
        c = from_text(path.read_text())
        assert count(c) == reference_count(c), path.parent.name


def test_a_span_waits_on_a_condition_bit_measured_before_it():
    # A span can no longer read a bit measured before it: its one condition
    # is on its own measurement, and a span of a bare fixup is refused.  The
    # erasure record lands one layer after its wires (qubit 2 is at layer 2).
    bare = "#input a 0 1 2\nt 2\nt 2\nmz 2 -> c0\n? c0 : cz 0 1\n"
    spanned = bare.replace("? c0", "#begin and_uncompute\n? c0") + "#end and_uncompute\n"
    assert count(from_text(bare)).meas_depth == 3
    with pytest.raises(CircuitError, match="^MALFORMED_GADGET_SPAN at instruction 3"):
        from_text(spanned)
    erased = ("#input a 0 1 2\n#output a 0 1\nt 2\nt 2\n#begin and_uncompute\nmx 2 -> c0\n"
              "? c0 : cz 0 1\nrelease 2\n#end and_uncompute\n")
    assert count(from_text(erased)).meas_depth == reference_count(from_text(erased)).meas_depth == 3


def test_a_held_ancilla_is_priced_whatever_id_it_reuses():
    # The ancilla reuses released input 0 in one circuit and takes fresh id 2
    # in the other; it lives from layer 0 to the end either way.
    head = "#input a 0\n#input b 1\n#output b 1\nrelease 0\n"
    reused = from_text(head + "alloc0 0\nt 0\nt 1\n")
    fresh = from_text(head + "alloc0 2\nt 2\nt 1\n")
    for measure in (count, reference_count):
        r, f = measure(reused), measure(fresh)
        assert r.ancilla_depth == f.ancilla_depth == 2
        assert effective_t(r) == effective_t(f)


def test_count_keeps_state_only_for_the_ids_a_circuit_names():
    # Three steps on the largest qubit and bit ids: per-wire state sized by
    # the largest ids would take megabytes; maps over the ids named take a
    # few hundred bytes.
    top = MAX_INDEX
    circuit = from_text(f"#input a {top}\nx {top}\nmz {top} -> c{top}\n? c{top} : x {top}\n")
    tracemalloc.start()
    try:
        report = count(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.meas_depth == 1
    assert peak < 64 * 1024
