"""Dependency DAG construction and collapse behaviour of the reference in ``dag_reference``."""
import numpy as np
from hypothesis import given, settings, strategies as st

from tclean.ir import AND_COMPUTE, CircuitBuilder
from tclean.gadgets import and_compute

from dag_reference import build_dag
from spans_reference import flatten
from strategies import random_circuit


def test_disjoint_gates_have_no_edge():
    b = CircuitBuilder()
    b.register("a", 2)
    b.x(0)
    b.x(1)
    dag = build_dag(b.build())
    assert dag.preds[1] == set()


def test_measurement_to_fixup_edge():
    b = CircuitBuilder()
    b.register("a", 3)
    bit = b.mz(0)
    b.cz(1, 2, cond=bit)  # linked only through the classical bit
    dag = build_dag(b.build())
    assert 0 in dag.preds[1]


def test_and_span_collapses_to_one_node():
    b = CircuitBuilder()
    (x,) = b.register("x", 1)
    (y,) = b.register("y", 1)
    and_compute(b, x, y)
    c = b.build()
    (span,) = flatten(c).spans
    assert span.end - span.start == 12  # the gadget's instruction count
    dag = build_dag(c)
    assert len(dag.nodes) == 1
    assert dag.nodes[0].span.tag == AND_COMPUTE.tag


def test_topological_order_matches_instruction_order():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = random_circuit(rng)
        dag = build_dag(c)
        for nid, preds in enumerate(dag.preds):
            assert all(p < nid for p in preds)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dag_is_acyclic_property(seed):
    dag = build_dag(random_circuit(np.random.default_rng(seed)))
    seen = set()
    for nid, preds in enumerate(dag.preds):
        assert preds <= seen
        seen.add(nid)
