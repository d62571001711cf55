"""The dependency-DAG ``tclean.resources.count`` used before its one-pass walk, kept as the reference for tests.

It builds one node per instruction of the flat representation of
``spans_reference``, collapses every gadget span to a single node, links
consecutive users of each qubit and each classical bit, and reads
measurement depth off the longest weighted path.  It is slower, but
each rule reads directly off the graph.  The differential tests require the
production ``count`` to return exactly its report.
"""
from __future__ import annotations

from dataclasses import dataclass

from tclean.ir import Circuit, Op
from tclean.resources import ResourceReport

from spans_reference import FlatCircuit, GadgetSpan, flatten

#: T-count contributors: T, T-dagger and the injected |T> state.
T_FAMILY = frozenset({Op.T, Op.TDG, Op.ALLOCT})
MEASUREMENTS = frozenset({Op.MZ, Op.MX})


@dataclass(frozen=True)
class DagNode:
    id: int
    indices: tuple[int, ...]
    span: GadgetSpan | None


@dataclass
class Dag:
    nodes: list[DagNode]
    preds: list[set[int]]  # node id -> ids of the earlier nodes it depends on
    node_of: list[int]  # instruction index -> node id

    def finish_layers(self, weight: dict[int, int]) -> list[int]:
        """Longest weighted path ending at each node (inclusive of the node)."""
        finish = [0] * len(self.nodes)
        # Node ids are assigned in first-instruction order, which is topological.
        for nid, preds in enumerate(self.preds):
            finish[nid] = max((finish[p] for p in preds), default=0) + weight.get(nid, 0)
        return finish


def build_dag(circuit: Circuit | FlatCircuit) -> Dag:
    if isinstance(circuit, Circuit):
        circuit = flatten(circuit)
    n = len(circuit.instructions)
    node_of = list(range(n))
    span_of: dict[int, GadgetSpan] = {}
    for span in circuit.spans:  # each span collapses to the node of its first instruction
        for i in range(span.start, span.end):
            node_of[i] = span.start
            span_of[span.start] = span

    nodes: list[DagNode] = []
    remap: dict[int, int] = {}
    grouped: dict[int, list[int]] = {}
    for i in range(n):
        grouped.setdefault(node_of[i], []).append(i)
    for rep in sorted(grouped):
        remap[rep] = len(nodes)
        nodes.append(DagNode(len(nodes), tuple(grouped[rep]), span_of.get(rep)))
    node_id = [remap[node_of[i]] for i in range(n)]

    preds: list[set[int]] = [set() for _ in nodes]

    def link(a: int, b: int) -> None:
        if a != b:
            preds[b].add(a)

    last_qubit_user: dict[int, int] = {}
    last_bit_user: dict[int, int] = {}
    for i, instr in enumerate(circuit.instructions):
        nid = node_id[i]
        for q in instr.qubits:
            if q in last_qubit_user:
                link(last_qubit_user[q], nid)
            last_qubit_user[q] = nid
        bits = [b for b in (instr.result, instr.cond) if b is not None]
        for b in bits:
            if b in last_bit_user:
                link(last_bit_user[b], nid)
            last_bit_user[b] = nid

    return Dag(nodes, preds, node_id)


def reference_count(circuit: Circuit | FlatCircuit) -> ResourceReport:
    """Measure a circuit.  Unlowered CCX macros are reported, not T-counted."""
    if isinstance(circuit, Circuit):
        circuit = flatten(circuit)
    dag = build_dag(circuit)

    weights: dict[int, int] = {}
    for node in dag.nodes:
        if node.span is not None:
            weights[node.id] = 1
            continue
        op = circuit.instructions[node.indices[0]].op
        weights[node.id] = 1 if (op in T_FAMILY or op in MEASUREMENTS) else 0
    finish = dag.finish_layers(weights)
    meas_depth = max(finish, default=0)

    t_count = 0
    ccx_count = 0
    rotation_bucket = 0
    live_ancillae: set[int] = set()
    ancilla_max = 0
    ancilla_depth = 0
    alloc_layer: dict[int, int] = {}
    for i, instr in enumerate(circuit.instructions):
        op = instr.op
        if op in T_FAMILY:
            t_count += 1
        elif op is Op.CCX:
            ccx_count += 1
        elif op is Op.RZ:
            rotation_bucket += 1
        if op in (Op.ALLOC0, Op.ALLOCT):
            q = instr.qubits[0]
            live_ancillae.add(q)
            ancilla_max = max(ancilla_max, len(live_ancillae))
            alloc_layer[q] = finish[dag.node_of[i]]
        elif op is Op.RELEASE:
            q = instr.qubits[0]
            if q in live_ancillae:
                live_ancillae.discard(q)
                ancilla_depth += finish[dag.node_of[i]] - alloc_layer.pop(q) + 1
    for q in live_ancillae:
        ancilla_depth += meas_depth - alloc_layer[q] + 1

    return ResourceReport(
        t_count=t_count,
        ccx_count=ccx_count,
        meas_depth=meas_depth,
        ancilla_max=ancilla_max,
        ancilla_depth=ancilla_depth,
        rotation_bucket=rotation_bucket,
    )
