"""Dependency DAG over circuit instructions with gadget spans collapsed.

Nodes are instructions, except that every gadget span collapses to a single
node.  Edges chain consecutive users of each qubit and each classical bit, so
a topological order always exists and instruction order is one.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ir import Circuit, GadgetSpan


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


def build_dag(circuit: Circuit) -> Dag:
    n = len(circuit.instructions)
    node_of = list(range(n))
    span_of: dict[int, GadgetSpan] = {}
    # Collapse spans: innermost wins if spans nest (emitted spans never nest).
    for span in sorted(circuit.spans, key=lambda s: (s.start, s.end)):
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
