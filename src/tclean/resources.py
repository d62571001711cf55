"""Resource accounting: T-count, measurement depth, and ancilla opportunity cost.

Measurement depth is the longest weighted chain of instructions linked
through shared qubit and classical-bit wires.  Bare measurements and bare
T-type instructions each weigh 1 and Clifford operations weigh 0; a gadget
record is one unit event on every wire it touches (a T gate applied by
teleportation is one measurement event, which is why a whole AND
computation weighs 1).

Ancillae are priced as opportunity cost: a held ancilla is surface-code area
that is not distilling |T> states.  With the default constants (960 spacetime
units per distilled |T>, 2 units per ancilla per depth layer) one ancilla
held for one layer costs 1/480 of a |T> state.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from .ir import Circuit, Gadget, Op


@dataclass(frozen=True)
class ResourceReport:
    t_count: int
    ccx_count: int
    meas_depth: int
    ancilla_max: int
    ancilla_depth: int
    rotation_bucket: int


#: Surface-code spacetime volume one held ancilla takes per measurement-depth layer.
ANCILLA_VOLUME_PER_DEPTH = 2.0


@dataclass(frozen=True)
class CostModel:
    """Constants converting held-ancilla time into effective |T>-state cost."""

    t_state_volume: float = 960.0
    idle_factor: float = 1.0

    def __post_init__(self) -> None:
        # An infinite |T> volume or idle factor is the free-ancilla limit, where
        # hybrid_cutoff is infinite.  NaN fails every comparison, so `c > 0`
        # rejects it along with nonpositive values.
        constants = (self.t_state_volume, self.idle_factor)
        if not all(c > 0 for c in constants):
            raise ValueError(f"cost model constants must be positive numbers; got {constants}")

    @property
    def cost_per_ancilla_depth(self) -> float:
        """|T> states of opportunity cost per ancilla per measurement-depth layer."""
        return ANCILLA_VOLUME_PER_DEPTH / (self.t_state_volume * self.idle_factor)


#: Each kind's weight in measurement depth outside a record: 1 for T-type and measuring kinds.
_DEPTH_WEIGHT = {op: int(op.t_type or op.measures) for op in Op}


class NoCrossoverError(Exception):
    """NO_CROSSOVER: the first cost function never exceeds the second within the bound."""


def count(circuit: Circuit) -> ResourceReport:
    """Measure a circuit in one forward walk over its steps.  Unlowered CCX macros are reported, not T-counted.

    Every qubit and classical bit keeps the layer its last user finished at,
    and a released id keeps its layer for its next occupant.  Only a bit's
    readers wait on it: a bit is written once, before any read.  A circuit
    names at most ``len(circuit)`` ids beyond its inputs' and writes at most
    ``len(circuit)`` bits, so the state is a list up to the largest id where
    that is no longer, and a map over the ids named where the ids are
    sparser.  A gadget record finishes one layer after the latest of its
    wires (its bit is its own, written inside it), and its T-count,
    allocations (``born``) and releases (``dies``) are its template's, all at that layer.
    """
    qubit_layer: list[int] | defaultdict[int, int] = (
        [0] * circuit.n_qubits if circuit.n_qubits <= len(circuit) + len(circuit.input_qubits())
        else defaultdict(int))
    bit_layer: list[int] | dict[int, int] = [0] * circuit.n_classbits if circuit.n_classbits <= len(circuit) else {}
    layer_of = qubit_layer.__getitem__

    meas_depth = t_count = ccx_count = rotation_bucket = 0
    live_ancillae: set[int] = set()
    ancilla_max = 0
    ancilla_depth = 0
    alloc_layer: dict[int, int] = {}
    ccx, rz, gadget = Op.CCX, Op.RZ, Gadget  # an Op member read costs ~100 ns
    weight = _DEPTH_WEIGHT
    for step in circuit.body:
        if step.__class__ is gadget:
            template, qubits, result = step
            layer = max(map(layer_of, qubits)) + 1
            for q in qubits:
                qubit_layer[q] = layer
            if result is not None:
                bit_layer[result] = layer
            if layer > meas_depth:
                meas_depth = layer
            t_count += template.t_count
            ccx_count += template.ccx_count
            for q in template.born(qubits):
                live_ancillae.add(q)
                ancilla_max = max(ancilla_max, len(live_ancillae))
                alloc_layer[q] = layer
            for q in template.dies(qubits):
                if q in live_ancillae:
                    live_ancillae.discard(q)
                    ancilla_depth += layer - alloc_layer.pop(q) + 1
            continue
        op, qubits, _, result, cond = step
        layer = qubit_layer[qubits[0]] if len(qubits) == 1 else max(map(layer_of, qubits))
        if cond is not None and bit_layer[cond] > layer:
            layer = bit_layer[cond]
        layer += weight[op]
        for q in qubits:
            qubit_layer[q] = layer
        if result is not None:
            bit_layer[result] = layer
        if cond is not None:
            bit_layer[cond] = layer
        if layer > meas_depth:
            meas_depth = layer

        if op.t_type:
            t_count += 1
        elif op is ccx:
            ccx_count += 1
        elif op is rz:
            rotation_bucket += 1
        if op.lifetime > 0:
            q = qubits[0]
            live_ancillae.add(q)
            ancilla_max = max(ancilla_max, len(live_ancillae))
            alloc_layer[q] = layer
        elif op.lifetime < 0:
            q = qubits[0]
            if q in live_ancillae:
                live_ancillae.discard(q)
                ancilla_depth += layer - alloc_layer.pop(q) + 1
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


def effective_t(report: ResourceReport, model: CostModel = CostModel()) -> float:
    """Measured T-count plus the ancilla-depth opportunity cost."""
    return report.t_count + report.ancilla_depth * model.cost_per_ancilla_depth


def effective_t_formula(n: int, kind: str = "temporary-and",
                        model: CostModel = CostModel()) -> float:
    """Closed-form effective T-count of an n-bit adder.

    The AND-based adder consumes ~4n |T> states but holds ~n ancillae for
    ~n layers (n^2/480 with default constants); the inline ripple baseline
    consumes ~8n with negligible ancilla cost.
    """
    if kind == "temporary-and":
        return n * n * model.cost_per_ancilla_depth + 4.0 * n
    if kind == "cuccaro":
        return 8.0 * n
    raise ValueError(f"unknown adder kind {kind!r}")


def hybrid_cutoff(model: CostModel = CostModel()) -> int | float:
    """Bit distance from the top at which carrying via an ancilla stops paying.

    A carry ancilla born d layers from the end of the ripple is held for
    about 2d layers; the bit is worth doing with a temporary AND while
    4 + 2d * cost_per_depth < 8.  Solves to d = 2 / cost_per_depth:
    960 by default, 6x more when idle ancillae are compacted.
    """
    if model.cost_per_ancilla_depth == 0:
        return math.inf  # free ancillae: always carry via temporary ANDs
    return round(2.0 / model.cost_per_ancilla_depth)


def crossover(cost_a: Callable[[int], float], cost_b: Callable[[int], float],
              bound: int = 1 << 24) -> int:
    """Smallest n at which cost_a overtakes cost_b.

    Binary search for the first n with cost_a(n) > cost_b(n); if the costs
    tie exactly at n-1, that equality point is reported instead (the usual
    statement of the break-even width).
    """
    def exceeds(n: int) -> bool:
        return cost_a(n) > cost_b(n)

    if not exceeds(bound):
        raise NoCrossoverError(f"no crossover for n <= {bound}")
    lo, hi = 1, bound
    while lo < hi:
        mid = (lo + hi) // 2
        if exceeds(mid):
            hi = mid
        else:
            lo = mid + 1
    if lo > 1 and math.isclose(cost_a(lo - 1), cost_b(lo - 1), rel_tol=1e-12, abs_tol=1e-12):
        return lo - 1
    return lo


REPORT_KEYS = ("t_count", "ccx_count", "meas_depth", "ancilla_max",
               "ancilla_depth", "rotation_bucket", "effective_t")


def serialize_report(report: ResourceReport, model: CostModel = CostModel()) -> str:
    """Flat key-value document; effective_t under the given cost model."""
    values = {
        "t_count": str(report.t_count),
        "ccx_count": str(report.ccx_count),
        "meas_depth": str(report.meas_depth),
        "ancilla_max": str(report.ancilla_max),
        "ancilla_depth": str(report.ancilla_depth),
        "rotation_bucket": str(report.rotation_bucket),
        "effective_t": "%.6f" % effective_t(report, model),
    }
    return "".join(f"{key} {values[key]}\n" for key in REPORT_KEYS)
