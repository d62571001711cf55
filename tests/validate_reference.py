"""The ``tclean.ir.validate`` used before its per-instruction passes were trimmed, kept as the reference for tests.

It builds a set of every instruction's qubits and tests each qubit for
range and liveness one by one, over the flat instructions of
``spans_reference``: a span is checked as the instructions it holds.  The
differential tests require the production ``validate`` to return exactly
its first violation (code, index and message).
"""
from __future__ import annotations

import math

from tclean.ir import Circuit, Op, Violation, ViolationCode

from spans_reference import FlatCircuit, flatten


def reference_validate(circuit: Circuit | FlatCircuit) -> Violation | None:
    """Check every lifetime, arity and classical-bit invariant.

    Returns the first violation in instruction order, or None if the circuit
    is valid.  Deterministic: depends only on the circuit contents.
    """
    if isinstance(circuit, Circuit):
        circuit = flatten(circuit)
    n = len(circuit.instructions)
    live: set[int] = set()
    ever_released: set[int] = set()
    for reg in circuit.inputs:
        for q in reg.qubits:
            if q in live:
                return Violation(ViolationCode.REGISTER_OVERLAP, 0,
                                 f"qubit {q} declared in two input registers")
            live.add(q)

    written_bits: set[int] = set()

    def liveness_error(q: int, i: int) -> Violation:
        if q in ever_released:
            return Violation(ViolationCode.USE_AFTER_RELEASE, i, f"qubit {q} used after release")
        return Violation(ViolationCode.USE_BEFORE_ALLOC, i, f"qubit {q} used before allocation")

    for i, instr in enumerate(circuit.instructions):
        op = instr.op
        if len(instr.qubits) != op.arity or len(set(instr.qubits)) != len(instr.qubits):
            return Violation(ViolationCode.BAD_ARITY, i,
                             f"{op.value} expects {op.arity} distinct qubits, got {instr.qubits}")
        if any(q < 0 or q >= circuit.n_qubits for q in instr.qubits):
            return Violation(ViolationCode.BAD_ARITY, i, f"qubit index out of range in {instr.qubits}")
        if (instr.angle is not None) != (op is Op.RZ):
            return Violation(ViolationCode.BAD_ARITY, i, "angle is required for rz and forbidden elsewhere")
        if instr.angle is not None and not math.isfinite(instr.angle):
            return Violation(ViolationCode.BAD_ARITY, i, f"rz angle must be finite, got {instr.angle}")
        if (instr.result is not None) != op.measures:
            return Violation(ViolationCode.BAD_ARITY, i, "result bit is required for measurements only")

        if instr.cond is not None:
            if not op.clifford:
                return Violation(ViolationCode.NONCLIFFORD_CONDITIONED, i,
                                 f"conditioned {op.value} is not a Clifford fixup")
            if instr.cond not in written_bits:
                return Violation(ViolationCode.CLASSBIT_READ_BEFORE_WRITE, i,
                                 f"classical bit c{instr.cond} read before any measurement wrote it")

        if op.lifetime > 0:
            q = instr.qubits[0]
            if q in live:
                return Violation(ViolationCode.ALLOC_WHILE_LIVE, i, f"qubit {q} allocated while live")
            live.add(q)
            ever_released.discard(q)
        elif op.lifetime < 0:
            q = instr.qubits[0]
            if q not in live:
                return liveness_error(q, i)
            live.discard(q)
            ever_released.add(q)
        else:
            for q in instr.qubits:
                if q not in live:
                    return liveness_error(q, i)
            if op.measures:
                bit = instr.result
                if bit is None or bit < 0 or bit >= circuit.n_classbits:
                    return Violation(ViolationCode.BAD_ARITY, i, f"classical bit {bit} out of range")
                if bit in written_bits:
                    return Violation(ViolationCode.CLASSBIT_REWRITE, i,
                                     f"classical bit c{bit} written twice")
                written_bits.add(bit)

    outputs: set[int] = set()
    for q in circuit.output_qubits():
        if q not in live:
            return Violation(ViolationCode.OUTPUT_NOT_LIVE, n, f"declared output qubit {q} not live at end")
        if q in outputs:
            return Violation(ViolationCode.REGISTER_OVERLAP, n, f"qubit {q} declared twice as an output")
        outputs.add(q)
    return None
