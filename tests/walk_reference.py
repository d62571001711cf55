"""The measurement-tree walk of ``tclean.sim`` before it merged or fused, kept as the reference for tests.

It follows each outcome of each measurement to its own leaf, so the rest of
the circuit runs once per branch: a circuit with m measurements walks its
last stretch up to 2^m times.  It ignores the steps' merge flags, passes
every erasure record's fused step by to run the record's instructions, and
each branch it yields holds one path.  Put in place of ``sim._walk``, it
gives the results the merging and fusing walk must reproduce on the same
engines.

Beside it, the dense ``record`` kernel as it first ran (:func:`per_slab_record`),
the reference for the kernel's fast paths.
"""
from __future__ import annotations

import contextlib

import numpy as np
import pytest

from tclean import sim
from tclean.ir import Circuit
from tclean.sim import SimulationError, _advance, _Erasure


@contextlib.contextmanager
def fusion_off():
    """Within it, every record of a measuring template compiles as its
    instructions alone, so the walk forks at each erasure and merges the
    outcomes where they reconverge, as it did before erasures were fused."""
    action = sim._action
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_action", lambda template: None if template.measures else action(template))
        yield


def uncompiled(circuit: Circuit) -> Circuit:
    """An equal circuit that keeps no program yet (``Circuit.programs``), so
    that a walk of it compiles afresh and binds the engines' kernels as a
    test has patched them; a kept program holds the kernels it was compiled with."""
    return Circuit(circuit.body, circuit.inputs, circuit.outputs)


def unmerged_walk(program, initial, choose):
    steps = program.steps
    stack = [(program.engine(initial), 0)]
    while stack:
        branch, i = stack.pop()
        i = _advance(branch, steps, i)
        if i == len(steps):
            yield branch
            continue
        if steps[i][3].__class__ is _Erasure:
            stack.append((branch, i + 1))
            continue
        instr, probs, project, args, _merge = steps[i][3]
        picked = choose(instr, *probs(branch, *args))
        last = len(picked) - 1
        for k, (outcome, prob) in enumerate(picked):
            fork = branch if k == last else branch.copy()
            project(fork, *args, outcome, prob)
            ((classbits, _),) = fork.paths
            classbits[instr.result] = outcome
            fork.paths[0][1] *= prob
            fork._just_measured.add(instr.qubits[0])
            stack.append((fork, i + 1))


def per_slab_record(branch, outside, born, old_shape, new_shape, _blank, moves, summing) -> bool:
    """``SimState.record`` on the same arguments, one numpy call per slab: an
    ``.any()`` per outside slab, a zeroed new vector, and a multiply per
    move, by 1 where the arguments say copy (None)."""
    old = branch.amps.reshape(old_shape)
    for slab in outside:
        if old[slab].any():
            return False
    if born and branch.amps.size >> (sim.MAX_LIVE_QUBITS + 1 - born):
        raise SimulationError(f"more than {sim.MAX_LIVE_QUBITS} live qubits")
    new = np.zeros(new_shape, dtype=complex)
    for out, src, amp, more in moves:
        slab = new[out]
        np.multiply(old[src], 1 if amp is None else amp, out=slab)
        for src, amp in more:
            slab += old[src] * amp
    branch.amps = new.reshape(-1)
    if summing:
        sim._prune(branch.amps)
    return True
