"""The measurement-tree walk of ``tclean.sim`` before it merged branches, kept as the reference for tests.

It follows each outcome of each measurement to its own leaf, so the rest of
the circuit runs once per branch: a circuit with m measurements walks its
last stretch up to 2^m times.  It ignores the steps' merge flags, and each
branch it yields holds one path.  Put in place of ``sim._walk``, it gives
the results the merging walk must reproduce on the same engines.
"""
from __future__ import annotations

from tclean.sim import _advance


def unmerged_walk(program, initial, choose):
    steps = program.steps
    stack = [(program.engine(initial), 0)]
    while stack:
        branch, i = stack.pop()
        i = _advance(branch, steps, i)
        if i == len(steps):
            yield branch
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
