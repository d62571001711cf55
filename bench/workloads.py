"""The four benchmark workloads: seeded job generators and the jobs themselves.

A job is a small record of generated inputs (kind, n, input seed and, for
oracles, an expression).  The generator owns the seed; tclean sees only
these inputs.  Each job calls tclean's public layer functions through a
tracer, then checks every result against :mod:`references`.  A job returns
the list of problems it found; an empty list means it passed.

A run draws its job list once from the seed.  Jobs that do the same work
form a class (see ``worker.job_classes``).  Every class appears in the
list a fixed number of times, and only ``verify_dense``'s oracle
expressions are drawn from the seed, so the mix of classes hardly changes
with the seed and no reported percentile moves between two classes.
The ``build_count`` and ``rewrite_pairs`` jobs are fully set by kind, n and
command, so there the seed sets only the order in which the loop runs them.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from tclean import gadgets, ir, oracle, resources, rewrite, sim, textfmt
from tclean.gadgets import AdderSpec
from tclean.ir import Op

from references import References, report_problems

#: Fidelity below 1 - FIDELITY_TOL fails a check.
FIDELITY_TOL = 1e-9
#: Random superposition inputs per ``channel_equiv`` job.
DENSE_TRIALS = 2


class Job(NamedTuple):
    kind: str
    n: int
    seed: int
    expr: str | None = None
    #: Benchmark-side expression tree behind ``expr``; never handed to tclean.
    tree: tuple | None = None
    #: Which command a ``rewrite_pairs`` job mirrors: "rewrite" or "paired4".
    step: str = ""


class Workload(NamedTuple):
    make_jobs: Callable[[np.random.Generator], list[Job]]
    run_job: Callable[..., list[str]]
    warmup: Job


# -- generation ---------------------------------------------------------------------


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 31))


#: Copies of each class in a job list.  The mix puts job_p90_ms in the
#: second-dearest class and these copies of the dearest beyond it, so ten
#: jobs lie beyond job_p90_ms.
COPIES = 10
BUILD_KINDS = ("gidney", "gidney-cout", "controlled", "out-of-place", "mcx", "hamming",
               "phase-gradient")


def build_count_jobs(rng: np.random.Generator) -> list[Job]:
    """Every kind at n=64 and n=256, and gidney at n=1024: 15 classes.

    n=1024 is the gidney size the ROADMAP targets.  All seven kinds at 1024
    would cost three times the rest of a round, and leave each class too
    few executions in a run for a steady median.  job_p50_ms falls among the
    n=256 jobs and job_p90_ms on controlled n=256, with gidney n=1024 beyond.
    """
    classes = [Job(kind, n, 0) for n in (64, 256) for kind in BUILD_KINDS]
    return [job for job in classes + [Job("gidney", 1024, 0)] for _ in range(COPIES)]


def rewrite_pairs_jobs(rng: np.random.Generator) -> list[Job]:
    """Both kinds and both commands at n=32 and n=91, and cuccaro at n=256: 10 classes.

    With carry-out at n=256 as well, a round would take half as long again
    for two classes that cost the same as the two without it.  job_p50_ms
    falls among the n=91 jobs, job_p90_ms on the cheaper n=256 command and
    the dearer one beyond it.
    """
    classes = [Job(kind, n, 0, step=step) for n in (32, 91)
               for kind in ("cuccaro", "cuccaro-cout") for step in ("rewrite", "paired4")]
    classes += [Job("cuccaro", 256, 0, step=step) for step in ("rewrite", "paired4")]
    return [job for job in classes for _ in range(COPIES)]


#: Widths per kind for basis-input checks.  Live qubits stay at or below 19
#: (8 MB states): the 20-qubit gidney n=7 and the 19-qubit controlled n=6 are
#: left out, because their run time follows the host's memory bandwidth more
#: than the simulator's.  job_p50_ms falls among the 2-3 ms classes around
#: cuccaro n=5 and job_p90_ms among the 20 ms classes gidney n=6 and mcx k=7.
BASIS_CLASSES = {
    "gidney": range(3, 7),
    "cuccaro": range(3, 7),
    "controlled": range(3, 6),
    "out-of-place": range(3, 7),
    "hamming": range(2, 9),
    "mcx": range(2, 9),
}
#: Seeded inputs per class, so a run has over 100 jobs and 10 beyond job_p90_ms.
BASIS_INPUTS = 4


def verify_basis_jobs(rng: np.random.Generator) -> list[Job]:
    return [Job(kind, n, _seed(rng)) for kind, ns in BASIS_CLASSES.items() for n in ns
            for _ in range(BASIS_INPUTS)]


#: Dense-input classes; a repeated width appears that many times per draw.
#: The repeats put job_p50_ms inside the k=3 mcx jobs, whose cost does not
#: depend on the seed as the oracles' does, job_p90_ms inside the n=3
#: controlled adders, and the twelve n=4 controlled adders beyond it.
DENSE_CLASSES = {
    "and-compute": (1,),
    "and-roundtrip": (1,),
    "gidney": (2, 3, 4),
    "controlled": (2, 3, 3, 3, 4, 4, 4),
    "mcx": (2, 3, 3, 3, 4, 5),
    "phase-gradient": (2, 3, 4),
}
#: AND/OR node counts of the random oracle expressions in one draw.
ORACLE_NODES = (1, 1, 2, 2, 2, 2, 2, 2, 3, 3)
#: Upper bound on an oracle's live qubits, so dense states stay small.
ORACLE_MAX_QUBITS = 13


def random_tree(rng: np.random.Generator, n_vars: int, nodes: int) -> tuple:
    """Expression tree with ``nodes`` AND/OR nodes, XORs mixed in, over n_vars inputs."""
    if nodes == 0:
        return ("var", int(rng.integers(n_vars)), bool(rng.integers(2)))
    if rng.random() < 0.25:
        split = int(rng.integers(nodes + 1))
        return ("^", random_tree(rng, n_vars, split), random_tree(rng, n_vars, nodes - split))
    split = int(rng.integers(nodes))
    op = "&" if rng.random() < 0.6 else "|"
    return (op, random_tree(rng, n_vars, split), random_tree(rng, n_vars, nodes - 1 - split))


def render(tree: tuple) -> str:
    if tree[0] == "var":
        return ("!" if tree[2] else "") + f"x{tree[1]}"
    return f"({render(tree[1])} {tree[0]} {render(tree[2])})"


def truth(tree: tuple, x: int) -> bool:
    if tree[0] == "var":
        return bool((x >> tree[1]) & 1) != tree[2]
    left, right = truth(tree[1], x), truth(tree[2], x)
    if tree[0] == "&":
        return left and right
    if tree[0] == "|":
        return left or right
    return left != right


def tree_vars(tree: tuple) -> int:
    """Input width of the compiled oracle: highest variable index plus one."""
    if tree[0] == "var":
        return tree[1] + 1
    return max(tree_vars(tree[1]), tree_vars(tree[2]))


def and_or_nodes(tree: tuple) -> int:
    if tree[0] == "var":
        return 0
    return (tree[0] != "^") + and_or_nodes(tree[1]) + and_or_nodes(tree[2])


def xor_nodes(tree: tuple) -> int:
    if tree[0] == "var":
        return 0
    return (tree[0] == "^") + xor_nodes(tree[1]) + xor_nodes(tree[2])


def oracle_job(rng: np.random.Generator, nodes: int) -> Job:
    """Random expression whose oracle keeps at most ORACLE_MAX_QUBITS live.

    The bound counts the inputs, three ancillae per AND/OR node (its result
    and up to two operand copies), one per XOR node and one phase target.
    """
    while True:
        tree = random_tree(rng, int(rng.integers(2, 7)), nodes)
        if tree_vars(tree) + 3 * nodes + xor_nodes(tree) + 1 <= ORACLE_MAX_QUBITS:
            return Job("oracle", tree_vars(tree), _seed(rng), render(tree), tree)


#: Draws of the class list and the oracles, so a run has over 100 jobs.
DENSE_DRAWS = 4


def verify_dense_jobs(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for _ in range(DENSE_DRAWS):
        jobs += [Job(kind, n, _seed(rng)) for kind, ns in DENSE_CLASSES.items() for n in ns]
        jobs += [oracle_job(rng, nodes) for nodes in ORACLE_NODES]
    return jobs


# -- shared job steps ------------------------------------------------------------------

_BUILDERS: dict[str, Callable[[int], object]] = {
    "gidney": lambda n: gadgets.gidney_adder(AdderSpec(n)),
    "gidney-cout": lambda n: gadgets.gidney_adder(AdderSpec(n, carry_out=True)),
    "controlled": lambda n: gadgets.controlled_adder(AdderSpec(n)),
    "out-of-place": lambda n: gadgets.outofplace_adder(AdderSpec(n)),
    "cuccaro": lambda n: gadgets.cuccaro_adder(AdderSpec(n)),
    "cuccaro-cout": lambda n: gadgets.cuccaro_adder(AdderSpec(n, carry_out=True)),
    "mcx": gadgets.multi_controlled_x,
    "hamming": gadgets.hamming_weight,
    "phase-gradient": gadgets.phase_gradient_add,
    "and-compute": lambda n: gadgets.and_gadget_circuit("compute"),
    "and-roundtrip": lambda n: gadgets.and_gadget_circuit("roundtrip"),
}


def _build(tr, job: Job):
    """Build the job's circuit; hamming also returns its popcount register."""
    if job.kind == "oracle":
        circuit = tr.call("oracle.compile_oracle", oracle.compile_oracle, job.expr)
        tr.add("oracle.compile_oracle.instr_out", len(circuit))
        return circuit, None
    built = tr.call("gadgets.build", _BUILDERS[job.kind], job.n)
    circuit, register = (built.circuit, built.register) if job.kind == "hamming" else (built, None)
    tr.add("gadgets.build.instr_out", len(circuit))
    return circuit, register


def _count(tr, circuit):
    tr.add("resources.count.instr_in", len(circuit))
    return tr.call("resources.count", resources.count, circuit)


def _count_problems(tr, refs: References, job: Job, circuit) -> list[str]:
    report = _count(tr, circuit)
    if job.kind == "oracle":
        return report_problems(refs, "oracle", and_or_nodes(job.tree), report)
    return report_problems(refs, job.kind, job.n, report)


def _text_round_trip(tr, circuit) -> tuple[object, list[str]]:
    """to_text, from_text and validate, as ``tclean count --in`` reads a file."""
    text = tr.call("textfmt.to_text", textfmt.to_text, circuit)
    tr.add("textfmt.to_text.bytes_out", len(text))
    parsed = tr.call("textfmt.from_text", textfmt.from_text, text)
    tr.add("textfmt.from_text.instr_out", len(parsed))
    tr.add("ir.validate.instr_in", len(parsed))
    violation = tr.call("ir.validate", ir.validate, parsed)
    problems = []
    if parsed != circuit:
        problems.append("text round trip is not exact")
    if violation is not None:
        problems.append(f"validate: {violation}")
    return parsed, problems


def _serialize_problems(tr, report) -> list[str]:
    doc = tr.call("resources.serialize_report", resources.serialize_report, report)
    fields = dict(line.split(" ", 1) for line in doc.splitlines())
    return [f"serialized {key} {fields.get(key)} != {getattr(report, key)}"
            for key in ("t_count", "ccx_count", "meas_depth", "ancilla_max", "ancilla_depth")
            if fields.get(key) != str(getattr(report, key))]


def peak_live_qubits(circuit) -> int:
    """Most qubits live at once: declared inputs plus allocated ancillae."""
    live = peak = len(circuit.input_qubits())
    for instr in circuit.instructions:
        if instr.op in (Op.ALLOC0, Op.ALLOCT):
            live += 1
            peak = max(peak, live)
        elif instr.op is Op.RELEASE:
            live -= 1
    return peak


def _measurements(circuit) -> int:
    return sum(instr.op in (Op.MX, Op.MZ) for instr in circuit.instructions)


def _sim(tr, name: str, circuit, *args, **kwargs):
    """Call one simulator entry point and record its branch and size counters."""
    tr.peak("sim.peak_live_qubits", peak_live_qubits(circuit))
    result = tr.call("sim." + name, getattr(sim, name), circuit, *args, **kwargs)
    if name == "run":
        branches = 1
    elif name == "enumerate_branches":
        branches = len(result)
    else:
        branches = result.branch_count
    tr.add(f"sim.{name}.branches", branches)
    tr.add("sim.branch_instr", branches * len(circuit))
    return result


def _basis_index(circuit, values: dict[str, int]) -> int:
    index = position = 0
    for reg in circuit.inputs:
        index |= values.get(reg.name, 0) << position
        position += len(reg.qubits)
    return index


def _decode(circuit, vec: np.ndarray) -> tuple[dict[str, int], Callable, list[str]]:
    """Output registers of the basis state ``vec`` holds, a decoder for any other
    qubit list, and problems if ``vec`` is not a basis state."""
    probs = np.abs(vec) ** 2
    index = int(np.argmax(probs))
    problems = []
    if probs[index] <= 1 - FIDELITY_TOL:
        problems.append(f"not a basis state ({probs[index]:.6f})")
    pos = {q: j for j, q in enumerate(circuit.output_qubits())}

    def value(qubits) -> int:
        return sum(((index >> pos[q]) & 1) << k for k, q in enumerate(qubits))

    regs = {reg.name: value(reg.qubits) for reg in circuit.outputs or circuit.inputs}
    return regs, value, problems


def _fidelity(u: np.ndarray, v: np.ndarray) -> float:
    return float(abs(np.vdot(u, v)) ** 2 / (np.vdot(u, u).real * np.vdot(v, v).real))


# -- build_count ---------------------------------------------------------------------------


def build_count_job(job: Job, tr, refs: References) -> list[str]:
    """``tclean build | tclean count``: build, text round trip, validate, count, serialize."""
    circuit, _ = _build(tr, job)
    parsed, problems = _text_round_trip(tr, circuit)
    report = _count(tr, parsed)
    problems += report_problems(refs, job.kind, job.n, report)
    problems += _serialize_problems(tr, report)
    return problems


# -- rewrite_pairs -------------------------------------------------------------------------


def rewrite_pairs_job(job: Job, tr, refs: References) -> list[str]:
    """``tclean rewrite --report``, or the paired-lowering baseline it is compared with."""
    circuit, _ = _build(tr, job)
    parsed, problems = _text_round_trip(tr, circuit)
    if job.step == "paired4":
        lowered = tr.call("rewrite.lower_ccx", rewrite.lower_ccx, parsed, "paired4")
        tr.add("rewrite.lower_ccx.instr_out", len(lowered))
        return problems + report_problems(refs, job.kind + "-paired4", job.n,
                                          _count(tr, lowered))

    before = _count(tr, parsed)
    problems += report_problems(refs, job.kind, job.n, before)
    problems += _serialize_problems(tr, before)
    tr.add("rewrite.replace_pairs.instr_in", len(parsed))
    replaced = tr.call("rewrite.replace_pairs", rewrite.replace_pairs, parsed)
    tr.add("rewrite.replace_pairs.instr_out", len(replaced))
    after = _count(tr, replaced)
    problems += report_problems(refs, job.kind + "-replaced", job.n, after)
    problems += _serialize_problems(tr, after)
    tr.add("rewrite.ccx_in", before.ccx_count)
    tr.add("rewrite.ccx_paired", before.ccx_count - after.ccx_count)
    return problems


# -- verify_basis --------------------------------------------------------------------------


def verify_basis_job(job: Job, tr, refs: References) -> list[str]:
    """One seeded computational-basis input; decoded registers against integer arithmetic."""
    circuit, register = _build(tr, job)
    problems = _count_problems(tr, refs, job, circuit)
    rng = np.random.default_rng(job.seed)
    n = job.n

    if job.kind == "mcx":
        controls = (1 << n) - 1 if rng.random() < 0.5 else int(rng.integers(1 << n))
        target = int(rng.integers(2))
        index = _basis_index(circuit, {"c": controls, "t": target})
        branches = _sim(tr, "enumerate_branches", circuit, index)
        if len(branches) != 1 << _measurements(circuit):
            problems.append(f"{len(branches)} branches, expected 2^{_measurements(circuit)}")
        if abs(sum(b.probability for b in branches) - 1) > FIDELITY_TOL:
            problems.append("branch probabilities do not sum to 1")
        want = {"c": controls, "t": target ^ (controls == (1 << n) - 1)}
        for branch in branches:
            regs, _, bad = _decode(circuit, branch.final_state)
            problems += bad + [f"mcx {name} {regs[name]} != {val}"
                               for name, val in want.items() if regs[name] != val]
        return problems

    if job.kind == "hamming":
        x = int(rng.integers(1 << n))
        result = _sim(tr, "run", circuit, _basis_index(circuit, {"x": x}), seed=job.seed)
        _, value, bad = _decode(circuit, result.final_state)
        weight = value(register)
        if weight != refs.popcount(x):
            bad.append(f"popcount({x}) read {weight}")
        return problems + bad

    a, b = int(rng.integers(1 << n)), int(rng.integers(1 << n))
    values = {"a": a, "b": b}
    if job.kind == "controlled":
        values["ctrl"] = int(rng.integers(2))
        want = {"ctrl": values["ctrl"], "a": a,
                "b": refs.add(a, b, n) if values["ctrl"] else b}
    elif job.kind == "out-of-place":
        want = {"a": a, "b": b, "s": refs.add(a, b, n + 1)}
    else:
        want = {"a": a, "b": refs.add(a, b, n)}
    result = _sim(tr, "run", circuit, _basis_index(circuit, values), seed=job.seed)
    regs, _, bad = _decode(circuit, result.final_state)
    return problems + bad + [f"{job.kind} n={n} {name} {regs[name]} != {val}"
                             for name, val in want.items() if regs[name] != val]


# -- verify_dense --------------------------------------------------------------------------


def _permutation(fn: Callable[[int], int], n_in: int, n_out: int):
    """Ideal isometry sending basis index k to fn(k)."""
    table = np.array([fn(k) for k in range(1 << n_in)], dtype=np.int64)

    def apply(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(1 << n_out, dtype=complex)
        out[table] = vec
        return out

    return apply


def _dense_ideal(refs: References, kind: str, n: int):
    mask = (1 << n) - 1
    if kind == "and-compute":
        return _permutation(lambda k: k | ((k & 1) & (k >> 1)) << 2, 2, 3)
    if kind == "and-roundtrip":
        return lambda vec: vec
    if kind == "gidney":
        return _permutation(lambda k: (k & mask) | refs.add(k & mask, k >> n, n) << n,
                            2 * n, 2 * n)

    if kind == "controlled":
        def controlled(k: int) -> int:
            ctrl, a, b = k & 1, (k >> 1) & mask, k >> (n + 1)
            return ctrl | a << 1 | (refs.add(a, b, n) if ctrl else b) << (n + 1)
        return _permutation(controlled, 2 * n + 1, 2 * n + 1)
    if kind == "mcx":
        return _permutation(lambda k: k ^ (1 << n) if k & mask == mask else k, n + 1, n + 1)
    raise KeyError(kind)


def _random_state(rng: np.random.Generator, qubits: int) -> np.ndarray:
    vec = rng.normal(size=1 << qubits) + 1j * rng.normal(size=1 << qubits)
    return vec / np.linalg.norm(vec)


def _gradient(n: int) -> np.ndarray:
    """Phase-kickback eigenstate sum_k exp(-2 pi i k / 2^n) |k>, normalised."""
    return np.exp(-2j * np.pi * np.arange(1 << n) / (1 << n)) / math.sqrt(1 << n)


def _branch_problems(circuit, branches, expected: np.ndarray) -> list[str]:
    problems = []
    if len(branches) != 1 << _measurements(circuit):
        problems.append(f"{len(branches)} branches, expected 2^{_measurements(circuit)}")
    worst = min(_fidelity(expected, b.final_state) for b in branches)
    if worst < 1 - FIDELITY_TOL:
        problems.append(f"branch fidelity {worst:.12f}")
    return problems


def verify_dense_job(job: Job, tr, refs: References) -> list[str]:
    """Every measurement branch on seeded superposition inputs."""
    circuit, _ = _build(tr, job)
    problems = _count_problems(tr, refs, job, circuit)
    n = job.n
    if job.kind == "oracle":
        dim = 1 << n
        uniform = np.full(dim, 1 / math.sqrt(dim), dtype=complex)
        signs = np.array([-1.0 if truth(job.tree, x) else 1.0 for x in range(dim)])
        branches = _sim(tr, "enumerate_branches", circuit, uniform)
        return problems + _branch_problems(circuit, branches, signs * uniform)
    if job.kind == "phase-gradient":
        target = _random_state(np.random.default_rng(job.seed), n)
        kicked = np.exp(2j * np.pi * np.arange(1 << n) / (1 << n)) * target
        grad = _gradient(n)
        branches = _sim(tr, "enumerate_branches", circuit, np.kron(grad, target))
        return problems + _branch_problems(circuit, branches, np.kron(grad, kicked))

    # The verdict comes from tclean's own comparison, so one branch of the
    # first input is also checked against the ideal with the benchmark's
    # own fidelity.
    ideal = _dense_ideal(refs, job.kind, n)
    rng = np.random.default_rng(job.seed)
    states = [_random_state(rng, len(circuit.input_qubits())) for _ in range(DENSE_TRIALS)]
    result = _sim(tr, "channel_equiv", circuit, ideal, input_states=states, branches="all")
    expected = DENSE_TRIALS << _measurements(circuit)
    if result.branch_count != expected:
        problems.append(f"{result.branch_count} branches checked, expected {expected}")
    if not result.equivalent or result.worst_fidelity < 1 - FIDELITY_TOL:
        problems.append(f"{job.kind} n={n} not equivalent (worst {result.worst_fidelity:.12f})")
    branch = _sim(tr, "run", circuit, states[0], seed=job.seed)
    if _fidelity(ideal(states[0]), branch.final_state) < 1 - FIDELITY_TOL:
        problems.append(f"{job.kind} n={n} run branch differs from the ideal")
    return problems


WORKLOADS: dict[str, Workload] = {
    "build_count": Workload(build_count_jobs, build_count_job, Job("gidney", 64, 0)),
    "rewrite_pairs": Workload(rewrite_pairs_jobs, rewrite_pairs_job,
                              Job("cuccaro", 32, 0, step="rewrite")),
    "verify_basis": Workload(verify_basis_jobs, verify_basis_job, Job("gidney", 4, 0)),
    "verify_dense": Workload(verify_dense_jobs, verify_dense_job, Job("gidney", 3, 0)),
}
