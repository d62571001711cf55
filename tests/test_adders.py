"""Adder constructions: exact counts and exhaustive/branch-complete semantics."""
import re

import numpy as np
import pytest

from tclean.constructions import CONSTRUCTIONS, exhaustive
from tclean.gadgets import (
    AdderSpec,
    controlled_adder,
    cuccaro_adder,
    emit_inverse,
    gidney_adder,
    outofplace_adder,
    outofplace_adder_inverse,
)
from tclean.ir import CircuitBuilder, Instruction, Op, validate
from tclean.resources import CostModel, count, effective_t
from tclean.rewrite import lower_ccx
from tclean.sim import (
    basis_equiv,
    decode_register,
    enumerate_branches,
    register_basis,
    run,
)

#: T-count contributors: T, T-dagger and the injected |T> state.
T_FAMILY = frozenset({Op.T, Op.TDG, Op.ALLOCT})


def assert_basis_add(circuit, n, a, b, *, ctrl=None):
    values = {"a": a, "b": b}
    if ctrl is not None:
        values["ctrl"] = ctrl
    effective_ctrl = 1 if ctrl is None else ctrl
    total = a + b
    for br in enumerate_branches(circuit, register_basis(circuit, values)):
        out = int(np.argmax(np.abs(br.final_state)))
        assert abs(br.final_state[out]) ** 2 > 1 - 1e-9
        assert decode_register(circuit, out, "a") == a
        want_b = total % (1 << n) if effective_ctrl else b
        assert decode_register(circuit, out, "b") == want_b


@pytest.mark.parametrize("n", range(1, 5))
def test_gidney_exhaustive(n):
    c = gidney_adder(AdderSpec(n))
    for a in range(1 << n):
        for b in range(1 << n):
            assert_basis_add(c, n, a, b)


@pytest.mark.parametrize("kind, n", [
    *((kind, n) for kind in ("cuccaro-adder", "gidney-adder") for n in range(1, 5)),
    *(("controlled-adder", n) for n in range(1, 4)),  # n = 4 walks ~20x longer than n = 3
])
def test_carry_variants_semantics(kind, n):
    # Every basis input, branch and relative phase, with the carry on top of the sum.
    entry = CONSTRUCTIONS[kind]
    passed, _, _ = exhaustive(entry, entry.build(n, True), n, carry_out=True)
    assert passed


@pytest.mark.parametrize("n", list(range(1, 17)) + [32, 64])
def test_gidney_counts(n):
    r = count(gidney_adder(AdderSpec(n)))
    assert r.t_count == 4 * n - 4
    assert r.meas_depth == 2 * n - 2
    assert r.ancilla_max == max(n - 1, 0)
    assert r.ancilla_depth == n * (n - 1)


@pytest.mark.parametrize("n", (1, 2, 5, 8))
def test_gidney_carry_out_counts(n):
    r = count(gidney_adder(AdderSpec(n, carry_out=True)))
    assert r.t_count == 4 * n
    assert r.meas_depth == 2 * n


def test_adder_building_block_counts():
    # One full block: carry out, one temporary AND.
    r = count(gidney_adder(AdderSpec(1, carry_out=True)))
    assert r.t_count == 4
    assert r.meas_depth == 2


def test_n1_is_single_cx():
    c = gidney_adder(AdderSpec(1))
    assert [i.op for i in c.instructions] == [Op.CX]
    assert count(c).t_count == 0


def test_gidney_effective_t_tracks_formula():
    model = CostModel()
    for n in (4, 8, 16, 32):
        measured = effective_t(count(gidney_adder(AdderSpec(n))), model)
        assert measured == pytest.approx(n * (n - 1) / 480 + 4 * n - 4, abs=1e-9)


def test_zero_ancilla_effective_equals_t_count():
    c = gidney_adder(AdderSpec(1))  # a bare CX
    r = count(c)
    assert r.ancilla_depth == 0
    assert effective_t(r) == r.t_count


@pytest.mark.parametrize("n", range(1, 5))
def test_cuccaro_exhaustive(n):
    c = cuccaro_adder(AdderSpec(n))
    for a in range(1 << n):
        for b in range(1 << n):
            assert_basis_add(c, n, a, b)


@pytest.mark.parametrize("n", range(1, 10))
def test_cuccaro_ccx_count(n):
    # Measured boundary constants, frozen: 2n-2 without carry-out, 2n with.
    assert count(cuccaro_adder(AdderSpec(n))).ccx_count == 2 * n - 2
    assert count(cuccaro_adder(AdderSpec(n, carry_out=True))).ccx_count == 2 * n


@pytest.mark.parametrize("n", range(2, 9))
def test_cuccaro_paired_lowering_count(n):
    lowered = lower_ccx(cuccaro_adder(AdderSpec(n)), "paired4")
    assert count(lowered).t_count == 8 * n - 8
    assert count(lowered).ccx_count == 0


@pytest.mark.parametrize("n", (2, 3))
def test_cuccaro_matches_gidney_channel(n):
    ideal = _inplace_add_ideal(n)
    assert basis_equiv(gidney_adder(AdderSpec(n)), ideal)
    assert basis_equiv(cuccaro_adder(AdderSpec(n)), ideal)


def _inplace_add_ideal(n):
    def fn(k):
        a = k & ((1 << n) - 1)
        b = k >> n
        return a | (((a + b) % (1 << n)) << n)
    return fn


def test_register_basis_refuses_a_name_that_is_no_input_register():
    # Ignoring the misspelt "ctl" would run the controlled adder with its control at 0.
    c = controlled_adder(AdderSpec(2))
    assert register_basis(c, {"ctrl": 1, "a": 1}) == 0b011  # ctrl, then a, then b
    with pytest.raises(ValueError, match="no input register named 'ctl'"):
        register_basis(c, {"ctl": 1, "a": 1})


@pytest.mark.parametrize("n", range(1, 4))
def test_controlled_exhaustive(n):
    c = controlled_adder(AdderSpec(n))
    for ctrl in (0, 1):
        for a in range(1 << n):
            for b in range(1 << n):
                assert_basis_add(c, n, a, b, ctrl=ctrl)


@pytest.mark.parametrize("n", range(1, 9))
def test_controlled_t_count(n):
    # 8 per block; the boundary specialization lands the total on 8n-4.
    assert count(controlled_adder(AdderSpec(n))).t_count == 8 * n - 4


def test_controlled_per_block_is_eight():
    counts = [count(controlled_adder(AdderSpec(n))).t_count for n in (3, 4, 5)]
    assert counts[1] - counts[0] == 8
    assert counts[2] - counts[1] == 8


@pytest.mark.parametrize("n", range(1, 4))
def test_outofplace_exhaustive(n):
    c = outofplace_adder(AdderSpec(n))
    for a in range(1 << n):
        for b in range(1 << n):
            br = enumerate_branches(c, register_basis(c, {"a": a, "b": b}))[0]
            out = int(np.argmax(np.abs(br.final_state)))
            assert decode_register(c, out, "s") == a + b
            assert decode_register(c, out, "a") == a
            assert decode_register(c, out, "b") == b


@pytest.mark.parametrize("n", range(1, 9))
def test_outofplace_counts(n):
    fwd = count(outofplace_adder(AdderSpec(n)))
    assert fwd.t_count == 4 * n  # one AND per block, measured constant 0
    inv = outofplace_adder_inverse(AdderSpec(n))
    assert count(inv).t_count == 0
    assert sum(1 for i in inv.instructions if i.op in T_FAMILY) == 0


@pytest.mark.parametrize("n", (1, 2, 3))
def test_outofplace_roundtrip_identity(n):
    # The inverse declares the forward's outputs (a, b, s) as its inputs, in
    # that order, so the forward's output index is the inverse's input index.
    forward = outofplace_adder(AdderSpec(n))
    inverse = outofplace_adder_inverse(AdderSpec(n))
    for k in range(1 << 2 * n):
        state = run(forward, k).final_state
        out = int(np.argmax(np.abs(state)))
        assert abs(state[out]) ** 2 > 1 - 1e-9
        for br in enumerate_branches(inverse, out):
            assert abs(br.final_state[k]) ** 2 > 1 - 1e-9, (k, br.outcomes)


def test_emit_inverse_swaps_lifetimes_and_negates_angles():
    fragment = (Instruction(Op.ALLOC0, (1,)), Instruction(Op.CX, (0, 1)),
                Instruction(Op.RZ, (0,), 0.25), Instruction(Op.S, (1,)),
                Instruction(Op.CX, (0, 1)), Instruction(Op.RELEASE, (1,)))
    b = CircuitBuilder()
    b.register("a", 1)
    for instr in fragment:
        b.append(instr)
    emit_inverse(b, fragment)
    c = b.build()
    assert c.instructions[len(fragment):] == (
        Instruction(Op.ALLOC0, (1,)), Instruction(Op.CX, (0, 1)), Instruction(Op.SDG, (1,)),
        Instruction(Op.RZ, (0,), -0.25), Instruction(Op.CX, (0, 1)), Instruction(Op.RELEASE, (1,)))
    assert basis_equiv(c, lambda k: k)


@pytest.mark.parametrize("instr, message", [
    (Instruction(Op.MZ, (0,), result=0), "cannot invert measurement or feedback outside a gadget span"),
    (Instruction(Op.ALLOCT, (1,)), "cannot invert a bare |T> injection"),
])
def test_emit_inverse_refuses_bare_measurements_and_injections(instr, message):
    b = CircuitBuilder()
    b.register("a", 1)
    with pytest.raises(ValueError, match=re.escape(message)):
        emit_inverse(b, (instr,))


def test_all_adders_validate():
    for n in (1, 2, 5):
        for spec in (AdderSpec(n), AdderSpec(n, carry_out=True)):
            for build in (gidney_adder, cuccaro_adder, controlled_adder):
                assert validate(build(spec)) is None
        assert validate(outofplace_adder(AdderSpec(n))) is None
        assert validate(outofplace_adder_inverse(AdderSpec(n))) is None


def test_adder_spec_rejects_zero_width():
    with pytest.raises(ValueError):
        AdderSpec(0)


@pytest.mark.parametrize("n", [*range(1, 17), 64, 100])
def test_every_kind_but_hamming_pins_its_ancilla_depth(n):
    # verify's counts line compares ancilla_depth, which drives effective_t,
    # at every width and carry-out setting.
    from tclean.constructions import AND_COMPUTE, CONSTRUCTIONS, counts

    for entry in (*CONSTRUCTIONS.values(), AND_COMPUTE):
        for carry_out in (False, True):
            assert ("ancilla_depth" in entry.expected(n, carry_out)) == (entry.name != "hamming")
            assert counts(entry, entry.build(n, carry_out), n, carry_out)[0], (entry.name, carry_out)


@pytest.mark.parametrize("n", range(1, 9))
def test_expectation_table_matches_measurements(n):
    from tclean.constructions import AND_COMPUTE, CONSTRUCTIONS

    for entry in (*CONSTRUCTIONS.values(), AND_COMPUTE):
        report = count(entry.build(n))
        measured = {key: getattr(report, key) for key in entry.expected(n)}
        assert measured == entry.expected(n), entry.name
    literal = {  # variants the table does not list: (circuit, (t_count, meas_depth, ancilla_max))
        "gidney-adder-cout": (gidney_adder(AdderSpec(n, carry_out=True)), (4 * n, 2 * n, n + 1)),
        "adder-block": (gidney_adder(AdderSpec(1, carry_out=True)), (4, 2, 2)),
    }
    for kind, (circuit, want) in literal.items():
        got = count(circuit)
        assert (got.t_count, got.meas_depth, got.ancilla_max) == want, kind
