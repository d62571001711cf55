"""Multi-controlled NOT ladders and the Hamming-weight register."""
import cmath
import math

import numpy as np
import pytest

from tclean.gadgets import (
    hamming_roundtrip,
    hamming_weight,
    multi_controlled_x,
)
from tclean.ir import Op, validate
from tclean.resources import count
from tclean.sim import (
    basis_equiv,
    decode_register,
    enumerate_branches,
    register_basis,
    run,
)

#: T-count contributors: T, T-dagger and the injected |T> state.
T_FAMILY = frozenset({Op.T, Op.TDG, Op.ALLOCT})


@pytest.mark.parametrize("k", list(range(1, 17)) + [32, 64])
def test_mcx_t_count(k):
    assert count(multi_controlled_x(k)).t_count == 4 * k - 4


def test_mcx_k1_is_single_cx():
    c = multi_controlled_x(1)
    assert [i.op for i in c.instructions] == [Op.CX]


@pytest.mark.parametrize("k", range(1, 5))
def test_mcx_truth_table(k):
    c = multi_controlled_x(k)
    for ctl in range(1 << k):
        for t in (0, 1):
            idx = register_basis(c, {"c": ctl, "t": t})
            for br in enumerate_branches(c, idx):
                out = int(np.argmax(np.abs(br.final_state)))
                assert abs(br.final_state[out]) ** 2 > 1 - 1e-9
                assert decode_register(c, out, "c") == ctl
                assert decode_register(c, out, "t") == (t ^ (ctl == (1 << k) - 1))


def test_mcx_uncompute_half_is_t_free():
    c = multi_controlled_x(4)
    (target,) = next(reg.qubits for reg in c.inputs if reg.name == "t")
    cx_on_target = next(i for i, instr in enumerate(c.instructions)
                        if instr.op is Op.CX and instr.qubits[1] == target)
    tail = c.instructions[cx_on_target + 1:]
    assert sum(1 for i in tail if i.op in T_FAMILY) == 0


def popcount_of_output(construction, basis_index):
    pos = {q: j for j, q in enumerate(construction.circuit.output_qubits())}
    return sum(((basis_index >> pos[q]) & 1) << p
               for p, q in enumerate(construction.register))


@pytest.mark.parametrize("n", range(1, 9))
def test_hamming_popcount_exhaustive(n):
    hw = hamming_weight(n)
    assert validate(hw.circuit) is None
    assert len(hw.register) == math.ceil(math.log2(n + 1))
    for x in range(1 << n):
        out = int(np.argmax(np.abs(run(hw.circuit, x, seed=0).final_state)))
        assert popcount_of_output(hw, out) == bin(x).count("1")


@pytest.mark.parametrize("n", range(1, 17))
def test_hamming_t_bound(n):
    assert count(hamming_weight(n).circuit).t_count <= 4 * n


@pytest.mark.parametrize("n", range(1, 9))
def test_hamming_uncompute_is_t_free(n):
    # The round trip repeats hamming_weight's compute, so equal counts leave
    # no T to the uncompute.
    hr = hamming_roundtrip(n)
    assert count(hr.circuit).t_count == count(hamming_weight(n).circuit).t_count
    res = basis_equiv(hr.circuit, lambda k: k)
    assert res.equivalent


@pytest.mark.parametrize("n", range(1, 5))
def test_rz_via_hamming_matches_direct_rotations(n):
    theta = 0.37
    c = hamming_roundtrip(n, theta).circuit
    res = basis_equiv(c, lambda k: (k, cmath.exp(1j * theta * bin(k).count("1"))))
    assert res.equivalent
    assert res.worst_fidelity >= 1 - 1e-10


def test_rz_via_hamming_zero_angle_is_identity():
    c = hamming_roundtrip(3, 0.0).circuit
    res = basis_equiv(c, lambda k: k)
    assert res.equivalent


@pytest.mark.parametrize("n", (1, 3, 4, 7, 10))
def test_rotation_bucket_size(n):
    c = hamming_roundtrip(n, 0.5).circuit
    assert count(c).rotation_bucket == math.ceil(math.log2(n + 1))
