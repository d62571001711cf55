"""Phase-gradient application by addition into a prepared register."""
import math

import numpy as np
import pytest

from tclean.gadgets import AdderSpec, gidney_adder, phase_gradient_add
from tclean.resources import count
from tclean.sim import enumerate_branches, gradient_state
from tclean.ir import validate


def kick_input(n, k):
    vec = np.zeros(1 << n, dtype=complex)
    vec[k] = 1.0
    return np.kron(gradient_state(n), vec)  # target bits low, gradient bits high


@pytest.mark.parametrize("n", (1, 2, 3))
def test_every_basis_state_gets_its_phase(n):
    c = phase_gradient_add(n)
    assert validate(c) is None
    for k in range(1 << n):
        inp = kick_input(n, k)
        expected = np.exp(2j * math.pi * k / (1 << n)) * inp
        for br in enumerate_branches(c, inp):
            assert abs(np.vdot(expected, br.final_state)) ** 2 >= 1 - 1e-10


def test_k_zero_has_unit_phase():
    c = phase_gradient_add(3)
    inp = kick_input(3, 0)
    for br in enumerate_branches(c, inp):
        assert abs(np.vdot(inp, br.final_state)) ** 2 >= 1 - 1e-10


@pytest.mark.parametrize("n", (1, 2, 3, 6, 12))
def test_t_count_equals_one_adder(n):
    assert count(phase_gradient_add(n)).t_count == count(gidney_adder(AdderSpec(n))).t_count


def test_gradient_state_is_normalized_eigenvector():
    g = gradient_state(4)
    assert abs(np.linalg.norm(g) - 1) < 1e-12
    # adding 1 (mod 16) maps amplitude k to slot k+1: an eigenstate with
    # eigenvalue exp(2*pi*i/16)
    shifted = np.roll(g, 1)
    ratio = shifted / g
    assert np.allclose(ratio, ratio[0])
    assert abs(ratio[0] - np.exp(2j * math.pi / 16)) < 1e-12
