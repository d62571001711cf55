"""Every pass walks the circuit body: none reads the expanded ``Circuit.instructions``.

``Circuit.instructions`` stays a public view for readers outside the
package.  With it made to fail, building, pricing, the text format, the
rewriting passes and the simulator all still run, on a circuit built with
AND records and on one whose records the rewriter made.
"""
import numpy as np
import pytest

from tclean import sim
from tclean.constructions import CONSTRUCTIONS
from tclean.gadgets import AdderSpec, and_gadget_circuit, cuccaro_adder, gidney_adder
from tclean.ir import Circuit
from tclean.resources import count
from tclean.rewrite import find_pairs, lower_ccx, replace_pairs
from tclean.sim import SimulationError, basis_equiv, enumerate_branches, run
from tclean.textfmt import from_text, to_text

from strategies import records_around_pairs


class _PastTheGuards(Exception):
    pass


def _stop(index):
    # basis_equiv calls want first after its guards and its compile, just before the walk.
    raise _PastTheGuards


@pytest.fixture
def no_expansion(monkeypatch):
    monkeypatch.setattr(Circuit, "instructions", property(lambda self: pytest.fail("read Circuit.instructions")))


@pytest.mark.parametrize("make", [lambda: gidney_adder(AdderSpec(8)),
                                  lambda: replace_pairs(cuccaro_adder(AdderSpec(8)))],
                         ids=["gidney", "replaced-cuccaro"])
def test_no_pass_reads_the_expanded_instructions(no_expansion, monkeypatch, make):
    c = make()
    assert count(c).t_count == 28
    assert from_text(to_text(c)) == c
    assert len(find_pairs(c)) == 0 and replace_pairs(c) is c
    for mode in ("textbook7", "paired4"):
        assert count(lower_ccx(c, mode)).ccx_count == 0
    assert run(c, 5).classbits.keys() == set(range(7))
    assert len(enumerate_branches(c, 5)) == 1 << 7
    with pytest.raises(_PastTheGuards):
        basis_equiv(c, _stop)
    monkeypatch.setattr(sim, "MAX_LIVE_QUBITS", 16)  # the inputs fit, the first AND's ancilla does not
    assert sim._compile(c, sim.SimState).measurements == 7
    state = np.zeros(1 << 16, dtype=complex)
    state[5] = 1
    with pytest.raises(SimulationError, match="^more than 16 live qubits$"):
        enumerate_branches(c, state)


def test_small_walks_read_only_the_body(no_expansion, monkeypatch):
    entry = CONSTRUCTIONS["gidney-adder"]
    assert basis_equiv(entry.build(3), entry.ideal(3))
    pairs = cuccaro_adder(AdderSpec(3))
    assert find_pairs(pairs) and count(lower_ccx(pairs, "paired4")).t_count == 16
    assert basis_equiv(replace_pairs(pairs), entry.ideal(3))
    for seed in range(20):  # pairs with records before, between and after them
        mixed = records_around_pairs(np.random.default_rng(seed))
        assert find_pairs(replace_pairs(mixed)) == [] and count(lower_ccx(mixed, "paired4")).ccx_count == 0
    # An alloct that would double the terms past the cap, found in a record.
    monkeypatch.setattr(sim, "MAX_TERMS", 7)
    with pytest.raises(SimulationError, match="^2 input qubits need more than 7 sparse terms$"):
        basis_equiv(and_gadget_circuit("compute"), lambda k: k)
