#!/usr/bin/env python3
"""Instructions per second of each layer, best of k: symbolic layers and the simulator.

Build, ``validate``, ``to_text``, ``from_text`` and ``count`` run on
``gidney_adder(AdderSpec(n))``; ``from_text_flat`` is ``from_text`` on the
text of ``cuccaro_adder(AdderSpec(n))``, which holds no gadget record;
``find_pairs``, ``replace_pairs`` and ``lower_ccx("paired4")`` run on
``cuccaro_adder(AdderSpec(n))``, whose Toffoli pairs they match; all at
n = 64, 256 and 1024.  The simulator runs ``gidney_adder(AdderSpec(n))``
too: ``run`` on the sparse engine from one seeded basis input at n = 64,
256 and 1024, and ``enumerate_branches`` on the dense engine from one
seeded random state at n = 2, 3 and 4.  ``channel_equiv`` checks
``controlled_adder(AdderSpec(n))`` on the dense engine against its ideal
permutation on two seeded random states at n = 2, 3 and 4, the call a dense
verification spends its time in.  ``enumerate_branches_sparse`` runs
``multi_controlled_x(k)`` on the sparse engine from one seeded basis input
at k = 8 and 10: k - 1 measurements, 2^(k-1) branches, each reported with
its own 2^(k+1)-amplitude vector (k = 16 would need 64 GiB of them).  A layer's
rate is the instructions it reads (for build, the instructions it makes;
for the simulator, the circuit's instructions once, however many branches
run them) divided by the fastest of k timed calls.  Prints one JSON object
``{layer: {n: instructions_per_s}}``, with ``"circuits"`` beside the layers:
each timed circuit's instruction count and the number of gadget records
among its steps, ``{name: {n: {"instructions": i, "records": r}}}``.  A
record stands for several instructions, so a layer that steps over records
reads fewer steps than instructions; rates stay per instruction.

    PYTHONPATH=src python scripts/layer_rates.py --repeat 5
"""
import argparse
import json
import random
import sys
import time

import numpy as np

from tclean.constructions import CONSTRUCTIONS
from tclean.gadgets import AdderSpec, controlled_adder, cuccaro_adder, gidney_adder, multi_controlled_x
from tclean.ir import Gadget, validate
from tclean.resources import count
from tclean.rewrite import find_pairs, lower_ccx, replace_pairs
from tclean.sim import channel_equiv, enumerate_branches, run
from tclean.textfmt import from_text, to_text

SIZES = (64, 256, 1024)
#: Sizes of the dense ``enumerate_branches`` and ``channel_equiv``; the sparse ``run`` uses ``SIZES``.
BRANCH_SIZES = (2, 3, 4)
#: Control counts of the sparse ``enumerate_branches`` on ``multi_controlled_x``.
MCX_SIZES = (8, 10)


def best_time(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def layer_rates(sizes=SIZES, repeat: int = 5) -> dict[str, dict[int, float]]:
    rates: dict[str, dict[int, float]] = {}
    for n in sizes:
        gidney = gidney_adder(AdderSpec(n))
        text = to_text(gidney)
        cuccaro = cuccaro_adder(AdderSpec(n))
        flat_text = to_text(cuccaro)
        layers = {
            "build": (gidney, lambda: gidney_adder(AdderSpec(n))),
            "validate": (gidney, lambda: validate(gidney)),
            "to_text": (gidney, lambda: to_text(gidney)),
            "from_text": (gidney, lambda: from_text(text)),
            "from_text_flat": (cuccaro, lambda: from_text(flat_text)),
            "count": (gidney, lambda: count(gidney)),
            "find_pairs": (cuccaro, lambda: find_pairs(cuccaro)),
            "replace_pairs": (cuccaro, lambda: replace_pairs(cuccaro)),
            "lower_ccx": (cuccaro, lambda: lower_ccx(cuccaro, "paired4")),
        }
        for name, (circuit, call) in layers.items():
            rates.setdefault(name, {})[n] = round(len(circuit) / best_time(call, repeat))
    return rates


def circuit_sizes(sizes=SIZES) -> dict[str, dict[int, dict[str, int]]]:
    """Instructions and gadget records of each timed circuit, by size."""
    out: dict[str, dict[int, dict[str, int]]] = {"gidney_adder": {}, "cuccaro_adder": {}}
    for n in sizes:
        for name, build in (("gidney_adder", gidney_adder), ("cuccaro_adder", cuccaro_adder)):
            circuit = build(AdderSpec(n))
            records = sum(isinstance(step, Gadget) for step in circuit.body)
            out[name][n] = {"instructions": len(circuit), "records": records}
    return out


def sim_rates(run_sizes=SIZES, branch_sizes=BRANCH_SIZES, mcx_sizes=MCX_SIZES,
              repeat: int = 5) -> dict[str, dict[int, float]]:
    rates: dict[str, dict[int, float]] = {"run": {}, "enumerate_branches": {}, "channel_equiv": {},
                                          "enumerate_branches_sparse": {}}
    for n in run_sizes:
        adder = gidney_adder(AdderSpec(n))
        basis = random.Random(n).getrandbits(len(adder.input_qubits()))  # sparse engine
        rates["run"][n] = round(len(adder) / best_time(lambda: run(adder, basis, seed=1), repeat))
    for n in branch_sizes:
        adder = gidney_adder(AdderSpec(n))
        rng, dim = np.random.default_rng(n), 1 << len(adder.input_qubits())
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)  # a random dense state: the dense engine
        rates["enumerate_branches"][n] = round(
            len(adder) / best_time(lambda: enumerate_branches(adder, state), repeat))
    for n in branch_sizes:
        adder = controlled_adder(AdderSpec(n))
        dim = 1 << len(adder.input_qubits())
        table = np.array([CONSTRUCTIONS["controlled-adder"].ideal(n)(k) for k in range(dim)])

        def ideal(vec: np.ndarray) -> np.ndarray:
            out = np.zeros(dim, dtype=complex)
            out[table] = vec
            return out

        rng = np.random.default_rng(n)
        states = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(2)]
        states = [state / np.linalg.norm(state) for state in states]
        rates["channel_equiv"][n] = round(
            len(adder) / best_time(lambda: channel_equiv(adder, ideal, input_states=states), repeat))
    for k in mcx_sizes:
        mcx = multi_controlled_x(k)
        basis = random.Random(k).getrandbits(k + 1)
        rates["enumerate_branches_sparse"][k] = round(
            len(mcx) / best_time(lambda: enumerate_branches(mcx, basis), repeat))
    return rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per layer and size")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help="sizes of the symbolic layers")
    args = parser.parse_args(argv)
    print(json.dumps({**layer_rates(args.sizes, args.repeat), **sim_rates(repeat=args.repeat),
                      "circuits": circuit_sizes(args.sizes)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
