#!/usr/bin/env python3
"""Tabulate effective T-counts of the AND-based adder against the inline baseline.

Shows the measured (circuit-derived) cost next to the closed-form model, the
break-even width of the model and of counted circuits, and the model's
hybrid cutoff, under a chosen cost model.  The counted break-even prices
``gidney_adder`` against ``cuccaro_adder`` with each CCX at 4 T.

    python scripts/effective_t_table.py --idle-factor 6
"""
import argparse

from tclean.gadgets import AdderSpec, cuccaro_adder, gidney_adder
from tclean.resources import (
    CostModel,
    count,
    crossover,
    effective_t,
    effective_t_formula,
    hybrid_cutoff,
)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-volume", type=float, default=960.0)
    parser.add_argument("--idle-factor", type=float, default=1.0)
    args = parser.parse_args(argv)
    model = CostModel(t_state_volume=args.t_volume, idle_factor=args.idle_factor)

    print(f"cost per ancilla-layer: {model.cost_per_ancilla_depth:.6f} |T> states")
    print("measured: counted gidney-adder; model columns: closed forms n^2/480 + 4n and 8n")
    print(f"{'n':>6} {'measured':>14} {'model AND':>14} {'model 8n':>12}")
    for n in (8, 16, 64, 256, 960, 1920, 3840):
        if n <= 256:
            measured = f"{effective_t(count(gidney_adder(AdderSpec(n))), model):14.3f}"
        else:
            measured = f"{'-':>14}"
        closed = effective_t_formula(n, "temporary-and", model)
        base = effective_t_formula(n, "cuccaro", model)
        print(f"{n:>6} {measured} {closed:14.3f} {base:12.1f}")

    n_star = crossover(lambda n: effective_t_formula(n, "temporary-and", model),
                       lambda n: effective_t_formula(n, "cuccaro", model))

    def counted_toffoli(n: int) -> float:
        report = count(cuccaro_adder(AdderSpec(n)))
        return effective_t(report, model) + 4 * report.ccx_count

    # Counted costs differ from the closed forms in lower-order terms only.
    counted = crossover(lambda n: effective_t(count(gidney_adder(AdderSpec(n))), model),
                        counted_toffoli, bound=2 * n_star)
    print(f"\nbreak-even width, closed-form model (whole-adder switch): n = {n_star}")
    print(f"break-even width, counted circuits (4 T per CCX):         n = {counted}")
    print(f"hybrid cutoff, closed-form model (per-bit switch):        d = {hybrid_cutoff(model)}")


if __name__ == "__main__":
    main()
