"""Command-line front end: build, count, verify, rewrite, oracle, crossover.

All output is byte-deterministic given identical flags: ``verify`` checks
every basis input, measurement branch and relative phase exactly, with no
random states.  Reports go to standard output; circuits go to ``--out`` or
standard output.  Exit codes: 0 success, 1 check failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .constructions import CONSTRUCTIONS, verify
from .ir import MAX_INDEX, Circuit, CircuitError
from .oracle import OracleParseError, TooManyVariablesError, compile_oracle
from .resources import CostModel, NoCrossoverError, count, crossover, effective_t_formula, hybrid_cutoff, serialize_report
from .rewrite import replace_pairs
from .sim import SimulationError
from .textfmt import TextFormatError, from_text, to_text


# -- argument parsing -------------------------------------------------------------


def _width(text: str) -> int:
    # No kind names its qubits within MAX_INDEX past this width.
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > MAX_INDEX:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_INDEX}, got {value}")
    return value


def _make_parser() -> argparse.ArgumentParser:
    # argparse handles usage errors: message to stderr, exit code 2.
    parser = argparse.ArgumentParser(prog="tclean", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit a construction as circuit text")
    p_build.add_argument("--kind", required=True, choices=tuple(CONSTRUCTIONS))
    p_build.add_argument("--n", type=_width, default=2)
    p_build.add_argument("--carry-out", action="store_true")
    p_build.add_argument("--out")

    p_count = sub.add_parser("count", help="measure a circuit file")
    p_count.add_argument("--in", dest="infile", required=True)

    p_verify = sub.add_parser("verify", help="run a construction's oracle checks")
    p_verify.add_argument("--kind", required=True, choices=tuple(CONSTRUCTIONS))
    p_verify.add_argument("--n", type=_width, default=2)
    p_verify.add_argument("--carry-out", action="store_true")

    p_rewrite = sub.add_parser("rewrite", help="replace Toffoli pairs with temporary ANDs")
    p_rewrite.add_argument("--in", dest="infile", required=True)
    p_rewrite.add_argument("--out")
    p_rewrite.add_argument("--report", action="store_true")

    p_oracle = sub.add_parser("oracle", help="compile a boolean expression to a phase oracle")
    p_oracle.add_argument("--expr", required=True)
    p_oracle.add_argument("--out")

    p_cross = sub.add_parser(
        "crossover", help="cost-model break-even widths (closed forms, not counted circuits)",
        description="Widths from the closed-form cost model only. crossover is where n^2/480 + 4n "
        "(AND adder) overtakes 8n (Toffoli ripple) at the default constants; hybrid_cutoff prices "
        "a per-bit hybrid adder that no construction builds. Counted circuits break even later: "
        "gidney-adder (4n-4 T, ancilla_depth n^2-n) costs more than cuccaro-adder (2n-2 CCX at "
        "4 T each, ancilla_depth n) from n = 1922, or 11522 with --idle-factor 6.")
    p_cross.add_argument("--t-volume", type=float, default=960.0)
    p_cross.add_argument("--idle-factor", type=float, default=1.0)
    return parser


def _write_circuit(circuit: Circuit, out: str | None) -> None:
    text = to_text(circuit)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        if args.command == "build":
            _write_circuit(CONSTRUCTIONS[args.kind].build(args.n, args.carry_out), args.out)
            return 0
        if args.command == "count":
            with open(args.infile) as fh:
                circuit = from_text(fh.read())
            sys.stdout.write(serialize_report(count(circuit)))
            return 0
        if args.command == "verify":
            lines = verify(CONSTRUCTIONS[args.kind], args.n, args.carry_out)
            for name, ok, worst, branches in lines:
                status = "PASS" if ok else "FAIL"
                sys.stdout.write(f"{name} {status} worst_fidelity={worst:.12f} branches={branches}\n")
            return 0 if all(ok for _, ok, _, _ in lines) else 1
        if args.command == "rewrite":
            with open(args.infile) as fh:
                circuit = from_text(fh.read())
            rewritten = replace_pairs(circuit)
            _write_circuit(rewritten, args.out)
            if args.report:
                sys.stdout.write("# before\n" + serialize_report(count(circuit)))
                sys.stdout.write("# after\n" + serialize_report(count(rewritten)))
            return 0
        if args.command == "oracle":
            _write_circuit(compile_oracle(args.expr), args.out)
            return 0
        if args.command == "crossover":
            model = CostModel(t_state_volume=args.t_volume, idle_factor=args.idle_factor)
            n_star = crossover(lambda n: effective_t_formula(n, "temporary-and", model),
                               lambda n: effective_t_formula(n, "cuccaro", model))
            cutoff = hybrid_cutoff(model)
            sys.stdout.write(f"crossover {n_star}\nhybrid_cutoff {cutoff}\n")
            return 0
    except (TextFormatError, OracleParseError, TooManyVariablesError, NoCrossoverError,
            CircuitError, SimulationError, OSError, ValueError) as exc:
        sys.stderr.write(f"tclean: {exc}\n")
        return 1
    raise AssertionError("unreachable")


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
