#!/usr/bin/env python3
"""One sha256 over the text and the resource report of a fixed set of circuits.

A change that must leave every circuit and every ``count`` report as it was
prints the same digest before and after.  The set:

- every construction-table entry at n = 1..11, with and without carry-out;
- ``replace_pairs``, ``lower_ccx(c, "paired4")`` and ``lower_ccx(c)`` of the
  cuccaro adder at the same widths and carry-out settings;
- every oracle expression of the golden corpus, compiled with temporary ANDs
  and with macro Toffolis;
- every stored ``corpus/*/circuit.qc``.

Usage:
    PYTHONPATH=src python scripts/report_digest.py
"""
import hashlib
import sys
from pathlib import Path

from tclean.constructions import CONSTRUCTIONS
from tclean.goldens import ORACLE_EXPRESSIONS, default_corpus_dir
from tclean.oracle import compile_oracle
from tclean.resources import count, serialize_report
from tclean.rewrite import lower_ccx, replace_pairs
from tclean.textfmt import from_text, to_text

WIDTHS = range(1, 12)


def circuits():
    for kind, entry in CONSTRUCTIONS.items():
        for n in WIDTHS:
            for carry_out in (False, True):
                circuit = entry.build(n, carry_out)
                yield circuit
                if kind == "cuccaro-adder":
                    yield replace_pairs(circuit)
                    yield lower_ccx(circuit, "paired4")
                    yield lower_ccx(circuit)
    for expr in ORACLE_EXPRESSIONS.values():
        yield compile_oracle(expr)
        yield compile_oracle(expr, "ccx")
    for path in sorted(Path(default_corpus_dir()).glob("*/circuit.qc")):
        yield from_text(path.read_text())


def main() -> int:
    digest = hashlib.sha256()
    for circuit in circuits():
        digest.update(to_text(circuit).encode())
        digest.update(serialize_report(count(circuit)).encode())
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
