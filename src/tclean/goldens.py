"""Golden-file corpus: stored circuits with expected reports and semantics.

Layout: ``corpus/<name>/{circuit.qc, report.txt, semantics.txt, build_cmd.txt}``.
Every file of an entry is rendered fresh and compared byte-for-byte with the
stored one, and the stored circuit is simulated against its semantics.  An
entry built by ``tclean build`` takes its semantics from the construction
table (:mod:`tclean.constructions`); the oracle and canonical-pair entries
carry one small check each.  Every check is one
:func:`~tclean.sim.basis_equiv` walk: a built entry against its ideal map, an
oracle against its phase per input, the canonical pair and its replacement
against x ^= a & b.
"""
from __future__ import annotations

import io
import shlex
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .constructions import CONSTRUCTIONS, exhaustive
from .ir import Circuit
from .oracle import evaluate, parse_expression
from .resources import count, serialize_report
from .rewrite import find_pairs, lower_ccx, replace_pairs
from .sim import basis_equiv
from .textfmt import from_text, to_text


@dataclass(frozen=True)
class GoldenSpec:
    name: str
    build_cmd: str | None  # tclean CLI arguments, or None for the hand-written entry
    semantics: str  # the line stored in semantics.txt
    check: Callable[[Circuit], None]  # raises AssertionError when the circuit misbehaves


#: The canonical compute/uncompute Toffoli-pair pattern (not CLI-buildable).
CANONICAL_PAIR_TEXT = """\
#input a 0
#input b 1
#input x 2
alloc0 3
ccx 0 1 3
cx 3 2
ccx 0 1 3
release 3
"""


def _construction(name: str, kind: str, n: int | None = None, *, carry_out: bool = False) -> GoldenSpec:
    """An entry built by ``tclean build --kind kind``, checked against its table entry.

    The check walks every basis input with every relative phase once
    (:func:`~tclean.constructions.exhaustive`).
    """
    entry = CONSTRUCTIONS[kind]
    cmd = f"build --kind {kind}" + (f" --n {n}" if n else "") + (" --carry-out" if carry_out else "")
    semantics = entry.semantics.format(n=n, carry_out=" carry_out=1" if carry_out else "")

    def check(circuit: Circuit) -> None:
        ok, worst, _ = exhaustive(entry, circuit, n, carry_out=carry_out)
        if not ok:
            raise AssertionError(f"{kind} semantics fail: worst fidelity {worst:.12f}")

    return GoldenSpec(name, cmd, semantics, check)


def _oracle(name: str, expr: str) -> GoldenSpec:
    return GoldenSpec(name, f"oracle --expr '{expr}'", f"phase-oracle {expr}",
                      lambda circuit: _check_phase_oracle(circuit, expr))


def _check_phase_oracle(circuit: Circuit, expr: str) -> None:
    ast = parse_expression(expr)
    if not basis_equiv(circuit, lambda k: (k, -1 if evaluate(ast, k) else 1)):
        raise AssertionError(f"oracle phases wrong for {expr!r}")


def _check_rewrite_canonical(circuit: Circuit) -> None:
    pairs = find_pairs(circuit)
    if len(pairs) != 1:
        raise AssertionError(f"expected one Toffoli pair, found {len(pairs)}")
    baseline = count(lower_ccx(circuit, "paired4")).t_count
    replaced = replace_pairs(circuit)
    after = count(replaced).t_count
    if (baseline, after) != (8, 4):
        raise AssertionError(f"expected 8 -> 4 T, got {baseline} -> {after}")
    for pair in (circuit, replaced):  # x ^= a & b, with a, b, x at input bits 0, 1, 2
        res = basis_equiv(pair, lambda k: k ^ (k & k >> 1 & 1) << 2)
        if not res:
            raise AssertionError(f"pair does not map x to x ^ (a & b): {res.worst_fidelity}")


#: The oracle entries' expressions, by entry name: the corpus and the report digest read them here.
ORACLE_EXPRESSIONS = {
    "oracle-and": "x0 & x1",
    "oracle-nested": "x0 & (x1 | x2)",
}

ENTRIES: tuple[GoldenSpec, ...] = (
    _construction("gidney-adder-n1", "gidney-adder", 1),
    _construction("gidney-adder-n2", "gidney-adder", 2),
    _construction("gidney-adder-n3", "gidney-adder", 3),
    _construction("gidney-adder-n4", "gidney-adder", 4),
    _construction("gidney-adder-n5", "gidney-adder", 5),
    _construction("gidney-adder-n6", "gidney-adder", 6),
    _construction("gidney-adder-n5-carry", "gidney-adder", 5, carry_out=True),
    _construction("cuccaro-adder-n4", "cuccaro-adder", 4),
    _construction("controlled-adder-n3", "controlled-adder", 3),
    _construction("out-of-place-adder-n3", "out-of-place-adder", 3),
    _construction("and-gadget", "and"),
    _construction("mcx-k3", "mcx", 3),
    _construction("hamming-n5", "hamming", 5),
    _construction("phase-gradient-n3", "phase-gradient", 3),
    *(_oracle(name, expr) for name, expr in ORACLE_EXPRESSIONS.items()),
    GoldenSpec("canonical-pair", None, "rewrite-canonical", _check_rewrite_canonical),
)


def default_corpus_dir() -> Path:
    return Path(__file__).resolve().parents[2] / "corpus"


def _cli_output(cmd: str) -> str:
    from .cli import main  # local import: cli imports this module's siblings

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(shlex.split(cmd))
    if code != 0:
        raise RuntimeError(f"build command failed with exit {code}: {cmd}")
    return buf.getvalue()


def render_entry(spec: GoldenSpec) -> dict[str, str]:
    """The four files of one corpus entry, rendered fresh."""
    text = CANONICAL_PAIR_TEXT if spec.build_cmd is None else _cli_output(spec.build_cmd)
    circuit = from_text(text)
    return {
        "circuit.qc": text,
        "report.txt": serialize_report(count(circuit)),
        "semantics.txt": spec.semantics + "\n",
        "build_cmd.txt": (spec.build_cmd or "none") + "\n",
    }


@dataclass(frozen=True)
class GoldenResult:
    name: str
    ok: bool
    message: str


def check_goldens(corpus_dir: Path | str | None = None) -> list[GoldenResult]:
    """Verify every corpus entry; entries are independent and order-free."""
    corpus = Path(corpus_dir) if corpus_dir is not None else default_corpus_dir()
    results: list[GoldenResult] = []
    for spec in ENTRIES:
        entry_dir = corpus / spec.name
        try:
            rendered = render_entry(spec)
            for fname, content in rendered.items():
                stored = (entry_dir / fname).read_text()
                if stored != content:
                    raise AssertionError(f"{fname} mismatch:\nstored:\n{stored}rendered:\n{content}")
            circuit = from_text(rendered["circuit.qc"])
            if to_text(circuit) != rendered["circuit.qc"]:
                raise AssertionError("stored circuit is not in canonical form")
            spec.check(circuit)
            results.append(GoldenResult(spec.name, True, "ok"))
        except Exception as exc:  # noqa: BLE001 - every failure becomes a listed mismatch
            results.append(GoldenResult(spec.name, False, str(exc)))
    return results


def write_corpus(corpus_dir: Path | str | None = None) -> None:
    """(Re)generate the corpus from the entry table."""
    corpus = Path(corpus_dir) if corpus_dir is not None else default_corpus_dir()
    for spec in ENTRIES:
        entry_dir = corpus / spec.name
        entry_dir.mkdir(parents=True, exist_ok=True)
        for fname, content in render_entry(spec).items():
            (entry_dir / fname).write_text(content)
