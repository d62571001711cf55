"""The stored corpus is self-verifying on a clean checkout."""
import itertools
import re
import shutil

import pytest

import tclean.constructions as constructions
import tclean.goldens as goldens
import tclean.sim as sim
from tclean.goldens import ENTRIES, check_goldens, default_corpus_dir
from tclean.oracle import evaluate, parse_expression
from tclean.textfmt import from_text

from basis_reference import reference_phase_oracle_check

#: A measure-and-fixup erasure's conditioned CZ, as a whole line.
CZ_FIXUP = re.compile(r"^\? c\d+ : cz .*\n", re.MULTILINE)
#: An unconditioned T gate, as a whole line.
T_GATE = re.compile(r"^t \d+\n", re.MULTILINE)
#: A gadget span's ``#begin`` or ``#end`` marker line.  A mutant is parsed
#: without them: a mutated span is no instance of its template, and the
#: parser refuses it as malformed.
SPAN_MARKER = re.compile(r"^#(begin|end) .*\n", re.MULTILINE)


def bare(text: str) -> str:
    """Circuit text without its span markers: the same instructions as bare steps."""
    return SPAN_MARKER.sub("", text)


def test_corpus_directory_exists():
    corpus = default_corpus_dir()
    assert corpus.is_dir()
    for spec in ENTRIES:
        assert (corpus / spec.name / "circuit.qc").is_file(), spec.name


def test_check_goldens_passes():
    results = check_goldens()
    failures = [r for r in results if not r.ok]
    assert not failures, "\n".join(f"{r.name}: {r.message}" for r in failures)
    assert len(results) == len(ENTRIES)


def test_check_goldens_reads_no_dense_state(monkeypatch):
    reads, walks = [], []
    input_vector, basis_equiv = sim._input_vector, sim.basis_equiv

    def counted(*args, **kwargs):
        walks.append(args)
        return basis_equiv(*args, **kwargs)

    monkeypatch.setattr(sim, "_input_vector", lambda *args: reads.append(args) or input_vector(*args))
    monkeypatch.setattr(goldens, "basis_equiv", counted)
    monkeypatch.setattr(constructions, "basis_equiv", counted)
    assert all(result.ok for result in check_goldens())
    # One walk per built entry and oracle, two for the canonical pair and its replacement.
    assert (len(reads), len(walks)) == (0, len(ENTRIES) + 1)


def test_corrupted_entry_is_reported(tmp_path):
    src = default_corpus_dir()
    dst = tmp_path / "corpus"
    shutil.copytree(src, dst)
    target = dst / "gidney-adder-n5" / "report.txt"
    target.write_text(target.read_text().replace("t_count 16", "t_count 17"))
    results = {r.name: r for r in check_goldens(dst)}
    assert not results["gidney-adder-n5"].ok
    assert "mismatch" in results["gidney-adder-n5"].message
    others = [r for name, r in results.items() if name != "gidney-adder-n5"]
    assert all(r.ok for r in others)


def _stored_circuit(spec) -> str:
    return (default_corpus_dir() / spec.name / "circuit.qc").read_text()


@pytest.mark.parametrize("spec", [spec for spec in ENTRIES if CZ_FIXUP.search(_stored_circuit(spec))],
                         ids=lambda spec: spec.name)
def test_check_fails_without_phase_fixups(spec):
    # Without its CZ fixups an erasure leaves a phase error that basis
    # inputs alone cannot see; every entry's check must still catch it.
    stripped = from_text(bare(CZ_FIXUP.sub("", _stored_circuit(spec))))
    with pytest.raises(AssertionError):
        spec.check(stripped)


BUILT_WITH_T = [spec for spec in ENTRIES
                if spec.build_cmd and spec.build_cmd.startswith("build ") and T_GATE.search(_stored_circuit(spec))]


@pytest.mark.parametrize("spec", BUILT_WITH_T, ids=lambda spec: spec.name)
def test_check_fails_without_its_first_t(spec):
    dropped = from_text(bare(T_GATE.sub("", _stored_circuit(spec), count=1)))
    with pytest.raises(AssertionError):
        spec.check(dropped)


def _symmetric_pair(expr: str, n: int) -> tuple[int, int]:
    """The first two inputs whose swap never changes the expression's value."""
    ast = parse_expression(expr)
    for a, b in itertools.combinations(range(n), 2):
        swap = lambda k: k ^ ((k >> a ^ k >> b) & 1) * (1 << a | 1 << b)
        if all(evaluate(ast, k) == evaluate(ast, swap(k)) for k in range(1 << n)):
            return a, b
    raise AssertionError(f"no two inputs of {expr!r} are symmetric")


ORACLES = [spec for spec in ENTRIES if spec.semantics.startswith("phase-oracle ")]


@pytest.mark.parametrize("spec", ORACLES, ids=lambda spec: spec.name)
def test_oracle_check_fails_an_oracle_followed_by_a_symmetric_swap(spec):
    # The swap fixes the signed uniform state, so a check on that state alone
    # passes it; as a map on the inputs it is no oracle.
    expr = spec.semantics.removeprefix("phase-oracle ")
    text = _stored_circuit(spec)
    inputs = from_text(text).input_qubits()
    a, b = (inputs[j] for j in _symmetric_pair(expr, len(inputs)))
    swapped = from_text(text + f"cx {a} {b}\ncx {b} {a}\ncx {a} {b}\n")
    reference_phase_oracle_check(swapped, expr)
    with pytest.raises(AssertionError, match="oracle phases wrong"):
        spec.check(swapped)
