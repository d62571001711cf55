"""Command-line interface: flags, determinism, exit codes."""
import io
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tclean import sim
from tclean.cli import main
from tclean.constructions import CONSTRUCTIONS
from tclean.goldens import default_corpus_dir
from tclean.ir import MAX_INDEX, Op
from tclean.oracle import MAX_DEPTH
from tclean.resources import count
from tclean.sim import MAX_TERMS
from tclean.textfmt import from_text


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_build_then_count_five_bit_adder(tmp_path):
    path = tmp_path / "adder.qc"
    code, _, _ = run_cli(["build", "--kind", "gidney-adder", "--n", "5", "--out", str(path)])
    assert code == 0
    code, out, _ = run_cli(["count", "--in", str(path)])
    assert code == 0
    assert "t_count 16" in out
    assert "meas_depth 8" in out


@pytest.mark.parametrize("kind", CONSTRUCTIONS)
def test_every_build_kind_round_trips(kind):
    code, out, _ = run_cli(["build", "--kind", kind, "--n", "3"])
    assert code == 0
    circuit = from_text(out)
    assert len(circuit.instructions) >= 1


def test_build_carry_out_flag():
    code, out, _ = run_cli(["build", "--kind", "gidney-adder", "--n", "3", "--carry-out"])
    assert code == 0
    assert count(from_text(out)).t_count == 12


def test_crossover_defaults():
    code, out, _ = run_cli(["crossover"])
    assert code == 0
    assert out == "crossover 1920\nhybrid_cutoff 960\n"


def test_crossover_idle_factor():
    code, out, _ = run_cli(["crossover", "--idle-factor", "6"])
    assert code == 0
    assert "hybrid_cutoff 5760" in out


def test_verify_is_byte_deterministic():
    args = ["verify", "--kind", "gidney-adder", "--n", "3"]
    first = run_cli(args)
    second = run_cli(args)
    assert first == second
    assert first[0] == 0
    assert "PASS" in first[1]


#: ``verify`` stdout per (kind, n): check names, order, fidelities and branch
#: counts.  A ``*channel`` line walks every (input, branch) pair, as
#: ``popcount`` and ``kickback-phases`` do.
VERIFY_SNAPSHOT = {
    ("gidney-adder", 3): (
        "counts PASS worst_fidelity=1.000000000000 branches=0\n"
        "channel PASS worst_fidelity=1.000000000000 branches=256\n"
    ),
    ("cuccaro-adder", 3): (
        "counts PASS worst_fidelity=1.000000000000 branches=0\n"
        "channel PASS worst_fidelity=1.000000000000 branches=64\n"
        "replace-pairs-t PASS worst_fidelity=1.000000000000 branches=0\n"
    ),
    ("controlled-adder", 2): (
        "counts PASS worst_fidelity=1.000000000000 branches=0\n"
        "channel PASS worst_fidelity=1.000000000000 branches=256\n"
    ),
    ("out-of-place-adder", 2): (
        "counts PASS worst_fidelity=1.000000000000 branches=0\n"
        "channel PASS worst_fidelity=1.000000000000 branches=16\n"
        "inverse-t-free PASS worst_fidelity=1.000000000000 branches=0\n"
    ),
    ("and", 2): (
        "compute-counts PASS worst_fidelity=1.000000000000 branches=0\n"
        "compute-channel PASS worst_fidelity=1.000000000000 branches=4\n"
        "roundtrip-counts PASS worst_fidelity=1.000000000000 branches=0\n"
        "roundtrip-channel PASS worst_fidelity=1.000000000000 branches=8\n"
    ),
    ("mcx", 3): (
        "counts PASS worst_fidelity=1.000000000000 branches=0\n"
        "channel PASS worst_fidelity=1.000000000000 branches=64\n"
    ),
    ("hamming", 3): (
        "t-bound PASS worst_fidelity=1.000000000000 branches=0\n"
        "popcount PASS worst_fidelity=1.000000000000 branches=8\n"
    ),
    ("phase-gradient", 2): (
        "t-equals-adder PASS worst_fidelity=1.000000000000 branches=0\n"
        "kickback-phases PASS worst_fidelity=1.000000000000 branches=32\n"
    ),
}


@pytest.mark.parametrize("kind,n", VERIFY_SNAPSHOT)
def test_verify_stdout_snapshot(kind, n):
    code, out, err = run_cli(["verify", "--kind", kind, "--n", str(n)])
    assert (code, out, err) == (0, VERIFY_SNAPSHOT[kind, n], "")


def test_verify_carry_out_checks_the_carry_out_adder():
    code, out, err = run_cli(["verify", "--kind", "gidney-adder", "--n", "4", "--carry-out"])
    assert (code, err) == (0, "")
    assert out == ("counts PASS worst_fidelity=1.000000000000 branches=0\n"
                   "channel PASS worst_fidelity=1.000000000000 branches=4096\n")


#: A small width per table entry: the snapshot's.
SMALL_N = dict(VERIFY_SNAPSHOT.keys())


def test_snapshot_covers_every_table_entry():
    assert set(SMALL_N) == set(CONSTRUCTIONS)


@pytest.mark.parametrize("kind,n", [(kind, SMALL_N[kind]) for kind in CONSTRUCTIONS])
def test_verify_all_kinds_pass(kind, n):
    code, out, _ = run_cli(["verify", "--kind", kind, "--n", str(n)])
    assert code == 0, out
    assert "FAIL" not in out


@pytest.mark.parametrize("kind,n", [(kind, SMALL_N[kind]) for kind in CONSTRUCTIONS])
def test_verify_carry_out_passes_every_kind(kind, n):
    # Kinds without a carry-out ignore the flag, as build does.
    code, out, _ = run_cli(["verify", "--kind", kind, "--n", str(n), "--carry-out"])
    assert code == 0, out
    assert "FAIL" not in out


def test_verify_reads_no_dense_state(monkeypatch):
    reads = []
    input_vector = sim._input_vector
    monkeypatch.setattr(sim, "_input_vector", lambda *args: reads.append(args) or input_vector(*args))
    for kind, n in SMALL_N.items():
        assert run_cli(["verify", "--kind", kind, "--n", str(n)])[0] == 0, kind
    assert reads == []


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_rejects_vacuous_trials(trials):
    # Every line is exact, so there is nothing to seed or to sample: any
    # count of trials, and any seed, is a usage error.
    for flag in (["--trials", trials], ["--trials", "3"], ["--seed", "7"]):
        code, out, err = run_cli(["verify", "--kind", "gidney-adder", "--n", "3", *flag])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")


@pytest.mark.parametrize("kind", ["hamming", "gidney-adder"])
def test_verify_too_wide_for_simulator_fails_cleanly(kind):
    code, out, err = run_cli(["verify", "--kind", kind, "--n", "40"])
    assert code == 1
    assert out == ""
    assert err.startswith("tclean: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_refuses_past_the_walks_limits_before_walking(monkeypatch):
    monkeypatch.setattr(sim, "_walk", lambda *args: pytest.fail("the walk started"))
    limits = {  # 2^inputs, then 2^(inputs + measurements), past MAX_TERMS
        ("hamming", 24): f"tclean: 24 input qubits need more than {MAX_TERMS} sparse terms\n",
        ("mcx", 17): f"tclean: 2^18 inputs and 2^16 branches allow more than {MAX_TERMS} "
                     "(input, branch) pairs\n",
        ("gidney-adder", 9): f"tclean: 2^18 inputs and 2^8 branches allow more than {MAX_TERMS} "
                             "(input, branch) pairs\n",
    }
    for (kind, n), err in limits.items():
        assert run_cli(["verify", "--kind", kind, "--n", str(n)]) == (1, "", err)


def test_verify_refuses_hamming_where_its_alloct_doubles_past_the_term_limit(monkeypatch):
    # hamming makes no measurement: its first alloct takes 2^23 terms to 2^24.
    monkeypatch.setattr(sim, "_walk", lambda *args: pytest.fail("the walk started"))
    assert run_cli(["verify", "--kind", "hamming", "--n", "23"]) == (
        1, "", f"tclean: 23 input qubits need more than {MAX_TERMS} sparse terms\n")


class _PastTheGuards(Exception):
    pass


def test_verify_does_not_refuse_hamming_at_22(monkeypatch):
    # basis_equiv checks the outputs are live right after its last guard; stop
    # there, before the walk's 2^22 starting terms are made.
    def stop(*args):
        raise _PastTheGuards

    monkeypatch.setattr(sim, "_check_live", stop)
    with pytest.raises(_PastTheGuards):
        run_cli(["verify", "--kind", "hamming", "--n", "22"])


@pytest.mark.parametrize("text", ["#input a 0\n#input a 1\nx 0\n",
                                  "#input a 0 1\n#output s 0\n#output s 1\nx 0\n"], ids=["inputs", "outputs"])
def test_register_name_repeated_on_one_side_fails_with_one_line(tmp_path, text):
    path = tmp_path / "twice.qc"
    path.write_text(text)
    side, name = ("input", "a") if "#output" not in text else ("output", "s")
    assert run_cli(["count", "--in", str(path)]) == (
        1, "", f"tclean: BAD_REGISTER_NAME at instruction 0: register name {name!r} declared twice as an {side}\n")


@pytest.mark.parametrize("command", ["build", "verify"])
def test_width_past_the_id_limit_is_a_usage_error_inside_one_gib(command):
    # Naming that many qubits would end in a MemoryError inside the limit.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for kind, n in (("gidney-adder", 10 ** 12), ("mcx", 10 ** 12), ("and", MAX_INDEX + 1)):
        proc = subprocess.run([sys.executable, "-m", "tclean.cli", command, "--kind", kind, "--n", str(n)],
                              capture_output=True, text=True, env=env, timeout=60,
                              preexec_fn=_limit_address_space)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: tclean ") and proc.stderr.count("error:") == 1
        assert proc.stderr.endswith(f"error: argument --n: must be at most {MAX_INDEX}, got {n}\n")


@pytest.mark.parametrize("command", ["build", "verify"])
def test_non_integer_width_is_a_plain_usage_error(command):
    code, out, err = run_cli([command, "--kind", "gidney-adder", "--n", "x"])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --n: must be an integer, got 'x'\n")
    assert "_width" not in err


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_width_below_one_is_a_usage_error(command, n):
    # A usage error (exit 2), not a check failure (exit 1), for every kind.
    for kind in CONSTRUCTIONS:
        code, out, err = run_cli([command, "--kind", kind, "--n", n])
        assert (code, out) == (2, ""), kind
        assert err.startswith("usage: tclean ") and err.count("error:") == 1
        assert err.endswith(f"error: argument --n: must be at least 1, got {n}\n")


def test_width_at_the_id_limit_is_accepted_by_the_parser():
    code, out, _ = run_cli(["build", "--kind", "and", "--n", str(MAX_INDEX)])  # and ignores --n
    assert code == 0 and out.startswith("#input")


@pytest.mark.parametrize("argv", [["build", "--kind", kind] for kind in sorted(set(CONSTRUCTIONS) - {"and"})]
                         + [["verify", "--kind", "gidney-adder"]], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_width_at_the_id_limit_is_refused_before_the_circuit_is_built(argv):
    # Every kind but and names an id past MAX_INDEX at this width.  The
    # builder refuses it where it hands it out, in well under a second,
    # where building gidney-adder whole took 7 s and 0.8 GB and then printed
    # every id of a register.
    start = time.perf_counter()
    code, out, err = run_cli([*argv, "--n", str(MAX_INDEX)])
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err.startswith("tclean: BAD_ARITY at instruction ") and err.count("\n") == 1 and len(err) < 200
    assert err.endswith(f": qubit index {MAX_INDEX + 1} exceeds the limit {MAX_INDEX}\n")


def test_rewrite_command(tmp_path):
    src = tmp_path / "pair.qc"
    src.write_text(
        "#input a 0\n#input b 1\n#input x 2\n"
        "alloc0 3\nccx 0 1 3\ncx 3 2\nccx 0 1 3\nrelease 3\n")
    dst = tmp_path / "out.qc"
    code, out, _ = run_cli(["rewrite", "--in", str(src), "--out", str(dst), "--report"])
    assert code == 0
    assert "# before" in out and "# after" in out
    rewritten = from_text(dst.read_text())
    assert count(rewritten).t_count == 4
    assert count(rewritten).ccx_count == 0


def test_oracle_command():
    code, out, _ = run_cli(["oracle", "--expr", "x0 & (x1 | x2)"])
    assert code == 0
    assert count(from_text(out)).t_count == 8


def test_unknown_flag_exits_2():
    code, _, err = run_cli(["build", "--kind", "gidney-adder", "--bogus"])
    assert code == 2
    assert err


def test_unknown_kind_exits_2():
    code, _, _ = run_cli(["build", "--kind", "nonesuch"])
    assert code == 2


def test_missing_file_is_failure_not_crash():
    code, _, err = run_cli(["count", "--in", "/nonexistent/file.qc"])
    assert code == 1
    assert err


@pytest.mark.parametrize("command", ["count", "rewrite"])
def test_unreadable_path_fails_with_one_line(tmp_path, command):
    code, out, err = run_cli([command, "--in", str(tmp_path)])  # a directory
    assert (code, out) == (1, "")
    assert err.startswith("tclean: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--t-volume", "--idle-factor"])
def test_crossover_rejects_nan(flag):
    code, out, err = run_cli(["crossover", flag, "nan"])
    assert (code, out) == (1, "")
    assert err.startswith("tclean: cost model constants must be positive numbers")


@pytest.mark.parametrize("command", ["count", "rewrite"])
def test_invalid_circuit_file_fails_with_one_line(tmp_path, command):
    path = tmp_path / "bad.qc"
    path.write_text("cx 0 1\n")  # parses, but qubit 0 was never declared
    extra = ["--out", str(tmp_path / "out.qc"), "--report"] if command == "rewrite" else []
    code, out, err = run_cli([command, "--in", str(path)] + extra)
    assert (code, out) == (1, "")
    assert err == "tclean: USE_BEFORE_ALLOC at instruction 0: qubit 0 used before allocation\n"
    assert not (tmp_path / "out.qc").exists()


@pytest.mark.parametrize("command", ["count", "rewrite"])
def test_nested_span_file_fails_with_one_line(tmp_path, command):
    path = tmp_path / "nested.qc"
    path.write_text("#input a 0 1 2\nt 1\n#begin and_compute\nx 0\n#begin and_uncompute\ncx 1 2\n"
                    "#end and_uncompute\ncx 2 0\n#end and_compute\n")
    extra = ["--report"] if command == "rewrite" else []
    code, out, err = run_cli([command, "--in", str(path)] + extra)
    assert (code, out) == (1, "")
    assert err == ("tclean: MALFORMED_GADGET_SPAN at instruction 1: #begin and_compute on line 3 "
                   "does not hold one instance of its template\n")


#: A span that is no instance of its tag's template: an alloc0 and five T
#: gates marked as one AND computation, and an mz and a release marked as
#: one erasure.  Held as spans, they would price as two unit events.
FORGED_SPANS = ("#input a 0\n#begin and_compute\nalloc0 1\n" + "t 1\n" * 5 + "#end and_compute\n"
                "#begin and_uncompute\nmz 1 -> c0\nrelease 1\n#end and_uncompute\n")


def test_forged_spans_are_refused_and_count_as_their_instructions(tmp_path):
    path = tmp_path / "forged.qc"
    path.write_text(FORGED_SPANS)
    code, out, err = run_cli(["count", "--in", str(path)])
    assert (code, out) == (1, "")
    assert err == ("tclean: MALFORMED_GADGET_SPAN at instruction 0: #begin and_compute on line 2 "
                   "does not hold one instance of its template\n")
    path.write_text("".join(line for line in FORGED_SPANS.splitlines(keepends=True)
                            if not line.startswith(("#begin", "#end"))))
    code, out, _ = run_cli(["count", "--in", str(path)])
    assert code == 0
    assert "meas_depth 6\n" in out and "ancilla_depth 7\n" in out


@pytest.mark.parametrize("text", ["#input a 0\n#output a 0\n#output b 0\nx 0\n",
                                  "#input a 0\n#output a 0 0\nx 0\n"], ids=["two-registers", "one-register"])
def test_output_declared_twice_fails_with_one_line(tmp_path, text):
    path = tmp_path / "twice.qc"
    path.write_text(text)
    code, out, err = run_cli(["count", "--in", str(path)])
    assert (code, out) == (1, "")
    assert err == "tclean: REGISTER_OVERLAP at instruction 1: qubit 0 declared twice as an output\n"


def test_bad_expression_reports_parse_error():
    code, _, err = run_cli(["oracle", "--expr", "x0 &"])
    assert code == 1
    assert "column" in err


def test_overlong_variable_index_fails_with_one_line():
    code, out, err = run_cli(["oracle", "--expr", "x" + "1" * 5000])
    assert (code, out) == (1, "")
    assert err == "tclean: column 1: a 5000-digit variable index exceeds the bound 12\n"


def test_zero_padded_variable_index_compiles_as_its_value():
    code, out, err = run_cli(["oracle", "--expr", "x" + "0" * 5000 + "1"])
    assert (code, err) == (0, "")
    assert out == run_cli(["oracle", "--expr", "x1"])[1]


HUGE_ID_FILES = {
    "qubit": "#input a 1000000000000000\nx 1000000000000000\n",
    "classical-bit": "#input a 0\nmz 0 -> c1000000000000000\n",
    "register": "#input a 1000000000000000\n",
}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command", ["count", "rewrite"])
@pytest.mark.parametrize("kind", HUGE_ID_FILES)
def test_huge_id_fails_with_one_line_inside_one_gib(tmp_path, command, kind):
    """Per-wire state is sized by the largest id: a huge one is a parse error, not a MemoryError."""
    path = tmp_path / "huge.qc"
    path.write_text(HUGE_ID_FILES[kind])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "tclean.cli", command, "--in", str(path)],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("tclean: line ") and proc.stderr.count("\n") == 1
    assert "exceeds the limit" in proc.stderr


#: An id of more digits than ``int()`` reads from a string (Python's default limit is 4,300).
LONG_ID = "1" * 4301


@pytest.mark.parametrize("text, message", [
    (f"#input a 0\nx {LONG_ID}\n", f"line 2: qubit index {LONG_ID} exceeds the limit {MAX_INDEX}"),
    (f"#input a {LONG_ID}\n", f"line 1: qubit index {LONG_ID} exceeds the limit {MAX_INDEX}"),
    (f"#input a 0\nmz 0 -> c{LONG_ID}\n",
     f"line 2: classical bit {LONG_ID} exceeds the limit {MAX_INDEX}"),
], ids=["qubit", "register", "classical-bit"])
def test_id_longer_than_int_reads_fails_with_its_line(tmp_path, text, message):
    path = tmp_path / "long.qc"
    path.write_text(text)
    code, out, err = run_cli(["count", "--in", str(path)])
    assert (code, out, err) == (1, "", f"tclean: {message}\n")


# -- mutated corpus files through the rewriter -------------------------------------

CORPUS_TEXTS = [path.read_text() for path in sorted(Path(default_corpus_dir()).glob("*/circuit.qc"))]
STRAY_MARKERS = ("#begin and_compute", "#end and_compute", "#begin and_uncompute", "#end and_uncompute")


def mutate(text: str, rng: random.Random) -> str:
    """`text` with one to three lines dropped, pairs of ids swapped or stray span markers added."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("drop", "swap", "marker"))
        if kind == "drop" and lines:
            del lines[rng.randrange(len(lines))]
        elif kind == "swap":
            # two qubit ids, or two classical bits, anywhere in the text
            bits = rng.random() < 0.3
            ids = [(k, j) for k, tokens in enumerate(lines) for j, token in enumerate(tokens)
                   if (token[1:] if bits and token[:1] == "c" else token).isdecimal()
                   and (token[:1] == "c") == bits]
            if len(ids) >= 2:
                (k1, j1), (k2, j2) = rng.sample(ids, 2)
                lines[k1][j1], lines[k2][j2] = lines[k2][j2], lines[k1][j1]
        else:
            lines.insert(rng.randint(0, len(lines)), rng.choice(STRAY_MARKERS).split())
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


def test_rewrite_and_count_survive_mutated_corpus_files(tmp_path):
    rng = random.Random(11)
    path = tmp_path / "mutated.qc"
    codes = {0: 0, 1: 0}
    for _ in range(300):
        text = mutate(rng.choice(CORPUS_TEXTS), rng)
        path.write_text(text)
        for argv in (["rewrite", "--in", str(path), "--report"], ["count", "--in", str(path)]):
            try:
                code, out, err = run_cli(argv)
            except Exception as exc:  # noqa: BLE001 - on the command line this is a traceback
                pytest.fail(f"{argv[0]} raised {exc!r} on:\n{text}")
            assert code in (0, 1, 2) and "Traceback" not in out + err, (argv, text, code, err)
            if code == 1:
                assert out == "" and err.startswith("tclean: ") and err.count("\n") == 1, err
            codes[code] = codes.get(code, 0) + 1
    assert codes[0] and codes[1]  # the mutations both keep and break circuits


# -- arbitrary input: no traceback ---------------------------------------------------


def assert_clean_exit(argv, given):
    """`argv` exits 0, 1 or 2 without a traceback, and exit 1 prints one ``tclean:`` line and nothing else."""
    shown = given if len(given) < 200 else given[:200] + f"... ({len(given)} characters)"
    try:
        code, out, err = run_cli(argv)
    except Exception as exc:  # noqa: BLE001 - on the command line this is a traceback
        pytest.fail(f"{argv[0]} raised {exc!r} on {shown!r}")
    assert code in (0, 1, 2) and "Traceback" not in out + err, (argv[0], shown, code, err)
    if code == 1:
        assert out == "" and err.startswith("tclean: ") and err.count("\n") == 1, (shown, err)
    return code


EXPR_PIECES = ("x0", "x1", "x2", "x11", "x12", "x", "x99999999999999999999", "&", "|", "^", "!", "(", ")",
               " ", "\t", "\u00a0", "²", "x٣", "x０", "$", "é", "\x00", "0", "-1", "&&", "x0x1")


def arbitrary_expression(rng: random.Random) -> str:
    """Seeded grammar pieces and junk characters, or nesting up to and far past ``MAX_DEPTH``."""
    depth = rng.choice((2, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 3000))
    roll = rng.random()
    if roll < 0.1:
        return "(" * depth + "x0" + ")" * rng.choice((depth, depth - 1))
    if roll < 0.2:
        return "!" * depth + rng.choice(("x1", ""))
    if roll < 0.3:
        return rng.choice((" ^ ", " & ", " | ", "&")).join(f"x{rng.randrange(4)}" for _ in range(depth))
    if roll < 0.35:
        return "!(x0 & " * depth + "x1" + ")" * depth
    return "".join(rng.choice(EXPR_PIECES) for _ in range(rng.randrange(25)))


def test_oracle_survives_arbitrary_expressions():
    rng = random.Random(12)
    codes = {}
    for _ in range(400):
        expr = arbitrary_expression(rng)
        code = assert_clean_exit(["oracle", "--expr", expr], expr)
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(0) and codes.get(1)


@pytest.mark.parametrize("expr", ["(" * 3000 + "x0" + ")" * 3000, " ^ ".join(["x0"] * 3000), "x²"])
def test_oracle_command_fails_deep_and_non_ascii_expressions_with_one_line(expr):
    """The installed entry point, with no test frames on the stack: one ``tclean:`` line, no traceback."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "tclean.cli", "oracle", "--expr", expr],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("tclean: column ") and proc.stderr.count("\n") == 1, proc.stderr


TEXT_TOKENS = tuple(op.value for op in Op) + (
    "#input", "#output", "#begin", "#end", "and_compute", "and_uncompute", "#", "?", ":", "->",
    "c0", "c1", "c7", "c-1", "c", "0", "1", "2", "3", "7", "-1", "1048575", "1048576",
    "99999999999999999999", "nan", "inf", "-inf", "1e999", "0.5", "a", "q", "٣", "x²", "\u00a0", "\x0b")


def token_soup(rng: random.Random) -> str:
    """Seeded lines of text-format tokens in any order, sometimes after a register, or deeply nested spans."""
    if rng.random() < 0.05:
        depth = rng.choice((2, 3000))
        closes = rng.choice((depth, depth - 1))
        return "#input a 0\n" + "#begin and_compute\n" * depth + "x 0\n" + "#end and_compute\n" * closes
    lines = ["#input a 0 1 2 3"] if rng.random() < 0.5 else []
    for _ in range(rng.randrange(12)):
        lines.append(" ".join(rng.choice(TEXT_TOKENS) for _ in range(rng.randrange(1, 6))))
    return "".join(line + "\n" for line in lines)


def test_count_and_rewrite_survive_token_soup(tmp_path):
    rng = random.Random(13)
    path = tmp_path / "soup.qc"
    codes = {}
    for _ in range(300):
        text = token_soup(rng)
        path.write_text(text)
        for argv in (["rewrite", "--in", str(path), "--report"], ["count", "--in", str(path)]):
            code = assert_clean_exit(argv, text)
            codes[code] = codes.get(code, 0) + 1
    assert codes.get(0) and codes.get(1)
