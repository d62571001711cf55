"""The committed scripts and the import layering.

The output digest stays pinned, the layer-rate report runs, and the symbolic
modules load without the simulator.
"""
import ast
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from tclean.ir import Op
from tclean.resources import count, serialize_report
from tclean.textfmt import to_text

ROOT = Path(__file__).resolve().parent.parent

#: sha256 over the text and ``count`` report of every circuit of ``scripts/report_digest.py``.
DIGEST = "ff805d7a234a9fba26d6471c875aa5db6e525ec6ade00f4eed37083a6a362607"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_is_pinned():
    """A changed byte of ``to_text`` or of a ``count`` report changes the digest."""
    digest = hashlib.sha256()
    for circuit in load_script("report_digest").circuits():
        digest.update(to_text(circuit).encode())
        digest.update(serialize_report(count(circuit)).encode())
    assert digest.hexdigest() == DIGEST


def test_layer_rates_reports_every_layer():
    script = load_script("layer_rates")
    rates = script.layer_rates(sizes=(4,), repeat=1)
    assert sorted(rates) == sorted(["build", "validate", "to_text", "from_text", "from_text_flat",
                                    "count", "find_pairs", "replace_pairs", "lower_ccx"])
    assert all(rate[4] > 0 for rate in rates.values())
    # Rates are per instruction; the records beside them are the AND gadgets' spans.
    assert script.circuit_sizes(sizes=(4,)) == {
        "gidney_adder": {4: {"instructions": 60, "records": 6}},
        "cuccaro_adder": {4: {"instructions": 31, "records": 0}},
    }


def test_effective_t_table_labels_model_values_and_counts_the_break_even(capsys):
    load_script("effective_t_table").main([])
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split() == ["n", "measured", "model", "AND", "model", "8n"]
    assert lines[-3:] == [
        "break-even width, closed-form model (whole-adder switch): n = 1920",
        "break-even width, counted circuits (4 T per CCX):         n = 1922",
        "hybrid cutoff, closed-form model (per-bit switch):        d = 960",
    ]


def test_layer_rates_reports_the_simulator():
    rates = load_script("layer_rates").sim_rates(run_sizes=(4,), branch_sizes=(2,), mcx_sizes=(4,),
                                                 repeat=1)
    assert sorted(rates) == ["channel_equiv", "enumerate_branches", "enumerate_branches_sparse", "run"]
    assert rates["run"][4] > 0 and rates["enumerate_branches"][2] > 0 and rates["channel_equiv"][2] > 0
    assert rates["enumerate_branches_sparse"][4] > 0


def test_symbolic_layers_import_without_the_simulator():
    """The package root imports nothing, so the symbolic modules load neither numpy nor ``tclean.sim``."""
    code = ("import sys\n"
            "import tclean.ir, tclean.textfmt, tclean.resources, tclean.rewrite, tclean.gadgets, tclean.oracle\n"
            "print(sorted({'numpy', 'tclean.sim'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_ops_hash_by_identity():
    for op in Op:
        assert hash(op) == object.__hash__(op)
        assert {op: 1}[Op(op.value)] == 1


def test_no_set_of_ops_in_the_package():
    """Ops hash by address, so a set of them iterates in an order that changes per process.

    No set display, set comprehension or ``set``/``frozenset`` call in ``tclean``
    names ``Op``: its fixed collections of kinds are tuples and dicts, which
    keep their written order.
    """
    def names_op(node) -> bool:
        return any(isinstance(n, ast.Name) and n.id == "Op" for n in ast.walk(node))

    for path in sorted((ROOT / "src" / "tclean").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            is_set = isinstance(node, (ast.Set, ast.SetComp)) or (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))
            assert not (is_set and names_op(node)), f"{path.name}:{node.lineno}"
