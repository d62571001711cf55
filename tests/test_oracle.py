"""Boolean expression parsing and phase-oracle compilation."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tclean.ir import MAX_INDEX, Op, validate
from tclean.oracle import (
    MAX_DEPTH,
    OracleParseError,
    TooManyVariablesError,
    Var,
    binary_node_count,
    compile_oracle,
    evaluate,
    parse_expression,
)
from tclean.resources import count
from tclean.rewrite import find_pairs, lower_ccx
from tclean.sim import basis_equiv, enumerate_branches, fidelity, run
from tclean.textfmt import to_text

import oracle_reference
from strategies import seeded_states


def phase_check(expr, impl="and"):
    ast = parse_expression(expr)
    circuit = compile_oracle(expr, impl)
    assert validate(circuit) is None
    res = basis_equiv(circuit, lambda k: (k, -1 if evaluate(ast, k) else 1))
    assert res.equivalent, (expr, res)
    return circuit


def test_parse_precedence():
    # ! binds tighter than &, & tighter than ^, ^ tighter than |
    ast = parse_expression("!x0 & x1 ^ x2 | x3")
    assert evaluate(ast, 0b0001) is False   # ((!x0 & x1) ^ x2) | x3 with x0=1
    assert evaluate(ast, 0b0010) is True    # !x0 & x1
    assert evaluate(ast, 0b0100) is True    # ^ x2
    assert evaluate(ast, 0b0110) is False   # (!0&1)=1 ^ 1 = 0
    assert evaluate(ast, 0b1000) is True    # | x3


def test_parse_errors():
    for bad in ("", "x", "x0 &", "(x0", "x0 ) x1", "x0 $ x1", "0x1"):
        with pytest.raises(OracleParseError):
            parse_expression(bad)


@pytest.mark.parametrize("expr, column, message", [
    ("x²", 2, "variable needs an index, like x0"),
    ("x0 & x٣", 7, "variable needs an index, like x0"),   # Arabic-Indic three
    ("x0 | x１", 7, "variable needs an index, like x0"),  # fullwidth one
    ("(" * 3000 + "x0" + ")" * 3000, MAX_DEPTH + 1, f"expression nests deeper than {MAX_DEPTH}"),
    ("!" * 3000 + "x0", MAX_DEPTH + 1, f"expression nests deeper than {MAX_DEPTH}"),
    (" ^ ".join(["x0"] * 3000), 5 * MAX_DEPTH + 4, f"expression nests deeper than {MAX_DEPTH}"),
    ("x0" + " & x1" * MAX_DEPTH + " | x2", 5 * MAX_DEPTH + 4, f"expression nests deeper than {MAX_DEPTH}"),
    # the innermost & nests 81 deep and each enclosing !( ... & one more: the 20th & is the first too deep
    ("!(x0 & " * 40 + "x1" + ")" * 40, 7 * 19 + 6, f"expression nests deeper than {MAX_DEPTH}"),
])
def test_parse_errors_name_the_column(expr, column, message):
    with pytest.raises(OracleParseError) as err:
        parse_expression(expr)
    assert str(err.value) == f"column {column}: {message}"


def test_nesting_up_to_the_bound_compiles():
    for expr in ("(" * MAX_DEPTH + "x0" + ")" * MAX_DEPTH, "!" * MAX_DEPTH + "x0",
                 " ^ ".join(["x0", "x1"] * (MAX_DEPTH // 2) + ["x0"])):
        circuit = compile_oracle(expr)
        assert count(circuit).t_count == 4 * binary_node_count(parse_expression(expr))


def test_too_many_variables():
    with pytest.raises(TooManyVariablesError):
        compile_oracle("x0 & x12")  # implies 13 inputs


def test_an_overlong_variable_index_is_refused_before_int_reads_it():
    """``int()`` refuses more than 4,300 digits; the parser refuses a long index first."""
    for expr, column in (("x" + "1" * 5000, 1), ("x0 & x" + "9" * 4301, 6)):
        with pytest.raises(TooManyVariablesError) as err:
            compile_oracle(expr)
        digits = len(expr) - column
        assert str(err.value) == f"column {column}: a {digits}-digit variable index exceeds the bound 12"


def test_leading_zeros_are_dropped_from_a_variable_index():
    assert parse_expression("x" + "0" * 5000 + "1") == Var(1)
    assert parse_expression("x" + "0" * 5000) == Var(0)
    assert to_text(compile_oracle("x" + "0" * 5000 + "1 & x0")) == to_text(compile_oracle("x1 & x0"))


@pytest.mark.parametrize("digits", [1, 5, len(str(MAX_INDEX)), len(str(MAX_INDEX)) + 1, 4300, 4301, 5000])
@pytest.mark.parametrize("zeros", [0, 5000])
def test_parse_expression_reads_any_index_length_without_value_error(digits, zeros):
    expr = "x" + "0" * zeros + "9" * digits
    if digits <= len(str(MAX_INDEX)):
        assert parse_expression(expr) == Var(int("9" * digits))
    else:
        with pytest.raises(TooManyVariablesError):
            parse_expression(expr)


def test_single_variable_is_bare_z():
    c = compile_oracle("x0")
    assert [i.op for i in c.instructions] == [Op.Z]
    assert count(c).t_count == 0


def test_negated_variable():
    c = phase_check("!x0")
    assert count(c).t_count == 0


def test_and_costs_four_and_phases_eleven():
    c = phase_check("x0 & x1")
    assert count(c).t_count == 4
    # phase is exactly -1 on |11> and +1 elsewhere
    vec = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    for br in enumerate_branches(c, vec):
        ratio = br.final_state / vec
        assert np.allclose(ratio, [1, 1, 1, -1], atol=1e-10)


def test_xor_is_free():
    c = phase_check("x0 ^ x1 ^ x2")
    assert count(c).t_count == 0


@pytest.mark.parametrize("expr", [
    "x0 | x1",
    "x0 & (x1 | x2)",
    "!(x0 & x1) | (x2 ^ !x0)",
    "(x0 | x1) & (x0 | x2)",
    "x0 & x1 & x2 & x3",
    "!x1 ^ (x1 & !x1)",
])
def test_phase_semantics(expr):
    phase_check(expr)
    phase_check(expr, impl="ccx")


@pytest.mark.parametrize("expr", ["x0 & x1", "x0 & (x1 | x2)", "(x0 ^ x1) & x2"])
def test_t_count_is_four_per_binary_node(expr):
    ast = parse_expression(expr)
    c = compile_oracle(expr)
    assert count(c).t_count == 4 * binary_node_count(ast)


@pytest.mark.parametrize("expr", ["x0 & x1", "x0 | (x1 & x2)", "(x0 | x1) & (x2 | x3)"])
def test_gadget_build_halves_paired_toffoli_build(expr):
    ast = parse_expression(expr)
    c_and = compile_oracle(expr, "and")
    c_ccx = compile_oracle(expr, "ccx")
    assert len(find_pairs(c_ccx)) == binary_node_count(ast)
    lowered = lower_ccx(c_ccx, "paired4")
    assert count(c_and).t_count * 2 == count(lowered).t_count


def test_oracle_is_involution():
    c = compile_oracle("x0 & (x1 | x2)")
    (state,) = seeded_states(c, 1, seed=7)
    for br in enumerate_branches(c, state):
        assert fidelity(run(c, br.final_state).final_state, state) > 1 - 1e-10, br.outcomes


def random_expression(rng, n_vars, max_binary):
    binary = 0

    def gen(depth):
        nonlocal binary
        roll = rng.random()
        if depth > 3 or roll < 0.35:
            var = f"x{int(rng.integers(n_vars))}"
            return f"!{var}" if rng.random() < 0.3 else var
        op = rng.choice(["&", "|", "^"], p=[0.45, 0.35, 0.2])
        if op in "&|":
            if binary >= max_binary:
                return gen(4)
            binary += 1
        left, right = gen(depth + 1), gen(depth + 1)
        text = f"({left} {op} {right})"
        return f"!{text}" if rng.random() < 0.15 else text

    return gen(0)


def test_fifty_random_expressions():
    rng = np.random.default_rng(23)
    for _ in range(50):
        expr = random_expression(rng, n_vars=int(rng.integers(2, 7)), max_binary=5)
        ast = parse_expression(expr)
        circuit = phase_check(expr)
        assert count(circuit).t_count == 4 * binary_node_count(ast)


def _compound(inner):
    return st.one_of(
        inner.map(lambda e: f"!{e}"),
        inner.map(lambda e: f"!({e})"),
        inner.map(lambda e: f"({e})"),
        st.tuples(inner, st.sampled_from("&|^"), inner).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    )


#: Expressions over x0..x4 with ``!`` at any depth, AND, OR, XOR and parentheses.
EXPRESSIONS = st.recursive(st.integers(0, 4).map(lambda k: f"x{k}"), _compound, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS)
@example("!x0")
@example("!!(x0 & x1)")
@example("!(x0 ^ !x1)")
@example("!(x0 | !(x1 & !x2)) ^ !(x3 ^ x4)")
def test_one_walk_compiles_what_the_normalised_tree_compiled(expr):
    """The negation carried down the walk gives the circuit the two-pass reference gives.

    The reference builds each AND directly, so the AND oracle, which is the
    rewritten Toffoli build, must leave no conjunction's pair unmatched.
    """
    try:
        ast = parse_expression(expr)
    except OracleParseError:  # nests past MAX_DEPTH: both compilers share the parser
        return
    for impl in ("and", "ccx"):
        assert to_text(compile_oracle(expr, impl)) == to_text(oracle_reference.compile_oracle(expr, impl)), impl
    # A missed pair would keep a CCX and report fewer T.
    report = count(compile_oracle(expr))
    assert (report.ccx_count, report.t_count) == (0, 4 * binary_node_count(ast))
