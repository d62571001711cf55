"""The two-pass oracle compiler, kept as the reference for tests.

This is how ``tclean.oracle.compile_oracle`` compiled before it carried
negations down the tree in one walk: ``_normalize`` first built a second
tree with every NOT pushed to a leaf (AND and OR swapped by De Morgan, XOR
passing the negation to its left operand only), and ``_emit_node`` then read
each leaf's negation off that tree.  It also builds each conjunction
directly, as a temporary AND for ``impl="and"`` or a CCX onto |0> for
``impl="ccx"``, where the production compiler rewrites its Toffoli build
into ANDs.  The differential tests require the production compiler to emit
the same circuit text.
"""
from __future__ import annotations

from dataclasses import dataclass

from tclean.gadgets import and_compute, emit_inverse
from tclean.ir import Circuit, CircuitBuilder
from tclean.oracle import (
    MAX_VARIABLES,
    And,
    Node,
    Not,
    Or,
    TooManyVariablesError,
    Var,
    Xor,
    _materialize,
    _Wire,
    parse_expression,
    variables,
)


@dataclass(frozen=True)
class _Leaf:
    index: int
    negated: bool


def _normalize(node: Node, flip: bool = False):
    if isinstance(node, Var):
        return _Leaf(node.index, flip)
    if isinstance(node, Not):
        return _normalize(node.child, not flip)
    if isinstance(node, Xor):
        return Xor(_normalize(node.left, flip), _normalize(node.right, False))
    if isinstance(node, And):
        kind = Or if flip else And
        return kind(_normalize(node.left, flip), _normalize(node.right, flip))
    kind = And if flip else Or
    return kind(_normalize(node.left, flip), _normalize(node.right, flip))


def _emit_carry(b: CircuitBuilder, x: int, y: int, impl: str) -> int:
    """A fresh ancilla holding x AND y: a temporary AND, or a CCX onto |0> for ``impl="ccx"``."""
    if impl == "and":
        return and_compute(b, x, y)
    t = b.alloc0()
    b.ccx(x, y, t)
    return t


def _emit_node(b: CircuitBuilder, node, x: tuple[int, ...], impl: str) -> _Wire:
    if isinstance(node, _Leaf):
        return _Wire(x[node.index], node.negated)
    if isinstance(node, Xor):
        wl = _emit_node(b, node.left, x, impl)
        wr = _emit_node(b, node.right, x, impl)
        z = b.alloc0()
        b.cx(wl.qubit, z)
        b.cx(wr.qubit, z)
        return _Wire(z, wl.inverted != wr.inverted)
    want = isinstance(node, Or)  # OR stores NOT(l) AND NOT(r), output inverted
    wl = _emit_node(b, node.left, x, impl)
    wr = _emit_node(b, node.right, x, impl)
    q1 = _materialize(b, wl, want, avoid=set())
    q2 = _materialize(b, wr, want, avoid={q1})
    return _Wire(_emit_carry(b, q1, q2, impl), want)


def compile_oracle(expr: str, impl: str = "and") -> Circuit:
    """Phase oracle |x> -> (-1)^f(x) |x> for the parsed expression.

    ``impl="and"`` (the default) builds conjunctions from temporary ANDs;
    ``impl="ccx"`` emits macro Toffolis instead, giving the baseline whose
    paired lowering costs exactly twice as much.
    """
    if impl not in ("and", "ccx"):
        raise ValueError(f"unknown oracle implementation {impl!r}")
    ast = parse_expression(expr)
    n_vars = max(variables(ast)) + 1
    if n_vars > MAX_VARIABLES:
        raise TooManyVariablesError(f"{n_vars} variables exceeds the bound {MAX_VARIABLES}")
    root = _normalize(ast)

    b = CircuitBuilder()
    x = b.register("x", n_vars)
    mark = b.mark()
    wire = _emit_node(b, root, x, impl)
    fragment = b.fragment_since(mark)

    if isinstance(root, (_Leaf, Xor)):
        # The wire is no Toffoli-pair target: phase it directly.
        if wire.inverted:
            b.x(wire.qubit)
            b.z(wire.qubit)
            b.x(wire.qubit)
        else:
            b.z(wire.qubit)
    else:
        # Kick the phase off a copy so the pair target is only ever read.
        out = b.alloc0()
        b.cx(wire.qubit, out)
        if wire.inverted:
            b.x(out)
        b.z(out)
        if wire.inverted:
            b.x(out)
        b.cx(wire.qubit, out)
        b.release(out)

    emit_inverse(b, fragment)
    return b.build()
