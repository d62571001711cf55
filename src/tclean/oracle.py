"""Boolean expressions compiled to compute/Z/uncompute phase oracles.

Grammar: variables ``x<k>`` (``k`` in ASCII decimal digits), operators
``& | ^ !``, parentheses, with precedence ``!`` > ``&`` > ``^`` > ``|``, nested
at most ``MAX_DEPTH`` deep.  Every binary AND/OR node costs one
temporary logical-AND (4 T); XOR and NOT are free.  The uncomputation half of
the oracle is T-free, so the whole oracle costs half of what the same tree
costs when each conjunction is a textbook-paired Toffoli pair.

Each conjunction is built as a Toffoli onto a fresh ancilla, undone in the
uncomputation half; the AND oracle is ``rewrite.replace_pairs`` of that build,
byte for byte.  Negations are carried down the tree while compiling (De Morgan
swaps AND and OR under one) and realized as CNOT+X copies, so every Toffoli
pair meets the rewriter's replacement conditions.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ir import MAX_INDEX, Circuit, CircuitBuilder
from .gadgets import emit_inverse
from .rewrite import replace_pairs

MAX_VARIABLES = 12
#: Deepest an expression may nest: each parenthesis, negation and binary
#: operator on the way from the whole expression down to a variable counts one.
MAX_DEPTH = 100


class OracleParseError(Exception):
    """PARSE_ERROR: the expression does not match the oracle grammar."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"column {position}: {message}")


class TooManyVariablesError(Exception):
    """TOO_MANY_VARIABLES: more than MAX_VARIABLES distinct inputs."""


# -- AST -----------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Xor:
    left: "Node"
    right: "Node"


Node = Var | Not | And | Or | Xor


class _Parser:
    """Recursive descent that returns each subexpression with its height.

    ``level`` counts the parentheses and negations open at the cursor.  An
    expression nests ``level + height`` deep at each node, and nesting past
    ``MAX_DEPTH`` is refused before the parser or a tree walk recurses that far.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.level = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise OracleParseError(self.pos + 1, f"expected {ch!r}")
        self.pos += 1

    def nest(self, depth: int, column: int) -> None:
        if depth > MAX_DEPTH:
            raise OracleParseError(column, f"expression nests deeper than {MAX_DEPTH}")

    def parse(self) -> Node:
        node, _ = self.or_expr()
        if self.peek():
            raise OracleParseError(self.pos + 1, f"unexpected {self.peek()!r}")
        return node

    def binary(self, symbol: str, kind, operand) -> tuple[Node, int]:
        """A left-associative chain of `operand`s joined by `symbol`."""
        node, height = operand()
        while self.peek() == symbol:
            column = self.pos + 1
            self.pos += 1
            right, right_height = operand()
            height = max(height, right_height) + 1
            self.nest(self.level + height, column)
            node = kind(node, right)
        return node, height

    def or_expr(self) -> tuple[Node, int]:
        return self.binary("|", Or, self.xor_expr)

    def xor_expr(self) -> tuple[Node, int]:
        return self.binary("^", Xor, self.and_expr)

    def and_expr(self) -> tuple[Node, int]:
        return self.binary("&", And, self.unary)

    def unary(self) -> tuple[Node, int]:
        ch = self.peek()
        if ch == "!" or ch == "(":
            self.level += 1
            self.nest(self.level, self.pos + 1)
            self.pos += 1
            if ch == "!":
                child, height = self.unary()
                node = Not(child)
            else:
                node, height = self.or_expr()
                self.take(")")
            self.level -= 1
            return node, height + 1
        if ch == "x":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
                self.pos += 1
            if self.pos == start:
                raise OracleParseError(start + 1, "variable needs an index, like x0")
            digits = self.text[start:self.pos].lstrip("0") or "0"
            if len(digits) > len(str(MAX_INDEX)):  # names no qubit, and int() stops at 4,300 digits
                raise TooManyVariablesError(
                    f"column {start}: a {len(digits)}-digit variable index exceeds the bound {MAX_VARIABLES}")
            return Var(int(digits)), 0
        raise OracleParseError(self.pos + 1, f"unexpected {ch!r}" if ch else "unexpected end of input")


def parse_expression(text: str) -> Node:
    return _Parser(text).parse()


def evaluate(node: Node, assignment: int) -> bool:
    """Classical reference semantics; bit k of `assignment` is x<k>."""
    if isinstance(node, Var):
        return bool((assignment >> node.index) & 1)
    if isinstance(node, Not):
        return not evaluate(node.child, assignment)
    if isinstance(node, And):
        return evaluate(node.left, assignment) and evaluate(node.right, assignment)
    if isinstance(node, Or):
        return evaluate(node.left, assignment) or evaluate(node.right, assignment)
    return evaluate(node.left, assignment) != evaluate(node.right, assignment)


def variables(node: Node) -> set[int]:
    if isinstance(node, Var):
        return {node.index}
    if isinstance(node, Not):
        return variables(node.child)
    return variables(node.left) | variables(node.right)


def binary_node_count(node: Node) -> int:
    """Number of AND/OR nodes: the oracle's T-count is 4x this."""
    if isinstance(node, (And, Or)):
        return 1 + binary_node_count(node.left) + binary_node_count(node.right)
    if isinstance(node, Xor):
        return binary_node_count(node.left) + binary_node_count(node.right)
    if isinstance(node, Not):
        return binary_node_count(node.child)
    return 0


# -- compilation ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Wire:
    qubit: int
    inverted: bool  # logical value = qubit bit XOR inverted


def _materialize(b: CircuitBuilder, wire: _Wire, want_inverted: bool,
                 avoid: set[int]) -> int:
    """A qubit whose bit equals the wire's value (or its negation).

    Copies through a fresh ancilla when polarity needs flipping or the direct
    qubit collides with the other operand.  The copy is CNOT+X only: it costs
    no T and writes no control or target inside a Toffoli pair, which lets
    ``replace_pairs`` match every conjunction's pair, as the AND oracle needs.
    """
    if wire.inverted == want_inverted and wire.qubit not in avoid:
        return wire.qubit
    c = b.alloc0()
    b.cx(wire.qubit, c)
    if wire.inverted != want_inverted:
        b.x(c)
    return c


def _emit_node(b: CircuitBuilder, node: Node, x: tuple[int, ...], flip: bool = False) -> _Wire:
    """The wire holding `node`'s value, negated when `flip` is set."""
    if isinstance(node, Var):
        return _Wire(x[node.index], flip)
    if isinstance(node, Not):
        return _emit_node(b, node.child, x, not flip)
    if isinstance(node, Xor):  # !(l ^ r) == !l ^ r
        wl = _emit_node(b, node.left, x, flip)
        wr = _emit_node(b, node.right, x)
        z = b.alloc0()
        b.cx(wl.qubit, z)
        b.cx(wr.qubit, z)
        return _Wire(z, wl.inverted != wr.inverted)
    want = isinstance(node, Or) != flip  # OR, or AND under a NOT, stores !l & !r, output inverted
    wl = _emit_node(b, node.left, x, flip)
    wr = _emit_node(b, node.right, x, flip)
    q1 = _materialize(b, wl, want, avoid=set())
    q2 = _materialize(b, wr, want, avoid={q1})
    t = b.alloc0()
    b.ccx(q1, q2, t)
    return _Wire(t, want)


def compile_oracle(expr: str, impl: str = "and") -> Circuit:
    """Phase oracle |x> -> (-1)^f(x) |x> for the parsed expression.

    ``impl="ccx"`` returns the build with a macro Toffoli pair per
    conjunction, the baseline whose paired lowering costs exactly twice as
    much.  ``impl="and"`` (the default) returns ``replace_pairs`` of that
    build, which turns every pair into a temporary AND.
    """
    if impl not in ("and", "ccx"):
        raise ValueError(f"unknown oracle implementation {impl!r}")
    ast = parse_expression(expr)
    n_vars = max(variables(ast)) + 1
    if n_vars > MAX_VARIABLES:
        raise TooManyVariablesError(f"{n_vars} variables exceeds the bound {MAX_VARIABLES}")
    root, flip = ast, False
    while isinstance(root, Not):
        root, flip = root.child, not flip

    b = CircuitBuilder()
    x = b.register("x", n_vars)
    mark = b.mark()
    wire = _emit_node(b, root, x, flip)
    fragment = b.fragment_since(mark)

    if isinstance(root, (Var, Xor)):
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
    circuit = b.build()
    return replace_pairs(circuit) if impl == "and" else circuit
