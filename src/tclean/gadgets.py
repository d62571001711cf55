"""Circuit constructions built on the temporary logical-AND.

The AND gadget stores a AND b into a fresh ancilla for a T-count of 4 (three
T-type gates plus one injected |T> state) and erases it later for a T-count
of 0 using an X-basis measurement and a classically conditioned CZ fixup.
Everything else here -- the ripple-carry adders, the controlled and
out-of-place variants, multi-controlled NOT, Hamming-weight aggregation, and
phase-gradient addition -- is assembled from that one primitive, so their
T-counts are simply four times the number of ANDs they compute.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    Circuit,
    CircuitBuilder,
    GadgetSpan,
    GadgetTag,
    Instruction,
    Op,
    Template,
)

#: Net T-count of erasing by reversing the computation (a |T> state is recovered).
AND_REVERSE_NET_T = 2


@dataclass(frozen=True)
class AdderSpec:
    """Width and boundary flags for the in-place adders."""

    n: int
    carry_in: bool = False
    carry_out: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("adder width must be at least 1")


# -- the temporary logical-AND -----------------------------------------------------


#: x AND y into a fresh ancilla: exactly |x,y,0> -> |x,y,x&y>.  T-count 4:
#: the injected |T> state plus three T-type gates.  One AND_COMPUTE span, so
#: depth accounting treats it as one event.
AND_COMPUTE = Template(GadgetTag.AND_COMPUTE, "x y anc", """
    alloct anc
    cx x anc
    cx y anc
    cx anc x
    cx anc y
    tdg x
    tdg y
    t anc
    cx anc x
    cx anc y
    h anc
    s anc
""")
#: T-count of one AND computation (the injected |T> state counts as one).
AND_T_COUNT = sum(op.t_type for op in AND_COMPUTE.ops)

#: Erasure of an ancilla holding x AND y: measure it in X, fix the phase up
#: with a CZ conditioned on the outcome, release it.  T-count 0.
AND_UNCOMPUTE = Template(GadgetTag.AND_UNCOMPUTE, "x y anc", """
    mx anc
    ? cz x y
    release anc
""")


def and_compute(b: CircuitBuilder, x: int, y: int) -> int:
    """Compute x AND y into a fresh ancilla by :data:`AND_COMPUTE`."""
    anc = b.fresh_qubit()
    b.emit_template(AND_COMPUTE, (x, y, anc))
    return anc


def and_uncompute(b: CircuitBuilder, x: int, y: int, anc: int) -> None:
    """Erase an ancilla holding x AND y by :data:`AND_UNCOMPUTE`."""
    b.emit_template(AND_UNCOMPUTE, (x, y, anc))


def and_uncompute_reverse(b: CircuitBuilder, x: int, y: int, anc: int) -> None:
    """Erase by running the computation backwards (comparison variant).

    Leaves the ancilla live again in the |T> state, so the recorded net
    T-count is 2: three T-type gates minus one recovered |T> state.
    """
    emit_inverse(b, AND_COMPUTE.instantiate((x, y, anc))[1:], ())


def and_gadget_circuit(variant: str = "roundtrip") -> Circuit:
    """Two-input demo circuit for the AND gadget.

    ``compute``: leaves the ancilla live (outputs a, b, anc).
    ``roundtrip``: compute then measure-and-fixup erasure (identity channel).
    ``reverse``: compute then reversed computation (ancilla ends in |T>).
    """
    b = CircuitBuilder()
    (a,) = b.register("a", 1)
    (y,) = b.register("b", 1)
    anc = and_compute(b, a, y)
    if variant == "compute":
        b.output("a", (a,))
        b.output("b", (y,))
        b.output("anc", (anc,))
    elif variant == "roundtrip":
        and_uncompute(b, a, y, anc)
    elif variant == "reverse":
        and_uncompute_reverse(b, a, y, anc)
        b.output("a", (a,))
        b.output("b", (y,))
        b.output("anc", (anc,))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return b.build()


# -- fragment inversion --------------------------------------------------------------

_DAGGER = {Op.S: Op.SDG, Op.SDG: Op.S, Op.T: Op.TDG, Op.TDG: Op.T}
#: Each AND span's template and the template that undoes it, on the same wires.
_AND_INVERSE = {
    GadgetTag.AND_COMPUTE: (AND_COMPUTE, AND_UNCOMPUTE),
    GadgetTag.AND_UNCOMPUTE: (AND_UNCOMPUTE, AND_COMPUTE),
}


def emit_inverse(b: CircuitBuilder, instructions: tuple[Instruction, ...],
                 spans: tuple[GadgetSpan, ...]) -> None:
    """Append the inverse of a measurement-free fragment.

    AND_COMPUTE spans invert to measure-and-fixup erasures (this is what makes
    uncomputation T-free), AND_UNCOMPUTE spans invert back to computations,
    allocations swap with releases, and plain gates are daggered in reverse
    order.  An AND span's operands are read by matching it against its
    template, and a span that is no instance of it raises ValueError.
    `spans` share no instruction, as a circuit's do, so walking back meets
    each at its last instruction.
    """
    span_ending = {span.end - 1: span for span in spans}
    i = len(instructions) - 1
    while i >= 0:
        span = span_ending.get(i)
        if span is not None:
            template, inverse = _AND_INVERSE[span.tag]
            wires = template.match(instructions[span.start:span.end])
            if wires is None:
                raise ValueError(f"{span.tag.value} span [{span.start},{span.end}) "
                                 "is not an instance of its template")
            b.emit_template(inverse, wires)
            i = span.start - 1
            continue
        instr = instructions[i]
        if instr.result is not None or instr.cond is not None:
            raise ValueError("cannot invert measurement or feedback outside a gadget span")
        if instr.op is Op.ALLOC0:
            b.release(instr.qubits[0])
        elif instr.op is Op.RELEASE:
            b.alloc0(instr.qubits[0])
        elif instr.op is Op.ALLOCT:
            raise ValueError("cannot invert a bare |T> injection")
        elif instr.op is Op.RZ:
            b.rz(-instr.angle, instr.qubits[0])
        else:
            b.append(Instruction(_DAGGER.get(instr.op, instr.op), instr.qubits))
        i -= 1


# -- in-place ripple-carry adders --------------------------------------------------


def _emit_carry(b: CircuitBuilder, x: int, y: int, impl: str) -> int:
    """A fresh ancilla holding x AND y: a temporary AND, or a CCX onto |0> for ``impl="ccx"``."""
    if impl == "and":
        return and_compute(b, x, y)
    t = b.alloc0()
    b.ccx(x, y, t)
    return t


def _unemit_carry(b: CircuitBuilder, x: int, y: int, anc: int, impl: str) -> None:
    if impl == "and":
        and_uncompute(b, x, y, anc)
    else:
        b.ccx(x, y, anc)
        b.release(anc)


def _controlled_xor(b: CircuitBuilder, ctrl: int, source: int, dest: int) -> None:
    """dest ^= ctrl AND source, via one temporary AND (T-count 4)."""
    u = and_compute(b, ctrl, source)
    b.cx(u, dest)
    and_uncompute(b, ctrl, source, u)


def _ripple_adder(spec: AdderSpec, *, impl: str, controlled: bool,
                  names: tuple[str, str] = ("a", "b")) -> Circuit:
    """Shared skeleton of the in-place adders: b <- a + b (+ carry-in).

    The a and b registers are declared under ``names``.

    ``impl="and"``: carries go through temporary ANDs folded directly onto the
    carry ancilla (4 T per carry, peak n-1 ancillae without carry-out).
    ``impl="ccx"``: the macro-Toffoli baseline; carries accumulate on a parity
    wire so every Toffoli lands on a fresh |0> target and is later uncomputed
    by an identical Toffoli, leaving the pairs visible to the rewriter.
    """
    n = spec.n
    b = CircuitBuilder()
    ctrl = b.register("ctrl", 1)[0] if controlled else None
    a = b.register(names[0], n)
    bb = b.register(names[1], n)
    cin = b.register("cin", 1)[0] if spec.carry_in else None

    blocks = list(range(n if spec.carry_out else n - 1))
    carries: dict[int, int] = {}
    parity: int | None = None
    if impl == "ccx" and blocks:
        parity = b.alloc0()
        if cin is not None:
            b.cx(cin, parity)

    def carry_wire(i: int) -> int | None:
        if i == 0:
            if cin is None:
                return None
            return parity if parity is not None else cin
        return parity if impl == "ccx" else carries[i - 1]

    for i in blocks:
        c = carry_wire(i)
        if c is not None:
            b.cx(c, a[i])
            b.cx(c, bb[i])
        t = _emit_carry(b, a[i], bb[i], impl)
        carries[i] = t
        if impl == "ccx":
            b.cx(t, parity)
        elif c is not None:
            b.cx(c, t)

    cout: int | None = None
    if spec.carry_out:
        top = parity if impl == "ccx" else carries[n - 1]
        cout = b.alloc0()
        if controlled:
            _controlled_xor(b, ctrl, top, cout)
        else:
            b.cx(top, cout)
    else:
        c_top = carry_wire(n - 1)
        if controlled:
            if c_top is not None:
                b.cx(c_top, a[n - 1])
            _controlled_xor(b, ctrl, a[n - 1], bb[n - 1])
            if c_top is not None:
                b.cx(c_top, a[n - 1])
        else:
            if c_top is not None:
                b.cx(c_top, bb[n - 1])
            b.cx(a[n - 1], bb[n - 1])

    for i in reversed(blocks):
        c = carry_wire(i)
        if impl == "ccx":
            b.cx(carries[i], parity)
        elif c is not None:
            b.cx(c, carries[i])
        _unemit_carry(b, a[i], bb[i], carries[i], impl)
        if controlled:
            _controlled_xor(b, ctrl, a[i], bb[i])
            if c is not None:
                b.cx(c, bb[i])
                b.cx(c, a[i])
        else:
            if c is not None:
                b.cx(c, a[i])
            b.cx(a[i], bb[i])

    if parity is not None:
        if cin is not None:
            b.cx(cin, parity)
        b.release(parity)

    if controlled:
        b.output("ctrl", (ctrl,))
    b.output(names[0], a)
    b.output(names[1], bb)
    if cin is not None:
        b.output("cin", (cin,))
    if cout is not None:
        b.output("cout", (cout,))
    return b.build()


def gidney_adder(spec: AdderSpec) -> Circuit:
    """In-place adder from nested AND blocks: T-count 4n-4, measurement depth 2n-2.

    (4n and 2n with carry-out, which costs one extra temporary AND.)
    """
    return _ripple_adder(spec, impl="and", controlled=False)


def cuccaro_adder(spec: AdderSpec) -> Circuit:
    """Macro-Toffoli ripple-carry baseline, 2n + O(1) CCX gates.

    Every Toffoli targets a fresh |0> ancilla and appears in a
    compute/uncompute pair, so the pair-replacement pass can rewrite this
    circuit into the AND-based adder.
    """
    return _ripple_adder(spec, impl="ccx", controlled=False)


def controlled_adder(spec: AdderSpec) -> Circuit:
    """Adds a control qubit: 8 T per block (4 for the carry, 4 to gate the sum)."""
    return _ripple_adder(spec, impl="and", controlled=True)


# -- out-of-place adder ---------------------------------------------------------------


def _emit_outofplace(b: CircuitBuilder, a: tuple[int, ...], bb: tuple[int, ...],
                     cin: int | None) -> tuple[int, ...]:
    """Carry chain + sum fixups computing s = a + b into n+1 fresh qubits."""
    n = len(a)
    k: dict[int, int] = {}
    for i in range(n):
        w = cin if i == 0 else k[i]
        if w is not None:
            b.cx(w, a[i])
            b.cx(w, bb[i])
        k[i + 1] = and_compute(b, a[i], bb[i])
        if w is not None:
            b.cx(w, k[i + 1])
    for i in range(n):
        w = cin if i == 0 else k[i]
        if w is not None:
            b.cx(w, a[i])
            b.cx(w, bb[i])
        if i == 0:
            k[0] = b.alloc0()
        b.cx(a[i], k[i])
        b.cx(bb[i], k[i])
        if i == 0 and cin is not None:
            b.cx(cin, k[0])
    return tuple(k[i] for i in range(n + 1))


def outofplace_adder(spec: AdderSpec) -> Circuit:
    """(a, b, 0^(n+1)) -> (a, b, a+b); one temporary AND (4 T) per bit.

    The sum register absorbs the carry ancillae, so this costs no workspace
    beyond its own output.  The top sum bit is the carry; carry_out is
    implied and the flag is ignored.
    """
    b = CircuitBuilder()
    a = b.register("a", spec.n)
    bb = b.register("b", spec.n)
    cin = b.register("cin", 1)[0] if spec.carry_in else None
    s = _emit_outofplace(b, a, bb, cin)
    b.output("a", a)
    b.output("b", bb)
    if cin is not None:
        b.output("cin", (cin,))
    b.output("s", s)
    return b.build()


def outofplace_adder_inverse(spec: AdderSpec) -> Circuit:
    """(a, b, a+b) -> (a, b): uncomputes the sum register using no T gates."""
    forward = outofplace_adder(spec)
    b = CircuitBuilder()
    for reg in forward.outputs:  # a, b, [cin], s
        b.adopt_register(reg.name, reg.qubits)
    emit_inverse(b, forward.instructions, forward.spans)
    for reg in forward.inputs:
        b.output(reg.name, reg.qubits)
    return b.build()


# -- multi-controlled NOT ---------------------------------------------------------------


def multi_controlled_x(k: int) -> Circuit:
    """NOT with k controls via an AND ladder: T-count 4k-4."""
    if k < 1:
        raise ValueError("need at least one control")
    b = CircuitBuilder()
    controls = b.register("c", k)
    (target,) = b.register("t", 1)
    if k == 1:
        b.cx(controls[0], target)
        return b.build()
    mark = b.mark()
    rep = and_compute(b, controls[0], controls[1])
    for j in range(2, k):
        rep = and_compute(b, rep, controls[j])
    ladder = b.fragment_since(mark)
    b.cx(rep, target)
    emit_inverse(b, *ladder)
    return b.build()


# -- Hamming weight register ----------------------------------------------------------


@dataclass(frozen=True)
class HammingConstruction:
    """A Hamming-weight circuit plus bookkeeping for tests and callers.

    ``register`` lists the qubits holding the popcount, least significant
    first; entries may be input wires or carry ancillae.  ``phase_end`` is an
    instruction boundary: [0, phase_end) computes the register and applies
    rotations, the rest uncomputes.
    """

    circuit: Circuit
    register: tuple[int, ...]
    phase_end: int


def _emit_full_adder(b: CircuitBuilder, x: int, y: int, z: int) -> int:
    """z <- x XOR y XOR z in place; returns a fresh carry qubit. One AND."""
    b.cx(z, x)
    b.cx(z, y)
    carry = and_compute(b, x, y)
    b.cx(z, carry)
    b.cx(z, x)
    b.cx(z, y)
    b.cx(x, z)
    b.cx(y, z)
    return carry


def _emit_half_adder(b: CircuitBuilder, x: int, y: int) -> int:
    """y <- x XOR y in place; returns a fresh carry qubit. One AND."""
    carry = and_compute(b, x, y)
    b.cx(x, y)
    return carry


def _emit_hamming(b: CircuitBuilder, targets: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """Reduce n weight-1 qubits to a lg-sized popcount register.

    Same-weight triples go through full adders (one AND each) lowest weight
    first; a leftover same-weight pair becomes a half adder.  At most n ANDs,
    so the T-count is at most 4n, and uncomputing it all is T-free.
    Returns (register, carry ancillae).
    """
    classes: dict[int, list[int]] = {1: list(targets)}
    register: list[int] = []
    all_carries: list[int] = []
    w = 1
    while w in classes:
        qs = classes[w]
        while len(qs) >= 3:
            x, y, z = qs.pop(0), qs.pop(0), qs.pop(0)
            carry = _emit_full_adder(b, x, y, z)
            classes.setdefault(2 * w, []).append(carry)
            all_carries.append(carry)
            qs.append(z)
        if len(qs) == 2:
            x, y = qs.pop(0), qs.pop(0)
            carry = _emit_half_adder(b, x, y)
            classes.setdefault(2 * w, []).append(carry)
            all_carries.append(carry)
            qs.append(y)
        register.append(qs[0])
        w *= 2
    return tuple(register), all_carries


def hamming_weight(n: int) -> HammingConstruction:
    """Compute-only circuit: register holds popcount of the n inputs."""
    if n < 1:
        raise ValueError("need at least one target")
    b = CircuitBuilder()
    targets = b.register("x", n)
    register, carries = _emit_hamming(b, targets)
    end = b.next_index
    b.output("x", targets)
    if carries:
        b.output("anc", tuple(carries))
    circuit = b.build()
    return HammingConstruction(circuit, register, end)


def hamming_roundtrip(n: int, theta: float | None = None) -> HammingConstruction:
    """Compute, optionally rotate each register bit by theta*2^p, uncompute.

    With theta set, the channel equals rz(theta) applied to every input
    qubit, for one Hamming weight's T-cost (about 4n) and ceil(lg(n+1)) rotations.
    """
    if n < 1:
        raise ValueError("need at least one target")
    b = CircuitBuilder()
    targets = b.register("x", n)
    mark = b.mark()
    register, _ = _emit_hamming(b, targets)
    fragment = b.fragment_since(mark)
    if theta is not None:
        for p, q in enumerate(register):
            b.rz(theta * (1 << p), q)
    phase_end = b.next_index
    emit_inverse(b, *fragment)
    circuit = b.build()
    return HammingConstruction(circuit, register, phase_end)


# -- phase gradient via addition -----------------------------------------------------


def phase_gradient_add(n: int) -> Circuit:
    """Kick back e^(2*pi*i*k/2^n) onto target |k> by adding it into a gradient register.

    The caller must prepare the gradient register in the kickback eigenstate
    (see :func:`tclean.sim.gradient_state`); the register comes back unchanged.
    T-count equals one in-place adder.
    """
    return _ripple_adder(AdderSpec(n), impl="and", controlled=False,
                         names=("target", "gradient"))
