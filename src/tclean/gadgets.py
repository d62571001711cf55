"""Circuit constructions built on the temporary logical-AND.

The AND gadget stores a AND b into a fresh ancilla for a T-count of 4 (three
T-type gates plus one injected |T> state) and erases it later for a T-count
of 0 using an X-basis measurement and a classically conditioned CZ fixup.
The in-place, controlled and out-of-place adders and phase-gradient addition
share one ripple of these ANDs, each folding the previous carry in
(:func:`_carry_chain`).  Multi-controlled NOT and Hamming-weight aggregation
are assembled from the same primitive, so all their T-counts are simply four
times the number of ANDs they compute.  The macro-Toffoli baseline
:func:`cuccaro_adder` is the exception: it carries on a parity wire through
CCX compute/uncompute pairs, which the rewriter replaces by ANDs.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    AND_COMPUTE,
    AND_UNCOMPUTE,
    Circuit,
    CircuitBuilder,
    Gadget,
    Instruction,
    Op,
    Step,
)

#: Net T-count of erasing by reversing the computation (a |T> state is recovered).
AND_REVERSE_NET_T = 2


@dataclass(frozen=True)
class AdderSpec:
    """An adder's width ``n`` and its one flag, ``carry_out``: write the top carry to ``cout``."""

    n: int
    carry_out: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("adder width must be at least 1")


# -- the temporary logical-AND -----------------------------------------------------
# Its two halves are the circuit IR's gadget templates, ``ir.AND_COMPUTE``
# (x AND y into a fresh ancilla for 4 T) and ``ir.AND_UNCOMPUTE`` (the
# erasure by an X measurement and a conditioned CZ, for none), each the
# other's ``inverse``.  A half's template is its one name and holds its facts.


def and_compute(b: CircuitBuilder, x: int, y: int) -> int:
    """Compute x AND y into a fresh ancilla by :data:`AND_COMPUTE`."""
    anc = b.fresh_qubit()
    b.emit_template(AND_COMPUTE, (x, y, anc))
    return anc


def and_uncompute(b: CircuitBuilder, x: int, y: int, anc: int) -> None:
    """Erase an ancilla holding x AND y by :data:`AND_UNCOMPUTE`."""
    b.emit_template(AND_UNCOMPUTE, (x, y, anc))


def and_gadget_circuit(variant: str = "roundtrip") -> Circuit:
    """Two-input demo circuit for the AND gadget.

    ``compute``: leaves the ancilla live (outputs a, b, anc).
    ``roundtrip``: compute then measure-and-fixup erasure (identity channel).
    ``reverse``: compute, then its gates after the injection run backwards,
    which leaves the ancilla in |T> (net T-count :data:`AND_REVERSE_NET_T`).
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
        emit_inverse(b, AND_COMPUTE.instantiate((a, y, anc))[1:])
        b.output("a", (a,))
        b.output("b", (y,))
        b.output("anc", (anc,))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return b.build()


# -- fragment inversion --------------------------------------------------------------

_DAGGER = {Op.S: Op.SDG, Op.SDG: Op.S, Op.T: Op.TDG, Op.TDG: Op.T}


def emit_inverse(b: CircuitBuilder, steps: tuple[Step, ...]) -> None:
    """Append the inverse of a measurement-free fragment of steps.

    Each record becomes a record of its template's ``inverse`` on the same
    wires: an AND_COMPUTE one a measure-and-fixup erasure (this is what
    makes uncomputation T-free), an AND_UNCOMPUTE one a computation.
    Allocations swap with releases, and plain gates are daggered in reverse
    order.
    """
    for step in reversed(steps):
        if step.__class__ is Gadget:
            b.emit_template(step.template.inverse, step.wires)
            continue
        if step.result is not None or step.cond is not None:
            raise ValueError("cannot invert measurement or feedback outside a gadget span")
        if step.op is Op.ALLOC0:
            b.release(step.qubits[0])
        elif step.op is Op.RELEASE:
            b.alloc0(step.qubits[0])
        elif step.op is Op.ALLOCT:
            raise ValueError("cannot invert a bare |T> injection")
        elif step.op is Op.RZ:
            b.rz(-step.angle, step.qubits[0])
        else:
            b.append(Instruction(_DAGGER.get(step.op, step.op), step.qubits))


# -- in-place ripple-carry adders --------------------------------------------------


def _controlled_xor(b: CircuitBuilder, ctrl: int, source: int, dest: int) -> None:
    """dest ^= ctrl AND source, via one temporary AND (T-count 4)."""
    u = and_compute(b, ctrl, source)
    b.cx(u, dest)
    and_uncompute(b, ctrl, source, u)


def _carry_chain(b: CircuitBuilder, a: tuple[int, ...], bb: tuple[int, ...],
                 m: int) -> list[int | None]:
    """The carries out of bits 0..m-1 of a + b, one temporary AND (4 T) each.

    The carry c into bit i is folded in: c ^ ((a[i]^c) AND (b[i]^c)) is the
    majority, and a[i], b[i] stay XORed with c.  Returns the carry into each
    bit 0..m, None into bit 0.
    """
    carry: list[int | None] = [None]
    for i in range(m):
        c = carry[i]
        if c is not None:
            b.cx(c, a[i])
            b.cx(c, bb[i])
        t = and_compute(b, a[i], bb[i])
        if c is not None:
            b.cx(c, t)
        carry.append(t)
    return carry


def _and_adder(spec: AdderSpec, *, controlled: bool,
               names: tuple[str, str] = ("a", "b")) -> Circuit:
    """b <- a + b on :func:`_carry_chain`, gated by a ``ctrl`` qubit if ``controlled``.

    The a and b registers are declared under ``names``.  The carries are
    erased T-free as the chain unwinds; without carry-out the peak is n-1.
    """
    n = spec.n
    b = CircuitBuilder()
    ctrl = b.register("ctrl", 1)[0] if controlled else None
    a = b.register(names[0], n)
    bb = b.register(names[1], n)
    m = n if spec.carry_out else n - 1
    carry = _carry_chain(b, a, bb, m)

    if spec.carry_out:
        cout = b.alloc0()
        if controlled:
            _controlled_xor(b, ctrl, carry[n], cout)
        else:
            b.cx(carry[n], cout)
    else:
        c_top = carry[n - 1]
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

    for i in reversed(range(m)):
        c = carry[i]
        if c is not None:
            b.cx(c, carry[i + 1])
        and_uncompute(b, a[i], bb[i], carry[i + 1])
        if controlled:
            _controlled_xor(b, ctrl, a[i], bb[i])
            if c is not None:
                b.cx(c, bb[i])
                b.cx(c, a[i])
        else:
            if c is not None:
                b.cx(c, a[i])
            b.cx(a[i], bb[i])

    if controlled:
        b.output("ctrl", (ctrl,))
    b.output(names[0], a)
    b.output(names[1], bb)
    if spec.carry_out:
        b.output("cout", (cout,))
    return b.build()


def gidney_adder(spec: AdderSpec) -> Circuit:
    """In-place adder from nested AND blocks: T-count 4n-4, measurement depth 2n-2.

    (4n and 2n with carry-out, which costs one extra temporary AND.)
    """
    return _and_adder(spec, controlled=False)


def controlled_adder(spec: AdderSpec) -> Circuit:
    """Adds a control qubit: 8 T per block (4 for the carry, 4 to gate the sum)."""
    return _and_adder(spec, controlled=True)


def cuccaro_adder(spec: AdderSpec) -> Circuit:
    """Macro-Toffoli ripple-carry baseline, 2n + O(1) CCX gates.

    Carries accumulate on a parity wire, so every Toffoli targets a fresh
    |0> ancilla and is later uncomputed by an identical Toffoli: the
    pair-replacement pass can rewrite this circuit into the AND-based adder.
    """
    n = spec.n
    b = CircuitBuilder()
    a = b.register("a", n)
    bb = b.register("b", n)
    m = n if spec.carry_out else n - 1
    parity = b.alloc0() if m else None
    carries: list[int] = []
    for i in range(m):
        if i:
            b.cx(parity, a[i])
            b.cx(parity, bb[i])
        t = b.alloc0()
        b.ccx(a[i], bb[i], t)
        b.cx(t, parity)
        carries.append(t)

    if spec.carry_out:
        cout = b.alloc0()
        b.cx(parity, cout)
    else:
        if n > 1:
            b.cx(parity, bb[n - 1])
        b.cx(a[n - 1], bb[n - 1])

    for i in reversed(range(m)):
        b.cx(carries[i], parity)
        b.ccx(a[i], bb[i], carries[i])
        b.release(carries[i])
        if i:
            b.cx(parity, a[i])
        b.cx(a[i], bb[i])
    if m:
        b.release(parity)

    b.output("a", a)
    b.output("b", bb)
    if spec.carry_out:
        b.output("cout", (cout,))
    return b.build()


# -- out-of-place adder ---------------------------------------------------------------


def outofplace_adder(spec: AdderSpec) -> Circuit:
    """(a, b, 0^(n+1)) -> (a, b, a+b); one temporary AND (4 T) per bit.

    The sum register absorbs the carry ancillae, so this costs no workspace
    beyond its own output.  The top sum bit is the carry; carry_out is
    implied and the flag is ignored.
    """
    n = spec.n
    b = CircuitBuilder()
    a = b.register("a", n)
    bb = b.register("b", n)
    carry = _carry_chain(b, a, bb, n)
    s0 = b.alloc0()
    b.cx(a[0], s0)
    b.cx(bb[0], s0)
    for i in range(1, n):  # sum bit i lands on the carry into bit i
        b.cx(carry[i], a[i])
        b.cx(carry[i], bb[i])
        b.cx(a[i], carry[i])
        b.cx(bb[i], carry[i])
    b.output("a", a)
    b.output("b", bb)
    b.output("s", (s0, *carry[1:]))
    return b.build()


def outofplace_adder_inverse(spec: AdderSpec) -> Circuit:
    """(a, b, a+b) -> (a, b): uncomputes the sum register using no T gates."""
    forward = outofplace_adder(spec)
    b = CircuitBuilder()
    for reg in forward.outputs:  # a, b, s
        b.adopt_register(reg.name, reg.qubits)
    emit_inverse(b, forward.body)
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
    emit_inverse(b, ladder)
    return b.build()


# -- Hamming weight register ----------------------------------------------------------


@dataclass(frozen=True)
class HammingConstruction:
    """A Hamming-weight circuit plus bookkeeping for tests and callers.

    ``register`` lists the qubits holding the popcount, least significant
    first; entries may be input wires or carry ancillae.
    """

    circuit: Circuit
    register: tuple[int, ...]


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
    b.output("x", targets)
    if carries:
        b.output("anc", tuple(carries))
    circuit = b.build()
    return HammingConstruction(circuit, register)


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
    emit_inverse(b, fragment)
    circuit = b.build()
    return HammingConstruction(circuit, register)


# -- phase gradient via addition -----------------------------------------------------


def phase_gradient_add(n: int) -> Circuit:
    """Kick back e^(2*pi*i*k/2^n) onto target |k> by adding it into a gradient register.

    The caller must prepare the gradient register in the kickback eigenstate
    (see :func:`tclean.sim.gradient_state`); the register comes back unchanged.
    T-count equals one in-place adder.
    """
    return _and_adder(AdderSpec(n), controlled=False, names=("target", "gradient"))
