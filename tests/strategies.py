"""Random circuits and states shared by the property tests."""
from __future__ import annotations

import numpy as np

from tclean.ir import Circuit, CircuitBuilder, Op
from tclean.gadgets import and_compute, and_uncompute

ONE_QUBIT_GATES = (Op.X, Op.Y, Op.Z, Op.H, Op.S, Op.SDG, Op.T, Op.TDG)
CONDITIONABLE_1Q = (Op.X, Op.Y, Op.Z, Op.H, Op.S, Op.SDG)


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return vec / np.linalg.norm(vec)


def seeded_states(circuit: Circuit, count: int, seed: int) -> list[np.ndarray]:
    """``count`` random states over the circuit's inputs, drawn in turn from one ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return [random_state(len(circuit.input_qubits()), rng) for _ in range(count)]


def random_circuit(rng: np.random.Generator, *, max_steps: int = 25,
                   simulable: bool = False) -> Circuit:
    """A random valid circuit.

    With ``simulable=True`` the circuit also runs cleanly: qubit count stays
    small, releases only follow measurements, and every live qubit at the end
    is declared an output.
    """
    b = CircuitBuilder()
    n_inputs = int(rng.integers(1, 4 if simulable else 5))
    inputs = list(b.register("q", n_inputs))
    live = list(inputs)
    allocated: list[int] = []
    just_measured: list[int] = []
    bits: list[int] = []
    measurements = 0
    max_live = 6 if simulable else 10
    max_measurements = 5 if simulable else 8

    for _ in range(int(rng.integers(1, max_steps + 1))):
        roll = rng.random()
        if roll < 0.30 and live:
            op = ONE_QUBIT_GATES[int(rng.integers(len(ONE_QUBIT_GATES)))]
            q = live[int(rng.integers(len(live)))]
            getattr(b, op.value)(q)
            if q in just_measured:
                just_measured.remove(q)
        elif roll < 0.40 and live:
            q = live[int(rng.integers(len(live)))]
            b.rz(float(rng.uniform(-3.14, 3.14)), q)
            if q in just_measured:
                just_measured.remove(q)
        elif roll < 0.55 and len(live) >= 2:
            q1, q2 = rng.choice(live, size=2, replace=False)
            (b.cx if rng.random() < 0.5 else b.cz)(int(q1), int(q2))
            for q in (int(q1), int(q2)):
                if q in just_measured:
                    just_measured.remove(q)
        elif roll < 0.62 and len(live) >= 3 and not simulable:
            qs = [int(q) for q in rng.choice(live, size=3, replace=False)]
            b.ccx(*qs)
        elif roll < 0.72 and len(live) < max_live:
            q = b.alloc0() if rng.random() < 0.7 else b.alloct()
            live.append(q)
            allocated.append(q)
        elif roll < 0.80 and measurements < max_measurements and live:
            q = live[int(rng.integers(len(live)))]
            bit = (b.mz if rng.random() < 0.5 else b.mx)(q)
            bits.append(bit)
            measurements += 1
            if q not in just_measured:
                just_measured.append(q)
        elif roll < 0.86 and bits and live:
            op = CONDITIONABLE_1Q[int(rng.integers(len(CONDITIONABLE_1Q)))]
            q = live[int(rng.integers(len(live)))]
            getattr(b, op.value)(q, cond=bits[int(rng.integers(len(bits)))])
            if q in just_measured:
                just_measured.remove(q)
        elif roll < 0.93 and len(live) >= 2 and len(live) < max_live \
                and measurements < max_measurements:
            q1, q2 = (int(q) for q in rng.choice(live, size=2, replace=False))
            anc = and_compute(b, q1, q2)
            and_uncompute(b, q1, q2, anc)
            measurements += 1
            for q in (q1, q2):
                if q in just_measured:
                    just_measured.remove(q)
        else:
            releasable = [q for q in allocated if q in live
                          and (not simulable or q in just_measured)]
            if releasable:
                q = releasable[int(rng.integers(len(releasable)))]
                b.release(q)
                live.remove(q)
                if q in just_measured:
                    just_measured.remove(q)

    if simulable:
        b.output("live", tuple(live))
    return b.build()


def random_paired_circuit(rng: np.random.Generator) -> Circuit:
    """A circuit seeded with replaceable Toffoli pairs plus benign intermediates.

    Every emitted pair satisfies the conservative replacement conditions, so
    replace_pairs must fire on all of them and stay channel-equivalent.
    """
    b = CircuitBuilder()
    n_data = int(rng.integers(3, 6))
    data = list(b.register("q", n_data))
    for _ in range(int(rng.integers(1, 4))):
        c1, c2, other = (int(q) for q in rng.choice(data, size=3, replace=False))
        t = b.alloc0()
        b.ccx(c1, c2, t)
        for _ in range(int(rng.integers(0, 4))):
            roll = rng.random()
            if roll < 0.4:
                b.cx(t, other)  # target read as a control: allowed
            elif roll < 0.7:
                b.t(c1) if rng.random() < 0.5 else b.s(c2)  # diagonal on controls
            else:
                b.h(other) if other not in (c1, c2) else b.z(other)
        b.ccx(c1, c2, t)
        b.release(t)
        if rng.random() < 0.5:
            b.h(int(rng.choice(data)))
    b.output("q", tuple(data))
    return b.build()


#: Ways :func:`near_miss_circuit` breaks a planted pair, one rule per pair.
BLOCKING_RULES = ("write_control", "target_use", "not_fresh", "no_release",
                  "different_controls")


def near_miss_circuit(rng: np.random.Generator, *, break_prob: float = 0.5) -> Circuit:
    """Planted alloc0/CCX/.../CCX/release pairs, each broken with probability `break_prob`.

    A broken pair violates one rule of ``BLOCKING_RULES``: a write to a
    control between the Toffolis, a non-control use of the target, an
    ``alloct``, data or already-touched target, a reference to the target
    between the second Toffoli and its release (or no release), or a second
    Toffoli with different controls.  Unbroken pairs may swap their controls.
    Pairs stay open concurrently and close in random order, so they nest and
    interleave; a control may be another open pair's target (a ladder), and
    released targets are allocated again by later pairs.  The other gates
    placed between Toffolis leave every open pair's conditions intact: with
    ``break_prob=0`` every pair matches and with ``break_prob=1`` none does.
    In between, a write to a control that two open pairs share blocks both.
    """
    b = CircuitBuilder()
    data = list(b.register("q", int(rng.integers(3, 6))))
    n_pairs = int(rng.integers(1, 7))
    opened = 0
    open_pairs: list[dict] = []   # between the two Toffolis
    unreleased: list[int] = []    # second Toffoli done, release pending
    released: list[int] = []

    def pick(options):
        return options[int(rng.integers(len(options)))] if options else None

    def busy() -> set[int]:
        """Qubits a benign gate must leave alone."""
        out = set(unreleased)
        for p in open_pairs:
            out.update((p["t"], *p["controls"]))
        return out

    def benign() -> None:
        roll = rng.random()
        free = [q for q in data if q not in busy()]
        if roll < 0.4 and open_pairs and free:
            b.cx(pick(open_pairs)["t"], pick(free))      # target read as a control
        elif roll < 0.55 and open_pairs and free:
            b.cz(pick(open_pairs)["t"], pick(free))
        elif roll < 0.8:
            targets = {p["t"] for p in open_pairs} | set(unreleased)
            q = pick([q for q in data if q not in targets])
            if q is not None:
                (b.t if rng.random() < 0.5 else b.s)(q)  # diagonal: writes nothing
        elif free:
            (b.h if rng.random() < 0.5 else b.x)(pick(free))

    def break_between(p: dict) -> None:
        t, (c1, c2) = p["t"], p["controls"]
        others = [q for q in data if q not in (c1, c2, t)]
        if p["rule"] == "write_control":
            c = c1 if rng.random() < 0.5 else c2
            roll = rng.random()
            if roll < 0.4:
                b.x(c)
            elif roll < 0.7 or not others:
                b.h(c)
            else:
                b.cx(pick(others), c)
        else:  # target_use
            roll = rng.random()
            if roll < 0.3:
                b.s(t)
            elif roll < 0.5:
                b.x(t)
            elif roll < 0.7:
                b.rz(float(rng.uniform(-3.0, 3.0)), t)
            elif others:
                b.cx(pick(others), t)
            else:
                b.h(t)
        p["pending"] = False

    def open_pair() -> None:
        rule = pick(BLOCKING_RULES) if rng.random() < break_prob else None
        pool = data + [p["t"] for p in open_pairs if p["t"] not in data]
        c1, c2 = (int(q) for q in rng.choice(pool, size=2, replace=False))
        if rule == "not_fresh" and rng.random() < 0.3:
            t = pick([q for q in data if q not in busy() and q not in (c1, c2)])
            if t is None:
                return
        else:
            reuse = pick(released) if rng.random() < 0.5 else None
            if reuse is not None:
                released.remove(reuse)
            if rule == "not_fresh" and rng.random() < 0.4:
                t = b.alloct(reuse)
            else:
                t = b.alloc0(reuse)
                if rule == "not_fresh":
                    b.h(t) if rng.random() < 0.5 else b.cx(c1, t)
        b.ccx(c1, c2, t)
        open_pairs.append({"t": t, "controls": (c1, c2), "rule": rule,
                           "pending": rule in ("write_control", "target_use"),
                           "allocated": t not in data})

    def close_pair(p: dict) -> None:
        open_pairs.remove(p)
        t, (c1, c2) = p["t"], p["controls"]
        if p["pending"]:
            break_between(p)
        if p["rule"] == "different_controls":
            # t is an ancilla under this rule, so a data qubit is always free
            b.ccx(c1, pick([q for q in data if q not in (c1, c2)]), t)
        elif rng.random() < 0.5:
            b.ccx(c2, c1, t)
        else:
            b.ccx(c1, c2, t)
        if not p["allocated"]:
            return
        if p["rule"] == "no_release":
            roll = rng.random()
            if roll < 0.3:
                return  # live to the end
            q = pick([q for q in data if q not in busy()])
            b.h(t) if roll < 0.6 or q is None else b.cx(t, q)
        if rng.random() < 0.3:
            unreleased.append(t)
        else:
            b.release(t)
            released.append(t)

    while opened < n_pairs or open_pairs or unreleased:
        roll = rng.random()
        if roll < 0.25 and opened < n_pairs:
            open_pair()
            opened += 1
        elif roll < 0.45 and open_pairs:
            controls = {c for p in open_pairs for c in p["controls"]}
            closable = [p for p in open_pairs if p["t"] not in controls]
            close_pair(pick(closable))
        elif roll < 0.55 and unreleased:
            t = unreleased.pop(int(rng.integers(len(unreleased))))
            b.release(t)
            released.append(t)
        elif roll < 0.65 and any(p["pending"] for p in open_pairs):
            break_between(pick([p for p in open_pairs if p["pending"]]))
        else:
            benign()
    b.output("q", tuple(data))
    return b.build()
