"""Gate-level circuit representation and structural transforms.

Contents:
    GateKind   -- supported gate set (H, RX, RZ, CX, CZ, SWAP)
    Gate       -- immutable gate instance (kind, qubits, optional angle)
    Circuit    -- immutable gate list over n qubits
    depth, moments, gate_count, composition
    remove_gate, replace_gate, swap_adjacent, cancel_pairs
    parse / parse_file, emit / emit_file   -- text format round-trip
    ghz, random_circuit                    -- construction helpers

Circuits are values: every edit returns a new Circuit and never aliases
the gate tuple of its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi
ANGLE_ZERO_TOL = 1e-12


class CircuitError(Exception):
    """Structural error: bad qubit index, bad position, malformed gate."""


class ParseError(CircuitError):
    """Text format violation; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GateKind(Enum):
    H = "h"
    RX = "rx"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"
    SWAP = "swap"

    @property
    def n_qubits(self) -> int:
        return 2 if self in _TWO_QUBIT else 1

    @property
    def has_angle(self) -> bool:
        return self in _ROTATIONS


_TWO_QUBIT = frozenset({GateKind.CX, GateKind.CZ, GateKind.SWAP})
_ROTATIONS = frozenset({GateKind.RX, GateKind.RZ})
# gates equal to their own inverse; adjacent identical pairs cancel
_SELF_INVERSE = frozenset({GateKind.H, GateKind.CX, GateKind.CZ, GateKind.SWAP})
# symmetric two-qubit gates: qubit order does not change the unitary
_SYMMETRIC = frozenset({GateKind.CZ, GateKind.SWAP})


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if len(self.qubits) != self.kind.n_qubits:
            raise CircuitError(f"{self.kind.value} takes {self.kind.n_qubits} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"{self.kind.value} qubits must be distinct, got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise CircuitError(f"negative qubit index in {self.qubits}")
        if self.kind.has_angle:
            if self.angle is None or not math.isfinite(self.angle):
                raise CircuitError(f"{self.kind.value} requires a finite angle")
        elif self.angle is not None:
            raise CircuitError(f"{self.kind.value} takes no angle")

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.qubits)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise CircuitError(f"need at least one qubit, got {self.n_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise CircuitError(f"gate {g.kind.value} on {g.qubits} exceeds {self.n_qubits} qubits")

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def append(self, gate: Gate) -> "Circuit":
        return Circuit(self.n_qubits, self.gates + (gate,))

    # chainable builders, convenient in tests and demos
    def h(self, q: int) -> "Circuit":
        return self.append(Gate(GateKind.H, (q,)))

    def rx(self, q: int, angle: float) -> "Circuit":
        return self.append(Gate(GateKind.RX, (q,), angle))

    def rz(self, q: int, angle: float) -> "Circuit":
        return self.append(Gate(GateKind.RZ, (q,), angle))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.append(Gate(GateKind.CX, (control, target)))

    def cz(self, a: int, b: int) -> "Circuit":
        return self.append(Gate(GateKind.CZ, (a, b)))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.append(Gate(GateKind.SWAP, (a, b)))


def moments(circuit: Circuit) -> list[list[int]]:
    """Greedy ASAP schedule: gate i goes to the earliest moment where every
    one of its qubits is free. Returns gate indices grouped by moment."""
    frontier = [0] * circuit.n_qubits
    layers: list[list[int]] = []
    for i, g in enumerate(circuit.gates):
        m = max(frontier[q] for q in g.qubits)
        if m == len(layers):
            layers.append([])
        layers[m].append(i)
        for q in g.qubits:
            frontier[q] = m + 1
    return layers


def depth(circuit: Circuit) -> int:
    return len(moments(circuit))


def gate_count(circuit: Circuit) -> int:
    return len(circuit.gates)


@dataclass(frozen=True)
class Composition:
    counts: dict[GateKind, int]
    fractions: dict[GateKind, float]


def composition(circuit: Circuit) -> Composition:
    counts = {k: 0 for k in GateKind}
    for g in circuit.gates:
        counts[g.kind] += 1
    total = len(circuit.gates)
    if total == 0:
        return Composition(counts, {})
    return Composition(counts, {k: c / total for k, c in counts.items()})


def remove_gate(circuit: Circuit, position: int) -> Circuit:
    if not 0 <= position < len(circuit.gates):
        raise CircuitError(f"remove position {position} out of range [0, {len(circuit.gates)})")
    gs = circuit.gates
    return Circuit(circuit.n_qubits, gs[:position] + gs[position + 1:])


def replace_gate(circuit: Circuit, position: int, gate: Gate) -> Circuit:
    if not 0 <= position < len(circuit.gates):
        raise CircuitError(f"replace position {position} out of range [0, {len(circuit.gates)})")
    gs = circuit.gates
    return Circuit(circuit.n_qubits, gs[:position] + (gate,) + gs[position + 1:])


def swap_adjacent(circuit: Circuit, position: int) -> Circuit:
    """Exchange gates at position and position+1; they must act on disjoint
    qubits so the exchange cannot change the unitary."""
    if not 0 <= position < len(circuit.gates) - 1:
        raise CircuitError(f"swap position {position} out of range [0, {len(circuit.gates) - 1})")
    a, b = circuit.gates[position], circuit.gates[position + 1]
    if a.support & b.support:
        raise CircuitError(f"gates at {position} and {position + 1} share qubits {sorted(a.support & b.support)}")
    gs = circuit.gates
    return Circuit(circuit.n_qubits, gs[:position] + (b, a) + gs[position + 2:])


def _pair_cancels(a: Gate, b: Gate) -> bool:
    if a.kind is not b.kind or a.kind not in _SELF_INVERSE:
        return False
    if a.kind in _SYMMETRIC:
        return a.support == b.support
    return a.qubits == b.qubits


def _cancel_once(gates: list[Gate]) -> tuple[list[Gate], bool]:
    for i, g in enumerate(gates):
        for j in range(i + 1, len(gates)):
            other = gates[j]
            if not (g.support & other.support):
                continue
            # first later gate sharing a qubit; either it pairs with g or blocks it
            if _pair_cancels(g, other):
                return gates[:i] + gates[i + 1:j] + gates[j + 1:], True
            if g.kind is other.kind and g.kind.has_angle and g.qubits == other.qubits:
                merged_angle = g.angle + other.angle
                rest = gates[:i] + gates[i + 1:j] + gates[j + 1:]
                if abs(math.remainder(merged_angle, TWO_PI)) <= ANGLE_ZERO_TOL:
                    return rest, True
                merged = Gate(g.kind, g.qubits, merged_angle)
                return rest[:i] + [merged] + rest[i:], True
            break
    return gates, False


def cancel_pairs(circuit: Circuit) -> Circuit:
    """Remove adjacent self-inverse pairs and merge adjacent same-axis
    rotations, repeating until nothing changes. Adjacent means no gate in
    between touches any qubit of the pair. Merged rotations whose angle is
    0 mod 2*pi (tolerance 1e-12) are dropped entirely."""
    gates = list(circuit.gates)
    changed = True
    while changed:
        gates, changed = _cancel_once(gates)
    return Circuit(circuit.n_qubits, tuple(gates))


# --- text format ----------------------------------------------------------

def emit(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits}"]
    for g in circuit.gates:
        if g.kind.has_angle:
            lines.append(f"{g.kind.value}({g.angle!r}) {' '.join(f'q{q}' for q in g.qubits)}")
        else:
            lines.append(f"{g.kind.value} {' '.join(f'q{q}' for q in g.qubits)}")
    return "\n".join(lines) + "\n"


def emit_file(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(emit(circuit))


_KINDS_BY_NAME = {k.value: k for k in GateKind}


def _parse_qubit(token: str, line: int) -> int:
    if not token.startswith("q") or not token[1:].isdigit():
        raise ParseError(f"bad qubit token {token!r}", line)
    return int(token[1:])


def parse(text: str) -> Circuit:
    n_qubits = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("expected header 'qubits <n>'", lineno)
            n_qubits = int(tokens[1])
            if n_qubits < 1:
                raise ParseError("qubit count must be positive", lineno)
            continue
        head = tokens[0]
        angle = None
        if "(" in head:
            name, _, rest = head.partition("(")
            if not rest.endswith(")"):
                raise ParseError(f"unterminated angle in {head!r}", lineno)
            try:
                angle = float(rest[:-1])
            except ValueError:
                raise ParseError(f"bad angle {rest[:-1]!r}", lineno) from None
        else:
            name = head
        kind = _KINDS_BY_NAME.get(name)
        if kind is None:
            raise ParseError(f"unknown gate {name!r}", lineno)
        if kind.has_angle != (angle is not None):
            raise ParseError(f"{name} {'requires' if kind.has_angle else 'takes no'} angle", lineno)
        qubits = tuple(_parse_qubit(t, lineno) for t in tokens[1:])
        try:
            gate = Gate(kind, qubits, angle)
            if max(qubits) >= n_qubits:
                raise CircuitError("qubit index out of range")
        except CircuitError as exc:
            raise ParseError(str(exc), lineno) from None
        gates.append(gate)
    if n_qubits is None:
        raise ParseError("missing 'qubits <n>' header", 1)
    return Circuit(n_qubits, tuple(gates))


def parse_file(path) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


# --- construction helpers -------------------------------------------------

def ghz(n_qubits: int) -> Circuit:
    c = Circuit(n_qubits).h(0)
    for q in range(n_qubits - 1):
        c = c.cx(q, q + 1)
    return c


def random_circuit(n_qubits: int, n_gates: int, rng: np.random.Generator,
                   kinds: tuple[GateKind, ...] = tuple(GateKind),
                   adjacent_only: bool = False) -> Circuit:
    """Uniform random circuit over the given kinds; rotation angles are
    uniform in [0, 2*pi). Two-qubit gates pick adjacent pairs when asked."""
    gates = []
    usable = [k for k in kinds if n_qubits >= k.n_qubits]
    for _ in range(n_gates):
        kind = usable[rng.integers(len(usable))]
        if kind.n_qubits == 1:
            qubits = (int(rng.integers(n_qubits)),)
        elif adjacent_only:
            a = int(rng.integers(n_qubits - 1))
            qubits = (a, a + 1) if rng.random() < 0.5 else (a + 1, a)
        else:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            qubits = (int(a), int(b))
        angle = float(rng.uniform(0.0, TWO_PI)) if kind.has_angle else None
        gates.append(Gate(kind, qubits, angle))
    return Circuit(n_qubits, tuple(gates))
