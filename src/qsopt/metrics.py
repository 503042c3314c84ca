"""Figures of merit: parameter-shift QFI, entropy aggregate, depth and
gate ratios, and the multi-objective reward combining them.

QFI is estimated from measurement statistics only: each rotation angle is
shifted by +-pi/2, the two Z-basis outcome distributions are compared via

    sum_i 4 (P+_i - P-_i)^2 / (P+_i + P-_i)

and the per-parameter values are averaged and divided by the analytic
maximum 8 (each term is bounded by 4(P+ + P-), which sums to 8), so the
result always lands in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backend import BackendSpec
from .circuit import Circuit, Gate, depth, gate_count, replace_gate
from .noise import NoiseParams, sample_counts

QFI_MAX = 8.0
SHIFT = math.pi / 2.0


class QfiUndefinedError(ValueError):
    """QFI requested for a circuit without any rotation gate."""


def depth_ratio(d_in: int, d_out: int) -> float:
    """(d_in - d_out)/d_in; negative when depth grows; 0 for empty input."""
    if d_in == 0:
        return 0.0
    return (d_in - d_out) / d_in


def gate_ratio(g_in: int, g_out: int) -> float:
    if g_in == 0:
        return 0.0
    return (g_in - g_out) / g_in


@dataclass(frozen=True)
class RewardWeights:
    qfi: float = 0.4
    depth: float = 0.2
    entropy: float = 0.3
    gates: float = 0.1

    def __post_init__(self):
        for name in ("qfi", "depth", "entropy", "gates"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"weight {name} must be finite")


@dataclass(frozen=True)
class MetricDeltas:
    qfi: float
    depth: float
    entropy: float
    gates: float


def reward(deltas: MetricDeltas, weights: RewardWeights) -> float:
    return (weights.qfi * deltas.qfi + weights.depth * deltas.depth
            + weights.entropy * deltas.entropy + weights.gates * deltas.gates)


@dataclass(frozen=True)
class MetricsRecord:
    qfi_norm: float
    entropy_norm: float
    bond_entropies: tuple[float, ...]
    depth: int
    gate_count: int
    flags: tuple[str, ...] = ()

    def deltas_vs(self, baseline: "MetricsRecord") -> MetricDeltas:
        """QFI/entropy as plain differences, depth/gates as reduction
        ratios against the baseline (episode-initial) circuit."""
        return MetricDeltas(
            qfi=self.qfi_norm - baseline.qfi_norm,
            depth=depth_ratio(baseline.depth, self.depth),
            entropy=self.entropy_norm - baseline.entropy_norm,
            gates=gate_ratio(baseline.gate_count, self.gate_count),
        )


# --- entropy aggregate ----------------------------------------------------

def normalized_entropy(bond_entropies, n_qubits: int, chi_max: int | None = None) -> float:
    """Mean over bonds of S_k / min(k, n-k, log2 chi_max), clamped to [0, 1].
    Fewer than two qubits have no bonds; 0 by convention."""
    if n_qubits < 2:
        return 0.0
    chi_bits = math.log2(chi_max) if chi_max is not None else math.inf
    total = 0.0
    for k, s in enumerate(bond_entropies, start=1):
        cap = min(k, n_qubits - k, chi_bits)
        total += 0.0 if cap <= 0.0 else s / cap
    return float(np.clip(total / (n_qubits - 1), 0.0, 1.0))


def entropy_norm(state) -> float:
    return normalized_entropy(state.bond_entropies(), state.n_qubits, state.chi_max)


def bell_unit_entropies(bond_entropies) -> list[float]:
    """Per-bond entropies clamped to the one-Bell-pair scale [0, 1] bits;
    the per-bond normalization used in observations and bond triggers."""
    return [min(float(s), 1.0) for s in bond_entropies]


# --- parameter-shift QFI --------------------------------------------------

def rotation_positions(circuit: Circuit) -> list[int]:
    return [i for i, g in enumerate(circuit.gates) if g.kind.has_angle]


def shift_angle(circuit: Circuit, position: int, delta: float) -> Circuit:
    g = circuit.gates[position]
    return replace_gate(circuit, position, Gate(g.kind, g.qubits, g.angle + delta))


def _shift_statistic(p_plus: dict[str, float], p_minus: dict[str, float]) -> float:
    """Sums in sorted outcome order, so the float does not depend on the
    order of a hashed set of bitstrings (which changes with the process)."""
    total = 0.0
    for outcome in sorted(p_plus.keys() | p_minus.keys()):
        a = p_plus.get(outcome, 0.0)
        b = p_minus.get(outcome, 0.0)
        if a + b == 0.0:
            continue
        total += 4.0 * (a - b) ** 2 / (a + b)
    return total


def _frequencies(counts: dict[str, int], shots: int) -> dict[str, float]:
    return {k: v / shots for k, v in counts.items()}


def qfi(circuit: Circuit, shots: int, spec: BackendSpec,
        noise: NoiseParams | None = None, seed=0) -> float:
    """Normalized parameter-shift QFI in [0, 1].

    shots = 0 selects exact-distribution mode, which evaluates the dense
    reference backend and needs no RNG; shots >= 1 samples measurement
    outcomes (per-parameter child seeds keep results independent of
    evaluation order).
    """
    positions = rotation_positions(circuit)
    if not positions:
        raise QfiUndefinedError("circuit has no RX/RZ gate; QFI undefined")
    if shots == 0:
        if spec.kind != "statevector":
            raise ValueError("exact QFI mode (shots=0) requires the statevector backend")

        def distribution(c: Circuit, _seed) -> dict[str, float]:
            return spec.run(c).distribution()
    elif shots > 0:
        def distribution(c: Circuit, child) -> dict[str, float]:
            return _frequencies(sample_counts(c, spec, shots, child, noise), shots)
    else:
        raise ValueError(f"shots must be >= 0, got {shots}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = iter(root.spawn(2 * len(positions)))
    raw = 0.0
    for pos in positions:
        p_plus = distribution(shift_angle(circuit, pos, SHIFT), next(children))
        p_minus = distribution(shift_angle(circuit, pos, -SHIFT), next(children))
        raw += _shift_statistic(p_plus, p_minus)
    return raw / len(positions) / QFI_MAX


# --- combined evaluation --------------------------------------------------

def evaluate(circuit: Circuit, spec: BackendSpec, shots: int,
             noise: NoiseParams | None = None, seed=0) -> MetricsRecord:
    """Simulate the circuit once for entropies, estimate QFI, and collect
    depth and gate count into one record. Circuits without rotation gates
    get qfi_norm = 0 with an explanatory flag instead of an error so that
    bare initial circuits can still be scored."""
    state = spec.run(circuit)
    entropies = tuple(state.bond_entropies()) if circuit.n_qubits >= 2 else ()
    flags: tuple[str, ...] = ()
    if circuit.n_qubits < 2:
        flags += ("no_bonds",)
    try:
        q = qfi(circuit, shots, spec, noise, seed)
    except QfiUndefinedError:
        q = 0.0
        flags += ("qfi_undefined",)
    return MetricsRecord(
        qfi_norm=q,
        entropy_norm=normalized_entropy(entropies, circuit.n_qubits, state.chi_max),
        bond_entropies=entropies,
        depth=depth(circuit),
        gate_count=gate_count(circuit),
        flags=flags,
    )
