"""Figures of merit: parameter-shift QFI, entropy aggregate, depth and
gate ratios, and the multi-objective reward combining them.

QFI is estimated from measurement statistics only: each rotation angle is
shifted by +-pi/2, the two Z-basis outcome distributions are compared via

    sum_i 4 (P+_i - P-_i)^2 / (P+_i + P-_i)

and the per-parameter values are averaged and divided by the analytic
maximum 8 (each term is bounded by 4(P+ + P-), which sums to 8), so the
result always lands in [0, 1].

One estimate is one run of a row layout on either backend. Its rows are
ordered (rotation k, sign +-, shot), so each shifted circuit is a
contiguous row group: every other gate is applied once to all rows, and
rotation k as at most four row runs (its angle before the group, +pi/2
and -pi/2 on the group's halves, its angle after). Without noise the
layout is one state of 2R rows, a dense batch or an MPS stack whose
tensors hold the rows over one chain, and one `measure_at` call reads
the shots of all its rows. Under noise the rows are (circuit, shot),
`noise.sample_bits` splits them into states, and each shifted circuit
draws its events from its own spawned child generator, as a per-circuit
`sample_counts` would.
The statistic is computed on (2R, outcomes) arrays: exact probabilities
over all 2^n outcomes, or frequencies over the sampled ones, found by one
sort of their packed integer keys (`statevector.distinct_outcomes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .backend import BackendSpec, require_real
from .circuit import Circuit, Gate, depth, gate_count, replace_gate
from .noise import NoiseParams, sample_bits, whole_runs
from .noise import sample_counts  # noqa: F401  (bench/tracing.py wraps it by this name)
from .statevector import distinct_outcomes

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
            if not math.isfinite(require_real(name, getattr(self, name))):
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


def _shifted(gate: Gate, delta: float) -> Gate:
    return Gate(gate.kind, gate.qubits, gate.angle + delta)


# not called by qfi: the tests' reference uses it, bench/tracing.py counts it by name
def shift_angle(circuit: Circuit, position: int, delta: float) -> Circuit:
    return replace_gate(circuit, position, _shifted(circuit.gates[position], delta))


def _shift_statistic(p_plus: np.ndarray, p_minus: np.ndarray) -> np.ndarray:
    """Per row, sum_i 4 (P+_i - P-_i)^2 / (P+_i + P-_i) over the outcomes
    i on the last axis, in sorted-bitstring order, skipping the terms with
    P+_i + P-_i = 0. `np.cumsum` adds in sequence, so a row's sum does not
    depend on how numpy blocks a reduction, and `np.float_power` squares
    with the C library's pow, as Python's scalar `** 2` does (an array
    `** 2` computes x*x, which rounds differently in a few cases)."""
    total = p_plus + p_minus
    terms = np.zeros_like(total)
    np.divide(4.0 * np.float_power(p_plus - p_minus, 2.0), total, out=terms,
              where=total != 0.0)
    return np.cumsum(terms, axis=-1)[..., -1]


def _row_runs(circuit: Circuit, positions: list[int], group: int) -> list[tuple]:
    """Per gate, the runs (`QubitState.apply_runs`) of the 2R shifted
    circuits laid over the rows of one batch, ordered (rotation k, sign,
    row), `group` rows per shifted circuit. A gate that is not a rotation
    is one run over every row. Rotation k keeps its angle on the rows of
    the other rotations, before and after its group, and is shifted by
    +pi/2 and -pi/2 on the two halves of its group."""
    total = 2 * len(positions) * group
    runs = whole_runs(circuit, total)
    for k, pos in enumerate(positions):
        g = circuit.gates[pos]
        plus, minus, end = 2 * k * group, (2 * k + 1) * group, (2 * k + 2) * group
        runs[pos] = tuple(run for run in (
            (0, plus, g),
            (plus, minus, _shifted(g, SHIFT)),
            (minus, end, _shifted(g, -SHIFT)),
            (end, total, g)) if run[0] < run[1])
    return runs


def _frequencies(circuit: Circuit, positions: list[int], shots: int,
                 spec: BackendSpec, noise: NoiseParams | None, children) -> np.ndarray:
    """The outcome distributions of the 2R shifted circuits as the rows of
    one array, ordered (rotation, sign), from one run of their row layout.
    shots = 0 gives the exact (2R, 2^n) probabilities, else frequencies
    over the outcomes seen in any row, in bitstring order (an outcome a
    pair never saw adds +0.0 to its statistic). Without noise the layout
    is one state, each shifted circuit one row of it, read out at
    default_rng(child).random(shots) as `sample_counts` draws it, all rows
    in one `measure_at` call over a (2R, shots) array; with noise the rows
    are (circuit, shot), and each circuit's events come from its own child
    (`noise.sample_bits`).
    """
    pairs = 2 * len(positions)
    if noise is not None:
        bits = sample_bits(circuit, spec, noise, shots, children,
                           _row_runs(circuit, positions, shots))
    else:
        state = spec.fresh(circuit.n_qubits, batch=pairs)
        for gate_runs in _row_runs(circuit, positions, 1):
            state.apply_runs(gate_runs, 0, pairs)
        if shots == 0:
            return state.probabilities()
        u = np.stack([np.random.default_rng(child).random(shots) for child in children])
        bits = state.measure_at(u).reshape(-1, circuit.n_qubits)
    rows, outcome = distinct_outcomes(bits)
    cell = np.repeat(np.arange(pairs), shots) * len(rows) + outcome
    return np.bincount(cell, minlength=pairs * len(rows)).reshape(pairs, -1) / shots


def qfi(circuit: Circuit, shots: int, spec: BackendSpec,
        noise: NoiseParams | None = None, seed=0) -> float:
    """Normalized parameter-shift QFI in [0, 1].

    shots = 0 selects exact-distribution mode, which evaluates the dense
    reference backend, needs no RNG and cannot model noise; shots >= 1
    samples measurement outcomes (per-parameter child seeds keep results
    independent of evaluation order). On both backends the 2R shifted
    circuits run as the rows of one layout (`_frequencies`).
    """
    positions = rotation_positions(circuit)
    if not positions:
        raise QfiUndefinedError("circuit has no RX/RZ gate; QFI undefined")
    noisy = noise is not None and noise.enabled
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if shots == 0 and spec.kind != "statevector":
        raise ValueError("exact QFI mode (shots=0) requires the statevector backend")
    if shots == 0 and noisy:
        raise ValueError("exact QFI mode (shots=0) cannot model noise; use shots >= 1")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(2 * len(positions))
    freqs = _frequencies(circuit, positions, shots, spec, noise if noisy else None, children)
    stats = _shift_statistic(freqs[0::2], freqs[1::2])
    return float(np.cumsum(stats)[-1] / len(positions) / QFI_MAX)


# --- combined evaluation --------------------------------------------------

def base_record(circuit: Circuit, spec: BackendSpec) -> MetricsRecord:
    """Everything of a circuit's record but its QFI (qfi_norm 0), from one
    base run for the entropies."""
    if circuit.n_qubits < 2:
        entropies, chi_max, flags = (), None, ("no_bonds",)
    else:
        state = spec.run(circuit)
        entropies, chi_max, flags = tuple(state.bond_entropies()), state.chi_max, ()
    return MetricsRecord(
        qfi_norm=0.0,
        entropy_norm=normalized_entropy(entropies, circuit.n_qubits, chi_max),
        bond_entropies=entropies,
        depth=depth(circuit),
        gate_count=gate_count(circuit),
        flags=flags,
    )


def evaluate(circuit: Circuit, spec: BackendSpec, shots: int,
             noise: NoiseParams | None = None, seed=0,
             base: MetricsRecord | None = None) -> MetricsRecord:
    """Simulate the circuit once for entropies, estimate QFI, and collect
    depth and gate count into one record. `base`, the circuit's
    `base_record` if the caller already has it, saves the base run.
    Circuits without rotation gates get qfi_norm = 0 with an explanatory
    flag instead of an error so that bare initial circuits can still be
    scored."""
    if base is None:
        base = base_record(circuit, spec)
    try:
        q = qfi(circuit, shots, spec, noise, seed)
    except QfiUndefinedError:
        return replace(base, flags=base.flags + ("qfi_undefined",))
    return replace(base, qfi_norm=q)
