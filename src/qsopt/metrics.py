"""Figures of merit: parameter-shift QFI, entropy aggregate, depth and
gate ratios, and the multi-objective reward combining them.

QFI is estimated from measurement statistics only: each rotation angle is
shifted by +-pi/2, the two Z-basis outcome distributions are compared via

    sum_i 4 (P+_i - P-_i)^2 / (P+_i + P-_i)

and the per-parameter values are averaged and divided by the analytic
maximum 8 (each term is bounded by 4(P+ + P-), which sums to 8), so the
result always lands in [0, 1].

A circuit's evaluation is one state of rows (`Rows`). Row 0 is the
circuit itself, the base row: its bond entropies, read from a one-row
copy, give the record's entropy figures. Without noise the 2R shifted
circuits follow, ordered (rotation k, sign +-): every gate but rotation
k acts on their rows as on the base row, and rotation k is laid out as
at most four row runs (its angle before the pair, +pi/2 and -pi/2 on the
pair, its angle after). The rows are a dense batch or an MPS stack whose
tensors hold them over one chain.

`Rows.update` brings the rows to any circuit through one gate loop, and
the env carries them between steps this way. A circuit that only
appends gates runs its new gates: each acts on every row, and a new
rotation first appends two copies of the base row. Any other circuit
restarts the state from |0..0> with all 1 + 2R rows allocated up front,
since appending rows copies every MPS site tensor, and runs every gate.
Under noise the rows hold the base row only, and the noisy QFI lays the
2R shifted circuits out in its own rows (`_row_runs`) as
`noise.density_rows` picks: one density row each
(`noise.density_probabilities`), or (circuit, shot) trajectories
(`noise.sample_bits`) whose events each circuit draws from its own child
generator, as a per-circuit `sample_counts` would.

The QFI reads the shifted circuits, never the base row, one of two ways:
* Distributions, on the statevector: one (2R, 2^n) array, the shifted
  rows' probabilities or, under noise, the density rows'. Shots 0 reads
  it as it is; else circuit c's shots are drawn from its row at
  default_rng(child c).random(shots) (`_sampled`).
* Bits, from the MPS rows (one `measure_at` call at the same uniforms)
  and the noisy trajectories, ranked by one sort of their packed keys
  (`statevector.distinct_outcomes`). Each pair's frequencies span only
  the outcomes its rows saw: an unseen one adds +0.0 to the statistic,
  which sums in bitstring order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .backend import BackendSpec, require_real
from .circuit import Circuit, Gate, depth, gate_count, replace_gate
from .noise import NoiseParams, density_probabilities, density_rows, sample_bits, whole_runs
from .noise import sample_counts  # noqa: F401  (bench/tracing.py wraps it by this name)
from .statevector import distinct_outcomes, outcome_index

QFI_MAX = 8.0
SHIFT = math.pi / 2.0


class QfiUndefinedError(ValueError):
    """QFI requested for a circuit without any rotation gate."""


def reduction_ratio(before: int, after: int) -> float:
    """(before - after)/before, of a depth or a gate count; negative when
    it grows; 0 for an empty input."""
    if before == 0:
        return 0.0
    return (before - after) / before


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
    # the MPS truncation of the evaluation's rows (`Rows.record`); 0 on the
    # dense backend
    discarded_weight: float = 0.0

    def deltas_vs(self, baseline: "MetricsRecord") -> MetricDeltas:
        """QFI/entropy as plain differences, depth/gates as reduction
        ratios against the baseline (episode-initial) circuit."""
        return MetricDeltas(
            qfi=self.qfi_norm - baseline.qfi_norm,
            depth=reduction_ratio(baseline.depth, self.depth),
            entropy=self.entropy_norm - baseline.entropy_norm,
            gates=reduction_ratio(baseline.gate_count, self.gate_count),
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


def _rotation_runs(gate: Gate, plus: int, group: int, total: int) -> tuple:
    """The runs of rotation `gate` over rows 0..total-1 when rows
    plus..plus+group-1 shift it by +pi/2 and the next `group` rows by
    -pi/2: every other row keeps its angle."""
    minus, end = plus + group, plus + 2 * group
    return tuple(run for run in (
        (0, plus, gate),
        (plus, minus, _shifted(gate, SHIFT)),
        (minus, end, _shifted(gate, -SHIFT)),
        (end, total, gate)) if run[0] < run[1])


def _row_runs(circuit: Circuit, positions: list[int], group: int) -> list[tuple]:
    """Per gate, the runs (`QubitState.apply_runs`) of the noisy layout,
    whose rows are the 2R shifted circuits, ordered (rotation k, sign,
    row), `group` rows per shifted circuit. A gate that is not a rotation
    is one run over every row. Rotation k keeps its angle on every row but
    its group's, and is shifted by +pi/2 and -pi/2 on the two halves of
    its group."""
    total = 2 * len(positions) * group
    runs = whole_runs(circuit, total)
    for k, pos in enumerate(positions):
        runs[pos] = _rotation_runs(circuit.gates[pos], 2 * k * group, group, total)
    return runs


class Rows:
    """The rows of one circuit's evaluation, as one state of `spec`'s
    backend. Row 0 is the circuit itself, the base row, whose bond
    entropies the record reads. With `shifted`, rows 1 + 2k and 2 + 2k
    follow: the circuit with rotation k shifted by +pi/2 and -pi/2, whose
    outcome distributions the QFI compares.

    `update` is the one way the rows reach a circuit, and one gate loop
    serves it: a circuit that only appends gates to the rows' circuit
    runs its new gates, any other restarts from |0..0> with all 1 + 2R
    rows allocated and runs every gate. A rotation whose rows are not held
    yet first appends two copies of the base row."""

    def __init__(self, circuit: Circuit, spec: BackendSpec, shifted: bool = True):
        self.circuit, self.spec, self.shifted = None, spec, shifted
        self.update(circuit)

    def update(self, circuit: Circuit) -> bool:
        """Bring the rows to `circuit`. Returns whether they were extended,
        that is whether the rows' circuit is a prefix of `circuit`."""
        old = self.circuit
        extended = (old is not None and circuit.n_qubits == old.n_qubits
                    and circuit.gates[:len(old)] == old.gates)
        if extended:
            gates, k = circuit.gates[len(old):], self.rotations
        else:
            gates, k = circuit.gates, 0
            self.rotations = len(rotation_positions(circuit)) if self.shifted else 0
            self.state = self.spec.fresh(circuit.n_qubits, batch=1 + 2 * self.rotations)
        for gate in gates:
            if not (self.shifted and gate.kind.has_angle):
                self.state.apply_gate(gate)
                continue
            if k == self.rotations:  # rotation k's rows are not held yet
                self.state.append_rows(0, 2)
                self.rotations += 1
            held = 1 + 2 * self.rotations
            self.state.apply_runs(_rotation_runs(gate, 1 + 2 * k, 1, held), 0, held)
            k += 1
        # even an empty update drops the record: the QFI's readout moves
        # the MPS centre, and the next record reads the stack as it is then
        self.circuit, self._record = circuit, None
        return extended

    def record(self) -> MetricsRecord:
        """Everything of the circuit's record but its QFI (qfi_norm 0); the
        entropies are those of a one-row copy of the base row. On the MPS
        the discarded weight is the largest of the rows' totals: the base
        and shifted rows, or under noise the base row alone, since the
        noisy QFI's trajectories are not these rows."""
        if self._record is None:
            c = self.circuit
            entropies = tuple(self.state.row_copy(0).bond_entropies())
            self._record = MetricsRecord(
                qfi_norm=0.0,
                entropy_norm=normalized_entropy(entropies, c.n_qubits, self.state.chi_max),
                bond_entropies=entropies,
                depth=depth(c),
                gate_count=gate_count(c),
                flags=() if c.n_qubits >= 2 else ("no_bonds",),
                discarded_weight=(float(np.max(self.state.total_discarded))
                                  if self.spec.kind == "mps" else 0.0),
            )
        return self._record


def _uniforms(children, shots: int) -> np.ndarray:
    """The (2R, shots) measurement uniforms of the shifted circuits, one
    default_rng(child).random(shots) each, as `sample_counts` draws them."""
    return np.stack([np.random.default_rng(child).random(shots) for child in children])


def _sampled(probs: np.ndarray, children, shots: int) -> np.ndarray:
    """The frequencies, (2R, 2^n), of `shots` outcomes drawn from each row
    of `probs` at its `_uniforms` (`outcome_index`)."""
    index = outcome_index(probs, _uniforms(children, shots))
    cell = index + probs.shape[1] * np.arange(len(probs))[:, None]
    return np.bincount(cell.ravel(), minlength=probs.size).reshape(probs.shape) / shots


def _pair_frequencies(bits: np.ndarray, pairs: int, shots: int) -> tuple[np.ndarray, np.ndarray]:
    """The frequencies of the outcomes each pair of rows saw, the shots of
    pair k being rows 2k (+) and 2k+1 (-) of `shots` bit rows each: two
    (pairs / 2, width) arrays, row k holding pair k's outcomes in
    bitstring order, then zeros. An outcome neither row of a pair saw
    adds +0.0 to its statistic, so it is left out."""
    _, outcome = distinct_outcomes(bits)
    row = np.repeat(np.arange(pairs), shots)
    span = int(outcome.max()) + 1
    # one cell per (pair, outcome seen by either row), sorted by both
    cells, cell = np.unique(row // 2 * span + outcome, return_inverse=True)
    pair = cells // span
    col = np.arange(len(cells)) - np.searchsorted(pair, pair)
    minus_row = row % 2 == 1
    out = []
    for sign in (~minus_row, minus_row):
        freq = np.zeros((pairs // 2, int(col.max()) + 1))
        freq[pair, col] = np.bincount(cell[sign], minlength=len(cells)) / shots
        out.append(freq)
    return out[0], out[1]


def check_qfi_mode(shots: int, spec: BackendSpec, noise: NoiseParams | None) -> None:
    """Refuse a QFI mode that does not exist: shots must be >= 0, and
    shots = 0, the exact mode, reads the statevector's distributions
    without noise."""
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if shots == 0 and spec.kind != "statevector":
        raise ValueError("exact QFI mode (shots=0) requires the statevector backend")
    if shots == 0 and noise is not None:
        raise ValueError("exact QFI mode (shots=0) cannot model noise; use shots >= 1")


def qfi(circuit: Circuit, shots: int, spec: BackendSpec,
        noise: NoiseParams | None = None, seed=0, rows: Rows | None = None) -> float:
    """Normalized parameter-shift QFI in [0, 1].

    shots = 0 selects exact-distribution mode, which needs no RNG;
    shots >= 1 samples measurement outcomes (per-parameter child seeds
    keep results independent of evaluation order); `check_qfi_mode`
    refuses every other mode. Without noise the 2R shifted
    circuits are the shifted rows of `rows`, the circuit's `Rows`, built
    here when not given; under noise they run as density rows or as
    trajectories (`noise.density_rows`), and `rows` is not read.
    """
    positions = rotation_positions(circuit)
    if not positions:
        raise QfiUndefinedError("circuit has no RX/RZ gate; QFI undefined")
    check_qfi_mode(shots, spec, noise)
    noisy = noise is not None
    if not noisy:
        if rows is None:
            rows = Rows(circuit, spec)
        elif not (rows.shifted and rows.spec == spec and rows.circuit == circuit):
            raise ValueError("rows of another circuit or without shifted rows")
    pairs = 2 * len(positions)
    if shots:  # exact mode spawns nothing
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = root.spawn(pairs)
    trajectories = noisy and not density_rows(spec, circuit.n_qubits, shots)
    if spec.kind == "statevector" and not trajectories:  # distributions
        probs = (density_probabilities(circuit, spec, noise, _row_runs(circuit, positions, 1),
                                       pairs) if noisy else rows.state.probabilities()[1:])
        if shots:
            probs = _sampled(probs, children, shots)
        plus, minus = probs[0::2], probs[1::2]
    else:  # bits
        if trajectories:
            bits = sample_bits(circuit, spec, noise, shots, children,
                               _row_runs(circuit, positions, shots))
        else:
            bits = rows.state.measure_at(_uniforms(children, shots), rows=slice(1, None))
        plus, minus = _pair_frequencies(bits.reshape(-1, circuit.n_qubits), pairs, shots)
    stats = _shift_statistic(plus, minus)
    return float(np.cumsum(stats)[-1] / len(positions) / QFI_MAX)


# --- combined evaluation --------------------------------------------------

def evaluate(circuit: Circuit, spec: BackendSpec, shots: int,
             noise: NoiseParams | None = None, seed=0,
             rows: Rows | None = None) -> MetricsRecord:
    """The circuit's entropies (from its base row), QFI, depth and gate
    count as one record. `rows`, the circuit's `Rows` if the caller
    carries them, is built here when not given: with shifted rows unless
    the QFI models noise. Circuits without rotation gates get qfi_norm = 0
    with an explanatory flag instead of an error so that bare initial
    circuits can still be scored."""
    if rows is None:
        rows = Rows(circuit, spec, shifted=noise is None)
    elif rows.circuit != circuit:
        raise ValueError("rows of another circuit")
    base = rows.record()
    try:
        q = qfi(circuit, shots, spec, noise, seed, rows)
    except QfiUndefinedError:
        return replace(base, flags=base.flags + ("qfi_undefined",))
    return replace(base, qfi_norm=q)
