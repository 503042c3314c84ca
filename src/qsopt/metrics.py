"""Figures of merit: parameter-shift QFI, entropy aggregate, depth and
gate ratios, and the multi-objective reward combining them.

QFI is estimated from measurement statistics only. Each rotation angle
is shifted by +-pi/2, and the two Z-basis outcome distributions P+ and
P- are compared via

    sum_x 4 (P+(x) - P-(x))^2 / (P+(x) + P-(x)),

which each term bounds by 4(P+ + P-), so the sum is at most 8. The
per-rotation values are averaged and divided by 8, and the result
lands in [0, 1].

Without noise the two shifted circuits need not run. Here rx and rz are
exp(-i theta P/2), so R(theta +- pi/2) = R(theta)(I -+ iP)/sqrt(2)
(Mitarai et al., PRA 98, 032309, 2018). Let psi be the circuit's state
and xi_k that of the circuit with rotation k shifted by +pi, which
R(theta + pi) = R(theta)(-iP) gives. The shifted states are then
(psi +- xi_k)/sqrt(2), so P+ - P- = 2 Re(conj(psi) xi_k) and
P+ + P- = |psi|^2 + |xi_k|^2. Rotation k's normalized value is

    E_{x ~ Q_k} [delta_k(x)^2],  Q_k = (|psi|^2 + |xi_k|^2) / 2,
    delta_k = 2 Re(conj(psi) xi_k) / (|psi|^2 + |xi_k|^2) in [-1, 1],

and one row per rotation holds what two shifted circuits held.

A circuit's evaluation is one state of rows (`Rows`). Row 0 is the
circuit itself, the base row: its bond entropies, read from a one-row
copy, give the record's entropy figures. Without noise row 1 + k, the
circuit with rotation k shifted by +pi, follows for every rotation:
every gate but rotation k acts on it as on the base row. The rows are a
dense batch or an MPS stack whose tensors hold them over one chain.

`Rows.update` brings the rows to any circuit through one gate loop, and
the env carries them between steps this way. A circuit that only
appends gates runs its new gates: each acts on every row, and a new
rotation first appends one copy of the base row. Any other circuit
restarts the state from |0..0> with all 1 + R rows allocated up front,
since appending rows copies every MPS site tensor, and runs every gate.

The noiseless QFI reads the 1 + R rows one of two ways:
* Exact (shots 0, the statevector): the sum of Q_k delta_k^2 over all
  2^n outcomes, from the rows' amplitudes.
* Sampled: the mixture estimator. Rotation k's shots are drawn at the
  uniforms default_rng(child k).random(shots), the first ceil(N/2)
  from row 0 and the rest from row k. Each drawn x scores delta_k(x)^2,
  read from both rows' amplitudes at x, and each half's mean is weighted
  1/2: the figure is unbiased and bounded, so its error is O(1/sqrt(N))
  at any width. A single shot draws from row 0 when its uniform is below
  1/2 and from row k otherwise, at the uniform halved into [0, 1)
  (`_mixture`). On the statevector the drawn rows' amplitudes are
  indexed directly; on the MPS one `measure_at` walk over row 0's copies
  and the rows k, each with its partner row, gives the amplitude ratio
  at every drawn x (Ferris & Vidal, PRB 85, 165146, 2012).

Under noise the identity does not hold, so the noisy QFI keeps the 2R
shifted circuits and the plug-in statistic above over their sampled
frequencies. The rows hold the base row only, and the noisy QFI lays
the 2R shifted circuits out in its own rows (`_row_runs`) as
`noise.density_rows` picks: one density row each
(`noise.density_probabilities`), whose shots are drawn from the exact
distributions, or (circuit, shot) trajectories (`noise.sample_bits`)
whose events each circuit draws from its own child generator, as a
per-circuit `sample_counts` would. Trajectory bits are ranked by one sort
of their packed keys (`statevector.distinct_outcomes`), and each pair's
frequencies span only the outcomes its rows saw: an unseen one adds
+0.0 to the statistic, which sums in bitstring order.
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


def _rotation_runs(gate: Gate, first: int, shifts: tuple, group: int, total: int) -> tuple:
    """The runs of rotation `gate` over rows 0..total-1 when the `group`
    rows from row `first` on shift its angle by shifts[0], the next
    `group` rows by shifts[1], and so on: every other row keeps its
    angle."""
    stop = first + group * len(shifts)
    runs = [(0, first, gate)]
    runs += [(lo, lo + group, _shifted(gate, d)) for lo, d in zip(range(first, stop, group),
                                                                 shifts)]
    runs.append((stop, total, gate))
    return tuple(run for run in runs if run[0] < run[1])


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
        runs[pos] = _rotation_runs(circuit.gates[pos], 2 * k * group, (SHIFT, -SHIFT), group,
                                   total)
    return runs


class Rows:
    """The rows of one circuit's evaluation, as one state of `spec`'s
    backend. Row 0 is the circuit itself, the base row, whose bond
    entropies the record reads. With `shifted`, row 1 + k follows for
    each rotation k: the circuit with rotation k shifted by +pi, which
    with the base row gives both of its +-pi/2 shifted states (see the
    module docstring). The noiseless QFI reads these 1 + R rows; a noisy
    evaluation holds the base row only.

    `update` is the one way the rows reach a circuit, and one gate loop
    serves it: a circuit that only appends gates to the rows' circuit
    runs its new gates, any other restarts from |0..0> with all 1 + R
    rows allocated and runs every gate. A rotation whose row is not held
    yet first appends one copy of the base row."""

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
            self.state = self.spec.fresh(circuit.n_qubits, batch=1 + self.rotations)
        for gate in gates:
            if not (self.shifted and gate.kind.has_angle):
                self.state.apply_gate(gate)
                continue
            if k == self.rotations:  # rotation k's row is not held yet
                self.state.append_rows(0, 1)
                self.rotations += 1
            held = 1 + self.rotations
            self.state.apply_runs(_rotation_runs(gate, 1 + k, (math.pi,), 1, held), 0, held)
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
    """The (len(children), shots) measurement uniforms, one
    default_rng(child).random(shots) per child, as `sample_counts` draws
    them."""
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


def _mixture(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shots of the mixture estimator from each rotation's uniforms v,
    (R, N): (u, weights), both (2R, ceil(N/2)). Row k of u holds the
    uniforms drawn from base row 0, row R + k those drawn from shifted row
    k, and a shot's weight is its share of rotation k's figure.

    N >= 2: the first ceil(N/2) uniforms go to row 0, the other floor(N/2)
    to row k, and each half's mean is weighted 1/2. An odd N fills row k's
    last column with a copy of its last uniform, of weight 0; equal
    uniforms walk equal bits, so the copy adds no node to an MPS walk.
    N = 1: the shot draws from row 0 at 2u if u < 1/2, else from row k at
    2u - 1. Both rows walk that uniform, and the other row's shot has
    weight 0."""
    rotations, shots = v.shape
    if shots == 1:
        upper = v >= 0.5
        u = np.concatenate((2.0 * v - upper,) * 2)
        return u, np.concatenate((~upper, upper)).astype(float)
    half = (shots + 1) // 2
    rest = np.concatenate((v[:, half:], v[:, -1:].repeat(2 * half - shots, axis=1)), axis=1)
    weights = np.zeros((2 * rotations, half))
    weights[:rotations] = 0.5 / half
    weights[rotations:, :shots - half] = 0.5 / (shots - half)
    return np.concatenate((v[:, :half], rest)), weights


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


def _seed_children(seed, count: int) -> list:
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return root.spawn(count)


def _noisy_qfi(circuit: Circuit, positions: list[int], shots: int, spec: BackendSpec,
               noise: NoiseParams, seed) -> float:
    """The plug-in figure over the sampled frequencies of the 2R shifted
    circuits, run as density rows or trajectories (`noise.density_rows`),
    circuit c's shots drawn at child c of `seed`."""
    pairs = 2 * len(positions)
    children = _seed_children(seed, pairs)
    if density_rows(spec, circuit.n_qubits, shots):
        probs = density_probabilities(circuit, spec, noise, _row_runs(circuit, positions, 1),
                                      pairs)
        freqs = _sampled(probs, children, shots)
        plus, minus = freqs[0::2], freqs[1::2]
    else:
        bits = sample_bits(circuit, spec, noise, shots, children,
                           _row_runs(circuit, positions, shots))
        plus, minus = _pair_frequencies(bits.reshape(-1, circuit.n_qubits), pairs, shots)
    stats = _shift_statistic(plus, minus)
    return float(np.cumsum(stats)[-1] / len(positions) / QFI_MAX)


def qfi(circuit: Circuit, shots: int, spec: BackendSpec,
        noise: NoiseParams | None = None, seed=0, rows: Rows | None = None) -> float:
    """Normalized parameter-shift QFI in [0, 1] (see the module
    docstring).

    shots = 0 selects the exact mode, which needs no RNG: the sum over
    every outcome of the 1 + R rows' figure. shots >= 1 samples
    measurement outcomes, each rotation's (or, under noise, each shifted
    circuit's) at its own child seed, so results do not depend on
    evaluation order; `check_qfi_mode` refuses every other mode. Without
    noise the rows are `rows`, the circuit's `Rows`, built here when not
    given, and the sampled figure is the mixture estimator. Under noise
    the 2R shifted circuits run as density rows or as trajectories
    (`noise.density_rows`) and give the plug-in figure; `rows` is not
    read.
    """
    positions = rotation_positions(circuit)
    if not positions:
        raise QfiUndefinedError("circuit has no RX/RZ gate; QFI undefined")
    check_qfi_mode(shots, spec, noise)
    if noise is not None:
        return _noisy_qfi(circuit, positions, shots, spec, noise, seed)
    if rows is None:
        rows = Rows(circuit, spec)
    elif not (rows.shifted and rows.spec == spec and rows.circuit == circuit):
        raise ValueError("rows of another circuit or without shifted rows")
    rotations = len(positions)
    if not shots:  # the statevector's amplitudes, summed over every outcome
        psi, xi = rows.state.amps[0], rows.state.amps[1:]
        total = np.abs(psi) ** 2 + np.abs(xi) ** 2
        terms = np.zeros_like(total)
        np.divide(2.0 * (psi.conj() * xi).real ** 2, total, out=terms, where=total != 0.0)
        return float(np.sum(terms) / rotations)
    u, weights = _mixture(_uniforms(_seed_children(seed, rotations), shots))
    # the rows read: row 0 once per rotation, then rows 1..R; each one's
    # partner is the other row of its rotation
    shifted = np.arange(1, rotations + 1)
    read = np.concatenate((0 * shifted, shifted))
    partner = np.roll(read, rotations)
    if spec.kind == "statevector":  # the drawn rows' amplitudes, indexed directly
        amps = rows.state.amps
        index = outcome_index(np.abs(amps[read]) ** 2, u)
        ratio = (np.take_along_axis(amps[partner], index, axis=1)
                 / np.take_along_axis(amps[read], index, axis=1))
    else:
        _, ratio = rows.state.measure_at(u, rows=read, partners=partner)
    delta = 2.0 * ratio.real / (1.0 + np.abs(ratio) ** 2)
    return float(np.sum(weights * delta ** 2) / rotations)


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
