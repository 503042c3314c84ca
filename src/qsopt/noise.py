"""Trajectory noise model: stochastic Pauli and reset insertions.

Three channels, all realized as discrete events sampled per shot:

* depolarizing after every gate: with probability p_1q (p_2q for two-qubit
  gates) one uniformly chosen non-identity Pauli lands on one uniformly
  chosen qubit of the gate;
* thermal relaxation, Pauli-twirled: once per circuit moment every qubit
  independently suffers a reset-to-|0> with p_amp = 1 - exp(-t/T1) and
  then a Z flip with p_phase = 1 - exp(-t/T_phi), where
  1/T_phi = 1/T2 - 1/(2*T1) and t is the longest gate duration in the
  moment (idle qubits relax for the same window);
* measurement error: every readout bit flips with probability p_meas.

The reset event is realized on pure states as a projective Z measurement
followed by a conditional X, a valid stochastic unraveling of the
amplitude-damping reset (quantum trajectories: Dalibard, Castin & Molmer,
PRL 68, 580, 1992).

`draw_events` draws every event of every shot up front, as arrays, from
one generator; `sample_counts` makes one generator per call, and
`sample_bits` one per circuit when it runs several circuits that differ
only in angles (the parameter-shift QFI's shifted copies) as one set of
rows. Both backends read the same event arrays, so they share one RNG
layout and one definition of the noise semantics. `row_states` maps the
rows of a layout to states, here and for the noiseless QFI: the dense
statevector evolves rows together as a (rows, 2^n) array (in batches of
at most BATCH_AMPLITUDES amplitudes), the MPS runs one row per state.
Each event is one state op over the rows it hits (`apply_paulis`,
`reset_rows`, `flip_z`), and the same `_evolve` loop drives a dense batch
and a single MPS trajectory. A disabled model draws the same arrays with
every probability zero. Each shot is read out by the backend's
`measure_at` at its measurement uniform and the flipped bits are counted
by `bit_counts`, as in `sample`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .backend import BackendSpec
from .circuit import Circuit, moments
from .statevector import DenseState, bit_counts

# amplitudes one batch of dense trajectories holds (16 MiB of complex128,
# and twice that in its scratch buffer); more rows run in several batches
# with the same results
BATCH_AMPLITUDES = 1 << 20


class NoiseConfigError(ValueError):
    """Inconsistent noise parameters (for example T2 > 2*T1)."""


@dataclass(frozen=True)
class NoiseParams:
    p_meas: float = 0.02
    p_1q: float = 0.01
    p_2q: float = 0.03
    t1_us: float = 50.0
    t2_us: float = 70.0
    dur_1q_us: float = 0.05
    dur_2q_us: float = 0.3
    enabled: bool = True
    during_training: bool = True

    def __post_init__(self):
        for name in ("p_meas", "p_1q", "p_2q"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise NoiseConfigError(f"{name}={p} outside [0, 1]")
        for name in ("t1_us", "t2_us", "dur_1q_us", "dur_2q_us"):
            v = getattr(self, name)
            if v <= 0.0:
                raise NoiseConfigError(f"{name}={v} must be positive")
        if self.t2_us > 2.0 * self.t1_us:
            raise NoiseConfigError(f"t2={self.t2_us} exceeds 2*t1={2.0 * self.t1_us}; "
                                   "pure dephasing time would be negative")

    def disabled(self) -> "NoiseParams":
        return replace(self, enabled=False)

    @property
    def t_phi_us(self) -> float:
        """Pure dephasing time from 1/T_phi = 1/T2 - 1/(2*T1); inf when
        T2 saturates the 2*T1 limit."""
        inv = 1.0 / self.t2_us - 1.0 / (2.0 * self.t1_us)
        return math.inf if inv <= 0.0 else 1.0 / inv


@dataclass(frozen=True)
class NoiseEvents:
    """Every noise event of a set of shots through one circuit; axis 0 is
    the shot."""
    pauli: np.ndarray    # (shots, gates) int: depolarizing Pauli after the gate, 0 none
    target: np.ndarray   # (shots, gates) int: the qubit that Pauli acts on
    reset: np.ndarray    # (shots, moments, qubits) bool: reset at the moment's end
    reset_u: np.ndarray  # (shots, moments, qubits) uniform deciding that reset's outcome
    phase: np.ndarray    # (shots, moments, qubits) bool: Z flip after the reset draw
    meas_u: np.ndarray   # (shots,) uniform picking the measured basis state
    flips: np.ndarray    # (shots, qubits) bool: readout bit flips

    @property
    def shots(self) -> int:
        return len(self.meas_u)

    def rows(self, index) -> "NoiseEvents":
        return NoiseEvents(*(getattr(self, f.name)[index] for f in fields(self)))


def draw_events(circuit: Circuit, layers: list[list[int]], params: NoiseParams,
                shots: int, *rngs: np.random.Generator) -> NoiseEvents:
    """Draw the noise events of `shots` runs of `circuit` (scheduled into
    `layers` by `moments`) from each generator of `rngs` in turn, their
    shots concatenated. Each generator draws in this order: depolarizing
    hit, target qubit and Pauli per (shot, gate); reset, reset-outcome
    uniform and Z flip per (shot, moment, qubit); the measurement uniform
    per shot; readout flips per (shot, qubit). Only the circuit's gate
    kinds, qubits and moments matter, not its angles."""
    n = circuit.n_qubits
    scale = 1.0 if params.enabled else 0.0
    two = np.array([g.kind.n_qubits == 2 for g in circuit.gates], dtype=bool)
    p_gate = np.where(two, params.p_2q, params.p_1q) * scale
    gate_us = np.where(two, params.dur_2q_us, params.dur_1q_us)
    duration = np.array([gate_us[layer].max() for layer in layers])
    p_amp = (1.0 - np.exp(-duration / params.t1_us)) * scale
    # T_phi = inf (T2 = 2*T1) gives exp(-0) = 1: no dephasing
    p_phase = (1.0 - np.exp(-duration / params.t_phi_us)) * scale
    first = np.array([g.qubits[0] for g in circuit.gates], dtype=int)
    last = np.array([g.qubits[-1] for g in circuit.gates], dtype=int)

    def draw(rng):
        hit = rng.random((shots, len(two))) < p_gate
        target = np.where(rng.integers(2, size=hit.shape) == 1, last, first)
        pauli = np.where(hit, 1 + rng.integers(3, size=hit.shape), 0)
        grid = (shots, len(layers), n)
        reset = rng.random(grid) < p_amp[:, None]
        reset_u = rng.random(grid)
        phase = rng.random(grid) < p_phase[:, None]
        meas_u = rng.random(shots)
        flips = rng.random((shots, n)) < params.p_meas * scale
        return NoiseEvents(pauli, target, reset, reset_u, phase, meas_u, flips)

    parts = [draw(rng) for rng in rngs]
    return parts[0] if len(parts) == 1 else NoiseEvents(
        *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(NoiseEvents)))


def _evolve(state, runs, layers: list[list[int]], ev: NoiseEvents, start: int = 0) -> None:
    """Run a circuit on `state` with the events of ev, one trajectory per
    shot of ev: the rows of a dense batch, or a single state for one shot.
    The state holds rows start.. of a batch layout, and runs[idx] lays gate
    idx over that layout (`QubitState.apply_runs`). Inside a moment each
    gate is followed by its depolarizing Paulis, all rows in one op. At the
    moment's end each qubit with resets gets one reset op, then all Z flips
    of the moment are one sign multiply: a sign flip changes no branch
    weight and commutes with the reset's rescale, so this equals a reset
    then a Z flip qubit by qubit."""
    stop = start + ev.shots
    gate_hit = ev.pauli.any(axis=0)
    reset_hit = ev.reset.any(axis=0)
    phase_hit = ev.phase.any(axis=(0, 2))
    for m, layer in enumerate(layers):
        for idx in layer:
            state.apply_runs(runs[idx], start, stop)
            if gate_hit[idx]:
                state.apply_paulis(ev.pauli[:, idx], ev.target[:, idx])
        for qubit in np.flatnonzero(reset_hit[m]).tolist():
            state.reset_rows(qubit, ev.reset[:, m, qubit], ev.reset_u[:, m, qubit])
        if phase_hit[m]:
            state.flip_z(ev.phase[:, m])


def whole_runs(circuit: Circuit, rows: int) -> list[tuple]:
    """The runs that apply every gate of `circuit` to all `rows` rows."""
    return [((0, rows, g),) for g in circuit.gates]


def run_one_trajectory(circuit: Circuit, spec: BackendSpec, params: NoiseParams,
                       rng: np.random.Generator):
    """Simulate one noisy execution; returns the final (collapsed) state.
    Its events are one shot's worth of `draw_events` from rng."""
    layers = moments(circuit)
    events = draw_events(circuit, layers, params, 1, rng)
    state = spec.fresh(circuit.n_qubits)
    _evolve(state, whole_runs(circuit, 1), layers, events)
    return state


def row_states(spec: BackendSpec, n_qubits: int, rows: int):
    """The states that hold the `rows` rows of a batch layout, as (start,
    stop, state) with rows start..stop-1 in state: on the dense statevector
    batches of at most BATCH_AMPLITUDES amplitudes (at least one row),
    split at row boundaries, so a batch can end inside a run; on the MPS
    one `spec.fresh` state per row."""
    dense = spec.kind == "statevector"
    step = max(1, BATCH_AMPLITUDES >> n_qubits) if dense else 1
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        yield start, stop, (DenseState(n_qubits, spec.dense_cap, batch=stop - start)
                            if dense else spec.fresh(n_qubits))


def sample_bits(circuit: Circuit, spec: BackendSpec, params: NoiseParams, shots: int,
                seeds, runs=None) -> np.ndarray:
    """Readout bits, readout flips applied, of `shots` noisy runs per seed,
    as the rows of a (len(seeds) * shots, n) array ordered (seed, shot).

    The shots of seeds[c] draw their events from default_rng(seeds[c]),
    exactly as `sample_counts` draws them for one seed; `draw_events`
    reads no angle, so one `moments(circuit)` serves circuits that differ
    only in angles. `runs` lays such circuits over the rows (see
    `QubitState.apply_runs`); by default every row runs `circuit`. The
    rows live in the states of `row_states`.
    """
    layers = moments(circuit)
    events = draw_events(circuit, layers, params, shots,
                         *(np.random.default_rng(s) for s in seeds))
    runs = whole_runs(circuit, events.shots) if runs is None else runs
    bits = []
    for start, stop, state in row_states(spec, circuit.n_qubits, events.shots):
        ev = events.rows(slice(start, stop))
        _evolve(state, runs, layers, ev, start)
        bits.append(state.measure_at(ev.meas_u))
    return np.concatenate(bits) ^ events.flips


def sample_counts(circuit: Circuit, spec: BackendSpec, shots: int, seed,
                  params: NoiseParams | None = None) -> dict[str, int]:
    """Measure the circuit `shots` times in the Z basis.

    One generator is made from the seed per call. Without noise the circuit
    is simulated once and its exact final distribution sampled. With noise
    every event of every shot is drawn from it up front (`draw_events`),
    then each shot runs its own trajectory with its events (`sample_bits`).
    Each shot's basis state is picked by its measurement uniform and its
    bits XORed with its readout flips.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    if params is None or not params.enabled:
        return spec.run(circuit).sample(shots, np.random.default_rng(root))
    return bit_counts(sample_bits(circuit, spec, params, shots, [root]))
