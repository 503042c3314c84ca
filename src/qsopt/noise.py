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
one generator; `sample_counts` makes one generator per call. Both
backends read the same event arrays, so they share one RNG layout and one
definition of the noise semantics: the dense statevector evolves the
shots together as the rows of a (shots, 2^n) array (split into batches
of at most BATCH_AMPLITUDES amplitudes), the MPS runs the shots one by
one. A disabled model draws the same arrays with every probability zero.
Each shot is read out by the backend's `measure_at` at its measurement
uniform and the flipped bits are counted by `bit_counts`, as in `sample`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .backend import BackendSpec
from .circuit import Circuit, moments
from .statevector import DenseState, bit_counts

_PAULI_NAMES = ("x", "y", "z")  # event codes 1, 2, 3; 0 is no event
# amplitudes one batch of dense trajectories holds (16 MiB of complex128);
# larger shot counts run in several batches with the same results
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
                shots: int, rng: np.random.Generator) -> NoiseEvents:
    """Draw the noise events of `shots` runs of `circuit` (scheduled into
    `layers` by `moments`) from `rng`, in this order: depolarizing hit,
    target qubit and Pauli per (shot, gate); reset, reset-outcome uniform
    and Z flip per (shot, moment, qubit); the measurement uniform per shot;
    readout flips per (shot, qubit)."""
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


def _on_rows(state, rows: np.ndarray, shots: int, op) -> None:
    """Run `op(state, index)` on the trajectories `rows` of a state that
    carries `shots` of them; `index` picks their per-shot event data. One
    trajectory: op gets the state and index 0. Every row of a dense batch:
    the state and `rows`. Some rows: a batch of copies of those rows,
    written back after."""
    if shots == 1:
        op(state, 0)
    elif len(rows) == shots:
        op(state, rows)
    else:
        sub = copy.copy(state)
        sub.amps = state.amps[rows]
        op(sub, rows)
        state.amps[rows] = sub.amps


def _evolve(state, circuit: Circuit, layers: list[list[int]], ev: NoiseEvents) -> None:
    """Run the circuit on `state` with the events of ev, one trajectory per
    shot of ev: the rows of a dense batch, or a single state for one shot.
    Inside a moment each gate is followed by its depolarizing Pauli; at
    the moment's end every qubit gets its reset, then its Z flip."""
    gate_hit = ev.pauli.any(axis=0)
    moment_hit = ev.reset.any(axis=0) | ev.phase.any(axis=0)
    for m, layer in enumerate(layers):
        for idx in layer:
            state.apply_gate(circuit.gates[idx])
            if not gate_hit[idx]:
                continue
            codes, targets = ev.pauli[:, idx], ev.target[:, idx]
            hit = np.flatnonzero(codes)
            for code, qubit in sorted(set(zip(codes[hit].tolist(), targets[hit].tolist()))):
                rows = hit[(codes[hit] == code) & (targets[hit] == qubit)]
                _on_rows(state, rows, ev.shots,
                         lambda s, _i: s.apply_pauli(_PAULI_NAMES[code - 1], qubit))
        for qubit in np.flatnonzero(moment_hit[m]).tolist():
            rows = np.flatnonzero(ev.reset[:, m, qubit])
            if len(rows):
                u = ev.reset_u[:, m, qubit]
                _on_rows(state, rows, ev.shots, lambda s, i: s.measure_reset0(qubit, u[i]))
            rows = np.flatnonzero(ev.phase[:, m, qubit])
            if len(rows):
                _on_rows(state, rows, ev.shots, lambda s, _i: s.apply_pauli("z", qubit))


def run_one_trajectory(circuit: Circuit, spec: BackendSpec, params: NoiseParams,
                       rng: np.random.Generator):
    """Simulate one noisy execution; returns the final (collapsed) state.
    Its events are one shot's worth of `draw_events` from rng."""
    layers = moments(circuit)
    events = draw_events(circuit, layers, params, 1, rng)
    state = spec.fresh(circuit.n_qubits)
    _evolve(state, circuit, layers, events)
    return state


def _measured_bits(circuit: Circuit, layers, spec: BackendSpec, ev: NoiseEvents) -> np.ndarray:
    """Readout bits, before readout flips, of the trajectories of ev."""
    if spec.kind == "statevector":
        state = DenseState(circuit.n_qubits, spec.dense_cap, batch=ev.shots)
    else:
        state = spec.fresh(circuit.n_qubits)
    _evolve(state, circuit, layers, ev)
    return state.measure_at(ev.meas_u)


def sample_counts(circuit: Circuit, spec: BackendSpec, shots: int, seed,
                  params: NoiseParams | None = None) -> dict[str, int]:
    """Measure the circuit `shots` times in the Z basis.

    One generator is made from the seed per call. Without noise the circuit
    is simulated once and its exact final distribution sampled. With noise
    every event of every shot is drawn from it up front (`draw_events`),
    then each shot runs its own trajectory with its events: on the dense
    statevector all shots advance together as the rows of one batch, on
    the MPS one after another. Each shot's basis state is picked by its
    measurement uniform and its bits XORed with its readout flips.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(root)
    if params is None or not params.enabled:
        return spec.run(circuit).sample(shots, rng)
    layers = moments(circuit)
    events = draw_events(circuit, layers, params, shots, rng)
    rows = max(1, BATCH_AMPLITUDES >> circuit.n_qubits) if spec.kind == "statevector" else 1
    bits = np.concatenate([
        _measured_bits(circuit, layers, spec, events.rows(slice(start, start + rows)))
        for start in range(0, shots, rows)])
    return bit_counts(bits ^ events.flips)
