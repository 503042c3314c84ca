"""Noise model: stochastic Pauli and reset insertions, run as one
trajectory per shot or as exact density rows.

Three channels, all defined as discrete events sampled per shot:

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
rows of a noisy layout to states by one rule for both backends: the
dense statevector evolves rows together as a (rows, 2^n) array, the MPS
as a stack of rows over one chain, and a state holds at most
BATCH_AMPLITUDES amplitudes or tensor entries (but at least one row).
Each event is one state op over the rows it hits
(`apply_paulis`, `reset_rows`, `flip_z`, written once in `QubitState`
for both backends), and the same `_evolve` loop drives every state. Each
shot is read out by the backend's `measure_at` at its measurement
uniform and the flipped bits are counted by `bit_counts`, as in
`sample`.

Each shot's outcome is a draw from the diagonal of the circuit's noisy
density matrix, the events averaged out (Nielsen & Chuang, ch. 8).
`density_probabilities` computes that distribution exactly, with no
event drawn: vec(rho) of each circuit is a dense row of 2n qubits, and
each channel a superoperator. A qubit's 1q gates and relaxation compose
into one 4x4 matrix, which acts through `apply_unitary` at the qubit's
next 2q gate (fused with it) or at the readout. A row holds 4^n
amplitudes where the circuit's trajectories hold 2^n per shot, so the
noisy QFI runs density rows where they hold no more amplitudes
(`density_rows`): on the dense backend, with 2^n <= shots and 2n within
the dense cap. Elsewhere, and on the MPS, it runs trajectories
(`sample_bits`), and `sample_counts`, which serves the Python API and the
noise demo, always does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from . import gates as G
from .backend import BackendSpec, require_real
from .circuit import Circuit, moments
from .statevector import bit_counts

# amplitudes, or MPS tensor entries at their largest bonds, one state's rows
# may hold (16 MiB of complex128); more rows run in several states with the
# same results
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

    def __post_init__(self):
        for name in ("p_meas", "p_1q", "p_2q"):
            p = require_real(name, getattr(self, name))
            if not 0.0 <= p <= 1.0:
                raise NoiseConfigError(f"{name}={p} outside [0, 1]")
        for name in ("t1_us", "t2_us", "dur_1q_us", "dur_2q_us"):
            v = require_real(name, getattr(self, name))
            if not v > 0.0:  # also rejects NaN
                raise NoiseConfigError(f"{name}={v} must be positive")
        if self.t2_us > 2.0 * self.t1_us:
            raise NoiseConfigError(f"t2={self.t2_us} exceeds 2*t1={2.0 * self.t1_us}; "
                                   "pure dephasing time would be negative")

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


def _event_probabilities(circuit: Circuit, layers: list[list[int]],
                         params: NoiseParams) -> tuple:
    """The probabilities of the model's events: a depolarizing Pauli per
    gate; a reset and a Z flip per (moment, qubit), those of the moment's
    longest gate; a readout flip per bit."""
    two = np.array([g.kind.n_qubits == 2 for g in circuit.gates], dtype=bool)
    p_gate = np.where(two, params.p_2q, params.p_1q)
    gate_us = np.where(two, params.dur_2q_us, params.dur_1q_us)
    duration = np.array([gate_us[layer].max() for layer in layers])
    p_amp = 1.0 - np.exp(-duration / params.t1_us)
    # T_phi = inf (T2 = 2*T1) gives exp(-0) = 1: no dephasing
    p_phase = 1.0 - np.exp(-duration / params.t_phi_us)
    return p_gate, p_amp, p_phase, params.p_meas


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
    p_gate, p_amp, p_phase, p_meas = _event_probabilities(circuit, layers, params)
    first = np.array([g.qubits[0] for g in circuit.gates], dtype=int)
    last = np.array([g.qubits[-1] for g in circuit.gates], dtype=int)

    def draw(rng):
        hit = rng.random((shots, len(p_gate))) < p_gate
        target = np.where(rng.integers(2, size=hit.shape) == 1, last, first)
        pauli = np.where(hit, 1 + rng.integers(3, size=hit.shape), 0)
        grid = (shots, len(layers), n)
        reset = rng.random(grid) < p_amp[:, None]
        reset_u = rng.random(grid)
        phase = rng.random(grid) < p_phase[:, None]
        meas_u = rng.random(shots)
        flips = rng.random((shots, n)) < p_meas
        return NoiseEvents(pauli, target, reset, reset_u, phase, meas_u, flips)

    parts = [draw(rng) for rng in rngs]
    return parts[0] if len(parts) == 1 else NoiseEvents(
        *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(NoiseEvents)))


def _evolve(state, runs, layers: list[list[int]], ev: NoiseEvents, start: int = 0) -> None:
    """Run a circuit on `state` with the events of ev, one trajectory per
    shot of ev: the rows of a batch, or a single state for one shot.
    The state holds rows start.. of a batch layout, and runs[idx] lays gate
    idx over that layout (`QubitState.apply_runs`). Inside a moment each
    gate is followed by its depolarizing Paulis, all rows in one op. At the
    moment's end each qubit with resets gets one reset op, then all Z flips
    of the moment one op: a sign flip changes no branch weight and commutes
    with the reset's rescale, so this equals a reset then a Z flip qubit by
    qubit."""
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
    stop, state) with rows start..stop-1 in state, each from
    `spec.fresh(n_qubits, batch)`. A state holds max(1, BATCH_AMPLITUDES
    // s) rows, s the largest size of one row: 2^n on the dense
    statevector, on the MPS the sum of 2 d[k-1] d[k] over its sites, with
    bonds d[k] = min(2^k, 2^(n-k), chi_max). Splits fall at row
    boundaries, even inside a run or a circuit's shots."""
    if spec.kind == "statevector":
        size = 2 ** n_qubits
    else:
        bonds = [min(2 ** k, 2 ** (n_qubits - k), spec.chi_max) for k in range(n_qubits + 1)]
        size = sum(2 * a * b for a, b in zip(bonds, bonds[1:]))
    step = max(1, BATCH_AMPLITUDES // size)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        yield start, stop, spec.fresh(n_qubits, batch=stop - start)


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


def density_rows(spec: BackendSpec, n_qubits: int, shots: int) -> bool:
    """Whether `shots` noisy shots of each of several n-qubit circuits run
    as one density row per circuit (`density_probabilities`) rather than
    one trajectory per shot: on the dense backend, when a row's 4^n
    amplitudes are no more than the circuit's trajectories hold, shots
    times 2^n (so 2^n <= shots), and its 2n qubits fit the dense cap."""
    return (spec.kind == "statevector" and 2 ** n_qubits <= shots
            and 2 * n_qubits <= spec.dense_cap)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices, or of two stacks of them matrix by
    matrix, without np.kron's general-shape overhead."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    size = a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (size, size))


def _superoperator(u: np.ndarray) -> np.ndarray:
    """rho -> u rho u^dagger on vec(rho), whose ket bits come first."""
    return _kron(u, u.conj())


# the mean of P rho P over the 3 Paulis on the qubit of a 1q gate, and over
# the 6 (qubit, Pauli) pairs of a 2q gate, as superoperators on the gate's
# ket qubits then their bra qubits
_DEPOLARIZED = {
    1: sum(_superoperator(p) for p in (G.X, G.Y, G.Z)) / 3.0,
    2: sum(_superoperator(_kron(p, G.I2)) + _superoperator(_kron(G.I2, p))
           for p in (G.X, G.Y, G.Z)) / 6.0,
}
_IDENTITY = np.eye(4)  # a qubit with nothing pending


def _relaxation(p_amp: float, p_phase: float) -> np.ndarray:
    """A moment's reset (p_amp) then Z flip (p_phase) on one qubit, on its
    (ket, bra) bits: |1><1| keeps 1 - p_amp of its weight, the rest going
    to |0><0|, and the coherences keep (1 - p_amp)(1 - 2 p_phase)."""
    keep = 1.0 - p_amp
    coherence = keep * (1.0 - 2.0 * p_phase)
    return np.array([[1.0, 0.0, 0.0, p_amp],
                     [0.0, coherence, 0.0, 0.0],
                     [0.0, 0.0, coherence, 0.0],
                     [0.0, 0.0, 0.0, keep]])


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperators a and b, each on one qubit's (ket, bra) bits, or
    stacks of them, as one on (ket a, ket b, bra a, bra b)."""
    a = a.reshape(a.shape[:-2] + (2, 2, 2, 2))
    b = b.reshape(b.shape[:-2] + (2, 2, 2, 2))
    out = a[..., :, None, :, None, :, None, :, None] * b[..., None, :, None, :, None, :, None, :]
    return out.reshape(out.shape[:-8] + (16, 16))


def _gate_channel(runs, rows: int, after: np.ndarray) -> np.ndarray:
    """One gate, laid over `rows` rows by `runs`, followed by the channel
    `after`: one superoperator when one run covers every row, else a
    (rows, d, d) stack with one per row. The runs of a layout
    (`whole_runs`, `metrics._row_runs`) cover every row."""
    if len(runs) == 1:
        return after @ _superoperator(G.matrix(runs[0][2]))
    size = 2 ** len(runs[0][2].qubits)
    unitaries = np.empty((rows, size, size), dtype=complex)
    for lo, hi, gate in runs:
        unitaries[lo:hi] = G.matrix(gate)
    return after @ _superoperator(unitaries)


def density_probabilities(circuit: Circuit, spec: BackendSpec, params: NoiseParams,
                          runs, rows: int) -> np.ndarray:
    """The exact readout distributions, readout flips applied, of the
    `rows` circuits that `runs` lays over the rows of a layout (see
    `QubitState.apply_runs`; `whole_runs` for one circuit): a (rows, 2^n)
    array in basis order. Each row is the distribution of one shot's bits
    under the events `draw_events` draws.

    The rows hold vec(rho), one per circuit, in one dense
    `spec.fresh(2n, batch=rows)`: qubit q is rho's ket bit and q + n its
    bra bit, so |0..0> is |0..0><0..0|. Every channel is a superoperator
    on a qubit's (ket, bra) bits: a gate with its depolarizing channel,
    and a moment's reset and Z flip. Those of one qubit compose into one
    4x4 matrix, which waits until a 2q gate on the qubit or the readout:
    it acts on vec(rho) through `apply_unitary` only then, with the 2q
    gate as one 16x16 superoperator, or as a stack of one per row once a
    shifted rotation has acted. Channels on other qubits commute with it,
    so the order they act in does not change rho. The readout flips act
    on the diagonal as a 2x2 stochastic matrix per bit; rounding
    negatives are clipped to 0."""
    n = circuit.n_qubits
    layers = moments(circuit)
    p_gate, p_amp, p_phase, p_meas = _event_probabilities(circuit, layers, params)
    # the depolarizing channel after a gate of k qubits; p_gate depends on k alone
    depolarizing = {k: (1.0 - p) * np.eye(4 ** k) + p * _DEPOLARIZED[k]
                    for k, p in {len(g.qubits): p for g, p in zip(circuit.gates, p_gate)}.items()}
    pending = [_IDENTITY] * n
    state = spec.fresh(2 * n, batch=rows)
    for m, layer in enumerate(layers):
        for idx in layer:
            qubits = circuit.gates[idx].qubits
            channel = _gate_channel(runs[idx], rows, depolarizing[len(qubits)])
            if len(qubits) == 1:
                pending[qubits[0]] = channel @ pending[qubits[0]]
                continue
            a, b = qubits
            state.apply_unitary(channel @ _pair(pending[a], pending[b]), a, b, a + n, b + n)
            pending[a] = pending[b] = _IDENTITY
        relax = _relaxation(p_amp[m], p_phase[m])
        pending = [relax @ waiting for waiting in pending]
    for q, waiting in enumerate(pending):
        state.apply_unitary(waiting, q, q + n)
    diagonal = state.amps.reshape(rows, 2 ** n, 2 ** n).diagonal(axis1=1, axis2=2).real
    flip = np.array([[1.0 - p_meas, p_meas], [p_meas, 1.0 - p_meas]])
    return np.maximum(diagonal @ reduce(_kron, [flip] * n).T, 0.0)


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
    if params is None:
        return spec.run(circuit).sample(shots, np.random.default_rng(root))
    return bit_counts(sample_bits(circuit, spec, params, shots, [root]))
