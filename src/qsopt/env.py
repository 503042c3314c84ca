"""Markov decision process over circuit edits.

The agent sees a fixed-shape observation (a one-hot moment grid plus an
auxiliary feature vector) and picks from a discrete catalog of edits:
appending gates, removing or reordering the most recent gate on a qubit,
a cancellation pass, and two entanglement-restoring composites. Step
reward is the difference of the multi-objective value (vs. the episode's
initial circuit) between consecutive steps, so valid-action episode
returns telescope to the episode-level objective. Invalid actions leave
the circuit unchanged and cost a flat -0.1.

Whenever an edit leaves the aggregate entropy below the adaptive
threshold, an entanglement injection (H plus CX across the weakest bond)
fires automatically before metrics are computed.

The env keeps the rows of its current circuit's evaluation
(`metrics.Rows`: the base row, plus the QFI's shifted rows when the QFI
is noiseless) from one step to the next. A reset makes them, and each
kept edit, then its injection, brings them on with `Rows.update`, which
alone decides what is rerun: an edit that only appends gates, as every
`add_*`, `inject`, `boost` and injection does, and a `cancel_pass` that
cancels nothing, runs only its new gates. The entropies that decide an
injection are read from the same rows, so no step simulates the circuit
on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .backend import BackendSpec, require_int, require_real
from .circuit import (TWO_PI, Circuit, Gate, GateKind, cancel_pairs, moments,
                      remove_gate, replace_gate, swap_adjacent)
from .noise import NoiseParams

INVALID_PENALTY = -0.1
# Bond entropies that are equal in exact arithmetic can differ in their
# last bits, so the weakest bond is the first one within this of the
# minimum; otherwise rounding would decide where an injection lands.
INJECTION_TIE_TOL = 1e-12

# grid channel layout: one row per qubit, one column per moment
CH_EMPTY, CH_H, CH_RX, CH_RZ, CH_CX_CTRL, CH_CX_TGT, CH_CZ, CH_SWAP, CH_ANGLE = range(9)
N_CHANNELS = 9
# the channel a gate sets on each of its qubits, in listed order; a
# rotation also writes its angle, as a fraction of a turn, to CH_ANGLE
_GATE_CHANNELS = {GateKind.H: (CH_H,), GateKind.RX: (CH_RX,), GateKind.RZ: (CH_RZ,),
                 GateKind.CX: (CH_CX_CTRL, CH_CX_TGT), GateKind.CZ: (CH_CZ, CH_CZ),
                 GateKind.SWAP: (CH_SWAP, CH_SWAP)}


class EnvError(Exception):
    """Protocol misuse: step before reset, out-of-range action, bad initial."""


@dataclass(frozen=True)
class EnvConfig:
    n_qubits: int
    max_gates: int
    max_steps_per_episode: int = 50
    entanglement_threshold: float = 0.7
    shots: int = 5000
    weights: metrics.RewardWeights = metrics.RewardWeights()
    angle_catalog: tuple[float, ...] = (math.pi / 4.0, math.pi / 2.0)
    backend: BackendSpec = BackendSpec()
    noise: NoiseParams | None = None

    def __post_init__(self):
        for name in ("n_qubits", "max_gates", "max_steps_per_episode", "shots"):
            require_int(name, getattr(self, name))
        if self.n_qubits < 2:
            raise ValueError(f"need at least 2 qubits, got {self.n_qubits}")
        if self.max_gates < 1:
            raise ValueError("max_gates must be >= 1")
        if self.max_steps_per_episode < 1:
            raise ValueError("max_steps_per_episode must be >= 1")
        if not 0.0 <= require_real("entanglement_threshold", self.entanglement_threshold) <= 1.0:
            raise ValueError("entanglement_threshold must lie in [0, 1]")
        metrics.check_qfi_mode(self.shots, self.backend, self.noise)
        if not self.angle_catalog:
            raise ValueError("angle_catalog must not be empty")
        if not all(math.isfinite(a) for a in self.angle_catalog):
            raise ValueError(f"angle_catalog must hold finite angles, got {self.angle_catalog}")

    @property
    def grid_depth(self) -> int:
        # depth can never exceed the gate budget
        return self.max_gates


@dataclass(frozen=True)
class Action:
    name: str
    qubit: int | None = None
    pair: tuple[int, int] | None = None
    angle: float | None = None
    entangling: bool = False

    def label(self) -> str:
        if self.pair is not None:
            return f"{self.name}(q{self.pair[0]},q{self.pair[1]})"
        if self.angle is not None:
            return f"{self.name}(q{self.qubit},{self.angle:.4f})"
        if self.qubit is not None:
            return f"{self.name}(q{self.qubit})"
        return self.name


def action_catalog(cfg: EnvConfig) -> tuple[Action, ...]:
    """Deterministic enumeration; id 0 is always ADD_H on qubit 0."""
    n = cfg.n_qubits
    acts: list[Action] = []
    acts += [Action("add_h", qubit=q) for q in range(n)]
    for name in ("add_rx", "add_rz"):
        acts += [Action(name, qubit=q, angle=a)
                 for q in range(n) for a in cfg.angle_catalog]
    for name in ("add_cx", "add_cz", "add_swap"):
        acts += [Action(name, pair=(q, q + 1), entangling=True) for q in range(n - 1)]
    for name in ("remove_last", "swap_last_pair", "replace_last"):
        acts += [Action(name, qubit=q) for q in range(n)]
    acts.append(Action("cancel_pass"))
    acts.append(Action("inject", entangling=True))
    acts.append(Action("boost", entangling=True))
    return tuple(acts)


@dataclass(frozen=True)
class Observation:
    grid: np.ndarray  # (n_qubits, grid_depth, N_CHANNELS)
    aux: np.ndarray   # bond entropies (Bell units) + qfi + depth + gates


def encode(circuit: Circuit, record: metrics.MetricsRecord, cfg: EnvConfig) -> Observation:
    grid = np.zeros((cfg.n_qubits, cfg.grid_depth, N_CHANNELS))
    grid[:, :, CH_EMPTY] = 1.0
    for m, layer in enumerate(moments(circuit)):
        for idx in layer:
            g = circuit.gates[idx]
            for q, ch in zip(g.qubits, _GATE_CHANNELS[g.kind]):
                grid[q, m, CH_EMPTY] = 0.0
                grid[q, m, ch] = 1.0
            if g.kind.has_angle:
                grid[g.qubits[0], m, CH_ANGLE] = (g.angle % TWO_PI) / TWO_PI
    bonds = metrics.bell_unit_entropies(record.bond_entropies)
    aux = np.array(bonds + [record.qfi_norm,
                            record.depth / cfg.grid_depth,
                            record.gate_count / cfg.max_gates])
    return Observation(grid, aux)


def aux_size(cfg: EnvConfig) -> int:
    return (cfg.n_qubits - 1) + 3


def _last_gates(circuit: Circuit) -> tuple[dict[int, int], dict[int, int]]:
    """Per qubit, the index of the last gate that touches it and of the
    last one-qubit gate on it, from one pass over the circuit; a qubit
    that has none is absent."""
    touching, one_qubit = {}, {}
    for i, g in enumerate(circuit.gates):
        for q in g.qubits:
            touching[q] = i
        if g.kind.n_qubits == 1:
            one_qubit[g.qubits[0]] = i
    return touching, one_qubit


class CircuitEnv:
    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self.catalog = action_catalog(cfg)
        self.threshold = cfg.entanglement_threshold
        self._circuit: Circuit | None = None
        self._baseline: metrics.MetricsRecord | None = None
        self._record: metrics.MetricsRecord | None = None
        self._seeds: np.random.SeedSequence | None = None
        self._steps = 0
        self._objective = 0.0
        self._episode_entropies: list[float] = []
        self._rows: metrics.Rows | None = None
        # evaluations (resets and kept edits), and those that only extended
        # the previous rows
        self.evaluations = 0
        self.extended_evaluations = 0

    # --- lifecycle --------------------------------------------------------

    def reset(self, initial: Circuit, seed=0) -> Observation:
        if initial.n_qubits != self.cfg.n_qubits:
            raise EnvError(f"initial circuit has {initial.n_qubits} qubits, "
                           f"config expects {self.cfg.n_qubits}")
        if len(initial) > self.cfg.max_gates:
            raise EnvError(f"initial circuit has {len(initial)} gates, "
                           f"budget is {self.cfg.max_gates}")
        self._seeds = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self._circuit = initial
        self._rows = metrics.Rows(initial, self.cfg.backend, shifted=self.cfg.noise is None)
        self._baseline = self._evaluate(initial)
        self._record = self._baseline
        self._steps = 0
        self._objective = 0.0
        self._episode_entropies = [self._baseline.entropy_norm]
        return encode(initial, self._record, self.cfg)

    @property
    def circuit(self) -> Circuit:
        self._require_reset()
        return self._circuit

    @property
    def baseline_record(self) -> metrics.MetricsRecord:
        self._require_reset()
        return self._baseline

    @property
    def record(self) -> metrics.MetricsRecord:
        self._require_reset()
        return self._record

    @property
    def objective(self) -> float:
        """The weighted objective of the current circuit against the
        baseline: `info["objective"]` after a step, 0.0 after a reset."""
        self._require_reset()
        return self._objective

    def _require_reset(self):
        if self._circuit is None:
            raise EnvError("environment used before reset()")

    def _evaluate(self, circuit: Circuit, extended: bool = False) -> metrics.MetricsRecord:
        """The record of the rows' circuit, its QFI seeded by the next
        spawned child."""
        self.evaluations += 1
        self.extended_evaluations += extended
        return metrics.evaluate(circuit, self.cfg.backend, self.cfg.shots,
                                self.cfg.noise, self._seeds.spawn(1)[0], self._rows)

    # --- actions ----------------------------------------------------------

    def _budget_left(self, circuit: Circuit) -> int:
        return self.cfg.max_gates - len(circuit)

    def _below_threshold_bonds(self) -> list[int]:
        bonds = metrics.bell_unit_entropies(self._record.bond_entropies)
        return [k for k, s in enumerate(bonds, start=1) if s < self.threshold]

    def _inject(self, circuit: Circuit, record: metrics.MetricsRecord) -> Circuit:
        s = np.asarray(record.bond_entropies)
        bond = 1 + int(np.flatnonzero(s <= s.min() + INJECTION_TIE_TOL)[0])
        left = bond - 1
        return circuit.h(left).cx(left, bond)

    def _is_valid(self, circuit: Circuit, action: Action, last) -> bool:
        """Whether `action` can edit `circuit` now; the one statement of the
        rules, so the mask needs no edited circuit. `last` is the circuit's
        `_last_gates`."""
        touching, one_qubit = last
        if action.name.startswith("add_"):
            return self._budget_left(circuit) >= 1
        if action.name == "remove_last":
            return action.qubit in touching
        if action.name == "swap_last_pair":
            i = touching.get(action.qubit)
            return (i is not None and i > 0
                    and not circuit.gates[i].support & circuit.gates[i - 1].support)
        if action.name == "replace_last":
            i = one_qubit.get(action.qubit)
            return i is not None and circuit.gates[i].kind is not GateKind.H
        if action.name == "cancel_pass":
            return True
        if action.name == "inject":
            return self._budget_left(circuit) >= 2
        if action.name == "boost":
            bonds = self._below_threshold_bonds()
            return bool(bonds) and self._budget_left(circuit) >= len(bonds)
        raise EnvError(f"unknown action {action.name}")

    def apply_action(self, circuit: Circuit, action: Action) -> Circuit | None:
        """The edit an action denotes, or None when it is invalid now."""
        touching, one_qubit = last = _last_gates(circuit)
        if not self._is_valid(circuit, action, last):
            return None
        if action.name.startswith("add_"):
            kind = GateKind[action.name[4:].upper()]
            qubits = action.pair if action.pair is not None else (action.qubit,)
            return circuit.append(Gate(kind, tuple(qubits), action.angle))
        if action.name == "remove_last":
            return remove_gate(circuit, touching[action.qubit])
        if action.name == "swap_last_pair":
            return swap_adjacent(circuit, touching[action.qubit] - 1)
        if action.name == "replace_last":
            return replace_gate(circuit, one_qubit[action.qubit],
                                Gate(GateKind.H, (action.qubit,)))
        if action.name == "cancel_pass":
            return cancel_pairs(circuit)
        if action.name == "inject":
            return self._inject(circuit, self._record)
        out = circuit  # boost
        for k in self._below_threshold_bonds():
            out = out.cz(k - 1, k)
        return out

    def valid_mask(self) -> np.ndarray:
        """Which catalog actions are valid now, from one pass over the
        circuit (`_last_gates`)."""
        self._require_reset()
        last = _last_gates(self._circuit)
        return np.array([self._is_valid(self._circuit, a, last) for a in self.catalog],
                        dtype=bool)

    def step(self, action_id: int):
        self._require_reset()
        if not 0 <= action_id < len(self.catalog):
            raise EnvError(f"action id {action_id} out of range [0, {len(self.catalog)})")
        action = self.catalog[action_id]
        edited = self.apply_action(self._circuit, action)
        injected = False
        if edited is None:
            reward = INVALID_PENALTY
        else:
            extended = self._rows.update(edited)
            base = self._rows.record()
            if (base.entropy_norm < self.threshold
                    and self._budget_left(edited) >= 2):
                # trigger targets the weakest bond of the just-edited circuit,
                # which is not kept: its QFI is skipped, but not its seed, so
                # every later evaluation draws the same seed either way
                self._seeds.spawn(1)
                edited = self._inject(edited, base)
                self._rows.update(edited)
                injected = True
            record = self._evaluate(edited, extended)
            value = metrics.reward(record.deltas_vs(self._baseline), self.cfg.weights)
            reward = value - self._objective
            self._objective = value
            self._circuit = edited
            self._record = record
        self._steps += 1
        done = self._steps >= self.cfg.max_steps_per_episode
        self._episode_entropies.append(self._record.entropy_norm)
        info = {
            "record": self._record,
            "mask": self.valid_mask(),
            "invalid": edited is None,
            "injected": injected,
            "objective": self._objective,
            "action": action,
        }
        return encode(self._circuit, self._record, self.cfg), reward, done, info

    def adjust_threshold(self) -> float:
        """Per-episode update: move 10% toward the episode's mean entropy,
        clamped into [0.5, 0.95]."""
        self._require_reset()
        mean_entropy = float(np.mean(self._episode_entropies))
        self.threshold = float(np.clip(0.9 * self.threshold + 0.1 * mean_entropy, 0.5, 0.95))
        return self.threshold
