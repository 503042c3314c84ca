"""The three `qsopt train` workloads and the generator of their inputs.

A workload is a fixed run shape (qubits, gate budget, episodes, backend,
shots, noise, agent batch). The workload seed picks everything else: it
is the config `seed` and it seeds the initial circuits, one per episode.
Every initial circuit has the same structure (one RX per qubit, then a
CZ entangling layer) and differs only in its angles, so work per step is
comparable across seeds while the trajectories differ.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qsopt.circuit import Circuit, emit_file


@dataclass(frozen=True)
class Workload:
    name: str
    episodes: int
    env: dict
    agent: dict
    noise: dict | None
    cz_pairs: str  # "chain": every adjacent pair; "brick": pairs (0,1), (2,3), ...

    @property
    def n_qubits(self) -> int:
        return self.env["n_qubits"]

    @property
    def steps(self) -> int:
        return self.episodes * self.env["max_steps_per_episode"]

    def initial_circuit(self, rng: np.random.Generator) -> Circuit:
        n = self.n_qubits
        c = Circuit(n)
        for q in range(n):
            c = c.rx(q, float(rng.uniform(0.0, 2.0 * math.pi)))
        left = range(0, n - 1, 2) if self.cz_pairs == "brick" else range(n - 1)
        for q in left:
            c = c.cz(q, q + 1)
        return c

    def config(self, seed: int) -> dict:
        cfg = {
            "episodes": self.episodes,
            "seed": seed,
            "output_dir": "out",
            "initial_circuits": [f"initial_{e}.qc" for e in range(self.episodes)],
            "env": dict(self.env),
            "agent": dict(self.agent),
        }
        if self.noise is not None:
            cfg["noise"] = dict(self.noise)
        return cfg

    def sizes(self) -> dict:
        """Input sizes recorded with every result."""
        return {"episodes": self.episodes, "steps": self.steps,
                "n_qubits": self.n_qubits, "max_gates": self.env["max_gates"],
                "backend": self.env["backend"], "shots": self.env["shots"],
                "chi_max": self.env.get("chi_max"),
                "batch_size": self.agent["batch_size"],
                "noise": self.noise is not None}

    def write_inputs(self, seed: int, run_dir: Path) -> None:
        """Write the run config `run.json`, its initial circuits, and
        `setup.json`, the same run cut to one step."""
        run_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        for e in range(self.episodes):
            emit_file(self.initial_circuit(rng), run_dir / f"initial_{e}.qc")
        cfg = self.config(seed)
        (run_dir / "run.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        # the same run cut to one step: identical set-up, almost no loop
        cfg.update(episodes=1, output_dir="setup_out",
                   initial_circuits=cfg["initial_circuits"][:1])
        cfg["env"]["max_steps_per_episode"] = 1
        (run_dir / "setup.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-exact",
        episodes=6,
        env={"n_qubits": 5, "max_gates": 30, "max_steps_per_episode": 30,
             "shots": 0, "backend": "statevector"},
        agent={"batch_size": 128},
        noise=None,
        cz_pairs="chain",
    ),
    Workload(
        name="train-noisy",
        episodes=4,
        env={"n_qubits": 4, "max_gates": 16, "max_steps_per_episode": 16,
             "shots": 32, "backend": "statevector"},
        agent={"batch_size": 32},
        noise={"enabled": True},  # default NoiseParams
        cz_pairs="chain",
    ),
    Workload(
        name="train-wide-mps",
        episodes=3,
        env={"n_qubits": 16, "max_gates": 32, "max_steps_per_episode": 16,
             "shots": 256, "backend": "mps", "chi_max": 16, "trunc_tol": 1e-10},
        agent={"batch_size": 32},
        noise=None,
        cz_pairs="brick",
    ),
)}
