"""Correctness gate for the outputs of one `qsopt train` run.

Every check returns a list of failure messages; an empty list passes.
The expected columns are the documented `episodes.csv`/`steps.csv`
layout, written out here so the gate does not follow the code it checks.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qsopt import circuit as circ
from qsopt import metrics, mps, statevector
from qsopt.backend import BackendSpec

EPISODE_FIELDS = ["episode", "return", "steps", "final_qfi", "final_entropy",
                  "final_depth", "final_gates", "epsilon", "lr", "threshold",
                  "loss", "wall_time_s"]
STEP_FIELDS = ["episode", "step", "action", "action_name", "reward", "invalid",
               "injected", "qfi", "entropy", "depth", "gates", "epsilon"]
# dense and unbounded-chi MPS agree to rounding
EXACT_TOL = 1e-9
# summary.txt prints four decimals
SUMMARY_TOL = 5e-5 + 1e-12


@dataclass
class Outputs:
    episode_fields: list[str]
    episodes: list[dict]
    step_fields: list[str]
    steps: list[dict]
    final_circuit: str
    summary: str

    def loop_seconds(self) -> float:
        """Wall time of the episode loop: the sum of per-episode wall times."""
        return sum(float(r["wall_time_s"]) for r in self.episodes)

    def digest(self) -> str:
        """Hash of everything the run writes except wall-clock columns."""
        h = hashlib.sha256()
        for row in self.episodes:
            h.update(repr([row[k] for k in self.episode_fields
                           if k != "wall_time_s"]).encode())
        for row in self.steps:
            h.update(repr([row[k] for k in self.step_fields]).encode())
        h.update(self.final_circuit.encode())
        return h.hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def read_outputs(out_dir: Path) -> Outputs:
    ef, episodes = _read_csv(out_dir / "episodes.csv")
    sf, steps = _read_csv(out_dir / "steps.csv")
    return Outputs(ef, episodes, sf, steps,
                   (out_dir / "final_circuit.qc").read_text(encoding="utf-8"),
                   (out_dir / "summary.txt").read_text(encoding="utf-8"))


def _in_unit(value: str) -> bool:
    x = float(value)
    return 0.0 <= x <= 1.0


def check_tables(wl, out: Outputs) -> list[str]:
    """Columns, row counts, value ranges and where the learner ran."""
    fails = []
    if out.episode_fields != EPISODE_FIELDS:
        fails.append(f"episodes.csv columns {out.episode_fields}")
    if out.step_fields != STEP_FIELDS:
        fails.append(f"steps.csv columns {out.step_fields}")
    if fails:
        return fails
    per_episode = wl.env["max_steps_per_episode"]
    if len(out.episodes) != wl.episodes:
        fails.append(f"{len(out.episodes)} episode rows, expected {wl.episodes}")
    if len(out.steps) != wl.steps:
        fails.append(f"{len(out.steps)} step rows, expected {wl.steps}")
    batch = wl.agent["batch_size"]
    for row in out.episodes:
        e = int(row["episode"])
        if int(row["steps"]) != per_episode:
            fails.append(f"episode {e} ran {row['steps']} steps")
        if not (_in_unit(row["final_qfi"]) and _in_unit(row["final_entropy"])):
            fails.append(f"episode {e} qfi/entropy outside [0, 1]")
        # the learner starts once replay holds batch_size transitions
        learner_ran = (e + 1) * per_episode >= batch
        if learner_ran != (row["loss"] != ""):
            fails.append(f"episode {e} loss {row['loss']!r}, learner ran: {learner_ran}")
        elif learner_ran and not math.isfinite(float(row["loss"])):
            fails.append(f"episode {e} loss {row['loss']} not finite")
    bad = [r for r in out.steps if not (_in_unit(r["qfi"]) and _in_unit(r["entropy"]))]
    if bad:
        fails.append(f"{len(bad)} steps with qfi/entropy outside [0, 1]")
    return fails


def _summary_best(summary: str) -> dict[str, float]:
    """The `final` column of the initial-vs-final table in summary.txt."""
    best = {}
    for line in summary.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in ("qfi", "entropy", "depth", "gates"):
            best[parts[0]] = float(parts[2])
    return best


def two_site_updates(c: circ.Circuit) -> int:
    """SVD updates an MPS spends on the circuit, routing SWAPs included."""
    return sum(2 * abs(g.qubits[0] - g.qubits[1]) - 1
               for g in c.gates if g.kind.n_qubits == 2)


def check_final_circuit(wl, out: Outputs) -> list[str]:
    """Re-simulate the best circuit and compare backends and reported metrics.

    With the statevector backend, an MPS whose bond cap never truncates
    must reproduce the dense state. On the MPS workload the capped MPS is
    compared to a dense run (cap raised): the total-variation distance may
    not exceed the bound the discarded weight W allows. Each of the N
    two-site updates turns the state by at most asin(sqrt(w_i)), so
    TV <= (pi/2) * sqrt(N * W).
    """
    c = circ.parse(out.final_circuit)
    n = c.n_qubits
    fails = []
    dense = statevector.run(c, max_qubits=n)
    if wl.env["backend"] == "statevector":
        exact = mps.run(c, chi_max=2 ** (n // 2), trunc_tol=0.0)
        overlap = abs(np.vdot(dense.amps, exact.to_dense()))
        if not abs(overlap - 1.0) <= EXACT_TOL:
            fails.append(f"unbounded-chi MPS overlap with dense {overlap!r}")
        spec = BackendSpec("statevector", dense_cap=n)
        state = dense
    else:
        chi = wl.env["chi_max"]
        capped = mps.run(c, chi_max=chi, trunc_tol=wl.env["trunc_tol"])
        p_mps = np.abs(capped.to_dense()) ** 2
        tv = 0.5 * float(np.sum(np.abs(dense.probabilities() - p_mps)))
        tol = min(1.0, 0.5 * math.pi * math.sqrt(
            two_site_updates(c) * capped.total_discarded)) + EXACT_TOL
        if not tv <= tol:
            fails.append(f"chi={chi} MPS vs dense TV {tv:.3e} over {tol:.3e} "
                         f"(discarded weight {capped.total_discarded:.3e})")
        spec = BackendSpec("mps", chi_max=chi)
        state = capped
    best = _summary_best(out.summary)
    recomputed = {"entropy": metrics.entropy_norm(state),
                  "depth": circ.depth(c), "gates": circ.gate_count(c)}
    if wl.env["shots"] == 0:  # exact QFI is deterministic
        recomputed["qfi"] = metrics.evaluate(c, spec, 0).qfi_norm
    for key, value in recomputed.items():
        if key not in best or not abs(best[key] - value) <= SUMMARY_TOL:
            fails.append(f"final circuit {key} {value!r} vs summary {best.get(key)!r}")
    return fails
