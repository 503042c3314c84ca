"""Learning oracle: does the `test_09` training run improve its returns,
judged over seeds and BLAS thread counts rather than on one seed?

    python3 scripts/learning_oracle.py

Run it from anywhere inside the repository. It trains the config of
`tests/test_acceptance.py::test_09` (5 qubits, exact QFI on the
statevector, a GHZ start, 50 episodes) on seeds 0-9, each under 1 and
under 2 BLAS threads, one run at a time in its own process. Per run it
prints the mean return of the first and of the last 10 episodes and the
best record's QFI and entropy; per thread count, the number of seeds
whose returns improve (last 10 above first 10). A run takes about 36 s
on one core. The exit code is 1 if a run fails, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
THREADS = (1, 2)

# the test_09 run; prints its figures as one JSON line
RUN = """
import json, sys
import numpy as np
from qsopt.backend import BackendSpec
from qsopt.circuit import ghz
from qsopt.ddqn import AgentConfig, train
from qsopt.env import EnvConfig

env_cfg = EnvConfig(n_qubits=5, max_gates=30, max_steps_per_episode=30, shots=0,
                    backend=BackendSpec(kind="statevector"))
result = train(AgentConfig(), env_cfg, [ghz(5)], episodes=50, seed=int(sys.argv[1]))
returns = [row["return"] for row in result.episode_rows]
print(json.dumps({"first10": float(np.mean(returns[:10])),
                  "last10": float(np.mean(returns[-10:])),
                  "qfi": result.best_record.qfi_norm,
                  "entropy": result.best_record.entropy_norm}))
"""


def run(seed: int, threads: int) -> dict | None:
    """The figures of one run, or None when it fails."""
    cap = str(threads)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS=cap, OPENBLAS_NUM_THREADS=cap, MKL_NUM_THREADS=cap)
    proc = subprocess.run([sys.executable, "-c", RUN, str(seed)], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"seed {seed}, {threads} thread(s): failed, {proc.stderr.strip()}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for threads in THREADS:
        improved = 0
        for seed in SEEDS:
            fig = run(seed, threads)
            if fig is None:
                ok = False
                continue
            up = fig["last10"] > fig["first10"]
            improved += up
            print(f"threads {threads} seed {seed}: first10 {fig['first10']:+.4f} "
                  f"last10 {fig['last10']:+.4f} {'improves' if up else 'does not improve'}; "
                  f"best qfi {fig['qfi']:.4f} entropy {fig['entropy']:.4f}", flush=True)
        print(f"threads {threads}: {improved} of {len(SEEDS)} seeds improve", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
