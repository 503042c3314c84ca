"""Equal-behaviour oracle: `qsopt train` outputs of the working tree against
those of a git revision, byte for byte.

    python3 scripts/byte_oracle.py REV

Run it from anywhere inside the repository. REV is exported with
`git archive` into a temporary directory. For seeds 1-3, the inputs of
each benchmark workload (`bench/workloads.py`, imported read-only) and of
one dense noiseless sampled config, the `train-noisy` shape without noise,
are written once per tree. `qsopt train` then runs on both trees, one run
at a time, with one BLAS thread and PYTHONHASHSEED=0. Five outputs are
compared: steps.csv, episodes.csv without its wall_time_s column,
final_circuit.qc, checkpoint.bin and summary.txt. One line is printed per
file; the exit code is 1 if any file differs or a run fails, else 0.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
OUTPUTS = ("steps.csv", "episodes.csv", "final_circuit.qc", "checkpoint.bin", "summary.txt")


def configs() -> dict:
    """The workloads of `bench/workloads.py`, and the `train-noisy` shape
    without noise, whose QFI samples the statevector's exact distributions."""
    sys.path.insert(0, str(ROOT / "bench"))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    out = dict(WORKLOADS)
    out["dense-sampled"] = replace(WORKLOADS["train-noisy"], name="dense-sampled", noise=None)
    return out


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def train(src: Path, config: Path) -> str | None:
    """Run `qsopt train` from the sources at `src`; None on success, else
    the reason it failed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", QSOPT_THREADS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "qsopt.cli", "train", "--config", str(config)],
                          env=env, capture_output=True, text=True)
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()}"


def contents(path: Path) -> bytes | None:
    """The bytes compared for an output file; episodes.csv without its
    wall_time_s column. None when the file is missing."""
    if not path.is_file():
        return None
    if path.name != "episodes.csv":
        return path.read_bytes()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_s")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [cell for i, cell in enumerate(row) if i != drop] for row in rows)
    return out.getvalue().encode()


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    same = True
    with tempfile.TemporaryDirectory(prefix="byte-oracle-") as tmp:
        tmp = Path(tmp)
        trees = {"rev": tmp / "rev", "work": ROOT}
        trees["rev"].mkdir()
        export(rev, trees["rev"])
        for name, workload in configs().items():
            for seed in SEEDS:
                runs = {}
                for tree, root in trees.items():
                    run_dir = tmp / tree / "runs" / f"{name}-seed{seed}"
                    workload.write_inputs(seed, run_dir)
                    failed = train(root / "src", run_dir / "run.json")
                    if failed:
                        print(f"{name} seed {seed}: {tree} run failed, {failed}")
                        same = False
                    runs[tree] = run_dir / "out"
                for output in OUTPUTS:
                    a, b = (contents(runs[tree] / output) for tree in trees)
                    verdict = ("identical" if a == b
                               else "missing" if a is None or b is None else "DIFFERS")
                    same &= verdict == "identical"
                    print(f"{name} seed {seed} {output}: {verdict}", flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
