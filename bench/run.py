"""Benchmark of `qsopt train`: end-to-end speed, set-up time and memory, or
a traced per-layer split, on one of three workloads.

    python3 bench/run.py --workload train-exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root. The workload seed generates the run
config and its initial circuits under `.bench_runs/`. The load is a
closed loop: one `qsopt train` process at a time, each started when the
previous one has exited, repeated on the same inputs for about
`--seconds` (at least twice, so determinism is checked every run).
Every process runs with QSOPT_THREADS=1 and PYTHONHASHSEED=0.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics: speed and memory are medians over the repeats,
set-up time the median over three one-step runs of the same config. With
`--trace 1` one untraced run is followed by traced runs, and the metrics
are the per-layer ones (see bench/README.md). The exit code is 0 only
when every run passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
THREADS = "1"
# qsopt sums QFI terms over a set of bitstrings, whose order follows string
# hashing, so outputs repeat bit for bit only under a fixed hash seed
HASH_SEED = "0"
MIN_REPEATS = 2
# a run, set-up and checks included, must end well inside 180 s
RUN_BUDGET_S = 165.0

# one-step runs of the same config per run; set-up time is their median
SETUP_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="train-exact, train-noisy, train-wide-mps or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment() -> None:
    """Pin BLAS threads and the hash seed for this process's children, and
    BLAS threads for this process too: numpy is not imported yet."""
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.environ["QSOPT_THREADS"] = THREADS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS


class Run:
    """One benchmark run of one workload: invocations, checks and metrics."""

    def __init__(self, wl, seed: int, trace: bool, root: Path, started: float):
        self.wl = wl
        self.seed = seed
        self.trace = trace
        self.root = root
        self.started = started
        self.dir = root / ".bench_runs" / f"{wl.name}-seed{seed}-trace{int(trace)}"
        self.invocations: list[dict] = []
        self.failures: list[str] = []

    def _spawn(self, config: str, trace_path: Path | None = None):
        """Run `qsopt train` on a config of this run in a child process.
        Returns (exit code, stderr, wall seconds), or None when the run's
        time budget ran out."""
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(self.root / "src"),
               str(self.dir / config), str(self.dir / "child.json")]
        if trace_path is not None:
            cmd.append(str(trace_path))
        budget = RUN_BUDGET_S - (time.perf_counter() - self.started)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True)
        try:
            _, err = proc.communicate(timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            return self._fail("qsopt train did not finish within the run's time budget")
        finally:  # also on SIGTERM or Ctrl-C: leave no child running
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        return proc.returncode, err.strip()[-400:], time.perf_counter() - t0

    def invoke(self, traced: bool) -> dict | None:
        """Run the workload once and check its outputs."""
        import checks

        out_dir = self.dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        trace_path = self.dir / "trace.json"
        spawned = self._spawn("run.json", trace_path if traced else None)
        if spawned is None:
            return None
        code, err, wall = spawned
        if code != 0:
            return self._fail(f"qsopt train exited with {code}: {err}")
        try:
            out = checks.read_outputs(out_dir)
            fails = checks.check_tables(self.wl, out) + checks.check_final_circuit(self.wl, out)
        except (OSError, ValueError, KeyError) as exc:
            return self._fail(f"unreadable outputs: {exc!r}")
        digest = out.digest()
        if self.invocations and digest != self.invocations[0]["digest"]:
            fails.append("outputs differ from the first run of this seed")
        if fails:
            return self._fail("; ".join(fails))
        loop = out.loop_seconds()
        child = json.loads((self.dir / "child.json").read_text())
        inv = {"traced": traced, "digest": digest, "wall_s": wall, "loop_s": loop,
               "steps_per_s": self.wl.steps / loop, "setup_s": wall - loop,
               "peak_rss_mb": child["peak_rss_mb"],
               "episode_s": [float(r["wall_time_s"]) for r in out.episodes]}
        if traced:
            import tracing
            doc = json.loads(trace_path.read_text())
            inv["layers"], inv["exact"], inv["shares"] = tracing.layer_metrics(doc)
            first = next((i for i in self.invocations if i.get("traced")), inv)
            if inv["exact"] != first["exact"]:
                return self._fail("traced counts differ from the first traced run")
        self.invocations.append(inv)
        return inv

    def probe_setup(self) -> None:
        """One more set-up sample: a one-step run of the same config, whose
        set-up (imports, validation, construction, writing) is the same."""
        import checks

        shutil.rmtree(self.dir / "setup_out", ignore_errors=True)
        spawned = self._spawn("setup.json")
        if spawned is None:
            return
        code, err, wall = spawned
        if code != 0:
            self._fail(f"set-up probe exited with {code}: {err}")
            return
        try:
            loop = checks.read_outputs(self.dir / "setup_out").loop_seconds()
        except (OSError, ValueError, KeyError) as exc:
            self._fail(f"unreadable set-up probe outputs: {exc!r}")
            return
        self.invocations.append({"probe": True, "wall_s": wall, "setup_s": wall - loop})

    def _fail(self, message: str) -> None:
        self.failures.append(message)
        self.invocations.append({"failed": message})
        print(f"FAIL {self.wl.name} seed {self.seed}: {message}", file=sys.stderr)
        return None

    def measure(self, seconds: float) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.wl.write_inputs(self.seed, self.dir)
        if self.trace:
            if self.invoke(traced=False) is None:
                return
        t0 = time.perf_counter()
        n = 0
        last = 0.0
        # repeat while another run would end nearer the deadline than this one
        while n < MIN_REPEATS or time.perf_counter() - t0 + last / 2 < seconds:
            inv = self.invoke(traced=self.trace)
            if inv is None:
                return
            n += 1
            last = inv["wall_s"]
        if not self.trace:
            for _ in range(SETUP_PROBES):
                self.probe_setup()

    def metrics(self) -> dict:
        ok = [i for i in self.invocations if "failed" not in i]
        if self.trace:
            return self._layer_metrics(ok)
        full = [i for i in ok if not i.get("probe")]
        probes = [i for i in ok if i.get("probe")]
        return {"steps_per_s": {"value": statistics.median(i["steps_per_s"] for i in full),
                                "unit": "steps/s"},
                "setup_s": {"value": statistics.median(i["setup_s"] for i in probes),
                            "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(i["peak_rss_mb"] for i in full),
                                "unit": "MB"}}

    def _layer_metrics(self, ok: list[dict]) -> dict:
        traced = [i for i in ok if i["traced"]]
        layers = {}
        for name, first in traced[0]["layers"].items():
            value = statistics.median(i["layers"][name]["value"] for i in traced)
            layers[name] = {"value": value, "unit": first["unit"]}
        untraced = [i for i in ok if not i["traced"]]
        layers["trace.traced_steps_per_s"] = {
            "value": statistics.median(i["steps_per_s"] for i in traced), "unit": "steps/s"}
        layers["trace.untraced_steps_per_s"] = {
            "value": statistics.median(i["steps_per_s"] for i in untraced), "unit": "steps/s"}
        return layers

    def shares(self) -> dict:
        """Median share of summed self time per module over the traced runs."""
        traced = [i for i in self.invocations if i.get("traced")]
        return {layer: statistics.median(i["shares"][layer] for i in traced)
                for layer in traced[0]["shares"]}

    def record(self) -> dict:
        return {"workload": self.wl.name, "seed": self.seed, "trace": self.trace,
                "sizes": self.wl.sizes(), "invocations": self.invocations,
                "failures": self.failures}


def provenance(root: Path) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "threads": int(THREADS),
            "python_hash_seed": int(HASH_SEED),
            "git_sha": git_sha(root)}


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    # exit through SystemExit so a running child is stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "qsopt" / "cli.py").is_file():
        print("error: no qsopt sources at src/qsopt; run from the repository root",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; expected one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    runs, results = [], {}
    for name in names:
        run = Run(WORKLOADS[name], args.seed, bool(args.trace), root,
                  started if len(names) == 1 else time.perf_counter())
        run.measure(args.seconds)
        runs.append(run)
        if not run.failures:
            results[name] = run.metrics()

    info = provenance(root)
    for run in runs:
        record = run.record()
        record["provenance"] = info
        record["metrics"] = results.get(run.wl.name, {})
        print("provenance " + json.dumps({**info, "workload": run.wl.name,
                                          "seed": run.seed, "sizes": run.wl.sizes()}))
        for metric, m in record["metrics"].items():
            print(f"{run.wl.name} {metric} = {m['value']:.6g} {m['unit']}")
        if run.trace and record["metrics"]:
            shares = run.shares()
            record["self_time_shares"] = shares
            print(f"{run.wl.name} self-time share by module: " + ", ".join(
                f"{layer} {share:.1%}" for layer, share in shares.items()))
        (run.dir / "result.json").write_text(json.dumps(record, indent=1))

    attempted = sum(len(r.invocations) for r in runs)
    failed = sum(len(r.failures) for r in runs)
    correct = failed == 0 and len(results) == len(runs)
    metrics = (results[names[0]] if len(names) == 1 and results else
               {f"{n}.{k}": v for n, ms in results.items() for k, v in ms.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
