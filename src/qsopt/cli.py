"""Command line front end: train / simulate / compare / report.

A single JSON file drives a training run (schema in the README). All
outputs are deterministic for a fixed config and seed except wall-time
fields, which live in dedicated trailing columns.
"""

import os
import sys


def _apply_thread_cap():
    # honored only if set before the first numpy import in this process
    cap = os.environ.get("QSOPT_THREADS")
    if not cap:
        return
    # str.isdigit() also accepts digits such as "²" that int() rejects
    if not (cap.isascii() and cap.isdigit()) or int(cap) < 1:
        print(f"warning: ignoring QSOPT_THREADS={cap!r} (want a positive integer)",
              file=sys.stderr)
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_apply_thread_cap()

import argparse
import csv
import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import circuit as circ
from . import metrics, plots
from .backend import BACKENDS, BackendSpec, require_int, require_real
from .circuit import ParseError
from .ddqn import AgentConfig, train
from .env import EnvConfig
from .metrics import RewardWeights
from .noise import NoiseConfigError, NoiseParams
from .statevector import CapacityError

EPISODE_FIELDS = ["episode", "return", "steps", "final_qfi", "final_entropy",
                  "final_depth", "final_gates", "epsilon", "lr", "threshold",
                  "loss", "wall_time_s"]
STEP_FIELDS = ["episode", "step", "action", "action_name", "reward", "invalid",
               "injected", "qfi", "entropy", "depth", "gates", "epsilon"]


class ConfigError(Exception):
    pass


# --- configuration --------------------------------------------------------

def _build_backend(env_dict: dict) -> BackendSpec:
    """Pop the backend fields (`backend` is the `kind` field) from a config's
    env section; BackendSpec holds their defaults."""
    keys = {"backend": "kind", "chi_max": "chi_max", "trunc_tol": "trunc_tol",
            "dense_cap": "dense_cap"}
    return BackendSpec(**{field: env_dict.pop(key) for key, field in keys.items()
                          if key in env_dict})


def _section(raw: dict, name: str) -> dict:
    """A copy of section `name`, a JSON object; {} if absent or null."""
    value = {} if raw.get(name) is None else raw[name]
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return dict(value)


def _noise_model(raw: dict) -> NoiseParams | None:
    """The run's noise model: None when the `noise` section is absent or
    null or its `enabled` key is false; its other fields are checked
    either way."""
    fields = _section(raw, "noise")
    enabled = fields.pop("enabled", raw.get("noise") is not None)
    if not isinstance(enabled, bool):  # a string such as "false" is truthy
        raise ConfigError(f"enabled={enabled!r} must be true or false")
    model = NoiseParams(**fields)
    return model if enabled else None


def load_run_config(path: Path):
    """Parse and validate a run config; returns everything cmd_train needs."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    base = path.parent
    try:
        episodes = require_int("episodes", raw.get("episodes", 50))
        if not 1 <= episodes <= 10_000:
            raise ConfigError(f"episodes={episodes} outside [1, 10000]")
        seed = require_int("seed", raw.get("seed", 0))
        if seed < 0:
            raise ConfigError(f"seed={seed} must be >= 0")
        env_dict = _section(raw, "env")
        missing = [key for key in ("n_qubits", "max_gates") if key not in env_dict]
        if missing:
            raise ConfigError(f"env is missing {', '.join(missing)}")
        backend = _build_backend(env_dict)
        if "angle_catalog" in env_dict:
            catalog = env_dict["angle_catalog"]
            if not isinstance(catalog, list):
                raise ConfigError(f"angle_catalog={catalog!r} must be a list of angles")
            env_dict["angle_catalog"] = tuple(float(require_real("angle_catalog", a))
                                              for a in catalog)
        weights = RewardWeights(**_section(raw, "weights"))
        env_cfg = EnvConfig(weights=weights, backend=backend, noise=_noise_model(raw),
                            **env_dict)
        agent_cfg = AgentConfig(**_section(raw, "agent"))
        output_dir = raw.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError(f"output_dir={output_dir!r} must be a string")
    except (NoiseConfigError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    except TypeError as exc:
        raise ConfigError(f"unrecognized config key: {exc}") from exc
    initial_paths = raw.get("initial_circuits")
    if initial_paths is None:
        initial_paths = []
    if not (isinstance(initial_paths, list) and all(isinstance(p, str) for p in initial_paths)):
        raise ConfigError(f"initial_circuits={initial_paths!r} must be a list of file names")
    initials = []
    for rel in initial_paths:
        cpath = base / rel
        try:
            c = circ.parse_file(cpath)
        except OSError as exc:
            raise ConfigError(f"cannot read initial circuit {cpath}: {exc}") from exc
        except ParseError as exc:
            raise ConfigError(f"{cpath}: {exc}") from exc
        if c.n_qubits != env_cfg.n_qubits:
            raise ConfigError(f"initial_circuits: {cpath} has {c.n_qubits} qubits, "
                              f"n_qubits is {env_cfg.n_qubits}")
        if len(c) > env_cfg.max_gates:
            raise ConfigError(f"initial_circuits: {cpath} has {len(c)} gates, "
                              f"max_gates is {env_cfg.max_gates}")
        initials.append(c)
    if not initials:
        initials = [circ.ghz(env_cfg.n_qubits)]
    out_dir = base / output_dir
    return env_cfg, agent_cfg, initials, episodes, seed, out_dir


def _write_csv(path: Path, fieldnames, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# --- train ----------------------------------------------------------------

def _summary_text(env_cfg, result) -> str:
    base = result.baseline_record
    best = result.best_record
    deltas = best.deltas_vs(base)
    lines = [
        "Run summary (best circuit vs episode-initial baseline)",
        "",
        f"{'Qubits':>8} {'QFI':>8} {'Entropy':>8} {'Depth red %':>12} {'Gates red %':>12}",
        f"{env_cfg.n_qubits:>8} {best.qfi_norm:>8.4f} {best.entropy_norm:>8.4f} "
        f"{100.0 * deltas.depth:>12.2f} {100.0 * deltas.gates:>12.2f}",
        "",
        f"{'':>10} {'initial':>10} {'final':>10}",
        f"{'qfi':>10} {base.qfi_norm:>10.4f} {best.qfi_norm:>10.4f}",
        f"{'entropy':>10} {base.entropy_norm:>10.4f} {best.entropy_norm:>10.4f}",
        f"{'depth':>10} {base.depth:>10d} {best.depth:>10d}",
        f"{'gates':>10} {base.gate_count:>10d} {best.gate_count:>10d}",
        "",
        f"objective (weighted delta sum): {result.best_objective:.6f}",
        f"training steps: {result.train_steps}, target syncs: {result.syncs}",
        f"final entanglement threshold: {result.final_threshold:.4f}",
        *([f"MPS discarded weight of the best circuit's rows: {best.discarded_weight:.6e}"]
          if env_cfg.backend.kind == "mps" else []),
        f"circuit evaluations that extended the previous rows: "
        f"{result.extended_evaluations} of {result.evaluations}",
        f"next states picked from the batch's own forward: "
        f"{result.linked_next_rows} of {result.live_next_rows}",
    ]
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    env_cfg, agent_cfg, initials, episodes, seed, out_dir = load_run_config(
        Path(args.config))
    out_dir.mkdir(parents=True, exist_ok=True)
    result = train(agent_cfg, env_cfg, initials, episodes, seed)
    _write_csv(out_dir / "episodes.csv", EPISODE_FIELDS, result.episode_rows)
    _write_csv(out_dir / "steps.csv", STEP_FIELDS, result.step_rows)
    if result.initial_circuit is not None:
        circ.emit_file(result.initial_circuit, out_dir / "initial_circuit.qc")
    if result.best_circuit is not None:
        circ.emit_file(result.best_circuit, out_dir / "final_circuit.qc")
    result.net.save(out_dir / "checkpoint.bin",
                    extra={"agent": asdict(agent_cfg), "seed": seed,
                           "episodes": episodes})
    if result.best_record is not None:
        (out_dir / "summary.txt").write_text(_summary_text(env_cfg, result),
                                             encoding="utf-8")
    if result.interrupted:
        (out_dir / "partial_run.marker").write_text(
            f"interrupted after {len(result.episode_rows)} episodes\n", encoding="utf-8")
        print(f"interrupted; partial outputs in {out_dir}", file=sys.stderr)
        return 2
    print(f"run complete; outputs in {out_dir}")
    return 0


# --- simulate / compare ---------------------------------------------------

def _spec_from_args(args, kind=None) -> BackendSpec:
    try:
        return BackendSpec(kind=kind or args.backend, chi_max=args.chi_max,
                           trunc_tol=args.trunc_tol, dense_cap=args.dense_cap)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_sampling(args) -> None:
    if args.shots < 1:
        raise ConfigError(f"shots must be >= 1, got {args.shots}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")


def _run_backend(spec: BackendSpec, circuit, shots: int, seed: int,
                 probabilities: bool = False):
    """Simulate `circuit` on one backend and sample `shots` outcomes at
    `seed`; the wall time covers both, like a real workload. Returns the
    counts, the bond entropies, the backend's report fields and, if asked,
    the 2^n outcome probabilities. Those are read before the entropy
    sweep, which moves the MPS centre and so the last bits of `to_dense`."""
    n = circuit.n_qubits
    t0 = time.perf_counter()
    state = spec.run(circuit)
    counts = state.sample(shots, np.random.default_rng(seed))
    fields = {"wall_time_s": time.perf_counter() - t0}
    probs = None
    if spec.kind == "mps":
        stats = state.peak_stats()
        fields.update(peak_memory_bytes=stats.memory_bytes, max_bond=stats.max_bond,
                      discarded_weight=state.total_discarded)
        if probabilities:
            probs = np.abs(state.to_dense()) ** 2
    else:
        fields["peak_memory_bytes"] = (2 ** n) * 16
        if probabilities:
            probs = state.probabilities()
    entropies = state.bond_entropies() if n >= 2 else []
    fields["entropy_norm"] = metrics.normalized_entropy(entropies, n, state.chi_max)
    return counts, entropies, fields, probs


def cmd_simulate(args) -> int:
    _check_sampling(args)
    circuit = circ.parse_file(args.circuit)
    spec = _spec_from_args(args)
    counts, entropies, fields, _ = _run_backend(spec, circuit, args.shots, args.seed)
    report = {
        "backend": spec.kind,
        "n_qubits": circuit.n_qubits,
        "shots": args.shots,
        "seed": args.seed,
        "counts": counts,
        "bond_entropies": entropies,
        "depth": circ.depth(circuit),
        "gate_count": circ.gate_count(circuit),
        **fields,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    _check_sampling(args)
    circuit = circ.parse_file(args.circuit)
    dense_spec = _spec_from_args(args, kind="statevector")
    mps_spec = _spec_from_args(args, kind="mps")
    # dense first: a circuit over its cap fails before any MPS work
    _, _, dense, p_dense = _run_backend(dense_spec, circuit, args.shots, args.seed,
                                        probabilities=True)
    _, _, mps, p_mps = _run_backend(mps_spec, circuit, args.shots, args.seed,
                                    probabilities=True)
    report = {
        "n_qubits": circuit.n_qubits,
        "tv_distance": 0.5 * float(np.sum(np.abs(p_dense - p_mps))),
        "statevector": dense,
        "mps": {**mps, "chi_max": mps_spec.chi_max},
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# --- report ---------------------------------------------------------------

CURVES = [
    ("reward_curve", "return", "episode return"),
    ("entropy_curve", "final_entropy", "entropy_norm"),
    ("depth_curve", "final_depth", "depth"),
    ("gates_curve", "final_gates", "gate count"),
]


def _composition_rows(circuit):
    comp = circ.composition(circuit)
    return [{"gate": kind.value, "count": comp.counts[kind],
             "fraction": comp.fractions.get(kind, 0.0)}
            for kind in circ.GateKind]


def cmd_report(args) -> int:
    run_dir = Path(args.dir)
    episodes_path = run_dir / "episodes.csv"
    if not episodes_path.exists():
        raise FileNotFoundError(f"no episodes.csv in {run_dir}")
    with open(episodes_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for stem, column, label in CURVES:
        xs = [int(r["episode"]) for r in rows]
        ys = [float(r[column]) for r in rows]
        _write_csv(run_dir / f"{stem}.csv", ["episode", column],
                   [{"episode": x, column: r[column]} for x, r in zip(xs, rows)])
        (run_dir / f"{stem}.svg").write_text(
            plots.line_svg(xs, ys, stem.replace("_", " "), "episode", label),
            encoding="utf-8")
    for tag in ("initial", "final"):
        cpath = run_dir / f"{tag}_circuit.qc"
        if not cpath.exists():
            raise FileNotFoundError(f"missing {cpath}")
        rows_c = _composition_rows(circ.parse_file(cpath))
        name = "composition_before" if tag == "initial" else "composition_after"
        _write_csv(run_dir / f"{name}.csv", ["gate", "count", "fraction"], rows_c)
        (run_dir / f"{name}.svg").write_text(
            plots.pie_svg([r["gate"] for r in rows_c],
                          [r["fraction"] for r in rows_c],
                          name.replace("_", " ")),
            encoding="utf-8")
    print(f"report written to {run_dir}")
    return 0


# --- entry point ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsopt",
        description="Quantum sensor circuit optimization: DDQN agent over "
                    "MPS/statevector simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training job from a JSON config")
    p_train.add_argument("--config", required=True, help="path to run config JSON")
    p_train.set_defaults(func=cmd_train)

    def add_backend_flags(p, with_kind: bool):
        default = BackendSpec()
        if with_kind:
            p.add_argument("--backend", choices=BACKENDS, default=default.kind)
        p.add_argument("--chi-max", type=int, default=default.chi_max, dest="chi_max")
        p.add_argument("--trunc-tol", type=float, default=default.trunc_tol, dest="trunc_tol")
        p.add_argument("--dense-cap", type=int, default=default.dense_cap, dest="dense_cap",
                       help="largest qubit count the statevector backend accepts")

    p_sim = sub.add_parser("simulate", help="simulate a circuit and sample it")
    p_sim.add_argument("--circuit", required=True)
    add_backend_flags(p_sim, with_kind=True)
    p_sim.add_argument("--shots", type=int, default=5000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run both backends, report TV distance")
    p_cmp.add_argument("--circuit", required=True)
    add_backend_flags(p_cmp, with_kind=False)
    p_cmp.add_argument("--shots", type=int, default=5000)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", help="curves and composition tables for a run")
    p_rep.add_argument("--dir", required=True, help="training output directory")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, NoiseConfigError, CapacityError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
