"""Command line: config loading, subcommands, artifacts, exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsopt import cli, metrics
from qsopt.backend import BackendSpec
from qsopt.circuit import emit_file, ghz, parse
from qsopt.cli import ConfigError, load_run_config, main
from qsopt.noise import NoiseParams


def write_config(tmp_path, **overrides):
    cfg = {
        "episodes": 2,
        "seed": 0,
        "env": {"n_qubits": 2, "max_gates": 8, "max_steps_per_episode": 5,
                "shots": 0, "backend": "statevector"},
        "agent": {"memory_size": 32, "batch_size": 4},
        "output_dir": "out",
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# --- config loading -------------------------------------------------------

def test_load_config_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"env": {"n_qubits": 3, "max_gates": 10}}),
                    encoding="utf-8")
    env_cfg, agent_cfg, initials, episodes, seed, out_dir = load_run_config(path)
    assert env_cfg.n_qubits == 3
    assert env_cfg.backend.kind == "mps"
    assert env_cfg.angle_catalog == (math.pi / 4, math.pi / 2)
    assert agent_cfg.gamma == 0.95
    assert episodes == 50 and seed == 0
    assert initials == [ghz(3)]  # default initial circuit
    assert out_dir == tmp_path / "out"


def test_load_config_reads_initial_circuits(tmp_path):
    emit_file(ghz(2), tmp_path / "a.qc")
    emit_file(ghz(2).h(1), tmp_path / "b.qc")
    path = write_config(tmp_path, initial_circuits=["a.qc", "b.qc"])
    _, _, initials, _, _, _ = load_run_config(path)
    assert len(initials) == 2
    assert initials[1].gates[-1].qubits == (1,)


@pytest.mark.parametrize("overrides", [
    {"episodes": 0},
    {"episodes": 20_000},
    {"env": {"n_qubits": 2, "max_gates": 8, "bogus_key": 1}},
    {"agent": {"gamma": 2.0}},
    {"agent": {"unknown": 1}},
    {"weights": {"nope": 0.5}},
    {"noise": {"t1_us": 50.0, "t2_us": 500.0}},
    {"env": {"n_qubits": 2, "max_gates": 8, "backend": "quantum_cloud"}},
    {"initial_circuits": ["missing.qc"]},
])
def test_load_config_rejects_bad_input(tmp_path, overrides):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_empty_noise_section_is_the_default_model(tmp_path):
    env = {"n_qubits": 2, "max_gates": 8, "shots": 8, "backend": "statevector"}
    env_cfg = load_run_config(write_config(tmp_path, env=env, noise={}))[0]
    assert env_cfg.noise == NoiseParams()
    env_cfg = load_run_config(write_config(tmp_path, env=env, noise=None))[0]
    assert env_cfg.noise is None


def test_noise_enabled_key_switches_the_model(tmp_path):
    env = {"n_qubits": 2, "max_gates": 8, "shots": 8, "backend": "statevector"}
    for section, want in [({"enabled": True}, NoiseParams()),
                          ({"enabled": True, "p_1q": 0.5}, NoiseParams(p_1q=0.5)),
                          ({"enabled": False}, None),
                          ({"enabled": False, "p_1q": 0.5}, None)]:
        env_cfg = load_run_config(write_config(tmp_path, env=env, noise=section))[0]
        assert env_cfg.noise == want, section
    # noise that is switched off allows the exact QFI
    env_cfg = load_run_config(write_config(tmp_path, noise={"enabled": False}))[0]
    assert env_cfg.shots == 0 and env_cfg.noise is None


def test_benchmark_workload_inputs_load(tmp_path, monkeypatch):
    """The inputs `bench/workloads.py` writes for each workload load, with
    noise on `train-noisy` alone. bench/ is imported, never written to."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import WORKLOADS

    assert set(WORKLOADS) == {"train-exact", "train-noisy", "train-wide-mps"}
    for name, workload in WORKLOADS.items():
        workload.write_inputs(1, tmp_path / name)
        for config in ("run.json", "setup.json"):
            env_cfg, _, initials, episodes, seed, _ = load_run_config(tmp_path / name / config)
            assert env_cfg.noise == (NoiseParams() if name == "train-noisy" else None), name
            assert len(initials) == episodes and seed == 1, name


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_load_config_rejects_unparseable_circuit(tmp_path):
    (tmp_path / "bad.qc").write_text("qubits 2\nxyzzy q0\n", encoding="utf-8")
    path = write_config(tmp_path, initial_circuits=["bad.qc"])
    with pytest.raises(ConfigError):
        load_run_config(path)


# --- train ----------------------------------------------------------------

def test_train_writes_all_artifacts(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    for name in ("episodes.csv", "steps.csv", "initial_circuit.qc",
                 "final_circuit.qc", "checkpoint.bin", "summary.txt"):
        assert (out / name).exists(), name
    assert not (out / "partial_run.marker").exists()
    with open(out / "episodes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert list(rows[0]) == cli.EPISODE_FIELDS
    with open(out / "steps.csv", newline="") as fh:
        srows = list(csv.DictReader(fh))
    assert len(srows) == 2 * 5
    assert list(srows[0]) == cli.STEP_FIELDS
    summary = (out / "summary.txt").read_text()
    assert "objective" in summary and "Qubits" in summary
    assert "discarded weight" not in summary  # a statevector run truncates nothing


def _strip_timing(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_s") if "wall_time_s" in rows[0] else None
    if drop is None:
        return rows
    return [r[:drop] + r[drop + 1:] for r in rows]


def test_train_runs_are_reproducible(tmp_path, capsys):
    p1 = write_config(tmp_path, output_dir="run_a")
    main(["train", "--config", str(p1)])
    p2 = write_config(tmp_path, output_dir="run_b")
    main(["train", "--config", str(p2)])
    for name in ("episodes.csv", "steps.csv"):
        a = _strip_timing(tmp_path / "run_a" / name)
        b = _strip_timing(tmp_path / "run_b" / name)
        assert a == b, name
    assert (tmp_path / "run_a" / "final_circuit.qc").read_bytes() == \
        (tmp_path / "run_b" / "final_circuit.qc").read_bytes()



def test_train_with_wrapped_replay_and_syncs_is_byte_deterministic(tmp_path, capsys):
    # 4 episodes of 5 steps fill an 8-slot ring twice over, and a sync every
    # 2 train steps marks every stored transition stale, so samples reprice
    agent = {"memory_size": 8, "batch_size": 4, "target_sync_every": 2}
    for tag in ("a", "b"):
        path = write_config(tmp_path, episodes=4, agent=agent, output_dir=f"run_{tag}")
        assert main(["train", "--config", str(path)]) == 0
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    assert (run_a / "steps.csv").read_bytes() == (run_b / "steps.csv").read_bytes()
    assert _strip_timing(run_a / "episodes.csv") == _strip_timing(run_b / "episodes.csv")
    for name in ("final_circuit.qc", "checkpoint.bin", "summary.txt"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
    with open(run_a / "steps.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 20 > agent["memory_size"]
    summary = (run_a / "summary.txt").read_text()
    assert "training steps: 17, target syncs: 8" in summary
    # the last line: of the train steps' live next states, how many took
    # their online Q from the batch's own forward
    linked = re.search(r"next states picked from the batch's own forward: (\d+) of (\d+)\n\Z",
                       summary)
    assert linked and 0 < int(linked[1]) <= int(linked[2]) <= 17 * agent["batch_size"]
    # one evaluation per reset and per kept edit; a reset always builds
    extended = re.search(r"\ncircuit evaluations that extended the previous rows: (\d+) of (\d+)\n"
                         r"next states picked", summary)
    assert extended and 0 < int(extended[1]) <= int(extended[2]) - 4 <= 20


def test_mps_summary_reports_the_best_circuits_truncation(tmp_path, capsys):
    env = {"n_qubits": 4, "max_gates": 10, "max_steps_per_episode": 5, "shots": 8,
           "backend": "mps", "chi_max": 1}
    assert main(["train", "--config", str(write_config(tmp_path, env=env))]) == 0
    out = tmp_path / "out"
    summary = (out / "summary.txt").read_text()
    # before the two evaluation lines, the last of which the test above anchors
    line = re.search(r"\nMPS discarded weight of the best circuit's rows: (\S+)\n"
                     r"circuit evaluations that extended", summary)
    assert line
    # the carried rows of the best circuit hold what a fresh evaluation does
    best = parse((out / "final_circuit.qc").read_text())
    rows = metrics.Rows(best, BackendSpec(kind="mps", chi_max=1))
    assert line[1] == f"{rows.record().discarded_weight:.6e}"
    assert float(line[1]) > 0.0  # chi 1 truncates the GHZ start


# --- simulate / compare ---------------------------------------------------

def test_simulate_reports_json(tmp_path, capsys):
    cpath = tmp_path / "bell.qc"
    emit_file(ghz(2), cpath)
    code = main(["simulate", "--circuit", str(cpath), "--backend", "mps",
                 "--shots", "400", "--seed", "7"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["backend"] == "mps"
    assert sum(report["counts"].values()) == 400
    assert set(report["counts"]) <= {"00", "11"}
    assert report["bond_entropies"] == pytest.approx([1.0])
    assert report["max_bond"] == 2
    assert report["discarded_weight"] == pytest.approx(0.0, abs=1e-12)
    assert report["depth"] == 2 and report["gate_count"] == 2
    # a product approximation of the Bell pair drops half its weight
    assert main(["simulate", "--circuit", str(cpath), "--backend", "mps",
                 "--chi-max", "1", "--shots", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["discarded_weight"] == pytest.approx(0.5)


def test_simulate_statevector_backend(tmp_path, capsys):
    cpath = tmp_path / "bell.qc"
    emit_file(ghz(2), cpath)
    assert main(["simulate", "--circuit", str(cpath),
                 "--backend", "statevector", "--shots", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["backend"] == "statevector"
    assert report["peak_memory_bytes"] == 4 * 16
    assert "max_bond" not in report and "discarded_weight" not in report


def test_simulate_rejects_zero_shots(tmp_path, capsys):
    cpath = tmp_path / "bell.qc"
    emit_file(ghz(2), cpath)
    assert main(["simulate", "--circuit", str(cpath), "--shots", "0"]) == 1


def test_compare_backends_agree(tmp_path, capsys):
    cpath = tmp_path / "c.qc"
    emit_file(ghz(4).rx(1, 0.6).cz(2, 3), cpath)
    assert main(["compare", "--circuit", str(cpath), "--shots", "100"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tv_distance"] < 1e-10
    assert report["mps"]["max_bond"] >= 2
    assert report["mps"]["discarded_weight"] == pytest.approx(0.0, abs=1e-12)
    assert report["statevector"]["peak_memory_bytes"] == 2 ** 4 * 16
    assert report["mps"]["entropy_norm"] == pytest.approx(
        report["statevector"]["entropy_norm"], abs=1e-9)


# --- report ---------------------------------------------------------------

def test_report_builds_curves_and_compositions(tmp_path, capsys):
    path = write_config(tmp_path)
    main(["train", "--config", str(path)])
    capsys.readouterr()
    assert main(["report", "--dir", str(tmp_path / "out")]) == 0
    out = tmp_path / "out"
    for stem in ("reward_curve", "entropy_curve", "depth_curve", "gates_curve"):
        assert (out / f"{stem}.csv").exists()
        svg = (out / f"{stem}.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
    for name in ("composition_before", "composition_after"):
        with open(out / f"{name}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["gate"] for r in rows] == ["h", "rx", "rz", "cx", "cz", "swap"]
        assert abs(sum(float(r["fraction"]) for r in rows) - 1.0) < 1e-9
        assert (out / f"{name}.svg").exists()


def test_report_requires_run_dir(tmp_path, capsys):
    assert main(["report", "--dir", str(tmp_path / "nowhere")]) == 1


# --- exit codes and environment -------------------------------------------

def test_missing_files_exit_1(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 1
    assert main(["simulate", "--circuit", str(tmp_path / "nope.qc")]) == 1


def test_parse_error_exits_1(tmp_path, capsys):
    cpath = tmp_path / "bad.qc"
    cpath.write_text("qubits 2\nbogus q0\n", encoding="utf-8")
    assert main(["simulate", "--circuit", str(cpath)]) == 1
    assert "error" in capsys.readouterr().err


def test_capacity_error_exits_1(tmp_path, capsys):
    cpath = tmp_path / "wide.qc"
    emit_file(ghz(16), cpath)
    assert main(["simulate", "--circuit", str(cpath),
                 "--backend", "statevector"]) == 1


BAD_BACKEND_VALUES = [("chi_max", 0), ("trunc_tol", -1.0), ("trunc_tol", math.nan),
                      ("dense_cap", 0)]


def test_train_exact_qfi_with_noise_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, noise={"enabled": True})  # the config has shots 0
    assert main(["train", "--config", str(path)]) == 1
    assert "noise" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", BAD_BACKEND_VALUES)
def test_train_bad_backend_value_exits_1(tmp_path, capsys, key, value):
    env = {"n_qubits": 2, "max_gates": 8, "max_steps_per_episode": 5,
           "shots": 0, "backend": "statevector", key: value}
    path = write_config(tmp_path, env=env)
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,overrides", [
    ("t1_us", {"noise": {"t1_us": math.nan},
               "env": {"n_qubits": 2, "max_gates": 8, "shots": 8, "backend": "statevector"}}),
    ("angle_catalog", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 0,
                               "backend": "statevector", "angle_catalog": [math.nan]}}),
    ("angle_catalog", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 0,
                               "backend": "statevector", "angle_catalog": [math.inf]}}),
    ("lr_initial", {"agent": {"memory_size": 32, "batch_size": 4, "lr_initial": math.nan}}),
    ("lr_initial", {"agent": {"memory_size": 32, "batch_size": 4, "lr_initial": math.inf}}),
    ("seed", {"seed": -1}),
    ("enabled", {"noise": {"enabled": "false"}}),
    ("during_training", {"noise": {"during_training": 0}}),
    ("p_1q", {"noise": {"enabled": False, "p_1q": 2.0}}),
    ("shots", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 8.5}}),
    ("n_qubits", {"env": {"n_qubits": 2.0, "max_gates": 8, "shots": 0,
                          "backend": "statevector"}}),
    ("max_gates", {"env": {"n_qubits": 2, "max_gates": "8", "shots": 0,
                           "backend": "statevector"}}),
    ("max_steps_per_episode", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 0,
                                       "backend": "statevector",
                                       "max_steps_per_episode": True}}),
    ("episodes", {"episodes": 1.9, "seed": 1.7}),
    ("seed", {"seed": 1.7}),
    ("episodes", {"episodes": True}),
    ("memory_size", {"agent": {"memory_size": 8.5, "batch_size": 4}}),
    ("batch_size", {"agent": {"memory_size": 32, "batch_size": 2.0}}),
    ("plateau_patience", {"agent": {"plateau_patience": 1.5}}),
    ("plateau_window", {"agent": {"plateau_window": "10"}}),
    ("target_sync_every", {"agent": {"target_sync_every": True}}),
    ("chi_max", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 8, "chi_max": 2.5}}),
    ("chi_max", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 8, "chi_max": True}}),
    ("dense_cap", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 0,
                           "backend": "statevector", "dense_cap": 14.0}}),
    ("output_dir", {"output_dir": 5}),
    ("angle_catalog", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 0,
                               "backend": "statevector", "angle_catalog": [True]}}),
    ("angle_catalog", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 0,
                               "backend": "statevector", "angle_catalog": ["0.5"]}}),
    ("qfi", {"weights": {"qfi": True}}),
    ("p_1q", {"noise": {"p_1q": True},
              "env": {"n_qubits": 2, "max_gates": 8, "shots": 8, "backend": "statevector"}}),
    ("dur_1q_us", {"noise": {"dur_1q_us": True},
                   "env": {"n_qubits": 2, "max_gates": 8, "shots": 8,
                           "backend": "statevector"}}),
    ("trunc_tol", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 8, "trunc_tol": True}}),
    ("entanglement_threshold", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 0,
                                        "backend": "statevector",
                                        "entanglement_threshold": True}}),
    ("lr_decay", {"agent": {"lr_decay": True}}),
    ("plateau_factor", {"agent": {"plateau_factor": "0.5"}}),
    ("batch_size", {"agent": {"memory_size": 8, "batch_size": 64}}),
    ("initial_circuits", {"initial_circuits": [5]}),
    ("initial_circuits", {"initial_circuits": "a.qc"}),
    ("initial_circuits", {"initial_circuits": {}}),
    ("initial_circuits", {"initial_circuits": 0}),
    ("initial_circuits", {"initial_circuits": False}),
    ("angle_catalog", {"env": {"n_qubits": 2, "max_gates": 8, "shots": 0,
                               "backend": "statevector", "angle_catalog": 5}}),
    ("noise", {"noise": []}),
    ("noise", {"noise": 0}),
    ("env", {"env": [["n_qubits", 3], ["max_gates", 8]]}),
    ("agent", {"agent": [1]}),
    ("weights", {"weights": "x"}),
    ("n_qubits, max_gates", {"env": {}}),
    ("max_gates", {"env": {"n_qubits": 2, "shots": 0, "backend": "statevector"}}),
], ids=["t1-nan", "angle-nan", "angle-inf", "lr-nan", "lr-inf", "seed-negative",
        "enabled-string", "during-training-int", "disabled-noise-p-1q", "shots-float",
        "n-qubits-float", "max-gates-string", "max-steps-bool", "episodes-float", "seed-float",
        "episodes-bool", "memory-size-float", "batch-size-float", "patience-float",
        "window-string", "sync-bool", "chi-max-float", "chi-max-bool", "dense-cap-float",
        "output-dir-int", "angle-bool", "angle-string", "weight-bool", "p-1q-bool",
        "duration-bool", "trunc-tol-bool", "threshold-bool", "lr-decay-bool",
        "plateau-factor-string", "batch-over-memory", "initial-not-a-string",
        "initial-not-a-list", "initial-object", "initial-zero", "initial-false",
        "angle-catalog-int", "noise-list", "noise-zero", "env-pairs", "agent-list",
        "weights-string", "env-empty", "max-gates-missing"])
def test_train_bad_config_value_exits_1(tmp_path, capsys, key, overrides):
    path = write_config(tmp_path, **overrides)
    assert main(["train", "--config", str(path)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("circuit,name", [
    (ghz(3), "big.qc"),  # 3 qubits on a 2-qubit env
    (ghz(2).h(0).h(0).h(0).h(0).h(0).h(0).h(0), "long.qc"),  # 9 gates, max_gates 8
], ids=["wrong-qubits", "over-max-gates"])
def test_train_initial_circuit_that_does_not_fit_exits_1(tmp_path, capsys, circuit, name):
    emit_file(circuit, tmp_path / name)
    path = write_config(tmp_path, initial_circuits=[name])
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: initial_circuits") and name in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_negative_seed_exits_1(tmp_path, capsys, command):
    cpath = tmp_path / "bell.qc"
    emit_file(ghz(2), cpath)
    assert main([command, "--circuit", str(cpath), "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: seed")


@pytest.mark.parametrize("key,value", BAD_BACKEND_VALUES)
def test_simulate_bad_backend_value_exits_1(tmp_path, capsys, key, value):
    cpath = tmp_path / "bell.qc"
    emit_file(ghz(2), cpath)
    flag = "--" + key.replace("_", "-")
    assert main(["simulate", "--circuit", str(cpath), flag, str(value)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}")


def test_thread_cap_sets_blas_variables(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("QSOPT_THREADS", "2")
    cli._apply_thread_cap()
    assert all(cli.os.environ[v] == "2" for v in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))


def test_thread_cap_ignores_garbage(monkeypatch, capsys):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("QSOPT_THREADS", "-3")
    cli._apply_thread_cap()
    assert "OMP_NUM_THREADS" not in cli.os.environ
    assert "warning" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["\u00b2", "\uff12"])
def test_thread_cap_ignores_non_ascii_digits_at_import(tmp_path, value):
    # str.isdigit() accepts both; the cap is read at import, so only a
    # fresh process exercises it
    cpath = tmp_path / "bell.qc"
    emit_file(ghz(2), cpath)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "QSOPT_THREADS": value,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    done = subprocess.run([sys.executable, "-m", "qsopt.cli", "simulate", "--circuit",
                           str(cpath), "--shots", "10"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert f"warning: ignoring QSOPT_THREADS={value!r}" in done.stderr
    assert "Traceback" not in done.stderr


def test_bench_tracing_installs_on_every_traced_name():
    # bench/tracing.py wraps qsopt functions by name; a rename breaks
    # `bench/run.py --trace 1`. A fresh process keeps the patches out of
    # the other tests.
    root = Path(cli.__file__).resolve().parents[2]
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import qsopt.cli, tracing; "
              "tracing.install(tracing.Tracer())")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(root / "bench")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
