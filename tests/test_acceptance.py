"""Acceptance gate: one test per release criterion, each printing a
single ACCEPTANCE <n> PASS/FAIL line (run with -s to see them live).

These pin the contract of the whole pipeline: backend equivalence,
entropy and QFI analytics, schedule arithmetic, learning-stack numerics,
replay prioritization, the end-to-end training smoke, noise sanity and
CLI determinism. Tolerances are part of the contract; do not loosen them
to make a failure go away.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from qsopt import mps, statevector
from qsopt.backend import BackendSpec
from qsopt.circuit import Circuit, ghz, random_circuit
from qsopt.cli import main as cli_main
from qsopt.ddqn import (
    AgentConfig,
    QNet,
    ReplayBuffer,
    Transition,
    epsilon_at,
    lr_at,
    td_targets,
    train,
)
from qsopt.env import EnvConfig, Observation
from qsopt.metrics import qfi, reduction_ratio
from qsopt.noise import NoiseParams, sample_counts

SV = BackendSpec(kind="statevector")


class _verdict:
    """Prints the per-criterion verdict line whether or not the body threw."""

    def __init__(self, number: int):
        self.number = number

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"\nACCEPTANCE {self.number} {'FAIL' if exc_type else 'PASS'}")
        return False


def test_01_mps_reproduces_dense_amplitudes():
    with _verdict(1):
        t0 = time.perf_counter()
        worst_amp = worst_tv = 0.0
        for i in range(50):
            rng = np.random.default_rng(1000 + i)
            n = 4 + i % 7  # cycles 4..10
            c = random_circuit(n, 40, rng)
            chi = 2 ** (n // 2)  # maximal Schmidt rank: no truncation possible
            m = mps.run(c, chi_max=chi, trunc_tol=0.0)
            d = statevector.run(c)
            amps = m.to_dense()
            worst_amp = max(worst_amp, float(np.max(np.abs(amps - d.amps))))
            tv = 0.5 * float(np.sum(np.abs(np.abs(amps) ** 2 - d.probabilities())))
            worst_tv = max(worst_tv, tv)
        elapsed = time.perf_counter() - t0
        assert worst_amp < 1e-10, f"amplitude mismatch {worst_amp}"
        assert worst_tv < 1e-10, f"tv distance {worst_tv}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_02_entropy_analytics():
    with _verdict(2):
        for n in range(2, 11):
            sv_state = statevector.run(ghz(n))
            mps_state = mps.run(ghz(n), trunc_tol=0.0)
            for bond in range(1, n):
                assert abs(sv_state.bond_entropy(bond) - 1.0) <= 1e-9
                assert abs(mps_state.bond_entropy(bond) - 1.0) <= 1e-9
            product = Circuit(n).h(0).rx(n - 1, 0.7)
            for s in statevector.run(product).bond_entropies():
                assert s == 0.0
            for s in mps.run(product, trunc_tol=0.0).bond_entropies():
                assert s == 0.0


def test_03_qfi_estimator():
    with _verdict(3):
        probe = Circuit(1).rx(0, math.pi / 2)
        assert abs(qfi(probe, 0, SV) - 1.0) <= 1e-12
        for seed in range(20):
            assert abs(qfi(probe, 5000, SV, seed=seed) - 1.0) <= 0.05
        dead = Circuit(2).rz(0, 0.9).rz(1, 0.3)
        assert abs(qfi(dead, 0, SV)) <= 1e-12


def test_04_reduction_ratios():
    with _verdict(4):
        assert abs(reduction_ratio(7, 5) - 0.2857) <= 1e-4
        assert abs(reduction_ratio(74, 68) - 0.0811) <= 1e-4


def test_05_mps_scaling_beats_dense_on_shallow_circuits():
    with _verdict(5):
        n = 14
        c = Circuit(n)
        for q in range(n):
            c = c.rx(q, 0.3)
        for layer in range(3):
            for q in range(layer % 2, n - 1, 2):
                c = c.cz(q, q + 1)
            for q in range(n):
                c = c.rx(q, 0.15 * (layer + 1))

        def timed(f):
            t0 = time.perf_counter()
            f()
            return time.perf_counter() - t0

        # interleave the passes so transient machine load hits both backends
        t_mps = math.inf
        t_sv = math.inf
        for _ in range(5):
            t_mps = min(t_mps, timed(lambda: mps.run(c, chi_max=32)))
            t_sv = min(t_sv, timed(lambda: statevector.run(c)))
        mem = mps.run(c, chi_max=32).peak_stats().memory_bytes
        dense_mem = (2 ** n) * 16
        assert t_mps < t_sv, f"mps {t_mps:.4f}s not faster than dense {t_sv:.4f}s"
        assert mem < dense_mem, f"mps {mem}B vs dense {dense_mem}B"


def test_06_exploration_and_lr_schedules():
    with _verdict(6):
        cfg = AgentConfig()
        for k in (0, 1, 100, 10_000):
            assert epsilon_at(k, cfg) == max(0.01, 0.999 ** k)
        assert abs(lr_at(100, 0, cfg) - 1e-3 * 0.995 ** 100) <= 1e-12


class _FixedNet:
    # observations of (2, 2, 9) grids and 4 aux features
    grid_shape, aux_dim, dtype = (2, 2, 9), 4, np.dtype(np.float64)

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)
        self.n_actions = len(self.row)

    def forward(self, grids, aux, weights=None):
        return np.tile(self.row, (grids.shape[0], 1))


def test_07_learning_stack_numerics():
    with _verdict(7):
        # analytic gradients vs central differences, float64 throughout
        net = QNet((3, 4, 2), 3, 5, np.random.default_rng(0),
                   conv1=3, conv2=4, hidden=8, dtype=np.float64)
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(3, 3, 4, 2))
        aux = rng.normal(size=(3, 3))
        dq = rng.normal(size=(3, 5))

        def loss():
            return float(np.sum(net.forward(grid, aux) * dq))

        _, cache = net.forward_cached(grid, aux)
        grads = net.backward(cache, dq)
        eps = 1e-6
        worst = 0.0
        for name, p in net.params.items():
            flat = p.reshape(-1)
            for i in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                keep = flat[i]
                flat[i] = keep + eps
                up = loss()
                flat[i] = keep - eps
                dn = loss()
                flat[i] = keep
                fd = (up - dn) / (2 * eps)
                an = grads[name].reshape(-1)[i]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
        assert worst < 1e-4, f"gradient mismatch {worst}"

        # dueling identity: mean_a Q(s, a) == V(s)
        q, cache = net.forward_cached(grid, aux)
        v = cache[-1] @ net.params["wv"] + net.params["bv"]
        assert np.max(np.abs(q.mean(axis=1, keepdims=True) - v)) <= 1e-9

        # double-Q target: online argmax (action 1), target price 20
        obs = Observation(np.zeros((2, 2, 9)), np.zeros(4))
        replay = ReplayBuffer(1, _FixedNet([5.0, 20.0, 7.0]), None)  # the target's prices
        replay.push(Transition(obs, 0, 1.0, obs, False, False, np.ones(3, dtype=bool)))
        batch = replay.sample(1, np.random.default_rng(0), 2.0)
        q_next = np.array([[0.1, 0.9, 0.3]])  # the online net's Q on the next state
        y = td_targets(batch, q_next, gamma=0.95)
        assert y[0] == pytest.approx(1.0 + 0.95 * 20.0, abs=1e-12)
        assert y[0] == pytest.approx(20.0, abs=1e-12)


def test_08_replay_prioritizes_entangling_transitions():
    with _verdict(8):
        obs = Observation(np.zeros((2, 2, 9)), np.zeros(4))
        buf = ReplayBuffer(2000, _FixedNet(np.zeros(5)), None)
        for i in range(2000):  # exactly half entangling, actions 0-999
            buf.push(Transition(obs, i, 0.0, obs, False, i < 1000,
                                np.ones(5, dtype=bool)))
        rng = np.random.default_rng(7)
        hits = total = 0
        while total < 100_000:
            batch = buf.sample(32, rng, entangling_weight=2.0)
            hits += int(np.count_nonzero(batch.action < 1000))  # the entangling ones
            total += len(batch)
        frac = hits / total
        assert abs(frac - 2 / 3) <= 0.01, f"entangling frequency {frac:.4f}"


def test_09_training_smoke_learns_sensor_circuits():
    with _verdict(9):
        t0 = time.perf_counter()
        env_cfg = EnvConfig(n_qubits=5, max_gates=30, max_steps_per_episode=30,
                            shots=0, backend=SV)
        result = train(AgentConfig(), env_cfg, [ghz(5)], episodes=50, seed=0)
        elapsed = time.perf_counter() - t0
        best = result.best_record
        returns = [row["return"] for row in result.episode_rows]
        first10 = float(np.mean(returns[:10]))
        last10 = float(np.mean(returns[-10:]))
        assert best.entropy_norm >= 0.7, f"entropy {best.entropy_norm:.4f}"
        assert best.qfi_norm >= 0.8, f"qfi {best.qfi_norm:.4f}"
        assert last10 > first10, f"returns did not improve: {first10:.4f} -> {last10:.4f}"
        assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_10_measurement_noise_statistics():
    with _verdict(10):
        params = NoiseParams()  # p_meas = 0.02
        shots = 5000
        counts = sample_counts(Circuit(5), SV, shots, seed=0, params=params)
        frac = counts.get("00000", 0) / shots
        expect = 0.98 ** 5
        sigma = math.sqrt(expect * (1.0 - expect) / shots)
        assert abs(frac - expect) <= 3 * sigma, f"{frac:.5f} vs {expect:.5f}"
        # without noise, sampling is exact and reproducible
        a = sample_counts(Circuit(5), SV, shots, seed=0, params=None)
        b = sample_counts(Circuit(5), SV, shots, seed=0, params=None)
        assert a == b == {"00000": shots}


def test_11_cli_training_is_byte_deterministic(tmp_path, capsys):
    with _verdict(11):
        cfg = {
            "episodes": 3,
            "seed": 13,
            "env": {"n_qubits": 3, "max_gates": 12, "max_steps_per_episode": 8,
                    "shots": 256, "backend": "mps"},
            "agent": {"memory_size": 64, "batch_size": 8},
        }
        outputs = []
        for tag in ("a", "b"):
            run_cfg = dict(cfg, output_dir=f"run_{tag}")
            path = tmp_path / f"{tag}.json"
            path.write_text(json.dumps(run_cfg), encoding="utf-8")
            assert cli_main(["train", "--config", str(path)]) == 0
            outputs.append(tmp_path / f"run_{tag}")
        for name in ("episodes.csv", "steps.csv"):
            rows = []
            for out in outputs:
                with open(out / name, newline="") as fh:
                    table = list(csv.reader(fh))
                if "wall_time_s" in table[0]:
                    drop = table[0].index("wall_time_s")
                    table = [r[:drop] + r[drop + 1:] for r in table]
                rows.append(table)
            assert rows[0] == rows[1], f"{name} differs between runs"
        assert (outputs[0] / "final_circuit.qc").read_bytes() == \
            (outputs[1] / "final_circuit.qc").read_bytes()
