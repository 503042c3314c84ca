"""Figures of merit: ratios, reward, entropy aggregate, parameter-shift QFI."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsopt.backend import BackendSpec
from qsopt.circuit import Circuit, ghz
from qsopt.metrics import (
    MetricDeltas,
    MetricsRecord,
    QfiUndefinedError,
    RewardWeights,
    bell_unit_entropies,
    entropy_norm,
    evaluate,
    normalized_entropy,
    qfi,
    reduction_ratio,
    reward,
    rotation_positions,
    shift_angle,
)
from qsopt.mps import run as mps_run
from qsopt.noise import NoiseParams
from qsopt.statevector import run as sv_run

SV = BackendSpec(kind="statevector")
MPS = BackendSpec(kind="mps")


# --- ratios and reward ----------------------------------------------------

def test_depth_and_gate_ratios():
    assert reduction_ratio(7, 5) == pytest.approx(2 / 7)
    assert reduction_ratio(74, 68) == pytest.approx(6 / 74)
    assert reduction_ratio(5, 7) == pytest.approx(-0.4)  # growth goes negative
    assert reduction_ratio(0, 3) == 0.0
    assert reduction_ratio(0, 0) == 0.0


def test_reward_weighted_sum():
    deltas = MetricDeltas(qfi=0.5, depth=0.2857, entropy=0.41, gates=0.0811)
    r = reward(deltas, RewardWeights())
    assert r == pytest.approx(0.4 * 0.5 + 0.2 * 0.2857 + 0.3 * 0.41 + 0.1 * 0.0811)
    assert r == pytest.approx(0.38825, abs=1e-10)


def test_reward_custom_weights():
    deltas = MetricDeltas(1.0, 1.0, 1.0, 1.0)
    assert reward(deltas, RewardWeights(0.25, 0.25, 0.25, 0.25)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        RewardWeights(qfi=math.inf)


def test_record_deltas():
    base = MetricsRecord(0.52, 0.41, (0.4, 0.4), depth=12, gate_count=40)
    out = MetricsRecord(0.91, 0.68, (0.7, 0.7), depth=9, gate_count=35)
    d = out.deltas_vs(base)
    assert d.qfi == pytest.approx(0.39)
    assert d.entropy == pytest.approx(0.27)
    assert d.depth == pytest.approx(3 / 12)
    assert d.gates == pytest.approx(5 / 40)


# --- entropy aggregate ----------------------------------------------------

def test_normalized_entropy_ghz():
    # ghz(4): all bonds at 1 bit, caps min(k, n-k) = (1, 2, 1)
    assert normalized_entropy([1.0, 1.0, 1.0], 4) == pytest.approx(5 / 6)
    # ghz(2): single bond, cap 1
    assert normalized_entropy([1.0], 2) == pytest.approx(1.0)


def test_normalized_entropy_chi_cap():
    # chi_max = 2 caps every bond at one bit regardless of position
    assert normalized_entropy([1.0, 1.0, 1.0], 4, chi_max=2) == pytest.approx(1.0)
    assert normalized_entropy([2.0, 2.0, 2.0, 2.0, 2.0], 6, chi_max=4) == pytest.approx(1.0)


def test_normalized_entropy_edges():
    assert normalized_entropy([], 1) == 0.0
    assert normalized_entropy([0.0, 0.0], 3) == 0.0
    # clamped even if rounding pushes past 1
    assert normalized_entropy([1.0 + 1e-9], 2) == 1.0


def test_entropy_norm_dispatches_on_state():
    assert entropy_norm(sv_run(ghz(4))) == pytest.approx(5 / 6)
    assert entropy_norm(mps_run(ghz(4), trunc_tol=0.0)) == pytest.approx(5 / 6)
    # an mps with small chi uses the log2(chi) cap
    state = mps_run(ghz(4), chi_max=2, trunc_tol=0.0)
    assert entropy_norm(state) == pytest.approx(1.0)


def test_bell_unit_clamp():
    assert bell_unit_entropies([0.3, 1.0, 2.0]) == [0.3, 1.0, 1.0]


# --- parameter shift ------------------------------------------------------

def test_rotation_positions_and_shift():
    c = Circuit(2).h(0).rx(0, 0.5).cx(0, 1).rz(1, 1.0)
    assert rotation_positions(c) == [1, 3]
    shifted = shift_angle(c, 1, math.pi / 2)
    assert shifted.gates[1].angle == pytest.approx(0.5 + math.pi / 2)
    assert c.gates[1].angle == 0.5  # original untouched
    assert shifted.gates[3].angle == 1.0


def test_qfi_probe_is_maximal():
    c = Circuit(1).rx(0, math.pi / 2)
    assert qfi(c, 0, SV) == pytest.approx(1.0, abs=1e-12)
    # the shifted distributions are degenerate, so shots add no variance
    assert qfi(c, 5000, SV, seed=3) == pytest.approx(1.0, abs=1e-12)
    assert qfi(c, 2000, MPS, seed=3) == pytest.approx(1.0, abs=1e-12)


def test_qfi_z_rotations_are_invisible():
    c = Circuit(2).rz(0, 0.7).rz(1, 1.3)
    assert qfi(c, 0, SV) == pytest.approx(0.0, abs=1e-12)


def test_qfi_averages_over_parameters():
    # one maximal probe plus one dead rz averages to 1/2
    c = Circuit(1).rx(0, math.pi / 2).rz(0, 0.4)
    assert qfi(c, 0, SV) == pytest.approx(0.5, abs=1e-12)


def test_qfi_errors():
    with pytest.raises(QfiUndefinedError):
        qfi(ghz(3), 0, SV)
    with pytest.raises(ValueError):
        qfi(Circuit(1).rx(0, 0.5), 0, MPS)  # exact mode needs dense amplitudes
    with pytest.raises(ValueError):
        qfi(Circuit(1).rx(0, 0.5), -1, SV)


def test_exact_qfi_rejects_noise():
    c = Circuit(1).rx(0, 0.5)
    with pytest.raises(ValueError, match="noise"):
        qfi(c, 0, SV, NoiseParams())
    # None is no noise
    assert qfi(c, 0, SV, None) == qfi(c, 0, SV)


def test_qfi_shot_mode_is_seeded():
    c = ghz(3).rx(1, 0.8)
    a = qfi(c, 400, SV, seed=12)
    b = qfi(c, 400, SV, seed=12)
    assert a == b
    assert 0.0 <= a <= 1.0


def test_qfi_is_independent_of_the_hash_seed():
    # string hashing, and so the order of a set of bitstrings, changes with
    # PYTHONHASHSEED; the estimate must not
    code = ("from qsopt.backend import BackendSpec; from qsopt.circuit import ghz; "
            "from qsopt.metrics import qfi; from qsopt.noise import NoiseParams; "
            "c = ghz(4).rx(0, 0.7).rx(2, 1.9).rz(3, 0.4); "
            "print(repr(qfi(c, 256, BackendSpec(kind='statevector'), NoiseParams(), seed=3)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        outs.append(run.stdout.strip())
    assert outs[0] == outs[1]
    assert 0.0 < float(outs[0]) <= 1.0


def test_qfi_shot_estimate_tracks_exact():
    c = ghz(2).rx(0, math.pi / 4)
    exact = qfi(c, 0, SV)
    sampled = qfi(c, 20000, SV, seed=0)
    assert sampled == pytest.approx(exact, abs=0.05)


# --- combined evaluation --------------------------------------------------

def test_evaluate_ghz_baseline():
    rec = evaluate(ghz(5), SV, shots=0)
    assert rec.qfi_norm == 0.0
    assert "qfi_undefined" in rec.flags
    assert rec.entropy_norm == pytest.approx(0.75)
    assert rec.bond_entropies == pytest.approx((1.0, 1.0, 1.0, 1.0))
    assert rec.depth == 5 and rec.gate_count == 5


def test_evaluate_with_probe():
    rec = evaluate(ghz(3).rx(0, math.pi / 2), SV, shots=0)
    assert rec.qfi_norm == pytest.approx(1.0, abs=1e-12)
    assert rec.flags == ()
    # local rotation leaves the entanglement untouched
    assert rec.entropy_norm == pytest.approx(1.0)


def test_evaluate_single_qubit():
    rec = evaluate(Circuit(1).rx(0, 0.5), SV, shots=0)
    assert rec.flags == ("no_bonds",)
    assert rec.bond_entropies == ()
    assert rec.entropy_norm == 0.0


def test_evaluate_mps_uses_chi_cap():
    spec = BackendSpec(kind="mps", chi_max=2)
    rec = evaluate(ghz(4), spec, shots=100, seed=4)
    assert rec.entropy_norm == pytest.approx(1.0)
