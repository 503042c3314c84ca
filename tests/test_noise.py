"""Trajectory noise: parameter validation, event statistics, sampling."""

import math

import numpy as np
import pytest

from qsopt import noise
from qsopt.backend import BackendSpec
from qsopt.circuit import Circuit, ghz, moments, random_circuit
from qsopt.mps import MpsState
from qsopt.noise import (
    NoiseConfigError,
    NoiseParams,
    draw_events,
    run_one_trajectory,
    sample_counts,
)
from qsopt.statevector import DenseState

SV = BackendSpec(kind="statevector")
MPS_EXACT = BackendSpec(kind="mps", chi_max=64, trunc_tol=0.0)
HIGH = NoiseParams(p_meas=0.05, p_1q=0.1, p_2q=0.2, t1_us=5.0, t2_us=7.0)
# a model whose every event probability is exactly 0
ZERO = NoiseParams(p_meas=0.0, p_1q=0.0, p_2q=0.0, t1_us=math.inf, t2_us=math.inf)


def _draw(circuit, params, shots, seed):
    return draw_events(circuit, moments(circuit), params, shots, np.random.default_rng(seed))


def _within_4_sigma(hits, trials, p):
    return abs(hits - trials * p) <= 4.0 * math.sqrt(trials * p * (1.0 - p))


# --- parameters -----------------------------------------------------------

def test_defaults_are_valid():
    p = NoiseParams()
    assert p.p_meas == 0.02 and p.p_1q == 0.01 and p.p_2q == 0.03


@pytest.mark.parametrize("kwargs", [
    {"p_meas": -0.1}, {"p_1q": 1.5}, {"t1_us": 0.0}, {"dur_2q_us": -1.0},
    {"t1_us": 50.0, "t2_us": 101.0},  # t2 > 2*t1 is unphysical
    {"t1_us": math.nan},  # would turn thermal relaxation off silently
])
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(NoiseConfigError):
        NoiseParams(**kwargs)


def test_pure_dephasing_time():
    p = NoiseParams(t1_us=50.0, t2_us=70.0)
    # 1/t_phi = 1/70 - 1/100 = 3/700
    assert p.t_phi_us == pytest.approx(700.0 / 3.0)
    # t2 at the 2*t1 limit means no pure dephasing at all
    assert math.isinf(NoiseParams(t1_us=50.0, t2_us=100.0).t_phi_us)


# --- event draws ----------------------------------------------------------

def test_depolarizing_draw_statistics():
    p = NoiseParams(p_1q=0.25, p_2q=0.5)
    ev = _draw(Circuit(5).h(3).cx(1, 4), p, 4000, 0)
    one, two = ev.pauli[:, 0] > 0, ev.pauli[:, 1] > 0
    assert abs(one.mean() - 0.25) < 0.03
    assert abs(two.mean() - 0.5) < 0.03
    assert set(ev.pauli[two, 1].tolist()) == {1, 2, 3}  # x, y, z
    assert set(ev.target[two, 1].tolist()) == {1, 4}
    assert set(ev.target[one, 0].tolist()) == {3}


def test_depolarizing_disabled_is_empty():
    ev = _draw(Circuit(1).h(0), ZERO, 100, 0)
    assert not ev.pauli.any()
    assert not (ev.reset.any() or ev.phase.any() or ev.flips.any())


def test_relaxation_draw_statistics():
    # one 1q gate: a single moment that lasts dur_1q_us
    duration = 5.0
    p = NoiseParams(t1_us=50.0, t2_us=70.0, dur_1q_us=duration)
    p_amp = 1.0 - math.exp(-duration / 50.0)
    p_phase = 1.0 - math.exp(-duration / p.t_phi_us)
    n_draws = 5000
    ev = _draw(Circuit(1).h(0), p, n_draws, 1)
    assert abs(ev.reset.mean() - p_amp) < 0.02
    assert abs(ev.phase.mean() - p_phase) < 0.02


def test_relaxation_no_dephasing_at_t2_limit():
    p = NoiseParams(t1_us=50.0, t2_us=100.0, dur_1q_us=10.0)
    ev = _draw(Circuit(2).h(0), p, 2000, 2)
    assert ev.reset.any()
    assert not ev.phase.any()


def test_flip_measured_bits():
    assert not _draw(Circuit(4), NoiseParams(p_meas=0.0), 100, 3).flips.any()
    assert _draw(Circuit(4), NoiseParams(p_meas=1.0), 100, 3).flips.all()
    flips = _draw(Circuit(1), NoiseParams(p_meas=0.1), 5000, 3).flips
    assert abs(flips.mean() - 0.1) < 0.02


def test_event_frequencies_match_probabilities():
    # moments: [rx0, h1, rz2], [cx01], [cz12, h0], [rx2]
    c = Circuit(3).rx(0, 0.4).h(1).rz(2, 1.0).cx(0, 1).cz(1, 2).h(0).rx(2, 0.2)
    p = NoiseParams(p_1q=0.05, p_2q=0.15, t1_us=4.0, t2_us=6.0, dur_1q_us=0.2, dur_2q_us=0.5)
    shots = 20000
    ev = _draw(c, p, shots, 4)
    for idx, gate in enumerate(c.gates):
        p_gate = p.p_2q if gate.kind.n_qubits == 2 else p.p_1q
        hit = ev.pauli[:, idx] > 0
        assert _within_4_sigma(hit.sum(), shots, p_gate), (idx, hit.mean())
        for code in (1, 2, 3):
            assert _within_4_sigma((ev.pauli[hit, idx] == code).sum(), hit.sum(), 1 / 3)
        if gate.kind.n_qubits == 2:
            on_first = ev.target[hit, idx] == gate.qubits[0]
            assert _within_4_sigma(on_first.sum(), hit.sum(), 0.5)
    for m, duration in enumerate((0.2, 0.5, 0.5, 0.2)):
        p_amp = 1.0 - math.exp(-duration / p.t1_us)
        p_phase = 1.0 - math.exp(-duration / p.t_phi_us)
        trials = shots * c.n_qubits
        assert _within_4_sigma(ev.reset[:, m].sum(), trials, p_amp), m
        assert _within_4_sigma(ev.phase[:, m].sum(), trials, p_phase), m
    assert _within_4_sigma(ev.flips.sum(), shots * c.n_qubits, p.p_meas)
    assert 0.0 <= ev.meas_u.min() and ev.meas_u.max() < 1.0


# --- trajectories ---------------------------------------------------------

def test_noiseless_trajectory_is_exact():
    state = run_one_trajectory(ghz(3), SV, ZERO, np.random.default_rng(0))
    assert state.amplitude("000") == pytest.approx(1 / math.sqrt(2))


def test_trajectory_runs_on_both_backends():
    p = NoiseParams()
    for spec in (SV, BackendSpec(kind="mps")):
        state = run_one_trajectory(ghz(4), spec, p, np.random.default_rng(7))
        assert state.norm() == pytest.approx(1.0)


def test_sample_counts_validation():
    with pytest.raises(ValueError):
        sample_counts(ghz(2), SV, 0, 0)


def test_sample_counts_disabled_fast_path():
    counts = sample_counts(ghz(3), SV, 500, 42, None)
    assert sum(counts.values()) == 500
    assert set(counts) <= {"000", "111"}
    # None is the default
    assert sample_counts(ghz(3), SV, 500, 42) == counts


def test_sample_counts_seeded_determinism():
    p = NoiseParams()
    a = sample_counts(ghz(3), SV, 60, 5, p)
    b = sample_counts(ghz(3), SV, 60, 5, p)
    assert a == b
    c = sample_counts(ghz(3), SV, 60, 6, p)
    assert sum(c.values()) == 60


def test_measurement_error_alone():
    # empty circuit: no gates, no moments, so only readout flips act
    p = NoiseParams(p_meas=0.1)
    counts = sample_counts(Circuit(3), SV, 3000, 11, p)
    frac_clean = counts.get("000", 0) / 3000
    expected = 0.9 ** 3
    assert abs(frac_clean - expected) < 0.03


def test_noise_spreads_ghz_support():
    # depolarizing + relaxation must populate outcomes outside {000, 111}
    p = NoiseParams(p_1q=0.2, p_2q=0.3)
    counts = sample_counts(ghz(3), SV, 400, 1, p)
    assert sum(counts.values()) == 400
    assert set(counts) - {"000", "111"}


# --- the batched engine ---------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dense_batch_matches_mps_counts(seed):
    rng = np.random.default_rng(100 + seed)
    n = 2 + seed % 4  # 2..5 qubits
    c = random_circuit(n, 12, rng)
    dense = sample_counts(c, SV, 400, seed, HIGH)
    assert sum(dense.values()) == 400
    assert sample_counts(c, MPS_EXACT, 400, seed, HIGH) == dense


def test_batch_size_does_not_change_counts(monkeypatch):
    c = ghz(4).rx(2, 0.7)
    whole = sample_counts(c, SV, 300, 9, HIGH)
    monkeypatch.setattr(noise, "BATCH_AMPLITUDES", 16 * 7)  # 7 rows of 4 qubits
    assert sample_counts(c, SV, 300, 9, HIGH) == whole


def test_single_shot_matches_trajectory_in_distribution():
    c = ghz(3).rx(1, 0.9)
    n_seeds = 3000
    batched, looped = {}, {}
    for seed in range(n_seeds):
        (bits,) = sample_counts(c, SV, 1, seed, HIGH)
        batched[bits] = batched.get(bits, 0) + 1
        rng = np.random.default_rng(10_000 + seed)
        state = run_one_trajectory(c, SV, HIGH, rng)
        flips = rng.random(3) < HIGH.p_meas
        bits = "".join(str(int(b) ^ int(f)) for b, f in zip(state.measure_once(rng), flips))
        looped[bits] = looped.get(bits, 0) + 1
    for bits in batched.keys() | looped.keys():
        a, b = batched.get(bits, 0), looped.get(bits, 0)
        pooled = (a + b) / (2 * n_seeds)
        sigma = math.sqrt(2 * n_seeds * pooled * (1.0 - pooled))
        assert abs(a - b) <= 4.0 * sigma, (bits, a, b)


# u = 0 and the largest u below 1 are the draws nearest a wrong branch
EDGE_U = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], np.random.default_rng(6).random(998)])


@pytest.mark.parametrize("ones", [False, True], ids=["zeros", "ones"])
def test_batched_reset_on_basis_states_stays_finite(ones):
    # p1 is exactly 0 or 1 on |0...0> and |1...1>
    state = DenseState(3, batch=len(EDGE_U))
    for q in range(3) if ones else ():
        state.apply_pauli("x", q)
    with np.errstate(all="raise"):
        for q in range(3):
            assert (state.measure_reset0(q, EDGE_U) == int(ones)).all()
    assert np.isfinite(state.amps).all()
    assert np.abs(state.amps[:, 0]) == pytest.approx(np.ones(len(EDGE_U)))


@pytest.mark.parametrize("ones", [False, True], ids=["zeros", "ones"])
@pytest.mark.parametrize("make", [DenseState, MpsState], ids=["statevector", "mps"])
def test_reset_on_basis_states_stays_finite(make, ones):
    for u in EDGE_U[:200]:
        state = make(3)
        for q in range(3) if ones else ():
            state.apply_pauli("x", q)
        with np.errstate(all="raise"):
            for q in range(3):
                assert state.measure_reset0(q, u) == int(ones)
        assert state.norm() == pytest.approx(1.0)
        assert abs(state.amplitude("000")) == pytest.approx(1.0)


# --- density rows ---------------------------------------------------------

def _chi2_999(df):
    """The 99.9th percentile of chi^2 at df degrees of freedom, by the
    Wilson-Hilferty approximation (within 1% from df = 3)."""
    z = 3.090232  # the standard normal's 99.9th percentile
    return df * (1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))) ** 3


DISTRIBUTION_CIRCUITS = [
    ghz(3).rx(1, 0.9),
    Circuit(3).h(0).cx(0, 2).rz(2, 0.7).h(2).cz(1, 2).rx(1, 1.3).swap(0, 1),
    random_circuit(3, 12, np.random.default_rng(21)),
]


@pytest.mark.parametrize("params", [NoiseParams(), HIGH], ids=["default", "high"])
def test_trajectory_counts_follow_the_density_rows(params):
    # trajectories and density rows model the same channels: 50k trajectory
    # shots must pass a chi^2 test against the density row's distribution
    shots = 50_000
    for i, c in enumerate(DISTRIBUTION_CIRCUITS):
        counts = sample_counts(c, SV, shots, 300 + i, params)
        observed = np.array([counts.get(format(k, "03b"), 0) for k in range(8)])
        probs = noise.density_probabilities(c, SV, params, noise.whole_runs(c, 1), 1)[0]
        expected = shots * probs
        rare = expected < 5.0  # pooled into one bin
        if rare.any():
            observed = np.append(observed[~rare], observed[rare].sum())
            expected = np.append(expected[~rare], expected[rare].sum())
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2 < _chi2_999(len(observed) - 1), (i, chi2, len(observed))
