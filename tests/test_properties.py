"""Property tests: invariants that the fixed examples only sample."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from kraus_reference import shifted_probabilities
from qsopt import metrics, mps, noise, statevector
from qsopt.backend import BackendSpec
from qsopt.circuit import (Circuit, Gate, GateKind, cancel_pairs, emit, ghz, parse,
                           random_circuit)
from qsopt.env import INVALID_PENALTY, CircuitEnv, EnvConfig
from qsopt.noise import NoiseParams

# angles that make merges, full turns and cancellations likely
NICE_ANGLES = st.sampled_from([math.pi / 4, math.pi / 2, -math.pi / 2, math.pi,
                               2 * math.pi, -math.pi / 4])
ANY_ANGLE = st.floats(allow_nan=False, allow_infinity=False)


def _draw_gate(draw, n, angles) -> Gate:
    kind = draw(st.sampled_from([k for k in GateKind if k.n_qubits <= n]))
    if kind.n_qubits == 1:
        qubits = (draw(st.integers(0, n - 1)),)
    else:
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 2))
        qubits = (a, b + (b >= a))  # b skips a: the pair is distinct
    angle = draw(angles) if kind.has_angle else None
    return Gate(kind, qubits, angle)


@st.composite
def circuits(draw, max_qubits=6, max_gates=24, angles=ANY_ANGLE, min_qubits=1):
    n = draw(st.integers(min_qubits, max_qubits))
    return Circuit(n, tuple(_draw_gate(draw, n, angles)
                            for _ in range(draw(st.integers(0, max_gates)))))


FINITE_CIRCUITS = circuits(angles=st.floats(-10.0, 10.0))


@given(FINITE_CIRCUITS)
def test_mps_equals_dense_when_chi_is_not_limiting(c):
    exact = mps.run(c, chi_max=2 ** (c.n_qubits // 2), trunc_tol=0.0)
    assert np.max(np.abs(exact.to_dense() - statevector.run(c).amps)) <= 1e-9


@given(circuits())
def test_parse_emit_round_trip(c):
    assert parse(emit(c)) == c


@given(circuits(max_qubits=4, angles=NICE_ANGLES))
def test_cancel_pairs_preserves_state_up_to_phase(c):
    before = statevector.run(c).amps
    after = statevector.run(cancel_pairs(c)).amps
    assert abs(np.vdot(before, after)) == pytest.approx(1.0, abs=1e-9)


@given(FINITE_CIRCUITS, st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["statevector", "mps"]))
def test_sample_counts_sum_to_shots_inside_support(c, shots, seed, kind):
    state = statevector.run(c) if kind == "statevector" else mps.run(c)
    counts = state.sample(shots, np.random.default_rng(seed))
    assert sum(counts.values()) == shots
    assert all(abs(state.amplitude(k)) > 0.0 for k in counts)


FREQUENCY = st.floats(0.0, 1.0)


@given(st.integers(1, 16).flatmap(lambda w: st.tuples(
    st.lists(FREQUENCY, min_size=w, max_size=w),
    st.lists(FREQUENCY, min_size=w, max_size=w),
    st.lists(st.integers(0, w), max_size=8))))
def test_unseen_outcomes_leave_the_shift_statistic_unchanged(pair):
    # an outcome neither shifted circuit saw is a column with P+ = P- = 0
    # anywhere in the sorted outcomes; the QFI counts samples over the
    # union of every pair's outcomes and relies on such columns adding +0.0
    plus, minus, at = pair
    p, m = np.array(plus), np.array(minus)
    want = metrics._shift_statistic(p, m)
    got = metrics._shift_statistic(np.insert(p, at, 0.0), np.insert(m, at, 0.0))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@st.composite
def noise_models(draw):
    """Enabled noise parameters, their edges included: certain depolarizing
    and readout flips, and T2 = 2*T1 (no pure dephasing)."""
    def probability():
        return draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))

    t1 = draw(st.floats(0.5, 100.0))
    t2 = draw(st.one_of(st.just(2.0 * t1), st.floats(0.1, 2.0 * t1)))
    return NoiseParams(p_meas=probability(), p_1q=probability(), p_2q=probability(),
                       t1_us=t1, t2_us=t2, dur_1q_us=draw(st.floats(0.01, 5.0)),
                       dur_2q_us=draw(st.floats(0.01, 5.0)))


@st.composite
def rotated_circuits(draw):
    """Circuits on 1-4 qubits with at least one rotation."""
    c = draw(circuits(max_qubits=4, max_gates=8, angles=st.floats(-10.0, 10.0)))
    return c.rx(draw(st.integers(0, c.n_qubits - 1)), draw(st.floats(-10.0, 10.0)))


@given(rotated_circuits(), noise_models())
def test_density_rows_equal_the_kraus_reference(c, params):
    # the QFI's layout of shifted circuits: rotation k shifted on rows 2k, 2k+1
    positions = metrics.rotation_positions(c)
    rows = 2 * len(positions)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = noise.density_probabilities(c, BackendSpec(kind="statevector"), params,
                                          metrics._row_runs(c, positions, 1), rows)
    assert got.shape == (rows, 2 ** c.n_qubits)
    assert np.isfinite(got).all() and (got >= 0.0).all()
    assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(got - shifted_probabilities(c, params)).max() <= 1e-12


# a small gate budget makes adds and injections run out, so episodes mix
# valid and invalid steps
SMALL_ENV = EnvConfig(n_qubits=3, max_gates=6, max_steps_per_episode=5, shots=0,
                      backend=BackendSpec(kind="statevector"))


@given(st.lists(st.integers(0, len(CircuitEnv(SMALL_ENV).catalog) - 1),
                min_size=SMALL_ENV.max_steps_per_episode,
                max_size=SMALL_ENV.max_steps_per_episode))
def test_return_telescopes_with_invalid_steps(actions):
    env = CircuitEnv(SMALL_ENV)
    env.reset(ghz(3).rx(0, 0.3), seed=0)
    assert env.objective == 0.0
    total, invalid = 0.0, 0
    for action in actions:
        _, r, done, info = env.step(action)
        total += r
        invalid += info["invalid"]
    assert done and env.objective == info["objective"]
    assert total == pytest.approx(env.objective + INVALID_PENALTY * invalid, abs=1e-12)


MASK_ENV = EnvConfig(n_qubits=3, max_gates=6, max_steps_per_episode=50, shots=0,
                     backend=BackendSpec(kind="statevector"))
N_MASK_ACTIONS = len(CircuitEnv(MASK_ENV).catalog)


@given(circuits(min_qubits=3, max_qubits=3, max_gates=MASK_ENV.max_gates, angles=NICE_ANGLES),
       st.lists(st.integers(0, N_MASK_ACTIONS - 1), max_size=3),
       st.floats(0.0, 1.0))
def test_valid_mask_matches_the_edits_it_allows(c, actions, threshold):
    # env states: a drawn circuit, a few drawn steps, a drawn threshold
    env = CircuitEnv(MASK_ENV)
    env.reset(c, seed=0)
    for action in actions:
        env.step(action)
    env.threshold = threshold
    built = [env.apply_action(env.circuit, a) is not None for a in env.catalog]
    assert env.valid_mask().tolist() == built


# the env's carried rows against a fresh evaluation of its circuit: exact
# and sampled QFI, dense and MPS, and a noisy QFI (which carries only the
# base row); 3 qubits and a budget of 12 leave room for injections
ROW_ENVS = {
    "statevector-exact": EnvConfig(n_qubits=3, max_gates=12, shots=0,
                                   backend=BackendSpec(kind="statevector")),
    "statevector-sampled": EnvConfig(n_qubits=3, max_gates=12, shots=16,
                                     backend=BackendSpec(kind="statevector")),
    "mps-sampled": EnvConfig(n_qubits=3, max_gates=12, shots=16,
                             backend=BackendSpec(kind="mps", chi_max=2)),
    "statevector-noisy": EnvConfig(n_qubits=3, max_gates=12, shots=4,
                                   backend=BackendSpec(kind="statevector"),
                                   noise=NoiseParams()),
    # 2^3 <= 8 shots: the noisy QFI runs density rows
    "statevector-noisy-density": EnvConfig(n_qubits=3, max_gates=12, shots=8,
                                           backend=BackendSpec(kind="statevector"),
                                           noise=NoiseParams()),
}


@pytest.mark.parametrize("name", ROW_ENVS)
@given(circuits(min_qubits=3, max_qubits=3, max_gates=6, angles=NICE_ANGLES),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8),
       st.floats(0.0, 1.0))
def test_carried_rows_give_the_record_of_a_fresh_evaluation(name, c, picks, threshold):
    cfg = ROW_ENVS[name]
    env = CircuitEnv(cfg)
    env.reset(c, seed=7)
    env.threshold = threshold  # high thresholds make edits inject
    spawned = 1  # reset's child
    for pick in picks:
        valid = np.flatnonzero(env.valid_mask())
        _, _, _, info = env.step(int(valid[int(pick * len(valid))]))
        spawned += 1 + info["injected"]  # an injection skips its edit's child
        seed = np.random.SeedSequence(7).spawn(spawned)[-1]
        want = metrics.evaluate(env.circuit, cfg.backend, cfg.shots, cfg.noise, seed)
        got = info["record"]
        if cfg.backend.kind == "statevector":
            assert repr(got) == repr(want)
        else:
            assert (got.depth, got.gate_count, got.flags) == (want.depth, want.gate_count,
                                                              want.flags)
            assert got.qfi_norm == pytest.approx(want.qfi_norm, rel=1e-12, abs=1e-12)
            assert got.bond_entropies == pytest.approx(want.bond_entropies, rel=1e-12,
                                                       abs=1e-12)
            assert got.entropy_norm == pytest.approx(want.entropy_norm, rel=1e-12, abs=1e-12)


# edits that Rows.update meets: appends (rotations among them) and edits
# that are not appends, among them a change of qubit count
EDITS = ("append", "remove", "replace", "swap", "qubits", "none")


def _seeded_circuit(draw, n, max_gates):
    """From a drawn seed, an RX on every qubit, then a `random_circuit` of
    up to max_gates gates on n qubits: more entangled than hypothesis'
    small examples, so that a chi-2 MPS truncates."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    start = tuple(Gate(GateKind.RX, (q,), float(rng.uniform(0.0, 2 * math.pi)))
                  for q in range(n))
    return Circuit(n, start + random_circuit(n, draw(st.integers(0, max_gates)), rng).gates)


@st.composite
def edit_chains(draw, max_qubits=5, max_gates=16):
    """A circuit and the circuits that 1 to 6 random edits make of it."""
    angles = st.floats(-10.0, 10.0)
    chain = [_seeded_circuit(draw, draw(st.integers(1, max_qubits)), max_gates)]
    for _ in range(draw(st.integers(1, 6))):
        c = chain[-1]
        n, gates = c.n_qubits, list(c.gates)
        edit = draw(st.sampled_from(EDITS))
        if edit == "append":
            gates += [_draw_gate(draw, n, angles) for _ in range(draw(st.integers(1, 4)))]
        elif edit == "qubits":
            n = draw(st.integers(1, max_qubits).filter(lambda m: m != c.n_qubits))
            gates = list(_seeded_circuit(draw, n, max_gates).gates)
        elif edit != "none" and gates:
            i = draw(st.integers(0, len(gates) - 1))
            if edit == "remove":
                del gates[i]
            elif edit == "replace":
                gates[i] = _draw_gate(draw, n, angles)
            else:
                j = draw(st.integers(0, len(gates) - 1))
                gates[i], gates[j] = gates[j], gates[i]
        chain.append(Circuit(n, tuple(gates)))
    return chain


def _assert_same_state(got, want):
    if isinstance(want, statevector.DenseState):
        assert got.amps.shape == want.amps.shape
        if want.n_qubits == 1:
            # a gate on one row of one qubit is a (2, 2) x (2, 1) product,
            # which BLAS may run as a matrix-vector product that rounds
            # differently from a batch's; no env has fewer than 2 qubits
            assert np.allclose(got.amps, want.amps, rtol=0.0, atol=1e-12)
        else:
            assert np.array_equal(got.amps, want.amps)
    else:
        assert len(got.tensors) == len(want.tensors)
        for a, b in zip(got.tensors, want.tensors):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert np.array_equal(got.total_discarded, want.total_discarded)


# the MPS truncates: chi 1 as soon as a row entangles, chi 2 from 4 qubits
# on, where the middle bond can reach 4, and then rows of rank 1 and 2 mix
UPDATE_SPECS = {"statevector": BackendSpec(kind="statevector"),
                "mps-chi1": BackendSpec(kind="mps", chi_max=1),
                "mps-chi2": BackendSpec(kind="mps", chi_max=2)}


@pytest.mark.parametrize("shifted", [True, False], ids=["shifted", "base-only"])
@pytest.mark.parametrize("name", UPDATE_SPECS)
@given(edit_chains())
def test_updated_rows_equal_fresh_rows(name, shifted, chain):
    spec = UPDATE_SPECS[name]
    rows = metrics.Rows(chain[0], spec, shifted)
    for old, new in zip(chain, chain[1:]):
        prefix = (new.n_qubits == old.n_qubits and len(new) >= len(old)
                  and all(a == b for a, b in zip(old.gates, new.gates)))
        assert rows.update(new) == prefix
        fresh = metrics.Rows(new, spec, shifted)
        assert rows.circuit == new and rows.rotations == fresh.rotations
        _assert_same_state(rows.state, fresh.state)
