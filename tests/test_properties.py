"""Property tests: invariants that the fixed examples only sample."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from qsopt import metrics, mps, statevector
from qsopt.circuit import Circuit, Gate, GateKind, cancel_pairs, emit, parse

# angles that make merges, full turns and cancellations likely
NICE_ANGLES = st.sampled_from([math.pi / 4, math.pi / 2, -math.pi / 2, math.pi,
                               2 * math.pi, -math.pi / 4])
ANY_ANGLE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def circuits(draw, max_qubits=6, max_gates=24, angles=ANY_ANGLE):
    n = draw(st.integers(1, max_qubits))
    kinds = [k for k in GateKind if k.n_qubits <= n]
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        if kind.n_qubits == 1:
            qubits = (draw(st.integers(0, n - 1)),)
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            qubits = (a, b + (b >= a))  # b skips a: the pair is distinct
        angle = draw(angles) if kind.has_angle else None
        gates.append(Gate(kind, qubits, angle))
    return Circuit(n, tuple(gates))


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
