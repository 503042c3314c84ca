"""Readout shared by both backends: measure_at, sample and bit_counts."""

import math
import tracemalloc

import numpy as np
import pytest

from qsopt import mps, statevector
from qsopt.circuit import Circuit, ghz, random_circuit
from qsopt.statevector import DenseState, bit_counts

BELOW_ONE = np.nextafter(1.0, 0.0)
EDGE_U = (0.0, 0.5, BELOW_ONE)


def _reference_sample(state, shots, rng):
    """The reference for dense sampling: `rng.choice` over the normalized
    probabilities, which takes one uniform per shot and inverts the CDF."""
    probs = state.probabilities()
    probs = probs / probs.sum()
    draws = rng.choice(len(probs), size=shots, p=probs)
    idx, counts = np.unique(draws, return_counts=True)
    return {format(int(i), f"0{state.n_qubits}b"): int(c) for i, c in zip(idx, counts)}


def test_bit_counts_orders_and_counts_rows():
    bits = np.array([[1, 0, 1], [0, 0, 1], [1, 0, 1], [0, 0, 0]], dtype=np.uint8)
    counts = bit_counts(bits)
    assert counts == {"000": 1, "001": 1, "101": 2}
    assert list(counts) == ["000", "001", "101"]
    assert all(type(c) is int for c in counts.values())
    assert bit_counts(bits.astype(bool)) == counts


def test_bit_counts_is_not_limited_to_64_qubits():
    bits = np.zeros((3, 80), dtype=np.uint8)
    bits[1, -1] = 1
    assert bit_counts(bits) == {"0" * 80: 2, "0" * 79 + "1": 1}


# --- edge uniforms --------------------------------------------------------

EDGE_CIRCUITS = {
    "zeros": Circuit(3),
    "ones": Circuit(3).rx(0, math.pi).rx(1, math.pi).rx(2, math.pi),
    "ghz": ghz(3),
}


@pytest.mark.parametrize("name", EDGE_CIRCUITS)
def test_readout_at_edge_uniforms_is_finite_and_agrees(name):
    c = EDGE_CIRCUITS[name]
    dense = statevector.run(c)
    exact = mps.run(c, chi_max=2 ** (c.n_qubits // 2), trunc_tol=0.0)
    stacked = mps.MpsState(c.n_qubits, chi_max=2 ** (c.n_qubits // 2), trunc_tol=0.0,
                           batch=2).run(c)
    probs = dense.probabilities()
    with np.errstate(all="raise"):
        for u in EDGE_U:
            bits = dense.measure_at(np.array([u]))
            assert np.array_equal(exact.measure_at(np.array([u])), bits), u
            assert np.array_equal(stacked.measure_at(np.full((2, 1), u)), [bits, bits]), u
            (outcome,) = bit_counts(bits)
            assert probs[int(outcome, 2)] > 0.0, u
        for state in (dense, exact):
            counts = state.sample(500, np.random.default_rng(4))
            assert sum(counts.values()) == 500
            assert all(probs[int(k, 2)] > 0.0 for k in counts)


# --- the dense sampling contract ------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_dense_sample_matches_rng_choice(seed):
    c = random_circuit(5, 30, np.random.default_rng(seed))
    state = statevector.run(c)
    for shots in (1, 7, 3000):
        got = state.sample(shots, np.random.default_rng(100 + seed))
        assert got == _reference_sample(state, shots, np.random.default_rng(100 + seed))


def test_dense_measure_once_matches_rng_choice():
    state = statevector.run(random_circuit(4, 20, np.random.default_rng(8)))
    for seed in range(20):
        (expected,) = _reference_sample(state, 1, np.random.default_rng(seed))
        assert state.measure_once(np.random.default_rng(seed)) == expected


def test_single_state_measure_at_matches_batch_rows():
    c = random_circuit(5, 30, np.random.default_rng(2))
    state = statevector.run(c)
    u = np.concatenate([EDGE_U, np.random.default_rng(3).random(500)])
    batch = DenseState(5, batch=len(u))
    batch.amps[:] = state.amps
    assert np.array_equal(state.measure_at(u), batch.measure_at(u))
    # a row axis of shots per row, on both backends
    shots = np.random.default_rng(4).random((3, 200))
    shots[:, :3] = EDGE_U
    dense_rows = DenseState(5, batch=3)
    dense_rows.amps[:] = state.amps
    single = mps.run(c, trunc_tol=0.0)
    stacked = mps.MpsState(5, trunc_tol=0.0, batch=3).run(c)
    for rows, one in ((dense_rows, state), (stacked, single)):
        bits = rows.measure_at(shots)
        assert bits.shape == (3, 200, 5)
        for r in range(3):
            assert np.array_equal(bits[r], one.measure_at(shots[r])), (one, r)
    # one uniform per row
    stacked = mps.MpsState(5, trunc_tol=0.0, batch=len(u)).run(c)
    assert np.array_equal(stacked.measure_at(u), single.measure_at(u))


def test_dense_sample_memory_stays_small():
    c = Circuit(14)
    for q in range(14):
        c = c.h(q)
    state = statevector.run(c)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        state.sample(5000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # comparing every uniform with the whole CDF would hold 5000 x 2^14 booleans (82 MB)
    assert peak < 16 * 2 ** 20
