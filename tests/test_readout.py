"""Readout shared by both backends: measure_at, sample and bit_counts."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsopt import metrics, mps, statevector
from qsopt.backend import BackendSpec
from qsopt.circuit import Circuit, Gate, GateKind, ghz, random_circuit
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


def _string_keys(bits):
    """The reference keys: each row as an n-byte ASCII string, qubit 0 first."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.ascontiguousarray(bits + ord("0")).view(f"S{bits.shape[-1]}")[:, 0]


def _string_distinct(bits):
    """`distinct_outcomes` by a sort of the string keys."""
    _, first, rank = np.unique(_string_keys(bits), return_index=True, return_inverse=True)
    return first, rank


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_bit_counts_match_string_keys(n):
    rng = np.random.default_rng(n)
    pool = (rng.random((12, n)) < 0.5).astype(np.uint8)
    # rows that differ from row 0 only in the first qubit, the last one, and
    # the last and first qubits of the first and second 64-bit words
    for row, qubit in enumerate((0, n - 1, 63, 64), start=1):
        pool[row] = pool[0]
        pool[row, min(qubit, n - 1)] ^= 1
    bits = pool[rng.integers(len(pool), size=500)]
    values, counts = np.unique(_string_keys(bits), return_counts=True)
    want = {k.decode(): c for k, c in zip(values.tolist(), counts.tolist())}
    got = bit_counts(bits)
    assert got == want
    assert list(got) == list(want)


def test_frequencies_match_string_keys_at_65_qubits(monkeypatch):
    c = Circuit(65).h(30).h(64).rx(0, 0.7).rx(63, 1.1).rx(64, 2.0)
    spec = BackendSpec("mps", chi_max=2)
    u = np.random.default_rng(5).random((6, 64))
    bits = metrics.Rows(c, spec).state.measure_at(u, rows=slice(1, None)).reshape(-1, 65)
    got = metrics._pair_frequencies(bits, 6, 64)
    monkeypatch.setattr(metrics, "distinct_outcomes", _string_distinct)
    want = metrics._pair_frequencies(bits, 6, 64)
    # per pair, outcomes repeat, and more than one occurs
    assert all(1 < np.count_nonzero(p + m) < 2 * 64 for p, m in zip(*got))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("kind", ["statevector", "mps"])
def test_a_batch_takes_one_row_of_uniforms_per_row_it_reads(kind):
    state = BackendSpec(kind).fresh(2, batch=3)
    assert state.measure_at(np.zeros((3, 4))).shape == (3, 4, 2)
    assert state.measure_at(np.zeros(3)).shape == (3, 2)
    assert state.measure_at(np.zeros((2, 4)), rows=slice(1, None)).shape == (2, 4, 2)
    for u, rows in ((np.zeros((5, 4)), slice(None)), (np.zeros(5), slice(None)),
                    (np.zeros((3, 4)), slice(1, None))):
        with pytest.raises(ValueError, match="takes uniforms of shape"):
            state.measure_at(u, rows=rows)


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


# --- the node-per-prefix walk against dense readout -----------------------

# No H: with generic angles no bit has a conditional probability of
# exactly 1/2, so an edge uniform never lands on a boundary that only
# rounding decides.
WALK_KINDS = (GateKind.RX, GateKind.RZ, GateKind.CX, GateKind.CZ, GateKind.SWAP)
WALK_ANGLES = st.floats(0.1, 3.0)


@st.composite
def walk_stacks(draw):
    """An MPS stack of 1-5 rows over a random circuit on 2-7 qubits, exact
    (chi 2^(n//2), trunc_tol 0). The rows differ by one rotation: row r
    applies it at its own angle."""
    n = draw(st.integers(2, 7))
    rows = draw(st.integers(1, 5))
    gates = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(WALK_KINDS))
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 2))
        qubits = (a,) if kind.n_qubits == 1 else (a, b + (b >= a))
        gates.append(Gate(kind, qubits, draw(WALK_ANGLES) if kind.has_angle else None))
    at = draw(st.integers(0, len(gates)))
    kind = draw(st.sampled_from((GateKind.RX, GateKind.RZ)))
    qubit = draw(st.integers(0, n - 1))
    angles = draw(st.lists(WALK_ANGLES, min_size=rows, max_size=rows))
    stack = mps.MpsState(n, chi_max=2 ** (n // 2), trunc_tol=0.0, batch=rows)
    for i, g in enumerate(gates + [None]):
        if i == at:
            for r, angle in enumerate(angles):
                stack.apply_gate(Gate(kind, (qubit,), angle), rows=slice(r, r + 1))
        if g is not None:
            stack.apply_gate(g)
    return stack


@st.composite
def uniforms(draw, rows):
    """(rows, shots) uniforms, 1-300 shots, with the edge values and
    repeats of one uniform among them."""
    shots = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.random((rows, shots))
    picks = rng.random((rows, shots)) < draw(st.sampled_from((0.0, 0.1, 0.5)))
    u[picks] = rng.choice(np.array(EDGE_U), size=picks.sum())
    repeats = rng.random((rows, shots)) < draw(st.sampled_from((0.0, 0.3)))
    u[repeats] = u[:, :1].repeat(shots, axis=1)[repeats]
    return u


def _dense_rows(stack):
    """One dense state per row of an MPS stack, holding that row's amplitudes."""
    out = []
    for amps in stack.to_dense():
        state = DenseState(stack.n_qubits)
        state.amps[:] = amps
        out.append(state)
    return out


@given(st.data())
def test_walk_matches_dense_readout_per_row(data):
    stack = data.draw(walk_stacks())
    rows = len(stack.tensors[0])
    u = data.draw(uniforms(rows))
    bits = stack.measure_at(u)
    assert bits.shape == u.shape + (stack.n_qubits,)
    dense = _dense_rows(stack)
    for r in range(rows):
        assert np.array_equal(bits[r], dense[r].measure_at(u[r])), r
    # a permutation of a row's shots permutes its bits, and nothing else
    perm = np.random.default_rng(u.shape[1]).permuted(np.tile(np.arange(u.shape[1]), (rows, 1)),
                                                      axis=1)
    shuffled = stack.measure_at(np.take_along_axis(u, perm, axis=1))
    assert np.array_equal(shuffled, np.take_along_axis(bits, perm[..., None], axis=1))


@given(st.data())
def test_walk_on_a_single_state_takes_any_shape(data):
    stack = data.draw(walk_stacks())
    single = mps.MpsState(stack.n_qubits, chi_max=stack.chi_max, trunc_tol=0.0)
    single.tensors = [t[:1].copy() for t in stack.tensors]
    single.center = stack.center
    u = data.draw(uniforms(data.draw(st.integers(1, 4))))
    dense = _dense_rows(stack)[0]
    bits = single.measure_at(u)
    assert bits.shape == u.shape + (stack.n_qubits,)
    assert np.array_equal(bits, dense.measure_at(u))


@pytest.mark.parametrize("kind", ["statevector", "mps"])
def test_row_ops_and_readouts_keep_one_contract_on_both_backends(kind):
    spec = BackendSpec(kind=kind)
    c = ghz(3).rx(2, 0.7)
    single = spec.run(c)
    with pytest.raises(ValueError, match="appended to a batch"):
        single.append_rows(0, 2)
    copy = single.row_copy(0)  # a single state is row 0
    basis = ("000", "010", "110", "111")
    assert [copy.amplitude(b) for b in basis] == [single.amplitude(b) for b in basis]
    assert single.norm() == pytest.approx(1.0)
    # a batch reads out one value per row, whatever its size
    batch = spec.fresh(3, batch=2).run(c)
    batch.apply_gate(Gate(GateKind.RX, (0,), 0.4), rows=slice(1, 2))  # the rows differ
    batch.append_rows(1, 2)
    assert batch.batch == 4
    assert np.asarray(batch.norm()) == pytest.approx(np.ones(4))
    other = spec.run(Circuit(3, c.gates + (Gate(GateKind.RX, (0,), 0.4),)))
    for bits in ("000", "111", "101"):
        want = [single.amplitude(bits)] + [other.amplitude(bits)] * 3
        assert np.asarray(batch.amplitude(bits)) == pytest.approx(np.array(want), abs=1e-12)
    # entropies, and the dense distribution, are read from one row
    for read in (batch.bond_entropies, lambda: batch.bond_entropy(1)):
        with pytest.raises(ValueError, match="one-row state"):
            read()
    if kind == "statevector":
        with pytest.raises(ValueError, match="one-row state"):
            batch.distribution()
    one_row = spec.fresh(3, batch=1).run(c)
    assert one_row.bond_entropies() == pytest.approx(single.bond_entropies(), abs=1e-12)
