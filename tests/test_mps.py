"""MPS engine: dense agreement, canonical form, truncation, sampling."""

import math

import numpy as np
import pytest

from qsopt import statevector
from qsopt.circuit import Circuit, Gate, GateKind, ghz, random_circuit
from qsopt.mps import COMPLEX_BYTES, MpsState, PeakStats, run

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _dense_vector(circuit):
    return statevector.run(circuit).amps


def test_initial_product_state():
    s = MpsState(4)
    assert s.amplitude("0000") == 1.0
    assert s.norm() == pytest.approx(1.0)
    assert s.bond_dims() == [1, 1, 1]


def test_constructor_validation():
    with pytest.raises(ValueError):
        MpsState(0)
    with pytest.raises(ValueError):
        MpsState(2, chi_max=0)
    with pytest.raises(ValueError):
        MpsState(2, trunc_tol=-1.0)
    with pytest.raises(ValueError):
        MpsState(2, trunc_tol=math.nan)


@pytest.mark.parametrize("seed", range(8))
def test_exact_agreement_with_dense(seed):
    # chi large enough and no tolerance: the MPS is exact
    rng = np.random.default_rng(seed)
    c = random_circuit(5, 30, rng)
    s = run(c, chi_max=64, trunc_tol=0.0)
    got = s.to_dense()
    expected = _dense_vector(c)
    assert np.max(np.abs(got - expected)) < 1e-12
    assert s.norm() == pytest.approx(1.0)


def test_amplitude_matches_to_dense():
    rng = np.random.default_rng(11)
    c = random_circuit(4, 20, rng)
    s = run(c, trunc_tol=0.0)
    dense = s.to_dense()
    for i in range(16):
        bits = format(i, "04b")
        assert s.amplitude(bits) == pytest.approx(dense[i], abs=1e-12)
    with pytest.raises(ValueError):
        s.amplitude("000")


def test_nonadjacent_gates_are_routed():
    # cx(0, 3) and the reversed-control cx(3, 0) both need swap routing
    for pair in [(0, 3), (3, 0)]:
        c = Circuit(4).h(pair[0]).cx(*pair)
        got = run(c, trunc_tol=0.0).to_dense()
        expected = _dense_vector(c)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_canonical_form_isometries():
    rng = np.random.default_rng(5)
    c = random_circuit(6, 40, rng)
    s = run(c, trunc_tol=0.0)
    s.move_center(3)
    for k in range(3):  # left of center: A^dag A = I
        (a,) = s.tensors[k]  # a single state's tensors have one row
        l, p, r = a.shape
        m = a.reshape(l * p, r)
        assert np.allclose(m.conj().T @ m, np.eye(r), atol=1e-12)
    for k in range(4, 6):  # right of center: B B^dag = I
        (b,) = s.tensors[k]
        l, p, r = b.shape
        m = b.reshape(l, p * r)
        assert np.allclose(m @ m.conj().T, np.eye(l), atol=1e-12)


def test_ghz_bond_structure():
    s = run(ghz(6), trunc_tol=0.0)
    assert s.bond_dims() == [2, 2, 2, 2, 2]
    for bond in range(1, 6):
        assert s.schmidt_values(bond) == pytest.approx([INV_SQRT2, INV_SQRT2])
        assert s.bond_entropy(bond) == pytest.approx(1.0, abs=1e-12)


def test_chi_cap_truncates_and_tracks_discard():
    # ghz needs bond 2; chi_max=1 forces a product approximation and
    # discards half the squared weight at the first entangling gate
    s = run(ghz(3), chi_max=1)
    assert s.bond_dims() == [1, 1]
    assert s.total_discarded == pytest.approx(0.5)
    assert s.norm() == pytest.approx(1.0)  # kept weight is renormalized


def test_trunc_tol_drops_negligible_weight():
    c = Circuit(2).rx(0, 1e-7).cx(0, 1)
    exact = run(c, trunc_tol=0.0)
    loose = run(c, trunc_tol=1e-8)
    assert exact.bond_dims() == [2]
    assert loose.bond_dims() == [1]
    assert loose.total_discarded < 1e-8


def _truncation_rank_loop(s, chi_max, trunc_tol):
    """Reference: the rank as a loop that drops the smallest kept value
    while the tail from it on weighs at most trunc_tol of the total."""
    k = min(len(s), chi_max)
    if trunc_tol > 0.0:
        weight = np.sum(s ** 2)
        tail = np.cumsum((s ** 2)[::-1])[::-1]  # tail[i] = sum of s[i:]^2
        while k > 1 and tail[k - 1] <= trunc_tol * weight:
            k -= 1
    return max(k, 1)


def test_truncation_rank_matches_loop():
    rng = np.random.default_rng(0)
    spectra = [np.sort(rng.random(rng.integers(1, 12)) ** rng.uniform(1, 30))[::-1]
               for _ in range(200)]
    spectra += [
        np.ones(4),  # tails 4, 3, 2, 1: exact ties at trunc_tol 0.25 and 0.5
        np.array([2.0, 1.0, 1.0]),  # tail 1 is exactly 1/6 of the weight 6
        np.array([1.0, 0.5, 0.0, 0.0]),  # zero tail
        np.array([1.0, 1e-9, 1e-12, 0.0]),
        np.zeros(3),
    ]
    for s in spectra:
        for chi_max in (1, 2, 3, 64):
            for tol in (0.0, 1e-10, 1e-3, 1.0 / 6.0, 0.25, 0.5):
                got = MpsState(2, chi_max=chi_max, trunc_tol=tol)._truncation_rank(s)
                assert got == _truncation_rank_loop(s, chi_max, tol), (s, chi_max, tol)


def test_zero_trunc_tol_keeps_exact_zeros():
    s = np.array([1.0, 0.5, 0.0, 0.0])
    assert MpsState(2, trunc_tol=0.0)._truncation_rank(s) == 4
    assert MpsState(2, trunc_tol=1e-10)._truncation_rank(s) == 2


def test_peak_stats():
    s = run(ghz(5), trunc_tol=0.0)
    stats = s.peak_stats()
    assert stats.max_bond == 2
    assert stats.memory_bytes == sum(t.size for t in s.tensors) * COMPLEX_BYTES


def test_peak_memory_is_a_peak():
    # a GHZ ladder then its inverse: bond 2 mid-circuit, a product state after
    ladder = ghz(6)
    c = Circuit(6, ladder.gates + tuple(reversed(ladder.gates)))
    middle = sum(t.size for t in run(ladder, trunc_tol=1e-10).tensors) * COMPLEX_BYTES
    s = run(c, trunc_tol=1e-10)
    assert s.bond_dims() == [1] * 5
    assert s.peak_stats() == PeakStats(max_bond=2, memory_bytes=middle)
    assert middle > sum(t.size for t in s.tensors) * COMPLEX_BYTES


class _Recounted(MpsState):
    """Recounts every tensor after each two-site update, the peak's only
    source, and keeps the largest total."""

    recounted = 0

    def _apply_2q_adjacent(self, matrix, left):
        super()._apply_2q_adjacent(matrix, left)
        self.recounted = max(self.recounted, sum(t.size for t in self.tensors))


@pytest.mark.parametrize("seed", range(4))
def test_peak_memory_matches_a_recount(seed):
    c = random_circuit(7, 60, np.random.default_rng(seed))
    s = _Recounted(7, chi_max=4, trunc_tol=1e-10).run(c)
    assert s.peak_stats().memory_bytes == s.recounted * COMPLEX_BYTES
    s.move_center(0)  # shifts shrink bonds; the peak stays
    assert s.peak_stats().memory_bytes == s.recounted * COMPLEX_BYTES


def test_sampling_statistics_and_determinism():
    s = run(ghz(4), trunc_tol=0.0)
    counts = s.sample(4000, np.random.default_rng(9))
    assert set(counts) <= {"0000", "1111"}
    assert sum(counts.values()) == 4000
    assert abs(counts["0000"] / 4000 - 0.5) < 0.05
    again = run(ghz(4), trunc_tol=0.0).sample(4000, np.random.default_rng(9))
    assert counts == again


def test_sampling_matches_dense_distribution():
    rng = np.random.default_rng(21)
    c = random_circuit(4, 25, rng)
    s = run(c, trunc_tol=0.0)
    shots = 20000
    counts = s.sample(shots, np.random.default_rng(1))
    probs = np.abs(_dense_vector(c)) ** 2
    tv = 0.0
    for i, p in enumerate(probs):
        bits = format(i, "04b")
        tv += abs(counts.get(bits, 0) / shots - p)
    assert 0.5 * tv < 0.02  # statistical agreement only


def test_measure_once_and_reset():
    rng = np.random.default_rng(2)
    s = run(ghz(3), trunc_tol=0.0)
    bit = s.measure_reset0(0, rng.random())
    assert bit in (0, 1)
    # remaining qubits collapsed with the measured branch, qubit 0 cleared
    expected = "000" if bit == 0 else "011"
    assert abs(s.amplitude(expected)) == pytest.approx(1.0, abs=1e-12)
    assert len(run(ghz(3)).measure_once(np.random.default_rng(0))) == 3


def test_schmidt_bond_range():
    s = run(ghz(3))
    with pytest.raises(ValueError):
        s.schmidt_values(0)
    with pytest.raises(ValueError):
        s.schmidt_values(3)


def test_product_state_entropies_exactly_zero():
    s = run(Circuit(4).h(0).rx(2, 0.3), trunc_tol=0.0)
    assert s.bond_entropies() == [0.0, 0.0, 0.0]


def test_deep_circuit_respects_chi_cap():
    rng = np.random.default_rng(3)
    c = random_circuit(8, 120, rng)
    s = run(c, chi_max=4)
    assert max(s.bond_dims()) <= 4
    assert s.max_bond_seen <= 4
    assert s.norm() == pytest.approx(1.0)


# --- stacked rows ---------------------------------------------------------

def _stacked_run(circuits, **kw):
    """Circuits that differ only in rotation angles, run as the rows of
    one MPS: each rotation is one run per row, every other gate one run
    over all rows (`QubitState.apply_runs`)."""
    rows = len(circuits)
    state = MpsState(circuits[0].n_qubits, batch=rows, **kw)
    for gates in zip(*(c.gates for c in circuits)):
        if gates[0].kind.has_angle:
            runs = tuple((r, r + 1, g) for r, g in enumerate(gates))
        else:
            runs = ((0, rows, gates[0]),)
        state.apply_runs(runs, 0, rows)
    return state


def _with_angles(circuit, rng):
    return Circuit(circuit.n_qubits, tuple(
        Gate(g.kind, g.qubits, float(rng.uniform(0.0, 2 * math.pi))) if g.kind.has_angle else g
        for g in circuit.gates))


@pytest.mark.parametrize("chi_max", [64, 2])
def test_stacked_rows_equal_one_row_runs(chi_max):
    # trunc_tol = 0 keeps min(len(s), chi_max) values in every row, so the
    # rows share their ranks and each follows its one-row run bit for bit
    rng = np.random.default_rng(17)
    base = random_circuit(5, 40, rng)
    circuits = [_with_angles(base, rng) for _ in range(4)]
    stacked = _stacked_run(circuits, chi_max=chi_max, trunc_tol=0.0)
    dense = stacked.to_dense()
    assert dense.shape == (4, 32)
    for row, c in enumerate(circuits):
        single = run(c, chi_max=chi_max, trunc_tol=0.0)
        assert np.array_equal(dense[row], single.to_dense()), row
        assert stacked.total_discarded[row] == single.total_discarded, row
    if chi_max == 2:
        assert (stacked.total_discarded > 0.0).all()


def test_stacked_rows_pad_to_the_largest_rank():
    # the shifted rows of rx(0, .) leave qubit 0 in |0> or |1>, so cx makes
    # a product state (rank 1); those of rx(1, .) entangle (rank 2); a last
    # row entangles so weakly that trunc_tol drops its second value
    angles = [(math.pi, 0.3), (0.0, 0.3), (math.pi / 2, 0.3 + math.pi / 2),
              (math.pi / 2, 0.3 - math.pi / 2), (1e-5, 0.3)]
    circuits = [Circuit(2).rx(0, a).rx(1, b).cx(0, 1) for a, b in angles]
    stacked = _stacked_run(circuits, trunc_tol=1e-10)
    singles = [run(c, trunc_tol=1e-10) for c in circuits]
    assert [s.bond_dims() for s in singles] == [[1], [1], [2], [2], [1]]
    assert stacked.bond_dims() == [2]
    assert np.max(np.abs(stacked.norm() - 1.0)) < 1e-12
    dense = stacked.to_dense()
    for row, single in enumerate(singles):
        assert np.max(np.abs(dense[row] - single.to_dense())) < 1e-12
        assert stacked.total_discarded[row] == pytest.approx(single.total_discarded,
                                                             rel=1e-9, abs=1e-20)
    assert stacked.total_discarded[-1] == pytest.approx(0.25e-10, rel=1e-3)


def test_single_state_reads_out_as_one():
    s = run(ghz(3), chi_max=1)
    assert type(s.total_discarded) is float
    assert s.to_dense().shape == (8,)
    batch = MpsState(3, chi_max=1, batch=1).run(ghz(3))
    assert batch.total_discarded.shape == (1,) and batch.to_dense().shape == (1, 8)
    assert batch.total_discarded[0] == s.total_discarded


def test_row_slice_takes_no_two_qubit_gate():
    s = MpsState(3, batch=4)
    with pytest.raises(ValueError):
        s.apply_gate(Circuit(3).cx(0, 1).gates[0], rows=slice(1, 3))


def test_appended_rows_copy_tensors_and_discarded_weight():
    rng = np.random.default_rng(5)
    c = random_circuit(5, 30, rng)
    stack = MpsState(5, chi_max=2, trunc_tol=0.0, batch=2)
    stack.apply_gate(Gate(GateKind.RX, (0,), 0.9), rows=slice(1, 2))  # the rows differ
    stack.run(c)
    before = [t.copy() for t in stack.tensors]
    discarded = stack.total_discarded
    assert (discarded > 0.0).all() and discarded[0] != discarded[1]
    stack.append_rows(1, 2)
    assert stack.batch == 4
    for t, old in zip(stack.tensors, before):
        assert np.array_equal(t[:2], old)
        assert np.array_equal(t[2], old[1]) and np.array_equal(t[3], old[1])
    assert stack.total_discarded.tolist() == discarded.tolist() + [discarded[1]] * 2
    # a 1q gate on the copies and a 2q gate on every row equal one-row runs
    tail = Circuit(5).rx(2, 0.3).cx(1, 2)
    stack.apply_gate(tail.gates[0], rows=slice(2, 4))
    stack.apply_gate(tail.gates[1])
    single = MpsState(5, chi_max=2, trunc_tol=0.0)
    single.apply_gate(Gate(GateKind.RX, (0,), 0.9))
    single.run(c).run(tail)
    dense = stack.to_dense()
    for r in (2, 3):
        assert np.array_equal(dense[r], single.to_dense()), r
        assert stack.total_discarded[r] == single.total_discarded
    with pytest.raises(ValueError):
        single.append_rows(0, 1)  # a single state is not a batch


def test_row_copy_leaves_the_stack_alone():
    stack = MpsState(4, batch=3).run(ghz(4))
    stack.apply_gate(Gate(GateKind.RX, (3,), 0.4), rows=slice(2, 3))
    before = [t.copy() for t in stack.tensors]
    one = stack.row_copy(2)
    assert one.batch is None and type(one.total_discarded) is float
    want = stack.to_dense()[2]
    assert np.array_equal(one.to_dense(), want)
    one.bond_entropies()  # sweeps and re-gauges the copy only
    assert all(np.array_equal(t, old) for t, old in zip(stack.tensors, before))
    assert np.max(np.abs(one.to_dense() - want)) < 1e-12


def test_entropy_sweep_equals_per_bond_schmidt_values():
    rng = np.random.default_rng(8)
    for n, chi in ((6, 8), (7, 2)):
        c = random_circuit(n, 40, rng)
        swept = run(c, chi_max=chi)
        per_bond = run(c, chi_max=chi)
        got = swept.bond_entropies()
        assert got == pytest.approx([per_bond.bond_entropy(b) for b in range(1, n)],
                                    rel=1e-12, abs=1e-12)
        assert swept.center == n - 1
        if chi == 8:  # not truncating: the dense entropies
            dense = statevector.run(c)
            assert got == pytest.approx(dense.bond_entropies(), rel=1e-10, abs=1e-10)
    with pytest.raises(ValueError):
        MpsState(3, batch=2).bond_entropies()
