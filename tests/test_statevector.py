"""Dense backend: amplitudes, conventions, sampling, Schmidt analytics."""

import math

import numpy as np
import pytest

from qsopt import gates as G
from qsopt.circuit import Circuit, ghz, random_circuit
from qsopt.statevector import (
    DEFAULT_MAX_QUBITS,
    CapacityError,
    DenseState,
    run,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_initial_state_is_all_zeros():
    s = DenseState(3)
    assert s.amplitude("000") == 1.0
    assert s.norm() == pytest.approx(1.0)
    assert np.count_nonzero(s.amps) == 1


def test_qubit_zero_is_most_significant():
    # flipping qubit 0 moves the amplitude to index 0b100
    s = run(Circuit(3).h(0).h(0).rx(0, math.pi))
    assert abs(s.amps[4]) == pytest.approx(1.0)
    assert s.amplitude("100") == pytest.approx(-1j)  # rx(pi) = -i X


def test_rotation_conventions():
    # rx(t) = exp(-i t X / 2): |0> -> cos(t/2)|0> - i sin(t/2)|1>
    t = 0.7
    s = run(Circuit(1).rx(0, t))
    assert s.amplitude("0") == pytest.approx(math.cos(t / 2))
    assert s.amplitude("1") == pytest.approx(-1j * math.sin(t / 2))
    # rz is diagonal: phases e^{-it/2}, e^{+it/2}
    s = run(Circuit(1).h(0).rz(0, t))
    assert s.amplitude("0") == pytest.approx(INV_SQRT2 * np.exp(-1j * t / 2))
    assert s.amplitude("1") == pytest.approx(INV_SQRT2 * np.exp(1j * t / 2))


def test_cx_first_qubit_controls():
    s = run(Circuit(2).h(0).h(0).rx(0, math.pi).cx(0, 1))
    assert abs(s.amplitude("11")) == pytest.approx(1.0)
    # target in |0> leaves the control branch alone
    s = run(Circuit(2).cx(0, 1))
    assert s.amplitude("00") == 1.0


def test_ghz_amplitudes():
    s = run(ghz(4))
    assert s.amplitude("0000") == pytest.approx(INV_SQRT2)
    assert s.amplitude("1111") == pytest.approx(INV_SQRT2)
    assert s.probabilities().sum() == pytest.approx(1.0)


def _full_unitary(circuit: Circuit) -> np.ndarray:
    """Independent reference: embed every gate via explicit kron products."""
    n = circuit.n_qubits
    u = np.eye(2 ** n, dtype=complex)
    for g in circuit.gates:
        if g.kind.n_qubits == 1:
            m = {"h": G.H, "rx": G.rx(g.angle) if g.angle is not None else None,
                 "rz": G.rz(g.angle) if g.angle is not None else None}[g.kind.value]
            ops = [m if q == g.qubits[0] else G.I2 for q in range(n)]
            full = ops[0]
            for op in ops[1:]:
                full = np.kron(full, op)
        else:
            m = {"cx": G.CX, "cz": G.CZ, "swap": G.SWAP}[g.kind.value]
            full = np.zeros((2 ** n, 2 ** n), dtype=complex)
            qa, qb = g.qubits
            for i in range(2 ** n):
                bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
                col = np.zeros(2 ** n, dtype=complex)
                col[i] = 1.0
                row_in = 2 * bits[qa] + bits[qb]
                for row_out in range(4):
                    if m[row_out, row_in] == 0:
                        continue
                    out_bits = list(bits)
                    out_bits[qa], out_bits[qb] = row_out >> 1, row_out & 1
                    j = int("".join(map(str, out_bits)), 2)
                    full[j, i] += m[row_out, row_in]
        u = full @ u
    return u


@pytest.mark.parametrize("seed", range(6))
def test_matches_kron_reference(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(4, 12, rng)
    expected = _full_unitary(c)[:, 0]
    got = run(c).amps
    assert np.max(np.abs(got - expected)) < 1e-12


def test_capacity_cap():
    with pytest.raises(CapacityError):
        DenseState(DEFAULT_MAX_QUBITS + 1)
    # explicit raise is allowed
    assert DenseState(15, max_qubits=15).n_qubits == 15


def test_distribution_omits_zero_probability():
    d = run(ghz(3)).distribution()
    assert set(d) == {"000", "111"}
    assert d["000"] == pytest.approx(0.5)


def test_sampling_is_seeded_and_sums_to_shots():
    s = run(ghz(3))
    a = s.sample(1000, np.random.default_rng(42))
    b = s.sample(1000, np.random.default_rng(42))
    assert a == b
    assert sum(a.values()) == 1000
    assert set(a) <= {"000", "111"}
    assert len(s.measure_once(np.random.default_rng(0))) == 3


def test_amplitude_rejects_bad_bitstrings():
    s = DenseState(2)
    with pytest.raises(ValueError):
        s.amplitude("0")
    with pytest.raises(ValueError):
        s.amplitude("02")


def test_measure_reset0_collapses_and_clears():
    rng = np.random.default_rng(1)
    outcomes = []
    for _ in range(200):
        s = run(Circuit(1).h(0))
        bit = s.measure_reset0(0, rng.random())
        outcomes.append(bit)
        # regardless of outcome the qubit ends in |0>
        assert abs(s.amplitude("0")) == pytest.approx(1.0)
        assert s.norm() == pytest.approx(1.0)
    frac = np.mean(outcomes)
    assert 0.35 < frac < 0.65


def test_measure_reset0_on_ghz_breaks_correlation():
    rng = np.random.default_rng(3)
    s = run(ghz(3))
    bit = s.measure_reset0(0, rng.random())
    d = s.distribution()
    # the other qubits stay in the collapsed branch
    assert set(d) == ({"000"} if bit == 0 else {"011"})


def test_schmidt_values_and_entropy():
    s = run(ghz(4))
    for bond in range(1, 4):
        vals = s.schmidt_values(bond)
        assert vals[0] == pytest.approx(INV_SQRT2)
        assert vals[1] == pytest.approx(INV_SQRT2)
        assert s.bond_entropy(bond) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        s.schmidt_values(0)
    with pytest.raises(ValueError):
        s.schmidt_values(4)


def test_product_state_entropy_is_zero():
    s = run(Circuit(3).h(0).rx(1, 0.4).rz(2, 1.1))
    assert s.bond_entropies() == [0.0, 0.0]


def test_entropy_unchanged_by_local_gates():
    base = run(ghz(5)).bond_entropies()
    rotated = run(ghz(5).rx(2, 0.9).h(4).rz(0, 0.3)).bond_entropies()
    assert rotated == pytest.approx(base, abs=1e-12)


def test_appended_rows_are_byte_copies_that_run_like_one_row_states():
    rng = np.random.default_rng(3)
    c = random_circuit(4, 20, rng)
    batch = DenseState(4, batch=2)
    batch.apply_unitary(G.H, 1, rows=slice(1, 2))  # the rows differ
    batch.run(c)
    before = batch.amps.copy()
    batch.append_rows(1, 3)
    assert batch.amps.shape == (5, 16)
    assert np.array_equal(batch.amps[:2], before)
    assert all(np.array_equal(batch.amps[r], before[1]) for r in (2, 3, 4))
    # the grown scratch buffer serves a gate over every row, and a 1q and
    # a 2q gate on the copies equal one-row runs bit for bit
    tail = Circuit(4).rx(2, 0.3).cx(2, 3).h(0)
    batch.run(tail)
    single = DenseState(4)
    single.apply_unitary(G.H, 1)
    single.run(c).run(tail)
    for r in (1, 2, 3, 4):
        assert np.array_equal(batch.amps[r], single.amps), r
    one = batch.row_copy(3)
    assert one.amps.shape == (16,) and np.array_equal(one.amps, single.amps)
    one.run(tail)  # an independent copy
    assert np.array_equal(batch.amps[3], single.amps)
