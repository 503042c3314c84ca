"""Gate kernels against an explicit kron embedding, with random unitaries
that are not their own transposes (every named gate matrix is), on single
dense states, dense batches and unbounded-chi MPS."""

import itertools

import numpy as np
import pytest

from qsopt.mps import MpsState
from qsopt.statevector import DenseState

N = 4
PAIRS = list(itertools.permutations(range(N), 2))  # every ordered pair, qa > qb too


def _random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    assert not np.allclose(u, u.T)
    return u


def _random_states(rows, rng):
    z = rng.normal(size=(rows, 2 ** N)) + 1j * rng.normal(size=(rows, 2 ** N))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _embed(matrix, qubits):
    """The 2^N x 2^N operator of `matrix` on `qubits` (first listed qubit
    most significant in the matrix, qubit 0 most significant overall),
    summed from kron products of one-qubit |a><b| operators."""
    k = len(qubits)
    full = np.zeros((2 ** N, 2 ** N), dtype=complex)
    for row, col in itertools.product(range(2 ** k), repeat=2):
        ops = [np.eye(2)] * N
        for i, q in enumerate(qubits):
            shift = k - 1 - i
            ops[q] = np.outer(np.eye(2)[(row >> shift) & 1], np.eye(2)[(col >> shift) & 1])
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        full += matrix[row, col] * term
    return full


def _apply(state, matrix, qubits):
    if len(qubits) == 1:
        state.apply_unitary_1q(matrix, *qubits)
    else:
        state.apply_unitary_2q(matrix, *qubits)


CASES = [(q,) for q in range(N)] + PAIRS


@pytest.mark.parametrize("qubits", CASES)
def test_dense_single_state_matches_kron(qubits):
    rng = np.random.default_rng(qubits)
    u = _random_unitary(2 ** len(qubits), rng)
    psi = _random_states(1, rng)[0]
    state = DenseState(N)
    state.amps = psi.copy()
    _apply(state, u, qubits)
    assert np.max(np.abs(state.amps - _embed(u, qubits) @ psi)) < 1e-12


@pytest.mark.parametrize("qubits", CASES)
def test_dense_batch_rows_match_kron(qubits):
    rng = np.random.default_rng([1, *qubits])
    u = _random_unitary(2 ** len(qubits), rng)
    rows = _random_states(3, rng)
    state = DenseState(N, batch=3)
    state.amps = rows.copy()
    _apply(state, u, qubits)
    assert np.max(np.abs(state.amps - rows @ _embed(u, qubits).T)) < 1e-12


@pytest.mark.parametrize("pair", PAIRS)
def test_mps_matches_kron(pair):
    rng = np.random.default_rng([2, *pair])
    state = MpsState(N, chi_max=2 ** N, trunc_tol=0.0)
    expected = np.zeros(2 ** N, dtype=complex)
    expected[0] = 1.0
    # random 1q gates make a random product state; the second 2q gate acts
    # on the pair reversed, on a state the first one entangled
    ops = [((q,), _random_unitary(2, rng)) for q in range(N)]
    ops += [(pair, _random_unitary(4, rng)), (pair[::-1], _random_unitary(4, rng))]
    for qubits, u in ops:
        _apply(state, u, qubits)
        expected = _embed(u, qubits) @ expected
    assert np.max(np.abs(state.to_dense() - expected)) < 1e-12
