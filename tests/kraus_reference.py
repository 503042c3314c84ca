"""The noisy outcome distribution of a circuit from its 2^n x 2^n density
matrix, evolved with explicit Kraus operators: the reference that the
density rows of `noise.density_probabilities` are checked against.

Every channel acts as the trajectories unravel it, at the time they do:
after each gate its depolarizing channel (one of the 3 Paulis on one of
the gate's qubits, each with probability p / (3 * qubits)); at every
moment's end, qubit by qubit, the reset to |0> with p_amp and then the Z
flip with p_phase, both from the moment's longest gate; before the
readout, each bit's flip with p_meas. Nothing is deferred or fused, and
no operator is built by qsopt: only the gates' unitaries
(`gates.matrix`) and the schedule (`circuit.moments`) are shared.
"""

import math

import numpy as np

from qsopt import gates
from qsopt.circuit import Circuit, moments
from qsopt.metrics import SHIFT, rotation_positions, shift_angle

I2 = np.eye(2)
PAULIS = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
TO_ZERO = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]


def embed(m: np.ndarray, qubits, n: int) -> np.ndarray:
    """The 2^n x 2^n operator of `m` on `qubits` (the first one its most
    significant bit), qubit 0 the most significant bit of the basis index:
    m applied to every column of the identity."""
    k = len(qubits)
    eye = np.eye(2 ** n, dtype=complex).reshape((2,) * n + (-1,))
    front = np.moveaxis(eye, list(qubits), list(range(k)))
    out = (m @ front.reshape(2 ** k, -1)).reshape(front.shape)
    return np.moveaxis(out, list(range(k)), list(qubits)).reshape(2 ** n, 2 ** n)


def channel(rho: np.ndarray, ops) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in ops)


def probabilities(circuit: Circuit, params) -> np.ndarray:
    """The distribution of one shot's readout bits, flips applied, in basis
    order, under the noise model `params`."""
    n = circuit.n_qubits
    dim = 2 ** n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    inv_t_phi = 1.0 / params.t2_us - 1.0 / (2.0 * params.t1_us)
    for layer in moments(circuit):
        longest = 0.0
        for idx in layer:
            g = circuit.gates[idx]
            two = len(g.qubits) == 2
            longest = max(longest, params.dur_2q_us if two else params.dur_1q_us)
            u = embed(gates.matrix(g), g.qubits, n)
            rho = u @ rho @ u.conj().T
            p = params.p_2q if two else params.p_1q
            share = math.sqrt(p / (3 * len(g.qubits)))
            rho = channel(rho, [math.sqrt(1.0 - p) * np.eye(dim)]
                          + [share * embed(P, (q,), n) for q in g.qubits for P in PAULIS])
        a = 1.0 - math.exp(-longest / params.t1_us)
        f = 1.0 - math.exp(-longest * inv_t_phi) if inv_t_phi > 0.0 else 0.0
        for q in range(n):
            rho = channel(rho, [math.sqrt(1.0 - a) * np.eye(dim)]
                          + [math.sqrt(a) * embed(k, (q,), n) for k in TO_ZERO])
            rho = channel(rho, [math.sqrt(1.0 - f) * np.eye(dim),
                                math.sqrt(f) * embed(PAULIS[2], (q,), n)])
    for q in range(n):
        rho = channel(rho, [math.sqrt(1.0 - params.p_meas) * np.eye(dim),
                            math.sqrt(params.p_meas) * embed(PAULIS[0], (q,), n)])
    return np.diagonal(rho).real.copy()


def shifted_probabilities(circuit: Circuit, params) -> np.ndarray:
    """`probabilities` of the 2R shifted circuits of the parameter-shift
    QFI, ordered (rotation k, sign +-), as the rows of a (2R, 2^n) array."""
    return np.array([probabilities(shift_angle(circuit, pos, sign * SHIFT), params)
                     for pos in rotation_positions(circuit) for sign in (1.0, -1.0)])
