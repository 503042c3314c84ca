"""Unitary matrices for the supported gate set.

Single-qubit matrices act on the computational basis (|0>, |1>); two-qubit
matrices act on (|00>, |01>, |10>, |11>) with the first listed qubit as the
most significant index. Rotation conventions: RX(t) = exp(-i t X / 2),
RZ(t) = exp(-i t Z / 2). `matrix(gate)` is the one gate-to-unitary
dispatch every backend uses.
"""

from __future__ import annotations

import numpy as np

from .circuit import Gate, GateKind

_SQ2 = 1.0 / np.sqrt(2.0)

H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

CX = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)

PAULIS = {"x": X, "y": Y, "z": Z}


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)


_FIXED = {GateKind.H: H, GateKind.CX: CX, GateKind.CZ: CZ, GateKind.SWAP: SWAP}
_ROTATIONS = {GateKind.RX: rx, GateKind.RZ: rz}


def matrix(gate: Gate) -> np.ndarray:
    """Unitary of `gate` on its qubits in listed order (2x2 or 4x4)."""
    if gate.kind.has_angle:
        return _ROTATIONS[gate.kind](gate.angle)
    return _FIXED[gate.kind]
