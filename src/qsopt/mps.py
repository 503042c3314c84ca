"""Matrix product state circuit engine with bond-capped SVD truncation.

State is a chain of rank-3 tensors A[k] with axes (left bond, physical,
right bond) and outer bonds of dimension 1. A mixed-canonical form is
maintained around an orthogonality center: tensors left of the center are
left-isometries, tensors right of it right-isometries, so Schmidt spectra,
conditional bit probabilities and the norm read off locally.

Every update is a matrix product on reshaped tensors. A 1q gate
multiplies a site's physical axis. A two-site update (Schollwoeck, Ann.
Phys. 326, 96, 2011) contracts the pair into theta of shape (l, 4, r),
multiplies it by the 4x4 gate, and splits it again by an SVD that keeps
at most chi_max singular values, drops the smallest ones while their
total squared weight stays within trunc_tol, and renormalizes the rest.
Two-qubit gates on non-adjacent qubits are routed with temporary SWAP
layers and the qubit order is restored afterwards.

Readout (`measure_at`, under `QubitState.sample`) walks the chain once for
all shots, each bit drawn from its conditional probability (Ferris & Vidal,
PRB 85, 165146, 2012) with one uniform per shot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates as G
from .circuit import Circuit
from .statevector import QubitState

COMPLEX_BYTES = 16
_BELOW_ONE = np.nextafter(1.0, 0.0)  # largest float < 1: rescaled uniforms stay in [0, 1)


@dataclass(frozen=True)
class PeakStats:
    max_bond: int
    memory_bytes: int


class MpsState(QubitState):
    def __init__(self, n_qubits: int, chi_max: int = 64, trunc_tol: float = 1e-10):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        if chi_max < 1:
            raise ValueError("chi_max must be positive")
        if not trunc_tol >= 0.0:  # also rejects NaN
            raise ValueError("trunc_tol must be nonnegative")
        self.n_qubits = n_qubits
        self.chi_max = chi_max
        self.trunc_tol = trunc_tol
        self.tensors = []
        for _ in range(n_qubits):
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, 0, 0] = 1.0
            self.tensors.append(t)
        self.center = 0
        self.max_bond_seen = 1
        self.total_discarded = 0.0

    # --- canonical form ---------------------------------------------------

    def _shift_right(self) -> None:
        c = self.center
        a = self.tensors[c]
        l, p, r = a.shape
        q, rmat = np.linalg.qr(a.reshape(l * p, r))
        k = q.shape[1]
        self.tensors[c] = q.reshape(l, p, k)
        nxt = self.tensors[c + 1]
        self.tensors[c + 1] = (rmat @ nxt.reshape(r, -1)).reshape(k, *nxt.shape[1:])
        self.center = c + 1

    def _shift_left(self) -> None:
        c = self.center
        a = self.tensors[c]
        l, p, r = a.shape
        # LQ via QR of the conjugate transpose: rows of q_rows are orthonormal
        q, rmat = np.linalg.qr(a.reshape(l, p * r).conj().T)
        k = q.shape[1]
        q_rows = q.conj().T
        lmat = rmat.conj().T
        self.tensors[c] = q_rows.reshape(k, p, r)
        prev = self.tensors[c - 1]
        self.tensors[c - 1] = (prev.reshape(-1, l) @ lmat).reshape(*prev.shape[:2], k)
        self.center = c - 1

    def move_center(self, site: int) -> None:
        while self.center < site:
            self._shift_right()
        while self.center > site:
            self._shift_left()

    # --- gate application -------------------------------------------------

    def apply_unitary_1q(self, matrix: np.ndarray, qubit: int) -> None:
        self.tensors[qubit] = matrix @ self.tensors[qubit]

    def _apply_2q_adjacent(self, matrix: np.ndarray, left: int) -> None:
        """Apply a 4x4 unitary to sites (left, left+1); matrix indexes the
        left site as its most significant bit."""
        self.move_center(left)
        a, b = self.tensors[left], self.tensors[left + 1]
        l, _, chi = a.shape
        r = b.shape[2]
        theta = (a.reshape(l * 2, chi) @ b.reshape(chi, 2 * r)).reshape(l, 4, r)
        theta = matrix @ theta  # the 4 axis is (left bit, right bit)
        u, s, vh = np.linalg.svd(theta.reshape(l * 2, 2 * r), full_matrices=False)
        k = self._truncation_rank(s)
        weight = float(np.sum(s ** 2))
        self.total_discarded += float(np.sum(s[k:] ** 2)) / weight
        kept = s[:k] / np.sqrt(np.sum(s[:k] ** 2))
        self.tensors[left] = u[:, :k].reshape(l, 2, k)
        self.tensors[left + 1] = (kept[:, None] * vh[:k, :]).reshape(k, 2, r)
        self.center = left + 1
        if k > self.max_bond_seen:
            self.max_bond_seen = k

    def _truncation_rank(self, s: np.ndarray) -> int:
        """Number of singular values (descending) to keep: at most chi_max,
        and no more than those whose tail weight, tail[i] = sum of s[i:]^2,
        exceeds trunc_tol of the total; at least one. tail never increases,
        so the kept ones are a prefix. trunc_tol = 0 keeps exact zeros."""
        k = min(len(s), self.chi_max)
        if self.trunc_tol > 0.0:
            weight = np.sum(s ** 2)
            tail = np.cumsum((s ** 2)[::-1])[::-1]
            k = int(np.count_nonzero(tail[:k] > self.trunc_tol * weight))
        return max(k, 1)

    def apply_unitary_2q(self, matrix: np.ndarray, qa: int, qb: int) -> None:
        lo, hi = min(qa, qb), max(qa, qb)
        # route the upper qubit next to the lower one with SWAP updates
        for j in range(hi, lo + 1, -1):
            self._apply_2q_adjacent(G.SWAP, j - 1)
        oriented = matrix if qa < qb else G.SWAP @ matrix @ G.SWAP
        self._apply_2q_adjacent(oriented, lo)
        for j in range(lo + 1, hi):
            self._apply_2q_adjacent(G.SWAP, j)

    # --- readout ----------------------------------------------------------

    def norm(self) -> float:
        c = self.tensors[self.center]
        return float(np.sqrt(np.sum(np.abs(c) ** 2)))

    def amplitude(self, bitstring: str) -> complex:
        self._check_bitstring(bitstring)
        v = np.ones(1, dtype=complex)
        for site, ch in enumerate(bitstring):
            v = v @ self.tensors[site][:, int(ch), :]
        return complex(v[0])

    def schmidt_values(self, bond: int) -> np.ndarray:
        """Singular values across the cut [0, bond) | [bond, n)."""
        self._check_bond(bond)
        self.move_center(bond - 1)
        a = self.tensors[bond - 1]
        l, p, r = a.shape
        return np.linalg.svd(a.reshape(l * p, r), compute_uv=False)

    def bond_dims(self) -> list[int]:
        return [t.shape[2] for t in self.tensors[:-1]]

    def peak_stats(self) -> PeakStats:
        mem = sum(t.size for t in self.tensors) * COMPLEX_BYTES
        return PeakStats(self.max_bond_seen, mem)

    # --- measurement ------------------------------------------------------

    def measure_at(self, u) -> np.ndarray:
        """Z-basis outcomes fixed by uniforms in [0, 1), one per entry of
        the 1-D array u: the basis state whose interval of the cumulative
        distribution (basis order, qubit 0 most significant) contains u,
        found site by site from the conditional bit probabilities, with u
        rescaled into the chosen bit's interval. Returns (len(u), n) bits."""
        self.move_center(0)
        u = np.array(u, dtype=float)
        vec = np.ones((len(u), 1), dtype=complex)
        bits = np.empty((len(u), self.n_qubits), dtype=np.uint8)
        for site in range(self.n_qubits):
            a = self.tensors[site]
            m0 = vec @ a[:, 0, :]
            m1 = vec @ a[:, 1, :]
            p0 = np.sum(np.abs(m0) ** 2, axis=1)
            p1 = np.sum(np.abs(m1) ** 2, axis=1)
            pr0 = p0 / (p0 + p1)
            one = u >= pr0
            bits[:, site] = one
            # the chosen bit has positive probability: u < pr0 needs pr0 > 0,
            # u >= pr0 needs pr0 < 1
            u = (u - np.where(one, pr0, 0.0)) / np.where(one, 1.0 - pr0, pr0)
            u = np.minimum(u, _BELOW_ONE)
            vec = np.where(one[:, None], m1, m0) / np.sqrt(np.where(one, p1, p0))[:, None]
        return bits

    def measure_reset0(self, qubit: int, u: float) -> int:
        """Projective Z measurement at qubit, then flip back to |0> if 1.
        The outcome is 1 if the uniform u lies below p1, the |1> branch's
        share of the center tensor's weight, so p1 is in [0, 1] and the
        kept branch, renormalized, has positive weight."""
        self.move_center(qubit)
        a = self.tensors[qubit]
        w0 = float(np.sum(np.abs(a[:, 0, :]) ** 2))
        w1 = float(np.sum(np.abs(a[:, 1, :]) ** 2))
        outcome = 1 if u < w1 / (w0 + w1) else 0
        b = np.zeros_like(a)
        b[:, 0, :] = a[:, outcome, :] / np.sqrt(w1 if outcome else w0)
        self.tensors[qubit] = b
        return outcome

    def to_dense(self) -> np.ndarray:
        """Contract to the full 2^n amplitude vector (small n only)."""
        v = self.tensors[0]
        for t in self.tensors[1:]:
            v = np.einsum("...a,apb->...pb", v, t)
        return v.reshape(-1)


def run(circuit: Circuit, chi_max: int = 64, trunc_tol: float = 1e-10) -> MpsState:
    return MpsState(circuit.n_qubits, chi_max=chi_max, trunc_tol=trunc_tol).run(circuit)
