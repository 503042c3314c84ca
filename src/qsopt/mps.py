"""Matrix product state circuit engine with bond-capped SVD truncation.

State is a chain of tensors A[k] with axes (row, left bond, physical,
right bond) and outer bonds of dimension 1. The row axis stacks
independent states over one chain, as a dense batch stacks them over one
amplitude array: the parameter-shift QFI runs its shifted circuits, and
the noise model its trajectories, as the rows of one MPS. A single state
is one row. A mixed-canonical form is maintained around an orthogonality
center that all rows share: tensors left of the center are
left-isometries, tensors right of it right-isometries, so Schmidt
spectra, conditional bit probabilities and the norm read off locally.

Every update is one matrix product, QR or SVD over all rows at once. A
1q gate multiplies a site's physical axis, of every row or of a row
slice (`rows`); a two-site update takes every row, since the rows share
their bonds. A center shift is a QR of the center tensor. A two-site
update (Schollwoeck, Ann. Phys. 326, 96, 2011) contracts the pair into
theta of shape (rows, l, 4, r), multiplies it by the 4x4 gate, and
splits it again by an SVD. Each row keeps at most chi_max singular
values, drops its smallest ones while their total squared weight stays
within trunc_tol, renormalizes the rest and adds the dropped weight to
its own discarded total. The new bond is the largest rank over the rows;
a row of smaller rank keeps its dropped tail as exact zeros. Two-qubit
gates on non-adjacent qubits are routed with temporary SWAP layers and
the qubit order is restored afterwards.

`append_rows` grows a stack by copies of one of its rows: that row of
every site tensor, and its discarded weight. The copies share the
stack's bonds and centre from then on. `row_copy` takes one row out as a
single state, so that a sweep over it leaves the stack's gauge alone.

Bond entropies come from one SVD sweep (`bond_entropies`): with the
centre at site 0, an SVD of each centre tensor gives the Schmidt values
of the bond to its right and also moves the centre one site on.

Noise events are `QubitState`'s, applied to the site tensor of their
qubit. A reset first moves the center to its qubit, so it QR-shifts rows
that drew no reset too; they keep their state up to rounding.

Readout (`measure_at`, under `QubitState.sample`) walks the chain once for
all rows and shots, each bit drawn from its conditional probability
(Ferris & Vidal, PRB 85, 165146, 2012) with one uniform per shot. The walk
keeps one node per distinct (row, bit prefix): shots that share a prefix
share its left vector, so the complex work per site follows the number of
distinct prefixes, and only the comparison and rescaling of the uniforms
run per shot. Given a partner row for each row it reads, the walk also
carries each node's left vector of the partner row, over the same bits
and at the same scale, and returns the partner's amplitude over the row's
own at every drawn outcome: the noiseless QFI scores each outcome drawn
from its base row or a shifted row with both rows' amplitudes this way.
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
    """The largest bond and the largest total tensor size, in bytes, that
    the state has held."""
    max_bond: int
    memory_bytes: int


class MpsState(QubitState):
    """One MPS, or with `batch=B` a stack of B of them over one chain. A
    single state reads out as one (a float discarded weight, a 1-D
    `to_dense`), a batch as one value per row."""

    def __init__(self, n_qubits: int, chi_max: int = 64, trunc_tol: float = 1e-10,
                 batch: int | None = None):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        if chi_max < 1:
            raise ValueError("chi_max must be positive")
        if not trunc_tol >= 0.0:  # also rejects NaN
            raise ValueError("trunc_tol must be nonnegative")
        if batch is not None and batch < 1:
            raise ValueError("batch must be positive")
        self.n_qubits = n_qubits
        self.chi_max = chi_max
        self.trunc_tol = trunc_tol
        self.batch = batch
        rows = 1 if batch is None else batch
        self.tensors = []
        for _ in range(n_qubits):
            t = np.zeros((rows, 1, 2, 1), dtype=complex)
            t[:, 0, 0, 0] = 1.0
            self.tensors.append(t)
        self.center = 0
        self.max_bond_seen = 1
        # the total tensor size, kept by `_put`; a centre shift never grows
        # a bond, so the peak follows a two-site update
        self._size = self.peak_size = sum(t.size for t in self.tensors)
        self._discarded = np.zeros(rows)

    @property
    def total_discarded(self):
        """Squared weight dropped by truncation, relative to the weight
        before each update, summed over the updates; one per row."""
        return float(self._discarded[0]) if self.batch is None else self._discarded.copy()

    def _put(self, site: int, t: np.ndarray) -> None:
        """Store t as the tensor at site, keeping the total size."""
        self._size += t.size - self.tensors[site].size
        self.tensors[site] = t

    # --- canonical form ---------------------------------------------------

    def _shift_right(self) -> None:
        c = self.center
        a = self.tensors[c]
        rows, l, p, r = a.shape
        q, rmat = np.linalg.qr(a.reshape(rows, l * p, r))
        k = q.shape[-1]
        self._put(c, q.reshape(rows, l, p, k))
        nxt = self.tensors[c + 1]
        self._put(c + 1, (rmat @ nxt.reshape(rows, r, -1)).reshape(rows, k, *nxt.shape[2:]))
        self.center = c + 1

    def _shift_left(self) -> None:
        c = self.center
        a = self.tensors[c]
        rows, l, p, r = a.shape
        # LQ via QR of the conjugate transpose: rows of q_rows are orthonormal
        q, rmat = np.linalg.qr(a.reshape(rows, l, p * r).conj().swapaxes(1, 2))
        k = q.shape[-1]
        q_rows = q.conj().swapaxes(1, 2)
        lmat = rmat.conj().swapaxes(1, 2)
        self._put(c, q_rows.reshape(rows, k, p, r))
        prev = self.tensors[c - 1]
        self._put(c - 1, (prev.reshape(rows, -1, l) @ lmat).reshape(*prev.shape[:3], k))
        self.center = c - 1

    def append_rows(self, row: int, count: int) -> None:
        """Append `count` copies of stack row `row`: that row of every site
        tensor, and its discarded weight."""
        if self.batch is None:
            raise ValueError("rows are appended to a batch")
        for site, t in enumerate(self.tensors):
            self._put(site, np.concatenate((t, np.repeat(t[row:row + 1], count, axis=0))))
        self._discarded = np.concatenate((self._discarded, np.repeat(self._discarded[row], count)))
        self.batch += count
        if self._size > self.peak_size:
            self.peak_size = self._size

    def row_copy(self, row: int) -> "MpsState":
        """Stack row `row` as a single state of its own, at the same centre."""
        out = MpsState(self.n_qubits, chi_max=self.chi_max, trunc_tol=self.trunc_tol)
        for site, t in enumerate(self.tensors):
            out._put(site, t[row:row + 1].copy())
        out.center = self.center
        out.max_bond_seen, out.peak_size = self.max_bond_seen, out._size
        out._discarded = self._discarded[row:row + 1].copy()
        return out

    def move_center(self, site: int) -> None:
        while self.center < site:
            self._shift_right()
        while self.center > site:
            self._shift_left()

    # --- gate application -------------------------------------------------

    def apply_unitary_1q(self, matrix: np.ndarray, qubit: int,
                         rows: slice = slice(None)) -> None:
        t = self.tensors[qubit][rows]
        t[...] = matrix @ t  # in place: the slice is a view of the site tensor

    def _apply_2q_adjacent(self, matrix: np.ndarray, left: int) -> None:
        """Apply a 4x4 unitary to sites (left, left+1) of every row; matrix
        indexes the left site as its most significant bit."""
        self.move_center(left)
        a, b = self.tensors[left], self.tensors[left + 1]
        rows, l, _, chi = a.shape
        r = b.shape[-1]
        theta = (a.reshape(rows, l * 2, chi) @ b.reshape(rows, chi, 2 * r)).reshape(rows, l, 4, r)
        theta = matrix @ theta  # the 4 axis is (left bit, right bit)
        u, s, vh = np.linalg.svd(theta.reshape(rows, l * 2, 2 * r), full_matrices=False)
        ranks = self._truncation_rank(s)
        # the bond takes the largest rank; a row of smaller rank keeps
        # zeros past its own, which leaves its state as it was
        keep = int(ranks.max())
        kept = np.zeros((rows, keep))
        dropped = np.empty(rows)
        for k in np.unique(ranks).tolist():  # rows of one rank, usually all
            sel = ranks == k
            part = s[sel]
            dropped[sel] = np.sum(part[:, k:] ** 2, axis=-1)
            kept[sel, :k] = part[:, :k] / np.sqrt(np.sum(part[:, :k] ** 2, axis=-1))[:, None]
        self._discarded += dropped / np.sum(s ** 2, axis=-1)
        self._put(left, u[..., :keep].reshape(rows, l, 2, keep))
        self._put(left + 1, (kept[..., None] * vh[:, :keep, :]).reshape(rows, keep, 2, r))
        self.center = left + 1
        if keep > self.max_bond_seen:
            self.max_bond_seen = keep
        if self._size > self.peak_size:
            self.peak_size = self._size

    def _truncation_rank(self, s: np.ndarray):
        """Number of singular values (descending, on the last axis) to
        keep: at most chi_max, and no more than those whose tail weight,
        tail[i] = sum of s[i:]^2, exceeds trunc_tol of the total; at least
        one. tail never increases, so the kept ones are a prefix.
        trunc_tol = 0 keeps exact zeros."""
        k = min(s.shape[-1], self.chi_max)
        if self.trunc_tol == 0.0:
            return np.full(s.shape[:-1], max(k, 1))
        sq = s ** 2
        weight = np.sum(sq, axis=-1, keepdims=True)
        tail = np.cumsum(sq[..., ::-1], axis=-1)[..., ::-1]
        return np.maximum(np.count_nonzero(tail[..., :k] > self.trunc_tol * weight, axis=-1), 1)

    def _qubit_view(self, qubit: int) -> np.ndarray:
        """The site tensor of qubit, (rows, left bond, 2, right bond)."""
        return self.tensors[qubit]

    def reset_rows(self, qubit: int, hit, u):
        """`QubitState.reset_rows` with the shared center moved to qubit
        first: there the site tensor holds each row's branch weights."""
        self.move_center(qubit)
        return super().reset_rows(qubit, hit, u)

    def apply_unitary_2q(self, matrix: np.ndarray, qa: int, qb: int,
                         rows: slice = slice(None)) -> None:
        if rows != slice(None):
            raise ValueError("stacked rows share their bonds; apply 2q gates to every row")
        lo, hi = min(qa, qb), max(qa, qb)
        # route the upper qubit next to the lower one with SWAP updates
        for j in range(hi, lo + 1, -1):
            self._apply_2q_adjacent(G.SWAP, j - 1)
        oriented = matrix if qa < qb else G.SWAP @ matrix @ G.SWAP
        self._apply_2q_adjacent(oriented, lo)
        for j in range(lo + 1, hi):
            self._apply_2q_adjacent(G.SWAP, j)

    # --- readout ----------------------------------------------------------

    def norm(self):
        c = self.tensors[self.center]
        return self._per_row(np.sqrt(np.sum(np.abs(c) ** 2, axis=(1, 2, 3))))

    def amplitude(self, bitstring: str):
        self._check_bitstring(bitstring)
        v = np.ones((len(self.tensors[0]), 1, 1), dtype=complex)
        for site, ch in enumerate(bitstring):
            v = v @ self.tensors[site][:, :, int(ch), :]
        return self._per_row(v[:, 0, 0])

    def bond_entropies(self) -> list[float]:
        """The entropy of every bond, from one SVD sweep of a one-row state
        from site 0: each centre tensor's SVD gives the Schmidt values of
        the bond to its right, and the centre moves on to the next site as
        U and S Vh."""
        if len(self.tensors[0]) != 1:
            raise ValueError("entropies are read from a one-row state")
        self.move_center(0)
        out = []
        for site in range(self.n_qubits - 1):
            a = self.tensors[site]
            _, l, p, r = a.shape
            u, s, vh = np.linalg.svd(a.reshape(1, l * p, r), full_matrices=False)
            k = s.shape[-1]
            self._put(site, u.reshape(1, l, p, k))
            nxt = self.tensors[site + 1]
            carried = (s[..., None] * vh) @ nxt.reshape(1, r, -1)
            self._put(site + 1, carried.reshape(1, k, *nxt.shape[2:]))
            self.center = site + 1
            out.append(self.schmidt_entropy(s[0]))
        return out

    def schmidt_values(self, bond: int) -> np.ndarray:
        """Singular values across the cut [0, bond) | [bond, n) of a
        one-row state."""
        self._check_bond(bond)
        if len(self.tensors[0]) != 1:
            raise ValueError("entropies are read from a one-row state")
        self.move_center(bond - 1)
        (a,) = self.tensors[bond - 1]
        l, p, r = a.shape
        return np.linalg.svd(a.reshape(l * p, r), compute_uv=False)

    def bond_dims(self) -> list[int]:
        return [t.shape[-1] for t in self.tensors[:-1]]

    def peak_stats(self) -> PeakStats:
        return PeakStats(self.max_bond_seen, self.peak_size * COMPLEX_BYTES)

    # --- measurement ------------------------------------------------------

    def measure_at(self, u, rows=slice(None), partners=None):
        """Z-basis outcomes fixed by uniforms in [0, 1): the basis state
        whose interval of the cumulative distribution (basis order, qubit
        0 most significant) contains u, found site by site from the
        conditional bit probabilities, with u rescaled into the chosen
        bit's interval. A single state takes any number of uniforms, a
        batch a leading row axis over the stack rows `rows`, a slice or an
        index array: (rows,) or (rows, shots). Returns bits of shape
        u.shape + (n,).

        With `partners`, an index array of one stack row per row read, it
        returns (bits, ratio): ratio, of shape u.shape, is at each drawn
        outcome the amplitude of the row's partner over the row's own. The
        walk carries each node's left vector of the partner row beside its
        own, over the same bits and at the same scale, so the two leaf
        values are the amplitudes times one factor. The own amplitude of a
        drawn outcome is nonzero, since each bit is drawn with positive
        probability.

        The walk keeps one node per distinct (row, bit prefix), not one per
        shot. Each row's shots are sorted by u once; the rescaling keeps
        them sorted, so a node's shots stay contiguous and its next bit
        splits them at one point, zeros first. Per site, each node's
        conditional probabilities come from its left vector and the site
        tensor in one batched product over all nodes; only the comparison
        and the rescaling of u run per shot. So the complex work follows
        the number of distinct prefixes."""
        self.move_center(0)
        tensors = [t[rows] for t in self.tensors]
        rows = len(tensors[0])
        # sides: the rows read, then their partners, as one stack
        sides = 1
        if partners is not None:
            sides = 2
            tensors = [np.concatenate((t, s[partners])) for t, s in zip(tensors, self.tensors)]
        u = self._row_uniforms(u, rows)
        shape = u.shape
        u = u.reshape(rows, -1)
        shots = u.shape[1]
        # the shots by row, then by u (equal uniforms draw equal bits, so
        # ties may fall in any order)
        order = (np.argsort(u, axis=1) + shots * np.arange(rows)[:, None]).ravel()
        u = u.ravel()[order]
        bits = np.empty((u.size, self.n_qubits), dtype=np.uint8)
        # candidate nodes: first one per row, then after each site the two
        # children of every node, (node, 0) before (node, 1), with their
        # shot counts, rows, and left vectors m (per side) of squared norm
        # p on the own side
        sizes = np.full(rows, shots)
        parent_row = np.arange(rows)
        m = np.ones((sides, rows, 1), dtype=complex)
        p = np.ones(rows)
        for site in range(self.n_qubits):
            kept = np.flatnonzero(sizes)  # the nodes: candidates that some shot reached
            size = np.take(sizes, kept)
            node_row = np.take(parent_row, kept)
            vec = np.take(m, kept, axis=1) / np.sqrt(np.take(p, kept))[:, None]
            # node i is cell flat[i] of a (rows, width) grid, in row
            # node_row[i]; pos names the node of every cell (node 0 where a
            # row has fewer), so one batched product per site serves all nodes
            counts = np.bincount(node_row, minlength=rows)
            width = counts.max()
            index = np.arange(len(kept))
            flat = index + np.take(width * np.arange(rows) - (counts.cumsum() - counts), node_row)
            pos = np.zeros(rows * width, dtype=np.intp)
            pos[flat] = index
            a = tensors[site]
            _, l, _, r = a.shape
            grid = (np.take(vec, pos, axis=1).reshape(sides * rows, width, l)
                    @ a.reshape(sides * rows, l, 2 * r))
            m = np.take(grid.reshape(sides, -1, 2 * r), flat, axis=1).reshape(sides, -1, r)
            x = m[0].view(float)
            p = (x * x) @ np.ones(2 * r)  # |m|^2 of every (node, bit)
            pr0 = p[0::2] / (p[0::2] + p[1::2])
            at = pr0.repeat(size)
            one = u >= at
            bits[:, site] = one
            # the chosen bit has positive probability: u < pr0 needs pr0 > 0,
            # u >= pr0 needs pr0 < 1
            u = (u - np.where(one, at, 0.0)) / np.where(one, 1.0 - at, at)
            u = np.minimum(u, _BELOW_ONE)
            sizes = np.empty((len(size), 2), dtype=np.intp)
            sizes[:, 1] = np.add.reduceat(one, size.cumsum() - size, dtype=np.intp)
            sizes[:, 0] = size - sizes[:, 1]
            parent_row = node_row.repeat(2)
        out = np.empty_like(bits)
        out[order] = bits
        out = out.reshape(shape + (self.n_qubits,))
        if partners is None:
            return out
        leaf = 2 * np.arange(len(size)).repeat(size) + one  # each shot's (node, bit)
        ratio = np.empty(u.size, dtype=complex)
        ratio[order] = m[1, leaf, 0] / m[0, leaf, 0]
        return out, ratio.reshape(shape)

    def to_dense(self) -> np.ndarray:
        """Contract to the full 2^n amplitude vector (small n only), one
        per row of a batch."""
        rows = len(self.tensors[0])
        v = self.tensors[0].reshape(rows, 2, -1)
        for t in self.tensors[1:]:
            v = (v @ t.reshape(rows, t.shape[1], -1)).reshape(rows, -1, t.shape[-1])
        return self._per_row(v.reshape(rows, -1))


def run(circuit: Circuit, chi_max: int = 64, trunc_tol: float = 1e-10) -> MpsState:
    return MpsState(circuit.n_qubits, chi_max=chi_max, trunc_tol=trunc_tol).run(circuit)
