"""Dense statevector backend, the exact reference for every other engine.

Keeps all 2^n amplitudes; qubit 0 is the most significant bit, so the
amplitude of bitstring b is amps[int(b, 2)]. Hard capacity cap because
memory doubles per qubit (the cap may be raised explicitly).

Every gate and Pauli is one matrix product: the gate's qubit axes move
to the front of a (..., 2, ..., 2) view of the amplitudes, and the
2^k x 2^k matrix multiplies that view reshaped to 2^k rows.

A state built with `batch=B` holds B independent states as the rows of a
(B, 2^n) array: the same product acts on every row, and a reset draws
one outcome per row. A gate given a row slice (`rows`) acts on those
rows only, in place; `apply_runs` uses it to give row groups different
angles of one rotation. The noise model runs its trajectories this way,
and the parameter-shift QFI its shifted circuits. `apply_unitary` takes
any square matrix, or a stack of them with one per row: the noise
model's density rows, vec(rho) over 2n qubits, take superoperators, one
per row once a shifted rotation has acted. Each state keeps one scratch
buffer for the products, so a gate allocates no temporary. `append_rows`
grows a batch by byte copies of one of its rows (the scratch buffer
grows with it), and `row_copy` takes one row out as a single state;
`measure_at` reads a row slice. As on the MPS, a batch reads its norm
and amplitudes per row, and entropies and distributions are read from a
one-row state only.

Noise events act on the rows through `apply_paulis`, `reset_rows` and
`flip_z`, which take one event array entry per row and apply each to all
the rows they hit at once. `QubitState` writes all three once for both
backends, over a per-qubit view of the rows (`_qubit_view`): a reshape
of the dense amplitudes, or the MPS site tensor.

`QubitState` holds what the dense and MPS backends share: gate dispatch,
entropies from per-bond Schmidt values, and one readout path. Every
outcome read as bits comes from a backend's `measure_at(u)`, which maps
uniforms to basis states, and `bit_counts` turns bit rows into counts,
sorting them by `bit_keys`, the bits packed into 64-bit integers.
"""

from __future__ import annotations

import numpy as np

from . import gates as G
from .circuit import Circuit, Gate

DEFAULT_MAX_QUBITS = 14
ENTROPY_FLOOR = 1e-12
# the Pauli of event code c (1 x, 2 y, 3 z) is _PAULI_XYZ[c - 1]
_PAULI_XYZ = np.stack([G.X, G.Y, G.Z])


class CapacityError(Exception):
    """Requested statevector exceeds the configured qubit cap."""


def bit_keys(bits) -> np.ndarray:
    """The rows of a (shots, n) array of 0/1 bits as (shots, ceil(n/64))
    uint64 words, the bits packed big-endian: qubit 0 is the most
    significant bit of the first word, and the last word is padded with
    zeros. Compared word by word, the keys order like the bitstrings."""
    bits = np.asarray(bits, dtype=np.uint8)
    shots, n = bits.shape
    words = -(-n // 64)
    padded = np.zeros((shots, 64 * words), dtype=np.uint8)
    padded[:, :n] = bits
    return np.packbits(padded).view(">u8").astype(np.uint64).reshape(shots, words)


def distinct_outcomes(bits) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (shots, n) array of 0/1 bits, in increasing
    bitstring order (qubit 0 first): the index of one row of each, and the
    rank of every row among them. One sort of the rows' `bit_keys`."""
    keys = bit_keys(bits)
    order = np.lexsort(keys.T[::-1])  # lexsort's last key is its primary one
    ranked = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = np.cumsum(first) - 1
    return order[first], rank


def bit_counts(bits) -> dict[str, int]:
    """Counts of the rows of a (shots, n) array of 0/1 bits, keyed by
    bitstring (qubit 0 first) in increasing order; only the distinct
    outcomes are decoded."""
    bits = np.asarray(bits, dtype=np.uint8)
    rows, rank = distinct_outcomes(bits)
    counts = np.bincount(rank, minlength=len(rows))
    labels = np.ascontiguousarray(bits[rows] + ord("0")).view(f"S{bits.shape[-1]}")[:, 0]
    return {k.decode(): c for k, c in zip(labels.tolist(), counts.tolist())}


class QubitState:
    """The surface both backends share: gate dispatch, entropies, readout
    and every noise event (`apply_paulis`, `reset_rows`, `flip_z`). A
    backend provides only n_qubits, batch, its gate kernels
    apply_unitary_1q/2q(matrix, *qubits, rows=slice(None)), which change
    only the rows of the slice `rows`, _qubit_view(qubit), its rows as a
    (rows, a, 2, b) array whose axis 2 is the qubit, schmidt_values(bond),
    measure_at(u, rows=slice(None)), and the row copies append_rows(row,
    count) and row_copy(row)."""

    n_qubits: int
    chi_max: int | None = None  # bond cap; None where nothing is truncated
    batch: int | None = None  # rows of a batch; None for a single state

    def _per_row(self, values: np.ndarray):
        """values, one per row, as a batch reads them; a single state's one."""
        return values if self.batch is not None else values[0]

    def apply_gate(self, gate: Gate, rows: slice = slice(None)) -> None:
        apply = self.apply_unitary_1q if gate.kind.n_qubits == 1 else self.apply_unitary_2q
        apply(G.matrix(gate), *gate.qubits, rows=rows)

    def apply_pauli(self, name: str, qubit: int) -> None:
        self.apply_unitary_1q(G.PAULIS[name], qubit)

    def run(self, circuit: Circuit) -> "QubitState":
        for g in circuit.gates:
            self.apply_gate(g)
        return self

    def _check_bitstring(self, bitstring: str) -> None:
        if len(bitstring) != self.n_qubits or set(bitstring) - {"0", "1"}:
            raise ValueError(f"bad bitstring {bitstring!r} for {self.n_qubits} qubits")

    def _row_uniforms(self, u, rows: int) -> np.ndarray:
        """u as floats; a batch reading `rows` rows wants one row of u each."""
        u = np.asarray(u, dtype=float)
        if self.batch is not None and u.shape[:1] != (rows,):
            raise ValueError(f"a batch of {rows} rows takes uniforms of shape ({rows}, ...)")
        return u

    def _check_bond(self, bond: int) -> None:
        if not 1 <= bond <= self.n_qubits - 1:
            raise ValueError(f"bond {bond} out of range [1, {self.n_qubits - 1}]")

    def bond_entropy(self, bond: int) -> float:
        return self.schmidt_entropy(self.schmidt_values(bond))

    @staticmethod
    def schmidt_entropy(schmidt_values: np.ndarray) -> float:
        """The entropy, in bits, of a cut with these Schmidt values."""
        lam2 = schmidt_values ** 2
        lam2 = lam2[lam2 > ENTROPY_FLOOR]
        lam2 = lam2 / lam2.sum()  # renormalize so a pure spectrum gives exactly 0
        return float(-np.sum(lam2 * np.log2(lam2)) + 0.0)

    def bond_entropies(self) -> list[float]:
        return [self.bond_entropy(b) for b in range(1, self.n_qubits)]

    def sample(self, shots: int, rng: np.random.Generator) -> dict[str, int]:
        """Counts of `shots` Z-basis measurements, one uniform from rng each."""
        return bit_counts(self.measure_at(rng.random(shots)))

    def measure_once(self, rng: np.random.Generator) -> str:
        return next(iter(self.sample(1, rng)))

    def apply_runs(self, runs, start: int, stop: int) -> None:
        """Apply one gate laid over the rows of a batch layout: each run
        (lo, hi, gate) applies `gate` to layout rows lo..hi-1, of which
        this state holds rows start..stop-1. A run that covers part of a
        batch applies its gate to that row slice; on the MPS, whose rows
        share their bonds, only a 1q gate may, and the QFI's shifted
        rotations are 1q."""
        for lo, hi, gate in runs:
            lo, hi = max(lo, start), min(hi, stop)
            if (lo, hi) == (start, stop):
                self.apply_gate(gate)
            elif lo < hi:
                self.apply_gate(gate, rows=slice(lo - start, hi - start))

    # --- noise events over a per-qubit view of the rows ------------------

    def apply_paulis(self, codes, qubits) -> None:
        """Pauli codes[r] (1 x, 2 y, 3 z; 0 none) on qubit qubits[r] of row
        r: one product per hit qubit, each hit row by its own Pauli. The
        entries are 0, +-1 and +-i, so each amplitude comes out exact, up
        to the sign of a zero."""
        rows = np.flatnonzero(codes)
        targets = qubits[rows]
        for qubit in set(targets.tolist()):  # a gate's Paulis hit at most its two qubits
            at = rows[targets == qubit]
            view = self._qubit_view(qubit)
            view[at] = _PAULI_XYZ[codes[at] - 1][:, None] @ view[at]

    def reset_rows(self, qubit: int, hit, u):
        """Reset `qubit` to |0> in every row r with hit[r]: a projective Z
        measurement, then a flip back to |0> if the outcome was 1. The
        outcome is 1 where the uniform u[r] lies below p1, the |1> branch's
        share of the row's weight, so p1 is in [0, 1] and the kept branch
        has positive weight: its renormalization never divides by zero.
        Returns the outcomes of the hit rows."""
        rows = np.flatnonzero(hit)
        view = self._qubit_view(qubit)
        part = view[rows]
        w0, w1 = (np.sum(np.abs(part[:, :, b, :]) ** 2, axis=(1, 2)) for b in (0, 1))
        one = u[rows] < w1 / (w0 + w1)
        scale = 1.0 / np.sqrt(np.where(one, w1, w0))
        keep = (slice(None), None, None)
        kept = np.where(one[keep], part[:, :, 1, :], part[:, :, 0, :])
        view[rows, :, 0, :] = kept * scale[keep]
        view[rows, :, 1, :] = 0.0
        return one

    def measure_reset0(self, qubit: int, u):
        """`reset_rows` on every row, with the outcome uniform u (one per
        row of a batch). Returns the measured bit(s)."""
        u = np.asarray(u, dtype=float)
        one = self.reset_rows(qubit, np.ones(u.size, dtype=bool), u.reshape(-1))
        return one.astype(int).reshape(u.shape)[()]

    def flip_z(self, flips) -> None:
        """Z on every qubit q with flips[r, q], in each row r: the |1> half
        of the qubit's axis negated in the rows it hits, an exact sign."""
        for qubit in np.flatnonzero(flips.any(axis=0)).tolist():
            view = self._qubit_view(qubit)
            rows = np.flatnonzero(flips[:, qubit])
            view[rows, :, 1, :] = -view[rows, :, 1, :]


class DenseState(QubitState):
    """Mutable dense state, or a batch of them; gate application edits
    amplitudes in place."""

    def __init__(self, n_qubits: int, max_qubits: int = DEFAULT_MAX_QUBITS,
                 batch: int | None = None):
        if n_qubits > max_qubits:
            raise CapacityError(f"{n_qubits} qubits exceeds the dense cap of {max_qubits}")
        self.n_qubits = n_qubits
        self.batch = batch
        shape = (2 ** n_qubits,) if batch is None else (batch, 2 ** n_qubits)
        self.amps = np.zeros(shape, dtype=complex)
        self.amps[..., 0] = 1.0
        # the moved copy and the product of `apply_unitary`, side by side
        self._scratch = np.empty(2 * self.amps.size, dtype=complex)

    def _qubit_view(self, qubit: int) -> np.ndarray:
        """The amplitudes as (rows, 2^qubit, 2, 2^(n-1-qubit)): axis 2 is
        the qubit."""
        return self.amps.reshape(-1, 2 ** qubit, 2, 2 ** (self.n_qubits - 1 - qubit))

    def apply_unitary(self, matrix: np.ndarray, *qubits: int,
                      rows: slice = slice(None)) -> None:
        """Apply a 2^k x 2^k matrix to the listed qubits of the batch rows
        in the slice `rows` (a single state takes the default, all of it);
        the first listed qubit is the matrix's most significant bit. A
        (rows, 2^k, 2^k) stack applies one matrix to each row of the slice.
        The moved amplitudes and the product go through the scratch
        buffer."""
        amps = self.amps[rows]
        lead = amps.ndim - 1
        view = amps.reshape(amps.shape[:-1] + (2,) * self.n_qubits)
        moved = [lead + q for q in qubits]
        shape = (len(matrix), -1)
        if matrix.ndim == 3:  # a stack keeps the row axis in front, as the product's batch axis
            moved.insert(0, 0)
            shape = matrix.shape[:-1] + (-1,)
        front = view.transpose(moved + [a for a in range(view.ndim) if a not in moved])
        size = amps.size
        packed = self._scratch[:size].reshape(front.shape)
        np.copyto(packed, front)
        product = self._scratch[size:2 * size].reshape(shape)
        np.matmul(matrix, packed.reshape(shape), out=product)
        front[...] = product.reshape(front.shape)

    apply_unitary_1q = apply_unitary_2q = apply_unitary

    def _by_row(self) -> np.ndarray:
        """The amplitudes as (rows, 2^n); a single state is one row."""
        return self.amps.reshape(-1, 2 ** self.n_qubits)

    def _one_row(self, what: str) -> np.ndarray:
        """The amplitudes of a one-row state; `what` names the readout
        that a state of more rows refuses."""
        rows = self._by_row()
        if len(rows) != 1:
            raise ValueError(f"{what} are read from a one-row state")
        return rows[0]

    def append_rows(self, row: int, count: int) -> None:
        """Append `count` byte copies of batch row `row`, and grow the
        scratch buffer to match."""
        if self.batch is None:
            raise ValueError("rows are appended to a batch")
        self.amps = np.concatenate((self.amps, np.repeat(self.amps[row:row + 1], count, axis=0)))
        self._scratch = np.empty(2 * self.amps.size, dtype=complex)
        self.batch += count

    def row_copy(self, row: int) -> "DenseState":
        """Row `row` (0 of a single state) as a single state of its own."""
        out = DenseState(self.n_qubits, max_qubits=self.n_qubits)
        out.amps[...] = self._by_row()[row]
        return out

    # --- readout ---------------------------------------------------------

    def norm(self):
        """The norm, one per row of a batch."""
        return self._per_row(np.sqrt(np.sum(np.abs(self._by_row()) ** 2, axis=-1)))

    def amplitude(self, bitstring: str):
        """The amplitude of `bitstring`, one per row of a batch."""
        self._check_bitstring(bitstring)
        return self._per_row(self._by_row()[:, int(bitstring, 2)])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def distribution(self) -> dict[str, float]:
        """Exact outcome distribution of a one-row state; omits
        zero-probability bitstrings."""
        probs = np.abs(self._one_row("distributions")) ** 2
        width = self.n_qubits
        return {format(i, f"0{width}b"): float(p)
                for i, p in enumerate(probs) if p > 0.0}

    def measure_at(self, u, rows: slice = slice(None)) -> np.ndarray:
        """Z-basis outcomes fixed by uniforms in [0, 1), as `outcome_index`
        picks them from this state's probabilities. A single state takes
        any number of uniforms, a batch a leading row axis over its rows in
        the slice `rows`: (rows,) or (rows, shots). Returns bits of shape
        u.shape + (n,)."""
        probs = np.abs(self.amps[rows]) ** 2
        index = outcome_index(probs, self._row_uniforms(u, len(probs)))
        shifts = np.arange(self.n_qubits - 1, -1, -1)
        return ((index[..., None] >> shifts) & 1).astype(np.uint8)

    def schmidt_values(self, bond: int) -> np.ndarray:
        """Singular values across the cut [0, bond) | [bond, n) of a
        one-row state."""
        self._check_bond(bond)
        m = self._one_row("entropies").reshape(2 ** bond, 2 ** (self.n_qubits - bond))
        return np.linalg.svd(m, compute_uv=False)


def outcome_index(probs: np.ndarray, u) -> np.ndarray:
    """Basis states picked by uniforms in [0, 1): each u picks the one whose
    interval of the cumulative distribution (basis order, qubit 0 most
    significant) contains it. A single distribution takes any number of
    uniforms; a (rows, 2^n) array takes a leading row axis, (rows,) or
    (rows, shots)."""
    cdf = np.cumsum(probs, axis=-1)
    u = np.asarray(u)
    if cdf.ndim == 1:
        index = np.searchsorted(cdf, u * cdf[-1], side="right")
    elif u.ndim == 1:  # one uniform per row, compared with its row's whole CDF
        index = np.sum(cdf <= (u * cdf[:, -1])[:, None], axis=-1)
    else:  # searchsorted takes one sorted array; a batch has a CDF per row
        index = np.stack([np.searchsorted(row, at * row[-1], side="right")
                          for row, at in zip(cdf, u)])
    return np.minimum(index, cdf.shape[-1] - 1)


def run(circuit: Circuit, max_qubits: int = DEFAULT_MAX_QUBITS) -> DenseState:
    return DenseState(circuit.n_qubits, max_qubits=max_qubits).run(circuit)
