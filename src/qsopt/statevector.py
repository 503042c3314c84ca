"""Dense statevector backend, the exact reference for every other engine.

Keeps all 2^n amplitudes; qubit 0 is the most significant bit, so the
amplitude of bitstring b is amps[int(b, 2)]. Hard capacity cap because
memory doubles per qubit (the cap may be raised explicitly).

Every gate and Pauli is one matrix product: the gate's qubit axes move
to the front of a (..., 2, ..., 2) view of the amplitudes, and the
2^k x 2^k matrix multiplies that view reshaped to 2^k rows.

A state built with `batch=B` holds B independent states as the rows of a
(B, 2^n) array: the same product acts on every row, and a reset draws
one outcome per row. `rows(slice)` is a state over a view of some rows,
so a gate applied to it changes those rows in place; `apply_runs` uses
it to give row groups different angles of one rotation. The noise model
runs its trajectories this way, and the parameter-shift QFI its shifted
circuits. Each state keeps one scratch buffer, shared with its row
views, for the products, so a gate allocates no temporary.

Noise events act on the rows through `apply_paulis`, `reset_rows` and
`flip_z`, which take one event array entry per row. `QubitState` gives
them for a single trajectory; the dense state applies each to all its
rows at once.

`QubitState` holds what the dense and MPS backends share: gate dispatch,
entropies from per-bond Schmidt values, and one readout path. Every
Z-basis outcome comes from a backend's `measure_at(u)`, which maps
uniforms to basis states, and `bit_counts` turns bit rows into counts.
"""

from __future__ import annotations

import numpy as np

from . import gates as G
from .circuit import Circuit, Gate

DEFAULT_MAX_QUBITS = 14
ENTROPY_FLOOR = 1e-12
_PAULI_NAMES = ("x", "y", "z")  # event codes 1, 2, 3; 0 is no event
# new[j] = _PAULI_PHASE[code, bit q of j] * old[j ^ flip]: X and Y flip qubit
# q, Z does not; every phase is +-1 or +-i, so the product is exact
_PAULI_PHASE = np.array([[1, 1], [1, 1], [-1j, 1j], [1, -1]], dtype=complex)


class CapacityError(Exception):
    """Requested statevector exceeds the configured qubit cap."""


def bit_keys(bits) -> np.ndarray:
    """The rows of a (shots, n) array of 0/1 bits as n-byte ASCII strings,
    qubit 0 first: they sort like the bitstrings, at any n."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.ascontiguousarray(bits + ord("0")).view(f"S{bits.shape[-1]}")[..., 0]


def bit_counts(bits) -> dict[str, int]:
    """Counts of the rows of a (shots, n) array of 0/1 bits, keyed by
    bitstring (qubit 0 first) in increasing order; only the distinct
    outcomes are decoded."""
    keys, counts = np.unique(bit_keys(bits), return_counts=True)
    return {k.decode(): c for k, c in zip(keys.tolist(), counts.tolist())}


class QubitState:
    """The surface both backends share. A backend provides n_qubits,
    apply_unitary_1q/2q, schmidt_values(bond) and measure_at(u)."""

    n_qubits: int
    chi_max: int | None = None  # bond cap; None where nothing is truncated

    def apply_gate(self, gate: Gate) -> None:
        apply = self.apply_unitary_1q if gate.kind.n_qubits == 1 else self.apply_unitary_2q
        apply(G.matrix(gate), *gate.qubits)

    def apply_pauli(self, name: str, qubit: int) -> None:
        self.apply_unitary_1q(G.PAULIS[name], qubit)

    def run(self, circuit: Circuit) -> "QubitState":
        for g in circuit.gates:
            self.apply_gate(g)
        return self

    def _check_bitstring(self, bitstring: str) -> None:
        if len(bitstring) != self.n_qubits or set(bitstring) - {"0", "1"}:
            raise ValueError(f"bad bitstring {bitstring!r} for {self.n_qubits} qubits")

    def _check_bond(self, bond: int) -> None:
        if not 1 <= bond <= self.n_qubits - 1:
            raise ValueError(f"bond {bond} out of range [1, {self.n_qubits - 1}]")

    def bond_entropy(self, bond: int) -> float:
        lam2 = self.schmidt_values(bond) ** 2
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
        this state holds rows start..stop-1. Only a dense batch takes a run
        that covers part of its rows."""
        for lo, hi, gate in runs:
            lo, hi = max(lo, start), min(hi, stop)
            if (lo, hi) == (start, stop):
                self.apply_gate(gate)
            elif lo < hi:
                self.rows(slice(lo - start, hi - start)).apply_gate(gate)

    # --- noise events of one trajectory (one entry per event array) ------

    def apply_paulis(self, codes, qubits) -> None:
        """Pauli codes[0] (1 x, 2 y, 3 z; 0 none) on qubit qubits[0]."""
        if codes[0]:
            self.apply_pauli(_PAULI_NAMES[codes[0] - 1], int(qubits[0]))

    def reset_rows(self, qubit: int, hit, u) -> None:
        """Reset `qubit` to |0> with outcome uniform u[0] if hit[0]."""
        if hit[0]:
            self.measure_reset0(qubit, u[0])

    def flip_z(self, flips) -> None:
        """Z on every qubit q with flips[0, q]."""
        for qubit in np.flatnonzero(flips[0]).tolist():
            self.apply_pauli("z", qubit)


class DenseState(QubitState):
    """Mutable dense state, or a batch of them; gate application edits
    amplitudes in place."""

    def __init__(self, n_qubits: int, max_qubits: int = DEFAULT_MAX_QUBITS,
                 batch: int | None = None):
        if n_qubits > max_qubits:
            raise CapacityError(f"{n_qubits} qubits exceeds the dense cap of {max_qubits}")
        self.n_qubits = n_qubits
        shape = (2 ** n_qubits,) if batch is None else (batch, 2 ** n_qubits)
        self.amps = np.zeros(shape, dtype=complex)
        self.amps[..., 0] = 1.0
        # the moved copy and the product of `apply_unitary`, side by side
        self._scratch = np.empty(2 * self.amps.size, dtype=complex)

    def _over(self, amps: np.ndarray) -> "DenseState":
        """A state over `amps`, some of this state's rows, that shares its
        scratch buffer; amps is never larger than this state's."""
        state = object.__new__(DenseState)
        state.n_qubits, state.amps, state._scratch = self.n_qubits, amps, self._scratch
        return state

    def rows(self, index) -> "DenseState":
        """Rows of a batch as a batch over a view of them, or with an int
        index one row as a single state: gates applied to it change these
        rows in place."""
        return self._over(self.amps[index])

    def _table(self) -> np.ndarray:
        """The amplitudes as (rows, 2^n), one row for a single state."""
        return self.amps.reshape(-1, self.amps.shape[-1])

    def apply_unitary(self, matrix: np.ndarray, *qubits: int) -> None:
        """Apply a 2^k x 2^k unitary to the listed qubits of every row; the
        first listed qubit is the matrix's most significant bit. The moved
        amplitudes and the product go through the scratch buffer."""
        lead = self.amps.ndim - 1
        view = self.amps.reshape(self.amps.shape[:-1] + (2,) * self.n_qubits)
        moved = [lead + q for q in qubits]
        front = view.transpose(moved + [a for a in range(view.ndim) if a not in moved])
        size = self.amps.size
        packed = self._scratch[:size].reshape(front.shape)
        np.copyto(packed, front)
        product = self._scratch[size:2 * size].reshape(len(matrix), -1)
        np.matmul(matrix, packed.reshape(len(matrix), -1), out=product)
        front[...] = product.reshape(front.shape)

    apply_unitary_1q = apply_unitary_2q = apply_unitary

    # --- noise events, each applied to all rows at once --------------------

    def apply_paulis(self, codes, qubits) -> None:
        """Pauli codes[r] (1 x, 2 y, 3 z; 0 none) on qubit qubits[r] of row
        r, as one gather over the hit rows: new[r, j] = phase * old[r, j ^
        flip], with phase +-1 or +-i, so the result is exact."""
        rows = np.flatnonzero(codes)
        table = self._table()
        code = codes[rows][:, None]
        shift = (self.n_qubits - 1 - qubits[rows])[:, None]
        index = np.arange(table.shape[-1])
        source = index ^ np.where(code == 3, 0, 1 << shift)
        table[rows] = _PAULI_PHASE[code, (index >> shift) & 1] * table[rows[:, None], source]

    def reset_rows(self, qubit: int, hit, u) -> None:
        """Reset `qubit` to |0> in every row r with hit[r], with outcome
        uniform u[r]: one `measure_reset0` over a copy of the hit rows."""
        rows = np.flatnonzero(hit)
        table = self._table()
        hit_rows = self._over(table[rows])
        hit_rows.measure_reset0(qubit, u[rows])
        table[rows] = hit_rows.amps

    def flip_z(self, flips) -> None:
        """Z on every qubit q with flips[r, q], in each row r: one sign
        multiply, -1 where an odd number of flipped qubits read 1."""
        rows = np.flatnonzero(flips.any(axis=1))
        table = self._table()
        mask = flips[rows] @ (1 << np.arange(self.n_qubits - 1, -1, -1))
        odd = mask[:, None] & np.arange(table.shape[-1])
        parity = np.zeros(odd.shape, dtype=odd.dtype)
        for _ in range(self.n_qubits):
            parity ^= odd & 1
            odd >>= 1
        table[rows] *= 1.0 - 2.0 * parity

    # --- readout ---------------------------------------------------------

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def amplitude(self, bitstring: str) -> complex:
        self._check_bitstring(bitstring)
        return complex(self.amps[int(bitstring, 2)])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def distribution(self) -> dict[str, float]:
        """Exact outcome distribution; omits zero-probability bitstrings."""
        probs = self.probabilities()
        width = self.n_qubits
        return {format(i, f"0{width}b"): float(p)
                for i, p in enumerate(probs) if p > 0.0}

    def measure_at(self, u) -> np.ndarray:
        """Z-basis outcomes fixed by uniforms in [0, 1), as `outcome_index`
        picks them from this state's probabilities. A batch takes one u per
        row; a single state takes any number. Returns bits of shape
        u.shape + (n,)."""
        index = outcome_index(self.probabilities(), u)
        shifts = np.arange(self.n_qubits - 1, -1, -1)
        return ((index[..., None] >> shifts) & 1).astype(np.uint8)

    def measure_reset0(self, qubit: int, u):
        """Projective Z measurement followed by a flip back to |0> if the
        outcome was 1; a batch collapses row by row. The outcome is 1 where
        the uniform `u` (one per row) lies below p1, the |1> branch's share
        of the row's weight, so p1 is in [0, 1] and the kept branch has
        positive weight: its renormalization never divides by zero.
        Returns the measured bit(s)."""
        v = self.amps.reshape(self.amps.shape[:-1] + (2 ** qubit, 2, -1))
        w0, w1 = (np.sum(np.abs(v[..., b, :]) ** 2, axis=(-2, -1)) for b in (0, 1))
        one = np.reshape(u, w1.shape) < w1 / (w0 + w1)
        scale = 1.0 / np.sqrt(np.where(one, w1, w0))
        keep = (..., None, None)
        v[..., 0, :] = np.where(one[keep], v[..., 1, :], v[..., 0, :]) * scale[keep]
        v[..., 1, :] = 0.0
        return one.astype(int)[()]

    def schmidt_values(self, bond: int) -> np.ndarray:
        """Singular values across the cut [0, bond) | [bond, n)."""
        self._check_bond(bond)
        m = self.amps.reshape(2 ** bond, 2 ** (self.n_qubits - bond))
        return np.linalg.svd(m, compute_uv=False)


def outcome_index(probs: np.ndarray, u) -> np.ndarray:
    """Basis states picked by uniforms in [0, 1): each u picks the one whose
    interval of the cumulative distribution (basis order, qubit 0 most
    significant) contains it. A (rows, 2^n) array takes one u per row; a
    single distribution takes any number."""
    cdf = np.cumsum(probs, axis=-1)
    at = np.asarray(u) * cdf[..., -1]
    if cdf.ndim == 1:
        index = np.searchsorted(cdf, at, side="right")
    else:  # searchsorted takes one sorted array; a batch has a CDF per row
        index = np.sum(cdf <= at[:, None], axis=-1)
    return np.minimum(index, cdf.shape[-1] - 1)


def run(circuit: Circuit, max_qubits: int = DEFAULT_MAX_QUBITS) -> DenseState:
    return DenseState(circuit.n_qubits, max_qubits=max_qubits).run(circuit)
