"""Backend selection shared by the metrics, environment and CLI layers,
and `require_int`, the one integer check of every config's integer fields."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from . import mps, statevector
from .circuit import Circuit

BACKENDS = ("mps", "statevector")


def require_int(name: str, value):
    """value, if it is an integer; else a ValueError naming it. A bool is
    not taken for one, nor is a float with an integral value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}={value!r} must be an integer")
    return value


def require_real(name: str, value):
    """value, if it is a real number; else a ValueError naming it. A bool is
    not taken for one, nor is a string that spells one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}={value!r} must be a number")
    return value


@dataclass(frozen=True)
class BackendSpec:
    kind: str = "mps"
    chi_max: int = 64
    trunc_tol: float = 1e-10
    dense_cap: int = statevector.DEFAULT_MAX_QUBITS

    def __post_init__(self):
        if self.kind not in BACKENDS:
            raise ValueError(f"unknown backend {self.kind!r}; expected one of {BACKENDS}")
        for name in ("chi_max", "dense_cap"):
            require_int(name, getattr(self, name))
        if self.chi_max < 1:
            raise ValueError(f"chi_max must be positive, got {self.chi_max}")
        if not require_real("trunc_tol", self.trunc_tol) >= 0.0:  # also rejects NaN
            raise ValueError(f"trunc_tol must be nonnegative, got {self.trunc_tol}")
        if self.dense_cap < 1:
            raise ValueError(f"dense_cap must be positive, got {self.dense_cap}")

    def fresh(self, n_qubits: int, batch: int | None = None):
        """A state in |0..0>: a single one, or `batch` of them as rows."""
        if self.kind == "mps":
            return mps.MpsState(n_qubits, chi_max=self.chi_max, trunc_tol=self.trunc_tol,
                                batch=batch)
        return statevector.DenseState(n_qubits, max_qubits=self.dense_cap, batch=batch)

    def run(self, circuit: Circuit):
        return self.fresh(circuit.n_qubits).run(circuit)
