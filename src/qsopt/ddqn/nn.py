"""Q-network and optimizer built directly on numpy.

Architecture over an Observation: two 3x3 same-padded convolutions (16
then 32 filters, ReLU) across the qubit-by-moment grid, flatten,
concatenate the aux features, one dense ReLU layer of 256 units, then a
dueling pair of heads: per-action advantages and a scalar state value,
combined as Q = V + A - mean(A).

Forward passes cache every intermediate needed for the hand-written
backward pass; gradients are exact (verified against central finite
differences in the test suite). Parameters and activations use the
net's dtype: float32 by default, float64 on request, which the gradient
checks use so their tolerances can be tight.
"""

from __future__ import annotations

import json

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CHECKPOINT_VERSION = 1


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _im2col(x: np.ndarray) -> np.ndarray:
    """(B,H,W,C) -> (B,H,W,C*9) patches of the zero-padded input."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))  # (B,H,W,C,3,3)
    b, h, w = x.shape[:3]
    return win.reshape(b, h, w, -1)


def _col2im(dpatches: np.ndarray, x_shape) -> np.ndarray:
    """Scatter patch gradients back onto the (unpadded) input."""
    b, h, w, c = x_shape
    dp = dpatches.reshape(b, h, w, c, 3, 3)
    dxp = np.zeros((b, h + 2, w + 2, c), dtype=dpatches.dtype)
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + h, dj:dj + w, :] += dp[:, :, :, :, di, dj]
    return dxp[:, 1:-1, 1:-1, :]


class QNet:
    def __init__(self, grid_shape: tuple[int, int, int], aux_dim: int, n_actions: int,
                 rng: np.random.Generator, conv1: int = 16, conv2: int = 32,
                 hidden: int = 256, dtype=np.float32):
        h, w, c = grid_shape
        self.grid_shape = grid_shape
        self.aux_dim = aux_dim
        self.n_actions = n_actions
        self.widths = (conv1, conv2, hidden)
        self.dtype = np.dtype(dtype)
        flat = h * w * conv2 + aux_dim
        self.params = {
            "w1": xavier_uniform(rng, 9 * c, 9 * conv1, (9 * c, conv1)),
            "b1": np.zeros(conv1),
            "w2": xavier_uniform(rng, 9 * conv1, 9 * conv2, (9 * conv1, conv2)),
            "b2": np.zeros(conv2),
            "w3": xavier_uniform(rng, flat, hidden, (flat, hidden)),
            "b3": np.zeros(hidden),
            "wa": xavier_uniform(rng, hidden, n_actions, (hidden, n_actions)),
            "ba": np.zeros(n_actions),
            "wv": xavier_uniform(rng, hidden, 1, (hidden, 1)),
            "bv": np.zeros(1),
        }
        self.params = {k: v.astype(self.dtype) for k, v in self.params.items()}

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def forward(self, grid: np.ndarray, aux: np.ndarray) -> np.ndarray:
        q, _ = self._forward(grid, aux, keep=False)
        return q

    def forward_cached(self, grid: np.ndarray, aux: np.ndarray):
        return self._forward(grid, aux, keep=True)

    def _forward(self, grid: np.ndarray, aux: np.ndarray, keep: bool):
        p = self.params
        grid = np.ascontiguousarray(grid, dtype=self.dtype)
        aux = np.ascontiguousarray(aux, dtype=self.dtype)
        b = grid.shape[0]
        p1 = _im2col(grid)
        z1 = p1 @ p["w1"] + p["b1"]
        a1 = np.maximum(z1, 0.0)
        p2 = _im2col(a1)
        z2 = p2 @ p["w2"] + p["b2"]
        a2 = np.maximum(z2, 0.0)
        flat = np.concatenate([a2.reshape(b, -1), aux], axis=1)
        z3 = flat @ p["w3"] + p["b3"]
        a3 = np.maximum(z3, 0.0)
        adv = a3 @ p["wa"] + p["ba"]
        val = a3 @ p["wv"] + p["bv"]
        q = val + adv - adv.mean(axis=1, keepdims=True)
        cache = (p1, z1, a1, p2, z2, a2, flat, z3, a3) if keep else None
        return q, cache

    def backward(self, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss with upstream derivative dq = dL/dQ."""
        p = self.params
        p1, z1, a1, p2, z2, a2, flat, z3, a3 = cache
        dq = np.asarray(dq, dtype=self.dtype)
        g = {}
        # dueling combination: dA = dQ - mean_a dQ, dV = sum_a dQ
        dval = dq.sum(axis=1, keepdims=True)
        dadv = dq - dq.mean(axis=1, keepdims=True)
        g["wa"] = a3.T @ dadv
        g["ba"] = dadv.sum(axis=0)
        g["wv"] = a3.T @ dval
        g["bv"] = dval.sum(axis=0)
        da3 = dadv @ p["wa"].T + dval @ p["wv"].T
        dz3 = da3 * (z3 > 0.0)
        g["w3"] = flat.T @ dz3
        g["b3"] = dz3.sum(axis=0)
        dflat = dz3 @ p["w3"].T
        split = flat.shape[1] - self.aux_dim
        da2 = dflat[:, :split].reshape(a2.shape)
        dz2 = da2 * (z2 > 0.0)
        g["w2"] = p2.reshape(-1, p2.shape[-1]).T @ dz2.reshape(-1, dz2.shape[-1])
        g["b2"] = dz2.sum(axis=(0, 1, 2))
        da1 = _col2im(dz2 @ p["w2"].T, a1.shape)
        dz1 = da1 * (z1 > 0.0)
        g["w1"] = p1.reshape(-1, p1.shape[-1]).T @ dz1.reshape(-1, dz1.shape[-1])
        g["b1"] = dz1.sum(axis=(0, 1, 2))
        return g

    # --- parameter management --------------------------------------------

    def copy_params_from(self, other: "QNet") -> None:
        for k, v in other.params.items():
            np.copyto(self.params[k], v)

    def clone(self) -> "QNet":
        twin = QNet(self.grid_shape, self.aux_dim, self.n_actions,
                    np.random.default_rng(0), *self.widths, dtype=self.dtype)
        twin.copy_params_from(self)
        return twin

    def meta(self) -> dict:
        return {"grid_shape": list(self.grid_shape), "aux_dim": self.aux_dim,
                "n_actions": self.n_actions, "widths": list(self.widths),
                "dtype": self.dtype.name}

    def save(self, path, extra: dict | None = None) -> None:
        header = {"version": CHECKPOINT_VERSION, "net": self.meta(), "extra": extra or {}}
        with open(path, "wb") as fh:
            np.savez(fh, __header__=np.frombuffer(
                json.dumps(header, sort_keys=True).encode(), dtype=np.uint8),
                **self.params)

    @classmethod
    def load(cls, path) -> tuple["QNet", dict]:
        with np.load(path) as data:
            header = json.loads(bytes(data["__header__"]))
            if header["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {header['version']}")
            meta = header["net"]
            net = cls(tuple(meta["grid_shape"]), meta["aux_dim"], meta["n_actions"],
                      np.random.default_rng(0), *meta["widths"],
                      dtype=np.dtype(meta["dtype"]))
            for k in net.params:
                np.copyto(net.params[k], data[k])
        return net, header["extra"]


class Adam:
    """Standard first/second-moment optimizer with bias correction."""

    def __init__(self, params: dict[str, np.ndarray],
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            params[k] -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
