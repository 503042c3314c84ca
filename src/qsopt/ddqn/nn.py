"""Q-network and optimizer built directly on numpy.

Architecture over an Observation: two 3x3 same-padded convolutions (16
then 32 filters, ReLU) across the qubit-by-moment grid, then a per-qubit
readout. Each qubit row contributes two feature vectors: the mean of its
32 features over the moments, and the 32 features at its last occupied
moment (the last whose CH_EMPTY channel is 0; moment 0 for a qubit with
no gate), which is where most edits act. Mean pooling over a whole axis
in place of a flatten follows Lin et al., "Network in Network"
(arXiv:1312.4400). The 2*n*32 readout and the aux features feed one
dense ReLU layer of 256 units, then a dueling pair of heads: per-action
advantages and a scalar state value, combined as Q = V + A - mean(A).
So the parameter count grows with the qubit count but not with the gate
budget.

Forward passes cache every intermediate needed for the hand-written
backward pass; gradients are exact (verified against central finite
differences in the test suite). Parameters and activations use the
net's dtype: float32 by default, float64 on request, which the gradient
checks use so their tolerances can be tight.

The convolutions run only over the moments a circuit occupies. Let D_b
be sample b's depth: one plus its last moment with a cell other than the
empty one-hot (CH_EMPTY 1, every other channel 0). Empty cells are one
constant input, so conv1's output is one per-qubit value at every moment
m with D_b + 1 <= m <= W - 2, and conv2's output is one per-qubit "deep"
value at every m with D_b + 2 <= m <= W - 3; the last two moments differ
from it only through the zero pad. So sample b keeps its first
w_b = min(W, D_b + 5) moments: the live ones [0, D_b + 2), its deep
column at w_b - 3, and two edge columns, which its own right border
reproduces exactly, since they see the same empty cells and the same
zero pad as moments W - 2 and W - 1. The crops lie side by side on one
packed moment axis, each followed by one zero separator column, so a
batch is one (1, H, L, C) grid with L = sum(w_b + 1) <= B*(W + 1).
conv1's output is set to zero on the separators, so that no crop sees its
neighbour, and conv2's output there, and the gradients of both, are
dropped (packing without cross-contamination, as in Krell et al.,
arXiv:2107.02027). The per-qubit mean is the sum over the crop, with the deep
column weighted by W - w_b + 1 (the full-grid moments it stands for),
divided by W; by linearity, weighting the deep column's gradient the same
way gives the full grid's weight gradients. With w_b = W the weight is 1,
so one path covers every batch, and in exact arithmetic the net computes
the same function as over the full grid (a property test compares the
two in float64). The last occupied moment lies before D_b, in the live
part of the crop.

Convolutions run as one product over im2col patches laid out tap-major:
patch column (3*di + dj)*C + c holds channel c at offset (di-1, dj-1), so
each kernel row of a patch is one contiguous span of the zero-padded
input. The conv weights are held in that patch order too; only drawing,
saving and loading them meets the (C,3,3) row order of the init draw and
of the checkpoint layout.

The learner's state is a few flat vectors of the net's dtype. A QNet's
weights are one vector, and `params` maps each parameter's name to a view
into it. `backward` writes every gradient into one gradient vector of the
same layout and returns its views, which the next backward overwrites.
The Double-DQN target is a second weight vector of that layout (`draw`),
which `forward` runs in place of the net's own. Adam keeps two moment
vectors and steps the whole weight vector.

Activations, patches, padded inputs and backward intermediates live in
the net's workspace, shared by every weight vector it runs and by every
batch size, so a warm pass allocates no large array. The workspace is
sized for the largest batch seen so far, and grows when a larger one
comes: a pass of b rows takes the prefix of b rows of each per-sample
array and of its L columns of each packed-grid array. Returned Q values
are fresh arrays. The arrays of a `forward_cached` cache belong to the
workspace: a cache is valid until the net's next forward, and `backward`
consumes it. Every operation runs in the same order and on the same
element layout as a plain allocating implementation of the packed grid
on tap-major patches, so results are bitwise equal to it (a test keeps
that implementation as a reference). A full-grid implementation on
channel-major patches anchors both in float64.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..env import CH_EMPTY

# v2: the per-qubit readout replaced v1's flatten of the whole grid, so a
# v1 dense layer has no counterpart here
CHECKPOINT_VERSION = 2


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# one 3x3 tap offset d along an axis: (patch cells, the input cells they
# add to). Patch cell i belongs to input cell i + d - 1.
_TAP = ((slice(1, None), slice(None, -1)),
        (slice(None), slice(None)),
        (slice(None, -1), slice(1, None)))
# Adam works through the weight vector in chunks of this many elements, so
# that the passes of one update stay in cache
_ADAM_CHUNK = 1 << 16


class _Layout(NamedTuple):
    """A batch's crops side by side on one packed moment axis of L columns,
    each crop followed by one zero separator column."""
    sample: np.ndarray  # (L,) the sample of each column
    moment: np.ndarray  # (L,) its moment in that sample's grid (any, on a separator)
    starts: np.ndarray  # (B,) each crop's first column
    seps: np.ndarray    # (B,) each crop's separator column
    deep: np.ndarray    # (B,) each crop's deep column
    weight: np.ndarray  # (B,) the moments of the full grid its deep column stands for


def _layout(grid: np.ndarray) -> _Layout:
    """The packed layout of a (B,H,W,C) batch: sample b keeps its first
    w_b = min(W, D_b + 5) moments, D_b being one plus its last moment with a
    cell other than the empty one-hot."""
    b, _, w, c = grid.shape
    empty = np.zeros(c, grid.dtype)
    empty[CH_EMPTY] = 1
    live = (grid != empty).any(axis=1).any(axis=2)  # (B, W); faster than axis=(1, 3)
    depth = np.max(live * np.arange(1, w + 1), axis=1)  # 0 for an empty grid
    # the live moments, two more that see them through conv1 and conv2,
    # one deep moment and two edge moments
    width = np.minimum(w, depth + 5)
    seps = np.cumsum(width + 1) - 1
    starts = seps - width
    sample = np.repeat(np.arange(b), width + 1)
    moment = np.arange(seps[-1] + 1) - starts[sample]
    np.minimum(moment, w - 1, out=moment)
    return _Layout(sample, moment, starts, seps,
                   deep=starts + np.maximum(width - 3, 0), weight=w - width + 1)


def _im2col(x: np.ndarray, out: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """(B,H,W,C) -> (B,H,W,9*C) tap-major patches of the zero-padded input.

    Patch column (3*di + dj)*C + c holds input channel c at offset
    (di - 1, dj - 1). The input is copied once into the interior of
    `pad`, a (B,H+2,W+2,C) buffer whose border must be zero, and the
    patches fill `out`, a (B,H,W,3,3,C) buffer, in one copy from a window
    view of it: each kernel row is one contiguous span of 3*C padded
    values.
    """
    b, h, w, c = x.shape
    pad[:, 1:-1, 1:-1] = x
    windows = sliding_window_view(pad, (3, 3), axis=(1, 2))
    np.copyto(out, windows.transpose(0, 1, 2, 4, 5, 3))
    return out.reshape(b, h, w, -1)


def _col2im(dpatches: np.ndarray, x_shape, out: np.ndarray) -> np.ndarray:
    """Scatter tap-major patch gradients back onto the (unpadded) input,
    into `out`, a buffer of shape x_shape. Taps add in the same order as
    a scatter onto a padded input, so the sums round the same way. On a
    packed (1,H,L,C) input each of the nine adds is one pass over the
    whole grid: blocks of crops measured slower (3.3 against 1.7 ms on the
    train-exact shape)."""
    b, h, w, c = x_shape
    dp = dpatches.reshape(b, h, w, 3, 3, c)
    out.fill(0)
    for di, (ti, si) in enumerate(_TAP):
        for dj, (tj, sj) in enumerate(_TAP):
            out[:, si, sj] += dp[:, ti, tj, di, dj]
    return out


def _readout_rows(grid: np.ndarray, lay: _Layout) -> np.ndarray:
    """(B,H) rows of the packed (H*L, C) conv output to read per qubit: row
    q*L + starts[b] + m, m being the last moment of qubit q of sample b
    with CH_EMPTY 0, or 0 where it has none. That moment lies before the
    sample's depth, so it is a live column of its crop."""
    occupied = grid[..., CH_EMPTY] == 0
    b, h, w = occupied.shape
    last = np.where(occupied.any(axis=2), w - 1 - np.argmax(occupied[..., ::-1], axis=2), 0)
    last += lay.starts[:, None] + np.arange(0, h * len(lay.sample), len(lay.sample))
    return last


def _tap_major(w: np.ndarray, c: int) -> np.ndarray:
    """Conv weights with (C,3,3) rows, reordered to the (3,3,C) rows of the
    patches: a fresh (9*C, n) array."""
    return w.reshape(c, 9, -1).transpose(1, 0, 2).reshape(9 * c, -1)


def _channel_major(w: np.ndarray, c: int) -> np.ndarray:
    """The inverse of `_tap_major`."""
    return w.reshape(9, c, -1).transpose(1, 0, 2).reshape(9 * c, -1)


class _Workspace:
    """Every large array of one forward and backward pass of up to `b` rows.

    An array over the packed grid is a flat buffer long enough for the
    widest packing, b*(W+1) columns; a pass takes the prefix of its L
    columns. A padded input is (1, H+2, b*(W+1)+2, C), and a pass takes
    its first L+2 columns. A per-sample array has b rows, and a pass of
    fewer rows takes their prefix.
    """

    def __init__(self, net: "QNet", b: int):
        h, w, c = net.grid_shape
        c1, c2, hidden = net.widths
        self.h, self.b = h, b
        cells = h * b * (w + 1)

        def buf(*shape):
            return np.empty(shape, net.dtype)

        self.cols1, self.cols2 = buf(cells * 9 * c), buf(cells * 9 * c1)
        # zero top, bottom and left borders, written once: a pass writes
        # only the interior of its first L + 2 columns, and re-zeroes its
        # right border, which a longer pass may have written
        self.pad1 = np.zeros((1, h + 2, b * (w + 1) + 2, c), net.dtype)
        self.pad2 = np.zeros((1, h + 2, b * (w + 1) + 2, c1), net.dtype)
        self.z1, self.a1, self.da1 = buf(cells * c1), buf(cells * c1), buf(cells * c1)
        self.z2, self.a2, self.dz2 = buf(cells * c2), buf(cells * c2), buf(cells * c2)
        self.flat = buf(b, 2 * h * c2 + net.aux_dim)
        # per qubit row: [0] the mean over moments, [1] the last occupied moment
        self.readout = self.flat[:, :2 * h * c2].reshape(b, h, 2, c2)  # a view into flat
        self.z3, self.a3 = buf(b, hidden), buf(b, hidden)
        self.adv, self.val = buf(b, net.n_actions), buf(b, 1)
        self.da3, self.dz3 = buf(b, hidden), buf(b, hidden)
        self.dflat = buf(*self.flat.shape)
        self.dreadout = self.dflat[:, :2 * h * c2].reshape(b, h, 2, c2)
        self.dmean = buf(1, h, b, c2)  # the mean's gradient per moment, qubit-major
        self._mask = np.empty(max(cells * max(c1, c2), b * hidden), bool)

    def positive(self, z: np.ndarray) -> np.ndarray:
        """z > 0 in the shared mask buffer."""
        return np.greater(z, 0.0, out=self._mask[:z.size].reshape(z.shape))

    def packed(self, buffer: np.ndarray, length: int, *tail: int) -> np.ndarray:
        """The (1, H, length, *tail) prefix of a packed-grid buffer."""
        shape = (1, self.h, length, *tail)
        return buffer[:math.prod(shape)].reshape(shape)


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
        flat = 2 * h * conv2 + aux_dim
        # each parameter's shape, in the order of the weight vector and of the draw
        self.shapes = {"w1": (9 * c, conv1), "b1": (conv1,), "w2": (9 * conv1, conv2),
                       "b2": (conv2,), "w3": (flat, hidden), "b3": (hidden,),
                       "wa": (hidden, n_actions), "ba": (n_actions,),
                       "wv": (hidden, 1), "bv": (1,)}
        # the input channels of each conv weight, whose rows are held tap-major
        self._conv_in = {"w1": c, "w2": conv1}
        self.weights = self.draw(rng)
        self.params = self.views(self.weights)
        self.grad = np.empty_like(self.weights)
        self._ws: _Workspace | None = None

    def n_params(self) -> int:
        return self.weights.size

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's view into a weight or gradient vector."""
        out, lo = {}, 0
        for name, shape in self.shapes.items():
            hi = lo + math.prod(shape)
            out[name] = vector[lo:hi].reshape(shape)
            lo = hi
        return out

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """A fresh weight vector: every weight matrix Xavier-uniform, drawn in
        parameter order (a conv weight with its (C,3,3) rows, the fans of a
        3x3 kernel), and every bias zero."""
        weights = np.zeros(sum(math.prod(s) for s in self.shapes.values()), self.dtype)
        for name, view in self.views(weights).items():
            if name.startswith("w"):
                fan_in, fan_out = view.shape
                c = self._conv_in.get(name)
                drawn = xavier_uniform(rng, fan_in, fan_out * (9 if c else 1), view.shape)
                view[...] = _tap_major(drawn, c) if c else drawn
        return weights

    def forward(self, grid: np.ndarray, aux: np.ndarray,
                weights: np.ndarray | None = None) -> np.ndarray:
        """Q values under `weights`, a vector of this net's layout, or under
        the net's own weights."""
        params = self.params if weights is None else self.views(weights)
        q, _ = self._forward(grid, aux, params, keep=False)
        return q

    def forward_cached(self, grid: np.ndarray, aux: np.ndarray):
        return self._forward(grid, aux, self.params, keep=True)

    def _forward(self, grid: np.ndarray, aux: np.ndarray, p: dict[str, np.ndarray], keep: bool):
        grid, aux = np.asarray(grid), np.asarray(aux)
        if aux.shape[0] != grid.shape[0]:
            raise ValueError(f"{grid.shape[0]} grids but {aux.shape[0]} aux rows")
        b = grid.shape[0]
        if self._ws is None or self._ws.b < b:
            self._ws = None  # free the smaller workspace before building its successor
            self._ws = _Workspace(self, b)
        ws = self._ws
        (w, c), (c1, c2, _) = self.grid_shape[1:], self.widths
        lay = _layout(grid)
        n = len(lay.sample)
        pad1, pad2 = ws.pad1[:, :, :n + 2], ws.pad2[:, :, :n + 2]
        pad1[:, :, -1] = 0  # a longer pass wrote its interior there
        pad2[:, :, -1] = 0
        # the packed input: each crop, then its zero separator
        x = grid.transpose(1, 0, 2, 3)[None, :, lay.sample, lay.moment]
        x[:, :, lay.seps] = 0
        p1 = _im2col(x, ws.packed(ws.cols1, n, 3, 3, c), pad1)
        z1 = ws.packed(ws.z1, n, c1)
        np.matmul(p1.reshape(-1, 9 * c), p["w1"], out=z1.reshape(-1, c1))
        z1 += p["b1"]
        a1 = np.maximum(z1, 0.0, out=ws.packed(ws.a1, n, c1))
        a1[:, :, lay.seps] = 0
        p2 = _im2col(a1, ws.packed(ws.cols2, n, 3, 3, c1), pad2)
        z2 = ws.packed(ws.z2, n, c2)
        np.matmul(p2.reshape(-1, 9 * c1), p["w2"], out=z2.reshape(-1, c2))
        z2 += p["b2"]
        a2 = np.maximum(z2, 0.0, out=ws.packed(ws.a2, n, c2))
        # the mean over a crop: its separator adds nothing, and its deep
        # column counts once for every full-grid moment it stands for
        a2[:, :, lay.seps] = 0
        a2[:, :, lay.deep] *= lay.weight[:, None]
        readout = ws.readout[:b]
        np.add.reduceat(a2[0], lay.starts, axis=1, out=readout[:, :, 0].transpose(1, 0, 2))
        readout[:, :, 0] /= w
        rows = _readout_rows(grid, lay)
        np.take(a2.reshape(-1, c2), rows, axis=0, out=readout[:, :, 1])
        flat = ws.flat[:b]
        flat[:, flat.shape[1] - self.aux_dim:] = aux
        z3 = np.matmul(flat, p["w3"], out=ws.z3[:b])
        z3 += p["b3"]
        a3 = np.maximum(z3, 0.0, out=ws.a3[:b])
        adv = np.matmul(a3, p["wa"], out=ws.adv[:b])
        adv += p["ba"]
        val = np.matmul(a3, p["wv"], out=ws.val[:b])
        val += p["bv"]
        q = val + adv
        q -= adv.mean(axis=1, keepdims=True)
        cache = (p1, z1, a1, p2, z2, lay, rows, flat, z3, a3) if keep else None
        return q, cache

    def backward(self, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss with upstream derivative dq = dL/dQ, as
        views into `grad`.

        Consumes the cache: the conv2 patch gradient overwrites its patches.
        """
        p = self.params
        p1, z1, a1, p2, z2, lay, rows, flat, z3, a3 = cache
        b = flat.shape[0]
        ws = self._ws
        dq = np.asarray(dq, dtype=self.dtype)
        g = self.views(self.grad)
        # dueling combination: dA = dQ - mean_a dQ, dV = sum_a dQ
        dval = dq.sum(axis=1, keepdims=True)
        dadv = dq - dq.mean(axis=1, keepdims=True)
        np.matmul(a3.T, dadv, out=g["wa"])
        dadv.sum(axis=0, out=g["ba"])
        np.matmul(a3.T, dval, out=g["wv"])
        dval.sum(axis=0, out=g["bv"])
        da3 = np.matmul(dadv, p["wa"].T, out=ws.da3[:b])
        da3 += np.matmul(dval, p["wv"].T, out=ws.dz3[:b])
        dz3 = np.multiply(da3, ws.positive(z3), out=ws.dz3[:b])
        np.matmul(flat.T, dz3, out=g["w3"])
        dz3.sum(axis=0, out=g["b3"])
        np.matmul(dz3, p["w3"].T, out=ws.dflat[:b])
        # the mean spreads its gradient evenly over a crop's moments, the
        # deep column taking its weight's share, and the read moment adds
        # its own
        (w, c), (c1, c2, _) = self.grid_shape[1:], self.widths
        n = len(lay.sample)
        dmean, dlast = ws.dreadout[:b, :, 0], ws.dreadout[:b, :, 1]
        per_moment = ws.dmean[:, :, :b]
        np.divide(dmean.transpose(1, 0, 2), w, out=per_moment[0])
        # mode="clip" lets take write straight into `out` (indices are in range)
        da2 = np.take(per_moment, lay.sample, axis=2, out=ws.packed(ws.dz2, n, c2), mode="clip")
        da2[:, :, lay.seps] = 0
        da2[:, :, lay.deep] *= lay.weight[:, None]
        da2_rows = da2.reshape(-1, c2)
        da2_rows[rows] += dlast
        dz2 = np.multiply(da2, ws.positive(z2), out=da2)
        dz2_rows = dz2.reshape(-1, c2)
        p2_rows = p2.reshape(-1, p2.shape[-1])
        np.matmul(p2_rows.T, dz2_rows, out=g["w2"])
        dz2.sum(axis=(0, 1, 2), out=g["b2"])
        # one 2-D product over the (H*L, c2) rows, written over the patches
        np.matmul(dz2_rows, p["w2"].T, out=p2_rows)
        da1 = _col2im(p2, a1.shape, ws.packed(ws.da1, n, c1))
        dz1 = np.multiply(da1, ws.positive(z1), out=da1)
        dz1[:, :, lay.seps] = 0
        np.matmul(p1.reshape(-1, p1.shape[-1]).T, dz1.reshape(-1, c1), out=g["w1"])
        dz1.sum(axis=(0, 1, 2), out=g["b1"])
        return g

    # --- checkpoints --------------------------------------------------------

    def meta(self) -> dict:
        return {"grid_shape": list(self.grid_shape), "aux_dim": self.aux_dim,
                "n_actions": self.n_actions, "widths": list(self.widths),
                "dtype": self.dtype.name}

    def save(self, path, extra: dict | None = None) -> None:
        """One array per parameter, a conv weight with its (C,3,3) rows."""
        header = {"version": CHECKPOINT_VERSION, "net": self.meta(), "extra": extra or {}}
        arrays = {k: _channel_major(v, self._conv_in[k]) if k in self._conv_in else v
                  for k, v in self.params.items()}
        with open(path, "wb") as fh:
            np.savez(fh, __header__=np.frombuffer(
                json.dumps(header, sort_keys=True).encode(), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path) -> tuple["QNet", dict]:
        with np.load(path) as data:
            header = json.loads(bytes(data["__header__"]))
            if header["version"] == 1:
                raise ValueError("checkpoint version 1 holds the flatten head, a dense "
                                 "layer over the whole grid, which was removed in "
                                 f"version {CHECKPOINT_VERSION}; it cannot be loaded")
            if header["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {header['version']}")
            meta = header["net"]
            net = cls(tuple(meta["grid_shape"]), meta["aux_dim"], meta["n_actions"],
                      np.random.default_rng(0), *meta["widths"],
                      dtype=np.dtype(meta["dtype"]))
            for k, view in net.params.items():
                c = net._conv_in.get(k)
                view[...] = _tap_major(data[k], c) if c else data[k]
        return net, header["extra"]


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard first/second-moment optimizer with bias correction, over
    one flat weight vector.

    The vector is updated in chunks, each with the same operations in the
    same order as the plain expression, computed in one scratch array that
    holds a chunk's numerator and denominator. So a step allocates
    nothing, and a chunk's passes stay in cache. The gradient is expected
    in the weights' dtype, as QNet.backward writes it.
    """

    def __init__(self, weights: np.ndarray):
        self.t = 0
        self.m = np.zeros_like(weights)
        self.v = np.zeros_like(weights)
        self.scratch = np.empty((2, min(weights.size, _ADAM_CHUNK)), weights.dtype)

    def step(self, weights: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - _BETA1 ** self.t
        c2 = 1.0 - _BETA2 ** self.t
        for lo in range(0, weights.size, _ADAM_CHUNK):
            span = slice(lo, lo + _ADAM_CHUNK)
            m, v, g = self.m[span], self.v[span], grad[span]
            num, den = self.scratch[:, :len(g)]
            m *= _BETA1
            m += np.multiply(1.0 - _BETA1, g, out=num)
            v *= _BETA2
            v += np.multiply(np.multiply(1.0 - _BETA2, g, out=den), g, out=den)
            # weights -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.multiply(lr, np.divide(m, c1, out=num), out=num)
            np.sqrt(np.divide(v, c2, out=den), out=den)
            den += _EPS
            weights[span] -= np.divide(num, den, out=num)
