"""The QNet workspace against the allocating implementations it replaced.

`packed_forward`, `packed_backward` and `RefAdam.step` below are a plain
allocating implementation of the net (methods take their net as `self`)
over the packed grid: each sample cropped to min(W, depth + 5) moments,
the crops side by side with one zero column after each, built one sample
at a time. Patches are tap-major: `_im2col` and `_col2im` lay patch
columns out as (3,3,C), and the conv weights, stored with (C,3,3) rows,
are reordered to match; the net holds its conv weights in the patch
order, so they are compared in the stored order (`_stored`). The
per-qubit readout finds each qubit's last occupied moment with a Python
loop. The workspace version must give bitwise-equal Q values, cache
entries, gradients and parameters, and hand out nothing that a later
pass overwrites before the net's next backward.

`ref_forward` and `ref_backward` run the net over the full grid, every
moment of every sample. The packed net must match them in float64 up to
rounding, on random grids (every crop whole) and, as a property, on
encoded circuits of any depth; on the former also with the channel-major
patches the net used before, kept below as `_im2col_channel_major` and
`_col2im_channel_major`.
"""

import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from qsopt.ddqn import QNet, ReplayBuffer, Transition, train_step
from qsopt.ddqn.nn import Adam, _layout
from qsopt.ddqn.nn import _Layout as Layout
from qsopt.env import CH_ANGLE, CH_EMPTY, N_CHANNELS, Observation

try:
    from hypothesis import example, given
    from hypothesis import strategies as st
except ImportError:  # a test extra: without it the property test is not collected
    given = None


# --- reference: the allocating implementation -----------------------------

def _im2col(x: np.ndarray) -> np.ndarray:
    """(B,H,W,C) -> (B,H,W,9*C) tap-major patches of the zero-padded input."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))  # (B,H,W,C,3,3)
    b, h, w = x.shape[:3]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(b, h, w, -1)


def _col2im(dpatches: np.ndarray, x_shape) -> np.ndarray:
    """Scatter tap-major patch gradients back onto the (unpadded) input."""
    b, h, w, c = x_shape
    dp = dpatches.reshape(b, h, w, 3, 3, c)
    dxp = np.zeros((b, h + 2, w + 2, c), dtype=dpatches.dtype)
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + h, dj:dj + w, :] += dp[:, :, :, di, dj, :]
    return dxp[:, 1:-1, 1:-1, :]


def _tap_major(w: np.ndarray) -> np.ndarray:
    """(C*9, n) weights with (C,3,3) rows -> (9*C, n) with (3,3,C) rows."""
    return w.reshape(-1, 9, w.shape[1]).transpose(1, 0, 2).reshape(w.shape)


def _channel_major(g: np.ndarray) -> np.ndarray:
    return g.reshape(9, -1, g.shape[1]).transpose(1, 0, 2).reshape(g.shape)


def _im2col_channel_major(x: np.ndarray) -> np.ndarray:
    """(B,H,W,C) -> (B,H,W,C*9) patches with (C,3,3) columns."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))  # (B,H,W,C,3,3)
    b, h, w = x.shape[:3]
    return win.reshape(b, h, w, -1)


def _col2im_channel_major(dpatches: np.ndarray, x_shape) -> np.ndarray:
    b, h, w, c = x_shape
    dp = dpatches.reshape(b, h, w, c, 3, 3)
    dxp = np.zeros((b, h + 2, w + 2, c), dtype=dpatches.dtype)
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + h, dj:dj + w, :] += dp[:, :, :, :, di, dj]
    return dxp[:, 1:-1, 1:-1, :]


def _unchanged(w: np.ndarray) -> np.ndarray:
    return w


# how the reference lays out conv patches: im2col, col2im, the weight
# reorder for the products and the gradient reorder back
TAP_MAJOR = (_im2col, _col2im, _tap_major, _channel_major)
CHANNEL_MAJOR = (_im2col_channel_major, _col2im_channel_major, _unchanged, _unchanged)


def _ref_head(self, flat: np.ndarray):
    """The dense layers after the readout: Q and what backward needs."""
    p = self.params
    z3 = flat @ p["w3"] + p["b3"]
    a3 = np.maximum(z3, 0.0)
    adv = a3 @ p["wa"] + p["ba"]
    val = a3 @ p["wv"] + p["bv"]
    return val + adv - adv.mean(axis=1, keepdims=True), z3, a3


def _ref_head_backward(self, flat, z3, a3, dq, g):
    """Fill g with the dense layers' gradients; return the readout's, (B, H, 2, c2)."""
    p = self.params
    dq = np.asarray(dq, dtype=self.dtype)
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
    b, c2 = len(flat), len(p["b2"])
    return dflat[:, :flat.shape[1] - self.aux_dim].reshape(b, -1, 2, c2)


def _last_occupied(grid: np.ndarray) -> np.ndarray:
    """(B, H): each qubit's last moment with a gate, 0 for a qubit with none."""
    return np.array([[max(np.flatnonzero(row == 0), default=0) for row in sample]
                     for sample in grid[..., CH_EMPTY]]).reshape(grid.shape[:2])


def ref_forward(self, grid: np.ndarray, aux: np.ndarray, keep: bool, layout=TAP_MAJOR):
    """The net over the full (B, H, W) grid."""
    im2col, _, weights, _ = layout
    p = self.params
    grid = np.ascontiguousarray(grid, dtype=self.dtype)
    aux = np.ascontiguousarray(aux, dtype=self.dtype)
    b = grid.shape[0]
    p1 = im2col(grid)
    z1 = p1 @ weights(p["w1"]) + p["b1"]
    a1 = np.maximum(z1, 0.0)
    p2 = im2col(a1)
    z2 = p2 @ weights(p["w2"]) + p["b2"]
    a2 = np.maximum(z2, 0.0)
    h, w, c2 = a2.shape[1:]
    last = _last_occupied(grid)
    at_last = a2[np.arange(b)[:, None], np.arange(h), last]
    readout = np.stack([a2.sum(axis=2) / w, at_last], axis=2)
    flat = np.concatenate([readout.reshape(b, -1), aux], axis=1)
    q, z3, a3 = _ref_head(self, flat)
    # the cache names the read cells by their row in the (B*H*W, c2) output
    rows = last + np.arange(b * h).reshape(b, h) * w
    cache = (p1, z1, a1, p2, z2, rows, flat, z3, a3) if keep else None
    return q, cache


def ref_backward(self, cache, dq: np.ndarray, layout=TAP_MAJOR) -> dict[str, np.ndarray]:
    """Gradients over the full grid of a scalar loss with upstream derivative dq = dL/dQ."""
    _, col2im, weights, grads = layout
    p = self.params
    p1, z1, a1, p2, z2, rows, flat, z3, a3 = cache
    g = {}
    dreadout = _ref_head_backward(self, flat, z3, a3, dq, g)
    b, h, w, c2 = z2.shape
    da2 = np.repeat(dreadout[:, :, :1] / w, w, axis=2)
    da2.reshape(-1, c2)[rows.reshape(-1)] += dreadout[:, :, 1].reshape(-1, c2)
    dz2 = da2 * (z2 > 0.0)
    g["w2"] = grads(p2.reshape(-1, p2.shape[-1]).T @ dz2.reshape(-1, dz2.shape[-1]))
    g["b2"] = dz2.sum(axis=(0, 1, 2))
    da1 = col2im(dz2 @ weights(p["w2"]).T, a1.shape)
    dz1 = da1 * (z1 > 0.0)
    g["w1"] = grads(p1.reshape(-1, p1.shape[-1]).T @ dz1.reshape(-1, dz1.shape[-1]))
    g["b1"] = dz1.sum(axis=(0, 1, 2))
    return g


def _depths(grid: np.ndarray) -> list[int]:
    """One plus each sample's last moment with a cell other than the empty one-hot."""
    empty = np.eye(grid.shape[-1])[CH_EMPTY]
    return [max((m + 1 for m in range(grid.shape[2]) if np.any(sample[:, m] != empty)),
                default=0) for sample in grid]


def packed_layout(grid: np.ndarray) -> Layout:
    """The packed layout, one sample at a time."""
    w = grid.shape[2]
    sample, moment, starts, seps, deep, weight = [], [], [], [], [], []
    for b, depth in enumerate(_depths(grid)):
        width = min(w, depth + 5)
        starts.append(len(sample))
        deep.append(len(sample) + max(width - 3, 0))
        seps.append(len(sample) + width)
        weight.append(w - width + 1)
        sample += [b] * (width + 1)
        moment += list(range(width)) + [min(width, w - 1)]
    return Layout(*map(np.array, (sample, moment, starts, seps, deep, weight)))


def packed_forward(self, grid: np.ndarray, aux: np.ndarray, keep: bool):
    """The net over each sample's crop, the crops side by side on one moment axis."""
    p = self.params
    grid = np.ascontiguousarray(grid, dtype=self.dtype)
    aux = np.ascontiguousarray(aux, dtype=self.dtype)
    b, h, w, c = grid.shape
    lay = packed_layout(grid)
    seps = lay.seps
    x = np.concatenate([np.pad(grid[i, :, :s - lay.starts[i]], ((0, 0), (0, 1), (0, 0)))
                        for i, s in enumerate(seps)], axis=1)[None]
    p1 = _im2col(x)
    z1 = (p1.reshape(-1, 9 * c) @ _tap_major(p["w1"])).reshape(*x.shape[:3], -1) + p["b1"]
    a1 = np.maximum(z1, 0.0)
    a1[:, :, seps] = 0.0
    p2 = _im2col(a1)
    z2 = (p2.reshape(-1, p2.shape[-1]) @ _tap_major(p["w2"])).reshape(*x.shape[:3], -1) + p["b2"]
    a2 = np.maximum(z2, 0.0)
    a2[:, :, seps] = 0.0
    # the deep column stands for every full-grid moment of the same value
    a2[:, :, lay.deep] *= lay.weight[:, None]
    mean = np.add.reduceat(a2[0], lay.starts, axis=1).transpose(1, 0, 2) / w
    rows = _last_occupied(grid) + lay.starts[:, None] + np.arange(h) * len(lay.sample)
    at_last = a2.reshape(-1, a2.shape[-1])[rows]
    flat = np.concatenate([np.stack([mean, at_last], axis=2).reshape(b, -1), aux], axis=1)
    q, z3, a3 = _ref_head(self, flat)
    cache = (p1, z1, a1, p2, z2, lay, rows, flat, z3, a3) if keep else None
    return q, cache


def packed_backward(self, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients over the packed grid of a scalar loss with upstream derivative dq."""
    p = self.params
    p1, z1, a1, p2, z2, lay, rows, flat, z3, a3 = cache
    g = {}
    dreadout = _ref_head_backward(self, flat, z3, a3, dq, g)
    w, c2 = self.grid_shape[1], z2.shape[-1]
    da2 = np.zeros_like(z2)
    for i, (start, sep) in enumerate(zip(lay.starts, lay.seps)):
        da2[0, :, start:sep] = (dreadout[i, :, 0] / w)[:, None]
    da2[:, :, lay.deep] *= lay.weight[:, None]
    da2.reshape(-1, c2)[rows.reshape(-1)] += dreadout[:, :, 1].reshape(-1, c2)
    dz2 = da2 * (z2 > 0.0)
    g["w2"] = _channel_major(p2.reshape(-1, p2.shape[-1]).T @ dz2.reshape(-1, c2))
    g["b2"] = dz2.sum(axis=(0, 1, 2))
    da1 = _col2im(dz2.reshape(-1, c2) @ _tap_major(p["w2"]).T, a1.shape)
    dz1 = da1 * (z1 > 0.0)
    dz1[:, :, lay.seps] = 0.0
    g["w1"] = _channel_major(p1.reshape(-1, p1.shape[-1]).T @ dz1.reshape(-1, dz1.shape[-1]))
    g["b1"] = dz1.sum(axis=(0, 1, 2))
    return g


class RefAdam:
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


# --- workspace vs reference -------------------------------------------------

# the train-exact net: 5 qubits x 30 moments x 9 channels, 7 aux features, 55 actions
NETS = {
    "exact-f32": dict(grid_shape=(5, 30, 9), aux_dim=7, n_actions=55),
    "tiny-f64": dict(grid_shape=(3, 4, 2), aux_dim=3, n_actions=5,
                     conv1=3, conv2=4, hidden=8, dtype=np.float64),
}


def _stored(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Copies of the net's parameters or gradients, the conv weights with
    their stored (C,3,3) rows, as the references hold them."""
    return {k: _channel_major(v) if k in ("w1", "w2") else v.copy() for k, v in params.items()}


def _reference(net, weights=None):
    """The reference's stand-in for `net` running `weights`, or its own."""
    params = net.params if weights is None else net.views(weights)
    return SimpleNamespace(params=_stored(params), dtype=net.dtype, aux_dim=net.aux_dim,
                           grid_shape=net.grid_shape)


def _inputs(rng, net, b):
    """Random grids whose empty channel marks about half the cells occupied,
    with qubit 0 empty throughout and the last qubit occupied in the last
    moment, and random aux rows."""
    grid = rng.normal(size=(b, *net.grid_shape))
    empty = grid[..., CH_EMPTY]
    empty[...] = rng.random(empty.shape) < 0.5
    empty[:, 0] = 1.0
    empty[:, -1, -1] = 0.0
    return grid, rng.normal(size=(b, net.aux_dim))


def _assert_same(got, want):
    if isinstance(want, Layout):
        for got_field, want_field in zip(got, want, strict=True):
            _assert_same(got_field, want_field)
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("batch", [1, 3, 128])
@pytest.mark.parametrize("kind", sorted(NETS))
def test_workspace_matches_allocating_reference_bitwise(kind, batch):
    main = QNet(rng=np.random.default_rng(0), **NETS[kind])
    target = main.draw(np.random.default_rng(1))
    ref_main, ref_target = _reference(main), _reference(main, target)
    opt, ref_opt = Adam(main.weights), RefAdam(ref_main.params)
    rng = np.random.default_rng(batch)
    other = 2 if batch != 2 else 5
    for _ in range(3):
        grid, aux = _inputs(rng, main, batch)
        dq = rng.normal(size=(batch, main.n_actions))
        q, cache = main.forward_cached(grid, aux)
        ref_q, ref_cache = packed_forward(ref_main, grid, aux, keep=True)
        _assert_same(q, ref_q)
        assert len(cache) == len(ref_cache)
        for got, want in zip(cache, ref_cache):
            _assert_same(got, want)
        grads = main.backward(cache, dq)
        ref_grads = packed_backward(ref_main, ref_cache, dq)
        assert grads.keys() == ref_grads.keys()
        stored_grads = _stored(grads)
        for k in grads:
            _assert_same(stored_grads[k], ref_grads[k])
        opt.step(main.weights, main.grad, lr=1e-3)
        ref_opt.step(ref_main.params, ref_grads, lr=1e-3)
        stored = _stored(main.params)
        for k in main.params:
            _assert_same(stored[k], ref_main.params[k])

        # the online and the target weights share the net's workspace at
        # each batch size; what one pass returned must survive the next
        # forwards
        kept_q, kept_grads = q.copy(), {k: v.copy() for k, v in grads.items()}
        for b in (batch, other, batch):
            grid, aux = _inputs(rng, main, b)
            for weights, ref in ((None, ref_main), (target, ref_target)):
                _assert_same(main.forward(grid, aux, weights),
                             packed_forward(ref, grid, aux, False)[0])
            q2, _ = main.forward_cached(grid, aux)
            _assert_same(q2, packed_forward(ref_main, grid, aux, False)[0])
        _assert_same(q, kept_q)
        for k in grads:
            _assert_same(grads[k], kept_grads[k])


def test_each_net_owns_a_workspace_grown_to_its_largest_batch():
    main = QNet(rng=np.random.default_rng(0), **NETS["exact-f32"])
    other = QNet(rng=np.random.default_rng(1), **NETS["exact-f32"])
    ref = _reference(main)
    rng = np.random.default_rng(4)
    built, rows = [], []
    for b in (1, 7, 31, 128, 1):
        grid, aux = _inputs(rng, main, b)
        dq = rng.normal(size=(b, main.n_actions))
        q, cache = main.forward_cached(grid, aux)
        # another net of the same shapes, at the largest batch, between the
        # cached forward and its backward
        other.forward(*_inputs(rng, main, 128))
        ref_q, ref_cache = packed_forward(ref, grid, aux, keep=True)
        _assert_same(q, ref_q)
        for got, want in zip(cache, ref_cache, strict=True):
            _assert_same(got, want)
        grads, ref_grads = main.backward(cache, dq), packed_backward(ref, ref_cache, dq)
        stored_grads = _stored(grads)
        for k in grads:
            _assert_same(stored_grads[k], ref_grads[k])
        ws = main._ws
        rows.append(ws.b)
        if not built or built[-1]() is not ws:
            built.append(weakref.ref(ws))
    # each larger batch replaced the workspace; the last batch 1 ran in a prefix
    assert rows == [1, 7, 31, 128, 128]
    del ws, cache
    assert [r() is None for r in built] == [True, True, True, False]


@pytest.mark.parametrize("batch", [1, 128])
def test_tap_major_net_matches_channel_major_reference(batch):
    # the train-exact net in float64: tap order changes only the rounding
    net = QNet(rng=np.random.default_rng(0), **dict(NETS["exact-f32"], dtype=np.float64))
    ref = _reference(net)
    rng = np.random.default_rng(1)
    grid, aux = _inputs(rng, net, batch)
    dq = rng.normal(size=(batch, net.n_actions))
    q, cache = net.forward_cached(grid, aux)
    ref_q, ref_cache = ref_forward(ref, grid, aux, keep=True, layout=CHANNEL_MAJOR)
    grads = _stored(net.backward(cache, dq))
    ref_grads = ref_backward(ref, ref_cache, dq, layout=CHANNEL_MAJOR)
    for got, want in [(q, ref_q)] + [(grads[k], ref_grads[k]) for k in ref_grads]:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


# --- the packed layout against the full grid ------------------------------

def _encoded(rng, h: int, w: int, depths) -> np.ndarray:
    """Grids as `env.encode` writes them: every cell the exact empty
    one-hot, except gate cells (CH_EMPTY 0, one gate channel 1, an angle
    fraction on some) on random qubits of each moment before the sample's
    depth, with at least one in its last such moment."""
    grid = np.zeros((len(depths), h, w, N_CHANNELS))
    grid[..., CH_EMPTY] = 1.0
    for sample, depth in zip(grid, depths):
        for m in range(depth):
            qubits = np.flatnonzero(rng.random(h) < 0.5)
            if m == depth - 1 and len(qubits) == 0:
                qubits = [int(rng.integers(h))]
            for q in qubits:
                cell = sample[q, m]
                cell[CH_EMPTY] = 0.0
                cell[rng.integers(CH_EMPTY + 1, CH_ANGLE)] = 1.0
                cell[CH_ANGLE] = rng.random() * (rng.random() < 0.5)
    return grid


def test_packed_length_is_the_sum_of_crops_and_separators():
    w = 30
    depths = [0, 1, 5, 13, 24, 25, 26, 30]
    grid = _encoded(np.random.default_rng(0), 5, w, depths)
    lay = _layout(grid)
    assert len(lay.sample) == sum(min(w, d + 5) + 1 for d in depths)
    assert all(np.array_equal(got, want) for got, want in zip(lay, packed_layout(grid)))


# float64, so the packed and full-grid sums differ only in rounding
EXACT_F64 = dict(NETS["exact-f32"], dtype=np.float64)
W = EXACT_F64["grid_shape"][1]


def _close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


if given is not None:
    @given(st.lists(st.one_of(st.integers(0, W), st.integers(W - 5, W)), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    @example([0, 1, 5, 13, 24, 25, 26, 30], 0)
    @example([W - 5, W - 4, W - 3, W - 2, W - 1, W], 1)
    def test_packed_net_matches_full_grid(depths, seed):
        net = QNet(rng=np.random.default_rng(seed), **EXACT_F64)
        ref = _reference(net)
        rng = np.random.default_rng(seed)
        h = net.grid_shape[0]
        # a full-depth pass first, on the same workspace, so that stale
        # separators or borders of a longer layout would show
        for batch_depths in ([W] * len(depths), depths):
            grid = _encoded(rng, h, W, batch_depths)
            aux = rng.normal(size=(len(depths), net.aux_dim))
            dq = rng.normal(size=(len(depths), net.n_actions))
            q, cache = net.forward_cached(grid, aux)
            packed_q, packed_cache = packed_forward(ref, grid, aux, keep=True)
            full_q, full_cache = ref_forward(ref, grid, aux, keep=True)
            for got, want in zip(cache, packed_cache, strict=True):
                _assert_same(got, want)
            grads = _stored(net.backward(cache, dq))
            packed_grads = packed_backward(ref, packed_cache, dq)
            full_grads = ref_backward(ref, full_cache, dq)
            _assert_same(q, packed_q)
            _close(q, full_q)
            for k in full_grads:
                _assert_same(grads[k], packed_grads[k])
                _close(grads[k], full_grads[k])


def _warm_train_step_peak(grids) -> int:
    """Peak bytes traced over one warm train step of the train-exact net on a
    replay batch of 128 transitions whose grids `grids(rng)` draws."""
    shapes = NETS["exact-f32"]
    main = QNet(rng=np.random.default_rng(0), **shapes)
    opt = Adam(main.weights)
    rng = np.random.default_rng(2)

    def obs():
        return Observation(grids(rng), rng.normal(size=shapes["aux_dim"]))

    n_actions = shapes["n_actions"]
    buffer = ReplayBuffer(128, main, main.draw(np.random.default_rng(1)))
    for i in range(128):
        buffer.push(Transition(obs(), int(rng.integers(n_actions)), float(rng.normal()),
                               obs(), i % 7 == 0, False, rng.random(n_actions) < 0.8))
    batch = buffer.sample(128, rng, 2.0)
    train_step(main, opt, batch, gamma=0.95, lr=1e-3)  # builds the workspace
    tracemalloc.start()
    try:
        train_step(main, opt, batch, gamma=0.95, lr=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_warm_train_step_allocates_no_large_array():
    # random grids fill every moment, so every crop is the whole grid
    peak = _warm_train_step_peak(lambda rng: rng.normal(size=NETS["exact-f32"]["grid_shape"]))
    # every activation, patch and Adam temporary of a step allocated afresh was 49.6 MB
    assert peak < 16 * 2 ** 20


def test_warm_packed_train_step_allocates_no_large_array():
    # shallow encoded circuits: every crop is shorter than the grid
    h, w, _ = NETS["exact-f32"]["grid_shape"]
    peak = _warm_train_step_peak(lambda rng: _encoded(rng, h, w, [int(rng.integers(13))])[0])
    assert peak < 16 * 2 ** 20
