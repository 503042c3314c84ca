"""Learning stack: network gradients, optimizer, schedules, replay, targets."""

import numpy as np
import pytest

from qsopt.backend import BackendSpec
from qsopt.circuit import ghz
from qsopt.ddqn import (
    AgentConfig,
    PlateauTracker,
    QNet,
    ReplayBuffer,
    Transition,
    agent,
    epsilon_at,
    lr_at,
    select_action,
    sync_target,
    td_targets,
    train,
    train_step,
)
from qsopt.ddqn.nn import Adam, _col2im, _im2col, xavier_uniform
from qsopt.env import (CH_ANGLE, CH_EMPTY, N_CHANNELS, EnvConfig, Observation, action_catalog,
                       aux_size)

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # a test extra: without it the property test is not collected
    given = None


def tiny_net(dtype=np.float64, seed=0):
    return QNet(grid_shape=(3, 4, 2), aux_dim=3, n_actions=5,
                rng=np.random.default_rng(seed), conv1=3, conv2=4, hidden=8,
                dtype=dtype)


def rand_batch_inputs(rng, b=2):
    grid = rng.normal(size=(b, 3, 4, 2))
    aux = rng.normal(size=(b, 3))
    return grid, aux


# --- network --------------------------------------------------------------

def test_xavier_bounds():
    rng = np.random.default_rng(0)
    w = xavier_uniform(rng, 100, 50, (100, 50))
    limit = np.sqrt(6.0 / 150.0)
    assert np.all(np.abs(w) <= limit)
    assert np.std(w) > 0.5 * limit / np.sqrt(3)  # actually spread out


def test_forward_shapes_and_param_count():
    net = tiny_net()
    rng = np.random.default_rng(1)
    grid, aux = rand_batch_inputs(rng, b=4)
    q = net.forward(grid, aux)
    assert q.shape == (4, 5)
    # conv kernels are stored as (9*in, out) matrices over im2col patches;
    # the dense layer reads 2 * conv2 features per qubit plus the aux
    expected = (9 * 2 * 3 + 3) + (9 * 3 * 4 + 4) + ((2 * 3 * 4 + 3) * 8 + 8) \
        + (8 * 5 + 5) + (8 * 1 + 1)
    assert net.n_params() == expected


def test_param_count_does_not_grow_with_the_gate_budget():
    counts = set()
    for max_gates in (30, 60):
        cfg = EnvConfig(n_qubits=5, max_gates=max_gates, max_steps_per_episode=10,
                        shots=0, backend=BackendSpec(kind="statevector"))
        net = QNet((cfg.n_qubits, cfg.grid_depth, N_CHANNELS), aux_size(cfg),
                   len(action_catalog(cfg)), np.random.default_rng(0))
        counts.add(net.n_params())
    assert len(counts) == 1


def test_forward_rejects_mismatched_batches():
    net = tiny_net()
    grid, aux = rand_batch_inputs(np.random.default_rng(1), b=4)
    with pytest.raises(ValueError):
        net.forward(grid, aux[:1])


def test_im2col_col2im_are_adjoint():
    # <im2col(x), y> == <x, col2im(y)> pins the scatter against the gather
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 4, 2))
    y = rng.normal(size=(2, 3, 4, 18))
    pad = np.zeros((2, 5, 6, 2))  # its border stays zero
    lhs = np.sum(_im2col(x, np.empty((2, 3, 4, 3, 3, 2)), pad) * y)
    rhs = np.sum(x * _col2im(y, x.shape, np.empty(x.shape)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dueling_mean_identity():
    # mean over actions of Q equals the value head output
    net = tiny_net()
    rng = np.random.default_rng(3)
    grid, aux = rand_batch_inputs(rng, b=6)
    q, cache = net.forward_cached(grid, aux)
    a3 = cache[-1]
    v = a3 @ net.params["wv"] + net.params["bv"]
    assert np.max(np.abs(q.mean(axis=1, keepdims=True) - v)) < 1e-12


def test_constant_advantage_shift_leaves_q_unchanged():
    net = tiny_net()
    rng = np.random.default_rng(4)
    grid, aux = rand_batch_inputs(rng)
    q0 = net.forward(grid, aux)
    net.params["ba"] += 17.0  # uniform advantage offset cancels in Q
    q1 = net.forward(grid, aux)
    assert np.max(np.abs(q1 - q0)) < 1e-9


def _loss_and_grads(net, grid, aux, dq):
    q, cache = net.forward_cached(grid, aux)
    return float(np.sum(q * dq)), net.backward(cache, dq)


def occupied_batch_inputs(rng):
    """Two grids whose empty channel is 0 or 1. Qubit 0 has no gate in the
    first and its last gate in the last moment in the second; qubit 1 has
    gates mid-row, qubit 2 only at moment 0."""
    grid, aux = rand_batch_inputs(rng, b=2)
    grid[..., CH_EMPTY] = 1.0
    grid[1, 0, 3, CH_EMPTY] = 0.0
    grid[:, 1, 1:3, CH_EMPTY] = 0.0
    grid[:, 2, 0, CH_EMPTY] = 0.0
    return grid, aux


def _worst_fd_error(net, grid, aux, rng):
    dq = rng.normal(size=(len(grid), 5))  # fixed linear readout => smooth scalar loss
    _, grads = _loss_and_grads(net, grid, aux, dq)
    eps = 1e-6
    worst = 0.0
    for name, p in net.params.items():
        flat = p.reshape(-1)
        picks = rng.choice(flat.size, size=min(12, flat.size), replace=False)
        for i in picks:
            keep = flat[i]
            flat[i] = keep + eps
            up, _ = _loss_and_grads(net, grid, aux, dq)
            flat[i] = keep - eps
            dn, _ = _loss_and_grads(net, grid, aux, dq)
            flat[i] = keep
            fd = (up - dn) / (2 * eps)
            an = grads[name].reshape(-1)[i]
            denom = max(abs(fd), abs(an), 1e-8)
            worst = max(worst, abs(fd - an) / denom)
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    grid, aux = rand_batch_inputs(rng, b=3)
    assert _worst_fd_error(tiny_net(), grid, aux, rng) < 1e-6


def test_gradients_match_finite_differences_on_occupied_grids():
    rng = np.random.default_rng(6)
    grid, aux = occupied_batch_inputs(rng)
    assert _worst_fd_error(tiny_net(), grid, aux, rng) < 1e-6


def test_float32_default_dtype():
    net = QNet((2, 3, 9), 4, 7, np.random.default_rng(0))
    assert net.dtype == np.float32
    assert all(p.dtype == np.float32 for p in net.params.values())
    q = net.forward(np.zeros((1, 2, 3, 9)), np.zeros((1, 4)))
    assert q.dtype == np.float32


def test_params_view_the_weights_and_draw_repeats_the_init_draw():
    net = tiny_net()
    assert all(np.shares_memory(p, net.weights) for p in net.params.values())
    assert sum(p.size for p in net.params.values()) == net.weights.size
    drawn = net.draw(np.random.default_rng(0))  # tiny_net's seed
    assert drawn.dtype == net.dtype and np.array_equal(drawn, net.weights)
    drawn[:] += 1.0
    assert not np.array_equal(drawn, net.weights)


def test_checkpoint_layout_is_the_init_draw_with_channel_major_conv_rows(tmp_path):
    # the arrays of checkpoint v2, drawn as the net drew them before it held
    # its conv weights in patch order: each weight matrix Xavier-uniform in
    # parameter order, conv rows in (C,3,3) order, every bias zero
    c, c1, c2, hidden, flat = 2, 3, 4, 8, 2 * 3 * 4 + 3
    net = QNet((3, 4, c), 3, 5, np.random.default_rng(7), conv1=c1, conv2=c2, hidden=hidden)
    rng = np.random.default_rng(7)
    want = {
        "w1": xavier_uniform(rng, 9 * c, 9 * c1, (9 * c, c1)), "b1": np.zeros(c1),
        "w2": xavier_uniform(rng, 9 * c1, 9 * c2, (9 * c1, c2)), "b2": np.zeros(c2),
        "w3": xavier_uniform(rng, flat, hidden, (flat, hidden)), "b3": np.zeros(hidden),
        "wa": xavier_uniform(rng, hidden, 5, (hidden, 5)), "ba": np.zeros(5),
        "wv": xavier_uniform(rng, hidden, 1, (hidden, 1)), "bv": np.zeros(1),
    }
    path = tmp_path / "ckpt.bin"
    net.save(path)
    with np.load(path) as data:
        assert sorted(data.files) == sorted([*want, "__header__"])
        for k, v in want.items():
            assert data[k].dtype == np.float32 and data[k].shape == v.shape
            assert data[k].tobytes() == v.astype(np.float32).tobytes()
    loaded, _ = QNet.load(path)
    grid, aux = rand_batch_inputs(np.random.default_rng(8), b=3)
    assert loaded.forward(grid, aux).tobytes() == net.forward(grid, aux).tobytes()


def test_checkpoint_round_trip(tmp_path):
    net = tiny_net(dtype=np.float32)
    path = tmp_path / "ckpt.bin"
    net.save(path, extra={"note": "hello", "step": 12})
    loaded, extra = QNet.load(path)
    assert extra == {"note": "hello", "step": 12}
    assert loaded.dtype == np.float32
    assert loaded.grid_shape == net.grid_shape and loaded.widths == net.widths
    for k in net.params:
        assert np.array_equal(loaded.params[k], net.params[k])


def _write_checkpoint(path, version):
    import json
    net = tiny_net()
    header = {"version": version, "net": net.meta(), "extra": {}}
    with open(path, "wb") as fh:
        np.savez(fh, __header__=np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8), **net.params)


def test_checkpoint_v1_is_refused(tmp_path):
    # v1 held the flatten head; no second head is kept to load it into
    path = tmp_path / "ckpt.bin"
    _write_checkpoint(path, 1)
    with pytest.raises(ValueError, match="version 1.*flatten head"):
        QNet.load(path)


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "ckpt.bin"
    _write_checkpoint(path, 999)
    with pytest.raises(ValueError):
        QNet.load(path)


# --- optimizer ------------------------------------------------------------

def test_adam_first_step_closed_form():
    # with fresh moments the bias corrections cancel: dp = lr * g/(|g|+eps)
    weights = np.array([1.0, -2.0, 3.0])
    grad = np.array([0.5, -0.25, 0.0])
    opt = Adam(weights)
    opt.step(weights, grad, lr=0.1)
    expected = np.array([1.0, -2.0, 3.0]) - 0.1 * grad / (np.abs(grad) + 1e-8)
    assert weights == pytest.approx(expected, abs=1e-9)


def test_adam_accumulates_momentum():
    weights = np.zeros(1)
    opt = Adam(weights)
    for _ in range(10):
        opt.step(weights, np.ones(1), lr=0.01)
    assert opt.t == 10
    assert weights[0] == pytest.approx(-0.1, abs=1e-3)  # ~lr per step


# --- schedules ------------------------------------------------------------

def test_epsilon_schedule_exact_values():
    cfg = AgentConfig()
    assert epsilon_at(0, cfg) == 1.0
    assert epsilon_at(1, cfg) == 0.999
    assert epsilon_at(100, cfg) == 0.999 ** 100
    assert epsilon_at(10_000, cfg) == 0.01  # floored


def test_lr_schedule():
    cfg = AgentConfig()
    assert lr_at(0, 0, cfg) == 1e-3
    assert lr_at(100, 0, cfg) == pytest.approx(1e-3 * 0.995 ** 100, abs=1e-15)
    assert lr_at(100, 2, cfg) == pytest.approx(1e-3 * 0.995 ** 100 * 0.25, abs=1e-15)


def test_agent_config_validation():
    with pytest.raises(ValueError):
        AgentConfig(gamma=1.0)
    with pytest.raises(ValueError):
        AgentConfig(epsilon_floor=1.0)
    with pytest.raises(ValueError):
        AgentConfig(batch_size=0)
    with pytest.raises(ValueError, match="batch_size"):
        AgentConfig(memory_size=8, batch_size=64)
    AgentConfig(memory_size=8, batch_size=8)  # a full buffer is one batch
    with pytest.raises(ValueError):
        AgentConfig(lr_decay=0.0)
    for name in ("epsilon_start", "epsilon_floor", "epsilon_decay", "lr_initial",
                 "lr_decay", "plateau_factor", "entangling_priority_weight"):
        with pytest.raises(ValueError):
            AgentConfig(**{name: float("nan")})
        with pytest.raises(ValueError):
            AgentConfig(**{name: float("inf")})


def test_plateau_tracker():
    cfg = AgentConfig(plateau_patience=3, plateau_window=2)
    tracker = PlateauTracker(cfg)
    assert tracker.update(1.0) == 0
    assert tracker.update(2.0) == 0  # avg improving
    # stuck: avg stops improving, event after 3 stale episodes
    assert tracker.update(1.0) == 0
    assert tracker.update(1.0) == 0
    events = tracker.update(1.0)
    assert events == 1
    assert tracker.streak == 0  # reset after firing


# --- replay ---------------------------------------------------------------

class StubNet:
    """Duck-typed stand-in: returns one fixed Q row per batch element, for
    observations of (2, 2, 9) grids and 4 aux features."""

    grid_shape, aux_dim, dtype = (2, 2, 9), 4, np.dtype(np.float64)

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)
        self.n_actions = len(self.row)

    def forward(self, grids, aux, weights=None):
        return np.tile(self.row, (grids.shape[0], 1))


def _dummy_transition(i, entangling=False):
    obs = Observation(np.zeros((2, 2, 9)), np.zeros(4))
    return Transition(obs, i, float(i), obs, False, entangling,
                      np.ones(5, dtype=bool))


def _replayed(net, *transitions):
    """The transitions as one batch, each priced by `net` on its push."""
    buf = ReplayBuffer(len(transitions), net, None)
    for t in transitions:
        buf.push(t)
    return buf.sample(len(transitions), np.random.default_rng(0), 1.0)


def test_ring_buffer_eviction_order():
    buf = ReplayBuffer(3, StubNet(np.zeros(5)), None)
    for i in range(5):
        buf.push(_dummy_transition(i))
    assert len(buf) == 3
    held = sorted(buf.action[:len(buf)].tolist())
    assert held == [2, 3, 4]  # 0 and 1 evicted first


def test_sample_without_replacement():
    buf = ReplayBuffer(10, StubNet(np.zeros(5)), None)
    for i in range(10):
        buf.push(_dummy_transition(i))
    batch = buf.sample(10, np.random.default_rng(0), entangling_weight=2.0)
    assert sorted(batch.action.tolist()) == list(range(10))
    with pytest.raises(ValueError):
        buf.sample(11, np.random.default_rng(0), 2.0)


def test_entangling_transitions_oversampled():
    buf = ReplayBuffer(400, StubNet(np.zeros(5)), None)
    for i in range(400):
        buf.push(_dummy_transition(i, entangling=i < 200))
    rng = np.random.default_rng(8)
    hits = total = 0
    for _ in range(300):
        batch = buf.sample(16, rng, entangling_weight=2.0)
        hits += int(np.count_nonzero(batch.action < 200))  # the entangling ones
        total += len(batch)
    assert abs(hits / total - 2 / 3) < 0.02


def _random_transition(rng, net, i):
    def obs():
        return Observation(rng.normal(size=net.grid_shape), rng.normal(size=net.aux_dim))

    return Transition(obs(), i, float(rng.normal()), obs(), False, False,
                      np.ones(net.n_actions, dtype=bool))


def test_pushed_row_is_a_batch1_target_forward():
    net = tiny_net(dtype=np.float32)
    target = net.draw(np.random.default_rng(1))
    rng = np.random.default_rng(10)
    buf = ReplayBuffer(4, net, target)
    for i in range(4):
        t = _random_transition(rng, net, i)
        buf.push(t)
        want = net.forward(t.next_obs.grid[None], t.next_obs.aux[None], target)[0]
        assert buf.next_q.dtype == want.dtype
        assert np.array_equal(buf.next_q[i], want)


def test_eviction_keeps_each_row_with_its_slot():
    net = tiny_net(dtype=np.float32)
    target = net.draw(np.random.default_rng(1))
    rng = np.random.default_rng(11)
    buf = ReplayBuffer(3, net, target)
    pushed = [_random_transition(rng, net, i) for i in range(7)]
    for t in pushed:
        buf.push(t)
    for slot, t in zip((1, 2, 0), pushed[4:]):  # push k lands in slot k mod 3
        assert buf.action[slot] == t.action and buf.reward[slot] == t.reward
        assert np.array_equal(buf.next_grid[slot], t.next_obs.grid.astype(np.float32))
        want = net.forward(t.next_obs.grid[None], t.next_obs.aux[None], target)[0]
        assert np.array_equal(buf.next_q[slot], want)


class _CountedNet:
    """A net that records the batch size of every forward."""

    def __init__(self, net):
        self.net, self.sizes = net, []

    def __getattr__(self, name):
        return getattr(self.net, name)

    def forward(self, grids, aux, weights=None):
        self.sizes.append(len(grids))
        return self.net.forward(grids, aux, weights)


@pytest.mark.parametrize("pushes,batch", [(7, 3), (7, 7), (13, 4), (2, 2)])
def test_sync_reprices_every_drawn_row(pushes, batch):
    main = tiny_net(dtype=np.float32)
    target = main.draw(np.random.default_rng(1))
    rng = np.random.default_rng(12)
    counted = _CountedNet(main)
    buf = ReplayBuffer(10, counted, target)
    for i in range(pushes):
        buf.push(_random_transition(rng, main, i))
    filled = len(buf)
    old = buf.next_q[:filled].copy()
    counted.sizes.clear()
    sync_target(buf)
    assert buf.target is target and np.array_equal(target, main.weights)
    assert buf.stale[:filled].all() and not buf.stale[filled:].any()
    assert counted.sizes == []  # a sync itself runs no forward

    def within_rounding(q, grids, aux):
        # a batch of another size sums in another order: equal to float32 rounding
        fresh = main.forward(grids, aux)
        return np.all(np.abs(q - fresh) <= 1e-5 * np.maximum(1.0, np.abs(fresh)))

    samples = 0
    while buf.stale.any():
        drawn = buf.sample(batch, rng, 1.0)
        samples += 1
        slots = drawn.action % 10  # push i, of action i, lands in slot i mod 10
        assert within_rounding(drawn.next_q, buf.next_grid[slots], buf.next_aux[slots])
    # one forward of `batch` rows per sample at most, ceil(filled / batch) in all
    assert counted.sizes == [batch] * len(counted.sizes)
    assert len(counted.sizes) <= min(samples, -(-filled // batch))
    assert within_rounding(buf.next_q[:filled], buf.next_grid[:filled], buf.next_aux[:filled])
    assert np.all(buf.next_q[:filled] != old)
    assert not buf.next_q[filled:].any()  # unfilled slots stay untouched
    # a push after the sync is priced by the new target and is not stale
    t = _random_transition(rng, main, 99)
    buf.push(t)
    k = pushes % 10
    assert not buf.stale[k]
    assert np.array_equal(buf.next_q[k], main.forward(t.next_obs.grid[None], t.next_obs.aux[None])[0])


# observations of the StubNet shape, by (grid id, aux id): two may share a
# grid and differ in aux
def _pool_obs(key):
    g, a = key
    return Observation(np.full((2, 2, 9), float(g)), np.full(4, float(a)))


if given is not None:
    _keys = st.tuples(st.integers(0, 2), st.integers(0, 1))

    @given(st.integers(1, 9),
           st.lists(st.tuples(st.booleans(), _keys, _keys, st.booleans()), min_size=1,
                    max_size=30),
           st.integers(0, 2 ** 32 - 1))
    def test_replay_links_each_row_to_its_successor(capacity, pushes, seed):
        # each push either continues from the last push's next observation
        # or starts from a drawn one; the action is the push's index
        obs_keys, next_keys, dones = [], [], []
        for j, (cont, key, next_key, done) in enumerate(pushes):
            obs_keys.append(next_keys[-1] if cont and j else key)
            next_keys.append(next_key)
            dones.append(done)
        buf = ReplayBuffer(capacity, StubNet(np.zeros(5)), None)
        for j, (key, next_key, done) in enumerate(zip(obs_keys, next_keys, dones)):
            buf.push(Transition(_pool_obs(key), j, 0.0, _pool_obs(next_key), done, False,
                                np.ones(5, dtype=bool)))
        n, pushed = len(buf), len(pushes)

        def links(j):  # push j's successor is push j + 1, if one was pushed
            return (capacity > 1 and j + 1 < pushed and not dones[j]
                    and next_keys[j] == obs_keys[j + 1])

        for j in range(pushed - n, pushed):
            k = j % capacity
            assert buf.action[k] == j
            assert buf.linked[k] == links(j)  # not terminal, not newest, equal
            if buf.linked[k]:
                succ = (k + 1) % capacity
                assert np.array_equal(buf.grid[succ], buf.next_grid[k])
                assert np.array_equal(buf.aux[succ], buf.next_aux[k])
        rng = np.random.default_rng(seed)
        batch = buf.sample(int(rng.integers(1, n + 1)), rng, 1.0)
        row_of = {int(a): i for i, a in enumerate(batch.action)}
        for i, j in enumerate(batch.action):
            want = row_of.get(int(j) + 1, -1) if links(int(j)) else -1
            assert batch.next_row[i] == want
            if want >= 0:
                assert np.array_equal(batch.grid[want], buf.next_grid[int(j) % capacity])
                assert np.array_equal(batch.aux[want], buf.next_aux[int(j) % capacity])
        # only the live rows without a successor in the batch carry their
        # next observations
        apart = [i for i, j in enumerate(batch.action)
                 if batch.next_row[i] < 0 and not dones[int(j)]]
        assert batch.apart.tolist() == apart
        slots = batch.action[apart] % capacity
        assert np.array_equal(batch.next_grid, buf.next_grid[slots])
        assert np.array_equal(batch.next_aux, buf.next_aux[slots])


def test_select_action_explores_only_valid():
    net = StubNet([0.0, 0.0, 0.0])
    obs = Observation(np.zeros((2, 2, 9)), np.zeros(4))
    mask = np.array([False, True, True])
    rng = np.random.default_rng(0)
    picks = {select_action(net, obs, 1.0, mask, rng) for _ in range(50)}
    assert picks == {1, 2}


def test_select_action_greedy_respects_mask():
    net = StubNet([9.0, 1.0, 5.0])  # best action is masked out
    obs = Observation(np.zeros((2, 2, 9)), np.zeros(4))
    mask = np.array([False, True, True])
    a = select_action(net, obs, 0.0, mask, np.random.default_rng(0))
    assert a == 2
    with pytest.raises(ValueError):
        select_action(net, obs, 0.0, np.zeros(3, dtype=bool), np.random.default_rng(0))


def test_td_targets_hand_example():
    # the online argmax picks action 1; the target prices it at 20
    obs = Observation(np.zeros((2, 2, 9)), np.zeros(4))
    batch = _replayed(StubNet([5.0, 20.0, 7.0]),
                      Transition(obs, 0, 1.0, obs, False, False, np.ones(3, dtype=bool)))
    q_next = np.array([[0.1, 0.9, 0.3]])  # the online net's Q on the next state
    y = td_targets(batch, q_next, gamma=0.95)
    assert y[0] == pytest.approx(1.0 + 0.95 * 20.0)
    assert y[0] == pytest.approx(20.0)


def test_td_targets_terminal_and_masked():
    obs = Observation(np.zeros((2, 2, 9)), np.zeros(4))
    done = _replayed(StubNet([4, 5, 6]),
                     Transition(obs, 0, -0.5, obs, True, False, np.ones(3, dtype=bool)))
    assert td_targets(done, np.array([[1.0, 2.0, 3.0]]), 0.95)[0] == -0.5
    # invalid next actions are excluded from the online argmax
    mask = np.array([True, False, True])
    batch = _replayed(StubNet([10.0, 99.0, 30.0]),
                      Transition(obs, 0, 0.0, obs, False, False, mask))
    q_next = np.array([[0.1, 9.0, 0.2]])   # would pick 1 unmasked
    assert td_targets(batch, q_next, 1.0)[0] == pytest.approx(30.0)


def test_sync_target_copies_everything():
    net = tiny_net()
    buf = ReplayBuffer(4, net, net.draw(np.random.default_rng(1)))
    sync_target(buf)
    assert np.array_equal(buf.target, net.weights)
    assert not np.shares_memory(buf.target, net.weights)


def test_train_step_reduces_loss_on_fixed_batch():
    rng = np.random.default_rng(9)
    main = tiny_net(seed=0)
    opt = Adam(main.weights)
    buf = ReplayBuffer(8, main, main.draw(np.random.default_rng(1)))
    for i in range(8):
        obs = Observation(rng.normal(size=(3, 4, 2)), rng.normal(size=3))
        nxt = Observation(rng.normal(size=(3, 4, 2)), rng.normal(size=3))
        buf.push(Transition(obs, i % 5, float(rng.normal()), nxt,
                            bool(i % 3 == 0), False, np.ones(5, dtype=bool)))
    batch = buf.sample(8, rng, 1.0)
    first = train_step(main, opt, batch, gamma=0.95, lr=1e-2)
    for _ in range(30):
        last = train_step(main, opt, batch, gamma=0.95, lr=1e-2)
    assert np.isfinite(last)
    assert last < first


def test_train_step_raises_on_nonfinite():
    main = tiny_net(seed=0)
    opt = Adam(main.weights)
    obs = Observation(np.zeros((3, 4, 2)), np.zeros(3))
    bad = _replayed(main, Transition(obs, 0, float("inf"), obs, True, False,
                                       np.ones(5, dtype=bool)))
    with pytest.raises(RuntimeError):
        train_step(main, opt, bad, gamma=0.95, lr=1e-3)


def _two_forward_train_step(main, optimizer, buf, batch, gamma, lr):
    """The train step that forwards every next observation apart: the online
    net's argmax on a batch forward of all of them, gathered from the
    buffer, whose pushes all have distinct rewards. Returns (y, loss)."""
    slots = [int(np.flatnonzero(buf.reward == r)[0]) for r in batch.reward]
    q_main = main.forward(buf.next_grid[slots], buf.next_aux[slots])
    picked = np.argmax(np.where(batch.next_mask, q_main, -np.inf), axis=1)
    live = np.where(batch.done, 0.0, 1.0)
    y = batch.reward + gamma * live * batch.next_q[np.arange(len(batch)), picked]
    q, cache = main.forward_cached(batch.grid, batch.aux)
    rows = np.arange(len(batch))
    err = q[rows, batch.action] - y
    loss = float(np.mean(err ** 2))
    dq = np.zeros_like(q)
    dq[rows, batch.action] = 2.0 * err / len(batch)
    main.backward(cache, dq)
    optimizer.step(main.weights, main.grad, lr)
    return y, loss


def _episode_observations(rng, h, w, aux_dim, steps):
    """Encoded-looking observations of one episode: each adds a gate to the
    last one's grid, on a random qubit at the moment after its last gate."""
    grid = np.zeros((h, w, N_CHANNELS))
    grid[..., CH_EMPTY] = 1.0
    depth = np.zeros(h, dtype=int)
    out = []
    for _ in range(steps):
        q = int(rng.integers(h))
        cell = grid[q, min(depth[q], w - 1)]
        cell[:] = 0.0
        cell[rng.integers(CH_EMPTY + 1, CH_ANGLE)] = 1.0
        cell[CH_ANGLE] = rng.random()
        depth[q] += 1
        out.append(Observation(grid.copy(), rng.normal(size=aux_dim)))
    return out


def test_train_step_matches_the_two_forward_step(monkeypatch):
    # the train-exact net; episodes of 9 steps, the last terminal, wrap a
    # 96-slot ring, so rows are linked, unlinked because their successor
    # was not drawn, terminal, and unlinked because the next push starts
    # from another observation
    shapes = dict(grid_shape=(5, 30, N_CHANNELS), aux_dim=7, n_actions=55)
    rng = np.random.default_rng(21)
    main, ref_main = (QNet(rng=np.random.default_rng(0), **shapes) for _ in range(2))
    opt, ref_opt = Adam(main.weights), Adam(ref_main.weights)
    buf = ReplayBuffer(96, main, main.draw(np.random.default_rng(1)))
    ref_buf = ReplayBuffer(96, ref_main, buf.target.copy())
    for episode in range(12):
        obs = _episode_observations(rng, 5, 30, 7, 10)
        for t in range(9):
            # a third of the episodes store a next observation that the
            # next push does not start from
            nxt = obs[t + 1] if episode % 3 else _episode_observations(rng, 5, 30, 7, 1)[0]
            tr = Transition(obs[t], int(rng.integers(55)), float(rng.normal()), nxt,
                            t == 8, False, rng.random(55) < 0.8)
            buf.push(tr)
            ref_buf.push(tr)
    targets = []

    def recorded(*args):
        targets.append(td_targets(*args))
        return targets[-1]

    monkeypatch.setattr(agent, "td_targets", recorded)
    seen = {"linked": 0, "apart": 0, "done": 0}
    draw, ref_draw = np.random.default_rng(3), np.random.default_rng(3)
    for step in range(6):
        if step in (2, 4):  # stale rows are repriced by the new target
            sync_target(buf)
            sync_target(ref_buf)
        batch = buf.sample(64, draw, 2.0)
        ref_batch = ref_buf.sample(64, ref_draw, 2.0)
        assert np.array_equal(batch.next_q, ref_batch.next_q)
        seen["linked"] += int(np.count_nonzero(batch.next_row >= 0))
        seen["apart"] += int(np.count_nonzero((batch.next_row < 0) & ~batch.done))
        seen["done"] += int(np.count_nonzero(batch.done))
        loss = train_step(main, opt, batch, gamma=0.95, lr=1e-3)
        ref_y, ref_loss = _two_forward_train_step(ref_main, ref_opt, ref_buf, ref_batch,
                                                   0.95, 1e-3)
        assert np.array_equal(targets[-1], ref_y)
        assert loss == ref_loss
        assert np.array_equal(main.weights, ref_main.weights)
    assert min(seen.values()) > 0


# --- training loop --------------------------------------------------------

def small_train(seed=0, episodes=3):
    env_cfg = EnvConfig(n_qubits=2, max_gates=8, max_steps_per_episode=6,
                        shots=0, backend=BackendSpec(kind="statevector"))
    agent_cfg = AgentConfig(memory_size=64, batch_size=8, target_sync_every=5)
    return train(agent_cfg, env_cfg, [ghz(2)], episodes=episodes, seed=seed)


def test_train_produces_logs_and_best():
    result = small_train()
    assert len(result.episode_rows) == 3
    assert len(result.step_rows) == 3 * 6
    assert result.train_steps > 0
    assert result.syncs == result.train_steps // 5
    assert result.best_circuit is not None
    assert result.best_record is not None
    assert result.baseline_record is not None
    assert result.best_objective >= 0.0  # the baseline itself scores 0
    assert not result.interrupted
    assert {"episode", "return", "steps", "final_qfi", "final_entropy",
            "final_depth", "final_gates", "epsilon", "lr", "threshold",
            "loss", "wall_time_s"} <= set(result.episode_rows[0])


def test_train_is_deterministic():
    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]

    a = small_train(seed=4)
    b = small_train(seed=4)
    assert strip(a.episode_rows) == strip(b.episode_rows)
    assert a.step_rows == b.step_rows
    c = small_train(seed=5)
    assert strip(a.episode_rows) != strip(c.episode_rows)


def test_train_requires_initial_circuit():
    env_cfg = EnvConfig(n_qubits=2, max_gates=8, shots=0,
                        backend=BackendSpec(kind="statevector"))
    with pytest.raises(ValueError):
        train(AgentConfig(), env_cfg, [], episodes=1)
