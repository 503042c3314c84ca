"""Double-DQN agent: replay, schedules, TD targets and the training loop.

One QNet runs two weight vectors: the online weights, which train, and
the target weights, a copy of them taken at each sync. The online
weights pick the next-state action, the target weights price it:

    y = r + gamma * Q_target(s', argmax_a Q_online(s', a))    (y = r when done)

with the argmax restricted to the next state's valid-action mask. Replay
is a fixed-capacity ring of arrays; sampling is weighted without
replacement, with entangling transitions (two-qubit adds, injections,
boosts) drawn at twice the base weight. Epsilon decays per action
selection, the learning rate decays per episode with extra halvings when
the moving-average return plateaus, and the target weights hard-sync on a
fixed step cadence.

The target weights change only at a sync, so replay caches their Q on
every stored next state: a push prices its transition with one batch-1
forward. A sync marks every stored row stale, and a sample reprices the
stale rows it draws, in one batch forward that also takes other stale
rows; so repricing never costs more than one target forward per train
step, nor more than ceil(stored / batch) forwards per sync. A cached row
equals a batch-size forward of the same weights up to float32 rounding,
since products of other batch sizes sum in a different order.

Within an episode, the next observation of one transition is the
observation of the next, so replay links each row to the slot of its
successor when the two are equal, and a sampled batch maps each row to
the batch row of its successor, if that was drawn too. A train step runs
the online weights once on the batch's observations, which gives both the Q
values to fit and, for the linked rows, the online Q of the next state
that picks the Double-DQN action; one more forward takes only the live
next observations that no batch row holds. A forward computes each row
on its own, so the picks equal those of one forward of all the next
observations, except where the rounding of another batch size decides a
near-tie.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..backend import require_int, require_real
from ..circuit import Circuit
from ..env import N_CHANNELS, CircuitEnv, EnvConfig, Observation, aux_size
from ..metrics import MetricsRecord
from .nn import Adam, QNet


@dataclass(frozen=True)
class AgentConfig:
    gamma: float = 0.95
    memory_size: int = 2000
    batch_size: int = 128
    epsilon_start: float = 1.0
    epsilon_floor: float = 0.01
    epsilon_decay: float = 0.999
    lr_initial: float = 1e-3
    lr_decay: float = 0.995
    plateau_patience: int = 10
    plateau_factor: float = 0.5
    plateau_window: int = 10
    target_sync_every: int = 100
    entangling_priority_weight: float = 2.0

    def __post_init__(self):
        for name in ("gamma", "epsilon_start", "epsilon_floor", "epsilon_decay", "lr_initial",
                     "lr_decay", "plateau_factor", "entangling_priority_weight"):
            require_real(name, getattr(self, name))
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        # each check is negated so that NaN fails it too
        if not self.epsilon_floor < self.epsilon_start:
            raise ValueError("epsilon floor must be below its start value")
        if not (math.isfinite(self.epsilon_floor) and math.isfinite(self.epsilon_start)):
            raise ValueError("epsilon floor and start must be finite")
        for name in ("memory_size", "batch_size", "plateau_patience",
                     "plateau_window", "target_sync_every"):
            if not require_int(name, getattr(self, name)) >= 1:
                raise ValueError(f"{name} must be positive")
        if self.batch_size > self.memory_size:  # replay could never fill a batch
            raise ValueError(f"batch_size={self.batch_size} exceeds "
                             f"memory_size={self.memory_size}")
        for name in ("epsilon_decay", "lr_initial", "lr_decay", "plateau_factor",
                     "entangling_priority_weight"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")


def epsilon_at(selections: int, cfg: AgentConfig) -> float:
    return max(cfg.epsilon_floor, cfg.epsilon_start * cfg.epsilon_decay ** selections)


def lr_at(episode: int, plateau_events: int, cfg: AgentConfig) -> float:
    return cfg.lr_initial * cfg.lr_decay ** episode * cfg.plateau_factor ** plateau_events


class PlateauTracker:
    """Counts plateau events: the moving-average return failing to improve
    on its best for `patience` consecutive episodes."""

    def __init__(self, cfg: AgentConfig):
        self.window = cfg.plateau_window
        self.patience = cfg.plateau_patience
        self.returns: list[float] = []
        self.best = -np.inf
        self.streak = 0
        self.events = 0

    def update(self, episode_return: float) -> int:
        self.returns.append(episode_return)
        avg = float(np.mean(self.returns[-self.window:]))
        if avg > self.best:
            self.best = avg
            self.streak = 0
        else:
            self.streak += 1
            if self.streak >= self.patience:
                self.events += 1
                self.streak = 0
        return self.events


@dataclass(frozen=True)
class Transition:
    obs: Observation
    action: int
    reward: float
    next_obs: Observation
    done: bool
    entangling: bool
    next_mask: np.ndarray


@dataclass(frozen=True)
class Batch:
    """Replay rows, one array per field with the row on the first axis.
    `next_q` is the target weights' Q on each next observation, and `next_row`
    the batch row of each row's linked successor, whose observation is that
    next observation, or -1 where the row has no linked successor in the
    batch. `apart` lists the live rows without one, whose next observations
    a train step forwards on their own: `next_grid` and `next_aux` hold
    those, one per entry of `apart`."""
    grid: np.ndarray
    aux: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    done: np.ndarray
    next_mask: np.ndarray
    next_q: np.ndarray
    next_row: np.ndarray
    apart: np.ndarray
    next_grid: np.ndarray
    next_aux: np.ndarray

    def __len__(self) -> int:
        return len(self.action)


class ReplayBuffer:
    """Ring of capacity `memory_size`, one preallocated array per field;
    oldest entries evicted first, so slot k holds push k mod capacity.

    Beside each transition it keeps `next_q`, the Q of `net` under the
    `target` weight vector on the next observation. `push` computes a row
    with one batch-1 forward. After the target weights change,
    `mark_stale` flags every filled row, and `sample` reprices the flagged
    rows it draws before it returns them. Observations are stored in the
    net's dtype, which the net casts its inputs to anyway.

    `linked[k]` marks that slot k+1 (mod capacity) holds the successor of
    slot k: the transition pushed right after it, whose observation equals
    slot k's next observation, slot k not being terminal. A push sets the
    link into the slot it writes and clears the one out of it, since the
    newest row has no successor yet; so a ring of capacity 1 never links.
    """

    def __init__(self, capacity: int, net: QNet, target: np.ndarray):
        self.capacity = capacity
        self.net, self.target = net, target

        def ring(shape=(), dtype=net.dtype):
            return np.zeros((capacity, *shape), dtype)

        self.grid, self.next_grid = ring(net.grid_shape), ring(net.grid_shape)
        self.aux, self.next_aux = ring((net.aux_dim,)), ring((net.aux_dim,))
        self.action = ring(dtype=np.int64)
        self.reward = ring(dtype=np.float64)
        self.done = ring(dtype=bool)
        self.entangling = ring(dtype=bool)
        self.next_mask = ring((net.n_actions,), bool)
        self.next_q = ring((net.n_actions,))
        self.stale = ring(dtype=bool)  # next_q priced by earlier target weights
        self.linked = ring(dtype=bool)
        self._pushes = 0

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)

    def push(self, t: Transition) -> None:
        k = self._pushes % self.capacity
        self._pushes += 1
        self.grid[k], self.aux[k] = t.obs.grid, t.obs.aux
        self.action[k], self.reward[k], self.done[k] = t.action, t.reward, t.done
        self.entangling[k] = t.entangling
        self.next_grid[k], self.next_aux[k] = t.next_obs.grid, t.next_obs.aux
        self.next_mask[k] = t.next_mask
        self.next_q[k] = self.net.forward(self.next_grid[k:k + 1], self.next_aux[k:k + 1],
                                          self.target)[0]
        self.stale[k] = False
        self.linked[k] = False
        prev = (k - 1) % self.capacity
        if self.capacity > 1 and self._pushes > 1 and not self.done[prev]:
            self.linked[prev] = (np.array_equal(self.next_grid[prev], self.grid[k])
                                 and np.array_equal(self.next_aux[prev], self.aux[k]))

    def mark_stale(self) -> None:
        """The target weights have changed: every filled row needs repricing."""
        self.stale[:len(self)] = True

    def _reprice(self, idx: np.ndarray) -> None:
        """Reprice the stale rows among `idx` in one forward of len(idx)
        rows, filled up with other stale rows, then with fresh rows of
        `idx`. Each forward after a sync but the last prices len(idx)
        stale rows, and every forward has the batch size of a train step."""
        drawn = self.stale[idx]
        others = self.stale[:len(self)].copy()
        others[idx] = False
        rows = np.concatenate((idx[drawn], np.flatnonzero(others), idx[~drawn]))[:len(idx)]
        self.next_q[rows] = self.net.forward(self.next_grid[rows], self.next_aux[rows],
                                             self.target)
        self.stale[rows] = False

    def sample(self, batch_size: int, rng: np.random.Generator,
               entangling_weight: float) -> Batch:
        n = len(self)
        if n < batch_size:
            raise ValueError(f"buffer holds {n} < batch {batch_size}")
        weights = np.where(self.entangling[:n], entangling_weight, 1.0)
        probs = weights / weights.sum()
        idx = rng.choice(n, size=batch_size, replace=False, p=probs)
        if self.stale[idx].any():
            self._reprice(idx)
        row_of = np.full(self.capacity, -1)
        row_of[idx] = np.arange(batch_size)
        next_row = np.where(self.linked[idx], row_of[(idx + 1) % self.capacity], -1)
        done = self.done[idx]
        apart = np.flatnonzero((next_row < 0) & ~done)
        return Batch(self.grid[idx], self.aux[idx], self.action[idx], self.reward[idx],
                     done, self.next_mask[idx], self.next_q[idx], next_row,
                     apart, self.next_grid[idx[apart]], self.next_aux[idx[apart]])


def select_action(net: QNet, obs: Observation, epsilon: float,
                  mask: np.ndarray, rng: np.random.Generator) -> int:
    valid = np.flatnonzero(mask)
    if valid.size == 0:
        raise ValueError("no valid action available")
    if rng.random() < epsilon:
        return int(valid[rng.integers(valid.size)])
    q = net.forward(obs.grid[None], obs.aux[None])[0]
    # ties resolve to the lowest action id via first-argmax
    return int(np.argmax(np.where(mask, q, -np.inf)))


def td_targets(batch: Batch, q_next: np.ndarray, gamma: float) -> np.ndarray:
    """Double-DQN targets: `q_next`, the online Q on each next
    observation, picks, and the cached target Q prices. A terminal row's
    target is its reward, whatever its `q_next` row holds."""
    picked = np.argmax(np.where(batch.next_mask, q_next, -np.inf), axis=1)
    live = np.where(batch.done, 0.0, 1.0)
    return batch.reward + gamma * live * batch.next_q[np.arange(len(batch)), picked]


def train_step(main: QNet, optimizer: Adam, batch: Batch, gamma: float,
               lr: float) -> float:
    # the live next observations that no batch row holds go first, so that
    # the batch forward's cache lasts until the backward pass
    if batch.apart.size:
        q_apart = main.forward(batch.next_grid, batch.next_aux)
    q, cache = main.forward_cached(batch.grid, batch.aux)
    q_next = q[batch.next_row]  # row -1 takes the last row: replaced or terminal
    if batch.apart.size:
        q_next[batch.apart] = q_apart
    y = td_targets(batch, q_next, gamma)
    rows = np.arange(len(batch))
    err = q[rows, batch.action] - y
    loss = float(np.mean(err ** 2))
    if not np.isfinite(loss):
        raise RuntimeError(
            "non-finite TD loss; "
            f"|err| max {np.max(np.abs(err))}, targets range "
            f"[{np.min(y)}, {np.max(y)}], lr {lr}")
    dq = np.zeros_like(q)
    dq[rows, batch.action] = 2.0 * err / len(batch)
    main.backward(cache, dq)
    optimizer.step(main.weights, main.grad, lr)
    return loss


def sync_target(buffer: ReplayBuffer) -> None:
    """Copy the net's online weights into the buffer's target weights; the
    stored transitions are repriced with them as samples draw them."""
    np.copyto(buffer.target, buffer.net.weights)
    buffer.mark_stale()


@dataclass
class TrainResult:
    net: QNet
    episode_rows: list[dict] = field(default_factory=list)
    step_rows: list[dict] = field(default_factory=list)
    best_circuit: Circuit | None = None
    best_record: MetricsRecord | None = None
    best_objective: float = -np.inf
    baseline_record: MetricsRecord | None = None
    initial_circuit: Circuit | None = None
    final_threshold: float = 0.0
    train_steps: int = 0
    syncs: int = 0
    # the train steps' live next-state rows, and those whose online Q came
    # from the batch's own forward
    live_next_rows: int = 0
    linked_next_rows: int = 0
    # the env's circuit evaluations, and those that extended the rows of
    # the previous circuit instead of building them
    evaluations: int = 0
    extended_evaluations: int = 0
    interrupted: bool = False


def train(agent_cfg: AgentConfig, env_cfg: EnvConfig, initial_circuits: list[Circuit],
          episodes: int, seed: int = 0) -> TrainResult:
    """Full training loop; every draw derives from `seed`, so two runs with
    the same inputs produce identical logs."""
    if not initial_circuits:
        raise ValueError("need at least one initial circuit")
    root = np.random.SeedSequence(seed)
    ss_main, ss_target, ss_act, ss_replay, ss_env = root.spawn(5)
    environment = CircuitEnv(env_cfg)
    grid_shape = (env_cfg.n_qubits, env_cfg.grid_depth, N_CHANNELS)
    n_actions = len(environment.catalog)
    main = QNet(grid_shape, aux_size(env_cfg), n_actions, np.random.default_rng(ss_main))
    optimizer = Adam(main.weights)
    buffer = ReplayBuffer(agent_cfg.memory_size, main,
                          main.draw(np.random.default_rng(ss_target)))
    rng_act = np.random.default_rng(ss_act)
    rng_replay = np.random.default_rng(ss_replay)
    episode_seeds = ss_env.spawn(episodes)
    plateau = PlateauTracker(agent_cfg)
    result = TrainResult(net=main)
    selections = 0
    try:
        for episode in range(episodes):
            t_start = time.perf_counter()
            lr = lr_at(episode, plateau.events, agent_cfg)
            initial = initial_circuits[episode % len(initial_circuits)]
            obs = environment.reset(initial, seed=episode_seeds[episode])
            if episode == 0:
                result.baseline_record = environment.baseline_record
                result.initial_circuit = initial
            _consider_best(result, environment)
            mask = environment.valid_mask()
            episode_return = 0.0
            done = False
            step = 0
            losses = []
            while not done:
                eps = epsilon_at(selections, agent_cfg)
                action = select_action(main, obs, eps, mask, rng_act)
                selections += 1
                next_obs, reward, done, info = environment.step(action)
                episode_return += reward
                buffer.push(Transition(obs, action, reward, next_obs, done,
                                       info["action"].entangling and not info["invalid"],
                                       info["mask"]))
                if len(buffer) >= agent_cfg.batch_size:
                    batch = buffer.sample(agent_cfg.batch_size, rng_replay,
                                          agent_cfg.entangling_priority_weight)
                    losses.append(train_step(main, optimizer, batch, agent_cfg.gamma, lr))
                    result.train_steps += 1
                    result.live_next_rows += int(np.count_nonzero(~batch.done))
                    result.linked_next_rows += int(np.count_nonzero(batch.next_row >= 0))
                    if result.train_steps % agent_cfg.target_sync_every == 0:
                        sync_target(buffer)
                        result.syncs += 1
                step += 1
                record = info["record"]
                result.step_rows.append({
                    "episode": episode, "step": step, "action": action,
                    "action_name": info["action"].label(), "reward": reward,
                    "invalid": int(info["invalid"]), "injected": int(info["injected"]),
                    "qfi": record.qfi_norm, "entropy": record.entropy_norm,
                    "depth": record.depth, "gates": record.gate_count,
                    "epsilon": eps,
                })
                _consider_best(result, environment)
                obs, mask = next_obs, info["mask"]
            plateau.update(episode_return)
            threshold = environment.adjust_threshold()
            record = environment.record
            result.episode_rows.append({
                "episode": episode, "return": episode_return, "steps": step,
                "final_qfi": record.qfi_norm, "final_entropy": record.entropy_norm,
                "final_depth": record.depth, "final_gates": record.gate_count,
                "epsilon": epsilon_at(selections, agent_cfg), "lr": lr,
                "threshold": threshold, "loss": losses[-1] if losses else "",
                "wall_time_s": time.perf_counter() - t_start,
            })
            result.final_threshold = threshold
    except KeyboardInterrupt:
        result.interrupted = True
    result.evaluations = environment.evaluations
    result.extended_evaluations = environment.extended_evaluations
    return result


def _consider_best(result: TrainResult, environment: CircuitEnv) -> None:
    if environment.objective > result.best_objective:
        result.best_objective = environment.objective
        result.best_circuit = environment.circuit
        result.best_record = environment.record
