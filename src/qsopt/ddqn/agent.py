"""Double-DQN agent: replay, schedules, TD targets and the training loop.

The online net picks the next-state action, the target net prices it:

    y = r + gamma * Q_target(s', argmax_a Q_online(s', a))    (y = r when done)

with the argmax restricted to the next state's valid-action mask. Replay
is a fixed-capacity ring; sampling is weighted without replacement, with
entangling transitions (two-qubit adds, injections, boosts) drawn at
twice the base weight. Epsilon decays per action selection, the learning
rate decays per episode with extra halvings when the moving-average
return plateaus, and the target net hard-syncs on a fixed step cadence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

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
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        # each check is negated so that NaN fails it too
        if not self.epsilon_floor < self.epsilon_start:
            raise ValueError("epsilon floor must be below its start value")
        for name in ("memory_size", "batch_size", "plateau_patience",
                     "plateau_window", "target_sync_every"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be positive")
        for name in ("epsilon_decay", "lr_initial", "lr_decay", "plateau_factor",
                     "entangling_priority_weight"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


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


class ReplayBuffer:
    """Ring of capacity `memory_size`; oldest entries evicted first."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: list[Transition] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, t: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(t)
        else:
            self._items[self._cursor] = t
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator,
               entangling_weight: float) -> list[Transition]:
        if len(self._items) < batch_size:
            raise ValueError(f"buffer holds {len(self._items)} < batch {batch_size}")
        weights = np.array([entangling_weight if t.entangling else 1.0
                            for t in self._items])
        probs = weights / weights.sum()
        idx = rng.choice(len(self._items), size=batch_size, replace=False, p=probs)
        return [self._items[i] for i in idx]


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


def _stack(observations: list[Observation]) -> tuple[np.ndarray, np.ndarray]:
    return (np.stack([o.grid for o in observations]),
            np.stack([o.aux for o in observations]))


def td_targets(batch: list[Transition], main: QNet, target: QNet,
               gamma: float) -> np.ndarray:
    grids, aux = _stack([t.next_obs for t in batch])
    q_main = main.forward(grids, aux)
    q_target = target.forward(grids, aux)
    masks = np.stack([t.next_mask for t in batch])
    picked = np.argmax(np.where(masks, q_main, -np.inf), axis=1)
    rewards = np.array([t.reward for t in batch])
    live = np.array([0.0 if t.done else 1.0 for t in batch])
    return rewards + gamma * live * q_target[np.arange(len(batch)), picked]


def train_step(main: QNet, target: QNet, optimizer: Adam,
               batch: list[Transition], gamma: float, lr: float) -> float:
    y = td_targets(batch, main, target, gamma)
    grids, aux = _stack([t.obs for t in batch])
    q, cache = main.forward_cached(grids, aux)
    rows = np.arange(len(batch))
    actions = np.array([t.action for t in batch])
    err = q[rows, actions] - y
    loss = float(np.mean(err ** 2))
    if not np.isfinite(loss):
        raise RuntimeError(
            "non-finite TD loss; "
            f"|err| max {np.max(np.abs(err))}, targets range "
            f"[{np.min(y)}, {np.max(y)}], lr {lr}")
    dq = np.zeros_like(q)
    dq[rows, actions] = 2.0 * err / len(batch)
    grads = main.backward(cache, dq)
    optimizer.step(main.params, grads, lr)
    return loss


def sync_target(main: QNet, target: QNet) -> None:
    target.copy_params_from(main)


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
    target = QNet(grid_shape, aux_size(env_cfg), n_actions, np.random.default_rng(ss_target))
    optimizer = Adam(main.params)
    buffer = ReplayBuffer(agent_cfg.memory_size)
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
                    losses.append(train_step(main, target, optimizer, batch,
                                             agent_cfg.gamma, lr))
                    result.train_steps += 1
                    if result.train_steps % agent_cfg.target_sync_every == 0:
                        sync_target(main, target)
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
    return result


def _consider_best(result: TrainResult, environment: CircuitEnv) -> None:
    if environment.objective > result.best_objective:
        result.best_objective = environment.objective
        result.best_circuit = environment.circuit
        result.best_record = environment.record
