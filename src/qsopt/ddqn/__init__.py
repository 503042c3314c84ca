from .agent import (AgentConfig, Batch, PlateauTracker, ReplayBuffer, TrainResult,
                    Transition, epsilon_at, lr_at, select_action, sync_target,
                    td_targets, train, train_step)
from .nn import Adam, QNet

__all__ = ["AgentConfig", "Batch", "PlateauTracker", "ReplayBuffer", "TrainResult",
           "Transition", "epsilon_at", "lr_at", "select_action", "sync_target",
           "td_targets", "train", "train_step", "Adam", "QNet"]
