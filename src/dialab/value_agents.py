"""DQN and DDQN dialogue managers.

Epsilon-greedy control with an exploration-excluded action set, a finite FIFO
replay pool with uniform minibatch sampling, a periodically synchronized
target network, and the two bootstrap rules: the standard max-over-target and
the decoupled variant that lets the online network pick the action the target
network evaluates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import checkpoint, nets
from .environment import Transition
from .nets import AdadeltaState, FeedForwardNet, clone_net, copy_params


class PoolTooSmall(RuntimeError):
    """Sampling was requested before the pool held a full minibatch."""


class ReplayPool:
    """Finite FIFO transition store; inserting past capacity evicts the oldest."""

    def __init__(self, capacity: int, n_features: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._features = np.zeros((capacity, n_features))
        self._next_features = np.zeros((capacity, n_features))
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity)
        self._terminal = np.zeros(capacity, dtype=bool)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def add(self, t: Transition) -> None:
        i = self._cursor
        self._features[i] = t.features
        self._next_features[i] = t.next_features
        self._actions[i] = t.action
        self._rewards[i] = t.reward
        self._terminal[i] = t.terminal
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def extend(self, transitions: Sequence[Transition]) -> None:
        for t in transitions:
            self.add(t)

    def sample_indices(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        if self._size < batch:
            raise PoolTooSmall(f"pool holds {self._size} < batch {batch}")
        return rng.choice(self._size, size=batch, replace=False)

    def batch(self, idx: np.ndarray):
        return (self._features[idx], self._actions[idx], self._rewards[idx],
                self._next_features[idx], self._terminal[idx])

    def contents(self) -> list[Transition]:
        return [Transition(self._features[i].copy(), int(self._actions[i]),
                           float(self._rewards[i]),
                           self._next_features[i].copy(),
                           bool(self._terminal[i]), False)
                for i in range(self._size)]

    FIELDS = ("features", "next_features", "actions", "rewards", "terminal")

    def state(self) -> checkpoint.State:
        """The filled rows, as views, with the counters."""
        arrays = {k: getattr(self, f"_{k}")[:self._size] for k in self.FIELDS}
        return checkpoint.State(
            arrays, spec={"capacity": self.capacity},
            counters={"size": self._size, "cursor": self._cursor},
            shapes={k: ("size", *a.shape[1:]) for k, a in arrays.items()})

    def restore(self, loaded: checkpoint.State, prefix: str = "") -> None:
        """Take the counters of a loaded state and copy its rows into the
        preallocated arrays; ``prefix`` picks the pool out of an agent's."""
        self._size = loaded.counters[prefix + "size"]
        self._cursor = loaded.counters[prefix + "cursor"]
        for k in self.FIELDS:
            getattr(self, f"_{k}")[:self._size] = loaded.arrays[prefix + k]

    def save(self, path: str) -> None:
        checkpoint.save(path, "replay-pool", self.state())

    def load(self, path: str) -> None:
        self.restore(checkpoint.load(path, "replay-pool", self.state()))


@functools.lru_cache(maxsize=64)
def allowed_actions(n_actions: int, excluded: tuple) -> tuple:
    """The actions exploration may draw: every action not in ``excluded``."""
    return tuple(a for a in range(n_actions) if a not in excluded)


def explore(n_actions: int, excluded: Sequence[int],
            rng: np.random.Generator) -> int:
    """One uniform draw over the non-excluded actions."""
    allowed = allowed_actions(n_actions, tuple(excluded))
    return allowed[int(rng.integers(len(allowed)))]


def select_action_egreedy(qnet: FeedForwardNet, features: np.ndarray,
                          epsilon: float, excluded: Sequence[int],
                          rng: np.random.Generator) -> int:
    """Uniform over non-excluded actions with probability epsilon, otherwise
    the argmax over all actions; exclusion applies to exploration only."""
    if rng.random() < epsilon:
        return explore(qnet.n_actions, excluded, rng)
    q = qnet.forward(features)
    return int(np.argmax(q))


def dqn_target(rewards: np.ndarray, next_features: np.ndarray,
               terminal: np.ndarray, target_net: FeedForwardNet,
               gamma: float) -> np.ndarray:
    """r + gamma * max_a' Q(b', a'; w-) with no bootstrap past a terminal."""
    q_next = target_net.forward_batch(next_features)
    return rewards + gamma * (~terminal) * q_next.max(axis=1)


def ddqn_target(rewards: np.ndarray, next_features: np.ndarray,
                terminal: np.ndarray, online_net: FeedForwardNet,
                target_net: FeedForwardNet, gamma: float) -> np.ndarray:
    """Decoupled rule: the online network selects, the target evaluates."""
    a_star = online_net.forward_batch(next_features).argmax(axis=1)
    q_next = target_net.forward_batch(next_features)
    picked = q_next[np.arange(len(a_star)), a_star]
    return rewards + gamma * (~terminal) * picked


@dataclass(frozen=True)
class AgentConfig:
    """Network, replay and pretraining settings of the DQN and actor-critic
    managers: the ``agent`` section of an experiment config."""

    hidden: tuple = (130, 50)
    minibatch: int = 32
    target_sync: int = 1000          # train steps between target copies
    pool_capacity: int = 50000
    warmup: int = 1000               # transitions stored before training starts
    l2: float = 1e-3                 # policy-gradient L2 (actor-critic only)
    rho: float = 0.95
    eps_num: float = 1e-6
    # actions exploration never draws; None leaves the choice to the
    # harness (select-* in the original space), an agent reads it as ()
    excluded: tuple | None = None
    sup_epochs: int = 20
    sup_batch: int = 32
    sup_holdout: float = 0.1
    batch_sweeps: int = 4            # passes over the corpus pool for batch RL

    def __post_init__(self):
        if self.target_sync < 1:
            raise ValueError(f"target_sync={self.target_sync} must be >= 1")
        if self.minibatch < 1:
            raise ValueError(f"minibatch={self.minibatch} must be >= 1")
        if self.l2 < 0:
            raise ValueError(f"l2={self.l2} must be >= 0")
        if not 0.0 <= self.sup_holdout < 1.0:
            raise ValueError(f"sup_holdout={self.sup_holdout} outside [0,1)")


class QAgent:
    """Online Q-network plus frozen target copy, replay pool and step counter."""

    def __init__(self, n_features: int, n_actions: int, config: AgentConfig,
                 rng: np.random.Generator, gamma: float = 0.99,
                 double_dqn: bool = False):
        self.config = config
        self.gamma = gamma
        self.double_dqn = double_dqn
        self.excluded = tuple(config.excluded or ())
        self.qnet = FeedForwardNet.create(n_features, n_actions,
                                          hidden=config.hidden, head="linear",
                                          rng=rng)
        self.target = clone_net(self.qnet)
        self.opt = AdadeltaState.for_net(self.qnet, rho=config.rho,
                                         eps=config.eps_num)
        self.pool = ReplayPool(config.pool_capacity, n_features)
        self.train_steps = 0
        self.last_loss = float("nan")

    def begin_episode(self) -> None:
        pass

    def select_action(self, features: np.ndarray, epsilon: float,
                      rng: np.random.Generator) -> int:
        return select_action_egreedy(self.qnet, features, epsilon,
                                     self.excluded, rng)

    def eval_action(self, features: np.ndarray) -> int:
        return int(np.argmax(self.qnet.forward(features)))

    def observe(self, t: Transition, rng: np.random.Generator) -> None:
        self.pool.add(t)
        if len(self.pool) >= max(self.config.warmup, self.config.minibatch):
            self.last_loss = self.train_step(rng)

    def train_step(self, rng: np.random.Generator) -> float:
        """One uniform minibatch regression of the taken action's Q value."""
        cfg = self.config
        idx = self.pool.sample_indices(cfg.minibatch, rng)
        feats, actions, rewards, nxt, term = self.pool.batch(idx)
        if self.double_dqn:
            targets = ddqn_target(rewards, nxt, term, self.qnet, self.target,
                                  self.gamma)
        else:
            targets = dqn_target(rewards, nxt, term, self.target, self.gamma)
        q, acts = self.qnet.forward_train(feats)
        rows = np.arange(len(idx))
        diff = q[rows, actions] - targets
        loss = float(np.mean(diff ** 2))
        grad_out = np.zeros_like(q)
        grad_out[rows, actions] = 2.0 * diff / len(idx)
        grads = self.qnet.backward_batch(feats, grad_out, acts)
        nets.adadelta_step(self.opt, self.qnet, grads)
        self.train_steps += 1
        if self.train_steps % cfg.target_sync == 0:
            copy_params(self.qnet, self.target)
        return loss

    # -- checkpointing ------------------------------------------------------

    def state(self) -> checkpoint.State:
        return checkpoint.compose({"train_steps": self.train_steps},
                                  q=self.qnet.state(),
                                  target=self.target.state(),
                                  opt=self.opt.state(),
                                  pool=self.pool.state())

    def save(self, path: str, **run) -> None:
        checkpoint.save(path, "qagent", self.state(), **run)

    def load(self, path: str, *run: str) -> dict:
        loaded = checkpoint.load(path, "qagent", self.state(), *run)
        self.train_steps = loaded.counters["train_steps"]
        self.pool.restore(loaded, "pool.")
        return loaded.counters
