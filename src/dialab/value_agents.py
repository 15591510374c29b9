"""DQN and DDQN dialogue managers.

Greedy action choice (the training loop adds the epsilon draw), a finite
FIFO replay pool with uniform minibatch sampling, a periodically
synchronized target network, and the two bootstrap rules: the standard
max-over-target and the decoupled variant that lets the online network pick
the action the target network evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint, nets
from .environment import Transition, same_state
from .nets import AdadeltaState, FeedForwardNet, clone_net, copy_params
from .ranges import ConfigError, bounded, check, check_ranges


class PoolTooSmall(RuntimeError):
    """Sampling was requested before the pool held a full minibatch."""


class ReplayPool:
    """Finite FIFO transition store; inserting past capacity evicts the oldest.

    Each state is stored once: row i's next state is the state of row
    ``(i + 1) % capacity``, and the newest row's is held beside the rows
    until the next row arrives. So after a row that is not terminal, ``add``
    refuses any state but its next one (``environment.same_state``). After
    a terminal row any state may follow; no target reads its next state.
    ``add`` is the one way rows arrive, online and from a corpus
    (``corpus.fill_pool``).
    """

    def __init__(self, capacity: int, n_features: int):
        self.capacity = check("capacity", capacity, "[1, inf)")
        self._features = np.zeros((capacity, n_features))
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity)
        self._terminal = np.zeros(capacity, dtype=bool)
        self._newest_next = np.zeros(n_features)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def add(self, t: Transition) -> None:
        if (self._size and not self._terminal[self._cursor - 1]
                and not same_state(t.features, self._newest_next)):
            raise ValueError("the newest row is not terminal, and the "
                             "incoming state is not its next state")
        i = self._cursor
        self._features[i] = t.features
        self._actions[i] = t.action
        self._rewards[i] = t.reward
        self._terminal[i] = t.terminal
        self._newest_next[:] = t.next_features
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample_indices(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        if self._size < batch:
            raise PoolTooSmall(f"pool holds {self._size} < batch {batch}")
        return rng.choice(self._size, size=batch, replace=False)

    def batch(self, idx: np.ndarray):
        nxt = self._features.take(idx + 1, axis=0, mode="wrap")
        nxt[idx == (self._cursor - 1) % self.capacity] = self._newest_next
        return (self._features[idx], self._actions[idx], self._rewards[idx],
                nxt, self._terminal[idx])

    FIELDS = ("features", "actions", "rewards", "terminal")

    def rows(self, name: str) -> np.ndarray:
        """The stored rows of the field ``name``, one of FIELDS, as a view."""
        return getattr(self, f"_{name}")[:self._size]

    def state(self) -> checkpoint.State:
        """The filled rows, as views, and the newest row's next state."""
        arrays = {k: self.rows(k) for k in self.FIELDS}
        shapes = {k: ("size", *a.shape[1:]) for k, a in arrays.items()}
        arrays["newest_next"] = self._newest_next
        shapes["newest_next"] = self._newest_next.shape     # restore takes it
        return checkpoint.State(
            arrays, spec={"capacity": self.capacity},
            counters={"size": self._size, "cursor": self._cursor},
            shapes=shapes)

    def restore(self, loaded: checkpoint.State, path: str,
                prefix: str = "") -> None:
        """Check the counters of a loaded state, then take them and copy its
        rows and newest next state into the preallocated arrays; ``path``
        names the file and ``prefix`` picks the pool out of an agent's."""
        def refuse(what: str):
            raise checkpoint.CheckpointError(f"{path}: {prefix}{what}")

        size, cursor = (loaded.counters[prefix + k] for k in ("size",
                                                               "cursor"))
        if size > self.capacity:
            refuse(f"size={size} exceeds the capacity {self.capacity}")
        if not 0 <= cursor < self.capacity or (cursor != size
                                               and size < self.capacity):
            refuse(f"cursor={cursor} does not fit {prefix}size={size} and "
                   f"capacity {self.capacity}: it must equal the size until "
                   f"the pool is full, and then lie in [0, {self.capacity})")
        self._size, self._cursor = size, cursor
        for k in self.FIELDS:
            getattr(self, f"_{k}")[:size] = loaded.arrays[prefix + k]
        self._newest_next[:] = loaded.arrays[prefix + "newest_next"]

    def save(self, path: str) -> None:
        checkpoint.save(path, "replay-pool", self.state())

    def load(self, path: str) -> None:
        self.restore(checkpoint.load(path, "replay-pool", self.state()),
                     path)


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


def regression_step(net: FeedForwardNet, opt: AdadeltaState,
                    feats: np.ndarray, columns, targets: np.ndarray) -> float:
    """One Adadelta step of the mean squared error between ``net``'s output
    in ``columns`` (one per row, or one for every row) and ``targets``;
    returns the loss."""
    out, acts = net.forward_train(feats)
    rows = np.arange(len(feats))
    diff = out[rows, columns] - targets
    # the mean as np.mean takes it, then the gradient 2 diff / n in place
    loss = float(np.square(diff).sum()) / diff.size
    diff *= 2.0
    diff /= diff.size
    grad_out = np.zeros(out.shape)
    grad_out[rows, columns] = diff
    grads = net.backward_batch(grad_out, acts)
    nets.adadelta_step(opt, net, grads)
    return loss


@dataclass(frozen=True)
class AgentConfig:
    """Network, replay and pretraining settings of the DQN and actor-critic
    managers: the ``agent`` section of an experiment config. Exploration's
    actions are the space's (``environment.Space.explored``)."""

    hidden: tuple = (130, 50)        # hidden layer sizes, each an int >= 1
    minibatch: int = bounded("[1, inf)", 32)
    target_sync: int = bounded("[1, inf)", 1000)  # train steps per sync
    pool_capacity: int = bounded("[1, inf)", 50000)
    warmup: int = bounded("[0, inf)", 1000)  # DQN: pooled before training
    l2: float = bounded("[0, inf)", 1e-3)  # policy-gradient L2 (actor-critic)
    rho: float = bounded("(0, 1)", 0.95)
    eps_num: float = bounded("(0, inf)", 1e-6)
    sup_epochs: int = bounded("[0, inf)", 20)
    sup_batch: int = bounded("[1, inf)", 32)
    sup_holdout: float = bounded("[0, 1)", 0.1)
    # passes of batch RL (DQN, DDQN and the critic) over the corpus pool
    batch_sweeps: int = bounded("[0, inf)", 4)

    def __post_init__(self):
        check_ranges(self)
        if not isinstance(self.hidden, tuple) or not all(
                type(size) is int and size > 0 for size in self.hidden):
            raise ConfigError(f"hidden={self.hidden!r} must be a tuple of "
                              f"positive integer layer sizes")
        if self.pool_capacity < self.minibatch:
            # the pool could never fill a minibatch
            raise ConfigError(f"pool_capacity={self.pool_capacity} must be "
                              f">= minibatch={self.minibatch}")


class QAgent:
    """Online Q-network plus frozen target copy, replay pool and step counter."""

    def __init__(self, n_features: int, n_actions: int, config: AgentConfig,
                 rng: np.random.Generator, gamma: float,
                 double_dqn: bool = False):
        self.config = config
        self.gamma = gamma
        self.double_dqn = double_dqn
        self.qnet = FeedForwardNet.create(n_features, n_actions,
                                          config.hidden, rng)
        self.target = clone_net(self.qnet)
        self.opt = AdadeltaState.for_net(self.qnet, rho=config.rho,
                                         eps=config.eps_num)
        self.pool = ReplayPool(config.pool_capacity, n_features)
        self.train_steps = 0
        self.last_loss = float("nan")

    def act(self, features: np.ndarray, rng: np.random.Generator) -> int:
        """The greedy action; ``rng`` is not drawn from."""
        return self.eval_action(features)

    def eval_action(self, features: np.ndarray) -> int:
        return int(np.argmax(self.qnet.forward(features)))

    def observe(self, t: Transition, rng: np.random.Generator,
                epsilon: float) -> None:     # epsilon is the actor-critic's
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
        loss = regression_step(self.qnet, self.opt, feats, actions, targets)
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
        self.pool.restore(loaded, path, "pool.")    # checks, then copies
        checkpoint.take(self.state(), loaded)
        self.train_steps = loaded.counters["train_steps"]
        return loaded.counters
