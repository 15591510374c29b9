"""Advantage actor-critic dialogue managers.

A policy network, whose outputs the agent takes the softmax of (the
training loop adds the epsilon draw), and a one-output value network
learn once per dialogue: at its terminal turn V takes one regression step
toward the dialogue's discounted returns, then the policy one step over
its turns, ascending the TD error r + gamma V(b') - V(b) times grad log
pi(a), weighted by pi(a) / mu(a) for the epsilon mixture mu that chose a,
minus an L2 term. The two-stage variant first clones demonstrated actions
by cross-entropy (``imitate``) on the logged turns the harness stored in
the replay pool; the batch RL stage that follows, V's replay steps toward
r + gamma V_target(b'), is the harness's pretraining stage shared with
DQN, and the one reader of the pool and the target copy.
"""

from __future__ import annotations

import numpy as np

from . import checkpoint, nets
from .environment import Transition, same_state
from .nets import (CE_CLAMP, AdadeltaState, FeedForwardNet, clone_net,
                   copy_params, log_policy_gradient, softmax)
from .value_agents import AgentConfig, ReplayPool, dqn_target, regression_step


def behaviour_weight(p, epsilon, explored, n_explored: int):
    """pi(a) / mu(a) for taken actions of policy probability ``p``, where
    mu(a) = (1 - epsilon) pi(a) + epsilon / n_explored if ``explored``:
    at most 1 / (1 - epsilon), or n_explored at epsilon = 1."""
    mu = (1 - epsilon) * p + np.where(explored, epsilon / n_explored, 0.0)
    return p / mu


def td_errors(vnet: FeedForwardNet, feats: np.ndarray, rewards: np.ndarray,
              gamma: float) -> np.ndarray:
    """r + gamma V(b') - V(b) for one dialogue's turns, b' the next turn's
    state; the last turn is terminal and drops the bootstrap."""
    values = vnet.forward_batch(feats)[:, 0]
    return rewards + gamma * np.append(values[1:], 0.0) - values


class ActorCriticAgent:
    """Policy network (actor) plus value network (critic); the critic's
    target copy serves pretraining's replay steps alone."""

    def __init__(self, n_features: int, n_actions: int, config: AgentConfig,
                 rng: np.random.Generator, explored: tuple, gamma: float):
        self.config = config
        self.gamma = gamma
        self.policy = FeedForwardNet.create(n_features, n_actions,
                                            config.hidden, rng)
        self.value = FeedForwardNet.create(n_features, 1, config.hidden, rng)
        self.value_target = clone_net(self.value)
        self.policy_opt = AdadeltaState.for_net(self.policy, rho=config.rho,
                                                eps=config.eps_num)
        self.value_opt = AdadeltaState.for_net(self.value, rho=config.rho,
                                               eps=config.eps_num)
        self.pool = ReplayPool(config.pool_capacity, n_features)
        self.explored = np.isin(np.arange(n_actions), explored)     # a mask
        self.value_steps = 0    # pretraining's, for its target syncs
        self.last_value_loss = float("nan")
        # supervised targets whose probability was clamped in the
        # cross-entropy; a diagnostic, not checkpointed
        self.clamp_count = 0
        # the dialogue's (features, action, reward, epsilon) per turn so
        # far, and its last turn's next state
        self._turns, self._next = [], None

    def act(self, features, rng: np.random.Generator) -> int:
        """An action drawn from the policy distribution."""
        probs = softmax(self.policy.forward(features))
        return int(rng.choice(self.policy.n_actions, p=probs))

    def eval_action(self, features) -> int:
        return int(np.argmax(softmax(self.policy.forward(features))))

    def observe(self, t: Transition, rng: np.random.Generator,
                epsilon: float) -> None:
        """Buffer the turn, drawn under ``epsilon``; at a terminal one, take
        the critic's and the actor's steps. ``rng`` is not drawn from."""
        if self._turns and not same_state(t.features, self._next):
            raise ValueError("a turn must start at the last one's next state")
        self._turns.append((t.features, t.action, t.reward, epsilon))
        self._next = t.next_features
        if not t.terminal:
            return
        feats, actions, rewards, epsilons = map(np.array, zip(*self._turns))
        self._turns = []
        returns, g = np.zeros(len(rewards)), 0.0
        for k in range(len(rewards) - 1, -1, -1):
            g = returns[k] = rewards[k] + self.gamma * g
        self.last_value_loss = regression_step(self.value, self.value_opt,
                                               feats, 0, returns)
        deltas = td_errors(self.value, feats, rewards, self.gamma)
        self.policy_gradient_step(feats, actions, deltas, epsilons)

    def value_train_step(self, rng: np.random.Generator) -> float:
        """The DQN step on V's one column: V toward r + gamma V_target(b')."""
        idx = self.pool.sample_indices(self.config.minibatch, rng)
        feats, _, rewards, nxt, term = self.pool.batch(idx)
        targets = dqn_target(rewards, nxt, term, self.value_target, self.gamma)
        loss = regression_step(self.value, self.value_opt, feats, 0, targets)
        self.value_steps += 1
        if self.value_steps % self.config.target_sync == 0:
            copy_params(self.value, self.value_target)
        return loss

    def policy_gradient_step(self, feats: np.ndarray, actions: np.ndarray,
                             deltas: np.ndarray, epsilons: np.ndarray) -> None:
        """Ascend sum_k w_k delta_k grad log pi(a_k | b_k) minus the L2 term,
        w_k the ``behaviour_weight`` of row k under its epsilon."""
        if not np.isfinite(deltas).all():
            raise nets.NonFiniteGradientError("non-finite advantage, step rejected")
        logits, acts = self.policy.forward_train(feats)
        probs = softmax(logits)
        p = probs[np.arange(len(actions)), actions]
        scale = deltas * behaviour_weight(p, epsilons, self.explored[actions],
                                          np.count_nonzero(self.explored))
        grad_logits = log_policy_gradient(probs, actions)
        grad_logits *= -scale[:, None]
        grads = self.policy.backward_batch(grad_logits, acts)
        if self.config.l2 > 0:
            nets.add_l2_gradient(grads, self.policy, self.config.l2)
        nets.adadelta_step(self.policy_opt, self.policy, grads)

    def supervised_step(self, feats: np.ndarray, actions: np.ndarray) -> float:
        """One cross-entropy (+L2) minibatch on demonstrated actions."""
        logits, acts = self.policy.forward_train(feats)
        probs = softmax(logits)
        n = len(actions)
        rows = np.arange(n)
        target = probs[rows, actions]
        clamped = target < CE_CLAMP
        self.clamp_count += int(np.count_nonzero(clamped))
        losses = float(-np.log(np.where(clamped, CE_CLAMP, target)).sum())
        grad_logits = probs    # probs - onehot, in place
        grad_logits[rows, actions] -= 1.0
        grad_logits /= n
        grads = self.policy.backward_batch(grad_logits, acts)
        if self.config.l2 > 0:
            nets.add_l2_gradient(grads, self.policy, self.config.l2)
            weights = self.policy.params[:self.policy.n_weights]
            losses += n * self.config.l2 * float(weights @ weights)
        nets.adadelta_step(self.policy_opt, self.policy, grads)
        return losses / n

    def imitate(self, rows: np.ndarray, rng: np.random.Generator) -> dict:
        """The supervised stage of pretraining: ``sup_epochs`` epochs of
        cross-entropy minibatches over the ``rows`` (indices) of the replay
        pool, less a random ``sup_holdout`` share on which the agreement
        with the logged actions is measured. No rows, no draws."""
        stats = {"supervised_examples": 0, "holdout_accuracy": None}
        if not len(rows):
            return stats
        features = self.pool.rows("features")
        actions = self.pool.rows("actions")
        n_hold = int(len(rows) * self.config.sup_holdout)
        hold, train = np.split(rows[rng.permutation(len(rows))], [n_hold])
        stats["supervised_examples"] = len(train)
        for _ in range(self.config.sup_epochs):
            perm = rng.permutation(len(train))
            for start in range(0, len(perm), self.config.sup_batch):
                sel = train[perm[start:start + self.config.sup_batch]]
                self.supervised_step(features[sel], actions[sel])
        if len(hold):
            probs = softmax(self.policy.forward_batch(features[hold]))
            stats["holdout_accuracy"] = float(np.mean(
                probs.argmax(axis=1) == actions[hold]))
        return stats

    # -- checkpointing ------------------------------------------------------

    def state(self) -> checkpoint.State:
        return checkpoint.compose({}, policy=self.policy.state(),
                                  value=self.value.state(),
                                  policy_opt=self.policy_opt.state(),
                                  value_opt=self.value_opt.state())

    def save(self, path: str, **run) -> None:
        if self._turns:     # snapshots fall at dialogue ends
            raise RuntimeError(f"{path}: not saved inside a dialogue")
        checkpoint.save(path, "actor-critic", self.state(), **run)

    def load(self, path: str, *run: str) -> dict:
        loaded = checkpoint.load(path, "actor-critic", self.state(), *run)
        checkpoint.take(self.state(), loaded)
        self._turns = []
        return loaded.counters
