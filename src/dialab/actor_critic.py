"""Advantage actor-critic dialogue managers.

A softmax policy network, sampled to act (the training loop adds the
epsilon draw), is trained by ascending the TD-error-weighted
log-likelihood of the taken action, with L2 regularization keeping the
effective step bounded. A scalar value network supplies the TD error and is
itself trained DQN-style with replay and a target copy. The two-stage
variant first clones demonstrated actions by cross-entropy (``imitate``)
on the logged turns the harness stored in the replay pool; the batch RL
stage that follows, value replay steps over those turns, is the harness's
pretraining stage shared with DQN.
"""

from __future__ import annotations

import numpy as np

from . import checkpoint, nets
from .environment import Transition
from .nets import (CE_CLAMP, AdadeltaState, FeedForwardNet, clone_net,
                   copy_params, log_policy_gradient)
from .value_agents import AgentConfig, ReplayPool, dqn_target, regression_step


def td_advantage(vnet: FeedForwardNet, reward: float, features: np.ndarray,
                 next_features: np.ndarray, terminal: bool,
                 gamma: float) -> float:
    """delta = r + gamma V(b') - V(b); terminal transitions drop the bootstrap."""
    v = vnet.forward(features)
    if terminal:
        return reward - v
    return reward + gamma * vnet.forward(next_features) - v


class ActorCriticAgent:
    """Policy network (actor) plus value network with target copy (critic)."""

    def __init__(self, n_features: int, n_actions: int, config: AgentConfig,
                 rng: np.random.Generator, gamma: float = 0.99):
        self.config = config
        self.gamma = gamma
        self.policy = FeedForwardNet.create(n_features, n_actions,
                                            hidden=config.hidden,
                                            head="softmax", rng=rng)
        self.value = FeedForwardNet.create(n_features, 1, hidden=config.hidden,
                                           head="scalar", rng=rng)
        self.value_target = clone_net(self.value)
        self.policy_opt = AdadeltaState.for_net(self.policy, rho=config.rho,
                                                eps=config.eps_num)
        self.value_opt = AdadeltaState.for_net(self.value, rho=config.rho,
                                               eps=config.eps_num)
        self.pool = ReplayPool(config.pool_capacity, n_features)
        self.value_steps = 0
        self.last_value_loss = float("nan")
        # supervised targets whose probability was clamped in the
        # cross-entropy; a diagnostic, not checkpointed
        self.clamp_count = 0

    def act(self, features, rng: np.random.Generator) -> int:
        """An action drawn from the policy distribution."""
        probs = self.policy.forward(features)
        return int(rng.choice(self.policy.n_actions, p=probs))

    def eval_action(self, features) -> int:
        return int(np.argmax(self.policy.forward(features)))

    def observe(self, t: Transition, rng: np.random.Generator) -> None:
        self.pool.add(t)
        if len(self.pool) >= max(self.config.warmup, self.config.minibatch):
            self.last_value_loss = self.value_train_step(rng)
        delta = td_advantage(self.value, t.reward, t.features,
                             t.next_features, t.terminal, self.gamma)
        self.policy_gradient_step(t.features, t.action, delta)

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

    def policy_gradient_step(self, features, action: int, delta: float) -> None:
        """Ascend delta * grad log pi(action | features) minus the L2 term."""
        if not np.isfinite(delta):
            raise nets.NonFiniteGradientError("non-finite advantage, step rejected")
        x = np.asarray(features, dtype=float)[None, :]
        probs, acts = self.policy.forward_train(x)
        grad_logits = -delta * log_policy_gradient(probs[0], action)
        grads = self.policy.backward_batch(x, grad_logits[None, :], acts)
        if self.config.l2 > 0:
            nets.add_l2_gradient(grads, self.policy, self.config.l2)
        nets.adadelta_step(self.policy_opt, self.policy, grads)

    def supervised_step(self, feats: np.ndarray, actions: np.ndarray) -> float:
        """One cross-entropy (+L2) minibatch on demonstrated actions."""
        probs, acts = self.policy.forward_train(feats)
        n = len(actions)
        rows = np.arange(n)
        target = probs[rows, actions]
        clamped = target < CE_CLAMP
        self.clamp_count += int(np.count_nonzero(clamped))
        losses = float(-np.log(np.where(clamped, CE_CLAMP, target)).sum())
        grad_out = probs.copy()
        grad_out[rows, actions] -= 1.0
        grad_out /= n
        grads = self.policy.backward_batch(feats, grad_out, acts)
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
            pred = self.policy.forward_batch(features[hold]).argmax(axis=1)
            stats["holdout_accuracy"] = float(np.mean(pred == actions[hold]))
        return stats

    # -- checkpointing ------------------------------------------------------

    def state(self) -> checkpoint.State:
        return checkpoint.compose({"value_steps": self.value_steps},
                                  policy=self.policy.state(),
                                  value=self.value.state(),
                                  value_target=self.value_target.state(),
                                  policy_opt=self.policy_opt.state(),
                                  value_opt=self.value_opt.state(),
                                  pool=self.pool.state())

    def save(self, path: str, **run) -> None:
        checkpoint.save(path, "actor-critic", self.state(), **run)

    def load(self, path: str, *run: str) -> dict:
        loaded = checkpoint.load(path, "actor-critic", self.state(), *run)
        self.pool.restore(loaded, path, "pool.")    # checks, then copies
        checkpoint.take(self.state(), loaded)
        self.value_steps = loaded.counters["value_steps"]
        return loaded.counters
