"""Advantage actor-critic dialogue managers.

A softmax policy network is trained by ascending the TD-error-weighted
log-likelihood of the taken action, with L2 regularization keeping the
effective step bounded. A scalar value network supplies the TD error and is
itself trained DQN-style with replay and a target copy. The two-stage
variant first clones demonstrated actions by cross-entropy and batch-trains
the value network on logged transitions before any online interaction.
"""

from __future__ import annotations

import logging

import numpy as np

from . import checkpoint, nets
from .environment import Transition
from .nets import (AdadeltaState, FeedForwardNet, clone_net, copy_params,
                   cross_entropy_loss, l2_penalty, log_policy_gradient)
from .value_agents import AgentConfig, ReplayPool, explore

log = logging.getLogger(__name__)


class LayoutMismatchError(ValueError):
    """Corpus feature layout disagrees with the agent's expected layout."""


def select_action_policy(pnet: FeedForwardNet, features: np.ndarray,
                         epsilon: float, excluded, rng: np.random.Generator) -> int:
    """With probability epsilon explore uniformly over non-excluded actions,
    otherwise sample from the policy distribution."""
    if rng.random() < epsilon:
        return explore(pnet.n_actions, excluded, rng)
    probs = pnet.forward(features)
    return int(rng.choice(pnet.n_actions, p=probs))


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
        self.excluded = tuple(config.excluded or ())
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

    def begin_episode(self) -> None:
        pass

    def select_action(self, features, epsilon, rng) -> int:
        return select_action_policy(self.policy, features, epsilon,
                                    self.excluded, rng)

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
        """DQN-like regression of V toward r + gamma V_target(b')."""
        cfg = self.config
        idx = self.pool.sample_indices(cfg.minibatch, rng)
        feats, _, rewards, nxt, term = self.pool.batch(idx)
        v_next = self.value_target.forward_batch(nxt)[:, 0]
        targets = rewards + self.gamma * (~term) * v_next
        v, acts = self.value.forward_train(feats)
        diff = v[:, 0] - targets
        loss = float(np.mean(diff ** 2))
        grad_out = (2.0 * diff / len(idx))[:, None]
        grads = self.value.backward_batch(feats, grad_out, acts)
        nets.adadelta_step(self.value_opt, self.value, grads)
        self.value_steps += 1
        if self.value_steps % cfg.target_sync == 0:
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
        losses = 0.0
        grad_out = probs.copy()
        for i, a in enumerate(actions):
            loss_i, _, clamped = cross_entropy_loss(probs[i], int(a))
            losses += loss_i
            self.clamp_count += clamped
            grad_out[i, int(a)] -= 1.0
        grad_out /= n
        grads = self.policy.backward_batch(feats, grad_out, acts)
        if self.config.l2 > 0:
            penalty, l2_grads = l2_penalty(self.policy, self.config.l2)
            losses += n * penalty
            grads.vector += l2_grads.vector
        nets.adadelta_step(self.policy_opt, self.policy, grads)
        return losses / n

    # -- two-stage pretraining ---------------------------------------------

    def pretrain(self, pairs, transitions, expected_layout, corpus_layout,
                 rng: np.random.Generator, supervised: bool = True,
                 batch_rl: bool = True) -> dict:
        """Stage 1: supervised epochs over (features, action) pairs.
        Stage 2: batch value RL over the corpus transitions. No environment
        interaction happens here.
        """
        if list(corpus_layout) != list(expected_layout):
            missing = [n for n in expected_layout if n not in corpus_layout]
            extra = [n for n in corpus_layout if n not in expected_layout]
            raise LayoutMismatchError(
                f"corpus layout mismatch; missing={missing} extra={extra} "
                f"(corpus has {len(corpus_layout)} features, expected "
                f"{len(expected_layout)})")
        stats = {"supervised_examples": 0, "holdout_accuracy": None,
                 "value_sweeps": 0}
        if not pairs and not transitions:
            log.warning("pretrain called with an empty corpus; nothing to do")
            return stats

        if supervised and pairs:
            feats = np.asarray([p[0] for p in pairs], dtype=float)
            acts = np.asarray([p[1] for p in pairs], dtype=np.int64)
            order = rng.permutation(len(acts))
            n_hold = int(len(acts) * self.config.sup_holdout)
            hold, train = order[:n_hold], order[n_hold:]
            stats["supervised_examples"] = len(train)
            for _ in range(self.config.sup_epochs):
                perm = rng.permutation(len(train))
                for start in range(0, len(perm), self.config.sup_batch):
                    sel = train[perm[start:start + self.config.sup_batch]]
                    self.supervised_step(feats[sel], acts[sel])
            if len(hold):
                pred = self.policy.forward_batch(feats[hold]).argmax(axis=1)
                stats["holdout_accuracy"] = float(np.mean(pred == acts[hold]))

        if batch_rl and transitions:
            for t in transitions:
                self.pool.add(t)
            per_sweep = max(1, len(transitions) // self.config.minibatch)
            for _ in range(self.config.batch_sweeps):
                for _ in range(per_sweep):
                    self.last_value_loss = self.value_train_step(rng)
                stats["value_sweeps"] += 1
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
        self.value_steps = loaded.counters["value_steps"]
        self.pool.restore(loaded, "pool.")
        return loaded.counters
