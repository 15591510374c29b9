import json
import logging
import math
import re

import numpy as np
import pytest

from dialab import checkpoint, harness, nets
from dialab.actor_critic import ActorCriticAgent, behaviour_weight, td_errors
from dialab.checkpoint import CheckpointError
from dialab.corpus import Corpus, fill_pool, save_corpus
from dialab.environment import Transition
from dialab.harness import behaviour_action
from dialab.nets import (FeedForwardNet, NonFiniteGradientError, copy_params,
                         log_policy_gradient, softmax)
from dialab.value_agents import AgentConfig, regression_step
from reference import (cross_entropy_loss, finite_difference_grads,
                       l2_penalty, state_bytes)

RNG = np.random.default_rng


def make_agent(n_features=6, n_actions=4, explored=None, **kw):
    cfg = AgentConfig(hidden=kw.pop("hidden", (10, 8)),
                      minibatch=kw.pop("minibatch", 4),
                      warmup=kw.pop("warmup", 4), **kw)
    explored = tuple(range(n_actions)) if explored is None else explored
    return ActorCriticAgent(n_features, n_actions, cfg, RNG(0), explored,
                            gamma=0.99)


def fixed_policy_net(logits, n_in=6):
    net = FeedForwardNet.create(n_in, len(logits), (3,), RNG(1))
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][:] = logits
    return net


class ValueTable:
    """Exact state-value stub: features are one-hot states."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def forward_batch(self, x):
        return (np.asarray(x) @ self.values)[:, None]


def dialogue(n_turns, n_features=6, n_actions=4, seed=0):
    """One chained dialogue of ``n_turns`` random turns, the last terminal."""
    rng = RNG(seed)
    states = rng.normal(size=(n_turns + 1, n_features))
    return [Transition(states[k], int(rng.integers(n_actions)),
                       float(rng.normal()), states[k + 1], k == n_turns - 1,
                       False) for k in range(n_turns)]


def step(agent, x, action, delta, epsilon=0.0):
    """The actor's step on one row."""
    agent.policy_gradient_step(np.asarray(x, dtype=float)[None, :],
                               np.array([action]), np.array([delta]),
                               np.array([epsilon]))


def fixed_policy_agent(logits):
    """An actor-critic agent whose policy is ``fixed_policy_net(logits)``."""
    agent = make_agent(n_actions=len(logits))
    agent.policy = fixed_policy_net(logits)
    return agent


def behave(agent, epsilon, excluded, rng):
    explored = tuple(a for a in range(agent.policy.n_actions)
                     if a not in excluded)
    return behaviour_action(agent, np.zeros(6), epsilon, explored, rng)


class TestSelectAction:
    def test_concentrated_policy_dominates(self):
        agent = fixed_policy_agent([30.0, 0.0, 0.0])
        rng = RNG(2)
        hits = sum(behave(agent, 0.0, (), rng) == 0 for _ in range(10000))
        assert hits >= 9990

    def test_uniform_policy_frequencies(self):
        agent = fixed_policy_agent([0.0] * 11)
        rng = RNG(3)
        counts = np.zeros(11)
        n = 10000
        for _ in range(n):
            counts[behave(agent, 0.0, (), rng)] += 1
        assert np.all(np.abs(counts / n - 1 / 11) <= 0.01)

    def test_full_epsilon_ignores_policy(self):
        agent = fixed_policy_agent([50.0, 0.0, 0.0, 0.0])
        rng = RNG(4)
        counts = np.zeros(4)
        n = 8000
        for _ in range(n):
            counts[behave(agent, 1.0, (0,), rng)] += 1
        assert counts[0] == 0
        assert np.all(np.abs(counts[1:] / n - 1 / 3) <= 0.02)


class TestTdErrors:
    # a two-turn dialogue b -> b' -> end: delta[0] is the one-step TD error
    # of the first turn, delta[1] the terminal one's
    def test_worked_example(self):
        vnet = ValueTable([0.4, 0.5])
        delta = td_errors(vnet, np.eye(2), np.array([-0.03, 0.0]), 0.99)
        assert abs(delta[0] - 0.065) <= 1e-12

    def test_terminal_drops_bootstrap(self):
        vnet = ValueTable([0.8])
        delta = td_errors(vnet, np.ones((1, 1)), np.array([1.0]), 0.99)
        assert abs(delta[0] - 0.2) <= 1e-12
        vnet = ValueTable([0.4, 0.5])
        delta = td_errors(vnet, np.eye(2), np.array([-0.03, 1.0]), 0.99)
        assert abs(delta[1] - 0.5) <= 1e-12

    def test_zero_value_function_gives_reward(self):
        vnet = ValueTable([0.0, 0.0])
        for r in (-1.0, 0.25, 2.0):
            delta = td_errors(vnet, np.eye(2), np.array([r, r]), 0.9)
            assert list(delta) == [r, r]

    def test_linear_in_reward_with_unit_slope(self):
        vnet = ValueTable([0.3, -0.2])
        base = td_errors(vnet, np.eye(2), np.zeros(2), 0.95)
        for r in np.linspace(-2, 2, 9):
            delta = td_errors(vnet, np.eye(2), np.array([r, 0.0]), 0.95)
            assert abs(delta[0] - (base[0] + r)) <= 1e-12


class TestMicroMdpIdentity:
    def test_expected_td_error_equals_q_minus_v(self):
        # 3-state, 2-action tabular MDP with exact expectations everywhere
        rng = RNG(5)
        n_s, n_a = 3, 2
        P = rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
        R = rng.normal(size=(n_s, n_a, n_s))
        pi = rng.dirichlet(np.ones(n_a), size=n_s)
        gamma = 0.9
        P_pi = np.einsum("sa,sat->st", pi, P)
        R_pi = np.einsum("sa,sat,sat->s", pi, P, R)
        V = np.linalg.solve(np.eye(n_s) - gamma * P_pi, R_pi)
        Q = np.einsum("sat,sat->sa", P, R + gamma * V[None, None, :])
        vnet = ValueTable(V)
        for s in range(n_s):
            for a in range(n_a):
                expected_delta = 0.0
                for s2 in range(n_s):
                    feats = np.eye(n_s)[[s, s2]]
                    delta = td_errors(vnet, feats,
                                      np.array([R[s, a, s2], 0.0]), gamma)
                    expected_delta += P[s, a, s2] * delta[0]
                assert abs(expected_delta - (Q[s, a] - V[s])) <= 1e-10


class TestBehaviourWeight:
    # 11 actions, 8 of them explored: the original space's shape
    N_EXPLORED = 8

    def weights(self, epsilon, explored):
        p = np.concatenate([RNG(31).random(200), [1.0, 0.5, 1e-300]])
        return p, behaviour_weight(p, epsilon, explored, self.N_EXPLORED)

    @pytest.mark.parametrize("epsilon", [1e-6, 0.05, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("explored", [True, False])
    def test_bounded_by_one_over_one_minus_epsilon(self, epsilon, explored):
        _, w = self.weights(epsilon, explored)
        bound = 1 / (1 - epsilon)
        assert np.all((w > 0) & (w <= bound * (1 + 1e-12)))
        if not explored:        # only pi could have taken the action
            assert np.allclose(w, bound, rtol=1e-12)

    def test_bounded_by_the_explored_count_at_full_epsilon(self):
        p, w = self.weights(1.0, True)
        assert np.all(w <= self.N_EXPLORED)
        assert np.allclose(w, p * self.N_EXPLORED, rtol=1e-12)

    @pytest.mark.parametrize("explored", [True, False])
    def test_one_without_exploration(self, explored):
        _, w = self.weights(0.0, explored)
        assert np.all(w == 1.0)

    def test_zero_epsilon_step_is_the_on_policy_step(self):
        # w = 1: the weighted step is delta * grad log pi(a), bit for bit
        agent, reference = make_agent(), make_agent()
        feats = RNG(32).normal(size=(5, 6))
        actions, deltas = np.array([0, 1, 2, 3, 1]), RNG(33).normal(size=5)
        agent.policy_gradient_step(feats, actions, deltas, np.zeros(5))
        logits, acts = reference.policy.forward_train(feats)
        grad = -deltas[:, None] * log_policy_gradient(softmax(logits), actions)
        grads = reference.policy.backward_batch(grad, acts)
        nets.add_l2_gradient(grads, reference.policy, reference.config.l2)
        nets.adadelta_step(reference.policy_opt, reference.policy, grads)
        assert agent.policy.params.tobytes() == \
            reference.policy.params.tobytes()

    def test_non_finite_advantage_rejected_at_any_epsilon(self):
        agent = make_agent()
        before = agent.policy.params.copy()
        for epsilon in (0.0, 0.5, 1.0):
            for delta in (float("nan"), float("inf")):
                with pytest.raises(NonFiniteGradientError):
                    agent.policy_gradient_step(
                        np.ones((2, 6)), np.array([0, 1]),
                        np.array([0.5, delta]), np.full(2, epsilon))
        assert np.array_equal(agent.policy.params, before)


class TestPolicyGradientStep:
    def test_zero_delta_zero_l2_leaves_parameters(self):
        agent = make_agent(l2=0.0)
        before = [w.copy() for w in agent.policy.weights]
        step(agent, np.ones(6), 2, 0.0)
        for w, b in zip(agent.policy.weights, before):
            assert np.array_equal(w, b)

    def test_positive_delta_increases_probability(self):
        agent = make_agent(l2=0.0)
        x = RNG(6).normal(size=6)
        action = 1
        probs = [softmax(agent.policy.forward(x))[action]]
        for _ in range(3):
            step(agent, x, action, 1.0)
            probs.append(softmax(agent.policy.forward(x))[action])
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_negative_delta_decreases_probability(self):
        agent = make_agent(l2=0.0)
        x = RNG(7).normal(size=6)
        before = softmax(agent.policy.forward(x))[0]
        step(agent, x, 0, -1.0)
        assert softmax(agent.policy.forward(x))[0] < before

    def test_update_is_ascent_direction(self):
        # inner product of the analytic gradient with the applied update > 0
        agent = make_agent(l2=0.0)
        x = RNG(8).normal(size=6)
        action = 0
        logits, acts = agent.policy.forward_train(x[None])
        ascent = agent.policy.backward_batch(
            log_policy_gradient(softmax(logits), action), acts)
        before = agent.policy.params.copy()
        step(agent, x, action, 1.0)
        assert float(ascent @ (agent.policy.params - before)) > 0.0

    def test_non_finite_delta_rejected(self):
        agent = make_agent()
        with pytest.raises(NonFiniteGradientError):
            step(agent, np.ones(6), 0, float("nan"))

    def test_policy_stays_strictly_positive(self):
        agent = make_agent()
        x = RNG(9).normal(size=6)
        for i in range(50):
            step(agent, x, i % 4, 1.0)
        probs = softmax(agent.policy.forward(x))
        assert np.all(probs > 0.0)
        assert abs(probs.sum() - 1.0) <= 1e-9


def inline_value_train_step(agent, rng):
    """ActorCriticAgent.value_train_step as written before it shared the DQN
    regression step: the reference the shared step must match."""
    cfg = agent.config
    idx = agent.pool.sample_indices(cfg.minibatch, rng)
    feats, _, rewards, nxt, term = agent.pool.batch(idx)
    v_next = agent.value_target.forward_batch(nxt)[:, 0]
    targets = rewards + agent.gamma * (~term) * v_next
    v, acts = agent.value.forward_train(feats)
    diff = v[:, 0] - targets
    loss = float(np.mean(diff ** 2))
    grad_out = (2.0 * diff / len(idx))[:, None]
    grads = agent.value.backward_batch(grad_out, acts)
    nets.adadelta_step(agent.value_opt, agent.value, grads)
    agent.value_steps += 1
    if agent.value_steps % cfg.target_sync == 0:
        copy_params(agent.value, agent.value_target)
    return loss


class TestValueTrainStep:
    def test_steps_match_the_inline_reference(self):
        # the critic's step is the DQN step on column 0 of a one-output net:
        # value net, target copy, Adadelta accumulators and losses byte for
        # byte over steps that cross three target syncs
        runs = []
        for step in (ActorCriticAgent.value_train_step,
                     inline_value_train_step):
            agent = make_agent(target_sync=3)
            for i in range(12):
                agent.pool.add(Transition(
                    RNG(i).normal(size=6), i % 4, float(RNG(i).normal()),
                    RNG(i + 1).normal(size=6), i % 5 == 0, False))
            rng = RNG(20)
            losses = [step(agent, rng) for _ in range(10)]
            runs.append((losses, state_bytes(agent.state())))
        assert runs[0] == runs[1]

    def test_terminal_only_pool_regresses_to_reward(self):
        agent = make_agent(minibatch=1, warmup=1)
        t = Transition(RNG(10).normal(size=6), 0, 0.6, np.zeros(6), True, True)
        agent.pool.add(t)
        rng = RNG(11)
        for _ in range(5000):
            agent.value_train_step(rng)
            if abs(agent.value.forward(t.features)[0] - 0.6) <= 1e-3:
                break
        assert abs(agent.value.forward(t.features)[0] - 0.6) <= 1e-3



def reference_dialogue_update(agent, turns, epsilons, explored):
    """The per-dialogue update written out turn by turn: one regression
    step of V toward the discounted returns, then the actor's step, each
    row's gradient -(w delta) grad log pi(a) with w = pi(a) / mu(a)."""
    feats = np.array([t.features for t in turns])
    returns, g = np.zeros(len(turns)), 0.0
    for k in range(len(turns) - 1, -1, -1):
        g = turns[k].reward + agent.gamma * g
        returns[k] = g
    regression_step(agent.value, agent.value_opt, feats, 0, returns)
    values = agent.value.forward_batch(feats)[:, 0]
    logits, acts = agent.policy.forward_train(feats)
    probs = softmax(logits)
    grad = np.zeros(probs.shape)
    for k, (t, eps) in enumerate(zip(turns, epsilons)):
        after = values[k + 1] if k + 1 < len(turns) else 0.0
        delta = t.reward + agent.gamma * after - values[k]
        p = probs[k, t.action]
        mu = (1 - eps) * p + (eps / len(explored) if t.action in explored
                              else 0.0)
        grad[k] = -(p / mu * delta) * log_policy_gradient(probs[k], t.action)
    grads = agent.policy.backward_batch(grad, acts)
    nets.add_l2_gradient(grads, agent.policy, agent.config.l2)
    nets.adadelta_step(agent.policy_opt, agent.policy, grads)


class TestObserve:
    EXPLORED = (1, 2, 3)

    def test_dialogue_update_matches_the_turn_by_turn_reference(self):
        # both nets and both optimisers bit for bit, over dialogues whose
        # turns run under different epsilons and take unexplored actions
        agent = make_agent(explored=self.EXPLORED)
        reference = make_agent(explored=self.EXPLORED)
        for d in range(6):
            turns = dialogue(1 + 3 * d, seed=d)
            epsilons = [0.5 * 0.9 ** k for k in range(len(turns))]
            for t, eps in zip(turns, epsilons):
                agent.observe(t, None, eps)
            reference_dialogue_update(reference, turns, epsilons,
                                      self.EXPLORED)
            assert state_bytes(agent.state()) == state_bytes(reference.state())
        assert np.isfinite(agent.last_value_loss)

    def test_nothing_learns_before_the_terminal_turn(self):
        agent = make_agent()
        before = state_bytes(agent.state())
        turns = dialogue(5)
        for t in turns[:-1]:
            agent.observe(t, None, 0.1)
        assert state_bytes(agent.state()) == before
        agent.observe(turns[-1], None, 0.1)
        assert state_bytes(agent.state()) != before

    def test_a_turn_that_does_not_continue_the_dialogue_is_refused(self):
        agent = make_agent()
        first, second = dialogue(2)
        agent.observe(first, None, 0.1)
        with pytest.raises(ValueError, match="last one's next state"):
            agent.observe(dialogue(2, seed=1)[1], None, 0.1)
        agent.observe(second, None, 0.1)     # the next state, as a copy
        agent.observe(dialogue(1, seed=2)[0], None, 0.1)   # a new dialogue

    def test_critic_fits_single_turn_returns(self):
        agent = make_agent()
        t = dialogue(1, seed=3)[0]
        for _ in range(3000):
            agent.observe(t, None, 0.0)
            if abs(agent.value.forward(t.features)[0] - t.reward) <= 1e-3:
                break
        assert abs(agent.value.forward(t.features)[0] - t.reward) <= 1e-3

    def test_snapshot_inside_a_dialogue_is_refused(self, tmp_path):
        agent = make_agent()
        agent.observe(dialogue(3)[0], None, 0.1)
        path = str(tmp_path / "a2c.npz")
        with pytest.raises(RuntimeError, match="inside a dialogue"):
            agent.save(path)
        assert not (tmp_path / "a2c.npz").exists()


class TestCheckpoint:
    def test_roundtrip_restores_nets_and_accumulators(self, tmp_path):
        agent = make_agent(target_sync=5)
        for t in dialogue(12, seed=13):     # pretraining's replay steps
            agent.pool.add(t)
        rng = RNG(13)
        for _ in range(7):
            agent.value_train_step(rng)
        for d in range(5):
            for t in dialogue(4 + d, seed=20 + d):
                agent.observe(t, rng, 0.2)
        path = str(tmp_path / "a2c.npz")
        agent.save(path)
        with np.load(path) as data:     # the pool and the target copy stay
            assert sorted(data.files) == [
                "__meta__", "policy.params", "policy_opt.grad",
                "policy_opt.update", "value.params", "value_opt.grad",
                "value_opt.update"]
            meta = json.loads(bytes(data["__meta__"]))
        # and so does pretraining's step count, which a resume never reads
        assert sorted(meta) == ["format", "kind", "policy.layer_sizes",
                                "value.layer_sizes", "version"]
        twin = ActorCriticAgent(6, 4, agent.config, RNG(99), (0, 1, 2, 3),
                                gamma=0.99)
        twin.observe(dialogue(3)[0], None, 0.1)     # dropped by the load
        twin.load(path)
        assert state_bytes(twin.state()) == state_bytes(agent.state())
        assert agent.value_steps == 7 and twin.value_steps == 0
        twin.save(path)

    def test_snapshot_with_the_pool_and_target_copy_is_refused(self,
                                                              tmp_path):
        # the layout written while the critic took a replay step every turn
        agent = make_agent()
        old = checkpoint.compose({"value_steps": 0},
                                 policy=agent.policy.state(),
                                 value=agent.value.state(),
                                 value_target=agent.value_target.state(),
                                 policy_opt=agent.policy_opt.state(),
                                 value_opt=agent.value_opt.state(),
                                 pool=agent.pool.state())
        path = str(tmp_path / "a2c.npz")
        checkpoint.save(path, "actor-critic", old)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: missing counters []; arrays [")) as refused:
            agent.load(path)
        for name in ("pool.features", "pool.newest_next",
                     "value_target.params", "value.params"):
            assert f"'{name}'" in str(refused.value)


class TestSupervised:
    def test_uniform_start_loss_is_log_11(self):
        agent = make_agent(n_actions=11, l2=0.0)
        for w in agent.policy.weights:
            w[:] = 0.0
        for b in agent.policy.biases:
            b[:] = 0.0
        feats = RNG(13).normal(size=(32, 6))
        actions = RNG(14).integers(0, 11, size=32)
        loss = agent.supervised_step(feats, actions)
        assert abs(loss - math.log(11)) <= 0.05

    def test_step_matches_the_per_row_reference(self):
        # the loop over rows, with l2_penalty's gradient added, is the
        # reference: same parameters and clamp count bit for bit
        agent, reference = make_agent(l2=0.01), make_agent(l2=0.01)
        agent.policy.biases[-1][:] = reference.policy.biases[-1][:] = [
            40.0, 0.0, 0.0, -40.0]
        feats = RNG(21).normal(size=(16, 6))
        actions = RNG(22).integers(0, 4, size=16)
        for _ in range(5):
            loss = agent.supervised_step(feats, actions)
            logits, acts = reference.policy.forward_train(feats)
            probs = softmax(logits)
            grad_out, total = probs.copy(), 0.0
            for i, a in enumerate(actions):
                loss_i, _, clamped = cross_entropy_loss(probs[i], a)
                total += loss_i
                reference.clamp_count += clamped
                grad_out[i, a] -= 1.0
            grad_out /= len(actions)
            grads = reference.policy.backward_batch(grad_out, acts)
            penalty, l2_grads = l2_penalty(reference.policy, 0.01)
            grads += l2_grads
            nets.adadelta_step(reference.policy_opt, reference.policy, grads)
            assert loss == pytest.approx(total / 16 + penalty, rel=1e-12)
            assert agent.policy.params.tobytes() == \
                reference.policy.params.tobytes()
        assert agent.clamp_count == reference.clamp_count > 0

    def test_single_example_memorized(self):
        agent = make_agent(l2=0.0)
        x = RNG(15).normal(size=6)[None, :]
        a = np.array([2])
        for step in range(2000):
            agent.supervised_step(x, a)
            if softmax(agent.policy.forward(x[0]))[2] >= 0.99:
                break
        assert softmax(agent.policy.forward(x[0]))[2] >= 0.99

    def test_supervised_gradient_matches_finite_differences(self):
        agent = make_agent(l2=0.0, hidden=(5, 4))
        net = agent.policy
        feats = RNG(16).normal(size=(3, 6))
        actions = np.array([0, 2, 1])

        def objective():
            total = 0.0
            for i, a in enumerate(actions):
                total += cross_entropy_loss(softmax(net.forward(feats[i])),
                                            int(a))[0]
            return total / len(actions)

        logits, acts = net.forward_train(feats)
        grad_out = softmax(logits)
        for i, a in enumerate(actions):
            grad_out[i, a] -= 1.0
        grad_out /= len(actions)
        analytic = net.backward_batch(grad_out, acts)
        numeric = finite_difference_grads(objective, net, h=1e-5)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        assert float(np.max(np.abs(analytic - numeric) / denom)) <= 1e-4


class TestPretrain:
    def test_empty_corpus_is_noop_with_warning(self, tmp_path, caplog):
        cfg = harness.config_from_dict({
            "algorithm": "tda2c", "agent": {"hidden": [10, 8]},
            "pretrain": {"mode": "sup_full_batch",
                         "corpus": str(tmp_path / "empty.jsonl")}})
        _, _, env = harness.build_world(cfg)
        save_corpus(Corpus(dialogues=[], space="original"),
                    cfg.pretrain.corpus)
        agent = harness.build_agent(cfg, env)
        with caplog.at_level(logging.WARNING):
            stats = harness.run_pretraining(cfg, env, agent)
        assert stats["supervised_examples"] == 0
        assert any("empty" in rec.message for rec in caplog.records)
        assert len(agent.pool) == 0 and agent.value_steps == 0
        # no rows, no supervised draws
        rng = RNG(17)
        drawn = rng.bit_generator.state
        assert agent.imitate(np.arange(0), rng)["supervised_examples"] == 0
        assert rng.bit_generator.state == drawn

    def test_imitation_of_handcrafted_rule(self):
        # corpus from the deterministic controller; >= 95% held-out agreement
        from dialab.corpus import BlunderSchedule, generate_corpus
        cfg = harness.ExperimentConfig(space="original", seed=5)
        _, _, env = harness.build_world(cfg)
        built = generate_corpus(env, 220, seed=5,
                                schedule=BlunderSchedule(((1.0, 0.0),)))
        agent = ActorCriticAgent(31, 11,
                                 AgentConfig(hidden=(48, 32), sup_epochs=12),
                                 RNG(19), env.space.explored, gamma=0.99)
        fill_pool(built, agent.pool)
        stats = agent.imitate(np.arange(len(agent.pool)), RNG(20))
        assert stats["holdout_accuracy"] >= 0.95
