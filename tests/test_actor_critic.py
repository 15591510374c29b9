import logging
import math

import numpy as np
import pytest

from dialab.actor_critic import (ActorCriticAgent, LayoutMismatchError,
                                 select_action_policy, td_advantage)
from dialab.environment import Transition
from dialab.nets import FeedForwardNet, NonFiniteGradientError
from dialab.value_agents import AgentConfig

RNG = np.random.default_rng


def make_agent(n_features=6, n_actions=4, **kw):
    cfg = AgentConfig(hidden=kw.pop("hidden", (10, 8)),
                      minibatch=kw.pop("minibatch", 4),
                      warmup=kw.pop("warmup", 4), **kw)
    return ActorCriticAgent(n_features, n_actions, cfg, RNG(0))


def fixed_policy_net(logits, n_in=6):
    net = FeedForwardNet.create(n_in, len(logits), hidden=(3,), head="softmax",
                                rng=RNG(1))
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

    def forward(self, x):
        return float(self.values @ np.asarray(x))


class TestSelectAction:
    def test_concentrated_policy_dominates(self):
        net = fixed_policy_net([30.0, 0.0, 0.0])
        rng = RNG(2)
        hits = sum(select_action_policy(net, np.zeros(6), 0.0, (), rng) == 0
                   for _ in range(10000))
        assert hits >= 9990

    def test_uniform_policy_frequencies(self):
        net = fixed_policy_net([0.0] * 11)
        rng = RNG(3)
        counts = np.zeros(11)
        n = 10000
        for _ in range(n):
            counts[select_action_policy(net, np.zeros(6), 0.0, (), rng)] += 1
        assert np.all(np.abs(counts / n - 1 / 11) <= 0.01)

    def test_full_epsilon_ignores_policy(self):
        net = fixed_policy_net([50.0, 0.0, 0.0, 0.0])
        rng = RNG(4)
        counts = np.zeros(4)
        n = 8000
        for _ in range(n):
            counts[select_action_policy(net, np.zeros(6), 1.0, (0,), rng)] += 1
        assert counts[0] == 0
        assert np.all(np.abs(counts[1:] / n - 1 / 3) <= 0.02)


class TestTdAdvantage:
    def test_worked_example(self):
        vnet = ValueTable([0.4, 0.5])
        delta = td_advantage(vnet, -0.03, np.array([1.0, 0.0]),
                             np.array([0.0, 1.0]), False, 0.99)
        assert abs(delta - 0.065) <= 1e-12

    def test_terminal_drops_bootstrap(self):
        vnet = ValueTable([0.8])
        delta = td_advantage(vnet, 1.0, np.array([1.0]), np.array([1.0]),
                             True, 0.99)
        assert abs(delta - 0.2) <= 1e-12

    def test_zero_value_function_gives_reward(self):
        vnet = ValueTable([0.0, 0.0])
        for r in (-1.0, 0.25, 2.0):
            delta = td_advantage(vnet, r, np.array([1.0, 0.0]),
                                 np.array([0.0, 1.0]), False, 0.9)
            assert delta == r

    def test_linear_in_reward_with_unit_slope(self):
        vnet = ValueTable([0.3, -0.2])
        b, b2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        base = td_advantage(vnet, 0.0, b, b2, False, 0.95)
        for r in np.linspace(-2, 2, 9):
            assert abs(td_advantage(vnet, r, b, b2, False, 0.95)
                       - (base + r)) <= 1e-12


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
                    features = np.eye(n_s)[s]
                    next_features = np.eye(n_s)[s2]
                    delta = td_advantage(vnet, R[s, a, s2], features,
                                         next_features, False, gamma)
                    expected_delta += P[s, a, s2] * delta
                assert abs(expected_delta - (Q[s, a] - V[s])) <= 1e-10


class TestPolicyGradientStep:
    def test_zero_delta_zero_l2_leaves_parameters(self):
        agent = make_agent(l2=0.0)
        before = [w.copy() for w in agent.policy.weights]
        agent.policy_gradient_step(np.ones(6), 2, 0.0)
        for w, b in zip(agent.policy.weights, before):
            assert np.array_equal(w, b)

    def test_positive_delta_increases_probability(self):
        agent = make_agent(l2=0.0)
        x = RNG(6).normal(size=6)
        action = 1
        probs = [agent.policy.forward(x)[action]]
        for _ in range(3):
            agent.policy_gradient_step(x, action, 1.0)
            probs.append(agent.policy.forward(x)[action])
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_negative_delta_decreases_probability(self):
        agent = make_agent(l2=0.0)
        x = RNG(7).normal(size=6)
        before = agent.policy.forward(x)[0]
        agent.policy_gradient_step(x, 0, -1.0)
        assert agent.policy.forward(x)[0] < before

    def test_update_is_ascent_direction(self):
        # inner product of the analytic gradient with the applied update > 0
        from dialab.nets import log_policy_gradient
        agent = make_agent(l2=0.0)
        x = RNG(8).normal(size=6)
        action = 0
        probs = agent.policy.forward(x)
        ascent = agent.policy.backward(x, log_policy_gradient(probs, action))
        before = [w.copy() for w in agent.policy.weights] + \
                 [b.copy() for b in agent.policy.biases]
        agent.policy_gradient_step(x, action, 1.0)
        after = [w for w in agent.policy.weights] + \
                [b for b in agent.policy.biases]
        flat_update = np.concatenate([(a - b).ravel()
                                      for a, b in zip(after, before)])
        flat_grad = np.concatenate([g.ravel() for gw, gb in ascent
                                    for g in (gw, gb)])
        assert float(flat_grad @ flat_update) > 0.0

    def test_non_finite_delta_rejected(self):
        agent = make_agent()
        with pytest.raises(NonFiniteGradientError):
            agent.policy_gradient_step(np.ones(6), 0, float("nan"))

    def test_policy_stays_strictly_positive(self):
        agent = make_agent()
        x = RNG(9).normal(size=6)
        for i in range(50):
            agent.policy_gradient_step(x, i % 4, 1.0)
        probs = agent.policy.forward(x)
        assert np.all(probs > 0.0)
        assert abs(probs.sum() - 1.0) <= 1e-9


class TestValueTrainStep:
    def test_terminal_only_pool_regresses_to_reward(self):
        agent = make_agent(minibatch=1, warmup=1)
        t = Transition(RNG(10).normal(size=6), 0, 0.6, np.zeros(6), True, True)
        agent.pool.add(t)
        rng = RNG(11)
        for _ in range(5000):
            agent.value_train_step(rng)
            if abs(agent.value.forward(t.features) - 0.6) <= 1e-3:
                break
        assert abs(agent.value.forward(t.features) - 0.6) <= 1e-3

    def test_loss_finite_over_smoke_run(self):
        agent = make_agent()
        rng = RNG(12)
        for i in range(2000):
            t = Transition(RNG(i).normal(size=6), i % 4,
                           float(RNG(i).normal()), RNG(i + 1).normal(size=6),
                           i % 6 == 0, False)
            agent.observe(t, rng)
            if len(agent.pool) >= 4:
                assert np.isfinite(agent.last_value_loss)


class TestCheckpoint:
    def test_roundtrip_restores_nets_counter_and_accumulators(self, tmp_path):
        agent = make_agent(target_sync=5)
        rng = RNG(13)
        for i in range(40):
            agent.observe(Transition(RNG(i).normal(size=6), i % 4,
                                     float(RNG(i).normal()),
                                     RNG(i + 1).normal(size=6), i % 6 == 0,
                                     False), rng)
        path = str(tmp_path / "a2c.npz")
        agent.save(path)
        twin = ActorCriticAgent(6, 4, agent.config, RNG(99))
        twin.load(path)
        for i in range(10):
            x = RNG(100 + i).normal(size=6)
            assert np.array_equal(agent.policy.forward(x),
                                  twin.policy.forward(x))
            assert agent.value.forward(x) == twin.value.forward(x)
            assert agent.value_target.forward(x) == \
                twin.value_target.forward(x)
        assert twin.value_steps == agent.value_steps > 0
        for opt, twin_opt in ((agent.policy_opt, twin.policy_opt),
                              (agent.value_opt, twin.value_opt)):
            for acc, twin_acc in ((opt.acc_grad, twin_opt.acc_grad),
                                  (opt.acc_update, twin_opt.acc_update)):
                for (w, b), (tw, tb) in zip(acc, twin_acc):
                    assert np.array_equal(w, tw) and np.array_equal(b, tb)


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

    def test_single_example_memorized(self):
        agent = make_agent(l2=0.0)
        x = RNG(15).normal(size=6)[None, :]
        a = np.array([2])
        for step in range(2000):
            agent.supervised_step(x, a)
            if agent.policy.forward(x[0])[2] >= 0.99:
                break
        assert agent.policy.forward(x[0])[2] >= 0.99

    def test_supervised_gradient_matches_finite_differences(self):
        from dialab.nets import cross_entropy_loss, finite_difference_grads
        agent = make_agent(l2=0.0, hidden=(5, 4))
        net = agent.policy
        feats = RNG(16).normal(size=(3, 6))
        actions = np.array([0, 2, 1])

        def objective():
            total = 0.0
            for i, a in enumerate(actions):
                total += cross_entropy_loss(net.forward(feats[i]), int(a))[0]
            return total / len(actions)

        probs = net.forward_batch(feats)
        grad_out = probs.copy()
        for i, a in enumerate(actions):
            grad_out[i, a] -= 1.0
        grad_out /= len(actions)
        analytic = net.backward_batch(feats, grad_out)
        numeric = finite_difference_grads(objective, net, h=1e-5)
        worst = 0.0
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            for x, y in ((aw, nw), (ab, nb)):
                denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-8)
                worst = max(worst, float(np.max(np.abs(x - y) / denom)))
        assert worst <= 1e-4


class TestPretrain:
    def test_empty_corpus_is_noop_with_warning(self, caplog):
        agent = make_agent()
        with caplog.at_level(logging.WARNING):
            stats = agent.pretrain([], [], ["f0"], ["f0"], RNG(17))
        assert stats["supervised_examples"] == 0
        assert any("empty" in rec.message for rec in caplog.records)

    def test_layout_mismatch_refused_with_diff(self):
        agent = make_agent()
        with pytest.raises(LayoutMismatchError, match="missing"):
            agent.pretrain([], [], ["f0", "f1"], ["f0", "weird"], RNG(18))

    def test_imitation_of_handcrafted_rule(self):
        # corpus from the deterministic controller; >= 95% held-out agreement
        from dialab import harness
        from dialab.corpus import BlunderSchedule, generate_corpus, to_supervised
        cfg = harness.ExperimentConfig(space="original", seed=5)
        _, _, env = harness.build_world(cfg)
        built = generate_corpus(env, 220, seed=5,
                                schedule=BlunderSchedule(((1.0, 0.0),)))
        pairs = to_supervised(built)
        agent = ActorCriticAgent(31, 11,
                                 AgentConfig(hidden=(48, 32), sup_epochs=12),
                                 RNG(19))
        from dialab.tracker import feature_names
        stats = agent.pretrain(pairs, [], feature_names("original"),
                               built.feature_names, RNG(20), batch_rl=False)
        assert stats["holdout_accuracy"] >= 0.95
