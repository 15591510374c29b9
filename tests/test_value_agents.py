import numpy as np
import pytest
from scipy import stats as scipy_stats

from dialab.environment import Transition
from dialab.nets import FeedForwardNet
from dialab.value_agents import (AgentConfig, PoolTooSmall, QAgent,
                                 ReplayPool, ddqn_target, dqn_target,
                                 select_action_egreedy)

RNG = np.random.default_rng


def transition(i, dim=4, terminal=False, reward=None, action=None):
    rng = RNG(i)
    return Transition(features=rng.normal(size=dim),
                      action=int(action if action is not None else i % 3),
                      reward=float(reward if reward is not None else rng.normal()),
                      next_features=rng.normal(size=dim),
                      terminal=terminal, success=False)


def fixed_output_net(values, n_in=4):
    """Zero-weight net whose biases pin the outputs to `values`."""
    net = FeedForwardNet.create(n_in, len(values), hidden=(3,), head="linear",
                                rng=RNG(0))
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][:] = values
    return net


class TestEgreedy:
    def test_epsilon_zero_is_pure_argmax(self):
        net = fixed_output_net([0.1, 0.9, 0.5])
        for i in range(50):
            assert select_action_egreedy(net, np.zeros(4), 0.0, (), RNG(i)) == 1

    def test_excluded_never_explored_but_still_exploitable(self):
        net = fixed_output_net([0.1, 0.9, 0.5])
        # argmax is action 1 even when 1 is exploration-excluded
        assert select_action_egreedy(net, np.zeros(4), 0.0, (1,), RNG(0)) == 1

    def test_full_exploration_respects_exclusions(self):
        net = fixed_output_net(list(range(11)))
        excluded = (1, 2, 3)
        rng = RNG(1)
        counts = np.zeros(11)
        n = 10000
        for _ in range(n):
            a = select_action_egreedy(net, np.zeros(4), 1.0, excluded, rng)
            counts[a] += 1
        assert counts[1] == counts[2] == counts[3] == 0
        expected = n / 8
        assert np.all(np.abs(counts[counts > 0] - expected) <= 0.02 * n)

    def test_full_exploration_uniform_over_11(self):
        net = fixed_output_net(list(range(11)))
        rng = RNG(2)
        counts = np.zeros(11)
        n = 10000
        for _ in range(n):
            counts[select_action_egreedy(net, np.zeros(4), 1.0, (), rng)] += 1
        assert np.all(np.abs(counts / n - 1 / 11) <= 0.01)


class TestReplayPool:
    def test_capacity_two_fifo(self):
        pool = ReplayPool(capacity=2, n_features=4)
        t1, t2, t3 = transition(1), transition(2), transition(3)
        pool.add(t1)
        pool.add(t2)
        pool.add(t3)
        rewards = {round(t.reward, 9) for t in pool.contents()}
        assert rewards == {round(t2.reward, 9), round(t3.reward, 9)}

    def test_size_never_exceeds_capacity(self):
        pool = ReplayPool(capacity=64, n_features=4)
        for i in range(100000):
            pool.add(transition(i % 500))
            if i % 9973 == 0:
                assert len(pool) <= 64
        assert len(pool) == 64

    def test_sampling_uniform_chi_square(self):
        # 10^5 draws from a 100-item pool; chi-square at significance 0.01
        pool = ReplayPool(capacity=100, n_features=4)
        for i in range(100):
            pool.add(transition(i, reward=i))
        rng = RNG(3)
        counts = np.zeros(100)
        draws = 0
        while draws < 100000:
            for idx in pool.sample_indices(10, rng):
                counts[idx] += 1
                draws += 1
        statistic = float(((counts - draws / 100) ** 2 / (draws / 100)).sum())
        critical = scipy_stats.chi2.ppf(0.99, df=99)
        assert statistic < critical, (statistic, critical)

    def test_sampling_small_pool_signals(self):
        pool = ReplayPool(capacity=10, n_features=4)
        pool.add(transition(0))
        with pytest.raises(PoolTooSmall):
            pool.sample_indices(5, RNG(0))

    def test_save_load_roundtrip(self, tmp_path):
        pool = ReplayPool(capacity=8, n_features=4)
        for i in range(12):
            pool.add(transition(i))
        path = str(tmp_path / "pool.npz")
        pool.save(path)
        restored = ReplayPool(capacity=8, n_features=4)
        restored.load(path)
        assert len(restored) == len(pool)
        a = sorted(round(t.reward, 9) for t in pool.contents())
        b = sorted(round(t.reward, 9) for t in restored.contents())
        assert a == b


class TestTargets:
    def test_terminal_target_is_reward(self):
        tnet = fixed_output_net([5.0, 5.0])
        y = dqn_target(np.array([1.0]), np.zeros((1, 4)),
                       np.array([True]), tnet, 0.99)
        assert y[0] == 1.0

    def test_gamma_zero_target_is_reward(self):
        tnet = fixed_output_net([5.0, 5.0])
        y = dqn_target(np.array([0.25]), np.zeros((1, 4)),
                       np.array([False]), tnet, 0.0)
        assert y[0] == 0.25

    def test_hand_example_0_465(self):
        tnet = fixed_output_net([0.2, 0.5])
        y = dqn_target(np.array([-0.03]), np.zeros((1, 4)),
                       np.array([False]), tnet, 0.99)
        assert abs(y[0] - 0.465) <= 1e-12

    def test_ddqn_equals_dqn_when_nets_equal(self):
        net = FeedForwardNet.create(4, 3, hidden=(6,), head="linear", rng=RNG(4))
        feats = RNG(5).normal(size=(16, 4))
        r = RNG(6).normal(size=16)
        term = RNG(7).random(16) < 0.3
        a = dqn_target(r, feats, term, net, 0.9)
        b = ddqn_target(r, feats, term, net, net, 0.9)
        assert np.allclose(a, b)

    def test_ddqn_never_exceeds_dqn(self):
        for seed in range(200):
            online = FeedForwardNet.create(4, 3, hidden=(6,), head="linear",
                                           rng=RNG(seed))
            target = FeedForwardNet.create(4, 3, hidden=(6,), head="linear",
                                           rng=RNG(seed + 1000))
            feats = RNG(seed + 2000).normal(size=(8, 4))
            r = RNG(seed + 3000).normal(size=8)
            term = np.zeros(8, dtype=bool)
            assert np.all(ddqn_target(r, feats, term, online, target, 0.97)
                          <= dqn_target(r, feats, term, target, 0.97) + 1e-12)

    def test_ddqn_constructed_example(self):
        online = fixed_output_net([1.0, 0.0])   # argmax -> action 0
        target = fixed_output_net([0.9, 0.1])
        y = ddqn_target(np.array([0.0]), np.zeros((1, 4)), np.array([False]),
                        online, target, 1.0)
        assert abs(y[0] - 0.9) <= 1e-12


class TestTrainStep:
    def make_agent(self, **kw):
        cfg = AgentConfig(hidden=(8, 6), minibatch=kw.pop("minibatch", 4),
                          warmup=kw.pop("warmup", 4), **kw)
        return QAgent(n_features=4, n_actions=3, config=cfg, rng=RNG(8))

    def test_target_agrees_after_sync(self):
        agent = self.make_agent(target_sync=5)
        rng = RNG(9)
        for i in range(5):
            agent.observe(transition(i), rng)
        assert agent.train_steps == 2  # warmup=4: steps at sizes 4 and 5
        for i in range(5, 8):
            agent.observe(transition(i), rng)
        assert agent.train_steps == 5
        for i in range(100):
            x = RNG(500 + i).normal(size=4)
            assert np.array_equal(agent.qnet.forward(x), agent.target.forward(x))

    def test_target_frozen_between_syncs(self):
        agent = self.make_agent(target_sync=1000)
        before = [w.copy() for w in agent.target.weights]
        rng = RNG(10)
        for i in range(50):
            agent.observe(transition(i), rng)
        for w, b in zip(agent.target.weights, before):
            assert np.array_equal(w, b)

    def test_degenerate_regression_converges_to_reward(self):
        # single transition, gamma via terminal: Q(b, a) -> r
        agent = self.make_agent(minibatch=1, warmup=1, target_sync=50)
        t = transition(3, terminal=True, reward=0.7, action=1)
        agent.pool.add(t)
        rng = RNG(11)
        for step in range(5000):
            agent.train_step(rng)
            if abs(agent.qnet.forward(t.features)[1] - 0.7) <= 1e-3:
                break
        assert abs(agent.qnet.forward(t.features)[1] - 0.7) <= 1e-3

    def test_loss_finite_over_smoke_run(self):
        agent = self.make_agent()
        rng = RNG(12)
        for i in range(2000):
            agent.observe(transition(i, terminal=(i % 7 == 0)), rng)
            assert np.isfinite(agent.last_loss) or i < 3

    def test_checkpoint_roundtrip(self, tmp_path):
        agent = self.make_agent()
        rng = RNG(13)
        for i in range(40):
            agent.observe(transition(i), rng)
        path = str(tmp_path / "agent.npz")
        agent.save(path)
        twin = self.make_agent()
        twin.load(path)
        x = RNG(14).normal(size=4)
        assert np.array_equal(agent.qnet.forward(x), twin.qnet.forward(x))
        assert np.array_equal(agent.target.forward(x), twin.target.forward(x))
        assert twin.train_steps == agent.train_steps
