import os
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from dialab import nets
from dialab.corpus import fill_pool
from dialab.environment import Transition
from dialab.nets import FeedForwardNet, copy_params
from dialab.harness import behaviour_action
from dialab.value_agents import (AgentConfig, PoolTooSmall, QAgent,
                                 ReplayPool, ddqn_target, dqn_target)
from reference import TwoArrayPool, assert_same_rows, newest, state_bytes

RNG = np.random.default_rng


def transition(i, dim=4, terminal=False, reward=None, action=None):
    """Turn i of one long dialogue: its next state is turn i+1's state, so
    ``transition(i + 1)`` may follow it in a pool."""
    rng = RNG(i)
    return Transition(features=rng.normal(size=dim),
                      action=int(action if action is not None else i % 3),
                      reward=float(reward if reward is not None else rng.normal()),
                      next_features=RNG(i + 1).normal(size=dim),
                      terminal=terminal, success=False)


def fixed_output_net(values, n_in=4):
    """Zero-weight net whose biases pin the outputs to `values`."""
    net = FeedForwardNet.create(n_in, len(values), (3,), RNG(0))
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][:] = values
    return net


def fixed_output_agent(values):
    """A QAgent whose Q-network is ``fixed_output_net(values)``."""
    agent = QAgent(4, len(values), AgentConfig(hidden=(3,)), RNG(0),
                   gamma=0.99)
    agent.qnet = fixed_output_net(values)
    return agent


def egreedy(agent, epsilon, excluded, rng):
    explored = tuple(a for a in range(agent.qnet.n_actions)
                     if a not in excluded)
    return behaviour_action(agent, np.zeros(4), epsilon, explored, rng)


class TestEgreedy:
    def test_epsilon_zero_is_pure_argmax(self):
        agent = fixed_output_agent([0.1, 0.9, 0.5])
        for i in range(50):
            assert egreedy(agent, 0.0, (), RNG(i)) == 1

    def test_excluded_never_explored_but_still_exploitable(self):
        agent = fixed_output_agent([0.1, 0.9, 0.5])
        # argmax is action 1 even when 1 is exploration-excluded
        assert egreedy(agent, 0.0, (1,), RNG(0)) == 1

    def test_full_exploration_respects_exclusions(self):
        agent = fixed_output_agent(list(range(11)))
        excluded = (1, 2, 3)
        rng = RNG(1)
        counts = np.zeros(11)
        n = 10000
        for _ in range(n):
            a = egreedy(agent, 1.0, excluded, rng)
            counts[a] += 1
        assert counts[1] == counts[2] == counts[3] == 0
        expected = n / 8
        assert np.all(np.abs(counts[counts > 0] - expected) <= 0.02 * n)

    def test_full_exploration_uniform_over_11(self):
        agent = fixed_output_agent(list(range(11)))
        rng = RNG(2)
        counts = np.zeros(11)
        n = 10000
        for _ in range(n):
            counts[egreedy(agent, 1.0, (), rng)] += 1
        assert np.all(np.abs(counts / n - 1 / 11) <= 0.01)


class TestReplayPool:
    def test_capacity_two_fifo(self):
        pool = ReplayPool(capacity=2, n_features=4)
        t1, t2, t3 = transition(1), transition(2), transition(3)
        pool.add(t1)
        pool.add(t2)
        pool.add(t3)
        rewards = {round(r, 9) for r in pool.state().arrays["rewards"]}
        assert rewards == {round(t2.reward, 9), round(t3.reward, 9)}

    @staticmethod
    def dialogues(lengths, n=4, seed=0):
        """Dialogues of ``lengths`` turns, rated by their index, and the
        transitions their turns are, dialogue by dialogue."""
        rng, logs, ts = RNG(seed), [], []
        for j, turns in enumerate(lengths):
            feats = rng.normal(size=(turns + 1, n))
            ts.append(tuple(Transition(feats[k], k % 3, float(rng.normal()),
                                       feats[k + 1], k == turns - 1,
                                       k == turns - 1 and j % 2 == 0)
                            for k in range(turns)))
            logs.append(SimpleNamespace(rating=j, turns=ts[-1]))
        return logs, ts

    @pytest.mark.parametrize("lengths", [(3,), (3, 2), (5,), (2, 2, 2)],
                             ids=["one", "two-fill", "one-fills", "third-out"])
    def test_fill_pool_equals_one_add_per_turn(self, lengths):
        # the per-turn add is the reference, for the dialogues that fit in
        # a pool of 5 whole and in order; every turn is rated
        logs, ts = self.dialogues(lengths)
        reference, pool = ReplayPool(5, 4), ReplayPool(5, 4)
        stored = 0
        for turns in ts:
            stored += len(turns)
            if stored > reference.capacity:
                break
            for t in turns:
                reference.add(t)
        rating = fill_pool(logs, pool)
        assert rating.tolist() == [j for j, n in enumerate(lengths)
                                   for _ in range(n)]
        assert (len(pool), pool._cursor) == (len(reference),
                                             reference._cursor)
        for name in ReplayPool.FIELDS:
            assert (pool.rows(name).tobytes()
                    == reference.rows(name).tobytes()), name
        assert (pool.batch(np.arange(len(pool)))[3].tobytes()
                == reference.batch(np.arange(len(reference)))[3].tobytes())

    def test_size_never_exceeds_capacity(self):
        pool = ReplayPool(capacity=64, n_features=4)
        for i in range(100000):
            pool.add(transition(i))
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
        a = sorted(round(r, 9) for r in pool.state().arrays["rewards"])
        b = sorted(round(r, 9) for r in restored.state().arrays["rewards"])
        assert a == b


# feature rows whose bits collide often: -0.0 against 0.0, and NaNs with
# different payloads, which == would mistake for equal or unequal rows
_BITS = (0.0, -0.0, 1.0, float("nan"),
         np.frombuffer(np.uint64(0xFFF8000000000001).tobytes())[0])
STATES = [np.array([a, b]) for a in _BITS for b in _BITS]
# the finite ones, which a network maps to finite values
FINITE = [s for s in STATES if np.isfinite(s).all()]


def op_streams(n_states):
    """Streams of pool inputs over ``n_states`` states: ("turn", next
    state, terminal) continues from the current state; ("jump", state)
    starts the next turn from an unrelated state, and applies only after a
    terminal row."""
    state = st.integers(0, n_states - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("turn"), state, st.booleans()),
        st.tuples(st.just("jump"), state)), max_size=30)


_OPS = op_streams(len(STATES))


def feed(pools, ops, states=STATES):
    """Apply ``ops`` to every pool in ``pools``, yielding after each. The
    stream goes on from the newest row of the last pool, a
    ``reference.TwoArrayPool``, or from ``states[0]``."""
    oracle = pools[-1]
    state, ended = states[0], True
    if len(oracle):
        state = oracle._next_features[newest(oracle)]
        ended = oracle._terminal[newest(oracle)]
    for k, op in enumerate(ops):
        if op[0] == "turn":
            t = Transition(state, k % 3, float(k), states[op[1]], op[2],
                           False)
            for pool in pools:
                pool.add(t)
            state, ended = states[op[1]], op[2]
        elif ended:
            state = states[op[1]]
        yield


def pool_targets(pool, idx, nets_):
    """The DQN, DDQN and critic targets of ``pool.batch(idx)``."""
    q_online, q_target, value_target = nets_
    _, _, rewards, nxt, term = pool.batch(idx)
    return (dqn_target(rewards, nxt, term, q_target, 0.99),
            ddqn_target(rewards, nxt, term, q_online, q_target, 0.99),
            dqn_target(rewards, nxt, term, value_target, 0.99))


class TestOneArrayPool:
    """The pool that stores each state once against the pool that stored
    every next state too (``reference.TwoArrayPool``)."""

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.sampled_from([1, 2, 5]), ops=_OPS)
    def test_every_batch_and_row_is_the_two_array_pools(self, capacity, ops):
        pool, oracle = ReplayPool(capacity, 2), TwoArrayPool(capacity, 2)
        for _ in feed([pool, oracle], ops):
            assert_same_rows(pool, oracle)

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.sampled_from([1, 2, 5]), ops=op_streams(len(FINITE)))
    def test_targets_are_the_two_array_pools(self, capacity, ops):
        # a terminal row's next state differs from the two-array pool's,
        # but every target drops it, so DQN, DDQN and the critic learn
        # from the same values bit for bit
        nets_ = [FeedForwardNet.create(2, n, (5,), RNG(seed))
                 for seed, n in ((1, 3), (2, 3), (3, 1))]
        pool, oracle = ReplayPool(capacity, 2), TwoArrayPool(capacity, 2)
        for _ in feed([pool, oracle], ops, FINITE):
            idx = np.arange(len(oracle))[::-1]
            for mine, theirs in zip(pool_targets(pool, idx, nets_),
                                    pool_targets(oracle, idx, nets_),
                                    strict=True):
                assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("capacity", [1, 2, 5])
    def test_final_belief_equal_to_the_next_state(self, capacity):
        # a terminal turn whose final belief is the next dialogue's first
        # state, and one whose final belief differs only in the sign of a
        # zero or the payload of a NaN
        ops = [("turn", 6, False), ("turn", 7, True), ("turn", 3, False),
               ("turn", 8, True), ("jump", 9), ("turn", 19, True),
               ("jump", 24), ("turn", 5, False), ("turn", 0, True),
               ("jump", 5)] * 2 + [("turn", 1, False)]
        pool, oracle = ReplayPool(capacity, 2), TwoArrayPool(capacity, 2)
        for _ in feed([pool, oracle], ops):
            assert_same_rows(pool, oracle)

    def test_chained_transitions_wrap_around(self):
        pool, oracle = ReplayPool(5, 4), TwoArrayPool(5, 4)
        for i in range(13):
            for p in (pool, oracle):
                p.add(transition(i, terminal=i % 4 == 0))
            assert_same_rows(pool, oracle)

    def test_batch_gathers_sampled_slots(self):
        # slots drawn in any order and across the wrap
        pool, oracle = ReplayPool(7, 2), TwoArrayPool(7, 2)
        ops = [("turn", k % 25, k % 4 == 3) for k in range(3, 20)]
        for _ in feed([pool, oracle], ops):
            pass
        assert_same_rows(pool, oracle, np.array([6, 0, 3, 5, 1]))

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.sampled_from([1, 2, 5]), ops=_OPS, more=_OPS)
    def test_snapshot_restores_the_same_pool(self, capacity, ops, more):
        # the snapshot holds the rows and the newest row's next state, and
        # the restored pool goes on as the two-array pool does
        pool, oracle = ReplayPool(capacity, 2), TwoArrayPool(capacity, 2)
        for _ in feed([pool, oracle], ops):
            pass
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pool.npz")
            pool.save(path)
            restored = ReplayPool(capacity, 2)
            restored.load(path)
        assert_same_rows(restored, oracle)
        for _ in feed([restored, oracle], more):
            assert_same_rows(restored, oracle)

    @pytest.mark.parametrize("restored", [False, True],
                             ids=["live", "restored"])
    @pytest.mark.parametrize("jump", [
        np.array([1.0, 1.0]), STATES[5], STATES[23]],
        ids=["other", "minus-zero", "other-nan"])
    def test_jump_after_a_non_terminal_row_is_refused_unchanged(
            self, tmp_path, restored, jump):
        # the newest row's next state is [0.0, 0.0], or [nan, nan] with
        # one payload; [-0.0, 0.0] and [nan, nan] with another payload are
        # equal in value or NaN, but not bit for bit, so both are refused
        nxt = STATES[18] if jump is STATES[23] else STATES[0]
        pool = ReplayPool(3, 2)
        for t in (transition(0, dim=2),
                  Transition(RNG(1).normal(size=2), 1, 0.5, nxt, False,
                             False)):
            pool.add(t)
        if restored:
            path = str(tmp_path / "pool.npz")
            pool.save(path)
            pool = ReplayPool(3, 2)
            pool.load(path)
        before = (len(pool), pool._cursor, state_bytes(pool.state()))
        with pytest.raises(ValueError, match="not its next state"):
            pool.add(Transition(jump, 0, 0.0, nxt, True, False))
        assert (len(pool), pool._cursor, state_bytes(pool.state())) == before
        # the next state itself, bit for bit, is taken
        pool.add(Transition(nxt.copy(), 2, 1.0, jump, True, False))
        assert pool.batch(np.array([1]))[3].tobytes() == nxt.tobytes()

    @pytest.mark.parametrize("filled", [False, True],
                             ids=["add", "fill_pool"])
    @pytest.mark.parametrize("chained", [False, True],
                             ids=["dialogues", "one-chain"])
    def test_holds_no_state_per_dialogue(self, chained, filled):
        # 2000 rows of dialogues of 10 turns, each ending in a final belief
        # of its own or starting from the last one's, added turn by turn or
        # streamed through fill_pool: the pool keeps only its rows and the
        # newest row's next state, which it allocated before the first row
        capacity, n, turns = 2000, 31, 10
        pool, rng = ReplayPool(capacity, n), RNG(0)

        def stream():
            state = rng.normal(size=n)
            for _ in range(capacity // turns):
                states = rng.normal(size=(turns + 1, n))
                if chained:
                    states[0] = state
                yield states
                state = states[-1].copy()
                del states

        tracemalloc.start()
        try:
            if filled:
                fill_pool((SimpleNamespace(rating=0, turns=tuple(
                    Transition(states[k], 0, 0.0, states[k + 1],
                               k == turns - 1, False) for k in range(turns)))
                    for states in stream()), pool)
            else:
                for states in stream():
                    for k in range(turns):
                        pool.add(Transition(states[k], 0, 0.0, states[k + 1],
                                            k == turns - 1, False))
                del states
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pool) == capacity
        assert held < n * 8 + 4096, held

    def test_allocates_one_feature_array(self):
        capacity, n = 20000, 31
        column = capacity * n * 8
        tracemalloc.start()
        try:
            pool = ReplayPool(capacity, n)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pool) == 0
        # one capacity x n float array, and 17 bytes a slot for the action,
        # reward and terminal flag
        assert column <= allocated < column + 20 * capacity + 65536


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
        net = FeedForwardNet.create(4, 3, (6,), RNG(4))
        feats = RNG(5).normal(size=(16, 4))
        r = RNG(6).normal(size=16)
        term = RNG(7).random(16) < 0.3
        a = dqn_target(r, feats, term, net, 0.9)
        b = ddqn_target(r, feats, term, net, net, 0.9)
        assert np.allclose(a, b)

    def test_ddqn_never_exceeds_dqn(self):
        for seed in range(200):
            online = FeedForwardNet.create(4, 3, (6,), RNG(seed))
            target = FeedForwardNet.create(4, 3, (6,), RNG(seed + 1000))
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


def inline_train_step(agent, rng):
    """QAgent.train_step as written before it shared regression_step with
    the actor-critic's critic: the reference the shared step must match."""
    cfg = agent.config
    idx = agent.pool.sample_indices(cfg.minibatch, rng)
    feats, actions, rewards, nxt, term = agent.pool.batch(idx)
    if agent.double_dqn:
        targets = ddqn_target(rewards, nxt, term, agent.qnet, agent.target,
                              agent.gamma)
    else:
        targets = dqn_target(rewards, nxt, term, agent.target, agent.gamma)
    q, acts = agent.qnet.forward_train(feats)
    rows = np.arange(len(idx))
    diff = q[rows, actions] - targets
    loss = float(np.mean(diff ** 2))
    grad_out = np.zeros_like(q)
    grad_out[rows, actions] = 2.0 * diff / len(idx)
    grads = agent.qnet.backward_batch(grad_out, acts)
    nets.adadelta_step(agent.opt, agent.qnet, grads)
    agent.train_steps += 1
    if agent.train_steps % cfg.target_sync == 0:
        copy_params(agent.qnet, agent.target)
    return loss


class TestTrainStep:
    def make_agent(self, **kw):
        cfg = AgentConfig(hidden=(8, 6), minibatch=kw.pop("minibatch", 4),
                          warmup=kw.pop("warmup", 4), **kw)
        return QAgent(n_features=4, n_actions=3, config=cfg, rng=RNG(8),
                      gamma=0.99)

    def test_target_agrees_after_sync(self):
        agent = self.make_agent(target_sync=5)
        rng = RNG(9)
        for i in range(5):
            agent.observe(transition(i), rng, 0.0)
        assert agent.train_steps == 2  # warmup=4: steps at sizes 4 and 5
        for i in range(5, 8):
            agent.observe(transition(i), rng, 0.0)
        assert agent.train_steps == 5
        for i in range(100):
            x = RNG(500 + i).normal(size=4)
            assert np.array_equal(agent.qnet.forward(x), agent.target.forward(x))

    def test_target_frozen_between_syncs(self):
        agent = self.make_agent(target_sync=1000)
        before = [w.copy() for w in agent.target.weights]
        rng = RNG(10)
        for i in range(50):
            agent.observe(transition(i), rng, 0.0)
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
            agent.observe(transition(i, terminal=(i % 7 == 0)), rng,
                          0.0)
            assert np.isfinite(agent.last_loss) or i < 3

    def test_checkpoint_roundtrip(self, tmp_path):
        agent = self.make_agent()
        rng = RNG(13)
        for i in range(40):
            agent.observe(transition(i), rng, 0.0)
        path = str(tmp_path / "agent.npz")
        agent.save(path)
        twin = self.make_agent()
        twin.load(path)
        x = RNG(14).normal(size=4)
        assert np.array_equal(agent.qnet.forward(x), twin.qnet.forward(x))
        assert np.array_equal(agent.target.forward(x), twin.target.forward(x))
        assert twin.train_steps == agent.train_steps

    @pytest.mark.parametrize("double_dqn", [False, True], ids=["dqn", "ddqn"])
    def test_steps_match_the_inline_reference(self, double_dqn):
        # parameters, target copy, Adadelta accumulators and losses byte for
        # byte over steps that cross three target syncs
        runs = []
        for step in (QAgent.train_step, inline_train_step):
            agent = self.make_agent(target_sync=3)
            agent.double_dqn = double_dqn
            for i in range(12):
                agent.pool.add(transition(i, terminal=i % 5 == 0))
            rng = RNG(20)
            losses = [step(agent, rng) for _ in range(10)]
            runs.append((losses, state_bytes(agent.state())))
        assert runs[0] == runs[1]
