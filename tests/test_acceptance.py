"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-6 are exact unit-level oracles, and they are the only tests
here. The multi-seed trend criteria over desk-scale training runs are
not written yet. They need no grid code of their own: each run is
``harness.train_run(cfg, resume=True)``, which trains a run once and
returns a finished run's curve without training, and each ordering is
``harness.holds_order`` over the dialogues-to-threshold that
``harness.compare_runs`` gives with its one threshold rule.
"""

import time
from dataclasses import replace

import numpy as np
from scipy import stats as scipy_stats

from dialab import harness
from dialab.corpus import HandcraftedPolicy, RandomPolicy
from dialab.environment import Transition, rollout
from dialab.gpsarsa import GPConfig, SparseGP
from dialab.nets import FeedForwardNet, log_policy_gradient, softmax
from dialab.seeding import rng_stream
from dialab.value_agents import ReplayPool, ddqn_target, dqn_target
from reference import (check_reward_decomposition, cross_entropy_loss,
                       finite_difference_grads, l2_penalty, mse_loss)

RNG = np.random.default_rng


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"\nACCEPT {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. summary mapping against the brute-force grid oracle


def test_criterion_1_summary_mapping():
    from test_tracker import random_belief, summarize_oracle
    from dialab.tracker import summarize
    rng = RNG(101)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(10000):
        b = random_belief(rng)
        if not np.array_equal(summarize(b), summarize_oracle(b)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report("1 summary-mapping",
           mismatches == 0 and elapsed < 5.0,
           f"mismatches={mismatches}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. gradient suite within 1e-4 of central finite differences


def _max_rel(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    worst = 0.0
    # mse on a linear output
    net = FeedForwardNet.create(5, 3, (6, 5), RNG(1))
    x, target = RNG(2).normal(size=5), RNG(3).normal(size=3)
    _, grad_out = mse_loss(net.forward(x), target)
    worst = max(worst, _max_rel(
        net.backward_batch(grad_out[None], net.forward_train(x[None])[1]),
        finite_difference_grads(lambda: mse_loss(net.forward(x), target)[0],
                                net)))
    # cross-entropy on the softmax of the output
    net2 = FeedForwardNet.create(5, 4, (6, 5), RNG(4))
    acts2 = net2.forward_train(x[None])[1]
    _, ce_grad, _ = cross_entropy_loss(softmax(net2.forward(x)), 2)
    worst = max(worst, _max_rel(
        net2.backward_batch(ce_grad[None], acts2),
        finite_difference_grads(
            lambda: cross_entropy_loss(softmax(net2.forward(x)), 2)[0],
            net2)))
    # log-policy gradient
    worst = max(worst, _max_rel(
        net2.backward_batch(
            log_policy_gradient(softmax(net2.forward(x)), 1)[None], acts2),
        finite_difference_grads(
            lambda: float(np.log(softmax(net2.forward(x))[1])), net2)))
    # value loss on a one-output net
    net3 = FeedForwardNet.create(5, 1, (6, 5), RNG(5))
    _, vg = mse_loss(net3.forward(x), 0.4)
    worst = max(worst, _max_rel(
        net3.backward_batch(vg[None], net3.forward_train(x[None])[1]),
        finite_difference_grads(lambda: mse_loss(net3.forward(x), 0.4)[0],
                                net3)))
    # l2 penalty
    _, l2g = l2_penalty(net, 0.37)
    worst = max(worst, _max_rel(
        l2g, finite_difference_grads(lambda: l2_penalty(net, 0.37)[0], net)))
    elapsed = time.perf_counter() - start
    report("2 gradient-suite", worst <= 1e-4 and elapsed < 30.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. DDQN targets never exceed DQN targets


def test_criterion_3_ddqn_dominance():
    violations = 0
    for draw in range(1000):
        rng = RNG(3000 + draw)
        online = FeedForwardNet.create(6, 4, (8,), rng)
        target = FeedForwardNet.create(6, 4, (8,), rng)
        feats = rng.normal(size=(8, 6))
        rewards = rng.normal(size=8)
        terminal = rng.random(8) < 0.2
        dd = ddqn_target(rewards, feats, terminal, online, target, 0.99)
        dq = dqn_target(rewards, feats, terminal, target, 0.99)
        violations += int(np.any(dd > dq + 1e-12))
    report("3 ddqn-dominance", violations == 0, f"violations={violations}/1000")


# ---------------------------------------------------------------------------
# 4. GP posterior oracles


def test_criterion_4_gp_oracles():
    from test_gpsarsa import kernel, q_mean, random_summary
    spec = GPConfig(length_scale=3.0, signal_var=1.0, noise_var=0.1)
    # one-point closed form
    gp = SparseGP(spec, 60, n_actions=3)
    b = random_summary(RNG(40))
    gp.sarsa_update(b, 1, 0.85, b, None, True, 0.99)
    closed = 0.85 * spec.signal_var / (spec.signal_var + spec.noise_var)
    one_point_err = abs(q_mean(gp, b, 1) - closed)
    # twenty points vs dense regression
    rng = RNG(41)
    gp2 = SparseGP(replace(spec, nu=1e-12), 60, n_actions=2, jitter=1e-12)
    pts, rewards = [], []
    while len(pts) < 20:
        bb, aa = random_summary(rng), int(rng.integers(2))
        if any(np.array_equal(bb, pb) and aa == pa for pb, pa in pts):
            continue
        r = float(rng.normal())
        gp2.sarsa_update(bb, aa, r, bb, None, True, 0.99)
        pts.append((bb, aa))
        rewards.append(r)
    gram = np.array([[kernel(spec, b1, a1, b2, a2) for b2, a2 in pts]
                     for b1, a1 in pts])
    alpha = np.linalg.solve(gram + spec.noise_var * np.eye(20),
                            np.array(rewards))
    dense_err = 0.0
    for probe_seed in range(20):
        bb, aa = random_summary(RNG(500 + probe_seed)), probe_seed % 2
        kv = np.array([kernel(spec, bb, aa, b2, a2) for b2, a2 in pts])
        dense_err = max(dense_err,
                        abs(q_mean(gp2, bb, aa) - float(kv @ alpha)))
    report("4 gp-oracles", one_point_err <= 1e-6 and dense_err <= 1e-5,
           f"1-point err {one_point_err:.1e}, dense err {dense_err:.1e}")


# ---------------------------------------------------------------------------
# 5. reward accounting over a 10,000-episode fuzz


def test_criterion_5_reward_accounting():
    cfg = harness.ExperimentConfig(space="original", seed=50)
    _, _, env = harness.build_world(cfg)
    rng = RNG(51)
    policies = [RandomPolicy(env.n_actions, rng),
                HandcraftedPolicy("original", p_blunder=0.3, rng=rng),
                HandcraftedPolicy("original")]
    bad = 0
    for i in range(10000):
        turns = tuple(rollout(env, policies[i % 3], rng_stream(52, "train",
                                                               i)))
        if not check_reward_decomposition(turns, env.config):
            bad += 1
        if not 1 <= len(turns) <= 30:
            bad += 1
    report("5 reward-accounting", bad == 0, f"violations={bad}/10000")


# ---------------------------------------------------------------------------
# 6. replay uniformity and FIFO eviction


def test_criterion_6_replay():
    pool = ReplayPool(capacity=2, n_features=2)
    mk = lambda r: Transition(np.zeros(2), 0, r, np.zeros(2), False, False)
    pool.add(mk(1.0))
    pool.add(mk(2.0))
    pool.add(mk(3.0))
    kept = sorted(pool.state().arrays["rewards"].tolist())
    fifo_ok = kept == [2.0, 3.0]

    pool = ReplayPool(capacity=100, n_features=2)
    for i in range(100):
        pool.add(mk(float(i)))
    rng = RNG(60)
    counts = np.zeros(100)
    draws = 0
    while draws < 100000:
        for idx in pool.sample_indices(20, rng):
            counts[idx] += 1
            draws += 1
    statistic = float(((counts - draws / 100) ** 2 / (draws / 100)).sum())
    critical = float(scipy_stats.chi2.ppf(0.99, df=99))
    report("6 replay", fifo_ok and statistic < critical,
           f"fifo={kept}, chi2 {statistic:.1f} < {critical:.1f}")
