import re
from dataclasses import replace

import numpy as np
import pytest

from dialab.environment import Transition
from dialab.gpsarsa import FOLD, GPConfig, GPSarsaAgent, SparseGP
from dialab.harness import behaviour_action

RNG = np.random.default_rng
SPEC = GPConfig(length_scale=3.0, signal_var=1.0, noise_var=0.1)


def random_summary(rng):
    """Random 60-bit summary-style vector (12 one-hot blocks of 5)."""
    vec = np.zeros(60)
    for block in range(12):
        vec[block * 5 + int(rng.integers(5))] = 1.0
    return vec


def kernel(spec: GPConfig, b1: np.ndarray, a1: int, b2: np.ndarray,
           a2: int) -> float:
    """sigma_k^2 * exp(-|b1-b2|^2 / (2 l^2)) * [a1 == a2]."""
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if b1.shape != b2.shape:
        raise ValueError(f"feature layouts differ: {b1.shape} vs {b2.shape}")
    if a1 != a2:
        return 0.0
    d2 = float(np.sum((b1 - b2) ** 2))
    return spec.signal_var * np.exp(-d2 / (2.0 * spec.length_scale ** 2))


def k_vec(gp, b, a):
    """Kernel row of (b, a) over ``gp``'s dictionary."""
    return gp._similarity(np.asarray(b, dtype=float)) * (gp.points_a == a)


def q_mean(gp, b, a):
    """Posterior mean of ``gp`` at (b, a); zero before any observation."""
    return float(k_vec(gp, b, a) @ gp.coefficients())


class TestKernel:
    def test_identical_points(self):
        b = random_summary(RNG(0))
        assert kernel(SPEC, b, 2, b, 2) == SPEC.signal_var

    def test_different_actions_give_zero(self):
        b = random_summary(RNG(1))
        assert kernel(SPEC, b, 0, b, 1) == 0.0

    def test_distance_two_ell_squared(self):
        ell = SPEC.length_scale
        b1 = np.zeros(60)
        b2 = np.zeros(60)
        b2[0] = np.sqrt(2.0) * ell  # |b1-b2|^2 = 2 ell^2
        value = kernel(SPEC, b1, 3, b2, 3)
        assert abs(value - SPEC.signal_var * np.exp(-1.0)) <= 1e-12

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernel(SPEC, np.zeros(60), 0, np.zeros(31), 0)

    def test_gram_positive_semidefinite_spot_check(self):
        for seed in range(5):
            rng = RNG(seed)
            pts = [(random_summary(rng), int(rng.integers(3)))
                   for _ in range(20)]
            gram = np.array([[kernel(SPEC, b1, a1, b2, a2)
                              for b2, a2 in pts] for b1, a1 in pts])
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() >= -1e-9

    def test_hyperparameters_validated(self):
        with pytest.raises(ValueError, match=re.escape(
                "length_scale=0.0 must be in (0, inf)")):
            GPConfig(length_scale=0.0)
        with pytest.raises(ValueError, match=re.escape(
                "noise_var=nan must be in (0, inf)")):
            GPConfig(noise_var=float("nan"))


class TestAdmission:
    def test_empty_dictionary_always_admits(self):
        gp = SparseGP(SPEC, 60, n_actions=3)
        admit, residual, _ = gp.admit_test(random_summary(RNG(2)), 0)
        assert admit and residual == SPEC.signal_var

    def test_duplicate_point_rejected(self):
        gp = SparseGP(SPEC, 60, n_actions=3)
        b = random_summary(RNG(3))
        gp.sarsa_update(b, 1, 0.5, b, None, True, 0.99)
        admit, residual, _ = gp.admit_test(b, 1)
        assert not admit
        assert abs(residual) <= 1e-8

    def test_residual_matches_least_squares_oracle(self):
        # residual == min_c |phi(p) - sum c_i phi(p_i)|^2 in the RKHS,
        # computed densely from the Gram matrix
        for seed in range(20):
            rng = RNG(seed)
            gp = SparseGP(replace(SPEC, nu=0.0), 60, n_actions=2, jitter=0.0)
            pts = []
            while len(gp) < 10:
                b, a = random_summary(rng), int(rng.integers(2))
                if any(np.array_equal(b, pb) and a == pa for pb, pa in pts):
                    continue
                admit, residual, coeffs = gp.admit_test(b, a)
                gp._admit(b, a, coeffs, residual)
                pts.append((b, a))
            query_b, query_a = random_summary(rng), int(rng.integers(2))
            _, residual, _ = gp.admit_test(query_b, query_a)
            gram = np.array([[kernel(SPEC, b1, a1, b2, a2)
                              for b2, a2 in pts] for b1, a1 in pts])
            kv = np.array([kernel(SPEC, query_b, query_a, b, a)
                           for b, a in pts])
            coeffs = np.linalg.lstsq(gram, kv, rcond=None)[0]
            oracle = kernel(SPEC, query_b, query_a, query_b, query_a) \
                - kv @ coeffs
            assert abs(residual - oracle) <= 1e-8


class UnmemoisedGP(SparseGP):
    """The posterior algebra with nothing reused: every kernel row and
    projection computed afresh, and the capped case projected again after
    the refused admit."""

    def _row_of(self, b):
        return self._similarity(b)

    def _phi(self, b, a):
        admit, residual, coeffs = self.admit_test(b, a)
        if admit and self._admit(b, a, coeffs, residual):
            e = np.zeros(len(self))
            e[-1] = 1.0
            return e
        if admit:
            coeffs = self.admit_test(b, a)[2]
        return coeffs

    def q_values(self, b):
        if len(self) == 0:
            return np.zeros(self.n_actions)
        b = np.asarray(b, dtype=float)
        base = self._similarity(b) * self.coefficients()
        return np.array([base[self.points_a == a].sum()
                         for a in range(self.n_actions)])


class EagerGP(SparseGP):
    """The covariance update applied at every measurement: mu and Sigma
    replaced by new arrays, the rank-one term formed by ``np.outer`` and
    Sigma symmetrised every 512 measurements."""

    def _measure(self, u, y):
        s_vec = self.Sigma @ u
        s = float(u @ s_vec) + self.config.noise_var
        gain = s_vec / s
        self.mu = self.mu + gain * (y - float(u @ self.mu))
        self.Sigma = self.Sigma - np.outer(gain, s_vec)
        self.updates += 1
        if self.updates % 512 == 0:
            self.Sigma = 0.5 * (self.Sigma + self.Sigma.T)
        self._coeffs = None


class FullProductGP(SparseGP):
    """Projections and ``Kinv @ mu`` as products with the full n x n
    ``Kinv``, not one action block at a time."""

    def admit_test(self, b, a):
        kv = self._row_of(b) * (self.points_a == a)
        coeffs = self.Kinv @ kv
        residual = float(self.config.signal_var - kv @ coeffs)
        return residual > self.config.nu or len(self) == 0, residual, coeffs

    def coefficients(self):
        if self._coeffs is None:
            self._coeffs = self.Kinv @ self.mu
        return self._coeffs


def chain(gp_cls, steps, width=None, cap=12):
    """An on-policy stream through a fresh ``gp_cls``: each transition's
    next point is the following transition's current point, with a greedy
    query of it in between. Summary points by default, or dense points of
    ``width`` features. Returns the GP, its size after every step and every
    query's Q values."""
    def point(rng):
        return random_summary(rng) if width is None else rng.random(width)

    gp = gp_cls(replace(SPEC, nu=0.05, max_dictionary=cap), width or 60,
                n_actions=3)
    rng = RNG(31)
    b, a = point(rng), int(rng.integers(3))
    sizes, q = [], []
    for t in range(steps):
        terminal = t % 9 == 8
        b2 = point(rng) if t % 4 else b
        q.append(gp.q_values(b2))
        a2 = int(rng.integers(3))
        gp.sarsa_update(b, a, float(rng.normal()), b2, a2, terminal, 0.95)
        sizes.append(len(gp))
        b, a = (point(rng), 0) if terminal else (b2, a2)
    return gp, sizes, q


class TestProjectionReuse:
    def test_admitted_point_is_projected_afresh_on_the_grown_dictionary(self):
        gp = SparseGP(SPEC, 60, n_actions=2)
        rng = RNG(30)
        for _ in range(5):
            gp._phi(random_summary(rng), int(rng.integers(2)))
        b = random_summary(rng)
        n = len(gp)
        e = gp._phi(b, 1)
        assert len(gp) == n + 1 and e[-1] == 1.0 and not e[:-1].any()
        again = gp._phi(b, 1)
        index = np.flatnonzero(gp.points_a == 1)
        fresh = np.zeros(len(gp))
        fresh[index] = gp.Kinv[np.ix_(index, index)] @ k_vec(gp, b, 1)[index]
        assert np.array_equal(again, fresh)
        assert not np.array_equal(again, e)
        # a projection onto an unchanged dictionary is kept and reused
        assert gp._phi(b, 1) is again

    @pytest.mark.parametrize("steps, width", [
        (300, None),
        (1100, None),   # past the 512th and 1024th measurement
        (300, 31),      # dense float features, original-space width
    ], ids=["summary-300", "summary-1100", "dense31-300"])
    def test_stream_across_the_cap_matches_the_unmemoised_reference(
            self, steps, width):
        # compared byte for byte, so a -0.0 where the reference has +0.0
        # (or the reverse) fails too
        gp, sizes, q = chain(SparseGP, steps, width)
        ref, ref_sizes, ref_q = chain(UnmemoisedGP, steps, width)
        assert sizes == ref_sizes and ref.alarmed and gp.alarmed
        assert sizes.index(12) < 150       # capped for most of the stream
        assert gp.updates == ref.updates == steps
        assert np.array(q).tobytes() == np.array(ref_q).tobytes()
        mine, theirs = gp.state().arrays, ref.state().arrays
        for name in ("points_b", "points_a", "Kinv", "mu", "Sigma"):
            assert mine[name].shape == theirs[name].shape, name
            assert mine[name].tobytes() == theirs[name].tobytes(), name

    def test_load_forgets_cached_projections(self, tmp_path):
        agents = [GPSarsaAgent(60, 2, replace(SPEC, nu=0.05, max_dictionary=8),
                               gamma=0.99) for _ in range(2)]
        for seed, agent in enumerate(agents):
            rng = RNG(40 + seed)
            for _ in range(20):
                b = random_summary(rng)
                agent.observe(Transition(b, int(rng.integers(2)), 1.0, b,
                                         True, False), rng, 0.0)
        probe = random_summary(RNG(42))
        source, target = agents
        target.gp.q_values(probe)
        target.gp._phi(probe, 0)
        path = str(tmp_path / "gp.npz")
        source.save(path)
        target.load(path)
        assert len(target.gp) == len(source.gp) == 8
        assert np.array_equal(target.gp.q_values(probe),
                              source.gp.q_values(probe))
        assert np.array_equal(target.gp._phi(probe, 0),
                              source.gp._phi(probe, 0))


class TestDeferredCovariance:
    @pytest.mark.parametrize("steps, width, cap", [
        (300, None, 12),
        (1100, None, 12),
        (300, 31, 12),
        (3000, None, 200),
    ], ids=["summary-300", "summary-1100", "dense31-300",
            "summary-3000-cap200"])
    def test_stream_matches_the_eager_reference(self, steps, width, cap):
        # folding the covariance terms in batches moves only the last bits
        gp, sizes, q = chain(SparseGP, steps, width, cap)
        ref, ref_sizes, ref_q = chain(EagerGP, steps, width, cap)
        assert sizes == ref_sizes and sizes[-1] == cap
        mine, theirs = gp.state().arrays, ref.state().arrays
        for name in ("points_b", "points_a", "Kinv"):
            assert mine[name].tobytes() == theirs[name].tobytes(), name

        def close(got, want):
            return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        assert close(mine["mu"], theirs["mu"])
        assert close(mine["Sigma"], theirs["Sigma"])
        assert close(np.array(q), np.array(ref_q))

    def test_folds_match_dense_gp_regression(self):
        # nu ~ 0: each of 100 distinct points is admitted on its first
        # terminal observation; two more passes observe them again with no
        # admit, so 200 measurements cross six full folds. The oracle is
        # the dense posterior K - K H' (H K H' + noise I)^-1 H K, with H
        # selecting each observation's point: K - K (K + noise I)^-1 K
        # after the first pass.
        rng = RNG(60)
        gp = SparseGP(replace(SPEC, nu=1e-8), 60, n_actions=2, jitter=1e-12)
        pts = []
        while len(pts) < 100:
            b, a = random_summary(rng), int(rng.integers(2))
            if not any(np.array_equal(b, pb) and a == pa for pb, pa in pts):
                pts.append((b, a))
        seen, rewards = [], []
        for order in (range(100), rng.permutation(100), rng.permutation(100)):
            for i in order:
                r = float(rng.normal())
                gp.sarsa_update(pts[i][0], pts[i][1], r, pts[i][0], None,
                                True, 0.99)
                seen.append(i)
                rewards.append(r)
        assert len(gp) == 100 and gp.updates == 300
        gram = np.array([[kernel(SPEC, b1, a1, b2, a2) for b2, a2 in pts]
                         for b1, a1 in pts])
        h = np.eye(100)[seen]
        joint = h @ gram @ h.T + SPEC.noise_var * np.eye(300)
        sigma = gram - gram @ h.T @ np.linalg.solve(joint, h @ gram)
        alpha = h.T @ np.linalg.solve(joint, np.array(rewards))
        assert np.abs(gp.state().arrays["Sigma"] - sigma).max() <= 1e-8
        probes = pts + [(random_summary(RNG(700 + i)), i % 2)
                        for i in range(20)]
        for b, a in probes:
            kv = np.array([kernel(SPEC, b, a, b2, a2) for b2, a2 in pts])
            assert abs(q_mean(gp, b, a) - kv @ alpha) <= 1e-8

    @pytest.mark.parametrize("cap", [12, 200])
    def test_sigma_stays_exactly_symmetric(self, cap):
        gp, _, _ = chain(SparseGP, 1100, cap=cap)
        sigma = gp.state().arrays["Sigma"]
        assert np.array_equal(sigma, sigma.T)


class CheckedRowGP(SparseGP):
    """Every kernel row checked, byte for byte, against the float path."""

    rows = 0

    def _similarity(self, b):
        row = super()._similarity(b)
        assert row.tobytes() == self._base_similarity(b).tobytes()
        self.rows += 1
        return row


class TestBitCountKernel:
    def test_row_equals_the_float_row_at_every_distance(self):
        # points with the first d bits set, d = 0..60: from the all-zeros
        # and the all-ones query they lie at every distance 0..60
        for spec in (SPEC, GPConfig(0.7, 2.3, 0.1)):
            gp = SparseGP(spec, 60, n_actions=1)
            gp.points_b = np.tril(np.ones((61, 60)), -1)
            gp.points_a = np.zeros(61, dtype=np.int64)
            gp.Kinv = np.eye(61)
            gp.forget()
            assert gp._bits is not None
            rng = RNG(70)
            queries = [np.zeros(60), np.ones(60)]
            queries += [random_summary(rng) for _ in range(20)]
            queries += [(rng.random(60) < 0.5).astype(float)
                        for _ in range(20)]
            for q in queries:
                row = gp._similarity(q)
                assert row.tobytes() == gp._base_similarity(q).tobytes()
            distances = np.abs(gp.points_b - queries[0]).sum(axis=1)
            assert distances.tolist() == list(range(61))

    @pytest.mark.parametrize("steps, cap", [(300, 12), (1100, 200)])
    def test_rows_of_a_one_hot_stream_equal_the_float_rows(self, steps, cap):
        gp, _, _ = chain(CheckedRowGP, steps, cap=cap)
        assert gp._bits is not None and gp.rows > steps

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, 1.0 + 1e-15,
                                       float("nan"), float("inf")])
    def test_query_with_another_entry_takes_the_float_path(self, value):
        # never packed as the nearest bit pattern; the row is the float row
        gp = CheckedRowGP(SPEC, 60, n_actions=3)
        rng = RNG(71)
        for _ in range(5):
            b = random_summary(rng)
            gp.sarsa_update(b, 0, 1.0, b, None, True, 0.99)
        assert len(gp) == 5 and gp._bits is not None
        bad = b.copy()
        bad[7] = value
        assert gp._pack(bad) is None
        rows = gp.rows
        gp.q_values(bad)
        assert gp.rows == rows + 1 and gp._bits is not None

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, 1.0 + 1e-15])
    def test_admitting_another_entry_ends_the_bit_masks(self, value):
        gp = CheckedRowGP(SPEC, 60, n_actions=3)
        rng = RNG(72)
        for _ in range(5):
            b = random_summary(rng)
            gp.sarsa_update(b, 0, 1.0, b, None, True, 0.99)
        bad = random_summary(rng)
        bad[7] = value
        gp.sarsa_update(bad, 1, 0.0, bad, None, True, 0.9)
        assert len(gp) == 6 and gp._bits is None
        for _ in range(5):
            gp.q_values(random_summary(rng))
        gp.q_values(bad)
        # a loaded dictionary is checked afresh
        gp.points_b, gp.points_a = gp.points_b[:5], gp.points_a[:5]
        gp.forget()
        assert gp._bits is not None

    @pytest.mark.parametrize("width", [64, 65])
    def test_only_up_to_64_features_are_packed(self, width):
        gp = CheckedRowGP(SPEC, width, n_actions=2)
        rng = RNG(73)
        for _ in range(10):
            b = (rng.random(width) < 0.5).astype(float)
            gp.sarsa_update(b, int(rng.integers(2)), 1.0, b, None, True, 0.9)
            gp.q_values((rng.random(width) < 0.5).astype(float))
        assert len(gp) > 1 and gp.rows >= 20
        assert (gp._bits is not None) == (width <= 64)


class TestActionBlocks:
    @pytest.mark.parametrize("steps, cap", [(1100, 12), (3000, 200)])
    def test_kinv_is_zero_off_the_action_blocks(self, steps, cap):
        gp, sizes, _ = chain(SparseGP, steps, cap=cap)
        assert sizes[-1] == cap
        kinv, actions = gp.state().arrays["Kinv"], gp.points_a
        off_block = actions[:, None] != actions[None, :]
        assert off_block.sum() > cap and np.all(kinv[off_block] == 0.0)

    @pytest.mark.parametrize("steps, width, cap", [
        (300, None, 12),
        (1100, None, 12),
        (300, 31, 12),
        (3000, None, 200),
    ], ids=["summary-300", "summary-1100", "dense31-300",
            "summary-3000-cap200"])
    def test_stream_matches_the_full_product_reference(self, steps, width,
                                                       cap):
        # the block products reorder sums, so only the last bits move
        gp, sizes, q = chain(SparseGP, steps, width, cap)
        ref, ref_sizes, ref_q = chain(FullProductGP, steps, width, cap)
        assert sizes == ref_sizes and sizes[-1] == cap
        mine, theirs = gp.state().arrays, ref.state().arrays
        for name in ("points_b", "points_a"):
            assert mine[name].tobytes() == theirs[name].tobytes(), name

        def close(got, want):
            return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        for name in ("mu", "Sigma", "Kinv"):
            assert close(mine[name], theirs[name]), name
        assert close(np.array(q), np.array(ref_q))


class TestPosterior:
    @pytest.mark.parametrize("spec", [SPEC, GPConfig(2.0, 0.37, 0.2)])
    def test_first_point_matches_the_closed_form(self, spec):
        # the empty dictionary takes the general bordering path; the removed
        # special case set these values, compared byte for byte
        gp = SparseGP(spec, 60, n_actions=3)
        b = random_summary(RNG(16))
        e = gp._phi(b, 2)
        kpp = spec.signal_var + gp.jitter
        for name, closed in (("Kinv", np.array([[1.0 / kpp]])),
                             ("Sigma", np.array([[kpp]])),
                             ("mu", np.zeros(1)),
                             ("points_a", np.array([2], dtype=np.int64)),
                             ("points_b", b[None, :])):
            mine = getattr(gp, name)
            assert mine.dtype == closed.dtype, name
            assert mine.shape == closed.shape, name
            assert mine.tobytes() == closed.tobytes(), name
        assert e.tolist() == [1.0]

    def test_empty_dictionary_queries_give_zeros(self):
        gp = SparseGP(SPEC, 60, n_actions=4)
        b = random_summary(RNG(17))
        k = k_vec(gp, b, 1)
        assert k.shape == (0,) and k.dtype == float
        q = gp.q_values(b)
        assert q.shape == (4,) and q.dtype == float and not q.any()
        assert q_mean(gp, b, 3) == 0.0

    def test_fresh_gp_mean_is_zero(self):
        gp = SparseGP(SPEC, 60, n_actions=3)
        for seed in range(5):
            assert q_mean(gp, random_summary(RNG(seed)), seed % 3) == 0.0

    def test_one_point_posterior_closed_form(self):
        # single terminal observation: mean = r * s_k^2 / (s_k^2 + s_n^2)
        gp = SparseGP(SPEC, 60, n_actions=3)
        b = random_summary(RNG(4))
        r = 0.85
        gp.sarsa_update(b, 2, r, b, None, True, 0.99)
        expected = r * SPEC.signal_var / (SPEC.signal_var + SPEC.noise_var)
        assert abs(q_mean(gp, b, 2) - expected) <= 1e-6

    def test_huge_nu_keeps_dictionary_at_one(self):
        gp = SparseGP(replace(SPEC, nu=1e9), 60, n_actions=3)
        rng = RNG(5)
        for i in range(30):
            b = random_summary(rng)
            gp.sarsa_update(b, int(rng.integers(3)), float(rng.normal()),
                            random_summary(rng), int(rng.integers(3)),
                            i % 3 == 0, 0.9)
            assert len(gp) == 1
            assert np.all(np.isfinite(gp.mu))

    def test_twenty_point_posterior_matches_dense_gp_regression(self):
        # nu -> 0: every point admitted; terminal observations reduce the
        # model to plain GP regression solved densely as the oracle
        rng = RNG(6)
        gp = SparseGP(replace(SPEC, nu=1e-12), 60, n_actions=2, jitter=1e-12)
        pts, rewards = [], []
        while len(pts) < 20:
            b, a = random_summary(rng), int(rng.integers(2))
            if any(np.array_equal(b, pb) and a == pa for pb, pa in pts):
                continue
            r = float(rng.normal())
            gp.sarsa_update(b, a, r, b, None, True, 0.99)
            pts.append((b, a))
            rewards.append(r)
        gram = np.array([[kernel(SPEC, b1, a1, b2, a2) for b2, a2 in pts]
                         for b1, a1 in pts])
        alpha = np.linalg.solve(gram + SPEC.noise_var * np.eye(20),
                                np.array(rewards))
        for b, a in pts:
            kv = np.array([kernel(SPEC, b, a, b2, a2) for b2, a2 in pts])
            assert abs(q_mean(gp, b, a) - kv @ alpha) <= 1e-5
        for seed in range(10):
            b, a = random_summary(RNG(100 + seed)), seed % 2
            kv = np.array([kernel(SPEC, b, a, b2, a2) for b2, a2 in pts])
            assert abs(q_mean(gp, b, a) - kv @ alpha) <= 1e-5

    def test_far_query_reverts_to_prior(self):
        gp = SparseGP(GPConfig(length_scale=0.5, nu=0.01), 60, n_actions=2)
        b = np.zeros(60)
        gp.sarsa_update(b, 0, 1.0, b, None, True, 0.99)
        far = np.full(60, 10.0)
        assert abs(q_mean(gp, far, 0)) <= 1e-6

    def test_nonterminal_updates_stay_finite(self):
        gp = SparseGP(SPEC, 60, n_actions=3)
        rng = RNG(7)
        b = random_summary(rng)
        for i in range(400):
            b2 = random_summary(rng)
            a, a2 = int(rng.integers(3)), int(rng.integers(3))
            gp.sarsa_update(b, a, float(rng.normal() * 0.1), b2, a2,
                            i % 10 == 0, 0.99)
            b = b2
        assert np.all(np.isfinite(gp.mu))
        assert np.all(np.isfinite(gp.Sigma))


def esoftmax(gp, b, epsilon, rng):
    """The training loop's action for a GPSarsaAgent acting through ``gp``."""
    agent = GPSarsaAgent(gp.points_b.shape[1], gp.n_actions, gp.config,
                         gamma=0.99)
    agent.gp = gp
    return behaviour_action(agent, b, epsilon, tuple(range(gp.n_actions)),
                            rng)


class TestExploration:
    def test_equal_values_near_uniform(self):
        gp = SparseGP(SPEC, 60, n_actions=5)
        rng = RNG(8)
        counts = np.zeros(5)
        n = 10000
        b = random_summary(RNG(9))
        for _ in range(n):
            counts[esoftmax(gp, b, 0.0, rng)] += 1
        assert np.all(np.abs(counts / n - 0.2) <= 0.01)

    def test_log_two_gap_gives_two_to_one(self):
        gp = SparseGP(replace(SPEC, nu=1e-9), 60, n_actions=2, jitter=1e-12)
        b = random_summary(RNG(10))
        # pin Q(b,0) ~= ln 2 and Q(b,1) ~= 0 via two exact-ish observations
        scale = (SPEC.signal_var + SPEC.noise_var) / SPEC.signal_var
        tight = SparseGP(GPConfig(3.0, 1.0, 1e-9, nu=1e-9), 60, n_actions=2)
        tight.sarsa_update(b, 0, np.log(2.0), b, None, True, 0.99)
        tight.sarsa_update(b, 1, 0.0, b, None, True, 0.99)
        rng = RNG(11)
        n = 10000
        hits = sum(esoftmax(tight, b, 0.0, rng) == 0
                   for _ in range(n))
        assert abs(hits / n - 2.0 / 3.0) <= 0.02

    def test_full_epsilon_uniform_despite_values(self):
        gp = SparseGP(replace(SPEC, nu=1e-9), 60, n_actions=4)
        b = random_summary(RNG(12))
        gp.sarsa_update(b, 0, 5.0, b, None, True, 0.99)
        rng = RNG(13)
        counts = np.zeros(4)
        n = 8000
        for _ in range(n):
            counts[esoftmax(gp, b, 1.0, rng)] += 1
        assert np.all(np.abs(counts / n - 0.25) <= 0.02)


class TestAgentAdapter:
    def test_pending_transition_updates_on_next_observe(self):
        agent = GPSarsaAgent(60, 3, SPEC, gamma=0.9)
        rng = RNG(14)
        b1, b2, b3 = (random_summary(rng) for _ in range(3))
        agent.observe(Transition(b1, 0, -0.03, b2, False, False), rng,
                      0.0)
        assert len(agent.gp) == 0  # waits for the on-policy next action
        action = agent.act(b2, rng)
        assert len(agent.gp) == 0  # acting does not update the GP
        agent.observe(Transition(b2, action, -0.03, b3, False, False), rng,
                      0.0)
        assert len(agent.gp) >= 1

    def test_terminal_updates_immediately(self):
        agent = GPSarsaAgent(60, 3, SPEC, gamma=0.9)
        rng = RNG(15)
        b = random_summary(rng)
        agent.observe(Transition(b, 1, 1.0, b, True, True), rng, 0.0)
        assert len(agent.gp) == 1
        assert q_mean(agent.gp, b, 1) > 0.5

    def test_checkpoint_roundtrip(self, tmp_path):
        agent = GPSarsaAgent(60, 3, replace(SPEC, nu=0.05), gamma=0.95)
        rng = RNG(16)
        for i in range(25):
            b = random_summary(rng)
            agent.observe(Transition(b, int(rng.integers(3)),
                                     float(rng.normal()), b, True, False), rng,
                          0.0)
        path = str(tmp_path / "gp.npz")
        agent.save(path)
        twin = GPSarsaAgent(60, 3, replace(SPEC, nu=0.05), gamma=0.95)
        twin.load(path)
        b = random_summary(RNG(17))
        for a in range(3):
            assert q_mean(agent.gp, b, a) == q_mean(twin.gp, b, a)

    def test_load_drops_the_held_transition(self, tmp_path):
        # an agent holding a non-terminal transition back, then loading a
        # checkpoint, follows a fresh agent that loaded the same file
        def agent():
            return GPSarsaAgent(60, 3, replace(SPEC, nu=0.05), gamma=0.95)

        rng = RNG(19)
        source = agent()
        b = random_summary(rng)
        source.observe(Transition(b, 0, 1.0, b, True, False), None, 0.0)
        path = str(tmp_path / "gp.npz")
        source.save(path)
        held, fresh = agent(), agent()
        held.observe(Transition(random_summary(rng), 1, -0.03,
                                random_summary(rng), False, False), None,
                     0.0)
        last = Transition(random_summary(rng), 2, 1.0, random_summary(rng),
                          True, False)
        for twin in (held, fresh):
            twin.load(path)
            twin.observe(last, None, 0.0)
        assert held.gp.updates == fresh.gp.updates == 2
        assert len(held.gp) == len(fresh.gp) == 2
        want = fresh.state().arrays
        for name, value in held.state().arrays.items():
            assert value.tobytes() == want[name].tobytes(), name

    def test_checkpoint_between_folds_resumes_bit_for_bit(self, tmp_path):
        # saved with covariance terms pending; loaded into a fresh agent and
        # into one holding pending terms of its own, both then follow the
        # saving agent through a shared stream byte for byte
        def stream(seed, turns):
            rng = RNG(seed)
            b = random_summary(rng)
            for t in range(turns):
                terminal = t % 6 == 5 or t == turns - 1
                b2 = random_summary(rng)
                yield Transition(b, int(rng.integers(3)),
                                 float(rng.normal()), b2, terminal, False)
                b = random_summary(rng) if terminal else b2

        def agent(*feeds):
            out = GPSarsaAgent(60, 3, replace(SPEC, nu=0.05, max_dictionary=8),
                               gamma=0.95)
            for seed, turns in feeds:
                for t in stream(seed, turns):
                    out.observe(t, None, 0.0)
            return out

        source, busy = agent((50, 45)), agent((51, 40))
        for gp in (source.gp, busy.gp):
            assert gp.updates % FOLD and gp._n_pending
        path = str(tmp_path / "gp.npz")
        source.save(path)
        fresh = GPSarsaAgent(60, 3, replace(SPEC, nu=0.05, max_dictionary=8),
                             gamma=0.95)
        fresh.load(path)
        busy.load(path)
        for t in stream(52, 100):
            q = [a.gp.q_values(t.features).tobytes()
                 for a in (source, fresh, busy)]
            assert q[0] == q[1] == q[2]
            for a in (source, fresh, busy):
                a.observe(t, None, 0.0)
        want = source.state()
        for twin in (fresh, busy):
            got = twin.state()
            assert got.counters == want.counters
            for name, value in want.arrays.items():
                assert got.arrays[name].tobytes() == value.tobytes(), name

    def test_dictionary_cap_alarms_and_stops_growth(self, caplog):
        import logging
        agent = GPSarsaAgent(60, 2, replace(SPEC, nu=1e-12, max_dictionary=10),
                             gamma=0.9)
        rng = RNG(18)
        with caplog.at_level(logging.WARNING):
            for i in range(30):
                b = random_summary(rng)
                agent.observe(Transition(b, i % 2, 0.1, b, True, False), rng,
                              0.0)
        assert len(agent.gp) == 10
        assert agent.gp.alarmed
        assert any("cap" in rec.message for rec in caplog.records)
