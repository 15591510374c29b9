import dataclasses

import numpy as np
import pytest

from dialab.corpus import HandcraftedPolicy, RandomPolicy
from dialab.environment import (ORIGINAL_ACTIONS, SUMMARY_ACTIONS, DialogueEnv,
                                EnvConfig, EpisodeStateError, Transition,
                                check_reward_decomposition, minmax_slot,
                                realize_summary_act, rollout, run_episode,
                                understood_constraints)
from dialab.ontology import (GoalConfig, UserAct, default_ontology,
                             generate_db)
from dialab.seeding import rng_stream
from dialab.tracker import ErrorModel, fresh_belief, update_belief
from dialab.usersim import UserConfig

ONTO = default_ontology()
DB = generate_db(ONTO, n=150, rng=np.random.default_rng(7))


def make_env(space="original", noiseless=True, **cfg_kw):
    error = ErrorModel.noiseless() if noiseless else ErrorModel()
    cfg = EnvConfig(space=space, error=error, **cfg_kw)
    return DialogueEnv(ONTO, DB, cfg)


def belief_with(informs, db_count=0):
    b = fresh_belief(ONTO)
    obs = [[(UserAct("inform", slot=s, value=v), c)] for s, v, c in informs]
    return update_belief(b, obs, db_count)


class TestReset:
    def test_summary_reset_is_60_bits_with_12_ones(self):
        env = make_env("summary")
        feats = env.reset(rng_stream(0, "train", 0))
        assert feats.shape == (60,)
        assert set(np.unique(feats)) <= {0.0, 1.0}
        assert feats.sum() == 12

    def test_original_reset_has_29_leading_zeros(self):
        env = make_env("original")
        feats = env.reset(rng_stream(0, "train", 0))
        assert feats.shape == (31,)
        assert np.all(feats[:29] == 0.0)

    def test_fixed_seed_fixed_goal(self):
        env = make_env()
        env.reset(rng_stream(5, "train", 9))
        first = env.goal
        env.reset(rng_stream(5, "train", 9))
        assert env.goal == first


class TestStep:
    def test_step_before_reset_raises(self):
        env = make_env()
        with pytest.raises(EpisodeStateError):
            env.step(0)

    def test_step_after_terminal_raises(self):
        env = make_env()
        env.reset(rng_stream(1, "train", 0))
        policy = HandcraftedPolicy("original")
        terminal = False
        while not terminal:
            _, _, terminal, _ = env.step(policy(env.features()))
        with pytest.raises(EpisodeStateError):
            env.step(0)

    def test_action_out_of_range(self):
        env = make_env()
        env.reset(rng_stream(1, "train", 1))
        with pytest.raises(ValueError):
            env.step(11)

    def test_success_return_accounting(self):
        env = make_env()
        policy = HandcraftedPolicy("original")
        log = run_episode(env, policy, rng_stream(2, "train", 0))
        assert log.success
        assert abs(log.episode_return - (1.0 - 0.03 * log.length)) <= 1e-9

    def test_always_repeat_times_out_at_minus_1_90(self):
        env = make_env()
        repeat = ORIGINAL_ACTIONS.index("repeat")
        log = run_episode(env, lambda f: repeat, rng_stream(3, "train", 0))
        assert not log.success
        assert log.length == 30
        assert abs(log.episode_return - (-1.0 - 30 * 0.03)) <= 1e-9

    def test_hangup_return_accounting(self):
        # offering immediately omits every goal constraint: instant hang-up
        env = make_env()
        offer = ORIGINAL_ACTIONS.index("offer")
        log = run_episode(env, lambda f: offer, rng_stream(4, "train", 0))
        assert not log.success
        assert log.length == 1
        assert abs(log.episode_return - (-1.0 - 0.03)) <= 1e-9


class TestRealization:
    def test_request_targets_min_max_slot(self):
        b = belief_with([("food", "thai", 0.9), ("area", "north", 0.3),
                         ("pricerange", "cheap", 0.7)])
        assert minmax_slot(b) == "area"
        act, _ = realize_summary_act("request", b, ONTO, DB)
        assert act.act_type == "request" and act.slot == "area"

    def test_request_tie_breaks_canonical(self):
        b = fresh_belief(ONTO)
        act, _ = realize_summary_act("request", b, ONTO, DB)
        assert act.slot == "area"

    def test_offer_carries_argmax_values(self):
        target = DB[0]
        b = belief_with([("food", target.food, 0.95),
                         ("area", target.area, 0.95),
                         ("pricerange", target.pricerange, 0.95)])
        act, count = realize_summary_act("offer", b, ONTO, DB)
        assert act.act_type == "offer"
        assert act.payload["food"] == target.food
        assert act.payload["area"] == target.area
        assert act.payload["pricerange"] == target.pricerange
        assert count >= 1

    def test_unmentioned_slots_left_out_of_offer(self):
        b = belief_with([("food", "thai", 0.9)])
        assert set(understood_constraints(b)) == {"food"}

    def test_expl_conf_picks_highest_below_confirm_threshold(self):
        b = belief_with([("food", "thai", 0.95), ("area", "north", 0.7),
                         ("pricerange", "cheap", 0.5)])
        act, _ = realize_summary_act("expl-conf", b, ONTO, DB)
        assert act.slot == "area"
        assert act.value == "north"

    def test_select_picks_smallest_gap(self):
        b = fresh_belief(ONTO)
        obs = [[(UserAct("inform", slot="food", value="thai"), 0.5),
                (UserAct("inform", slot="food", value="indian"), 0.45)],
               [(UserAct("inform", slot="area", value="north"), 0.9)]]
        b = update_belief(b, obs, 0)
        # food gap ~0.275-0.225=0.05... compute: thai 0.5, then indian update:
        # thai*=(1-.45)=.275, indian=.45 -> gap .175; area gap .9; price gap 0
        act, _ = realize_summary_act("select", b, ONTO, DB)
        assert act.act_type == "select" and act.slot == "pricerange"
        assert act.options is not None

    def test_empty_db_result_realizes_cannothelp_in_summary(self):
        b = belief_with([("food", "no-such", 0.9)])
        # value not in ontology is never believed, so force a mismatch combo
        b2 = belief_with([("food", "vietnamese", 0.9),
                          ("area", "centre", 0.9),
                          ("pricerange", "premium", 0.9)])
        from dialab.ontology import query
        if query(DB, understood_constraints(b2)):
            pytest.skip("sampled db happens to satisfy the combo")
        act, count = realize_summary_act("offer", b2, ONTO, DB)
        assert act.act_type == "cannothelp"
        assert count == 0

    def test_summary_action_order_fixed(self):
        assert SUMMARY_ACTIONS == ("cannothelp", "confirmdomain", "expl-conf",
                                   "offer", "repeat", "request", "select")
        assert ORIGINAL_ACTIONS[0] == "offer"
        assert len(ORIGINAL_ACTIONS) == 11


class TestEpisodes:
    def test_handcrafted_noiseless_always_succeeds(self):
        env = make_env()
        policy = HandcraftedPolicy("original")
        for i in range(1000):
            log = run_episode(env, policy, rng_stream(10, "train", i))
            assert log.success, i
            assert log.length <= 12

    def test_summary_handcrafted_noiseless_always_succeeds(self):
        env = make_env("summary")
        policy = HandcraftedPolicy("summary")
        for i in range(300):
            log = run_episode(env, policy, rng_stream(11, "train", i))
            assert log.success, i

    def test_reward_decomposition_fuzz(self):
        env = make_env(noiseless=False)
        rng = np.random.default_rng(12)
        random_policy = RandomPolicy(env.n_actions, rng)
        handcrafted = HandcraftedPolicy("original", p_blunder=0.2, rng=rng)
        for i in range(500):
            policy = random_policy if i % 2 else handcrafted
            log = run_episode(env, policy, rng_stream(13, "train", i))
            assert check_reward_decomposition(log, env.config)
            assert 1 <= log.length <= 30

    def test_success_flag_matches_simulator(self):
        from dialab import usersim
        env = make_env(noiseless=False)
        policy = HandcraftedPolicy("original")
        for i in range(200):
            log = run_episode(env, policy, rng_stream(14, "train", i))
            assert log.success == usersim.is_satisfied(env.user)

    def test_log_replay_resums_to_return(self):
        env = make_env(noiseless=False)
        policy = HandcraftedPolicy("original")
        log = run_episode(env, policy, rng_stream(15, "train", 3))
        assert abs(sum(r.reward for r in log.records) - log.episode_return) \
            <= 1e-12

    @pytest.mark.parametrize("space", ["original", "summary"])
    def test_rollout_yields_the_logged_transitions(self, space):
        env = make_env(space, noiseless=False)
        for i in range(20):
            def policy():
                return HandcraftedPolicy(space, p_blunder=0.3,
                                         rng=np.random.default_rng(i))
            got = list(rollout(env, policy(), rng_stream(19, "train", i)))
            want = run_episode(env, policy(),
                               rng_stream(19, "train", i)).transitions()
            assert len(got) == len(want)
            for a, b in zip(got, want):
                for f in dataclasses.fields(Transition):
                    assert np.array_equal(getattr(a, f.name),
                                          getattr(b, f.name)), (i, f.name)

    def test_transitions_align_with_features(self):
        env = make_env()
        policy = HandcraftedPolicy("original")
        log = run_episode(env, policy, rng_stream(16, "train", 0))
        ts = log.transitions()
        assert len(ts) == log.length
        assert ts[-1].terminal
        for a, b in zip(ts[:-1], ts[1:]):
            assert np.array_equal(a.next_features, b.features)

    def test_same_seed_same_episode(self):
        env = make_env(noiseless=False)
        policy = HandcraftedPolicy("original")
        log1 = run_episode(env, policy, rng_stream(17, "train", 5))
        log2 = run_episode(env, policy, rng_stream(17, "train", 5))
        assert log1.to_dict() == log2.to_dict()

    def test_log_dict_roundtrip(self):
        from dialab.environment import EpisodeLog
        env = make_env(noiseless=False)
        policy = HandcraftedPolicy("original")
        log = run_episode(env, policy, rng_stream(18, "train", 2))
        assert EpisodeLog.from_dict(log.to_dict()).to_dict() == log.to_dict()
