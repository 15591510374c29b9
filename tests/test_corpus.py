import json
import re

import numpy as np
import pytest

from dialab import harness
from dialab.corpus import (BlunderSchedule, Corpus, CorpusFormatError,
                           HandcraftedPolicy, count_blunders, filter_expert,
                           generate_corpus, load_corpus, rate, save_corpus,
                           to_supervised, to_transitions)
from dialab.environment import check_reward_decomposition
from dialab.tracker import ErrorModel

CLEAN = BlunderSchedule(((1.0, 0.0),))


@pytest.fixture(scope="module")
def noiseless_env():
    cfg = harness.ExperimentConfig(space="original", seed=1,
                                   error=ErrorModel.noiseless())
    return harness.build_world(cfg)[2]


@pytest.fixture(scope="module")
def noisy_env():
    cfg = harness.ExperimentConfig(space="original", seed=1)
    return harness.build_world(cfg)[2]


@pytest.fixture(scope="module")
def small_corpus(noisy_env):
    return generate_corpus(noisy_env, 120, seed=3)


class TestGenerate:
    def test_requested_count(self, noisy_env):
        built = generate_corpus(noisy_env, 50, seed=0)
        assert len(built) == 50

    def test_clean_noiseless_corpus_all_successful(self, noiseless_env):
        built = generate_corpus(noiseless_env, 60, seed=2, schedule=CLEAN)
        assert all(d.log.success for d in built.dialogues)
        assert all(d.rating == 3 for d in built.dialogues)
        assert all(d.provenance == "handcrafted" for d in built.dialogues)

    def test_same_seed_byte_identical_file(self, tmp_path, noisy_env):
        p1, p2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
        save_corpus(generate_corpus(noisy_env, 25, seed=9), p1)
        save_corpus(generate_corpus(noisy_env, 25, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_logs_satisfy_reward_decomposition(self, small_corpus, noisy_env):
        for d in small_corpus.dialogues:
            assert check_reward_decomposition(d.log, noisy_env.config)


class TestRate:
    def test_clean_success_rates_three(self, noiseless_env):
        built = generate_corpus(noiseless_env, 10, seed=4, schedule=CLEAN)
        assert all(rate(d) == 3 for d in built.dialogues)

    def test_rating_is_pure_function_of_log(self, small_corpus):
        for d in small_corpus.dialogues:
            assert rate(d) == rate(d) == d.rating

    def test_timeout_with_nothing_grounded_rates_zero(self, noiseless_env):
        from dialab.environment import ORIGINAL_ACTIONS, run_episode
        from dialab.seeding import rng_stream
        repeat = ORIGINAL_ACTIONS.index("repeat")
        log = run_episode(noiseless_env, lambda f: repeat,
                          rng_stream(5, "train", 0))
        assert not log.success
        assert rate(log) == 0

    def test_blunder_counting_by_rule_replay(self, noiseless_env):
        built = generate_corpus(noiseless_env, 40, seed=6, schedule=CLEAN)
        assert all(count_blunders(d.log) == 0 for d in built.dialogues)

    def test_expert_fraction_calibrated(self, noisy_env):
        # default schedule: rating-3 share ~ 1/3 (+-5 points) across 5 seeds
        fracs = []
        for seed in range(5):
            built = generate_corpus(noisy_env, 400, seed=seed)
            ratings = [d.rating for d in built.dialogues]
            fracs.append(ratings.count(3) / len(ratings))
        for frac in fracs:
            assert 0.28 <= frac <= 0.38, fracs


class TestHandcraftedPolicy:
    @pytest.mark.parametrize("p_blunder, rng", [
        (1.0, None), (1.5, np.random.default_rng(0)),
        (-0.1, np.random.default_rng(0))])
    def test_rejects_a_blunder_rate_it_cannot_apply(self, p_blunder, rng):
        with pytest.raises(ValueError, match="p_blunder"):
            HandcraftedPolicy("original", p_blunder=p_blunder, rng=rng)


class TestFilter:
    def test_filtered_subset_has_rating_three(self, small_corpus):
        expert = filter_expert(small_corpus)
        assert all(d.rating == 3 for d in expert.dialogues)
        assert len(expert) <= len(small_corpus)

    def test_order_preserved_and_complement_partitions(self, small_corpus):
        expert = filter_expert(small_corpus)
        rest = [d for d in small_corpus.dialogues if d.rating != 3]
        assert len(expert) + len(rest) == len(small_corpus)
        it = iter(small_corpus.dialogues)
        for d in expert.dialogues:
            while next(it) is not d:
                pass  # raises StopIteration if order was shuffled

    def test_empty_result_allowed(self, noiseless_env):
        built = generate_corpus(noiseless_env, 5, seed=7, schedule=CLEAN)
        for d in built.dialogues:
            d.rating = 1
        assert len(filter_expert(built)) == 0


class TestConversion:
    def test_pair_and_transition_counts_match_turns(self, small_corpus):
        turns = sum(len(d.log.records) for d in small_corpus.dialogues)
        assert len(to_supervised(small_corpus)) == turns
        assert len(to_transitions(small_corpus)) == turns

    def test_transition_rewards_resum_to_returns(self, small_corpus):
        for d in small_corpus.dialogues:
            total = sum(t.reward for t in d.log.transitions())
            assert abs(total - d.log.episode_return) <= 1e-9

    def test_clean_pairs_match_rule_table_everywhere(self, noiseless_env):
        built = generate_corpus(noiseless_env, 40, seed=8, schedule=CLEAN)
        rule = HandcraftedPolicy("original")
        for feats, action in to_supervised(built):
            assert rule.decide(feats) == action

    def test_mixed_layout_refused(self, small_corpus):
        broken = Corpus(dialogues=small_corpus.dialogues,
                        space="summary",
                        feature_names=small_corpus.feature_names)
        with pytest.raises(CorpusFormatError, match="mixed"):
            to_supervised(broken)


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path, small_corpus):
        p1 = tmp_path / "c.jsonl"
        p2 = tmp_path / "c2.jsonl"
        save_corpus(small_corpus, p1)
        loaded = load_corpus(str(p1))
        save_corpus(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.space == small_corpus.space
        assert loaded.feature_names == small_corpus.feature_names
        assert len(loaded) == len(small_corpus)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "something-else", "version": 1}\n')
        with pytest.raises(CorpusFormatError):
            load_corpus(str(path))

    def test_unknown_space_rejected_at_the_header(self, tmp_path, noisy_env):
        path = tmp_path / "bogus.jsonl"
        save_corpus(generate_corpus(noisy_env, 3, seed=0), path)
        path.write_text(path.read_text().replace('"space": "original"',
                                                 '"space": "bogus"'))
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{path}:1: field 'space'")):
            load_corpus(str(path))

    @pytest.mark.parametrize("space, features, message", [
        ("original", [0.0, 0.0], "feature length 2 != manifest 1"),
        ("summary", [0.0], "mixed feature layouts")])
    def test_layout_errors_name_the_file_and_line(self, tmp_path, space,
                                                  features, message):
        path = tmp_path / "corpus.jsonl"
        header = {"schema": "dialab-corpus", "version": 1,
                  "space": "original", "feature_names": ["f0"]}
        turn = {"turn": 1, "features": features, "action": 0,
                "system_act": "repeat", "user_acts": [], "observed": [],
                "reward": -1.03, "terminal": True, "success": False}
        log = {"space": space, "return": -1.03, "success": False,
               "length": 1, "final_features": [0.0], "records": [turn]}
        record = {"rating": 0, "provenance": "handcrafted", "log": log}
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{path}:2: {message}")):
            load_corpus(str(path))
