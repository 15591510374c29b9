import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from dialab import harness
from dialab.corpus import (BlunderSchedule, CorpusFormatError,
                           CorpusReader, HandcraftedPolicy,
                           count_blunders, fill_pool, generate_corpus,
                           load_corpus, rate, save_corpus)
from dialab.environment import SPACES, Transition
from dialab.value_agents import ReplayPool
from reference import (check_reward_decomposition, noiseless_channel,
                       pooled_turns, turn_lists)

CLEAN = BlunderSchedule(((1.0, 0.0),))
NAMES = list(SPACES["original"].feature_names)


@pytest.fixture(scope="module")
def noiseless_env():
    cfg = harness.ExperimentConfig(space="original", seed=1,
                                   error=noiseless_channel())
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
        assert len(built.dialogues) == 50

    def test_clean_noiseless_corpus_all_successful(self, noiseless_env):
        built = generate_corpus(noiseless_env, 60, seed=2, schedule=CLEAN)
        assert all(d.turns[-1].success for d in built.dialogues)
        assert all(d.rating == 3 for d in built.dialogues)
        assert all(d.provenance == "handcrafted" for d in built.dialogues)

    def test_same_seed_byte_identical_file(self, tmp_path, noisy_env):
        p1, p2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
        save_corpus(generate_corpus(noisy_env, 25, seed=9), p1)
        save_corpus(generate_corpus(noisy_env, 25, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_logs_satisfy_reward_decomposition(self, small_corpus, noisy_env):
        for d in small_corpus.dialogues:
            assert check_reward_decomposition(d.turns, noisy_env.config)


class TestRate:
    def test_clean_success_rates_three(self, noiseless_env):
        built = generate_corpus(noiseless_env, 10, seed=4, schedule=CLEAN)
        assert all(rate(d.turns, d.space) == 3 for d in built.dialogues)

    def test_rating_is_pure_function_of_log(self, small_corpus):
        for d in small_corpus.dialogues:
            assert rate(d.turns, d.space) == rate(d.turns, d.space) \
                == d.rating

    def test_timeout_with_nothing_grounded_rates_zero(self, noiseless_env):
        from dialab.environment import rollout
        from dialab.seeding import rng_stream
        from reference import ORIGINAL_ACTIONS
        repeat = ORIGINAL_ACTIONS.index("repeat")
        turns = tuple(rollout(noiseless_env, lambda f: repeat,
                              rng_stream(5, "train", 0)))
        assert not turns[-1].success
        assert rate(turns, "original") == 0

    def test_blunder_counting_by_rule_replay(self, noiseless_env):
        built = generate_corpus(noiseless_env, 40, seed=6, schedule=CLEAN)
        assert all(count_blunders(d.turns, d.space) == 0
                   for d in built.dialogues)

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
    # the expert subset is the row mask rating == 3 over the pooled rows
    def test_filtered_subset_has_rating_three(self, small_corpus):
        data = pooled_turns(small_corpus)
        expert = data.rating == 3
        assert np.all(data.rating[expert] == 3)
        assert 0 < expert.sum() <= len(data)

    def test_order_preserved_and_complement_partitions(self, small_corpus):
        data = pooled_turns(small_corpus)
        expert = data.rating == 3
        assert expert.sum() + (~expert).sum() == len(data)
        rows = [(t.features, t.action) for d in small_corpus.dialogues
                if d.rating == 3 for t in d.turns]
        assert np.array_equal(data.features[expert],
                              np.array([f for f, _ in rows]))
        assert data.actions[expert].tolist() == [a for _, a in rows]

    def test_empty_result_allowed(self, noiseless_env):
        built = generate_corpus(noiseless_env, 5, seed=7, schedule=CLEAN)
        for d in built.dialogues:
            d.rating = 1
        data = pooled_turns(built)
        assert len(data) > 0 and not np.any(data.rating == 3)


class TestConversion:
    def test_pair_and_transition_counts_match_turns(self, small_corpus):
        turns = sum(len(d.turns) for d in small_corpus.dialogues)
        data = pooled_turns(small_corpus)
        assert data.features.shape == data.next_features.shape == (
            turns, len(NAMES))
        for column in (data.actions, data.rewards, data.terminal,
                       data.rating):
            assert column.shape == (turns,)
        assert data.terminal.sum() == len(small_corpus.dialogues)

    def test_transition_rewards_resum_to_returns(self, small_corpus):
        data = pooled_turns(small_corpus)
        ends = np.flatnonzero(data.terminal) + 1
        for d, rewards in zip(small_corpus.dialogues,
                              np.split(data.rewards, ends[:-1])):
            assert abs(rewards.sum() - sum(t.reward for t in d.turns)) \
                <= 1e-9

    def test_clean_pairs_match_rule_table_everywhere(self, noiseless_env):
        built = generate_corpus(noiseless_env, 40, seed=8, schedule=CLEAN)
        rule = HandcraftedPolicy("original")
        data = pooled_turns(built)
        for feats, action in zip(data.features, data.actions):
            assert rule.decide(feats) == action

    def test_rows_match_the_logged_turns(self, small_corpus):
        # reference: a loop over every dialogue's turns
        data = pooled_turns(small_corpus)
        turns = [(d, t) for d in small_corpus.dialogues for t in d.turns]
        assert len(data) == len(turns)
        for row, (d, t) in enumerate(turns):
            assert data.features[row].tolist() == t.features.tolist()
            # a terminal row's next state is read only at the newest row
            if not t.terminal or row + 1 == len(turns):
                assert (data.next_features[row].tolist()
                        == t.next_features.tolist())
            assert (data.actions[row], data.rewards[row],
                    data.terminal[row], data.rating[row]) == (
                        t.action, t.reward, t.terminal, d.rating)

    def test_streamed_file_gives_the_in_memory_arrays(self, tmp_path,
                                                      small_corpus):
        path = tmp_path / "c.jsonl"
        save_corpus(small_corpus, path)
        streamed, held = pooled_turns(CorpusReader(str(path))), pooled_turns(
            small_corpus)
        for name in ("features", "next_features", "actions", "rewards",
                     "terminal", "rating"):
            assert np.array_equal(getattr(streamed, name),
                                  getattr(held, name)), name

    def test_pool_of_exactly_the_turns_is_filled_to_the_last_row(
            self, small_corpus):
        data = pooled_turns(small_corpus)
        pool = ReplayPool(len(data), len(NAMES))
        fill_pool(small_corpus, pool)
        assert (len(pool), pool._cursor) == (len(data), 0)
        assert np.array_equal(pool.batch(np.arange(len(pool)))[3],
                              data.next_features)

    def test_longer_corpus_than_the_pool_is_counted_but_not_stored(
            self, small_corpus):
        # every turn is rated; the pool keeps the dialogues that fit whole,
        # in order, and nothing after the first that does not
        data = pooled_turns(small_corpus)
        first = len(small_corpus.dialogues[0].turns)
        pool = ReplayPool(len(data) - 1, len(NAMES))
        rating = fill_pool(small_corpus, pool)
        assert np.array_equal(rating, data.rating)
        assert first <= len(pool) < len(data)
        for name in ReplayPool.FIELDS:
            assert np.array_equal(pool.rows(name),
                                  getattr(data, name)[:len(pool)]), name

    def test_pool_holding_rows_is_refused_unchanged(self, small_corpus):
        pool = ReplayPool(1000, len(NAMES))
        fill_pool(small_corpus, pool)
        held = {name: pool.rows(name).copy() for name in ReplayPool.FIELDS}
        with pytest.raises(ValueError, match=f"^fill_pool needs an empty "
                           f"pool; it holds {len(pool)} rows$"):
            fill_pool(small_corpus, pool)
        for name in ReplayPool.FIELDS:
            assert np.array_equal(pool.rows(name), held[name]), name


class TestLogForm:
    def test_generated_and_reread_logs_share_one_form(self, tmp_path,
                                                      small_corpus):
        # both are the rollout's Transitions: float64 states, each turn
        # starting at the last one's next state, the same array
        path = tmp_path / "c.jsonl"
        save_corpus(small_corpus, path)
        n_features = len(NAMES)
        generated = small_corpus.dialogues[0]
        reread = next(iter(CorpusReader(str(path))))
        for d in (generated, reread):
            assert isinstance(d.turns, tuple)
            for t in d.turns:
                assert isinstance(t, Transition)
                for vec in (t.features, t.next_features):
                    assert isinstance(vec, np.ndarray)
                    assert vec.dtype == np.float64
                    assert vec.shape == (n_features,)
                assert (type(t.action), type(t.reward), type(t.terminal),
                        type(t.success)) == (int, float, bool, bool)
            for prev, t in zip(d.turns, d.turns[1:]):
                assert t.features is prev.next_features
        assert (reread.space, reread.provenance, reread.rating) == (
            generated.space, generated.provenance, generated.rating)
        assert turn_lists(reread.turns) == turn_lists(generated.turns)

    def test_traced_bytes_per_logged_turn(self, noisy_env):
        # a turn's features as a list of Python floats held about 2.1 KB
        # a turn; the environment's array and the interned rendered acts
        # about 1.15 KB; the array without the acts about 0.58 KB; the
        # rollout's Transition, its next state the next turn's array,
        # about 0.55 KB
        generate_corpus(noisy_env, 50, seed=2)
        tracemalloc.start()
        try:
            built = generate_corpus(noisy_env, 50, seed=2)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        turns = sum(len(d.turns) for d in built.dialogues)
        assert held / turns < 800, held / turns


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path, small_corpus):
        p1 = tmp_path / "c.jsonl"
        p2 = tmp_path / "c2.jsonl"
        save_corpus(small_corpus, p1)
        loaded = load_corpus(str(p1))
        save_corpus(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.space == small_corpus.space
        assert len(loaded.dialogues) == len(small_corpus.dialogues)

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

    @pytest.mark.parametrize("features, message", [
        ([0.0, 0.0], "feature length 2 != manifest 31"),
        ([[0.0]], "field 'features': not a flat list of numbers")])
    def test_layout_errors_name_the_file_and_line(self, tmp_path, features,
                                                  message):
        path = tmp_path / "corpus.jsonl"
        write_one_dialogue(path, features=features)
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{path}:2: {message}")):
            load_corpus(str(path))

    @pytest.mark.parametrize("change, message", [
        ({"action": 11}, "field 'action' of turn 0: 11 is not an action "
                         "index in 0..10"),
        ({"action": -1}, "field 'action' of turn 0: -1 is not an action "
                         "index in 0..10"),
        # not an int, though 1.5 and True pass the range test
        ({"action": 1.5},
         "field 'action' of turn 0: 1.5 is not an action index in 0..10"),
        ({"action": True},
         "field 'action' of turn 0: True is not an action index in 0..10"),
        ({"action": "1"},
         "field 'action' of turn 0: '1' is not an action index in 0..10"),
        ({"success": "no"}, "field 'success': 'no' is not a boolean"),
        ({"success": 1}, "field 'success': 1 is not a boolean"),
        ({"final_features": [0.0, 0.0]},
         "final feature length 2 != manifest 31"),
        ({"n_turns": 0}, "field 'records': a dialogue with no turns"),
        # the NaN and Infinity literals json.loads reads
        ({"features": [math.nan] * 31},
         "field 'features' of turn 0: not finite"),
        ({"n_turns": 2, "features": [-math.inf] * 31},
         "field 'features' of turn 0: not finite"),
        ({"reward": math.nan}, "field 'reward' of turn 0: not finite"),
        ({"reward": math.inf}, "field 'reward' of turn 0: not finite"),
        ({"final_features": [math.nan] * 31},
         "field 'final_features': not finite"),
        # a JSON integer too large for a float
        ({"features": [10 ** 400] * 31},
         "field 'features' of turn 0: not finite"),
        ({"reward": -10 ** 400}, "field 'reward' of turn 0: not finite"),
        ({"final_features": [10 ** 400] * 31},
         "field 'final_features': not finite"),
        # JSON's true and false, which numpy would take for 1 and 0
        ({"reward": True}, "field 'reward' of turn 0: True is not a number"),
        ({"reward": "-1"}, "field 'reward' of turn 0: '-1' is not a number"),
        ({"features": [True] * 31},
         "field 'features': a boolean is not a number"),
        ({"final_features": [False] * 31},
         "field 'final_features': a boolean is not a number")])
    def test_record_errors_name_the_file_and_line(self, tmp_path, change,
                                                  message):
        path = tmp_path / "corpus.jsonl"
        write_one_dialogue(path, **change)
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{path}:2: {message}")):
            load_corpus(str(path))

    def test_record_with_an_unknown_field_names_the_file_and_line(
            self, tmp_path):
        # version 1 stored each dialogue's rating; later versions derive it
        path = tmp_path / "corpus.jsonl"
        write_one_dialogue(path, record_fields={"rating": 3})
        with pytest.raises(CorpusFormatError, match=re.escape(
                f"{path}:2: unexpected field 'rating' in a dialogue record")):
            load_corpus(str(path))

    # version 1 stored derived fields, version 2 the rendered acts
    @pytest.mark.parametrize("version", [1, 2])
    def test_version_1_file_is_refused_at_its_header(self, tmp_path,
                                                     version):
        path = tmp_path / "corpus.jsonl"
        write_one_dialogue(path, version=version)
        with pytest.raises(CorpusFormatError, match=re.escape(
                f"{path}:1: a version-{version} corpus, which stores fields "
                f"version 3 does not; regenerate it with 'dialab "
                f"generate-corpus'")):
            CorpusReader(str(path))

    def test_turn_with_a_dropped_field_names_the_file_and_line(self,
                                                               tmp_path):
        # version 1 stored each turn's terminal flag; later versions derive
        # it
        path = tmp_path / "corpus.jsonl"
        write_one_dialogue(path, n_turns=2, terminal=True)
        with pytest.raises(CorpusFormatError, match=re.escape(
                f"{path}:2: unexpected field 'terminal' in turn 0") + "$"):
            load_corpus(str(path))

    def test_log_with_a_dropped_field_names_the_file_and_line(self,
                                                              tmp_path):
        # version 1 stored each dialogue's length; later versions derive it
        path = tmp_path / "corpus.jsonl"
        write_one_dialogue(path, log_fields={"length": 1})
        with pytest.raises(CorpusFormatError, match=re.escape(
                f"{path}:2: unexpected field 'length' in the log") + "$"):
            load_corpus(str(path))

    def test_written_fields_are_the_primary_ones(self, tmp_path, noisy_env):
        # nothing derived from a dialogue's turns is written
        path = tmp_path / "corpus.jsonl"
        save_corpus(generate_corpus(noisy_env, 3, seed=0), path)
        header, *records = map(json.loads, path.read_text().splitlines())
        assert set(header) == {"schema", "version", "space", "feature_names"}
        for record in records:
            assert set(record) == {"provenance", "log"}
            assert set(record["log"]) == {"success", "final_features",
                                          "records"}
            for turn in record["log"]["records"]:
                assert set(turn) == {"features", "action", "reward"}

    @pytest.mark.parametrize("text, message", [
        ("", "empty corpus file"), ("\n", ":1: not JSON"),
        *((json.dumps({"schema": "dialab-corpus", "version": 3,
                       "space": "original", "feature_names": names}),
           f":1: field 'feature_names': {names!r} is not a list of strings")
          for names in (5, None, "f0", ["f0", 1])),
        # a key the format does not write
        (json.dumps({"schema": "dialab-corpus", "version": 3,
                     "space": "original", "feature_names": NAMES,
                     "rating": 3}),
         ":1: unexpected field 'rating' in the header"),
        *((json.dumps({"schema": "dialab-corpus", "version": 3,
                       "space": "original", "feature_names": names}),
           f":1: field 'feature_names': not the original space's layout; "
           f"{fault}")
          for names, fault in (
              (NAMES[::-1], "the same names in another order"),
              (list(SPACES["summary"].feature_names),
               f"missing={NAMES} extra={list(SPACES['summary'].feature_names)}"
               f" (corpus has 60 features, expected 31)"),
              (NAMES[:-1] + ["weird"],
               f"missing={NAMES[-1:]} extra=['weird'] (corpus has 31 "
               f"features, expected 31)"),
              (NAMES + NAMES[:1], "missing=[] extra=[] (corpus has 32 "
                                  "features, expected 31)")))])
    def test_empty_file_and_blank_header_rejected(self, tmp_path, text,
                                                  message):
        path = tmp_path / "corpus.jsonl"
        path.write_text(text)
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            CorpusReader(str(path))

    def test_reader_streams_records_after_the_header(self, tmp_path,
                                                     small_corpus):
        # the header alone is read up front; a bad record surfaces only
        # when the stream reaches its line
        path = tmp_path / "c.jsonl"
        save_corpus(small_corpus, path)
        with open(path, "a") as fh:
            fh.write("\nnot json\n")
        reader = CorpusReader(str(path))
        assert reader.space == small_corpus.space
        stream = iter(reader)
        for kept in small_corpus.dialogues:
            assert turn_lists(next(stream).turns) == turn_lists(kept.turns)
        line = len(small_corpus.dialogues) + 3
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{path}:{line}: not JSON")):
            next(stream)


def write_one_dialogue(path, features=(0.0,) * 31, action=0,
                       final_features=(0.0,) * 31, n_turns=1, success=False,
                       version=3, record_fields=(), log_fields=(),
                       **turn_fields) -> None:
    """An original-space corpus file of one dialogue of ``n_turns`` equal
    turns, its record built from the arguments; ``record_fields`` are added
    to the record, ``log_fields`` to its log and ``turn_fields`` to each
    turn."""
    header = {"schema": "dialab-corpus", "version": version,
              "space": "original", "feature_names": NAMES}
    turn = {"features": list(features), "action": action, "reward": -1.03,
            **turn_fields}
    log = {"success": success, "final_features": list(final_features),
           "records": [turn] * n_turns, **dict(log_fields)}
    record = {"provenance": "handcrafted", "log": log, **dict(record_fields)}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
