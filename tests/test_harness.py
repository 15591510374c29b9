import argparse
import dataclasses
import glob
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dialab import checkpoint, cli, harness, nets
from dialab import corpus as corpus_mod
from dialab.checkpoint import CheckpointError
from dialab.corpus import (CorpusReader, HandcraftedPolicy, generate_corpus,
                           save_corpus)
from dialab.environment import SPACES, Transition, rollout
from dialab.harness import (ConfigError, EpsilonSchedule, ExperimentConfig,
                            compare_runs, config_from_dict, config_to_dict,
                            epsilon, evaluate, load_config, load_curve,
                            train_run)
from dialab.seeding import rng_stream
from reference import (ORIGINAL_ACTIONS, noiseless_channel, pooled_turns,
                       turn_lists)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def smoke_config(tmp_path, algorithm="dqn", **over):
    data = {
        "algorithm": algorithm, "space": "original", "seed": 3,
        "dialogues": 40, "eval_period": 20, "eval_episodes": 10,
        "agent": {"hidden": [16, 12], "warmup": 30, "target_sync": 50},
        "out": str(tmp_path / f"{algorithm}-run"),
    }
    data.update(over)
    return config_from_dict(data)


# code run before train_run in a subprocess, exiting with 9 at one point of
# the dialogue-40 snapshot: after its curve row is written, halfway through
# writing its temporary file, when replacing it, and right after replacing it
KILL_POINTS = {
    "after-row": """
write = harness.write_curve
def write_or_die(path, rows):
    write(path, rows)
    if rows[-1][0] == 40:
        os._exit(9)
harness.write_curve = write_or_die
""",
    "partial-write": """
from dialab import checkpoint
write_npz, saves = checkpoint.write_npz, []
def write_npz_or_die(fh, arrays):
    saves.append(fh)
    if len(saves) == 2:
        fh.write(b"partial")
        fh.flush()
        os._exit(9)
    write_npz(fh, arrays)
checkpoint.write_npz = write_npz_or_die
""",
    "at-replace": """
replace, checkpoints = os.replace, []
def replace_or_die(src, dst):
    if dst.endswith("checkpoint.npz"):
        checkpoints.append(dst)
        if len(checkpoints) == 2:
            os._exit(9)
    replace(src, dst)
os.replace = replace_or_die
""",
    "after-replace": """
replace, checkpoints = os.replace, []
def replace_then_die(src, dst):
    replace(src, dst)
    if dst.endswith("checkpoint.npz"):
        checkpoints.append(dst)
        if len(checkpoints) == 2:
            os._exit(9)
os.replace = replace_then_die
""",
}


def assert_same_arrays(path_a, path_b):
    with np.load(path_a) as a, np.load(path_b) as b:
        assert sorted(a.files) == sorted(b.files)
        for key in a.files:
            assert a[key].dtype == b[key].dtype, (path_a, key)
            assert a[key].shape == b[key].shape, (path_a, key)
            assert a[key].tobytes() == b[key].tobytes(), (path_a, key)


def directory_bytes(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


def write_runs(root, label, *grids_and_success):
    """A run directory ``root/label`` with one seed curve per (grid,
    success) pair; returns the ``label=dir`` spec."""
    for seed, (grid, success) in enumerate(grids_and_success):
        run_dir = root / label / f"seed-{seed}"
        run_dir.mkdir(parents=True)
        with open(run_dir / "curve.csv", "w") as fh:
            fh.write(harness.CURVE_HEADER + "\n")
            for d in grid:
                fh.write(f"{d},{success},0.0,8.0,0.0\n")
    return f"{label}={root / label}"


class TestEpsilonSchedule:
    def test_starts_at_half(self):
        assert epsilon(EpsilonSchedule(), 0) == 0.5

    def test_geometric_value_at_100000(self):
        s = EpsilonSchedule(floor=0.0)
        value = epsilon(s, 100000)
        assert abs(value - 0.5 * 0.99995 ** 100000) <= 1e-12
        assert abs(value - 0.00337) <= 5e-5
        # with the default floor the schedule has bottomed out well before
        assert epsilon(EpsilonSchedule(), 100000) == 0.05

    def test_floor_reached_in_the_limit(self):
        assert epsilon(EpsilonSchedule(floor=0.07), 10 ** 7) == 0.07

    def test_nonincreasing(self):
        s = EpsilonSchedule()
        values = [epsilon(s, t) for t in range(0, 20000, 500)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            EpsilonSchedule(start=0.4, floor=0.5)

    def test_three_fields(self):
        assert [f.name for f in dataclasses.fields(EpsilonSchedule)] == [
            "start", "rate", "floor"]

    @pytest.mark.parametrize("start, rate, floor, t, value", [
        (0.5, 0.9, 0.0, 0, 0.5),
        (0.5, 0.0, 0.0, 0, 0.5),
        (0.5, 0.0, 0.1, 1, 0.1),
        (0.5, 1.0, 0.1, 10 ** 9, 0.5),
        (0.5, 0.5, 0.0, 3, 0.0625),
        (0.5, 0.5, 0.0, 10 ** 4, 0.0),
        (0.3, 0.7, 0.3, 5, 0.3)],
        ids=["t0", "rate0-t0", "rate0-t1", "rate1", "halving", "underflow",
             "start-is-floor"])
    def test_one_expression_at_its_edges(self, start, rate, floor, t, value):
        # max(floor, start * rate ** t), with 0 ** 0 = 1 and an underflow
        # to 0 that the floor then holds
        s = EpsilonSchedule(start=start, rate=rate, floor=floor)
        assert epsilon(s, t) == value == max(floor, start * rate ** t)


class TestEvaluate:
    def test_handcrafted_noiseless_is_perfect(self):
        cfg = ExperimentConfig(space="original", seed=2,
                               error=noiseless_channel())
        _, _, env = harness.build_world(cfg)
        success, mean_return, mean_length = evaluate(
            HandcraftedPolicy("original"), env, 200, seed=2)
        assert success == 1.0
        assert mean_return > 0.5
        assert mean_length < 12

    def test_always_repeat_scores_minus_1_90(self):
        cfg = ExperimentConfig(space="original", seed=2)
        _, _, env = harness.build_world(cfg)
        repeat = ORIGINAL_ACTIONS.index("repeat")
        success, mean_return, mean_length = evaluate(
            lambda f: repeat, env, 50, seed=2)
        assert success == 0.0
        assert abs(mean_return - (-1.90)) <= 1e-9
        assert mean_length == 30.0

    def test_same_eval_seed_identical_aggregates(self):
        cfg = ExperimentConfig(space="original", seed=5)
        _, _, env = harness.build_world(cfg)
        policy = HandcraftedPolicy("original")
        assert evaluate(policy, env, 60, seed=9) == \
            evaluate(policy, env, 60, seed=9)

    def test_matches_means_of_logged_episodes(self):
        cfg = ExperimentConfig(space="original", seed=4)
        _, _, env = harness.build_world(cfg)
        policy = HandcraftedPolicy("original")
        logs = [tuple(rollout(env, policy, rng_stream(4, "eval", i)))
                for i in range(40)]
        assert evaluate(policy, env, 40, seed=4) == (
            float(np.mean([x[-1].success for x in logs])),
            float(np.mean([sum(t.reward for t in x) for x in logs])),
            float(np.mean([len(x) for x in logs])))

    def test_training_stream_untouched_by_evaluation(self):
        # interleaving an evaluation must not change training episodes
        cfg = ExperimentConfig(space="original", seed=5)
        _, _, env = harness.build_world(cfg)
        policy = HandcraftedPolicy("original")
        first = turn_lists(rollout(env, policy, rng_stream(5, "train", 1)))
        evaluate(policy, env, 20, seed=5)
        second = turn_lists(rollout(env, policy, rng_stream(5, "train", 1)))
        assert first == second


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"algorithm": "dqn", "typo_field": 1})
        with pytest.raises(ConfigError, match="agent"):
            config_from_dict({"agent": {"hiden": [4]}})

    @pytest.mark.parametrize("key, value", [
        ("dialogues", 0), ("eval_period", 0), ("eval_episodes", -2)])
    def test_protocol_count_below_one_names_the_field(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(
                f"{key}={value} must be in [1, inf)")):
            config_from_dict({"algorithm": "dqn", key: value})

    @pytest.mark.parametrize("seed", [-1, 2 ** 32, 2 ** 32 + 1])
    def test_seed_that_would_run_as_another_is_refused(self, seed):
        # rng_stream folds seeds to 32 bits: -1 would run as 2^32 - 1, and
        # 2^32 + 1 as 1, each writing to a seed directory of its own
        with pytest.raises(ConfigError, match=re.escape(
                f"seed={seed} must be in [0, 4294967296)")):
            config_from_dict({"algorithm": "dqn", "seed": seed})
        for edge in (0, 2 ** 32 - 1):
            assert config_from_dict({"seed": edge}).seed == edge

    def test_gamma_range_names_the_field(self):
        with pytest.raises(ConfigError, match="gamma=1.5"):
            config_from_dict({"algorithm": "dqn", "gamma": 1.5})

    @pytest.mark.parametrize("key, value", [
        ("minibatch", 0), ("target_sync", 0), ("l2", -1), ("sup_holdout", 1.5)])
    def test_bad_agent_value_names_the_field(self, key, value):
        with pytest.raises(ConfigError,
                           match=f"^agent.{key}={value} must be in "):
            config_from_dict({"algorithm": "dqn", "agent": {key: value}})

    @pytest.mark.parametrize("key, value, interval", [
        ("max_dictionary", 0, "[1, inf)"), ("nu", -1, "[0, inf)"),
        ("length_scale", 0, "(0, inf)"), ("signal_var", -1.0, "(0, inf)"),
        ("noise_var", 0.0, "(0, inf)")])
    def test_bad_gp_value_names_the_field(self, key, value, interval):
        with pytest.raises(ConfigError, match=re.escape(
                f"gp.{key}={value} must be in {interval}") + "$"):
            config_from_dict({"algorithm": "gpsarsa", "gp": {key: value}})

    def test_key_layout_held(self):
        # the README's JSON layout: these sections and keys, no others
        data = config_to_dict(config_from_dict({}))
        assert sorted(data) == [
            "agent", "algorithm", "db_size", "dialogues", "epsilon", "error",
            "eval_episodes", "eval_period", "failure_reward", "gamma", "goals",
            "gp", "max_turns", "out", "pretrain", "seed", "space",
            "success_reward", "turn_penalty", "user"]
        assert {k: sorted(v) for k, v in data.items()
                if isinstance(v, dict)} == {
            "agent": ["batch_sweeps", "eps_num", "hidden", "l2",
                      "minibatch", "pool_capacity", "rho", "sup_batch",
                      "sup_epochs", "sup_holdout", "target_sync", "warmup"],
            "epsilon": ["floor", "rate", "start"],
            "error": ["concentration", "nbest_size", "p_confuse", "p_drop"],
            "goals": ["constraint_probs", "request_count_weights",
                      "satisfiable_frac"],
            "gp": ["length_scale", "max_dictionary", "noise_var", "nu",
                   "signal_var"],
            "pretrain": ["corpus", "mode"],
            "user": ["p_multi_act", "p_null"]}

    def test_roundtrip(self):
        cfg = config_from_dict({"algorithm": "ddqn", "seed": 11,
                                "agent": {"minibatch": 16},
                                "goals": {"request_count_weights": {"1": 1.0}}})
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_the_space_owns_its_exploration_set(self):
        # the eight original actions that are not select-*, in index order,
        # and every summary action
        original = SPACES["original"].explored
        assert original == tuple(i for i, a in enumerate(ORIGINAL_ACTIONS)
                                 if not a.startswith("select-"))
        assert len(original) == 8
        assert [ORIGINAL_ACTIONS[i] for i in range(11)
                if i not in original] == ["select-area", "select-food",
                                          "select-pricerange"]
        assert SPACES["summary"].explored == tuple(range(7))
        _, _, env = harness.build_world(config_from_dict({"space": "summary"}))
        assert env.space.explored is SPACES["summary"].explored

    def test_file_loading_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "dqn", "dialogues": 100}))
        cfg = load_config(str(path), ["dialogues=25", "agent.minibatch=8",
                                      "space=summary"])
        assert cfg.dialogues == 25
        assert cfg.agent.minibatch == 8
        assert cfg.space == "summary"

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_tda2c_requires_supervised_pretraining(self, tmp_path):
        cfg = smoke_config(tmp_path, algorithm="tda2c")
        with pytest.raises(ConfigError, match="tda2c"):
            train_run(cfg)

    # the pretrain modes each algorithm takes: batch RL for every deep
    # learner, the supervised stage for the actor-critics alone
    PRETRAIN_RULE = {
        "gpsarsa": {"none"},
        "dqn": {"none", "batch"},
        "ddqn": {"none", "batch"},
        "da2c": {"none", "batch", "sup_full_batch", "sup_expert_batch"},
        "tda2c": {"sup_full_batch", "sup_expert_batch"},
    }

    @pytest.mark.parametrize("mode", harness.PRETRAIN_MODES)
    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_pretraining_rule(self, algorithm, mode):
        cfg = config_from_dict({"algorithm": algorithm, "pretrain": {
            "mode": mode, "corpus": "x.jsonl"}})
        for required in (False, True):
            if (mode in self.PRETRAIN_RULE[algorithm]
                    and not (required and mode == "none")):
                harness.check_pretraining(cfg, required)
            else:
                with pytest.raises(ConfigError):
                    harness.check_pretraining(cfg, required)


class TestTrainRun:
    def test_curve_rows_every_eval_period(self, tmp_path):
        cfg = smoke_config(tmp_path)
        rows = train_run(cfg)
        assert [r[0] for r in rows] == [0, 20, 40]
        saved = load_curve(os.path.join(cfg.out, "curve.csv"))
        assert [r[0] for r in saved] == [0, 20, 40]

    def test_identical_config_identical_curves(self, tmp_path):
        c1 = smoke_config(tmp_path, out=str(tmp_path / "a"))
        c2 = smoke_config(tmp_path, out=str(tmp_path / "b"))
        r1 = train_run(c1)
        r2 = train_run(c2)
        assert [row[:4] for row in r1] == [row[:4] for row in r2]

    @pytest.mark.parametrize("algorithm",
                             ["dqn", "dqn-wrapped", "da2c", "tda2c",
                              "gpsarsa", "gpsarsa-capped"])
    def test_resume_reproduces_fresh_run(self, tmp_path, algorithm):
        # dqn-wrapped: a 64-row pool, wrapped before the resume point;
        # tda2c: pretrained on a corpus, and resumed without its pool
        if algorithm.startswith("gpsarsa"):
            # capped at 30 points, the dictionary is full before the resume
            # point, so the resumed run projects onto a loaded dictionary
            cap = 30 if algorithm == "gpsarsa-capped" else 200

            def config(out, dialogues):
                return config_from_dict({
                    "algorithm": "gpsarsa", "space": "summary", "seed": 1,
                    "dialogues": dialogues, "eval_period": 20,
                    "eval_episodes": 8,
                    "gp": {"nu": 0.3, "max_dictionary": cap},
                    "out": str(tmp_path / out)})
            total = 60
        else:
            over = {}
            if algorithm == "dqn-wrapped":
                over["agent"] = {"hidden": [16, 12], "warmup": 30,
                                 "target_sync": 50, "pool_capacity": 64}
            elif algorithm == "tda2c":
                corpus = str(tmp_path / "corpus.jsonl")
                env = harness.build_world(smoke_config(tmp_path))[2]
                save_corpus(generate_corpus(env, 30, seed=3), corpus)
                over["agent"] = {"hidden": [16, 12], "sup_epochs": 2}
                over["pretrain"] = {"mode": "sup_full_batch",
                                    "corpus": corpus}

            def config(out, dialogues):
                return smoke_config(tmp_path,
                                    algorithm=algorithm.split("-")[0],
                                    out=str(tmp_path / out),
                                    dialogues=dialogues, **over)
            total = 40
        r_full = train_run(config("full", total))
        train_run(config("half", 20))
        with np.load(tmp_path / "half" / "checkpoint.npz") as half:
            if algorithm == "gpsarsa-capped":
                assert len(half["points_a"]) == cap
            meta = json.loads(bytes(half["__meta__"]))
            if algorithm == "dqn-wrapped":
                assert meta["pool.size"] == 64 and meta["pool.cursor"] > 0
            if algorithm == "tda2c":
                # after pretraining no step reads the pool: it stays out
                assert not [k for k in half.files if k.startswith("pool.")]
        r_resumed = train_run(config("half", total), resume=True)
        assert [row[:4] for row in r_full] == [row[:4] for row in r_resumed]
        # the saved learner state, not just the curve, matches bit for bit
        assert_same_arrays(tmp_path / "full" / "checkpoint.npz",
                           tmp_path / "half" / "checkpoint.npz")

    @pytest.mark.parametrize("algorithm, older", [
        ("dqn", {"q.head": "linear", "target.head": "linear"}),
        ("da2c", {"policy.head": "softmax", "value.head": "scalar",
                  "value_steps": 0})])
    def test_resume_from_a_snapshot_with_the_older_meta_keys(
            self, tmp_path, algorithm, older):
        # snapshots written while a net had a head setting hold each net's
        # head, and the actor-critic's its pretraining step count; a resume
        # from one matches the uninterrupted run
        def config(out, dialogues):
            return smoke_config(tmp_path, algorithm=algorithm,
                                out=str(tmp_path / out), dialogues=dialogues)
        r_full = train_run(config("full", 40))
        train_run(config("half", 20))
        path = tmp_path / "half" / "checkpoint.npz"
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays.pop("__meta__")))
        # the older writer's order: each net's spec, then the counters
        layout = {}
        for key, value in meta.items():
            if key == "episodes_done" and "value_steps" in older:
                layout["value_steps"] = older["value_steps"]
            layout[key] = value
            head = key.replace(".layer_sizes", ".head")
            if head in older:
                layout[head] = older[head]
        assert layout.keys() - meta.keys() == older.keys()
        record = np.frombuffer(json.dumps(layout).encode(), dtype=np.uint8)
        checkpoint.replace_file(str(path), lambda fh: checkpoint.write_npz(
            fh, {"__meta__": record, **arrays}))
        r_resumed = train_run(config("half", 40), resume=True)
        assert [row[:4] for row in r_full] == [row[:4] for row in r_resumed]
        assert_same_arrays(tmp_path / "full" / "checkpoint.npz", path)

    def test_schedule_steps_once_per_transition_across_a_resume(
            self, tmp_path, monkeypatch):
        # each training turn reads epsilon at the number of transitions
        # before it, a resumed run continues that count from its snapshot,
        # and the snapshot holds the count after the last turn
        steps = []

        def recorded(schedule, t):
            steps.append(t)
            return epsilon(schedule, t)
        monkeypatch.setattr(harness, "epsilon", recorded)
        cfg = smoke_config(tmp_path, dialogues=20, epsilon={"rate": 0.9})
        train_run(cfg)
        half = len(steps)
        train_run(dataclasses.replace(cfg, dialogues=40), resume=True)
        with np.load(os.path.join(cfg.out, "checkpoint.npz")) as data:
            meta = json.loads(bytes(data["__meta__"]))
        assert 20 < half < len(steps)
        assert steps == list(range(len(steps)))
        assert meta["schedule_t"] == len(steps)

    @pytest.mark.parametrize("algorithm", ["dqn", "da2c", "gpsarsa"])
    def test_each_turn_is_observed_with_the_epsilon_it_was_drawn_under(
            self, tmp_path, monkeypatch, algorithm):
        # one observe call for every agent, with the turn's epsilon
        drawn, observed = [], []

        def recorded(schedule, t):
            drawn.append(epsilon(schedule, t))
            return drawn[-1]
        monkeypatch.setattr(harness, "epsilon", recorded)
        cfg = smoke_config(tmp_path, algorithm=algorithm, dialogues=4,
                           epsilon={"rate": 0.99})
        agent_class = type(harness.build_agent(cfg,
                                               harness.build_world(cfg)[2]))
        observe = agent_class.observe

        def spied(agent, t, rng, eps):
            observed.append(eps)
            return observe(agent, t, rng, eps)
        monkeypatch.setattr(agent_class, "observe", spied)
        train_run(cfg)
        assert observed == drawn
        assert len(set(drawn)) == len(drawn) > 4

    @pytest.mark.parametrize("kill", sorted(KILL_POINTS))
    def test_resume_after_kill_inside_checkpoint_write(self, tmp_path, kill):
        # killed around the dialogue-40 eval point, after its row reached
        # curve.csv: the snapshot on disk is dialogue 20's, or with
        # "after-replace" dialogue 40's
        killed = smoke_config(tmp_path, out=str(tmp_path / "killed"))
        code = f"""
import json, os, sys
import numpy as np
from dialab import harness
{KILL_POINTS[kill]}
harness.train_run(harness.config_from_dict(json.loads(sys.argv[1])))
"""
        paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(config_to_dict(killed))],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 9, proc.stderr
        curve = os.path.join(killed.out, "curve.csv")
        assert [row[0] for row in load_curve(curve)] == [0, 20, 40]
        temporary = os.path.join(killed.out, "*.tmp")
        assert bool(glob.glob(temporary)) == (kill in ("at-replace",
                                                       "partial-write"))

        resumed = train_run(killed, resume=True)
        fresh_cfg = smoke_config(tmp_path, out=str(tmp_path / "fresh"))
        fresh = [row[:4] for row in train_run(fresh_cfg)]
        assert [row[:4] for row in resumed] == fresh
        assert [row[:4] for row in load_curve(curve)] == fresh
        assert_same_arrays(os.path.join(killed.out, "checkpoint.npz"),
                           os.path.join(fresh_cfg.out, "checkpoint.npz"))
        assert not glob.glob(temporary)

    def test_resume_refuses_parent_layout_checkpoint(self, tmp_path):
        # the older layout kept the pool and the run counters in pool.npz
        # and state.json; its agent-only checkpoint.npz cannot be resumed
        cfg = smoke_config(tmp_path, dialogues=20)
        train_run(cfg)
        agent = harness.build_agent(cfg, harness.build_world(cfg)[2])
        old = checkpoint.compose({"train_steps": 0}, q=agent.qnet.state(),
                                 target=agent.target.state(),
                                 opt=agent.opt.state())
        checkpoint.save(os.path.join(cfg.out, "checkpoint.npz"), "qagent",
                        old)
        with pytest.raises(CheckpointError, match="pool.capacity"):
            train_run(smoke_config(tmp_path, dialogues=40), resume=True)

    @pytest.mark.parametrize("layout", ["next_features", "held_slots"])
    def test_resume_refuses_previous_pool_layout(self, tmp_path, layout):
        # earlier layouts wrote the pool's next states as a
        # pool.next_features column, or as pool.held_slots with their
        # pool.held_next states, in place of pool.newest_next
        cfg = smoke_config(tmp_path, dialogues=20)
        train_run(cfg)
        path = os.path.join(cfg.out, "checkpoint.npz")
        agent = harness.build_agent(cfg, harness.build_world(cfg)[2])
        agent.load(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files
                      if k != "pool.newest_next"}
        if layout == "next_features":
            arrays["pool.next_features"] = agent.pool.batch(
                np.arange(len(agent.pool)))[3]
        else:
            arrays["pool.held_slots"] = np.array([len(agent.pool) - 1])
            arrays["pool.held_next"] = agent.pool.batch(
                np.array([len(agent.pool) - 1]))[3]
        checkpoint.replace_file(
            path, lambda fh: checkpoint.write_npz(fh, arrays))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: missing counters []; arrays [")) as refused:
            train_run(smoke_config(tmp_path, dialogues=40), resume=True)
        assert f"'pool.{layout}'" in str(refused.value)
        assert "'pool.newest_next'" in str(refused.value)

    @pytest.mark.parametrize("algorithm", ["dqn", "gpsarsa"])
    def test_resume_refuses_checkpoint_without_run_counters(self, tmp_path,
                                                            algorithm):
        # an agent file without run counters, as `dialab pretrain --out`
        # writes for the actor-critic agents
        cfg = smoke_config(tmp_path, algorithm=algorithm, dialogues=20)
        train_run(cfg)
        harness.build_agent(cfg, harness.build_world(cfg)[2]).save(
            os.path.join(cfg.out, "checkpoint.npz"))
        with pytest.raises(CheckpointError, match="episodes_done"):
            train_run(dataclasses.replace(cfg, dialogues=40), resume=True)

    def test_finished_run_directory_holds_one_snapshot(self, tmp_path):
        cfg = smoke_config(tmp_path)
        train_run(cfg)
        assert sorted(os.listdir(cfg.out)) == [
            "checkpoint.npz", "config.json", "curve.csv"]

    def test_fresh_run_clears_the_previous_snapshot(self, tmp_path,
                                                    monkeypatch):
        # a fresh run killed before its first eval point must not leave
        # another run's snapshot for a later --resume to load
        cfg = smoke_config(tmp_path, dialogues=20)
        train_run(cfg)
        for name in ("pool.npz", "state.json", "checkpoint.npz.123.tmp"):
            (tmp_path / "dqn-run" / name).write_bytes(b"stale")

        def killed(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(harness, "evaluate", killed)
        with pytest.raises(KeyboardInterrupt):
            train_run(cfg)
        assert sorted(os.listdir(cfg.out)) == ["config.json"]
        monkeypatch.undo()
        assert [row[0] for row in train_run(cfg, resume=True)] == [0, 20]

    @pytest.mark.parametrize("key, value", [
        ("seed", 9), ("eval_episodes", 7), ("gamma", 0.5),
        ("agent.minibatch", 16), ("epsilon.floor", 0.2)])
    def test_resume_refuses_a_changed_config(self, tmp_path, key, value):
        cfg = smoke_config(tmp_path, dialogues=20)
        train_run(cfg)
        before = directory_bytes(tmp_path / "dqn-run")
        # extending the run is allowed; the changed key is not
        data = config_to_dict(dataclasses.replace(cfg, dialogues=40))
        *parents, last = key.split(".")
        node = data
        for part in parents:
            node = node[part]
        old, node[last] = node[last], value
        with pytest.raises(ConfigError) as refused:
            train_run(config_from_dict(data), resume=True)
        assert f"{key} from {old!r} to {value!r}" in str(refused.value)
        assert directory_bytes(tmp_path / "dqn-run") == before

    def test_finished_run_resumes_as_its_own_cache(self, tmp_path,
                                                   monkeypatch):
        cfg = smoke_config(tmp_path)
        train_run(cfg)
        rows = load_curve(os.path.join(cfg.out, "curve.csv"))
        before = directory_bytes(tmp_path / "dqn-run")

        def evaluate(*args):
            raise AssertionError("a finished run was evaluated again")
        monkeypatch.setattr(harness, "evaluate", evaluate)
        assert train_run(cfg, resume=True) == rows
        assert directory_bytes(tmp_path / "dqn-run") == before
        # a shorter run is refused, not served the longer curve
        with pytest.raises(ConfigError, match="dialogues=20"):
            train_run(dataclasses.replace(cfg, dialogues=20), resume=True)
        assert directory_bytes(tmp_path / "dqn-run") == before

    def test_extending_resume_rewrites_config(self, tmp_path):
        cfg = smoke_config(tmp_path, dialogues=20)
        train_run(cfg)
        extended = dataclasses.replace(cfg, dialogues=40)
        assert [row[0] for row in train_run(extended, resume=True)] == [
            0, 20, 40]
        with open(os.path.join(cfg.out, "config.json")) as fh:
            stored = json.load(fh)
        assert stored["dialogues"] == 40
        assert config_from_dict(stored) == extended

    def test_config_serialized_verbatim(self, tmp_path):
        cfg = smoke_config(tmp_path)
        train_run(cfg)
        with open(os.path.join(cfg.out, "config.json")) as fh:
            assert config_from_dict(json.load(fh)) == cfg

    def test_numpy_scalars_write_the_config_of_plain_ones(self, tmp_path):
        # a config built in code may hold numpy scalars; config.json holds
        # plain numbers, the same bytes as for the plain config
        cfg = smoke_config(tmp_path, dialogues=20)
        path = os.path.join(cfg.out, "config.json")
        train_run(cfg)
        with open(path, "rb") as fh:
            plain = fh.read()
        train_run(dataclasses.replace(cfg, seed=np.int64(3),
                                      dialogues=np.int64(20),
                                      gamma=np.float64(0.99)))
        with open(path, "rb") as fh:
            assert fh.read() == plain

    def test_gpsarsa_smoke(self, tmp_path):
        cfg = config_from_dict({
            "algorithm": "gpsarsa", "space": "summary", "seed": 1,
            "dialogues": 30, "eval_period": 15, "eval_episodes": 8,
            "gp": {"nu": 0.3, "max_dictionary": 200},
            "out": str(tmp_path / "gp-run")})
        rows = train_run(cfg)
        assert len(rows) == 3
        assert all(np.isfinite(r[1]) for r in rows)

    def test_da2c_smoke(self, tmp_path):
        cfg = smoke_config(tmp_path, algorithm="da2c")
        rows = train_run(cfg)
        assert len(rows) == 3


class TestPretraining:
    @pytest.fixture(scope="class")
    def corpus_file(self, tmp_path_factory):
        """A 200-dialogue corpus, in memory and saved."""
        _, _, env = harness.build_world(ExperimentConfig(seed=6))
        built = generate_corpus(env, 200, seed=6)
        path = str(tmp_path_factory.mktemp("corpus") / "corpus.jsonl")
        save_corpus(built, path)
        return built, path

    @staticmethod
    def pretrained(corpus_path, mode="sup_full_batch", algorithm="tda2c",
                   space="original"):
        cfg = config_from_dict({
            "algorithm": algorithm, "space": space, "seed": 6,
            "agent": {"hidden": [16, 12], "sup_epochs": 2, "batch_sweeps": 1},
            "pretrain": {"mode": mode, "corpus": corpus_path}})
        _, _, env = harness.build_world(cfg)
        agent = harness.build_agent(cfg, env)
        return cfg, env, agent

    @staticmethod
    def snapshot(agent, path):
        """The bytes of each array ``agent`` saves."""
        agent.save(str(path))
        with np.load(path) as data:
            return {k: data[k].tobytes() for k in data.files}

    @pytest.mark.parametrize("mode", ["batch", "sup_full_batch",
                                      "sup_expert_batch"])
    def test_file_and_memory_give_the_same_snapshot(self, tmp_path,
                                                    monkeypatch, corpus_file,
                                                    mode):
        built, path = corpus_file
        snapshots, read = [], []
        for source in ("file", "memory"):
            if source == "memory":
                monkeypatch.setattr(corpus_mod, "CorpusReader",
                                    lambda path: read.append(path) or built)
            cfg, env, agent = self.pretrained(path, mode)
            harness.run_pretraining(cfg, env, agent)
            snapshots.append(self.snapshot(agent, tmp_path / f"{source}.npz"))
        assert read == [path] and snapshots[0] == snapshots[1]
        assert len(agent.pool) == sum(len(d.turns) for d in built.dialogues)

    @staticmethod
    def pretrain_in_agent(agent, data, supervised, rng):
        """The two stages as ActorCriticAgent.pretrain ran them before
        pretraining moved to the harness: the supervised stage on the rows
        of the boolean mask ``supervised`` (None skips it), then batch
        value RL over every row, each added to the pool on its own."""
        stats = {"supervised_examples": 0, "holdout_accuracy": None,
                 "value_sweeps": 0}
        if not len(data):
            return stats
        if supervised is not None and supervised.any():
            rows = np.flatnonzero(supervised)
            order = rng.permutation(len(rows))
            n_hold = int(len(rows) * agent.config.sup_holdout)
            hold, train = rows[order[:n_hold]], rows[order[n_hold:]]
            stats["supervised_examples"] = len(train)
            for _ in range(agent.config.sup_epochs):
                perm = rng.permutation(len(train))
                for start in range(0, len(perm), agent.config.sup_batch):
                    sel = train[perm[start:start + agent.config.sup_batch]]
                    agent.supervised_step(data.features[sel],
                                          data.actions[sel])
            if len(hold):
                pred = nets.softmax(agent.policy.forward_batch(
                    data.features[hold])).argmax(axis=1)
                stats["holdout_accuracy"] = float(
                    np.mean(pred == data.actions[hold]))
        for row in zip(data.features, data.actions, data.rewards,
                       data.next_features, data.terminal):
            agent.pool.add(Transition(*row, success=False))
        per_sweep = max(1, len(data) // agent.config.minibatch)
        for _ in range(agent.config.batch_sweeps):
            for _ in range(per_sweep):
                agent.last_value_loss = agent.value_train_step(rng)
            stats["value_sweeps"] += 1
        return stats

    @pytest.mark.parametrize("mode", ["batch", "sup_full_batch",
                                      "sup_expert_batch"])
    def test_rows_by_index_match_the_masked_copy(self, tmp_path, corpus_file,
                                                 mode):
        # the harness's stages leave the agent as the in-agent pipeline,
        # given the mode's row mask, did
        _, path = corpus_file
        runs = []
        for source in ("harness", "in-agent"):
            cfg, env, agent = self.pretrained(path, mode)
            if source == "harness":
                stats = harness.run_pretraining(cfg, env, agent)
            else:
                data = pooled_turns(CorpusReader(path))
                mask = {"batch": None,
                        "sup_full_batch": np.ones(len(data), dtype=bool),
                        "sup_expert_batch": data.rating == 3}[mode]
                stats = self.pretrain_in_agent(
                    agent, data, mask, rng_stream(cfg.seed, "pretrain"))
                stats["mode"] = mode
            runs.append((stats, self.snapshot(agent,
                                              tmp_path / f"{source}.npz")))
        assert (runs[0][0]["holdout_accuracy"] is None) == (mode == "batch")
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("algorithm", ["dqn", "ddqn"])
    def test_q_agents_take_batch_rl(self, tmp_path, monkeypatch, corpus_file,
                                    algorithm):
        built, path = corpus_file
        data = pooled_turns(built)
        snapshots = []
        for source in ("file", "memory"):
            if source == "memory":
                monkeypatch.setattr(corpus_mod, "CorpusReader",
                                    lambda path: built)
            cfg, env, agent = self.pretrained(path, "batch", algorithm)
            stats = harness.run_pretraining(cfg, env, agent)
            snapshots.append(self.snapshot(agent, tmp_path / f"{source}.npz"))
        assert snapshots[0] == snapshots[1]
        assert stats == {"supervised_examples": 0, "holdout_accuracy": None,
                         "value_sweeps": 1, "mode": "batch"}
        # the pool holds the corpus turns in order, swept once
        assert len(agent.pool) == len(data)
        pooled = agent.pool.batch(np.arange(len(data)))
        for got, want in zip(pooled, (data.features, data.actions,
                                      data.rewards, data.next_features,
                                      data.terminal)):
            assert np.array_equal(got, want)
        assert agent.train_steps == (cfg.agent.batch_sweeps
                                     * max(1, len(data) // cfg.agent.minibatch))

    def test_layout_checked_before_any_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({
            "schema": "dialab-corpus", "version": 3, "space": "original",
            "feature_names": list(SPACES["original"].feature_names)})
            + "\nnot json\n")
        cfg, env, agent = self.pretrained(str(path), space="summary")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: a corpus of the original space; this run's space "
                f"is summary")):
            harness.run_pretraining(cfg, env, agent)
        assert len(agent.pool) == 0

    def test_peak_memory_is_a_small_multiple_of_the_arrays(self,
                                                           corpus_file):
        # the corpus goes straight into the agent's preallocated pool, never
        # held as per-turn objects or as arrays beside it: the traced peak
        # is 0.31x the pooled arrays, most of it the supervised holdout's
        # forward pass and the pool's one held final belief per dialogue
        # (0.08x; 1.8x when arrays were built and then copied in), and one
        # copy of the feature columns alone is 0.48x
        _, path = corpus_file
        data = pooled_turns(CorpusReader(path))
        array_bytes = sum(a.nbytes for a in vars(data).values())
        cfg, env, agent = self.pretrained(path)
        tracemalloc.start()
        try:
            harness.run_pretraining(cfg, env, agent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < array_bytes / 3, (peak, array_bytes)


class TestCompare:
    def curve(self, reach_at, grid=(0, 1000, 2000, 3000, 4000, 5000)):
        return [(d, 0.95 if d >= reach_at else 0.3, 0.5, 8.0, float(d))
                for d in grid]

    def test_ordering_by_median(self):
        _, reach = compare_runs({
            "fast": [self.curve(3000), self.curve(3000), self.curve(2000)],
            "slow": [self.curve(5000), self.curve(5000), self.curve(4000)],
        }, threshold=0.9)
        assert reach == {"fast": [3000, 3000, 2000],
                         "slow": [5000, 5000, 4000]}
        assert harness.holds_order(reach, ["fast", "slow"])
        assert not harness.holds_order(reach, ["slow"])

    def test_median_rule_on_disagreeing_seeds(self):
        _, reach = compare_runs({
            "x": [self.curve(1000), self.curve(5000), self.curve(2000)],
            "y": [self.curve(3000)],
        }, threshold=0.9)
        # x's seeds reach at 1000, 5000 and 2000: its median, 2000, is
        # faster than y's 3000 though its slowest seed is not
        assert reach["x"] == [1000, 5000, 2000]
        assert harness.holds_order(reach, ["x", "y"])

    def test_threshold_from_best_fraction(self):
        threshold, _ = compare_runs({"only": [self.curve(2000)]},
                                    threshold=None)
        assert abs(threshold - 0.9 * 0.95) <= 1e-12

    def test_threshold_from_the_best_median_curve(self):
        # one lucky seed peaks at 0.95; the label's median curve at 0.6
        lucky = [(d, s, 0.5, 8.0, 0.0) for d, s in ((0, 0.3), (1000, 0.6),
                                                    (2000, 0.95))]
        plain = [(d, s, 0.5, 8.0, 0.0) for d, s in ((0, 0.3), (1000, 0.6),
                                                    (2000, 0.6))]
        threshold, reach = compare_runs({"x": [lucky, plain, list(plain)]})
        assert abs(threshold - 0.9 * 0.6) <= 1e-12
        assert reach["x"] == [1000, 1000, 1000]

    def test_never_reaching_is_infinite(self):
        _, reach = compare_runs({"never": [self.curve(99999)]}, threshold=0.9)
        assert math.isinf(reach["never"][0])
        assert not harness.holds_order(reach, ["never"])

    def test_collapsed_runs_never_reach_a_zero_threshold(self):
        # no median rises above 0, so the derived threshold is 0; a seed at
        # 0.0 has not reached it, and one that rises has
        flat = [(d, 0.0, -1.0, 30.0, 0.0) for d in (0, 1000, 2000)]
        risen = [(0, 0.0, -1.0, 30.0, 0.0), (1000, 0.3, 0.0, 9.0, 0.0),
                 (2000, 0.0, -1.0, 30.0, 0.0)]
        threshold, reach = compare_runs({"da2c": [flat, list(flat)],
                                         "dqn": [flat, list(flat), risen]})
        assert threshold == 0.0
        assert reach == {"da2c": [math.inf, math.inf],
                         "dqn": [math.inf, math.inf, 1000]}

    def test_mismatched_grids_rejected(self):
        broken = [self.curve(1000), self.curve(1000, grid=(0, 500))]
        with pytest.raises(ValueError, match="grid"):
            compare_runs({"x": broken}, threshold=0.9)

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            compare_runs({"x": []}, threshold=0.9)

    def test_median_curve_per_eval_point(self):
        seeds = [[(0, s, r, 8.0, 0.0), (1000, s + 0.5, -r, 8.0, 0.0)]
                 for s, r in ((0.1, 1.0), (0.4, 3.0), (0.2, 2.0))]
        rows = harness.median_curve("x", seeds)
        # dialogues, median, min and max success, median return
        assert [row[0] for row in rows] == [0, 1000]
        assert np.allclose([row[1:] for row in rows],
                           [(0.2, 0.1, 0.4, 2.0), (0.7, 0.6, 0.9, -2.0)])

    @pytest.mark.parametrize("row, message", [
        ("500,0.5,0.0", "not enough values to unpack"),
        ("many,0.5,0.0,8.0,0.0", "invalid literal for int()"),
        ("500,0.5,0.0,8.0,soon", "could not convert string to float")])
    def test_bad_curve_row_names_the_file_and_line(self, tmp_path, row,
                                                   message):
        path = tmp_path / "curve.csv"
        path.write_text(f"{harness.CURVE_HEADER}\n0,0.2,0.0,8.0,0.0\n\n{row}\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:4: {message}")):
            load_curve(str(path))

    def test_order_naming_an_unknown_label_is_a_config_error(self):
        _, reach = compare_runs({"a": [self.curve(1000)]}, threshold=0.9)
        with pytest.raises(ConfigError, match="'nope'"):
            harness.holds_order(reach, ["a", "nope"])


class TestCli:
    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "nope"}))
        assert cli.main(["train", "--config", str(path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("setting", [
        "agent.minibatch=0", "agent.l2=-1", "agent.sup_holdout=1.5",
        "agent.pool_capacity=10", "agent.rho=0", "agent.rho=1",
        "agent.eps_num=0", "agent.sup_batch=0", "agent.sup_epochs=-1",
        "agent.batch_sweeps=-1"])
    def test_bad_agent_value_exits_before_the_run_starts(self, tmp_path,
                                                         capsys, setting):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "dqn", "dialogues": 2,
                                    "eval_period": 1, "eval_episodes": 1}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out),
                         "--set", setting]) == cli.EXIT_CONFIG
        assert f"{setting} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        "gp.max_dictionary=0", "gp.nu=-1", "gp.length_scale=0"])
    def test_bad_gp_value_exits_before_the_run_starts(self, tmp_path,
                                                      capsys, setting):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "gpsarsa",
                                    "space": "summary", "dialogues": 2,
                                    "eval_period": 1, "eval_episodes": 1}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out),
                         "--set", setting]) == cli.EXIT_CONFIG
        assert f"{setting} must be in" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, named", [
        ("dialogues=1.5", "dialogues=1.5 must be an integer"),
        ("seed=1.0", "seed=1.0 must be an integer"),
        ("eval_period=true", "eval_period=True must be an integer"),
        ("gamma=abc", "gamma='abc' must be a number"),
        ("epsilon.start=false", "epsilon.start=False must be a number"),
        ("agent.minibatch=x", "agent.minibatch='x' must be an integer"),
        ("space=1", "space='1' not in ('summary', 'original')"),
        ("agent.hidden=5", "agent.hidden=5 must be a tuple of positive "
         "integer layer sizes"),
        ('agent.hidden=["a"]', "agent.hidden=('a',) must be a tuple of "
         "positive integer layer sizes"),
        ("agent.hidden=[16,0]", "agent.hidden=(16, 0) must be a tuple of "
         "positive integer layer sizes"),
        ('goals.constraint_probs={"area":"x"}',
         "goals.constraint_probs[area]='x' must be a number"),
        ('goals.constraint_probs={"areaa":1.0}',
         "goals.constraint_probs key 'areaa' not in ('area', 'food', "
         "'pricerange')"),
        ('goals.request_count_weights={"1":"x"}',
         "goals.request_count_weights[1]='x' must be a number"),
        ("agent.l2=NaN", "agent.l2=nan must be in [0, inf)"),
        ("db_size=0", "db_size=0 must be in [1, inf)"),
        ("error.concentration=NaN",
         "error.concentration=nan must be in (0, inf]"),
        ('goals.request_count_weights={"1":0,"2":0}',
         "goals.request_count_weights={1: 0.0, 2: 0.0} needs counts >= 1 "
         "and weights of a finite, positive sum"),
        ('goals.request_count_weights={"1":1e308,"2":1e308}',
         "goals.request_count_weights={1: 1e+308, 2: 1e+308} needs counts "
         ">= 1 and weights of a finite, positive sum"),
        ("epsilon.rate=-0.5", "epsilon.rate=-0.5 must be in [0, 1]"),
        ("epsilon.rate=1.5", "epsilon.rate=1.5 must be in [0, 1]"),
        ('epsilon={"rate":-1}', "epsilon.rate=-1 must be in [0, 1]"),
        ('epsilon={"rate":Infinity}', "epsilon.rate=inf must be in [0, 1]"),
        ('epsilon={"mode":"linear"}',
         "unknown key(s) ['mode'] under 'epsilon'"),
        ("epsilon.unit=dialogue", "unknown key(s) ['unit'] under 'epsilon'"),
        ("turn_penalty=NaN", "turn_penalty=nan must be in (-inf, inf)"),
        ("success_reward=Infinity",
         "success_reward=inf must be in (-inf, inf)"),
        ("failure_reward=-Infinity",
         "failure_reward=-inf must be in (-inf, inf)"),
        ("agent.l2=Infinity", "agent.l2=inf must be in [0, inf)"),
        ("agent.eps_num=Infinity", "agent.eps_num=inf must be in (0, inf)"),
        ("gp.nu=Infinity", "gp.nu=inf must be in [0, inf)"),
        ("gp.length_scale=Infinity",
         "gp.length_scale=inf must be in (0, inf)"),
        ("gp.signal_var=Infinity", "gp.signal_var=inf must be in (0, inf)"),
        ("gp.noise_var=Infinity", "gp.noise_var=inf must be in (0, inf)"),
        ('goals.request_count_weights={"1":Infinity}',
         "goals.request_count_weights[1]=inf must be in [0, inf)")])
    def test_bad_value_exits_2_naming_the_key_before_the_run_starts(
            self, tmp_path, capsys, setting, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "dqn", "space": "original",
                                    "dialogues": 2, "eval_period": 1,
                                    "eval_episodes": 1}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out),
                         "--set", setting]) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, named", [
        ({"out": 5}, "out=5 must be a string or null"),
        ({"pretrain": {"corpus": 7}},
         "pretrain.corpus=7 must be a string or null")])
    def test_file_value_of_a_string_field_must_be_a_string(
            self, tmp_path, capsys, config, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "dqn", "dialogues": 2,
                                    "eval_period": 1, "eval_episodes": 1,
                                    **config}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out",
                         str(out)]) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_string_field_takes_the_override_text_as_given(self, tmp_path):
        # by the field's declared type: null stays null where it is allowed
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"out": "x"}))
        cfg = load_config(str(path), ["out=2024", "pretrain.corpus=007",
                                      "space=original", "algorithm=ddqn",
                                      "pretrain.mode=none", "seed=12"])
        assert (cfg.out, cfg.pretrain.corpus, cfg.space, cfg.algorithm,
                cfg.pretrain.mode, cfg.seed) == (
            "2024", "007", "original", "ddqn", "none", 12)
        assert load_config(str(path), ["out=null"]).out is None
        assert load_config(str(path), ['out="q"']).out == '"q"'
        with pytest.raises(ConfigError, match=re.escape(
                "pretrain.mode='null' not in ")):
            load_config(str(path), ["pretrain.mode=null"])

    def test_set_out_to_digits_trains_into_that_directory(
            self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "dqn", "dialogues": 2,
                                    "eval_period": 1, "eval_episodes": 1,
                                    "agent": {"hidden": [8], "warmup": 2}}))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["train", "--config", str(path),
                         "--set", "out=2024"]) == cli.EXIT_OK
        assert [row[0] for row in load_curve("2024/curve.csv")] == [0, 1, 2]
        assert os.path.exists("2024/checkpoint.npz")

    @pytest.mark.parametrize("config, setting, named", [
        ({"gamma": 0.9}, "gamma.x=1", "'gamma'"),
        ({"agent": {"hidden": [8]}}, "agent.hidden.x=1", "'agent.hidden'"),
        ({"algorithm": "dqn"}, "gamma.x=1",
         "gamma={'x': 1} must be a number"),
        ({"algorithm": "dqn"}, "agent.hidden.x=1",
         "agent.hidden={'x': 1} must be a tuple"),
        ([1, 2], None, "cfg.json"),
        ({"goals": {"request_count_weights": {"x": 1.0}}}, None,
         "goals.request_count_weights key 'x' is not an integer request "
         "count"),
    ], ids=["into-a-file-value", "into-a-file-list", "value-as-mapping",
            "list-as-mapping", "list-file", "non-integer-count"])
    def test_misshapen_config_exits_2_naming_the_key(self, tmp_path, capsys,
                                                     config, setting, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ["evaluate", "--config", str(path), "--policy", "handcrafted",
                "--episodes", "1"] + (["--set", setting] if setting else [])
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["da2c", "tda2c"])
    def test_pretrain_refuses_mode_none(self, tmp_path, capsys, algorithm):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": algorithm,
                                    "agent": {"hidden": [8]}}))
        out = tmp_path / "pre"
        assert cli.main(["pretrain", "--config", str(path),
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert "pretrain.mode" in capsys.readouterr().err
        assert not out.exists()

    def test_corpus_below_one_minibatch_exits_2_before_any_file(self, tmp_path,
                                                               capsys):
        corpus_cfg = tmp_path / "corpus-cfg.json"
        corpus_cfg.write_text(json.dumps({"algorithm": "tda2c", "seed": 2}))
        corpus_path = str(tmp_path / "one.jsonl")
        assert cli.main(["generate-corpus", "--config", str(corpus_cfg),
                         "--n", "1", "--out", corpus_path]) == cli.EXIT_OK
        turns = len(pooled_turns(CorpusReader(corpus_path)))
        minibatch = harness.AgentConfig().minibatch
        assert 0 < turns < minibatch
        capsys.readouterr()
        for command, algorithm, mode in (("pretrain", "dqn", "batch"),
                                         ("train", "tda2c", "sup_full_batch")):
            path = tmp_path / f"{algorithm}.json"
            path.write_text(json.dumps({
                "algorithm": algorithm, "seed": 2, "dialogues": 2,
                "pretrain": {"mode": mode, "corpus": corpus_path}}))
            out = tmp_path / command
            if command == "train":
                out.mkdir()          # a fresh run directory stays empty
            assert cli.main([command, "--config", str(path),
                             "--out", str(out)]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert corpus_path in err and f"{turns} turns" in err, err
            assert f"agent.minibatch={minibatch}" in err, err
            if command == "train":
                assert os.listdir(out) == []
            else:
                assert not out.exists()

    def test_corpus_longer_than_the_pool_exits_2_before_any_file(
            self, tmp_path, capsys):
        corpus_cfg = tmp_path / "corpus-cfg.json"
        corpus_cfg.write_text(json.dumps({"algorithm": "tda2c", "seed": 2}))
        corpus_path = str(tmp_path / "three.jsonl")
        assert cli.main(["generate-corpus", "--config", str(corpus_cfg),
                         "--n", "3", "--out", corpus_path]) == cli.EXIT_OK
        turns = len(pooled_turns(CorpusReader(corpus_path)))
        capacity = turns - 1
        capsys.readouterr()
        for command, algorithm, mode in (("pretrain", "dqn", "batch"),
                                         ("train", "tda2c", "sup_full_batch")):
            path = tmp_path / f"{algorithm}.json"
            path.write_text(json.dumps({
                "algorithm": algorithm, "seed": 2, "dialogues": 2,
                "agent": {"minibatch": 1, "pool_capacity": capacity},
                "pretrain": {"mode": mode, "corpus": corpus_path}}))
            out = tmp_path / command
            if command == "train":
                out.mkdir()          # a fresh run directory stays empty
            assert cli.main([command, "--config", str(path),
                             "--out", str(out)]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"{corpus_path}: {turns} turns, more than " \
                f"agent.pool_capacity={capacity}" in err, err
            if command == "train":
                assert os.listdir(out) == []
            else:
                assert not out.exists()

    def test_corpus_of_another_space_exits_2_before_any_file(self, tmp_path,
                                                             capsys):
        corpus_cfg = tmp_path / "corpus-cfg.json"
        corpus_cfg.write_text(json.dumps({"algorithm": "tda2c", "seed": 2}))
        corpus_path = str(tmp_path / "original.jsonl")
        assert cli.main(["generate-corpus", "--config", str(corpus_cfg),
                         "--n", "2", "--out", corpus_path]) == cli.EXIT_OK
        capsys.readouterr()
        for command, algorithm, mode in (("pretrain", "dqn", "batch"),
                                         ("train", "tda2c", "sup_full_batch")):
            path = tmp_path / f"{algorithm}.json"
            path.write_text(json.dumps({
                "algorithm": algorithm, "space": "summary", "seed": 2,
                "dialogues": 2,
                "pretrain": {"mode": mode, "corpus": corpus_path}}))
            out = tmp_path / command
            assert cli.main([command, "--config", str(path),
                             "--out", str(out)]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: {corpus_path}: a corpus of the original "
                f"space; this run's space is summary\n")
            assert not out.exists()

    def test_generate_corpus_writes_the_in_memory_corpus(self, tmp_path,
                                                         capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "dqn", "seed": 4}))
        out = tmp_path / "streamed.jsonl"
        assert cli.main(["generate-corpus", "--config", str(path),
                         "--n", "30", "--out", str(out)]) == cli.EXIT_OK
        _, _, env = harness.build_world(load_config(str(path)))
        built = generate_corpus(env, 30, seed=4)
        save_corpus(built, str(tmp_path / "held.jsonl"))
        assert out.read_bytes() == (tmp_path / "held.jsonl").read_bytes()
        ratings = [d.rating for d in built]
        hist = {r: ratings.count(r) for r in (0, 1, 2, 3)}
        assert (f"wrote 30 dialogues to {out}; ratings {hist}"
                in capsys.readouterr().out)

    def test_generate_corpus_memory_does_not_grow_with_n(self, tmp_path):
        # each dialogue is written as it is generated: held until the
        # write, the traced peak grew by about 10 KB per dialogue
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "dqn", "seed": 1}))

        def generate(n):
            return cli.main(["generate-corpus", "--config", str(path),
                             "--n", str(n), "--out",
                             str(tmp_path / f"corpus-{n}.jsonl")])
        assert generate(2) == cli.EXIT_OK      # imports and caches
        peaks = {}
        for n in (20, 200):
            tracemalloc.start()
            try:
                assert generate(n) == cli.EXIT_OK
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200] - peaks[20] < 200_000, peaks

    def test_train_and_evaluate_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "algorithm": "dqn", "space": "original", "seed": 3,
            "dialogues": 30, "eval_period": 15, "eval_episodes": 6,
            "agent": {"hidden": [12, 8], "warmup": 20}}))
        out = str(tmp_path / "run")
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "curve.csv"))
        assert cli.main(["evaluate", "--config", str(path), "--policy",
                         "handcrafted", "--episodes", "5"]) == 0
        text = capsys.readouterr().out
        assert "success_rate=" in text

    def test_evaluate_a_training_snapshot(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "algorithm": "dqn", "space": "original", "seed": 3,
            "dialogues": 30, "eval_period": 15, "eval_episodes": 6,
            "agent": {"hidden": [12, 8], "warmup": 20}}))
        out = str(tmp_path / "run")
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
        assert cli.main(["evaluate", "--config", str(path), "--policy",
                         "agent", "--checkpoint",
                         os.path.join(out, "checkpoint.npz"),
                         "--episodes", "6"]) == 0
        text = capsys.readouterr().out
        # the final curve row was evaluated on the same stream
        final = load_curve(os.path.join(out, "curve.csv"))[-1]
        assert f"success_rate={final[1]:.4f}" in text

    @staticmethod
    def truncated_run(tmp_path):
        """A trained run's config and its snapshot cut to half its length."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "algorithm": "dqn", "space": "original", "seed": 3,
            "dialogues": 20, "eval_period": 20, "eval_episodes": 4,
            "agent": {"hidden": [12, 8], "warmup": 20}}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out",
                         str(out)]) == cli.EXIT_OK
        snapshot = out / "checkpoint.npz"
        data = snapshot.read_bytes()
        snapshot.write_bytes(data[:len(data) // 2])
        return path, out, snapshot

    def test_evaluate_a_truncated_snapshot_exits_3(self, tmp_path, capsys):
        path, _, snapshot = self.truncated_run(tmp_path)
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(path), "--checkpoint",
                         str(snapshot), "--episodes", "2"]) == cli.EXIT_RUN
        assert f"run error: {snapshot}: not an npz archive" in \
            capsys.readouterr().err

    def test_resume_from_a_truncated_snapshot_exits_3(self, tmp_path, capsys):
        path, out, snapshot = self.truncated_run(tmp_path)
        capsys.readouterr()
        assert cli.main(["train", "--config", str(path), "--out", str(out),
                         "--resume", "--set", "dialogues=40"]) == cli.EXIT_RUN
        assert f"run error: {snapshot}: not an npz archive" in \
            capsys.readouterr().err

    def test_pretrain_then_evaluate_extensionless_checkpoint(self, tmp_path,
                                                             capsys):
        corpus_cfg = tmp_path / "corpus-cfg.json"
        corpus_cfg.write_text(json.dumps({"algorithm": "tda2c", "seed": 2}))
        corpus_path = str(tmp_path / "corpus.jsonl")
        assert cli.main(["generate-corpus", "--config", str(corpus_cfg),
                         "--n", "10", "--out", corpus_path]) == 0
        for algorithm, mode in (("tda2c", "sup_full_batch"),
                                ("dqn", "batch")):
            path = tmp_path / f"{algorithm}.json"
            path.write_text(json.dumps({
                "algorithm": algorithm, "space": "original", "seed": 2,
                "agent": {"hidden": [12, 8], "sup_epochs": 1,
                          "batch_sweeps": 1},
                "pretrain": {"mode": mode, "corpus": corpus_path}}))
            checkpoint = str(tmp_path / f"pre-{algorithm}")
            assert cli.main(["pretrain", "--config", str(path),
                             "--out", checkpoint]) == 0
            assert os.path.exists(checkpoint)
            assert not os.path.exists(checkpoint + ".npz")
            assert cli.main(["evaluate", "--config", str(path), "--policy",
                             "agent", "--checkpoint", checkpoint,
                             "--episodes", "3"]) == 0
            assert "success_rate=" in capsys.readouterr().out

    def test_generate_rate_and_report(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "dqn", "seed": 1}))
        corpus_path = str(tmp_path / "corpus.jsonl")
        assert cli.main(["generate-corpus", "--config", str(path),
                         "--n", "20", "--out", corpus_path]) == 0
        generated = capsys.readouterr().out
        assert cli.main(["rate", "--corpus", corpus_path]) == 0
        rated = capsys.readouterr().out
        # both print the histogram as "ratings {0: n0, 1: n1, ...}"
        histogram = re.compile(r"ratings (\{[^}]*\})")
        assert histogram.search(rated)[1] == histogram.search(generated)[1]
        assert rated.startswith("20 dialogues; ")

        run_dir = tmp_path / "runs" / "x" / "seed-0"
        run_dir.mkdir(parents=True)
        with open(run_dir / "curve.csv", "w") as fh:
            fh.write(harness.CURVE_HEADER + "\n")
            fh.write("0,0.2,0.0,10.0,0.0\n1000,0.95,0.5,8.0,1.0\n")
        assert cli.main(["report", f"x={tmp_path / 'runs' / 'x'}",
                         "--threshold", "0.9", "--expect-order", "x"]) == 0
        assert capsys.readouterr().out == (
            "threshold: eval success >= 0.900\n"
            "  x: median dialogues-to-threshold 1000 (min 1000, max 1000; "
            "1 seeds; final success 0.950)\n"
            "    dialogues  success    min    max  return\n"
            "            0    0.200  0.200  0.200   0.000\n"
            "         1000    0.950  0.950  0.950   0.500\n"
            "ordering check passed\n")

    def test_report_prints_every_label_fastest_first(self, tmp_path, capsys):
        slow = write_runs(tmp_path, "slow", ((0, 100, 200), 0.5),
                          ((0, 100, 200), 0.5))
        fast = write_runs(tmp_path, "fast", ((0, 100, 200), 0.95))
        assert cli.main(["report", slow, fast,
                         "--threshold", "0.9"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        labels = [ln.split(":")[0].strip() for ln in lines
                  if "dialogues-to-threshold" in ln]
        assert labels == ["fast", "slow"]
        assert "(min inf, max inf; 2 seeds; final success 0.500)" in \
            lines[6]
        # a header and one row per eval point under each label
        assert len(lines) == 1 + 2 * (2 + 3)

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--policy", "handcrafted", "--episodes", "0"],
         "--episodes=0 must be in [1, inf)"),
        (["evaluate", "--policy", "random", "--episodes", "-3"],
         "--episodes=-3 must be in [1, inf)"),
        (["generate-corpus", "--n", "0"], "--n=0 must be in [1, inf)"),
        (["report", "--threshold", "nan"], "--threshold=nan must be in (0, 1]"),
        (["report", "--threshold", "inf"], "--threshold=inf must be in (0, 1]"),
        (["report", "--threshold", "1.5"], "--threshold=1.5 must be in (0, 1]"),
        (["report", "--threshold", "0"], "--threshold=0.0 must be in (0, 1]"),
        (["report", "--expect-order", "x,x"],
         "--expect-order names 'x' twice")],
        ids=["episodes-0", "episodes-negative", "n-0", "threshold-nan",
             "threshold-inf", "threshold-above-1", "threshold-0",
             "order-repeats-a-label"])
    def test_bad_number_flag_exits_2_naming_it(self, tmp_path, capsys, argv,
                                               message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"algorithm": "dqn", "seed": 1}))
        out = tmp_path / "corpus.jsonl"
        if argv[0] == "report":
            argv = [*argv, write_runs(tmp_path, "x", ((0, 1000), 0.95))]
        else:
            argv = [*argv, "--config", str(config)]
        if argv[0] == "generate-corpus":
            argv = [*argv, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == "" and not out.exists()

    def test_expect_order_fails_on_a_tie_in_either_order(self, tmp_path,
                                                         capsys):
        # neither label reaches 0.9: they tie at infinity
        dqn = write_runs(tmp_path, "dqn", ((0, 1000), 0.5))
        gp = write_runs(tmp_path, "gp", ((0, 1000), 0.4))
        for runs in ((dqn, gp), (gp, dqn)):
            assert cli.main(["report", *runs, "--threshold", "0.9",
                             "--expect-order", "dqn,gp"]) == cli.EXIT_CHECK
        assert "ordering check FAILED" in capsys.readouterr().out

    def test_expect_order_needs_every_named_label_to_reach(self, tmp_path):
        fast = write_runs(tmp_path, "fast", ((0, 1000), 0.95))
        never = write_runs(tmp_path, "never", ((0, 1000), 0.5))
        report = ["report", fast, never, "--threshold", "0.9"]
        assert cli.main([*report, "--expect-order", "fast"]) == cli.EXIT_OK
        assert cli.main([*report, "--expect-order",
                         "fast,never"]) == cli.EXIT_CHECK
        assert cli.main([*report, "--expect-order",
                         "nope"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("labels, fault", [
        (("x", "x"), "repeats label 'x'"), (("",), "has an empty label")],
        ids=["repeated-label", "empty-label"])
    def test_bad_run_spec_exits_2_naming_it(self, tmp_path, capsys, labels,
                                            fault):
        specs = []
        for label, name in zip(labels, "ab"):
            write_runs(tmp_path, name, ((0, 100), 0.5))
            specs.append(f"{label}={tmp_path / name}")
        assert cli.main(["report", *specs]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (f"config error: run spec '{specs[-1]}' "
                                f"{fault}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("grids", [((0, 100, 200), (0, 100)),
                                       ((0, 100), (0, 100, 200))])
    def test_report_csv_rejects_mismatched_seed_grids(self, tmp_path, capsys,
                                                      grids):
        spec = write_runs(tmp_path, "y", *((grid, 0.5) for grid in grids))
        out = tmp_path / "plot.csv"
        assert cli.main(["report", spec, "--csv", str(out)]) == cli.EXIT_RUN
        assert ("run 'y': seed curves have mismatched eval grids"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_resume_with_a_changed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "algorithm": "dqn", "space": "original", "seed": 3,
            "dialogues": 20, "eval_period": 20, "eval_episodes": 6,
            "agent": {"hidden": [12, 8], "warmup": 20}}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out",
                         str(out)]) == cli.EXIT_OK
        before = directory_bytes(out)
        assert cli.main(["train", "--config", str(path), "--out", str(out),
                         "--resume", "--set", "seed=9"]) == cli.EXIT_CONFIG
        assert "seed from 3 to 9" in capsys.readouterr().err
        assert directory_bytes(out) == before

    def resume_with_stored_keys(self, tmp_path, capsys, section, keys):
        """The error of resuming a finished run whose config.json adds
        ``keys`` to ``section``; the resume must touch no file."""
        def edit(text):
            stored = json.loads(text)
            stored[section] |= keys
            return json.dumps(stored)
        return self.resume_with_stored_config(tmp_path, capsys, edit)

    def resume_with_stored_config(self, tmp_path, capsys, edit):
        """The error of resuming a finished run whose config.json's text is
        replaced by ``edit(text)``; the resume must touch no file."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "algorithm": "dqn", "space": "original", "seed": 3,
            "dialogues": 20, "eval_period": 20, "eval_episodes": 6,
            "agent": {"hidden": [12, 8], "warmup": 20}}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out",
                         str(out)]) == cli.EXIT_OK
        stored = out / "config.json"
        stored.write_text(edit(stored.read_text()))
        before = {name: (data, os.stat(out / name).st_mtime_ns)
                  for name, data in directory_bytes(out).items()}
        capsys.readouterr()
        assert cli.main(["train", "--config", str(path), "--out", str(out),
                         "--resume", "--set", "dialogues=40"]) == \
            cli.EXIT_CONFIG
        assert {name: (data, os.stat(out / name).st_mtime_ns)
                for name, data in directory_bytes(out).items()} == before
        return capsys.readouterr().err

    def test_resume_of_a_run_with_the_old_epsilon_keys_exits_2(
            self, tmp_path, capsys):
        # a run written while epsilon had a decay mode and a step unit
        # must be redone: its config.json names two keys the config no
        # longer has, and the resume touches no file before refusing it
        err = self.resume_with_stored_keys(
            tmp_path, capsys, "epsilon",
            {"mode": "geometric", "unit": "transition"})
        assert err == ("config error: unknown key(s) ['mode', 'unit'] under "
                       "'epsilon'\n")

    def test_resume_of_a_run_with_agent_excluded_exits_2(self, tmp_path,
                                                         capsys):
        # every config.json written while the agent could override the
        # space's exploration set holds "excluded": null
        err = self.resume_with_stored_keys(tmp_path, capsys, "agent",
                                           {"excluded": None})
        assert err == ("config error: unknown key(s) ['excluded'] under "
                       "'agent'\n")

    @pytest.mark.parametrize("text, fault", [
        ("not json", "not valid JSON: Expecting value: line 1 column 1 "
                     "(char 0)"),
        ("[1, 2]", "the config must be a JSON object, not list")],
        ids=["not-json", "a-list"])
    def test_resume_of_a_run_with_a_malformed_config_json_exits_2(
            self, tmp_path, capsys, text, fault):
        err = self.resume_with_stored_config(tmp_path, capsys,
                                             lambda _: text)
        assert err == (f"config error: {tmp_path / 'run' / 'config.json'}: "
                       f"{fault}\n")

    @pytest.mark.parametrize("order, record, message", [
        (1, '{"provenance": "handcrafted", "log": {}}',
         "2: missing field 'records'"),
        (1, '{"rating": 3,', "2: not JSON"),
        # the space's names reversed, as each vector would then be stored
        (-1, '{"rating": 3,', "1: field 'feature_names': not the original "
                              "space's layout; the same names in another "
                              "order")])
    def test_rate_rejects_a_malformed_corpus(self, tmp_path, capsys, order,
                                             record, message):
        path = tmp_path / "corpus.jsonl"
        names = list(SPACES["original"].feature_names)[::order]
        header = {"schema": "dialab-corpus", "version": 3,
                  "space": "original", "feature_names": names}
        path.write_text(json.dumps(header) + "\n" + record + "\n")
        assert cli.main(["rate", "--corpus", str(path)]) == cli.EXIT_RUN
        assert f"{path}:{message}" in capsys.readouterr().err

    def test_report_csv(self, tmp_path):
        for seed, success in enumerate((0.2, 0.5, 0.25)):
            run_dir = tmp_path / "runs" / "y" / f"seed-{seed}"
            run_dir.mkdir(parents=True)
            with open(run_dir / "curve.csv", "w") as fh:
                fh.write(harness.CURVE_HEADER + "\n")
                fh.write(f"0,{success},{-success},10.0,0.0\n")
        out = tmp_path / "plot.csv"
        assert cli.main(["report", f"y={tmp_path / 'runs' / 'y'}",
                         "--csv", str(out)]) == 0
        assert out.read_bytes() == (
            b"label,dialogues,success_median,success_min,success_max,"
            b"return_median\n"
            b"y,0,0.250000,0.200000,0.500000,-0.250000\n")

    def test_report_reads_a_single_run_directory(self, tmp_path, capsys):
        # DIR/curve.csv stands for one seed when DIR has no seed folders
        run_dir = tmp_path / "one"
        run_dir.mkdir()
        with open(run_dir / "curve.csv", "w") as fh:
            fh.write(harness.CURVE_HEADER + "\n")
            fh.write("0,0.2,0.0,10.0,0.0\n500,0.95,0.5,8.0,1.0\n")
        assert cli.main(["report", f"one={run_dir}",
                         "--threshold", "0.9"]) == cli.EXIT_OK
        assert ("one: median dialogues-to-threshold 500 (min 500, max 500; "
                "1 seeds; final success 0.950)") in capsys.readouterr().out

    def test_report_without_curves_exits_3_naming_the_directory(self,
                                                               tmp_path,
                                                               capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["report", f"x={empty}"]) == cli.EXIT_RUN
        captured = capsys.readouterr()
        assert f"no curve files under {empty}" in captured.err
        assert captured.out == ""

    def test_readme_cli_block_lists_every_subcommand(self):
        with open(os.path.join(ROOT, "README.md")) as fh:
            readme = fh.read()
        block = readme.split("## CLI\n", 1)[1].split("```bash\n", 1)[1]
        block = block.split("```", 1)[0]
        listed = {ln.split()[1] for ln in block.splitlines()
                  if ln.startswith("dialab ")}
        subparsers = next(a for a in cli.make_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert listed == set(subparsers.choices)
