import dataclasses
import glob
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dialab import checkpoint, cli, harness
from dialab.checkpoint import CheckpointError
from dialab.corpus import HandcraftedPolicy, RandomPolicy
from dialab.environment import ORIGINAL_ACTIONS, run_episode
from dialab.harness import (ComparisonReport, ConfigError, EpsilonSchedule,
                            ExperimentConfig, compare_runs, config_from_dict,
                            config_to_dict, epsilon, evaluate, load_config,
                            load_curve, train_run)
from dialab.seeding import rng_stream
from dialab.tracker import ErrorModel

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
# the dialogue-40 snapshot: after its curve row is appended, halfway through
# writing its temporary file, when replacing it, and right after replacing it
KILL_POINTS = {
    "after-row": """
append = harness.append_curve_row
def append_or_die(path, row):
    append(path, row)
    if row[0] == 40:
        os._exit(9)
harness.append_curve_row = append_or_die
""",
    "partial-write": """
savez, saves = np.savez, []
def savez_or_die(fh, **arrays):
    saves.append(fh)
    if len(saves) == 2:
        fh.write(b"partial")
        fh.flush()
        os._exit(9)
    savez(fh, **arrays)
np.savez = savez_or_die
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
            assert np.array_equal(a[key], b[key]), (path_a, key)


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
        geo = EpsilonSchedule(floor=0.07)
        lin = EpsilonSchedule(mode="linear", rate=1e-4, floor=0.07)
        assert epsilon(geo, 10 ** 7) == 0.07
        assert epsilon(lin, 10 ** 7) == 0.07

    def test_nonincreasing(self):
        for s in (EpsilonSchedule(), EpsilonSchedule(mode="linear", rate=1e-3)):
            values = [epsilon(s, t) for t in range(0, 20000, 500)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            EpsilonSchedule(mode="exponentialish")
        with pytest.raises(ConfigError):
            EpsilonSchedule(start=0.4, floor=0.5)


class TestEvaluate:
    def test_handcrafted_noiseless_is_perfect(self):
        cfg = ExperimentConfig(space="original", seed=2,
                               error=ErrorModel.noiseless())
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
        logs = [run_episode(env, policy, rng_stream(4, "eval", i))
                for i in range(40)]
        assert evaluate(policy, env, 40, seed=4) == (
            float(np.mean([x.success for x in logs])),
            float(np.mean([x.episode_return for x in logs])),
            float(np.mean([x.length for x in logs])))

    def test_training_stream_untouched_by_evaluation(self):
        # interleaving an evaluation must not change training episodes
        cfg = ExperimentConfig(space="original", seed=5)
        _, _, env = harness.build_world(cfg)
        policy = HandcraftedPolicy("original")
        first = run_episode(env, policy, rng_stream(5, "train", 1)).to_dict()
        evaluate(policy, env, 20, seed=5)
        second = run_episode(env, policy, rng_stream(5, "train", 1)).to_dict()
        assert first == second


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"algorithm": "dqn", "typo_field": 1})
        with pytest.raises(ConfigError, match="agent"):
            config_from_dict({"agent": {"hiden": [4]}})

    def test_gamma_range_names_the_field(self):
        with pytest.raises(ConfigError, match="gamma=1.5"):
            config_from_dict({"algorithm": "dqn", "gamma": 1.5})

    @pytest.mark.parametrize("key, value", [
        ("minibatch", 0), ("target_sync", 0), ("l2", -1), ("sup_holdout", 1.5)])
    def test_bad_agent_value_names_the_field(self, key, value):
        with pytest.raises(ConfigError,
                           match=f"bad 'agent' section: {key}={value}"):
            config_from_dict({"algorithm": "dqn", "agent": {key: value}})

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
            "agent": ["batch_sweeps", "eps_num", "excluded", "hidden", "l2",
                      "minibatch", "pool_capacity", "rho", "sup_batch",
                      "sup_epochs", "sup_holdout", "target_sync", "warmup"],
            "epsilon": ["floor", "mode", "rate", "start", "unit"],
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

    def test_excluded_defaults_by_space(self):
        cfg = config_from_dict({"algorithm": "dqn", "space": "original"})
        names = [ORIGINAL_ACTIONS[i] for i in cfg.excluded_actions()]
        assert names == ["select-area", "select-food", "select-pricerange"]
        cfg2 = config_from_dict({"algorithm": "dqn", "space": "summary"})
        assert cfg2.excluded_actions() == ()

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

    def test_pretrain_limited_to_actor_critic(self, tmp_path):
        cfg = smoke_config(tmp_path, algorithm="dqn",
                           pretrain={"mode": "batch", "corpus": "x.jsonl"})
        with pytest.raises(ConfigError, match="actor-critic"):
            train_run(cfg)


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

    @pytest.mark.parametrize("algorithm", ["dqn", "da2c", "gpsarsa"])
    def test_resume_reproduces_fresh_run(self, tmp_path, algorithm):
        if algorithm == "gpsarsa":
            def config(out, dialogues):
                return config_from_dict({
                    "algorithm": "gpsarsa", "space": "summary", "seed": 1,
                    "dialogues": dialogues, "eval_period": 20,
                    "eval_episodes": 8,
                    "gp": {"nu": 0.3, "max_dictionary": 200},
                    "out": str(tmp_path / out)})
            total = 60
        else:
            def config(out, dialogues):
                return smoke_config(tmp_path, algorithm=algorithm,
                                    out=str(tmp_path / out),
                                    dialogues=dialogues)
            total = 40
        r_full = train_run(config("full", total))
        train_run(config("half", 20))
        r_resumed = train_run(config("half", total), resume=True)
        assert [row[:4] for row in r_full] == [row[:4] for row in r_resumed]
        # the saved learner state, not just the curve, matches bit for bit
        for name in ("checkpoint.npz", "pool.npz"):
            full, half = tmp_path / "full" / name, tmp_path / "half" / name
            assert full.exists() == half.exists()
            if full.exists():
                assert_same_arrays(full, half)

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
            "checkpoint.npz", "config.json", "curve.csv", "layout.json"]

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
        assert sorted(os.listdir(cfg.out)) == ["config.json", "layout.json"]
        monkeypatch.undo()
        assert [row[0] for row in train_run(cfg, resume=True)] == [0, 20]

    def test_config_serialized_verbatim(self, tmp_path):
        cfg = smoke_config(tmp_path)
        train_run(cfg)
        with open(os.path.join(cfg.out, "config.json")) as fh:
            assert config_from_dict(json.load(fh)) == cfg

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


class TestCompare:
    def curve(self, reach_at, grid=(0, 1000, 2000, 3000, 4000, 5000)):
        return [(d, 0.95 if d >= reach_at else 0.3, 0.5, 8.0, float(d))
                for d in grid]

    def test_ordering_by_median(self):
        report = compare_runs({
            "fast": [self.curve(3000), self.curve(3000), self.curve(2000)],
            "slow": [self.curve(5000), self.curve(5000), self.curve(4000)],
        }, threshold=0.9)
        assert report.order() == ["fast", "slow"]
        assert report.stats["fast"].median_to_threshold == 3000
        assert report.stats["slow"].median_to_threshold == 5000

    def test_median_rule_on_disagreeing_seeds(self):
        report = compare_runs({
            "x": [self.curve(1000), self.curve(5000), self.curve(2000)],
        }, threshold=0.9)
        assert report.stats["x"].median_to_threshold == 2000

    def test_threshold_from_best_fraction(self):
        report = compare_runs({"only": [self.curve(2000)]}, threshold=None,
                              threshold_frac=0.9)
        assert abs(report.threshold - 0.9 * 0.95) <= 1e-12

    def test_never_reaching_is_infinite(self):
        report = compare_runs({"never": [self.curve(99999)]}, threshold=0.9)
        assert math.isinf(report.stats["never"].median_to_threshold)

    def test_mismatched_grids_rejected(self):
        broken = [self.curve(1000), self.curve(1000, grid=(0, 500))]
        with pytest.raises(ValueError, match="grid"):
            compare_runs({"x": broken}, threshold=0.9)

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            compare_runs({"x": []}, threshold=0.9)

    def test_format_mentions_every_label(self):
        report = compare_runs({"a": [self.curve(1000)],
                               "b": [self.curve(2000)]}, threshold=0.9)
        text = report.format()
        assert "a:" in text and "b:" in text


class TestChat:
    def chat(self, tmp_path, lines, goal=None):
        cfg = config_from_dict({
            "algorithm": "dqn", "space": "original", "seed": 0,
            "error": {"p_confuse": 0.0, "p_drop": 0.0, "nbest_size": 1,
                      "concentration": 1e18}})
        out = io.StringIO()
        verdict = harness.chat_session(cfg, checkpoint=None,
                                       stdin=io.StringIO("\n".join(lines)),
                                       stdout=out, goal=goal)
        return verdict, out.getvalue()

    def test_inform_pins_belief(self, tmp_path):
        _, transcript = self.chat(tmp_path,
                                  ["inform(food=italian)", "bye"])
        assert "food: (italian, 1.00)" in transcript

    def test_empty_line_is_null_act(self, tmp_path):
        _, transcript = self.chat(tmp_path, ["", "bye"])
        assert "belief: (empty)" in transcript

    def test_unparseable_act_keeps_turn(self, tmp_path):
        _, transcript = self.chat(tmp_path,
                                  ["inform(food=", "inform(food=thai)", "bye"])
        assert "not consumed" in transcript
        assert "food: (thai, 1.00)" in transcript

    def test_goal_verdict_success(self, tmp_path):
        # the handcrafted policy drives; the operator answers truthfully
        lines = ["inform(area=north)", "inform(food=thai)",
                 "inform(pricerange=cheap)"] + ["request(phone)"] + [""] * 10
        verdict, transcript = self.chat(
            tmp_path, lines, goal="area=north food=thai pricerange=cheap phone")
        assert verdict is True
        assert "verdict: success" in transcript

    def test_goal_verdict_offer_against_declared_goal(self, tmp_path):
        # the operator's area=south contradicts the declared area=north, so
        # the offer built from the belief violates the goal
        lines = ["inform(area=south)", "inform(food=thai)",
                 "inform(pricerange=cheap)"] + ["request(phone)"] + [""] * 10
        verdict, transcript = self.chat(
            tmp_path, lines, goal="area=north food=thai pricerange=cheap phone")
        assert "note: this offer violates the declared goal" in transcript
        assert verdict is False
        assert "verdict: failure" in transcript

    def test_ends_on_bye(self, tmp_path):
        _, transcript = self.chat(tmp_path, ["bye"])
        assert transcript.count("system:") == 1


class TestCli:
    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "nope"}))
        assert cli.main(["train", "--config", str(path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("setting", [
        "agent.minibatch=0", "agent.l2=-1", "agent.sup_holdout=1.5"])
    def test_bad_agent_value_exits_before_the_run_starts(self, tmp_path,
                                                         capsys, setting):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "dqn", "dialogues": 2,
                                    "eval_period": 1, "eval_episodes": 1}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out),
                         "--set", setting]) == cli.EXIT_CONFIG
        assert "bad 'agent' section" in capsys.readouterr().err
        assert not out.exists()

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

    def test_pretrain_then_evaluate_extensionless_checkpoint(self, tmp_path,
                                                             capsys):
        corpus_cfg = tmp_path / "corpus-cfg.json"
        corpus_cfg.write_text(json.dumps({"algorithm": "tda2c", "seed": 2}))
        corpus_path = str(tmp_path / "corpus.jsonl")
        assert cli.main(["generate-corpus", "--config", str(corpus_cfg),
                         "--n", "10", "--out", corpus_path]) == 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "algorithm": "tda2c", "space": "original", "seed": 2,
            "agent": {"hidden": [12, 8], "sup_epochs": 1, "batch_sweeps": 1},
            "pretrain": {"mode": "sup_full_batch", "corpus": corpus_path}}))
        checkpoint = str(tmp_path / "pre")
        assert cli.main(["pretrain", "--config", str(path),
                         "--out", checkpoint]) == 0
        assert os.path.exists(checkpoint)
        assert not os.path.exists(checkpoint + ".npz")
        assert cli.main(["evaluate", "--config", str(path), "--policy",
                         "agent", "--checkpoint", checkpoint,
                         "--episodes", "3"]) == 0
        assert "success_rate=" in capsys.readouterr().out

    def test_generate_rate_and_compare(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "dqn", "seed": 1}))
        corpus_path = str(tmp_path / "corpus.jsonl")
        assert cli.main(["generate-corpus", "--config", str(path),
                         "--n", "20", "--out", corpus_path]) == 0
        assert cli.main(["rate", "--corpus", corpus_path]) == 0

        run_dir = tmp_path / "runs" / "x" / "seed-0"
        run_dir.mkdir(parents=True)
        with open(run_dir / "curve.csv", "w") as fh:
            fh.write(harness.CURVE_HEADER + "\n")
            fh.write("0,0.2,0.0,10.0,0.0\n1000,0.95,0.5,8.0,1.0\n")
        assert cli.main(["compare", f"x={tmp_path / 'runs' / 'x'}",
                         "--threshold", "0.9"]) == 0
        assert cli.main(["compare", f"x={tmp_path / 'runs' / 'x'}",
                         "--threshold", "0.9", "--expect-order", "x"]) == 0
        text = capsys.readouterr().out
        assert "dialogues-to-threshold" in text

    def test_plot_data(self, tmp_path):
        run_dir = tmp_path / "runs" / "y" / "seed-0"
        run_dir.mkdir(parents=True)
        with open(run_dir / "curve.csv", "w") as fh:
            fh.write(harness.CURVE_HEADER + "\n")
            fh.write("0,0.2,0.0,10.0,0.0\n")
        out = str(tmp_path / "plot.csv")
        assert cli.main(["plot-data", f"y={tmp_path / 'runs' / 'y'}",
                         "--out", out]) == 0
        assert "success_median" in open(out).read()
