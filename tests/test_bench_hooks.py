"""The benchmark wraps dialab names by lookup; a refactor that moves or
rebinds one of them must fail here, not only in a benchmark run."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


def test_benchmark_tracer_instruments_every_hook():
    proc = run_python("import sys; sys.path.insert(0, 'perfbench'); "
                      "import spans; spans.instrument(spans.Tracer())")
    assert proc.returncode == 0, proc.stderr


TRACED_TURNS = """
import json, sys
sys.path.insert(0, 'perfbench')
import spans
tracer = spans.Tracer()
spans.instrument(tracer)
from dialab import harness
from dialab.seeding import rng_stream
seen = {}
for space in ("summary", "original"):
    _, _, env = harness.build_world(harness.ExperimentConfig(space=space))
    start = len(tracer.name_id)
    env.reset(rng_stream(1, "train", 1))
    env.step(0)
    names = [tracer.names[i] for i in tracer.name_id[start:]]
    seen[space] = {n: names.count(n)
                   for n in ("tracker.featurize", "environment.realize",
                             "tracker.update_belief", "tracker.corrupt")}
print(json.dumps(seen))
"""


def test_traced_turns_record_featurize_and_realize():
    # the tracer rebinds the tracker's functions where they are module
    # attributes; a function captured at import time would bypass it
    proc = run_python(TRACED_TURNS)
    assert proc.returncode == 0, proc.stderr
    for space, seen in json.loads(proc.stdout.splitlines()[-1]).items():
        for name in ("tracker.featurize", "environment.realize",
                     "tracker.update_belief", "tracker.corrupt"):
            assert seen[name] >= 1, (space, name)


CHECKED_RUN = """
import json, sys
sys.path.insert(0, 'perfbench')
import workload
from dialab import environment, harness
checker = workload.DialogueChecker()
checker.install(environment.DialogueEnv)
stages = workload.Stages(checker)
stages.install(harness)
harness.train_run(harness.config_from_dict(json.loads(sys.argv[1])))
checker.finish()
print(json.dumps({"attempted": checker.attempted, "failed": checker.failed,
                  "train_marks": len(checker.train_marks),
                  "evaluations": stages.evals}))
"""


def test_benchmark_checker_sees_every_dialogue(tmp_path):
    # training and evaluation must run through DialogueEnv.reset/step, and
    # train_run must find evaluate and build_agent on the harness module
    cfg = {"algorithm": "dqn", "seed": 3, "dialogues": 6, "eval_period": 3,
           "eval_episodes": 2, "agent": {"hidden": [8], "warmup": 4},
           "out": str(tmp_path / "run")}
    proc = run_python(CHECKED_RUN, json.dumps(cfg))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "attempted": 12, "failed": 0, "train_marks": 6, "evaluations": 3}


TRACED_STEPS = """
import json, sys
sys.path.insert(0, 'perfbench')
import spans
tracer = spans.Tracer()
spans.instrument(tracer)
from dialab import harness
harness.train_run(harness.config_from_dict(json.loads(sys.argv[1])))
step = sys.argv[2]
print(json.dumps({"steps": tracer.summary()[step]["calls"],
                  **{child: tracer.calls_under(child, step)
                     for child in ("nets.backward", "nets.adadelta")}}))
"""


@pytest.mark.parametrize("algorithm, step", [
    ("dqn", "value_agents.train_step"), ("da2c", "actor_critic.value_step")])
def test_traced_regression_steps_own_their_backward_and_adadelta(
        tmp_path, algorithm, step):
    # the DQN and critic replay steps share one regression function, which
    # is not wrapped: its backward pass and Adadelta step must still be
    # charged to the wrapped step that called it, once per call. The
    # critic's replay step runs in batch-RL pretraining only.
    cfg = {"algorithm": algorithm, "seed": 3, "dialogues": 4,
           "eval_period": 4, "eval_episodes": 1,
           "agent": {"hidden": [8], "warmup": 8, "minibatch": 4},
           "out": str(tmp_path / "run")}
    if algorithm == "da2c":
        from dialab import harness
        from dialab.corpus import generate_corpus, save_corpus
        corpus = str(tmp_path / "corpus.jsonl")
        save_corpus(generate_corpus(harness.build_world(
            harness.ExperimentConfig(seed=3))[2], 4, seed=3), corpus)
        cfg["pretrain"] = {"mode": "batch", "corpus": corpus}
    proc = run_python(TRACED_STEPS, json.dumps(cfg), step)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["steps"] > 0
    assert seen["nets.backward"] == seen["nets.adadelta"] == seen["steps"]


TRACED_PRETRAINING = """
import json, sys
sys.path.insert(0, 'perfbench')
import spans
tracer = spans.Tracer()
spans.instrument(tracer)
from dialab import harness
cfg = harness.config_from_dict(json.loads(sys.argv[1]))
_, _, env = harness.build_world(cfg)
agent = harness.build_agent(cfg, env)
harness.run_pretraining(cfg, env, agent)
step = sys.argv[2]
print(json.dumps({"traced": tracer.calls_under(step, "harness.pretrain"),
                  "taken": getattr(agent, sys.argv[3])}))
"""


@pytest.mark.parametrize("algorithm, mode, step, counter", [
    ("dqn", "batch", "value_agents.train_step", "train_steps"),
    ("tda2c", "sup_full_batch", "actor_critic.value_step", "value_steps")])
def test_traced_pretraining_charges_every_replay_step(tmp_path, algorithm,
                                                      mode, step, counter):
    # the batch stage calls the agent's replay step from run_pretraining;
    # each call must go through the wrapper the tracer set on the class
    from dialab import harness
    from dialab.corpus import generate_corpus, save_corpus
    corpus = str(tmp_path / "corpus.jsonl")
    save_corpus(generate_corpus(harness.build_world(
        harness.ExperimentConfig(seed=3))[2], 12, seed=3), corpus)
    cfg = {"algorithm": algorithm, "seed": 3,
           "agent": {"hidden": [8], "minibatch": 4, "sup_epochs": 1},
           "pretrain": {"mode": mode, "corpus": corpus}}
    proc = run_python(TRACED_PRETRAINING, json.dumps(cfg), step, counter)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["traced"] > 0
    assert seen["traced"] == seen["taken"]


TRACED_GP_UPDATES = """
import json, sys
sys.path.insert(0, 'perfbench')
import spans
tracer = spans.Tracer()
spans.instrument(tracer)
from dialab import harness
harness.train_run(harness.config_from_dict(json.loads(sys.argv[1])))
print(json.dumps({parent: {child: tracer.calls_under(child, parent)
                           for child in ("gpsarsa.sarsa_update",
                                         "environment.step")}
                  for parent in ("harness.train_run", "harness.evaluate")}))
"""


def test_traced_gpsarsa_run_updates_once_per_training_turn(tmp_path):
    # the benchmark's GP update count is one per training turn: acting must
    # not update the GP, and evaluation must not either
    cfg = {"algorithm": "gpsarsa", "space": "summary", "seed": 3,
           "dialogues": 6, "eval_period": 3, "eval_episodes": 2,
           "out": str(tmp_path / "run")}
    proc = run_python(TRACED_GP_UPDATES, json.dumps(cfg))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    train, evaluate = seen["harness.train_run"], seen["harness.evaluate"]
    assert train["environment.step"] > 0 and evaluate["environment.step"] > 0
    assert train["gpsarsa.sarsa_update"] == train["environment.step"]
    assert evaluate["gpsarsa.sarsa_update"] == 0


with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]

SETUP = ("import sys; sys.path.insert(0, 'perfbench'); import workload; "
         "sys.exit(workload.main(sys.argv[1:]))")


@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_setup_builds_every_workload(tmp_path, name):
    # the timed set-up reads the workload's config, build_world's
    # three-element return and build_agent
    proc = run_python(SETUP, "setup", name, "1", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["setup_s"] > 0
