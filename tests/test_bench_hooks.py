"""The benchmark wraps dialab names by lookup; a refactor that moves or
rebinds one of them must fail here, not only in a benchmark run."""

import json
import os
import subprocess
import sys

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
