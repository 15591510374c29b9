"""One workload in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/workload.py setup NAME SEED WORK_DIR
    python3 perfbench/workload.py run NAME SEED WORK_DIR [--trace SPANS_FILE]

``setup`` times importing the library, ``build_world`` and ``build_agent``.
``run`` runs the whole workload under WORK_DIR (corpus, run directory,
checkpoints and pool) and checks its outputs; untraced, it also starts
SETUP_PROBES ``setup`` interpreters spread over its evaluation points. Both
print one JSON object. The library is imported inside the timed regions,
so the import is timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time

from workloads import BLOCK, WORKLOADS, experiment_config

# Timed set-up interpreters per untraced run. The host's speed changes
# every 10-30 s, so they are spread over the run's evaluation points rather
# than bunched before it: at the start and end of a run alone, the median
# set-up time of ten runs moved by 26% between two sets of ten.
SETUP_PROBES = 6


def setup(name: str, seed: int, work: str) -> dict:
    t0 = time.perf_counter()
    from dialab import harness
    cfg = harness.config_from_dict(experiment_config(
        name, seed, os.path.join(work, "run"),
        os.path.join(work, "corpus.jsonl")))
    _, _, env = harness.build_world(cfg)
    harness.build_agent(cfg, env)
    return {"setup_s": time.perf_counter() - t0, "library": library_info()}


def make_reference():
    """A fixed computation, timed between blocks of training dialogues to
    tell how fast the host runs at that moment: interpreted Python and small
    numpy products, the mix a training turn is made of. It uses no dialab
    code and no random stream of the workload, so its time does not depend
    on the program under test. Returns a function giving its time in s."""
    import numpy
    a = numpy.random.default_rng(0).random((64, 64))

    def reference() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        x = a
        for _ in range(50):
            x = numpy.tanh(x @ a * 0.01)
        return time.perf_counter() - t0

    return reference


def library_info() -> dict:
    """numpy, its BLAS, and the BLAS thread count as the library reports."""
    import ctypes
    import glob

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = getter()
                break
    return {"numpy": numpy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


class DialogueChecker:
    """Wraps ``DialogueEnv.reset``/``step`` and checks every dialogue's
    return against ``length * turn_penalty + (success ? +1 : -1)``. Also
    times every training dialogue, runs the reference computation before
    every BLOCK-th one, and notes when a GP dictionary is full."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._open: dict[int, list] = {}   # id(env) -> [return, length]
        self.phase = "train"           # "corpus", "eval" or "train"
        self.evals = 0                 # evaluate() calls so far
        # per training dialogue: (wall, evals) at its reset, and turns
        self.train_marks: list[tuple] = []
        self.train_turns: list[int] = []
        self.reference = None          # make_reference()'s timer, or None
        self.reference_s: list[list] = []  # [training dialogue, seconds]
        self.reference_total_s = 0.0   # kept out of every training time
        self.gp = None                 # the GP agent's SparseGP, if any
        self.capped_at = None          # first training dialogue at the cap

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def finish(self) -> None:
        for _ in self._open:
            self.fail("dialogue never reached a terminal turn")
        self._open.clear()

    def train_dialogue_times(self) -> list[list]:
        """[index, wall_s, turns] of each training dialogue, timed from its
        reset to the next one's without the reference computation between
        them; dialogues an evaluation follows, and the last, have no next
        reset and are left out."""
        out = []
        for k, ((w0, e0), (w1, e1), turns) in enumerate(zip(
                self.train_marks, self.train_marks[1:], self.train_turns)):
            if e0 == e1:
                out.append([k, w1 - w0, turns])
        return out

    def install(self, env_cls) -> None:
        reset, step = env_cls.reset, env_cls.step

        def checked_reset(env, rng):
            if self._open.pop(id(env), None) is not None:
                self.fail("dialogue reset before its terminal turn")
            self.attempted += 1
            if self.phase == "train":
                k = len(self.train_marks)
                if self.reference is not None and k % BLOCK == 0:
                    seconds = self.reference()
                    self.reference_s.append([k, seconds])
                    self.reference_total_s += seconds
                self.train_marks.append(
                    (time.perf_counter() - self.reference_total_s, self.evals))
                if (self.gp is not None and self.capped_at is None
                        and len(self.gp) >= self.gp.max_dictionary):
                    self.capped_at = len(self.train_marks)
            if self.tracer is not None:
                self.tracer.dialogue_id = self.attempted - 1
            try:
                features = reset(env, rng)
            except Exception:
                self.fail("reset raised")
                raise
            self._open[id(env)] = [0.0, 0]
            return features

        def checked_step(env, action):
            episode = self._open.get(id(env))
            try:
                out = step(env, action)
            except Exception:
                self._open.pop(id(env), None)
                self.fail("step raised")
                raise
            _, reward, terminal, success = out
            episode[0] += reward
            episode[1] += 1
            if terminal:
                del self._open[id(env)]
                if self.phase == "train":
                    self.train_turns.append(episode[1])
                cfg = env.config
                bonus = cfg.success_reward if success else cfg.failure_reward
                expected = episode[1] * cfg.turn_penalty + bonus
                if not math.isclose(episode[0], expected, abs_tol=1e-9):
                    self.fail(f"return {episode[0]!r} != {expected!r} over "
                              f"{episode[1]} turns")
            return out

        env_cls.reset = checked_reset
        env_cls.step = checked_step


class SetupProbes:
    """Starts SETUP_PROBES ``setup`` interpreters, one each at evaluation
    points spread evenly over a run of n_evals; the workload waits for each,
    and the time they take is kept out of ``run_s``."""

    def __init__(self, name: str, seed: int, work: str, n_evals: int):
        self.command = [sys.executable, os.path.abspath(__file__), "setup",
                        name, str(seed), work]
        last = n_evals - 1
        self.at = {round(i * last / (SETUP_PROBES - 1))
                   for i in range(SETUP_PROBES)}
        self.times: list[float] = []
        self.total_s = 0.0

    def __call__(self, index: int) -> None:
        if index not in self.at:
            return
        t0 = time.perf_counter()
        proc = subprocess.run(self.command, stdout=subprocess.PIPE,
                              text=True, timeout=60, check=True)
        self.times.append(
            json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        self.total_s += time.perf_counter() - t0


class Stages:
    """Stage timers around ``harness.evaluate`` and
    ``harness.run_pretraining``; also keeps the agent ``train_run`` builds."""

    def __init__(self, checker: DialogueChecker, probe_setup=None):
        self.checker = checker
        self.probe_setup = probe_setup  # (evaluation index) -> None
        self.evals = 0
        self.eval_s = 0.0
        self.eval_episodes = 0
        self.pretrain_s = 0.0
        self.pretrain_stats: dict = {}
        self.agent = None

    def install(self, harness) -> None:
        evaluate = harness.evaluate
        run_pretraining = harness.run_pretraining
        build_agent = harness.build_agent

        def timed_evaluate(action_fn, env, episodes, seed):
            if self.probe_setup is not None:
                self.probe_setup(self.evals)
            self.evals += 1
            self.checker.phase = "eval"
            self.checker.evals += 1
            t0 = time.perf_counter()
            out = evaluate(action_fn, env, episodes, seed)
            self.eval_s += time.perf_counter() - t0
            self.checker.phase = "train"
            self.eval_episodes += episodes
            return out

        def timed_pretraining(cfg, env, agent):
            t0 = time.perf_counter()
            self.pretrain_stats = run_pretraining(cfg, env, agent)
            self.pretrain_s += time.perf_counter() - t0
            return self.pretrain_stats

        def kept_agent(cfg, env):
            self.agent = build_agent(cfg, env)
            self.checker.gp = getattr(self.agent, "gp", None)
            return self.agent

        harness.evaluate = timed_evaluate
        harness.run_pretraining = timed_pretraining
        harness.build_agent = kept_agent


def check_curve(rows: list, cfg) -> list[str]:
    problems = []
    expected = list(range(0, cfg.dialogues + 1, cfg.eval_period))
    if expected[-1] != cfg.dialogues:
        expected.append(cfg.dialogues)
    if [r[0] for r in rows] != expected:
        problems.append(f"curve grid {[r[0] for r in rows]} != {expected}")
    for row in rows:
        if not all(math.isfinite(x) for x in row):
            problems.append(f"non-finite curve row {row}")
        elif not 0.0 <= row[1] <= 1.0:
            problems.append(f"success {row[1]} outside [0, 1]")
        elif not 1.0 <= row[3] <= cfg.max_turns:
            problems.append(f"mean length {row[3]} outside [1, max_turns]")
    return problems


def curve_digest(rows: list) -> str:
    """sha256 of the curve rows without wall_clock_s, floats in repr."""
    text = "\n".join(f"{d},{s!r},{r!r},{length!r}"
                     for d, s, r, length, _ in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def file_bytes(*paths: str) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def run(name: str, seed: int, work: str, spans_path: str | None) -> dict:
    from dialab import corpus, environment, harness

    tracer = None
    if spans_path:
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer)
    spec = WORKLOADS[name]
    out = os.path.join(work, "run")
    corpus_path = os.path.join(work, "corpus.jsonl")
    cfg = harness.config_from_dict(
        experiment_config(name, seed, out, corpus_path))

    checker = DialogueChecker(tracer)
    probes = None
    if tracer is None:
        checker.reference = make_reference()
        n_evals = -(-cfg.dialogues // cfg.eval_period) + 1
        probes = SetupProbes(name, seed, work, n_evals)
    checker.install(environment.DialogueEnv)
    stages = Stages(checker, probes)
    stages.install(harness)
    result = {"problems": checker.problems}

    t0 = time.perf_counter()
    n_corpus = spec["corpus_dialogues"]
    if n_corpus:
        _, _, env = harness.build_world(cfg)
        checker.phase = "corpus"
        t = time.perf_counter()
        generated = corpus.generate_corpus(env, n_corpus, seed)
        result["corpus_s"] = time.perf_counter() - t
        checker.phase = "train"
        corpus.save_corpus(generated, corpus_path)
        result["corpus_bytes"] = file_bytes(corpus_path)
    rows = harness.train_run(cfg)
    result["run_s"] = (time.perf_counter() - t0 - checker.reference_total_s
                       - (probes.total_s if probes else 0.0))
    checker.finish()

    curve_problems = check_curve(rows, cfg)
    checker.problems.extend(curve_problems)
    agent = stages.agent
    result.update({
        "attempted": checker.attempted,
        "failed": checker.failed,
        "digest": curve_digest(rows),
        "curve": [list(r) for r in rows],
        "corpus_dialogues": n_corpus,
        "train_dialogues": cfg.dialogues,
        "train_s": rows[-1][4] - checker.reference_total_s,
        "train_dialogue_times": checker.train_dialogue_times(),
        "reference_s": checker.reference_s,
        "setup_times": probes.times if probes else [],
        "eval_s": stages.eval_s,
        "eval_episodes": stages.eval_episodes,
        "pretrain_s": stages.pretrain_s,
        "holdout_accuracy": stages.pretrain_stats.get("holdout_accuracy"),
        "dictionary_size": len(agent.gp) if hasattr(agent, "gp") else None,
        "dictionary_capped_at": checker.capped_at,
        "checkpoint_bytes": file_bytes(os.path.join(out, "checkpoint.npz"),
                                       os.path.join(out, "pool.npz")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["queries_in_goals"] = tracer.calls_under(
            "ontology.query", "ontology.sample_goal")
        result["forward_rows"] = tracer.rows
        tracer.save(spans_path)
        missing = [s for s in spec["expected_spans"]
                   if result["spans"].get(s, {}).get("calls", 0) == 0]
        if missing:
            raise RuntimeError(f"expected spans recorded no calls on {name}: "
                               f"{', '.join(missing)}")
    return result


def main(argv: list[str]) -> int:
    mode, name, seed, work = argv[0], argv[1], int(argv[2]), argv[3]
    if mode == "setup":
        result = setup(name, seed, work)
    else:
        spans = argv[5] if argv[4:5] == ["--trace"] else None
        result = run(name, seed, work, spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
