"""dialab benchmark: three training workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Workloads and the reasons for them are in
``workloads.py``; which metrics are gated, and by how much, is in
``BENCHMARK.json``.

Every workload runs in a fresh interpreter (``workload.py``) with BLAS
pinned to one thread and glibc malloc's thresholds fixed, under a
temporary directory in ``.perfbench/work`` that is removed afterwards.
Set-up time is the median over six fresh interpreters that only import the
library and build the world and the agent; the untraced workload starts
them at evaluation points spread over its run, after one warm-up
interpreter here. With ``--trace 0`` the run is untraced and its last line
carries the end-to-end metrics. With ``--trace 1`` the workload runs
untraced and then traced; the last line carries the per-layer metrics of
the traced run and its overhead (traced over untraced ``run_s``), and both
curves must be bit-identical. Spans and a JSON record of every run go to
``.perfbench/results``.

Workload sizes are fixed, so a seed always gives the same curve.
``--seconds`` is the nominal length of one run: the sizes were chosen so an
untraced workload lasts about that long on a 2-core x86-64 machine, and a
note goes to stderr when it is far off. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results"
DEADLINE_S = 170.0        # the whole run, all children included
# glibc malloc pinned in every child: arrays below 32 MiB come from the heap
# and freed memory stays there. By default glibc moves its mmap threshold
# with the allocation history, so whether the GP's 1.3 MB n x n temporaries
# were mmapped, and page-faulted afresh on every update, differed between
# seeds and runs: at the 400-point cap seed 22 ran 2.2-3.0 ms a turn and
# seed 24 1.7-1.9, always-mmap 3.1-4.9, pinned 1.4-1.7 for both.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}

sys.path.insert(0, str(HERE))
from workloads import BLOCK, WORKLOADS  # noqa: E402

# everything an untraced run prints; BENCHMARK.json says which are gated
FIGURES = {
    "setup_s": "s", "run_s": "s", "train_turn_cost": "ref",
    "train_turns_per_s": "1/s",
    "train_dialogues_per_s": "1/s",
    "eval_episodes_per_s": "1/s", "corpus_dialogues_per_s": "1/s",
    "pretrain_s": "s", "final_success": "fraction",
    "success_auc": "fraction", "peak_rss_mb": "MiB",
}


def child(args: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", **MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload.py {' '.join(args)} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment_info(library: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dialab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"commit": commit or None, "source_sha256": source.hexdigest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu": cpu, "malloc": MALLOC_ENV, **library}


def steady_state(r: dict) -> tuple[float, float]:
    """(train_turn_cost, train_turns_per_s) over the second half of
    training, split into blocks of BLOCK dialogues. A block's cost is its
    wall time per turn over the mean time of the reference computation run
    right before and right after it; both figures are medians over blocks."""
    reference = dict(r["reference_s"])
    blocks: dict[int, list] = {}
    for k, wall, turns in r["train_dialogue_times"]:
        if k >= r["train_dialogues"] // 2:
            block = blocks.setdefault(k // BLOCK, [0.0, 0])
            block[0] += wall
            block[1] += turns
    costs, rates = [], []
    for b, (wall, turns) in blocks.items():
        refs = [reference[i] for i in (b * BLOCK, (b + 1) * BLOCK)
                if i in reference]
        costs.append(wall / turns / statistics.fmean(refs))
        rates.append(turns / wall)
    return statistics.median(costs), statistics.median(rates)


def figures(setup_times: list[float], r: dict) -> dict:
    """End-to-end figures of one untraced run; 0 for a stage it lacks."""
    curve = r["curve"]
    cost, rate = steady_state(r)
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": r["run_s"],
        "train_turn_cost": cost,
        "train_turns_per_s": rate,
        "train_dialogues_per_s": r["train_dialogues"] / r["train_s"],
        "eval_episodes_per_s": r["eval_episodes"] / r["eval_s"],
        "corpus_dialogues_per_s": (r["corpus_dialogues"] / r["corpus_s"]
                                   if r["corpus_dialogues"] else 0.0),
        "pretrain_s": r["pretrain_s"],
        "final_success": curve[-1][1],
        "success_auc": statistics.fmean(row[1] for row in curve),
        "peak_rss_mb": r["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    spans = traced["spans"]
    out = {}
    for name, s in spans.items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
        out[f"{name}.total_s"] = s["total_s"]

    def ratio(num, den):
        return num / den if den else 0.0
    n = traced["dictionary_size"] or 0
    out.update({
        "ontology.sample_goal.queries_per_goal": ratio(
            traced["queries_in_goals"],
            spans["ontology.sample_goal"]["calls"]),
        "nets.forward.rows_per_call": ratio(
            traced["forward_rows"], spans["nets.forward"]["calls"]),
        "value_agents.target_syncs":
            spans["value_agents.target_sync"]["calls"],
        "gpsarsa.dictionary_size": n,
        "gpsarsa.admit_rate": ratio(n, spans["gpsarsa.admit_test"]["calls"]),
        "gpsarsa.posterior_bytes": 3 * n * n * 8,   # computed, not measured
        "corpus.io_s": spans["corpus.io"]["total_s"],
        "corpus.bytes": traced.get("corpus_bytes", 0),
        "harness.checkpoint.bytes": traced["checkpoint_bytes"],
        "trace.overhead": traced["run_s"] / untraced["run_s"],
    })
    return out


def problems_of(name: str, r: dict) -> list[str]:
    problems = list(r["problems"])
    if name == "tda2c-original" and r["holdout_accuracy"] is None:
        problems.append("pretraining reported no holdout accuracy")
    if name == "gpsarsa-summary" and not r["dictionary_size"]:
        problems.append("GP dictionary is empty")
    return problems


def show(values: dict, units: dict) -> None:
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")


def measure(args, spec: dict, work: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(parents=True, exist_ok=True)
    base = [args.workload, str(args.seed), work]
    warm_up = child(["setup", *base], deadline)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = [child(["run", *base], deadline)]
    if args.trace:
        spans_file = RESULTS / f"{stem}-spans.npz"
        runs.append(child(["run", *base, "--trace", str(spans_file)],
                          deadline))
    untraced = runs[0]
    setup_times = untraced["setup_times"]
    problems = [p for r in runs for p in problems_of(args.workload, r)]
    if args.trace and runs[1]["digest"] != untraced["digest"]:
        problems.append("traced curve digest differs from the untraced one")

    info = environment_info(warm_up["library"])
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print("environment " + json.dumps(info, sort_keys=True))
    print(f"curve digest {untraced['digest']}; pretraining holdout accuracy "
          f"{untraced['holdout_accuracy']}; GP dictionary "
          f"{untraced['dictionary_size']}, at its cap from training dialogue "
          f"{untraced['dictionary_capped_at']}")
    for d, success, ret, length, _ in untraced["curve"]:
        print(f"  dialogues {d:5d}  success {success:.3f}  return "
              f"{ret:+.4f}  length {length:.2f}")
    e2e = figures(setup_times, untraced)
    print(f"end to end, untraced (setup_s: median of {len(setup_times)} "
          f"fresh interpreters; train_turn_cost in units of the reference "
          f"computation)")
    show(e2e, FIGURES)
    if abs(untraced["run_s"] - args.seconds) > args.seconds / 2:
        print(f"note: run_s {untraced['run_s']:.1f} s is far from the "
              f"nominal {args.seconds} s", file=sys.stderr)
    if args.trace:
        values = per_layer(runs[1], untraced)
        values.update(corpus_dialogues_per_s=e2e["corpus_dialogues_per_s"],
                      pretrain_s=e2e["pretrain_s"])
        listed = spec["per_layer"]
    else:
        values, listed = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    if args.trace:
        print(f"per layer, traced (overhead {values['trace.overhead']:.3f}x "
              f"untraced run_s)")
        show({k: v["value"] for k, v in metrics.items()},
             {k: v["unit"] for k, v in metrics.items()})
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": info,
              "setup_times": setup_times, "figures": e2e,
              "metrics": metrics, "problems": problems,
              "runs": [{k: v for k, v in r.items() if k != "spans"}
                       for r in runs]}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    failed = sum(r["failed"] for r in runs)
    return {"correct": not problems and failed == 0,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "dialab" / "__init__.py").is_file():
        print(f"no dialab sources under {ROOT / 'src'}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work_root = ROOT / ".perfbench" / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result = measure(args, spec, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
