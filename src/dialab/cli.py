"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 run error, 4 a requested
comparison assertion failed.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import corpus as corpus_mod
from . import harness
from .checkpoint import replace_file
from .harness import ExperimentConfig, load_config
from .ranges import ConfigError, check
from .seeding import rng_stream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_CHECK = 4

OUTPUT_ROOT_VAR = "DIALAB_OUT"


def _resolve_out(cfg: ExperimentConfig, out: str | None) -> ExperimentConfig:
    import dataclasses
    if out is None and cfg.out is None:
        root = os.environ.get(OUTPUT_ROOT_VAR, "runs")
        out = os.path.join(root, f"{cfg.algorithm}-{cfg.space}",
                           f"seed-{cfg.seed}")
    if out is not None:
        cfg = dataclasses.replace(cfg, out=out)
    return cfg


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set)
    cfg = _resolve_out(cfg, args.out)
    rows = harness.train_run(cfg, resume=args.resume)
    final = rows[-1]
    print(f"trained {final[0]} dialogues; final eval success "
          f"{final[1]:.3f}, mean return {final[2]:.3f} -> {cfg.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, args.set)
    episodes = (cfg.eval_episodes if args.episodes is None
                else check("--episodes", args.episodes, "[1, inf)"))
    _, _, env = harness.build_world(cfg)
    if args.policy == "agent":
        agent = harness.build_agent(cfg, env)
        if not args.checkpoint:
            raise ConfigError("--policy agent needs --checkpoint")
        agent.load(args.checkpoint)
        action_fn = agent.eval_action
    elif args.policy == "handcrafted":
        action_fn = corpus_mod.HandcraftedPolicy(cfg.space)
    else:                       # random; argparse refuses any other
        action_fn = corpus_mod.RandomPolicy(
            env.n_actions, rng_stream(cfg.seed, "random-policy"))
    success, mean_return, mean_length = harness.evaluate(
        action_fn, env, episodes, cfg.seed)
    print(f"success_rate={success:.4f} mean_return={mean_return:.4f} "
          f"mean_length={mean_length:.2f} ({episodes} dialogues)")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config, args.set)
    harness.check_pretraining(cfg, required=True)
    _, _, env = harness.build_world(cfg)
    agent = harness.build_agent(cfg, env)
    stats = harness.run_pretraining(cfg, env, agent)
    agent.save(args.out)
    print(f"pretrained ({stats}); checkpoint -> {args.out}")
    return EXIT_OK


def cmd_generate_corpus(args) -> int:
    check("--n", args.n, "[1, inf)")
    cfg = load_config(args.config, args.set)
    _, _, env = harness.build_world(cfg)
    hist = {r: 0 for r in (0, 1, 2, 3)}

    def counted(dialogues):
        for d in dialogues:
            hist[d.rating] += 1
            yield d
    # each dialogue is written, then dropped, as it is generated
    stream = corpus_mod.generate_dialogues(env, args.n, seed=cfg.seed)
    corpus_mod.save_corpus(corpus_mod.Corpus(counted(stream), cfg.space),
                           args.out)
    print(f"wrote {sum(hist.values())} dialogues to {args.out}; "
          f"ratings {hist}")
    return EXIT_OK


def cmd_rate(args) -> int:
    hist = {r: 0 for r in (0, 1, 2, 3)}
    for d in corpus_mod.CorpusReader(args.corpus):
        hist[d.rating] += 1
    total = sum(hist.values())
    print(f"{total} dialogues; ratings {hist}; "
          f"expert fraction {hist[3] / max(total, 1):.3f}")
    return EXIT_OK


def cmd_report(args) -> int:
    if args.threshold is not None:
        check("--threshold", args.threshold, "(0, 1]")
    wanted = args.expect_order.split(",") if args.expect_order else []
    for label in wanted:
        if wanted.count(label) > 1:
            raise ConfigError(f"--expect-order names '{label}' twice")
    runs = harness.load_runs(args.runs)
    curves = {label: harness.median_curve(label, seed_curves)
              for label, seed_curves in runs.items()}
    threshold, reach = harness.compare_runs(runs, args.threshold)
    holds = harness.holds_order(reach, wanted) if wanted else None

    print(f"threshold: eval success >= {threshold:.3f}")
    for label in sorted(reach, key=lambda k: np.median(reach[k])):
        r = reach[label]
        print(f"  {label}: median dialogues-to-threshold {np.median(r):.0f} "
              f"(min {min(r):.0f}, max {max(r):.0f}; {len(r)} seeds; "
              f"final success {curves[label][-1][1]:.3f})")
        print("    dialogues  success    min    max  return")
        for d, success, lo, hi, ret in curves[label]:
            print(f"    {d:9d}  {success:7.3f} {lo:6.3f} {hi:6.3f} {ret:7.3f}")
    if args.csv:
        lines = ["label,dialogues,success_median,success_min,success_max,"
                 "return_median\n"]
        for label, rows in curves.items():
            for d, *values in rows:
                lines.append(f"{label},{d},"
                             + ",".join(f"{v:.6f}" for v in values) + "\n")
        replace_file(args.csv, lambda fh: fh.write("".join(lines).encode()))
        print(f"median curves -> {args.csv}")
    if holds is False:
        print(f"ordering check FAILED: {wanted} not strictly fastest")
        return EXIT_CHECK
    if holds:
        print("ordering check passed")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialab",
        description="Train, evaluate and compare dialogue managers on the "
                    "restaurant domain")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override")

    p = sub.add_parser("train", help="train one run and write its curve")
    add_config(p)
    p.add_argument("--out", help="output directory (default from config)")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="exploration-free evaluation")
    add_config(p)
    p.add_argument("--policy", default="agent",
                   choices=("agent", "handcrafted", "random"))
    p.add_argument("--checkpoint")
    p.add_argument("--episodes", type=int)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("pretrain", help="run the pretraining only")
    add_config(p)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("generate-corpus", help="log handcrafted dialogues")
    add_config(p)
    p.add_argument("--n", type=int, default=2118)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate_corpus)

    p = sub.add_parser("rate", help="re-rate a corpus file")
    p.add_argument("--corpus", required=True)
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("report", help="median curves and dialogues-to-"
                                      "threshold of multi-seed runs")
    p.add_argument("runs", nargs="+", metavar="LABEL=DIR")
    p.add_argument("--threshold", type=float)
    p.add_argument("--expect-order", help="comma-separated fastest-first labels")
    p.add_argument("--csv", metavar="OUT", help="write the median curves as CSV")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
