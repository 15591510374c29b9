"""Experiment orchestration.

Owns the annealing schedule, the periodic evaluation protocol (fresh
exploration-free dialogues on a fixed evaluation stream), the training loop
shared by all five algorithms, learning-curve files, multi-seed comparison,
and the act-level chat mode.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import corpus as corpus_mod
from . import tracker, usersim
from .actor_critic import ActorCriticAgent
from .checkpoint import replace_file
from .environment import ORIGINAL_ACTIONS, DialogueEnv, EnvConfig, rollout
from .gpsarsa import GPSarsaAgent, KernelSpec
from .ontology import (GoalConfig, OntologyError, UserGoal, default_ontology,
                       generate_db, parse_user_act)
from .seeding import rng_stream
from .tracker import ErrorModel
from .usersim import UserConfig
from .value_agents import AgentConfig, QAgent

log = logging.getLogger(__name__)

ALGORITHMS = ("gpsarsa", "dqn", "ddqn", "da2c", "tda2c")
PRETRAIN_MODES = ("none", "batch", "sup_full_batch", "sup_expert_batch")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass(frozen=True)
class EpsilonSchedule:
    mode: str = "geometric"       # geometric: e0 * rate^t; linear: e0 - rate*t
    start: float = 0.5
    rate: float = 0.99995
    floor: float = 0.05
    unit: str = "transition"      # schedule steps per transition or per dialogue

    def __post_init__(self):
        if self.mode not in ("geometric", "linear"):
            raise ConfigError(f"unknown epsilon mode '{self.mode}'")
        if self.unit not in ("transition", "dialogue"):
            raise ConfigError(f"unknown epsilon unit '{self.unit}'")
        if not 0.0 <= self.floor <= self.start <= 1.0:
            raise ConfigError("need 0 <= floor <= start <= 1")


def epsilon(schedule: EpsilonSchedule, t: int) -> float:
    if t < 0:
        raise ValueError("schedule step must be >= 0")
    if schedule.mode == "geometric":
        value = schedule.start * schedule.rate ** t
    else:
        value = schedule.start - schedule.rate * t
    return max(schedule.floor, value)


@dataclass(frozen=True)
class GPParams:
    length_scale: float = 3.0
    signal_var: float = 1.0
    noise_var: float = 0.1
    nu: float = 0.1
    max_dictionary: int = 2000


@dataclass(frozen=True)
class PretrainParams:
    mode: str = "none"
    corpus: str | None = None

    def __post_init__(self):
        if self.mode not in PRETRAIN_MODES:
            raise ConfigError(f"unknown pretrain mode '{self.mode}'")
        if self.mode != "none" and not self.corpus:
            raise ConfigError("pretrain mode set but no corpus path given")


@dataclass(frozen=True)
class ExperimentConfig(EnvConfig):
    """One run: the environment's settings (inherited, so a DialogueEnv
    takes the experiment config itself) plus the learner and the protocol."""

    algorithm: str = "dqn"
    seed: int = 0
    dialogues: int = 1000
    eval_period: int = 100
    eval_episodes: int = 100
    out: str | None = None
    gamma: float = 0.99
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    agent: AgentConfig = field(default_factory=AgentConfig)
    gp: GPParams = field(default_factory=GPParams)
    pretrain: PretrainParams = field(default_factory=PretrainParams)

    def __post_init__(self):
        super().__post_init__()
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm '{self.algorithm}'")
        if self.dialogues < 1 or self.eval_period < 1 or self.eval_episodes < 1:
            raise ConfigError("dialogues/eval_period/eval_episodes must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma={self.gamma} outside [0,1]")

    def excluded_actions(self) -> tuple:
        if self.agent.excluded is not None:
            return tuple(self.agent.excluded)
        if self.space == "original":
            return tuple(ORIGINAL_ACTIONS.index(a) for a in
                         ("select-area", "select-food", "select-pricerange"))
        return ()


_SUBCONFIGS = {
    "epsilon": EpsilonSchedule,
    "user": UserConfig,
    "error": ErrorModel,
    "goals": GoalConfig,
    "agent": AgentConfig,
    "gp": GPParams,
    "pretrain": PretrainParams,
}


def _coerce(cls, data: dict, path: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under '{path}'")
    kwargs = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad '{path}' section: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    kwargs = {}
    for name, cls in _SUBCONFIGS.items():
        if name in data:
            section = data.pop(name)
            if not isinstance(section, dict):
                raise ConfigError(f"section '{name}' must be a mapping")
            if name == "goals" and "request_count_weights" in section:
                section = dict(section)
                section["request_count_weights"] = {
                    int(k): float(v)
                    for k, v in section["request_count_weights"].items()}
            kwargs[name] = _coerce(cls, section, name)
    top = _coerce(ExperimentConfig, data, "config")
    return dataclasses.replace(top, **kwargs)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    def unwrap(value):
        if dataclasses.is_dataclass(value):
            return {f.name: unwrap(getattr(value, f.name))
                    for f in fields(value)}
        if isinstance(value, tuple):
            return list(value)
        if isinstance(value, dict):
            return {str(k): unwrap(v) for k, v in value.items()}
        return value
    return unwrap(cfg)


def load_config(path: str, overrides: list[str] | None = None) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# construction


def build_world(cfg: ExperimentConfig):
    ontology = default_ontology()
    db = generate_db(ontology, n=cfg.db_size, rng=rng_stream(cfg.seed, "db"))
    env = DialogueEnv(ontology, db, cfg)
    return ontology, db, env


def build_agent(cfg: ExperimentConfig, env: DialogueEnv):
    rng = rng_stream(cfg.seed, "agent-init")
    agent_cfg = dataclasses.replace(cfg.agent, excluded=cfg.excluded_actions())
    if cfg.algorithm in ("dqn", "ddqn"):
        return QAgent(env.n_features, env.n_actions, agent_cfg, rng,
                      gamma=cfg.gamma, double_dqn=(cfg.algorithm == "ddqn"))
    if cfg.algorithm in ("da2c", "tda2c"):
        return ActorCriticAgent(env.n_features, env.n_actions, agent_cfg, rng,
                                gamma=cfg.gamma)
    if cfg.algorithm == "gpsarsa":
        spec = KernelSpec(length_scale=cfg.gp.length_scale,
                          signal_var=cfg.gp.signal_var,
                          noise_var=cfg.gp.noise_var)
        return GPSarsaAgent(env.n_features, env.n_actions, spec, nu=cfg.gp.nu,
                            gamma=cfg.gamma,
                            max_dictionary=cfg.gp.max_dictionary)
    raise ConfigError(f"unknown algorithm '{cfg.algorithm}'")


def run_pretraining(cfg: ExperimentConfig, env: DialogueEnv,
                    agent: ActorCriticAgent) -> dict:
    mode = cfg.pretrain.mode
    if mode == "none":
        return {}
    loaded = corpus_mod.load_corpus(cfg.pretrain.corpus)
    if mode == "sup_expert_batch":
        sup_corpus = corpus_mod.filter_expert(loaded)
    else:
        sup_corpus = loaded
    pairs = corpus_mod.to_supervised(sup_corpus) if mode != "batch" else []
    transitions = corpus_mod.to_transitions(loaded)
    stats = agent.pretrain(
        pairs, transitions,
        expected_layout=tracker.feature_names(cfg.space),
        corpus_layout=loaded.feature_names,
        rng=rng_stream(cfg.seed, "pretrain"),
        supervised=(mode != "batch"), batch_rl=True)
    stats["mode"] = mode
    log.info("pretraining done: %s", stats)
    return stats


# ---------------------------------------------------------------------------
# evaluation


def evaluate(action_fn, env: DialogueEnv, episodes: int, seed: int):
    """Exploration-free aggregate over a fixed evaluation stream."""
    returns = np.zeros(episodes)
    lengths = np.zeros(episodes)
    successes = np.zeros(episodes, dtype=bool)
    for i in range(episodes):
        for t in rollout(env, action_fn, rng_stream(seed, "eval", i)):
            returns[i] += t.reward
            lengths[i] += 1
        successes[i] = t.success
    return (float(successes.mean()), float(returns.mean()),
            float(lengths.mean()))


CURVE_HEADER = "dialogues,success_rate,mean_return,mean_length,wall_clock_s"


def _curve_line(row: tuple) -> str:
    d, s, r, length, w = row
    # repr keeps floats round-trip exact across save/load/resume
    return f"{d},{s!r},{r!r},{length!r},{w:.3f}\n"


def append_curve_row(path: str, row: tuple) -> None:
    new = not os.path.exists(path)
    with open(path, "a") as fh:
        if new:
            fh.write(CURVE_HEADER + "\n")
        fh.write(_curve_line(row))
        fh.flush()


def load_curve(path: str) -> list[tuple]:
    rows = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        raise ValueError(f"{path}: missing curve header")
    for ln in lines[1:]:
        if not ln.strip():
            continue
        d, s, r, length, w = ln.split(",")
        rows.append((int(d), float(s), float(r), float(length), float(w)))
    return rows


# ---------------------------------------------------------------------------
# the training loop


def train_run(cfg: ExperimentConfig, resume: bool = False) -> list[tuple]:
    """Train one (algorithm, seed) run, evaluating every eval_period
    dialogues: each eval point appends a curve row, then replaces the
    run's one snapshot, ``checkpoint.npz``. Returns the rows."""
    if cfg.out is None:
        raise ConfigError("config needs an 'out' directory for training")
    if cfg.algorithm == "tda2c" and cfg.pretrain.mode not in (
            "sup_full_batch", "sup_expert_batch"):
        raise ConfigError("tda2c needs a supervised pretrain mode and corpus")
    if cfg.pretrain.mode != "none" and cfg.algorithm not in ("da2c", "tda2c"):
        raise ConfigError("pretraining applies to the actor-critic algorithms")
    os.makedirs(cfg.out, exist_ok=True)
    curve_path = os.path.join(cfg.out, "curve.csv")
    ckpt_path = os.path.join(cfg.out, "checkpoint.npz")
    resuming = resume and os.path.exists(ckpt_path)
    for name in os.listdir(cfg.out):
        # a killed write's temporary file; on a fresh run also an earlier
        # run's curve and snapshot, in either file layout
        if name.endswith(".tmp") or not resuming and name in (
                "curve.csv", "checkpoint.npz", "pool.npz", "state.json"):
            os.remove(os.path.join(cfg.out, name))

    _, _, env = build_world(cfg)
    eval_env = DialogueEnv(env.ontology, env.db, cfg)
    agent = build_agent(cfg, env)

    start_ep = 0
    schedule_t = 0
    trained_seconds = 0.0
    rows: list[tuple] = []
    if resuming:
        run = agent.load(ckpt_path, "episodes_done", "schedule_t")
        start_ep, schedule_t = run["episodes_done"], run["schedule_t"]
        # a kill after an eval row was appended but before the snapshot was
        # replaced leaves rows past it; they are trained again
        rows = [row for row in load_curve(curve_path) if row[0] <= start_ep]
        if not rows or rows[-1][0] != start_ep:
            raise ValueError(f"{curve_path}: no row at dialogue {start_ep}")
        trained_seconds = rows[-1][4]
        text = CURVE_HEADER + "\n" + "".join(map(_curve_line, rows))
        replace_file(curve_path, lambda fh: fh.write(text.encode()))
        log.info("resuming %s at dialogue %d", cfg.out, start_ep)
    else:
        with open(os.path.join(cfg.out, "config.json"), "w") as fh:
            json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        with open(os.path.join(cfg.out, "layout.json"), "w") as fh:
            json.dump({"space": cfg.space,
                       "feature_names": tracker.feature_names(cfg.space)}, fh)
        if cfg.algorithm == "tda2c" or cfg.pretrain.mode != "none":
            run_pretraining(cfg, env, agent)

    def eval_point(dialogues_done: int):
        success, mean_return, mean_length = evaluate(
            agent.eval_action, eval_env, cfg.eval_episodes, cfg.seed)
        row = (dialogues_done, success, mean_return, mean_length,
               trained_seconds)
        append_curve_row(curve_path, row)
        rows.append(row)

    if start_ep == 0:
        eval_point(0)

    def policy(features):
        return agent.select_action(features, epsilon(cfg.epsilon, schedule_t),
                                   rng)

    for ep in range(start_ep + 1, cfg.dialogues + 1):
        rng = rng_stream(cfg.seed, "train", ep)
        t0 = time.perf_counter()
        agent.begin_episode()
        for t in rollout(env, policy, rng):
            agent.observe(t, rng)
            if cfg.epsilon.unit == "transition":
                schedule_t += 1
        if cfg.epsilon.unit == "dialogue":
            schedule_t += 1
        trained_seconds += time.perf_counter() - t0

        if ep % cfg.eval_period == 0 or ep == cfg.dialogues:
            eval_point(ep)
            # the run's one commit point: learner state and run counters
            agent.save(ckpt_path, episodes_done=ep, schedule_t=schedule_t)
    return rows


# ---------------------------------------------------------------------------
# comparison


@dataclass
class RunStats:
    label: str
    seeds: int
    median_to_threshold: float
    min_to_threshold: float
    max_to_threshold: float
    per_seed: list
    final_success_median: float
    wall_clock_at: dict


@dataclass
class ComparisonReport:
    threshold: float
    stats: dict

    def order(self) -> list[str]:
        return sorted(self.stats, key=lambda k: self.stats[k].median_to_threshold)

    def format(self) -> str:
        lines = [f"threshold: eval success >= {self.threshold:.3f}"]
        for label in self.order():
            s = self.stats[label]
            med = ("inf" if np.isinf(s.median_to_threshold)
                   else f"{s.median_to_threshold:.0f}")
            lines.append(
                f"  {label}: median dialogues-to-threshold {med} "
                f"(min {s.min_to_threshold:.0f}, max {s.max_to_threshold:.0f}; "
                f"{s.seeds} seeds; final success {s.final_success_median:.3f})")
        return "\n".join(lines)


def dialogues_to_threshold(curve: list[tuple], threshold: float) -> float:
    for row in curve:
        if row[1] >= threshold:
            return float(row[0])
    return float("inf")


def compare_runs(curves_by_label: dict, threshold: float | None = None,
                 threshold_frac: float = 0.9) -> ComparisonReport:
    """Median dialogues-to-threshold per label across seeds.

    With no explicit threshold, uses threshold_frac of the best eval success
    seen anywhere in the comparison.
    """
    if len(curves_by_label) < 1:
        raise ValueError("nothing to compare")
    for label, curves in curves_by_label.items():
        if not curves:
            raise ValueError(f"run '{label}' has no seed curves")
        grids = [tuple(r[0] for r in c) for c in curves]
        if len(set(grids)) != 1:
            raise ValueError(f"run '{label}': seed curves have mismatched "
                             f"eval grids")
        for c in curves:
            if not c:
                raise ValueError(f"run '{label}' has an empty curve")
    if threshold is None:
        best = max(row[1] for curves in curves_by_label.values()
                   for c in curves for row in c)
        threshold = threshold_frac * best
    stats = {}
    for label, curves in curves_by_label.items():
        reach = [dialogues_to_threshold(c, threshold) for c in curves]
        finals = [c[-1][1] for c in curves]
        wall = {}
        for c in curves:
            for row in c:
                wall.setdefault(row[0], []).append(row[4])
        stats[label] = RunStats(
            label=label, seeds=len(curves),
            median_to_threshold=float(np.median(reach)),
            min_to_threshold=float(np.min(reach)),
            max_to_threshold=float(np.max(reach)),
            per_seed=reach,
            final_success_median=float(np.median(finals)),
            wall_clock_at={k: float(np.median(v)) for k, v in wall.items()},
        )
    return ComparisonReport(threshold=threshold, stats=stats)


def load_run_curves(run_dir: str) -> list[list[tuple]]:
    """All seed curves under a run directory (seed-*/curve.csv)."""
    curves = []
    for name in sorted(os.listdir(run_dir)):
        path = os.path.join(run_dir, name, "curve.csv")
        if os.path.exists(path):
            curves.append(load_curve(path))
    if not curves:
        single = os.path.join(run_dir, "curve.csv")
        if os.path.exists(single):
            curves.append(load_curve(single))
    if not curves:
        raise ValueError(f"no curve files under {run_dir}")
    return curves


# ---------------------------------------------------------------------------
# act-level chat


def _parse_goal(text: str) -> UserGoal:
    constraints = {}
    requests = []
    for token in text.replace(",", " ").split():
        if "=" in token:
            slot, value = token.split("=", 1)
            constraints[slot] = value
        else:
            requests.append(token)
    return UserGoal(constraints=constraints, requests=tuple(requests))


def chat_session(cfg: ExperimentConfig, checkpoint: str | None = None,
                 stdin=None, stdout=None, goal: str | None = None) -> bool:
    """Interactive act-level loop; returns the success verdict (False when no
    goal was declared)."""
    import sys
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout

    def say(text):
        stdout.write(text + "\n")

    _, db, env = build_world(cfg)
    if checkpoint:
        agent = build_agent(cfg, env)
        agent.load(checkpoint)
        policy = agent.eval_action
    else:
        policy = corpus_mod.HandcraftedPolicy(cfg.space)

    declared = _parse_goal(goal) if goal else None
    shadow = (usersim.UserState(goal=declared, cfg=cfg.user)
              if declared else None)

    env.begin_manual(rng_stream(cfg.seed, "chat"))

    say("act syntax: inform(food=italian) | request(phone) | affirm | bye; "
        "empty line = null")
    while True:
        sys_act = env.realize(int(policy(env.features())))
        say(f"system: {sys_act.render()}")
        if shadow is not None and sys_act.act_type == "offer":
            if usersim.check_hangup(shadow, sys_act):
                say("note: this offer violates the declared goal")
                shadow.hung_up = True
            else:
                usersim.receive_offer(shadow, sys_act)
        line = stdin.readline()
        if line == "":
            break
        acts = []
        try:
            for part in line.strip().split(";"):
                acts.append(parse_user_act(part))
        except OntologyError as exc:
            say(f"could not parse that ({exc}); the turn was not consumed")
            say("act syntax: inform(food=italian) | request(phone) | affirm | bye")
            continue
        if shadow is not None:
            for act in acts:
                if act.act_type == "request" and act.slot not in shadow.received:
                    if act.slot not in shadow.asked:
                        shadow.asked.append(act.slot)
        env.hear(sys_act, acts)
        summary = []
        for slot in env.ontology.constraint_slots:
            items = tracker.top_values(env.belief, slot)
            if items and items[0][1] > 0.005:
                summary.append(f"{slot}: ({items[0][0]}, {items[0][1]:.2f})")
        wanted = [s for s, p in env.belief.requests.items() if p > 0.1]
        say("belief: " + ("; ".join(summary) if summary else "(empty)")
            + (f" | requested: {', '.join(wanted)}" if wanted else ""))
        if any(a.act_type == "bye" for a in acts):
            break
        if env.belief.turn >= cfg.max_turns:
            say("turn cap reached")
            break
    verdict = bool(shadow is not None and usersim.is_satisfied(shadow))
    if declared is not None:
        say(f"verdict: {'success' if verdict else 'failure'}")
    return verdict
