"""Experiment orchestration.

Owns the annealing schedule, the one epsilon-exploration draw every
algorithm's training turn goes through, the pretraining pipeline (the
actor-critic's supervised stage, then batch RL through any deep learner's
own replay step), the periodic evaluation protocol
(fresh exploration-free dialogues on a fixed evaluation stream), the
training loop shared by all five algorithms, learning-curve files, and
multi-seed comparison.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import corpus as corpus_mod
from .actor_critic import ActorCriticAgent
from .checkpoint import replace_file
from .environment import DialogueEnv, EnvConfig, rollout
from .gpsarsa import GPConfig, GPSarsaAgent
from .ontology import VALUES, generate_db
from .ranges import SCALAR_TYPES, ConfigError, bounded, check_ranges
from .seeding import rng_stream
from .value_agents import AgentConfig, QAgent

log = logging.getLogger(__name__)

ALGORITHMS = ("gpsarsa", "dqn", "ddqn", "da2c", "tda2c")
PRETRAIN_MODES = ("none", "batch", "sup_full_batch", "sup_expert_batch")
THRESHOLD_FRAC = 0.9


@dataclass(frozen=True)
class EpsilonSchedule:
    """epsilon after t transitions: max(floor, start * rate ** t)."""

    start: float = bounded("[0, 1]", 0.5)
    rate: float = bounded("[0, 1]", 0.99995)
    floor: float = bounded("[0, 1]", 0.05)

    def __post_init__(self):
        check_ranges(self)
        if self.floor > self.start:
            raise ConfigError(f"floor={self.floor} exceeds start={self.start}")


def epsilon(schedule: EpsilonSchedule, t: int) -> float:
    if t < 0:
        raise ValueError("schedule step must be >= 0")
    return max(schedule.floor, schedule.start * schedule.rate ** t)


@dataclass(frozen=True)
class PretrainParams:
    mode: str = "none"
    corpus: str | None = None

    def __post_init__(self):
        check_ranges(self)
        if self.mode not in PRETRAIN_MODES:
            raise ConfigError(f"mode={self.mode!r} not in {PRETRAIN_MODES}")
        if self.mode != "none" and not self.corpus:
            raise ConfigError(f"corpus={self.corpus!r}: mode {self.mode!r} "
                              f"needs one")


@dataclass(frozen=True)
class ExperimentConfig(EnvConfig):
    """One run: the environment's settings (inherited, so a DialogueEnv
    takes the experiment config itself) plus the learner and the protocol."""

    algorithm: str = "dqn"
    # rng_stream folds a seed to 32 bits: a seed outside would run as another
    seed: int = bounded("[0, 4294967296)", 0)
    dialogues: int = bounded("[1, inf)", 1000)
    eval_period: int = bounded("[1, inf)", 100)
    eval_episodes: int = bounded("[1, inf)", 100)
    out: str | None = None
    gamma: float = bounded("[0, 1]", 0.99)
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    agent: AgentConfig = field(default_factory=AgentConfig)
    gp: GPConfig = field(default_factory=GPConfig)
    pretrain: PretrainParams = field(default_factory=PretrainParams)

    def __post_init__(self):
        super().__post_init__()
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm={self.algorithm!r} not in "
                              f"{ALGORITHMS}")


def _coerce(cls, data, path: str = ""):
    """``cls`` from the JSON mapping ``data``, each section in turn; every
    error is a ConfigError naming the section or dotted key at fault."""
    where = path or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"section '{where}' must be a mapping")
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under '{where}'")
    kwargs = {}
    for key, value in data.items():
        section = known[key].default_factory
        if dataclasses.is_dataclass(section):
            value = _coerce(section, value, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}" if path else str(exc)) from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    return _coerce(ExperimentConfig, data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """``cfg`` as JSON values; an int or float field as a plain number."""
    def unwrap(value, kind=None):
        if dataclasses.is_dataclass(value):
            return {f.name: unwrap(getattr(value, f.name), f.type)
                    for f in fields(value)}
        if isinstance(value, tuple):
            return list(value)
        if isinstance(value, dict):
            return {str(k): unwrap(v) for k, v in value.items()}
        if kind in ("int", "float"):
            return {"int": int, "float": float}[kind](value)
        return value
    return unwrap(cfg)


def _override_types(key: str) -> tuple:
    """The types of the scalar field the dotted ``key`` names, if any."""
    record = ExperimentConfig
    for part in key.split("."):
        f = getattr(record, "__dataclass_fields__", {}).get(part)
        if f is None:
            return ()
        record = f.default_factory     # a section's record class
    return SCALAR_TYPES.get(f.type, ((), ""))[0]


def load_config(path: str, overrides: list[str] | None = None) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: the config must be a JSON object, not "
                          f"{type(data).__name__}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not key=value")
        key, raw = item.split("=", 1)
        types = _override_types(key)
        if str in types:    # a string field takes the text as it is given
            value = None if raw == "null" and type(None) in types else raw
        else:
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
        node = data
        parts = key.split(".")
        for i, part in enumerate(parts[:-1]):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override '{item}': '"
                                  f"{'.'.join(parts[:i + 1])}' is {node!r}, "
                                  f"not a section")
        node[parts[-1]] = value
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# construction


def build_world(cfg: ExperimentConfig):
    """The domain's value lists, the seeded database and an environment."""
    db = generate_db(n=cfg.db_size, rng=rng_stream(cfg.seed, "db"))
    return VALUES, db, DialogueEnv(db, cfg)


def build_agent(cfg: ExperimentConfig, env: DialogueEnv):
    rng = rng_stream(cfg.seed, "agent-init")
    if cfg.algorithm in ("dqn", "ddqn"):
        return QAgent(env.n_features, env.n_actions, cfg.agent, rng,
                      gamma=cfg.gamma, double_dqn=(cfg.algorithm == "ddqn"))
    if cfg.algorithm in ("da2c", "tda2c"):
        return ActorCriticAgent(env.n_features, env.n_actions, cfg.agent, rng,
                                env.space.explored, gamma=cfg.gamma)
    return GPSarsaAgent(env.n_features, env.n_actions, cfg.gp,
                        gamma=cfg.gamma)


def check_pretraining(cfg: ExperimentConfig, required: bool = False) -> None:
    """The one rule on pretraining: gpsarsa takes none, a supervised mode
    needs an actor-critic, tda2c needs a supervised mode, and ``required``
    refuses none."""
    mode, algorithm = cfg.pretrain.mode, cfg.algorithm
    if algorithm == "gpsarsa" and (mode != "none" or required):
        raise ConfigError("gpsarsa takes no pretraining")
    if mode.startswith("sup_") and algorithm not in ("da2c", "tda2c"):
        raise ConfigError(f"pretrain.mode {mode!r} needs da2c or tda2c")
    if algorithm == "tda2c" and not mode.startswith("sup_"):
        raise ConfigError(f"tda2c needs a supervised pretrain.mode, not "
                          f"{mode!r}")
    if required and mode == "none":
        raise ConfigError("pretrain.mode is 'none': nothing to pretrain")


def run_pretraining(cfg: ExperimentConfig, env: DialogueEnv, agent) -> dict:
    """Pretrain ``agent`` on the configured corpus file, streamed straight
    into its replay pool, in order, once its header names the run's space.
    A supervised mode first runs the actor-critic's ``imitate`` on every
    stored turn or on the rating-3 ones. Batch RL then sweeps the pool
    ``batch_sweeps`` times with the agent's own replay step. Both stages
    draw from the ``pretrain`` stream; an empty corpus runs neither. See
    ``check_pretraining`` for the modes."""
    mode, path = cfg.pretrain.mode, cfg.pretrain.corpus
    reader = corpus_mod.CorpusReader(path)
    if reader.space != cfg.space:
        raise ConfigError(f"{path}: a corpus of the {reader.space} space; "
                          f"this run's space is {cfg.space}")
    rating = corpus_mod.fill_pool(reader, agent.pool)
    if len(rating) > agent.pool.capacity:
        raise ConfigError(f"{path}: {len(rating)} turns, more than "
                          f"agent.pool_capacity={agent.config.pool_capacity}"
                          f"; batch RL would lose the oldest")
    rng = rng_stream(cfg.seed, "pretrain")
    stats = {"supervised_examples": 0, "holdout_accuracy": None,
             "value_sweeps": 0, "mode": mode}
    if not len(rating):
        log.warning("pretraining on an empty corpus; nothing to do")
        return stats
    if len(rating) < agent.config.minibatch:
        raise ConfigError(f"{path}: {len(rating)} turns, fewer than "
                          f"agent.minibatch={agent.config.minibatch}; "
                          f"batch RL needs one minibatch")
    if mode == "sup_full_batch":
        stats |= agent.imitate(np.arange(len(rating)), rng)
    elif mode == "sup_expert_batch":
        stats |= agent.imitate(np.flatnonzero(rating == 3), rng)
    # looked up now, so a wrapper set on the agent's class is what runs
    replay_step = (agent.train_step if isinstance(agent, QAgent)
                   else agent.value_train_step)
    per_sweep = max(1, len(rating) // agent.config.minibatch)
    for _ in range(agent.config.batch_sweeps * per_sweep):
        replay_step(rng)
    stats["value_sweeps"] = agent.config.batch_sweeps
    log.info("pretraining done: %s", stats)
    return stats


# ---------------------------------------------------------------------------
# evaluation


def evaluate(action_fn, env: DialogueEnv, episodes: int, seed: int):
    """Exploration-free aggregate over a fixed evaluation stream."""
    dialogues = (tuple(rollout(env, action_fn, rng_stream(seed, "eval", i)))
                 for i in range(episodes))
    rows = [(d[-1].success, sum(t.reward for t in d), len(d))
            for d in dialogues]
    return tuple(float(np.mean(column)) for column in zip(*rows))


CURVE_HEADER = "dialogues,success_rate,mean_return,mean_length,wall_clock_s"


def _curve_line(row: tuple) -> str:
    d, s, r, length, w = row
    # repr keeps floats round-trip exact across save/load/resume
    return f"{d},{s!r},{r!r},{length!r},{w:.3f}\n"


def write_curve(path: str, rows: list[tuple]) -> None:
    """Write the whole curve file; it replaces the old one only once whole."""
    text = CURVE_HEADER + "\n" + "".join(map(_curve_line, rows))
    replace_file(path, lambda fh: fh.write(text.encode()))


def load_curve(path: str) -> list[tuple]:
    rows = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        raise ValueError(f"{path}: missing curve header")
    for number, ln in enumerate(lines[1:], 2):
        if not ln.strip():
            continue
        try:
            d, s, r, length, w = ln.split(",")
            rows.append((int(d), float(s), float(r), float(length), float(w)))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from exc
    return rows


# ---------------------------------------------------------------------------
# the training loop


def behaviour_action(agent, features, epsilon: float, explored: tuple,
                     rng: np.random.Generator) -> int:
    """The action a training turn takes: with probability ``epsilon`` a
    uniform draw from ``explored``, otherwise the agent's own choice."""
    if rng.random() < epsilon:
        return explored[int(rng.integers(len(explored)))]
    return agent.act(features, rng)


def _require_unchanged(stored, given, key: str = "") -> None:
    """Raise ConfigError naming the first setting two configs differ in."""
    if dataclasses.is_dataclass(given):
        for f in fields(given):
            _require_unchanged(getattr(stored, f.name), getattr(given, f.name),
                               f"{key}{f.name}.")
    elif stored != given:
        raise ConfigError(f"resume changes {key[:-1]} from {stored!r} to "
                          f"{given!r}; only dialogues may change")


def train_run(cfg: ExperimentConfig, resume: bool = False) -> list[tuple]:
    """Train one (algorithm, seed) run, evaluating every eval_period
    dialogues: each eval point rewrites ``curve.csv`` with its new row,
    then replaces the run's one snapshot, ``checkpoint.npz``. Returns the
    rows. ``resume`` continues the run in ``cfg.out``, or returns its rows
    if finished."""
    if cfg.out is None:
        raise ConfigError("config needs an 'out' directory for training")
    check_pretraining(cfg)
    curve_path = os.path.join(cfg.out, "curve.csv")
    ckpt_path = os.path.join(cfg.out, "checkpoint.npz")
    config_path = os.path.join(cfg.out, "config.json")
    config_text = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
    resuming = resume and os.path.exists(ckpt_path)
    _, _, env = build_world(cfg)
    agent = build_agent(cfg, env)

    start_ep = 0
    schedule_t = 0
    trained_seconds = 0.0
    rows: list[tuple] = []
    if resuming:
        stored = load_config(config_path)
        _require_unchanged(dataclasses.replace(
            stored, out=cfg.out, dialogues=cfg.dialogues), cfg)
        run = agent.load(ckpt_path, "episodes_done", "schedule_t")
        start_ep, schedule_t = run["episodes_done"], run["schedule_t"]
        if cfg.dialogues < start_ep:
            raise ConfigError(f"cannot resume {cfg.out} with dialogues="
                              f"{cfg.dialogues}: its snapshot is at {start_ep}")
        # a kill after an eval row was written but before the snapshot was
        # replaced leaves rows past it; they are trained again
        rows = [row for row in load_curve(curve_path) if row[0] <= start_ep]
        if not rows or rows[-1][0] != start_ep:
            raise ValueError(f"{curve_path}: no row at dialogue {start_ep}")
        trained_seconds = rows[-1][4]
    elif cfg.pretrain.mode != "none":
        # before any file is written, so a corpus it refuses leaves none
        run_pretraining(cfg, env, agent)
    os.makedirs(cfg.out, exist_ok=True)
    for name in os.listdir(cfg.out):
        # a killed write's temporary file; on a fresh run also an earlier
        # run's curve and snapshot, in either file layout
        if name.endswith(".tmp") or not resuming and name in (
                "curve.csv", "checkpoint.npz", "pool.npz", "state.json"):
            os.remove(os.path.join(cfg.out, name))
    # a resume may extend the run; config.json describes it as now set up
    if not resuming or stored != cfg:
        replace_file(config_path, lambda fh: fh.write(config_text.encode()))
    if resuming:
        write_curve(curve_path, rows)
        log.info("resuming %s at dialogue %d", cfg.out, start_ep)

    def eval_point(dialogues_done: int):
        success, mean_return, mean_length = evaluate(
            agent.eval_action, env, cfg.eval_episodes, cfg.seed)
        row = (dialogues_done, success, mean_return, mean_length,
               trained_seconds)
        rows.append(row)
        write_curve(curve_path, rows)

    if start_ep == 0:
        eval_point(0)

    explored = env.space.explored
    eps = None      # the epsilon the turn's action was drawn under

    def policy(features):
        nonlocal eps
        eps = epsilon(cfg.epsilon, schedule_t)
        return behaviour_action(agent, features, eps, explored, rng)

    for ep in range(start_ep + 1, cfg.dialogues + 1):
        rng = rng_stream(cfg.seed, "train", ep)
        t0 = time.perf_counter()
        for t in rollout(env, policy, rng):
            agent.observe(t, rng, eps)
            schedule_t += 1
        trained_seconds += time.perf_counter() - t0

        if ep % cfg.eval_period == 0 or ep == cfg.dialogues:
            eval_point(ep)
            # the run's one commit point: learner state and run counters
            agent.save(ckpt_path, episodes_done=ep, schedule_t=schedule_t)
    return rows


# ---------------------------------------------------------------------------
# comparison


def median_curve(label: str, curves: list[list[tuple]]) -> list[tuple]:
    """Per eval point of a label's seeds, which must share one eval grid:
    (dialogues, median, min and max success, median return)."""
    if not curves or not curves[0]:
        raise ValueError(f"run '{label}' has no curve rows")
    if len({tuple(row[0] for row in c) for c in curves}) != 1:
        raise ValueError(f"run '{label}': seed curves have mismatched "
                         f"eval grids")
    table = np.array(curves)        # seeds x eval points x curve columns
    success, returns = table[:, :, 1], table[:, :, 2]
    return list(zip([row[0] for row in curves[0]],
                    np.median(success, axis=0), success.min(axis=0),
                    success.max(axis=0), np.median(returns, axis=0)))


def compare_runs(curves_by_label: dict,
                 threshold: float | None = None) -> tuple[float, dict]:
    """The threshold and, per label, each seed's dialogues-to-threshold:
    its first eval point at or above the threshold with a nonzero success
    rate, or infinity. With no explicit threshold, every label shares
    THRESHOLD_FRAC of the highest point of any label's median curve, so one
    lucky seed cannot set it; if that is 0, no seed reaches it."""
    if len(curves_by_label) < 1:
        raise ValueError("nothing to compare")
    medians = [median_curve(label, curves)
               for label, curves in curves_by_label.items()]
    if threshold is None:
        threshold = THRESHOLD_FRAC * max(row[1] for rows in medians
                                         for row in rows)
    reach = {label: [next((row[0] for row in c
                           if row[1] >= threshold and row[1] > 0),
                          math.inf) for c in curves]
             for label, curves in curves_by_label.items()}
    return threshold, reach


def holds_order(reach: dict, wanted: list[str]) -> bool:
    """Whether ``wanted``, then the fastest other label or infinity, have
    strictly increasing median dialogues-to-threshold."""
    unknown = [k for k in wanted if k not in reach]
    if unknown:
        raise ConfigError(f"unknown label(s) {unknown}")
    median = {k: float(np.median(r)) for k, r in reach.items()}
    chain = [median[k] for k in wanted]
    chain.append(min((m for k, m in median.items() if k not in wanted),
                     default=math.inf))
    return all(a < b for a, b in zip(chain, chain[1:]))


def load_runs(specs: list[str]) -> dict:
    """Each ``LABEL=DIR`` spec's seed curves: every ``DIR/*/curve.csv``,
    or ``DIR/curve.csv`` for a single run."""
    curves = {}
    for spec in specs:
        label, sep, run_dir = spec.partition("=")
        if not sep:
            raise ConfigError(f"run spec '{spec}' is not label=dir")
        if not label:
            raise ConfigError(f"run spec '{spec}' has an empty label")
        if label in curves:
            raise ConfigError(f"run spec '{spec}' repeats label '{label}'")
        root = glob.escape(run_dir)
        paths = (sorted(glob.glob(os.path.join(root, "*", "curve.csv")))
                 or glob.glob(os.path.join(root, "curve.csv")))
        if not paths:
            raise ValueError(f"no curve files under {run_dir}")
        curves[label] = [load_curve(path) for path in paths]
    return curves
