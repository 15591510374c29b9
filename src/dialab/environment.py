"""Episodic dialogue environment over belief states.

One step = one exchange: the chosen act is realized into a full system act
(summary mode adds the slot via the min-max heuristic), the simulated user
responds, the channel corrupts the response, and the tracker folds it into
the belief. Rewards follow the normalized scheme: -0.03 per turn, +1 on
success, -1 on a hang-up or on reaching the turn cap without success.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Callable, Iterator

import numpy as np

from . import tracker, usersim
from .ontology import (CONSTRAINT_SLOTS, VALUES, GoalConfig, RestaurantDB,
                       SystemAct, UserAct, query, sample_goal)
from .tracker import BeliefState, ErrorModel
from .usersim import UserConfig

SUMMARY_ACTIONS = ("cannothelp", "confirmdomain", "expl-conf", "offer",
                   "repeat", "request", "select")
ORIGINAL_ACTIONS = ("offer",
                    "select-area", "select-food", "select-pricerange",
                    "request-area", "request-food", "request-pricerange",
                    "expl-conf-area", "expl-conf-food", "expl-conf-pricerange",
                    "repeat")

CONFIRM_THRESHOLD = 0.9  # expl-conf targets slots confidently below this


class EpisodeStateError(RuntimeError):
    """step() called outside an active episode."""


@dataclass(frozen=True)
class EnvConfig:
    space: str = "original"              # "summary" or "original"
    max_turns: int = 30
    turn_penalty: float = -0.03
    success_reward: float = 1.0
    failure_reward: float = -1.0
    db_size: int = 150
    user: UserConfig = field(default_factory=UserConfig)
    error: ErrorModel = field(default_factory=ErrorModel)
    goals: GoalConfig = field(default_factory=GoalConfig)

    def __post_init__(self):
        if self.space not in ("summary", "original"):
            raise ValueError(f"unknown action/state space '{self.space}'")
        if self.max_turns <= 0:
            raise ValueError("max_turns must be positive")


@dataclass(frozen=True)
class Transition:
    features: np.ndarray
    action: int
    reward: float
    next_features: np.ndarray
    terminal: bool
    success: bool


@dataclass
class TurnRecord:
    turn: int
    features: list
    action: int
    system_act: str
    user_acts: list
    observed: list
    reward: float
    terminal: bool
    success: bool


@dataclass
class EpisodeLog:
    space: str
    records: list = field(default_factory=list)
    episode_return: float = 0.0
    success: bool = False
    length: int = 0
    final_features: list = field(default_factory=list)

    def transitions(self) -> list[Transition]:
        out = []
        for i, rec in enumerate(self.records):
            if rec.terminal and i + 1 < len(self.records):
                raise ValueError("terminal record not last in episode log")
            nxt = (self.records[i + 1].features if i + 1 < len(self.records)
                   else self.final_features)
            out.append(Transition(np.asarray(rec.features, dtype=float),
                                  rec.action, rec.reward,
                                  np.asarray(nxt, dtype=float),
                                  rec.terminal, rec.success))
        return out

    def to_dict(self) -> dict:
        return {"space": self.space, "return": self.episode_return,
                "success": self.success, "length": self.length,
                "final_features": list(self.final_features),
                "records": [asdict(r) for r in self.records]}

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeLog":
        log = cls(space=d["space"], episode_return=d["return"],
                  success=d["success"], length=d["length"],
                  final_features=list(d["final_features"]))
        log.records = [TurnRecord(**r) for r in d["records"]]
        return log


def understood_constraints(belief: BeliefState) -> dict[str, str]:
    """Slots whose most likely state is a concrete value rather than
    'not mentioned', with that value."""
    out = {}
    for slot in CONSTRAINT_SLOTS:
        items = tracker.top_values(belief, slot)
        if items and items[0][1] > tracker.not_mentioned_mass(belief, slot):
            out[slot] = items[0][0]
    return out


def minmax_slot(belief: BeliefState) -> str:
    """The most ambiguous slot: its most likely value has the lowest
    probability across constraint slots; ties break in canonical order."""
    best_slot, best_p = CONSTRAINT_SLOTS[0], float("inf")
    for slot in CONSTRAINT_SLOTS:
        p1, _ = tracker.top2(belief, slot)
        if p1 < best_p:
            best_slot, best_p = slot, p1
    return best_slot


def _expl_conf_slot(belief: BeliefState) -> str:
    best_slot, best_p = None, -1.0
    for slot in CONSTRAINT_SLOTS:
        p1, _ = tracker.top2(belief, slot)
        if p1 < CONFIRM_THRESHOLD and p1 > best_p:
            best_slot, best_p = slot, p1
    if best_slot is None or best_p <= 0.0:
        return minmax_slot(belief)
    return best_slot


def _select_slot(belief: BeliefState) -> str:
    best_slot, best_gap = CONSTRAINT_SLOTS[0], float("inf")
    for slot in CONSTRAINT_SLOTS:
        p1, p2 = tracker.top2(belief, slot)
        if p1 - p2 < best_gap:
            best_slot, best_gap = slot, p1 - p2
    return best_slot


def _slot_value(belief: BeliefState, slot: str) -> str:
    items = tracker.top_values(belief, slot)
    if items and items[0][1] > 0.0:
        return items[0][0]
    return VALUES[slot][0]


def _slot_options(belief: BeliefState, slot: str) -> tuple[str, str]:
    items = [v for v, m in tracker.top_values(belief, slot) if m > 0.0]
    fallback = [v for v in VALUES[slot] if v not in items]
    picks = (items + fallback)[:2]
    return (picks[0], picks[1])


def make_offer(belief: BeliefState,
               db: RestaurantDB) -> tuple[SystemAct | None, int]:
    """Query with the understood constraints; offer the first match.

    Returns (act, result_count); act is None when nothing matches and the
    caller realizes the configured fallback.
    """
    constraints = understood_constraints(belief)
    results = query(db, constraints)
    if not results:
        return None, 0
    record = results[0]
    payload = {"name": record.name}
    payload.update(constraints)
    return SystemAct("offer", payload=payload, restaurant=record), len(results)


def realize_summary_act(act_type: str, belief: BeliefState,
                        db: RestaurantDB) -> tuple[SystemAct, int | None]:
    """Attach slot/value/payload to a summary act type.

    Returns the realized act and, for acts that queried the database, the
    result count (None otherwise).
    """
    if act_type == "request":
        return SystemAct("request", slot=minmax_slot(belief)), None
    if act_type == "expl-conf":
        slot = _expl_conf_slot(belief)
        return SystemAct("expl-conf", slot=slot,
                         value=_slot_value(belief, slot)), None
    if act_type == "select":
        slot = _select_slot(belief)
        return SystemAct("select", slot=slot,
                         options=_slot_options(belief, slot)), None
    if act_type == "offer":
        act, count = make_offer(belief, db)
        if act is None:
            return SystemAct("cannothelp"), count
        return act, count
    if act_type == "cannothelp":
        constraints = understood_constraints(belief)
        return SystemAct("cannothelp"), len(query(db, constraints))
    if act_type in ("repeat", "confirmdomain"):
        return SystemAct(act_type), None
    raise ValueError(f"unknown summary act '{act_type}'")


def realize_original_act(name: str, belief: BeliefState,
                         db: RestaurantDB) -> tuple[SystemAct, int | None]:
    if name == "offer":
        act, count = make_offer(belief, db)
        if act is None:
            # the original space has no cannothelp; an apology the user
            # treats as a repeat keeps the action set at exactly 11
            return SystemAct("repeat"), count
        return act, count
    if name == "repeat":
        return SystemAct("repeat"), None
    kind, slot = name.rsplit("-", 1)
    if kind == "request":
        return SystemAct("request", slot=slot), None
    if kind == "expl-conf":
        return SystemAct("expl-conf", slot=slot,
                         value=_slot_value(belief, slot)), None
    if kind == "select":
        return SystemAct("select", slot=slot,
                         options=_slot_options(belief, slot)), None
    raise ValueError(f"unknown original action '{name}'")


def context_evidence(sys: SystemAct, obs) -> list:
    """Ground affirmations: an affirm heard after expl-conf(s, v) is evidence
    for inform(s, v) at the same confidence."""
    extra = []
    if sys.act_type == "expl-conf" and sys.slot and sys.value:
        for nbest in obs:
            for act, score in nbest:
                if act.act_type == "affirm":
                    extra.append([(UserAct("inform", slot=sys.slot,
                                           value=sys.value), score)])
    return extra


class DialogueEnv:
    """Goal-driven episodic environment; one instance per training loop."""

    def __init__(self, db: RestaurantDB, config: EnvConfig):
        self.db = db
        self.config = config
        self.actions = (SUMMARY_ACTIONS if config.space == "summary"
                        else ORIGINAL_ACTIONS)
        self._rng: np.random.Generator | None = None
        self._active = False
        self.belief: BeliefState | None = None
        self.user: usersim.UserState | None = None
        self.goal = None
        self.db_count = 0
        self.last_system_act: SystemAct | None = None
        self.last_user_acts: list = []
        self.last_observation: list = []

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_features(self) -> int:
        return (tracker.SUMMARY_LEN if self.config.space == "summary"
                else tracker.ORIGINAL_LEN)

    def features(self) -> np.ndarray:
        if self.config.space == "summary":
            return tracker.summarize(self.belief)
        return tracker.vectorize_original(self.belief)

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._rng = rng
        self.goal = sample_goal(self.db, rng, self.config.goals)
        self.user = usersim.init_user(self.goal, self.config.user, rng)
        self.belief = tracker.fresh_belief()
        self.db_count = 0
        self._active = True
        self.last_system_act = None
        self.last_user_acts = []
        self.last_observation = []
        return self.features()

    def begin_manual(self, rng: np.random.Generator) -> np.ndarray:
        """Channel+tracker session without a simulated user (chat mode)."""
        self._rng = rng
        self.goal = None
        self.user = None
        self.belief = tracker.fresh_belief()
        self.db_count = 0
        self._active = True
        return self.features()

    def realize(self, action: int) -> SystemAct:
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action index {action} outside 0..{self.n_actions - 1}")
        name = self.actions[action]
        if self.config.space == "summary":
            act, count = realize_summary_act(name, self.belief, self.db)
        else:
            act, count = realize_original_act(name, self.belief, self.db)
        if count is not None:
            self.db_count = count
        return act

    def hear(self, sys_act: SystemAct, user_acts: list) -> None:
        """Pass the user's answer to sys_act through the noisy channel and
        fold what was heard into the belief."""
        obs = tracker.corrupt(user_acts, self.config.error, self._rng)
        obs = list(obs) + context_evidence(sys_act, obs)
        self.belief = tracker.update_belief(self.belief, obs, self.db_count)
        self.last_system_act = sys_act
        self.last_user_acts = user_acts
        self.last_observation = obs

    def step(self, action: int) -> tuple[np.ndarray, float, bool, bool]:
        if not self._active:
            raise EpisodeStateError("step() outside an active episode")
        sys_act = self.realize(action)
        self.hear(sys_act, usersim.respond(self.user, sys_act, self._rng))

        reward = self.config.turn_penalty
        terminal = False
        success = False
        if self.user.hung_up:
            terminal = True
            reward += self.config.failure_reward
        elif usersim.is_satisfied(self.user):
            terminal = True
            success = True
            reward += self.config.success_reward
        elif self.belief.turn >= self.config.max_turns:
            terminal = True
            reward += self.config.failure_reward
        if terminal:
            self._active = False
        return self.features(), reward, terminal, success


def rollout(env: DialogueEnv, policy: Callable[[np.ndarray], int],
            rng: np.random.Generator) -> Iterator[Transition]:
    """Roll one dialogue under a feature -> action policy, yielding one
    Transition per turn; the environment's last_* fields describe the turn
    just yielded."""
    features = env.reset(rng)
    terminal = False
    while not terminal:
        action = int(policy(features))
        next_features, reward, terminal, success = env.step(action)
        yield Transition(features, action, reward, next_features, terminal,
                         success)
        features = next_features


def run_episode(env: DialogueEnv, policy: Callable[[np.ndarray], int],
                rng: np.random.Generator) -> EpisodeLog:
    """Roll one dialogue under a feature -> action policy and log it."""
    log = EpisodeLog(space=env.config.space)
    for t in rollout(env, policy, rng):
        log.records.append(TurnRecord(
            turn=env.belief.turn,
            features=[float(x) for x in t.features],
            action=t.action,
            system_act=env.last_system_act.render(),
            user_acts=[a.render() for a in env.last_user_acts],
            observed=[[[a.render(), float(s)] for a, s in nbest]
                      for nbest in env.last_observation],
            reward=t.reward,
            terminal=t.terminal,
            success=t.success,
        ))
        log.episode_return += t.reward
        log.length += 1
    log.success = t.success
    log.final_features = [float(x) for x in t.next_features]
    return log


def check_reward_decomposition(log: EpisodeLog, cfg: EnvConfig) -> bool:
    """Every episode return must equal length * turn_penalty plus the
    terminal bonus: +1 on success, -1 on timeout or hang-up."""
    bonus = cfg.success_reward if log.success else cfg.failure_reward
    expected = log.length * cfg.turn_penalty + bonus
    return math.isclose(log.episode_return, expected, abs_tol=1e-9)
