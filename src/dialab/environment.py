"""Episodic dialogue environment over belief states.

One step = one exchange: the chosen act is realized into a full system act
through its space's table (the summary space picks the slot, e.g. by the
min-max heuristic), the simulated user responds, the channel corrupts the
response, and the tracker folds it into the belief. ``SPACES`` holds one
record per state/action space. Rewards follow the normalized scheme: -0.03
per turn, +1 on success, -1 on a hang-up or on reaching the turn cap without
success.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import tracker, usersim
from .ontology import (CONSTRAINT_SLOTS, REQUEST_SLOTS, USER_ACT_TYPES,
                       GoalConfig, RestaurantDB, SystemAct, UserAct, query,
                       sample_goal)
from .ranges import ConfigError, bounded, check_ranges
from .tracker import BeliefState, ErrorModel
from .usersim import UserConfig

CONFIRM_THRESHOLD = 0.9  # expl-conf targets slots confidently below this


class EpisodeStateError(RuntimeError):
    """step() called outside an active episode."""


@dataclass(frozen=True)
class EnvConfig:
    space: str = "original"              # a key of SPACES
    max_turns: int = bounded("[1, inf)", 30)
    turn_penalty: float = bounded("(-inf, inf)", -0.03)
    success_reward: float = bounded("(-inf, inf)", 1.0)
    failure_reward: float = bounded("(-inf, inf)", -1.0)
    db_size: int = bounded("[1, inf)", 150)
    user: UserConfig = field(default_factory=UserConfig)
    error: ErrorModel = field(default_factory=ErrorModel)
    goals: GoalConfig = field(default_factory=GoalConfig)

    def __post_init__(self):
        check_ranges(self)
        if self.space not in SPACES:
            raise ConfigError(f"space={self.space!r} not in {tuple(SPACES)}")


@dataclass(frozen=True, slots=True)
class Transition:
    """One system turn, as ``rollout`` yields it and learners and the
    corpus hold it; a dialogue is the tuple of its turns."""

    features: np.ndarray
    action: int
    reward: float
    next_features: np.ndarray
    terminal: bool
    success: bool


def same_state(a, b) -> bool:
    """Whether the states ``a`` and ``b`` are one float64 vector bit for
    bit: the rule by which a turn continues the one before it. It goes by
    the bytes, since ``==`` takes -0.0 for 0.0 and no NaN for itself."""
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


def understood_constraints(belief: BeliefState) -> dict[str, str]:
    """Slots whose most likely state is a concrete value rather than
    'not mentioned', with that value."""
    out = {}
    for slot in CONSTRAINT_SLOTS:
        p1, _ = tracker.top2(belief, slot)
        if p1 > tracker.not_mentioned_mass(belief, slot):
            out[slot] = tracker.ranked_values(belief, slot)[0]
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


@dataclass(frozen=True)
class Space:
    """Everything that differs between two state/action spaces, the one
    source of the actions exploration draws from (``explored``) included."""

    # action name -> (act type, None | fixed slot | slot chooser); the
    # order is the agents' action indices
    acts: dict
    no_match: str                    # the act an offer without a match realizes
    feature_names: tuple
    featurize: Callable[[BeliefState], np.ndarray]
    # features -> each constraint slot's top-value probability, as the
    # handcrafted rule and the corpus rating read it
    slot_confidence: Callable[[np.ndarray], np.ndarray]
    excluded: tuple = ()             # action names exploration skips
    actions: tuple = field(init=False)
    explored: tuple = field(init=False)  # the indices of all others

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.acts))
        object.__setattr__(self, "explored", tuple(
            i for i, a in enumerate(self.actions) if a not in self.excluded))

    def action(self, act_type: str, slot: str | None = None) -> int:
        """The index of the action realizing ``act_type`` on ``slot``, or
        of the one that chooses its slot itself."""
        return next(i for i, (kind, how) in enumerate(self.acts.values())
                    if kind == act_type and (how == slot or callable(how)))


def realize(space: Space, name: str, belief: BeliefState,
            db: RestaurantDB) -> tuple[SystemAct, int | None]:
    """Realize the action ``name`` of ``space`` into a full system act.

    Offer and cannothelp query the DB with the understood constraints; an
    offer names the first match, or realizes ``space.no_match`` when there
    is none. Returns the act and, for acts that queried the database, the
    result count (None otherwise).
    """
    act_type, slot = space.acts[name]
    if callable(slot):
        slot = slot(belief)
    if act_type in ("offer", "cannothelp"):
        constraints = understood_constraints(belief)
        results = query(db, constraints)
        if act_type == "offer" and results:
            payload = {"name": results[0].name, **constraints}
            act = SystemAct("offer", payload=payload, restaurant=results[0])
        else:
            act = SystemAct(space.no_match if act_type == "offer" else act_type)
        return act, len(results)
    if act_type == "expl-conf":
        return SystemAct(act_type, slot=slot,
                         value=tracker.ranked_values(belief, slot)[0]), None
    if act_type == "select":
        return SystemAct(act_type, slot=slot, options=tuple(
            tracker.ranked_values(belief, slot)[:2])), None
    return SystemAct(act_type, slot=slot), None


# the rule's reading of each G_C point: its top-value probability, except
# that (0.4, 0.4), where no value leads, reads as no value at all
_GC_CONFIDENCE = np.array([1.0, 0.8, 0.6, 0.6, 0.0])


def _summary_confidence(features) -> np.ndarray:
    blocks = np.asarray(features)[:5 * len(CONSTRAINT_SLOTS)].reshape(-1, 5)
    return _GC_CONFIDENCE[np.argmax(blocks, axis=1)]


# featurizers look the tracker function up at call time, so a wrapper set
# on the tracker module sees every call
SPACES = {
    "summary": Space(
        acts={"cannothelp": ("cannothelp", None),
              "confirmdomain": ("confirmdomain", None),
              "expl-conf": ("expl-conf", _expl_conf_slot),
              "offer": ("offer", None),
              "repeat": ("repeat", None),
              "request": ("request", minmax_slot),
              "select": ("select", _select_slot)},
        no_match="cannothelp",
        feature_names=tuple(
            [f"constraint.{s}.g{i}" for s in CONSTRAINT_SLOTS for i in range(5)]
            + [f"request.{s}.g{i}" for s in REQUEST_SLOTS for i in range(5)]
            + [f"phase.g{i}" for i in range(5)]),
        featurize=lambda belief: tracker.summarize(belief),
        slot_confidence=_summary_confidence),
    "original": Space(
        acts={"offer": ("offer", None),
              **{f"{kind}-{slot}": (kind, slot)
                 for kind in ("select", "request", "expl-conf")
                 for slot in CONSTRAINT_SLOTS},
              "repeat": ("repeat", None)},
        # the original space has no cannothelp; an apology the user treats
        # as a repeat keeps the action set at exactly 11
        no_match="repeat",
        feature_names=tuple(
            [f"constraint.{s}.top{k}" for s in CONSTRAINT_SLOTS for k in (1, 2)]
            + [f"request.{s}" for s in REQUEST_SLOTS]
            + [f"act.{t}" for t in USER_ACT_TYPES]
            + ["turn_scaled", "db_count_scaled"]),
        featurize=lambda belief: tracker.vectorize_original(belief),
        slot_confidence=lambda features: features[:2 * len(CONSTRAINT_SLOTS):2],
        excluded=tuple(f"select-{s}" for s in CONSTRAINT_SLOTS)),
}


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
    """Goal-driven episodic environment; a run trains and evaluates on one
    instance, since ``reset`` re-derives every episode state."""

    def __init__(self, db: RestaurantDB, config: EnvConfig):
        self.db = db
        self.config = config
        self.space = SPACES[config.space]
        self.actions = self.space.actions
        self._rng: np.random.Generator | None = None
        self._active = False
        self.belief: BeliefState | None = None
        self.user: usersim.UserState | None = None
        self.goal = None
        self.db_count = 0

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_features(self) -> int:
        return len(self.space.feature_names)

    def features(self) -> np.ndarray:
        return self.space.featurize(self.belief)

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._rng = rng
        self.goal = sample_goal(self.db, rng, self.config.goals)
        self.user = usersim.init_user(self.goal, self.config.user, rng)
        self.belief = tracker.fresh_belief()
        self.db_count = 0
        self._active = True
        return self.features()

    def realize(self, action: int) -> SystemAct:
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action index {action} outside 0..{self.n_actions - 1}")
        act, count = realize(self.space, self.actions[action], self.belief,
                             self.db)
        if count is not None:
            self.db_count = count
        return act

    def step(self, action: int) -> tuple[np.ndarray, float, bool, bool]:
        if not self._active:
            raise EpisodeStateError("step() outside an active episode")
        sys_act = self.realize(action)
        user_acts = usersim.respond(self.user, sys_act, self._rng)
        # the user's answer passes the noisy channel into the belief
        obs = tracker.corrupt(user_acts, self.config.error, self._rng)
        obs = list(obs) + context_evidence(sys_act, obs)
        self.belief = tracker.update_belief(self.belief, obs, self.db_count)

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
    Transition per turn; each turn's ``next_features`` is the next one's
    ``features``, the same array."""
    features = env.reset(rng)
    terminal = False
    while not terminal:
        action = int(policy(features))
        next_features, reward, terminal, success = env.step(action)
        yield Transition(features, action, reward, next_features, terminal,
                         success)
        features = next_features
