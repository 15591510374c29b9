"""Noisy observation channel and generative belief tracker.

The channel corrupts true user acts into scored n-best hypothesis lists. The
tracker accumulates that evidence into per-slot value distributions (each with
an explicit unmentioned mass), request probabilities, and per-turn user-act
probabilities, and renders two feature layouts:

* summary: 60 binary features, 12 one-hot blocks of length 5. Three constraint
  blocks quantize each slot's top-two value probabilities onto the grid G_C;
  eight request blocks quantize each request probability onto G_R; the final
  block buckets the dialogue turn into 5 phases (turn // 6, capped). Block
  order: constraint slots, request slots, phase.
* original: 31 features. Six constraint top-two probabilities, eight request
  probabilities, fifteen user-act probabilities, then the two scaled discrete
  features turn/30 and min(db_count, 20)/20.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ontology import (CONSTRAINT_SLOTS, REQUEST_SLOTS, USER_ACT_TYPES,
                       VALUES, UserAct)

G_C = ((1.0, 0.0), (0.8, 0.2), (0.6, 0.2), (0.6, 0.4), (0.4, 0.4))
G_R = (1.0, 0.8, 0.6, 0.4, 0.0)

NOT_MENTIONED = "__not_mentioned__"
SUMMARY_BLOCKS = len(CONSTRAINT_SLOTS) + len(REQUEST_SLOTS) + 1
SUMMARY_LEN = SUMMARY_BLOCKS * 5
ORIGINAL_LEN = 2 * len(CONSTRAINT_SLOTS) + len(REQUEST_SLOTS) + len(USER_ACT_TYPES) + 2
TURN_SCALE = 30
DB_COUNT_CAP = 20
PHASE_TURNS = 6  # turns per dialogue-phase bucket in the last summary block

# observation: one scored n-best list per surviving user act
NBest = Sequence[tuple[UserAct, float]]
Observation = Sequence[NBest]


@dataclass(frozen=True)
class ErrorModel:
    """Channel parameters: act deletion, act confusion, n-best shape."""

    p_confuse: float = 0.15
    p_drop: float = 0.05
    nbest_size: int = 2
    concentration: float = 8.0

    def __post_init__(self):
        if not 0.0 <= self.p_confuse <= 1.0:
            raise ValueError(f"p_confuse={self.p_confuse} outside [0,1]")
        if not 0.0 <= self.p_drop <= 1.0:
            raise ValueError(f"p_drop={self.p_drop} outside [0,1]")
        if self.nbest_size < 1:
            raise ValueError("nbest_size must be >= 1")
        if self.concentration <= 0:
            raise ValueError("concentration must be positive")

    @classmethod
    def noiseless(cls) -> "ErrorModel":
        return cls(p_confuse=0.0, p_drop=0.0, nbest_size=1,
                   concentration=float("inf"))


_NO_SLOT_TYPES = ("ack", "affirm", "negate", "thankyou", "repeat", "null",
                  "hello", "deny", "reqmore", "reqalts", "restart", "bye")


def _confused_act(act: UserAct, rng: np.random.Generator) -> UserAct:
    if act.act_type == "inform":
        others = [v for v in VALUES[act.slot] if v != act.value]
        if others:
            return UserAct("inform", slot=act.slot,
                           value=str(others[int(rng.integers(len(others)))]))
        return act
    if act.act_type == "request":
        others = [s for s in REQUEST_SLOTS if s != act.slot]
        return UserAct("request", slot=others[int(rng.integers(len(others)))])
    others = [t for t in _NO_SLOT_TYPES if t != act.act_type]
    return UserAct(others[int(rng.integers(len(others)))])


def _scores(em: ErrorModel, rng: np.random.Generator) -> list[float]:
    if np.isinf(em.concentration):
        return [1.0] + [0.0] * (em.nbest_size - 1)
    alpha = [em.concentration] + [1.0] * em.nbest_size
    draw = rng.dirichlet(alpha)[: em.nbest_size]
    return sorted((float(x) for x in draw), reverse=True)


def corrupt(acts: Sequence[UserAct], em: ErrorModel,
            rng: np.random.Generator) -> list[list[tuple[UserAct, float]]]:
    """Corrupt each true act into a scored n-best list.

    Each act is dropped with p_drop; otherwise the top hypothesis is the true
    act with probability 1 - p_confuse, and the true act stays reachable
    lower in the list. Scores are positive and sum to at most one per act.
    """
    observation: list[list[tuple[UserAct, float]]] = []
    for act in acts:
        if rng.random() < em.p_drop:
            continue
        scores = _scores(em, rng)
        top_correct = rng.random() >= em.p_confuse
        hyps: list[UserAct] = [act if top_correct
                               else _confused_act(act, rng)]
        attempts = 0
        while len(hyps) < em.nbest_size and attempts < 4 * em.nbest_size:
            attempts += 1
            if act not in hyps:
                cand = act  # the truth stays reachable lower in the list
            else:
                cand = _confused_act(act, rng)
            if cand not in hyps:
                hyps.append(cand)
        observation.append([(h, s) for h, s in zip(hyps, scores) if s > 0.0])
    return observation


@dataclass(frozen=True)
class BeliefState:
    """Tracked dialogue state; a value object, updates return new instances."""

    constraints: dict            # slot -> {value|NOT_MENTIONED: mass}
    requests: dict               # request slot -> probability
    user_acts: dict              # act type -> probability this turn
    turn: int = 0
    db_count: int = 0


def fresh_belief() -> BeliefState:
    constraints = {}
    for slot in CONSTRAINT_SLOTS:
        dist = {v: 0.0 for v in VALUES[slot]}
        dist[NOT_MENTIONED] = 1.0
        constraints[slot] = dist
    return BeliefState(
        constraints=constraints,
        requests={s: 0.0 for s in REQUEST_SLOTS},
        user_acts={t: 0.0 for t in USER_ACT_TYPES},
    )


def update_belief(belief: BeliefState, obs: Observation,
                  db_count: int) -> BeliefState:
    """Fold one turn of scored hypotheses into the belief.

    An inform(s, v) hypothesis with score c rescales the slot distribution by
    (1 - c) and adds c at v, which keeps it normalized. request(s) hypotheses
    raise the request probability toward max(old, c). The user-act vector is
    set to this turn's aggregated hypothesis scores.
    """
    constraints = {s: dict(d) for s, d in belief.constraints.items()}
    requests = dict(belief.requests)
    acts = {t: 0.0 for t in USER_ACT_TYPES}
    for nbest in obs:
        for act, score in nbest:
            acts[act.act_type] = min(1.0, acts[act.act_type] + score)
            if act.act_type == "inform" and act.slot in constraints:
                dist = constraints[act.slot]
                if act.value in dist:
                    for key in dist:
                        dist[key] *= (1.0 - score)
                    dist[act.value] += score
            elif act.act_type == "request" and act.slot in requests:
                requests[act.slot] = max(requests[act.slot], score)
    for slot, dist in constraints.items():
        total = sum(dist.values())
        if total <= 0.0:
            raise RuntimeError(f"belief for slot '{slot}' lost all mass")
    return BeliefState(constraints=constraints, requests=requests,
                       user_acts=acts, turn=belief.turn + 1,
                       db_count=int(db_count))


def top_values(belief: BeliefState, slot: str) -> list[tuple[str, float]]:
    """Values of a constraint slot by decreasing mass, unmentioned excluded."""
    dist = belief.constraints[slot]
    items = [(v, m) for v, m in dist.items() if v != NOT_MENTIONED]
    items.sort(key=lambda kv: (-kv[1], kv[0]))
    return items


def top2(belief: BeliefState, slot: str) -> tuple[float, float]:
    items = top_values(belief, slot)
    p1 = items[0][1] if items else 0.0
    p2 = items[1][1] if len(items) > 1 else 0.0
    return (p1, p2)


def not_mentioned_mass(belief: BeliefState, slot: str) -> float:
    return belief.constraints[slot][NOT_MENTIONED]


def nearest_gc(p1: float, p2: float) -> int:
    """Index of the G_C tuple closest in Euclidean distance; ties go low."""
    best, best_d = 0, float("inf")
    for i, (a, b) in enumerate(G_C):
        d = (p1 - a) ** 2 + (p2 - b) ** 2
        if d < best_d:
            best, best_d = i, d
    return best


def nearest_gr(p: float) -> int:
    best, best_d = 0, float("inf")
    for i, g in enumerate(G_R):
        d = abs(p - g)
        if d < best_d:
            best, best_d = i, d
    return best


def turn_phase(turn: int) -> int:
    return min(turn // PHASE_TURNS, 4)


def summarize(belief: BeliefState) -> np.ndarray:
    """60-bit summary vector; exactly one bit set per 5-wide block."""
    vec = np.zeros(SUMMARY_LEN)
    block = 0
    for slot in CONSTRAINT_SLOTS:
        p1, p2 = top2(belief, slot)
        vec[block * 5 + nearest_gc(p1, p2)] = 1.0
        block += 1
    for slot in REQUEST_SLOTS:
        vec[block * 5 + nearest_gr(belief.requests[slot])] = 1.0
        block += 1
    vec[block * 5 + turn_phase(belief.turn)] = 1.0
    return vec


def vectorize_original(belief: BeliefState) -> np.ndarray:
    """31 features: 6 constraint top-two probs, 8 request probs, 15 user-act
    probs, then scaled turn and DB-result count."""
    vec = np.zeros(ORIGINAL_LEN)
    i = 0
    for slot in CONSTRAINT_SLOTS:
        p1, p2 = top2(belief, slot)
        vec[i] = p1
        vec[i + 1] = p2
        i += 2
    for slot in REQUEST_SLOTS:
        vec[i] = belief.requests[slot]
        i += 1
    for act_type in USER_ACT_TYPES:
        vec[i] = belief.user_acts[act_type]
        i += 1
    vec[i] = min(belief.turn / TURN_SCALE, 1.0)
    vec[i + 1] = min(belief.db_count, DB_COUNT_CAP) / DB_COUNT_CAP
    return vec

