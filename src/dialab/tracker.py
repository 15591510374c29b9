"""Noisy observation channel and generative belief tracker.

The channel corrupts true user acts into scored n-best hypothesis lists. The
tracker accumulates that evidence into per-slot value distributions (each with
an explicit unmentioned mass), request probabilities, and per-turn user-act
probabilities. The belief keeps them as lists in one fixed layout: a slot's
masses in ``VALUES[slot]`` order with the unmentioned mass last, requests in
``REQUEST_SLOTS`` order, user acts in ``USER_ACT_TYPES`` order. Other modules
read it only through ``top2``, ``not_mentioned_mass`` and ``ranked_values``.
The tracker builds two feature layouts:

* summary: 60 binary features, 12 one-hot blocks of length 5. Three constraint
  blocks quantize each slot's top-two value probabilities onto the grid G_C;
  eight request blocks quantize each request probability onto the levels
  (1.0, 0.8, 0.6, 0.4, 0.0); the final block buckets the dialogue turn into
  5 phases (turn // 6, capped). Block order: constraint slots, request
  slots, phase.
* original: 31 features. Six constraint top-two probabilities, eight request
  probabilities, fifteen user-act probabilities, then the two scaled discrete
  features turn/30 and min(db_count, 20)/20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ontology import (CONSTRAINT_SLOTS, REQUEST_SLOTS, USER_ACT_TYPES,
                       VALUES, UserAct)
from .ranges import bounded, check_ranges

G_C = ((1.0, 0.0), (0.8, 0.2), (0.6, 0.2), (0.6, 0.4), (0.4, 0.4))

SUMMARY_BLOCKS = len(CONSTRAINT_SLOTS) + len(REQUEST_SLOTS) + 1
SUMMARY_LEN = SUMMARY_BLOCKS * 5
TURN_SCALE = 30
DB_COUNT_CAP = 20
PHASE_TURNS = 6  # turns per dialogue-phase bucket in the last summary block

# observation: one scored n-best list per surviving user act
NBest = Sequence[tuple[UserAct, float]]
Observation = Sequence[NBest]


@dataclass(frozen=True)
class ErrorModel:
    """Channel parameters: act deletion, act confusion, n-best shape."""

    p_confuse: float = bounded("[0, 1]", 0.15)
    p_drop: float = bounded("[0, 1]", 0.05)
    nbest_size: int = bounded("[1, inf)", 2)
    concentration: float = bounded("(0, inf]", 8.0)

    def __post_init__(self):
        check_ranges(self)
        # the Dirichlet parameters of a draw of scores, the true act's
        # concentration and then 1 per n-best entry; not a field
        object.__setattr__(self, "alpha", np.array(
            [self.concentration] + [1.0] * self.nbest_size))


_NO_SLOT_TYPES = ("ack", "affirm", "negate", "thankyou", "repeat", "null",
                  "hello", "deny", "reqmore", "reqalts", "restart", "bye")
_INFORMS = {s: tuple(UserAct("inform", slot=s, value=v) for v in VALUES[s])
            for s in CONSTRAINT_SLOTS}
_SLOTLESS = tuple(UserAct(t) for t in _NO_SLOT_TYPES)

# the acts each act may be confused with, keyed by (act type, slot, value)
# and in the order a draw indexes them: an inform takes another value of its
# slot, a request another request slot, a slotless act another slotless type
_CONFUSIONS = {(a.act_type, a.slot, a.value): tuple(b for b in group
                                                    if b is not a)
               for group in (*_INFORMS.values(),
                             tuple(UserAct("request", slot=s)
                                   for s in REQUEST_SLOTS),
                             _SLOTLESS)
               for a in group}


def _confused_act(act: UserAct, rng: np.random.Generator) -> UserAct:
    others = _CONFUSIONS.get((act.act_type, act.slot, act.value))
    if others is None:
        # an inform of a value outside VALUES may take any value of its
        # slot, and a confirm any slotless act
        others = _INFORMS[act.slot] if act.act_type == "inform" else _SLOTLESS
    return others[int(rng.integers(len(others)))]


def corrupt(acts: Sequence[UserAct], em: ErrorModel,
            rng: np.random.Generator) -> list[list[tuple[UserAct, float]]]:
    """Corrupt each true act into a scored n-best list.

    Each act is dropped with p_drop; otherwise the top hypothesis is the true
    act with probability 1 - p_confuse, and the true act stays reachable
    lower in the list. Scores are positive and sum to at most one per act:
    the largest ``nbest_size`` parts of a Dirichlet draw, sorted, or one
    certain hypothesis when the concentration is infinite.
    """
    n = em.nbest_size
    certain = math.isinf(em.concentration)
    observation: list[list[tuple[UserAct, float]]] = []
    for act in acts:
        if rng.random() < em.p_drop:
            continue
        if certain:
            scores = [1.0] + [0.0] * (n - 1)
        else:
            scores = sorted(rng.dirichlet(em.alpha)[:n].tolist(), reverse=True)
        top_correct = rng.random() >= em.p_confuse
        hyps: list[UserAct] = [act if top_correct
                               else _confused_act(act, rng)]
        attempts = 0
        while len(hyps) < n and attempts < 4 * n:
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
    """Tracked dialogue state; a value object. Each constraint slot's masses
    are a list in ``VALUES[slot]`` order with the unmentioned mass last;
    requests and this turn's user acts are lists in ``REQUEST_SLOTS`` and
    ``USER_ACT_TYPES`` order. Updates return new instances that share the
    lists they leave alone, so no list changes in place."""

    constraints: dict            # slot -> [mass per value..., unmentioned]
    requests: list               # probability per request slot
    user_acts: list              # probability per user act type this turn
    turn: int = 0
    db_count: int = 0


_VALUE_INDEX = {s: {v: i for i, v in enumerate(VALUES[s])}
                for s in CONSTRAINT_SLOTS}
_REQUEST_INDEX = {s: i for i, s in enumerate(REQUEST_SLOTS)}
_ACT_INDEX = {t: i for i, t in enumerate(USER_ACT_TYPES)}


def fresh_belief() -> BeliefState:
    return BeliefState(
        constraints={s: [0.0] * len(VALUES[s]) + [1.0]
                     for s in CONSTRAINT_SLOTS},
        requests=[0.0] * len(REQUEST_SLOTS),
        user_acts=[0.0] * len(USER_ACT_TYPES),
    )


def update_belief(belief: BeliefState, obs: Observation,
                  db_count: int) -> BeliefState:
    """Fold one turn of scored hypotheses into the belief.

    An inform(s, v) hypothesis with score c rescales the slot distribution by
    (1 - c) and adds c at v, which keeps it normalized; a value outside
    ``VALUES[s]`` is ignored. request(s) hypotheses raise the request
    probability toward max(old, c). The user-act vector is set to this
    turn's aggregated hypothesis scores.
    """
    constraints = dict(belief.constraints)
    requests = list(belief.requests)
    acts = [0.0] * len(USER_ACT_TYPES)
    for nbest in obs:
        for act, score in nbest:
            a = _ACT_INDEX[act.act_type]
            acts[a] = min(1.0, acts[a] + score)
            if act.act_type == "inform":
                v = _VALUE_INDEX[act.slot].get(act.value)
                if v is not None:
                    dist = [m * (1.0 - score) for m in constraints[act.slot]]
                    dist[v] += score
                    constraints[act.slot] = dist
            elif act.act_type == "request":
                r = _REQUEST_INDEX[act.slot]
                requests[r] = max(requests[r], score)
    for slot, dist in constraints.items():
        if sum(dist) <= 0.0:
            raise RuntimeError(f"belief for slot '{slot}' lost all mass")
    return BeliefState(constraints=constraints, requests=requests,
                       user_acts=acts, turn=belief.turn + 1,
                       db_count=int(db_count))


def ranked_values(belief: BeliefState, slot: str) -> list[str]:
    """A constraint slot's values by decreasing mass. The sort is stable and
    ``VALUES[slot]`` is alphabetical, so ties go by name."""
    masses = belief.constraints[slot]
    order = sorted(range(len(masses) - 1), key=lambda i: -masses[i])
    return [VALUES[slot][i] for i in order]


def top2(belief: BeliefState, slot: str) -> tuple[float, float]:
    """The two largest value masses of a constraint slot."""
    *_, p2, p1 = sorted(belief.constraints[slot][:-1])
    return (p1, p2)


def not_mentioned_mass(belief: BeliefState, slot: str) -> float:
    return belief.constraints[slot][-1]


def nearest_gc(p1: float, p2: float) -> int:
    """Index of the G_C tuple closest in Euclidean distance; ties go low.
    The search over G_C, unrolled: the same squared distances, compared in
    G_C order."""
    (a0, b0), (a1, b1), (a2, b2), (a3, b3), (a4, b4) = G_C
    best, best_d = 0, (p1 - a0) ** 2 + (p2 - b0) ** 2
    d = (p1 - a1) ** 2 + (p2 - b1) ** 2
    if d < best_d:
        best, best_d = 1, d
    d = (p1 - a2) ** 2 + (p2 - b2) ** 2
    if d < best_d:
        best, best_d = 2, d
    d = (p1 - a3) ** 2 + (p2 - b3) ** 2
    if d < best_d:
        best, best_d = 3, d
    d = (p1 - a4) ** 2 + (p2 - b4) ** 2
    if d < best_d:
        best = 4
    return best


def nearest_gr(p: float) -> int:
    """Index of the request level (1.0, 0.8, 0.6, 0.4, 0.0) closest to
    ``p``; ties go low. The cuts are the midpoints between neighbouring
    levels as float64 distances see them: 0.9, 0.5 and 0.2 are exact ties
    and go to the higher level, and 0.7 lies nearer 0.6. A NaN gets index
    0, as a search over the levels would give it."""
    if p < 0.2:
        return 4
    if p < 0.5:
        return 3
    if p <= 0.7:
        return 2
    if p < 0.9:
        return 1
    return 0


def turn_phase(turn: int) -> int:
    return min(turn // PHASE_TURNS, 4)


def summarize(belief: BeliefState) -> np.ndarray:
    """60-bit summary vector; exactly one bit set per 5-wide block."""
    hot = [nearest_gc(*top2(belief, s)) for s in CONSTRAINT_SLOTS]
    hot += [nearest_gr(p) for p in belief.requests]
    hot.append(turn_phase(belief.turn))
    vec = np.zeros(SUMMARY_LEN)
    vec[[5 * block + i for block, i in enumerate(hot)]] = 1.0
    return vec


def vectorize_original(belief: BeliefState) -> np.ndarray:
    """31 features: 6 constraint top-two probs, 8 request probs, 15 user-act
    probs, then scaled turn and DB-result count."""
    feats = [p for s in CONSTRAINT_SLOTS for p in top2(belief, s)]
    return np.array(feats + belief.requests + belief.user_acts
                    + [min(belief.turn / TURN_SCALE, 1.0),
                       min(belief.db_count, DB_COUNT_CAP) / DB_COUNT_CAP],
                    dtype=float)
