"""Agenda-based simulated user.

The user starts with a stack of pending acts derived from its goal (an
inform per constraint, a request per wanted slot, a closing bye), answers
each machine act by rule, and hangs up on any offer that violates a goal
constraint. Informs always carry the true goal value; lying only ever enters
through the noisy observation channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ontology import Restaurant, SystemAct, UserAct, UserGoal
from .ranges import bounded, check_ranges


# the acts without a slot the user gives, one shared instance each
_BYE, _NULL, _NEGATE, _AFFIRM, _THANKYOU = (UserAct(t) for t in (
    "bye", "null", "negate", "affirm", "thankyou"))


class UserSessionError(RuntimeError):
    """The dialogue is over for this user (hang-up) but respond() was called."""


@dataclass(frozen=True)
class UserConfig:
    """Behaviour knobs. Probabilities of zero disable a behaviour entirely."""

    p_multi_act: float = bounded("[0, 1]", 0.3)
    p_null: float = bounded("[0, 1]", 0.0)

    __post_init__ = check_ranges


@dataclass
class UserState:
    goal: UserGoal
    cfg: UserConfig
    agenda: list = field(default_factory=list)     # stack, top = last element
    received: dict = field(default_factory=dict)   # request slot -> value
    offered: Restaurant | None = None
    hung_up: bool = False
    last_acts: list = field(default_factory=list)
    asked: list = field(default_factory=list)      # requested, not yet answered


def init_user(goal: UserGoal, cfg: UserConfig,
              rng: np.random.Generator) -> UserState:
    """Seed the agenda: bye at the bottom, the goal's requests, then the
    constraint informs in a randomized emission order on top."""
    agenda: list[UserAct] = [_BYE]
    for slot in reversed(goal.requests):
        agenda.append(UserAct("request", slot=slot))
    informs = [UserAct("inform", slot=s, value=v)
               for s, v in goal.constraints.items()]
    order = rng.permutation(len(informs))
    agenda.extend(informs[i] for i in order)
    return UserState(goal=goal, cfg=cfg, agenda=agenda)


def check_hangup(state: UserState, sys: SystemAct) -> bool:
    """True iff the offer contradicts or omits any goal constraint."""
    if sys.act_type != "offer":
        raise ValueError("check_hangup applies to offers only")
    payload = sys.payload or {}
    for slot, value in state.goal.constraints.items():
        if payload.get(slot) != value:
            return True
    return False


def is_satisfied(state: UserState) -> bool:
    if state.hung_up or state.offered is None:
        return False
    return all(s in state.received for s in state.goal.requests)


def _pop_pending_inform(state: UserState, slot: str | None = None) -> UserAct | None:
    """Remove (and return) the topmost pending inform, optionally for one slot."""
    for i in range(len(state.agenda) - 1, -1, -1):
        act = state.agenda[i]
        if act.act_type == "inform" and (slot is None or act.slot == slot):
            return state.agenda.pop(i)
    return None


def _next_outstanding_request(state: UserState) -> str | None:
    for i in range(len(state.agenda) - 1, -1, -1):
        act = state.agenda[i]
        if act.act_type == "request" and act.slot not in state.received:
            state.agenda.pop(i)
            return act.slot
    # a request may have been re-asked after channel loss; fall back to goal order
    for slot in state.goal.requests:
        if slot not in state.received and slot not in state.asked:
            return slot
    return None


def receive_offer(state: UserState, sys: SystemAct) -> None:
    """Take in an offer that fits the goal: remember the venue, and count as
    received the requested slots its surface answers and, for a repeated
    offer, every slot asked since the last one."""
    record = sys.restaurant
    state.offered = record
    payload = sys.payload or {}
    for slot in state.goal.requests:
        if slot == "name":
            state.received[slot] = payload["name"]
        elif slot in payload:
            state.received[slot] = payload[slot]
    if record is not None:
        for slot in state.asked:
            state.received[slot] = record.slot_value(slot)
    state.asked = []


def respond(state: UserState, sys: SystemAct,
            rng: np.random.Generator) -> list[UserAct]:
    """One user turn: one or two acts in response to the machine act."""
    if state.hung_up:
        raise UserSessionError("user already hung up")
    goal = state.goal

    if sys.act_type == "offer" and check_hangup(state, sys):
        state.hung_up = True
        state.last_acts = [_BYE]
        return list(state.last_acts)

    if rng.random() < state.cfg.p_null:
        state.last_acts = [_NULL]
        return list(state.last_acts)

    acts: list[UserAct]
    if sys.act_type == "offer":
        receive_offer(state, sys)
        nxt = _next_outstanding_request(state)
        if nxt is None:
            acts = [_THANKYOU, _BYE]
        else:
            state.asked.append(nxt)
            acts = [UserAct("request", slot=nxt)]
    elif sys.act_type in ("request", "expl-conf", "select"):
        if sys.slot not in goal.constraints:
            acts = [_NEGATE]
            pend = _pop_pending_inform(state)
            if pend is not None:
                acts.append(pend)
        elif (sys.act_type == "expl-conf"
              and sys.value == goal.constraints[sys.slot]):
            acts = [_AFFIRM]
        else:
            # the goal's value, after a negate when it corrects a confirm
            _pop_pending_inform(state, sys.slot)
            acts = [UserAct("inform", slot=sys.slot,
                            value=goal.constraints[sys.slot])]
            if sys.act_type == "expl-conf":
                acts.insert(0, _NEGATE)
    elif sys.act_type == "repeat":
        acts = list(state.last_acts) if state.last_acts else [_NULL]
    elif sys.act_type == "cannothelp":
        # treated as a misunderstanding: restate one constraint
        slots = list(goal.constraints)
        slot = slots[int(rng.integers(len(slots)))]
        acts = [UserAct("inform", slot=slot, value=goal.constraints[slot])]
    elif sys.act_type == "confirmdomain":
        acts = [_AFFIRM]
    else:
        acts = [_NULL]

    # occasionally volunteer a second pending constraint in the same turn
    if (len(acts) == 1 and acts[0].act_type == "inform"
            and rng.random() < state.cfg.p_multi_act):
        extra = _pop_pending_inform(state)
        if extra is not None and extra.slot != acts[0].slot:
            acts.append(extra)

    state.last_acts = list(acts)
    return acts
