"""The belief's fixed list layout, checked against the dict-of-dicts tracker
it replaced. The old tracker and the old slot helpers are kept here, as they
were, as the reference: over seeded noisy rollouts in both spaces, every
turn's features must be byte-equal and every action must realize the same
act under both."""

import numpy as np
import pytest

from dialab import environment, tracker
from dialab.corpus import HandcraftedPolicy
from dialab.environment import CONFIRM_THRESHOLD, DialogueEnv, EnvConfig
from dialab.ontology import (CONSTRAINT_SLOTS, REQUEST_SLOTS, USER_ACT_TYPES,
                             VALUES, SystemAct, generate_db, query)
from dialab.seeding import rng_stream
from dialab.tracker import (DB_COUNT_CAP, SUMMARY_LEN,
                            TURN_SCALE, ErrorModel, nearest_gc, nearest_gr,
                            turn_phase)
from reference import ORIGINAL_LEN, noiseless_channel, render

DB = generate_db(n=40, rng=np.random.default_rng(11))


# -- the tracker as it was ---------------------------------------------------

NOT_MENTIONED = "__not_mentioned__"


def old_fresh_belief():
    constraints = {}
    for slot in CONSTRAINT_SLOTS:
        dist = {v: 0.0 for v in VALUES[slot]}
        dist[NOT_MENTIONED] = 1.0
        constraints[slot] = dist
    return {"constraints": constraints,
            "requests": {s: 0.0 for s in REQUEST_SLOTS},
            "user_acts": {t: 0.0 for t in USER_ACT_TYPES},
            "turn": 0, "db_count": 0}


def old_update_belief(belief, obs, db_count):
    constraints = {s: dict(d) for s, d in belief["constraints"].items()}
    requests = dict(belief["requests"])
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
    return {"constraints": constraints, "requests": requests,
            "user_acts": acts, "turn": belief["turn"] + 1,
            "db_count": int(db_count)}


def old_top_values(belief, slot):
    dist = belief["constraints"][slot]
    items = [(v, m) for v, m in dist.items() if v != NOT_MENTIONED]
    items.sort(key=lambda kv: (-kv[1], kv[0]))
    return items


def old_top2(belief, slot):
    items = old_top_values(belief, slot)
    p1 = items[0][1] if items else 0.0
    p2 = items[1][1] if len(items) > 1 else 0.0
    return (p1, p2)


def old_summarize(belief):
    vec = np.zeros(SUMMARY_LEN)
    block = 0
    for slot in CONSTRAINT_SLOTS:
        p1, p2 = old_top2(belief, slot)
        vec[block * 5 + nearest_gc(p1, p2)] = 1.0
        block += 1
    for slot in REQUEST_SLOTS:
        vec[block * 5 + nearest_gr(belief["requests"][slot])] = 1.0
        block += 1
    vec[block * 5 + turn_phase(belief["turn"])] = 1.0
    return vec


def old_vectorize_original(belief):
    vec = np.zeros(ORIGINAL_LEN)
    i = 0
    for slot in CONSTRAINT_SLOTS:
        p1, p2 = old_top2(belief, slot)
        vec[i] = p1
        vec[i + 1] = p2
        i += 2
    for slot in REQUEST_SLOTS:
        vec[i] = belief["requests"][slot]
        i += 1
    for act_type in USER_ACT_TYPES:
        vec[i] = belief["user_acts"][act_type]
        i += 1
    vec[i] = min(belief["turn"] / TURN_SCALE, 1.0)
    vec[i + 1] = min(belief["db_count"], DB_COUNT_CAP) / DB_COUNT_CAP
    return vec


# -- the slot helpers as they were --------------------------------------------

def old_understood_constraints(belief):
    out = {}
    for slot in CONSTRAINT_SLOTS:
        items = old_top_values(belief, slot)
        if items and items[0][1] > belief["constraints"][slot][NOT_MENTIONED]:
            out[slot] = items[0][0]
    return out


def old_minmax_slot(belief):
    best_slot, best_p = CONSTRAINT_SLOTS[0], float("inf")
    for slot in CONSTRAINT_SLOTS:
        p1, _ = old_top2(belief, slot)
        if p1 < best_p:
            best_slot, best_p = slot, p1
    return best_slot


def old_expl_conf_slot(belief):
    best_slot, best_p = None, -1.0
    for slot in CONSTRAINT_SLOTS:
        p1, _ = old_top2(belief, slot)
        if p1 < CONFIRM_THRESHOLD and p1 > best_p:
            best_slot, best_p = slot, p1
    if best_slot is None or best_p <= 0.0:
        return old_minmax_slot(belief)
    return best_slot


def old_select_slot(belief):
    best_slot, best_gap = CONSTRAINT_SLOTS[0], float("inf")
    for slot in CONSTRAINT_SLOTS:
        p1, p2 = old_top2(belief, slot)
        if p1 - p2 < best_gap:
            best_slot, best_gap = slot, p1 - p2
    return best_slot


def old_slot_value(belief, slot):
    items = old_top_values(belief, slot)
    if items and items[0][1] > 0.0:
        return items[0][0]
    return VALUES[slot][0]


def old_slot_options(belief, slot):
    items = [v for v, m in old_top_values(belief, slot) if m > 0.0]
    fallback = [v for v in VALUES[slot] if v not in items]
    picks = (items + fallback)[:2]
    return (picks[0], picks[1])


# the summary space's slot choosers, by the act type they choose for
OLD_CHOOSERS = {"request": old_minmax_slot, "expl-conf": old_expl_conf_slot,
                "select": old_select_slot}


def old_realize(space, name, belief, db):
    act_type, slot = space.acts[name]
    if callable(slot):
        slot = OLD_CHOOSERS[act_type](belief)
    if act_type in ("offer", "cannothelp"):
        constraints = old_understood_constraints(belief)
        results = query(db, constraints)
        if act_type == "offer" and results:
            payload = {"name": results[0].name, **constraints}
            act = SystemAct("offer", payload=payload, restaurant=results[0])
        else:
            act = SystemAct(space.no_match if act_type == "offer" else act_type)
        return act, len(results)
    if act_type == "expl-conf":
        return SystemAct(act_type, slot=slot,
                         value=old_slot_value(belief, slot)), None
    if act_type == "select":
        return SystemAct(act_type, slot=slot,
                         options=old_slot_options(belief, slot)), None
    return SystemAct(act_type, slot=slot), None


OLD_FEATURIZE = {"summary": old_summarize, "original": old_vectorize_original}


# -- the check ------------------------------------------------------------------

def check_turn(env, old):
    """The environment's belief against the old one: features, the slot
    readings and every action's realization."""
    space = env.space
    assert env.features().tobytes() == OLD_FEATURIZE[env.config.space](
        old).tobytes()
    for slot in CONSTRAINT_SLOTS:
        assert tracker.top2(env.belief, slot) == old_top2(old, slot)
        assert tracker.ranked_values(env.belief, slot) == [
            v for v, _ in old_top_values(old, slot)]
        assert tracker.not_mentioned_mass(env.belief, slot) == \
            old["constraints"][slot][NOT_MENTIONED]
    for name in space.actions:
        act, count = environment.realize(space, name, env.belief, env.db)
        old_act, old_count = old_realize(space, name, old, env.db)
        assert act == old_act and render(act) == render(old_act), name
        assert count == old_count, name


@pytest.mark.parametrize("error", [
    ErrorModel(),
    ErrorModel(p_confuse=0.4, p_drop=0.1, nbest_size=3, concentration=2.0),
    noiseless_channel()], ids=["default", "noisy3", "noiseless"])
@pytest.mark.parametrize("space", ["summary", "original"])
def test_every_turn_matches_the_dict_tracker(space, error, monkeypatch):
    # the observation each step folds in, as the tracker is given it; the
    # environment looks update_belief up on the module at call time
    heard = []
    update_belief = tracker.update_belief

    def recording_update(belief, obs, db_count):
        heard.append(obs)
        return update_belief(belief, obs, db_count)
    monkeypatch.setattr(tracker, "update_belief", recording_update)
    env = DialogueEnv(DB, EnvConfig(space=space, error=error))
    policy = HandcraftedPolicy(space, p_blunder=0.4,
                               rng=rng_stream(5, "reference-policy"))
    turns = 0
    for episode in range(40):
        rng = rng_stream(5, "reference", episode)
        env.reset(rng)
        old = old_fresh_belief()
        terminal = False
        while not terminal:
            check_turn(env, old)
            _, _, terminal, _ = env.step(int(policy(env.features())))
            old = old_update_belief(old, heard.pop(), env.db_count)
            turns += 1
        check_turn(env, old)
    assert turns > 200
