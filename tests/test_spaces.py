"""The two state/action spaces, pinned down.

Every action of each space is realized on a fixed set of beliefs: a fresh
belief, then each belief of one seeded noisy rollout under a blundering
handcrafted policy. The small database makes some offers find no match, so
both fallbacks are exercised. The rendered act, the DB count the act left
(-1 when it made no query) and the rule policy's action on each belief are
compared with ``data/space_realizations.json``. Then each ``SPACES`` record
is checked against itself.
"""

import json
import os

import numpy as np
import pytest

from dialab.corpus import HandcraftedPolicy
from dialab.environment import SPACES, DialogueEnv, EnvConfig, rollout
from dialab.ontology import generate_db
from dialab.seeding import rng_stream
from dialab.tracker import fresh_belief
from reference import render

RECORDED = os.path.join(os.path.dirname(__file__), "data",
                        "space_realizations.json")
DB = generate_db(n=12, rng=np.random.default_rng(3))


def realizations(space: str) -> list:
    """Per belief: [rule action, [[rendered act, db count], ...]]."""
    env = DialogueEnv(DB, EnvConfig(space=space))
    rule = HandcraftedPolicy(space)
    rng = rng_stream(6, "spaces")
    beliefs = [fresh_belief()]
    for _ in rollout(env, HandcraftedPolicy(space, p_blunder=0.3, rng=rng),
                     rng):
        beliefs.append(env.belief)
    rows = []
    for belief in beliefs:
        env.belief = belief
        acts = []
        for action in range(env.n_actions):
            env.db_count = -1
            acts.append([render(env.realize(action)), env.db_count])
        rows.append([rule.decide(env.features()), acts])
    return rows


def test_realizations_and_rule_actions_match_the_record():
    with open(RECORDED) as fh:
        recorded = json.load(fh)
    for space in ("summary", "original"):
        assert realizations(space) == recorded[space], space


@pytest.mark.parametrize("name", sorted(SPACES))
def test_space_record_is_consistent(name):
    space = SPACES[name]
    assert len(space.featurize(fresh_belief())) == len(space.feature_names)
    assert set(space.excluded) <= set(space.actions)
    assert space.actions == tuple(space.acts)

