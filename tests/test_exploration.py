"""The training loop's one exploration draw, ``harness.behaviour_action``,
checked against the per-algorithm helpers it replaced. Each old helper is
kept here, as it was, as the reference."""

import numpy as np
import pytest

from dialab import harness
from dialab.actor_critic import ActorCriticAgent
from dialab.environment import rollout
from dialab.gpsarsa import GPConfig, GPSarsaAgent
from dialab.harness import ExperimentConfig, behaviour_action
from dialab.nets import softmax
from dialab.seeding import rng_stream
from dialab.value_agents import AgentConfig, QAgent
from reference import ORIGINAL_ACTIONS

RNG = np.random.default_rng
EPSILONS = (0.0, 0.3, 1.0)


# -- the helpers as they were ------------------------------------------------

def old_explore(n_actions, excluded, rng):
    allowed = tuple(a for a in range(n_actions) if a not in excluded)
    return allowed[int(rng.integers(len(allowed)))]


def old_egreedy(qnet, features, epsilon, excluded, rng):
    if rng.random() < epsilon:
        return old_explore(qnet.n_actions, excluded, rng)
    return int(np.argmax(qnet.forward(features)))


def old_policy(pnet, features, epsilon, excluded, rng):
    if rng.random() < epsilon:
        return old_explore(pnet.n_actions, excluded, rng)
    probs = softmax(pnet.forward(features))
    return int(rng.choice(pnet.n_actions, p=probs))


def old_esoftmax(gp, b, epsilon, rng):
    if rng.random() < epsilon:
        return int(rng.integers(gp.n_actions))
    probs = softmax(gp.q_values(b))
    return int(rng.choice(gp.n_actions, p=probs))


class SelectTimeAdapter(GPSarsaAgent):
    """The GP adapter as it was: choosing an action folded in the held
    transition, with the chosen action as its next action."""

    def select_action(self, features, epsilon, rng):
        action = old_esoftmax(self.gp, features, epsilon, rng)
        if self._pending is not None:
            b, a, r, b2 = self._pending
            self.gp.sarsa_update(b, a, r, b2, action, False, self.gamma)
            self._pending = None
        return action

    def observe(self, t, rng):
        if t.terminal:
            self.gp.sarsa_update(t.features, t.action, t.reward,
                                 t.next_features, None, True, self.gamma)
            self._pending = None
        else:
            self._pending = (t.features, t.action, t.reward, t.next_features)


# -- (a) the same action and the same rng state ------------------------------

N_FEATURES = 8
EXCLUDED = (1, 2, 3)


def trained_gp_agent():
    """A GP agent over 7 actions whose Q values differ between actions."""
    agent = GPSarsaAgent(N_FEATURES, 7, GPConfig(nu=0.05), gamma=0.99)
    rng = RNG(5)
    for _ in range(30):
        b = rng.random(N_FEATURES)
        agent.gp.sarsa_update(b, int(rng.integers(7)), float(rng.normal()),
                              b, None, True, 0.99)
    return agent


ALLOWED = tuple(a for a in range(11) if a not in EXCLUDED)
CASES = {   # old helper -> (agent, the helper's call on it, explored actions)
    "egreedy": (lambda: QAgent(N_FEATURES, 11, AgentConfig(hidden=(10,)),
                               RNG(1), gamma=0.99),
                lambda agent, f, eps, rng: old_egreedy(
                    agent.qnet, f, eps, EXCLUDED, rng), ALLOWED),
    "policy": (lambda: ActorCriticAgent(N_FEATURES, 11,
                                        AgentConfig(hidden=(10,)), RNG(2),
                                        ALLOWED, gamma=0.99),
               lambda agent, f, eps, rng: old_policy(
                   agent.policy, f, eps, EXCLUDED, rng), ALLOWED),
    "esoftmax": (trained_gp_agent,
                 lambda agent, f, eps, rng: old_esoftmax(
                     agent.gp, f, eps, rng), tuple(range(7))),
}


@pytest.mark.parametrize("helper", sorted(CASES))
def test_behaviour_action_matches_the_old_helper(helper):
    make, old, explored = CASES[helper]
    agent = make()
    seen = set()
    for seed in range(200):
        features = RNG(1000 + seed).random(N_FEATURES)
        for eps in EPSILONS:
            rng_old, rng_new = RNG(seed), RNG(seed)
            want = old(agent, features, eps, rng_old)
            got = behaviour_action(agent, features, eps, explored, rng_new)
            assert got == want, (seed, eps)
            assert rng_new.random() == rng_old.random(), (seed, eps)
            seen.add(got)
    assert len(seen) > 1


# -- (b) the GP update at observe time leaves the same posterior -------------

def test_observe_time_update_matches_select_time_update():
    cfg = ExperimentConfig(algorithm="gpsarsa", space="summary", seed=4)
    _, _, env = harness.build_world(cfg)
    explored = env.space.explored
    old, new = (cls(env.n_features, env.n_actions, cfg.gp, gamma=cfg.gamma)
                for cls in (SelectTimeAdapter, GPSarsaAgent))
    eps = 0.3
    turns = 0
    for ep in range(1, 41):
        rng = rng_stream(cfg.seed, "train", ep)
        for t in rollout(env, lambda f: old.select_action(f, eps, rng), rng):
            old.observe(t, rng)
        rng = rng_stream(cfg.seed, "train", ep)
        for t in rollout(env, lambda f: behaviour_action(new, f, eps,
                                                         explored, rng), rng):
            new.observe(t, rng, eps)
            turns += 1
    assert new.gp.updates == old.gp.updates == turns
    assert len(new.gp) > 10
    for name in ("points_b", "points_a", "Kinv", "mu", "Sigma"):
        a, b = getattr(old.gp, name), getattr(new.gp, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# -- (c) GPSARSA on the original space keeps the space's exclusions ----------

def test_gpsarsa_on_original_never_explores_select():
    cfg = ExperimentConfig(algorithm="gpsarsa", space="original")
    _, _, env = harness.build_world(cfg)
    agent = harness.build_agent(cfg, env)
    explored = env.space.explored
    rng = RNG(6)
    features = env.reset(RNG(7))
    drawn = {behaviour_action(agent, features, 1.0, explored, rng)
             for _ in range(2000)}
    assert drawn == set(explored)
    assert not any(ORIGINAL_ACTIONS[a].startswith("select-") for a in drawn)
