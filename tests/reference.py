"""Test oracles: independent reference computations the tests compare the
program against, and fixtures no code in ``src/dialab`` needs. Not a test
module itself (pytest collects ``test_*.py`` only)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dialab import checkpoint
from dialab.corpus import fill_pool
from dialab.environment import SPACES, EnvConfig, Transition
from dialab.nets import (CE_CLAMP, AdadeltaState, FeedForwardNet,
                         NonFiniteGradientError, ShapeError, add_l2_gradient,
                         layer_views)
from dialab.ontology import (_DISHES, _NAME_ADJECTIVES, _NAME_NOUNS,
                             _STREETS, CONSTRAINT_SLOTS, REQUEST_SLOTS,
                             USER_ACT_TYPES, VALUES, GoalConfig, Restaurant,
                             RestaurantDB, UserAct, UserGoal, query)
from dialab.tracker import _NO_SLOT_TYPES, ErrorModel
from dialab.value_agents import PoolTooSmall, ReplayPool

ORIGINAL_ACTIONS = SPACES["original"].actions
# the original space's feature vector: the top two belief values of each
# constraint slot, one mass per request slot and user act type, then the
# scaled turn and DB count
ORIGINAL_LEN = (2 * len(CONSTRAINT_SLOTS) + len(REQUEST_SLOTS)
                + len(USER_ACT_TYPES) + 2)


# the request levels of the summary space, highest first; the tracker
# keeps only the cuts between them
G_R = (1.0, 0.8, 0.6, 0.4, 0.0)


def mse_loss(prediction, target):
    """Mean squared error and its gradient at the prediction."""
    p = np.atleast_1d(np.asarray(prediction, dtype=float))
    t = np.atleast_1d(np.asarray(target, dtype=float))
    if p.shape != t.shape:
        raise ShapeError(f"prediction {p.shape} vs target {t.shape}")
    diff = p - t
    loss = float(np.mean(diff ** 2))
    return loss, 2.0 * diff / diff.size


def cross_entropy_loss(probs: np.ndarray, target: int, eps: float = CE_CLAMP):
    """Categorical cross-entropy against an action index.

    Returns the loss, its gradient at the pre-softmax layer, which is
    ``probs - onehot(target)``, and whether a probability below ``eps`` at
    the target was clamped to ``eps``.
    """
    p = np.asarray(probs, dtype=float)
    if not 0 <= target < p.shape[-1]:
        raise ShapeError(f"target index {target} outside {p.shape[-1]} classes")
    clamped = bool(p[target] < eps)
    loss = float(-np.log(eps if clamped else p[target]))
    grad = p.copy()
    grad[target] -= 1.0
    return loss, grad, clamped


def l2_penalty(net: FeedForwardNet, coefficient: float):
    """Weight-decay penalty ``c * sum(W^2)`` and its gradient vector, in the
    parameter layout (biases excluded)."""
    grads = np.zeros_like(net.params)
    add_l2_gradient(grads, net, coefficient)
    penalty = coefficient * sum(float(np.sum(w ** 2)) for w in net.weights)
    return penalty, grads


def finite_difference_grads(objective: Callable[[], float],
                            net: FeedForwardNet, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradients of a scalar closure over every parameter,
    as one vector in the parameter layout.

    Independent oracle for the analytic backprop: it only perturbs parameters
    and re-evaluates ``objective``.
    """
    grads = np.zeros_like(net.params)
    params = net.params
    for k in range(params.size):
        orig = params[k]
        params[k] = orig + h
        up = objective()
        params[k] = orig - h
        down = objective()
        params[k] = orig
        grads[k] = (up - down) / (2.0 * h)
    return grads


def check_reward_decomposition(turns, cfg: EnvConfig) -> bool:
    """Every episode return must equal length * turn_penalty plus the
    terminal bonus: +1 on success, -1 on timeout or hang-up."""
    bonus = cfg.success_reward if turns[-1].success else cfg.failure_reward
    expected = len(turns) * cfg.turn_penalty + bonus
    return math.isclose(sum(t.reward for t in turns), expected,
                        abs_tol=1e-9)


def turn_lists(turns) -> list:
    """The dialogue ``turns`` as comparable lists, each Transition's fields
    in order, with its two states as lists of floats."""
    return [(t.features.tolist(), t.action, t.reward,
             t.next_features.tolist(), t.terminal, t.success) for t in turns]


def render(act) -> str:
    """A system or user act as text, as ``data/space_realizations.json``
    records it; the two act kinds share the types they both have."""
    if act.act_type == "offer":
        inner = ", ".join(f"{k}={v}" for k, v in act.payload.items())
        return f"offer({inner})"
    if act.act_type == "select":
        v1, v2 = act.options or ("", "")
        return f"select({act.slot}: {v1}|{v2})"
    if act.act_type in ("expl-conf", "inform", "confirm"):
        return f"{act.act_type}({act.slot}={act.value})"
    if act.act_type == "request":
        return f"request({act.slot})"
    return act.act_type


def confused_act_by_list(act: UserAct, rng: np.random.Generator) -> UserAct:
    """``tracker._confused_act`` as it drew before: from a list of the
    other values, slots or act types built on every call."""
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


def scores_by_list(em: ErrorModel, rng: np.random.Generator) -> list[float]:
    """The n-best scores as ``tracker.corrupt`` drew them before, from a
    Dirichlet parameter list built on every call."""
    if np.isinf(em.concentration):
        return [1.0] + [0.0] * (em.nbest_size - 1)
    alpha = [em.concentration] + [1.0] * em.nbest_size
    draw = rng.dirichlet(alpha)[: em.nbest_size]
    return sorted((float(x) for x in draw), reverse=True)


def corrupt_by_list(acts, em: ErrorModel, rng: np.random.Generator):
    """``tracker.corrupt`` as it was before, on ``confused_act_by_list``
    and ``scores_by_list``."""
    observation = []
    for act in acts:
        if rng.random() < em.p_drop:
            continue
        scores = scores_by_list(em, rng)
        top_correct = rng.random() >= em.p_confuse
        hyps = [act if top_correct else confused_act_by_list(act, rng)]
        attempts = 0
        while len(hyps) < em.nbest_size and attempts < 4 * em.nbest_size:
            attempts += 1
            if act not in hyps:
                cand = act
            else:
                cand = confused_act_by_list(act, rng)
            if cand not in hyps:
                hyps.append(cand)
        observation.append([(h, s) for h, s in zip(hyps, scores) if s > 0.0])
    return observation


def adadelta_step_negating(state: AdadeltaState, net: FeedForwardNet,
                           g: np.ndarray) -> None:
    """``nets.adadelta_step`` as it was before: the step negated before it
    is squared into E[dx^2] and added to the parameters, in fresh arrays.

        E[g^2]  <- rho E[g^2] + (1 - rho) g g
        dx       = -sqrt((E[dx^2] + eps) / (E[g^2] + eps)) g
        E[dx^2] <- rho E[dx^2] + (1 - rho) dx dx
        params  += dx
    """
    if g.shape != net.params.shape:
        raise ShapeError(f"gradient length {g.shape} != parameters "
                         f"{net.params.shape}")
    if not np.isfinite(g).all():
        for i, pair in enumerate(zip(*layer_views(g, net.layer_sizes))):
            for tag, part in zip("Wb", pair):
                if not np.isfinite(part).all():
                    raise NonFiniteGradientError(
                        f"non-finite gradient at layer {i} {tag}")
    rho, eps = state.rho, state.eps
    eg, eu = state.acc_grad, state.acc_update
    scratch = np.multiply(g, 1.0 - rho)
    scratch *= g
    eg *= rho
    eg += scratch
    delta = np.add(eu, eps)
    delta /= np.add(eg, eps, out=scratch)
    np.sqrt(delta, out=delta)
    delta *= g
    np.negative(delta, out=delta)
    np.multiply(delta, 1.0 - rho, out=scratch)
    scratch *= delta
    eu *= rho
    eu += scratch
    net.params += delta


def noiseless_channel() -> ErrorModel:
    """A channel that passes every user act through unchanged."""
    return ErrorModel(p_confuse=0.0, p_drop=0.0, nbest_size=1,
                      concentration=float("inf"))


@dataclass
class PooledTurns:
    """A corpus's turns as ``fill_pool`` stores them: the five replay-pool
    fields, row for row, and each turn's dialogue rating."""

    features: np.ndarray
    next_features: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    terminal: np.ndarray
    rating: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)


def pooled_turns(corpus) -> PooledTurns:
    """``fill_pool`` on ``corpus`` into a pool with a row for every turn."""
    turns = sum(len(d.turns) for d in corpus)
    pool = ReplayPool(max(1, turns), len(SPACES[corpus.space].feature_names))
    rating = fill_pool(corpus, pool)
    return PooledTurns(**{k: pool.rows(k) for k in ReplayPool.FIELDS},
                       next_features=pool.batch(np.arange(len(pool)))[3],
                       rating=rating)


def generate_db_by_choice(n: int, rng: np.random.Generator) -> RestaurantDB:
    """``ontology.generate_db`` as it drew before: ``rng.choice`` on each
    tuple of values."""
    combos = [f"the {a} {b}" for a in _NAME_ADJECTIVES for b in _NAME_NOUNS]
    order = rng.permutation(len(combos))
    records = []
    for i in range(n):
        base = combos[order[i % len(combos)]]
        name = base if i < len(combos) else f"{base} {i // len(combos) + 1}"
        area = str(rng.choice(VALUES["area"]))
        food = str(rng.choice(VALUES["food"]))
        price = str(rng.choice(VALUES["pricerange"]))
        records.append(Restaurant(
            name=name, area=area, food=food, pricerange=price,
            address=f"{int(rng.integers(1, 99))} {rng.choice(_STREETS)}",
            postcode=f"cb{int(rng.integers(1, 6))} {int(rng.integers(1, 10))}"
                     f"{chr(97 + int(rng.integers(0, 26)))}"
                     f"{chr(97 + int(rng.integers(0, 26)))}",
            phone=f"01223 {int(rng.integers(100000, 999999))}",
            signature=f"{rng.choice(_NAME_ADJECTIVES)} {rng.choice(_DISHES)}",
        ))
    return RestaurantDB(records)


def sample_goal_by_choice(db: RestaurantDB, rng: np.random.Generator,
                          cfg: GoalConfig) -> UserGoal:
    """``ontology.sample_goal`` as it drew before: ``rng.choice`` on each
    tuple of constraint values."""
    slots = [s for s in CONSTRAINT_SLOTS
             if rng.random() < cfg.constraint_probs.get(s, 0.0)]
    if not slots:
        slots = [CONSTRAINT_SLOTS[int(rng.integers(len(CONSTRAINT_SLOTS)))]]
    must_match = rng.random() < cfg.satisfiable_frac
    constraints: dict[str, str] = {}
    for _ in range(1000):
        constraints = {s: str(rng.choice(VALUES[s])) for s in slots}
        if not must_match or query(db, constraints):
            break
    else:
        record = db[int(rng.integers(len(db)))]
        constraints = {s: record.slot_value(s) for s in slots}
    counts = sorted(cfg.request_count_weights)
    weights = np.array([cfg.request_count_weights[c] for c in counts],
                       dtype=float)
    k = int(rng.choice(counts, p=weights / weights.sum()))
    k = min(k, len(REQUEST_SLOTS))
    picked = rng.choice(len(REQUEST_SLOTS), size=k, replace=False)
    requests = tuple(REQUEST_SLOTS[i] for i in sorted(picked))
    return UserGoal(constraints=constraints, requests=requests)


class TwoArrayPool:
    """``value_agents.ReplayPool`` as it stored every state twice, in a
    features and a next-features array, terminal rows' next states
    included; the oracle of the one-array pool.

    Finite FIFO transition store; inserting past capacity evicts the oldest."""

    def __init__(self, capacity: int, n_features: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._features = np.zeros((capacity, n_features))
        self._next_features = np.zeros((capacity, n_features))
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity)
        self._terminal = np.zeros(capacity, dtype=bool)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def add(self, t: Transition) -> None:
        i = self._cursor
        self._features[i] = t.features
        self._next_features[i] = t.next_features
        self._actions[i] = t.action
        self._rewards[i] = t.reward
        self._terminal[i] = t.terminal
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample_indices(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        if self._size < batch:
            raise PoolTooSmall(f"pool holds {self._size} < batch {batch}")
        return rng.choice(self._size, size=batch, replace=False)

    def batch(self, idx: np.ndarray):
        return (self._features[idx], self._actions[idx], self._rewards[idx],
                self._next_features[idx], self._terminal[idx])

    FIELDS = ("features", "next_features", "actions", "rewards", "terminal")

    def rows(self, name: str) -> np.ndarray:
        """The stored rows of the field ``name``, one of FIELDS, as a view."""
        return getattr(self, f"_{name}")[:self._size]

    def state(self) -> checkpoint.State:
        """The filled rows, as views, with the counters."""
        arrays = {k: self.rows(k) for k in self.FIELDS}
        return checkpoint.State(
            arrays, spec={"capacity": self.capacity},
            counters={"size": self._size, "cursor": self._cursor},
            shapes={k: ("size", *a.shape[1:]) for k, a in arrays.items()})

    def restore(self, loaded: checkpoint.State, prefix: str = "") -> None:
        """Take the counters of a loaded state and copy its rows into the
        preallocated arrays; ``prefix`` picks the pool out of an agent's."""
        self._size = loaded.counters[prefix + "size"]
        self._cursor = loaded.counters[prefix + "cursor"]
        for k in self.FIELDS:
            getattr(self, f"_{k}")[:self._size] = loaded.arrays[prefix + k]

    def save(self, path: str) -> None:
        checkpoint.save(path, "replay-pool", self.state())

    def load(self, path: str) -> None:
        self.restore(checkpoint.load(path, "replay-pool", self.state()))


# the fields of ReplayPool.batch, in its order
BATCH = ("features", "actions", "rewards", "next_features", "terminal")


def newest(pool) -> int:
    """The slot of ``pool``'s newest row."""
    return (pool._cursor - 1) % pool.capacity


def assert_same_rows(pool, oracle: TwoArrayPool, idx=None) -> None:
    """``pool`` and ``oracle`` hold the same rows, bit for bit: ``batch``
    of the slots ``idx``, by default every filled slot, and ``rows`` of
    every field. A next state is compared where its row is not terminal or
    is the newest: no learner reads a terminal row's."""
    assert len(pool) == len(oracle)
    if idx is None:
        idx = np.arange(len(oracle))
    read = ~oracle.batch(idx)[4]
    if len(oracle):
        read |= idx == newest(oracle)
    for name, mine, theirs in zip(BATCH, pool.batch(idx), oracle.batch(idx),
                                  strict=True):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        if name == "next_features":
            mine, theirs = mine[read], theirs[read]
        assert mine.tobytes() == theirs.tobytes(), name
    for name in ReplayPool.FIELDS:
        assert pool.rows(name).tobytes() == oracle.rows(name).tobytes(), name


def state_bytes(state: checkpoint.State) -> dict:
    """The bytes of each array of ``state``."""
    return {name: array.tobytes() for name, array in state.arrays.items()}
