"""Restaurant domain: slots, values, dialogue acts, user goals, and the database.

The domain is fixed: ``CONSTRAINT_SLOTS``, ``REQUEST_SLOTS`` and ``VALUES``.
Slot and value orderings are canonical and never change at runtime: every
feature layout and every seeded draw downstream indexes into them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .ranges import ConfigError, bounded, check_ranges

CONSTRAINT_SLOTS = ("area", "food", "pricerange")
REQUEST_SLOTS = ("area", "food", "address", "name", "pricerange", "postcode",
                 "signature", "phone")

SYSTEM_ACT_TYPES = ("offer", "select", "request", "expl-conf", "repeat",
                    "cannothelp", "confirmdomain")
USER_ACT_TYPES = ("deny", "null", "reqmore", "confirm", "ack", "affirm",
                  "request", "inform", "thankyou", "repeat", "reqalts",
                  "negate", "bye", "hello", "restart")

# the ordered value list of each constraint slot, kept alphabetical: the
# belief ranks tied values by their position here, which must be by name
VALUES = {
    "area": ("centre", "east", "north", "south", "west"),
    "food": ("british", "chinese", "french", "indian", "italian",
             "japanese", "spanish", "thai", "turkish", "vietnamese"),
    "pricerange": ("budget", "cheap", "expensive", "moderate", "premium"),
}

_NAME_ADJECTIVES = ("golden", "blue", "silver", "old", "jolly", "royal",
                    "quiet", "lucky", "copper", "velvet", "ivory", "amber")
_NAME_NOUNS = ("fork", "lantern", "table", "kettle", "garden", "anchor",
               "pepper", "olive", "spoon", "hearth", "orchard", "bell")
_STREETS = ("mill lane", "king street", "bridge road", "station parade",
            "orchard row", "market hill", "castle way", "abbey walk")
_DISHES = ("dumplings", "tagine", "risotto", "noodles", "pie", "curry",
           "paella", "terrine", "skewers", "stew")


class OntologyError(ValueError):
    """A malformed goal or act, or a slot or value outside the domain."""


@dataclass(frozen=True)
class Restaurant:
    """One database record: a value per constraint slot plus contact fields."""

    name: str
    area: str
    food: str
    pricerange: str
    address: str
    postcode: str
    phone: str
    signature: str

    def slot_value(self, slot: str) -> str:
        return getattr(self, slot)


class RestaurantDB(tuple):
    """The database records in order, plus ``index``: for every sorted tuple
    of (slot, value) constraints that some record matches, the matching
    records in DB order. The index is built once, with the records; with
    three constraint slots it has at most 2^3 keys per record."""

    index: dict[tuple[tuple[str, str], ...], list[Restaurant]]

    def __new__(cls, records: Iterable[Restaurant]):
        db = super().__new__(cls, records)
        db.index = {}
        for record in db:
            pairs = [(s, record.slot_value(s)) for s in sorted(CONSTRAINT_SLOTS)]
            for k in range(len(pairs) + 1):
                for key in itertools.combinations(pairs, k):
                    db.index.setdefault(key, []).append(record)
        return db


def _pick(values: tuple, rng: np.random.Generator) -> str:
    """A uniform draw from ``values``, the one ``rng.choice(values)`` makes,
    without building an array of ``values`` first."""
    return values[int(rng.integers(len(values)))]


def generate_db(n: int, rng: np.random.Generator) -> RestaurantDB:
    """Synthesize a restaurant database of ``n`` records drawn from ``rng``.

    Names are unique; constraint values are sampled uniformly from
    ``VALUES`` so every value is reachable by queries.
    """
    combos = [f"the {a} {b}" for a in _NAME_ADJECTIVES for b in _NAME_NOUNS]
    order = rng.permutation(len(combos))
    records = []
    for i in range(n):
        base = combos[order[i % len(combos)]]
        name = base if i < len(combos) else f"{base} {i // len(combos) + 1}"
        area = _pick(VALUES["area"], rng)
        food = _pick(VALUES["food"], rng)
        price = _pick(VALUES["pricerange"], rng)
        records.append(Restaurant(
            name=name,
            area=area,
            food=food,
            pricerange=price,
            address=f"{int(rng.integers(1, 99))} {_pick(_STREETS, rng)}",
            postcode=f"cb{int(rng.integers(1, 6))} {int(rng.integers(1, 10))}"
                     f"{chr(97 + int(rng.integers(0, 26)))}"
                     f"{chr(97 + int(rng.integers(0, 26)))}",
            phone=f"01223 {int(rng.integers(100000, 999999))}",
            signature=f"{_pick(_NAME_ADJECTIVES, rng)} "
                      f"{_pick(_DISHES, rng)}",
        ))
    return RestaurantDB(records)


def query(db: RestaurantDB, constraints: Mapping[str, str]) -> list[Restaurant]:
    """Return exactly the records matching all given constraint values, in
    DB order, as a new list."""
    for slot in constraints:
        if slot not in CONSTRAINT_SLOTS:
            raise OntologyError(f"unknown constraint slot '{slot}'")
    return list(db.index.get(tuple(sorted(constraints.items())), ()))


@dataclass(frozen=True)
class UserGoal:
    """What the simulated user wants: constraint values plus request slots."""

    constraints: Mapping[str, str]
    requests: tuple[str, ...]

    def __post_init__(self):
        if not self.constraints:
            raise OntologyError("goal needs at least one constraint")
        if not self.requests:
            raise OntologyError("goal needs at least one request slot")
        for slot in self.constraints:
            if slot not in CONSTRAINT_SLOTS:
                raise OntologyError(f"goal constraint on non-constraint slot '{slot}'")
        for slot in self.requests:
            if slot not in REQUEST_SLOTS:
                raise OntologyError(f"goal request of unknown slot '{slot}'")


@dataclass(frozen=True)
class GoalConfig:
    """Sampling knobs for user goals.

    ``constraint_probs`` gives the per-slot inclusion probability,
    ``request_count_weights`` the distribution of how many request slots a
    goal carries, and ``satisfiable_frac`` the fraction of goals guaranteed
    to match at least one database record.
    """

    constraint_probs: Mapping[str, float] = bounded(
        "[0, 1]", factory=lambda: {s: 1.0 for s in CONSTRAINT_SLOTS})
    request_count_weights: Mapping[int, float] = bounded(
        "[0, inf)", factory=lambda: {1: 0.35, 2: 0.35, 3: 0.2, 4: 0.1})
    satisfiable_frac: float = bounded("[0, 1]", 1.0)

    def __post_init__(self):
        check_ranges(self)
        weights, keys = {}, {}  # the request counts as ints: a JSON key is
        for key, w in self.request_count_weights.items():      # a string
            try:
                count = int(str(key))
            except ValueError:
                raise ConfigError(f"request_count_weights key {key!r} is not "
                                  f"an integer request count") from None
            if count in keys:
                raise ConfigError(f"request_count_weights keys "
                                  f"{keys[count]!r} and {key!r} are both "
                                  f"the request count {count}")
            weights[count], keys[count] = float(w), key
        object.__setattr__(self, "request_count_weights", weights)
        for slot in self.constraint_probs:
            if slot not in CONSTRAINT_SLOTS:
                raise ConfigError(f"constraint_probs key {slot!r} not in "
                                  f"{CONSTRAINT_SLOTS}")
        # the request counts and their probabilities, as sample_goal draws
        # from them; not fields
        counts = sorted(weights)
        p = np.array([weights[c] for c in counts], dtype=float)
        with np.errstate(over="ignore"):    # a sum past the float range
            total = p.sum()
        if min(weights, default=1) < 1 or not 0 < total < np.inf:
            raise ConfigError(f"request_count_weights={weights} needs "
                              f"counts >= 1 and weights of a finite, "
                              f"positive sum")
        object.__setattr__(self, "request_counts", np.array(counts))
        object.__setattr__(self, "request_p", p / total)


def sample_goal(db: RestaurantDB, rng: np.random.Generator,
                cfg: GoalConfig) -> UserGoal:
    """Draw a goal; resampled against the DB so a ``satisfiable_frac`` share
    of goals has at least one matching restaurant."""
    slots = [s for s in CONSTRAINT_SLOTS
             if rng.random() < cfg.constraint_probs.get(s, 0.0)]
    if not slots:
        slots = [CONSTRAINT_SLOTS[int(rng.integers(len(CONSTRAINT_SLOTS)))]]

    must_match = rng.random() < cfg.satisfiable_frac
    constraints: dict[str, str] = {}
    for _ in range(1000):
        constraints = {s: _pick(VALUES[s], rng) for s in slots}
        if not must_match or query(db, constraints):
            break
    else:
        # value inventory too sparse for rejection sampling: copy a record
        record = db[int(rng.integers(len(db)))]
        constraints = {s: record.slot_value(s) for s in slots}

    k = int(rng.choice(cfg.request_counts, p=cfg.request_p))
    k = min(k, len(REQUEST_SLOTS))
    picked = rng.choice(len(REQUEST_SLOTS), size=k, replace=False)
    requests = tuple(REQUEST_SLOTS[i] for i in sorted(picked))
    return UserGoal(constraints=constraints, requests=requests)


@dataclass(frozen=True)
class SystemAct:
    """A machine dialogue act.

    ``slot``/``value`` are used by request, select and expl-conf;
    ``options`` carries the two select alternatives; ``payload`` carries the
    offer's name plus one value per understood constraint slot.
    """

    act_type: str
    slot: str | None = None
    value: str | None = None
    options: tuple[str, str] | None = None
    payload: Mapping[str, str] | None = None
    restaurant: Restaurant | None = None

    def __post_init__(self):
        t = self.act_type
        if t not in SYSTEM_ACT_TYPES:
            raise OntologyError(f"unknown system act type '{t}'")
        if t in ("request", "select", "expl-conf"):
            if self.slot not in CONSTRAINT_SLOTS:
                raise OntologyError(f"{t} must carry exactly one constraint slot")
        elif self.slot is not None:
            raise OntologyError(f"{t} carries no slot")
        if t == "offer":
            if not self.payload or "name" not in self.payload:
                raise OntologyError("offer payload must carry a restaurant name")
            for k in self.payload:
                if k != "name" and k not in CONSTRAINT_SLOTS:
                    raise OntologyError(f"offer payload has non-constraint slot '{k}'")
        elif self.payload is not None:
            raise OntologyError(f"{t} carries no payload")


@dataclass(frozen=True)
class UserAct:
    """A user dialogue act; inform carries slot+value, request a slot."""

    act_type: str
    slot: str | None = None
    value: str | None = None

    def __post_init__(self):
        t = self.act_type
        if t not in USER_ACT_TYPES:
            raise OntologyError(f"unknown user act type '{t}'")
        if t == "inform":
            if self.slot not in CONSTRAINT_SLOTS or self.value is None:
                raise OntologyError("inform must carry a constraint slot and value")
        elif t == "request":
            if self.slot not in REQUEST_SLOTS or self.value is not None:
                raise OntologyError("request carries a request slot and no value")
        elif t == "confirm":
            if self.slot is None or self.value is None:
                raise OntologyError("confirm carries slot and value")
        elif self.slot is not None or self.value is not None:
            raise OntologyError(f"{t} carries neither slot nor value")
