import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialab.ontology import (CONSTRAINT_SLOTS, REQUEST_SLOTS, VALUES,
                             GoalConfig, OntologyError, Restaurant,
                             RestaurantDB, SystemAct, UserAct, _pick,
                             generate_db, query, sample_goal)
from dialab.ranges import ConfigError
from reference import generate_db_by_choice, sample_goal_by_choice


@pytest.fixture(scope="module")
def db():
    return generate_db(n=150, rng=np.random.default_rng(7))


@pytest.mark.parametrize("size", [5, 8, 10, 12])
def test_index_draw_is_the_choice_draw(size):
    # every tuple the DB and goals draw from has one of these lengths
    values = tuple(f"v{i}" for i in range(size))
    rng, reference = np.random.default_rng(size), np.random.default_rng(size)
    for _ in range(20000):
        assert _pick(values, rng) == str(reference.choice(values))
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("seed", range(1, 21))
def test_db_is_the_choice_draws(seed):
    db = generate_db(n=150, rng=np.random.default_rng(seed))
    reference = generate_db_by_choice(150, np.random.default_rng(seed))
    assert list(db) == list(reference)


class TestOntology:
    def test_constraint_slots(self):
        assert CONSTRAINT_SLOTS == ("area", "food", "pricerange")

    def test_request_slot_count(self):
        assert len(REQUEST_SLOTS) == 8
        assert set(REQUEST_SLOTS) == {
            "area", "food", "address", "name", "pricerange", "postcode",
            "signature", "phone"}

    def test_constraint_slots_have_at_least_five_values(self):
        for slot in CONSTRAINT_SLOTS:
            assert len(VALUES[slot]) >= 5

    def test_values_are_alphabetical(self):
        # the belief tracker breaks ties between equal masses by position
        # in VALUES; that is by name only while each list is sorted
        for slot in CONSTRAINT_SLOTS:
            assert list(VALUES[slot]) == sorted(VALUES[slot]), slot


class TestQuery:
    def test_empty_constraints_return_everything(self, db):
        assert query(db, {}) == list(db)

    def test_unmatched_value_returns_nothing(self, db):
        # "thai" may or may not exist in the sampled db; use a value we
        # construct to be absent instead
        assert query(db, {"food": "no-such-cuisine"}) == []

    def test_unknown_slot_rejected(self, db):
        with pytest.raises(OntologyError):
            query(db, {"postcode": "cb1"})

    @pytest.mark.parametrize("source", ["generated", "reloaded"])
    def test_index_equals_a_scan_for_every_key(self, db, source):
        if source == "reloaded":
            # an index built again from copies of the records
            db = RestaurantDB([Restaurant(**vars(r)) for r in db])
        slots = CONSTRAINT_SLOTS
        keys = itertools.product(*[(None, *VALUES[s]) for s in slots])
        for values in keys:
            constraints = {s: v for s, v in zip(slots, values) if v is not None}
            scan = [r for r in db if all(getattr(r, s) == v
                                         for s, v in constraints.items())]
            assert query(db, constraints) == scan, constraints
            reordered = dict(reversed(list(constraints.items())))
            assert query(db, reordered) == scan, reordered
        assert len(query(db, {})) == len(db)

    def test_query_returns_a_fresh_list(self, db):
        first = query(db, {"area": db[0].area})
        first.clear()
        assert db[0] in query(db, {"area": db[0].area})

    def test_monotone_in_constraints(self, db):
        # exhaustive: every 1-constraint query dominates its 2-constraint
        # extensions, which dominate the 3-constraint ones
        for a in VALUES["area"]:
            base = query(db, {"area": a})
            for f in VALUES["food"]:
                mid = query(db, {"area": a, "food": f})
                assert len(mid) <= len(base)
                for p in VALUES["pricerange"]:
                    assert len(query(db, {"area": a, "food": f,
                                          "pricerange": p})) <= len(mid)


class TestGoals:
    def test_all_constraints_forced(self, db):
        cfg = GoalConfig(constraint_probs={s: 1.0 for s in CONSTRAINT_SLOTS})
        goal = sample_goal(db, np.random.default_rng(0), cfg)
        assert len(goal.constraints) == 3

    def test_same_seed_same_goal(self, db):
        g1 = sample_goal(db, np.random.default_rng(42), GoalConfig())
        g2 = sample_goal(db, np.random.default_rng(42), GoalConfig())
        assert g1 == g2

    def test_satisfiable_goals_match_db(self, db):
        cfg = GoalConfig(satisfiable_frac=1.0)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            goal = sample_goal(db, rng, cfg)
            assert query(db, goal.constraints), goal

    def test_goal_values_exist_in_ontology(self, db):
        rng = np.random.default_rng(5)
        for _ in range(200):
            goal = sample_goal(db, rng, GoalConfig())
            for slot, value in goal.constraints.items():
                assert value in VALUES[slot]

    def test_goals_are_the_choice_draws(self, db):
        # the draws by rng.choice on each tuple of values are the reference,
        # as is the rng state each goal leaves
        for cfg in (GoalConfig(), GoalConfig(satisfiable_frac=1.0)):
            rng, reference = (np.random.default_rng(11),
                              np.random.default_rng(11))
            for _ in range(300):
                assert sample_goal(db, rng, cfg) == sample_goal_by_choice(
                    db, reference, cfg)
                assert (rng.bit_generator.state
                        == reference.bit_generator.state)

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            GoalConfig(constraint_probs={"area": 1.5})
        with pytest.raises(ConfigError):
            GoalConfig(satisfiable_frac=-0.1)

    def test_goal_needs_requests_and_constraints(self):
        from dialab.ontology import UserGoal
        with pytest.raises(OntologyError):
            UserGoal(constraints={}, requests=("phone",))
        with pytest.raises(OntologyError):
            UserGoal(constraints={"food": "thai"}, requests=())


class TestActWellFormedness:
    def test_request_needs_constraint_slot(self):
        with pytest.raises(OntologyError):
            SystemAct("request", slot="phone")
        SystemAct("request", slot="food")

    def test_repeat_carries_nothing(self):
        with pytest.raises(OntologyError):
            SystemAct("repeat", slot="food")
        SystemAct("repeat")

    def test_offer_needs_name(self):
        with pytest.raises(OntologyError):
            SystemAct("offer", payload={"food": "thai"})
        SystemAct("offer", payload={"name": "x", "food": "thai"})

    def test_offer_payload_slots_are_constraints(self):
        with pytest.raises(OntologyError):
            SystemAct("offer", payload={"name": "x", "phone": "123"})

    def test_inform_needs_slot_and_value(self):
        with pytest.raises(OntologyError):
            UserAct("inform", slot="food")
        UserAct("inform", slot="food", value="thai")

    def test_plain_user_acts_carry_nothing(self):
        with pytest.raises(OntologyError):
            UserAct("affirm", slot="food")
        UserAct("affirm")

    def test_unknown_types_rejected(self):
        with pytest.raises(OntologyError):
            SystemAct("greet")
        with pytest.raises(OntologyError):
            UserAct("shout")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.data())
def test_query_monotonicity_property(seed, data):
    db = generate_db(n=60, rng=np.random.default_rng(seed))
    slots = list(CONSTRAINT_SLOTS)
    chosen = data.draw(st.lists(st.sampled_from(slots), unique=True,
                                min_size=1, max_size=3))
    constraints = {}
    prev = len(db)
    for slot in chosen:
        constraints[slot] = data.draw(st.sampled_from(VALUES[slot]))
        now = len(query(db, constraints))
        assert now <= prev
        prev = now
