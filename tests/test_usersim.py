import numpy as np
import pytest

from dialab.ontology import (CONSTRAINT_SLOTS, REQUEST_SLOTS, VALUES,
                             Restaurant, SystemAct, UserAct, UserGoal,
                             generate_db)
from dialab.usersim import (UserConfig, UserSessionError, check_hangup,
                            init_user, is_satisfied, respond)

RNG = np.random.default_rng
DB = generate_db(n=150, rng=RNG(7))


def make_goal(constraints=None, requests=("phone", "address")):
    constraints = constraints or {"area": "north", "food": "thai",
                                  "pricerange": "cheap"}
    return UserGoal(constraints=constraints, requests=tuple(requests))


def matching_restaurant(goal):
    return Restaurant(name="the test table", address="1 mill lane",
                      postcode="cb1 1aa", phone="01223 111111",
                      signature="amber stew",
                      area=goal.constraints.get("area", "north"),
                      food=goal.constraints.get("food", "thai"),
                      pricerange=goal.constraints.get("pricerange", "cheap"))


def offer_for(restaurant, goal):
    payload = {"name": restaurant.name}
    for slot in goal.constraints:
        payload[slot] = restaurant.slot_value(slot)
    return SystemAct("offer", payload=payload, restaurant=restaurant)


def quiet_cfg(**kw):
    return UserConfig(p_multi_act=kw.pop("p_multi_act", 0.0), **kw)


class TestInit:
    def test_agenda_composition(self):
        goal = make_goal(requests=("phone", "address"))
        state = init_user(goal, quiet_cfg(), RNG(0))
        kinds = [a.act_type for a in state.agenda]
        assert kinds.count("inform") == 3
        assert kinds.count("request") == 2
        assert kinds.count("bye") == 1
        assert state.agenda[0].act_type == "bye"  # bottom of the stack

    def test_same_seed_same_agenda(self):
        goal = make_goal()
        s1 = init_user(goal, quiet_cfg(), RNG(11))
        s2 = init_user(goal, quiet_cfg(), RNG(11))
        assert s1.agenda == s2.agenda

    def test_agenda_only_covers_goal(self):
        goal = make_goal(constraints={"food": "thai"}, requests=("phone",))
        state = init_user(goal, quiet_cfg(), RNG(1))
        for act in state.agenda:
            if act.act_type == "inform":
                assert act.slot in goal.constraints
            if act.act_type == "request":
                assert act.slot in goal.requests


class TestRespondRules:
    def test_request_answered_truthfully(self):
        state = init_user(make_goal(), quiet_cfg(), RNG(2))
        acts = respond(state, SystemAct("request", slot="food"), RNG(3))
        assert acts == [UserAct("inform", slot="food", value="thai")]

    def test_request_outside_goal_negated_with_other_inform(self):
        goal = make_goal(constraints={"food": "thai"}, requests=("phone",))
        state = init_user(goal, quiet_cfg(), RNG(4))
        acts = respond(state, SystemAct("request", slot="area"), RNG(5))
        assert acts[0] == UserAct("negate")
        assert acts[1] == UserAct("inform", slot="food", value="thai")

    def test_expl_conf_correct_is_affirm(self):
        state = init_user(make_goal(), quiet_cfg(), RNG(6))
        acts = respond(state, SystemAct("expl-conf", slot="area", value="north"),
                       RNG(7))
        assert acts == [UserAct("affirm")]

    def test_expl_conf_wrong_is_negate_plus_correction(self):
        state = init_user(make_goal(), quiet_cfg(), RNG(8))
        acts = respond(state, SystemAct("expl-conf", slot="area", value="south"),
                       RNG(9))
        assert acts == [UserAct("negate"),
                        UserAct("inform", slot="area", value="north")]

    def test_select_answers_with_goal_value(self):
        state = init_user(make_goal(), quiet_cfg(), RNG(10))
        acts = respond(state, SystemAct("select", slot="food",
                                        options=("british", "thai")), RNG(11))
        assert acts == [UserAct("inform", slot="food", value="thai")]

    def test_repeat_reemits_previous_turn(self):
        state = init_user(make_goal(), quiet_cfg(), RNG(12))
        first = respond(state, SystemAct("request", slot="food"), RNG(13))
        again = respond(state, SystemAct("repeat"), RNG(14))
        assert again == first

    def test_confirmdomain_affirmed(self):
        state = init_user(make_goal(), quiet_cfg(), RNG(15))
        assert respond(state, SystemAct("confirmdomain"), RNG(16)) == \
            [UserAct("affirm")]

    def test_cannothelp_restates_a_constraint(self):
        state = init_user(make_goal(), quiet_cfg(), RNG(17))
        acts = respond(state, SystemAct("cannothelp"), RNG(18))
        assert len(acts) == 1 and acts[0].act_type == "inform"
        assert state.goal.constraints[acts[0].slot] == acts[0].value

    def test_matching_offer_prompts_outstanding_request(self):
        goal = make_goal(requests=("phone",))
        state = init_user(goal, quiet_cfg(), RNG(19))
        acts = respond(state, offer_for(matching_restaurant(goal), goal), RNG(20))
        assert acts == [UserAct("request", slot="phone")]

    def test_repeated_offer_answers_the_request_then_bye(self):
        goal = make_goal(requests=("phone",))
        state = init_user(goal, quiet_cfg(), RNG(21))
        offer = offer_for(matching_restaurant(goal), goal)
        respond(state, offer, RNG(22))
        acts = respond(state, offer, RNG(23))
        assert acts == [UserAct("thankyou"), UserAct("bye")]
        assert is_satisfied(state)
        assert state.received["phone"] == "01223 111111"

    def test_payload_slots_answered_by_offer_itself(self):
        goal = make_goal(requests=("name", "area"))
        state = init_user(goal, quiet_cfg(), RNG(24))
        acts = respond(state, offer_for(matching_restaurant(goal), goal), RNG(25))
        assert acts == [UserAct("thankyou"), UserAct("bye")]
        assert is_satisfied(state)


class TestHangup:
    def test_exact_match_keeps_dialogue(self):
        goal = make_goal()
        state = init_user(goal, quiet_cfg(), RNG(26))
        assert check_hangup(state, offer_for(matching_restaurant(goal), goal)) \
            is False

    def test_mismatch_on_pricerange_hangs_up(self):
        goal = make_goal()
        state = init_user(goal, quiet_cfg(), RNG(27))
        bad = Restaurant(name="x", area="north", food="thai",
                         pricerange="expensive", address="a", postcode="p",
                         phone="1", signature="s")
        act = SystemAct("offer", payload={"name": "x", "area": "north",
                                          "food": "thai",
                                          "pricerange": "expensive"},
                        restaurant=bad)
        assert check_hangup(state, act) is True
        respond(state, act, RNG(28))
        assert state.hung_up
        assert not is_satisfied(state)

    def test_omitted_constraint_counts_as_mismatch(self):
        goal = make_goal()
        state = init_user(goal, quiet_cfg(), RNG(29))
        act = SystemAct("offer", payload={"name": "x", "area": "north",
                                          "food": "thai"})
        assert check_hangup(state, act) is True

    def test_respond_after_hangup_is_usage_error(self):
        goal = make_goal()
        state = init_user(goal, quiet_cfg(), RNG(30))
        state.hung_up = True
        with pytest.raises(UserSessionError):
            respond(state, SystemAct("request", slot="food"), RNG(31))

    def test_hangup_iff_check_hangup(self):
        # soundness fuzz: the hung_up flag tracks check_hangup exactly
        rng = RNG(32)
        for i in range(200):
            goal = make_goal()
            state = init_user(goal, quiet_cfg(), RNG(1000 + i))
            r = matching_restaurant(goal) if rng.random() < 0.5 else Restaurant(
                name="y", area="south", food="thai", pricerange="cheap",
                address="a", postcode="p", phone="2", signature="s")
            payload = {"name": r.name, "area": r.area, "food": r.food,
                       "pricerange": r.pricerange}
            act = SystemAct("offer", payload=payload, restaurant=r)
            expected = check_hangup(state, act)
            respond(state, act, RNG(2000 + i))
            assert state.hung_up == expected


class TestSatisfaction:
    def test_outstanding_request_blocks_satisfaction(self):
        goal = make_goal(requests=("phone", "postcode"))
        state = init_user(goal, quiet_cfg(), RNG(33))
        offer = offer_for(matching_restaurant(goal), goal)
        respond(state, offer, RNG(34))  # asks phone
        assert not is_satisfied(state)
        respond(state, offer, RNG(35))  # answers phone, asks postcode
        assert not is_satisfied(state)
        respond(state, offer, RNG(36))
        assert is_satisfied(state)


class TestProperties:
    def cooperative_run(self, seed):
        """Request every constraint, offer a matching restaurant, keep
        offering until the user is done."""
        rng = RNG(seed)
        onto_rng = RNG(seed + 1)
        goal_constraints = {
            "area": str(onto_rng.choice(VALUES["area"])),
            "food": str(onto_rng.choice(VALUES["food"])),
            "pricerange": str(onto_rng.choice(VALUES["pricerange"])),
        }
        n_req = 1 + int(onto_rng.integers(4))
        requests = tuple(str(s) for s in onto_rng.choice(
            REQUEST_SLOTS, size=n_req, replace=False))
        goal = UserGoal(constraints=goal_constraints, requests=requests)
        state = init_user(goal, UserConfig(), rng)
        offer = offer_for(matching_restaurant(goal), goal)
        turns = 0
        budget = 2 * (len(goal.constraints) + len(goal.requests)) + 3
        for slot in ("area", "food", "pricerange"):
            respond(state, SystemAct("request", slot=slot), rng)
            turns += 1
        while not is_satisfied(state) and turns <= budget:
            respond(state, offer, rng)
            turns += 1
        return state, turns, budget

    def test_cooperative_policy_terminates_within_budget(self):
        for seed in range(300):
            state, turns, budget = self.cooperative_run(seed)
            assert is_satisfied(state), seed
            assert turns <= budget, (seed, turns, budget)

    def test_informs_always_truthful(self):
        # fuzz random system acts; every emitted inform carries the goal value
        rng = RNG(99)
        for i in range(200):
            goal = make_goal()
            state = init_user(goal, UserConfig(p_multi_act=0.5), RNG(i))
            for _ in range(12):
                if state.hung_up:
                    break
                roll = rng.random()
                if roll < 0.3:
                    slot = str(rng.choice(CONSTRAINT_SLOTS))
                    sys = SystemAct("request", slot=slot)
                elif roll < 0.5:
                    slot = str(rng.choice(CONSTRAINT_SLOTS))
                    value = str(rng.choice(VALUES[slot]))
                    sys = SystemAct("expl-conf", slot=slot, value=value)
                elif roll < 0.7:
                    sys = SystemAct("repeat")
                else:
                    sys = offer_for(matching_restaurant(goal), goal)
                for act in respond(state, sys, rng):
                    if act.act_type == "inform":
                        assert goal.constraints[act.slot] == act.value
