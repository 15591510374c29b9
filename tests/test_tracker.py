import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialab.environment import SPACES
from dialab.ontology import (CONSTRAINT_SLOTS, REQUEST_SLOTS, USER_ACT_TYPES,
                             VALUES, UserAct)
from dialab.tracker import (DB_COUNT_CAP, G_C, SUMMARY_LEN,
                            BeliefState, ErrorModel, _confused_act, corrupt,
                            fresh_belief, nearest_gc, nearest_gr,
                            not_mentioned_mass, ranked_values, summarize,
                            top2, turn_phase, update_belief,
                            vectorize_original)
from reference import (G_R, ORIGINAL_LEN, confused_act_by_list,
                       corrupt_by_list, noiseless_channel, render)

RNG = np.random.default_rng


def inform(slot, value):
    return UserAct("inform", slot=slot, value=value)


def obs_of(*scored_acts):
    """One n-best list per (act, score) pair."""
    return [[(a, s)] for a, s in scored_acts]


def mass(belief, slot, value):
    return belief.constraints[slot][VALUES[slot].index(value)]


def request_p(belief, slot):
    return belief.requests[REQUEST_SLOTS.index(slot)]


def random_belief(rng):
    """A syntactically valid belief with random distributions."""
    uniforms = rng.random(64)
    k = 0
    constraints = {}
    for slot in CONSTRAINT_SLOTS:
        n = len(VALUES[slot]) + 1  # the values, then the unmentioned mass
        raw = [-np.log(u) for u in uniforms[k:k + n]]
        k += n
        total = sum(raw)
        constraints[slot] = [x / total for x in raw]
    requests = []
    for slot in REQUEST_SLOTS:
        requests.append(float(uniforms[k]))
        k += 1
    acts = []
    for t in USER_ACT_TYPES:
        acts.append(float(uniforms[k]))
        k += 1
    return BeliefState(
        constraints=constraints,
        requests=requests,
        user_acts=acts,
        turn=int(rng.integers(0, 31)),
        db_count=int(rng.integers(0, 40)),
    )


def summarize_oracle(belief):
    """Brute-force nearest-grid mapping, enumerated independently."""
    bits = []
    for slot in CONSTRAINT_SLOTS:
        masses = sorted(belief.constraints[slot][:-1], reverse=True)
        p1 = masses[0] if masses else 0.0
        p2 = masses[1] if len(masses) > 1 else 0.0
        best, best_d = 0, float("inf")
        for i, (a, b) in enumerate(G_C):
            d = (p1 - a) * (p1 - a) + (p2 - b) * (p2 - b)
            if d < best_d:
                best, best_d = i, d
        block = [0.0] * 5
        block[best] = 1.0
        bits.extend(block)
    for p in belief.requests:
        best, best_d = 0, float("inf")
        for i, g in enumerate(G_R):
            if abs(p - g) < best_d:
                best, best_d = i, abs(p - g)
        block = [0.0] * 5
        block[best] = 1.0
        bits.extend(block)
    block = [0.0] * 5
    block[min(belief.turn // 6, 4)] = 1.0
    bits.extend(block)
    return np.array(bits)


class TestCorrupt:
    def test_noiseless_channel_is_identity_with_score_one(self):
        acts = [inform("food", "thai"), UserAct("request", slot="phone")]
        obs = corrupt(acts, noiseless_channel(), RNG(0))
        assert len(obs) == 2
        for nbest, act in zip(obs, acts):
            assert nbest == [(act, 1.0)]

    def test_full_drop_gives_empty_observation(self):
        em = ErrorModel(p_drop=1.0)
        assert corrupt([inform("food", "thai")], em, RNG(1)) == []

    def test_scores_positive_and_sum_at_most_one(self):
        em = ErrorModel(p_confuse=0.3, p_drop=0.1, nbest_size=3)
        rng = RNG(2)
        for _ in range(500):
            for nbest in corrupt([inform("area", "north")], em, rng):
                total = sum(s for _, s in nbest)
                assert all(s > 0 for _, s in nbest)
                assert total <= 1.0 + 1e-12

    def test_top_hypothesis_correct_at_one_minus_p_confuse(self):
        em = ErrorModel(p_confuse=0.2, p_drop=0.0)
        rng = RNG(3)
        act = inform("food", "italian")
        hits = 0
        n = 10000
        for _ in range(n):
            obs = corrupt([act], em, rng)
            top = max(obs[0], key=lambda hs: hs[1])[0]
            hits += (top == act)
        assert abs(hits / n - 0.8) <= 0.02

    def test_deterministic_per_seed(self):
        em = ErrorModel()
        acts = [inform("food", "thai")]
        assert corrupt(acts, em, RNG(9)) == corrupt(acts, em, RNG(9))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ErrorModel(p_confuse=1.2)
        with pytest.raises(ValueError):
            ErrorModel(nbest_size=0)


# one act of every user act type, with an inform of a value outside the
# ontology and a confirm, which the simulated user never gives
EVERY_ACT = [inform("food", "thai"), inform("area", "pizza"),
             UserAct("request", slot="phone"),
             UserAct("confirm", slot="area", value="east")] + [
    UserAct(t) for t in USER_ACT_TYPES
    if t not in ("inform", "request", "confirm")]


def scored(obs):
    """An observation with each score as its exact bytes."""
    return [[(act, float(s).hex()) for act, s in nbest] for nbest in obs]


class TestChannelTables:
    """The table-driven channel draws what the list code drew, bit for bit."""

    @pytest.mark.parametrize("act", EVERY_ACT, ids=render)
    def test_confusion_draws_match_the_list_code(self, act):
        mine, theirs = RNG(36), RNG(36)
        for _ in range(300):
            assert _confused_act(act, mine) == confused_act_by_list(act,
                                                                    theirs)
        assert mine.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("em", [
        ErrorModel(), ErrorModel(p_confuse=0.6, nbest_size=3),
        ErrorModel(p_confuse=1.0, p_drop=0.0, nbest_size=4,
                   concentration=0.5),
        noiseless_channel()], ids=["default", "n3", "confused", "noiseless"])
    def test_corrupt_matches_the_list_code(self, em):
        mine, theirs, pick = RNG(37), RNG(37), RNG(38)
        for _ in range(300):
            acts = [EVERY_ACT[i] for i in pick.integers(len(EVERY_ACT),
                                                        size=3)]
            assert scored(corrupt(acts, em, mine)) == scored(
                corrupt_by_list(acts, em, theirs))
        assert mine.bit_generator.state == theirs.bit_generator.state


class TestUpdateBelief:
    def test_certain_inform_dominates(self):
        b = fresh_belief()
        b2 = update_belief(b, obs_of((inform("food", "thai"), 1.0)), 0)
        p1, _ = top2(b2, "food")
        assert p1 >= 0.99
        assert ranked_values(b2, "food")[0] == "thai"

    def test_empty_observation_only_advances_turn(self):
        b = fresh_belief()
        b1 = update_belief(b, obs_of((inform("area", "north"), 0.6)), 3)
        b2 = update_belief(b1, [], 3)
        assert b2.constraints == b1.constraints
        assert all(v == 0.0 for v in b2.user_acts)
        assert b2.turn == b1.turn + 1

    def test_later_contradiction_wins(self):
        b = fresh_belief()
        b = update_belief(b, obs_of((inform("food", "thai"), 0.6)), 0)
        b = update_belief(b, obs_of((inform("food", "indian"), 0.6)), 0)
        assert mass(b, "food", "indian") > mass(b, "food", "thai")

    def test_request_probability_rises_to_max(self):
        b = fresh_belief()
        b = update_belief(b, obs_of((UserAct("request", slot="phone"), 0.7)), 0)
        assert request_p(b, "phone") == 0.7
        b = update_belief(b, obs_of((UserAct("request", slot="phone"), 0.4)), 0)
        assert request_p(b, "phone") == 0.7

    def test_act_probabilities_aggregate_scores(self):
        b = fresh_belief()
        obs = [[(UserAct("affirm"), 0.5)], [(UserAct("affirm"), 0.3)]]
        b = update_belief(b, obs, 0)
        assert abs(b.user_acts[USER_ACT_TYPES.index("affirm")] - 0.8) <= 1e-12

    def test_db_count_stored(self):
        b = update_belief(fresh_belief(), [], 17)
        assert b.db_count == 17

    def test_normalization_preserved_under_random_updates(self):
        rng = RNG(4)
        b = fresh_belief()
        for _ in range(300):
            slot = str(rng.choice(CONSTRAINT_SLOTS))
            value = str(rng.choice(VALUES[slot]))
            score = float(rng.uniform(0.01, 0.99))
            b = update_belief(b, obs_of((inform(slot, value), score)), 0)
            for s in CONSTRAINT_SLOTS:
                assert abs(sum(b.constraints[s]) - 1.0) <= 1e-9


class TestTop2:
    def test_worked_example(self):
        b = fresh_belief()
        dist = [0.0] * len(VALUES["food"]) + [0.05]
        dist[VALUES["food"].index("italian")] = 0.85
        dist[VALUES["food"].index("indian")] = 0.10
        b.constraints["food"] = dist
        assert top2(b, "food") == (0.85, 0.10)

    def test_fresh_belief_is_zero_zero(self):
        assert top2(fresh_belief(), "area") == (0.0, 0.0)

    def test_single_mentioned_value(self):
        b = fresh_belief()
        b = update_belief(b, obs_of((inform("area", "west"), 0.6)), 0)
        p1, p2 = top2(b, "area")
        assert abs(p1 - 0.6) <= 1e-12 and p2 == 0.0


class TestRanking:
    def test_fresh_belief_ranks_in_values_order(self):
        b = fresh_belief()
        for slot in CONSTRAINT_SLOTS:
            assert ranked_values(b, slot) == list(VALUES[slot])
            assert not_mentioned_mass(b, slot) == 1.0

    def test_ties_go_by_name(self):
        b = update_belief(fresh_belief(), obs_of((inform("food", "thai"), 0.3)),
                          0)
        b.constraints["food"][VALUES["food"].index("chinese")] = mass(
            b, "food", "thai")
        ranking = ranked_values(b, "food")
        assert ranking[:2] == ["chinese", "thai"]
        assert ranking[2:] == [v for v in VALUES["food"]
                               if v not in ("chinese", "thai")]

    def test_unmentioned_mass_is_what_informs_leave(self):
        b = update_belief(fresh_belief(), obs_of((inform("area", "west"), 0.6)),
                          0)
        assert not_mentioned_mass(b, "area") == 1.0 * (1.0 - 0.6)
        assert ranked_values(b, "area")[0] == "west"

    def test_out_of_domain_inform_is_ignored(self):
        b = update_belief(fresh_belief(), obs_of((inform("food", "pizza"), 0.9)),
                          0)
        assert b.constraints == fresh_belief().constraints
        assert b.user_acts[USER_ACT_TYPES.index("inform")] == 0.9


class TestSummarize:
    def test_worked_gc_example(self):
        # (.85,.1): distance to (1,0) ~ .180, to (.8,.2) ~ .112 -> index 1
        assert nearest_gc(0.85, 0.10) == 1

    def test_request_prob_95_maps_to_one(self):
        assert nearest_gr(0.95) == 0

    def test_zero_zero_maps_to_fourth_tuple(self):
        # literal Euclidean rule: (0,0) is closest to (.4,.4)
        assert nearest_gc(0.0, 0.0) == 4

    def test_tie_breaks_to_lowest_index(self):
        # (.5,.4) is equidistant (also in float64) from (.6,.4) and (.4,.4)
        assert abs(0.5 - 0.6) == abs(0.5 - 0.4)
        assert nearest_gc(0.5, 0.4) == 3
        # .9 is equidistant from 1. and .8 in g_r
        assert abs(0.9 - 1.0) == abs(0.9 - 0.8)
        assert nearest_gr(0.9) == 0

    @pytest.mark.parametrize("p, index", [(0.9, 0), (0.7, 2), (0.5, 2),
                                          (0.2, 3)])
    def test_request_midpoints(self, p, index):
        assert nearest_gr(p) == index

    def test_exactly_twelve_ones(self):
        rng = RNG(5)
        for _ in range(200):
            vec = summarize(random_belief(rng))
            assert vec.shape == (SUMMARY_LEN,)
            assert vec.sum() == 12
            for block in range(12):
                assert vec[block * 5:(block + 1) * 5].sum() == 1

    def test_matches_bruteforce_oracle_on_10000_random_beliefs(self):
        rng = RNG(6)
        for _ in range(10000):
            b = random_belief(rng)
            assert np.array_equal(summarize(b), summarize_oracle(b))

    def test_turn_phase_buckets(self):
        assert turn_phase(0) == 0
        assert turn_phase(5) == 0
        assert turn_phase(6) == 1
        assert turn_phase(29) == 4
        assert turn_phase(60) == 4


class TestVectorizeOriginal:
    def test_fresh_belief_is_zeros(self):
        vec = vectorize_original(fresh_belief())
        assert vec.shape == (ORIGINAL_LEN,)
        assert np.all(vec == 0.0)
        assert ORIGINAL_LEN == 31

    def test_turn_fifteen_scales_to_half(self):
        b = fresh_belief()
        for _ in range(15):
            b = update_belief(b, [], 0)
        assert vectorize_original(b)[29] == 0.5

    def test_db_count_clamped(self):
        b = update_belief(fresh_belief(), [], 40)
        assert vectorize_original(b)[30] == 1.0
        b = update_belief(fresh_belief(), [], DB_COUNT_CAP // 2)
        assert vectorize_original(b)[30] == 0.5

    def test_layout_matches_manifest(self):
        names = SPACES["original"].feature_names
        assert len(names) == ORIGINAL_LEN
        assert names[0] == "constraint.area.top1"
        assert names[29] == "turn_scaled"
        assert names[30] == "db_count_scaled"
        assert len(SPACES["summary"].feature_names) == SUMMARY_LEN


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1, max_value=2))
@example(0.9)
@example(0.7)
@example(0.5)
@example(0.2)
def test_nearest_gr_is_first_argmin_property(p):
    # the midpoints between levels as float64 distances see them: 0.9, 0.5
    # and 0.2 are ties, which go to the lower index, and 0.7 is nearer 0.6
    assert nearest_gr(p) == min(range(len(G_R)), key=lambda i: abs(p - G_R[i]))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_nearest_gc_is_argmin_property(p1, p2):
    hi, lo = max(p1, p2), min(p1, p2)
    idx = nearest_gc(hi, lo)
    best = min((hi - a) ** 2 + (lo - b) ** 2 for a, b in G_C)
    chosen = (hi - G_C[idx][0]) ** 2 + (lo - G_C[idx][1]) ** 2
    assert chosen == best
