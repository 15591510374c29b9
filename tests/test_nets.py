import math

import numpy as np
import pytest

from dialab import nets
from dialab.actor_critic import ActorCriticAgent
from dialab.nets import (AdadeltaState, FeedForwardNet, NonFiniteGradientError,
                         ShapeError, adadelta_step, clone_net, copy_params,
                         layer_views, log_policy_gradient, softmax)
from dialab.value_agents import AgentConfig
from reference import (adadelta_step_negating, cross_entropy_loss,
                       finite_difference_grads, l2_penalty, mse_loss)

RNG = np.random.default_rng


def tiny_net(n_in=4, n_out=3, hidden=(5, 4), seed=0):
    return FeedForwardNet.create(n_in, n_out, hidden, RNG(seed))


def zero_net(n_in=4, n_out=3, hidden=(5, 4)):
    net = tiny_net(n_in=n_in, n_out=n_out, hidden=hidden)
    for w in net.weights:
        w[:] = 0.0
    return net


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def weights_of(vector, net):
    """Per-layer W views of a vector in ``net``'s parameter layout."""
    return layer_views(vector, net.layer_sizes)[0]


class TestForward:
    def test_zero_weights_give_the_zero_map(self):
        net = zero_net()
        assert np.allclose(net.forward(np.ones(4)), 0.0)

    def test_zero_weights_softmax_is_uniform_over_11(self):
        net = zero_net(n_in=6, n_out=11)
        out = softmax(net.forward(RNG(1).normal(size=6)))
        assert np.allclose(out, 1.0 / 11)

    def test_softmax_outputs_sum_to_one(self):
        net = tiny_net(n_out=11, seed=3)
        for i in range(20):
            out = softmax(net.forward(RNG(i).normal(size=4) * 10))
            assert abs(out.sum() - 1.0) <= 1e-9
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_dimension_mismatch_raises(self):
        net = tiny_net()
        with pytest.raises(ShapeError):
            net.forward(np.zeros(5))

    def test_softmax_extreme_logits_stay_normalized(self):
        z = np.array([1e4, -1e4, 0.0])
        p = softmax(z)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(np.isfinite(p))

    def test_parameter_count(self):
        net = tiny_net(n_in=4, n_out=3, hidden=(5, 4))
        assert net.params.size == (4 + 1) * 5 + (5 + 1) * 4 + (4 + 1) * 3

    @pytest.mark.parametrize("n_out", [11, 1])
    @pytest.mark.parametrize("rows", [1, 32])
    def test_forward_batch_is_the_training_pass_bit_for_bit(self, n_out,
                                                           rows):
        # the training pass, which keeps every activation, is the reference
        net = FeedForwardNet.create(31, n_out, (130, 50), RNG(0))
        net.params[:] = RNG(4).normal(size=net.params.size) * 0.2  # biases too
        x = RNG(rows).normal(size=(rows, 31)) * 3
        kept = x.copy()
        got = net.forward_batch(x)
        want = net.forward_train(x)[0]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(x, kept)      # the input is not written


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        net = tiny_net(seed=2)
        _, acts = net.forward_train(np.ones((1, 4)))
        grads = net.backward_batch(np.zeros((1, 3)), acts)
        assert grads.shape == net.params.shape and np.all(grads == 0.0)

    def test_mse_gradient_matches_finite_differences(self):
        net = tiny_net(seed=5)
        x = RNG(6).normal(size=4)
        target = RNG(7).normal(size=3)

        def objective():
            return mse_loss(net.forward(x), target)[0]

        _, grad_out = mse_loss(net.forward(x), target)
        analytic = net.backward_batch(grad_out[None],
                                      net.forward_train(x[None])[1])
        numeric = finite_difference_grads(objective, net, h=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_cross_entropy_gradient_matches_finite_differences(self):
        net = tiny_net(n_out=5, seed=8)
        x = RNG(9).normal(size=4)
        target = 2

        def objective():
            return cross_entropy_loss(softmax(net.forward(x)), target)[0]

        _, grad_out, _ = cross_entropy_loss(softmax(net.forward(x)), target)
        analytic = net.backward_batch(grad_out[None],
                                      net.forward_train(x[None])[1])
        numeric = finite_difference_grads(objective, net, h=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_softmax_ce_upstream_is_p_minus_onehot(self):
        net = tiny_net(n_out=5, seed=10)
        probs = softmax(net.forward(np.ones(4)))
        _, grad, _ = cross_entropy_loss(probs, 3)
        expected = probs.copy()
        expected[3] -= 1.0
        assert np.allclose(grad, expected)

    def test_log_policy_gradient_matches_finite_differences(self):
        net = tiny_net(n_out=4, seed=11)
        x = RNG(12).normal(size=4)
        action = 1

        def objective():
            return float(np.log(softmax(net.forward(x))[action]))

        analytic = net.backward_batch(
            log_policy_gradient(softmax(net.forward(x)), action)[None],
            net.forward_train(x[None])[1])
        numeric = finite_difference_grads(objective, net, h=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_one_output_gradient_matches_finite_differences(self):
        net = tiny_net(n_out=1, seed=13)
        x = RNG(14).normal(size=4)

        def objective():
            return mse_loss(net.forward(x), 0.7)[0]

        _, grad_out = mse_loss(net.forward(x), 0.7)
        analytic = net.backward_batch(grad_out[None],
                                      net.forward_train(x[None])[1])
        numeric = finite_difference_grads(objective, net, h=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_upstream_shape_mismatch_raises(self):
        net = tiny_net()
        with pytest.raises(ShapeError):
            net.backward_batch(np.zeros((1, 2)),
                               net.forward_train(np.ones((1, 4)))[1])


class TestLosses:
    def test_mse_of_identical_vectors_is_zero(self):
        x = RNG(0).normal(size=6)
        loss, grad = mse_loss(x, x)
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_cross_entropy_of_uniform_is_log_11(self):
        probs = np.full(11, 1.0 / 11)
        loss, _, _ = cross_entropy_loss(probs, 4)
        assert abs(loss - math.log(11)) <= 1e-12

    def test_cross_entropy_of_point_mass_is_zero(self):
        probs = np.zeros(5)
        probs[2] = 1.0
        loss, _, _ = cross_entropy_loss(probs, 2)
        assert loss == 0.0

    def test_zero_probability_clamped_and_counted(self):
        probs = np.zeros(3)
        probs[0] = 1.0
        loss, _, clamped = cross_entropy_loss(probs, 2)
        assert np.isfinite(loss) and loss > 20
        assert clamped
        # the actor-critic agent owns the count, one per clamped example
        agent = ActorCriticAgent(4, 3, AgentConfig(hidden=(5,)), RNG(0),
                                 (0, 1, 2), gamma=0.99)
        agent.policy.biases[-1][:] = [1e4, 0.0, -1e4]
        agent.supervised_step(np.zeros((2, 4)), np.array([0, 2]))
        assert agent.clamp_count == 1


class TestL2:
    def test_zero_coefficient(self):
        net = tiny_net(seed=4)
        penalty, grads = l2_penalty(net, 0.0)
        assert penalty == 0.0
        assert np.all(grads == 0)

    def test_single_weight_arithmetic(self):
        net = zero_net(n_in=1, n_out=1, hidden=())
        net.weights[0][0, 0] = 2.0
        penalty, grads = l2_penalty(net, 0.5)
        assert penalty == 2.0
        assert weights_of(grads, net)[0][0, 0] == 2.0  # 2 * 0.5 * 2.0

    def test_biases_excluded_and_gradient_matches_fd(self):
        net = tiny_net(seed=15)
        for b in net.biases:
            b[:] = RNG(16).normal(size=b.shape)

        def objective():
            return l2_penalty(net, 0.3)[0]

        _, analytic = l2_penalty(net, 0.3)
        numeric = finite_difference_grads(objective, net, h=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4
        assert all(np.all(gb == 0)
                   for gb in layer_views(analytic, net.layer_sizes)[1])


class TestAdadelta:
    def test_zero_gradient_zero_update_accumulators_decay(self):
        net = tiny_net(seed=17)
        state = AdadeltaState.for_net(net)
        acc_weights = weights_of(state.acc_grad, net)
        for w in acc_weights:
            w[:] = 1.0
        before = [w.copy() for w in net.weights]
        adadelta_step(state, net, np.zeros_like(net.params))
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)
        assert np.allclose(acc_weights[0], 0.95)

    def test_first_step_magnitude_formula(self):
        # rho=0.95, eps=1e-6, g=1: |dx| = sqrt(eps / (0.05 + eps))
        net = zero_net(n_in=1, n_out=1, hidden=())
        state = AdadeltaState.for_net(net, rho=0.95, eps=1e-6)
        grads = np.zeros_like(net.params)
        weights_of(grads, net)[0][0, 0] = 1.0
        adadelta_step(state, net, grads)
        expected = math.sqrt(1e-6 / (0.05 + 1e-6))
        assert abs(abs(net.weights[0][0, 0]) - expected) <= 1e-15
        assert net.weights[0][0, 0] < 0  # update opposes the gradient

    def test_constant_gradient_closed_loop(self):
        # independent oracle: simulate the published recursions directly
        rho, eps, g = 0.95, 1e-6, 0.25
        eg = eu = 0.0
        x_oracle = 0.0
        net = zero_net(n_in=1, n_out=1, hidden=())
        state = AdadeltaState.for_net(net, rho=rho, eps=eps)
        grads = np.zeros_like(net.params)
        weights_of(grads, net)[0][0, 0] = g
        deltas = []
        for _ in range(500):
            eg = rho * eg + (1 - rho) * g * g
            dx = -math.sqrt((eu + eps) / (eg + eps)) * g
            eu = rho * eu + (1 - rho) * dx * dx
            x_oracle += dx
            deltas.append(dx)
            adadelta_step(state, net, grads)
        assert abs(net.weights[0][0, 0] - x_oracle) <= 1e-12
        # update magnitude approaches a steady value, sign stays -sign(g)
        assert all(d < 0 for d in deltas)
        tail = [abs(d) for d in deltas[-50:]]
        assert max(tail) - min(tail) <= 0.05 * max(tail)

    def test_scale_free_first_step(self):
        # with eps -> 0 the first-step update is invariant to gradient scale
        for g in (1.0,):
            net_a = zero_net(n_in=1, n_out=1, hidden=())
            net_b = zero_net(n_in=1, n_out=1, hidden=())
            sa = AdadeltaState.for_net(net_a, eps=1e-12)
            sb = AdadeltaState.for_net(net_b, eps=1e-12)
            ga, gb = np.zeros_like(net_a.params), np.zeros_like(net_b.params)
            weights_of(ga, net_a)[0][0, 0] = g
            weights_of(gb, net_b)[0][0, 0] = 1000 * g
            adadelta_step(sa, net_a, ga)
            adadelta_step(sb, net_b, gb)
            a = net_a.weights[0][0, 0]
            b = net_b.weights[0][0, 0]
            assert abs(a - b) / abs(a) <= 1e-6

    def test_non_finite_gradient_rejected_with_location(self):
        net = tiny_net(seed=18)
        state = AdadeltaState.for_net(net)
        grads = np.zeros_like(net.params)
        weights_of(grads, net)[1][0, 0] = float("nan")
        with pytest.raises(NonFiniteGradientError, match="layer 1 W"):
            adadelta_step(state, net, grads)
        grads[:] = 0.0
        layer_views(grads, net.layer_sizes)[1][2][-1] = float("inf")
        with pytest.raises(NonFiniteGradientError, match="layer 2 b"):
            adadelta_step(state, net, grads)

    def test_matches_the_negating_step_bit_for_bit_over_100_steps(self):
        # subtracting the step equals adding its negation, and the squared
        # step is the same product, so no bit of the state may differ
        net = FeedForwardNet.create(31, 11, (130, 50), RNG(32))
        twin = clone_net(net)
        state, twin_state = (AdadeltaState.for_net(n) for n in (net, twin))
        rng = RNG(33)
        for _ in range(100):
            g = rng.normal(size=net.params.size) * 10.0 ** rng.uniform(-6, 3)
            adadelta_step(state, net, g)
            adadelta_step_negating(twin_state, twin, g)
            for mine, theirs in ((net.params, twin.params),
                                 (state.acc_grad, twin_state.acc_grad),
                                 (state.acc_update, twin_state.acc_update)):
                assert mine.tobytes() == theirs.tobytes()

    def test_finite_gradient_whose_sum_overflows_is_taken(self):
        # the sum that screens for NaN and inf overflows here; the
        # per-layer search then finds every entry finite
        net = tiny_net(seed=36)
        twin = clone_net(net)
        state, twin_state = (AdadeltaState.for_net(n) for n in (net, twin))
        g = np.full_like(net.params, 1e308)
        with np.errstate(over="ignore"):
            adadelta_step(state, net, g)
            adadelta_step_negating(twin_state, twin, g)
        assert net.params.tobytes() == twin.params.tobytes()

    def test_successive_calls_leave_held_results_alone(self):
        # backward returns a fresh vector, and a step writes only its own
        # optimiser state and net: the workspaces are never a result
        net, rng = tiny_net(seed=34), RNG(35)
        x, grad_out = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        first = net.backward_batch(grad_out, net.forward_train(x)[1])
        held = first.copy()
        x, grad_out = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        second = net.backward_batch(grad_out, net.forward_train(x)[1])
        assert first.tobytes() == held.tobytes()
        state, other = AdadeltaState.for_net(net), AdadeltaState.for_net(net)
        adadelta_step(state, net, first)
        accumulated = state.acc_grad.copy(), state.acc_update.copy()
        adadelta_step(other, net, second)
        adadelta_step(other, net, second)
        assert first.tobytes() == held.tobytes()
        assert state.acc_grad.tobytes() == accumulated[0].tobytes()
        assert state.acc_update.tobytes() == accumulated[1].tobytes()


class TestFlatLayout:
    def test_weights_then_biases_view_one_vector(self):
        net = tiny_net(seed=27)
        flat = np.concatenate([w.ravel() for w in net.weights] + net.biases)
        assert np.array_equal(net.params, flat)
        for part in net.weights + net.biases:
            assert np.shares_memory(part, net.params)
        net.params[-1] = 5.0
        assert net.biases[-1][-1] == 5.0

    def test_l2_gradient_added_to_weights_only(self):
        net = tiny_net(seed=31)
        grads = net.backward_batch(np.ones((1, 3)),
                                   net.forward_train(np.ones((1, 4)))[1])
        before = grads.copy()
        nets.add_l2_gradient(grads, net, 0.25)
        n = net.n_weights
        assert np.array_equal(grads[:n], before[:n] + 0.5 * net.params[:n])
        assert np.array_equal(grads[n:], before[n:])


class TestCopyAndCheckpoint:
    def test_copy_makes_outputs_identical(self):
        src = tiny_net(seed=19)
        dst = tiny_net(seed=20)
        copy_params(src, dst)
        for i in range(100):
            x = RNG(100 + i).normal(size=4)
            assert np.array_equal(src.forward(x), dst.forward(x))

    def test_mutating_src_leaves_dst_unchanged(self):
        src = tiny_net(seed=21)
        dst = tiny_net(seed=22)
        copy_params(src, dst)
        before = dst.forward(np.ones(4)).copy()
        src.weights[0][:] += 1.0
        assert np.array_equal(dst.forward(np.ones(4)), before)

    def test_copy_idempotent(self):
        src = tiny_net(seed=23)
        dst = tiny_net(seed=24)
        copy_params(src, dst)
        snap = [w.copy() for w in dst.weights]
        copy_params(src, dst)
        for w, s in zip(dst.weights, snap):
            assert np.array_equal(w, s)

    def test_architecture_mismatch_raises(self):
        with pytest.raises(ShapeError):
            copy_params(tiny_net(), tiny_net(n_out=5))

    def test_clone_is_independent(self):
        net = tiny_net(seed=26)
        twin = clone_net(net)
        net.weights[0][:] += 1.0
        assert not np.array_equal(net.weights[0], twin.weights[0])


def test_seeded_init_is_deterministic():
    a = tiny_net(seed=33)
    b = tiny_net(seed=33)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
