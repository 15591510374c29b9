import math

import numpy as np
import pytest

from dialab import nets
from dialab.actor_critic import ActorCriticAgent
from dialab.nets import (AdadeltaState, FeedForwardNet, NonFiniteGradientError,
                         ShapeError, adadelta_step, clone_net, copy_params,
                         cross_entropy_loss, finite_difference_grads,
                         l2_penalty, log_policy_gradient, mse_loss, softmax)
from dialab.value_agents import AgentConfig

RNG = np.random.default_rng


def tiny_net(head="linear", n_in=4, n_out=3, hidden=(5, 4), seed=0):
    return FeedForwardNet.create(n_in, n_out, hidden=hidden, head=head,
                                 rng=RNG(seed))


def zero_net(head="linear", n_in=4, n_out=3, hidden=(5, 4)):
    net = tiny_net(head=head, n_in=n_in, n_out=n_out, hidden=hidden)
    for w in net.weights:
        w[:] = 0.0
    return net


def max_rel_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestForward:
    def test_zero_weights_linear_head_is_zero_map(self):
        net = zero_net("linear")
        assert np.allclose(net.forward(np.ones(4)), 0.0)

    def test_zero_weights_softmax_is_uniform_over_11(self):
        net = zero_net("softmax", n_in=6, n_out=11)
        out = net.forward(RNG(1).normal(size=6))
        assert np.allclose(out, 1.0 / 11)

    def test_softmax_outputs_sum_to_one(self):
        net = tiny_net("softmax", n_out=11, seed=3)
        for i in range(20):
            out = net.forward(RNG(i).normal(size=4) * 10)
            assert abs(out.sum() - 1.0) <= 1e-9
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_scalar_head_returns_float(self):
        net = tiny_net("scalar", n_out=1)
        assert isinstance(net.forward(np.zeros(4)), float)

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
        assert net.param_count() == (4 + 1) * 5 + (5 + 1) * 4 + (4 + 1) * 3


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        net = tiny_net(seed=2)
        grads = net.backward(np.ones(4), np.zeros(3))
        for gw, gb in grads:
            assert np.all(gw == 0.0) and np.all(gb == 0.0)

    def test_mse_gradient_matches_finite_differences(self):
        net = tiny_net("linear", seed=5)
        x = RNG(6).normal(size=4)
        target = RNG(7).normal(size=3)

        def objective():
            return mse_loss(net.forward(x), target)[0]

        _, grad_out = mse_loss(net.forward(x), target)
        analytic = net.backward(x, grad_out)
        numeric = finite_difference_grads(objective, net, h=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_cross_entropy_gradient_matches_finite_differences(self):
        net = tiny_net("softmax", n_out=5, seed=8)
        x = RNG(9).normal(size=4)
        target = 2

        def objective():
            return cross_entropy_loss(net.forward(x), target)[0]

        _, grad_out, _ = cross_entropy_loss(net.forward(x), target)
        analytic = net.backward(x, grad_out)
        numeric = finite_difference_grads(objective, net, h=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_softmax_ce_upstream_is_p_minus_onehot(self):
        net = tiny_net("softmax", n_out=5, seed=10)
        probs = net.forward(np.ones(4))
        _, grad, _ = cross_entropy_loss(probs, 3)
        expected = probs.copy()
        expected[3] -= 1.0
        assert np.allclose(grad, expected)

    def test_log_policy_gradient_matches_finite_differences(self):
        net = tiny_net("softmax", n_out=4, seed=11)
        x = RNG(12).normal(size=4)
        action = 1

        def objective():
            return float(np.log(net.forward(x)[action]))

        analytic = net.backward(x, log_policy_gradient(net.forward(x), action))
        numeric = finite_difference_grads(objective, net, h=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_scalar_head_gradient_matches_finite_differences(self):
        net = tiny_net("scalar", n_out=1, seed=13)
        x = RNG(14).normal(size=4)

        def objective():
            return mse_loss(net.forward(x), 0.7)[0]

        _, grad_out = mse_loss(net.forward(x), 0.7)
        analytic = net.backward(x, np.atleast_1d(grad_out))
        numeric = finite_difference_grads(objective, net, h=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_upstream_shape_mismatch_raises(self):
        net = tiny_net()
        with pytest.raises(ShapeError):
            net.backward(np.ones(4), np.zeros(2))


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
        agent = ActorCriticAgent(4, 3, AgentConfig(hidden=(5,)), RNG(0))
        agent.policy.biases[-1][:] = [1e4, 0.0, -1e4]
        agent.supervised_step(np.zeros((2, 4)), np.array([0, 2]))
        assert agent.clamp_count == 1


class TestL2:
    def test_zero_coefficient(self):
        net = tiny_net(seed=4)
        penalty, grads = l2_penalty(net, 0.0)
        assert penalty == 0.0
        assert all(np.all(gw == 0) for gw, _ in grads)

    def test_single_weight_arithmetic(self):
        net = zero_net(n_in=1, n_out=1, hidden=())
        net.weights[0][0, 0] = 2.0
        penalty, grads = l2_penalty(net, 0.5)
        assert penalty == 2.0
        assert grads[0][0][0, 0] == 2.0  # 2 * 0.5 * 2.0

    def test_biases_excluded_and_gradient_matches_fd(self):
        net = tiny_net(seed=15)
        for b in net.biases:
            b[:] = RNG(16).normal(size=b.shape)

        def objective():
            return l2_penalty(net, 0.3)[0]

        _, analytic = l2_penalty(net, 0.3)
        numeric = finite_difference_grads(objective, net, h=1e-5)
        assert max_rel_error(analytic, numeric) <= 1e-4
        assert all(np.all(gb == 0) for _, gb in analytic)


class TestAdadelta:
    def test_zero_gradient_zero_update_accumulators_decay(self):
        net = tiny_net(seed=17)
        state = AdadeltaState.for_net(net)
        for i in range(len(net.weights)):
            state.acc_grad[i][0][:] = 1.0
        before = [w.copy() for w in net.weights]
        adadelta_step(state, net, nets.zero_grads(net))
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)
        assert np.allclose(state.acc_grad[0][0], 0.95)

    def test_first_step_magnitude_formula(self):
        # rho=0.95, eps=1e-6, g=1: |dx| = sqrt(eps / (0.05 + eps))
        net = zero_net(n_in=1, n_out=1, hidden=())
        state = AdadeltaState.for_net(net, rho=0.95, eps=1e-6)
        grads = nets.zero_grads(net)
        grads[0][0][0, 0] = 1.0
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
        grads = nets.zero_grads(net)
        grads[0][0][0, 0] = g
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
            ga, gb = nets.zero_grads(net_a), nets.zero_grads(net_b)
            ga[0][0][0, 0] = g
            gb[0][0][0, 0] = 1000 * g
            adadelta_step(sa, net_a, ga)
            adadelta_step(sb, net_b, gb)
            a = net_a.weights[0][0, 0]
            b = net_b.weights[0][0, 0]
            assert abs(a - b) / abs(a) <= 1e-6

    def test_non_finite_gradient_rejected_with_location(self):
        net = tiny_net(seed=18)
        state = AdadeltaState.for_net(net)
        grads = nets.zero_grads(net)
        grads[1][0][0, 0] = float("nan")
        with pytest.raises(NonFiniteGradientError, match="layer 1 W"):
            adadelta_step(state, net, grads)


class TestFlatLayout:
    def test_weights_then_biases_view_one_vector(self):
        net = tiny_net(seed=27)
        flat = np.concatenate([w.ravel() for w in net.weights] + net.biases)
        assert np.array_equal(net.params, flat)
        for part in net.weights + net.biases:
            assert np.shares_memory(part, net.params)
        net.params[-1] = 5.0
        assert net.biases[-1][-1] == 5.0

    def test_backward_from_training_forward_is_bit_identical(self):
        net = tiny_net("softmax", seed=28)
        x = RNG(29).normal(size=(6, 4))
        grad_out = RNG(30).normal(size=(6, 3))
        _, acts = net.forward_train(x)
        reused = net.backward_batch(x, grad_out, acts)
        recomputed = net.backward_batch(x, grad_out)
        assert np.array_equal(reused.vector, recomputed.vector)

    def test_l2_gradient_added_to_weights_only(self):
        net = tiny_net(seed=31)
        grads = net.backward(np.ones(4), np.ones(3))
        before = grads.vector.copy()
        nets.add_l2_gradient(grads, net, 0.25)
        n = net.n_weights
        assert np.array_equal(grads.vector[:n],
                              before[:n] + 0.5 * net.params[:n])
        assert np.array_equal(grads.vector[n:], before[n:])


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
