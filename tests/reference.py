"""Test oracles: independent reference computations the tests compare the
program against, and fixtures no code in ``src/dialab`` needs. Not a test
module itself (pytest collects ``test_*.py`` only)."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from dialab.environment import EnvConfig, EpisodeLog
from dialab.nets import (CE_CLAMP, FeedForwardNet, GradientSet, ShapeError,
                         add_l2_gradient, zero_grads)
from dialab.tracker import ErrorModel


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
    """Weight-decay penalty ``c * sum(W^2)`` and its gradients (biases excluded)."""
    grads = zero_grads(net)
    add_l2_gradient(grads, net, coefficient)
    penalty = coefficient * sum(float(np.sum(w ** 2)) for w in net.weights)
    return penalty, grads


def finite_difference_grads(objective: Callable[[], float],
                            net: FeedForwardNet, h: float = 1e-5) -> GradientSet:
    """Central-difference gradients of a scalar closure over every parameter.

    Independent oracle for the analytic backprop: it only perturbs parameters
    and re-evaluates ``objective``.
    """
    grads = zero_grads(net)
    params = net.params
    for k in range(params.size):
        orig = params[k]
        params[k] = orig + h
        up = objective()
        params[k] = orig - h
        down = objective()
        params[k] = orig
        grads.vector[k] = (up - down) / (2.0 * h)
    return grads


def check_reward_decomposition(log: EpisodeLog, cfg: EnvConfig) -> bool:
    """Every episode return must equal length * turn_penalty plus the
    terminal bonus: +1 on success, -1 on timeout or hang-up."""
    bonus = cfg.success_reward if log.success else cfg.failure_reward
    expected = log.length * cfg.turn_penalty + bonus
    return math.isclose(log.episode_return, expected, abs_tol=1e-9)


def noiseless_channel() -> ErrorModel:
    """A channel that passes every user act through unchanged."""
    return ErrorModel(p_confuse=0.0, p_drop=0.0, nbest_size=1,
                      concentration=float("inf"))
