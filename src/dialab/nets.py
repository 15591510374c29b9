"""Minimal differentiable-network toolkit for the Q, V and policy approximators.

Fully connected nets with tanh hidden layers and a linear, softmax or scalar
head; exact backprop; Adadelta without a global learning rate; L2 penalty on
weights; finite-difference gradient verification. Everything is float64 and
seed-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .checkpoint import State

HEADS = ("linear", "softmax", "scalar")

# gradients are per-layer (dW, db) pairs, shape-congruent with the net
GradientSet = list


class ShapeError(ValueError):
    """Input or parameter shapes disagree with the network architecture."""


class NonFiniteGradientError(RuntimeError):
    """A NaN/inf gradient reached the optimiser; names the parameter."""


# cross-entropy clamp events (probability 0 at the target), readable by tests
_clamp_warnings = 0


def clamp_warning_count() -> int:
    return _clamp_warnings


def reset_clamp_warnings() -> None:
    global _clamp_warnings
    _clamp_warnings = 0


@dataclass
class FeedForwardNet:
    """MLP with tanh hidden activations.

    ``weights[i]`` has shape (n_in, n_out); the head is applied to the last
    linear output: ``softmax`` normalizes, ``scalar`` returns a float from a
    single output unit, ``linear`` returns the raw vector.
    """

    layer_sizes: tuple[int, ...]
    head: str
    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)

    @classmethod
    def create(cls, n_in: int, n_out: int, hidden: Sequence[int] = (130, 50),
               head: str = "linear",
               rng: np.random.Generator | None = None) -> "FeedForwardNet":
        if head not in HEADS:
            raise ShapeError(f"unknown head '{head}'")
        if head == "scalar" and n_out != 1:
            raise ShapeError("scalar head needs exactly one output unit")
        rng = rng if rng is not None else np.random.default_rng(0)
        sizes = (n_in, *hidden, n_out)
        net = cls(layer_sizes=sizes, head=head)
        for a, b in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (a + b))
            net.weights.append(rng.uniform(-limit, limit, size=(a, b)))
            net.biases.append(np.zeros(b))
        return net

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def state(self) -> State:
        """Live weights and biases, for checkpoints."""
        return State(named_pairs(zip(self.weights, self.biases)),
                     spec={"layer_sizes": list(self.layer_sizes),
                           "head": self.head})

    # -- forward -----------------------------------------------------------

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; x is (batch, n_in), result (batch, n_out)."""
        out, _ = self._forward_cached(np.asarray(x, dtype=float))
        return out

    def forward(self, x: np.ndarray):
        out = self.forward_batch(np.asarray(x, dtype=float)[None, :])[0]
        if self.head == "scalar":
            return float(out[0])
        return out

    def _forward_cached(self, x: np.ndarray):
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ShapeError(
                f"input shape {x.shape} incompatible with n_in={self.layer_sizes[0]}")
        activations = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            a = z if i == last else np.tanh(z)
            activations.append(a)
        out = softmax(a) if self.head == "softmax" else a
        return out, activations

    # -- backward ----------------------------------------------------------

    def backward_batch(self, x: np.ndarray, grad_out: np.ndarray) -> GradientSet:
        """Exact gradients of ``sum_b objective_b`` for a batch.

        ``grad_out`` is the objective's gradient at the final *linear* output
        (the logits for a softmax head), one row per batch element.
        """
        x = np.asarray(x, dtype=float)
        grad_out = np.asarray(grad_out, dtype=float)
        _, acts = self._forward_cached(x)
        if grad_out.shape != acts[-1].shape:
            raise ShapeError(
                f"upstream gradient shape {grad_out.shape} != output {acts[-1].shape}")
        grads: GradientSet = [None] * len(self.weights)
        delta = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = acts[i]
            grads[i] = (a_prev.T @ delta, delta.sum(axis=0))
            if i > 0:
                # tanh'(z) = 1 - a^2 with a the cached activation
                delta = (delta @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        return grads

    def backward(self, x: np.ndarray, grad_out: np.ndarray) -> GradientSet:
        return self.backward_batch(np.asarray(x, dtype=float)[None, :],
                                   np.asarray(grad_out, dtype=float)[None, :])


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def zero_grads(net: FeedForwardNet) -> GradientSet:
    return [(np.zeros_like(w), np.zeros_like(b))
            for w, b in zip(net.weights, net.biases)]


def add_grads(a: GradientSet, b: GradientSet) -> GradientSet:
    return [(aw + bw, ab + bb) for (aw, ab), (bw, bb) in zip(a, b)]


def named_pairs(pairs, prefix: str = "") -> dict:
    """Per-layer (W, b) pairs as ``{prefix}w{i}``/``{prefix}b{i}`` arrays."""
    return {f"{prefix}{tag}{i}": a for i, pair in enumerate(pairs)
            for tag, a in zip("wb", pair)}


# ---------------------------------------------------------------------------
# losses


def mse_loss(prediction, target):
    """Mean squared error and its gradient at the prediction."""
    p = np.atleast_1d(np.asarray(prediction, dtype=float))
    t = np.atleast_1d(np.asarray(target, dtype=float))
    if p.shape != t.shape:
        raise ShapeError(f"prediction {p.shape} vs target {t.shape}")
    diff = p - t
    loss = float(np.mean(diff ** 2))
    return loss, 2.0 * diff / diff.size


def cross_entropy_loss(probs: np.ndarray, target: int, eps: float = 1e-12):
    """Categorical cross-entropy against an action index.

    Returns the loss and its gradient at the pre-softmax layer, which is
    ``probs - onehot(target)``. A zero probability at the target is clamped
    at ``eps`` and counted.
    """
    global _clamp_warnings
    p = np.asarray(probs, dtype=float)
    if not 0 <= target < p.shape[-1]:
        raise ShapeError(f"target index {target} outside {p.shape[-1]} classes")
    pt = p[target]
    if pt < eps:
        _clamp_warnings += 1
        pt = eps
    loss = float(-np.log(pt))
    grad = p.copy()
    grad[target] -= 1.0
    return loss, grad


def log_policy_gradient(probs: np.ndarray, action: int) -> np.ndarray:
    """Gradient of ``log pi(action)`` at the pre-softmax layer: onehot - probs."""
    g = -np.asarray(probs, dtype=float).copy()
    g[action] += 1.0
    return g


def l2_penalty(net: FeedForwardNet, coefficient: float):
    """Weight-decay penalty ``c * sum(W^2)`` and its gradients (biases excluded)."""
    if coefficient < 0:
        raise ValueError("l2 coefficient must be >= 0")
    penalty = coefficient * sum(float(np.sum(w ** 2)) for w in net.weights)
    grads = [(2.0 * coefficient * w, np.zeros_like(b))
             for w, b in zip(net.weights, net.biases)]
    return penalty, grads


# ---------------------------------------------------------------------------
# Adadelta


@dataclass
class AdadeltaState:
    """Decaying accumulators of squared gradients and squared updates."""

    rho: float = 0.95
    eps: float = 1e-6
    acc_grad: GradientSet = field(default_factory=list)
    acc_update: GradientSet = field(default_factory=list)

    @classmethod
    def for_net(cls, net: FeedForwardNet, rho: float = 0.95,
                eps: float = 1e-6) -> "AdadeltaState":
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho={rho} outside (0,1)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        state = cls(rho=rho, eps=eps)
        state.acc_grad = zero_grads(net)
        state.acc_update = zero_grads(net)
        return state

    def state(self) -> State:
        """Live accumulators, for checkpoints."""
        return State({**named_pairs(self.acc_grad, "grad."),
                      **named_pairs(self.acc_update, "update.")})


def adadelta_step(state: AdadeltaState, net: FeedForwardNet,
                  grads: GradientSet) -> None:
    """One Adadelta update, in place; no global learning rate.

    accumulate E[g^2], scale the step by RMS(prior updates)/RMS(gradients),
    then accumulate E[dx^2].
    """
    rho, eps = state.rho, state.eps
    for i, (gw, gb) in enumerate(grads):
        for tag, g in (("W", gw), ("b", gb)):
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient at layer {i} {tag}")
    for i in range(len(net.weights)):
        for j, (param, g) in enumerate(((net.weights[i], grads[i][0]),
                                        (net.biases[i], grads[i][1]))):
            eg = state.acc_grad[i][j]
            eu = state.acc_update[i][j]
            eg *= rho
            eg += (1.0 - rho) * g * g
            delta = -np.sqrt((eu + eps) / (eg + eps)) * g
            eu *= rho
            eu += (1.0 - rho) * delta * delta
            param += delta


def copy_params(src: FeedForwardNet, dst: FeedForwardNet) -> None:
    if src.layer_sizes != dst.layer_sizes or src.head != dst.head:
        raise ShapeError(
            f"architecture mismatch: {src.layer_sizes}/{src.head} vs "
            f"{dst.layer_sizes}/{dst.head}")
    for i in range(len(src.weights)):
        np.copyto(dst.weights[i], src.weights[i])
        np.copyto(dst.biases[i], src.biases[i])


def clone_net(net: FeedForwardNet) -> FeedForwardNet:
    twin = FeedForwardNet(layer_sizes=net.layer_sizes, head=net.head,
                          weights=[w.copy() for w in net.weights],
                          biases=[b.copy() for b in net.biases])
    return twin


# ---------------------------------------------------------------------------
# gradient verification


def finite_difference_grads(objective: Callable[[], float],
                            net: FeedForwardNet, h: float = 1e-5) -> GradientSet:
    """Central-difference gradients of a scalar closure over every parameter.

    Independent oracle for the analytic backprop: it only perturbs parameters
    and re-evaluates ``objective``.
    """
    grads = zero_grads(net)
    for i in range(len(net.weights)):
        for j, param in enumerate((net.weights[i], net.biases[i])):
            flat = param.reshape(-1)
            out = grads[i][j].reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = objective()
                flat[k] = orig - h
                down = objective()
                flat[k] = orig
                out[k] = (up - down) / (2.0 * h)
    return grads
