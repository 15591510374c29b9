"""Minimal differentiable-network toolkit for the Q, V and policy approximators.

Fully connected nets with tanh hidden layers and a linear output layer;
exact backprop; Adadelta without a global learning rate; L2 penalty on
weights; the softmax and log-policy gradient a policy applies to that
output. Everything is float64 and seed-deterministic.

A net's parameters are one contiguous vector, every layer's W (row-major)
first and then every b; ``weights[i]`` and ``biases[i]`` are reshaped views
of it. Gradients and the Adadelta accumulators are vectors in that layout,
so the optimiser, copies, the L2 term and checkpoints each work on whole
vectors or one slice; ``layer_views`` gives any of them per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .checkpoint import State


class ShapeError(ValueError):
    """Input or parameter shapes disagree with the network architecture."""


class NonFiniteGradientError(RuntimeError):
    """A NaN/inf gradient reached the optimiser; names the parameter."""


def layer_slices(layer_sizes: Sequence[int]) -> list:
    """Per layer, the W slice, the W shape and the b slice of the parameter
    layout."""
    shapes = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    bounds = list(accumulate([a * b for a, b in shapes] + [b for _, b in shapes],
                             initial=0))
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return list(zip(spans, shapes, spans[len(shapes):]))


def layer_views(vector: np.ndarray, layer_sizes: Sequence[int]):
    """Per-layer W and b views of a flat parameter-layout vector."""
    layers = layer_slices(layer_sizes)
    return ([vector[w].reshape(shape) for w, shape, _ in layers],
            [vector[b] for _, _, b in layers])


@dataclass(eq=False)
class FeedForwardNet:
    """MLP with tanh hidden activations and a linear output layer.

    ``weights[i]`` has shape (n_in, n_out). ``params`` holds every
    parameter (zeros unless given); ``weights``/``biases`` view it.
    """

    layer_sizes: tuple[int, ...]
    params: np.ndarray | None = None

    def __post_init__(self):
        sizes = self.layer_sizes
        self.n_weights = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
        size = self.n_weights + sum(sizes[1:])
        if self.params is None:
            self.params = np.zeros(size)
        elif self.params.shape != (size,):
            raise ShapeError(f"parameter vector of shape {self.params.shape} "
                             f"for layer sizes {sizes} ({size})")
        self.weights, self.biases = layer_views(self.params, sizes)
        self.layers = layer_slices(sizes)

    @classmethod
    def create(cls, n_in: int, n_out: int, hidden: Sequence[int],
               rng: np.random.Generator) -> "FeedForwardNet":
        """Glorot-uniform weights drawn from ``rng``, zero biases."""
        net = cls(layer_sizes=(n_in, *hidden, n_out))
        for w in net.weights:
            limit = np.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        return net

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def state(self) -> State:
        """The live parameter vector, for checkpoints."""
        return State({"params": self.params},
                     spec={"layer_sizes": list(self.layer_sizes)})

    # -- forward -----------------------------------------------------------

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; x is (batch, n_in), result (batch, n_out)."""
        return self.forward_train(x)[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """One input vector's output vector."""
        return self.forward_batch(np.asarray(x, dtype=float)[None, :])[0]

    def forward_train(self, x: np.ndarray):
        """Batched forward pass that returns the output and every layer's
        activations (the input first, the output last) for
        ``backward_batch``."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ShapeError(
                f"input shape {x.shape} incompatible with n_in={self.layer_sizes[0]}")
        activations = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            # a @ w + b, then tanh, each into the layer's one new array
            a = a @ w
            a += b
            if i != last:
                np.tanh(a, out=a)
            activations.append(a)
        return a, activations

    # -- backward ----------------------------------------------------------

    def backward_batch(self, grad_out: np.ndarray,
                       activations: list) -> np.ndarray:
        """Exact gradients of ``sum_b objective_b`` for a batch, as one
        vector in the parameter layout.

        ``grad_out`` is the objective's gradient at the output (a policy's
        logits), one row per batch element; ``activations`` are what
        ``forward_train`` returned for the batch on the current parameters.
        """
        grad_out = np.asarray(grad_out, dtype=float)
        if grad_out.shape != activations[-1].shape:
            raise ShapeError(f"upstream gradient shape {grad_out.shape} != "
                             f"output {activations[-1].shape}")
        grads = np.empty_like(self.params)
        delta = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            w, shape, b = self.layers[i]
            np.matmul(activations[i].T, delta, out=grads[w].reshape(shape))
            np.add.reduce(delta, axis=0, out=grads[b])     # np.sum, unwrapped
            if i > 0:
                # tanh'(z) = 1 - a^2 with a the cached activation
                slope = np.square(activations[i])
                np.subtract(1.0, slope, out=slope)
                delta = delta @ self.weights[i].T
                delta *= slope
        return grads


def softmax(z: np.ndarray) -> np.ndarray:
    # the same ufuncs in the same order, into one new array
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


# ---------------------------------------------------------------------------
# losses


# the smallest target probability the cross-entropy takes the log of
CE_CLAMP = 1e-12


def log_policy_gradient(probs: np.ndarray, actions) -> np.ndarray:
    """Gradient of ``log pi(action)`` at the pre-softmax layer, onehot -
    probs: for one row of probabilities and an action, or row by row."""
    probs = np.asarray(probs, dtype=float)
    return np.eye(probs.shape[-1])[actions] - probs


def add_l2_gradient(grads: np.ndarray, net: FeedForwardNet,
                    coefficient: float) -> None:
    """Add the gradient of ``c * sum(W^2)`` to ``grads`` in place; the
    biases, which the penalty excludes, are left as they are."""
    grads[:net.n_weights] += 2.0 * coefficient * net.params[:net.n_weights]


# ---------------------------------------------------------------------------
# Adadelta


@dataclass
class AdadeltaState:
    """Decaying accumulators of squared gradients and squared updates, each
    a vector in the net's parameter layout, and two workspaces of that
    length for ``adadelta_step``."""

    acc_grad: np.ndarray
    acc_update: np.ndarray
    rho: float = 0.95
    eps: float = 1e-6

    def __post_init__(self):
        self.work = (np.empty_like(self.acc_grad),
                     np.empty_like(self.acc_grad))

    @classmethod
    def for_net(cls, net: FeedForwardNet, rho: float = 0.95,
                eps: float = 1e-6) -> "AdadeltaState":
        return cls(acc_grad=np.zeros_like(net.params),
                   acc_update=np.zeros_like(net.params), rho=rho, eps=eps)

    def state(self) -> State:
        """Live accumulators, for checkpoints."""
        return State({"grad": self.acc_grad, "update": self.acc_update})


def adadelta_step(state: AdadeltaState, net: FeedForwardNet,
                  g: np.ndarray) -> None:
    """One Adadelta update, in place; no global learning rate.

    accumulate E[g^2], scale the step by RMS(prior updates)/RMS(gradients),
    then accumulate E[dx^2]:

        E[g^2]  <- rho E[g^2] + (1 - rho) g g
        dx       = sqrt((E[dx^2] + eps) / (E[g^2] + eps)) g
        E[dx^2] <- rho E[dx^2] + (1 - rho) dx dx
        params  -= dx

    Each line runs elementwise over the whole parameter vector, in place or
    into the state's two workspaces, so a step allocates nothing; products
    are taken left to right, so the result is bit for bit that of
    evaluating the lines as written.
    """
    if g.shape != net.params.shape:
        raise ShapeError(f"gradient length {g.shape} != parameters {net.params.shape}")
    # a sum is finite if every entry is; it may also overflow, so only the
    # per-layer search decides
    if not math.isfinite(np.add.reduce(g)):
        for i, pair in enumerate(zip(*layer_views(g, net.layer_sizes))):
            for tag, part in zip("Wb", pair):
                if not np.isfinite(part).all():
                    raise NonFiniteGradientError(
                        f"non-finite gradient at layer {i} {tag}")
    rho, eps = state.rho, state.eps
    eg, eu = state.acc_grad, state.acc_update
    scratch, delta = state.work
    np.multiply(g, 1.0 - rho, out=scratch)
    scratch *= g
    eg *= rho
    eg += scratch
    np.add(eu, eps, out=delta)
    delta /= np.add(eg, eps, out=scratch)
    np.sqrt(delta, out=delta)
    delta *= g
    np.multiply(delta, 1.0 - rho, out=scratch)
    scratch *= delta
    eu *= rho
    eu += scratch
    net.params -= delta


def copy_params(src: FeedForwardNet, dst: FeedForwardNet) -> None:
    if src.layer_sizes != dst.layer_sizes:
        raise ShapeError(f"architecture mismatch: {src.layer_sizes} vs "
                         f"{dst.layer_sizes}")
    np.copyto(dst.params, src.params)


def clone_net(net: FeedForwardNet) -> FeedForwardNet:
    return FeedForwardNet(layer_sizes=net.layer_sizes,
                          params=net.params.copy())
