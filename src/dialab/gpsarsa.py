"""GPSARSA on the summary space.

The Q function is a zero-mean Gaussian process under a product kernel:
squared-exponential over summary vectors times a delta kernel over actions.
Tractability comes from kernel span sparsification: a point enters the
dictionary only if its projection residual on the existing dictionary
exceeds a threshold nu. Every observed transition contributes one linear
measurement of the dictionary values,

    r = q(b, a) - gamma * q(b', a') + noise        (non-terminal)
    r = q(b, a) + noise                            (terminal)

with off-dictionary points replaced by their kernel-space projections. The
posterior over dictionary values is then maintained exactly with rank-one
updates, so with nu -> 0 the model reproduces dense GP regression.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .nets import softmax

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class KernelSpec:
    length_scale: float = 3.0
    signal_var: float = 1.0
    noise_var: float = 0.1

    def __post_init__(self):
        if min(self.length_scale, self.signal_var, self.noise_var) <= 0:
            raise ValueError("kernel hyperparameters must be positive")


def kernel(spec: KernelSpec, b1: np.ndarray, a1: int, b2: np.ndarray,
           a2: int) -> float:
    """sigma_k^2 * exp(-|b1-b2|^2 / (2 l^2)) * [a1 == a2]."""
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if b1.shape != b2.shape:
        raise ValueError(f"feature layouts differ: {b1.shape} vs {b2.shape}")
    if a1 != a2:
        return 0.0
    d2 = float(np.sum((b1 - b2) ** 2))
    return spec.signal_var * np.exp(-d2 / (2.0 * spec.length_scale ** 2))


class SparseGP:
    """Dictionary of (summary features, action) points plus the posterior
    mean and covariance of their Q values."""

    def __init__(self, spec: KernelSpec, n_actions: int, nu: float = 0.1,
                 jitter: float = 1e-10, max_dictionary: int = 2000):
        self.spec = spec
        self.n_actions = n_actions
        self.nu = nu
        self.jitter = jitter
        self.max_dictionary = max_dictionary
        self.points_b = np.zeros((0, 0))
        self.points_a = np.zeros(0, dtype=np.int64)
        self.Kinv = np.zeros((0, 0))
        self.mu = np.zeros(0)
        self.Sigma = np.zeros((0, 0))
        self._coeffs: np.ndarray | None = np.zeros(0)
        self.alarmed = False
        self.updates = 0

    # -- kernel vectors ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points_a)

    def k_vec(self, b: np.ndarray, a: int) -> np.ndarray:
        if len(self) == 0:
            return np.zeros(0)
        return self._base_similarity(b) * (self.points_a == a)

    def _base_similarity(self, b: np.ndarray) -> np.ndarray:
        d2 = np.sum((self.points_b - b) ** 2, axis=1)
        return self.spec.signal_var * np.exp(-d2 / (2.0 * self.spec.length_scale ** 2))

    # -- sparsification -----------------------------------------------------

    def admit_test(self, b: np.ndarray, a: int):
        """Projection residual of (b, a) on the dictionary.

        Returns (admit, residual, coefficients); an empty dictionary always
        admits.
        """
        kpp = self.spec.signal_var
        if len(self) == 0:
            return True, kpp, np.zeros(0)
        kv = self.k_vec(b, a)
        coeffs = self.Kinv @ kv
        residual = float(kpp - kv @ coeffs)
        return residual > self.nu, residual, coeffs

    def _admit(self, b: np.ndarray, a: int, coeffs: np.ndarray,
               residual: float) -> None:
        n = len(self)
        if n >= self.max_dictionary:
            if not self.alarmed:
                self.alarmed = True
                log.warning("GP dictionary reached its cap of %d points; "
                            "further points are projected, not admitted",
                            self.max_dictionary)
            return
        b = np.asarray(b, dtype=float)
        if n == 0:
            self.points_b = b[None, :]
            self.points_a = np.array([a], dtype=np.int64)
            kpp = self.spec.signal_var + self.jitter
            self.Kinv = np.array([[1.0 / kpp]])
            self.mu = np.zeros(1)
            self.Sigma = np.array([[kpp]])
            return
        delta = residual + self.jitter
        self.points_b = np.vstack([self.points_b, b[None, :]])
        self.points_a = np.append(self.points_a, a)
        newKinv = np.zeros((n + 1, n + 1))
        newKinv[:n, :n] = self.Kinv + np.outer(coeffs, coeffs) / delta
        newKinv[:n, n] = -coeffs / delta
        newKinv[n, :n] = -coeffs / delta
        newKinv[n, n] = 1.0 / delta
        self.Kinv = newKinv
        # prior conditional of the new point given the dictionary
        mu_new = float(coeffs @ self.mu)
        sig_col = self.Sigma @ coeffs
        var_new = float(coeffs @ sig_col) + delta
        newSigma = np.zeros((n + 1, n + 1))
        newSigma[:n, :n] = self.Sigma
        newSigma[:n, n] = sig_col
        newSigma[n, :n] = sig_col
        newSigma[n, n] = var_new
        self.Sigma = newSigma
        self.mu = np.append(self.mu, mu_new)

    def _phi(self, b: np.ndarray, a: int) -> np.ndarray:
        """Projection of a point onto the dictionary, admitting it first when
        its residual exceeds nu."""
        admit, residual, coeffs = self.admit_test(b, a)
        if admit:
            self._admit(b, a, coeffs, residual)
            if len(self) and (self.points_a[-1] == a
                              and np.array_equal(self.points_b[-1], b)):
                e = np.zeros(len(self))
                e[-1] = 1.0
                return e
            # dictionary is capped: fall through to the projection
            coeffs = self.Kinv @ self.k_vec(b, a)
        if len(coeffs) < len(self):
            coeffs = np.pad(coeffs, (0, len(self) - len(coeffs)))
        return coeffs

    # -- Bayesian update ----------------------------------------------------

    def _measure(self, u: np.ndarray, y: float) -> None:
        s_vec = self.Sigma @ u
        s = float(u @ s_vec) + self.spec.noise_var
        gain = s_vec / s
        self.mu = self.mu + gain * (y - float(u @ self.mu))
        self.Sigma = self.Sigma - np.outer(gain, s_vec)
        self.updates += 1
        if self.updates % 512 == 0:
            self.Sigma = 0.5 * (self.Sigma + self.Sigma.T)
        self._coeffs = None

    def sarsa_update(self, b, a: int, reward: float, next_b, next_a: int | None,
                     terminal: bool, gamma: float) -> None:
        """Fold one on-policy transition into the posterior."""
        u_cur = self._phi(np.asarray(b, dtype=float), a)
        if terminal or next_a is None:
            u = u_cur
        else:
            u_next = self._phi(np.asarray(next_b, dtype=float), next_a)
            if len(u_cur) < len(self):
                u_cur = np.pad(u_cur, (0, len(self) - len(u_cur)))
            u = u_cur - gamma * u_next
        self._measure(u, reward)

    # -- queries -------------------------------------------------------------

    def coefficients(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = self.Kinv @ self.mu
        return self._coeffs

    def q_mean(self, b, a: int) -> float:
        """Posterior mean at (b, a); zero before any observation."""
        if len(self) == 0:
            return 0.0
        return float(self.k_vec(np.asarray(b, dtype=float), a)
                     @ self.coefficients())

    def q_values(self, b) -> np.ndarray:
        if len(self) == 0:
            return np.zeros(self.n_actions)
        b = np.asarray(b, dtype=float)
        base = self._base_similarity(b) * self.coefficients()
        out = np.zeros(self.n_actions)
        for a in range(self.n_actions):
            out[a] = base[self.points_a == a].sum()
        return out

    def state(self) -> checkpoint.State:
        return checkpoint.State(
            {name: getattr(self, name)
             for name in ("points_b", "points_a", "Kinv", "mu", "Sigma")},
            spec={**vars(self.spec), "nu": self.nu,
                  "n_actions": self.n_actions},
            counters={"updates": self.updates, "alarmed": self.alarmed},
            shapes={"points_b": ("n", "width"), "points_a": ("n",),
                    "Kinv": ("n", "n"), "mu": ("n",), "Sigma": ("n", "n")})


def select_action_esoftmax(gp: SparseGP, b, epsilon: float,
                           rng: np.random.Generator) -> int:
    """Uniform with probability epsilon, else sample the logistic
    distribution exp(Q) / sum exp(Q)."""
    if rng.random() < epsilon:
        return int(rng.integers(gp.n_actions))
    probs = softmax(gp.q_values(b))
    return int(rng.choice(gp.n_actions, p=probs))


class GPSarsaAgent:
    """Training-loop adapter: buffers the pending transition so the update
    can wait for the on-policy next action."""

    def __init__(self, n_features: int, n_actions: int, spec: KernelSpec,
                 nu: float = 0.1, gamma: float = 0.99,
                 max_dictionary: int = 2000):
        self.gp = SparseGP(spec, n_actions, nu=nu,
                           max_dictionary=max_dictionary)
        self.gamma = gamma
        self._pending = None

    def begin_episode(self) -> None:
        self._pending = None

    def select_action(self, features, epsilon, rng) -> int:
        action = select_action_esoftmax(self.gp, features, epsilon, rng)
        if self._pending is not None:
            b, a, r, b2 = self._pending
            self.gp.sarsa_update(b, a, r, b2, action, False, self.gamma)
            self._pending = None
        return action

    def eval_action(self, features) -> int:
        return int(np.argmax(self.gp.q_values(features)))

    def observe(self, t, rng) -> None:
        if t.terminal:
            self.gp.sarsa_update(t.features, t.action, t.reward,
                                 t.next_features, None, True, self.gamma)
            self._pending = None
        else:
            self._pending = (t.features, t.action, t.reward, t.next_features)

    def state(self) -> checkpoint.State:
        state = self.gp.state()
        state.spec["gamma"] = self.gamma
        return state

    def save(self, path: str, **run) -> None:
        checkpoint.save(path, "gpsarsa", self.state(), **run)

    def load(self, path: str, *run: str) -> dict:
        loaded = checkpoint.load(path, "gpsarsa", self.state(), *run)
        for name, value in {**loaded.arrays, **loaded.counters}.items():
            if name not in run:
                setattr(self.gp, name, value)
        self.gp._coeffs = None
        return loaded.counters
