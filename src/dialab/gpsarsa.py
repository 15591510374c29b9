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
The first point is admitted like any other: on an empty dictionary the
residual is the prior variance, and bordering gives the 1 x 1 closed form.

No piece of that work is done twice while the dictionary stays the same.
A transition's next point is the following transition's current point, so
the last projection is kept and reused, and the kernel row that
``q_values`` computes for a point is reused when that point is projected.
Both are dropped, with the per-action index arrays, whenever a point is
admitted or a checkpoint is loaded; the dictionary changes in no other way.

A measurement updates ``mu`` at once but defers its rank-one covariance
term ``s s^T / (u^T s + noise)``: the term is kept as one row of a pending
factor ``w`` (``s`` scaled by the root of its denominator), and ``s`` is
read through it as ``Sigma @ u - w^T (w @ u)``, so every measurement sees
the exact posterior. The pending rows are folded into ``Sigma`` with one
``Sigma -= w^T w`` when ``FOLD`` of them have gathered, before an admit
borders ``Sigma``, and in ``state()``, which every checkpoint and every
reader of the saved state goes through. numpy forms ``w^T w`` as a
symmetric rank-k product, so ``Sigma`` stays exactly symmetric. A saved
checkpoint holds no pending rows and loading one drops any, so a resumed
run folds at the same measurements as the run that saved it and matches
it bit for bit.

Two shortcuts follow from the kernel's form. Between two vectors whose
features are all exactly 0 or 1, as on the summary space, |b1 - b2|^2 is
the number of bits in which they differ. While every dictionary point is
such a vector of at most 64 features, the GP keeps each as a ``uint64``
bit mask, and the kernel row of a 0/1 query is a lookup, by
``bitwise_count`` of the XOR, in a table of ``signal_var * exp(-d2 /
(2 l^2))`` over d2 = 0..n_features. That table is built with the float
path's expression on the same exact integers, so every row is
byte-identical to the float row, and which path runs never changes a
result; any other query, or a dictionary holding any other point, takes
the float path. The masks are derived from ``points_b``, so checkpoints do
not change.

The delta kernel over actions makes ``Kinv`` block-diagonal by action: a
projection's coefficients and ``Kinv @ mu`` are computed with one
contiguous block per action, and a query point's coefficients are zero
outside its action's block. ``Kinv`` itself stays the full matrix, which
bordering grows and checkpoints save.

``GPSarsaAgent`` adapts the GP to the training loop. Choosing an action
only reads the posterior; a transition is folded in when the next one is
observed, which names its on-policy next action.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .nets import softmax
from .ranges import bounded, check_ranges

log = logging.getLogger(__name__)

FOLD = 32   # pending rank-one covariance terms folded into Sigma at once


@dataclass(frozen=True)
class GPConfig:
    """The ``gp`` config section: the kernel, the admission threshold nu and
    the dictionary cap."""

    length_scale: float = bounded("(0, inf)", 3.0)
    signal_var: float = bounded("(0, inf)", 1.0)
    noise_var: float = bounded("(0, inf)", 0.1)
    nu: float = bounded("[0, inf)", 0.1)
    max_dictionary: int = bounded("[1, inf)", 2000)

    __post_init__ = check_ranges


class SparseGP:
    """Dictionary of (summary features, action) points plus the posterior
    mean and covariance of their Q values."""

    def __init__(self, config: GPConfig, n_features: int, n_actions: int,
                 jitter: float = 1e-10):
        self.config = config
        # bit weights that pack 0/1 features into one uint64, and the kernel
        # at each squared distance 0..n_features by the float path's
        # expression
        self._weights = None
        if n_features <= 64:
            self._weights = np.uint64(1) << np.arange(n_features,
                                                      dtype=np.uint64)
        d2 = np.arange(n_features + 1, dtype=float)
        self._table = config.signal_var * np.exp(
            -d2 / (2.0 * config.length_scale ** 2))
        self.n_actions = n_actions
        self.jitter = jitter
        self.points_b = np.zeros((0, n_features))
        self.points_a = np.zeros(0, dtype=np.int64)
        self.Kinv = np.zeros((0, 0))
        self.mu = np.zeros(0)
        self.Sigma = np.zeros((0, 0))
        self.alarmed = False
        self.updates = 0
        self.forget()

    def forget(self) -> None:
        """Drop everything derived from the dictionary; it changes only when
        a point is admitted or a checkpoint is loaded, and both fold the
        pending covariance terms first."""
        self._coeffs: np.ndarray | None = None
        # (size, features) -> kernel row of the last q_values query
        self._row: tuple | None = None
        # (size, action, features) -> projection of the last _phi miss
        self._proj: tuple | None = None
        self._action_index = [np.flatnonzero(self.points_a == a)
                              for a in range(self.n_actions)]
        # Kinv is block-diagonal by action; one contiguous block each
        self._blocks = [self.Kinv[np.ix_(index, index)]
                        for index in self._action_index]
        # every dictionary point as a bit mask, while all of them are 0/1
        self._bits = self._pack(self.points_b)
        # covariance terms not yet subtracted from Sigma, one row each
        self._w = np.empty((FOLD, len(self)))
        self._n_pending = 0

    # -- kernel vectors ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points_a)

    @property
    def max_dictionary(self) -> int:
        return self.config.max_dictionary

    def _pack(self, b: np.ndarray) -> np.ndarray | None:
        """``b``'s 0/1 feature vectors as ``uint64`` bit masks; None when an
        entry is not exactly 0.0 or 1.0, or there are over 64 features."""
        if self._weights is None:
            return None
        ones = b == 1.0
        if np.count_nonzero(ones != b):
            return None
        return ones @ self._weights

    def _similarity(self, b: np.ndarray) -> np.ndarray:
        """The kernel row of ``b`` over the dictionary, action aside."""
        if self._bits is not None:
            mask = self._pack(b)
            if mask is not None:
                return self._table[np.bitwise_count(self._bits ^ mask)]
        return self._base_similarity(b)

    def _base_similarity(self, b: np.ndarray) -> np.ndarray:
        d2 = np.sum((self.points_b - b) ** 2, axis=1)
        c = self.config
        return c.signal_var * np.exp(-d2 / (2.0 * c.length_scale ** 2))

    def _row_of(self, b: np.ndarray) -> np.ndarray:
        """``_similarity(b)``, kept from the last ``q_values`` query when
        that was of ``b`` on this dictionary."""
        if self._row is not None and self._row[0] == (len(self), b.tobytes()):
            return self._row[1]
        return self._similarity(b)

    # -- sparsification -----------------------------------------------------

    def admit_test(self, b: np.ndarray, a: int):
        """Projection residual of (b, a) on the dictionary.

        Returns (admit, residual, coefficients); an empty dictionary always
        admits.
        """
        index = self._action_index[a]
        kv = self._row_of(b)[index]
        block = self._blocks[a] @ kv
        residual = float(self.config.signal_var - kv @ block)
        coeffs = np.zeros(len(self))
        coeffs[index] = block
        return residual > self.config.nu or len(self) == 0, residual, coeffs

    def _admit(self, b: np.ndarray, a: int, coeffs: np.ndarray,
               residual: float) -> bool:
        """Add (b, a) to the dictionary; False, with a warning the first
        time, when the dictionary is full."""
        if len(self) >= self.max_dictionary:
            if not self.alarmed:
                self.alarmed = True
                log.warning("GP dictionary reached its cap of %d points; "
                            "further points are projected, not admitted",
                            self.max_dictionary)
            return False
        self._fold()
        delta = residual + self.jitter
        self.points_b = np.vstack([self.points_b, np.asarray(b, dtype=float)])
        self.points_a = np.append(self.points_a, a)
        # Kinv + outer(c, c) / delta written straight into the top-left
        # block of the grown inverse, with no n x n temporary
        n = len(coeffs)
        kinv = np.empty((n + 1, n + 1))
        top = kinv[:n, :n]
        np.multiply.outer(coeffs, coeffs, out=top)
        top /= delta
        top += self.Kinv
        kinv[:n, n] = kinv[n, :n] = -coeffs / delta
        kinv[n, n] = 1.0 / delta
        self.Kinv = kinv
        # prior conditional of the new point given the dictionary
        sig_col = self.Sigma @ coeffs
        self.Sigma = _border(self.Sigma, sig_col,
                             float(coeffs @ sig_col) + delta)
        self.mu = np.append(self.mu, float(coeffs @ self.mu))
        self.forget()
        return True

    def _phi(self, b: np.ndarray, a: int) -> np.ndarray:
        """Projection of a point onto the dictionary, admitting it first when
        its residual exceeds nu.

        A transition's next point is the following transition's current
        point, so the last projection is kept until the dictionary changes;
        an admitted point's unit vector is not kept, because the same point
        projected on the grown dictionary is ``admit_test``'s coefficients,
        not exactly e."""
        key = (len(self), a, b.tobytes())
        if self._proj is not None and self._proj[0] == key:
            return self._proj[1]
        admit, residual, coeffs = self.admit_test(b, a)
        if admit and self._admit(b, a, coeffs, residual):
            e = np.zeros(len(self))
            e[-1] = 1.0
            return e
        self._proj = (key, coeffs)
        return coeffs

    # -- Bayesian update ----------------------------------------------------

    def _measure(self, u: np.ndarray, y: float) -> None:
        s_vec = self.Sigma @ u
        if self._n_pending:
            w = self._w[:self._n_pending]
            s_vec -= w.T @ (w @ u)
        s = float(u @ s_vec) + self.config.noise_var
        gain = s_vec / s
        self.mu += gain * (y - float(u @ self.mu))
        self._w[self._n_pending] = s_vec / np.sqrt(s)
        self._n_pending += 1
        self.updates += 1
        if self._n_pending == FOLD:
            self._fold()
        self._coeffs = None

    def _fold(self) -> None:
        """Subtract the pending covariance terms from Sigma in one
        symmetric product."""
        if self._n_pending:
            w = self._w[:self._n_pending]
            self.Sigma -= w.T @ w
            self._n_pending = 0

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
        """``Kinv @ mu``, one action block at a time."""
        if self._coeffs is None:
            self._coeffs = np.empty(len(self))
            for index, block in zip(self._action_index, self._blocks):
                self._coeffs[index] = block @ self.mu[index]
        return self._coeffs

    def q_values(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        row = self._similarity(b)
        self._row = ((len(self), b.tobytes()), row)
        base = row * self.coefficients()
        out = np.zeros(self.n_actions)
        for a, index in enumerate(self._action_index):
            out[a] = base[index].sum()
        return out

    def state(self) -> checkpoint.State:
        self._fold()
        spec = {**vars(self.config), "n_actions": self.n_actions}
        # the cap limits growth, not the posterior a checkpoint holds
        del spec["max_dictionary"]
        return checkpoint.State(
            {name: getattr(self, name)
             for name in ("points_b", "points_a", "Kinv", "mu", "Sigma")},
            spec=spec,
            counters={"updates": self.updates, "alarmed": self.alarmed},
            shapes={"points_b": ("n", "width"), "points_a": ("n",),
                    "Kinv": ("n", "n"), "mu": ("n",), "Sigma": ("n", "n")})


def _border(m: np.ndarray, edge: np.ndarray, corner: float) -> np.ndarray:
    """The symmetric n x n ``m`` grown to (n+1) x (n+1): ``edge`` as its new
    last row and column, ``corner`` at their crossing."""
    n = len(m)
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = m
    out[:n, n] = edge
    out[n, :n] = edge
    out[n, n] = corner
    return out


class GPSarsaAgent:
    """Training-loop adapter: acts by sampling softmax(Q) (the training
    loop adds the epsilon draw) and holds each non-terminal transition back
    until the next one shows its on-policy next action."""

    def __init__(self, n_features: int, n_actions: int, config: GPConfig,
                 gamma: float):
        self.gp = SparseGP(config, n_features, n_actions)
        self.gamma = gamma
        self._pending = None

    def act(self, features, rng: np.random.Generator) -> int:
        """An action drawn from the logistic distribution
        exp(Q) / sum exp(Q)."""
        probs = softmax(self.gp.q_values(features))
        return int(rng.choice(self.gp.n_actions, p=probs))

    def eval_action(self, features) -> int:
        return int(np.argmax(self.gp.q_values(features)))

    def observe(self, t, rng, epsilon: float) -> None:
        """Fold in the held transition, with ``t.action`` as its next
        action; then hold ``t``, or fold it in at once if it is terminal.
        ``epsilon`` is the actor-critic's."""
        held, self._pending = self._pending, None
        if held is not None:
            self.gp.sarsa_update(held.features, held.action, held.reward,
                                 held.next_features, t.action, False,
                                 self.gamma)
        if t.terminal:
            self.gp.sarsa_update(t.features, t.action, t.reward,
                                 t.next_features, None, True, self.gamma)
        else:
            self._pending = t

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
        self.gp.forget()
        self._pending = None
        return loaded.counters
