"""Operator definitions: diffusion block, linear drift and the bounded
nonlinear drift family.

An operator is the triple (Q0, A, F) acting as

    L u = 1/2 Tr(Q D^2 u) + <A x + F(x), D u>,

where Q embeds the positive definite block Q0 in the first ``p_tilde``
coordinates and F pushes only into those coordinates.  The nonlinear drift
is restricted to sums of tanh ridge functions, which keeps all derivatives
bounded by construction.  ``DriftField`` stacks its terms into three arrays
once, so F and the tangent rows DF v are each one matrix product over any
batch of points; ``DriftField.tangent`` is the one place that forms DF.
``OperatorSpec`` builds Q, its root and the Girsanov projection through
Q0^{-1/2} at construction, from the one eigendecomposition that validates
Q0; only the Kalman decomposition, which can fail, is built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import KolmotkError

__all__ = ["DriftTerm", "DriftField", "OperatorSpec", "matrix_exp"]

_SYM_TOL = 1e-12


def matrix_exp(M, t):
    """Matrix exponential e^{t M} (scaling-and-squaring with a Pade core).
    One that float64 cannot hold is a numeric failure: scipy can return
    NaN for it without an overflow warning."""
    E = scipy.linalg.expm(t * np.asarray(M, dtype=float))
    if not np.isfinite(E).all():
        raise KolmotkError(f"e^(tM) is not representable in float64 at t={t:g}")
    return E


def _frozen(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DriftTerm:
    """One ridge component c * tanh(<a, x> + b) feeding coordinate ``i``.

    ``i`` is 1-based and must not exceed the degenerate rank of the
    operator that owns the term.
    """

    i: int
    c: float
    a: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen(self.a))
        if self.i < 1:
            raise ValueError("drift target coordinate must be 1-based")


class DriftField:
    """Sum of tanh ridge terms, F(x) = tanh(x a + b) c with the terms
    stacked once: a (n, T) holds the ridge directions as columns, b (T,)
    the offsets and c (T, n) each amplitude in its target coordinate.

    The empty term list represents F == 0.
    """

    def __init__(self, terms=()):
        self.terms = tuple(terms)
        n = len(self.terms[0].a) if self.terms else 0
        if self.max_target() > n:
            raise ValueError("drift target coordinate exceeds the dimension")
        self._a = _frozen(np.stack([t.a for t in self.terms], axis=1) if self.terms
                          else np.zeros((0, 0)))
        self._b = _frozen([t.b for t in self.terms])
        c = np.zeros((len(self.terms), n))
        c[np.arange(len(self.terms)), [t.i - 1 for t in self.terms]] = [t.c for t in self.terms]
        self._c = _frozen(c)

    @property
    def is_zero(self):
        return not self.terms

    def max_target(self):
        return max((t.i for t in self.terms), default=0)

    @property
    def grad_bound(self):
        """Upper bound for sup_x ||DF(x)|| (spectral norm)."""
        return sum(abs(t.c) * float(np.linalg.norm(t.a)) for t in self.terms)

    def value(self, x, proj=None):
        """F(x), vectorized over leading axes.  With a matrix ``proj`` (n, k),
        F(x) proj, folded into the amplitudes so that only k columns are formed."""
        x = np.asarray(x, dtype=float)
        if self.is_zero:
            return np.zeros_like(x) if proj is None else np.zeros(x.shape[:-1] + proj.shape[1:])
        return np.tanh(x @ self._a + self._b) @ (self._c if proj is None else self._c @ proj)

    def tangent(self, x, V):
        """F(x) at points x (N, n) and, for tangent rows V (N k, n) holding k
        consecutive rows per point, the rows DF(x) v (None for V None); both
        come from one tanh and DF v = c'(sech^2 * a'v), so no n x n Jacobian
        is formed."""
        th = np.tanh(x @ self._a + self._b)
        if V is None:
            return th @ self._c, None
        s = 1.0 - th * th
        aV = (V @ self._a).reshape(len(x), -1, len(self._b)) * s[:, None, :]
        return th @ self._c, aV.reshape(len(V), -1) @ self._c


@dataclass(frozen=True)
class OperatorSpec:
    """The triple (Q0, A, F) with dimensions (n, p_tilde).

    Immutable after construction; validation happens here so downstream
    code can assume a well-formed operator.  The eigendecomposition that
    validates Q0 also gives the read-only matrices ``Q`` (Q0 embedded in
    the top-left n x n block) and its root ``Q_sqrt``.
    """

    n: int
    p_tilde: int
    Q0: np.ndarray
    A: np.ndarray
    F: DriftField = field(default_factory=DriftField)

    def __post_init__(self):
        if not (1 <= self.p_tilde <= self.n):
            raise ValueError("need 1 <= p_tilde <= n")
        Q0 = np.array(self.Q0, dtype=float)
        A = np.array(self.A, dtype=float)
        if Q0.shape != (self.p_tilde, self.p_tilde):
            raise ValueError("Q0 must be p_tilde x p_tilde")
        if A.shape != (self.n, self.n):
            raise ValueError("A must be n x n")
        scale = max(1.0, float(np.abs(Q0).max()))
        if np.abs(Q0 - Q0.T).max() > _SYM_TOL * scale:
            raise ValueError("Q0 must be symmetric")
        Q0 = 0.5 * (Q0 + Q0.T)
        vals, vecs = np.linalg.eigh(Q0)
        if vals[0] <= 0.0:
            raise ValueError(f"Q0 must be positive definite (min eig {vals[0]:g})")
        if self.F.max_target() > self.p_tilde:
            raise ValueError("drift components allowed only in coordinates 1..p_tilde")
        p = self.p_tilde
        Q, S = np.zeros((self.n, self.n)), np.zeros((self.n, self.n))
        Q[:p, :p] = Q0
        S[:p, :p] = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
        inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.T
        for name, value in [("Q0", Q0), ("A", A), ("Q", Q), ("Q_sqrt", S),
                            ("_G_proj", np.eye(self.n, p) @ inv_sqrt.T)]:
            object.__setattr__(self, name, _frozen(value))
        object.__setattr__(self, "_dec", None)

    def girsanov_noise(self, x):
        """G(x) = Q^{-1/2} F(x), the drift in noise units, on the p_tilde coordinates F reaches."""
        return self.F.value(x, self._G_proj)

    def decomposition(self):
        """The Kalman decomposition of this operator, built on first use
        (building it raises NotHypoelliptic when the rank condition fails)."""
        if self._dec is None:
            from .kalman import decompose

            object.__setattr__(self, "_dec", decompose(self))
        return self._dec
