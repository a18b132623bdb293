"""Operator definitions: diffusion block, linear drift and the bounded
nonlinear drift family.

An operator is the triple (Q0, A, F) acting as

    L u = 1/2 Tr(Q D^2 u) + <A x + F(x), D u>,

where Q embeds the positive definite block Q0 in the first ``p_tilde``
coordinates and F pushes only into those coordinates.  The nonlinear drift
is restricted to sums of tanh ridge functions, which keeps all derivatives
up to third order bounded by construction and available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = ["DriftTerm", "DriftField", "OperatorSpec", "matrix_exp"]

_SYM_TOL = 1e-12


def matrix_exp(M, t=1.0):
    """Matrix exponential e^{t M} (scaling-and-squaring with a Pade core)."""
    M = np.asarray(M, dtype=float)
    if t == 0.0:
        return np.eye(M.shape[0])
    return scipy.linalg.expm(t * M)


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
    """Sum of tanh ridge terms with closed-form derivatives up to order 3.

    The empty term list represents F == 0.
    """

    def __init__(self, terms=()):
        self.terms = tuple(terms)

    @property
    def is_zero(self):
        return not self.terms

    def max_target(self):
        return max((t.i for t in self.terms), default=0)

    @property
    def grad_bound(self):
        """Upper bound for sup_x ||DF(x)|| (spectral norm)."""
        return sum(abs(t.c) * float(np.linalg.norm(t.a)) for t in self.terms)

    def _ridge(self, x):
        # returns per-term tanh argument values, shape (..., n_terms)
        x = np.asarray(x, dtype=float)
        return [x @ t.a + t.b for t in self.terms]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for t, z in zip(self.terms, self._ridge(x)):
            out[..., t.i - 1] += t.c * np.tanh(z)
        return out

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        out = np.zeros(x.shape[:-1] + (n, n))
        for t, z in zip(self.terms, self._ridge(x)):
            s = 1.0 - np.tanh(z) ** 2
            out[..., t.i - 1, :] += (t.c * s)[..., None] * t.a
        return out

    def d2_apply(self, x, u, v):
        """D^2 F(x)[u][v], vectorized over leading axes."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.broadcast(x, u, v).shape)
        for t, z in zip(self.terms, self._ridge(x)):
            th = np.tanh(z)
            d2 = -2.0 * th * (1.0 - th**2)
            out[..., t.i - 1] += t.c * d2 * (u @ t.a) * (v @ t.a)
        return out

    def d3_apply(self, x, u, v, w):
        """D^3 F(x)[u][v][w], vectorized over leading axes."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.broadcast(x, u, v, w).shape)
        for t, z in zip(self.terms, self._ridge(x)):
            th = np.tanh(z)
            d3 = -2.0 * (1.0 - th**2) * (1.0 - 3.0 * th**2)
            out[..., t.i - 1] += t.c * d3 * (u @ t.a) * (v @ t.a) * (w @ t.a)
        return out

    def __call__(self, x):
        return self.value(x)


def _sym_eig_psd(M, name):
    vals, vecs = np.linalg.eigh(M)
    if vals[0] <= 0.0:
        raise ValueError(f"{name} must be positive definite (min eig {vals[0]:g})")
    return vals, vecs


@dataclass(frozen=True)
class OperatorSpec:
    """The triple (Q0, A, F) with dimensions (n, p_tilde).

    Immutable after construction; validation happens here so downstream
    code can assume a well-formed operator.
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
        _sym_eig_psd(Q0, "Q0")
        if self.F.max_target() > self.p_tilde:
            raise ValueError("drift components allowed only in coordinates 1..p_tilde")
        object.__setattr__(self, "Q0", _frozen(Q0))
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "_cache", {})

    # --- derived matrices -------------------------------------------------

    def _cached(self, key, builder):
        cache = self._cache
        if key not in cache:
            cache[key] = builder()
        return cache[key]

    @property
    def Q(self):
        """n x n diffusion matrix with Q0 embedded in the top-left block."""

        def build():
            Q = np.zeros((self.n, self.n))
            Q[: self.p_tilde, : self.p_tilde] = self.Q0
            return _frozen(Q)

        return self._cached("Q", build)

    @property
    def Q_sqrt(self):
        def build():
            vals, vecs = np.linalg.eigh(self.Q0)
            root = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
            S = np.zeros((self.n, self.n))
            S[: self.p_tilde, : self.p_tilde] = root
            return _frozen(S)

        return self._cached("Q_sqrt", build)

    @property
    def Q0_inv_sqrt(self):
        def build():
            vals, vecs = np.linalg.eigh(self.Q0)
            return _frozen(vecs @ np.diag(vals**-0.5) @ vecs.T)

        return self._cached("Q0_inv_sqrt", build)

    def drift(self, x):
        """Full drift A x + F(x), vectorized over leading axes."""
        x = np.asarray(x, dtype=float)
        out = x @ self.A.T
        if not self.F.is_zero:
            out = out + self.F.value(x)
        return out

    def girsanov_field(self, x):
        """G(x) = Q^{-1/2} F(x): the drift expressed in noise units."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        if not self.F.is_zero:
            fx = self.F.value(x)[..., : self.p_tilde]
            out[..., : self.p_tilde] = fx @ self.Q0_inv_sqrt.T
        return out

    def decomposition(self, tol=1e-10):
        """Cached Kalman decomposition of this operator."""
        from .kalman import decompose

        key = ("dec", tol)
        return self._cached(key, lambda: decompose(self, tol=tol))
