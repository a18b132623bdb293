"""Covariance of the driven linear flow and whitened direction norms.

The Gramian used everywhere is the stochastic-convolution covariance

    Q_t = int_0^t e^{sA} Q e^{sA*} ds,

which matches the law of the zero-start linear diffusion (the transposed
orientation that sometimes appears in display form is singular on the
worked 2-D example, so this orientation is used throughout).

One Van Loan block exponential per time gives the whole linear law
N(e^{tA} x, Q_t).  ``gramian`` takes it of the scaled pair
A_hat = t D_t^{-1} B'AB D_t and Q_hat = t D_t^{-1} B'QB D_t^{-1}, where B is
the Kalman reference basis and D_t carries the per-block exponents
t^{(2h+1)/2}; both are O(1) as t -> 0 because B'AB is block-Hessenberg in
the Kalman grading.  Its blocks give the time-1 law (e^{A_hat}, G_hat), and
two maps the law at t: Q_t = B D_t G_hat D_t B' and
e^{tA} = B D_t e^{A_hat} D_t^{-1} B'.  The scaled factorization G_hat stays
well conditioned as t -> 0, which is what makes whitened norms, sampling
factors and the small entries of Q_t accurate deep into the small-time
regime where the raw matrix has eigenvalues far below machine precision
relative to its trace.  ``_law`` forms the same pair from the unscaled A
and Q, with no basis maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KolmotkError, SingularGramian
from .kalman import KalmanDecomposition
from .operators import OperatorSpec, matrix_exp

__all__ = [
    "Gramian",
    "gramian",
    "gramian_quadrature",
    "TMIN",
]

# below this time the toolkit refuses whitened norms rather than clamp
TMIN = 1e-4

_EPS = np.finfo(float).eps


def _van_loan(A, Q, t: float):
    """(e^{tA}, int_0^t e^{sA} Q e^{sA'} ds) from one block exponential at
    t / 2^m and m doublings Q_{2s} = Q_s + e^{sA} Q_s e^{sA'}, e^{2sA} =
    (e^{sA})^2.  The doublings add positive terms where the blocks of e^{tH}
    alone would cancel once A has eigenvalues on both sides of the imaginary
    axis and t ||A|| is large."""
    n = A.shape[0]
    m = int(np.ceil(np.log2(max(t * np.linalg.norm(A, 1), 1.0))))
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = A
    H[:n, n:] = Q
    H[n:, n:] = -A.T
    E = matrix_exp(H, t / 2**m)
    eA = E[:n, :n]
    Qt = E[:n, n:] @ eA.T
    for _ in range(m):
        Qt = Qt + eA @ Qt @ eA.T
        eA = eA @ eA
    return eA, 0.5 * (Qt + Qt.T)


def gramian_quadrature(spec: OperatorSpec, t: float) -> np.ndarray:
    """Independent oracle: Gauss-Legendre on the raw integrand, doubling the
    nodes until two rules agree to 1e-12 relative to the largest entry."""
    if t <= 0.0:
        raise ValueError("t must be positive")

    def integral(m):
        x, wx = np.polynomial.legendre.leggauss(m)
        acc = np.zeros((spec.n, spec.n))
        for s, w in zip(0.5 * t * (x + 1.0), 0.5 * t * wx):
            Es = matrix_exp(spec.A, s)
            acc += w * (Es @ spec.Q @ Es.T)
        return acc

    m = 16
    prev = integral(m)
    for _ in range(10):
        m *= 2
        cur = integral(m)
        if np.abs(cur - prev).max() <= 1e-12 * max(np.abs(cur).max(), 1e-300):
            return 0.5 * (cur + cur.T)
        prev = cur
    return 0.5 * (prev + prev.T)


def _scaled_law(spec: OperatorSpec, dec: KalmanDecomposition, t: float):
    """(e^{tA}, Q_t, G_hat) from the time-1 law of (A_hat, Q_hat) for the
    per-coordinate exponents (2h+1)/2 of the grading."""
    d = t ** (dec.grade + 0.5)
    B = dec.basis
    A_hat = t * (B.T @ spec.A @ B) * (d[None, :] / d[:, None])
    Q_hat = t * (B.T @ spec.Q @ B) / np.outer(d, d)
    eA_hat, G_hat = _van_loan(A_hat, Q_hat, 1.0)
    Qt = (B * d) @ G_hat @ (B * d).T
    return (B * d) @ eA_hat @ (B / d).T, 0.5 * (Qt + Qt.T), G_hat


def _representable(t: float, build, *args) -> tuple:
    """The arrays ``build(*args)``, or a KolmotkError if float64 cannot hold them."""
    with np.errstate(all="ignore"):
        try:
            out = build(*args)
        # an exponential float64 cannot hold, or a doubling count from inf or NaN
        except (OverflowError, ValueError, KolmotkError):
            out = (np.array(np.nan),)
    if not all(np.isfinite(M).all() for M in out):
        raise KolmotkError(f"Q_t is not representable in float64 at t={t:g}")
    return out


def _law(spec: OperatorSpec, t: float) -> tuple:
    """(e^{tA}, Q_t) assembled n x n, from one Van Loan exponential."""
    return _representable(t, _van_loan, spec.A, spec.Q, t)


@dataclass(frozen=True)
class Gramian:
    """The law at t: Q_t assembled and as its scaled factorization, and e^{tA}."""

    t: float
    matrix: np.ndarray
    exp: np.ndarray  # e^{tA}
    dec: KalmanDecomposition
    scaled: np.ndarray  # G_hat in the reference basis
    scaled_eig: tuple  # (raw eigenvalues, eigenvectors) of G_hat

    @property
    def min_eig_pre_clamp(self):
        return float(self.scaled_eig[0][0])

    def whitened_norm(self, v) -> float:
        """|Q_t^{-1/2} v| via the scaled factorization; refused below TMIN
        and when the least eigenvalue of G_hat is below eps trace(G_hat)
        (at least 1e-14)."""
        vals, vecs = self.scaled_eig
        if self.t < TMIN:
            raise SingularGramian(f"t={self.t:g} below the minimum scale {TMIN:g}")
        floor = max(_EPS * float(np.trace(self.scaled)), 1e-14)
        if vals[0] < floor:
            raise SingularGramian(f"scaled Gramian eigenvalue {vals[0]:.3e} below floor "
                                  f"{floor:.3e} at t={self.t:g}")
        w = (self.dec.basis.T @ np.asarray(v, dtype=float)) * self.t ** -(self.dec.grade + 0.5)
        return float(np.linalg.norm((vecs.T @ w) / np.sqrt(vals)))

    def sqrt_factor(self) -> np.ndarray:
        """S with S S' = Q_t, accurate blockwise down to small t."""
        vals, vecs = self.scaled_eig
        vals = np.maximum(vals, 0.0)
        S_ref = (self.t ** (self.dec.grade + 0.5))[:, None] * (vecs * np.sqrt(vals))
        return self.dec.basis @ S_ref

    def block_sqrt_norm(self, h: int) -> float:
        """Operator norm of E_h Q_t^{1/2}."""
        rows = self.dec.basis.T @ self.sqrt_factor()
        return float(np.linalg.svd(rows[self.dec.grade == h], compute_uv=False)[0])


def gramian(spec: OperatorSpec, t: float, dec: KalmanDecomposition | None = None) -> Gramian:
    """Q_t, its scaled factorization and e^{tA}, from one block exponential."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if dec is None:
        dec = spec.decomposition()
    eA, matrix, scaled = _representable(t, _scaled_law, spec, dec, t)
    return Gramian(
        t=float(t),
        matrix=matrix,
        exp=eA,
        dec=dec,
        scaled=scaled,
        scaled_eig=tuple(np.linalg.eigh(scaled)),
    )


def _block_norm(dec: KalmanDecomposition, E, h: int, h_from: int) -> np.ndarray:
    """Operator norms of E_h E E_{h_from} for a stack E (..., n, n) of matrices."""
    # a column mask gives F order; C order keeps the product's rounding
    Bh, Bf = (np.ascontiguousarray(dec.basis[:, dec.grade == g]) for g in (h, h_from))
    return np.linalg.svd(Bh.T @ E @ Bf, compute_uv=False)[..., 0]
