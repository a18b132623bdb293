"""Covariance of the driven linear flow and whitened direction norms.

The Gramian used everywhere is the stochastic-convolution covariance

    Q_t = int_0^t e^{sA} Q e^{sA*} ds,

which matches the law of the zero-start linear diffusion (the transposed
orientation that sometimes appears in display form is singular on the
worked 2-D example, so this orientation is used throughout).

Two representations coexist, each from one Van Loan block exponential:

* the assembled n x n matrix;
* a scaled factorization G_hat = D_t^{-1} B' Q_t B D_t^{-1}, where B is the
  Kalman reference basis and D_t carries the per-block exponents
  t^{(2h+1)/2}.  G_hat is the time-1 Gramian of A_hat = t D_t^{-1} B'AB D_t
  and Q_hat = t D_t^{-1} B'QB D_t^{-1}, both O(1) as t -> 0 because B'AB is
  block-Hessenberg in the Kalman grading.  G_hat stays well conditioned as
  t -> 0, which is what makes whitened norms and sampling factors accurate
  deep into the small-time regime where the raw matrix has eigenvalues far
  below machine precision relative to its trace.
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
    "whitened_direction_norm",
    "block_exp_norm",
    "TMIN",
]

# below this time the toolkit refuses whitened norms rather than clamp
TMIN = 1e-4

_EPS = np.finfo(float).eps


def _van_loan(A, Q, t: float) -> np.ndarray:
    """int_0^t e^{sA} Q e^{sA'} ds from one block exponential at t / 2^m and
    m doublings Q_{2s} = Q_s + e^{sA} Q_s e^{sA'}.  The doublings add
    positive terms where the blocks of e^{tH} alone would cancel once A has
    eigenvalues on both sides of the imaginary axis and t ||A|| is large."""
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
    return 0.5 * (Qt + Qt.T)


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


def _scaled_gramian(spec: OperatorSpec, dec: KalmanDecomposition, t: float, exps):
    """G_hat for the per-coordinate exponents ``exps``, (2h+1)/2."""
    d = t**exps
    B = dec.basis
    A_hat = t * (B.T @ spec.A @ B) * (d[None, :] / d[:, None])
    Q_hat = t * (B.T @ spec.Q @ B) / np.outer(d, d)
    return _van_loan(A_hat, Q_hat, 1.0)


def _representable(t: float, build, *args) -> np.ndarray:
    """The Q_t ``build(*args)``, or a KolmotkError if float64 cannot hold it."""
    with np.errstate(all="ignore"):
        try:
            M = build(*args)
        # an exponential float64 cannot hold, or a doubling count from inf or NaN
        except (OverflowError, ValueError, KolmotkError):
            M = np.array(np.nan)
    if not np.isfinite(M).all():
        raise KolmotkError(f"Q_t is not representable in float64 at t={t:g}")
    return M


def _covariance(spec: OperatorSpec, t: float) -> np.ndarray:
    """The assembled n x n Q_t, from one Van Loan exponential."""
    return _representable(t, _van_loan, spec.A, spec.Q, t)


@dataclass(frozen=True)
class Gramian:
    """Q_t with both the assembled matrix and the scaled factorization."""

    t: float
    matrix: np.ndarray
    dec: KalmanDecomposition
    scaled: np.ndarray  # G_hat in the reference basis
    scaled_eig: tuple  # (raw eigenvalues, eigenvectors) of G_hat
    exponents: np.ndarray  # per reference coordinate, (2h+1)/2

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
        w = (self.dec.basis.T @ np.asarray(v, dtype=float)) * self.t ** (-self.exponents)
        return float(np.linalg.norm((vecs.T @ w) / np.sqrt(vals)))

    def sqrt_factor(self) -> np.ndarray:
        """S with S S' = Q_t, accurate blockwise down to small t."""
        vals, vecs = self.scaled_eig
        vals = np.maximum(vals, 0.0)
        S_ref = (self.t**self.exponents)[:, None] * (vecs * np.sqrt(vals))
        return self.dec.basis @ S_ref

    def block_sqrt_norm(self, h: int) -> float:
        """Operator norm of E_h Q_t^{1/2}."""
        S = self.sqrt_factor()
        idx = [i - 1 for i in self.dec.blocks[h].index_set]
        rows = self.dec.basis.T @ S
        return float(np.linalg.svd(rows[idx, :], compute_uv=False)[0])


def gramian(spec: OperatorSpec, t: float, dec: KalmanDecomposition | None = None) -> Gramian:
    """Q_t and its scaled factorization, one block exponential each."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if dec is None:
        dec = spec.decomposition()
    exps = np.repeat(np.arange(dec.k + 1) + 0.5, dec.block_dims)
    scaled = _representable(t, _scaled_gramian, spec, dec, t, exps)
    return Gramian(
        t=float(t),
        matrix=_covariance(spec, t),
        dec=dec,
        scaled=scaled,
        scaled_eig=tuple(np.linalg.eigh(scaled)),
        exponents=exps,
    )


def whitened_direction_norm(
    spec: OperatorSpec,
    dec: KalmanDecomposition,
    t: float,
    i: int,
    gram: Gramian | None = None,
) -> float:
    """|Q_t^{-1/2} e^{tA} e_i| for the 1-based coordinate i."""
    if gram is None:
        gram = gramian(spec, t, dec)
    v = matrix_exp(spec.A, t)[:, i - 1]
    return gram.whitened_norm(v)


def _block_norm(dec: KalmanDecomposition, E, h: int, h_from: int) -> float:
    """Operator norm of E_h E E_{h_from} for an n x n matrix E."""
    M = dec.blocks[h].basis.T @ E @ dec.blocks[h_from].basis
    return float(np.linalg.svd(M, compute_uv=False)[0])


def block_exp_norm(spec: OperatorSpec, dec: KalmanDecomposition, s: float, h: int, h_from: int) -> float:
    """Operator norm of E_h e^{sA} E_{h_from}."""
    return _block_norm(dec, matrix_exp(spec.A, s), h, h_from)
