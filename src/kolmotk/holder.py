"""Anisotropic Hölder calculus via third (Zygmund) differences.

The true seminorm is a supremum over all base points and displacements;
here it is estimated from below by a seeded sampling protocol so that
ratios of seminorms are reproducible and comparable.  Per sample: a block
is drawn uniformly, a direction on the unit sphere of that block, a scale
log-uniform in [SCALE_MIN, 1], and a base point uniform in the box shrunk
to fit the four-point stencil.  Sample s reads a fixed run of words of one
indexed Philox stream per seed, so a budget's samples are drawn as arrays
and a larger budget only adds samples.  A field is a cosine mixture
sum_j c_j cos(<w_j, x>), with a constant as the w = 0 term, or an
arbitrary callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateBox, OutOfDomain
from .kalman import KalmanDecomposition
from .simulate import _box_muller, _indexed_uniforms

__all__ = [
    "ScalarField",
    "SeminormEstimate",
    "third_difference",
    "holder_seminorm",
    "holder_norm",
    "SCALE_MIN",
]

SCALE_MIN = 1e-3
DEFAULT_BOX_HALF_WIDTH = 5.0
_GAMMA_INT_TOL = 1e-9
# top counter word 2^62: apart from the exact normals (2^63) and the
# stepping streams (counter 0); counter word 2 numbers the candidate
_STENCIL_STREAM = 1 << 254
_CANDIDATES = 200


@dataclass(frozen=True)
class ScalarField:
    """A bounded scalar field with a vectorized evaluator and a box domain.

    ``eval`` maps arrays of shape (..., n) to shape (...).  ``grad`` is an
    optional gradient callable used by pathwise derivative estimators.  A
    cosine mixture sum_j c_j cos(<w_j, x>) also carries ``coeffs`` (J,) and
    ``waves`` (J, n), which closed-form oracles and the config encoding
    read; both are None for a field built from an arbitrary callable.
    """

    eval: callable
    box: np.ndarray  # (n, 2) per-axis [lo, hi]
    grad: callable | None = field(default=None, compare=False)
    coeffs: np.ndarray | None = field(default=None, compare=False)
    waves: np.ndarray | None = field(default=None, compare=False)

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))

    @property
    def n(self):
        return self.box.shape[0]

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.box[:, 0], self.box[:, 1]
        return bool(np.all(x >= lo) and np.all(x <= hi))

    @classmethod
    def from_callable(cls, fn, n, box=None, grad=None):
        """The field ``fn`` on ``box``, by default [-5, 5]^n."""
        if box is None:
            box = [[-DEFAULT_BOX_HALF_WIDTH, DEFAULT_BOX_HALF_WIDTH]] * n
        box = np.asarray(box, dtype=float)
        return cls(eval=fn, box=box, grad=grad)

    @classmethod
    def mixture(cls, coeffs, waves, box=None):
        """sum_j coeffs[j] cos(<waves[j], x>), with its gradient."""
        c = np.array(coeffs, dtype=float).reshape(-1)
        W = np.array(waves, dtype=float).reshape(c.size, -1)
        f = cls.from_callable(lambda x: np.cos(x @ W.T) @ c, W.shape[1], box=box,
                              grad=lambda x: -(np.sin(x @ W.T) * c) @ W)
        return replace(f, coeffs=c, waves=W)

    @classmethod
    def constant(cls, value, n, box=None):
        """The w = 0 term of a mixture."""
        return cls.mixture([value], np.zeros((1, n)), box=box)

    @classmethod
    def cosine(cls, w, amplitude=1.0, box=None):
        """amplitude * cos(<w, x>), a one-term mixture."""
        return cls.mixture([amplitude], [w], box=box)


@dataclass(frozen=True)
class SeminormEstimate:
    value: float
    witness: tuple  # (x, v) achieving the recorded maximum ratio
    sup_sample: float  # max |f| seen at probed points (reused by holder_norm)


def third_difference(f: ScalarField, x, v):
    """f(x) - 3 f(x+v) + 3 f(x+2v) - f(x+3v)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (f.contains(x) and f.contains(x + 3 * v)):
        raise OutOfDomain("third-difference stencil leaves the box")
    pts = np.stack([x, x + v, x + 2 * v, x + 3 * v])
    vals = f(pts)
    return float(vals[0] - 3 * vals[1] + 3 * vals[2] - vals[3])


def _stencils(dec: KalmanDecomposition, box, seed, budget):
    """Base points x, displacements v (budget, n) and scales r of samples
    0..budget-1.  Candidate c of sample s is words [s K, (s+1) K) of the
    stencil stream at candidate c: a word for the block h, one for log r,
    an even run for one Box-Muller normal per reference coordinate, of
    which block h's give the direction u, and n for the base point; v =
    r^(2h+1) B_h u has quasi-norm r.  A sample reads its next candidate
    until one fits in the box."""
    n = box.shape[0]
    K = 2 + n + n % 2 + n
    grade = np.repeat(np.arange(dec.k + 1), dec.block_dims)
    x, v, r = np.empty((budget, n)), np.empty((budget, n)), np.empty(budget)
    todo = np.arange(budget)
    for c in range(_CANDIDATES):
        u = _indexed_uniforms(seed, _STENCIL_STREAM + (c << 128), 0, (todo[-1] + 1) * K)
        u = u.reshape(-1, K)[todo]
        h = np.minimum((u[:, 0] * (dec.k + 1)).astype(int), dec.k)  # u (k+1) may round up
        rc = np.exp(np.log(SCALE_MIN) * u[:, 1])
        z = _box_muller(u[:, 2:K - n])[:, :n] * (grade == h[:, None])
        vc = (z * (rc ** (2 * h + 1) / np.linalg.norm(z, axis=1))[:, None]) @ dec.basis.T
        lo = box[:, 0] - np.minimum(0.0, 3.0 * vc)
        hi = box[:, 1] - np.maximum(0.0, 3.0 * vc)
        fits = np.all(hi >= lo, axis=1)
        done = todo[fits]
        x[done] = (lo + u[:, K - n:] * (hi - lo))[fits]
        v[done], r[done] = vc[fits], rc[fits]
        todo = todo[~fits]
        if todo.size == 0:
            return x, v, r
    raise DegenerateBox("could not place a third-difference stencil")


def holder_seminorm(
    f: ScalarField,
    gamma: float,
    dec: KalmanDecomposition,
    budget: int,
    rng_seed: int,
) -> SeminormEstimate:
    """Monte Carlo lower bound for the third-difference seminorm.

    Deterministic given the seed; extending the budget with the same seed
    only adds samples, so the estimate only refines upward.  ``f`` is
    called once, on the (4 budget, n) stencil points of samples 0, 1, ...
    """
    if not (0.0 < gamma < 3.0) or abs(gamma - round(gamma)) < _GAMMA_INT_TOL:
        raise ValueError(f"gamma must be non-integer in (0, 3), got {gamma}")
    if budget < 1:
        raise ValueError("budget >= 1")
    box = f.box
    if float(np.min(box[:, 1] - box[:, 0])) <= 3.0 * SCALE_MIN:
        raise DegenerateBox("box sides must exceed three times the minimum scale")
    x, v, r = _stencils(dec, box, rng_seed, budget)
    pts = x[:, None, :] + np.arange(4.0)[:, None] * v[:, None, :]
    vals = f(pts.reshape(4 * budget, -1)).reshape(budget, 4)
    ratio = np.abs(vals[:, 0] - 3 * vals[:, 1] + 3 * vals[:, 2] - vals[:, 3]) / r**gamma
    best = int(np.argmax(ratio))
    return SeminormEstimate(value=float(ratio[best]), witness=(x[best], v[best]),
                            sup_sample=float(np.abs(vals).max()))


def holder_norm(f: ScalarField, gamma: float, dec, budget: int, seed: int) -> float:
    """Sampled surrogate for the Hölder norm: sup-sample plus seminorm."""
    est = holder_seminorm(f, gamma, dec, budget, seed)
    return est.sup_sample + est.value
