"""Kalman rank condition, orthogonal block decomposition and the
anisotropic quasi-norm.

The decomposition grades R^n by how many applications of the linear drift
are needed to carry noise into a direction: block 0 is the noisy span
{e_1..e_p}, block m is the orthogonal complement gained by the m-th power
of A.  ``decompose`` builds it in one pass over the powers of A, which also
decides the Kalman index k (the number of blocks less one) and whether the
rank condition holds.  The grading is one array, ``grade``: reference
coordinate i lies in block grade[i-1], so block h is the basis columns
where grade == h, and every module that scales, projects or samples by
block reads it there.  The quasi-norm weighs block m with exponent
1/(2m+1), which is the natural parabolic scaling of the associated
diffusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHypoelliptic
from .operators import OperatorSpec, _frozen

__all__ = [
    "KalmanDecomposition",
    "decompose",
]

# a singular value (or a Gram-Schmidt residual) counts when above this
# fraction of the largest one (of the candidate's norm)
RANK_TOL = 1e-10


@dataclass(frozen=True)
class KalmanDecomposition:
    """Orthogonal grading R^n = sum_m E_m(R^n) with a reference basis.

    ``k`` is the Kalman index, the smallest k with
    rank [Q^{1/2}, A Q^{1/2}, ..., A^k Q^{1/2}] = n.  ``basis`` has the
    block bases as consecutive columns, block h where ``grade`` == h; the
    first p_tilde columns are exactly e_1..e_p_tilde.
    """

    k: int
    grade: np.ndarray  # (n,) block h of each reference coordinate, ascending
    basis: np.ndarray  # (n, n) orthogonal

    @property
    def n(self):
        return self.basis.shape[0]

    @property
    def block_dims(self):
        return tuple(np.bincount(self.grade).tolist())

    def block_of_coordinate(self, i: int) -> int:
        """Block index h with reference coordinate i (1-based) in I_h."""
        if not 1 <= i <= self.n:  # grade[-1] would answer for coordinate 0
            raise IndexError(f"coordinate {i} outside 1..{self.n}")
        return int(self.grade[i - 1])

    def block_components(self, x):
        """Per-block euclidean norms |E_h x|, stacked on the last axis."""
        comps = np.asarray(x, dtype=float) @ self.basis  # coordinates in the reference basis
        return np.stack([np.linalg.norm(comps[..., self.grade == h], axis=-1)
                         for h in range(self.k + 1)], axis=-1)

    def quasi_norm(self, x):
        """Anisotropic quasi-norm sum_h |E_h x|^(1/(2h+1))."""
        comps = self.block_components(x)
        exps = np.array([1.0 / (2 * h + 1) for h in range(self.k + 1)])
        return np.sum(comps**exps, axis=-1)

    def metric_description(self):
        """Human-readable rendering of the metric, e.g. |E0 z|^1 + |E1 z|^(1/3)."""
        parts = []
        for h in range(self.k + 1):
            exp = "1" if h == 0 else f"1/{2 * h + 1}"
            parts.append(f"|E{h} (z - z')|^({exp})")
        return "d(z, z') = " + " + ".join(parts)


def decompose(spec: OperatorSpec) -> KalmanDecomposition:
    """Build the orthogonal Kalman decomposition of ``spec`` in one pass
    over the powers m = 0, 1, ... of A.

    Pass m ranks [Q^{1/2}, A Q^{1/2}, ..., A^m Q^{1/2}] by its singular
    values above ``RANK_TOL`` times the largest one, and runs Gram-Schmidt
    over the candidates A^m e_i, i = 1..p_tilde, for block m, which makes
    the reference basis deterministic across platforms.  The pass at which
    the rank reaches n is the Kalman index k; a pass that adds no rank
    raises :class:`NotHypoelliptic`, so the rank reaches n by m = n - 1.
    """
    n = spec.n
    cols = spec.Q_sqrt[:, : spec.p_tilde]  # rank p_tilde by positivity of Q0
    stacked = cols
    rank = 0
    accepted = []  # orthonormal columns, in block order
    grade = []
    cand = np.eye(n)[:, : spec.p_tilde]
    for m in range(n):
        svals = np.linalg.svd(stacked, compute_uv=False)
        prev_rank, rank = rank, int(np.sum(svals > RANK_TOL * svals[0]))
        if rank == prev_rank:
            raise NotHypoelliptic(f"controllability rank stalls at {rank} < {n} at power {m}")
        block_cols = []
        for i in range(spec.p_tilde):
            v = cand[:, i].copy()
            norm0 = np.linalg.norm(v)
            if norm0 == 0.0:
                continue
            for u in accepted + block_cols:
                v -= (u @ v) * u
            # re-orthogonalize once for numerical safety
            for u in accepted + block_cols:
                v -= (u @ v) * u
            r = np.linalg.norm(v)
            if r > RANK_TOL * norm0:
                block_cols.append(v / r)
        if not block_cols:
            raise NotHypoelliptic(f"block {m} is empty although the rank grew to {rank}")
        grade += [m] * len(block_cols)
        accepted.extend(block_cols)
        if rank == n:
            break
        cols = spec.A @ cols
        stacked = np.hstack([stacked, cols])
        cand = spec.A @ cand
    if len(accepted) != n:
        raise NotHypoelliptic(f"decomposition spans {len(accepted)} < {n} directions")
    return KalmanDecomposition(k=m, grade=_frozen(grade, int),
                               basis=_frozen(np.column_stack(accepted)))
