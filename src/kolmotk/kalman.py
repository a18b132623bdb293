"""Kalman rank condition, orthogonal block decomposition and the
anisotropic quasi-norm.

The decomposition grades R^n by how many applications of the linear drift
are needed to carry noise into a direction: block 0 is the noisy span
{e_1..e_p}, block m is the orthogonal complement gained by the m-th power
of A.  The quasi-norm weighs block m with exponent 1/(2m+1), which is the
natural parabolic scaling of the associated diffusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHypoelliptic
from .operators import OperatorSpec, _frozen

__all__ = [
    "Block",
    "KalmanDecomposition",
    "kalman_index",
    "decompose",
]

DEFAULT_RANK_TOL = 1e-10


def _noise_columns(spec: OperatorSpec):
    # columns of Q^{1/2}; rank p_tilde by positivity of Q0
    return spec.Q_sqrt[:, : spec.p_tilde]


def kalman_index(spec: OperatorSpec, tol: float = DEFAULT_RANK_TOL) -> int:
    """Smallest k with rank [Q^{1/2}, A Q^{1/2}, ..., A^k Q^{1/2}] = n.

    Rank is judged by singular values above ``tol`` times the largest one.
    Raises :class:`NotHypoelliptic` when the rank stalls below n.
    """
    n = spec.n
    cols = _noise_columns(spec)
    stacked = cols
    prev_rank = 0
    for k in range(n):
        svals = np.linalg.svd(stacked, compute_uv=False)
        rank = int(np.sum(svals > tol * svals[0]))
        if rank == n:
            return k
        if rank == prev_rank:
            raise NotHypoelliptic(
                f"controllability rank stalls at {rank} < {n} at power {k}"
            )
        prev_rank = rank
        cols = spec.A @ cols
        stacked = np.hstack([stacked, cols])
    raise NotHypoelliptic(f"rank {prev_rank} < {n} after power {n - 1}")


@dataclass(frozen=True)
class Block:
    """One orthogonal block: basis columns span E_m(R^n)."""

    index_set: tuple
    basis: np.ndarray  # (n, dim) orthonormal columns
    projection: np.ndarray  # (n, n) symmetric idempotent

    @property
    def dim(self):
        return self.basis.shape[1]


@dataclass(frozen=True)
class KalmanDecomposition:
    """Orthogonal grading R^n = sum_m E_m(R^n) with a reference basis.

    ``basis`` has the block bases as consecutive columns; the first
    p_tilde columns are exactly e_1..e_p_tilde.
    """

    k: int
    blocks: tuple
    basis: np.ndarray  # (n, n) orthogonal

    @property
    def n(self):
        return self.basis.shape[0]

    @property
    def block_dims(self):
        return tuple(b.dim for b in self.blocks)

    def block_of_coordinate(self, i: int) -> int:
        """Block index h with reference coordinate i (1-based) in I_h."""
        for h, b in enumerate(self.blocks):
            if i in b.index_set:
                return h
        raise IndexError(f"coordinate {i} outside 1..{self.n}")

    def block_components(self, x):
        """Per-block euclidean norms |E_h x|, stacked on the last axis."""
        x = np.asarray(x, dtype=float)
        comps = x @ self.basis  # coordinates in the reference basis
        out = []
        for b in self.blocks:
            idx = [i - 1 for i in b.index_set]
            out.append(np.linalg.norm(comps[..., idx], axis=-1))
        return np.stack(out, axis=-1)

    def quasi_norm(self, x):
        """Anisotropic quasi-norm sum_h |E_h x|^(1/(2h+1))."""
        comps = self.block_components(x)
        exps = np.array([1.0 / (2 * h + 1) for h in range(self.k + 1)])
        return np.sum(comps**exps, axis=-1)

    def distance(self, x, y):
        return self.quasi_norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))

    def metric_description(self):
        """Human-readable rendering of the metric, e.g. |E0 z|^1 + |E1 z|^(1/3)."""
        parts = []
        for h in range(self.k + 1):
            exp = "1" if h == 0 else f"1/{2 * h + 1}"
            parts.append(f"|E{h} (z - z')|^({exp})")
        return "d(z, z') = " + " + ".join(parts)


def decompose(spec: OperatorSpec, tol: float = DEFAULT_RANK_TOL) -> KalmanDecomposition:
    """Build the orthogonal Kalman decomposition of ``spec``.

    Gram-Schmidt runs in block order over the candidates A^m e_i,
    m = 0..k, i = 1..p_tilde, which makes the reference basis
    deterministic across platforms.
    """
    k = kalman_index(spec, tol=tol)
    n = spec.n
    accepted = []  # orthonormal columns, in block order
    blocks = []
    cand = np.eye(n)[:, : spec.p_tilde]
    next_index = 1
    for m in range(k + 1):
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
            if r > tol * norm0:
                block_cols.append(v / r)
        if m == 0:
            # range(E_0) is span{e_1..e_p_tilde} exactly
            block_cols = [np.eye(n)[:, i] for i in range(spec.p_tilde)]
        if not block_cols:
            raise NotHypoelliptic(
                f"block {m} is empty although the Kalman index is {k}"
            )
        basis = np.column_stack(block_cols)
        proj = basis @ basis.T
        idx = tuple(range(next_index, next_index + len(block_cols)))
        next_index += len(block_cols)
        blocks.append(Block(index_set=idx, basis=_frozen(basis), projection=_frozen(proj)))
        accepted.extend(block_cols)
        cand = spec.A @ cand
    if next_index != n + 1:
        raise NotHypoelliptic(
            f"decomposition spans {next_index - 1} < {n} directions"
        )
    full = np.column_stack([b.basis for b in blocks])
    return KalmanDecomposition(k=k, blocks=tuple(blocks), basis=_frozen(full))
