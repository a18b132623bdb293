"""Path generation: exact linear sampling, exponential-Euler integration,
the deterministic drift flow, variation flows and Girsanov log-weights.

Noise discipline: every Gaussian is read at an index from one Philox
stream per seed, key [0, seed], whose top counter word splits it into
regions: 0 for the stepping increments, 2^62 for the Hölder stencils
(``holder``) and 2^63 for the exact F == 0 law.  Noise enters only the
first p_tilde coordinates: step k of path q is normals [q p_tilde, (q+1)
p_tilde) of row k (counter word 2) of the stepping region, whatever the
run's step count, so runs on disjoint paths share no normal, and a
chunk's increments are drawn in one call.  One kernel, ``_x_steps``,
steps every path, X' = e^{dtA}(X + dt F(X)) + noise, run with the drift
or without it.  Two steppers read the same increments and advance only
what their estimator reads: ``simulate_endpoints`` runs it with the drift
for the full path X (and its first variation eta, the exact derivative
of the exponential-Euler step, so the derivative of the X it returns),
``girsanov_endpoints`` without it for the linear reference path Z and
its Girsanov log-weight.  With F == 0 the two runs are the same
arithmetic, so X == Z is exact, and results are bit-identical however
paths are chunked across threads.  Handed a private ``_Pair`` K as
``steps``, a stepper also runs the coarse twin of K/2 steps on the
pair-summed rows of the same draw, which the extrapolated estimates in
``semigroup`` read.  ``simulate_bundle`` stacks every state both runs
reach on one path: the same kernel on the same increments, on the grid
it is given, and ``deterministic_flow`` is the X stepper fed zero
increments.  Every run checks its grid in ``_dt``: at least one step to
a finite t > 0.
The exact F == 0 law takes no steps: path p owns normals [p n, (p+1) n)
of its region.
"""

from __future__ import annotations

import concurrent.futures
import math

import numpy as np

from .gramian import gramian
from .operators import DriftField, OperatorSpec, matrix_exp

__all__ = [
    "sample_ou_endpoints",
    "simulate_bundle",
    "simulate_endpoints",
    "girsanov_endpoints",
    "deterministic_flow",
]

CHUNK = 4096  # fixed path chunk; independent of thread count by design
BLOCK = 64  # steps whose noise (and Girsanov path points) are held at once
_STEPPING, _STENCIL, _EXACT = 0, 1 << 254, 1 << 255  # regions: top counter word 0, 2^62, 2^63
_ROW = 1 << 128  # one unit of counter word 2, which numbers a region's rows
_LINEAR = DriftField()  # F == 0: the drift that steps the Girsanov linear path


# --- indexed Gaussian streams ------------------------------------------------


def _indexed_uniforms(seed, counter, first, count, rows=1):
    """Uniforms ((word >> 11) + 0.5) 2^-53, strictly inside (0, 1), one
    (count,) row at a time: row j holds raw words [first, first + count) of
    Philox with key [0, seed] from ``counter`` + j _ROW, reached by ``advance``."""
    if first < 0:  # a negative path index would wrap the counter
        raise ValueError(f"stream index {first} < 0: path indices must be >= 0")
    bits = np.random.Philox(key=int(seed) << 64, counter=counter).advance(first // 4)
    m = int(first % 4 + count)
    for _ in range(rows):
        raw = bits.random_raw(m)[first % 4:]
        bits.advance(_ROW - (m + 3) // 4)  # random_raw moved the counter ceil(m / 4)
        yield ((raw >> 11) + 0.5) * 2.0**-53


def _box_muller(u):
    """Normals 2j, 2j + 1 of the uniforms 2j, 2j + 1 along the last (even) axis."""
    r, a = np.sqrt(-2.0 * np.log(u[..., 0::2])), 2.0 * np.pi * u[..., 1::2]
    return np.stack([r * np.cos(a), r * np.sin(a)], axis=-1).reshape(u.shape)


def _normals(seed, counter, first, count, rows=1):
    """Normals [first, first + count) of each of ``rows`` rows from
    ``counter`` (a region, plus a first row): the Box-Muller normals of
    their indexed words, shape (rows, count), written a row at a time, so a
    draw holds one row of temporaries beside its output."""
    w0, end = first - first % 2, first + count + (first + count) % 2
    try:
        out = np.empty((rows, count))
    except ValueError as exc:  # beyond numpy's index range: no allocation can hold it
        raise MemoryError(f"cannot allocate rows of {count} normals: {exc}") from None
    for row, u in zip(out, _indexed_uniforms(seed, counter, w0, end - w0, rows)):
        row[:] = _box_muller(u)[first - w0:][:count]
    return out


def brownian_increments(seed, paths, steps, p, dt):
    """Increments (steps, len(paths), p) of the consecutive ``paths`` over a
    ``steps``-step run: step k of path q is normals [q p, (q+1) p) of row k
    of the stepping region, scaled by sqrt(dt)."""
    z = _normals(seed, _STEPPING, paths[0] * p, len(paths) * p, steps)
    z *= np.sqrt(dt)
    return z.reshape(steps, len(paths), p)


# --- exact linear sampling --------------------------------------------------


def _gaussian_endpoints(g, x0s, xi):
    """The exact F == 0 endpoints e^{tA} x + S xi with S S' = Q_t, both read
    from the Gramian g at t, shape (m, len(xi), n): the normals xi (N, n)
    are shared by every start in x0s."""
    X = (np.atleast_2d(x0s) @ g.exp.T)[:, None, :]
    return X + xi @ g.sqrt_factor().T


def sample_ou_endpoints(spec: OperatorSpec, x, t: float, size: int, rng: np.random.Generator):
    """Exact-in-distribution batch of linear endpoints, shape (size, n)."""
    return _gaussian_endpoints(gramian(spec, t), x, rng.standard_normal((size, spec.n)))[0]


# --- exponential Euler ------------------------------------------------------


class _Pair(int):
    """An even fine step count K that asks a stepper for a coupled pair:
    its outputs after K steps, then those of the coarse run of K/2 steps at
    2 dt on the pair-summed increments of the same draw, stacked along the
    starts axis.  It is an int, so ``steps`` still counts the fine steps."""


def _levels(steps, dW):
    """(steps, increments) of each run on one draw dW (steps, c, p_tilde):
    the run itself and, for a _Pair, its coarse twin."""
    yield steps, dW
    if isinstance(steps, _Pair):
        yield steps // 2, dW[0::2] + dW[1::2]


def _dt(t, steps):
    """The step t / steps of a run, which must take at least one step to
    a finite t > 0: any other grid would step backward, not at all or to
    NaN."""
    if not (steps >= 1 and 0.0 < t < math.inf):
        raise ValueError(f"need steps >= 1 and 0 < t < inf, got steps={steps!r}, t={t!r}")
    return t / steps


def _stepping(spec: OperatorSpec, t, steps, dW):
    """What a stepper is handed for a run of ``steps`` steps on the
    increments dW: dt, e^{dtA} and their noise blocks."""
    dt = _dt(t, steps)
    eAdt = matrix_exp(spec.A, dt)
    return dt, eAdt, _noise_blocks(eAdt @ spec.Q_sqrt[:, :spec.p_tilde], dW)


def _noise_blocks(eAS, dW):
    """Per block of at most BLOCK steps of the increments dW (step, path,
    p_tilde): dW and the noise eAS dW (step, path, n) they add to a step.
    The noise of every block is written into one buffer, so a block is
    valid only until the next one is drawn."""
    noise = np.empty((min(BLOCK, len(dW)), dW.shape[1], len(eAS)))
    for k in range(0, len(dW), BLOCK):
        dw = dW[k:k + BLOCK]
        yield dw, np.matmul(dw, eAS.T, out=noise[:len(dw)])


def _x_steps(F, X, dt, eAdt, noise, with_variation):
    """X (m c, n) after every step X' = e^{dtA}(X + dt F(X)) + noise, from the
    starts X (each repeated once per path), and the tangent rows V = eta^T
    (m c n, n) of its exact derivative eta' = e^{dtA}(I + dt DF(X)) eta if
    asked (else None), one matmul each.  ``noise`` yields one (c, n) array
    per step for c paths; F = ``_LINEAR`` steps the linear path Z."""
    n = X.shape[1]
    V = np.tile(np.eye(n), (len(X), 1)) if with_variation else None
    for dx in noise:
        if not F.is_zero:
            FX, DFV = F.tangent(X, V)
            X = X + FX * dt
            if with_variation:
                V = V + DFV * dt
        X = ((X @ eAdt.T).reshape(-1, len(dx), n) + dx).reshape(X.shape)
        if with_variation:
            V = V @ eAdt.T
        yield X, V


def _x_run(spec, x0s, t, steps, dW, with_variation):
    """X (m, c, n) at t after ``steps`` steps on dW (steps, c, p_tilde) for
    every start in x0s and, if asked, eta (m, c, n, n)."""
    dt, eAdt, blocks = _stepping(spec, t, steps, dW)
    for X, V in _x_steps(spec.F, np.repeat(x0s, dW.shape[1], axis=0), dt, eAdt,
                         (dx for _, noise in blocks for dx in noise), with_variation):
        pass
    X = X.reshape(len(x0s), dW.shape[1], spec.n)
    return (X, V.reshape(X.shape + (spec.n,)).swapaxes(2, 3)) if with_variation else (X,)


def _log_weight(G, dw, dt):
    """Sum of the log-weight increments <G, dW> - |G|^2 dt / 2 over a block, (m, c),
    in step order at any c: with the two sums side by side on the last axis, the
    step axis is never the contiguous one that numpy sums pairwise."""
    s = np.stack([np.einsum("bmcp,bcp->bmc", G, dw), np.einsum("bmcp,bmcp->bmc", G, G)],
                 axis=-1).sum(axis=0)
    return s[..., 0] - 0.5 * dt * s[..., 1]


def _z_run(spec, x0s, t, steps, dW):
    """Z (m, c, n) at t and log_phi (m, c) after ``steps`` steps on dW; the
    left points of each block of steps are held in one buffer."""
    dt, eAdt, blocks = _stepping(spec, t, steps, dW)
    shape = (len(x0s), dW.shape[1], spec.n)
    Z, logphi = np.repeat(x0s, shape[1], axis=0), 0.0
    Zs = np.empty((min(BLOCK, steps),) + Z.shape)
    for dw, noise in blocks:
        Zs[0] = Z
        for k, (Z, _) in enumerate(_x_steps(_LINEAR, Z, dt, eAdt, noise, False), 1):
            if k < len(dw):
                Zs[k] = Z
        logphi = logphi + _log_weight(spec.girsanov_noise(Zs[:len(dw)].reshape((-1,) + shape)),
                                      dw, dt)
    return Z.reshape(shape), logphi


def _run_chunks(kernel, spec, x0s, t, steps, seed, n_paths, path_offset, threads, *args):
    """``kernel`` on each run (see ``_levels``) of the increments of each
    fixed chunk of paths, the runs' outputs joined along the starts axis
    and the chunks' along the path axis; chunking does not depend on
    ``threads``."""
    dt = _dt(t, steps)
    if n_paths < 1:
        raise ValueError("n_paths >= 1")
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    chunks = [
        range(path_offset + a, path_offset + min(a + CHUNK, n_paths))
        for a in range(0, n_paths, CHUNK)
    ]

    def run(ids):
        dW = brownian_increments(seed, ids, steps, spec.p_tilde, dt)
        runs = [kernel(spec, x0s, t, k, dWk, *args) for k, dWk in _levels(steps, dW)]
        return runs[0] if len(runs) == 1 else tuple(np.concatenate(r) for r in zip(*runs))

    if threads > 1 and len(chunks) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(ids) for ids in chunks]
    return tuple(np.concatenate(r, axis=1) for r in zip(*results))


def simulate_endpoints(
    spec: OperatorSpec,
    x0s,
    t: float,
    steps: int,
    seed: int,
    n_paths: int,
    path_offset: int = 0,
    threads: int = 1,
    with_variation: bool = False,
):
    """Endpoints X of the full path for several starts sharing per-path noise.

    ``x0s`` has shape (m, n); returns X_end of shape (m, n_paths, n) or,
    with ``with_variation``, (X_end, eta) with eta of shape
    (m, n_paths, n, n).  Chunking is fixed, so the result does not depend
    on ``threads``.
    """
    out = _run_chunks(_x_run, spec, x0s, t, steps, seed, n_paths, path_offset, threads,
                      with_variation)
    return out if with_variation else out[0]


def girsanov_endpoints(
    spec: OperatorSpec,
    x0s,
    t: float,
    steps: int,
    seed: int,
    n_paths: int,
    path_offset: int = 0,
    threads: int = 1,
):
    """Endpoints Z of the linear path and Girsanov log-weights, on the same
    increments as ``simulate_endpoints``.

    Returns Z_end of shape (m, n_paths, n) and log_phi of shape
    (m, n_paths); E[f(Z_t) e^{log_phi}] is P_t f.
    """
    return _run_chunks(_z_run, spec, x0s, t, steps, seed, n_paths, path_offset, threads)


def simulate_bundle(spec: OperatorSpec, x, t: float, steps: int, seed: int, path_id: int = 0):
    """Full record of one path of ``steps`` steps to t: Z (steps+1, n), X
    (steps+1, n) and the running log-weight (steps+1,) after every step,
    stacked from the kernel the endpoint steppers run, on that path's
    noise."""
    x0 = np.asarray(x, dtype=float)
    ids = range(int(path_id), int(path_id) + 1)
    dW = brownian_increments(seed, ids, steps, spec.p_tilde, _dt(t, steps))
    dt, eAdt, blocks = _stepping(spec, t, steps, dW)
    noise = np.concatenate([block.copy() for _, block in blocks])  # blocks share one buffer
    X, Z = (np.stack([x0] + [Y[0] for Y, _ in _x_steps(F, x0[None], dt, eAdt, noise, False)])
            for F in (spec.F, _LINEAR))
    G = spec.girsanov_noise(Z[:-1, None, None])
    dlog = [_log_weight(G[k:k + 1], dW[k:k + 1], dt)[0, 0] for k in range(steps)]
    return Z, X, np.cumsum([0.0] + dlog)


def deterministic_flow(spec: OperatorSpec, x, t: float, steps: int) -> np.ndarray:
    """The noiseless drift flow Y_t (n,) from x: the X stepper on one path
    fed zero increments, Y' = e^{dtA}(Y + dt F(Y))."""
    x0 = np.asarray(x, dtype=float)[None]
    return _x_run(spec, x0, t, steps, np.zeros((steps, 1, spec.p_tilde)), False)[0][0, 0]
