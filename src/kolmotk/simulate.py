"""Path generation: exact linear sampling, exponential-Euler integration,
the deterministic drift flow, variation flows and Girsanov log-weights.

Noise discipline: every path owns a Philox counter-based stream keyed by
(seed, path_id), and the Brownian increments are drawn first.  Two
steppers read the same increments and advance only what their estimator
reads: ``simulate_endpoints`` the full path X (and its first variation
eta, the exact derivative of the exponential-Euler step, so that eta is
the derivative of the X it returns), ``girsanov_endpoints`` the linear
reference path Z and its Girsanov log-weight.  With F == 0 the two paths
are the same arithmetic, so X == Z is exact rather than statistical, and
results are bit-identical no matter how paths are chunked across threads.
Each stepper is one private generator of its states that steps the noise
blocks it is handed; the endpoints are its last state, ``simulate_bundle``
stacks every state of one path, so a dumped path is the arithmetic the
estimators run, and ``deterministic_flow`` is the X stepper fed zero noise.
The exact F == 0 law takes no steps: path p of dimension n owns normals
[p n, (p+1) n) of one indexed stream per seed (``_exact_normals``), so any
block of paths is drawn at its offset without replay.
"""

from __future__ import annotations

import concurrent.futures
import threading
from dataclasses import dataclass

import numpy as np

from .gramian import gramian
from .operators import OperatorSpec, matrix_exp

__all__ = [
    "PathGrid",
    "PathBundle",
    "path_rng",
    "sample_ou_endpoints",
    "simulate_bundle",
    "simulate_endpoints",
    "girsanov_endpoints",
    "deterministic_flow",
    "write_path_csv",
]

CHUNK = 4096  # fixed path chunk; independent of thread count by design
BLOCK = 64  # steps whose noise (and Girsanov path points) are held at once
_local = threading.local()  # one re-keyed generator per thread: chunks run in a pool


@dataclass(frozen=True)
class PathGrid:
    t_end: float
    steps: int

    def __post_init__(self):
        if self.steps < 1 or self.t_end <= 0.0:
            raise ValueError("need t_end > 0 and steps >= 1")

    @property
    def dt(self):
        return self.t_end / self.steps

    @property
    def times(self):
        return np.linspace(0.0, self.t_end, self.steps + 1)


@dataclass(frozen=True)
class PathBundle:
    grid: PathGrid
    Z: np.ndarray  # (K+1, n) linear reference path
    X: np.ndarray  # (K+1, n) full path
    log_phi: np.ndarray  # (K+1,) running Girsanov log-weight
    path_id: int


def path_rng(seed: int, path_id: int) -> np.random.Generator:
    """Counter-based stream for one path; disjoint across path ids."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(path_id)))


def brownian_increments(seed, path_id, steps, n, dt):
    """The stream of ``path_rng(seed, path_id)``, drawn by re-keying this
    thread's Philox (key [path_id, seed], counter 0) instead of building
    a generator per path."""
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([path_id, seed], np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng.standard_normal((steps, n)) * np.sqrt(dt)


# --- exact linear sampling --------------------------------------------------


def _indexed_uniforms(seed, counter, first, count):
    """Uniforms ((word >> 11) + 0.5) 2^-53, strictly inside (0, 1), of raw
    words [first, first + count) of Philox with key [0, seed] from
    ``counter``, reached by ``advance`` and one ``random_raw``."""
    bits = np.random.Philox(key=int(seed) << 64, counter=counter)
    raw = bits.advance(first // 4).random_raw(first % 4 + count)[first % 4:]
    return ((raw >> 11) + 0.5) * 2.0**-53


def _box_muller(u):
    """Normals 2j, 2j + 1 of the uniforms 2j, 2j + 1 along the last (even) axis."""
    r, a = np.sqrt(-2.0 * np.log(u[..., 0::2])), 2.0 * np.pi * u[..., 1::2]
    return np.stack([r * np.cos(a), r * np.sin(a)], axis=-1).reshape(u.shape)


def _exact_normals(seed, first, count):
    """Normals [first, first + count) of the exact stream of ``seed``, the
    Box-Muller normals of the indexed words from top counter word 2^63,
    apart from every stepping stream (key [path_id, seed] from counter 0)."""
    w0, end = first - first % 2, first + count + (first + count) % 2
    return _box_muller(_indexed_uniforms(seed, 1 << 255, w0, end - w0))[first - w0:][:count]


def _gaussian_endpoints(spec: OperatorSpec, x0s, t: float, xi):
    """The exact F == 0 endpoints e^{tA} x + S xi with S S' = Q_t, shape
    (m, len(xi), n): the normals xi (N, n) are shared by every start in x0s."""
    X = (np.atleast_2d(x0s) @ matrix_exp(spec.A, t).T)[:, None, :]
    return X + xi @ gramian(spec, t).sqrt_factor().T


def sample_ou_endpoints(spec: OperatorSpec, x, t: float, size: int, rng: np.random.Generator):
    """Exact-in-distribution batch of linear endpoints, shape (size, n)."""
    return _gaussian_endpoints(spec, x, t, rng.standard_normal((size, spec.n)))[0]


# --- exponential Euler ------------------------------------------------------


def _stepping(spec: OperatorSpec, t, steps, seed, ids):
    """What a stepper is handed for these paths: dt, e^{dtA} and their
    noise blocks."""
    dt = t / steps
    eAdt = matrix_exp(spec.A, dt)
    return dt, eAdt, _noise_blocks(eAdt @ spec.Q_sqrt, dt, steps, seed, ids)


def _noise_blocks(eAS, dt, steps, seed, ids):
    """Per block of at most BLOCK steps of this chunk of paths: the
    increments dW and the noise eAS dW they add to a step, both laid out
    (step, path, n).  The noise of every block is written into one buffer,
    so a block is valid only until the next one is drawn."""
    dW = np.empty((steps, len(ids), len(eAS)))
    for j, pid in enumerate(ids):
        dW[:, j] = brownian_increments(seed, pid, steps, len(eAS), dt)
    noise = np.empty((min(BLOCK, steps),) + dW.shape[1:])
    for k in range(0, steps, BLOCK):
        dw = dW[k:k + BLOCK]
        yield dw, np.matmul(dw, eAS.T, out=noise[:len(dw)])


def _x_steps(spec, X, dt, eAdt, blocks, with_variation):
    """X (m c, n) after every step X' = e^{dtA}(X + dt F(X)) + noise, from the
    starts X (each repeated once per path), and the tangent rows V = eta^T
    (m c n, n) of its exact derivative eta' = e^{dtA}(I + dt DF(X)) eta if
    asked (else None), one matmul each.  ``blocks`` yields (dW, noise) per
    block of steps as ``_noise_blocks`` does, noise (b, c, n) for c paths."""
    F, n = spec.F, spec.n
    V = np.tile(np.eye(n), (len(X), 1)) if with_variation else None
    for _, noise in blocks:
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


def _x_chunk(spec, x0s, t, steps, seed, ids, with_variation):
    """X (m, c, n) at t for every start in x0s and, if asked, eta (m, c, n, n)."""
    X0 = np.repeat(x0s, len(ids), axis=0)
    for X, V in _x_steps(spec, X0, *_stepping(spec, t, steps, seed, ids), with_variation):
        pass
    X = X.reshape(len(x0s), len(ids), spec.n)
    return (X, V.reshape(X.shape + (spec.n,)).swapaxes(2, 3)) if with_variation else (X,)


def _z_blocks(spec, Z, dt, eAdt, blocks):
    """Per block of steps: the left points Zs (b, m, c, n) of Z' = e^{dtA} Z +
    noise from the starts Z (m, c, n), G(Zs) and dW on the first p_tilde
    coordinates (the only ones G reaches), and Z after the block."""
    for dw, noise in blocks:
        Zs = np.empty((len(noise),) + Z.shape)
        for k, dz in enumerate(noise):
            Zs[k] = Z
            Z = Z @ eAdt.T + dz
        yield Zs, spec.girsanov_noise(Zs), dw[..., :spec.p_tilde], Z


def _log_weight(G, dw, dt):
    """Sum of the log-weight increments <G, dW> - |G|^2 dt / 2 over a block, (m, c)."""
    return np.einsum("bmcp,bcp->mc", G, dw) - 0.5 * dt * np.einsum("bmcp,bmcp->mc", G, G)


def _z_chunk(spec, x0s, t, steps, seed, ids):
    """Z (m, c, n) at t and log_phi (m, c)."""
    logphi = np.zeros((len(x0s), len(ids)))
    Z0 = np.repeat(x0s[:, None, :], len(ids), axis=1)
    for Zs, G, dw, Z in _z_blocks(spec, Z0, *_stepping(spec, t, steps, seed, ids)):
        logphi += _log_weight(G, dw, t / steps)
        del Zs  # free this block's points before the next block allocates its own
    return Z, logphi


def _run_chunks(kernel, spec, x0s, t, steps, seed, n_paths, path_offset, threads, *args):
    """``kernel`` over the fixed chunks of paths, each output joined along
    the path axis; chunking does not depend on ``threads``."""
    if steps < 1:
        raise ValueError("steps >= 1")
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    chunks = [
        range(path_offset + a, path_offset + min(a + CHUNK, n_paths))
        for a in range(0, n_paths, CHUNK)
    ]

    def run(ids):
        return kernel(spec, x0s, t, steps, seed, ids, *args)

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
    out = _run_chunks(_x_chunk, spec, x0s, t, steps, seed, n_paths, path_offset, threads,
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
    return _run_chunks(_z_chunk, spec, x0s, t, steps, seed, n_paths, path_offset, threads)


def simulate_bundle(spec: OperatorSpec, x, grid: PathGrid, seed: int, path_id: int = 0) -> PathBundle:
    """Full record of one path: Z, X and the running log-weight after every
    step, stacked from what the endpoint steppers yield for that path."""
    x0 = np.asarray(x, dtype=float)
    args = (spec, grid.t_end, grid.steps, seed, [int(path_id)])
    X = np.stack([x0] + [Xk[0] for Xk, _ in _x_steps(spec, x0[None], *_stepping(*args), False)])
    Z, dlog = [], [0.0]
    for Zs, G, dw, Zk in _z_blocks(spec, x0[None, None], *_stepping(*args)):
        Z.append(Zs[:, 0, 0])
        dlog += [_log_weight(G[k:k + 1], dw[k:k + 1], grid.dt)[0, 0] for k in range(len(G))]
    return PathBundle(grid, np.concatenate(Z + [Zk[0]]), X, np.cumsum(dlog), int(path_id))


def deterministic_flow(spec: OperatorSpec, x, t: float, steps: int) -> np.ndarray:
    """The noiseless drift flow Y_t (n,) from x: the X stepper on one path
    fed zero noise, Y' = e^{dtA}(Y + dt F(Y))."""
    if steps < 1:
        raise ValueError("steps >= 1")
    dt = t / steps
    zero = np.broadcast_to(0.0, (steps, 1, spec.n))
    for Y, _ in _x_steps(spec, np.asarray(x, dtype=float)[None], dt, matrix_exp(spec.A, dt),
                         [(None, zero)], False):
        pass
    return Y[0]


def write_path_csv(bundles, fileobj):
    """Dump bundles as CSV: path_id, k, t, Z_1..Z_n, X_1..X_n, logPhi."""
    coords = range(1, bundles[0].X.shape[1] + 1)
    cols = ["path_id", "k", "t", *(f"Z_{i}" for i in coords), *(f"X_{i}" for i in coords), "logPhi"]
    fileobj.write(",".join(cols) + "\n")
    for b in bundles:
        for k, t in enumerate(b.grid.times):
            row = [repr(float(v)) for v in (t, *b.Z[k], *b.X[k], b.log_phi[k])]
            fileobj.write(",".join([str(b.path_id), str(k)] + row) + "\n")
