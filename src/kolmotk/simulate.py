"""Path generation: exact linear sampling, exponential-Euler integration,
deterministic and variational flows, and Girsanov log-weights.

Noise discipline: every path owns a Philox counter-based stream keyed by
(seed, path_id), and the Brownian increments are drawn first.  Both the
linear reference path Z and the full path X are driven by the same
increments, so the F == 0 degeneracy X == Z is exact rather than
statistical, and results are bit-identical no matter how paths are
chunked across threads.
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
    "FlowState",
    "path_rng",
    "sample_ou_endpoint",
    "sample_ou_endpoints",
    "simulate_bundle",
    "simulate_endpoints",
    "deterministic_flow",
    "variation_flow_along_path",
    "write_path_csv",
]

CHUNK = 4096  # fixed path chunk; independent of thread count by design
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
    x0: np.ndarray
    dW: np.ndarray  # (K, n)
    Z: np.ndarray  # (K+1, n) linear reference path
    X: np.ndarray  # (K+1, n) full path
    log_phi: np.ndarray  # (K+1,) running Girsanov log-weight
    seed: int
    path_id: int


@dataclass(frozen=True)
class FlowState:
    Y: np.ndarray
    eta1: np.ndarray  # (n, n), columns are the first variations
    eta2: np.ndarray | None = None  # (n, n, n), eta2[:, i, j]
    eta3: np.ndarray | None = None  # (n, n, n, n), eta3[:, i, j, r]


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


def sample_ou_endpoint(spec: OperatorSpec, x, t: float, rng: np.random.Generator):
    """One draw of the linear diffusion at time t: e^{tA} x + Q_t^{1/2} xi."""
    return sample_ou_endpoints(spec, x, t, 1, rng)[0]


def sample_ou_endpoints(spec: OperatorSpec, x, t: float, size: int, rng: np.random.Generator):
    """Exact-in-distribution batch of linear endpoints, shape (size, n)."""
    g = gramian(spec, t)
    S = g.sqrt_factor()
    mean = matrix_exp(spec.A, t) @ np.asarray(x, dtype=float)
    xi = rng.standard_normal((size, spec.n))
    return mean + xi @ S.T


# --- exponential Euler ------------------------------------------------------


def _step_matrices(spec: OperatorSpec, dt: float):
    eAdt = matrix_exp(spec.A, dt)
    return eAdt, eAdt @ spec.Q_sqrt


def simulate_bundle(spec: OperatorSpec, x, grid: PathGrid, seed: int, path_id: int = 0) -> PathBundle:
    """Full record of one path: increments, Z, X and running log-weight."""
    n = spec.n
    K = grid.steps
    dt = grid.dt
    dW = brownian_increments(seed, path_id, K, n, dt)
    eAdt, eAS = _step_matrices(spec, dt)
    x0 = np.asarray(x, dtype=float)
    Z = np.empty((K + 1, n))
    X = np.empty((K + 1, n))
    log_phi = np.zeros(K + 1)
    Z[0] = x0
    X[0] = x0
    for k in range(K):
        dw = dW[k]
        G = spec.girsanov_field(Z[k])
        log_phi[k + 1] = log_phi[k] + G @ dw - 0.5 * (G @ G) * dt
        Z[k + 1] = eAdt @ Z[k] + eAS @ dw
        X[k + 1] = eAdt @ (X[k] + spec.F.value(X[k]) * dt) + eAS @ dw
    return PathBundle(
        grid=grid, x0=x0, dW=dW, Z=Z, X=X, log_phi=log_phi, seed=int(seed), path_id=int(path_id)
    )


def _taylor4_apply(J, dt, V):
    """(I + dtJ + ... + (dtJ)^4/24) V, broadcasting over leading axes.

    Truncated exponential: its norm never exceeds e^{dt ||J||}, so the
    Gronwall bound on variation flows survives discretization.
    """
    out = V.copy()
    term = V
    for j in range(1, 5):
        term = (dt / j) * np.matmul(J, term)
        out = out + term
    return out


def _simulate_chunk(spec, x0s, t, steps, seed, ids, with_variation):
    """Advance a chunk of paths for every start in x0s, sharing noise.

    Returns endpoint arrays (m, c, n), (m, c, n), (m, c) and optionally
    the first-variation matrices (m, c, n, n).
    """
    n = spec.n
    m = x0s.shape[0]
    c = len(ids)
    dt = t / steps
    eAdt, eAS = _step_matrices(spec, dt)
    dW = np.empty((c, steps, n))
    for j, pid in enumerate(ids):
        dW[j] = brownian_increments(seed, pid, steps, n, dt)
    Z = np.broadcast_to(x0s[:, None, :], (m, c, n)).copy()
    X = Z.copy()
    logphi = np.zeros((m, c))
    eta = None
    if with_variation:
        eta = np.broadcast_to(np.eye(n), (m, c, n, n)).copy()
    zero_drift = spec.F.is_zero
    for k in range(steps):
        dw = dW[:, k, :]
        if with_variation:
            J = spec.A if zero_drift else spec.A + spec.F.jacobian(X)
            eta = _taylor4_apply(J, dt, eta)
        if not zero_drift:
            G = spec.girsanov_field(Z)
            logphi += np.einsum("mcn,cn->mc", G, dw) - 0.5 * dt * np.einsum(
                "mcn,mcn->mc", G, G
            )
            drift = spec.F.value(X) * dt
            X = np.einsum("ab,mcb->mca", eAdt, X + drift) + dw @ eAS.T
        else:
            X = np.einsum("ab,mcb->mca", eAdt, X) + dw @ eAS.T
        Z = np.einsum("ab,mcb->mca", eAdt, Z) + dw @ eAS.T
    return Z, X, logphi, eta


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
    """Endpoint batch for several starts sharing per-path noise.

    ``x0s`` has shape (m, n); returns Z_end, X_end of shape (m, n_paths, n),
    log_phi of shape (m, n_paths) and, if requested, eta of shape
    (m, n_paths, n, n).  Chunking is fixed, so the result does not depend
    on ``threads``.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    chunks = [
        range(path_offset + a, path_offset + min(a + CHUNK, n_paths))
        for a in range(0, n_paths, CHUNK)
    ]

    def run(ids):
        return _simulate_chunk(spec, x0s, t, steps, seed, list(ids), with_variation)

    if threads > 1 and len(chunks) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(ids) for ids in chunks]
    Z = np.concatenate([r[0] for r in results], axis=1)
    X = np.concatenate([r[1] for r in results], axis=1)
    logphi = np.concatenate([r[2] for r in results], axis=1)
    if with_variation:
        eta = np.concatenate([r[3] for r in results], axis=1)
        return Z, X, logphi, eta
    return Z, X, logphi


# --- deterministic and variational flows ------------------------------------


def _flow_rhs(spec: OperatorSpec, state, order):
    Y, M, T2, T3 = state
    A = spec.A
    dY = A @ Y + spec.F.value(Y)
    J = A + spec.F.jacobian(Y)
    dM = J @ M
    dT2 = dT3 = None
    if order >= 2:
        # columns u_i = M[:, i]; D2F(Y)[u_i][u_j] for all pairs
        dT2 = np.einsum("ab,bij->aij", J, T2)
        u = M.T  # (n, n) rows are eta_i
        d2 = spec.F.d2_apply(Y, u[:, None, :], u[None, :, :])  # (n, n, n)
        dT2 = dT2 + np.moveaxis(d2, -1, 0)
    if order >= 3:
        dT3 = np.einsum("ab,bijr->aijr", J, T3)
        u = M.T
        d3 = spec.F.d3_apply(
            Y, u[:, None, None, :], u[None, :, None, :], u[None, None, :, :]
        )  # (n, n, n, n) indexed (i, j, r, comp)
        dT3 = dT3 + np.moveaxis(d3, -1, 0)
        # cross terms D2F[eta_{ij}][eta_r] in the three pairings
        eta2 = np.moveaxis(T2, 0, -1)  # (i, j, comp)
        cross = spec.F.d2_apply(
            Y, eta2[:, :, None, :], u[None, None, :, :]
        )  # (i, j, r, comp) from [eta_ij][eta_r]
        cross_ir = spec.F.d2_apply(Y, eta2[:, None, :, :], u[None, :, None, :])
        cross_jr = spec.F.d2_apply(Y, u[:, None, None, :], eta2[None, :, :, :])
        dT3 = dT3 + np.moveaxis(cross + cross_ir + cross_jr, -1, 0)
    return dY, dM, dT2, dT3


def deterministic_flow(spec: OperatorSpec, x, t: float, steps: int, order: int = 1) -> FlowState:
    """Classical RK4 integration of the drift flow and its variations.

    ``order`` selects how many variation levels to carry (1, 2 or 3).
    """
    if steps < 1:
        raise ValueError("steps >= 1")
    n = spec.n
    Y = np.asarray(x, dtype=float).copy()
    M = np.eye(n)
    T2 = np.zeros((n, n, n)) if order >= 2 else None
    T3 = np.zeros((n, n, n, n)) if order >= 3 else None
    h = t / steps
    state = (Y, M, T2, T3)

    def add(s, k, fac):
        return tuple(
            None if a is None else a + fac * b for a, b in zip(s, k)
        )

    for _ in range(steps):
        k1 = _flow_rhs(spec, state, order)
        k2 = _flow_rhs(spec, add(state, k1, h / 2), order)
        k3 = _flow_rhs(spec, add(state, k2, h / 2), order)
        k4 = _flow_rhs(spec, add(state, k3, h), order)
        state = tuple(
            None
            if a is None
            else a + (h / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(state, k1, k2, k3, k4)
        )
    Y, M, T2, T3 = state
    return FlowState(Y=Y, eta1=M, eta2=T2, eta3=T3)


def variation_flow_along_path(spec: OperatorSpec, bundle: PathBundle) -> np.ndarray:
    """First-variation matrix at t_end, integrated along the bundle's X path.

    Uses the degree-4 truncated exponential of (A + DF(X_k)) dt per step,
    which keeps the Gronwall bound exp((||A|| + ||DF||_0) t) valid for the
    discrete product.
    """
    dt = bundle.grid.dt
    eta = np.eye(spec.n)
    for k in range(bundle.grid.steps):
        J = spec.A + spec.F.jacobian(bundle.X[k])
        step = np.eye(spec.n)
        term = np.eye(spec.n)
        for j in range(1, 5):
            term = (dt / j) * (J @ term)
            step = step + term
        eta = step @ eta
    return eta


def write_path_csv(bundles, fileobj):
    """Dump bundles as CSV: path_id, k, t, Z_1..Z_n, X_1..X_n, logPhi."""
    first = bundles[0]
    n = first.x0.shape[0]
    cols = ["path_id", "k", "t"]
    cols += [f"Z_{i}" for i in range(1, n + 1)]
    cols += [f"X_{i}" for i in range(1, n + 1)]
    cols.append("logPhi")
    fileobj.write(",".join(cols) + "\n")
    for b in bundles:
        times = b.grid.times
        for k in range(b.grid.steps + 1):
            row = [str(b.path_id), str(k), repr(float(times[k]))]
            row += [repr(float(v)) for v in b.Z[k]]
            row += [repr(float(v)) for v in b.X[k]]
            row.append(repr(float(b.log_phi[k])))
            fileobj.write(",".join(row) + "\n")
