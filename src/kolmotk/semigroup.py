"""Monte Carlo evaluation of the diffusion semigroup, its spatial
derivatives, and the probabilistic elliptic/parabolic solvers.

P_t f(x) is estimated either directly, as the mean of f over endpoints of
the full path, or by Girsanov reweighting, as the mean of f over linear
endpoints weighted with the exponential martingale density; each reads
its endpoints from the stepper that advances only those paths
(``simulate_endpoints`` or ``girsanov_endpoints``).  Derivatives
use common-random-number finite differences: every shifted start rides the
same Brownian increments, so the difference quotient variance stays
bounded as the step shrinks.  With drift and no ``steps``, an estimate
is the Talay-Tubaro extrapolation 2 g_K - g_{K/2} of the first-order
exponential-Euler scheme, from a fine run of K = ``_pair_steps(t)`` steps
and a coarse run on the pair-summed increments of the same draw; its
stderr is that of the per-path values.  An explicit ``steps`` of
``evaluate`` runs the plain estimator.  When F == 0 the endpoints are
drawn from their exact Gaussian law instead of stepped, and
``cosine_propagator`` maps a cosine mixture through P_t in closed form:
every zero-drift oracle is that map followed by a quadrature sum.  Both
solvers are one node sum, sum_j w_j P_{t_j} f_j(x), in which every node
with t > 0 reads its own block of paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularGramian
from .gramian import TMIN, _law
from .holder import ScalarField
from .operators import OperatorSpec
from .simulate import _Pair, _exact_endpoints, girsanov_endpoints, simulate_endpoints

__all__ = [
    "MCEstimate",
    "QuadratureScheme",
    "evaluate",
    "derivative_estimate",
    "solve_elliptic",
    "solve_parabolic",
    "cosine_propagator",
    "ou_cosine_expectation",
    "elliptic_cosine_oracle_field",
    "default_steps",
]


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_paths: int
    seed: int
    method: str

    def combined_stderr(self, other: "MCEstimate") -> float:
        return math.hypot(self.stderr, other.stderr)


def default_steps(t: float) -> int:
    return max(32, int(math.ceil(t / 1e-3)))


def _pair_steps(t: float) -> int:
    """Fine steps K of the extrapolated pair: even, with K/2 >= 16 and
    dt = t/K at most 1/192, where its bias is below that of
    ``default_steps`` on every measured case."""
    return 2 * max(16, math.ceil(96 * t))


def _estimate(values, method, spec, x0s, t, steps, seed, n_paths, path_offset=0, threads=1):
    """``MCEstimate`` labelled ``method`` of the per-path values that
    ``values`` maps the endpoints of the starts x0s (m, n) to: Z and log_phi
    from ``girsanov_endpoints`` for ``"girsanov"``, X and eta from
    ``simulate_endpoints`` for ``"pathwise"``, and X alone otherwise.  For
    F == 0 they are drawn by ``_exact_endpoints``, log_phi = 0, and
    ``steps`` is ignored.  With ``steps`` None on a drifted operator the
    values are the Talay-Tubaro extrapolation 2 g_K - g_{K/2} of a
    first-order scheme: g_K on K = ``_pair_steps(t)`` steps and g_{K/2} on
    the pair-summed increments of the same draw.  Every estimate's budget
    and t are checked here."""
    if n_paths < 2:
        raise ValueError("budget >= 2")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if t < TMIN:
        raise SingularGramian(f"t={t:g} below the minimum semigroup scale {TMIN:g}")
    x0s = np.atleast_2d(x0s)
    K = _Pair(_pair_steps(t)) if steps is None and not spec.F.is_zero else steps
    if spec.F.is_zero:
        out = _exact_endpoints(spec, x0s, t, seed, n_paths, path_offset, method == "pathwise")
        if method == "girsanov":
            out += (np.zeros(out[0].shape[:2]),)
    elif method == "girsanov":
        out = girsanov_endpoints(spec, x0s, t, K, seed, n_paths, path_offset=path_offset,
                                 threads=threads)
    else:
        out = simulate_endpoints(spec, x0s, t, K, seed, n_paths, path_offset=path_offset,
                                 threads=threads, with_variation=method == "pathwise")
        out = out if method == "pathwise" else (out,)
    if isinstance(K, _Pair):
        m = len(x0s)
        v = 2.0 * values(tuple(a[:m] for a in out)) - values(tuple(a[m:] for a in out))
    else:
        v = values(out)
    v = np.asarray(v, dtype=float)
    return MCEstimate(float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size)), n_paths,
                      int(seed), method)


def evaluate(
    spec: OperatorSpec,
    f: ScalarField,
    t: float,
    x,
    budget: int,
    seed: int,
    method: str = "direct",
    steps: int | None = None,
    path_offset: int = 0,
    threads: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of P_t f(x).  With drift, ``steps`` None gives
    the extrapolated pair 2 g_K - g_{K/2} (K = ``_pair_steps(t)``), with
    the stderr of its per-path values, and an explicit ``steps`` the plain
    estimate on that grid.  For F == 0 the endpoints are drawn exactly
    from their Gaussian law and ``steps`` is ignored."""
    if method not in ("direct", "girsanov"):
        raise ValueError(f"unknown method {method!r}")

    def values(out):
        return f(out[0][0]) if method == "direct" else f(out[0][0]) * np.exp(out[1][0])

    return _estimate(values, method, spec, np.asarray(x, dtype=float), t, steps, seed, budget,
                     path_offset, threads)


# --- derivatives ------------------------------------------------------------

_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def _default_eps(spec: OperatorSpec, t: float, coord: int) -> float:
    """max(1e-3, t^(h + 1/2) / 10) for the block h of ``coord``.  A t < 0,
    which ``_estimate`` rejects after this, gets 1e-3, not a complex power."""
    h = spec.decomposition().block_of_coordinate(coord)
    return max(1e-3, max(t, 0.0) ** (h + 0.5) / 10.0)


def derivative_estimate(
    spec: OperatorSpec,
    f: ScalarField,
    t: float,
    x,
    multi_index,
    budget: int,
    seed: int,
    eps: float | None = None,
    method: str = "fd",
    threads: int = 1,
) -> MCEstimate:
    """Spatial derivative of P_t f at x for a multi-index of 1-based
    coordinates, order at most 3.

    ``fd``: central differences with shared noise across the shifted
    starts, of a finite positive step ``eps`` per coordinate (by default
    ``_default_eps``).  ``pathwise``: first order only,
    E[<grad f(X_t), eta_i>] using the variation flow (requires ``f.grad``),
    which is the exact derivative of the exponential-Euler step
    e^{dtA}(I + dt DF(X)); its norm stays below exp((||A|| + ||DF||) t),
    because each factor is at most e^{dt(||A|| + ||DF||)}.  With drift,
    either method gives its extrapolated pair 2 g_K - g_{K/2}, as in
    ``evaluate``.  For F == 0 the endpoints are drawn exactly, one Gaussian
    per path shared by every start, and the variation flow is e^{tA}.
    """
    multi_index = tuple(int(i) for i in multi_index)
    if not (1 <= len(multi_index) <= 3):
        raise ValueError("multi-index order must be 1..3")
    if not all(1 <= i <= spec.n for i in multi_index):
        raise ValueError(f"multi-index coordinates must be in 1..{spec.n}")
    if method not in ("fd", "pathwise"):
        raise ValueError(f"unknown method {method!r}")
    if eps is not None and not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    x = np.asarray(x, dtype=float)
    n = spec.n

    if method == "pathwise":
        if len(multi_index) != 1:
            raise ValueError("pathwise estimator supports first derivatives only")
        if f.grad is None:
            raise ValueError("pathwise estimator needs a field gradient")

        def along_eta(out):
            X, eta = out
            return np.einsum("pn,pn->p", f.grad(X[0]), eta[0][:, :, multi_index[0] - 1])

        return _estimate(along_eta, "pathwise", spec, x, t, None, seed, budget, threads=threads)

    # group repeated coordinates into per-coordinate derivative orders
    orders: dict[int, int] = {}
    for i in multi_index:
        orders[i] = orders.get(i, 0) + 1
    # tensor-product stencil over the involved coordinates
    points = [(np.zeros(n), 1.0)]
    for coord, order in sorted(orders.items()):
        e = eps if eps is not None else _default_eps(spec, t, coord)
        new = []
        for shift, weight in points:
            for off, w in _STENCILS[order]:
                sh = shift.copy()
                sh[coord - 1] += off * e
                new.append((sh, weight * w / e**order))
        points = new
    starts = np.stack([x + sh for sh, _ in points])
    weights = np.array([w for _, w in points])
    return _estimate(lambda out: np.tensordot(weights, f(out[0]), axes=(0, 0)), "fd",
                     spec, starts, t, None, seed, budget, threads=threads)


# --- quadrature schemes and solvers ----------------------------------------


@dataclass(frozen=True)
class QuadratureScheme:
    """Composite Gauss-Legendre layout in time for the resolvent integral."""

    t_min: float
    t_max: float
    panels: np.ndarray  # increasing boundaries, panels[0] == t_min
    nodes_per_panel: int
    paths_per_node: int
    tail_bound: float

    @classmethod
    def build(
        cls,
        lam: float,
        f_sup: float,
        tol: float = 1e-4,
        nodes_per_panel: int = 6,
        paths_per_node: int = 1000,
        panels_per_decade: int = 2,
    ):
        """Log-spaced panels from TMIN to a tail-bounded horizon."""
        if not (0.0 < lam < math.inf and 0.0 < tol < math.inf and 0.0 <= f_sup < math.inf):
            raise ValueError(f"lambda and tol must be finite and positive and f_sup finite and "
                             f">= 0, got {lam!r}, {tol!r}, {f_sup!r}")
        t_max = max(1.0, math.log(max(f_sup, tol) / (lam * tol)) / lam)
        n_panels = max(1, int(math.ceil(panels_per_decade * math.log10(t_max / TMIN))))
        bounds = np.geomspace(TMIN, t_max, n_panels + 1)
        tail = math.exp(-lam * t_max) / lam * f_sup
        return cls(
            t_min=TMIN,
            t_max=float(t_max),
            panels=bounds,
            nodes_per_panel=nodes_per_panel,
            paths_per_node=paths_per_node,
            tail_bound=tail,
        )

    def nodes(self):
        return _gauss_legendre(self.panels, self.nodes_per_panel)


def _gauss_legendre(bounds, m):
    """Nodes and weights of the m-point Gauss-Legendre rule on each interval
    of the increasing ``bounds``, concatenated."""
    xg, wg = np.polynomial.legendre.leggauss(m)
    a, half = bounds[:-1, None], 0.5 * np.diff(bounds)[:, None]
    return (a + half * (xg + 1.0)).ravel(), (half * wg).ravel()


def _node_sum(spec, fields, times, weights, x, paths, seed, threads, kind):
    """sum_j w_j P_{t_j} f_j(x) as one estimate.  A node at t == 0 adds
    w f(x) exactly; every other node is one ``evaluate`` on the next block
    of ``paths`` paths, so no two nodes share a path."""
    x = np.asarray(x, dtype=float)
    total, var, n_paths = 0.0, 0.0, 0
    for f, t, w in zip(fields, times, weights):
        if t == 0.0:
            total += w * float(f(x[None, :])[0])
            continue
        est = evaluate(spec, f, float(t), x, paths, seed, path_offset=n_paths, threads=threads)
        total += w * est.mean
        var += (w * est.stderr) ** 2
        n_paths += est.n_paths
    return MCEstimate(total, math.sqrt(var), n_paths, int(seed), kind)


def solve_elliptic(
    spec: OperatorSpec,
    f: ScalarField,
    lam: float,
    x,
    scheme: QuadratureScheme,
    seed: int,
    threads: int = 1,
) -> MCEstimate:
    """u(x) = int_0^inf e^{-lam t} P_t f(x) dt by node-wise Monte Carlo.

    The [0, t_min] head uses P_t f ~ f(x); the tail beyond t_max is
    dropped (bounded by ``scheme.tail_bound``).
    """
    ts, ws = _resolvent_nodes(lam, scheme)
    return _node_sum(spec, [f] * len(ts), ts, ws, x, scheme.paths_per_node, seed, threads,
                     "elliptic")


def solve_parabolic(
    spec: OperatorSpec,
    g: ScalarField,
    H,
    t: float,
    x,
    scheme: QuadratureScheme,
    seed: int,
    threads: int = 1,
) -> MCEstimate:
    """v(t, x) = P_t g(x) + int_0^t P_{t-s} H(s, .)(x) ds.

    ``H`` maps a time s to a ScalarField (pass None for H == 0).  Inner
    semigroup times are floored at the minimum scale: on (t - t_min, t]
    the integrand is approximated by H(t, x).
    """
    if not t > scheme.t_min:  # (t_min, t] must not be empty, nor t NaN
        raise SingularGramian(f"t={t:g} not above the minimum semigroup scale {scheme.t_min:g}")
    if t == math.inf:  # the source nodes t - s would be inf - inf
        raise ValueError(f"t must be finite, got {t!r}")
    fields, ts, ws = [g], [t], [1.0]
    if H is not None:
        ss, wg = _gauss_legendre(np.array([0.0, t - scheme.t_min]), scheme.nodes_per_panel * 2)
        fields += [H(float(s)) for s in ss] + [H(t)]
        ts += [*(t - ss), 0.0]
        ws += [*wg, scheme.t_min]
    return _node_sum(spec, fields, ts, ws, x, scheme.paths_per_node, seed, threads, "parabolic")


# --- closed-form oracles for the zero-drift case ----------------------------


def cosine_propagator(spec: OperatorSpec, f: ScalarField, times, weights) -> ScalarField:
    """sum_i weights[i] P_{t_i} f in closed form, for F == 0 and a cosine
    mixture f: P_t maps c cos(<w, .>) to c e^{-<Q_t w, w>/2} cos(<e^{tA'} w, .>),
    and t = 0 gives P_0 f = f.  A time t < 0 is a ValueError: the semigroup
    runs forward only, and there the factor e^{-<Q_t w, w>/2} exceeds 1.  So
    are a NaN or infinite time and times and weights of different lengths."""
    if not spec.F.is_zero:
        raise ValueError("oracle requires zero nonlinear drift")
    if f.waves is None:
        raise ValueError("oracle requires a cosine-mixture field")
    W = f.waves
    coeffs, waves = [], []
    for t, weight in zip(times, weights, strict=True):
        t = float(t)
        if not 0.0 <= t < math.inf:
            raise ValueError(f"P_t needs a finite t >= 0, got t={t:g}")
        if t == 0.0:
            eA, Qt = np.eye(spec.n), np.zeros((spec.n, spec.n))
        else:
            eA, Qt = _law(spec, t)
        coeffs.append(weight * f.coeffs * np.exp(-0.5 * np.einsum("jm,mn,jn->j", W, Qt, W)))
        waves.append(W @ eA)
    return ScalarField.mixture(np.concatenate(coeffs), np.vstack(waves), box=f.box)


def _resolvent_nodes(lam, scheme):
    """Times and weights of int_0^inf e^{-lam t} P_t dt on the scheme: the
    [0, t_min] head is taken at t = 0, then the Gauss-Legendre nodes."""
    ts, ws = scheme.nodes()
    head = (1.0 - math.exp(-lam * scheme.t_min)) / lam
    return np.concatenate([[0.0], ts]), np.concatenate([[head], ws * np.exp(-lam * ts)])


def ou_cosine_expectation(spec: OperatorSpec, w, t: float, x) -> float:
    """P_t [cos(<w, .>)](x) for F == 0:  e^{-<Q_t w, w>/2} cos(<w, e^{tA} x>)."""
    return float(cosine_propagator(spec, ScalarField.cosine(w), [t], [1.0])(x))


def elliptic_cosine_oracle_field(
    spec: OperatorSpec, w, lam: float, scheme: QuadratureScheme
) -> ScalarField:
    """Deterministic resolvent of the field cos(<w, .>) for F == 0, on the
    same quadrature as ``solve_elliptic``.

    Returns u as a closed-form cosine sum, cheap to evaluate anywhere;
    used as the no-Monte-Carlo pipeline in oracle checks.
    """
    return cosine_propagator(spec, ScalarField.cosine(w), *_resolvent_nodes(lam, scheme))
