"""Quantitative harness: exponent fits and scaling-law / ratio checks.

Every check returns CheckReport records that are reproducible bit-exactly
from the recorded seeds and budgets.  Exponent checks are two-sided
against the predicted power; boundedness and stability checks are
one-sided.  No check compares against an unquantified constant.  The
Schauder checks need F == 0: they solve for a cosine mixture in closed
form through ``cosine_propagator`` (and for a constant field exactly under
any drift), differ only in their per-field ratio and share one
budget-doubling stability report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveValue
from .gramian import _block_norm, gramian
from .holder import ScalarField, holder_norm
from .kalman import KalmanDecomposition
from .operators import OperatorSpec, matrix_exp
from .semigroup import (QuadratureScheme, _gauss_legendre, _resolvent_nodes, cosine_propagator,
                        default_steps)
from .simulate import deterministic_flow, simulate_endpoints

__all__ = [
    "ExponentFit",
    "CheckReport",
    "fit_exponent",
    "check_gramian_scaling",
    "check_exponential_blocks",
    "check_flow_moments",
    "check_schauder_ratio",
    "check_parabolic_schauder_ratio",
    "DET_SLOPE_TOL",
    "MC_SLOPE_TOL",
]

DET_SLOPE_TOL = 0.05
MC_SLOPE_TOL = 0.15
_VACUOUS_NORM = 1e-13


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    r2: float
    points: tuple


def fit_exponent(points) -> ExponentFit:
    """Least-squares slope of log(value) against log(t)."""
    pts = [(float(t), float(v)) for t, v in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.any(v <= 0.0):
        raise NonPositiveValue("all values must be positive for a log-log fit")
    if np.any(t <= 0.0):
        raise NonPositiveValue("all abscissae must be positive")
    lt = np.log(t)
    if np.ptp(lt) == 0.0:
        raise ValueError("degenerate fit: all abscissae equal")
    lv = np.log(v)
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = lv - (slope * lt + intercept)
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ExponentFit(slope=float(slope), r2=r2, points=tuple(pts))


@dataclass(frozen=True)
class CheckReport:
    name: str
    kind: str  # exponent | bound | stability | vacuous
    expected: float | None
    measured: float
    tolerance: float
    passed: bool
    provenance: dict = field(default_factory=dict)
    points: tuple = ()


def _fit_report(name, pts, expected, tol, provenance=None, kind="exponent"):
    """Log-log fit of ``pts``: an ``exponent`` passes within ``tol`` of
    ``expected``, a ``bound`` at a slope of at least ``expected - tol``."""
    fit = fit_exponent(pts)
    passed = (abs(fit.slope - expected) <= tol if kind == "exponent"
              else fit.slope >= expected - tol)
    return CheckReport(
        name=name,
        kind=kind,
        expected=float(expected),
        measured=fit.slope,
        tolerance=tol,
        passed=passed,
        provenance={"r2": fit.r2, **(provenance or {})},
        points=fit.points,
    )


def check_gramian_scaling(spec: OperatorSpec, dec: KalmanDecomposition, t_grid) -> list:
    """Whitened-direction slopes -(h+1/2) of |Q_t^{-1/2} e^{tA} e_i| and block
    root norms (2h+1)/2, from one Gramian, which holds e^{tA}, per t."""
    grams = [gramian(spec, float(t), dec) for t in t_grid]
    reports = []
    for i in range(1, spec.n + 1):
        h = dec.block_of_coordinate(i)
        pts = [(g.t, g.whitened_norm(g.exp[:, i - 1])) for g in grams]
        reports.append(_fit_report(f"whitened-direction i={i}", pts, -(h + 0.5), DET_SLOPE_TOL))
    for h in range(dec.k + 1):
        pts = [(g.t, g.block_sqrt_norm(h)) for g in grams]
        reports.append(_fit_report(f"block-sqrt-norm h={h}", pts, h + 0.5, DET_SLOPE_TOL))
    return reports


def check_exponential_blocks(spec: OperatorSpec, dec: KalmanDecomposition, s_grid) -> list:
    """Slopes of ||E_i e^{sA} E_h||: i - h for i > h, at least 1 for i < h,
    from one e^{sA} per s."""
    if dec.k == 0:
        return []  # no pair of distinct blocks
    s_grid = np.asarray(s_grid, dtype=float)
    exps = np.stack([matrix_exp(spec.A, float(s)) for s in s_grid])
    reports = []
    for i in range(dec.k + 1):
        for h in range(dec.k + 1):
            if i == h:
                continue
            pts = list(zip(s_grid, _block_norm(dec, exps, i, h).tolist()))
            name = f"exp-block i={i} h={h}"
            if max(v for _, v in pts) < _VACUOUS_NORM:
                reports.append(
                    CheckReport(name, "vacuous", None, 0.0, 0.0, True,
                                {"note": "block norm identically zero"})
                )
                continue
            reports.append(_fit_report(name, pts, max(i - h, 1), DET_SLOPE_TOL,
                                       kind="exponent" if i > h else "bound"))
    return reports


def check_flow_moments(
    spec: OperatorSpec,
    dec: KalmanDecomposition,
    q: float,
    t_grid,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> list:
    """Monte Carlo moments of the quasi-distance between the path X from the
    origin and the deterministic flow Y, stepped on the same grid by the
    same exponential-Euler step with zero noise: full norm slope q/2, block
    slopes q(2h+1)/2."""
    t_grid = np.asarray(t_grid, dtype=float)
    x = np.zeros(spec.n)
    full_pts = []
    block_pts = [[] for _ in range(dec.k + 1)]
    for t in t_grid:
        steps = default_steps(t)
        X = simulate_endpoints(spec, x, float(t), steps, seed, n_paths, threads=threads)
        Y = deterministic_flow(spec, x, float(t), steps)
        diff = X[0] - Y
        full_pts.append((t, float(np.mean(dec.quasi_norm(diff) ** q))))
        comps = dec.block_components(diff)
        for h in range(dec.k + 1):
            block_pts[h].append((t, float(np.mean(comps[:, h] ** q))))
    prov = {"seed": seed, "n_paths": n_paths, "q": q}
    fits = [(f"flow-moment full q={q:g}", full_pts, q / 2.0)] + [
        (f"flow-moment block h={h} q={q:g}", block_pts[h], q * (2 * h + 1) / 2.0)
        for h in range(dec.k + 1)]
    return [_fit_report(name, pts, expected, MC_SLOPE_TOL, prov)
            for name, pts, expected in fits]


# --- Schauder ratio stability ------------------------------------------------


def _stability_report(name, ratio, n_fields, budget, seed, **provenance):
    """Budget-doubling stability of the worst sampled ratio over a family:
    ``ratio(j, b)`` is field j's ratio at Hoelder budget b as a pair
    (numerator, denominator), the worst is taken at ``budget`` and at twice
    it, and the check passes when the two differ by a factor below 2.  An
    empty family, or a field whose denominator norm is zero, has no ratio."""
    if n_fields < 1:
        raise ValueError("a Schauder ratio needs a non-empty family of fields")

    def ratios(b):
        pairs = [ratio(j, b) for j in range(n_fields)]
        if any(den <= 0.0 for _, den in pairs):
            raise ValueError("a field of zero Hoelder norm has no Schauder ratio")
        return [num / den for num, den in pairs]

    base, doubled = ratios(budget), ratios(2 * budget)
    r1, r2 = max(base), max(doubled)
    factor = max(r1 / r2, r2 / r1)
    return CheckReport(
        name=name,
        kind="stability",
        expected=2.0,
        measured=factor,
        tolerance=0.0,
        passed=math.isfinite(factor) and factor < 2.0,
        provenance={"seed": seed, "budget": budget, **provenance,
                    "ratios_base": base, "ratios_doubled": doubled},
    )


def _resolvent_field(spec, f, lam, scheme):
    """u = resolvent(f): exactly c / lam for a constant field under any
    drift (P_t 1 = 1), else the closed-form cosine sum, which needs F == 0
    and a cosine mixture (a ValueError otherwise)."""
    if f.waves is not None and not f.waves.any():
        return ScalarField.constant(f.coeffs.sum() / lam, spec.n, box=f.box)
    return cosine_propagator(spec, f, *_resolvent_nodes(lam, scheme))


def check_schauder_ratio(
    spec: OperatorSpec,
    dec: KalmanDecomposition,
    family,
    theta: float,
    lam: float,
    budget: int,
    seed: int,
    scheme: QuadratureScheme,
) -> CheckReport:
    """Stability of the sampled-surrogate Schauder ratio
    ||u||_{2+theta,d} / ||f||_{theta,d} under budget doubling.

    Requires F == 0 and cosine mixtures, or constant fields under any drift.
    The reported norms are lower-bound surrogates, so this is a
    boundedness/stability check, not a certified norm inequality.
    """
    resolvents = [_resolvent_field(spec, f, lam, scheme) for f in family]

    def ratio(j, b):
        return (holder_norm(resolvents[j], 2.0 + theta, dec, b, seed),
                holder_norm(family[j], theta, dec, b, seed))

    return _stability_report(f"schauder-ratio theta={theta:g} lam={lam:g}", ratio,
                             len(family), budget, seed)


def check_parabolic_schauder_ratio(
    spec: OperatorSpec,
    dec: KalmanDecomposition,
    family,
    theta: float,
    t_grid,
    budget: int,
    seed: int,
) -> CheckReport:
    """Parabolic analogue with time-constant source H == f and g == f.

    Requires F == 0 and cosine-mixture fields (closed-form pipeline):
    v(t, x) = P_t g(x) + int_0^t P_s f(x) ds, the integral by 32-point
    Gauss-Legendre, built once per field and t for both budgets.  The
    ratio of a field is max_t |v_t|_{2+theta} / (|f|_{2+theta} + |f|_theta).
    """
    rules = [(t, *_gauss_legendre(np.array([0.0, t]), 32)) for t in map(float, t_grid)]
    cauchy = [[cosine_propagator(spec, f, [t, *s], [1.0, *w]) for t, s, w in rules]
              for f in family]

    def ratio(j, b):
        f = family[j]
        den = holder_norm(f, 2.0 + theta, dec, b, seed) + holder_norm(f, theta, dec, b, seed)
        return max(holder_norm(v, 2.0 + theta, dec, b, seed) for v in cauchy[j]), den

    return _stability_report(f"parabolic-schauder-ratio theta={theta:g}", ratio, len(family),
                             budget, seed, t_grid=list(map(float, t_grid)))
