"""The benchmark's workloads: request streams drawn from a seed, the
library calls each request makes, and the oracle or invariant each output
is checked against.

A workload object is built after ``kolmotk`` is imported; the module is
passed in so that a traced run calls the same, wrapped, bindings.  Request
``i`` draws its inputs from ``numpy.random.default_rng([seed, i, ...])``,
so the stream does not depend on how many requests a run reaches.  The
oracles use scipy directly and never call kolmotk.
"""

from __future__ import annotations

import cmath
import collections
import math
import time

import numpy as np
import scipy.linalg

from stats import binomial_limit, fd_starts, mc_path_steps, quadrature_path_steps

Z_MAX = 5.0  # z-score gate for Monte Carlo checks; see README.md
UNSTABLE_ALPHA = 1e-6  # false-alarm chance per run of the Schauder-rate gate

# --- independent closed forms for F == 0 (scipy only) --------------------------------------


def gaussian_law(A, Q, t):
    """e^{tA} and Q_t of the linear diffusion, by the Van Loan block
    exponential: X_t = e^{tA} x + N with N ~ N(0, Q_t)."""
    n = A.shape[0]
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = A
    H[:n, n:] = Q
    H[n:, n:] = -A.T
    E = scipy.linalg.expm(t * H)
    return E[:n, :n], E[:n, n:] @ E[:n, :n].T


def cosine_moments(terms, s2):
    """Mean and variance of sum_j c_j cos(psi_j + G) with G ~ N(0, s2).

    The sum equals |C| cos(arg C + G) with C = sum_j c_j exp(i psi_j), and
    E cos(psi + G) = exp(-s2/2) cos(psi), E cos^2(psi + G) =
    (1 + exp(-2 s2) cos(2 psi)) / 2."""
    C = sum(c * cmath.exp(1j * psi) for c, psi in terms)
    a, psi = abs(C), cmath.phase(C)
    mean = a * math.exp(-0.5 * s2) * math.cos(psi)
    var = 0.5 * a * a * (1.0 + math.exp(-2.0 * s2) * math.cos(2.0 * psi)) - mean * mean
    return mean, max(var, 0.0)


# central-difference stencils, (offset in eps, weight * eps**order)
STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def stencil(x, multi_index, eps):
    """(start, weight) pairs of the tensor-product difference quotient."""
    orders = {}
    for i in multi_index:
        orders[i] = orders.get(i, 0) + 1
    points = [(np.asarray(x, dtype=float), 1.0)]
    for coord, order in sorted(orders.items()):
        new = []
        for start, weight in points:
            for off, w in STENCILS[order]:
                s = start.copy()
                s[coord - 1] += off * eps
                new.append((s, weight * w / eps**order))
        points = new
    return points


def oracle_check(op, est, mean, sd):
    """An estimate against its exact mean and exact standard error: |z|
    below Z_MAX, and the reported stderr within a factor 3 of the exact one
    (error bars must follow from how the samples were drawn)."""
    if not (math.isfinite(est.mean) and math.isfinite(est.stderr) and sd > 0.0):
        return op, False, f"mean={est.mean!r} stderr={est.stderr!r} exact_sd={sd!r}"
    z = abs(est.mean - mean) / sd
    ratio = est.stderr / sd
    return (op, z < Z_MAX and 1 / 3 <= ratio <= 3.0,
            f"z={z:.2f} stderr/exact={ratio:.3f} mean={est.mean!r} ref={mean!r}")


def wave_vector(rng, n):
    """Cosine wave vector with components of size 0.5 to 1.5, random signs."""
    return (rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)).tolist()


def readme_2d(k, drift):
    """The README operator, with its tanh ridge term or with F == 0."""
    terms = [k.DriftTerm(1, 0.8, [1.0, 0.5], 0.1)] if drift else []
    return k.OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                          F=k.DriftField(terms))


def _chain(k, n, p, ridges=()):
    """Kalman chain: noise in the first p coordinates, A shifts each block
    of p coordinates into the next."""
    A = np.zeros((n, n))
    for i in range(p, n):
        A[i, i - p] = 1.0
    return k.OperatorSpec(n=n, p_tilde=p, Q0=np.eye(p), A=A, F=k.DriftField(ridges))


class Workload:
    """One request stream.  Subclasses define ``request``, ``run`` and
    ``check``; ``request(i, slot)`` draws request i as mix type ``slot``
    when one is given.  ``cycle`` is the period of the request mix and
    ``wall_requests`` (a multiple of it) the sequence timed as wall_s."""

    name = ""
    cycle = 1
    wall_requests = 0
    trace_requests = 0

    def __init__(self, k, seed):
        self.k = k
        self.seed = int(seed)
        self.tally = collections.Counter()  # informational counts, printed per run

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def slot(self, i):
        """Type index of request i: each block of ``cycle`` requests holds
        every type once, in a seeded order."""
        return self.rng(i // self.cycle, 1).permutation(self.cycle)[i % self.cycle]

    def timed(self, out, label, fn, *args, **kwargs):
        t0 = time.perf_counter()
        est = fn(*args, **kwargs)
        out.append((label, est, time.perf_counter() - t0))
        return est

    def warm_up(self):
        # the first type of the mix whatever the seed, so set-up does the same
        # work and leaves the allocator in the same state on every seed: the
        # peak RSS of gauss_oracle differs by 8 MB between a 2-D and a 3-D
        # first request
        self.run(self.request(0, slot=0))

    def final_checks(self):
        """Checks over all requests checked so far: (op, ok, detail)."""
        return []


class DriftMC(Workload):
    """Direct vs Girsanov evaluate pairs on drifted operators."""

    name = "drift_mc"
    cycle = 4
    wall_requests = 96
    trace_requests = 4
    # t is the README's; the paths are kept small enough for about 130
    # requests in 30 s, so the tail sits in the top third of the 2-D plus
    # pathwise mode (a quarter of all requests): at 1000 paths it sat in the
    # middle and spread 2.5 times as much (README.md)
    T = 0.5
    PATHS = 500

    def __init__(self, k, seed):
        super().__init__(k, seed)
        self.specs = {
            "readme-2d": readme_2d(k, drift=True),
            "chain-3d": _chain(k, 3, 1, [k.DriftTerm(1, 0.6, [1.0, -0.5, 0.25], 0.1),
                                         k.DriftTerm(1, -0.4, [0.5, 1.0, -1.0], -0.2)]),
        }
        for spec in self.specs.values():
            spec.decomposition()

    def request(self, i, slot=None):
        op = ("readme-2d", "chain-3d")[i % 2 if slot is None else slot]
        n = self.specs[op].n
        rng = self.rng(i)
        return {
            "i": i, "operator": op, "t": self.T, "paths": self.PATHS,
            "x": rng.uniform(-0.5, 0.5, n).tolist(),
            "w": wave_vector(rng, n),
            "seeds": rng.integers(2**32, size=3).tolist(),
            # every fourth request, on the 2-D operator so the median stays
            # inside the 3-D plain mode: 2-D plain < 3-D plain < 2-D + pathwise
            "pathwise_coord": int(rng.integers(1, n + 1)) if i % 4 == 2 else None,
        }

    def run(self, r):
        k, spec, out = self.k, self.specs[r["operator"]], []
        f = k.ScalarField.cosine(r["w"])
        s = r["seeds"]
        self.timed(out, "direct", k.evaluate, spec, f, r["t"], r["x"], r["paths"], s[0],
                   method="direct")
        self.timed(out, "girsanov", k.evaluate, spec, f, r["t"], r["x"], r["paths"], s[1],
                   method="girsanov")
        if r["pathwise_coord"] is not None:
            self.timed(out, "pathwise", k.derivative_estimate, spec, f, r["t"], r["x"],
                       (r["pathwise_coord"],), r["paths"], s[2], method="pathwise")
        return out

    def path_steps(self, r):
        return mc_path_steps(r["paths"], r["t"]) * (2 if r["pathwise_coord"] is None else 3)

    def check(self, r, out):
        est = {label: e for label, e, _ in out}
        d, g = est["direct"], est["girsanov"]
        se = d.combined_stderr(g)
        z = abs(d.mean - g.mean) / se if se > 0.0 else math.inf
        checks = [("direct-vs-girsanov", z < Z_MAX,
                   f"z={z:.2f} direct={d.mean!r} girsanov={g.mean!r}")]
        if "pathwise" in est:
            # |d_i P_t f| <= |grad f|_inf * |eta e_i| <= |w| exp((|A| + |DF|) t): the
            # truncated-exponential steps keep the Gronwall bound
            spec = self.specs[r["operator"]]
            bound = float(np.linalg.norm(r["w"])) * math.exp(
                (float(np.linalg.norm(spec.A, 2)) + spec.F.grad_bound) * r["t"])
            p = est["pathwise"]
            ok = math.isfinite(p.mean) and math.isfinite(p.stderr) and abs(p.mean) <= bound
            checks.append(("pathwise-gronwall", ok, f"mean={p.mean!r} bound={bound!r}"))
        return checks


class GaussOracle(Workload):
    """Zero-drift cases checked against closed-form cosine propagation."""

    name = "gauss_oracle"
    cycle = 6
    wall_requests = 60
    trace_requests = 6
    T = 0.5  # the README's horizon
    PATHS = 500  # as in drift_mc
    EPS = 0.01
    LAM = 1.0
    # a shortened resolvent quadrature (20 nodes to t_max = 4.6) keeps the
    # solve near 0.2 s; the library default (60 nodes to 9.2) takes 1 s
    SCHEME = dict(tol=1e-2, panels_per_decade=1, nodes_per_panel=4, paths_per_node=32)
    TYPES = tuple((op, order) for op in ("readme-2d", "chain-3d") for order in (1, 2, 3))

    def __init__(self, k, seed):
        super().__init__(k, seed)
        self.specs = {
            "readme-2d": readme_2d(k, drift=False),
            "chain-3d": _chain(k, 3, 1),
        }
        for spec in self.specs.values():
            spec.decomposition()
        self.scheme = k.QuadratureScheme.build(self.LAM, 1.0, **self.SCHEME)
        self.nodes = self.scheme.nodes()

    def request(self, i, slot=None):
        op, order = self.TYPES[self.slot(i) if slot is None else slot]
        n = self.specs[op].n
        rng = self.rng(i)
        return {
            "i": i, "operator": op, "t": self.T, "paths": self.PATHS, "eps": self.EPS,
            "x": rng.uniform(-0.5, 0.5, n).tolist(),
            "w": wave_vector(rng, n),
            "multi_index": sorted(int(c) for c in rng.integers(1, n + 1, size=order)),
            "seeds": rng.integers(2**32, size=3).tolist(),
        }

    def run(self, r):
        k, spec, out = self.k, self.specs[r["operator"]], []
        f = k.ScalarField.cosine(r["w"])
        x = np.asarray(r["x"])
        s = r["seeds"]
        self.timed(out, "evaluate", k.evaluate, spec, f, r["t"], x, r["paths"], s[0])
        self.timed(out, "derivative", k.derivative_estimate, spec, f, r["t"], x,
                   r["multi_index"], r["paths"], s[1], eps=r["eps"])
        self.timed(out, "solve", k.solve_elliptic, spec, f, self.LAM, x, self.scheme, s[2])
        return out

    def path_steps(self, r):
        return (mc_path_steps(r["paths"], r["t"])
                + mc_path_steps(r["paths"], r["t"], fd_starts(r["multi_index"]))
                + quadrature_path_steps(self.scheme.paths_per_node, self.nodes[0]))

    def check(self, r, out):
        spec = self.specs[r["operator"]]
        A, Q = np.asarray(spec.A), np.asarray(spec.Q)
        w, x, n = np.asarray(r["w"]), np.asarray(r["x"]), r["paths"]
        est = {label: e for label, e, _ in out}
        E, Qt = gaussian_law(A, Q, r["t"])
        s2 = float(w @ Qt @ w)
        mean, var = cosine_moments([(1.0, float(w @ E @ x))], s2)
        # shared noise: every start sees the same G = <w, N>
        d_mean, d_var = cosine_moments(
            [(c, float(w @ E @ p)) for p, c in stencil(x, r["multi_index"], r["eps"])], s2)
        # the solver's head term, then independent paths at each quadrature node
        lam = self.LAM
        s_mean = math.cos(float(w @ x)) * (1.0 - math.exp(-lam * self.scheme.t_min)) / lam
        s_var = 0.0
        for tq, wq in zip(*self.nodes):
            Eq, Qq = gaussian_law(A, Q, float(tq))
            m, v = cosine_moments([(1.0, float(w @ Eq @ x))], float(w @ Qq @ w))
            c = wq * math.exp(-lam * tq)
            s_mean += c * m
            s_var += c * c * v
        return [
            oracle_check("evaluate-oracle", est["evaluate"], mean, math.sqrt(var / n)),
            oracle_check("derivative-oracle", est["derivative"], d_mean, math.sqrt(d_var / n)),
            oracle_check("solve-oracle", est["solve"], s_mean,
                         math.sqrt(s_var / self.scheme.paths_per_node)),
        ]


class ScalingVerify(Workload):
    """Deterministic scaling-law and Schauder-ratio checks on Kalman chains."""

    name = "scaling_verify"
    cycle = 5
    wall_requests = 80
    trace_requests = 5
    T_GRID = np.geomspace(1e-4, 1e-1, 13)
    S_GRID = np.geomspace(1e-3, 1e-1, 9)
    THETA = 0.5
    LAM = 1.0
    HOLDER_BUDGET = 30
    # 8 of 400 verdicts came out unstable at budget 30; this is the 99%
    # upper confidence bound of that rate
    UNSTABLE_RATE = 0.043
    PARABOLIC_T = (0.5,)
    SCHEME = GaussOracle.SCHEME

    def __init__(self, k, seed):
        super().__init__(k, seed)
        self.specs = {
            "readme-2d": readme_2d(k, drift=False),
            "chain-3d": _chain(k, 3, 1),
            "chain-4d-p2": _chain(k, 4, 2),
            "chain-4d": _chain(k, 4, 1),
            "chain-5d-p2": _chain(k, 5, 2),
        }
        for spec in self.specs.values():
            spec.decomposition()
        self.scheme = k.QuadratureScheme.build(self.LAM, 1.0, **self.SCHEME)

    def request(self, i, slot=None):
        op = list(self.specs)[self.slot(i) if slot is None else slot]
        n = self.specs[op].n
        rng = self.rng(i)
        return {
            "i": i, "operator": op,
            "w": wave_vector(rng, n),
            "holder_seed": int(rng.integers(2**32)),
        }

    def run(self, r):
        k, spec, out = self.k, self.specs[r["operator"]], []
        f = k.ScalarField.cosine(r["w"])
        dec = self.timed(out, "decompose", k.decompose, spec)
        self.timed(out, "gramian_scaling", k.check_gramian_scaling, spec, dec, self.T_GRID)
        self.timed(out, "exponential_blocks", k.check_exponential_blocks, spec, dec, self.S_GRID)
        self.timed(out, "schauder_ratio", k.check_schauder_ratio, spec, dec, [f], self.THETA,
                   self.LAM, self.HOLDER_BUDGET, r["holder_seed"], scheme=self.scheme)
        self.timed(out, "parabolic_schauder", k.check_parabolic_schauder_ratio, spec, dec, [f],
                   self.THETA, self.PARABOLIC_T, self.HOLDER_BUDGET, r["holder_seed"])
        return out

    def path_steps(self, r):
        return 0

    def check(self, r, out):
        reports = []
        for label, result, _ in out[1:]:
            reports += result if isinstance(result, list) else [result]
        checks = []
        for rep in reports:
            if rep.kind != "stability":
                checks.append((rep.name, bool(rep.passed), f"measured={rep.measured!r}"))
                continue
            # The budget-doubling verdict of a sampled Hoelder surrogate is a
            # statistical test whose false-alarm rate falls only like 1/budget
            # (README.md), so each report is checked for finite values and
            # the rate of unstable verdicts is gated over the whole run.
            self.tally["schauder_verdicts"] += 1
            self.tally["schauder_unstable"] += not rep.passed
            ratios = [*rep.provenance.get("ratios_base", ()), *rep.provenance.get("ratios_doubled", ())]
            ok = math.isfinite(rep.measured) and all(math.isfinite(v) and v > 0.0 for v in ratios)
            checks.append((rep.name + " finite", ok, f"measured={rep.measured!r} ratios={ratios!r}"))
        return checks

    def final_checks(self):
        n, bad = self.tally["schauder_verdicts"], self.tally["schauder_unstable"]
        limit = binomial_limit(n, self.UNSTABLE_RATE, UNSTABLE_ALPHA)
        return [("schauder-unstable-rate", bad <= limit,
                 f"{bad} of {n} verdicts unstable, limit {limit} "
                 f"(rate {self.UNSTABLE_RATE}, false alarm {UNSTABLE_ALPHA:g} per run)")]


WORKLOADS = {w.name: w for w in (DriftMC, GaussOracle, ScalingVerify)}
