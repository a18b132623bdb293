import collections
import math

import numpy as np
import pytest

from kolmotk import semigroup, simulate
from kolmotk import (
    DriftField,
    DriftTerm,
    OperatorSpec,
    QuadratureScheme,
    ScalarField,
    SingularGramian,
    cosine_propagator,
    derivative_estimate,
    elliptic_cosine_oracle_field,
    evaluate,
    matrix_exp,
    ou_cosine_expectation,
    solve_elliptic,
    solve_parabolic,
)

SPEC_OU = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                       F=DriftField())
SPEC_NL = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                       F=DriftField([DriftTerm(1, 0.8, [1.0, 0.5], 0.1)]))
X0 = np.array([0.2, -0.1])
COS = ScalarField.cosine([1.0, 0.5])


def test_evaluate_constant_field_is_exact():
    one = ScalarField.constant(1.0, 2)
    est = evaluate(SPEC_NL, one, 0.5, X0, 100, 0)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_evaluate_matches_gaussian_oracle():
    for t in (0.1, 0.5, 1.0):
        oracle = ou_cosine_expectation(SPEC_OU, COS.waves[0], t, X0)
        est = evaluate(SPEC_OU, COS, t, X0, 20000, 42)
        assert abs(est.mean - oracle) < 4.0 * est.stderr


def test_cosine_propagator_sums_single_term_oracles():
    w1, w2 = np.array([1.0, 0.5]), np.array([-2.0, 0.75])
    f = ScalarField.mixture([0.7, -1.3], [w1, w2])
    times, weights = [0.0, 0.2, 1.1], [0.5, 2.0, -0.25]
    u = cosine_propagator(SPEC_OU, f, times, weights)
    for x in (X0, np.array([-1.5, 0.8])):
        expected = sum(
            wt * (0.7 * ou_cosine_expectation(SPEC_OU, w1, t, x)
                  - 1.3 * ou_cosine_expectation(SPEC_OU, w2, t, x))
            if t > 0 else wt * float(f(x))
            for t, wt in zip(times, weights)
        )
        assert np.isclose(float(u(x)), expected, rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError):
        cosine_propagator(SPEC_NL, f, [0.5], [1.0])
    with pytest.raises(ValueError):
        cosine_propagator(SPEC_OU, ScalarField.from_callable(np.sin, 2), [0.5], [1.0])


@pytest.mark.parametrize("times, weights", [([0.5, 1.0], [1.0]), ([0.5], [1.0, 2.0])],
                         ids=["extra-time", "extra-weight"])
def test_cosine_propagator_needs_one_weight_per_time(times, weights):
    """A node without its weight is an error, not a term left out."""
    with pytest.raises(ValueError):
        cosine_propagator(SPEC_OU, COS, times, weights)


def test_mixture_gradient_matches_central_differences():
    f = ScalarField.mixture([0.7, -1.3, 2.0], [[1.0, 0.5], [-2.0, 0.75], [0.0, 0.0]])
    x = np.array([[0.3, -0.4], [1.2, 0.9]])
    h = 1e-6
    fd = np.stack([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(2)], axis=-1)
    assert np.allclose(f.grad(x), fd, rtol=1e-7, atol=1e-8)


def test_girsanov_agrees_with_direct():
    t = 0.5
    d = evaluate(SPEC_NL, COS, t, X0, 20000, 1, method="direct")
    g = evaluate(SPEC_NL, COS, t, X0, 20000, 2, method="girsanov")
    assert abs(d.mean - g.mean) < 3.0 * d.combined_stderr(g)


def test_girsanov_reduces_to_direct_without_drift():
    d = evaluate(SPEC_OU, COS, 0.3, X0, 500, 7, method="direct")
    g = evaluate(SPEC_OU, COS, 0.3, X0, 500, 7, method="girsanov")
    assert d.mean == g.mean


def test_evaluate_validation():
    with pytest.raises(SingularGramian):
        evaluate(SPEC_OU, COS, 1e-5, X0, 100, 0)
    with pytest.raises(ValueError):
        evaluate(SPEC_OU, COS, 0.5, X0, 1, 0)
    with pytest.raises(ValueError):
        evaluate(SPEC_OU, COS, 0.5, X0, 100, 0, method="nope")
    # a negative path offset would wrap the stream's counter, with or without drift
    for spec in (SPEC_OU, SPEC_NL):
        for method in ("direct", "girsanov"):
            with pytest.raises(ValueError, match="path indices must be >= 0"):
                evaluate(spec, COS, 0.5, X0, 10, 3, method=method, steps=8, path_offset=-1)


def oracle_gradient(t, x):
    """Gradient of P_t cos-field for the OU case, from the closed form."""
    w = COS.waves[0]
    from kolmotk import gramian

    Qt = gramian(SPEC_OU, t).matrix
    wt = matrix_exp(SPEC_OU.A, t).T @ w
    return -math.exp(-0.5 * float(w @ Qt @ w)) * math.sin(float(wt @ x)) * wt


def test_first_derivative_both_methods():
    t = 0.3
    exact = oracle_gradient(t, X0)
    for coord in (1, 2):
        fd = derivative_estimate(SPEC_OU, COS, t, X0, (coord,), 40000, 3, method="fd")
        pw = derivative_estimate(SPEC_OU, COS, t, X0, (coord,), 40000, 3, method="pathwise")
        assert abs(fd.mean - exact[coord - 1]) < 4.0 * fd.stderr + 1e-3
        assert abs(pw.mean - exact[coord - 1]) < 4.0 * pw.stderr + 1e-3


def test_second_derivative_fd():
    t = 0.3
    w = COS.waves[0]
    from kolmotk import gramian

    Qt = gramian(SPEC_OU, t).matrix
    wt = matrix_exp(SPEC_OU.A, t).T @ w
    exact = -math.exp(-0.5 * float(w @ Qt @ w)) * math.cos(float(wt @ X0)) * wt[0] ** 2
    est = derivative_estimate(SPEC_OU, COS, t, X0, (1, 1), 40000, 3)
    assert abs(est.mean - exact) < 4.0 * est.stderr + 5e-3


def test_derivative_validation():
    with pytest.raises(ValueError):
        derivative_estimate(SPEC_OU, COS, 0.3, X0, (), 100, 0)
    with pytest.raises(ValueError):
        derivative_estimate(SPEC_OU, COS, 0.3, X0, (1, 1, 1, 1), 100, 0)
    with pytest.raises(ValueError):
        derivative_estimate(SPEC_OU, COS, 0.3, X0, (1, 2), 100, 0, method="pathwise")
    with pytest.raises(ValueError, match="unknown method 'pathwse'"):
        derivative_estimate(SPEC_OU, COS, 0.3, X0, (1,), 100, 0, method="pathwse")
    for method in ("fd", "pathwise"):  # coordinates are 1..n
        for multi_index in [(0,), (3,)]:
            with pytest.raises(ValueError, match="coordinates must be in 1..2"):
                derivative_estimate(SPEC_OU, COS, 0.3, X0, multi_index, 100, 0, method=method)
    with pytest.raises(ValueError, match="coordinates must be in 1..2"):
        derivative_estimate(SPEC_OU, COS, 0.3, X0, (1, 0), 100, 0, eps=0.01)
    for method in ("fd", "pathwise"):  # one path has no stderr, as in evaluate
        with pytest.raises(ValueError, match="budget >= 2"):
            derivative_estimate(SPEC_OU, COS, 0.3, X0, (1,), 1, 0, method=method)
    with pytest.raises(SingularGramian):
        derivative_estimate(SPEC_OU, COS, 1e-5, X0, (1,), 100, 0)
    with pytest.raises(ValueError, match="needs a field gradient"):
        derivative_estimate(SPEC_OU, ScalarField.from_callable(np.cos, 2), 0.3, X0, (1,), 100, 0,
                            method="pathwise")
    for eps in (0.0, -0.01, float("nan"), float("inf")):  # a stencil step is finite and positive
        for spec in (SPEC_OU, SPEC_NL):
            with pytest.raises(ValueError, match="eps must be finite and positive"):
                derivative_estimate(spec, COS, 0.3, X0, (1, 2), 100, 0, eps=eps)


def test_quadrature_scheme_build():
    s = QuadratureScheme.build(2.0, 1.0, tol=1e-5)
    assert s.t_min < s.t_max
    assert s.tail_bound < 1e-5
    ts, ws = s.nodes()
    assert np.all(np.diff(ts) > 0)
    # the scheme integrates e^{-lam t} over [t_min, t_max] accurately
    val = float(np.sum(ws * np.exp(-2.0 * ts)))
    exact = (math.exp(-2.0 * s.t_min) - math.exp(-2.0 * s.t_max)) / 2.0
    assert np.isclose(val, exact, rtol=1e-8)
    with pytest.raises(ValueError):
        QuadratureScheme.build(0.0, 1.0)


def test_elliptic_constant_solution():
    one = ScalarField.constant(1.0, 2)
    for lam in (0.5, 2.0):
        scheme = QuadratureScheme.build(lam, 1.0, paths_per_node=200)
        u = solve_elliptic(SPEC_NL, one, lam, X0, scheme, 5)
        assert abs(u.mean - 1.0 / lam) < 4.0 * u.stderr + 2.0 * scheme.tail_bound + 1e-6


def test_elliptic_matches_cosine_oracle():
    lam = 1.0
    scheme = QuadratureScheme.build(lam, 1.0, paths_per_node=2000)
    u = solve_elliptic(SPEC_OU, COS, lam, X0, scheme, 5)
    oracle = elliptic_cosine_oracle_field(SPEC_OU, COS.waves[0], lam, scheme)
    assert abs(u.mean - float(oracle(X0[None, :])[0])) < 4.0 * u.stderr


def test_parabolic_trivial_solution():
    zero = ScalarField.constant(0.0, 2)
    one = ScalarField.constant(1.0, 2)
    scheme = QuadratureScheme.build(1.0, 1.0, paths_per_node=200)
    for t in (0.3, 0.7):
        v = solve_parabolic(SPEC_NL, zero, lambda s: one, t, X0, scheme, 5)
        assert abs(v.mean - t) < 4.0 * v.stderr + 1e-9


def test_parabolic_matches_cosine_oracle_without_source():
    scheme = QuadratureScheme.build(1.0, 1.0, paths_per_node=20000)
    t = 0.5
    v = solve_parabolic(SPEC_OU, COS, None, t, X0, scheme, 5)
    oracle = ou_cosine_expectation(SPEC_OU, COS.waves[0], t, X0)
    assert abs(v.mean - oracle) < 4.0 * v.stderr


def test_solvers_take_one_path_block_per_node(monkeypatch):
    """Both solvers sum their nodes through one loop: the t == 0 node is
    exact and costs no evaluate call, every other node reads the next block
    of paths_per_node paths, and the parabolic P_t g node comes first."""
    calls = []

    def recorded(spec, f, t, x, budget, seed, path_offset=0, threads=1):
        calls.append((t, path_offset))
        return semigroup.MCEstimate(1.0, 0.0, budget, seed, "direct")

    monkeypatch.setattr(semigroup, "evaluate", recorded)
    p = 7
    scheme = QuadratureScheme.build(1.0, 1.0, tol=1e-2, paths_per_node=p)
    u = solve_elliptic(SPEC_NL, COS, 1.0, X0, scheme, 3)
    assert [off for _, off in calls] == [j * p for j in range(len(scheme.nodes()[0]))]
    assert all(t > 0.0 for t, _ in calls)
    assert u.n_paths == len(calls) * p
    calls.clear()
    t = 0.5
    one = ScalarField.constant(1.0, 2)
    v = solve_parabolic(SPEC_NL, COS, lambda s: one, t, X0, scheme, 3)
    assert calls[0] == (t, 0)
    assert [off for _, off in calls] == [j * p for j in range(2 * scheme.nodes_per_panel + 1)]
    assert all(t > 0.0 for t, _ in calls)
    assert v.n_paths == len(calls) * p


def test_oracles_require_zero_drift():
    with pytest.raises(ValueError):
        ou_cosine_expectation(SPEC_NL, COS.waves[0], 0.5, X0)


def test_each_method_steps_only_its_own_paths(monkeypatch):
    """direct reads X from simulate_endpoints only, girsanov reads Z and
    log_phi from girsanov_endpoints only."""
    calls = collections.Counter()
    for name in ("simulate_endpoints", "girsanov_endpoints"):
        def counted(*args, _name=name, _fn=getattr(semigroup, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(semigroup, name, counted)
    evaluate(SPEC_NL, COS, 0.2, X0, 50, 3, method="direct")
    assert calls == {"simulate_endpoints": 1}
    calls.clear()
    evaluate(SPEC_NL, COS, 0.2, X0, 50, 3, method="girsanov")
    assert calls == {"girsanov_endpoints": 1}


def test_zero_drift_ignores_steps_and_threads():
    """F == 0 is sampled exactly: no step grid, no thread chunking, and the
    Girsanov weight is identically one."""
    runs = [evaluate(SPEC_OU, COS, 0.3, X0, 5000, 11, method=m, steps=s, threads=th)
            for m in ("direct", "girsanov") for s in (None, 3, 500) for th in (1, 4)]
    assert len({(e.mean, e.stderr) for e in runs}) == 1
    for method, multi_index in (("fd", (1, 2)), ("fd", (2, 2, 2)), ("pathwise", (2,))):
        ests = {derivative_estimate(SPEC_OU, COS, 0.3, X0, multi_index, 5000, 12,
                                    method=method, threads=th)
                for th in (1, 4)}
        assert len(ests) == 1


def test_zero_drift_path_offset_extends_without_replay():
    """F == 0 paths [0, 2m) are the paths of two calls at path_offset 0 and
    m, for n = 2 and n = 3 (an odd path block splits Box-Muller pairs)."""
    spec3 = OperatorSpec(n=3, p_tilde=1, Q0=[[1.0]],
                         A=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], F=DriftField())
    m = 37
    for spec in (SPEC_OU, spec3):
        seen = []
        f = ScalarField.from_callable(lambda X: seen.append(X) or X[..., 0], spec.n)
        runs = [evaluate(spec, f, 0.3, np.zeros(spec.n), b, 11, path_offset=off)
                for b, off in ((2 * m, 0), (m, 0), (m, m))]
        assert np.array_equal(seen[0], np.concatenate(seen[1:]))
        assert runs[0].mean == pytest.approx((runs[1].mean + runs[2].mean) / 2, rel=1e-12)


def test_fd_derivative_of_linear_field_shares_noise():
    """<a, X_t> has the derivative <a, e^{tA} e_i>; with one draw shared by
    both starts the difference quotient is the same on every path."""
    a = np.array([0.7, -1.3])
    linear = ScalarField.from_callable(lambda x: x @ a, 2)
    t = 0.4
    for i in (1, 2):
        est = derivative_estimate(SPEC_OU, linear, t, X0, (i,), 2000, 5)
        assert np.isclose(est.mean, a @ matrix_exp(SPEC_OU.A, t)[:, i - 1], rtol=1e-9)
        assert est.stderr < 1e-10


def _by_hand(spec, x, t, n_paths, seed, method, coord=0):
    """Mean and stderr of the per-path 2 g_K - g_{K/2}, stepped here on one
    draw of K rows through the private kernel: g_K on the rows, g_{K/2}
    on their pair sums, Girsanov's Z with no drift."""
    K = semigroup._pair_steps(t)
    dW = simulate.brownian_increments(seed, range(n_paths), K, spec.p_tilde, t / K)
    g = []
    for k, dw in ((K, dW), (K // 2, dW[0::2] + dW[1::2])):
        dt, eAdt, blocks = simulate._stepping(spec, t, k, dw)
        X, logphi = np.tile(x, (n_paths, 1)), 0.0
        if method == "girsanov":
            for d, noise in blocks:
                Zs = [X]
                for X, _ in simulate._x_steps(DriftField(), X, dt, eAdt, noise, False):
                    Zs.append(X)
                G = spec.girsanov_noise(np.stack(Zs[:-1])[:, None])
                logphi = logphi + simulate._log_weight(G, d, dt)
            g.append(COS(X) * np.exp(logphi[0]))
            continue
        for X, V in simulate._x_steps(spec.F, X, dt, eAdt, (dx for _, nz in blocks for dx in nz),
                                      method == "pathwise"):
            pass
        if method == "direct":
            g.append(COS(X))
        else:
            eta = V.reshape(n_paths, spec.n, spec.n).swapaxes(1, 2)
            g.append(np.einsum("pn,pn->p", COS.grad(X), eta[:, :, coord]))
    v = 2.0 * g[0] - g[1]
    return v.mean(), v.std(ddof=1) / math.sqrt(n_paths)


@pytest.mark.parametrize("method", ["direct", "girsanov", "pathwise"])
def test_drifted_default_extrapolates_a_coupled_pair(method):
    """Without steps, a drifted estimate is the mean of the per-path values
    2 g_K - g_{K/2}, and its stderr is theirs, bitwise."""
    t, n_paths, seed = 0.4, 700, 9
    if method == "pathwise":
        est = derivative_estimate(SPEC_NL, COS, t, X0, (2,), n_paths, seed, method="pathwise")
    else:
        est = evaluate(SPEC_NL, COS, t, X0, n_paths, seed, method=method)
    assert (est.mean, est.stderr) == _by_hand(SPEC_NL, X0, t, n_paths, seed, method, coord=1)


def test_drifted_default_independent_of_threads_and_offsets():
    """The extrapolated estimates are bitwise the same at threads 1 and 8,
    and paths 0..99 then 100..199 are the paths of one run of 200, at both
    levels of the pair."""
    runs = {th: [evaluate(SPEC_NL, COS, 0.3, X0, 9000, 5, method=m, threads=th)
                 for m in ("direct", "girsanov")]
            + [derivative_estimate(SPEC_NL, COS, 0.3, X0, mi, 9000, 5, method=m, threads=th)
               for m, mi in (("pathwise", (1,)), ("fd", (1, 2)))]
            for th in (1, 8)}
    assert runs[1] == runs[8]
    seen = []
    f = ScalarField.from_callable(lambda X: seen.append(X) or np.cos(X[..., 0]), 2)
    for method in ("direct", "girsanov"):
        seen.clear()
        ests = [evaluate(SPEC_NL, f, 0.3, X0, b, 11, method=method, path_offset=off)
                for b, off in ((200, 0), (100, 0), (100, 100))]
        whole, first, second = seen[:2], seen[2:4], seen[4:]
        for level in (0, 1):  # the fine run, then the coarse one
            assert np.array_equal(whole[level], np.concatenate([first[level], second[level]]))
        assert ests[0].mean == pytest.approx((ests[1].mean + ests[2].mean) / 2, rel=1e-12)


def test_explicit_steps_keep_the_plain_estimator():
    """An explicit step count runs one plain exponential-Euler estimate: these
    are the values the library gave before the extrapolated default."""
    ests = [evaluate(SPEC_NL, COS, 0.3, X0, 300, 5, method=m, steps=40)
            for m in ("direct", "girsanov")]
    assert [(e.mean.hex(), e.stderr.hex()) for e in ests] == [
        ("0x1.8ddb249c310b8p-1", "0x1.0481c172f6b02p-6"),
        ("0x1.8bbc5f7bb1cfdp-1", "0x1.77ad4f4877b04p-7"),
    ]
