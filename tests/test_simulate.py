import itertools
import math

import numpy as np
import pytest

from kolmotk import (
    DriftField,
    DriftTerm,
    OperatorSpec,
    deterministic_flow,
    girsanov_endpoints,
    gramian,
    matrix_exp,
    sample_ou_endpoints,
    simulate_bundle,
    simulate_endpoints,
)
from kolmotk import simulate
from kolmotk.simulate import _EXACT, _ROW, _STEPPING, _Pair, _normals, brownian_increments

SPEC_OU = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                       F=DriftField())
DRIFT = DriftField([DriftTerm(1, 0.8, [1.0, 0.5], 0.1)])
SPEC_NL = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                       F=DRIFT)
# the Kalman chain of the drift_mc benchmark, two ridges on coordinate 1
SPEC_CHAIN = OperatorSpec(n=3, p_tilde=1, Q0=[[1.0]],
                          A=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                          F=DriftField([DriftTerm(1, 0.6, [1.0, -0.5, 0.25], 0.1),
                                        DriftTerm(1, -0.4, [0.5, 1.0, -1.0], -0.2)]))


def _exact_normals(seed, first, count):
    """Normals of the exact region, the xi that F == 0 estimates read."""
    return _normals(seed, _EXACT, first, count)[0]


def test_runs_reject_bad_grids():
    """Every stepping run takes at least one step to a finite t > 0: a
    negative, zero, NaN or infinite t would step backward, not at all or
    to NaN."""
    x = np.array([0.1, 0.2])
    for t, steps in ((0.3, 0), (0.0, 8), (-0.5, 8), (math.nan, 8), (math.inf, 8)):
        for run in (lambda: simulate_endpoints(SPEC_NL, x, t, steps, 1, 3),
                    lambda: girsanov_endpoints(SPEC_NL, x, t, steps, 1, 3),
                    lambda: simulate_bundle(SPEC_NL, x, t, steps, 1),
                    lambda: deterministic_flow(SPEC_NL, x, t, steps)):
            with pytest.raises(ValueError, match="steps >= 1"):
                run()


def test_exact_sampler_matches_gramian_moments():
    t = 0.5
    x = np.array([0.3, -0.2])
    rng = np.random.default_rng(8)
    Z = sample_ou_endpoints(SPEC_OU, x, t, 200000, rng)
    mean_exact = matrix_exp(SPEC_OU.A, t) @ x
    cov_exact = gramian(SPEC_OU, t).matrix
    assert np.allclose(Z.mean(axis=0), mean_exact, atol=4e-3)
    assert np.allclose(np.cov(Z.T), cov_exact, atol=8e-3)


def test_zero_drift_paths_coincide_and_weight_is_one():
    X = simulate_endpoints(SPEC_OU, np.zeros(2), 0.4, 64, 3, 500)
    Z, logphi = girsanov_endpoints(SPEC_OU, np.zeros(2), 0.4, 64, 3, 500)
    assert np.array_equal(Z, X)
    assert np.all(logphi == 0.0)


def test_thread_count_does_not_change_results():
    args = (SPEC_NL, np.zeros(2), 0.3, 32, 5, 9000)
    a = simulate_endpoints(*args, threads=1)
    b = simulate_endpoints(*args, threads=8)
    assert np.array_equal(a, b)


def test_path_offset_gives_disjoint_streams():
    a = simulate_endpoints(SPEC_OU, np.zeros(2), 0.3, 32, 5, 100)
    b = simulate_endpoints(SPEC_OU, np.zeros(2), 0.3, 32, 5, 100, path_offset=100)
    assert not np.allclose(a, b)
    # offsetting by 0..99 then 100..199 equals one run of 200
    c = simulate_endpoints(SPEC_OU, np.zeros(2), 0.3, 32, 5, 200)
    assert np.array_equal(np.concatenate([a, b], axis=1), c)


@pytest.mark.parametrize("stepper", [simulate_endpoints, girsanov_endpoints])
def test_drifted_steppers_independent_of_threads_and_offsets(stepper):
    """Each output of either stepper is the same at threads=1 and threads=8,
    and paths 0..99 then 100..199 equal one run of 200."""
    def outputs(*args, **kwargs):
        out = stepper(SPEC_NL, np.array([[0.1, -0.2], [0.0, 0.3]]), 0.3, 32, 5, *args, **kwargs)
        return out if isinstance(out, tuple) else (out,)

    for u, v in zip(outputs(9000, threads=1), outputs(9000, threads=8)):
        assert np.array_equal(u, v)
    for u, v, w in zip(outputs(100), outputs(100, path_offset=100), outputs(200)):
        assert np.array_equal(np.concatenate([u, v], axis=1), w)


def test_lone_path_log_weight_ignores_chunk_width():
    """A path alone in its chunk, or beside one other, gets the Z and
    log-weight it gets in a 50-path run, bitwise.  On a 1-D operator every
    product of a step is one multiplication, so no choice of BLAS kernel can
    move a bit of Z or G, and what is tested is the sum over the steps."""
    spec = OperatorSpec(n=1, p_tilde=1, Q0=[[1.3]], A=[[-0.4]],
                        F=DriftField([DriftTerm(1, 0.8, [1.0], 0.1)]))
    for m, steps in itertools.product((1, 3), (7, 64, 130, _Pair(96))):
        x0s = np.linspace(-0.3, 0.4, m)[:, None]
        Z, log_phi = girsanov_endpoints(spec, x0s, 0.5, steps, 5, 50)
        for j, w in ((0, 1), (17, 1), (49, 1), (3, 2), (30, 2)):
            Zj, log_phi_j = girsanov_endpoints(spec, x0s, 0.5, steps, 5, w, path_offset=j)
            assert np.array_equal(Zj, Z[:, j:j + w])
            assert np.array_equal(log_phi_j, log_phi[:, j:j + w])


def test_log_weight_sums_steps_in_order_at_any_width():
    """A column's block sum of log-weight increments is the same alone,
    beside one other column or among 50, with one or two noise coordinates."""
    rng = np.random.default_rng(4)
    for b, m, p in itertools.product((7, 64), (1, 3), (1, 2)):
        G, dw = rng.standard_normal((b, m, 50, p)), rng.standard_normal((b, 50, p))
        full = simulate._log_weight(G, dw, 0.01)
        for j, w in ((0, 1), (17, 1), (49, 1), (3, 2), (30, 2)):
            part = simulate._log_weight(G[:, :, j:j + w].copy(), dw[:, j:j + w].copy(), 0.01)
            assert np.array_equal(part, full[:, j:j + w])


@pytest.mark.parametrize("stepper", [simulate_endpoints, girsanov_endpoints])
def test_coupled_pair_rides_one_draw(stepper, monkeypatch):
    """Given a _Pair K, a stepper draws K rows once per chunk: the fine run
    steps them and the coarse run steps dW[0::2] + dW[1::2] of the same
    draw.  The fine half is the plain K-step run, and the coarse half stacks
    after it along the starts axis."""
    handed = []

    def recorded(eAS, dW, _fn=simulate._noise_blocks):
        handed.append(dW.copy())
        return _fn(eAS, dW)

    monkeypatch.setattr(simulate, "_noise_blocks", recorded)
    draws = []

    def drawn(*args):
        draws.append(brownian_increments(*args))
        return draws[-1]

    monkeypatch.setattr(simulate, "brownian_increments", drawn)
    starts, K, n_paths = np.array([[0.1, -0.2], [0.0, 0.3]]), 130, 5000
    pair = stepper(SPEC_NL, starts, 0.3, _Pair(K), 5, n_paths)
    assert len(draws) == 2 and len(handed) == 4  # two chunks, two runs each
    for dW, (fine, coarse) in zip(draws, (handed[:2], handed[2:])):
        assert dW.shape[0] == K
        assert np.array_equal(fine, dW)
        assert np.array_equal(coarse, dW[0::2] + dW[1::2])
    monkeypatch.undo()
    pair = pair if isinstance(pair, tuple) else (pair,)
    plain = stepper(SPEC_NL, starts, 0.3, K, 5, n_paths)
    plain = plain if isinstance(plain, tuple) else (plain,)
    for p, q in zip(pair, plain):
        assert p.shape[0] == 2 * len(starts)
        assert np.array_equal(p[:len(starts)], q)
        assert not np.allclose(p[len(starts):], q)


@pytest.mark.parametrize("stepper", [simulate_endpoints, girsanov_endpoints])
def test_steppers_reject_steps_below_one(stepper):
    """Also fewer than one path, which would leave no chunk to join; the
    noiseless flow needs steps >= 1 too."""
    with pytest.raises(ValueError, match="steps"):
        stepper(SPEC_NL, np.zeros(2), 0.3, 0, 5, 10)
    with pytest.raises(ValueError, match="steps >= 1"):
        deterministic_flow(SPEC_NL, np.zeros(2), 0.3, 0)
    with pytest.raises(ValueError, match="n_paths >= 1"):
        stepper(SPEC_NL, np.zeros(2), 0.3, 16, 5, 0)


def test_exponential_euler_endpoint_distribution():
    """With F == 0 the integrator samples the exact OU law at every step
    count, because the linear flow and the increment covariance are exact."""
    t = 0.5
    X = simulate_endpoints(SPEC_OU, np.zeros(2), t, 8, 9, 200000)
    cov = np.cov(X[0].T)
    # each step adds e^{dtA} Q^{1/2} dW, so the discrete covariance is the
    # left-endpoint Riemann sum of the Gramian integrand
    dt = t / 8
    expected = sum(
        dt * matrix_exp(SPEC_OU.A, (k + 1) * dt) @ SPEC_OU.Q @ matrix_exp(SPEC_OU.A, (k + 1) * dt).T
        for k in range(8)
    )
    assert np.allclose(cov, expected, atol=8e-3)


def test_girsanov_weight_has_unit_mean():
    _, logphi = girsanov_endpoints(SPEC_NL, np.zeros(2), 0.5, 128, 17, 40000)
    w = np.exp(logphi[0])
    assert abs(w.mean() - 1.0) < 4.0 * w.std() / math.sqrt(w.size)


def test_bundle_consistent_with_endpoints():
    """Every recorded step follows the one-path recursion of the
    exponential-Euler and Girsanov steps, written out here over more than
    one block of steps, and the last one is what both steppers return."""
    x0, seed, pid = np.array([0.1, -0.2]), 5, 2
    t, steps = 0.3, 70
    bZ, bX, blog_phi = simulate_bundle(SPEC_NL, x0, t, steps, seed, path_id=pid)
    dt = t / steps
    eAdt = matrix_exp(SPEC_NL.A, dt)
    eAS = eAdt @ SPEC_NL.Q_sqrt[:, :1]
    Z, X, lp = [x0], [x0], [0.0]
    for dw in brownian_increments(seed, range(pid, pid + 1), steps, 1, dt)[:, 0]:
        g = DRIFT.value(Z[-1])[:1]  # Q0 = 1, so G is F on the noisy coordinate
        lp.append(lp[-1] + g @ dw - 0.5 * dt * (g @ g))
        Z.append(eAdt @ Z[-1] + eAS @ dw)
        X.append(eAdt @ (X[-1] + dt * DRIFT.value(X[-1])) + eAS @ dw)
    assert np.allclose(bZ, Z, rtol=0.0, atol=1e-12)
    assert np.allclose(bX, X, rtol=0.0, atol=1e-12)
    assert np.allclose(blog_phi, lp, rtol=0.0, atol=1e-12)
    Xe = simulate_endpoints(SPEC_NL, x0, t, steps, seed, 1, path_offset=pid)
    Ze, logphi = girsanov_endpoints(SPEC_NL, x0, t, steps, seed, 1, path_offset=pid)
    assert np.array_equal(bX[-1], Xe[0, 0])
    assert np.array_equal(bZ[-1], Ze[0, 0])
    assert np.isclose(blog_phi[-1], logphi[0, 0], rtol=0.0, atol=1e-12)


def test_bundle_rejects_negative_path_id():
    with pytest.raises(ValueError, match="path indices must be >= 0"):
        simulate_bundle(SPEC_NL, np.zeros(2), 0.3, 8, 5, path_id=-1)


def test_deterministic_flow_zero_drift_is_matrix_exp():
    t = 0.7
    x = np.array([0.4, -0.3])
    Y = deterministic_flow(SPEC_OU, x, t, 200)
    assert Y.shape == (2,)
    assert np.allclose(Y, matrix_exp(SPEC_OU.A, t) @ x, atol=1e-10)


@pytest.mark.parametrize("spec", [SPEC_NL, SPEC_CHAIN], ids=["readme-2d", "chain-3d"])
def test_deterministic_flow_is_noiseless_exponential_euler(spec):
    """With drift, the flow is the X step fed zero noise, Y' = e^{dtA}(Y + dt F(Y))."""
    t, steps = 0.5, 37
    x = np.linspace(0.4, -0.3, spec.n)
    eAdt = matrix_exp(spec.A, t / steps)
    Y = x.copy()
    for _ in range(steps):
        Y = eAdt @ (Y + t / steps * spec.F.value(Y))
    assert np.allclose(deterministic_flow(spec, x, t, steps), Y, rtol=0.0, atol=1e-14)


def test_variation_gronwall_bound():
    """sup_x |eta| <= exp((|A| + sup|DF|) t) for the stochastic flow."""
    t, steps = 0.5, 128
    bound = math.exp((np.linalg.norm(SPEC_NL.A, 2) + SPEC_NL.F.grad_bound) * t)
    _, eta = simulate_endpoints(
        SPEC_NL, np.zeros(2), t, steps, 21, 2000, with_variation=True
    )
    norms = np.linalg.norm(eta[0], ord=2, axis=(1, 2))
    assert norms.max() <= bound * (1.0 + 1e-9)


@pytest.mark.parametrize("spec", [SPEC_NL, SPEC_CHAIN], ids=["readme-2d", "chain-3d"])
def test_variation_is_derivative_of_simulated_endpoint(spec):
    """eta is the derivative of the X that the stepper returns: it equals
    the central difference of simulate_endpoints over shared noise."""
    n, eps = spec.n, 1e-6
    x = np.linspace(-0.3, 0.2, n)
    _, eta = simulate_endpoints(spec, x, 0.5, 500, 9, 200, with_variation=True)
    X = simulate_endpoints(spec, np.concatenate([x + eps * np.eye(n), x - eps * np.eye(n)]),
                           0.5, 500, 9, 200)
    fd = (X[:n] - X[n:]) / (2 * eps)  # (j, path, i)
    assert np.allclose(eta[0], fd.transpose(1, 2, 0), rtol=0.0, atol=1e-7)


def test_exponential_update_propagates_mean_exactly():
    """The exponential update carries the linear flow exactly: with
    (numerically) silent noise the endpoints sit at e^{tA} x."""
    quiet = OperatorSpec(n=2, p_tilde=1, Q0=[[1e-18]],
                         A=[[0.0, 0.0], [1.0, 1.0]], F=DriftField())
    t, steps = 1.0, 8
    x = np.array([1.0, 0.5])
    Xe = simulate_endpoints(quiet, x, t, steps, 31, 4)
    exact = matrix_exp(quiet.A, t) @ x
    assert np.allclose(Xe[0], exact, atol=1e-6)


@pytest.mark.parametrize("region", [_STEPPING, _EXACT], ids=["stepping", "exact"])
def test_stream_slice_equals_full_draw(region):
    """Normals drawn at an offset equal the same slice of one full draw:
    odd and even first and count, offsets that split a Box-Muller pair or
    a 4-word Philox block, and blocks of whole paths of n = 2 and 3 normals.
    Rows drawn together equal rows drawn one at a time."""
    full = _normals(7, region, 0, 120)[0]
    for first in range(12):
        for count in range(10):
            assert np.array_equal(_normals(7, region, first, count)[0], full[first:first + count])
    for n in (2, 3):
        for p, m in [(1, 3), (3, 5), (5, 2), (7, 9)]:
            assert np.array_equal(_normals(7, region, p * n, m * n)[0], full[p * n:(p + m) * n])
    for first, count in [(0, 8), (3, 5), (6, 1), (9, 10)]:
        rows = _normals(7, region + 2 * _ROW, first, count, rows=4)
        for j in range(4):
            row = _normals(7, region + (2 + j) * _ROW, first, count)[0]
            assert np.array_equal(rows[j], row)
        assert not np.array_equal(rows[0], rows[1])


def test_stepping_increments_are_path_slices_of_the_rows():
    """Step k of path q is normals [q p, (q+1) p) of row k, scaled by
    sqrt(dt), whatever block of paths it is drawn in and however many
    steps the run has (p odd here, so paths split Box-Muller pairs)."""
    p = 3
    full = _normals(11, _STEPPING, 0, 9 * p, rows=7).reshape(7, 9, p)
    for first, count in [(0, 9), (1, 3), (4, 1), (5, 4)]:
        for K in (7, 4, 1):
            dw = brownian_increments(11, range(first, first + count), K, p, 0.25)
            assert dw.shape == (K, count, p)
            assert np.array_equal(dw, full[:K, first:first + count] * 0.5)


def test_runs_of_different_lengths_on_disjoint_paths_share_no_normal(monkeypatch):
    """A drifted parabolic solve evaluates its nodes on consecutive blocks
    of paths at falling step counts, and adds their variances as if they
    were independent: no stepping normal may be read by two nodes."""
    from kolmotk import QuadratureScheme, ScalarField, solve_parabolic

    drawn = []

    def recording(*args, **kwargs):
        z = _normals(*args, **kwargs)
        drawn.append(z.ravel())
        return z

    monkeypatch.setattr(simulate, "_normals", recording)
    f = ScalarField.cosine([1.0, 0.5])
    scheme = QuadratureScheme.build(1.0, 1.0, nodes_per_panel=3, paths_per_node=6)
    solve_parabolic(SPEC_NL, f, lambda s: f, 0.2, np.zeros(2), scheme, 3)
    z = np.concatenate(drawn)
    assert z.size > 7 * 6 * 32  # every node of the solve was recorded
    assert np.unique(z).size == z.size


def test_stepping_stream_values_are_pinned():
    """The stepping region's values, at even and odd offsets and in a later
    row, are fixed."""
    assert [repr(float(z)) for z in _normals(7, _STEPPING, 3, 3)[0]] == [
        "-1.4802541989664335", "0.061722406747844544", "-0.30527242042931957"]
    assert [repr(float(z)) for z in _normals(2**63 + 5, _STEPPING, 10, 2)[0]] == [
        "-0.5635161250733196", "-0.7918758545610839"]
    assert [repr(float(z)) for z in _normals(7, _STEPPING + 500 * _ROW, 1, 3)[0]] == [
        "-1.1168648731871234", "1.2764620118817946", "0.41666382225339776"]


def test_exact_stream_values_are_pinned():
    """The exact stream's values, at even and odd offsets, are fixed."""
    assert [repr(float(z)) for z in _exact_normals(7, 3, 5)] == [
        "1.1242619978510326", "0.486840092490595", "-0.1894124835514669",
        "0.17454495450719867", "0.9897769031292006"]
    assert [repr(float(z)) for z in _exact_normals(2**63 + 5, 11, 3)] == [
        "-1.0823936132133307", "-1.6294167759004001", "1.0783011896616859"]


def test_exact_stream_is_standard_normal_and_apart_from_stepping():
    """Both regions of the key [0, seed] have N(0, 1) moments, and the exact
    region shares no normal with the stepping region's first 1000."""
    for region in (_STEPPING, _EXACT):
        z = _normals(3, region, 0, 200000)[0]
        sd = 1.0 / math.sqrt(len(z))
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 5 * sd and abs(z.var() - 1.0) < 5 * math.sqrt(2) * sd
    exact, stepping = _exact_normals(7, 0, 1000), _normals(7, _STEPPING, 0, 1000)[0]
    assert not np.any(np.isin(exact, stepping))
