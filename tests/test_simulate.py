import concurrent.futures
import io
import math
import sys

import numpy as np
import pytest

from kolmotk import (
    DriftField,
    DriftTerm,
    OperatorSpec,
    PathGrid,
    deterministic_flow,
    girsanov_endpoints,
    gramian,
    matrix_exp,
    sample_ou_endpoints,
    simulate_bundle,
    simulate_endpoints,
    write_path_csv,
)
from kolmotk.simulate import _exact_normals, brownian_increments, path_rng

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


def test_path_grid():
    g = PathGrid(1.0, 4)
    assert g.dt == 0.25
    assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        PathGrid(1.0, 0)


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


@pytest.mark.parametrize("stepper", [simulate_endpoints, girsanov_endpoints])
def test_steppers_reject_steps_below_one(stepper):
    with pytest.raises(ValueError, match="steps"):
        stepper(SPEC_NL, np.zeros(2), 0.3, 0, 5, 10)


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
    grid = PathGrid(0.3, 70)
    b = simulate_bundle(SPEC_NL, x0, grid, seed, path_id=pid)
    dt = grid.dt
    eAdt = matrix_exp(SPEC_NL.A, dt)
    eAS = eAdt @ SPEC_NL.Q_sqrt
    Z, X, lp = [x0], [x0], [0.0]
    for dw in brownian_increments(seed, pid, grid.steps, 2, dt):
        g = SPEC_NL.Q0_inv_sqrt @ DRIFT.value(Z[-1])[:1]
        lp.append(lp[-1] + g @ dw[:1] - 0.5 * dt * (g @ g))
        Z.append(eAdt @ Z[-1] + eAS @ dw)
        X.append(eAdt @ (X[-1] + dt * DRIFT.value(X[-1])) + eAS @ dw)
    assert np.allclose(b.Z, Z, rtol=0.0, atol=1e-12)
    assert np.allclose(b.X, X, rtol=0.0, atol=1e-12)
    assert np.allclose(b.log_phi, lp, rtol=0.0, atol=1e-12)
    Xe = simulate_endpoints(SPEC_NL, x0, 0.3, 70, seed, 1, path_offset=pid)
    Ze, logphi = girsanov_endpoints(SPEC_NL, x0, 0.3, 70, seed, 1, path_offset=pid)
    assert np.array_equal(b.X[-1], Xe[0, 0])
    assert np.array_equal(b.Z[-1], Ze[0, 0])
    assert np.isclose(b.log_phi[-1], logphi[0, 0], rtol=0.0, atol=1e-12)


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


def test_write_path_csv_format():
    grid = PathGrid(0.1, 2)
    b = simulate_bundle(SPEC_OU, np.zeros(2), grid, 1, path_id=0)
    buf = io.StringIO()
    write_path_csv([b], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "path_id,k,t,Z_1,Z_2,X_1,X_2,logPhi"
    assert len(lines) == 1 + 3  # header + steps + 1 rows
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "0.0"]
    # round-trip float formatting
    assert float(lines[2].split(",")[3]) == b.Z[1, 0]


def test_rekeyed_stream_equals_path_rng():
    """Re-keying one generator per thread reproduces each path's own
    stream, also with draws interleaved across threads."""
    cases = [(0, 0), (7, 3), (2**32 - 5, 2**40), (5, 2**40 + 17)] * 8

    def draw(case):
        return brownian_increments(*case, 6, 3, 0.25)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            drawn = list(pool.map(draw, cases, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (seed, pid), dw in zip(cases, drawn):
        assert np.array_equal(dw, path_rng(seed, pid).standard_normal((6, 3)) * 0.5)


def test_exact_stream_slice_equals_full_draw():
    """Normals drawn at an offset equal the same slice of one full draw:
    odd and even first and count, offsets that split a Box-Muller pair or
    a 4-word Philox block, and blocks of whole paths of n = 2 and 3 normals."""
    full = _exact_normals(7, 0, 120)
    for first in range(12):
        for count in range(10):
            assert np.array_equal(_exact_normals(7, first, count), full[first:first + count])
    for n in (2, 3):
        for p, m in [(1, 3), (3, 5), (5, 2), (7, 9)]:
            assert np.array_equal(_exact_normals(7, p * n, m * n), full[p * n:(p + m) * n])


def test_exact_stream_is_standard_normal_and_apart_from_stepping():
    """The exact stream has N(0, 1) moments, and its first normals are
    neither path 0's increments nor Box-Muller of path 0's raw words,
    although both streams use the key [0, seed]."""
    z = _exact_normals(3, 0, 200000)
    sd = 1.0 / math.sqrt(len(z))
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 5 * sd and abs(z.var() - 1.0) < 5 * math.sqrt(2) * sd
    for n in (2, 3):
        assert not np.any(_exact_normals(7, 0, n) == brownian_increments(7, 0, 1, n, 1.0)[0])
    u = ((path_rng(7, 0).bit_generator.random_raw(2) >> 11) + 0.5) * 2.0**-53
    box_muller = math.sqrt(-2.0 * math.log(u[0])) * math.cos(2.0 * math.pi * u[1])
    assert _exact_normals(7, 0, 1)[0] != box_muller
