import math

import numpy as np
import pytest
import scipy.linalg

from kolmotk import (
    DriftField,
    OperatorSpec,
    SingularGramian,
    TMIN,
    gramian,
    gramian_quadrature,
    matrix_exp,
)
from kolmotk.gramian import _block_norm

SPEC_2D = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                       F=DriftField())
A_SHIFT = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
SPEC_3D = OperatorSpec(n=3, p_tilde=1, Q0=[[1.0]], A=A_SHIFT, F=DriftField())


def gramian_2d_closed_form(t):
    """For the idempotent drift matrix e^{sA} = I + (e^s - 1) A."""
    e = math.exp(t)
    q11 = t
    q12 = e - 1.0 - t
    q22 = (math.exp(2 * t) - 1.0) / 2.0 - 2.0 * (e - 1.0) + t
    return np.array([[q11, q12], [q12, q22]])


def gramian_3d_closed_form(t):
    """Iterated-integral covariance of the shift chain."""
    return np.array([
        [t, t**2 / 2.0, t**3 / 6.0],
        [t**2 / 2.0, t**3 / 3.0, t**4 / 8.0],
        [t**3 / 6.0, t**4 / 8.0, t**5 / 20.0],
    ])


def test_closed_form_2d_at_t1():
    expected = np.array([
        [1.0, math.e - 2.0],
        [math.e - 2.0, (math.e**2 - 1.0) / 2.0 - 2.0 * math.e + 3.0],
    ])
    g = gramian(SPEC_2D, 1.0)
    assert np.allclose(g.matrix, expected, rtol=1e-12, atol=1e-12)
    assert np.allclose(g.matrix, gramian_2d_closed_form(1.0), rtol=1e-12)


@pytest.mark.parametrize("t", [1e-3, 0.05, 0.7, 2.0])
def test_closed_form_3d(t):
    g = gramian(SPEC_3D, t)
    assert np.allclose(g.matrix, gramian_3d_closed_form(t), rtol=1e-10, atol=1e-300)


@pytest.mark.parametrize("t", [0.01, 0.3, 1.5])
def test_van_loan_matches_quadrature_random_operator(t):
    rng = np.random.default_rng(4)
    A = rng.normal(size=(4, 4)) * 0.7
    M = rng.normal(size=(2, 2))
    spec = OperatorSpec(n=4, p_tilde=2, Q0=M @ M.T + 0.5 * np.eye(2), A=A,
                        F=DriftField())
    g = gramian(spec, t)
    q = gramian_quadrature(spec, t)
    assert np.allclose(g.matrix, q, rtol=1e-9, atol=1e-12)


def test_gramian_positive_definite_under_kalman_condition():
    g = gramian(SPEC_3D, 0.2)
    assert np.all(np.linalg.eigvalsh(g.matrix) > 0.0)


def test_sqrt_factor_reconstructs_matrix():
    for t in (1e-3, 0.1, 1.0):
        g = gramian(SPEC_3D, t)
        S = g.sqrt_factor()
        assert np.allclose(S @ S.T, g.matrix, rtol=1e-9, atol=1e-14)


def test_whitened_norm_vs_dense_solve():
    """At moderate t the scaled route must agree with a direct solve."""
    t = 0.5
    g = gramian(SPEC_3D, t)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.normal(size=3)
        direct = math.sqrt(float(v @ np.linalg.solve(g.matrix, v)))
        assert np.isclose(g.whitened_norm(v), direct, rtol=1e-8)


def test_whitened_direction_exponents():
    """|Q_t^{-1/2} e^{tA} e_i| ~ t^{-(h + 1/2)} down to the smallest scale."""
    ts = np.geomspace(1e-4, 1e-1, 13)
    grams = [gramian(SPEC_3D, float(t)) for t in ts]
    for i, expected in zip((1, 2, 3), (-0.5, -1.5, -2.5)):
        vals = [g.whitened_norm(g.exp[:, i - 1]) for g in grams]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert abs(slope - expected) < 0.05


def test_singular_below_minimum_time():
    g = gramian(SPEC_2D, TMIN / 2.0)
    with pytest.raises(SingularGramian):
        g.whitened_norm(np.array([1.0, 0.0]))


def test_gramian_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        gramian(SPEC_2D, 0.0)
    with pytest.raises(ValueError):
        gramian_quadrature(SPEC_2D, -1.0)


def test_block_exp_norm_closed_forms():
    dec = SPEC_2D.decomposition()
    # E_1 e^{sA} E_0 carries the (e^s - 1) coupling entry
    for s in (0.01, 0.1):
        assert np.isclose(_block_norm(dec, matrix_exp(SPEC_2D.A, s), 1, 0), math.exp(s) - 1.0,
                          rtol=1e-12)
    dec3 = SPEC_3D.decomposition()
    for s in (0.01, 0.1):
        assert np.isclose(_block_norm(dec3, matrix_exp(SPEC_3D.A, s), 2, 0), s**2 / 2.0,
                          rtol=1e-12)


def test_block_sqrt_norm_exponents():
    dec = SPEC_2D.decomposition()
    ts = np.geomspace(1e-4, 1e-1, 13)
    for h, expected in ((0, 0.5), (1, 1.5)):
        vals = [gramian(SPEC_2D, float(t), dec).block_sqrt_norm(h) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert abs(slope - expected) < 0.05


@pytest.mark.parametrize("t", [1e-4, 1e-2, 1.0, 4.6])
def test_scaled_gramian_of_shift_chain_is_time_independent(t):
    expected = np.array([[1.0, 1 / 2, 1 / 6], [1 / 2, 1 / 3, 1 / 8], [1 / 6, 1 / 8, 1 / 20]])
    assert np.allclose(gramian(SPEC_3D, t).scaled, expected, rtol=0.0, atol=1e-12)


def _dilated_quadrature(spec, t):
    g = gramian(spec, t)
    dinv = t ** -(g.dec.grade + 0.5)
    return g.scaled, dinv[:, None] * (g.dec.basis.T @ gramian_quadrature(spec, t) @ g.dec.basis) * dinv


@pytest.mark.parametrize("t", [0.01, 0.3, 1.5])
def test_scaled_gramian_matches_quadrature_random_operator(t):
    rng = np.random.default_rng(4)
    A = rng.normal(size=(4, 4)) * 0.7
    M = rng.normal(size=(2, 2))
    spec = OperatorSpec(n=4, p_tilde=2, Q0=M @ M.T + 0.5 * np.eye(2), A=A,
                        F=DriftField())
    scaled, reference = _dilated_quadrature(spec, t)
    assert np.allclose(scaled, reference, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("t", [1e-4, 1e-3, 10.0])
def test_van_loan_matches_quadrature_with_spectrum_on_both_sides(t):
    """Eigenvalues -3.0, -0.43 +/- 0.63i and 0.90: at t = 10 the plain block
    exponential loses seven digits to cancellation; the doublings keep them.
    At small t the scaled map keeps every entry of Q_t, down to its t^7
    corner, and e^{tA} to its last digits."""
    A = [[-0.8, 0.25, -1.65, 0.65], [1.3, -0.45, 0.43, 0.25],
         [0.0, 0.9, -2.0, 1.4], [0.0, 0.0, 1.1, 0.28]]
    spec = OperatorSpec(n=4, p_tilde=1, Q0=[[1.5]], A=A, F=DriftField())
    g = gramian(spec, t)
    assert np.allclose(g.matrix, gramian_quadrature(spec, t), rtol=1e-9, atol=0.0)
    expected = scipy.linalg.expm(t * np.array(A))
    assert np.allclose(g.exp, expected, rtol=1e-9, atol=1e-12 * np.abs(expected).max())
    scaled, reference = _dilated_quadrature(spec, t)
    assert np.allclose(scaled, reference, rtol=1e-9, atol=0.0)
