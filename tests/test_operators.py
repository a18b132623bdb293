import numpy as np
import pytest

from kolmotk import DriftField, DriftTerm, OperatorSpec, matrix_exp


def make_2d(drift=()):
    return OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                        F=DriftField(drift))


def test_matrix_exp_identity_and_nilpotent():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))
    N = np.array([[0.0, 0.0], [1.0, 0.0]])
    # nilpotent: e^{tN} = I + tN
    t = 0.7
    assert np.allclose(matrix_exp(N, t), np.eye(2) + t * N)


def test_matrix_exp_idempotent_closed_form():
    A = np.array([[0.0, 0.0], [1.0, 1.0]])  # A @ A == A
    for t in (0.1, 1.0, 2.5):
        expected = np.eye(2) + (np.exp(t) - 1.0) * A
        assert np.allclose(matrix_exp(A, t), expected, atol=1e-13)


def test_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(n=2, p_tilde=1, Q0=[[0.0]], A=np.zeros((2, 2)), F=DriftField())
    with pytest.raises(ValueError):
        OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=np.zeros((3, 3)), F=DriftField())
    # drift may only push into the first p_tilde coordinates
    with pytest.raises(ValueError):
        make_2d([DriftTerm(2, 1.0, [1.0, 0.0])])


def test_embedded_diffusion_matrix():
    spec = make_2d()
    assert np.allclose(spec.Q, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(spec.Q_sqrt @ spec.Q_sqrt.T, spec.Q)


def test_derived_matrices_of_a_rotated_noise_block():
    """p_tilde = 2 with a non-diagonal Q0: the root and the Girsanov field's
    inverse root come from one eigendecomposition at construction, and the
    matrices are read-only."""
    c, s = np.cos(0.6), np.sin(0.6)
    R = np.array([[c, -s], [s, c]])
    Q0 = R @ np.diag([2.0, 0.5]) @ R.T
    spec = OperatorSpec(n=3, p_tilde=2, Q0=Q0, A=np.zeros((3, 3)), F=DriftField())
    assert np.allclose(spec.Q0, Q0, rtol=0.0, atol=1e-15)
    Q = np.zeros((3, 3))
    Q[:2, :2] = spec.Q0
    assert np.array_equal(spec.Q, Q)
    assert np.allclose(spec.Q_sqrt @ spec.Q_sqrt.T, Q, rtol=0.0, atol=1e-14)
    drifted = OperatorSpec(n=3, p_tilde=2, Q0=Q0, A=np.zeros((3, 3)),
                           F=DriftField([DriftTerm(1, 1.0, [1.0, 0.0, 0.0]),
                                         DriftTerm(2, -0.5, [0.0, 1.0, 1.0])]))
    x = np.array([0.3, -0.2, 0.7])
    vals, vecs = np.linalg.eigh(Q0)
    G = vecs @ np.diag(vals**-0.5) @ vecs.T @ drifted.F.value(x)[:2]  # Q0^{-1/2} F
    assert np.allclose(drifted.girsanov_noise(x), G, rtol=0.0, atol=1e-14)
    for a in (spec.Q, spec.Q_sqrt):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_drift_value_and_bound():
    term = DriftTerm(1, 0.5, [2.0, 1.0], b=0.3)
    F = DriftField([term])
    x = np.array([0.4, -0.2])
    v = F.value(x)
    assert v[1] == 0.0
    assert np.isclose(v[0], 0.5 * np.tanh(2.0 * 0.4 + 1.0 * (-0.2) + 0.3))
    assert np.isclose(F.grad_bound, 0.5 * np.sqrt(5.0))


def test_drift_derivatives_match_finite_differences():
    F = DriftField([DriftTerm(1, 0.8, [1.0, 0.5], 0.1),
                    DriftTerm(1, -0.3, [0.2, -1.0], -0.4)])
    rng = np.random.default_rng(0)
    x = rng.normal(size=2)
    eps = 1e-6

    V = rng.normal(size=(3, 2))  # three tangent directions at one point
    dfv_fd = np.stack([(F.value(x + eps * v) - F.value(x - eps * v)) / (2 * eps) for v in V])
    FX, DFV = F.tangent(x[None], V)
    assert np.allclose(FX[0], F.value(x), rtol=0.0, atol=1e-15)
    assert np.allclose(DFV, dfv_fd, atol=1e-8)


def test_drift_vectorized_evaluation():
    F = DriftField([DriftTerm(1, 0.8, [1.0, 0.5], 0.1)])
    X = np.random.default_rng(1).normal(size=(7, 3, 2))
    V = F.value(X)
    assert V.shape == X.shape
    assert np.allclose(V[2, 1], F.value(X[2, 1]))
    # tangent takes points (N, n) and k = 3 tangent rows per point (N k, n)
    x, T = X.reshape(21, 2), np.random.default_rng(2).normal(size=(63, 2))
    FX, DFV = F.tangent(x, T)
    assert FX.shape == (21, 2) and DFV.shape == (63, 2)
    F4, DFV4 = F.tangent(x[4:5], T[12:15])
    assert np.allclose(FX[4], F4[0]) and np.allclose(DFV[12:15], DFV4)
    assert F.tangent(x, None)[1] is None


@pytest.mark.parametrize("shape", [(4, 5, 3), (2, 4, 5, 3)], ids=["m-c-n", "K-m-c-n"])
def test_stacked_drift_equals_per_term_sum(shape):
    """F and the tangent rows DF v as one product each equal the sum over
    terms, with two terms on one coordinate; summation order moves only the
    last bits."""
    terms = [DriftTerm(1, 0.8, [1.0, 0.5, -0.2], 0.1),
             DriftTerm(1, -0.3, [0.2, -1.0, 0.4], -0.4),
             DriftTerm(2, 0.5, [0.3, 0.3, 1.0])]
    F = DriftField(terms)
    X = np.random.default_rng(2).normal(size=shape)
    value, jac = np.zeros(shape), np.zeros(shape + (3,))
    for t in terms:
        z = np.tanh(X @ t.a + t.b)
        value[..., t.i - 1] += t.c * z
        jac[..., t.i - 1, :] += (t.c * (1.0 - z**2))[..., None] * t.a
    assert np.allclose(F.value(X), value, rtol=0.0, atol=1e-15)
    # the tangent rows e_1, e_2, e_3 at each point give the columns of DF
    x = X.reshape(-1, 3)
    FX, DFV = F.tangent(x, np.tile(np.eye(3), (len(x), 1)))
    assert np.allclose(FX, value.reshape(-1, 3), rtol=0.0, atol=1e-15)
    assert np.allclose(DFV.reshape(-1, 3, 3), jac.reshape(-1, 3, 3).swapaxes(1, 2),
                       rtol=0.0, atol=1e-15)


def test_girsanov_field_is_whitened_drift():
    spec = make_2d([DriftTerm(1, 2.0, [1.0, 0.0])])
    x = np.array([0.3, 0.1])
    g = spec.girsanov_noise(x)
    assert g.shape == (spec.p_tilde,)  # degenerate coordinates carry no reweighting
    assert np.isclose(g[0], 2.0 * np.tanh(0.3))  # Q0 = I here
