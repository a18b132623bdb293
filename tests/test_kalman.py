import numpy as np
import pytest

from kolmotk import (
    DriftField,
    NotHypoelliptic,
    OperatorSpec,
    decompose,
)

SPEC_2D = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                       F=DriftField())
A_SHIFT = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
SPEC_3D = OperatorSpec(n=3, p_tilde=1, Q0=[[1.0]], A=A_SHIFT, F=DriftField())


def test_kalman_index_examples():
    assert decompose(SPEC_2D).k == 1
    assert decompose(SPEC_3D).k == 2
    full = OperatorSpec(n=2, p_tilde=2, Q0=np.eye(2), A=np.zeros((2, 2)), F=DriftField())
    assert decompose(full).k == 0


def test_not_hypoelliptic_when_rank_stalls():
    dead = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=np.zeros((2, 2)), F=DriftField())
    with pytest.raises(NotHypoelliptic, match="stalls at 1 < 2 at power 1"):
        dead.decomposition()


def test_decomposition_structure():
    dec = decompose(SPEC_3D)
    assert dec.k == 2
    assert dec.block_dims == (1, 1, 1)
    # first block is exactly the canonical noisy direction
    assert np.allclose(dec.basis[:, dec.grade == 0][:, 0], [1.0, 0.0, 0.0])
    # orthonormal reference basis, so the block projections resolve the identity
    assert np.allclose(dec.basis.T @ dec.basis, np.eye(3), atol=1e-12)


def test_block_of_coordinate():
    dec = decompose(SPEC_3D)
    assert dec.grade.tolist() == [0, 1, 2]
    assert not dec.grade.flags.writeable
    assert [dec.block_of_coordinate(i) for i in (1, 2, 3)] == [0, 1, 2]
    # 0 would read grade[-1], the last coordinate's block, without the range check
    for i in (0, 4):
        with pytest.raises(IndexError):
            dec.block_of_coordinate(i)
    # a 4-D chain whose noise block has dimension 2
    p2 = decompose(OperatorSpec(n=4, p_tilde=2, Q0=np.eye(2), A=np.diag([0.0, 1.0, 1.0], -1),
                                F=DriftField()))
    assert p2.grade.tolist() == [0, 0, 1, 2]
    assert p2.block_dims == (2, 1, 1)
    assert [p2.block_of_coordinate(i) for i in (1, 2, 3, 4)] == [0, 0, 1, 2]


def test_quasi_norm_scaling():
    """The anisotropic dilation delta_r scales the quasi-norm linearly."""
    dec = decompose(SPEC_3D)
    rng = np.random.default_rng(2)
    x = rng.normal(size=3)
    for r in (0.1, 0.5, 2.0):
        scales = np.array([r ** (2 * dec.block_of_coordinate(i) + 1) for i in (1, 2, 3)])
        xd = dec.basis @ (scales * (dec.basis.T @ x))
        assert np.isclose(dec.quasi_norm(xd), r * dec.quasi_norm(x), rtol=1e-12)


def test_quasi_norm_batched_and_distance():
    dec = decompose(SPEC_2D)
    X = np.random.default_rng(3).normal(size=(5, 2))
    vals = dec.quasi_norm(X)
    assert vals.shape == (5,)
    assert np.isclose(vals[0], dec.quasi_norm(X[0]))
    # the metric d(z, z') is the quasi-norm of z - z'
    assert dec.quasi_norm(X[0] - X[0]) == 0.0
    assert dec.quasi_norm(X[0] - X[1]) == dec.quasi_norm(X[1] - X[0])


def test_metric_description():
    dec = decompose(SPEC_2D)
    s = dec.metric_description()
    assert "|E0" in s and "(1/3)" in s


def test_decomposition_cached_on_spec():
    spec = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                        F=DriftField())
    assert spec.decomposition() is spec.decomposition()


def test_invariant_under_noise_block_rotation():
    """k and block dims do not depend on the basis of the noisy block."""
    theta = 0.6
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    A = np.zeros((3, 3))
    A[2, 0] = 1.0  # noise reaches e_3 through the first coordinate
    Q0 = R @ np.diag([2.0, 0.5]) @ R.T
    spec = OperatorSpec(n=3, p_tilde=2, Q0=Q0, A=A, F=DriftField())
    dec = decompose(spec)
    assert dec.k == 1
    assert dec.block_dims == (2, 1)
