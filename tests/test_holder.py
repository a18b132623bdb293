import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmotk import (
    DegenerateBox,
    DriftField,
    OperatorSpec,
    OutOfDomain,
    ScalarField,
    decompose,
    holder_norm,
    holder_seminorm,
    third_difference,
)
from kolmotk.holder import SCALE_MIN, _stencils

SPEC_2D = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                       F=DriftField())
DEC = decompose(SPEC_2D)
# a Kalman chain with blocks of dimension 2, 2 and 1
DEC_P2 = decompose(OperatorSpec(n=5, p_tilde=2, Q0=np.eye(2), A=np.diag([0.0, 1.0, 1.0, 1.0], -1),
                                F=DriftField()))


def test_scalar_field_basics():
    f = ScalarField.cosine([1.0, 0.5], amplitude=2.0)
    x = np.array([[0.1, 0.2], [0.0, 0.0]])
    assert np.allclose(f(x), 2.0 * np.cos(x @ np.array([1.0, 0.5])))
    assert f.box.shape == (2, 2)
    assert f.contains([0.0, 0.0])
    assert not f.contains([6.0, 0.0])
    g = ScalarField.constant(3.0, 2)
    assert np.allclose(g(x), 3.0)


def test_third_difference_annihilates_quadratics():
    poly = ScalarField.from_callable(
        lambda x: 1.0 + 2.0 * x[..., 0] + x[..., 0] * x[..., 1] - 3.0 * x[..., 1] ** 2,
        2,
    )
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        v = rng.uniform(-0.3, 0.3, size=2)
        assert abs(third_difference(poly, x, v)) < 1e-10


def test_third_difference_cubic_exact():
    cubic = ScalarField.from_callable(lambda x: x[..., 0] ** 3, 2)
    # third difference of s^3 with step v equals 6 v^3 (sign from the stencil)
    v = np.array([0.2, 0.0])
    got = third_difference(cubic, np.array([0.5, 0.0]), v)
    assert np.isclose(got, -6.0 * 0.2**3, rtol=1e-10)


def test_third_difference_out_of_domain():
    f = ScalarField.cosine([1.0, 0.0])
    with pytest.raises(OutOfDomain):
        third_difference(f, np.array([4.9, 0.0]), np.array([0.1, 0.0]))


def test_gamma_validation():
    f = ScalarField.cosine([1.0, 0.0])
    for bad in (0.0, 1.0, 2.0, 3.0, -0.5, 3.5):
        with pytest.raises(ValueError):
            holder_seminorm(f, bad, DEC, 10, 0)


def test_seminorm_deterministic_and_budget_monotone():
    f = ScalarField.cosine([1.0, 0.5])
    a = holder_seminorm(f, 0.5, DEC, 500, seed_a := 11)
    b = holder_seminorm(f, 0.5, DEC, 500, seed_a)
    assert a.value == b.value
    c = holder_seminorm(f, 0.5, DEC, 1000, seed_a)
    # same seed, larger budget: the estimate can only grow
    assert c.value >= a.value
    assert c.sup_sample >= a.sup_sample


def test_seminorm_witness_reproduces_value():
    f = ScalarField.cosine([1.0, 0.5])
    est = holder_seminorm(f, 0.5, DEC, 300, 7)
    x, v = est.witness
    r = DEC.quasi_norm(v)
    assert np.isclose(abs(third_difference(f, x, v)) / r**0.5, est.value, rtol=1e-12)


def test_seminorm_constant_is_zero():
    f = ScalarField.constant(4.0, 2)
    est = holder_seminorm(f, 0.5, DEC, 200, 1)
    assert est.value == 0.0
    assert np.isclose(holder_norm(f, 0.5, DEC, 200, 1), 4.0)


def test_seminorm_scales_linearly():
    f = ScalarField.cosine([1.0, 0.5])
    g = ScalarField.cosine([1.0, 0.5], amplitude=10.0)
    a = holder_seminorm(f, 0.5, DEC, 400, 3).value
    b = holder_seminorm(g, 0.5, DEC, 400, 3).value
    assert np.isclose(b, 10.0 * a, rtol=1e-12)


def test_rough_field_seminorm_detects_exponent():
    """|x1|^0.7 lies in C^0.7 but not much better: the gamma=0.5 seminorm
    stays moderate while gamma=2.5 blows past it on the same budget."""
    rough = ScalarField.from_callable(lambda x: np.abs(x[..., 0]) ** 0.7, 2)
    low = holder_seminorm(rough, 0.5, DEC, 3000, 5).value
    high = holder_seminorm(rough, 2.5, DEC, 3000, 5).value
    assert high > 50.0 * low


def test_degenerate_box_rejected():
    tiny = ScalarField.from_callable(
        lambda x: x[..., 0], 2, box=[[-1e-3, 1e-3], [-1.0, 1.0]]
    )
    with pytest.raises(DegenerateBox):
        holder_seminorm(tiny, 0.5, DEC, 10, 0)


def test_budget_validation():
    f = ScalarField.cosine([1.0, 0.0])
    with pytest.raises(ValueError):
        holder_seminorm(f, 0.5, DEC, 0, 0)


def _recording(f, seen):
    return ScalarField.from_callable(lambda x: (seen.append(x.copy()), f(x))[1], len(f.box),
                                     box=f.box)


def test_seminorm_extends_its_samples():
    """Sample s reads the same words at any budget: one f call per
    estimate, and the first 4B points at budget 2B are those at budget B."""
    seen = []
    f = _recording(ScalarField.cosine([1.0, 0.5]), seen)
    a = holder_seminorm(f, 0.5, DEC, 37, 5)
    b = holder_seminorm(f, 0.5, DEC, 74, 5)
    assert [x.shape for x in seen] == [(4 * 37, 2), (4 * 74, 2)]
    assert np.array_equal(seen[1][:4 * 37], seen[0])
    assert b.value >= a.value and b.sup_sample >= a.sup_sample


@pytest.mark.parametrize("dec", [DEC, DEC_P2], ids=["2d", "5d-p2"])
def test_stencil_scale_is_the_quasi_norm(dec):
    box = np.array([[-5.0, 5.0]] * dec.n)
    x, v, r = _stencils(dec, box, 9, 2000)
    assert np.allclose(dec.quasi_norm(v), r, rtol=1e-12, atol=0.0)
    # one block per displacement
    assert np.all(np.count_nonzero(dec.block_components(v) > 0.0, axis=1) == 1)


def test_stencil_stream_values_are_pinned():
    """The stencils drawn from the stencil region at one seed are fixed:
    the scales of samples 0..3, and sample 3's direction and base point."""
    x, v, r = _stencils(DEC_P2, np.array([[-5.0, 5.0]] * 5), 7, 4)
    assert [repr(float(a)) for a in r] == [
        "0.25614098391113993", "0.012681700502208619", "0.06089753549024845",
        "0.718673953860196"]
    assert [repr(float(a)) for a in v[3]] == [
        "-0.6726532436502415", "0.25304123332740847", "0.0", "0.0", "0.0"]
    assert [repr(float(a)) for a in x[3]] == [
        "-2.4929895511480153", "0.5311258590037404", "1.0743763580203547",
        "3.1498980469286693", "3.2832438885271458"]


def test_stencil_law():
    """Block uniform on 0..k, log r uniform on [log SCALE_MIN, 0] and, in a
    2-dimensional block, the direction's angle uniform, on 20k samples."""
    x, v, r = _stencils(DEC_P2, np.array([[-5.0, 5.0]] * 5), 3, 20000)
    comps = DEC_P2.block_components(v)
    h = np.argmax(comps, axis=1)
    counts = np.bincount(h, minlength=DEC_P2.k + 1)
    assert scipy.stats.chisquare(counts).pvalue > 1e-3
    assert scipy.stats.kstest(np.log(r) / math.log(SCALE_MIN), "uniform").pvalue > 1e-3
    ref = v[h == 0] @ DEC_P2.basis[:, DEC_P2.grade == 0]
    angle = (np.arctan2(ref[:, 1], ref[:, 0]) + math.pi) / (2 * math.pi)
    assert scipy.stats.kstest(angle, "uniform").pvalue > 1e-3


@pytest.mark.parametrize("half", [5.0, 0.005], ids=["default", "narrow"])
def test_stencils_lie_in_the_box(half):
    """On the narrow box most first candidates do not fit: those samples
    read later candidates, and every stencil still lies in the box."""
    f = ScalarField.cosine([1.0, 0.5], box=[[-half, half]] * 2)
    x, v, r = _stencils(DEC, f.box, 4, 3000)
    assert all(f.contains(x[s]) and f.contains(x[s] + 3 * v[s]) for s in range(3000))
    wide = _stencils(DEC, np.array([[-5.0, 5.0]] * 2), 4, 3000)[2]
    redrawn = np.mean(r != wide)
    assert (redrawn > 0.5) if half < 1.0 else (redrawn == 0.0)


def test_no_candidate_fits():
    """An elliptic 1-D operator on a box 3 SCALE_MIN (1 + 1e-9) wide: only
    r below SCALE_MIN (1 + 1e-9) fits, so every candidate of a sample fails."""
    dec = decompose(OperatorSpec(n=1, p_tilde=1, Q0=[[1.0]], A=[[0.0]], F=DriftField()))
    f = ScalarField.from_callable(lambda x: x[..., 0], 1,
                                  box=[[0.0, 3.0 * SCALE_MIN * (1.0 + 1e-9)]])
    with pytest.raises(DegenerateBox, match="could not place"):
        holder_seminorm(f, 0.5, dec, 10, 0)


@st.composite
def mixtures(draw):
    """A cosine mixture on a random box over a 2-D or 5-D Kalman chain."""
    dec = draw(st.sampled_from([DEC, DEC_P2]))
    floats = st.floats(-3.0, 3.0, allow_subnormal=False)
    J = draw(st.integers(1, 4))
    coeffs = draw(st.lists(floats, min_size=J, max_size=J))
    waves = draw(st.lists(floats, min_size=J * dec.n, max_size=J * dec.n))
    lo = draw(st.lists(st.floats(-5.0, 5.0), min_size=dec.n, max_size=dec.n))
    width = draw(st.lists(st.floats(0.004, 10.0), min_size=dec.n, max_size=dec.n))
    box = np.column_stack([lo, np.add(lo, width)])
    return dec, ScalarField.mixture(coeffs, np.reshape(waves, (J, dec.n)), box=box)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(mixtures(), st.floats(0.01, 2.99).filter(lambda g: abs(g - round(g)) > 1e-6),
       st.integers(1, 60), st.integers(0, 2**64 - 1))
def test_fuzz_seminorm(mixture, gamma, budget, seed):
    """Finite and non-negative, never lower at a larger budget, and the
    witness gives the value back through ``third_difference`` up to the
    rounding of four field values of size at most sum |c|."""
    dec, f = mixture
    est = holder_seminorm(f, gamma, dec, budget, seed)
    assert math.isfinite(est.value) and est.value >= 0.0
    assert holder_seminorm(f, gamma, dec, 2 * budget, seed).value >= est.value
    x, v = est.witness
    r = dec.quasi_norm(v)
    ulps = 16 * np.finfo(float).eps * np.abs(f.coeffs).sum() / r**gamma
    assert abs(abs(third_difference(f, x, v)) / r**gamma - est.value) <= 1e-9 * est.value + ulps
