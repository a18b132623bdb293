import sys

import numpy as np
import pytest

import kolmotk.operators
from kolmotk import (
    DriftField,
    DriftTerm,
    NonPositiveValue,
    OperatorSpec,
    QuadratureScheme,
    ScalarField,
    check_exponential_blocks,
    check_flow_moments,
    check_gramian_scaling,
    check_parabolic_schauder_ratio,
    check_schauder_ratio,
    cosine_propagator,
    derivative_estimate,
    evaluate,
    fit_exponent,
    gramian,
    matrix_exp,
    ou_cosine_expectation,
)
from kolmotk.gramian import _block_norm

SPEC_2D = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                       F=DriftField())
A_SHIFT = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
SPEC_3D = OperatorSpec(n=3, p_tilde=1, Q0=[[1.0]], A=A_SHIFT, F=DriftField())
SPEC_NL = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                       F=DriftField([DriftTerm(1, 0.8, [1.0, 0.5], 0.1)]))
# a 4-D chain with blocks of dimension 2, 1 and 1
SPEC_4D_P2 = OperatorSpec(n=4, p_tilde=2, Q0=[[1.0, 0.3], [0.3, 2.0]],
                          A=np.diag([0.0, 1.0, 1.0], -1) + 0.1 * np.eye(4), F=DriftField())


def test_fit_exponent_exact_square():
    ts = [0.1, 0.2, 0.5, 1.0]
    fit = fit_exponent([(t, t**2) for t in ts])
    assert np.isclose(fit.slope, 2.0, atol=1e-12)
    assert np.isclose(fit.r2, 1.0)


def test_fit_exponent_noisy_decay():
    rng = np.random.default_rng(9)
    ts = np.geomspace(0.01, 1.0, 20)
    vals = 5.0 * ts**-1.5 * (1.0 + 0.01 * rng.standard_normal(20))
    fit = fit_exponent(list(zip(ts, vals)))
    assert abs(fit.slope + 1.5) < 0.05


def test_fit_exponent_errors():
    with pytest.raises(ValueError):
        fit_exponent([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(ValueError):
        fit_exponent([(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)])
    with pytest.raises(NonPositiveValue):
        fit_exponent([(0.1, 1.0), (0.2, 0.0), (0.3, 2.0)])


def test_gramian_scaling_trivial_operator():
    """A = 0, Q = I: Q_t = tI, so every slope is exactly +-1/2."""
    spec = OperatorSpec(n=2, p_tilde=2, Q0=np.eye(2), A=np.zeros((2, 2)),
                        F=DriftField())
    reports = check_gramian_scaling(spec, spec.decomposition(),
                                    np.geomspace(1e-3, 1e-1, 7))
    for r in reports:
        assert r.passed
        assert abs(abs(r.measured) - 0.5) < 1e-8


def test_gramian_scaling_examples():
    ts = np.geomspace(1e-4, 1e-1, 13)
    for spec, slopes in ((SPEC_2D, (-0.5, -1.5)), (SPEC_3D, (-0.5, -1.5, -2.5))):
        reports = check_gramian_scaling(spec, spec.decomposition(), ts)
        whitened = [r for r in reports if r.name.startswith("whitened")]
        assert [r.expected for r in whitened] == list(slopes)
        assert all(r.passed for r in reports)
        assert all(r.provenance["r2"] >= 0.999 for r in reports)


def test_exponential_blocks_vacuous_for_zero_A():
    spec = OperatorSpec(n=2, p_tilde=2, Q0=np.eye(2), A=np.zeros((2, 2)),
                        F=DriftField())
    reports = check_exponential_blocks(spec, spec.decomposition(),
                                       np.geomspace(1e-3, 1e-1, 7))
    assert reports == []  # single block: nothing off-diagonal to report


def test_exponential_blocks_examples():
    ss = np.geomspace(1e-3, 1e-1, 9)
    r2d = {r.name: r for r in
           check_exponential_blocks(SPEC_2D, SPEC_2D.decomposition(), ss)}
    assert r2d["exp-block i=1 h=0"].passed
    assert abs(r2d["exp-block i=1 h=0"].measured - 1.0) < 0.05
    r3d = {r.name: r for r in
           check_exponential_blocks(SPEC_3D, SPEC_3D.decomposition(), ss)}
    assert abs(r3d["exp-block i=2 h=0"].measured - 2.0) < 0.05
    assert all(r.passed for r in r3d.values())
    # i < h with a non-zero block: a lower bound 1 on the slope
    spec = OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.5], [1.0, 0.0]])
    up = {r.name: r for r in check_exponential_blocks(spec, spec.decomposition(), ss)}
    assert up["exp-block i=0 h=1"].kind == "bound"
    assert abs(up["exp-block i=0 h=1"].measured - 1.0) < 0.05
    assert up["exp-block i=0 h=1"].passed


def test_flow_moments_gaussian_blocks():
    reports = check_flow_moments(SPEC_2D, SPEC_2D.decomposition(), 2.0,
                                 np.geomspace(1e-3, 1e-1, 7), 20000, 3)
    by_name = {r.name: r for r in reports}
    assert abs(by_name["flow-moment block h=0 q=2"].measured - 1.0) < 0.1
    assert abs(by_name["flow-moment block h=1 q=2"].measured - 3.0) < 0.1


def test_flow_moments_with_drift():
    reports = check_flow_moments(SPEC_NL, SPEC_NL.decomposition(), 2.0,
                                 np.geomspace(1e-3, 1e-1, 7), 10000, 11)
    full = next(r for r in reports if r.name.startswith("flow-moment full"))
    assert abs(full.measured - 1.0) < 0.15
    assert full.passed


def test_schauder_ratio_constant_field():
    one = ScalarField.constant(1.0, 2)
    lam = 2.0
    rep = check_schauder_ratio(SPEC_2D, SPEC_2D.decomposition(), [one], 0.5, lam,
                               budget=200, seed=4,
                               scheme=QuadratureScheme.build(lam, 1.0, paths_per_node=50))
    # u = 1/lam exactly: the ratio is seeded-deterministic and stable
    assert rep.passed
    assert np.isclose(rep.provenance["ratios_base"][0], 1.0 / lam, rtol=1e-6)


def test_schauder_ratio_homogeneity():
    """Scaling f by 10 scales both surrogates by 10: identical ratio."""
    lam = 1.0
    scheme = QuadratureScheme.build(lam, 10.0)
    f = ScalarField.cosine([1.0, 0.5])
    f10 = ScalarField.cosine([1.0, 0.5], amplitude=10.0)
    dec = SPEC_2D.decomposition()
    r1 = check_schauder_ratio(SPEC_2D, dec, [f], 0.5, lam, 400, 4, scheme=scheme)
    r2 = check_schauder_ratio(SPEC_2D, dec, [f10], 0.5, lam, 400, 4, scheme=scheme)
    a = r1.provenance["ratios_base"][0]
    b = r2.provenance["ratios_base"][0]
    assert np.isclose(a, b, rtol=1e-9)


def test_schauder_ratio_stability_trig_family():
    lam = 1.0
    scheme = QuadratureScheme.build(lam, 1.0)
    family = [ScalarField.cosine(w) for w in ([1.0, 0.0], [0.5, 0.5], [2.0, 1.0])]
    rep = check_schauder_ratio(SPEC_2D, SPEC_2D.decomposition(), family, 0.5, lam,
                               budget=2000, seed=8, scheme=scheme)
    assert rep.passed
    assert rep.measured < 2.0


def test_parabolic_schauder_ratio():
    family = [ScalarField.cosine([1.0, 0.5])]
    rep = check_parabolic_schauder_ratio(SPEC_2D, SPEC_2D.decomposition(), family,
                                         0.5, (0.5, 1.0), budget=800, seed=6)
    assert rep.passed
    base, doubled = rep.provenance["ratios_base"], rep.provenance["ratios_doubled"]
    assert len(base) == len(doubled) == len(family)
    r1, r2 = max(base), max(doubled)
    assert rep.measured == max(r1 / r2, r2 / r1)
    with pytest.raises(ValueError):
        check_parabolic_schauder_ratio(SPEC_NL, SPEC_NL.decomposition(), family,
                                       0.5, (0.5,), budget=10, seed=0)


@pytest.mark.parametrize("spec", [SPEC_2D, SPEC_3D, SPEC_4D_P2], ids=["2d", "3d", "4d-p2"])
def test_scaling_checks_equal_their_per_pair_reference(spec):
    """Each check point is bitwise the norm formed on its own, from one
    Gramian or one e^{sA}."""
    dec = spec.decomposition()
    ts, ss = np.geomspace(1e-4, 1e-1, 7), np.geomspace(1e-3, 1e-1, 5)
    whitened = check_gramian_scaling(spec, dec, ts)[:spec.n]
    for i, rep in enumerate(whitened, start=1):
        grams = [gramian(spec, t, dec) for t in ts]
        assert rep.points == tuple((g.t, g.whitened_norm(g.exp[:, i - 1])) for g in grams)
    pairs = [(i, h) for i in range(dec.k + 1) for h in range(dec.k + 1) if i != h]
    reports = check_exponential_blocks(spec, dec, ss)
    assert len(reports) == len(pairs)
    for (i, h), rep in zip(pairs, reports):
        ref = tuple((s, float(_block_norm(dec, matrix_exp(spec.A, s), i, h))) for s in ss)
        assert rep.points == ref or (rep.kind == "vacuous" and max(v for _, v in ref) < 1e-13)


_TS, _SS = np.geomspace(1e-4, 1e-1, 7), np.geomspace(1e-3, 1e-1, 5)
_COSINE = ScalarField.cosine([1.0, 0.5])
_EXPONENTIAL_COUNTS = {
    **{f"gramian-{t:g}": (lambda t=t: gramian(SPEC_3D, t), 1) for t in (1e-3, 0.5, 4.6)},
    # one per node with t > 0
    "cosine-propagator": (lambda: cosine_propagator(SPEC_2D, _COSINE, [0.0, 0.1, 0.5],
                                                    [1.0] * 3), 2),
    "evaluate-F0": (lambda: evaluate(SPEC_2D, _COSINE, 0.5, [0.1, 0.2], 50, 3), 1),
    "pathwise-F0": (lambda: derivative_estimate(SPEC_2D, _COSINE, 0.5, [0.1, 0.2], (1,), 50, 3,
                                                 method="pathwise"), 1),
    "gramian-scaling": (lambda: check_gramian_scaling(SPEC_4D_P2, SPEC_4D_P2.decomposition(), _TS),
                        len(_TS)),
    "exponential-blocks": (lambda: check_exponential_blocks(SPEC_4D_P2, SPEC_4D_P2.decomposition(),
                                                            _SS), len(_SS)),
    # the head P_t g and 32 source nodes, each built once for both budgets
    "parabolic-schauder": (lambda: check_parabolic_schauder_ratio(
        SPEC_2D, SPEC_2D.decomposition(), [_COSINE], 0.5, (0.5,), budget=50, seed=6), 33),
}


@pytest.mark.parametrize("call, count", _EXPONENTIAL_COUNTS.values(), ids=_EXPONENTIAL_COUNTS)
def test_one_matrix_exponential_per_semigroup_time(monkeypatch, call, count):
    """``matrix_exp`` counted at every module that binds it."""
    original = kolmotk.operators.matrix_exp
    calls = []

    def counting(M, t=1.0):
        calls.append(t)
        return original(M, t)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "kolmotk" and getattr(module, "matrix_exp", None) is original:
            monkeypatch.setattr(module, "matrix_exp", counting)
    call()
    assert len(calls) == count


def test_schauder_ratio_constant_field_is_exact_under_drift():
    c, lam = 0.1234567, 2.0
    rep = check_schauder_ratio(SPEC_NL, SPEC_NL.decomposition(),
                               [ScalarField.constant(c, 2)], 0.5, lam, budget=50, seed=4,
                               scheme=QuadratureScheme.build(lam, 1.0, paths_per_node=2))
    assert rep.provenance["ratios_base"] == [1.0 / lam]


def test_schauder_checks_reject_drift_and_callable_fields():
    """Both Schauder checks run on the closed-form pipeline only: a cosine
    field under drift and a field built from a callable have no closed-form
    resolvent, so each is a ValueError."""
    scheme = QuadratureScheme.build(2.0, 1.0)
    cases = [(SPEC_NL, ScalarField.cosine([1.0, 0.5])),
             (SPEC_2D, ScalarField.from_callable(lambda x: np.cos(x[:, 0]), 2))]
    for spec, f in cases:
        dec = spec.decomposition()
        with pytest.raises(ValueError, match="oracle requires"):
            check_schauder_ratio(spec, dec, [f], 0.5, 2.0, budget=2, seed=4, scheme=scheme)
        with pytest.raises(ValueError, match="oracle requires"):
            check_parabolic_schauder_ratio(spec, dec, [f], 0.5, (0.5,), budget=2, seed=4)


def test_closed_form_oracles_reject_negative_times():
    """P_t runs forward only: at t < 0 the Gaussian factor e^{-<Q_t w, w>/2}
    exceeds 1, so the oracles raise rather than return |P_t f| > sup |f|."""
    f = ScalarField.cosine([1.0, 0.5])
    with pytest.raises(ValueError, match="t >= 0"):
        cosine_propagator(SPEC_2D, f, [-0.5], [1.0])
    with pytest.raises(ValueError, match="t >= 0"):
        cosine_propagator(SPEC_2D, f, [0.0, 0.5, -1e-9], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="t >= 0"):
        ou_cosine_expectation(SPEC_2D, [1.0, 0.5], -2.0, [0.2, -0.1])
    with pytest.raises(ValueError, match="t >= 0"):
        check_parabolic_schauder_ratio(SPEC_2D, SPEC_2D.decomposition(), [f], 0.5, (-1.0,),
                                       budget=10, seed=0)
    with pytest.raises(ValueError, match="t >= 0"):
        cosine_propagator(SPEC_2D, f, [0.5, float("nan")], [1.0, 1.0])
    assert cosine_propagator(SPEC_2D, f, [0.0], [1.0])([0.2, -0.1]) == f([0.2, -0.1])


@pytest.mark.parametrize("family", [[], [ScalarField.constant(0.0, 2)]], ids=["empty", "zero"])
def test_schauder_ratio_needs_fields_of_positive_norm(family):
    """An empty family has no worst ratio and a zero field has none at all."""
    dec = SPEC_2D.decomposition()
    with pytest.raises(ValueError, match="Schauder ratio"):
        check_schauder_ratio(SPEC_2D, dec, family, 0.5, 1.0, budget=50, seed=4,
                             scheme=QuadratureScheme.build(1.0, 1.0))
    with pytest.raises(ValueError, match="Schauder ratio"):
        check_parabolic_schauder_ratio(SPEC_2D, dec, family, 0.5, (0.5,), budget=50, seed=4)


def test_reports_are_reproducible():
    reports1 = check_flow_moments(SPEC_NL, SPEC_NL.decomposition(), 2.0,
                                  np.geomspace(1e-2, 1e-1, 4), 2000, 13)
    reports2 = check_flow_moments(SPEC_NL, SPEC_NL.decomposition(), 2.0,
                                  np.geomspace(1e-2, 1e-1, 4), 2000, 13)
    assert [r.measured for r in reports1] == [r.measured for r in reports2]
