"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible with ``pytest -s``).  All tolerances are exponent- or
property-based; no test compares against an unquantified constant.
"""

import json
import math

import numpy as np
import pytest

import kolmotk as k

SPEC_2D = k.OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                         F=k.DriftField())
A_SHIFT = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
SPEC_3D = k.OperatorSpec(n=3, p_tilde=1, Q0=[[1.0]], A=A_SHIFT, F=k.DriftField())
DRIFT_A = k.DriftField([k.DriftTerm(1, 0.8, [1.0, 0.5], 0.1)])
DRIFT_B = k.DriftField([k.DriftTerm(1, -0.5, [0.5, -1.0], 0.0)])
SPEC_NL_A = k.OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                           F=DRIFT_A)
SPEC_NL_B = k.OperatorSpec(n=2, p_tilde=1, Q0=[[1.0]], A=[[0.0, 0.0], [1.0, 1.0]],
                           F=DRIFT_B)


def report(num, label, ok, detail=""):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {label}"
          + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"criterion {num}: {label} ({detail})"


def test_criterion_01_gramian_closed_form():
    e = math.e
    expected = np.array([[1.0, e - 2.0],
                         [e - 2.0, (e**2 - 1.0) / 2.0 - 2.0 * e + 3.0]])
    got = k.gramian(SPEC_2D, 1.0).matrix
    rel = float(np.abs(got - expected).max() / np.abs(expected).max())
    report(1, "gramian closed form at t=1", rel < 1e-10, f"rel err {rel:.2e}")


def test_criterion_02_whitened_direction_exponents():
    ts = np.geomspace(1e-4, 1e-1, 13)
    ok = True
    details = []
    for spec, slopes in ((SPEC_2D, (-0.5, -1.5)), (SPEC_3D, (-0.5, -1.5, -2.5))):
        reports = k.check_gramian_scaling(spec, spec.decomposition(), ts)
        whitened = [r for r in reports if r.name.startswith("whitened")]
        for r, expected in zip(whitened, slopes):
            ok &= abs(r.measured - expected) <= 0.05 and r.provenance["r2"] >= 0.999
            details.append(f"{r.measured:.3f}")
    report(2, "whitened-direction exponents", ok, "slopes " + " ".join(details))


def test_criterion_03_block_exponential_exponents():
    ss = np.geomspace(1e-3, 1e-1, 9)
    r2d = {r.name: r for r in
           k.check_exponential_blocks(SPEC_2D, SPEC_2D.decomposition(), ss)}
    r3d = {r.name: r for r in
           k.check_exponential_blocks(SPEC_3D, SPEC_3D.decomposition(), ss)}
    s1 = r2d["exp-block i=1 h=0"].measured
    s2 = r3d["exp-block i=2 h=0"].measured
    ok = abs(s1 - 1.0) <= 0.05 and abs(s2 - 2.0) <= 0.05
    report(3, "block-exponential exponents", ok, f"slopes {s1:.3f} {s2:.3f}")


def test_criterion_04_gaussian_block_moments():
    ts = np.geomspace(1e-3, 1e-1, 7)
    ok = True
    details = []
    for spec in (SPEC_2D, SPEC_3D):
        dec = spec.decomposition()
        pts = [[] for _ in range(dec.k + 1)]
        for t in ts:
            rng = np.random.Generator(np.random.Philox(key=20))
            Z = k.sample_ou_endpoints(spec, np.zeros(spec.n), float(t), 100000, rng)
            comps = dec.block_components(Z)
            for h in range(dec.k + 1):
                pts[h].append((float(t), float(np.mean(comps[:, h] ** 2))))
        for h in range(dec.k + 1):
            slope = k.fit_exponent(pts[h]).slope
            ok &= abs(slope - (2 * h + 1)) <= 0.1
            details.append(f"{slope:.3f}")
    report(4, "gaussian block moment exponents", ok, "slopes " + " ".join(details))


def test_criterion_05_flow_moment_exponent():
    reports = k.check_flow_moments(SPEC_NL_A, SPEC_NL_A.decomposition(), 2.0,
                                   np.geomspace(1e-3, 1e-1, 7), 10000, 23)
    full = next(r for r in reports if r.name.startswith("flow-moment full"))
    ok = abs(full.measured - 1.0) <= 0.15
    report(5, "flow moment exponent q=2", ok, f"slope {full.measured:.3f}")


def test_criterion_06_girsanov_consistency():
    fields = [k.ScalarField.cosine([1.0, 0.5]),
              k.ScalarField.cosine([2.0, -1.0], amplitude=0.5)]
    x = np.array([0.2, -0.1])
    worst = 0.0
    ok = True
    for spec in (SPEC_NL_A, SPEC_NL_B):
        for f in fields:
            for t in (0.1, 0.5, 1.0):
                d = k.evaluate(spec, f, t, x, 8000, 101, method="direct", threads=4)
                g = k.evaluate(spec, f, t, x, 8000, 202, method="girsanov", threads=4)
                z = abs(d.mean - g.mean) / d.combined_stderr(g)
                worst = max(worst, z)
                ok &= z < 3.0
    report(6, "girsanov vs direct on 12-case grid", ok, f"max |z| {worst:.2f}")


def test_criterion_07_gaussian_oracle():
    x = np.array([0.2, -0.1])
    w0 = np.array([1.0, 0.5])
    worst = 0.0
    ok = True
    for scale in (0.5, 1.0, 2.0):
        f = k.ScalarField.cosine(scale * w0)
        for t in (0.1, 0.5, 1.0):
            oracle = k.ou_cosine_expectation(SPEC_2D, f.waves[0], t, x)
            est = k.evaluate(SPEC_2D, f, t, x, 20000, 55, threads=4)
            z = abs(est.mean - oracle) / max(est.stderr, 1e-15)
            worst = max(worst, z)
            ok &= z < 4.0
    lam = 1.0
    scheme = k.QuadratureScheme.build(lam, 1.0, paths_per_node=2000)
    f = k.ScalarField.cosine(w0)
    u = k.solve_elliptic(SPEC_2D, f, lam, x, scheme, 56, threads=4)
    ref = float(k.elliptic_cosine_oracle_field(SPEC_2D, w0, lam, scheme)(x[None, :])[0])
    z_ell = abs(u.mean - ref) / u.stderr
    ok &= z_ell < 4.0
    report(7, "gaussian oracle agreement", ok,
           f"max |z| evaluate {worst:.2f}, elliptic {z_ell:.2f}")


def test_criterion_08_trivial_solves():
    x = np.array([0.2, -0.1])
    one = k.ScalarField.constant(1.0, 2)
    zero = k.ScalarField.constant(0.0, 2)
    lam = 2.0
    scheme = k.QuadratureScheme.build(lam, 1.0, paths_per_node=200)
    u = k.solve_elliptic(SPEC_NL_A, one, lam, x, scheme, 5)
    err_u = abs(u.mean - 1.0 / lam)
    tol_u = 4.0 * u.stderr + 2.0 * scheme.tail_bound + 1e-6
    scheme_p = k.QuadratureScheme.build(1.0, 1.0, paths_per_node=200)
    t = 0.7
    v = k.solve_parabolic(SPEC_NL_A, zero, lambda s: one, t, x, scheme_p, 5)
    err_v = abs(v.mean - t)
    tol_v = 4.0 * v.stderr + 1e-9
    ok = err_u <= tol_u and err_v <= tol_v
    report(8, "trivial elliptic/parabolic solves", ok,
           f"errs {err_u:.2e} {err_v:.2e}")


def test_criterion_09_smoothing_exponent():
    rough = k.ScalarField.from_callable(
        lambda x: np.abs(np.sin(x[..., 0])) ** 0.5, 2
    )  # Holder-0.5 in the first (noisy) coordinate
    ts = np.geomspace(1e-2, 1e-1, 5)
    xgrid = [np.array([x1, 0.0]) for x1 in (-0.3, -0.15, -0.05, 0.0, 0.05, 0.15, 0.3)]
    pts = []
    for t in ts:
        sup = 0.0
        for x in xgrid:
            est = k.derivative_estimate(SPEC_2D, rough, float(t), x, (1, 1),
                                        100000, 77, threads=8)
            sup = max(sup, abs(est.mean))
        pts.append((float(t), sup))
    fit = k.fit_exponent(pts)
    ok = abs(fit.slope + 0.75) <= 0.25
    report(9, "second-derivative smoothing exponent", ok,
           f"slope {fit.slope:.3f}, r2 {fit.r2:.4f}")


def test_criterion_10_schauder_ratio_stability():
    lam = 1.0
    dec = SPEC_2D.decomposition()
    scheme = k.QuadratureScheme.build(lam, 1.0)
    family = [k.ScalarField.cosine(w)
              for w in ([1.0, 0.0], [0.5, 0.5], [2.0, 1.0])]
    rep = k.check_schauder_ratio(SPEC_2D, dec, family, 0.5, lam,
                                 budget=2000, seed=8, scheme=scheme)
    # homogeneity: 10 f scales both surrogates linearly
    f = k.ScalarField.cosine([1.0, 0.5])
    f10 = k.ScalarField.cosine([1.0, 0.5], amplitude=10.0)
    r1 = k.check_schauder_ratio(SPEC_2D, dec, [f], 0.5, lam, 400, 4, scheme=scheme)
    r10 = k.check_schauder_ratio(SPEC_2D, dec, [f10], 0.5, lam, 400, 4, scheme=scheme)
    a = r1.provenance["ratios_base"][0]
    b = r10.provenance["ratios_base"][0]
    homog = np.isclose(a, b, rtol=1e-9)
    ok = rep.passed and rep.measured < 2.0 and homog
    report(10, "schauder ratio stability and homogeneity", ok,
           f"budget factor {rep.measured:.3f}, homogeneity rel "
           f"{abs(a - b) / abs(a):.1e}")


def test_criterion_11_byte_identical_artifacts(tmp_path):
    from kolmotk.cli import main

    doc = {
        "operator": {"n": 2, "p_tilde": 1, "Q0": [[1.0]],
                     "A": [[0.0, 0.0], [1.0, 1.0]],
                     "drift": [{"i": 1, "c": 0.8, "a": [1.0, 0.5], "b": 0.1}]},
        "t": 0.3,
        "seed": 7,
        "budget": 9000,
        "x": [0.1, 0.2],
        "field": {"type": "cos", "w": [1.0, 0.5]},
        "n_paths": 9000,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    ok = True
    for command, files in (("evaluate", ["evaluate.csv"]),
                           ("gramian", ["gramian.csv"]),
                           ("verify", ["verify.csv", "verify_points.csv"])):
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"{command}_{threads}"
            rc = main([command, "--config", str(cfg), "--out", str(out),
                       "--threads", threads])
            ok &= rc == 0
            outs.append(out)
        for name in files:
            ok &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(11, "byte-identical artifacts across thread counts", ok)
