import json
import re
import warnings

import numpy as np
import pytest

from kolmotk import cli, parse_config, semigroup, simulate_bundle
from kolmotk.cli import main

OP_2D = {
    "n": 2,
    "p_tilde": 1,
    "Q0": [[1.0]],
    "A": [[0.0, 0.0], [1.0, 1.0]],
    "drift": [],
}
OP_NL = dict(OP_2D, drift=[{"i": 1, "c": 0.8, "a": [1.0, 0.5], "b": 0.1}])
NAN, INF = float("nan"), float("inf")


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(args):
    return main(args)


def test_analyze(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"operator": OP_2D})
    assert run(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "k=1" in out and "1/3" in out
    lines = (tmp_path / "analyze.csv").read_text().splitlines()
    assert lines[0] == "k,block,dim,index_set,exponent"
    assert lines[1].startswith("1,0,1,")


def test_analyze_single_block(tmp_path, capsys):
    op = {"n": 2, "p_tilde": 2, "Q0": [[1.0, 0.0], [0.0, 1.0]],
          "A": [[0.0, 0.0], [0.0, 0.0]], "drift": []}
    cfg = write_cfg(tmp_path, {"operator": op})
    assert run(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "k=0" in capsys.readouterr().out


def test_not_hypoelliptic_exit_code(tmp_path, capsys):
    op = dict(OP_2D, A=[[0.0, 0.0], [0.0, 0.0]])
    cfg = write_cfg(tmp_path, {"operator": op})
    assert run(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "rank" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"operator": OP_2D, "bogus": 1})
    assert run(["analyze", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, flags", [
    ("evaluate", {}, ["--seed", "-1"]),
    ("evaluate", {}, ["--seed", str(2**64)]),
    ("evaluate", {"seed": 2**64}, []),
    ("evaluate", {}, ["--budget", "1"]),
    ("evaluate", {"budget": 1}, []),
    ("solve", {"lambda": 1.0, "paths_per_node": 1}, []),
], ids=["flag-seed-negative", "flag-seed-2**64", "config-seed-2**64", "flag-budget-1",
        "config-budget-1", "config-paths-per-node-1"])
def test_bad_seed_and_budget_exit_code(tmp_path, capsys, command, extra, flags):
    doc = {"operator": OP_2D, "t": 0.5, "field": {"type": "const", "value": 1.0}, **extra}
    cfg = write_cfg(tmp_path, doc)
    assert run([command, "--config", cfg, "--out", str(tmp_path), *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("flag, key, bad, good", [
    ("--seed", "seed", -1, 3), ("--threads", "threads", 0, 2), ("--budget", "budget", 1, 8),
])
def test_flag_is_checked_as_its_config_key(tmp_path, capsys, flag, key, bad, good):
    """A flag replaces its config key before the config is validated: a bad
    value gives one error line from either, and a good flag replaces a bad
    key."""
    doc = {"operator": OP_2D, "t": 0.5, "field": {"type": "const", "value": 1.0}}
    runs = [({key: bad}, []), ({}, [flag, str(bad)]), ({key: bad}, [flag, str(good)])]
    errors = []
    for extra, flags in runs:
        cfg = write_cfg(tmp_path, {**doc, **extra})
        errors.append((run(["evaluate", "--config", cfg, "--out", str(tmp_path), *flags]),
                       capsys.readouterr().err))
    assert errors[0] == errors[1] == (2, f"error: '{key}' must be an integer >= {bad + 1}\n")
    assert errors[2] == (0, "")


@pytest.mark.parametrize("command, extra", [
    ("evaluate", {"operator": OP_NL, "steps": 0}),
    ("evaluate", {"operator": OP_NL, "steps": 0, "dump_paths": 2}),
    ("evaluate", {"t": float("nan")}),
    ("evaluate", {"t": -1}),
    ("gramian", {"t_grid": [0.1, -0.2]}),
    ("evaluate", {"t": True}),
    ("evaluate", {"x": [0.1, 0.2, 0.3]}),
    ("solve", {"lambda": -1}),
    ("solve", {"lambda": 1, "tol": -1}),
    ("evaluate", {"threads": 0}),
    ("evaluate", {"theta": 0.5, "threads": 8}),
    ("evaluate", {"gamma": 1.5}),
    ("evaluate", {"operator": dict(OP_NL, drift=[dict(OP_NL["drift"][0], b=None)])}),
    ("evaluate", {"operator": dict(OP_NL, drift=[dict(OP_NL["drift"][0], i=1.5)])}),
    ("evaluate", {"operator": dict(OP_NL, drift=[dict(OP_NL["drift"][0], a=[1.0, NAN])])}),
    ("evaluate", {"operator": dict(OP_2D, drift=5)}),
    ("evaluate", {"operator": dict(OP_NL, A=[[0.0, 0.0], [1.0, NAN]])}),
    ("evaluate", {"operator": dict(OP_NL, A=[[0.0, 0.0], [INF, 1.0]])}),
    ("evaluate", {"operator": dict(OP_NL, Q0=[[INF]])}),
    ("evaluate", {"field": {"type": "const", "value": None}}),
    ("evaluate", {"field": {"type": "cos", "w": [1.0, INF]}}),
    ("solve", {"fields": 5}),
    ("gramian", {"operator": dict(OP_2D, Q0=[["1.0"]])}),
    ("gramian", {"operator": dict(OP_2D, A=[[False, "0"], ["1", True]])}),
    ("gramian", {"operator": dict(OP_2D, A=[[0.0, 0.0], 1.0])}),
    ("verify", {"s_grid": [0, 0.01, 0.1]}),
    ("verify", {"s_grid": [-1, 0.01, 0.1]}),
    ("verify", {"q": 0}),
    ("verify", {"q": -1, "n_paths": 100}),
    ("evaluate --threads 0", {}),
    ("evaluate", [{"operator": OP_2D, "t": 0.5}]),
    ("evaluate", {"field": 3}),
    ("evaluate", {"operator": dict(OP_2D, p_tilde=2, Q0=[[1.0, 0.5], [0.0, 1.0]])}),
    ("solve", {"fields": [{"type": "const", "value": 1.0}]}),
], ids=["steps-0", "steps-0-dump-paths", "t-nan", "t-negative", "t-grid-negative", "t-bool",
        "x-wrong-length", "lambda-negative", "tol-negative", "threads-0", "theta-unknown",
        "gamma-unknown", "drift-b-null", "drift-i-fraction",
        "drift-a-nan", "drift-not-array", "A-nan", "A-inf", "Q0-inf", "field-value-null",
        "field-w-inf", "fields-not-array", "Q0-string", "A-bool", "A-row-not-array",
        "s-grid-zero", "s-grid-negative", "q-zero", "q-negative", "flag-threads-0",
        "document-array", "field-number", "Q0-asymmetric", "parabolic-one-field"])
def test_bad_config_value_exit_code(tmp_path, capsys, command, extra):
    """``command`` may carry flags; an ``extra`` that is not an object is
    the whole config document.  No case leaves an artifact."""
    doc = extra if isinstance(extra, list) else {
        "operator": OP_2D, "t": 0.5, "field": {"type": "const", "value": 1.0}, **extra}
    cfg = write_cfg(tmp_path, doc)
    assert run([*command.split(), "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("config_threads, flags, expected", [
    (None, [], 1), (8, [], 8), (8, ["--threads", "2"], 2),
], ids=["default", "config", "flag-overrides-config"])
def test_threads_from_config_or_flag(tmp_path, monkeypatch, config_threads, flags, expected):
    seen = []

    def fake_evaluate(*args, threads, **kwargs):
        seen.append(threads)
        return semigroup.MCEstimate(1.0, 0.0, 2, 0, "direct")

    monkeypatch.setattr(cli, "evaluate", fake_evaluate)
    doc = {"operator": OP_2D, "t": 0.5, "field": {"type": "const", "value": 1.0}}
    if config_threads is not None:
        doc["threads"] = config_threads
    cfg = write_cfg(tmp_path, doc)
    assert run(["evaluate", "--config", cfg, "--out", str(tmp_path), *flags]) == 0
    assert seen == [expected]


def test_numeric_failure_exit_code(tmp_path, capsys):
    doc = {"operator": OP_2D, "t": 1e-6, "budget": 100,
           "field": {"type": "const", "value": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("evaluate", {"t": 1e-6}),
    ("solve", {"t": 5e-5, "fields": [{"type": "const", "value": 0.0}] * 2}),
    ("solve", {"t": 1e-4, "fields": [{"type": "const", "value": 0.0}] * 2}),
], ids=["evaluate-t-below-tmin", "parabolic-t-below-tmin", "parabolic-t-at-tmin"])
def test_time_below_tmin_is_numeric_failure(tmp_path, capsys, command, extra):
    """A time below the minimum scale 1e-4 (at it, for a parabolic solve,
    whose interval (1e-4, t] would be empty) is one numeric failure in
    every command."""
    doc = {"operator": OP_2D, "field": {"type": "const", "value": 1.0}, **extra}
    cfg = write_cfg(tmp_path, doc)
    assert run([command, "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure:")
    assert "minimum semigroup scale" in err[0]
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("t", [1e3, 1e300, 1e-200])
def test_gramian_out_of_float_range_is_numeric_failure(tmp_path, capsys, t):
    """e^{tA} overflows, or the scaled factorization underflows: rc 3 with
    one line, where NaN rows used to be written with rc 0."""
    cfg = write_cfg(tmp_path, {"operator": OP_2D, "t": t})
    assert run(["gramian", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure:")
    assert not (tmp_path / "gramian.csv").exists()


COS = {"type": "cos", "w": [1.0, 0.5]}
RUN_OVERFLOWS = {
    "exp-block-norms": ("verify", {"operator": OP_NL, "s_grid": [1000, 2000, 3000]}),
    "direct": ("evaluate", {"operator": OP_NL, "t": 1000, "steps": 64, "field": COS}),
    "girsanov": ("evaluate", {"operator": OP_NL, "t": 1000, "steps": 64, "field": COS,
                              "method": "girsanov"}),
    "huge-wave": ("evaluate", {"operator": OP_NL, "t": 0.5, "steps": 64,
                               "field": {"type": "cos", "w": [1e308, 1e308]}}),
    "zero-drift": ("evaluate", {"operator": OP_2D, "t": 1000, "field": COS}),
    # no steps: the drifted default's step count cannot be allocated, or overflows
    "default-steps-direct": ("evaluate", {"operator": OP_NL, "t": 1e300, "field": COS}),
    "default-steps-girsanov": ("evaluate", {"operator": OP_NL, "t": 1e300, "field": COS,
                                            "method": "girsanov"}),
    "default-steps-overflow": ("evaluate", {"operator": OP_NL, "t": 1e308, "field": COS}),
    "default-steps-parabolic": ("solve", {"operator": OP_NL, "t": 1e300,
                                          "fields": [COS, {"type": "const", "value": 1.0}]}),
    "default-steps-tiny-lambda": ("solve", {"operator": OP_NL, "lambda": 1e-310, "field": COS}),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(RUN_OVERFLOWS))
def test_overflow_in_a_run_is_numeric_failure(tmp_path, capsys, case, threads):
    """An overflow or invalid value anywhere in a run, in a pool worker too
    (a budget of 5000 paths is two chunks), ends with rc 3 and one line,
    where numpy warnings, an SVD error with rc 2 or NaN rows with rc 0 used
    to come out."""
    command, doc = RUN_OVERFLOWS[case]
    cfg = write_cfg(tmp_path, dict(doc, x=[0.2, -0.1], seed=7, budget=5000))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = run([command, "--config", cfg, "--out", str(tmp_path), "--threads", threads])
    assert rc == 3 and not seen
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure:")
    assert not (tmp_path / f"{command}.csv").exists()


def test_singular_gramian_message_names_its_floor(tmp_path, capsys):
    """At t = 100 the floor eps trace(G_hat) is far above the least
    eigenvalue 0.98; the message prints it."""
    cfg = write_cfg(tmp_path, {"operator": OP_NL, "t_grid": [100, 200, 300], "n_paths": 4})
    assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    m = re.fullmatch(r"numeric failure: scaled Gramian eigenvalue (\S+) below floor (\S+) at t=100",
                     err[0])
    assert m and float(m[1]) < float(m[2])


def test_evaluate_out_of_memory_is_numeric_failure(tmp_path, capsys):
    """10**15 steps of 2 paths would need 28.4 PiB of increments: the
    allocation fails at once, and the run ends with rc 3 and one line
    instead of a MemoryError traceback."""
    doc = {"operator": OP_NL, "t": 0.5, "x": [0.2, -0.1], "seed": 7, "budget": 2,
           "steps": 10**15, "field": {"type": "cos", "w": [1.0, 0.5]}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure:")


def test_gramian_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, {"operator": OP_2D, "t": 1.0})
    assert run(["gramian", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "gramian.csv").read_text().splitlines()
    assert lines[0].startswith("t,Q_1_1,Q_1_2,Q_2_1,Q_2_2")
    row = lines[1].split(",")
    e = np.e
    expected = [1.0, e - 2.0, e - 2.0, (e**2 - 1.0) / 2.0 - 2.0 * e + 3.0]
    got = [float(v) for v in row[1:5]]
    assert np.allclose(got, expected, rtol=1e-10)


def test_evaluate_constant_field(tmp_path):
    doc = {"operator": OP_NL, "t": 0.5, "budget": 50, "seed": 3,
           "field": {"type": "const", "value": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "evaluate.csv").read_text().splitlines()
    assert lines[0] == "t,method,mean,stderr,n_paths,seed"
    row = lines[1].split(",")
    assert float(row[2]) == 1.0
    assert float(row[3]) == 0.0
    assert row[5] == "3"


def test_evaluate_byte_identical_across_threads(tmp_path):
    doc = {"operator": OP_NL, "t": 0.3, "budget": 9000, "seed": 5,
           "x": [0.1, 0.2], "field": {"type": "cos", "w": [1.0, 0.5]}}
    cfg = write_cfg(tmp_path, doc)
    d1, d8 = tmp_path / "o1", tmp_path / "o8"
    assert run(["evaluate", "--config", cfg, "--out", str(d1), "--threads", "1"]) == 0
    assert run(["evaluate", "--config", cfg, "--out", str(d8), "--threads", "8"]) == 0
    assert (d1 / "evaluate.csv").read_bytes() == (d8 / "evaluate.csv").read_bytes()


def test_evaluate_rerun_reproduces_bytes(tmp_path):
    doc = {"operator": OP_NL, "t": 0.3, "budget": 500, "seed": 5,
           "field": {"type": "cos", "w": [1.0, 0.5]}}
    cfg = write_cfg(tmp_path, doc)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run(["evaluate", "--config", cfg, "--out", str(d1)])
    run(["evaluate", "--config", cfg, "--out", str(d2)])
    assert (d1 / "evaluate.csv").read_bytes() == (d2 / "evaluate.csv").read_bytes()


def test_evaluate_dump_paths(tmp_path):
    doc = {"operator": OP_2D, "t": 0.2, "budget": 10, "seed": 1, "steps": 4,
           "dump_paths": 2, "field": {"type": "const", "value": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert lines[0] == "path_id,k,t,Z_1,Z_2,X_1,X_2,logPhi"
    assert len(lines) == 1 + 2 * 5  # two paths, five grid times each


def test_evaluate_dump_paths_on_estimator_grid(tmp_path):
    """Without 'steps' the dump steps default_steps(t), the plain grid, even
    where a drifted evaluate steps the extrapolated pair of _pair_steps(t)."""
    doc = {"operator": OP_NL, "t": 0.2, "budget": 10, "seed": 1,
           "dump_paths": 2, "field": {"type": "const", "value": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * (semigroup.default_steps(0.2) + 1)


def test_evaluate_paths_csv_format(tmp_path):
    """paths.csv is CSV under either --format: the header, one row per grid
    time, and floats written by repr, so a value reads back exactly."""
    doc = {"operator": OP_2D, "t": 0.1, "budget": 10, "seed": 1, "steps": 2,
           "dump_paths": 1, "field": {"type": "const", "value": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    for fmt in ("csv", "json"):
        out = str(tmp_path / fmt)
        assert run(["evaluate", "--config", cfg, "--out", out, "--format", fmt]) == 0
    raw = (tmp_path / "csv" / "paths.csv").read_bytes()
    assert (tmp_path / "json" / "paths.csv").read_bytes() == raw
    lines = raw.decode().splitlines()
    assert lines[0] == "path_id,k,t,Z_1,Z_2,X_1,X_2,logPhi"
    assert len(lines) == 1 + 3  # header + steps + 1 rows
    assert lines[1].split(",")[:3] == ["0", "0", "0.0"]
    Z, _, _ = simulate_bundle(parse_config(doc).operator, np.zeros(2), 0.1, 2, 1, path_id=0)
    assert float(lines[2].split(",")[3]) == Z[1, 0]


def test_solve_elliptic_constant(tmp_path):
    doc = {"operator": OP_2D, "lambda": 1.0, "seed": 2, "paths_per_node": 50,
           "field": {"type": "const", "value": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    row = (tmp_path / "solve.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "elliptic"
    assert abs(float(row[2]) - 1.0) < 1e-3


def test_solve_budget_flag_overrides_paths_per_node(tmp_path):
    doc = {"operator": OP_2D, "lambda": 1.0, "seed": 2, "paths_per_node": 4,
           "field": {"type": "const", "value": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    n_paths = {}
    for flags in ([], ["--budget", "8"]):
        assert run(["solve", "--config", cfg, "--out", str(tmp_path), *flags]) == 0
        row = (tmp_path / "solve.csv").read_text().splitlines()[1].split(",")
        n_paths[len(flags)] = int(row[4])
    assert n_paths[2] == 2 * n_paths[0]


def test_solve_parabolic_trivial(tmp_path):
    doc = {"operator": OP_2D, "t": 0.4, "seed": 2, "paths_per_node": 50,
           "fields": [{"type": "const", "value": 0.0},
                      {"type": "const", "value": 1.0}]}
    cfg = write_cfg(tmp_path, doc)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    row = (tmp_path / "solve.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "parabolic"
    assert abs(float(row[2]) - 0.4) < 1e-9


def test_verify_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"operator": OP_2D})
    assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS whitened-direction i=1" in out
    assert "FAIL" not in out
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    assert lines[0] == "name,kind,expected,measured,tolerance,passed,seed"
    pts = (tmp_path / "verify_points.csv").read_text().splitlines()
    assert pts[0] == "name,t,value,seed"
    assert len(pts) > 10


def test_verify_failed_checks_are_numeric_failure(tmp_path, capsys):
    """Long horizons leave the small-time scaling regime: the fits fail,
    the reports are still written, and stderr names the failures."""
    cfg = write_cfg(tmp_path, {"operator": OP_2D, "t_grid": [1.0, 2.0, 4.0]})
    assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    n_fail = captured.out.count("FAIL ")
    assert n_fail > 0
    assert captured.err.splitlines() == [f"numeric failure: {n_fail} of 6 checks failed"]
    assert (tmp_path / "verify.csv").exists()


def test_json_format(tmp_path):
    cfg = write_cfg(tmp_path, {"operator": OP_2D, "t": 1.0})
    assert run(["gramian", "--config", cfg, "--out", str(tmp_path),
                "--format", "json"]) == 0
    doc = json.loads((tmp_path / "gramian.json").read_text())
    assert doc[0]["t"] == 1.0
    assert np.isclose(doc[0]["Q_1_2"], np.e - 2.0)


def test_lf_line_endings(tmp_path):
    cfg = write_cfg(tmp_path, {"operator": OP_2D, "t": 1.0})
    run(["gramian", "--config", cfg, "--out", str(tmp_path)])
    raw = (tmp_path / "gramian.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
