"""Batch command-line front end.

One command per process; all inputs come from a JSON config plus a few
override flags.  Outputs are CSV (default) or JSON files with stable
headers, shortest round-trip float formatting and LF line endings, so a
given (config, seed) pair reproduces its artifacts byte-identically at
any thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, KolmotkError, NotHypoelliptic
from .gramian import gramian
from .semigroup import QuadratureScheme, default_steps, evaluate, solve_elliptic, solve_parabolic
from .simulate import simulate_bundle
from .verify import check_exponential_blocks, check_flow_moments, check_gramian_scaling

__all__ = ["main"]


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_rows(path: Path, header, rows, fmt):
    if fmt == "json":
        doc = [dict(zip(header, row)) for row in rows]
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        path = path.with_suffix(".json")
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
        path = path.with_suffix(".csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _out_dir(args):
    d = Path(args.out) if args.out else Path(".")
    d.mkdir(parents=True, exist_ok=True)
    return d


# --- commands ----------------------------------------------------------------


def cmd_analyze(cfg: RunConfig, args):
    dec = cfg.operator.decomposition()
    header = ("k", "block", "dim", "index_set", "exponent")
    rows = [
        (dec.k, h, dim, " ".join(map(str, np.flatnonzero(dec.grade == h) + 1)), f"1/{2 * h + 1}")
        for h, dim in enumerate(dec.block_dims)
    ]
    path = _write_rows(_out_dir(args) / "analyze", header, rows, args.format)
    print(f"k={dec.k} dims={list(dec.block_dims)}")
    print(f"metric: {dec.metric_description()}")
    print(f"wrote {path}")
    return 0


def cmd_gramian(cfg: RunConfig, args):
    spec = cfg.operator
    ts = cfg.param("t_grid") or [cfg.require("t")]
    header = ("t",) + tuple(
        f"Q_{i + 1}_{j + 1}" for i in range(spec.n) for j in range(spec.n)
    ) + ("min_eig_scaled", "seed")
    rows = []
    for t in ts:
        g = gramian(spec, float(t))
        rows.append((float(t), *g.matrix.ravel().tolist(), g.min_eig_pre_clamp, args.seed))
    path = _write_rows(_out_dir(args) / "gramian", header, rows, args.format)
    print(f"wrote {path}")
    return 0


def cmd_evaluate(cfg: RunConfig, args):
    spec = cfg.operator
    f = cfg.require("field")
    ts = cfg.param("t_grid") or [cfg.require("t")]
    x = np.array(cfg.param("x", [0.0] * spec.n), dtype=float)
    budget = args.budget if args.budget is not None else cfg.param("budget", 1000)
    method = cfg.param("method", "direct")
    out = _out_dir(args)
    header = ("t", "method", "mean", "stderr", "n_paths", "seed")
    rows = []
    for t in ts:
        est = evaluate(
            spec, f, float(t), x, budget, args.seed,
            method=method, steps=cfg.param("steps"), threads=args.threads,
        )
        rows.append((float(t), est.method, est.mean, est.stderr, est.n_paths, est.seed))
    path = _write_rows(out / "evaluate", header, rows, args.format)
    print(f"wrote {path}")
    dump = cfg.param("dump_paths", 0)
    if dump:
        t = float(ts[0])
        steps = cfg.param("steps") or default_steps(t)
        coords = range(1, spec.n + 1)
        header = ("path_id", "k", "t", *(f"Z_{i}" for i in coords), *(f"X_{i}" for i in coords),
                  "logPhi")
        rows = []
        for i in range(dump):
            Z, X, log_phi = simulate_bundle(spec, x, t, steps, args.seed, path_id=i)
            rows += [(i, k, s, *Z[k], *X[k], log_phi[k])
                     for k, s in enumerate(np.linspace(0.0, t, steps + 1))]
        path = _write_rows(out / "paths", header, rows, "csv")  # CSV under either --format
        print(f"wrote {path}")
    return 0


def cmd_solve(cfg: RunConfig, args):
    spec = cfg.operator
    x = np.array(cfg.param("x", [0.0] * spec.n), dtype=float)
    paths = args.budget if args.budget is not None else cfg.param("paths_per_node", 1000)
    header = ("kind", "parameter", "mean", "stderr", "n_paths", "seed")
    if "lambda" in cfg.params:
        f = cfg.require("field")
        lam = float(cfg.require("lambda"))
        f_sup = float(np.abs(f.coeffs).sum())
        scheme = QuadratureScheme.build(
            lam, max(1.0, f_sup), tol=cfg.param("tol", 1e-4), paths_per_node=paths
        )
        est = solve_elliptic(spec, f, lam, x, scheme, args.seed, threads=args.threads)
        rows = [("elliptic", lam, est.mean, est.stderr, est.n_paths, est.seed)]
    else:
        fields = cfg.require("fields")
        if len(fields) != 2:
            raise ConfigError("parabolic solve needs 'fields': [g, H]")
        g, Hf = fields
        t = float(cfg.require("t"))
        scheme = QuadratureScheme.build(1.0, 1.0, paths_per_node=paths)
        est = solve_parabolic(spec, g, lambda s: Hf, t, x, scheme, args.seed, threads=args.threads)
        rows = [("parabolic", t, est.mean, est.stderr, est.n_paths, est.seed)]
    path = _write_rows(_out_dir(args) / "solve", header, rows, args.format)
    print(f"wrote {path}")
    return 0


def cmd_verify(cfg: RunConfig, args):
    spec = cfg.operator
    dec = spec.decomposition()
    t_grid = cfg.param("t_grid") or np.geomspace(1e-4, 1e-1, 13).tolist()
    s_grid = cfg.param("s_grid") or np.geomspace(1e-3, 1e-1, 9).tolist()
    reports = []
    reports += check_gramian_scaling(spec, dec, t_grid)
    reports += check_exponential_blocks(spec, dec, s_grid)
    if cfg.param("n_paths"):
        reports += check_flow_moments(
            spec, dec, cfg.param("q", 2.0),
            cfg.param("t_grid") or np.geomspace(1e-3, 1e-1, 7).tolist(),
            cfg.param("n_paths"), args.seed, threads=args.threads,
        )
    out = _out_dir(args)
    header = ("name", "kind", "expected", "measured", "tolerance", "passed", "seed")
    rows = [
        (r.name, r.kind, "" if r.expected is None else r.expected,
         r.measured, r.tolerance, r.passed, args.seed)
        for r in reports
    ]
    path = _write_rows(out / "verify", header, rows, args.format)
    pts_rows = [
        (r.name, t, v, args.seed) for r in reports for t, v in r.points
    ]
    pts_path = _write_rows(out / "verify_points", ("name", "t", "value", "seed"), pts_rows, args.format)
    n_fail = sum(not r.passed for r in reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: measured={r.measured:.4g}")
    print(f"wrote {path} and {pts_path}")
    if n_fail:
        raise KolmotkError(f"{n_fail} of {len(reports)} checks failed")
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "gramian": cmd_gramian,
    "evaluate": cmd_evaluate,
    "solve": cmd_solve,
    "verify": cmd_verify,
}


def _parser():
    p = argparse.ArgumentParser(
        prog="kolmotk",
        description="Degenerate Kolmogorov operator toolkit: analysis, "
        "simulation, semigroup evaluation and verification.",
    )
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--threads", type=int, default=None,
                   help="worker thread cap (overrides config threads, default 1)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--budget", type=int, default=None, help="override sample budget")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # an overflow or invalid value anywhere in the run, worker threads
        # included, raises here instead of flowing on as inf or NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cfg = load_config(args.config)
            if args.threads is None:
                args.threads = cfg.param("threads", 1)
            if args.threads < 1:
                raise ConfigError("--threads must be >= 1")
            if args.seed is None:
                args.seed = cfg.param("seed", 0)
            elif not 0 <= args.seed < 2**64:
                raise ConfigError("--seed must be an integer in [0, 2**64)")
            if args.budget is not None and args.budget < 2:
                raise ConfigError("--budget must be >= 2")
            return _COMMANDS[args.command](cfg, args)
    except (ConfigError, NotHypoelliptic, ValueError) as exc:
        # a ValueError is a library precondition that the config did not meet
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KolmotkError, ArithmeticError, MemoryError, RuntimeWarning) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
