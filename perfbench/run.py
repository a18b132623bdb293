#!/usr/bin/env python3
"""Benchmark for kolmotk: one workload per run, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload drift_mc --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` plays a fixed request sequence, each request untraced then traced,
reports the per-layer metrics and the tracing overhead, and runs the CLI
probe.  The last line of standard output is one JSON object; the lines
before it give every metric with its unit, the environment and each
failed check with its inputs.  Metric names and units come from
BENCHMARK.json; README.md in this directory defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from statistics import median

from stats import nominal_steps, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
HARD_STOP_S = 140.0  # a run must end well within 180 s even on a slow build
CLI_COMMANDS = ("analyze", "gramian", "evaluate", "solve", "verify")
# end-to-end metrics printed but not in BENCHMARK.json (README.md says why)
UNGATED_UNITS = {"wall_s": "s", "request_s_p50": "s", "path_steps_per_s": "1/s",
                 "time_to_target_s": "s", "failed_frac": "1"}


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_kolmotk():
    """Import kolmotk from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kolmotk" / "__init__.py").is_file():
        die(f"no kolmotk sources under {src}")
    sys.path.insert(0, str(src))
    import kolmotk

    if Path(kolmotk.__file__).resolve().parent != (src / "kolmotk").resolve():
        die(f"imported kolmotk from {kolmotk.__file__}, not from {src}")
    return kolmotk


def build(k, name, seed):
    """Build a workload's operators and decompositions and warm it up."""
    from workloads import WORKLOADS

    w = WORKLOADS[name](k, seed)
    w.warm_up()
    return w


# --- environment ---------------------------------------------------------------


def git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def host_speed_ms(repeats=5):
    """Median time of a fixed pure-Python loop: the host's CPU speed drifts
    by tens of percent on a shared machine, and this shows when it did."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i
        times.append(time.perf_counter() - t0)
    return 1e3 * median(times)


def environment(seed, load_start, speed_start):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "host_loop_ms_start": speed_start,
        "host_loop_ms_end": host_speed_ms(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
    }


# --- measurement -----------------------------------------------------------------


class Ledger:
    """Checked operations of a run and the failures among them."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []

    def record(self, op, ok, detail, inputs):
        self.attempted += 1
        if not ok:
            self.failures.append({"workload": self.workload, "op": op,
                                  "detail": detail, "inputs": inputs})

    def execute(self, w, r, tracer=None):
        """Run one request; return (latency, outputs or None)."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = w.run(r)
            else:
                with tracer.span(f"request.{w.name}", {"request": r["i"]}):
                    out = w.run(r)
        except Exception:
            dt = time.perf_counter() - t0
            self.record("request", False, traceback.format_exc(limit=3), r)
            return dt, None
        dt = time.perf_counter() - t0
        try:
            for op, ok, detail in w.check(r, out):
                self.record(op, ok, detail, r)
        except Exception:
            self.record("check", False, traceback.format_exc(limit=3), r)
        return dt, out

    def finish(self, w):
        """Checks over all of a workload's requests, such as a rate."""
        for op, ok, detail in w.final_checks():
            self.record(op, ok, detail, {"seed": w.seed, "tally": dict(w.tally)})


def setup_seconds(name, seed):
    """Median wall time of cold set-ups, each a fresh interpreter timed
    from launch to exit, so interpreter start-up counts."""
    vals = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        p = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        vals.append(time.perf_counter() - t0)
        if p.returncode != 0:
            die(f"set-up failed (exit {p.returncode}):\n{p.stderr}", 1)
    return median(vals)


def closed_loop(w, ledger, seconds):
    """Requests back to back until ``seconds`` have passed and the timed
    wall_s sequence is complete."""
    lat, steps, ttt = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= w.wall_requests) or elapsed >= HARD_STOP_S:
            break
        r = w.request(i)
        dt, out = ledger.execute(w, r)
        lat.append(dt)
        steps.append(w.path_steps(r))
        if out is not None:
            est = [(s, e) for _, e, s in out if hasattr(e, "stderr")]
            if est:
                ttt.append(sum(s * (e.stderr / 1e-3) ** 2 for s, e in est))
        i += 1
    done = min(len(lat), w.wall_requests)
    metrics = {
        # scaled to the full sequence only if the hard stop cut it short
        "wall_s": sum(lat[:done]) * w.wall_requests / done,
        "request_s_p50": median(lat),
    }
    metrics["request_s_tail"], pct = tail(lat)
    if sum(steps):
        metrics["path_steps_per_s"] = sum(steps) / sum(lat)
    if ttt:
        metrics["time_to_target_s"] = median(ttt)
    notes = {
        "request_s_tail": f"p{pct:.1f} of {len(lat)} requests",
        "wall_s": f"first {done} of {w.wall_requests} requests"
                  + ("" if done == w.wall_requests else ", hard stop, scaled"),
    }
    return metrics, notes, len(lat)


def threads2_speedup(k, seed, repeats=3):
    """The same simulate_endpoints call at threads=1 and threads=2."""
    from workloads import readme_2d

    spec = readme_2d(k, drift=True)
    x = [0.2, -0.1]
    times = {1: [], 2: []}
    for _ in range(repeats):
        for threads in (1, 2):
            t0 = time.perf_counter()
            k.simulate.simulate_endpoints(spec, x, 0.1, 100, seed, 8192, threads=threads)
            times[threads].append(time.perf_counter() - t0)
    return median(times[1]) / median(times[2])


def cli_probe(seed, ledger):
    """Each CLI command as its own process at --threads 1 and 2; the
    artifacts must be byte-identical across the two."""
    import numpy as np

    rng = np.random.default_rng([seed, 99])
    doc = {
        "operator": {"n": 2, "p_tilde": 1, "Q0": [[1.0]], "A": [[0, 0], [1, 1]],
                     "drift": [{"i": 1, "c": 0.8, "a": [1.0, 0.5], "b": 0.1}]},
        "t": 0.1,
        "x": rng.uniform(-0.5, 0.5, 2).tolist(),
        "seed": int(rng.integers(2**32)),
        "budget": 5000,  # two path chunks, so --threads 2 splits the work
        "field": {"type": "cos", "w": rng.uniform(0.5, 1.5, 2).tolist()},
        "lambda": 1.0,
        "tol": 0.1,
        "paths_per_node": 16,
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    metrics = {}

    def timed(argv):
        t0 = time.perf_counter()
        p = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        return time.perf_counter() - t0, p

    dt, p = timed([sys.executable, "-c", "import kolmotk.cli"])
    ledger.record("cli-import", p.returncode == 0, p.stderr[-500:], {})
    metrics["cli.import_s"] = dt
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        for cmd in CLI_COMMANDS:
            outs = []
            for threads in (1, 2):
                out = Path(tmp) / f"{cmd}-{threads}"
                dt, p = timed([sys.executable, "-m", "kolmotk.cli", cmd, "--config", str(cfg),
                               "--out", str(out), "--threads", str(threads)])
                inputs = {"command": cmd, "threads": threads, "config": doc}
                ledger.record(f"cli-{cmd}-rc", p.returncode == 0,
                              f"rc={p.returncode} {p.stderr[-500:]}", inputs)
                if threads == 1:
                    metrics[f"cli.{cmd}_s"] = dt
                outs.append(out)
            a = {f.name: f.read_bytes() for f in sorted(outs[0].glob("*"))}
            b = {f.name: f.read_bytes() for f in sorted(outs[1].glob("*"))}
            ledger.record(f"cli-{cmd}-threads-identical", bool(a) and a == b,
                          f"files {sorted(a)} vs {sorted(b)}", {"command": cmd, "config": doc})
    return metrics


# --- modes ---------------------------------------------------------------------------


def measure_end_to_end(args, k, ledger):
    setup_s = setup_seconds(args.workload, args.seed)
    w = build(k, args.workload, args.seed)
    metrics, notes, n = closed_loop(w, ledger, args.seconds)
    ledger.finish(w)
    metrics["setup_s"] = setup_s
    notes["setup_s"] = f"median of {SETUP_REPEATS} cold set-ups"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["failed_frac"] = len(ledger.failures) / max(1, ledger.attempted)
    header = f"{args.workload}: {n} requests, closed loop, 1 client, threads=1"
    return metrics, notes, header, dict(w.tally)


def measure_layers(args, k, ledger):
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    w = build(k, args.workload, args.seed)
    others = [build(k, name, args.seed) for name in WORKLOADS if name != args.workload]
    reqs = [w.request(i) for i in range(w.trace_requests)]
    tracer = Tracer()
    untraced = traced = 0.0
    # each request untraced, then traced, so a drift in host speed cancels
    # out of the overhead
    for r in reqs:
        untraced += ledger.execute(w, r)[0]
        with tracer.installed():
            traced += ledger.execute(w, r, tracer)[0]
    with tracer.installed():
        for o in others:  # one request each, so every layer shows in every trace
            ledger.execute(o, o.request(0), tracer)
    for o in (w, *others):
        ledger.finish(o)
    metrics = layer_metrics(tracer.spans, nominal_steps)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["simulate.threads2_speedup"] = threads2_speedup(k, args.seed)
    metrics.update(cli_probe(args.seed, ledger))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.csv"
    tracer.write_csv(spans_path)
    header = (f"{args.workload} traced: {len(reqs)} requests untraced {untraced:.3f} s, "
              f"traced {traced:.3f} s, plus one request of each other workload; "
              f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    return metrics, {}, header, dict(w.tally)


def main(argv=None):
    from workloads import WORKLOADS  # noqa: F401  (fails fast if numpy is missing)

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    k = import_kolmotk()
    if args.setup_probe:
        build(k, args.workload, args.seed)
        return 0

    load_start = list(os.getloadavg())
    speed_start = host_speed_ms()
    import selftest

    selftest.main()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    ledger = Ledger(args.workload)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, notes, header, tally = measure(args, k, ledger)
    env = environment(args.seed, load_start, speed_start)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(UNGATED_UNITS)
    print(header)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:30s} {value:.6g} {units[name]}{note}")
    for name, count in tally.items():
        print(f"  {name:30s} {count} count")
    for f in ledger.failures:
        print("FAIL " + json.dumps(f, default=str))
    print("env " + json.dumps(env))
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "all_metrics": metrics, "tally": tally, "env": env,
                    "failures": ledger.failures}, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
