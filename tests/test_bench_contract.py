"""The library names and parameters that the benchmark in perfbench/ binds.

Each workload is built against this checkout's kolmotk and plays its first
request under the benchmark's span tracer, as a traced benchmark run does:
every check must pass and the per-layer metrics must come out.  A renamed
function, parameter or provenance key then fails here, not in a benchmark
run that ends without results.
"""

import sys
from pathlib import Path

import pytest

import kolmotk

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from stats import nominal_steps  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the per-layer metrics each workload must move: they read parameters that
# the tracer binds by name (steps and n_paths, scheme, budget), and the RNG
# time it finds under the name simulate.brownian_increments (0 if absent)
LAYER_METRICS = {
    "drift_mc": ("simulate.path_steps", "simulate.rng_share"),
    "gauss_oracle": ("semigroup.solve_s_per_node",),
    "scaling_verify": ("holder.samples",),
}


def play(name, i):
    """Request i of the workload, run under the tracer: its labelled
    outputs, after every check has passed and the layer metrics moved."""
    w = WORKLOADS[name](kolmotk, 1)
    r = w.request(i)
    tracer = Tracer()
    with tracer.installed(), tracer.span(f"request.{name}"):
        out = w.run(r)
    failed = [(op, detail) for op, ok, detail in w.check(r, out) if not ok]
    assert not failed
    metrics = layer_metrics(tracer.spans, nominal_steps)
    assert [m for m in LAYER_METRICS[name] if not metrics[m] > 0] == []
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_request_passes_under_tracer(name):
    out = play(name, 0)
    if name == "scaling_verify":
        # read with a default by the workload, so a rename would pass unseen
        rep = next(res for label, res, _ in out if label == "schauder_ratio")
        assert {"ratios_base", "ratios_doubled"} <= set(rep.provenance)


def test_drift_mc_pathwise_request_passes_under_tracer():
    """Request 2 of every four adds the pathwise derivative, which steps the
    variation flow and is checked against its Gronwall bound."""
    out = play("drift_mc", 2)
    assert [label for label, _, _ in out] == ["direct", "girsanov", "pathwise"]
