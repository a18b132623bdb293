"""Small numeric helpers shared by the benchmark and its self-test.

Nothing here imports kolmotk: the nominal work counts are defined by the
benchmark from request parameters, so a library change that does the same
job with fewer steps still counts the same work.
"""

from __future__ import annotations

import math

TAIL_BEYOND = 10  # samples that must lie above the reported tail value


def tail(values):
    """Value at the highest percentile with at least TAIL_BEYOND samples
    beyond it, and that percentile.  Needs TAIL_BEYOND + 1 samples."""
    s = sorted(values)
    i = len(s) - TAIL_BEYOND - 1
    if i < 0:
        raise ValueError(f"tail needs at least {TAIL_BEYOND + 1} samples, got {len(s)}")
    return s[i], 100.0 * (i + 1) / len(s)


def binomial_limit(n, p, alpha):
    """Smallest k with P(X > k) <= alpha for X ~ Binomial(n, p): a count
    above it has a chance of at most alpha if the true rate is p."""
    if n == 0:
        return 0
    pmf = (1.0 - p) ** n
    beyond = 1.0 - pmf
    k = 0
    while beyond > alpha and k < n:
        pmf *= (n - k) / (k + 1) * p / (1.0 - p)
        beyond -= pmf
        k += 1
    return k


def nominal_steps(t):
    """Time steps a path to horizon t is charged: the step rule the
    library shipped with when this benchmark was defined (dt = 1e-3, at
    least 32 steps), frozen here so the count is independent of it."""
    return max(32, int(math.ceil(t / 1e-3)))


def fd_starts(multi_index):
    """Shifted starts of the tensor-product central-difference stencil:
    a derivative of order o in one coordinate uses o + 1 points."""
    orders = {}
    for i in multi_index:
        orders[i] = orders.get(i, 0) + 1
    return math.prod(o + 1 for o in orders.values())


def mc_path_steps(paths, t, starts=1):
    """Nominal path-steps of one Monte Carlo estimate at horizon t."""
    return paths * nominal_steps(t) * starts


def quadrature_path_steps(paths_per_node, node_times):
    """Nominal path-steps of a node-wise quadrature solve."""
    return sum(mc_path_steps(paths_per_node, float(t)) for t in node_times)


def self_times(spans):
    """Per-span self time: duration minus the time covered by its direct
    children.  ``spans`` holds (start, end, parent_index) records; children
    of one span never overlap because calls nest on one thread."""
    child = [0.0] * len(spans)
    for start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (start, end, _), c in zip(spans, child)]
