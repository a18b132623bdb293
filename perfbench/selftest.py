"""Self-test of the benchmark's own helpers; run.py calls it before every
measurement, and it runs on its own with ``python3 perfbench/selftest.py``."""

from __future__ import annotations

from stats import binomial_limit, fd_starts, mc_path_steps, nominal_steps, quadrature_path_steps, self_times, tail
from tracing import Tracer, layer_metrics


def check_tail():
    # 100 samples: the 90th value has exactly ten beyond it
    v, pct = tail(range(1, 101))
    assert (v, pct) == (90, 90.0), (v, pct)
    v, pct = tail([5.0] * 3 + list(range(100, 108)))  # 11 samples: the smallest qualifies
    assert (v, round(pct, 3)) == (5.0, round(100 / 11, 3)), (v, pct)
    assert tail(reversed(range(30)))[0] == 19
    try:
        tail(range(10))
    except ValueError:
        pass
    else:
        raise AssertionError("tail accepted 10 samples")


def check_binomial_limit():
    # Binomial(10, 1/2): P(X > 7) = 56/1024 > 0.05 >= P(X > 8) = 11/1024
    assert binomial_limit(10, 0.5, 0.05) == 8
    assert binomial_limit(10, 0.5, 1e-9) == 10 and binomial_limit(0, 0.1, 1e-6) == 0
    # Binomial(200, 0.02), mean 4: P(X > 14) = 1.5e-5 and P(X > 15) = 3.4e-6
    assert binomial_limit(200, 0.02, 1e-5) == 15


def check_self_times():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and d [5, 9]
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # the tracer's layer totals use the same arithmetic on recorded spans
    t = Tracer()
    t.spans[:] = [["request.x", 0.0, 10.0, -1, None],
                  ["gramian.gramian", 1.0, 4.0, 0, None],
                  ["operators.matrix_exp", 2.0, 3.0, 1, None],
                  ["operators.matrix_exp", 5.0, 6.0, 0, None],
                  ["gramian.gramian", 6.5, 8.0, 0, None]]
    m = layer_metrics(t.spans, nominal_steps)
    assert m["gramian.calls"] == 2 and m["gramian.self_s"] == 3.5, m
    assert m["gramian.expm_per_call"] == 0.5 and m["operators.matrix_exp_calls"] == 2, m
    assert m["operators.matrix_exp_us"] == 1e6, m


def check_path_steps():
    assert [nominal_steps(t) for t in (1e-4, 0.032, 0.0321, 0.1, 0.5, 9.21)] == \
        [32, 32, 33, 100, 500, 9210]
    assert [fd_starts(m) for m in ((1,), (2, 2), (1, 1, 1), (1, 2), (1, 1, 2), (1, 2, 3))] == \
        [2, 3, 4, 4, 6, 8]
    assert mc_path_steps(1000, 0.1, fd_starts((1, 2, 3))) == 800_000
    # 32 + 500 + 2000 steps per path at three quadrature nodes
    assert quadrature_path_steps(10, [5e-4, 0.5, 2.0]) == 25_320
    assert quadrature_path_steps(1, []) == 0


def main():
    check_tail()
    check_binomial_limit()
    check_self_times()
    check_path_steps()


if __name__ == "__main__":
    main()
    print("selftest ok")
