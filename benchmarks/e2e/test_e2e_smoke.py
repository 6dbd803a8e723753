"""Tier-1 smoke test of the e2e benchmark at a ``tiny.json``-sized universe.

Keeps the contract (``BENCHMARK.json``), the emitted metric names and
the boundary table in step, so a refactor that renames a boundary
fails here instead of silently thinning the waterfall.
"""

import functools
import json
import re
import statistics
import time

import pytest

import boundaries
import run
import stats

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONTRACT = run.contract()
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]


@functools.lru_cache(maxsize=None)
def tiny_run(name):
    """One tiny set-up of a workload, measured untraced then traced."""
    module = run.WORKLOADS[name]
    start = time.perf_counter()
    state = module.build(3, module.TINY)
    setup_seconds = [time.perf_counter() - start]
    try:
        measured = module.measure(state, seconds=0.05)
        layer_metrics, tracer = module.layers(state)
    finally:
        module.close(state)
    return run.end_to_end(measured, setup_seconds), measured, \
        layer_metrics, tracer


@pytest.fixture(params=sorted(run.WORKLOADS))
def tiny(request):
    return (request.param,) + tiny_run(request.param)


def test_contract_shape():
    assert sorted(CONTRACT) == ["command", "end_to_end", "paths", "per_layer",
                                "run_seconds", "workloads"]
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert sorted(w["name"] for w in CONTRACT["workloads"]) \
        == sorted(run.WORKLOADS)
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    names = END_TO_END + PER_LAYER + [w["name"] for w in CONTRACT["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in CONTRACT["workloads"])
    assert all(m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert "setup_s" in END_TO_END


def test_untraced_run_emits_every_end_to_end_metric(tiny):
    _, metrics, measured, _, _ = tiny
    assert sorted(metrics) == sorted(END_TO_END)
    assert all(value > 0 for value in metrics.values()), metrics
    assert measured.attempted >= 2
    line = json.loads(run.result_line(metrics, CONTRACT["end_to_end"],
                                      measured.attempted, measured.failed))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert list(line["metrics"]) == END_TO_END


def test_structural_gates_hold_at_tiny_scale(tiny):
    name, _, measured, _, _ = tiny
    # the quality floors are tuned for the full universe; everything
    # else (finite losses, swap identity, overlap, no shedding) must
    # hold at any size
    tolerated = {"quality_floor", "loss_decreases", "recall_floor"}
    assert set(measured.gate_failures) <= tolerated, name


def test_traced_run_covers_the_declared_layers(tiny):
    name, _, _, metrics, tracer = tiny
    assert set(metrics) <= set(PER_LAYER)
    assert tracer.op_roots
    seen = {span[0] for span in tracer.spans}
    for _, qualname, span, workloads in boundaries.BOUNDARIES:
        if name in workloads:
            assert span in seen, "%s never recorded %s" % (qualname, span)
    if name in boundaries.KERNEL_WORKLOADS:
        assert boundaries.KERNEL_SPAN in seen
    assert 0.0 <= metrics["trace.unattributed_share"] < 0.5


def test_self_times_sum_to_the_root(tiny):
    _, _, _, _, tracer = tiny
    own = tracer.self_seconds()
    per_op = {}
    for seconds, span in zip(own, tracer.spans):
        assert seconds > -1e-9, span
        per_op[span[4]] = per_op.get(span[4], 0.0) + seconds
    for span in tracer.spans:
        if span[3] < 0:
            assert per_op[span[4]] == pytest.approx(span[2] - span[1],
                                                    abs=1e-9)


def test_every_per_layer_metric_has_a_producer():
    produced = set()
    for name in run.WORKLOADS:
        produced |= set(tiny_run(name)[2])
    assert produced == set(PER_LAYER)


def test_boundary_table_resolves():
    for module_name, qualname, span, workloads in boundaries.BOUNDARIES:
        owner, attr, raw = boundaries.resolve(module_name, qualname)
        target = raw.__func__ if isinstance(raw, classmethod) else raw
        assert callable(target), qualname
        assert NAME.match(span)
        assert set(workloads) <= set(run.WORKLOADS)
    assert set(boundaries.COUNT_HOOKS) \
        <= {qualname for _, qualname, _, _ in boundaries.BOUNDARIES}


def test_installed_restores_the_originals():
    before = [boundaries.resolve(m, q)[2] for m, q, _, _ in
              boundaries.BOUNDARIES]
    with boundaries.installed(boundaries.Tracer()):
        wrapped = [boundaries.resolve(m, q)[2] for m, q, _, _ in
                   boundaries.BOUNDARIES]
    after = [boundaries.resolve(m, q)[2] for m, q, _, _ in
             boundaries.BOUNDARIES]
    assert all(a is b for a, b in zip(before, after))
    assert all(w is not b for w, b in zip(wrapped, before))


def test_windowed_tail_ignores_a_slow_burst():
    """A 30% slow burst over a fifth of the samples: the raw p90 moves
    by more than 20%, the median of 10-sample window p90s by under 5%."""
    calm = [100.0 + (i * 7919 % 13) * 0.1 for i in range(200)]
    burst = [v * 1.3 if 80 <= i < 120 else v for i, v in enumerate(calm)]
    p90 = stats.percentile_of(90)
    raw_move = p90(burst) / p90(calm) - 1.0
    windowed_move = (stats.window_medians(burst, 10, p90)
                     / stats.window_medians(calm, 10, p90) - 1.0)
    assert raw_move > 0.20
    assert abs(windowed_move) < 0.05


def test_window_estimators():
    assert stats.window_stats([1, 2, 3, 4, 5], 2, max) == [2, 4]
    assert stats.window_medians([1, 2, 3, 4, 5, 6], 2, max) == 4
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5], 99) == 5
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.middle_half_spread(values) == pytest.approx(
        (q3 - q1) / 14.5)
    with pytest.raises(ValueError):
        stats.window_medians([1.0], 2)
