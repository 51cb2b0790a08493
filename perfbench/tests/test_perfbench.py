"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import facts  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from measure import (  # noqa: E402
    REFERENCE_PROBE_S,
    Pass,
    scaled,
    tail_percentile,
    timing,
)


# ---------------------------------------------------------------------------
# the tail percentile: the highest one with at least ten items beyond it


def test_tail_percentile_leaves_exactly_ten_items_beyond():
    assert tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert tail_percentile(list(range(1000, 0, -1))) == (99.0, 990)
    percentile, value = tail_percentile([5.0] * 3 + [1.0] * 8)
    assert percentile == pytest.approx(100 / 11)
    assert value == 1.0


@pytest.mark.parametrize("n", [11, 37, 250])
def test_no_higher_rank_keeps_ten_beyond(n):
    latencies = [float(i) for i in range(n)]
    percentile, value = tail_percentile(latencies)
    assert sum(1 for x in latencies if x > value) == 10
    # one rank higher leaves only nine
    assert 100.0 * (n - 9) / n > percentile


def test_tail_percentile_needs_more_than_ten_items():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_timing_reports_the_tail_with_its_percentile_and_count():
    figures = timing([0.001 * k for k in range(1, 41)])
    assert figures["items"] == 40
    assert figures["tail_percentile"] == 75.0
    assert figures["item_tail_ms"] == pytest.approx(30.0)
    assert figures["item_p50_ms"] == pytest.approx(20.5)
    assert figures["wall_s"] == pytest.approx(0.82)


# ---------------------------------------------------------------------------
# timings scaled to the reference speed by the probes around each item


def test_scaled_latencies_follow_the_probes_around_each_item():
    ref = REFERENCE_PROBE_S
    # a probe after every second item; the machine halves its speed halfway
    probes = [ref] * 5 + [2 * ref] * 5
    probes[1] = 9 * ref  # one disturbed probe: the window's median ignores it
    probed_after = list(range(0, 20, 2))
    latencies = [1.0] * 10 + [2.0] * 10
    out = scaled(latencies, probes, probed_after)
    assert out[:6] == pytest.approx([1.0] * 6)
    assert out[14:] == pytest.approx([1.0] * 6)


def test_a_pass_probes_at_its_start_and_after_enough_item_time():
    p = Pass()
    for i in range(4):
        p.step(str(i), lambda: time.sleep(0.06), lambda _: (True, "ok"))
    assert p.probed_after == [0, 2, 4]
    assert len(p.scaled_latencies()) == 4


# ---------------------------------------------------------------------------
# self time from a span tree


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: they cover
    # [1, 6] once) and [9, 12] (sticks out: only [9, 10] counts); the first
    # child has a grandchild [2, 3]
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 3.0, 9.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    assert list(spans.self_times(parents, starts, ends)) == [4.0, 2.0, 3.0, 3.0, 1.0]


def test_self_time_does_not_depend_on_span_order():
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 3.0, 9.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    order = [3, 0, 4, 2, 1]
    where = {old: new for new, old in enumerate(order)}
    shuffled = spans.self_times(
        [where[parents[i]] if parents[i] >= 0 else -1 for i in order],
        [starts[i] for i in order],
        [ends[i] for i in order],
    )
    assert [shuffled[where[i]] for i in range(5)] == [4.0, 2.0, 3.0, 3.0, 1.0]


def test_recorded_spans_nest_and_account_for_the_wall_time():
    tracer = spans.Tracer()
    inner = tracer.wrap("levels.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("rules.outer", lambda: [inner() for _ in range(3)])
    tracer.call("bench.item", outer)
    assert list(tracer.parent_col) == [-1, 0, 1, 1, 1]
    own = spans.self_by_layer(tracer)
    total = tracer.end_col[0] - tracer.start_col[0]
    assert sum(own.values()) == pytest.approx(total)
    assert set(own) == {"bench", "rules", "levels"}
    assert tracer.counts()["levels.inner"] == 3


# ---------------------------------------------------------------------------
# correctness gate


def _run(workload, seconds=0.25, corrupt=None, tracer=None):
    run = workloads.WORKLOADS[workload](7, seconds, HERE)
    p = Pass(tracer)
    if corrupt is not None:
        step = p.step
        p.step = lambda label, fn, check: step(label, lambda: corrupt(fn()), check)
    run(p)
    return p.summary()


def test_clean_outputs_pass_the_gate():
    for workload in ("nom_exact", "option_sets"):
        summary = _run(workload)
        assert summary["error_rate"] == 0, summary["failures"]


def test_corrupted_nom_verdicts_raise_the_error_rate():
    summary = _run("nom_exact", corrupt=lambda report: replace(report, verdict="FAIL"))
    assert summary["error_rate"] == 1.0


def test_corrupted_option_sets_raise_the_error_rate():
    def corrupt(output):
        outcomes, replays = output
        return outcomes + (F(10**6),), replays  # beyond omega and the interval

    summary = _run("option_sets", corrupt=corrupt)
    assert summary["error_rate"] == 1.0
    assert summary["failed"] == summary["attempted"]


def test_facts_reproduce_the_papers_two_agent_economy():
    # peak 1/3 against peak 0 with omega 1: equal distance gives (2/3, 1/3)
    assert facts.ced_amounts([F(1, 3), F(0)], F(1)) == [F(2, 3), F(1, 3)]
    assert facts.proportional_amounts([F(1, 3), F(0)], F(1)) == [F(1), F(0)]
    assert facts.simple_interval(F(1, 3), F(1), 2) == (F(1, 3), F(1, 2))
    assert not facts.between([F(2, 3), F(1, 3)], [F(1, 3), F(0)], [F(1, 2)] * 2, F(1))


# ---------------------------------------------------------------------------
# tracing changes no output and counts the same work twice


def test_tracing_keeps_outputs_and_repeats_counts():
    plain = _run("nom_exact")
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            traced = _run("nom_exact", tracer=tracer)
        finally:
            uninstall()
        assert traced["digest"] == plain["digest"]
        metrics = spans.layer_metrics(tracer, sum(traced["latencies"]))
        assert metrics["rules.calls"] == 0
        assert metrics["manipulation.misreports"] > 0
        counts.append(spans.work_counters(tracer))
    assert counts[0] == counts[1]

    # a traced run prints exactly the per-layer metrics BENCHMARK.json names
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    printed = set(metrics) | {"cli.stdout_bytes", "trace.overhead_s", "trace.counters_repeat"}
    assert printed == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert bench_run.per_layer_unit(m["name"]) == m["unit"], m["name"]
    assert bench_run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]}

    from allotment import manipulation, preferences

    assert not hasattr(manipulation.check_nom, "__wrapped__")
    assert not hasattr(preferences.SinglePeaked.disutility, "__wrapped__")
