"""Tests for trace aggregation and the breakdown renderer."""

import numpy as np
import pytest

from repro.telemetry import (MetricsRegistry, Tracer, render_summary,
                             summarize_events)
from repro.telemetry.export import collect_sweep_trace
from repro.telemetry.summary import percentile_linear
from repro.sim.results import RunRecord


class StepClock:
    """Returns preprogrammed instants, then keeps stepping by 1."""

    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        if self._instants:
            return self._instants.pop(0)
        return 0.0


def nested_trace():
    # outer: 0 -> 10 (duration 10); inner: 2 -> 5 (duration 3).
    tracer = Tracer(clock=StepClock(0.0, 2.0, 5.0, 10.0))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.observe("threshold_mhz", 500.0)
    tracer.observe("threshold_mhz", 700.0)
    registry = MetricsRegistry()
    registry.inc("drops", 4)
    return tracer.events(counters=registry.counter_events())


class TestSummarizeEvents:
    def test_span_stats(self):
        summary = summarize_events(nested_trace())
        outer = summary.spans["outer"]
        inner = summary.spans["inner"]
        assert outer.count == 1
        assert outer.total_s == pytest.approx(10.0)
        assert outer.mean_s == pytest.approx(10.0)
        assert inner.total_s == pytest.approx(3.0)

    def test_self_time_subtracts_direct_children(self):
        summary = summarize_events(nested_trace())
        assert summary.spans["outer"].self_s == pytest.approx(7.0)
        assert summary.spans["inner"].self_s == pytest.approx(3.0)

    def test_top_level_total_counts_only_parentless_spans(self):
        summary = summarize_events(nested_trace())
        assert summary.top_level_s == pytest.approx(10.0)

    def test_counters_and_values_totalled(self):
        summary = summarize_events(nested_trace() + nested_trace())
        assert summary.counters["drops"] == pytest.approx(8.0)
        assert summary.values["threshold_mhz"] == [500.0, 700.0,
                                                   500.0, 700.0]

    def test_p95(self):
        tracer = Tracer(clock=StepClock(*[float(i) for i in
                                          range(0, 2 * 100, 1)]))
        # 100 spans of duration 1.0 each.
        for _ in range(100):
            with tracer.span("s"):
                pass
        summary = summarize_events(tracer.events())
        assert summary.spans["s"].p95_s == pytest.approx(1.0)

    def test_merged_runs_do_not_cross_link_parents(self):
        records = [RunRecord("A", 1.0, 0, {}, trace=tuple(nested_trace())),
                   RunRecord("B", 1.0, 0, {}, trace=tuple(nested_trace()))]
        merged = collect_sweep_trace(records)
        summary = summarize_events(merged)
        # Two runs: outer self time doubles, not corrupted by reused
        # seq numbers across runs.
        assert summary.spans["outer"].self_s == pytest.approx(14.0)
        assert summary.top_level_s == pytest.approx(20.0)

    def test_attributed_fraction(self):
        summary = summarize_events(nested_trace())
        assert summary.attributed_fraction(10.0) == pytest.approx(1.0)
        assert summary.attributed_fraction(20.0) == pytest.approx(0.5)
        assert summary.attributed_fraction(None) == 1.0
        assert summarize_events([]).attributed_fraction(None) == 0.0


def reentrant_trace():
    # outer lp_solve: 0 -> 10; nested lp_solve (recursive refinement
    # pass): 2 -> 6; its nested child (different name): 3 -> 4.
    tracer = Tracer(clock=StepClock(0.0, 2.0, 3.0, 4.0, 6.0, 10.0))
    with tracer.span("lp_solve"):
        with tracer.span("lp_solve"):
            with tracer.span("pivot"):
                pass
    return tracer.events()


class TestReentrantSpans:
    """A name nested inside itself must not double-count total time."""

    def test_total_counts_outermost_occurrence_only(self):
        summary = summarize_events(reentrant_trace())
        stats = summary.spans["lp_solve"]
        # Naive aggregation would report 10 + 4 = 14s for a 10s run.
        assert stats.total_s == pytest.approx(10.0)
        assert summary.top_level_s == pytest.approx(10.0)

    def test_count_and_distribution_see_every_call(self):
        summary = summarize_events(reentrant_trace())
        stats = summary.spans["lp_solve"]
        assert stats.count == 2
        assert sorted(stats.durations) == pytest.approx([4.0, 10.0])
        assert stats.mean_s == pytest.approx(7.0)
        assert stats.min_s == pytest.approx(4.0)
        assert stats.max_s == pytest.approx(10.0)

    def test_self_time_still_sums_to_wall_time(self):
        summary = summarize_events(reentrant_trace())
        # outer self 10-4=6, inner self 4-1=3, pivot self 1.
        assert summary.spans["lp_solve"].self_s == pytest.approx(9.0)
        assert summary.spans["pivot"].self_s == pytest.approx(1.0)
        total_self = sum(s.self_s for s in summary.spans.values())
        assert total_self == pytest.approx(summary.top_level_s)

    def test_share_never_exceeds_100_percent(self):
        text = render_summary(reentrant_trace())
        row = next(line for line in text.splitlines()
                   if line.startswith("lp_solve"))
        assert row.rstrip().endswith("100.0")

    def test_deep_same_name_chain(self):
        tracer = Tracer(clock=StepClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
        with tracer.span("r"):
            with tracer.span("r"):
                with tracer.span("r"):
                    pass
        summary = summarize_events(tracer.events())
        stats = summary.spans["r"]
        assert stats.count == 3
        assert stats.total_s == pytest.approx(5.0)
        assert summary.top_level_s == pytest.approx(5.0)

    def test_siblings_with_same_name_both_count(self):
        # Two same-name spans side by side are NOT re-entrant.
        tracer = Tracer(clock=StepClock(0.0, 1.0, 2.0, 3.0))
        with tracer.span("s"):
            pass
        with tracer.span("s"):
            pass
        summary = summarize_events(tracer.events())
        assert summary.spans["s"].total_s == pytest.approx(2.0)


class TestPercentileLinear:
    """The p95 estimator is pinned to linear interpolation so the
    summary cannot drift if a future NumPy changes the default."""

    def test_matches_linear_interpolation(self):
        data = [0.0, 1.0, 2.0, 3.0]
        # Linear interpolation: p50 of [0..3] sits between 1 and 2.
        assert percentile_linear(data, 50) == pytest.approx(1.5)
        assert percentile_linear(data, 95) == pytest.approx(2.85)

    def test_matches_numpy_linear_spelling(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(0, 10, size=101)
        try:
            expected = float(np.percentile(data, 95, method="linear"))
        except TypeError:  # numpy < 1.22
            expected = float(np.percentile(data, 95,
                                           interpolation="linear"))
        assert percentile_linear(data, 95) == expected

    def test_p95_uses_pinned_estimator(self):
        tracer = Tracer(clock=StepClock(0.0, 1.0, 1.0, 3.0))
        with tracer.span("s"):
            pass
        with tracer.span("s"):
            pass
        summary = summarize_events(tracer.events())
        # Durations [1.0, 2.0]: linear p95 = 1.95 exactly.
        assert summary.spans["s"].p95_s == pytest.approx(1.95)


class TestRenderSummary:
    def test_text_table_contains_spans_sorted_by_total(self):
        text = render_summary(nested_trace())
        lines = text.splitlines()
        assert "span" in lines[0]
        outer_at = next(i for i, line in enumerate(lines)
                        if line.startswith("outer"))
        inner_at = next(i for i, line in enumerate(lines)
                        if line.startswith("inner"))
        assert outer_at < inner_at
        assert "drops = 4" in text
        assert "threshold_mhz" in text

    def test_markdown_table(self):
        text = render_summary(nested_trace(), markdown=True)
        assert text.splitlines()[0].startswith("| span |")
        assert "|---" in text.splitlines()[1]

    def test_min_max_columns(self):
        tracer = Tracer(clock=StepClock(0.0, 1.0, 1.0, 4.0))
        with tracer.span("s"):
            pass
        with tracer.span("s"):
            pass
        text = render_summary(tracer.events())
        header = text.splitlines()[0]
        assert "min_ms" in header and "max_ms" in header
        row = next(line for line in text.splitlines()
                   if line.startswith("s "))
        assert "1000.000" in row and "3000.000" in row

    def test_total_override_changes_share(self):
        text = render_summary(nested_trace(), total_s=20.0)
        outer_row = next(line for line in text.splitlines()
                         if line.startswith("outer"))
        assert outer_row.rstrip().endswith("50.0")

    def test_empty_trace(self):
        assert "(no spans recorded)" in render_summary([])
