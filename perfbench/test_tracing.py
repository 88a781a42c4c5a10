"""Tests of the benchmark's own arithmetic: self times and percentiles.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_tracing.py
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


class TestSelfTimes:
    def test_root_without_children_keeps_its_duration(self):
        assert tracing.self_times([1.0], [4.0], [-1]) == [3.0]

    def test_children_are_subtracted_from_their_direct_parent_only(self):
        # root [0, 10] > a [1, 6] > b [2, 5]; root > c [7, 9]
        starts = [0.0, 1.0, 2.0, 7.0]
        ends = [10.0, 6.0, 5.0, 9.0]
        parents = [-1, 0, 1, 0]
        assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 3.0, 2.0]

    def test_self_times_under_a_root_add_up_to_its_duration(self):
        starts = [0.0, 0.5, 0.75, 2.0, 2.5]
        ends = [4.0, 1.5, 1.25, 3.5, 3.0]
        parents = [-1, 0, 1, 0, 3]
        assert sum(tracing.self_times(starts, ends, parents)) == 4.0

    def test_summary_attributes_descendants_below_each_ancestor(self):
        spans = [
            ("chunk", 0.0, 10.0, -1, 0),
            ("cleaning", 1.0, 6.0, 0, 0),
            ("dsm.locate", 2.0, 5.0, 1, 0),
            ("annotation", 7.0, 9.0, 0, 0),
        ]
        summary = tracing.SpanSummary.from_spans(spans)
        assert summary.self_time["cleaning"] == 2.0
        assert summary.self_time["chunk"] == 3.0
        assert summary.below["chunk"] == 7.0  # 2 + 3 + 2
        assert summary.below["cleaning"] == 3.0
        assert summary.below_by_root["chunk", "chunk"] == 7.0
        assert summary.total_by_root["chunk", "dsm.locate"] == 3.0
        assert summary.calls["dsm.locate"] == 1

    def test_recursive_spans_count_once_below_a_shared_name(self):
        spans = [
            ("dsm.locate", 0.0, 4.0, -1, 0),
            ("dsm.locate", 1.0, 3.0, 0, 0),
            ("leaf", 1.5, 2.5, 1, 0),
        ]
        summary = tracing.SpanSummary.from_spans(spans)
        # The inner locate and the leaf, each counted once.
        assert summary.below["dsm.locate"] == 2.0
        assert summary.self_time["dsm.locate"] == 3.0
        assert summary.total["dsm.locate"] == 6.0


class TestTracer:
    def test_nested_spans_record_their_parent(self):
        tracer = tracing.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [(name, parent) for name, _, _, parent, _ in tracer.spans()]
        assert names == [("outer", -1), ("inner", 0)]

    def test_threads_keep_their_own_parent_stacks(self):
        tracer = tracing.Tracer()

        def work():
            with tracer.span("thread-root"):
                pass

        with tracer.span("main-root"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        parents = {name: parent for name, _, _, parent, _ in tracer.spans()}
        assert parents == {"main-root": -1, "thread-root": -1}

    def test_patches_wrap_and_restore_inherited_methods(self):
        class Base:
            def work(self):
                return 1

        class Child(Base):
            pass

        tracer = tracing.Tracer()
        patches = tracing.Patches()
        patches.method(
            Child, "work", lambda fn: tracing._span_wrapper(tracer, "w", fn)
        )
        assert Child().work() == 1
        assert tracer.summary().calls["w"] == 1
        patches.restore()
        assert "work" not in Child.__dict__
        assert Child().work() == 1
        assert tracer.summary().calls["w"] == 1


class TestPercentileRule:
    @pytest.mark.parametrize(
        "count, percentile, beyond",
        [(100, 90, 10), (166, 90, 16), (166, 95, 8), (99, 90, 9), (10, 50, 5)],
    )
    def test_samples_beyond(self, count, percentile, beyond):
        assert tracing.samples_beyond(count, percentile) == beyond

    def test_p90_needs_a_hundred_samples(self):
        assert not tracing.percentile_admissible(99, 90)
        assert tracing.percentile_admissible(100, 90)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        assert tracing.percentile(values, 50) == 50
        assert tracing.percentile(values, 90) == 90
        assert tracing.percentile([3.0], 90) == 3.0
