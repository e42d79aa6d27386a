"""Metric extraction on synthetic stamps and spans."""

import pytest

import metrics
from sidetune.costs import iteration_time_estimate


def span(layer, t_start, dur_ms, thread=1, role="device", batch_id=0, n=None):
    return {"role": role, "thread": thread, "batch_id": batch_id, "layer": layer,
            "t_start": t_start, "dur_ms": dur_ms, "n": n}


class TestWindow:
    def test_gaps_are_sorted_differences(self):
        assert metrics.window_gaps([3.0, 1.0, 2.5]) == pytest.approx([1.5, 0.5])

    def test_window_opens_at_first_completion(self):
        # spawned at 0, first completion at 10: the 10 s of set-up never count
        gaps = metrics.window_gaps([10.0, 11.0, 12.0, 13.0])
        assert metrics.samples_per_s([gaps], batch=4) == pytest.approx(4.0)

    def test_single_completion_has_no_window(self):
        assert metrics.window_gaps([5.0]) == []

    def test_rate_is_the_median_over_sessions(self):
        fast = metrics.window_gaps([0.0, 1.0, 2.0])       # 2 steps in 2 s
        mid = metrics.window_gaps([50.0, 52.0])           # 1 step in 2 s
        slow = metrics.window_gaps([100.0, 104.0])        # 1 step in 4 s
        assert metrics.samples_per_s([fast, slow, mid], batch=6) == pytest.approx(3.0)

    def test_rate_skips_sessions_without_a_window(self):
        assert metrics.samples_per_s([[], [0.5, 0.5]], batch=2) == pytest.approx(4.0)

    def test_median_gap(self):
        gaps = [metrics.window_gaps([0.0, 0.1, 0.3]), metrics.window_gaps([5.0, 5.5])]
        assert metrics.step_ms_p50(gaps) == pytest.approx(200.0)


class TestPerStep:
    def test_cpu_gaps_follow_stamp_order(self):
        assert metrics.cpu_gaps([1.0, 1.25, 2.0]) == pytest.approx([0.25, 0.75])

    def test_cpu_per_step_pools_the_sessions_steps(self):
        gaps = [metrics.cpu_gaps([0.0, 0.1, 0.2]), metrics.cpu_gaps([5.0, 5.4])]
        assert metrics.cpu_ms_per_step(gaps) == pytest.approx(200.0)  # the median is 100

    def test_rss_from_kib(self):
        assert metrics.rss_mib(2048) == 2.0


class TestSelfTimes:
    def test_nested_children_subtract_from_direct_parent_only(self):
        spans = [
            span("parent", 0.000, 10.0),
            span("child", 0.001, 4.0),
            span("grandchild", 0.002, 1.0),
            span("child", 0.006, 2.0),
        ]
        assert metrics.self_times(spans) == pytest.approx([4.0, 3.0, 1.0, 2.0])

    def test_threads_do_not_nest(self):
        spans = [span("a", 0.0, 10.0, thread=1), span("b", 0.001, 5.0, thread=2)]
        assert metrics.self_times(spans) == pytest.approx([10.0, 5.0])

    def test_roles_do_not_nest(self):
        spans = [span("a", 0.0, 10.0, role="device"), span("b", 0.001, 5.0, role="server")]
        assert metrics.self_times(spans) == pytest.approx([10.0, 5.0])

    def test_sequential_spans_are_siblings(self):
        spans = [span("a", 0.0, 1.0), span("b", 0.001, 1.0), span("c", 0.002, 1.0)]
        assert metrics.self_times(spans) == pytest.approx([1.0, 1.0, 1.0])

    def test_self_ms_per_step(self):
        spans = [span("outer", 0.0, 10.0), span("inner", 0.001, 6.0)]
        assert metrics.self_ms_per_step([spans, spans], steps=4) == pytest.approx(
            {"inner": 3.0, "outer": 2.0})


class TestBatchTable:
    def test_rows_are_opened_batches(self):
        spans = [
            span("open", 0.0, 1.0, batch_id=0), span("work", 0.0, 2.0, batch_id=0),
            span("work", 0.0, 3.0, batch_id=0),
            span("open", 1.0, 1.0, batch_id=1), span("work", 1.0, 5.0, batch_id=1),
            span("work", 2.0, 7.0, batch_id=-1),  # outside any batch
        ]
        table = metrics.BatchTable([spans], "open")
        assert table.median_ms("work") == pytest.approx(5.0)
        assert table.median_calls("work") == 1.5
        assert table.busy_ms("work") == pytest.approx(17.0)

    def test_sessions_keep_batches_apart(self):
        one = [span("open", 0.0, 1.0, batch_id=0, n=10), span("open", 1.0, 1.0, batch_id=1, n=20)]
        two = [span("open", 0.0, 1.0, batch_id=0, n=40)]
        table = metrics.BatchTable([one, two], "open")
        assert table.rows == [(0, 0), (0, 1), (1, 0)]
        assert table.median_n("open") == 20.0


class TestCostCheck:
    def test_slowest_stage_and_ratio(self):
        check = metrics.cost_check(iteration_time_estimate, device_ms=100.0,
                                   server_ms=50.0, frame_bytes=125_000, rate_bps=1e6,
                                   measured_step_ms=1100.0)
        assert check["model_slowest"] == "uplink"
        assert check["predicted_step_ms"] == pytest.approx(1000.0)
        assert check["step_ratio"] == pytest.approx(1.1)

    def test_device_bound(self):
        check = metrics.cost_check(iteration_time_estimate, 2000.0, 200.0, 1000, 1e9, 2000.0)
        assert check["model_slowest"] == "device_forward"
        assert check["step_ratio"] == pytest.approx(1.0)
