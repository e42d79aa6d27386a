"""Metric extraction from session stamps and spans. Pure functions only.

Time stamps are seconds on one monotonic clock; span durations are ms.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# ---------------------------------------------------------------- end to end


def window_gaps(completions: list[float]) -> list[float]:
    """Gaps between consecutive step completions, in seconds.

    The steady-state window opens at the first completion, so set-up and
    the pipeline fill before it never count; it closes at the last.
    """
    stamps = sorted(completions)
    return [b - a for a, b in zip(stamps, stamps[1:])]


def samples_per_s(sessions_gaps: list[list[float]], batch: int) -> float:
    """Median over sessions of the samples trained per second in each
    session's steady-state window.

    A window with n completions spans n - 1 steps, so each gap is one
    batch of samples.
    """
    return statistics.median(batch * len(gaps) / sum(gaps) for gaps in sessions_gaps if gaps)


def step_ms_p50(sessions_gaps: list[list[float]]) -> float:
    return 1e3 * statistics.median(g for gaps in sessions_gaps for g in gaps)


def cpu_gaps(cpu_stamps: list[float]) -> list[float]:
    """CPU seconds a role spent between consecutive stamps, in stamp order."""
    return [b - a for a, b in zip(cpu_stamps, cpu_stamps[1:])]


def cpu_ms_per_step(sessions_cpu_gaps: list[list[float]]) -> float:
    """CPU of the sessions' steady-state steps ÷ their number.

    A mean, not a median: on a busy host one step's CPU is often either
    of two levels, and a median of such steps jumps between them.
    """
    gaps = [g for gaps in sessions_cpu_gaps for g in gaps]
    return 1e3 * sum(gaps) / len(gaps)


def rss_mib(ru_maxrss_kib: int) -> float:
    return ru_maxrss_kib / 1024.0


# ------------------------------------------------------------------- spans


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its direct children cover (ms).

    Spans nest within one thread: a child starts no earlier and ends no
    later than its parent. Spans of different threads never nest.
    """
    out = [s["dur_ms"] for s in spans]
    by_thread = defaultdict(list)
    for i, s in enumerate(spans):
        by_thread[(s["role"], s["thread"])].append(i)
    for idxs in by_thread.values():
        idxs.sort(key=lambda i: (spans[i]["t_start"], -spans[i]["dur_ms"]))
        stack: list[int] = []
        for i in idxs:
            start = spans[i]["t_start"]
            while stack and _end(spans[stack[-1]]) <= start:
                stack.pop()
            if stack:
                out[stack[-1]] -= spans[i]["dur_ms"]
            stack.append(i)
    return out


def _end(span: dict) -> float:
    return span["t_start"] + span["dur_ms"] / 1e3


class BatchTable:
    """Per-batch sums and call counts of each layer, for one role.

    Keys are (session, batch_id); only batches that `opener` started are
    rows, so work outside any batch (handshake, idle receives) stays out.
    """

    def __init__(self, spans_by_session: list[list[dict]], opener: str):
        self.ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.n = defaultdict(float)
        self.total_ms = defaultdict(float)
        self.total_calls = defaultdict(int)
        self.rows = []
        for k, spans in enumerate(spans_by_session):
            for s in spans:
                self.total_ms[s["layer"]] += s["dur_ms"]
                self.total_calls[s["layer"]] += 1
                key = (k, s["batch_id"])
                if s["layer"] == opener:
                    self.rows.append(key)
                self.ms[key, s["layer"]] += s["dur_ms"]
                self.calls[key, s["layer"]] += 1
                if s["n"] is not None:
                    self.n[key, s["layer"]] += s["n"]

    def median_ms(self, *layers: str) -> float:
        return statistics.median(sum(self.ms[r, l] for l in layers) for r in self.rows)

    def median_calls(self, layer: str) -> float:
        return statistics.median(self.calls[r, layer] for r in self.rows)

    def median_n(self, layer: str) -> float:
        return statistics.median(self.n[r, layer] for r in self.rows)

    def busy_ms(self, *layers: str) -> float:
        return sum(self.total_ms[l] for l in layers)


DEVICE_KERNELS = ("matmul", "batched_matmul", "softmax_rows", "layer_norm")
SERVER_KERNELS = ("matmul", "layer_norm", "mean_pool")
DEVICE_COMPUTE = ("device.make_batch", "backbone.forward", "quantize.quantize")
UPLINK = ("wire.encode", "transport.send")


def layer_metrics(device_spans: list[list[dict]], server_spans: list[list[dict]],
                  device_results: list[dict], server_results: list[dict],
                  traced_peak_bytes: dict) -> tuple[dict, dict]:
    """Per-layer figures of the traced sessions: per-step medians and counts.

    `*_spans` hold one span list per traced session and `*_results` the
    matching role results (stamps, reports, counters);
    `traced_peak_bytes` maps each role to its tracemalloc peak. Returns
    the metrics and the details behind them: each pipeline stage's busy
    share, the device stage's per-step time and each layer's self time.
    """
    dev = BatchTable(device_spans, "device.make_batch")
    srv = BatchTable(server_spans, "server.step")
    steps = len(srv.rows)
    out = {}

    out["backbone.forward_ms"] = dev.median_ms("backbone.forward")
    out["backbone.attn_ms"] = dev.median_ms("backbone.attn")
    layer_ms = [dev.ms[r, "backbone.layer"] for r in dev.rows]
    attn_ms = [dev.ms[r, "backbone.attn"] for r in dev.rows]
    fwd_ms = [dev.ms[r, "backbone.forward"] for r in dev.rows]
    out["backbone.ffn_ms"] = statistics.median(l - a for l, a in zip(layer_ms, attn_ms))
    out["backbone.outside_layers_ms"] = statistics.median(
        f - l for f, l in zip(fwd_ms, layer_ms))

    for role, table, names in (("device", dev, DEVICE_KERNELS), ("server", srv, SERVER_KERNELS)):
        for name in names:
            out[f"kernels.{role}.{name}_ms"] = table.median_ms(f"kernels.{name}")
            out[f"kernels.{role}.{name}_calls"] = table.median_calls(f"kernels.{name}")

    out["quantize.quantize_ms"] = dev.median_ms("quantize.quantize")
    out["quantize.dequantize_ms"] = srv.median_ms("quantize.dequantize")
    out["quantize.code_bytes"] = dev.median_n("quantize.quantize")

    out["wire.encode_ms"] = dev.median_ms("wire.encode")
    out["wire.decode_ms"] = srv.busy_ms("wire.decode") / steps
    out["wire.frame_bytes"] = dev.median_n("wire.encode")
    out["wire.frames_skipped"] = sum(r["counters"].get("frames_skipped", 0)
                                     for r in server_results)

    out["transport.send_ms"] = dev.median_ms("transport.send")
    out["transport.recv_wait_ms"] = srv.busy_ms("transport.recv") / steps
    out["transport.recv_calls"] = srv.total_calls["transport.recv"] / steps

    entries = [e for r in device_results for e in r["report"]["entries"]]
    device_window = sum(r["t_end"] - r["t_first_forward"] for r in device_results)
    out["device.queue_put_wait_ms"] = sum(e["t_queue_ms"] for e in entries) / len(entries)
    out["device.queue_depth_max"] = max(e["queue_depth"] for e in entries)
    out["device.max_queued_bytes"] = max(r["report"]["max_queued_bytes"] for r in device_results)
    out["device.busy_share"] = dev.busy_ms(*DEVICE_COMPUTE) / 1e3 / device_window
    out["device.traced_peak_mb"] = traced_peak_bytes["device"] / 2**20

    idle, server_window = [], 0.0
    for r in server_results:
        ordered = sorted(r["steps"], key=lambda s: s[1])  # [batch, start, end, ok, cpu]
        idle += [b[1] - a[2] for a, b in zip(ordered, ordered[1:])]
        server_window += ordered[-1][2] - ordered[0][1]
    out["server.step_busy_ms"] = srv.median_ms("server.step")
    out["server.idle_ms"] = 1e3 * statistics.median(idle) if idle else 0.0
    out["server.busy_share"] = srv.busy_ms("server.step") / 1e3 / server_window
    out["server.dropped"] = sum(r["report"]["dropped"] for r in server_results)
    out["server.traced_peak_mb"] = traced_peak_bytes["server"] / 2**20

    out["sidenet.forward_ms"] = srv.median_ms("sidenet.forward")
    out["sidenet.backward_ms"] = srv.median_ms("sidenet.backward")
    out["training.loss_ms"] = srv.median_ms("training.loss")
    out["training.adam_ms"] = srv.median_ms("training.adam")

    details = {
        # busy share of each pipeline stage over its role's session window;
        # a blocking receive waits rather than works, so only decoding counts
        "stage_busy_share": {
            "device_forward": out["device.busy_share"],
            "uplink": dev.busy_ms(*UPLINK) / 1e3 / device_window,
            "server_decode": srv.busy_ms("wire.decode") / 1e3 / server_window,
            "server_step": out["server.busy_share"],
        },
        "device_stage_ms": dev.median_ms(*DEVICE_COMPUTE),
        "self_ms_per_step": {
            "device": self_ms_per_step(device_spans, steps),
            "server": self_ms_per_step(server_spans, steps),
        },
    }
    return out, details


def self_ms_per_step(spans_by_session: list[list[dict]], steps: int) -> dict:
    """Self time of each layer, summed over the sessions, per trained step."""
    total = defaultdict(float)
    for spans in spans_by_session:
        for span, own in zip(spans, self_times(spans)):
            total[span["layer"]] += own
    return {layer: ms / steps for layer, ms in sorted(total.items())}


def cost_check(iteration_time_estimate, device_ms: float, server_ms: float,
               frame_bytes: float, rate_bps: float, measured_step_ms: float) -> dict:
    """Compare the measured step with the cost model's slowest-stage bound."""
    predicted_ms = 1e3 * iteration_time_estimate(
        device_ms / 1e3, int(frame_bytes), rate_bps, server_ms / 1e3)
    stages = {"device_forward": device_ms, "uplink": frame_bytes * 8e3 / rate_bps,
              "server_step": server_ms}
    return {
        "predicted_step_ms": predicted_ms,
        "step_ratio": measured_step_ms / predicted_ms,
        "model_stages_ms": stages,
        "model_slowest": max(stages, key=stages.get),
        "rate_bps": rate_bps,
    }
