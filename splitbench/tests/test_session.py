"""Two-process smoke runs on a tiny model, and the benchmark's own gates."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from session import run_session
from tracing import now

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

TINY = workloads.Workload(
    "tiny", batch=4, seq=7, scheme="nf4", steps=3, heldout_batches=1,
    model=workloads.Model(hidden=8, layers=2, heads=2, max_seq=16, cuts=(1, 2),
                          bottleneck=4),
)


def session(tmp_path, mode, name, frame_bytes=None):
    return run_session(workloads.to_json(TINY), 5, TINY.steps,
                       frame_bytes or run.expected_frame_bytes(TINY), mode,
                       str(tmp_path / name), run.SRC, now() + 60)


def test_untraced_session_trains_every_step(tmp_path):
    s = session(tmp_path, "off", "s0")
    assert s.ok, s.problems
    assert len(s.losses) == TINY.steps
    assert len(s.completions()) == TINY.steps
    assert s.setup_s > 0
    assert s.rss_kib["device"] > 0 and s.rss_kib["server"] > 0
    assert s.device["report"]["bytes_sent"] == TINY.steps * run.expected_frame_bytes(TINY)
    assert not os.path.exists(s.spans_path("device"))
    assert run.cross_checks(TINY, 5, [s]) == []


def test_traced_and_untraced_give_identical_losses(tmp_path):
    off = session(tmp_path, "off", "off")
    spans = session(tmp_path, "spans", "spans")
    memory = session(tmp_path, "memory", "memory")
    for s in (off, spans, memory):
        assert s.ok, s.problems
    assert spans.losses == off.losses
    assert memory.losses == off.losses
    layers = {sp["layer"] for sp in spans.spans("device") + spans.spans("server")}
    assert {"backbone.attn", "kernels.matmul", "wire.encode", "wire.decode",
            "transport.send", "transport.recv", "server.step", "training.adam"} <= layers
    assert memory.device["traced_peak_bytes"] > 0


def test_a_wrong_frame_size_fails_the_session(tmp_path):
    s = session(tmp_path, "off", "s", frame_bytes=run.expected_frame_bytes(TINY) + 1)
    assert not s.ok
    assert any("bytes" in p for p in s.problems)


def test_diverging_losses_fail_the_cross_check(tmp_path):
    a = session(tmp_path, "off", "a")
    b = session(tmp_path, "off", "b")
    b.server["report"]["losses"][-1] += 1e-7
    assert any("losses differ" in p for p in run.cross_checks(TINY, 5, [a, b]))


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    result = run.benchmark(TINY, 5, 0.0, True, "tiny")
    assert result["correct"], result["problems"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert [s["mode"] for s in result["sessions"]] == ["off", "spans", "memory"]
    assert result["trace_details"]["model_slowest"] in ("device_forward", "uplink",
                                                        "server_step")


def test_untraced_run_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    result = run.benchmark(TINY, 5, 0.0, False, "tiny")
    assert result["correct"], result["problems"]
    assert result["attempted"] == 3 * TINY.steps and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["provenance"]["blas_threads_per_role"] == {"device": 1, "server": 1}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "splitbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "splitbench/run.py", "--workload", "long_seq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_frames_match_the_cost_model(name):
    w = workloads.WORKLOADS[name]
    expected = {"long_seq": 326_609, "short_seq": 1_306_833, "slow_uplink": 80_849}
    assert run.expected_frame_bytes(w) == expected[name]
