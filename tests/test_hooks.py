"""The names the benchmark (`splitbench/`) replaces from outside the
package, and the report fields it reads. Its tracer and its per-step
stamps swap these attributes for timing wrappers, so each must resolve
to a callable, and the program must look each one up in the patched
module when it calls it."""

import importlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from sidetune import (
    BackboneConfig,
    DeviceConfig,
    ServerConfig,
    SyntheticTask,
    backbone,
    device,
    kernels,
    server,
    training,
    wire,
)
from sidetune.quantize import payload_code_bytes
from sidetune.transport import loopback_pair

HOOKS = {
    "device": ("make_batch", "forward_collect", "quantize", "encode"),
    "backbone": ("layer_forward", "_self_attention"),
    "kernels": ("matmul", "batched_matmul", "softmax_rows", "layer_norm", "mean_pool"),
    "server": ("train_iteration",),
    "training": ("dequantize", "side_forward", "side_backward", "loss_and_grad",
                 "adam_step"),
    "wire": ("StreamDecoder.feed",),
}


ROOT = Path(__file__).resolve().parents[1]

# Installs the benchmark's own tracer on both ends of a loopback pair, then
# runs a two-step split session through the wrappers; prints the span
# names each role recorded. A wrapped name that is gone fails the install.
TRACED_SESSION = """
import json, sys, threading
sys.path[:0] = sys.argv[1:]
from tracing import Tracer, install_device, install_server
from sidetune import BackboneConfig, DeviceConfig, ServerConfig, SyntheticTask
from sidetune import device, server
from sidetune.transport import loopback_pair

model = BackboneConfig(vocab_size=16, hidden=16, layers=2, heads=2, max_seq=15)
dev_end, srv_end = loopback_pair()
tracers = {"device": Tracer("device"), "server": Tracer("server")}
install_device(tracers["device"], dev_end)
install_server(tracers["server"], srv_end)
thread = threading.Thread(target=server.run_server,
                          args=(ServerConfig(backbone=model, bottleneck=8), srv_end))
thread.start()
device.run_device(DeviceConfig(backbone=model, task=SyntheticTask(seq_len=15), batch_size=4,
                               iterations=2), dev_end)
thread.join(timeout=30)
assert not thread.is_alive(), "run_server did not return"
dev_end.close()
srv_end.close()
print(json.dumps({role: sorted({span[2] for span in t.spans})
                  for role, t in tracers.items()}))
"""


# For each workload named on the command line, runs local_mode on the
# benchmark's own configs, as its cross-check does, and encodes one batch
# frame; prints what the benchmark would check of them.
BENCHMARK_CONFIGS = """
import json, sys
sys.path[:0] = sys.argv[1:2]
import run, workloads
from sidetune import local_mode
from sidetune.backbone import ForwardWorkspace
from sidetune.device import compute_batch, load_device_backbone
from sidetune.wire import BatchFrame, encode

out = {}
for name in sys.argv[2:]:
    w = workloads.WORKLOADS[name]
    config = workloads.device_config(w, 0, steps=workloads.LOCAL_CHECK_STEPS)
    report = local_mode(config, workloads.server_config(w))
    ws = ForwardWorkspace(config.backbone, config.batch_size, config.task.seq_len)
    frame = BatchFrame.for_session(config.hello())
    compute_batch(load_device_backbone(config), config, 0, ws, frame)
    out[name] = {"steps": workloads.LOCAL_CHECK_STEPS, "iterations": report.iterations,
                 "refused": dict(report.invalid), "frame_bytes": len(encode(frame)),
                 "expected_frame_bytes": run.expected_frame_bytes(w)}
print(json.dumps(out))
"""


def run_with_splitbench(script, *args):
    """Run `script` in a fresh interpreter with the source tree importable
    and `splitbench/` first on sys.path; returns its parsed JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, str(ROOT / "splitbench"), *args],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_the_benchmark_tracer_installs_on_both_roles_and_records_a_session():
    layers = run_with_splitbench(TRACED_SESSION)
    assert {"backbone.forward", "backbone.layer", "backbone.attn", "quantize.quantize",
            "wire.encode", "transport.send"} <= set(layers["device"])
    assert {"server.step", "quantize.dequantize", "sidenet.forward", "sidenet.backward",
            "training.loss", "training.adam", "wire.decode"} <= set(layers["server"])


def test_the_benchmark_workloads_run_locally_and_frame_as_the_benchmark_expects():
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    runs = run_with_splitbench(BENCHMARK_CONFIGS, *names)
    assert sorted(runs) == sorted(names)
    for name, run in runs.items():
        assert run["iterations"] == run["steps"] and not run["refused"], name
        assert run["frame_bytes"] == run["expected_frame_bytes"], name


def test_the_reports_serve_every_field_the_benchmark_records():
    model = BackboneConfig(vocab_size=16, hidden=16, layers=2, heads=2, max_seq=15)
    dev_end, srv_end = loopback_pair()
    out = {}
    thread = threading.Thread(target=lambda: out.update(report=server.run_server(
        ServerConfig(backbone=model, bottleneck=8), srv_end)))
    thread.start()
    try:
        dev = device.run_device(DeviceConfig(backbone=model, task=SyntheticTask(seq_len=15),
                                             batch_size=4, iterations=2), dev_end)
    finally:
        dev_end.close()
        thread.join(timeout=30)
    assert not thread.is_alive(), "run_server did not return"
    srv_end.close()
    srv = out["report"]
    # the dicts splitbench/role.py writes as each role's result
    recorded = json.loads(json.dumps({
        "device": {"iterations": dev.iterations, "bytes_sent": dev.bytes_sent,
                   "max_queued_bytes": dev.max_queued_bytes, "aborted": dev.aborted,
                   "wall_s": dev.wall_s, "entries": dev.entries},
        "server": {"iterations": srv.iterations, "dropped": srv.dropped,
                   "losses": srv.losses, "clean_shutdown": srv.clean_shutdown,
                   "rejected": srv.rejected},
    }))
    assert recorded["server"] == {"iterations": 2, "dropped": 0, "losses": srv.losses,
                                  "clean_shutdown": True, "rejected": None}
    assert len(recorded["device"]["entries"]) == 2 and not recorded["device"]["aborted"]
    assert all({"t_queue_ms", "queue_depth"} <= e.keys() for e in recorded["device"]["entries"])
    # the tracer's wire.frames_skipped reads each decoder's count; no frame is ever skipped
    assert wire.StreamDecoder().skipped == 0


@pytest.mark.parametrize("module,path", [(m, p) for m, paths in HOOKS.items() for p in paths])
def test_every_patched_name_resolves_to_a_callable(module, path):
    owner = importlib.import_module(f"sidetune.{module}")
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def device_batch(weights, config, i, ws):
    """Batch `i` as a server receives it: the device's frame decoded
    against the session's Hello; the batch views a frame of its own."""
    hello = config.hello()
    frame = wire.BatchFrame.for_session(hello)
    device.compute_batch(weights, config, i, ws, frame)
    return wire.try_decode(wire.encode(frame), hello.batch_payload(), hello)[0]


def counting(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_compute_batch_calls_the_patched_forward_once_per_batch(monkeypatch):
    model = BackboneConfig(vocab_size=16, hidden=16, layers=2, heads=2, max_seq=15)
    config = DeviceConfig(backbone=model, task=SyntheticTask(seq_len=15), batch_size=4,
                          iterations=3)
    weights = device.load_device_backbone(config)
    ws = backbone.ForwardWorkspace(model, config.batch_size, config.task.seq_len)
    frame = wire.BatchFrame.for_session(config.hello())
    # each forward's state when it returns; each quantize's forward and code bytes
    forwards, quantizes = [], []
    inner_forward, inner_quantize = device.forward_collect, device.quantize

    def forward(*args, **kwargs):
        forwards.append("running")
        result = inner_forward(*args, **kwargs)
        forwards[-1] = "returned"
        return result

    def quantize(*args, **kwargs):
        q = inner_quantize(*args, **kwargs)
        quantizes.append((len(forwards), forwards[-1] if forwards else None, len(q.codes)))
        return q

    monkeypatch.setattr(device, "forward_collect", forward)
    monkeypatch.setattr(device, "quantize", quantize)
    layers = counting(monkeypatch, backbone, "layer_forward")
    for i in range(config.total_iterations):
        device.compute_batch(weights, config, i, ws, frame)
        assert forwards == ["returned"] * (i + 1)
        # gamma quantizes per batch, each inside that batch's one forward,
        # each with the codes of a whole tap
        code_bytes = payload_code_bytes(math.prod(config.hello().batch_shape), config.scheme)
        assert quantizes == [(n, "running", code_bytes)
                             for n in range(1, i + 2) for _ in range(model.gamma)]
    # one layer call per layer and slab; this small batch is one slab
    assert backbone.slab_sequences(15, model, "float32") >= config.batch_size
    assert len(layers) == config.total_iterations * model.layers


def test_train_iteration_calls_each_patched_server_kernel_once_per_use(monkeypatch):
    model = BackboneConfig(vocab_size=16, hidden=16, layers=2, heads=2, max_seq=15,
                           block_cuts=(1, 2))
    config = DeviceConfig(backbone=model, task=SyntheticTask(seq_len=15), batch_size=4,
                          iterations=2)
    weights = device.load_device_backbone(config)
    ws = backbone.ForwardWorkspace(model, config.batch_size, config.task.seq_len)
    batches = [device_batch(weights, config, i, ws) for i in range(2)]
    server_cfg = ServerConfig(backbone=model, bottleneck=8)
    state = server._make_state(server_cfg, config.hello(), server_cfg.initial_params())
    dequantizes = counting(monkeypatch, training, "dequantize")
    layer_norms = counting(monkeypatch, kernels, "layer_norm")
    mean_pools = counting(monkeypatch, kernels, "mean_pool")
    for i, batch in enumerate(batches, start=1):
        training.train_iteration(state, batch)
        # the side network reads each tap when an adapter needs it: once in
        # the forward, the last once more for the gate, once in the backward
        assert len(dequantizes) == i * (2 * model.gamma + 1)
        assert len(layer_norms) == i * model.num_blocks
        assert len(mean_pools) == i
