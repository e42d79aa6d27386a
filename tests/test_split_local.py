"""A split run, over loopback or TCP, and a local run train bit-identically,
refuse the same batches and, when a step raises, write the same
checkpoint: the server's backward moves where the work runs, not what
it computes. Inference on the device gives the logits of the server's
step."""

import dataclasses
import io
import socket
import threading

import numpy as np
import pytest

from sidetune import (
    SCHEMES,
    BackboneConfig,
    CsvTask,
    DeviceConfig,
    ModelSpec,
    ServerConfig,
    SyntheticTask,
    TrainState,
    combined_infer,
    device,
    init_adam,
    init_side,
    local_mode,
    make_batch,
    payload_per_iteration,
    run_device,
    run_server,
    save_side,
    train_iteration,
    training,
)
from sidetune.backbone import ForwardWorkspace
from sidetune.sidenet import Workspace
from sidetune.transport import TcpTransport, loopback_pair
from test_hooks import device_batch

BACKBONE = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                          block_cuts=(1, 2, 3, 4))
BATCH, SEQ, ITERS = 8, 15, 5
FRAME_OVERHEAD = 30  # 16-byte frame, batch id, label count, tap count


def configs(scheme, serial, ckpt, task=SyntheticTask(seq_len=SEQ, seed=3)):
    device = DeviceConfig(backbone=BACKBONE, task=task,
                          scheme=scheme, batch_size=BATCH, iterations=ITERS, serial=serial,
                          fetch_checkpoint=True)
    server = ServerConfig(backbone=BACKBONE, lr=5e-3, checkpoint_path=str(ckpt))
    return device, server


def tcp_pair():
    """(device end, server end) of one real TCP connection on 127.0.0.1."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        dev_end = TcpTransport.connect("127.0.0.1", listener.getsockname()[1])
        conn, _ = listener.accept()
    return dev_end, TcpTransport(conn)


def split_run(device_cfg, server_cfg, link):
    dev_end, srv_end = link()
    out = {}
    server = threading.Thread(target=lambda: out.update(report=run_server(server_cfg, srv_end)))
    server.start()
    try:
        device_report = run_device(device_cfg, dev_end)
    finally:
        dev_end.close()
        server.join(timeout=60)
    assert not server.is_alive()
    srv_end.close()
    return device_report, out["report"]


@pytest.mark.parametrize("serial, link", [
    pytest.param(False, loopback_pair, id="pipelined"),
    pytest.param(True, loopback_pair, id="serial"),
    pytest.param(False, tcp_pair, id="pipelined-tcp"),
    pytest.param(True, tcp_pair, id="serial-tcp"),
])
@pytest.mark.parametrize("scheme", ["none_fp16", "nf4"])
def test_split_and_local_runs_are_bit_equal(tmp_path, scheme, serial, link):
    device_cfg, server_cfg = configs(scheme, serial, tmp_path / "split.bin")
    device_report, server_report = split_run(device_cfg, server_cfg, link)

    _, local_cfg = configs(scheme, serial, tmp_path / "local.bin")
    local = local_mode(device_cfg, local_cfg)

    assert server_report.clean_shutdown
    assert server_report.iterations == local.iterations == ITERS
    assert server_report.losses == local.losses
    assert (tmp_path / "split.bin").read_bytes() == (tmp_path / "local.bin").read_bytes()
    fetched_config, fetched_params = device_report.fetched_checkpoint
    fetched = io.BytesIO()
    save_side(fetched, fetched_params, fetched_config)
    assert fetched.getvalue() == (tmp_path / "split.bin").read_bytes()
    spec = ModelSpec(params=1, layers=BACKBONE.layers, hidden=BACKBONE.hidden,
                     heads=BACKBONE.heads, seq_len=SEQ, batch_size=BATCH,
                     gamma=BACKBONE.gamma)
    frame = payload_per_iteration(spec, scheme) + FRAME_OVERHEAD
    assert device_report.bytes_sent == ITERS * frame


def task_with_one_bad_label():
    """A csv task whose batch 2 holds one label outside the head's 2 classes."""
    rng = np.random.default_rng(0)
    labels = np.arange(BATCH * ITERS) % 2
    labels[2 * BATCH + 3] = 2
    return CsvTask(tokens=rng.integers(0, 16, size=(BATCH * ITERS, SEQ)), labels=labels,
                   seq_len=SEQ, vocab_size=16)


@pytest.mark.parametrize("serial", [False, True], ids=["pipelined", "serial"])
def test_split_and_local_runs_refuse_the_same_batch(tmp_path, serial):
    task = task_with_one_bad_label()
    device_cfg, server_cfg = configs("nf4", serial, tmp_path / "split.bin", task=task)
    _, server_report = split_run(device_cfg, server_cfg, loopback_pair)
    _, local_cfg = configs("nf4", serial, tmp_path / "local.bin", task=task)
    local = local_mode(device_cfg, local_cfg)

    assert server_report.invalid == local.invalid == {"label_range": 1}
    assert server_report.iterations == local.iterations == ITERS - 1
    assert server_report.losses == local.losses
    assert (tmp_path / "split.bin").read_bytes() == (tmp_path / "local.bin").read_bytes()


def test_a_step_that_raises_ends_split_and_local_runs_with_the_same_checkpoint(tmp_path,
                                                                              monkeypatch):
    def fails_on_batch_1(state, batch):
        if batch.batch_id == 1:
            raise ValueError("the step failed")
        return training.train_iteration(state, batch)

    monkeypatch.setattr("sidetune.server.train_iteration", fails_on_batch_1)
    device_cfg, server_cfg = configs("nf4", False, tmp_path / "split.bin")
    device_cfg = dataclasses.replace(device_cfg, fetch_checkpoint=False)
    dev_end, srv_end = loopback_pair()
    out = {}

    def serve():
        try:
            run_server(server_cfg, srv_end)
        except ValueError as exc:
            out["error"] = exc

    server = threading.Thread(target=serve)
    server.start()
    try:
        run_device(device_cfg, dev_end)
    finally:
        dev_end.close()
        server.join(timeout=60)
    assert not server.is_alive()
    srv_end.close()
    assert "the step failed" in str(out["error"])

    _, local_cfg = configs("nf4", False, tmp_path / "local.bin")
    with pytest.raises(ValueError, match="the step failed"):
        local_mode(device_cfg, local_cfg)
    assert (tmp_path / "local.bin").read_bytes() == (tmp_path / "split.bin").read_bytes()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_combined_infer_gives_the_logits_of_the_server_step(tmp_path, monkeypatch, scheme):
    device_cfg, server_cfg = configs(scheme, False, tmp_path / "side.bin")
    weights = device.load_device_backbone(device_cfg)
    side_cfg = server_cfg.side_config()
    params = init_side(side_cfg, server_cfg.side_seed)
    tokens, _ = make_batch(device_cfg.task, 0, BATCH)
    inferred = combined_infer(weights, params, side_cfg, tokens, scheme)  # before the step moves params

    forwards = []
    inner = training.side_forward

    def recorded(*args, **kwargs):
        forwards.append(inner(*args, **kwargs))
        return forwards[-1]

    monkeypatch.setattr(training, "side_forward", recorded)
    ws = ForwardWorkspace(BACKBONE, BATCH, SEQ)
    batch = device_batch(weights, device_cfg, 0, ws)
    train_iteration(TrainState(config=side_cfg, params=params, adam=init_adam(params),
                               workspace=Workspace(side_cfg, BATCH, SEQ)), batch)
    step_logits = forwards[0]
    assert inferred.dtype == step_logits.dtype
    assert inferred.tobytes() == step_logits.tobytes()
