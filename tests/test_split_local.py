"""A split run, over loopback or TCP, and a local run train bit-identically:
the server's backward moves where the work runs, not what it computes.
Inference on the device gives the logits of the server's step."""

import dataclasses
import io
import socket
import threading

import pytest

from sidetune import (
    SCHEMES,
    BackboneConfig,
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
from sidetune.transport import TcpTransport, loopback_pair

BACKBONE = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                          block_cuts=(1, 2, 3, 4))
BATCH, SEQ, ITERS = 8, 15, 5
FRAME_OVERHEAD = 30  # 16-byte frame, batch id, label count, tap count


def configs(scheme, serial, ckpt, backbone=BACKBONE):
    device = DeviceConfig(backbone=backbone, task=SyntheticTask(seq_len=SEQ, seed=3),
                          scheme=scheme, batch_size=BATCH, iterations=ITERS, serial=serial,
                          fetch_checkpoint=True)
    server = ServerConfig(backbone=backbone, lr=5e-3, checkpoint_path=str(ckpt))
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


# without the embedding tap the side state starts from zeros
NO_EMBEDDING_TAP = dataclasses.replace(BACKBONE, tap_embedding=False)


@pytest.mark.parametrize("serial, link, backbone", [
    pytest.param(False, loopback_pair, BACKBONE, id="pipelined"),
    pytest.param(True, loopback_pair, BACKBONE, id="serial"),
    pytest.param(False, tcp_pair, BACKBONE, id="pipelined-tcp"),
    pytest.param(True, tcp_pair, BACKBONE, id="serial-tcp"),
    pytest.param(False, loopback_pair, NO_EMBEDDING_TAP, id="pipelined-no-embedding-tap"),
])
@pytest.mark.parametrize("scheme", ["none_fp16", "nf4"])
def test_split_and_local_runs_are_bit_equal(tmp_path, scheme, serial, link, backbone):
    device_cfg, server_cfg = configs(scheme, serial, tmp_path / "split.bin", backbone)
    device_report, server_report = split_run(device_cfg, server_cfg, link)

    _, local_cfg = configs(scheme, serial, tmp_path / "local.bin", backbone)
    local = local_mode(device_cfg, local_cfg)

    assert server_report.clean_shutdown
    assert server_report.iterations == local.iterations == ITERS
    assert server_report.losses == local.losses
    assert (tmp_path / "split.bin").read_bytes() == (tmp_path / "local.bin").read_bytes()
    fetched_config, fetched_params = device_report.fetched_checkpoint
    fetched = io.BytesIO()
    save_side(fetched, fetched_params, fetched_config)
    assert fetched.getvalue() == (tmp_path / "split.bin").read_bytes()
    spec = ModelSpec(params=1, layers=backbone.layers, hidden=backbone.hidden,
                     heads=backbone.heads, seq_len=SEQ, batch_size=BATCH,
                     gamma=backbone.gamma)
    frame = payload_per_iteration(spec, scheme) + FRAME_OVERHEAD
    assert device_report.bytes_sent == ITERS * frame


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
    batch, _ = device.compute_batch(weights, device_cfg, 0)
    train_iteration(TrainState(config=side_cfg, params=params, adam=init_adam(params)), batch)
    step_logits = forwards[0][0]
    assert inferred.dtype == step_logits.dtype
    assert inferred.tobytes() == step_logits.tobytes()
