"""A split run, over loopback or TCP, and a local run train bit-identically:
the server's backward moves where the work runs, not what it computes."""

import io
import socket
import threading

import pytest

from sidetune import (
    BackboneConfig,
    DeviceConfig,
    ModelSpec,
    ServerConfig,
    SyntheticTask,
    local_mode,
    payload_per_iteration,
    run_device,
    run_server,
    save_side,
)
from sidetune.transport import TcpTransport, loopback_pair

BACKBONE = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                          block_cuts=(1, 2, 3, 4))
BATCH, SEQ, ITERS = 8, 15, 5
FRAME_OVERHEAD = 30  # 16-byte frame, batch id, label count, tap count


def configs(scheme, serial, ckpt):
    device = DeviceConfig(backbone=BACKBONE, task=SyntheticTask(seq_len=SEQ, seed=3),
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
