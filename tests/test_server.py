"""A session that ends abnormally still returns promptly, with its report
and checkpoint; one whose handshake fails returns its report without a
checkpoint; and a batch that does not fit the session is rejected and
counted: peer input never hangs or kills the server silently. In a sync
session every batch gets one snapshot, so a serial device never waits
out its timeout on a rejected batch."""

import dataclasses
import io
import json
import struct
import threading
import time

import numpy as np
import pytest

from sidetune import (
    BackboneConfig,
    DeviceConfig,
    ServerConfig,
    SyntheticTask,
    init_side,
    quantize,
    run_device,
    run_server,
    save_side,
)
from sidetune import server
from sidetune.transport import loopback_pair
from sidetune.wire import (
    ActBatch,
    Bye,
    FRAME_VERSION,
    Hello,
    MAGIC,
    MessageReader,
    MetricsSnapshot,
    PROTOCOL_VERSION,
    SessionAck,
    T_ACT_BATCH,
    T_HELLO,
    T_METRICS,
    _frame,
    encode,
)

BACKBONE = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                          block_cuts=(1, 2, 3, 4))
RETURN_WITHIN_S = 10.0


def serve_one(tmp_path, frames, hang_up=False, within_s=RETURN_WITHIN_S):
    """Run a session that sends `frames` after the handshake, then hangs
    up or stays silent; returns (report or exception, checkpoint path)
    once run_server has returned, which must be within `within_s` of the
    last frame."""
    ckpt = tmp_path / "side.bin"
    config = ServerConfig(backbone=BACKBONE, checkpoint_path=str(ckpt))
    dev_end, srv_end = loopback_pair()
    out = {}

    def serve():
        try:
            out["report"] = run_server(config, srv_end)
        except Exception as exc:
            out["error"] = exc

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    try:
        dev_end.send(encode(Hello(config_digest=BACKBONE.digest(), scheme="nf4",
                                  gamma=BACKBONE.gamma)))
        MessageReader(dev_end).read_expected([SessionAck], timeout=RETURN_WITHIN_S)
        for frame in frames:
            dev_end.send(frame)
        if hang_up:
            dev_end.close()
        server.join(timeout=within_s)
        assert not server.is_alive(), "run_server did not return"
    finally:
        dev_end.close()
        srv_end.close()
    return out, ckpt


def initial_checkpoint(config):
    buf = io.BytesIO()
    save_side(buf, init_side(config.side_config(), config.side_seed), config.side_config())
    return buf.getvalue()


@pytest.mark.parametrize("frame", [_frame(0x7F, b""), _frame(T_METRICS, b"\xff\xfe")],
                         ids=["unknown_type", "metrics_not_utf8"])
def test_an_undecodable_frame_ends_the_session_with_a_checkpoint(tmp_path, frame):
    out, ckpt = serve_one(tmp_path, [frame])
    report = out["report"]
    assert not report.clean_shutdown
    assert report.iterations == 0 and report.dropped == 0
    assert ckpt.read_bytes() == initial_checkpoint(ServerConfig(backbone=BACKBONE))


def test_a_frame_header_past_max_payload_ends_the_session_at_once(tmp_path):
    header = MAGIC + struct.pack("<HBBI", FRAME_VERSION, T_ACT_BATCH, 0, 2**32 - 1)
    out, _ = serve_one(tmp_path, [header], within_s=1.0)
    assert not out["report"].clean_shutdown


# what the device end does before the server's handshake read gives up;
# scheme code 9 names no scheme, so that Hello does not decode
HANDSHAKE_FAILURES = {
    "malformed_hello": lambda end: end.send(_frame(T_HELLO, struct.pack(
        "<HBHB", PROTOCOL_VERSION, 9, BACKBONE.gamma, 0) + BACKBONE.digest())),
    "eof_before_hello": lambda end: end.close(),
    "silent_peer": lambda end: None,
}


@pytest.mark.parametrize("case", sorted(HANDSHAKE_FAILURES))
def test_a_failed_handshake_ends_the_session_without_a_checkpoint(tmp_path, case):
    ckpt = tmp_path / "side.bin"
    config = ServerConfig(backbone=BACKBONE, checkpoint_path=str(ckpt), timeout_s=0.2)
    dev_end, srv_end = loopback_pair()
    try:
        HANDSHAKE_FAILURES[case](dev_end)
        t0 = time.monotonic()
        report = run_server(config, srv_end)
        assert time.monotonic() - t0 < 1.0
    finally:
        dev_end.close()
        srv_end.close()
    assert not report.clean_shutdown
    assert report.iterations == 0 and report.rejected is None and report.state is None
    assert not ckpt.exists()


def batch(batch_id=0, labels=(0, 1), blocks=range(BACKBONE.gamma), shape=(2, 3, BACKBONE.hidden),
          scheme="nf4", codes=slice(None)):
    """An ActBatch frame that fits the session unless an argument says otherwise."""
    q = quantize(np.zeros(shape, dtype=np.float32), scheme)
    q = dataclasses.replace(q, codes=q.codes[codes])
    return encode(ActBatch(batch_id=batch_id, labels=labels, taps=tuple((i, q) for i in blocks)))


def failing_step(state, batch):
    raise ValueError("the step failed")


def test_a_batch_that_fails_the_step_still_writes_the_checkpoint(tmp_path, monkeypatch):
    monkeypatch.setattr(server, "train_iteration", failing_step)
    out, ckpt = serve_one(tmp_path, [batch()], hang_up=True)
    assert isinstance(out["error"], ValueError)
    assert ckpt.read_bytes() == initial_checkpoint(ServerConfig(backbone=BACKBONE))


def test_a_failed_step_returns_promptly_while_the_device_stays_connected(tmp_path, monkeypatch):
    monkeypatch.setattr(server, "train_iteration", failing_step)
    t0 = time.monotonic()
    out, ckpt = serve_one(tmp_path, [batch()])
    assert time.monotonic() - t0 < 1.0  # the session ends with the step
    assert isinstance(out["error"], ValueError)
    assert ckpt.read_bytes() == initial_checkpoint(ServerConfig(backbone=BACKBONE))


INVALID = {
    "scheme": ("scheme", {"scheme": "fp8_e4m3"}),
    "tap_count": ("taps", {"blocks": range(BACKBONE.gamma - 1)}),
    "block_index": ("taps", {"blocks": (0, 1, 2, 3, 5)}),
    "hidden_width": ("shape", {"shape": (2, 3, 16)}),
    "label_count": ("label_count", {"labels": (0,)}),
    "label_range": ("label_range", {"labels": (0, 2)}),
    "code_length": ("code_length", {"codes": slice(-1)}),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_a_batch_that_does_not_fit_the_session_is_rejected_and_counted(tmp_path, case):
    reason, bad = INVALID[case]
    out, _ = serve_one(tmp_path, [batch(0, **bad), batch(1), encode(Bye())])
    report = out["report"]
    assert report.clean_shutdown
    assert report.invalid == {reason: 1}
    assert report.iterations == 1 and report.dropped == 0


SYNC_SESSIONS = {
    # batches sent, and the "rejected" reason each snapshot must name (None: trained)
    "label_range": ([batch(0, labels=(0, 2)), batch(1)], ["label_range", None]),
    "out_of_order": ([batch(0), batch(0), batch(1)], [None, "out_of_order", None]),
}


@pytest.mark.parametrize("case", sorted(SYNC_SESSIONS))
def test_a_sync_session_answers_every_batch_with_one_snapshot(case):
    frames, reasons = SYNC_SESSIONS[case]
    dev_end, srv_end = loopback_pair()
    out = {}
    server_thread = threading.Thread(
        target=lambda: out.update(report=run_server(ServerConfig(backbone=BACKBONE), srv_end)),
        daemon=True)
    server_thread.start()
    try:
        dev_end.send(encode(Hello(config_digest=BACKBONE.digest(), scheme="nf4",
                                  gamma=BACKBONE.gamma, sync=True)))
        reader = MessageReader(dev_end)
        reader.read_expected([SessionAck], timeout=RETURN_WITHIN_S)
        for frame, reason in zip(frames, reasons):
            dev_end.send(frame)
            snap = reader.read_expected([MetricsSnapshot], timeout=1.0, skip=())
            doc = json.loads(snap.text)
            assert doc.get("rejected") == reason
            assert ("loss" in doc) == (reason is None)
        dev_end.send(encode(Bye()))
        server_thread.join(timeout=RETURN_WITHIN_S)
        assert not server_thread.is_alive(), "run_server did not return"
    finally:
        dev_end.close()
        srv_end.close()
    assert out["report"].iterations == reasons.count(None)


def test_a_serial_device_learns_of_each_rejected_batch_at_once():
    # a one-class server rejects every batch holding a label 1
    iterations = 3
    device_cfg = DeviceConfig(backbone=BACKBONE, task=SyntheticTask(seq_len=15, seed=3),
                              scheme="nf4", batch_size=8, iterations=iterations, serial=True,
                              timeout_s=RETURN_WITHIN_S)
    server_cfg = ServerConfig(backbone=BACKBONE, classes=1)
    dev_end, srv_end = loopback_pair()
    out = {}
    server_thread = threading.Thread(target=lambda: out.update(report=run_server(server_cfg, srv_end)),
                                     daemon=True)
    server_thread.start()
    try:
        t0 = time.monotonic()
        device_report = run_device(device_cfg, dev_end)
        assert time.monotonic() - t0 < RETURN_WITHIN_S / 2
        server_thread.join(timeout=RETURN_WITHIN_S)
        assert not server_thread.is_alive(), "run_server did not return"
    finally:
        dev_end.close()
        srv_end.close()
    assert not device_report.aborted and device_report.iterations == iterations
    assert [e.get("rejected") for e in device_report.entries] == ["label_range"] * iterations
    assert out["report"].invalid == {"label_range": iterations}
    assert out["report"].clean_shutdown
