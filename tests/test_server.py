"""A session that ends abnormally still returns promptly, with its report
and checkpoint; one whose handshake fails, or whose Hello declares a
batch shape no batch can take, returns its report without a checkpoint;
a frame that does not decode, such as a batch frame of another layout
than the session's or one longer than its batch, ends it at once; and a
batch whose labels or values do not fit the session, or whose step
overflows, is rejected and counted: peer input never hangs or kills the
server silently. In a sync session every batch gets one snapshot, so a
serial device never waits out its timeout on a rejected batch."""

import dataclasses
import io
import json
import struct
import threading
import time
from collections import Counter

import numpy as np
import pytest

from sidetune import (
    BackboneConfig,
    DeviceConfig,
    ServerConfig,
    SyntheticTask,
    init_side,
    run_device,
    run_server,
    save_side,
)
from sidetune import server
from sidetune.quantize import quantize
from sidetune.sidenet import workspace_bytes
from sidetune.transport import loopback_pair
from sidetune.wire import (
    ACK_BAD_CONFIG,
    ACK_BAD_SHAPE,
    ACK_BAD_VERSION,
    ActBatch,
    Bye,
    FRAME_VERSION,
    HandshakeError,
    Hello,
    MAGIC,
    MAX_HELLO,
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
BATCH, SEQ = 2, 3  # the batch shape every session here declares in its Hello


def hello(scheme="nf4", batch_size=BATCH, seq_len=SEQ, **fields):
    return encode(Hello(backbone=BACKBONE, scheme=scheme, batch_size=batch_size,
                        seq_len=seq_len, **fields))


def serve_one(tmp_path, frames, hang_up=False, within_s=RETURN_WITHIN_S, scheme="nf4"):
    """Run a session under `scheme` that sends `frames` after the
    handshake, then hangs up or stays silent; returns (report or
    exception, checkpoint path) once run_server has returned, which must
    be within `within_s` of the last frame."""
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
        dev_end.send(hello(scheme))
        MessageReader(dev_end).read_expected(SessionAck, timeout=RETURN_WITHIN_S)
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


@pytest.mark.parametrize("fields, message", [
    ({"bottleneck": BACKBONE.hidden}, "bottleneck"),
    ({"nonlinearity": "tanh"}, "nonlinearity"),
    ({"nonlinearity": "relu"}, "nonlinearity 'relu'"),
    ({"bottleneck": 0}, "bottleneck 0 must be at least 1"),
    ({"lr": -1.0}, "learning rate"),
    ({"lr": float("nan")}, "learning rate"),
    ({"timeout_s": -1.0}, "timeout -1.0 s must be positive"),
], ids=["bottleneck_not_below_hidden", "nonlinearity", "nonlinearity_relu",
        "bottleneck_not_positive", "lr_negative", "lr_nan", "timeout_negative"])
def test_a_server_config_that_cannot_be_served_is_refused_when_built(fields, message):
    with pytest.raises(ValueError, match=message):
        ServerConfig(backbone=BACKBONE, **fields)


def initial_checkpoint(config):
    buf = io.BytesIO()
    save_side(buf, init_side(config.side_config(), config.side_seed), config.side_config())
    return buf.getvalue()


def batch(batch_id=0, labels=(0, 1), taps=BACKBONE.gamma, shape=(BATCH, SEQ, BACKBONE.hidden),
          scheme="nf4", **fields):
    """An ActBatch frame that fits the session unless an argument says
    otherwise; `fields` replace the taps' scale or codes."""
    q = dataclasses.replace(quantize(np.zeros(shape, dtype=np.float32), scheme), **fields)
    return encode(ActBatch(batch_id=batch_id, labels=labels, taps=(q,) * taps))


def batch_with(offset, fmt, value):
    """The fitting batch frame with the field `fmt` at payload `offset` set
    to `value`: its length is still the session's."""
    payload = bytearray(batch()[12:-4])
    struct.pack_into(fmt, payload, offset, value)
    return _frame(T_ACT_BATCH, bytes(payload))


def flagged(frame):
    """`frame` with bit 0 of its flags byte set; a receiver reads no flag,
    so no flag makes an unknown frame skippable."""
    return frame[:7] + b"\x01" + frame[8:]


# Frames that do not decode in a session of the scheme named: a batch frame
# is exactly the session's layout, whose label and tap counts are the Hello's
UNDECODABLE = {
    "unknown_type": ("nf4", _frame(0x7F, b"")),
    "unknown_type_flagged": ("nf4", flagged(_frame(0x7F, b""))),
    "metrics_not_utf8": ("nf4", _frame(T_METRICS, b"\xff\xfe")),
    "batch_one_byte_short": ("nf4", _frame(T_ACT_BATCH, batch()[12:-5])),
    "label_count": ("nf4", batch_with(8, "<I", BATCH - 1)),
    "tap_count": ("nf4", batch_with(12 + 4 * BATCH, "<H", BACKBONE.gamma - 1)),
    "fewer_sequences": ("nf4", batch(shape=(BATCH - 1, SEQ, BACKBONE.hidden), labels=(0,))),
    "shorter_sequences": ("nf4", batch(shape=(BATCH, SEQ - 1, BACKBONE.hidden))),
    "narrower_taps": ("nf4", batch(shape=(BATCH, SEQ, 16))),
    "narrower_scheme": ("fp8_e4m3", batch(scheme="nf4")),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_an_undecodable_frame_ends_the_session_with_a_checkpoint(tmp_path, case):
    scheme, frame = UNDECODABLE[case]
    out, ckpt = serve_one(tmp_path, [frame], scheme=scheme)
    report = out["report"]
    assert report.end == "undecodable" and not report.clean_shutdown and not report.invalid
    assert report.iterations == 0 and report.dropped == 0
    assert ckpt.read_bytes() == initial_checkpoint(ServerConfig(backbone=BACKBONE))


def test_a_frame_header_past_max_payload_ends_the_session_at_once(tmp_path):
    header = MAGIC + struct.pack("<HBBI", FRAME_VERSION, T_ACT_BATCH, 0, 2**32 - 1)
    out, _ = serve_one(tmp_path, [header], within_s=1.0)
    assert out["report"].end == "oversized" and not out["report"].clean_shutdown


def test_a_peer_that_hangs_up_mid_frame_vanishes(tmp_path):
    out, ckpt = serve_one(tmp_path, [batch()[:-1]], hang_up=True)
    assert out["report"].end == "vanished" and out["report"].iterations == 0
    assert ckpt.read_bytes() == initial_checkpoint(ServerConfig(backbone=BACKBONE))


# a well-formed Hello one cut past MAX_HELLO: 12 + 28 + 4 m + 1 bytes
LONG_CUTS = (MAX_HELLO - 40) // 4 + 1
LONG_BACKBONE = dataclasses.replace(BACKBONE, layers=LONG_CUTS,
                                    block_cuts=tuple(range(1, LONG_CUTS + 1)))


def hello_then_hang_up(**fields):
    def send(end):
        # then hang up, so that a server which takes this Hello ends at once
        end.send(hello(**fields))
        end.close()
    return send


# what the device end does before the server's handshake read gives up;
# scheme code 9 names no scheme, and a batch of 0 sequences or of
# sequences of 0 tokens is no batch, so none of these Hellos decodes
HANDSHAKE_FAILURES = {
    "malformed_hello": lambda end: end.send(_frame(T_HELLO, struct.pack(
        "<HBIIB", PROTOCOL_VERSION, 9, BATCH, SEQ, 0) + BACKBONE.config_block())),
    "zero_batch_hello": hello_then_hang_up(batch_size=0),
    "zero_seq_hello": hello_then_hang_up(seq_len=0),
    "oversized_hello": lambda end: end.send(encode(Hello(
        backbone=LONG_BACKBONE, scheme="nf4", batch_size=BATCH, seq_len=SEQ))),
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
    assert report.end == "handshake" and not report.clean_shutdown
    assert report.iterations == 0 and report.rejected is None and report.state is None
    assert not ckpt.exists()


# protocol 2's Hello: the fixed fields, then the sha256 of the config block
PROTOCOL_2_HELLO = _frame(T_HELLO, struct.pack("<HBIB", 2, 3, BATCH, 0) + bytes(32))
# protocol 3's Hello: the fixed fields without S, then the config block
PROTOCOL_3_HELLO = _frame(T_HELLO, struct.pack("<HBIB", 3, 3, BATCH, 0) + BACKBONE.config_block())
# protocol 4's Hello has protocol 5's layout; its batches carried each tap's scheme and shape
PROTOCOL_4_HELLO = _frame(T_HELLO, struct.pack("<HBIIB", 4, 3, BATCH, SEQ, 0)
                          + BACKBONE.config_block())


@pytest.mark.parametrize("frame", [hello(protocol_version=PROTOCOL_VERSION + 1),
                                   PROTOCOL_2_HELLO, PROTOCOL_3_HELLO, PROTOCOL_4_HELLO],
                         ids=["next", "protocol_2", "protocol_3", "protocol_4"])
def test_a_handshake_with_another_protocol_version_is_refused(tmp_path, frame):
    ckpt = tmp_path / "side.bin"
    config = ServerConfig(backbone=BACKBONE, checkpoint_path=str(ckpt), timeout_s=1.0)
    dev_end, srv_end = loopback_pair()
    try:
        dev_end.send(frame)
        report = run_server(config, srv_end)
        ack = MessageReader(dev_end).read_expected(SessionAck, timeout=1.0)
    finally:
        dev_end.close()
        srv_end.close()
    assert ack.status == report.rejected == ACK_BAD_VERSION
    assert not ckpt.exists()


@pytest.mark.parametrize("field,value", [("hidden", 16), ("block_cuts", (2, 4))],
                         ids=["hidden", "block_cuts"])
def test_a_device_with_another_backbone_is_refused_at_the_handshake(tmp_path, field, value):
    ckpt = tmp_path / "side.bin"
    other = dataclasses.replace(BACKBONE, **{field: value})
    device_cfg = DeviceConfig(backbone=other, task=SyntheticTask(seq_len=15), iterations=1,
                              timeout_s=RETURN_WITHIN_S)
    dev_end, srv_end = loopback_pair()
    out = {}
    server_thread = threading.Thread(target=lambda: out.update(report=run_server(
        ServerConfig(backbone=BACKBONE, checkpoint_path=str(ckpt)), srv_end)), daemon=True)
    server_thread.start()
    try:
        with pytest.raises(HandshakeError, match="backbone config"):
            run_device(device_cfg, dev_end)
        server_thread.join(timeout=RETURN_WITHIN_S)
        assert not server_thread.is_alive(), "run_server did not return"
    finally:
        dev_end.close()
        srv_end.close()
    assert out["report"].rejected == ACK_BAD_CONFIG
    assert not ckpt.exists()


SIDE = ServerConfig(backbone=BACKBONE).side_config()


def session_bytes(batch_size: int, seq_len: int) -> int:
    """What the server counts for a session of [B, seq_len] nf4 batches."""
    return server.session_bytes(ServerConfig(backbone=BACKBONE), Hello(
        backbone=BACKBONE, scheme="nf4", batch_size=batch_size, seq_len=seq_len))


def batch_past_the_bound(bytes_of_batch) -> int:
    """The least B for which `bytes_of_batch(B)`, affine in B, is past
    server.MAX_SESSION_BYTES."""
    fixed = bytes_of_batch(0)
    return (server.MAX_SESSION_BYTES - fixed) // (bytes_of_batch(1) - fixed) + 1


def batch_past_the_session_bound(seq_len: int) -> int:
    return batch_past_the_bound(lambda b: session_bytes(b, seq_len))


# Hellos whose batch shape no batch can take, and whether the server gets as
# far as building the session's state: the shape checks allocate nothing
BAD_SHAPES = {
    "seq_past_max_seq": ({"seq_len": BACKBONE.max_seq + 1}, False),
    # its nf4 batch frame would hold gamma x 2^31 x 32 x 32 / 2 bytes of codes
    "frame_past_max_payload": ({"batch_size": 2**31, "seq_len": 32}, False),
    # on a host of 8 GB, B is about 2 x 10^6, whose nf4 frame of about 0.5 GB
    # fits MAX_PAYLOAD: only the session bound refuses these two, the
    # first on its workspace alone
    "workspace_past_host_memory": ({"batch_size": batch_past_the_bound(
        lambda b: workspace_bytes(SIDE, b, 3)), "seq_len": 3}, False),
    "session_past_host_memory": ({"batch_size": batch_past_the_session_bound(3),
                                  "seq_len": 3}, False),
    "state_out_of_memory": ({}, True),
}


def test_a_session_counts_its_frame_and_state_beside_the_workspace():
    b = batch_past_the_session_bound(3)
    # the session_past_host_memory case: its workspace alone fits
    assert workspace_bytes(SIDE, b, 3) <= server.MAX_SESSION_BYTES < session_bytes(b, 3)
    frame = Hello(backbone=BACKBONE, scheme="nf4", batch_size=b, seq_len=3).batch_payload() + 16
    # parameters, Adam's m and v, and its two scratch vectors, in float32;
    # the gradient is the workspace's
    state = 5 * init_side(SIDE, 0).flat.nbytes
    assert session_bytes(b, 3) == workspace_bytes(SIDE, b, 3) + frame + state


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_a_hello_of_a_shape_no_batch_can_take_is_refused(tmp_path, monkeypatch, case):
    fields, builds_state = BAD_SHAPES[case]
    built = []

    def out_of_memory(config, hello, params):
        built.append(hello)
        raise MemoryError("no room for the session's state")

    monkeypatch.setattr(server, "_make_state", out_of_memory)
    ckpt = tmp_path / "side.bin"
    config = ServerConfig(backbone=BACKBONE, checkpoint_path=str(ckpt), timeout_s=1.0)
    dev_end, srv_end = loopback_pair()
    out = {}
    server_thread = threading.Thread(target=lambda: out.update(report=run_server(config, srv_end)),
                                     daemon=True)
    server_thread.start()
    try:
        dev_end.send(hello(**fields))
        ack = MessageReader(dev_end).read_expected(SessionAck, timeout=RETURN_WITHIN_S)
        server_thread.join(timeout=1.0)
        assert not server_thread.is_alive(), "run_server did not return"
    finally:
        dev_end.close()
        srv_end.close()
    assert ack.status == out["report"].rejected == ACK_BAD_SHAPE
    assert out["report"].state is None and not ckpt.exists()
    assert len(built) == builds_state


def test_a_batch_of_the_session_shape_trains_and_a_longer_frame_ends_the_session(tmp_path):
    # every batch of the session is as long as this one: its shape is the Hello's
    out, _ = serve_one(tmp_path, [batch(), encode(Bye())])
    assert out["report"].iterations == 1 and out["report"].end == "bye"
    assert out["report"].clean_shutdown
    # 16 bytes of frame around the payload; one byte more than the session's batch
    header = MAGIC + struct.pack("<HBBI", FRAME_VERSION, T_ACT_BATCH, 0, len(batch()) - 16 + 1)
    out, ckpt = serve_one(tmp_path, [header], within_s=1.0)
    # a session end, not a refused batch
    assert out["report"].end == "oversized" and not out["report"].clean_shutdown
    assert not out["report"].invalid
    assert ckpt.read_bytes() == initial_checkpoint(ServerConfig(backbone=BACKBONE))


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


# a batch that passes validate_batch but overflows the step: every code is
# nf4's +1, and the scale is finite but near float32's largest value
OVERFLOWING = {"scale": 3e38, "codes": b"\xff" * (BATCH * SEQ * BACKBONE.hidden // 2)}

# A batch frame of another layout than the session's ends the session (see
# above); each batch here has the session's layout, and is refused
INVALID = {  # case: (reason, the session's scheme, what makes batch 0 not fit)
    "label_range": ("label_range", "nf4", {"labels": (0, 2)}),
    "non_finite_scale": ("non_finite", "nf4", {"scale": float("nan")}),
    "non_finite_codes": ("non_finite", "none_fp16", {"codes": np.full(
        (BATCH, SEQ, BACKBONE.hidden), np.nan, dtype=np.float16).tobytes()}),
    "non_finite_step": ("non_finite", "nf4", OVERFLOWING),
    # dequantize itself overflows: 448 x 3e38 and -8/7 x 3e38
    "non_finite_fp8_dequantize": ("non_finite", "fp8_e4m3", {
        "scale": 3e38, "codes": b"\x7e" * (BATCH * SEQ * BACKBONE.hidden)}),
    "non_finite_fp4_dequantize": ("non_finite", "fp4_grid", {
        "scale": 3e38, "codes": bytes(BATCH * SEQ * BACKBONE.hidden // 2)}),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_a_batch_that_does_not_fit_the_session_is_rejected_and_counted(tmp_path, monkeypatch,
                                                                       case):
    reason, scheme, bad = INVALID[case]
    make_state, built = server._make_state, []

    def recorded(*args):
        built.append(make_state(*args))
        return built[-1]

    monkeypatch.setattr(server, "_make_state", recorded)
    frames = [batch(0, **{"scheme": scheme, **bad}), batch(1, scheme=scheme), encode(Bye())]
    out, _ = serve_one(tmp_path, frames, scheme=scheme)
    report = out["report"]
    assert report.end == "bye"
    assert report.invalid == {reason: 1}
    assert report.iterations == 1 and report.dropped == 0
    # the step trained in the workspace built before the ack, whatever came first
    assert report.state.workspace is built[0].workspace


def test_a_step_that_overflows_changes_nothing_the_next_step_reads(tmp_path):
    # nonzero taps, so that the two good steps move the parameters
    good = {"codes": bytes(range(BATCH * SEQ * BACKBONE.hidden // 2))}
    runs = {}
    for name, frames in {
        "with": [batch(0, **good), batch(1, **OVERFLOWING), batch(2, **good)],
        "without": [batch(0, **good), batch(2, **good)],
    }.items():
        out, ckpt = serve_one(tmp_path, frames + [encode(Bye())])
        runs[name] = out["report"], ckpt.read_bytes()
    (report, ckpt), (expected, expected_ckpt) = runs["with"], runs["without"]
    assert report.invalid == {"non_finite": 1} and report.iterations == 2
    assert report.losses == expected.losses and all(np.isfinite(report.losses))
    assert report.state.adam.t == 2
    assert ckpt == expected_ckpt


SYNC_SESSIONS = {
    # batches sent, and the "rejected" reason each snapshot must name (None: trained)
    "label_range": ([batch(0, labels=(0, 2)), batch(1)], ["label_range", None]),
    "non_finite_step": ([batch(0), batch(1, **OVERFLOWING), batch(2)],
                        [None, "non_finite", None]),
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
        dev_end.send(hello(sync=True))
        reader = MessageReader(dev_end)
        reader.read_expected(SessionAck, timeout=RETURN_WITHIN_S)
        for frame, reason in zip(frames, reasons):
            dev_end.send(frame)
            snap = reader.read_expected(MetricsSnapshot, timeout=1.0)
            doc = json.loads(snap.text)
            assert doc.get("rejected") == reason
            assert ("loss" in doc) == (reason is None)
        dev_end.send(encode(Bye()))
        server_thread.join(timeout=RETURN_WITHIN_S)
        assert not server_thread.is_alive(), "run_server did not return"
    finally:
        dev_end.close()
        srv_end.close()
    report = out["report"]
    assert report.iterations == reasons.count(None)
    assert report.invalid == Counter(filter(None, reasons))
    assert report.dropped == reasons.count("out_of_order")


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
