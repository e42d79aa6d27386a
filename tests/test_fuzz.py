"""Fuzzing the server's receive path with a fixed seed: loopback sessions
of run_server, one per generated stream, under every scheme. Each sends
a Hello, then batch frames with flipped bits (crc recomputed), extreme
scales, out-of-range labels, repeated batch ids, a spliced frame of
another length or a truncated last frame, cut into chunks of 1 B up to
two frames, and ends with a Bye or a hang-up. Now and then the Hello
shares its chunk with the stream's first bytes. Whatever arrives,
run_server returns a report that names how the session ended, and every
batch it decoded is either trained or counted as refused, also one that
arrived in the chunk of a frame that does not decode.

The handshake is fuzzed too: Hellos with flipped bits in the backbone's
config block, the scheme byte, the batch shape (B, S) or the frame's
length field, and one Hello of another vocabulary. Each gets the
SessionAck its decoded fields call for, a refusal with no side
workspace built for it, or, when it does not decode, no ack and a
logged reason, and never an escape. The whole
module takes about two seconds."""

import dataclasses
import logging
import random
import struct
import threading
import zlib
from collections import Counter

import pytest

from sidetune import BackboneConfig, ServerConfig, run_server, server
from sidetune.quantize import SCHEMES
from sidetune.transport import loopback_pair
from sidetune.wire import (
    ACK_BAD_CONFIG,
    ACK_BAD_SHAPE,
    ACK_OK,
    HEADER_LEN,
    MAX_HELLO,
    MAX_PAYLOAD,
    BatchFrame,
    Bye,
    DesyncError,
    FrameError,
    Hello,
    MessageReader,
    OversizedFrame,
    ProtocolError,
    SessionAck,
    batch_frame_bytes,
    encode,
    try_decode,
)

# the tests' tiny shape (as in test_server): gamma = 5 taps of [2, 3, 32]
BACKBONE = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                          block_cuts=(1, 2, 3, 4))
BATCH, SEQ = 2, 3
SEED = 2027
SESSIONS = 60  # per scheme
RETURN_WITHIN_S = 10.0
HELLO_SHARES_A_CHUNK = 0.3  # the chance a session's Hello shares its chunk with stream bytes
ENDS = {"bye", "oversized", "undecodable", "vanished"}
REFUSALS = {"label_range", "non_finite", "out_of_order"}
# each fits a float32, so BatchFrame.put_scale packs it as it is
EXTREME_SCALES = (float("inf"), float("-inf"), float("nan"), 3.4e38, -3.4e38, 1e-45, 0.0,
                  -0.0, 65504.0)


def session_hello(scheme, batch_size=BATCH, seq_len=SEQ):
    return Hello(backbone=BACKBONE, scheme=scheme, batch_size=batch_size, seq_len=seq_len)


def batch_frame(rng, hello, batch_id):
    """One batch frame of `hello`'s layout with random codes, perhaps
    with a label out of range, an extreme scale or flipped payload bits."""
    labels = [rng.randrange(3 if rng.random() < 0.1 else 2) for _ in range(hello.batch_size)]
    frame = BatchFrame.for_session(hello)
    frame.set_batch(batch_id, labels)
    for k in range(hello.backbone.gamma):
        frame.put_scale(k, rng.uniform(0.01, 10.0))
        codes = frame.codes(k)
        codes[:] = rng.randbytes(len(codes))
    if rng.random() < 0.2:
        frame.put_scale(rng.randrange(hello.backbone.gamma), rng.choice(EXTREME_SCALES))
    data = encode(frame)
    if rng.random() < 0.25:
        payload = memoryview(data)[HEADER_LEN:-4]
        for _ in range(rng.randint(1, 3)):
            bit = rng.randrange(8 * len(payload))
            payload[bit // 8] ^= 1 << bit % 8
        struct.pack_into("<I", data, len(data) - 4, zlib.crc32(payload))
    return bytes(data)


def spliced_frame(rng, hello, batch_id):
    """A batch frame of another session's layout, so of another length."""
    other = rng.choice([
        session_hello(hello.scheme, batch_size=BATCH + 1),
        session_hello(hello.scheme, batch_size=BATCH - 1),
        session_hello(hello.scheme, seq_len=SEQ + 1),
        session_hello(rng.choice([s for s in SCHEMES if s != hello.scheme])),
    ])
    return batch_frame(rng, other, batch_id)


def fuzzed_stream(rng, hello):
    """The bytes one session sends after its handshake, and whether it
    ends them with a Bye (else it hangs up)."""
    frames, batch_id = [], 0
    for _ in range(rng.randint(0, 4)):
        batch_id += rng.choice([1, 1, 1, 0, -1])  # now and then a repeated or older id
        make = spliced_frame if rng.random() < 0.1 else batch_frame
        frames.append(make(rng, hello, max(batch_id, 0)))
    if frames and rng.random() < 0.15:
        frames[-1] = frames[-1][:rng.randrange(1, len(frames[-1]))]
    bye = rng.random() < 0.7
    return b"".join(frames) + (encode(Bye()) if bye else b"")


def chunks(rng, stream, most):
    at = 0
    while at < len(stream):
        step = rng.randint(1, most)
        yield stream[at:at + step]
        at += step


def reference_reading(stream, hello):
    """(batch frames decoded, end reason) of a session's reader that meets
    `stream`, then the end of the connection."""
    view, decoded = memoryview(stream), 0
    while True:
        try:
            result = try_decode(view, hello.batch_payload(), hello)
        except OversizedFrame:
            return decoded, "oversized"
        except (DesyncError, FrameError, ProtocolError):
            return decoded, "undecodable"
        if result is None:
            return decoded, "vanished"
        msg, consumed = result
        if isinstance(msg, Bye):
            return decoded, "bye"
        decoded += 1
        view = view[consumed:]


def serve(hello, stream, rng):
    """Run one session of `stream`, sent in random chunks after the Hello
    or, now and then, the first of them in one chunk with it, then hang
    up; returns what run_server returned or raised."""
    dev_end, srv_end = loopback_pair()
    out = {}

    def run():
        try:
            out["report"] = run_server(ServerConfig(backbone=BACKBONE), srv_end)
        except Exception as exc:  # the test fails on any escape
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        frame = batch_frame_bytes(hello.batch_shape, hello.scheme, BACKBONE.gamma)
        parts = list(chunks(rng, stream, 2 * frame))
        with_hello = parts.pop(0) if parts and rng.random() < HELLO_SHARES_A_CHUNK else b""
        dev_end.send(encode(hello) + with_hello)
        MessageReader(dev_end).read_expected(SessionAck, timeout=RETURN_WITHIN_S)
        for chunk in parts:
            dev_end.send(chunk)
        dev_end.close()
        thread.join(timeout=RETURN_WITHIN_S)
        assert not thread.is_alive(), "run_server did not return"
    finally:
        dev_end.close()
        srv_end.close()
    return out


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fuzzed_batch_streams_end_with_a_report_and_every_decoded_batch_counted(scheme):
    rng = random.Random(f"{SEED}/{scheme}")
    hello = session_hello(scheme)
    ends, refusals = Counter(), Counter()
    for _ in range(SESSIONS):
        stream = fuzzed_stream(rng, hello)
        decoded, end = reference_reading(stream, hello)
        out = serve(hello, stream, rng)
        assert "error" not in out, repr(out.get("error"))
        report = out["report"]
        assert report.end in ENDS and report.end == end
        assert set(report.invalid) <= REFUSALS
        assert report.iterations + sum(report.invalid.values()) == decoded
        ends[end] += 1
        refusals.update(report.invalid)
    # with this seed every scheme's sessions reach every end and refuse some batches
    assert set(ends) == ENDS, ends
    assert refusals, refusals


HELLOS = 100  # per scheme
# [start, end) of each fuzzed field in a Hello frame: the frame's payload
# length, then in the payload (u16 version | u8 scheme | u32 B | u32 S |
# u8 sync | config block) the scheme byte, B, S and the config block
HELLO_FIELDS = {
    "length": (HEADER_LEN - 4, HEADER_LEN),
    "scheme": (HEADER_LEN + 2, HEADER_LEN + 3),
    "batch_size": (HEADER_LEN + 3, HEADER_LEN + 7),
    "seq_len": (HEADER_LEN + 7, HEADER_LEN + 11),
    "config_block": (HEADER_LEN + 12, -4),
}
# B's bits 12-23 are never flipped: a B of 2^12 to 2^24 fits a frame of
# MAX_PAYLOAD, and on a host of enough memory server.MAX_SESSION_BYTES,
# so the server accepts it and reserves a side workspace of up to tens of
# GB, memory a shared test host should not be asked for
B_BITS = (*range(12), *range(24, 32))


def fuzzed_hello(rng, scheme):
    """(field, bytes) of a session's Hello frame with 1 to 3 bits flipped
    in one field; the crc is recomputed unless the flips are in the
    frame's length, which the crc does not cover."""
    data = bytearray(encode(session_hello(scheme)))
    field = rng.choice(sorted(HELLO_FIELDS))
    start, end = HELLO_FIELDS[field]
    end %= len(data)
    for _ in range(rng.randint(1, 3)):
        bit = rng.choice(B_BITS) if field == "batch_size" else rng.randrange(8 * (end - start))
        data[start + bit // 8] ^= 1 << bit % 8
    if field != "length":
        struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[HEADER_LEN:-4]))
    return field, bytes(data)


def owed_ack(data):
    """The SessionAck status a server of BACKBONE owes `data`, a Hello and
    then the end of the stream, or None when `data` is no Hello."""
    try:
        result = try_decode(data, MAX_HELLO)
    except (DesyncError, FrameError, ProtocolError):
        return None
    if result is None or not isinstance(result[0], Hello):
        return None
    hello = result[0]
    if hello.backbone != BACKBONE:
        return ACK_BAD_CONFIG
    if (hello.seq_len > BACKBONE.max_seq or hello.batch_payload() > MAX_PAYLOAD
            or server.session_bytes(ServerConfig(backbone=BACKBONE), hello)
            > server.MAX_SESSION_BYTES):
        return ACK_BAD_SHAPE
    return ACK_OK


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fuzzed_hellos_are_refused_or_acked_and_no_refused_shape_gets_a_workspace(
        scheme, monkeypatch, caplog):
    built = []
    real_workspace = server.Workspace

    def workspace(config, batch, seq):
        built.append((batch, seq))
        return real_workspace(config, batch, seq)

    monkeypatch.setattr(server, "Workspace", workspace)
    rng = random.Random(f"{SEED}/hello/{scheme}")
    outcomes = Counter()
    # most flips in the config block make it malformed; one Hello of another
    # vocabulary names another backbone by construction
    other = Hello(backbone=dataclasses.replace(BACKBONE, vocab_size=BACKBONE.vocab_size + 1),
                  scheme=scheme, batch_size=BATCH, seq_len=SEQ)
    hellos = [fuzzed_hello(rng, scheme) for _ in range(HELLOS)]
    for field, data in [*hellos, ("config_block", encode(other))]:
        owed = owed_ack(data)
        built.clear()
        caplog.clear()
        dev_end, srv_end = loopback_pair()
        dev_end.send(data)
        dev_end.close()  # a session the server takes ends at once, "vanished"
        with caplog.at_level(logging.ERROR, logger=server.__name__):
            report = run_server(ServerConfig(backbone=BACKBONE, timeout_s=1.0), srv_end)
        srv_end.close()
        reader = MessageReader(dev_end)
        ack = reader.read(timeout=1.0)
        assert reader.read(timeout=1.0) is None  # at most one answer
        if owed is None:
            assert ack is None and report.rejected is None and report.state is None, field
            assert report.end == "handshake" and not report.clean_shutdown, field
            assert any("handshake failed" in r.getMessage() for r in caplog.records), field
            assert not built
        elif owed == ACK_OK:
            assert ack == SessionAck(ACK_OK) and report.end == "vanished", field
            hello, _ = try_decode(data, MAX_HELLO)
            assert built == [(hello.batch_size, hello.seq_len)]
            assert report.state.workspace.shape == hello.batch_shape
        else:
            assert ack == SessionAck(owed) and report.rejected == owed, field
            assert report.state is None and report.end is None and not built, field
        outcomes[field, owed] += 1
    # with this seed every field's flips are fuzzed, and with the one of
    # another vocabulary the Hellos reach each outcome: undecodable, refused
    # on the backbone or the shape, acked
    assert {f for f, _ in outcomes} == set(HELLO_FIELDS), outcomes
    assert {o for _, o in outcomes} == {None, ACK_BAD_CONFIG, ACK_BAD_SHAPE, ACK_OK}, outcomes
