"""Weight-file, checkpoint and wire formats: golden bytes, round-trips,
and rejection of malformed input."""

import dataclasses
import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest

from sidetune import (
    SCHEMES,
    BackboneConfig,
    DeviceConfig,
    ModelSpec,
    ServerConfig,
    SideConfig,
    SyntheticTask,
    init_backbone,
    init_side,
    load_backbone,
    load_side,
    payload_bytes,
    payload_per_iteration,
    save_backbone,
    save_side,
)
from sidetune import backbone, device, server
from sidetune.binio import FormatError
from sidetune.quantize import quantize
from sidetune.transport import loopback_pair
from sidetune.wire import (
    MAX_HELLO,
    MAX_PAYLOAD,
    ActBatch,
    BatchFrame,
    Bye,
    CheckpointData,
    CheckpointRequest,
    DesyncError,
    FRAME_VERSION,
    FrameError,
    Hello,
    MAGIC,
    MessageReader,
    MetricsSnapshot,
    ProtocolError,
    SessionAck,
    StreamDecoder,
    T_ACT_BATCH,
    T_BYE,
    T_CKPT_REQUEST,
    T_HELLO,
    T_SESSION_ACK,
    WireMessage,
    _frame,
    encode,
    try_decode,
)

BACKBONE = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                          block_cuts=(1, 2, 3, 4))
SIDE = SideConfig(hidden=32, bottleneck=16, adapters=4, classes=2)

# frozen: a change to these is a change of file format
BACKBONE_GOLDEN = (211_571, "f5fdbae7ae1d6c70c4877a6cf56fcb1544703ce846ad1919396bd5ba8dcd5f7b")
SIDE_GOLDEN = (17_699, "9511681fe492d07c83037cc90009fdffac74de797ba35566a803ad65cbfbd028")
# a change to these is a change of the wire: the protocol-5 Hello of
# GOLDEN_DEVICE, and the nf4 ActBatch frame of its batch 0
HELLO_GOLDEN = (73, "b7c925567e141194f4d9078803a3010ded5f8c684540b19ed6e32e31ef08e10a")
BATCH_GOLDEN = (2_306, "f6657c2516adb659a456cde8a8ee5d74b8035bb91e8d0bbf1bd4b6571c564cbd")
GOLDEN_DEVICE = DeviceConfig(backbone=BACKBONE, task=SyntheticTask(seq_len=7), scheme="nf4",
                             batch_size=4)


def backbone_bytes(weights):
    buf = io.BytesIO()
    save_backbone(buf, weights)
    return buf.getvalue()


def side_bytes(params, config=SIDE):
    buf = io.BytesIO()
    save_side(buf, params, config)
    return buf.getvalue()


def test_backbone_weight_file_matches_golden_and_round_trips():
    data = backbone_bytes(init_backbone(BACKBONE, 7))
    assert (len(data), hashlib.sha256(data).hexdigest()) == BACKBONE_GOLDEN
    assert backbone_bytes(load_backbone(io.BytesIO(data), BACKBONE)) == data


def test_side_checkpoint_matches_golden_and_round_trips():
    data = side_bytes(init_side(SIDE, 1))
    assert (len(data), hashlib.sha256(data).hexdigest()) == SIDE_GOLDEN
    config, params = load_side(io.BytesIO(data), SIDE)
    assert config == SIDE
    assert side_bytes(params, config) == data


def batch_zero_frame(config):
    ws = backbone.ForwardWorkspace(BACKBONE, config.batch_size, config.task.seq_len)
    frame = BatchFrame.for_session(config.hello())
    device.compute_batch(device.load_device_backbone(config), config, 0, ws, frame)
    return encode(frame)


def test_the_hello_and_a_batch_frame_match_golden():
    config = GOLDEN_DEVICE
    for data, pinned in ((encode(config.hello()), HELLO_GOLDEN),
                         (batch_zero_frame(config), BATCH_GOLDEN)):
        assert (len(data), hashlib.sha256(data).hexdigest()) == pinned


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_device_frame_is_the_encode_of_the_batch_it_decodes_to(scheme):
    # the device writes its frame slot by slot; encode lays out an ActBatch
    # with the same writer
    config = dataclasses.replace(GOLDEN_DEVICE, scheme=scheme)
    data = bytes(batch_zero_frame(config))
    hello = config.hello()
    msg, used = try_decode(data, hello.batch_payload(), hello)
    assert used == len(data) == hello.batch_payload() + 16
    assert encode(msg) == data


def test_a_device_that_loads_its_backbone_from_a_file_sends_the_golden_batch(tmp_path):
    save_backbone(tmp_path / "w.bin", init_backbone(BACKBONE, GOLDEN_DEVICE.backbone_seed))
    config = dataclasses.replace(GOLDEN_DEVICE, backbone_path=str(tmp_path / "w.bin"))
    data = batch_zero_frame(config)
    assert (len(data), hashlib.sha256(data).hexdigest()) == BATCH_GOLDEN


@pytest.mark.parametrize("scheme", SCHEMES)
def test_frames_taken_in_turn_hold_no_byte_of_their_last_batch(scheme):
    # the device's two session frames, batches 0-3 written into them in turn
    config = dataclasses.replace(GOLDEN_DEVICE, scheme=scheme)
    hello, weights = config.hello(), device.load_device_backbone(config)
    ws = backbone.ForwardWorkspace(BACKBONE, config.batch_size, config.task.seq_len)
    frames = [BatchFrame.for_session(hello) for _ in range(2)]
    labels = []
    for i in range(4):
        device.compute_batch(weights, config, i, ws, frames[i % 2])
        fresh = BatchFrame.for_session(hello)
        device.compute_batch(weights, config, i, backbone.ForwardWorkspace(
            BACKBONE, config.batch_size, config.task.seq_len), fresh)
        data = bytes(encode(fresh))
        assert encode(frames[i % 2]) == data, i
        labels.append(try_decode(data, hello.batch_payload(), hello)[0].labels)
    # each batch wrote other labels over those of the batch before it in its frame
    assert labels[0] != labels[2] and labels[1] != labels[3], labels


def tensor_offset(data, layer, name):
    """Byte offset in the weight file `data` of BACKBONE's tensor `name` of `layer`."""
    sizes = [(i, n, 4 * int(np.prod(shape))) for i, n, shape in backbone._layout(BACKBONE)]
    offset = len(data) - sum(size for _, _, size in sizes)  # past the header
    for i, n, size in sizes:
        if (i, n) == (layer, name):
            return offset
        offset += size


@pytest.mark.parametrize("name, value", [("b_qkv", 0.5), ("b_qkv", np.nan), ("w_qkv", 1e-3)])
def test_a_weight_file_whose_constant_rows_differ_is_refused(name, value):
    data = bytearray(backbone_bytes(init_backbone(BACKBONE, 7)))
    h, heads = BACKBONE.hidden, BACKBONE.heads
    row = 2 * h + (heads - 1) * (h // heads + 1) + h // heads  # the last head's constant row
    at = tensor_offset(data, 2, name) + 4 * row * (h if name == "w_qkv" else 1)
    data[at:at + 4] = struct.pack("<f", value)
    with pytest.raises(FormatError, match="constant rows"):
        load_backbone(io.BytesIO(bytes(data)))


def test_a_weight_file_of_another_flags_byte_is_refused():
    data = bytearray(backbone_bytes(init_backbone(BACKBONE, 7)))
    data[6 + len(BACKBONE.config_block()) - 1] = 0x81  # past the magic and version
    with pytest.raises(ValueError, match="flags 0x81"):
        load_backbone(io.BytesIO(bytes(data)))


def test_a_weight_file_of_version_1_is_refused():
    data = backbone_bytes(init_backbone(BACKBONE, 7))
    with pytest.raises(FormatError, match="unsupported version 1"):
        load_backbone(io.BytesIO(data[:4] + struct.pack("<H", 1) + data[6:]))


def test_a_checkpoint_loads_the_config_and_params_it_was_saved_with():
    config = ServerConfig(backbone=BACKBONE, bottleneck=16)
    moved = config.initial_params()
    rng = np.random.default_rng(0)
    moved.flat += rng.normal(scale=0.1, size=moved.flat.size).astype(np.float32)
    state = server._make_state(config, Hello(backbone=BACKBONE, scheme="nf4", batch_size=1,
                                             seq_len=1), moved)
    loaded, params = load_side(io.BytesIO(server._checkpoint_bytes(state)))
    assert loaded == state.config == config.side_config()
    assert params.flat.tobytes() == state.params.flat.tobytes()
    assert params.flat.tobytes() != init_side(loaded, config.side_seed).flat.tobytes()


def test_trailing_byte_is_rejected():
    with pytest.raises(FormatError):
        load_backbone(io.BytesIO(backbone_bytes(init_backbone(BACKBONE, 7)) + b"\0"))
    with pytest.raises(FormatError):
        load_side(io.BytesIO(side_bytes(init_side(SIDE, 1)) + b"\0"))


# header fields of a checkpoint, past its magic and version: (offset, format)
SIDE_HEADER = {"hidden": (6, "<I"), "bottleneck": (10, "<I"), "adapters": (14, "<I"),
               "nonlinearity": (22, "<B")}


@pytest.mark.parametrize("fields, message", [
    ({"hidden": 8, "bottleneck": 8}, "bottleneck 8 must be at least 1 and below hidden 8"),
    ({"adapters": 0}, "0 adapters"),
    ({"nonlinearity": 1}, "unknown nonlinearity code 1"),
], ids=["bottleneck_not_below_hidden", "no_adapters", "not_gelu"])
def test_a_checkpoint_header_no_side_network_can_have_is_a_format_error(fields, message):
    data = bytearray(side_bytes(init_side(SIDE, 1)))
    for name, value in fields.items():
        offset, fmt = SIDE_HEADER[name]
        struct.pack_into(fmt, data, offset, value)
    with pytest.raises(FormatError, match=message) as refused:
        load_side(io.BytesIO(bytes(data)))
    # a bad file from the peer, which the command line reports as a runtime
    # error (exit 2), not as its own configuration error (exit 1)
    assert not isinstance(refused.value, ValueError)


def test_mismatched_config_is_rejected():
    data = backbone_bytes(init_backbone(BACKBONE, 7))
    other = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                           block_cuts=(2, 4))
    with pytest.raises(FormatError):
        load_backbone(io.BytesIO(data), other)
    with pytest.raises(FormatError):
        load_side(io.BytesIO(side_bytes(init_side(SIDE, 1))),
                  SideConfig(hidden=32, bottleneck=8, adapters=4, classes=2))


def act_batch(scheme="nf4", batch=4, seq=7):
    rng = np.random.default_rng(0)
    taps = tuple(quantize(rng.normal(size=(batch, seq, 32)).astype(np.float32), scheme)
                 for _ in range(BACKBONE.gamma))
    return ActBatch(batch_id=9, labels=tuple(range(batch)), taps=taps)


def decoder_for(msg):
    """A decoder that can decode `msg`: an ActBatch decodes only against
    the Hello of its session."""
    if not isinstance(msg, ActBatch):
        return StreamDecoder()
    tap = msg.taps[0]
    return StreamDecoder(session=Hello(backbone=BACKBONE, scheme=tap.scheme,
                                       batch_size=len(msg.labels), seq_len=tap.shape[1]))


MESSAGES = [
    Hello(backbone=BACKBONE, scheme="nf4", batch_size=4, seq_len=7, sync=True),
    SessionAck(status=2),
    act_batch(),
    MetricsSnapshot(text='{"loss": 0.5}'),
    CheckpointRequest(),
    CheckpointData(data=b"\x01\x02\x03"),
    Bye(),
]


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
def test_every_message_type_round_trips(msg):
    data = encode(msg)
    decoder = decoder_for(msg)
    # split mid-frame: nothing until the last byte arrives
    assert decoder.feed(data[:-1]) == []
    assert decoder.feed(data[-1:]) == [msg]
    assert decoder.pending_bytes == 0


def test_a_decoder_outside_a_session_refuses_a_batch():
    with pytest.raises(ProtocolError, match="outside a session"):
        StreamDecoder().feed(encode(act_batch()))


@pytest.mark.parametrize("msg_type, payload", [
    (T_SESSION_ACK, b""), (T_SESSION_ACK, b"\0\0"), (T_CKPT_REQUEST, b"\0"), (T_BYE, b"\0"),
], ids=["ack_empty", "ack_trailing_byte", "checkpoint_request_with_payload", "bye_with_payload"])
def test_a_control_message_of_another_length_is_a_frame_error(msg_type, payload):
    with pytest.raises(FrameError, match="payload bytes"):
        StreamDecoder().feed(_frame(msg_type, payload))


@pytest.mark.parametrize("cuts", [(4,), (1, 2, 3, 4)], ids=["1cut", "4cuts"])
def test_a_hello_carries_the_backbone_config(cuts):
    backbone = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                              block_cuts=cuts)
    msg = Hello(backbone=backbone, scheme="fp8_e4m3", batch_size=3, seq_len=5)
    data = encode(msg)
    assert data[24:-4] == backbone.config_block()  # after the header and the fixed fields
    assert StreamDecoder().feed(data) == [msg]


def hello_frame(block: bytes, batch_size: int = 4, seq_len: int = 7, sync: int = 0) -> bytes:
    """A Hello frame declaring `batch_size`, `seq_len` and the sync byte
    `sync`, whose other fixed fields are a valid Hello's and whose config
    block is `block`."""
    hello = Hello(backbone=BACKBONE, scheme="nf4", batch_size=batch_size, seq_len=seq_len)
    return _frame(T_HELLO, encode(hello)[12:23] + bytes([sync]) + block)


def block_with(offset: int, value: int) -> bytes:
    """BACKBONE's config block with the u32 at `offset` set to `value`."""
    block = BACKBONE.config_block()
    return block[:offset] + struct.pack("<I", value) + block[offset + 4:]


def block_with_flags(flags: int) -> bytes:
    """BACKBONE's config block with its last byte, the flags, set to `flags`."""
    return BACKBONE.config_block()[:-1] + bytes([flags])


@pytest.mark.parametrize("block, batch_size, seq_len, sync", [
    (BACKBONE.config_block()[:-1], 4, 7, 0),
    (BACKBONE.config_block() + b"\0", 4, 7, 0),
    # hidden 30 over 4 heads
    (block_with(4, 30), 4, 7, 0),
    # a valid block, but a session of no batch at all
    (BACKBONE.config_block(), 0, 7, 0),
    (BACKBONE.config_block(), 4, 0, 0),
    # the block's fields: vocab_size, hidden, layers, heads, ffn_dim, max_seq, ...
    (block_with(0, 0), 4, 7, 0),
    (block_with(4, 0), 4, 7, 0),
    (block_with(20, 0), 4, 7, 0),
    # the FFN slot holds 4H, the flags byte 1, the sync byte 0 or 1: one
    # encoding per Hello
    (block_with(16, 4 * BACKBONE.hidden + 1), 4, 7, 0),
    (block_with_flags(0), 4, 7, 0),
    (block_with_flags(2), 4, 7, 0),
    (block_with_flags(0x81), 4, 7, 0),
    (BACKBONE.config_block(), 4, 7, 2),
    (BACKBONE.config_block(), 4, 7, 0x80),
], ids=["truncated", "trailing_byte", "hidden_not_divisible_by_heads", "batch_size_0",
        "seq_len_0", "vocab_size_0", "hidden_0", "max_seq_0", "ffn_dim_not_4h", "flags_0",
        "flags_2", "flags_0x81", "sync_2", "sync_0x80"])
def test_a_hello_whose_config_block_does_not_decode_is_a_frame_error(block, batch_size, seq_len,
                                                                     sync):
    for valid in (0, 1):
        assert StreamDecoder().feed(hello_frame(BACKBONE.config_block(), sync=valid)) != []
    with pytest.raises(FrameError, match="malformed hello"):
        StreamDecoder().feed(hello_frame(block, batch_size, seq_len, sync))


@pytest.mark.parametrize("scheme", ["none_fp16", "fp8_e4m3", "fp4_grid", "nf4"])
def test_act_batch_frame_is_payload_plus_30_bytes(scheme):
    batch, seq = 4, 7
    spec = ModelSpec(params=1, layers=BACKBONE.layers, hidden=32, heads=4, seq_len=seq,
                     batch_size=batch, gamma=BACKBONE.gamma)
    msg = act_batch(scheme, batch, seq)
    frame = encode(msg)
    # 30 + gamma x (scale and codes) + 4 per label: a tap carries no scheme or shape
    assert len(frame) == 30 + BACKBONE.gamma * (4 + len(msg.taps[0].codes)) + 4 * batch
    assert len(frame) == payload_per_iteration(spec, scheme) + 30


@pytest.mark.parametrize("scheme", ["none_fp16", "fp8_e4m3", "fp4_grid", "nf4"])
def test_one_tap_adds_its_payload_bytes_to_the_frame(scheme):
    shape = (3, 5, 7)  # odd element count: the 4-bit codes end in a padded nibble
    q = quantize(np.random.default_rng(1).normal(size=shape).astype(np.float32), scheme)
    without = encode(ActBatch(batch_id=1, labels=(0, 1, 0), taps=()))
    with_tap = encode(ActBatch(batch_id=1, labels=(0, 1, 0), taps=(q,)))
    assert len(with_tap) - len(without) == payload_bytes(shape, scheme)


# a real checkpoint, small enough to flip every bit: binary, not UTF-8
TINY_SIDE = SideConfig(hidden=8, bottleneck=4, adapters=2, classes=2)
FUZZ_MESSAGES = MESSAGES + [CheckpointData(data=side_bytes(init_side(TINY_SIDE, 1), TINY_SIDE))]


@pytest.mark.parametrize("msg", FUZZ_MESSAGES,
                         ids=[f"{type(m).__name__}{i}" for i, m in enumerate(FUZZ_MESSAGES)])
def test_a_corrupt_frame_decodes_or_raises_a_wire_error(msg):
    data = encode(msg)
    for n in range(len(data)):
        assert decoder_for(msg).feed(data[:n]) == []
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            out = decoder_for(msg).feed(bytes(flipped))
        except (FrameError, DesyncError, ProtocolError):
            continue
        assert all(isinstance(m, WireMessage) for m in out), bit


def test_a_frame_header_past_max_payload_is_refused_at_once():
    header = MAGIC + struct.pack("<HBBI", FRAME_VERSION, T_ACT_BATCH, 0, 2**32 - 1)
    with pytest.raises(FrameError, match="exceeds"):
        StreamDecoder().feed(header)


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_header_declaring_max_payload_allocates_nothing_ahead_of_the_bytes():
    # the peer's length field is only a promise: the buffer grows as bytes arrive
    header = MAGIC + struct.pack("<HBBI", FRAME_VERSION, T_ACT_BATCH, 0, MAX_PAYLOAD)
    decoder = StreamDecoder()
    assert traced_peak(lambda: decoder.feed(header)) < 64 * 1024
    assert decoder.pending_bytes == len(header)

    device_end, server_end = loopback_pair()
    server_end.send(header)
    server_end.close()
    reader = MessageReader(device_end)

    def read():
        with pytest.raises(FrameError, match="mid-frame"):
            reader.read(timeout=5)

    assert traced_peak(read) < 64 * 1024
    device_end.close()


def session_frame(hello, batch_id=0) -> bytes:
    """A batch frame of `hello`'s session with random codes."""
    rng = np.random.default_rng(batch_id)
    frame = BatchFrame.for_session(hello)
    frame.set_batch(batch_id, [0] * hello.batch_size)
    for k in range(hello.backbone.gamma):
        frame.put_scale(k, 1.0)
        codes = frame.codes(k)
        codes[:] = rng.integers(0, 256, len(codes), dtype=np.uint8).tobytes()
    return bytes(encode(frame))


# the benchmark's long_seq session: 16 x 255 tokens, H = 32, five nf4 taps
LONG_SEQ = Hello(backbone=BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4,
                                         max_seq=256, block_cuts=(1, 2, 3, 4)),
                 scheme="nf4", batch_size=16, seq_len=255)
SMALL = Hello(backbone=BACKBONE, scheme="nf4", batch_size=4, seq_len=7)


def test_a_batch_fed_in_64_kib_chunks_holds_its_frame_once():
    data = session_frame(LONG_SEQ)
    assert len(data) == 326_514
    chunks = [data[i:i + 64 * 1024] for i in range(0, len(data), 64 * 1024)]
    decoder = StreamDecoder(LONG_SEQ.batch_payload(), session=LONG_SEQ)
    out = []
    peak = traced_peak(lambda: [out.extend(decoder.feed(c)) for c in chunks])
    assert len(out) == 1 and decoder.pending_bytes == 0
    # 656,058 B when each tap's codes were copied out of the frame
    assert peak < len(data) + 128 * 1024


def test_decoded_codes_are_read_only_views_of_their_frame():
    data = bytearray(session_frame(SMALL))  # writable, as the device's frame is
    for batch in (StreamDecoder(session=SMALL).feed(data)[0],
                  try_decode(data, session=SMALL)[0]):
        for q in batch.taps:
            assert isinstance(q.codes, memoryview) and q.codes.readonly
            with pytest.raises(TypeError):
                q.codes[0] = 0
            assert not np.frombuffer(q.codes, np.uint8).flags.writeable
    # try_decode's batch views the very bytes it was given
    data[-5] ^= 0xFF
    assert batch.taps[-1].codes[-1] == data[-5]


def test_each_batch_keeps_its_frame_and_the_decoder_the_bytes_after_it():
    frames = [session_frame(SMALL, i) for i in range(3)]
    stream = b"".join(frames)
    decoder = StreamDecoder(SMALL.batch_payload(), session=SMALL)
    cut = len(frames[0]) + len(frames[1]) + 5
    # one frame per call: the second batch waits for a call of no bytes
    got = decoder.feed(stream[:cut])
    assert [b.batch_id for b in got] == [0]
    got += decoder.feed(b"")
    assert [b.batch_id for b in got] == [0, 1]
    assert decoder.feed(b"") == [] and decoder.pending_bytes == 5
    got += decoder.feed(stream[cut:])
    assert decoder.pending_bytes == 0
    for batch, frame in zip(got, frames, strict=True):
        assert batch == try_decode(frame, session=SMALL)[0]
        # its codes view a buffer of its own frame's bytes alone
        assert all(bytes(q.codes.obj) == frame for q in batch.taps)


def test_a_reader_decodes_the_frames_behind_a_hello_in_its_chunk_under_its_session():
    frames = [session_frame(SMALL, i) for i in range(2)]
    device_end, server_end = loopback_pair()
    device_end.send(encode(SMALL) + b"".join(frames) + encode(Bye()))
    reader = MessageReader(server_end, max_payload=MAX_HELLO)
    try:
        assert reader.read(timeout=5) == SMALL
        reader.limit_to_batches(SMALL)
        for frame in frames:
            assert reader.read(timeout=5) == try_decode(frame, session=SMALL)[0]
        assert reader.read(timeout=5) == Bye()
    finally:
        device_end.close()
        server_end.close()


def test_the_batches_before_a_frame_that_does_not_decode_come_first():
    good, bad = session_frame(SMALL, 0), bytearray(session_frame(SMALL, 1))
    bad[-1] ^= 1  # its crc
    decoder = StreamDecoder(SMALL.batch_payload(), session=SMALL)
    assert [b.batch_id for b in decoder.feed(good + bad)] == [0]
    for _ in range(2):
        with pytest.raises(FrameError, match="crc"):
            decoder.feed(b"")

    # a reader hands the batch out, then raises without waiting for more bytes
    device_end, server_end = loopback_pair()
    device_end.send(good + bad)
    reader = MessageReader(server_end)
    reader.limit_to_batches(SMALL)
    assert reader.read(timeout=5).batch_id == 0
    with pytest.raises(FrameError, match="crc"):
        reader.read(timeout=5)
    device_end.close()
    server_end.close()
