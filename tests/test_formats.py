"""Weight-file, checkpoint and wire formats: golden bytes, round-trips,
and rejection of malformed input."""

import hashlib
import io
import struct

import numpy as np
import pytest

from sidetune import (
    BackboneConfig,
    ModelSpec,
    SideConfig,
    init_backbone,
    init_side,
    load_backbone,
    load_side,
    payload_bytes,
    payload_per_iteration,
    quantize,
    save_backbone,
    save_side,
)
from sidetune.binio import FormatError
from sidetune.wire import (
    ActBatch,
    Bye,
    CheckpointData,
    CheckpointRequest,
    DesyncError,
    FRAME_VERSION,
    FrameError,
    Hello,
    MAGIC,
    MetricsSnapshot,
    ProtocolError,
    SessionAck,
    StreamDecoder,
    T_ACT_BATCH,
    WireMessage,
    encode,
)

BACKBONE = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                          block_cuts=(1, 2, 3, 4))
SIDE = SideConfig(hidden=32, bottleneck=16, adapters=4, classes=2)

# frozen: a change to these is a change of file format
BACKBONE_GOLDEN = (209_715, "90a78769ed088d45f94f8f733a218e9f53166a875e6f3104b2ba1a7d3e249a23")
SIDE_GOLDEN = (17_699, "9511681fe492d07c83037cc90009fdffac74de797ba35566a803ad65cbfbd028")


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


def test_trailing_byte_is_rejected():
    with pytest.raises(FormatError):
        load_backbone(io.BytesIO(backbone_bytes(init_backbone(BACKBONE, 7)) + b"\0"))
    with pytest.raises(FormatError):
        load_side(io.BytesIO(side_bytes(init_side(SIDE, 1)) + b"\0"))


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


MESSAGES = [
    Hello(config_digest=BACKBONE.digest(), scheme="nf4", batch_size=4, sync=True),
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
    decoder = StreamDecoder()
    # split mid-frame: nothing until the last byte arrives
    assert decoder.feed(data[:-1]) == []
    assert decoder.feed(data[-1:]) == [msg]
    assert decoder.pending_bytes == 0


@pytest.mark.parametrize("scheme", ["none_fp16", "fp8_e4m3", "fp4_grid", "nf4"])
def test_act_batch_frame_is_payload_plus_30_bytes(scheme):
    batch, seq = 4, 7
    spec = ModelSpec(params=1, layers=BACKBONE.layers, hidden=32, heads=4, seq_len=seq,
                     batch_size=batch, gamma=BACKBONE.gamma)
    frame = encode(act_batch(scheme, batch, seq))
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
        assert StreamDecoder().feed(data[:n]) == []
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            out = StreamDecoder().feed(bytes(flipped))
        except (FrameError, DesyncError, ProtocolError):
            continue
        assert all(isinstance(m, WireMessage) for m in out), bit


def test_a_frame_header_past_max_payload_is_refused_at_once():
    header = MAGIC + struct.pack("<HBBI", FRAME_VERSION, T_ACT_BATCH, 0, 2**32 - 1)
    with pytest.raises(FrameError, match="exceeds"):
        StreamDecoder().feed(header)
