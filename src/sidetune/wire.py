"""One-way activation streaming protocol plus session control.

Every message rides in one frame:

    magic "MBLM" | version u16 | msg_type u8 | flags u8 |
    payload_len u32 | payload | crc32 u32 (of payload)

All integers little-endian. The 12-byte header plus the trailing crc make
an empty-payload frame exactly 16 bytes. The flags byte is written as 0
and never read. Whatever does not decode is fatal: an unknown message
type is a ProtocolError, and a control message of another length than
its own (SessionAck 1 byte, CheckpointRequest and Bye none) a FrameError.

The session setup, then the steady-state workhorse. The Hello fixes the
backbone (its config block, as the weight file stores it, names the tap
blocks), the scheme and the session's one batch shape: B >= 1 sequences
of S >= 1 tokens. So every tap is [B, S, hidden] under the Hello's
scheme, and on the wire a tap is only its scale and codes. Each Hello
has one encoding: its sync byte is 0 or 1 and its config block
canonical. A Hello of another protocol version decodes to that version
alone (the other fields empty), whatever its body, so the server can
refuse it with ``ACK_BAD_VERSION``. A server answers ``ACK_BAD_CONFIG``
to another backbone, and ``ACK_BAD_SHAPE`` to a batch shape it cannot
take.

    Hello:      protocol_version u16 | scheme u8 | batch_size u32 | seq_len u32 |
                sync u8 | backbone config block (:meth:`BackboneConfig.config_block`)
    SessionAck: status u8
    ActBatch:   batch_id u64 | label_count u32 | labels u32 each | tap_count u16 |
                per tap, in tap-block order: scale f32 | codes

One writer, :class:`BatchFrame`, lays out every ActBatch frame, with
each tap's slot at an offset the Hello fixes for the whole session, so
one frame can carry batch after batch. The device quantizes each tap
straight into its slot; :func:`encode` of an ActBatch copies its taps
into the slots of the same writer. Either way, encoding finishes the
frame (its payload length and crc) and returns its bytearray, no copy.

A batch decodes only against its session: a :class:`StreamDecoder` given
the Hello takes exactly :meth:`Hello.batch_payload` bytes, B labels and
gamma taps at a fixed stride. Any other ActBatch is a FrameError, and
one outside a session a ProtocolError. :func:`batch_bytes` counts a
batch's taps and labels; the frame, batch id, label count and tap count
add 30 bytes (:func:`batch_frame_bytes`).

A reader decodes one frame per call, under the frame cap and session in
force at that call, and the bytes it holds before it waits for more; so
the frames behind a Hello are read under the session the Hello opens.

A decoded batch holds its frame once: each tap's codes are a read-only
memoryview of the frame's bytes, not a copy, and those views keep the
frame alive for as long as the batch is. A :class:`StreamDecoder` hands
each finished batch frame's buffer to the batch and keeps only the bytes
after it. Its buffer grows only as bytes arrive, never ahead of them
from a length field the peer sent.
"""

from __future__ import annotations

import math
import struct
import time
import zlib
from dataclasses import dataclass
from io import BytesIO

from .backbone import BackboneConfig
from .quantize import SCHEMES, QuantizedActivation, payload_code_bytes

MAGIC = b"MBLM"
FRAME_VERSION = 1
PROTOCOL_VERSION = 5
HEADER_LEN = 12
MAX_PAYLOAD = 2**31 - 1
# the longest Hello a server reads: a backbone of about 1,000 cuts
MAX_HELLO = 4096

# msg_type codes
T_HELLO = 1
T_SESSION_ACK = 2
T_ACT_BATCH = 3
T_METRICS = 4
T_CKPT_REQUEST = 5
T_CKPT_DATA = 6
T_BYE = 7

_SCHEME_CODE = {name: i for i, name in enumerate(SCHEMES)}
_SCHEME_NAME = {i: name for i, name in enumerate(SCHEMES)}
# the payload length of each fixed-size control message
_CONTROL_LEN = {T_SESSION_ACK: 1, T_CKPT_REQUEST: 0, T_BYE: 0}

_FRAME_HEAD = struct.Struct("<4sHBBI")  # magic, version, msg_type, flags, payload_len
_CRC = struct.Struct("<I")
_HELLO = struct.Struct("<HBIIB")  # then the backbone config block
_BATCH_HEAD = struct.Struct("<QI")  # batch id, label count
_TAP_COUNT = struct.Struct("<H")
# What one tap carries besides its codes: its absmax scale.
TAP_HEADER = struct.Struct("<f")

# SessionAck status codes
ACK_OK = 0
ACK_BAD_VERSION = 1
ACK_BAD_CONFIG = 2
ACK_BAD_SHAPE = 3

ACK_REASONS = {
    ACK_OK: "ok",
    ACK_BAD_VERSION: "protocol version mismatch",
    ACK_BAD_CONFIG: "backbone config mismatch",
    ACK_BAD_SHAPE: "batch shape refused",
}


class DesyncError(Exception):
    """Stream no longer frame-aligned (bad magic); unrecoverable."""


class FrameError(Exception):
    """A structurally broken frame (crc mismatch, bad lengths)."""


class OversizedFrame(FrameError):
    """A frame header whose payload length exceeds the reader's cap."""


class ProtocolError(Exception):
    """Well-formed frames arriving against the session rules."""


class HandshakeError(Exception):
    """Session setup failed (rejection, version skew, timeout)."""


@dataclass(frozen=True)
class Hello:
    backbone: BackboneConfig
    scheme: str
    batch_size: int
    seq_len: int
    sync: bool = False  # request a per-iteration ack (forced-serial mode)
    protocol_version: int = PROTOCOL_VERSION

    @property
    def batch_shape(self) -> tuple[int, int, int]:
        """[B, S, hidden]: the shape of every tap of the session."""
        return self.batch_size, self.seq_len, self.backbone.hidden

    def batch_payload(self) -> int:
        """Payload bytes of each of the session's ActBatch frames."""
        frame = batch_frame_bytes(self.batch_shape, self.scheme, self.backbone.gamma)
        return frame - HEADER_LEN - _CRC.size


@dataclass(frozen=True)
class SessionAck:
    status: int = ACK_OK


@dataclass(frozen=True)
class ActBatch:
    batch_id: int
    labels: tuple[int, ...]
    taps: tuple[QuantizedActivation, ...]  # in tap-block order


@dataclass(frozen=True)
class MetricsSnapshot:
    text: str  # JSON document


@dataclass(frozen=True)
class CheckpointRequest:
    pass


@dataclass(frozen=True)
class CheckpointData:
    data: bytes


@dataclass(frozen=True)
class Bye:
    pass


WireMessage = Hello | SessionAck | ActBatch | MetricsSnapshot | CheckpointRequest | CheckpointData | Bye


def payload_bytes(shape, scheme: str) -> int:
    """Wire bytes for one quantized tap: its codes and its 4-byte scale."""
    return payload_code_bytes(math.prod(int(d) for d in shape), scheme) + TAP_HEADER.size


def batch_bytes(shape, scheme: str, gamma: int) -> int:
    """Wire bytes of one batch's `gamma` taps of `shape` ([B, S, H]) and
    its B labels; its ActBatch frame is 30 bytes longer."""
    return gamma * payload_bytes(shape, scheme) + 4 * int(shape[0])


def batch_frame_bytes(shape, scheme: str, gamma: int) -> int:
    """Bytes of the whole ActBatch frame of :func:`batch_bytes`: the
    header and crc, batch id, label count and tap count add 30."""
    return (HEADER_LEN + _BATCH_HEAD.size + _TAP_COUNT.size
            + batch_bytes(shape, scheme, gamma) + _CRC.size)


def _frame(msg_type: int, *parts: bytes) -> bytes:
    """The frame whose payload is `parts` joined, built with one copy."""
    size, crc = sum(map(len, parts)), 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    if size > MAX_PAYLOAD:
        raise ValueError(f"payload of {size} bytes exceeds frame limit")
    header = _FRAME_HEAD.pack(MAGIC, FRAME_VERSION, msg_type, 0, size)
    return b"".join([header, *parts, _CRC.pack(crc)])


class BatchFrame:
    """The one writer of the ActBatch layout: the frame of a batch of
    `batch_size` labels and `taps` slots of `code_bytes` codes each, in one
    bytearray, ``data``, which batch after batch can be written over.

    The header, label count and tap count are written here, once;
    :meth:`set_batch` writes a batch's id and labels over the last's. Tap
    k's slot, its scale (:meth:`put_scale`) then its codes (:meth:`codes`),
    starts at byte 26 + 4B + k (4 + `code_bytes`) of the frame.
    :func:`encode` finishes the frame once its slots are filled: it writes
    the payload length and the crc."""

    def __init__(self, batch_size: int, taps: int, code_bytes: int):
        self.batch_id = None  # no batch written yet
        self._first = HEADER_LEN + _BATCH_HEAD.size + 4 * batch_size + _TAP_COUNT.size
        self._stride = TAP_HEADER.size + code_bytes
        payload = self._first - HEADER_LEN + taps * self._stride
        if payload > MAX_PAYLOAD:
            raise ValueError(f"payload of {payload} bytes exceeds frame limit")
        self._batch = struct.Struct(f"<QI{batch_size}I")  # batch id, label count, labels
        self.data = bytearray(HEADER_LEN + payload + _CRC.size)
        _FRAME_HEAD.pack_into(self.data, 0, MAGIC, FRAME_VERSION, T_ACT_BATCH, 0, 0)
        _TAP_COUNT.pack_into(self.data, self._first - _TAP_COUNT.size, taps)

    @classmethod
    def for_session(cls, hello: Hello) -> "BatchFrame":
        """A frame of `hello`'s session: B labels and gamma taps of
        [B, S, H] under its scheme."""
        return cls(hello.batch_size, hello.backbone.gamma,
                   payload_code_bytes(math.prod(hello.batch_shape), hello.scheme))

    def set_batch(self, batch_id: int, labels) -> None:
        """Write batch `batch_id`'s id and B `labels`; then fill every slot."""
        self._batch.pack_into(self.data, HEADER_LEN, batch_id, len(labels), *map(int, labels))
        self.batch_id = batch_id

    def put_scale(self, k: int, scale: float) -> None:
        TAP_HEADER.pack_into(self.data, self._first + k * self._stride, scale)

    def codes(self, k: int) -> memoryview:
        """Tap k's code bytes, a writable view of ``data``."""
        at = self._first + k * self._stride + TAP_HEADER.size
        return memoryview(self.data)[at:at + self._stride - TAP_HEADER.size]


def encode(msg: WireMessage | BatchFrame) -> bytes | bytearray:
    """Serialize one message into a framed byte string; an ActBatch, or a
    :class:`BatchFrame` whose slots are filled, into that frame's
    bytearray."""
    if isinstance(msg, Hello):
        payload = _HELLO.pack(msg.protocol_version, _SCHEME_CODE[msg.scheme],
                              msg.batch_size, msg.seq_len, msg.sync) + msg.backbone.config_block()
        return _frame(T_HELLO, payload)
    if isinstance(msg, SessionAck):
        return _frame(T_SESSION_ACK, struct.pack("<B", msg.status))
    if isinstance(msg, ActBatch):
        # a tap of another length than the first does not fit its slot: ValueError
        frame = BatchFrame(len(msg.labels), len(msg.taps),
                           len(msg.taps[0].codes) if msg.taps else 0)
        frame.set_batch(msg.batch_id, msg.labels)
        for k, q in enumerate(msg.taps):
            frame.put_scale(k, q.scale)
            frame.codes(k)[:] = q.codes
        msg = frame
    if isinstance(msg, BatchFrame):
        payload = len(msg.data) - HEADER_LEN - _CRC.size
        struct.pack_into("<I", msg.data, HEADER_LEN - 4, payload)
        _CRC.pack_into(msg.data, HEADER_LEN + payload,
                       zlib.crc32(memoryview(msg.data)[HEADER_LEN:HEADER_LEN + payload]))
        return msg.data
    if isinstance(msg, MetricsSnapshot):
        return _frame(T_METRICS, msg.text.encode("utf-8"))
    if isinstance(msg, CheckpointRequest):
        return _frame(T_CKPT_REQUEST, b"")
    if isinstance(msg, CheckpointData):
        return _frame(T_CKPT_DATA, msg.data)
    if isinstance(msg, Bye):
        return _frame(T_BYE, b"")
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def _parse_act_batch(payload: memoryview, session: Hello | None) -> ActBatch:
    if session is None:
        raise ProtocolError("an ActBatch outside a session")
    if len(payload) != session.batch_payload():
        raise FrameError(f"batch payload of {len(payload)} bytes, not the session's "
                         f"{session.batch_payload()}")
    batch_id, n_labels = _BATCH_HEAD.unpack_from(payload, 0)
    off = _BATCH_HEAD.size + 4 * session.batch_size
    (n_taps,) = _TAP_COUNT.unpack_from(payload, off)
    if (n_labels, n_taps) != (session.batch_size, session.backbone.gamma):
        raise FrameError(f"{n_labels} labels and {n_taps} taps, not the session's "
                         f"{session.batch_size} and {session.backbone.gamma}")
    labels = struct.unpack_from(f"<{n_labels}I", payload, _BATCH_HEAD.size)
    stride = payload_bytes(session.batch_shape, session.scheme)
    # each tap's codes stay a view of the (read-only) payload
    taps = tuple(QuantizedActivation(session.scheme, session.batch_shape,
                                     TAP_HEADER.unpack_from(payload, at)[0],
                                     payload[at + TAP_HEADER.size:at + stride])
                 for at in range(off + _TAP_COUNT.size, len(payload), stride))
    return ActBatch(batch_id=batch_id, labels=labels, taps=taps)


def _parse_payload(msg_type: int, payload: memoryview, session: Hello | None) -> WireMessage:
    if len(payload) != _CONTROL_LEN.get(msg_type, len(payload)):
        raise FrameError(f"message type {msg_type} takes {_CONTROL_LEN[msg_type]} payload "
                         f"bytes, not {len(payload)}")
    if msg_type == T_HELLO:
        (ver,) = struct.unpack_from("<H", payload, 0)
        if ver != PROTOCOL_VERSION:
            return Hello(backbone=None, scheme=None, batch_size=0, seq_len=0, protocol_version=ver)
        _, scheme_code, batch_size, seq_len, sync = _HELLO.unpack_from(payload, 0)
        block = BytesIO(payload[_HELLO.size:])
        try:
            backbone = BackboneConfig.from_config_block(block)
        except (EOFError, ValueError) as exc:  # truncated, or refused by __post_init__
            raise FrameError(f"malformed hello: {exc}") from exc
        if (block.read(1) or scheme_code not in _SCHEME_NAME or min(batch_size, seq_len) < 1
                or sync not in (0, 1)):
            raise FrameError("malformed hello")
        return Hello(backbone=backbone, scheme=_SCHEME_NAME[scheme_code], batch_size=batch_size,
                     seq_len=seq_len, sync=bool(sync), protocol_version=ver)
    if msg_type == T_SESSION_ACK:
        return SessionAck(*struct.unpack_from("<B", payload, 0))
    if msg_type == T_ACT_BATCH:
        return _parse_act_batch(payload, session)
    if msg_type == T_METRICS:
        return MetricsSnapshot(text=bytes(payload).decode("utf-8"))
    if msg_type == T_CKPT_REQUEST:
        return CheckpointRequest()
    if msg_type == T_CKPT_DATA:
        return CheckpointData(data=bytes(payload))
    if msg_type == T_BYE:
        return Bye()
    raise ProtocolError(f"unknown message type {msg_type}")


def _frame_head(buf, max_payload: int) -> tuple[int, int] | None:
    """(message type, whole frame length) from the header at the head of
    `buf`, or None while the header is incomplete. Bad magic is a
    DesyncError; another frame version, or a payload length past
    `max_payload`, a FrameError."""
    if len(buf) < HEADER_LEN:
        return None
    magic, version, msg_type, _, payload_len = _FRAME_HEAD.unpack_from(buf, 0)  # flags unread
    if magic != MAGIC:
        raise DesyncError(f"bad magic {magic!r}")
    if version != FRAME_VERSION:
        raise FrameError(f"frame version {version} unsupported")
    if payload_len > max_payload:
        raise OversizedFrame(f"payload length {payload_len} exceeds {max_payload}")
    return msg_type, HEADER_LEN + payload_len + _CRC.size


def _decode_frame(buf, msg_type: int, total: int, session: Hello | None) -> WireMessage:
    """The message of the whole `total`-byte frame at the head of `buf`.
    An ActBatch's codes are read-only views of `buf`."""
    view = memoryview(buf).toreadonly()
    payload = view[HEADER_LEN:total - _CRC.size]
    (crc,) = _CRC.unpack_from(view, total - _CRC.size)
    if crc != zlib.crc32(payload):
        raise FrameError("crc mismatch")
    try:
        return _parse_payload(msg_type, payload, session)
    except (struct.error, ValueError) as exc:
        raise FrameError(f"payload does not decode as message type {msg_type}: {exc}") from exc


def try_decode(buf: bytes | bytearray | memoryview, max_payload: int = MAX_PAYLOAD,
               session: Hello | None = None):
    """Decode one frame from the head of `buf`, an ActBatch against
    `session`'s Hello; the batch's codes are read-only views of `buf`.

    Returns None when more bytes are needed, otherwise (message,
    consumed). A header whose payload length exceeds `max_payload`, or a
    payload that does not decode as its message type, is a FrameError;
    an unknown message type is a ProtocolError.
    """
    head = _frame_head(buf, max_payload)
    if head is None or len(buf) < head[1]:
        return None
    msg_type, total = head
    return _decode_frame(buf, msg_type, total, session), total


class StreamDecoder:
    """Incremental frame decoder over an ordered byte stream; it decodes
    ActBatch frames against `session`, the Hello of their session.

    One frame per call: :meth:`feed` decodes only the frame at the head
    of its buffer, under the `max_payload` and `session` in force then.
    Its buffer holds the bytes fed so far that it has not decoded, and
    grows only by what :meth:`feed` is given. A finished ActBatch frame
    keeps the buffer it arrived in, which its codes view, and the decoder
    goes on in a new buffer with the bytes after the frame; every other
    message is a copy, and its frame is dropped from the buffer."""

    def __init__(self, max_payload: int = MAX_PAYLOAD, session: Hello | None = None):
        self._buf = bytearray()
        self.skipped = 0  # always 0; the benchmark's wire.frames_skipped reads it
        self.max_payload = max_payload
        self.session = session
        self.error: Exception | None = None  # why a frame did not decode

    def feed(self, data: bytes) -> list[WireMessage]:
        """Absorb `data`; return [the message of the frame at the head of
        the buffer], or [] while that frame is incomplete. The frames
        behind it wait for later calls, which may be given no bytes.
        A frame that does not decode ends the stream: the call that
        reaches it raises its error, and so does every later call."""
        if self.error is not None:
            raise self.error
        self._buf.extend(data)
        try:
            head = _frame_head(self._buf, self.max_payload)
            if head is None or len(self._buf) < head[1]:
                return []
            msg_type, total = head
            if msg_type == T_ACT_BATCH:
                frame, self._buf = self._buf, self._buf[total:]
                del frame[total:]
                return [_decode_frame(frame, msg_type, total, self.session)]
            msg = _decode_frame(self._buf, msg_type, total, self.session)
            del self._buf[:total]
            return [msg]
        except (DesyncError, FrameError, ProtocolError) as exc:
            self.error = exc
            raise

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


class MessageReader:
    """Blocking message iterator over a transport's chunk stream: each
    read decodes one frame, under the limits in force at that read, from
    the bytes it holds before it waits on the transport."""

    def __init__(self, transport, max_payload: int = MAX_PAYLOAD):
        self._transport = transport
        self._decoder = StreamDecoder(max_payload)
        self.eof = False

    def read(self, timeout: float | None = None) -> WireMessage | None:
        """Next message, or None once the peer has closed the stream."""
        deadline = None if timeout is None else time.monotonic() + timeout
        chunk = b""
        while not (out := self._decoder.feed(chunk)):
            if self.eof:
                return None
            remaining = None if deadline is None else max(deadline - time.monotonic(), 0.0)
            if remaining == 0.0:
                raise TimeoutError("timed out waiting for a message")
            chunk = self._transport.recv(timeout=remaining)
            if chunk == b"":
                self.eof = True
                if self._decoder.pending_bytes:
                    raise FrameError("stream closed mid-frame")
                return None
        return out[0]

    def read_expected(self, msg_type, timeout: float | None = None) -> WireMessage:
        """The next message, which must be a `msg_type`; anything else,
        or the end of the stream, is a protocol error."""
        msg = self.read(timeout=timeout)
        if msg is None:
            raise ProtocolError(f"stream closed while waiting for {msg_type.__name__}")
        if not isinstance(msg, msg_type):
            raise ProtocolError(f"unexpected {type(msg).__name__}")
        return msg

    def limit_to_batches(self, hello: Hello) -> None:
        """From now on decode each ActBatch against `hello`'s session, and
        refuse any frame longer than one."""
        self._decoder.max_payload = min(MAX_PAYLOAD, hello.batch_payload())
        self._decoder.session = hello
