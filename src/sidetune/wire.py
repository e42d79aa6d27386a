"""One-way activation streaming protocol plus session control.

Every message rides in one frame:

    magic "MBLM" | version u16 | msg_type u8 | flags u8 |
    payload_len u32 | payload | crc32 u32 (of payload)

All integers little-endian. The 12-byte header plus the trailing crc make
an empty-payload frame exactly 16 bytes. Flag bit 0 marks a frame the
receiver may skip when it does not know the type; everything else is
fatal on mismatch.

The session setup, then the steady-state workhorse. The Hello fixes the
backbone (its digest covers the tap blocks), the scheme and the batch
size B; a tap's code length follows from its scheme and shape.

    Hello:      protocol_version u16 | scheme u8 | batch_size u32 | sync u8 |
                config_digest 32 bytes
    SessionAck: status u8
    ActBatch:   batch_id u64 | label_count u32 | labels u32 each | tap_count u16 |
                per tap, in tap-block order: scheme u8 | shape 3 x u32 | scale f32 | codes

:func:`batch_bytes` counts a batch's taps and labels; the frame, batch
id, label count and tap count add 30 bytes.
"""

from __future__ import annotations

import math
import struct
import time
import zlib
from dataclasses import dataclass

from .quantize import SCHEMES, QuantizedActivation, payload_code_bytes

MAGIC = b"MBLM"
FRAME_VERSION = 1
PROTOCOL_VERSION = 2
HEADER_LEN = 12
MAX_PAYLOAD = 2**31 - 1

FLAG_OPTIONAL = 0x01

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

_HELLO = struct.Struct("<HBIB")  # then the 32-byte digest
_BATCH_HEAD = struct.Struct("<QI")  # batch id, label count
_TAP_COUNT = struct.Struct("<H")
# What one tap carries besides its codes: scheme, shape and absmax scale.
TAP_HEADER = struct.Struct("<B3If")

# SessionAck status codes
ACK_OK = 0
ACK_BAD_VERSION = 1
ACK_BAD_DIGEST = 2

ACK_REASONS = {
    ACK_OK: "ok",
    ACK_BAD_VERSION: "protocol version mismatch",
    ACK_BAD_DIGEST: "backbone config digest mismatch",
}


class DesyncError(Exception):
    """Stream no longer frame-aligned (bad magic); unrecoverable."""


class FrameError(Exception):
    """A structurally broken frame (crc mismatch, bad lengths)."""


class ProtocolError(Exception):
    """Well-formed frames arriving against the session rules."""


class HandshakeError(Exception):
    """Session setup failed (rejection, version skew, timeout)."""


@dataclass(frozen=True)
class Hello:
    config_digest: bytes  # sha256 of the backbone config block
    scheme: str
    batch_size: int
    sync: bool = False  # request a per-iteration ack (forced-serial mode)
    protocol_version: int = PROTOCOL_VERSION


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
    """Wire bytes for one quantized tap: codes + per-tap header."""
    return payload_code_bytes(math.prod(int(d) for d in shape), scheme) + TAP_HEADER.size


def batch_bytes(shape, scheme: str, gamma: int) -> int:
    """Wire bytes of one batch's `gamma` taps of `shape` ([B, S, H]) and
    its B labels; its ActBatch frame is 30 bytes longer."""
    return gamma * payload_bytes(shape, scheme) + 4 * int(shape[0])


def _frame(msg_type: int, payload: bytes, flags: int = 0) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds frame limit")
    header = MAGIC + struct.pack("<HBBI", FRAME_VERSION, msg_type, flags, len(payload))
    return header + payload + struct.pack("<I", zlib.crc32(payload))


def encode(msg: WireMessage) -> bytes:
    """Serialize one message into a framed byte string."""
    if isinstance(msg, Hello):
        if len(msg.config_digest) != 32:
            raise ValueError("config digest must be 32 bytes")
        payload = _HELLO.pack(msg.protocol_version, _SCHEME_CODE[msg.scheme],
                              msg.batch_size, 1 if msg.sync else 0) + msg.config_digest
        return _frame(T_HELLO, payload)
    if isinstance(msg, SessionAck):
        return _frame(T_SESSION_ACK, struct.pack("<B", msg.status))
    if isinstance(msg, ActBatch):
        parts = [_BATCH_HEAD.pack(msg.batch_id, len(msg.labels)),
                 struct.pack(f"<{len(msg.labels)}I", *msg.labels),
                 _TAP_COUNT.pack(len(msg.taps))]
        for q in msg.taps:
            parts.append(TAP_HEADER.pack(_SCHEME_CODE[q.scheme], *q.shape, q.scale))
            parts.append(q.codes)
        return _frame(T_ACT_BATCH, b"".join(parts))
    if isinstance(msg, MetricsSnapshot):
        return _frame(T_METRICS, msg.text.encode("utf-8"))
    if isinstance(msg, CheckpointRequest):
        return _frame(T_CKPT_REQUEST, b"")
    if isinstance(msg, CheckpointData):
        return _frame(T_CKPT_DATA, msg.data)
    if isinstance(msg, Bye):
        return _frame(T_BYE, b"")
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def _parse_act_batch(payload: memoryview) -> ActBatch:
    off = 0

    def take(layout: struct.Struct):
        nonlocal off
        if off + layout.size > len(payload):
            raise FrameError("batch payload truncated")
        vals = layout.unpack_from(payload, off)
        off += layout.size
        return vals

    batch_id, n_labels = take(_BATCH_HEAD)
    labels = take(struct.Struct(f"<{n_labels}I"))
    (n_taps,) = take(_TAP_COUNT)
    taps = []
    for _ in range(n_taps):
        scheme_code, d0, d1, d2, scale = take(TAP_HEADER)
        if scheme_code not in _SCHEME_NAME:
            raise FrameError(f"unknown scheme code {scheme_code}")
        scheme = _SCHEME_NAME[scheme_code]
        end = off + payload_code_bytes(d0 * d1 * d2, scheme)
        if end > len(payload):
            raise FrameError("tap codes truncated")
        taps.append(QuantizedActivation(scheme, (d0, d1, d2), scale, bytes(payload[off:end])))
        off = end
    if off != len(payload):
        raise FrameError("trailing bytes in batch payload")
    return ActBatch(batch_id=batch_id, labels=tuple(labels), taps=tuple(taps))


def _parse_payload(msg_type: int, payload: memoryview) -> WireMessage:
    if msg_type == T_HELLO:
        ver, scheme_code, batch_size, sync = _HELLO.unpack_from(payload, 0)
        digest = bytes(payload[_HELLO.size:])
        if len(digest) != 32 or scheme_code not in _SCHEME_NAME:
            raise FrameError("malformed hello")
        return Hello(config_digest=digest, scheme=_SCHEME_NAME[scheme_code],
                     batch_size=batch_size, sync=bool(sync), protocol_version=ver)
    if msg_type == T_SESSION_ACK:
        return SessionAck(*struct.unpack_from("<B", payload, 0))
    if msg_type == T_ACT_BATCH:
        return _parse_act_batch(payload)
    if msg_type == T_METRICS:
        return MetricsSnapshot(text=bytes(payload).decode("utf-8"))
    if msg_type == T_CKPT_REQUEST:
        return CheckpointRequest()
    if msg_type == T_CKPT_DATA:
        return CheckpointData(data=bytes(payload))
    if msg_type == T_BYE:
        return Bye()
    raise ProtocolError(f"unknown message type {msg_type}")


def try_decode(buf: bytes | bytearray | memoryview, max_payload: int = MAX_PAYLOAD):
    """Decode one frame from the head of `buf`.

    Returns None when more bytes are needed, otherwise (message,
    consumed). A skippable unknown frame yields (None, consumed). A
    header whose payload length exceeds `max_payload`, or a payload that
    does not decode as its message type, is a FrameError.
    """
    view = memoryview(buf)
    if len(view) < HEADER_LEN:
        return None
    if bytes(view[:4]) != MAGIC:
        raise DesyncError(f"bad magic {bytes(view[:4])!r}")
    version, msg_type, flags, payload_len = struct.unpack_from("<HBBI", view, 4)
    if version != FRAME_VERSION:
        raise FrameError(f"frame version {version} unsupported")
    if payload_len > max_payload:
        raise FrameError(f"payload length {payload_len} exceeds {max_payload}")
    total = HEADER_LEN + payload_len + 4
    if len(view) < total:
        return None
    payload = view[HEADER_LEN:HEADER_LEN + payload_len]
    (crc,) = struct.unpack_from("<I", view, HEADER_LEN + payload_len)
    if crc != zlib.crc32(payload):
        raise FrameError("crc mismatch")
    try:
        msg = _parse_payload(msg_type, payload)
    except ProtocolError:
        if flags & FLAG_OPTIONAL:
            return None, total  # skip-with-warning; caller logs
        raise
    except (struct.error, ValueError) as exc:
        raise FrameError(f"payload does not decode as message type {msg_type}: {exc}") from exc
    return msg, total


class StreamDecoder:
    """Incremental frame decoder over an ordered byte stream."""

    def __init__(self):
        self._buf = bytearray()
        self.skipped = 0
        self.max_payload = MAX_PAYLOAD

    def feed(self, data: bytes) -> list[WireMessage]:
        """Absorb bytes; return every complete message now available."""
        self._buf.extend(data)
        out = []
        while True:
            result = try_decode(self._buf, self.max_payload)
            if result is None:
                return out
            msg, consumed = result
            del self._buf[:consumed]
            if msg is None:
                self.skipped += 1
                continue
            out.append(msg)

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


class MessageReader:
    """Blocking message iterator over a transport's chunk stream."""

    def __init__(self, transport):
        self._transport = transport
        self._decoder = StreamDecoder()
        self._pending: list[WireMessage] = []
        self.eof = False

    def read(self, timeout: float | None = None) -> WireMessage | None:
        """Next message, or None once the peer has closed the stream."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._pending:
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
            self._pending.extend(self._decoder.feed(chunk))
        return self._pending.pop(0)

    def read_expected(self, msg_type, timeout: float | None = None) -> WireMessage:
        """The next message, which must be a `msg_type`; anything else,
        or the end of the stream, is a protocol error."""
        msg = self.read(timeout=timeout)
        if msg is None:
            raise ProtocolError(f"stream closed while waiting for {msg_type.__name__}")
        if not isinstance(msg, msg_type):
            raise ProtocolError(f"unexpected {type(msg).__name__}")
        return msg

    def limit_to_batches(self, shape, scheme: str, gamma: int) -> None:
        """From now on refuse any frame longer than an ActBatch of `gamma`
        taps of `shape` under `scheme`."""
        self._decoder.max_payload = min(
            MAX_PAYLOAD, _BATCH_HEAD.size + _TAP_COUNT.size + batch_bytes(shape, scheme, gamma))
