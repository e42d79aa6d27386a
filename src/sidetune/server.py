"""The server side: accept one session, train the side-network, serve
checkpoints; and local mode, the single-process baseline.

The server draws the side network's initial parameters from its own
config before it reads the Hello, so the draw overlaps the device's
set-up. A session opens with the device's Hello, which fixes the
backbone, the scheme and the one batch shape [B, S, hidden] of every
tap. Before it answers, the server builds the session's
:class:`TrainState`, with the side workspace for that shape, so no step
builds a buffer. It answers ``ACK_BAD_SHAPE`` to a shape no batch can
take: S past the backbone's ``max_seq``, a batch frame past
``wire.MAX_PAYLOAD`` or a session past ``MAX_SESSION_BYTES`` (checked
before anything is allocated), or a state too large to build.
Whatever the Hello, :func:`run_server` returns a report.

Then the session is one loop on the calling thread: read the next
message, act on it. Messages are handled strictly in arrival order, so
optimizer state needs no locking and checkpoint requests are always
served at an iteration boundary. While a step runs, the transport's own
buffer holds the frames that arrive, and the device keeps computing.
Each batch decodes against the Hello (see :mod:`sidetune.wire`), so its
layout is the session's, and its taps' codes are views of the frame it
arrived in. The step decodes a tap from those codes each time the side
network reads it, in the forward and again in the backward, so the
session holds the frame until the step returns, and lets it go before
it reads the next. One
function, :func:`_take_batch`, trains each batch or refuses it, counting
it in ``ServerReport.invalid`` under :func:`validate_batch`'s reason
("label_range", "non_finite" or "out_of_order"), or under "non_finite"
when the step overflows, which leaves the parameters and the optimizer
state as they were; the session goes on. In a sync session (``Hello.sync``) every batch gets exactly one
:class:`MetricsSnapshot`: its metrics, or why it was refused. A Hello
that is malformed, longer than ``wire.MAX_HELLO``, missing or late ends
the session before it starts, with no checkpoint. After it, a frame that
does not decode ends the session at once, with its checkpoint: a batch
frame of another layout than the session's, or one longer than its
batch. ``ServerReport.end`` names how the session ended.

Local mode checks the Hello the device would send, builds the same
state, decodes each frame of :func:`sidetune.device.compute_batch`
against that Hello, as the server's reader does, into views of the
device's frame, and hands the batch to the same :func:`_take_batch`,
which trains it before the next batch is written into that frame. So
it trains on the bytes a split session would receive, refuses what that
session refuses, trains bit-equally, and writes its checkpoint however
it ends.
"""

from __future__ import annotations

import json
import logging
import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from io import BytesIO

import numpy as np

from .backbone import BackboneConfig, ForwardWorkspace
from .device import DeviceConfig, compute_batch, load_device_backbone
from .sidenet import SideConfig, SideNetworkParams, Workspace, init_side, save_side, workspace_bytes
from .training import DEFAULT_LR, NonFiniteStep, TrainState, init_adam, train_iteration
from .transport import TransportClosed
from .wire import (
    ACK_BAD_CONFIG,
    ACK_BAD_SHAPE,
    ACK_BAD_VERSION,
    ACK_OK,
    ACK_REASONS,
    ActBatch,
    BatchFrame,
    Bye,
    CheckpointData,
    CheckpointRequest,
    Hello,
    MAX_HELLO,
    MAX_PAYLOAD,
    MessageReader,
    MetricsSnapshot,
    OversizedFrame,
    PROTOCOL_VERSION,
    SessionAck,
    batch_frame_bytes,
    encode,
    try_decode,
)

log = logging.getLogger(__name__)

# the most a session may hold (session_bytes): the host's physical memory
MAX_SESSION_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@dataclass
class ServerConfig:
    backbone: BackboneConfig  # expected frozen-model identity
    bottleneck: int = 16
    classes: int = 2
    # unused: gelu is the only adapter sigma; kept only because the
    # benchmark's server_config passes it
    nonlinearity: str = "gelu"
    side_seed: int = 1
    lr: float = DEFAULT_LR
    queue_depth: int = 4  # unused: the session reads straight from the transport
    checkpoint_path: str | None = None
    metrics_path: str | None = None
    timeout_s: float = 10.0

    def __post_init__(self):
        self.side_config()  # refuses a side network the backbone cannot feed
        if self.nonlinearity != "gelu":
            raise ValueError(f"unsupported adapter nonlinearity {self.nonlinearity!r}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"learning rate {self.lr} must be positive and finite")
        if not 0 < self.timeout_s < np.inf:
            raise ValueError(f"timeout {self.timeout_s} s must be positive and finite")

    def side_config(self) -> SideConfig:
        return SideConfig(
            hidden=self.backbone.hidden,
            bottleneck=self.bottleneck,
            adapters=self.backbone.num_blocks,
            classes=self.classes,
        )

    def initial_params(self) -> SideNetworkParams:
        """The side parameters every session of this config starts from."""
        return init_side(self.side_config(), self.side_seed)


@dataclass
class ServerReport:
    invalid: Counter = field(default_factory=Counter)  # refused batches by reason
    metrics: list = field(default_factory=list)  # one IterationMetrics per trained batch
    rejected: int | None = None  # ack status when the handshake failed
    # how the session ended: "handshake", a Hello malformed, missing or late
    # (None when refused, see `rejected`); "bye"; "oversized", a frame header
    # longer than the session's batch; "undecodable", a frame that does not
    # decode against the session; "vanished", the stream closed or failed
    # without a Bye.
    end: str | None = None
    state: TrainState | None = None

    @property
    def clean_shutdown(self) -> bool:
        return self.end == "bye"

    @property
    def iterations(self) -> int:
        return len(self.metrics)

    @property
    def losses(self) -> list:
        return [m.loss for m in self.metrics]

    @property
    def dropped(self) -> int:
        return self.invalid["out_of_order"]


def _make_state(config: ServerConfig, hello: Hello, params: SideNetworkParams) -> TrainState:
    """The session's state from `params`, with the side workspace for its
    batch shape."""
    side_cfg = config.side_config()
    return TrainState(config=side_cfg, params=params, adam=init_adam(params, lr=config.lr),
                      workspace=Workspace(side_cfg, hello.batch_size, hello.seq_len))


def session_bytes(config: ServerConfig, hello: Hello) -> int:
    """Bytes a session of `hello` holds, counted before any is allocated: the
    side workspace, one batch frame, and the flat float32 state: the
    parameters, Adam's m and v and its two scratch vectors."""
    side = config.side_config()
    return (workspace_bytes(side, hello.batch_size, hello.seq_len)
            + batch_frame_bytes(hello.batch_shape, hello.scheme, hello.backbone.gamma)
            + 5 * 4 * side.param_count)


def _validate_hello(config: ServerConfig, hello: Hello) -> int:
    if hello.protocol_version != PROTOCOL_VERSION:
        return ACK_BAD_VERSION
    if hello.backbone != config.backbone:
        log.error("device backbone %s does not match %s", hello.backbone, config.backbone)
        return ACK_BAD_CONFIG
    if (hello.seq_len > config.backbone.max_seq or hello.batch_payload() > MAX_PAYLOAD
            or session_bytes(config, hello) > MAX_SESSION_BYTES):
        log.error("no batch of shape %s fits the backbone, frame and memory", hello.batch_shape)
        return ACK_BAD_SHAPE
    return ACK_OK


def validate_batch(config: ServerConfig, batch: ActBatch, last_batch_id: int) -> str | None:
    """Why `batch`, decoded against its session, is refused, or None when
    it trains.

    The reasons, checked in this order:

    - "label_range": a class label outside [0, classes);
    - "non_finite": a tap whose scale, or whose fp16 codes, hold a NaN or
      an infinity;
    - "out_of_order": a batch id no greater than `last_batch_id`.
    """
    if not all(0 <= y < config.classes for y in batch.labels):
        return "label_range"
    if any(not np.isfinite(q.scale) or q.scheme == "none_fp16" and not np.isfinite(
            np.frombuffer(q.codes, dtype=np.float16)).all() for q in batch.taps):
        return "non_finite"
    if batch.batch_id <= last_batch_id:
        return "out_of_order"
    return None


def _checkpoint_bytes(state: TrainState) -> bytes:
    buf = BytesIO()
    save_side(buf, state.params, state.config)
    return buf.getvalue()


def _save_checkpoint(config: ServerConfig, state: TrainState) -> None:
    if config.checkpoint_path:
        with open(config.checkpoint_path, "wb") as fh:
            fh.write(_checkpoint_bytes(state))


def _metrics_log(config: ServerConfig):
    return open(config.metrics_path, "w") if config.metrics_path else nullcontext()


def _take_batch(config: ServerConfig, batch, report, metrics_fh) -> str | None:
    """Train `batch` on ``report.state``, recording its metrics in `report`
    and the metrics log, or refuse it, counting the refusal in
    ``report.invalid``. Returns None when the batch trained, else why not."""
    reason = validate_batch(config, batch, report.state.last_batch_id)
    if reason is None:
        try:
            metrics = train_iteration(report.state, batch)
        except NonFiniteStep:
            reason = "non_finite"
        else:
            report.metrics.append(metrics)
            if metrics_fh:
                metrics_fh.write(metrics.to_json() + "\n")
            return None
    report.invalid[reason] += 1
    log.warning("refusing batch %d: %s", batch.batch_id, reason)
    return reason


def run_server(config: ServerConfig, transport) -> ServerReport:
    """Serve exactly one training session; returns once the device says
    Bye, the connection dies or the handshake fails. The caller owns
    `transport` and closes it."""
    report = ServerReport()
    params = config.initial_params()  # drawn while the device sets up
    reader = MessageReader(transport, max_payload=MAX_HELLO)
    try:
        hello = reader.read_expected(Hello, timeout=config.timeout_s)
    except Exception as exc:  # a malformed, missing or late Hello ends the session
        log.error("handshake failed: %s", exc, exc_info=exc)
        report.end = "handshake"
        return report
    status = _validate_hello(config, hello)
    if status == ACK_OK:
        try:
            report.state = _make_state(config, hello, params)
        except MemoryError as exc:
            log.error("no room for a session of shape %s: %r", hello.batch_shape, exc)
            status = ACK_BAD_SHAPE
    transport.send(encode(SessionAck(status=status)))
    if status != ACK_OK:
        report.rejected = status
        return report
    reader.limit_to_batches(hello)

    state = report.state
    try:
        with _metrics_log(config) as metrics_fh:
            while True:
                try:
                    msg = reader.read()
                except Exception as exc:  # any failure ends the session, never the server
                    report.end = ("oversized" if isinstance(exc, OversizedFrame)
                                  else "vanished" if reader.eof or isinstance(exc, TransportClosed)
                                  else "undecodable")
                    log.error("session reset (%s): %s", report.end, exc, exc_info=exc)
                    break
                if msg is None:
                    log.warning("peer vanished without Bye")
                    report.end = "vanished"
                    break
                if isinstance(msg, Bye):
                    report.end = "bye"
                    break
                if isinstance(msg, CheckpointRequest):
                    transport.send(encode(CheckpointData(data=_checkpoint_bytes(state))))
                    continue
                if isinstance(msg, ActBatch):
                    reason = _take_batch(config, msg, report, metrics_fh)
                    if hello.sync:
                        # one answer per batch, so a serial device never waits it out
                        text = report.metrics[-1].to_json() if reason is None else json.dumps(
                            {"batch_id": msg.batch_id, "rejected": reason})
                        transport.send(encode(MetricsSnapshot(text=text)))
                    del msg  # its frame goes before the next one arrives
                    continue
                log.warning("ignoring unexpected %s", type(msg).__name__)
    finally:
        _save_checkpoint(config, state)
    return report


def local_mode(device_config: DeviceConfig, server_config: ServerConfig) -> ServerReport:
    """Single-process baseline: the device's frames, the server's steps,
    no transport in between.

    Each frame is decoded against the session's Hello, as the server's
    reader decodes it, so with matching seeds the loss trajectory, the
    refused batches and the checkpoint are those of a split run.
    """
    hello = device_config.hello()
    status = _validate_hello(server_config, hello)
    if status != ACK_OK:
        raise ValueError(f"the server would refuse this device: {ACK_REASONS[status]}")
    weights = load_device_backbone(device_config)
    report = ServerReport(state=_make_state(server_config, hello,
                                            server_config.initial_params()))
    ws = ForwardWorkspace(device_config.backbone, hello.batch_size, hello.seq_len)
    frame = BatchFrame.for_session(hello)
    try:
        with _metrics_log(server_config) as metrics_fh:
            for i in range(device_config.total_iterations):
                compute_batch(weights, device_config, i, ws, frame)
                batch, _ = try_decode(encode(frame), hello.batch_payload(), hello)
                _take_batch(server_config, batch, report, metrics_fh)
    finally:
        _save_checkpoint(server_config, report.state)
    return report
