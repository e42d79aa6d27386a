"""The server side: accept one session, train the side-network, serve
checkpoints; and local mode, the single-process baseline.

A session is one loop on the calling thread: read the next message, act
on it. Messages are handled strictly in arrival order, so optimizer
state needs no locking and checkpoint requests are always served at an
iteration boundary. While a step runs, the transport's own buffer holds
the frames that arrive, and the device keeps computing. A batch that
arrives intact but does not fit the session (:func:`validate_batch`) is
dropped and counted by reason; the session goes on. In a sync session
(``Hello.sync``) every batch gets exactly one :class:`MetricsSnapshot`:
the step's metrics, or the reason the batch was rejected or dropped. A
Hello that is malformed, missing or late ends the session before it
starts, with no checkpoint. After it, a frame longer than the session's
largest batch ends the session at once.

Local mode builds each batch with the device's own
:func:`sidetune.device.compute_batch` and trains it through the same
step-recording helper as a split session, so the two share every line
that computes a loss.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from io import BytesIO

import numpy as np

from .backbone import BackboneConfig
from .device import DeviceConfig, compute_batch, load_device_backbone
from .sidenet import SideConfig, init_side, save_side
from .training import DEFAULT_LR, TrainState, init_adam, train_iteration
from .wire import (
    ACK_BAD_DIGEST,
    ACK_BAD_VERSION,
    ACK_OK,
    ActBatch,
    Bye,
    CheckpointData,
    CheckpointRequest,
    Hello,
    MessageReader,
    MetricsSnapshot,
    PROTOCOL_VERSION,
    SessionAck,
    encode,
)

log = logging.getLogger(__name__)


@dataclass
class ServerConfig:
    backbone: BackboneConfig  # expected frozen-model identity
    bottleneck: int = 16
    classes: int = 2
    nonlinearity: str = "gelu"
    init_std: float = 0.02
    side_seed: int = 1
    lr: float = DEFAULT_LR
    loss_kind: str = "cross_entropy"
    queue_depth: int = 4  # unused: the session reads straight from the transport
    checkpoint_path: str | None = None
    metrics_path: str | None = None
    timeout_s: float = 10.0

    def side_config(self) -> SideConfig:
        return SideConfig(
            hidden=self.backbone.hidden,
            bottleneck=self.bottleneck,
            adapters=self.backbone.num_blocks,
            classes=self.classes,
            nonlinearity=self.nonlinearity,
            init_std=self.init_std,
        )


@dataclass
class ServerReport:
    iterations: int = 0
    dropped: int = 0  # out of order
    invalid: Counter = field(default_factory=Counter)  # rejected batches by reason
    losses: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    rejected: int | None = None  # ack status when the handshake failed
    clean_shutdown: bool = False
    state: TrainState | None = None


def _make_state(config: ServerConfig) -> TrainState:
    side_cfg = config.side_config()
    params = init_side(side_cfg, config.side_seed)
    return TrainState(config=side_cfg, params=params, adam=init_adam(params, lr=config.lr),
                      loss_kind=config.loss_kind)


def _validate_hello(config: ServerConfig, hello: Hello) -> int:
    if hello.protocol_version != PROTOCOL_VERSION:
        return ACK_BAD_VERSION
    if hello.config_digest != config.backbone.digest():
        return ACK_BAD_DIGEST
    return ACK_OK


def validate_batch(config: ServerConfig, hello: Hello, batch: ActBatch) -> str | None:
    """Why `batch` does not fit the session, or None when it does.

    The reasons, checked in this order:

    - "scheme": a tap quantized under another scheme than the Hello's;
    - "taps": not one tap per configured tap block;
    - "shape": a tap that is not [B, S, hidden] with the Hello's B >= 1,
      S >= 1 and the first tap's S;
    - "label_count": a label count other than B;
    - "label_range": a class label outside [0, classes), under cross
      entropy;
    - "non_finite": a tap whose scale, or whose fp16 codes, hold a NaN or
      an infinity.
    """
    if any(q.scheme != hello.scheme for q in batch.taps):
        return "scheme"
    if len(batch.taps) != config.backbone.gamma:
        return "taps"
    b, s, h = batch.taps[0].shape
    if b != hello.batch_size or min(b, s) < 1 or h != config.backbone.hidden or any(
            q.shape != (b, s, h) for q in batch.taps):
        return "shape"
    if len(batch.labels) != b:
        return "label_count"
    if config.loss_kind == "cross_entropy" and not all(
            0 <= y < config.classes for y in batch.labels):
        return "label_range"
    if any(not np.isfinite(q.scale) or q.scheme == "none_fp16" and not np.isfinite(
            np.frombuffer(q.codes, dtype=np.float16)).all() for q in batch.taps):
        return "non_finite"
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


def _train_and_record(state: TrainState, batch: ActBatch, report, metrics_fh):
    """One training step, recorded in `report` and the metrics log; None
    when the batch was dropped as out of order."""
    metrics = train_iteration(state, batch)
    if metrics is not None:
        report.iterations += 1
        report.losses.append(metrics.loss)
        report.metrics.append(metrics)
        if metrics_fh:
            metrics_fh.write(metrics.to_json() + "\n")
    return metrics


def run_server(config: ServerConfig, transport) -> ServerReport:
    """Serve exactly one training session; returns once the device says
    Bye, the connection dies or the handshake fails. The caller owns
    `transport` and closes it."""
    report = ServerReport()
    reader = MessageReader(transport)
    try:
        hello = reader.read_expected(Hello, timeout=config.timeout_s)
    except Exception as exc:  # a malformed, missing or late Hello ends the session
        log.error("handshake failed: %s", exc, exc_info=exc)
        return report
    status = _validate_hello(config, hello)
    transport.send(encode(SessionAck(status=status)))
    if status != ACK_OK:
        report.rejected = status
        return report
    reader.limit_to_batches((hello.batch_size, config.backbone.max_seq, config.backbone.hidden),
                            hello.scheme, config.backbone.gamma)

    state = _make_state(config)
    report.state = state
    try:
        with _metrics_log(config) as metrics_fh:
            while True:
                try:
                    msg = reader.read()
                except Exception as exc:  # any failure ends the session, never the server
                    log.error("session reset: %s", exc, exc_info=exc)
                    break
                if msg is None:
                    log.warning("peer vanished without Bye")
                    break
                if isinstance(msg, Bye):
                    report.clean_shutdown = True
                    break
                if isinstance(msg, CheckpointRequest):
                    transport.send(encode(CheckpointData(data=_checkpoint_bytes(state))))
                    continue
                if isinstance(msg, ActBatch):
                    metrics = None
                    reason = validate_batch(config, hello, msg)
                    if reason is not None:
                        report.invalid[reason] += 1
                        log.warning("rejecting batch %d: %s", msg.batch_id, reason)
                    else:
                        metrics = _train_and_record(state, msg, report, metrics_fh)
                    if hello.sync:
                        # one answer per batch, so a serial device never waits it out
                        text = metrics.to_json() if metrics is not None else json.dumps(
                            {"batch_id": msg.batch_id, "rejected": reason or "out_of_order"})
                        transport.send(encode(MetricsSnapshot(text=text)))
                    continue
                log.warning("ignoring unexpected %s", type(msg).__name__)
    finally:
        report.dropped = state.dropped
        _save_checkpoint(config, state)
    return report


def local_mode(device_config: DeviceConfig, server_config: ServerConfig) -> ServerReport:
    """Single-process baseline: the device's batches, the server's steps,
    no wire in between.

    Quantize/dequantize still runs (it is part of the model, not the
    transport), so with matching seeds the loss trajectory and the
    checkpoint are bit-equal to a split run's.
    """
    if device_config.backbone != server_config.backbone:
        raise ValueError("device and server disagree on the backbone config")
    weights = load_device_backbone(device_config)
    state = _make_state(server_config)
    report = ServerReport(state=state)
    with _metrics_log(server_config) as metrics_fh:
        for i in range(device_config.total_iterations):
            batch, _ = compute_batch(weights, device_config, i)
            _train_and_record(state, batch, report, metrics_fh)
    _save_checkpoint(server_config, state)
    return report
