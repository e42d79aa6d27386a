"""The device side: forward-only backbone runs feeding a one-way uplink.

A session is one loop on the calling thread: compute batch `i` (sample,
frozen forward, quantize the taps) and hand it to a single sender
thread, which encodes and sends the batches in order. At most
`queue_depth` handed-off batches wait behind the one being sent; past
that the loop waits for the oldest send, which is the backpressure when
the uplink is the bottleneck. A serial run waits for each batch's send
and the server's answer before it computes the next: the baseline the
overlap is measured against.

The device never touches gradients or optimizer state -- this module
deliberately has no import path into the backward/optimizer code -- and
raw tokens never enter any wire message.
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from io import BytesIO

import numpy as np

from .backbone import BackboneConfig, BackboneWeights, forward_collect, init_backbone, load_backbone
from .quantize import quantize
from .sidenet import load_side
from .transport import TransportClosed
from .wire import (
    ACK_OK,
    ACK_REASONS,
    ActBatch,
    Bye,
    CheckpointData,
    CheckpointRequest,
    HandshakeError,
    Hello,
    MessageReader,
    MetricsSnapshot,
    SessionAck,
    batch_bytes,
    encode,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SyntheticTask:
    """Label = 1 when even token ids outnumber odd ones.

    Uniform tokens make the two classes symmetric, and an odd sequence
    length rules out ties, so labels are balanced in expectation.
    """

    vocab_size: int = 16
    seq_len: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.seq_len % 2 == 0:
            raise ValueError("sequence length must be odd to avoid ties")


@dataclass(frozen=True)
class CsvTask:
    """Pre-tokenized rows: S token-id columns followed by a label column."""

    tokens: np.ndarray  # [N, S]
    labels: np.ndarray  # [N]
    seq_len: int
    vocab_size: int


def load_csv_task(path) -> CsvTask:
    rows = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    if rows.shape[1] < 2:
        raise ValueError("csv rows need at least one token and a label")
    tokens, labels = rows[:, :-1], rows[:, -1]
    if tokens.min() < 0:
        raise ValueError("negative token id in csv")
    if labels.min() < 0 or labels.max() >= 2**32:
        raise ValueError("csv label outside [0, 2^32)")
    return CsvTask(tokens=tokens, labels=labels, seq_len=tokens.shape[1],
                   vocab_size=int(tokens.max()) + 1)


def make_batch(task, batch_index: int, batch_size: int):
    """Deterministic batch for (task.seed, batch_index); returns
    (tokens [B, S], labels [B])."""
    if isinstance(task, CsvTask):
        n = len(task.labels)
        idx = (batch_index * batch_size + np.arange(batch_size)) % n
        return task.tokens[idx], task.labels[idx]
    rng = np.random.Generator(np.random.PCG64([task.seed, batch_index]))
    tokens = rng.integers(0, task.vocab_size, size=(batch_size, task.seq_len),
                          dtype=np.int64)
    even = (tokens % 2 == 0).sum(axis=1)
    labels = (2 * even > task.seq_len).astype(np.int64)
    return tokens, labels


@dataclass
class DeviceConfig:
    backbone: BackboneConfig
    task: SyntheticTask | CsvTask
    backbone_seed: int = 7
    backbone_path: str | None = None
    scheme: str = "none_fp16"
    batch_size: int = 16
    epochs: int = 1
    samples_per_epoch: int = 256
    iterations: int = 0  # nonzero overrides epochs * (samples // batch)
    queue_depth: int = 4
    serial: bool = False  # wait for a per-iteration server ack (no overlap)
    fetch_checkpoint: bool = False
    log_path: str | None = None
    timeout_s: float = 10.0

    def __post_init__(self):
        if self.queue_depth < 1:
            raise ValueError("queue depth must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.total_iterations < 1:
            raise ValueError("the run has no iterations: epochs or iterations must be positive")
        if self.task.seq_len > self.backbone.max_seq:
            raise ValueError("task sequence length exceeds backbone max_seq")
        if self.task.vocab_size > self.backbone.vocab_size:
            raise ValueError("task vocabulary exceeds backbone vocabulary")

    @property
    def total_iterations(self) -> int:
        if self.iterations:
            return self.iterations
        if isinstance(self.task, CsvTask):
            per_epoch = max(len(self.task.labels) // self.batch_size, 1)
        else:
            per_epoch = max(self.samples_per_epoch // self.batch_size, 1)
        return self.epochs * per_epoch


@dataclass
class DeviceReport:
    iterations: int
    wall_s: float
    bytes_sent: int
    max_queued_bytes: int
    entries: list = field(default_factory=list)
    fetched_checkpoint: object = None  # (SideConfig, SideNetworkParams)
    aborted: bool = False


def load_device_backbone(config: DeviceConfig) -> BackboneWeights:
    if config.backbone_path:
        return load_backbone(config.backbone_path, config.backbone)
    return init_backbone(config.backbone, config.backbone_seed)


def compute_batch(weights, config, i):
    """Batch `i` as the device sends it: sample, frozen forward, quantize
    every tap. Returns (ActBatch, timing dict). Local mode calls this too."""
    t0 = time.perf_counter()
    tokens, labels = make_batch(config.task, i, config.batch_size)
    taps = forward_collect(weights, tokens)
    t1 = time.perf_counter()
    qtaps = tuple(quantize(act, config.scheme) for _, act in taps)
    t2 = time.perf_counter()
    msg = ActBatch(batch_id=i, labels=tuple(int(v) for v in labels), taps=qtaps)
    timing = {"iter": i, "t_fwd_ms": (t1 - t0) * 1e3, "t_quant_ms": (t2 - t1) * 1e3}
    return msg, timing


def _do_handshake(config: DeviceConfig, transport, reader: MessageReader) -> None:
    hello = Hello(config_digest=config.backbone.digest(), scheme=config.scheme,
                  batch_size=config.batch_size, sync=config.serial)
    transport.send(encode(hello))
    ack = reader.read_expected(SessionAck, timeout=config.timeout_s)
    if ack.status != ACK_OK:
        raise HandshakeError(
            f"server rejected session: {ACK_REASONS.get(ack.status, ack.status)}"
        )


def request_checkpoint(transport, reader: MessageReader, timeout: float):
    """Fetch the server's current side-network parameters."""
    transport.send(encode(CheckpointRequest()))
    msg = reader.read_expected(CheckpointData, timeout=timeout)
    return load_side(BytesIO(msg.data))


def run_device(config: DeviceConfig, transport) -> DeviceReport:
    """Drive a full training session from the device end. The caller owns
    `transport` and closes it."""
    weights = load_device_backbone(config)
    reader = MessageReader(transport)
    report = DeviceReport(iterations=0, wall_s=0.0, bytes_sent=0, max_queued_bytes=0)

    try:
        _do_handshake(config, transport, reader)
        t_start = time.perf_counter()
        try:
            _run_batches(config, weights, transport, reader, report)
        except TransportClosed as exc:
            log.error("transport failed after %d iterations: %s", report.iterations, exc)
            report.aborted = True
        report.wall_s = time.perf_counter() - t_start
        if not report.aborted:
            if config.fetch_checkpoint:
                report.fetched_checkpoint = request_checkpoint(transport, reader, config.timeout_s)
            transport.send(encode(Bye()))
    finally:
        if config.log_path:
            with open(config.log_path, "w") as fh:
                for entry in report.entries:
                    fh.write(json.dumps(entry) + "\n")
    return report


def _run_batches(config, weights, transport, reader, report) -> None:
    """Compute every batch on this thread; one sender thread encodes and
    sends them in order. A batch is recorded in `report` once its send is
    collected, so a failed send ends the run at the next batch.

    A serial run waits for each batch's send and for the server's one
    snapshot before it computes the next; a batch the server did not
    train on is logged and its entry names the server's reason."""
    pending = deque()  # send futures, oldest first
    handed_off = 0  # batches given to the sender so far
    size = batch_bytes((config.batch_size, config.task.seq_len, config.backbone.hidden),
                       config.scheme, config.backbone.gamma)  # wire bytes a queued batch holds

    def send(msg, timing):
        depth = handed_off - msg.batch_id - 1  # batches waiting behind this one
        t0 = time.perf_counter()
        data = encode(msg)
        transport.send(data)
        timing.update(t_send_ms=(time.perf_counter() - t0) * 1e3, queue_depth=depth)
        return timing, len(data)

    def record(timing, nbytes):
        report.entries.append(timing)
        report.bytes_sent += nbytes
        report.iterations += 1

    sender = ThreadPoolExecutor(max_workers=1, thread_name_prefix="device-send")
    try:
        for i in range(config.total_iterations):
            msg, timing = compute_batch(weights, config, i)
            t0 = time.perf_counter()
            # collect finished sends; wait while more than queue_depth are outstanding
            while pending and (pending[0].done() or len(pending) > config.queue_depth):
                record(*pending.popleft().result())
            t1 = time.perf_counter()
            timing["t_queue_ms"] = (t1 - t0) * 1e3
            handed_off = i + 1
            future = sender.submit(send, msg, timing)
            if config.serial:
                _, nbytes = future.result()
                snap = reader.read_expected(MetricsSnapshot, timeout=config.timeout_s)
                timing["t_send_ms"] = (time.perf_counter() - t1) * 1e3
                rejected = json.loads(snap.text).get("rejected")
                if rejected is not None:
                    log.warning("server did not train on batch %d: %s", i, rejected)
                    timing["rejected"] = rejected
                record(timing, nbytes)
                continue
            pending.append(future)
            queued = size * sum(not (f.running() or f.done()) for f in pending)
            report.max_queued_bytes = max(report.max_queued_bytes, queued)
        while pending:
            record(*pending.popleft().result())
    finally:
        sender.shutdown(cancel_futures=True)
