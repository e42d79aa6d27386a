"""The device side: forward-only backbone runs feeding a one-way uplink.

A session is one loop on the calling thread: compute batch `i` into
frame i mod 2 of the session's two (:func:`compute_batch`), hand it to a
single sender thread, which finishes and sends the frames in order, and
only then wait for batch i - 1's send, whose frame batch i + 1 is
computed into. That wait is the backpressure when the uplink is the
bottleneck: a stalled link holds two computed batches, one sending and
one waiting. A serial run waits for each batch's send and the server's
answer before it computes the next: the baseline the overlap is
measured against.

The device never touches gradients or optimizer state -- this module
deliberately has no import path into the backward/optimizer code. The
uplink carries the backbone's config, each batch's quantized taps and
its labels in clear, never the tokens. That hides the tokens only from a
server that does not know the backbone: on the benchmark's nf4
workloads, the embedding tap less its position embedding lies nearest
its own token's embedding for every token of a batch.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from io import BytesIO

import numpy as np

from .backbone import (
    BackboneConfig,
    BackboneWeights,
    ForwardWorkspace,
    forward_collect,
    init_backbone,
    load_backbone,
)
from .quantize import SCHEMES, quantize
from .sidenet import load_side
from .transport import TransportClosed
from .wire import (
    ACK_OK,
    ACK_REASONS,
    BatchFrame,
    Bye,
    CheckpointData,
    CheckpointRequest,
    HandshakeError,
    Hello,
    MessageReader,
    MetricsSnapshot,
    ProtocolError,
    SessionAck,
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
        if self.seq_len < 1 or self.vocab_size < 1:
            raise ValueError(f"sequence length {self.seq_len} and vocabulary size "
                             f"{self.vocab_size} must be at least 1")
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
    queue_depth: int = 4  # unused: two frames take turns; the benchmark passes it
    serial: bool = False  # wait for a per-iteration server ack (no overlap)
    fetch_checkpoint: bool = False
    log_path: str | None = None
    timeout_s: float = 10.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.timeout_s < np.inf:
            raise ValueError(f"timeout {self.timeout_s} s must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.samples_per_epoch < 1:
            raise ValueError("samples per epoch must be at least 1")
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

    def hello(self) -> Hello:
        """The Hello this device opens its session with."""
        return Hello(backbone=self.backbone, scheme=self.scheme, batch_size=self.batch_size,
                     seq_len=self.task.seq_len, sync=self.serial)


@dataclass
class DeviceReport:
    wall_s: float = 0.0
    bytes_sent: int = 0
    max_queued_bytes: int = 0  # a frame, once a batch waited for the send before it
    entries: list = field(default_factory=list)  # one timing dict per sent batch
    fetched_checkpoint: object = None  # (SideConfig, SideNetworkParams)
    aborted: bool = False

    @property
    def iterations(self) -> int:
        return len(self.entries)


def load_device_backbone(config: DeviceConfig) -> BackboneWeights:
    if config.backbone_path:
        return load_backbone(config.backbone_path, config.backbone)
    return init_backbone(config.backbone, config.backbone_seed)


def compute_batch(weights, config, i, ws: ForwardWorkspace, frame: BatchFrame) -> dict:
    """Batch `i` as the device sends it, written into `frame`, one of the
    session's (:meth:`BatchFrame.for_session`): sample, frozen forward,
    quantize every tap into its slot, so no byte of the frame's last
    batch is left. Returns the timing dict; :func:`encode` finishes the
    frame. Local mode calls this too.

    The forward runs in the session's one :class:`ForwardWorkspace` and
    emits each tap, read-only, right after the layer that makes it.
    :func:`quantize` writes its codes straight into the tap's slot,
    working in chunks of ``ws.wide[0]``, which no layer holds while a tap
    is emitted; so a batch allocates less than a frame. t_quant_ms sums
    the quantize calls, t_fwd_ms the rest."""
    t0 = time.perf_counter()
    tokens, labels = make_batch(config.task, i, config.batch_size)
    frame.set_batch(i, labels)
    quant_s = []

    def emit(_, act):
        t = time.perf_counter()
        k = len(quant_s)
        frame.put_scale(k, quantize(act, config.scheme, scratch=ws.wide[0],
                                    out=frame.codes(k)).scale)
        quant_s.append(time.perf_counter() - t)

    forward_collect(weights, tokens, ws, emit)
    t_fwd = time.perf_counter() - t0 - sum(quant_s)
    return {"iter": i, "t_fwd_ms": t_fwd * 1e3, "t_quant_ms": sum(quant_s) * 1e3}


def _do_handshake(config: DeviceConfig, transport, reader: MessageReader) -> None:
    transport.send(encode(config.hello()))
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
    report = DeviceReport()

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
    """Compute every batch on this thread into the session's two frames in
    turn; one sender thread finishes and sends them in order. Batch i is
    handed off before the loop waits for batch i - 1's send, so the link
    never waits for a hand-off. A batch is recorded in `report` once its
    send is collected, so a failed send ends the run at the next batch.

    A serial run waits for each batch's send and for the server's one
    snapshot before it computes the next; a batch the server did not
    train on is logged and its entry names the server's reason."""
    handed_off = 0  # batches given to the sender so far

    def send(frame, timing):
        depth = handed_off - frame.batch_id - 1  # batches waiting behind this one
        t0 = time.perf_counter()
        data = encode(frame)
        transport.send(data)
        timing.update(t_send_ms=(time.perf_counter() - t0) * 1e3, queue_depth=depth)
        return timing, len(data)

    def record(timing, nbytes):
        report.entries.append(timing)
        report.bytes_sent += nbytes

    ws = ForwardWorkspace(config.backbone, config.batch_size, config.task.seq_len)
    frames = [BatchFrame.for_session(config.hello()) for _ in range(2)]
    sender = ThreadPoolExecutor(max_workers=1, thread_name_prefix="device-send")
    last = None  # the send of the batch before
    try:
        for i in range(config.total_iterations):
            frame = frames[i % 2]
            timing = compute_batch(weights, config, i, ws, frame)
            handed_off = i + 1
            future = sender.submit(send, frame, timing)
            t0 = time.perf_counter()
            if last is not None:
                if not last.done():  # batch i waits for it, holding its frame
                    report.max_queued_bytes = len(frame.data)
                record(*last.result())  # batch i + 1 is computed into its frame
            timing["t_queue_ms"] = (time.perf_counter() - t0) * 1e3
            last = future
            if config.serial:
                record(*last.result())
                last = None
                snap = reader.read_expected(MetricsSnapshot, timeout=config.timeout_s)
                try:  # only a JSON object has .get
                    rejected = json.loads(snap.text).get("rejected")
                except (ValueError, AttributeError):
                    raise ProtocolError(f"metrics snapshot {snap.text[:40]!r} is not a JSON "
                                        "object") from None
                if rejected is not None:
                    log.warning("server did not train on batch %d: %s", i, rejected)
                    timing["rejected"] = rejected
        if last is not None:
            record(*last.result())
    finally:
        sender.shutdown(cancel_futures=True)
