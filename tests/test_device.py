"""The device's run loop: a stalled uplink holds back the forward at two
computed batches, a steady batch allocates less than a frame, a failed
send or a failed forward ends the run at once without a Bye, and every
entry of the per-batch log carries the same timing keys in serial and
pipelined runs. Also the pre-tokenized csv task, which the device
samples batches from, and the device's reader of the server's frames,
fuzzed with a fixed seed: each read gives the message a reference
reading of the same bytes predicts, or the same wire error or timeout."""

import dataclasses
import json
import random
import struct
import threading
import time
import tracemalloc
import zlib
from collections import Counter

import numpy as np
import pytest

from sidetune import (
    BackboneConfig,
    DeviceConfig,
    ServerConfig,
    SyntheticTask,
    backbone,
    device,
    load_csv_task,
    run_device,
    run_server,
    server,
)
from sidetune.cli import main
from sidetune.transport import TransportClosed, loopback_pair
from sidetune.wire import (
    HEADER_LEN,
    T_ACT_BATCH,
    T_BYE,
    BatchFrame,
    CheckpointData,
    DesyncError,
    FrameError,
    MessageReader,
    MetricsSnapshot,
    ProtocolError,
    SessionAck,
    batch_frame_bytes,
    encode,
    try_decode,
)

BACKBONE = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                          block_cuts=(1, 2, 3, 4))
BATCH, SEQ = 8, 15
WITHIN_S = 10.0
ENTRY_KEYS = {"iter", "t_fwd_ms", "t_quant_ms", "t_queue_ms", "t_send_ms", "queue_depth"}


def device_config(**overrides):
    return DeviceConfig(backbone=BACKBONE, task=SyntheticTask(seq_len=SEQ, seed=3), scheme="nf4",
                        batch_size=BATCH, timeout_s=WITHIN_S, **overrides)


class Uplink:
    """The device end of a loopback link whose batch sends can be held
    until `open` is set, or fail from the `fail_from`-th batch on. Like
    every transport, a send has copied its data when it returns: the
    loopback end copies it."""

    def __init__(self, inner, fail_from=None):
        self.inner = inner
        self.fail_from = fail_from
        self.open = threading.Event()
        self.open.set()
        self.batches = 0
        self.sent_types = []  # msg_type of every frame that went out

    def send(self, data):
        msg_type = data[6]  # after the 4-byte magic and the u16 frame version
        if msg_type == T_ACT_BATCH:
            self.batches += 1
            if self.fail_from is not None and self.batches >= self.fail_from:
                raise TransportClosed("uplink lost")
            self.open.wait(WITHIN_S)
        self.sent_types.append(msg_type)
        self.inner.send(data)

    def recv(self, timeout=None):
        return self.inner.recv(timeout)

    def close(self):
        self.inner.close()


class Session:
    """A server thread on one end of a loopback link; `uplink` is the other."""

    def __init__(self, **uplink_args):
        dev_end, self._srv_end = loopback_pair()
        self.uplink = Uplink(dev_end, **uplink_args)
        self._out = {}
        self._thread = threading.Thread(target=lambda: self._out.update(
            report=run_server(ServerConfig(backbone=BACKBONE), self._srv_end)), daemon=True)
        self._thread.start()

    def server_report(self):
        """Hang up the device end and return the server's report."""
        self.uplink.close()
        self._thread.join(timeout=WITHIN_S)
        assert not self._thread.is_alive(), "run_server did not return"
        self._srv_end.close()
        return self._out["report"]


def count_computed(monkeypatch):
    computed = []
    inner = device.compute_batch

    def counted(weights, config, i, *rest):
        result = inner(weights, config, i, *rest)
        computed.append(i)
        return result

    monkeypatch.setattr(device, "compute_batch", counted)
    return computed


@pytest.mark.parametrize("depth", [1, 3])
def test_a_stalled_uplink_holds_the_forward_at_two_batches(monkeypatch, depth):
    # one batch in the send, and the next computed into the other frame,
    # waiting for it; the unused queue_depth changes nothing
    computed = count_computed(monkeypatch)
    session = Session()
    session.uplink.open.clear()
    config = device_config(iterations=6, queue_depth=depth)
    out = {}
    runner = threading.Thread(target=lambda: out.update(report=run_device(config, session.uplink)),
                              daemon=True)
    runner.start()
    deadline = time.monotonic() + WITHIN_S
    while len(computed) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.3)  # room to run further if nothing held it back
    assert len(computed) == 2
    session.uplink.open.set()
    runner.join(timeout=WITHIN_S)
    assert not runner.is_alive(), "run_device did not return"
    report = out["report"]
    assert not report.aborted and report.iterations == config.total_iterations
    one_batch = batch_frame_bytes((BATCH, SEQ, BACKBONE.hidden), "nf4", BACKBONE.gamma)
    assert report.max_queued_bytes == one_batch
    assert session.server_report().clean_shutdown


@pytest.mark.parametrize("k", [1, 3])
def test_a_failed_send_aborts_the_run_at_once_without_a_bye(k):
    session = Session(fail_from=k)
    t0 = time.monotonic()
    report = run_device(device_config(iterations=8), session.uplink)
    assert time.monotonic() - t0 < 1.0
    assert report.aborted
    assert report.iterations == len(report.entries) == k - 1
    assert T_BYE not in session.uplink.sent_types
    server_report = session.server_report()
    assert not server_report.clean_shutdown and server_report.end == "vanished"
    assert server_report.iterations == k - 1


def test_a_failed_forward_leaves_run_device_and_still_writes_the_log(tmp_path, monkeypatch):
    inner = device.compute_batch

    def failing(weights, config, i, *rest):
        if i == 3:
            raise ValueError("the forward failed")
        return inner(weights, config, i, *rest)

    monkeypatch.setattr(device, "compute_batch", failing)
    log_path = tmp_path / "device.jsonl"
    session = Session()
    with pytest.raises(ValueError, match="the forward failed"):
        run_device(device_config(iterations=6, log_path=str(log_path)), session.uplink)
    entries = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert all(e["iter"] < 3 for e in entries)
    assert T_BYE not in session.uplink.sent_types
    assert session.server_report().end == "vanished"


@pytest.mark.parametrize("serial", [False, True], ids=["pipelined", "serial"])
def test_every_entry_carries_the_timing_keys(serial):
    session = Session()
    report = run_device(device_config(iterations=4, serial=serial), session.uplink)
    assert [e["iter"] for e in report.entries] == [0, 1, 2, 3]
    assert all(e.keys() == ENTRY_KEYS for e in report.entries)
    if serial:
        assert all(e["queue_depth"] == 0 for e in report.entries)
        assert report.max_queued_bytes == 0
    assert session.server_report().clean_shutdown


def test_a_serial_entry_times_the_send_alone(monkeypatch):
    inner = server.train_iteration

    def slow_step(state, batch):
        time.sleep(0.2)
        return inner(state, batch)

    monkeypatch.setattr(server, "train_iteration", slow_step)
    session = Session()
    report = run_device(device_config(iterations=3, serial=True), session.uplink)
    assert all(e["t_send_ms"] < 100 for e in report.entries), report.entries
    assert session.server_report().iterations == 3


@pytest.mark.parametrize("fields, message", [
    ({"scheme": "bogus"}, "scheme"),
    ({"batch_size": 0}, "batch size"),
    ({"iterations": 0, "epochs": 0}, "no iterations"),
    ({"task": {"seq_len": BACKBONE.max_seq + 1}}, "max_seq"),
    ({"task": {"vocab_size": BACKBONE.vocab_size + 1}}, "task vocabulary"),
    ({"task": {"seq_len": -1}}, "sequence length -1 and"),
    ({"task": {"vocab_size": 0}}, "vocabulary size 0 must"),
    ({"samples_per_epoch": 0}, "samples per epoch"),
    ({"timeout_s": 0}, "timeout 0 s must be positive"),
    ({"backbone": {"hidden": 0}}, "hidden 0"),
    ({"backbone": {"vocab_size": 0}}, "vocab_size 0"),
    ({"backbone": {"max_seq": 0}}, "max_seq 0"),
    ({"backbone": {"tap_embedding": False}}, "tap_embedding False"),
], ids=["scheme", "batch_size", "no_iterations", "seq_len", "vocab_size",
        "seq_len_not_positive", "vocab_size_not_positive", "samples_per_epoch_0", "timeout_0",
        "backbone_hidden_0", "backbone_vocab_size_0", "backbone_max_seq_0",
        "backbone_tap_embedding_false"])
def test_a_device_config_that_cannot_run_is_refused_when_built(fields, message):
    fields = dict(fields)
    with pytest.raises(ValueError, match=message):
        task = SyntheticTask(**{"seq_len": SEQ, **fields.pop("task", {})})
        backbone = dataclasses.replace(BACKBONE, **fields.pop("backbone", {}))
        DeviceConfig(backbone=backbone, task=task, **fields)


def write_csv(path, rows):
    path.write_text("".join(",".join(str(v) for v in row) + "\n" for row in rows))
    return path


def test_a_csv_task_takes_its_shape_from_the_file(tmp_path):
    path = write_csv(tmp_path / "task.csv", [(3, 0, 11, 1), (5, 7, 2, 0), (1, 1, 1, 1)])
    task = load_csv_task(path)
    assert task.seq_len == 3
    assert task.vocab_size == 12
    assert task.tokens.tolist() == [[3, 0, 11], [5, 7, 2], [1, 1, 1]]
    assert task.labels.tolist() == [1, 0, 1]


@pytest.mark.parametrize("rows, batch", [(5, 2), (3, 4)], ids=["batch_short_of_rows",
                                                                "batch_past_rows"])
def test_a_csv_task_wraps_its_rows_into_batches(rows, batch):
    task = device.CsvTask(tokens=np.tile(np.arange(rows)[:, None], 2), labels=np.arange(rows) % 2,
                          seq_len=2, vocab_size=rows)
    for i in range(4):
        tokens, labels = device.make_batch(task, i, batch)
        idx = (i * batch + np.arange(batch)) % rows
        assert tokens[:, 0].tolist() == idx.tolist() and labels.tolist() == (idx % 2).tolist()
    config = DeviceConfig(backbone=BACKBONE, task=task, batch_size=batch, epochs=3)
    assert config.total_iterations == 3 * max(rows // batch, 1)  # 6 and 3


@pytest.mark.parametrize("rows, message", [
    ([(1,), (0,)], "at least one token and a label"),
    ([(1, -2, 0), (0, 1, 1)], "negative token id"),
    ([(1, 2, -1), (0, 1, 1)], "label outside"),
    ([(1, 2, 2**32), (0, 1, 1)], "label outside"),
], ids=["single_column", "negative_token", "negative_label", "label_past_u32"])
def test_a_malformed_csv_task_is_rejected(tmp_path, rows, message):
    with pytest.raises(ValueError, match=message):
        load_csv_task(write_csv(tmp_path / "task.csv", rows))


def test_local_trains_on_a_csv_task(tmp_path, capsys):
    rows = [tuple((3 * r + c) % 16 for c in range(7)) + (r % 2,) for r in range(8)]
    path = write_csv(tmp_path / "task.csv", rows)
    flags = ["--hidden", "16", "--layers", "2", "--heads", "2", "--cuts", "uniform:2",
             "--bottleneck", "8", "--batch", "4"]
    assert main(["local", *flags, "--task", f"csv:{path}", "--iters", "2"]) == 0
    assert "local run: 2 iterations" in capsys.readouterr().out


@pytest.mark.parametrize("seq", [255, 63], ids=["long_seq", "slow_uplink"])
def test_a_steady_batch_allocates_less_than_a_frame(seq):
    # the benchmark's model and batch at each of its two sequence lengths
    model = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=255,
                           block_cuts=(1, 2, 3, 4))
    config = DeviceConfig(backbone=model, task=SyntheticTask(seq_len=seq), scheme="nf4",
                          batch_size=16, iterations=4)
    weights = device.load_device_backbone(config)
    ws = backbone.ForwardWorkspace(model, 16, seq)
    frames = [BatchFrame.for_session(config.hello()) for _ in range(2)]
    for i in range(2):  # warm up both frames outside the trace
        device.compute_batch(weights, config, i, ws, frames[i])
        encode(frames[i])
    tracemalloc.start()
    try:
        device.compute_batch(weights, config, 2, ws, frames[0])
        data = encode(frames[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == {255: 326_514, 63: 80_754}[seq]  # the benchmark's frames
    # the batch goes into a frame of the session's; what it allocates, 86,769
    # / 62,177 B measured, is mostly its tokens and numpy's buffers for one
    # elementwise pass. A batch that built its own frame also allocated that
    # frame; and since the forward divides each attention tile's context in
    # groups of sequences, numpy's buffers for that pass are half their
    # 96 KiB, which was past slow_uplink's frame
    assert peak < len(data)


@pytest.mark.parametrize("text", ["[]", "not json"], ids=["json_list", "not_json"])
def test_a_serial_answer_that_is_not_a_json_object_is_a_protocol_error(text):
    # a server that acks the session, then answers the batch with `text`
    dev_end, srv_end = loopback_pair()
    srv_end.send(encode(SessionAck()) + encode(MetricsSnapshot(text=text)))
    try:
        with pytest.raises(ProtocolError, match="not a JSON object"):
            run_device(device_config(iterations=1, serial=True), dev_end)
    finally:
        dev_end.close()
        srv_end.close()


READER_SEED = 2029
READER_SESSIONS = 150
SERVER_MESSAGES = (SessionAck, MetricsSnapshot, CheckpointData)
WIRE_ERRORS = (DesyncError, FrameError, ProtocolError, TimeoutError)


def server_message(rng, msg_type):
    if msg_type is SessionAck:
        return SessionAck(status=rng.randrange(4))
    if msg_type is MetricsSnapshot:
        return MetricsSnapshot(text=json.dumps({"iter": rng.randrange(100), "loss": rng.random()}))
    return CheckpointData(data=rng.randbytes(rng.randrange(2048)))


def server_frame(rng, msg_type):
    """A frame the device waits for as a `msg_type`: now and then one of
    another type, with flipped bits (its crc recomputed or not) or cut."""
    if rng.random() < 0.1:
        msg_type = rng.choice([t for t in SERVER_MESSAGES if t is not msg_type])
    data = bytearray(encode(server_message(rng, msg_type)))
    roll = rng.random()
    if roll < 0.15:
        for _ in range(rng.randint(1, 3)):
            bit = rng.randrange(8 * len(data))
            data[bit // 8] ^= 1 << bit % 8
    elif roll < 0.25 and len(data) > HEADER_LEN + 4:
        payload = memoryview(data)[HEADER_LEN:-4]
        bit = rng.randrange(8 * len(payload))
        payload[bit // 8] ^= 1 << bit % 8
        struct.pack_into("<I", data, len(data) - 4, zlib.crc32(payload))
        del payload
    elif roll < 0.3:
        del data[rng.randrange(len(data)):]
    return bytes(data)


def reference_reads(stream, expected, closed):
    """What a device's reader meeting `stream` gives for each type in
    `expected`: the message, or the class of the error that ends it."""
    view, out = memoryview(stream), []
    for msg_type in expected:
        try:
            result = try_decode(view)
        except (DesyncError, FrameError, ProtocolError) as exc:
            return out + [type(exc)]
        if result is None:
            # a cut frame before the close, the close itself, or a wait that times out
            return out + [(FrameError if len(view) else ProtocolError) if closed else TimeoutError]
        msg, used = result
        if not isinstance(msg, msg_type):
            return out + [ProtocolError]
        out.append(msg)
        view = view[used:]
    return out


def test_fuzzed_server_frames_read_as_expected_or_raise_a_wire_error():
    rng = random.Random(READER_SEED)
    outcomes = Counter()
    t0 = time.monotonic()
    for _ in range(READER_SESSIONS):
        expected = [rng.choice(SERVER_MESSAGES) for _ in range(rng.randint(1, 5))]
        stream = b"".join(server_frame(rng, t) for t in expected)
        closed = rng.random() < 0.75  # else the server neither answers nor hangs up
        timeout = WITHIN_S if closed else 0.1
        dev_end, srv_end = loopback_pair()
        at = 0
        while at < len(stream):  # in chunks of 1 B up to the whole stream
            step = rng.randint(1, len(stream))
            srv_end.send(stream[at:at + step])
            at += step
        if closed:
            srv_end.close()
        reader, got = MessageReader(dev_end), []
        try:
            for msg_type in expected:
                got.append(reader.read_expected(msg_type, timeout=timeout))
        except WIRE_ERRORS as exc:
            got.append(type(exc))
        finally:
            dev_end.close()
            srv_end.close()
        assert got == reference_reads(stream, expected, closed)
        outcomes.update(g if isinstance(g, type) else type(g) for g in got)
    assert time.monotonic() - t0 < WITHIN_S
    # with this seed the reads reach every message and every way to fail
    assert set(outcomes) == {*SERVER_MESSAGES, *WIRE_ERRORS}, outcomes
