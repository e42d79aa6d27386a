"""The device's run loop: a stalled uplink holds back the forward after a
bounded number of batches, a failed send or a failed forward ends the
run at once without a Bye, and every entry of the per-batch log carries
the same timing keys in serial and pipelined runs. Also the pre-tokenized
csv task, which the device samples batches from."""

import json
import threading
import time

import pytest

from sidetune import (
    BackboneConfig,
    DeviceConfig,
    ServerConfig,
    SyntheticTask,
    device,
    load_csv_task,
    run_device,
    run_server,
)
from sidetune.cli import main
from sidetune.transport import TransportClosed, loopback_pair
from sidetune.wire import T_ACT_BATCH, T_BYE, batch_bytes

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
    until `open` is set, or fail from the `fail_from`-th batch on."""

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

    def counted(weights, config, i):
        result = inner(weights, config, i)
        computed.append(i)
        return result

    monkeypatch.setattr(device, "compute_batch", counted)
    return computed


@pytest.mark.parametrize("depth", [1, 3])
def test_a_stalled_uplink_holds_the_forward_at_queue_depth_plus_two(monkeypatch, depth):
    # one batch in the send, `depth` waiting behind it, one computed and held
    computed = count_computed(monkeypatch)
    session = Session()
    session.uplink.open.clear()
    config = device_config(iterations=depth + 6, queue_depth=depth)
    out = {}
    runner = threading.Thread(target=lambda: out.update(report=run_device(config, session.uplink)),
                              daemon=True)
    runner.start()
    deadline = time.monotonic() + WITHIN_S
    while len(computed) < depth + 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.3)  # room to run further if nothing held it back
    assert len(computed) == depth + 2
    session.uplink.open.set()
    runner.join(timeout=WITHIN_S)
    assert not runner.is_alive(), "run_device did not return"
    report = out["report"]
    assert not report.aborted and report.iterations == config.total_iterations
    one_batch = batch_bytes((BATCH, SEQ, BACKBONE.hidden), "nf4", BACKBONE.gamma)
    assert depth * one_batch <= report.max_queued_bytes <= (depth + 1) * one_batch
    assert session.server_report().clean_shutdown


@pytest.mark.parametrize("k", [1, 3])
def test_a_failed_send_aborts_the_run_at_once_without_a_bye(k):
    session = Session(fail_from=k)
    t0 = time.monotonic()
    report = run_device(device_config(iterations=8, queue_depth=2), session.uplink)
    assert time.monotonic() - t0 < 1.0
    assert report.aborted
    assert report.iterations == len(report.entries) == k - 1
    assert T_BYE not in session.uplink.sent_types
    server_report = session.server_report()
    assert not server_report.clean_shutdown
    assert server_report.iterations == k - 1


def test_a_failed_forward_leaves_run_device_and_still_writes_the_log(tmp_path, monkeypatch):
    inner = device.compute_batch

    def failing(weights, config, i):
        if i == 3:
            raise ValueError("the forward failed")
        return inner(weights, config, i)

    monkeypatch.setattr(device, "compute_batch", failing)
    log_path = tmp_path / "device.jsonl"
    session = Session()
    with pytest.raises(ValueError, match="the forward failed"):
        run_device(device_config(iterations=6, log_path=str(log_path)), session.uplink)
    entries = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert all(e["iter"] < 3 for e in entries)
    assert T_BYE not in session.uplink.sent_types
    assert not session.server_report().clean_shutdown


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
