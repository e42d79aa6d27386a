"""The `sidetune` command's local and estimate subcommands, a device that
fetches the checkpoint, each subcommand's help, the options it no longer
takes, and the package's exports. Also the cost model's memory figures
against the buffers the code builds and the peaks it traces."""

import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import pytest

import sidetune
from sidetune import (
    BackboneConfig,
    DeviceConfig,
    ServerConfig,
    SyntheticTask,
    costs,
    device,
    local_mode,
)
from sidetune.backbone import ForwardWorkspace
from sidetune import cli
from sidetune.cli import main
from sidetune.sidenet import Workspace
from sidetune.transport import loopback_pair
from sidetune.wire import BatchFrame

TINY = ["--hidden", "16", "--layers", "2", "--heads", "2", "--cuts", "uniform:2",
        "--bottleneck", "8", "--batch", "4", "--seq", "7", "--iters", "2"]


def test_local_prints_batch_accuracy_for_cross_entropy(capsys, tmp_path):
    ckpt = tmp_path / "side.bin"
    assert main(["local", *TINY, "--ckpt", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "local run: 2 iterations" in out and "final batch acc" in out
    assert ckpt.stat().st_size > 0


def test_local_counts_the_batches_it_refuses(capsys):
    # a one-class head refuses every batch that holds a label 1
    assert main(["local", *TINY, "--classes", "1"]) == 2
    assert "local run: 0 iterations, refused 2 label_range" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--iters", "0", "--epochs", "0"], ["--iters", "-1"],
                                   ["--batch", "0"]])
def test_local_rejects_a_run_without_iterations(capsys, flags):
    assert main(["local", *TINY, *flags]) == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--config", os.devnull, "local", *TINY],
    ["quantbench"],
    ["local", *TINY, "--sigma", "relu"],
    ["local", *TINY, "--std", "0.05"],
    ["server", "--backbone-seed", "7"],
    ["server", "--backbone", os.devnull],
    ["local", *TINY, "--no-embedding-tap"],
    ["local", *TINY, "--ffn-dim", "64"],
    ["device", "--queue", "4"],
], ids=["config_file", "quantbench", "sigma", "std", "server_backbone_seed", "server_backbone",
        "no_embedding_tap", "ffn_dim", "queue"])
def test_a_removed_option_is_a_usage_error(capsys, argv):
    assert main(argv) == 1
    assert "sidetune: error:" in capsys.readouterr().err


def test_device_fetch_writes_the_checkpoint_the_server_saves(capsys, tmp_path, monkeypatch):
    dev_end, srv_end = loopback_pair()
    monkeypatch.setattr(cli, "tcp_listen_one", lambda host, port: (srv_end, port))
    monkeypatch.setattr(cli.TcpTransport, "connect", lambda host, port, timeout: dev_end)
    backbone = ["--hidden", "16", "--layers", "2", "--heads", "2", "--cuts", "uniform:2"]
    saved, fetched = tmp_path / "server.bin", tmp_path / "fetched.bin"
    codes = {}
    server = threading.Thread(target=lambda: codes.update(server=main(
        ["server", *backbone, "--bottleneck", "8", "--ckpt", str(saved)])))
    server.start()
    try:
        codes["device"] = main(["device", *backbone, "--batch", "4", "--seq", "7",
                                "--iters", "2", "--fetch", str(fetched)])
    finally:
        server.join(timeout=60)
    assert codes == {"server": 0, "device": 0}, capsys.readouterr()
    assert fetched.read_bytes() == saved.read_bytes()


def help_text(*argv):
    out = subprocess.run([sys.executable, "-m", "sidetune.cli", *argv, "--help"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.returncode == 0, (argv, out.stderr)
    return out.stdout


def test_every_subcommand_prints_its_help():
    commands = re.search(r"\{(.*?)\}", help_text()).group(1).split(",")
    assert commands == ["server", "device", "local", "gradcheck", "estimate"]
    for command in commands:
        assert help_text(command).startswith(f"usage: sidetune {command}")


def test_every_exported_name_resolves():
    for name in sidetune.__all__:
        assert getattr(sidetune, name) is not None, name


ESTIMATE = ["estimate", "--preset", "opt350m", "--scheme", "nf4", "--rate-mbps", "10",
            "--t-fwd", "0.5", "--t-server", "0.2"]


def estimate(capsys, mode):
    assert main([*ESTIMATE, "--mode", mode]) == 0
    return json.loads(capsys.readouterr().out)


def test_estimate_prints_the_link_bound_mobillm_report(capsys):
    report = estimate(capsys, "mobillm")
    payload = costs.payload_per_iteration(costs.preset_spec("opt350m"), "nf4")
    # 24 taps of 16 x 256 x 1024 nf4 codes and a 4-byte scale each, and 16 labels
    assert report["payload_bytes_per_iter"] == payload == 50_331_808
    assert report["optimizer_bytes"] == 0
    # 50,331,808 B at 10 Mbps outlasts the 0.5 s forward and the 0.2 s step
    assert report["est_iter_time_s"] == pytest.approx(payload * 8 / 10e6, rel=1e-12)
    assert report["est_iter_time_s"] == pytest.approx(40.2654464, rel=1e-12)


@pytest.mark.parametrize("mode", ["side_local", "full_ft"])
def test_estimate_sends_nothing_in_the_modes_without_a_server(capsys, mode):
    report = estimate(capsys, mode)
    assert report["payload_bytes_per_iter"] == 0
    # no uplink: the 0.5 s forward is the slowest stage
    assert report["est_iter_time_s"] == 0.5


def test_estimate_orders_the_modes_by_device_memory(capsys):
    total = {mode: estimate(capsys, mode)["total_bytes"]
             for mode in ("full_ft", "side_local", "mobillm")}
    assert total["full_ft"] > total["side_local"] > total["mobillm"]


def test_the_inference_estimate_counts_the_tiled_forward_not_whole_score_maps(capsys):
    report = estimate(capsys, "inference")
    # 218,103,808 B when it counted 24 layers' worth of [16, 16, 256, 256] maps,
    # and 22,120,448 B with the two activation planes the layers ran between
    assert report["activation_bytes"] == 13_731_840
    assert report["payload_bytes_per_iter"] == report["optimizer_bytes"] == 0


# the benchmark's model: 4 layers, H = 32, 4 heads, uniform:4 cuts and the
# embedding tap (gamma = 5), bottleneck 16, 2 classes; its batch is 16 x S
BENCH_MODEL = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=255,
                             block_cuts=(1, 2, 3, 4))
BENCH_SEQ = pytest.mark.parametrize("seq", [255, 63], ids=["long_seq", "slow_uplink"])


def bench_spec(seq):
    # params=0: the reports' totals leave out the frozen weights
    return costs.ModelSpec(params=0, layers=BENCH_MODEL.layers, hidden=BENCH_MODEL.hidden,
                           heads=BENCH_MODEL.heads, seq_len=seq, batch_size=16, dtype_bytes=4,
                           gamma=BENCH_MODEL.gamma, bottleneck=16)


@BENCH_SEQ
def test_the_estimates_count_the_whole_workspaces(seq):
    spec = bench_spec(seq)
    report = {mode: costs.device_memory_estimate(spec, mode, "nf4")
              for mode in ("inference", "mobillm", "side_local")}
    forward = ForwardWorkspace(BENCH_MODEL, 16, seq).nbytes
    side = Workspace(ServerConfig(backbone=BENCH_MODEL).side_config(), 16, seq).nbytes
    payload = costs.payload_per_iteration(spec, "nf4")
    # one activation plane: a second one added 522,240 / 129,024 B
    assert (forward, payload) == {255: (1_912_832, 326_484), 63: (1_756_160, 80_724)}[seq]
    # the frame is the session's: the benchmark's uplink bytes per step
    frame = payload + 30
    assert frame == {255: 326_514, 63: 80_754}[seq]
    assert report["inference"].activation_bytes == forward
    # the device's two frames take turns: one sends while the next batch fills the other
    assert report["mobillm"].activation_bytes == forward + 2 * frame
    # local mode holds the frame, which the batch decoded from it views, and
    # the side network reads each tap from its codes when it needs it;
    # per-adapter activations and a second work plane added 1,305,600 /
    # 322,560 B to the side workspace, a copy of the codes 326,484 / 80,724 B,
    # and gamma dequantized taps instead of one tap-sized plane 2,088,960 /
    # 516,096 B
    assert side == {255: 5_566_476, 63: 1_388_556}[seq]
    assert report["side_local"].activation_bytes == forward + side + frame
    assert report["side_local"].activation_bytes == {255: 7_805_822, 63: 3_225_470}[seq]


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@BENCH_SEQ
def test_the_mobillm_estimate_is_within_a_fifth_of_two_traced_batches(seq):
    config = DeviceConfig(backbone=BENCH_MODEL, task=SyntheticTask(seq_len=seq), scheme="nf4",
                          batch_size=16, iterations=2)
    weights = device.load_device_backbone(config)

    def two_batches():
        ws = ForwardWorkspace(BENCH_MODEL, 16, seq)
        frames = [BatchFrame.for_session(config.hello()) for _ in range(2)]
        for i in range(2):
            device.compute_batch(weights, config, i, ws, frames[i])

    estimate = costs.device_memory_estimate(bench_spec(seq), "mobillm", "nf4").total_bytes
    assert 0.8 < estimate / traced_peak(two_batches) < 1.2  # 0.97 and 0.94 measured


@BENCH_SEQ
def test_the_side_local_estimate_is_within_a_fifth_of_two_traced_local_steps(seq):
    config = DeviceConfig(backbone=BENCH_MODEL, task=SyntheticTask(seq_len=seq), scheme="nf4",
                          batch_size=16, iterations=2)
    frozen = sum(t.nbytes for t in device.load_device_backbone(config).all_tensors())
    peak = traced_peak(lambda: local_mode(config, ServerConfig(backbone=BENCH_MODEL)))
    estimate = costs.device_memory_estimate(bench_spec(seq), "side_local", "nf4").total_bytes
    assert 0.8 < estimate / (peak - frozen) < 1.2  # 0.957 and 0.945 measured


def test_the_opt1_3b_side_local_estimate_commits_almost_none_of_its_buffers():
    # a fresh process: its peak RSS above what it held once the package was imported
    code = ("import re; from sidetune.cli import main\n"
            "kib = lambda key: int(re.search(key + r':\\s+(\\d+)', "
            "open('/proc/self/status').read()).group(1))\n"
            "before = kib('VmRSS')\n"
            "assert main(['estimate', '--preset', 'opt1.3b', '--mode', 'side_local']) == 0\n"
            "print(kib('VmHWM') - before)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    report, grew_kib = out.stdout.splitlines()
    assert json.loads(report)["activation_bytes"] > 8 * 10**8
    # the workspaces are 0.86 GB; a commit of the Adam moments' 6.4 MB would show
    assert int(grew_kib) < 2 * 1024


@pytest.mark.parametrize("flags, message", [
    (["--hidden", "30", "--heads", "7"], "hidden 30 not divisible by heads 7"),
    (["--mode", "side_local", "--gamma", "1"], "0 adapters"),
    (["--mode", "side_local", "--bottleneck", "1024"], "bottleneck 1024 must be"),
    (["--gamma", "-3"], "gamma -3 must be"),
    (["--batch", "0"], "batch 0 and sequence 256"),
], ids=["heads_do_not_divide_hidden", "side_local_gamma_1", "bottleneck_not_below_hidden",
        "gamma_negative", "batch_0"])
def test_estimate_refuses_a_model_the_code_cannot_build(capsys, flags, message):
    assert main(["estimate", "--preset", "custom", "--params", "1000", *flags]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [["estimate"], ["device", "--server", "127.0.0.1:1"]])
@pytest.mark.parametrize("rate", ["-1", "nan"])
def test_a_negative_or_nan_rate_is_a_configuration_error(capsys, command, rate):
    assert main([*command, "--rate-mbps", rate]) == 1
    assert "--rate-mbps" in capsys.readouterr().err
