"""The `sidetune` command's local, estimate and quantbench subcommands,
its config file, and the package's exports."""

import json

import pytest

import sidetune
from sidetune import BackboneConfig, costs
from sidetune.backbone import ForwardWorkspace
from sidetune.cli import _apply_config_file, build_parser, main
from sidetune.quantize import SCHEMES
from sidetune.wire import payload_bytes

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


# TINY without --iters: one iteration unless a config file sets iters
ONE_ITER = [*TINY[:-2], "--epochs", "1", "--samples", "4"]


def config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("spelling", ["separate", "joined"])
def test_a_config_file_supplies_flag_defaults(capsys, tmp_path, spelling):
    path = config_file(tmp_path, "# a comment\n\niters = 3\n")
    flag = ["--config", path] if spelling == "separate" else [f"--config={path}"]
    assert main([*flag, "local", *ONE_ITER]) == 0
    assert "local run: 3 iterations" in capsys.readouterr().out


def test_a_command_line_flag_beats_the_config_file(capsys, tmp_path):
    assert main(["--config", config_file(tmp_path, "iters = 3\n"), "local", *TINY]) == 0
    assert "local run: 2 iterations" in capsys.readouterr().out


@pytest.mark.parametrize("word,value", [("1", True), ("true", True), ("Yes", True),
                                        ("ON", True), ("0", False), ("FALSE", False),
                                        ("no", False), ("Off", False)])
def test_a_config_file_sets_a_boolean_flag_from_any_truth_word(tmp_path, word, value):
    parser = build_parser()
    argv = ["--config", config_file(tmp_path, f"no_embedding_tap = {word}\n"), "local", *TINY]
    _apply_config_file(parser, argv)
    assert parser.parse_args(argv).no_embedding_tap is value


@pytest.mark.parametrize("text", ["batchsize = 4\n", "scheme = bogus\n", "iters 3\n",
                                  "no_embedding_tap = maybe\n"],
                         ids=["unknown_key", "value_outside_choices", "line_without_equals",
                              "boolean_not_a_truth_word"])
def test_a_bad_config_file_is_a_configuration_error(capsys, tmp_path, text):
    assert main(["--config", config_file(tmp_path, text), "local", *TINY]) == 1
    assert "config file error" in capsys.readouterr().err


def test_a_missing_config_file_is_a_configuration_error(capsys, tmp_path):
    assert main([f"--config={tmp_path / 'absent.cfg'}", "local", *TINY]) == 1
    assert "config file error" in capsys.readouterr().err


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


@pytest.mark.parametrize("seq", [255, 63], ids=["long_seq", "slow_uplink"])
def test_the_mobillm_estimate_counts_the_forward_workspace_planes(seq):
    # the benchmark's model and batch shapes
    model = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=255,
                           block_cuts=(1, 2, 3, 4))
    spec = costs.ModelSpec(params=1, layers=model.layers, hidden=model.hidden,
                           heads=model.heads, seq_len=seq, batch_size=16, dtype_bytes=4,
                           gamma=model.gamma)
    ws = ForwardWorkspace(model, 16, seq)
    report = costs.device_memory_estimate(spec, "mobillm", "nf4")
    assert report.activation_bytes == sum(a.nbytes for a in ws.acts)


def test_quantbench_prints_one_row_per_scheme(capsys):
    assert main(["quantbench"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == list(SCHEMES)
    # defaults: batch 16, seq 64, hidden 64
    assert [int(row[1]) for row in rows] == [payload_bytes((16, 64, 64), s) for s in SCHEMES]
