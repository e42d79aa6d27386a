"""The `sidetune` command's local subcommand and the package's exports."""

import pytest

import sidetune
from sidetune.cli import main

TINY = ["--hidden", "16", "--layers", "2", "--heads", "2", "--cuts", "uniform:2",
        "--bottleneck", "8", "--batch", "4", "--seq", "7", "--iters", "2"]


def test_local_prints_batch_accuracy_for_cross_entropy(capsys, tmp_path):
    ckpt = tmp_path / "side.bin"
    assert main(["local", *TINY, "--ckpt", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "local run: 2 iterations" in out and "final batch acc" in out
    assert ckpt.stat().st_size > 0


def test_local_prints_no_accuracy_for_mse(capsys):
    assert main(["local", *TINY, "--loss", "mse", "--classes", "1"]) == 0
    out = capsys.readouterr().out
    assert "final loss" in out and "acc" not in out


@pytest.mark.parametrize("flags", [["--iters", "0", "--epochs", "0"], ["--iters", "-1"],
                                   ["--batch", "0"]])
def test_local_rejects_a_run_without_iterations(capsys, flags):
    assert main(["local", *TINY, *flags]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_every_exported_name_resolves():
    for name in sidetune.__all__:
        assert getattr(sidetune, name) is not None, name
