"""The analytic backward against finite differences, the metrics a
training step reports, and convergence on the synthetic task."""

import json

import numpy as np

from sidetune import (
    BackboneConfig,
    DeviceConfig,
    ServerConfig,
    SideConfig,
    SyntheticTask,
    TrainState,
    init_adam,
    init_side,
    local_mode,
    quantize,
    train_iteration,
)
from sidetune.cli import GRADCHECK_TOLERANCE
from sidetune.gradcheck import run_gradcheck
from sidetune.wire import ActBatch


def test_analytic_backward_passes_gradcheck():
    assert run_gradcheck() < GRADCHECK_TOLERANCE


def step(loss_kind, classes):
    config = SideConfig(hidden=8, bottleneck=4, adapters=2, classes=classes)
    params = init_side(config, 0)
    state = TrainState(config=config, params=params, adam=init_adam(params),
                       loss_kind=loss_kind)
    rng = np.random.default_rng(0)
    taps = tuple((i, quantize(rng.normal(size=(4, 5, 8)).astype(np.float32), "none_fp16"))
                 for i in range(3))
    return train_iteration(state, ActBatch(batch_id=0, labels=(0, 1, 1, 0), taps=taps))


def test_cross_entropy_step_reports_batch_accuracy():
    metrics = step("cross_entropy", classes=2)
    assert 0.0 <= metrics.acc <= 1.0
    assert json.loads(metrics.to_json())["acc"] == metrics.acc


def test_mse_step_reports_no_accuracy():
    metrics = step("mse", classes=1)
    assert metrics.acc is None
    assert metrics.loss > 0
    assert json.loads(metrics.to_json())["acc"] is None


def test_side_tuning_learns_the_synthetic_task():
    backbone = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                              block_cuts=(1, 2, 3, 4))
    device = DeviceConfig(backbone=backbone, task=SyntheticTask(seq_len=15, seed=3),
                          scheme="nf4", batch_size=32, iterations=100)
    report = local_mode(device, ServerConfig(backbone=backbone, lr=5e-3))
    assert report.iterations == 100
    # chance is ln 2 = 0.693; measured 0.66 over the first 20 steps, then
    # 0.21 with batch accuracy 0.90 over the last 20
    assert np.mean(report.losses[:20]) > 0.6
    assert np.mean(report.losses[-20:]) < 0.35
    assert np.mean([m.acc for m in report.metrics[-20:]]) > 0.8
