"""The analytic backward against finite differences, and the metrics a
training step reports."""

import json

import numpy as np

from sidetune import (
    SideConfig,
    TrainState,
    init_adam,
    init_side,
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
