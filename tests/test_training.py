"""The analytic backward against finite differences, the flat state
layout and the Adam step over it, the metrics a training step reports,
convergence on the synthetic task, and the checkpoint a short local run
writes, pinned bit for bit."""

import hashlib
import json

import numpy as np
import pytest

from sidetune import (
    BackboneConfig,
    DeviceConfig,
    ServerConfig,
    SideConfig,
    SideNetworkParams,
    SyntheticTask,
    TrainState,
    adam_step,
    init_adam,
    init_side,
    kernels,
    local_mode,
    loss_and_grad,
    train_iteration,
)
from sidetune.cli import GRADCHECK_TOLERANCE
from sidetune.gradcheck import finite_diff_grad, run_gradcheck
from sidetune.quantize import quantize
from sidetune.sidenet import Workspace
from sidetune.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from sidetune.wire import ActBatch

SMALL = SideConfig(hidden=8, bottleneck=4, adapters=2, classes=3)


def test_analytic_backward_passes_gradcheck():
    assert run_gradcheck() < GRADCHECK_TOLERANCE


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]), 1e-6)
        assert abs(grad[0] - 6.0) < 1e-6

    def test_constant(self):
        grad = finite_diff_grad(lambda t: 1.25, np.ones(4), 1e-6)
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_rejects_single_precision(self):
        with pytest.raises(TypeError):
            finite_diff_grad(lambda t: 0.0, np.ones(2, np.float32))

    def test_does_not_mutate_input(self):
        theta = np.array([1.0, 2.0])
        before = theta.copy()
        finite_diff_grad(lambda t: float((t ** 3).sum()), theta)
        np.testing.assert_array_equal(theta, before)


def reference_adam(params, grads, moments, t, lr):
    """The per-tensor Adam update, one named tensor at a time."""
    dtype = params["head_weight"].dtype.type
    b1, b2, eps = dtype(ADAM_BETA1), dtype(ADAM_BETA2), dtype(ADAM_EPS)
    c1, c2 = dtype(1.0 - ADAM_BETA1 ** t), dtype(1.0 - ADAM_BETA2 ** t)
    for name, p in params.items():
        g, (m, v) = grads[name], moments[name]
        m[...] = b1 * m + (1 - b1) * g
        v[...] = b2 * v + (1 - b2) * g * g
        p[...] = p - dtype(lr) * (m / c1) / (np.sqrt(v / c2) + eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_over_the_flat_state_equals_the_per_tensor_update(dtype):
    rng = np.random.default_rng(5)
    params = SideNetworkParams(SMALL, init_side(SMALL, 2).flat.astype(dtype))
    params.flat += rng.normal(scale=0.1, size=params.flat.shape)
    state = init_adam(params, lr=3e-2)
    ref = {name: t.copy() for name, t in params.named_tensors()}
    moments = {name: (np.zeros_like(t), np.zeros_like(t)) for name, t in ref.items()}
    for t in (1, 2, 3):
        grads = SideNetworkParams(SMALL, rng.normal(size=params.flat.shape).astype(dtype))
        adam_step(params, grads, state)
        reference_adam(ref, dict(grads.named_tensors()), moments, t, state.lr)
        for name, view in params.named_tensors():
            assert view.dtype == dtype
            assert np.array_equal(view, ref[name]), (t, name)
    assert state.t == 3
    assert np.array_equal(state.m, np.concatenate([m.ravel() for m, _ in moments.values()]))
    assert np.array_equal(state.v, np.concatenate([v.ravel() for _, v in moments.values()]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_loss_and_its_gradient_keep_the_bits_of_the_softmax_formula(dtype):
    rng = np.random.default_rng(4)
    # rows of scale 1 and of scale 30, whose exponentials span many octaves
    logits = (rng.normal(size=(16, 3)) * np.repeat([1.0, 30.0], 8)[:, None]).astype(dtype)
    labels = rng.integers(0, 3, size=16)
    loss, d_logits = loss_and_grad(logits, labels)
    # the two-pass formula: a log-sum-exp, then a softmax of its own
    rows = np.arange(16)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, dtype=dtype))
    one_hot = np.zeros_like(logits)
    one_hot[rows, labels] = 1
    assert loss == float((lse - shifted[rows, labels]).mean(dtype=dtype))
    expected = (kernels.softmax_rows(logits) - one_hot) / dtype(16)
    assert d_logits.dtype == dtype and np.array_equal(d_logits, expected)


def test_adam_rejects_gradients_of_another_layout():
    params = init_side(SMALL, 0)
    other = init_side(SideConfig(hidden=8, bottleneck=4, adapters=1, classes=3), 0)
    state = init_adam(params)
    with pytest.raises(ValueError):
        adam_step(params, other, state)
    assert state.t == 0


def test_every_tensor_is_a_view_into_the_flat_state():
    params = init_side(SMALL, 0)
    params.adapters[0].w_down[1, 2] = 7.0
    params.combine_gate[...] = -3.0
    assert params.flat[1 * SMALL.bottleneck + 2] == 7.0
    assert params.flat[-1] == -3.0
    names = [name for name, _ in params.named_tensors()]
    assert names[:4] == ["adapter0.w_down", "adapter0.w_up", "adapter0.ln_gamma",
                         "adapter0.ln_beta"]
    assert names[-3:] == ["head_weight", "head_bias", "combine_gate"]
    assert sum(t.size for _, t in params.named_tensors()) == params.flat.size
    assert all(np.shares_memory(t, params.flat) for _, t in params.named_tensors())


def test_a_flat_state_of_the_wrong_size_is_rejected():
    size = init_side(SMALL, 0).flat.size
    for shape in [(size - 1,), (size + 1,), (1, size)]:
        with pytest.raises(ValueError):
            SideNetworkParams(SMALL, np.zeros(shape))


def step():
    config = SideConfig(hidden=8, bottleneck=4, adapters=2, classes=2)
    params = init_side(config, 0)
    state = TrainState(config=config, params=params, adam=init_adam(params),
                       workspace=Workspace(config, 4, 5))
    rng = np.random.default_rng(0)
    taps = tuple(quantize(rng.normal(size=(4, 5, 8)).astype(np.float32), "none_fp16")
                 for _ in range(3))
    return train_iteration(state, ActBatch(batch_id=0, labels=(0, 1, 1, 0), taps=taps))


def test_cross_entropy_step_reports_batch_accuracy():
    metrics = step()
    assert 0.0 <= metrics.acc <= 1.0
    assert json.loads(metrics.to_json())["acc"] == metrics.acc


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


# the checkpoint after TRAINED_STEPS local_mode steps on a small model, by
# scheme; a change to these is a change of what training
# computes, not only of how
TRAINED_STEPS = 4
TRAINED_GOLDEN = {
    "nf4": "62b44e6172a1652b6799d3bdce16e31d43b68eabcd8057cb9d1f8231e6e3d9c3",
    "none_fp16": "f3c05fa62842e08826abb98ab7583d7bcb4e1e9447d503c049e2cad69a50f740",
}


@pytest.mark.parametrize("scheme", sorted(TRAINED_GOLDEN))
def test_local_training_writes_the_golden_checkpoint(tmp_path, scheme):
    backbone = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                              block_cuts=(1, 2, 3, 4))
    device = DeviceConfig(backbone=backbone, task=SyntheticTask(seq_len=15, seed=3),
                          scheme=scheme, batch_size=8, iterations=TRAINED_STEPS)
    ckpt = tmp_path / "side.bin"
    report = local_mode(device, ServerConfig(backbone=backbone, lr=5e-3,
                                             checkpoint_path=str(ckpt)))
    assert report.iterations == TRAINED_STEPS
    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert digest == TRAINED_GOLDEN[scheme]
