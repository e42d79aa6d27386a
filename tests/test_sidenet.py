"""The side network's step against the formulas it replaced, and its
workspace: a backward reads only what a forward left in it and the
taps, and rebuilds each adapter's input and activation bit for bit;
after a session's first batch a step allocates less than one tap; and a
workspace kept across a session's steps gives the bits of a fresh one
per step."""

import io
import tracemalloc

import numpy as np
import pytest

from sidetune import (
    BackboneConfig,
    SideConfig,
    TrainState,
    init_adam,
    init_side,
    kernels,
    save_side,
)
from sidetune.quantize import quantize
from sidetune.sidenet import (
    SideNetworkParams,
    Workspace,
    _activation,
    _rebuild_input,
    copy_tap,
    side_backward,
    side_forward,
)
from sidetune.training import loss_and_grad, train_iteration
from sidetune.wire import ActBatch, Hello, encode, try_decode

CONFIG = SideConfig(hidden=32, bottleneck=16, adapters=4, classes=2)
GAMMA = CONFIG.adapters + 1  # with the embedding tap


def oracle_gelu_grad(x):
    """gelu'(x) from its own tanh: the formula the backward used before it
    read the forward's tanh."""
    c = x.dtype.type(kernels.GELU_COEF)
    a = x.dtype.type(kernels.GELU_CUBIC)
    half = x.dtype.type(0.5)
    t = np.tanh(c * (x + a * x * x * x))
    sech2 = 1 - t * t
    return half * (1 + t) + half * x * sech2 * c * (1 + 3 * a * x * x)


def oracle_layer_norm_backward(d_out, x, gamma, eps):
    """Layer norm's gradients from its input x, recomputing mean, variance
    and x̂: the formula the backward used before the forward kept x̂, 1/σ."""
    mu = x.mean(axis=-1, keepdims=True, dtype=x.dtype)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True, dtype=x.dtype)
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = (x - mu) * inv_std
    axes = tuple(range(x.ndim - 1))
    d_gamma = (d_out * xhat).sum(axis=axes, dtype=x.dtype)
    d_beta = d_out.sum(axis=axes, dtype=x.dtype)
    d_xhat = d_out * gamma
    mean1 = d_xhat.mean(axis=-1, keepdims=True, dtype=x.dtype)
    mean2 = (d_xhat * xhat).mean(axis=-1, keepdims=True, dtype=x.dtype)
    return (d_xhat - mean1 - xhat * mean2) * inv_std, d_gamma, d_beta


def oracle_step(taps, params, config, labels, kept=None):
    """(logits, gradients) of one step with fresh arrays throughout, the
    forward keeping each layer norm's input and the backward recomputing
    from it; each adapter's (u, pre, act, y) goes into `kept` when given."""
    s, block_taps = taps[0], taps[1:]
    kept = [] if kept is None else kept
    for tap, ad in zip(block_taps, params.adapters):
        u = s + tap
        pre = u @ ad.w_down
        act = kernels.gelu(pre)
        y = act @ ad.w_up + u
        s = kernels.layer_norm(y, ad.ln_gamma, ad.ln_beta, kernels.LN_EPS)
        kept.append((u, pre, act, y))
    blend = kernels.sigmoid(params.combine_gate)
    final_tap = block_taps[-1]
    pooled = kernels.mean_pool(blend * final_tap + (1 - blend) * s)
    logits = pooled @ params.head_weight + params.head_bias
    _, d_logits = loss_and_grad(logits, labels)

    grads = SideNetworkParams(config, np.zeros_like(params.flat))
    grads.head_weight[...] = pooled.T @ d_logits
    grads.head_bias[...] = d_logits.sum(axis=0)
    d_pooled = d_logits @ params.head_weight.T
    d_z = np.broadcast_to(d_pooled[:, None, :] / final_tap.shape[1], final_tap.shape)
    a = d_logits.dtype.type(blend)
    d_s = (1 - a) * d_z
    grads.combine_gate[...] = (d_z * (final_tap - s)).sum() * a * (1 - a)
    for l in reversed(range(config.adapters)):
        u, pre, act, y = kept[l]
        ad, g = params.adapters[l], grads.adapters[l]
        d_y, g.ln_gamma[...], g.ln_beta[...] = oracle_layer_norm_backward(
            d_s, y, ad.ln_gamma, kernels.LN_EPS)
        rows = lambda t: t.reshape(-1, t.shape[-1])
        g.w_up[...] = rows(act).T @ rows(d_y)
        d_pre = (d_y @ ad.w_up.T) * oracle_gelu_grad(pre)
        g.w_down[...] = rows(u).T @ rows(d_pre)
        d_s = d_y + d_pre @ ad.w_down.T
    return logits, grads


def random_batch(rng, batch_id, shape, scheme="nf4"):
    taps = tuple(quantize(rng.normal(size=shape).astype(np.float32), scheme)
                 for _ in range(GAMMA))
    labels = tuple(int(y) for y in rng.integers(0, CONFIG.classes, size=shape[0]))
    return ActBatch(batch_id=batch_id, labels=labels, taps=taps)


def new_state(batch, seq):
    params = init_side(CONFIG, 1)
    return TrainState(config=CONFIG, params=params, adam=init_adam(params, lr=5e-3),
                      workspace=Workspace(CONFIG, batch, seq))


def trained_params():
    """Parameters after 20 steps, so the head is no longer zero."""
    rng = np.random.default_rng(3)
    state = new_state(8, 15)
    for i in range(20):
        train_iteration(state, random_batch(rng, i, (8, 15, CONFIG.hidden)))
    assert np.abs(state.params.head_weight).min() > 0
    return state.params


def test_the_step_agrees_with_the_recomputing_oracle():
    params = trained_params()
    rng = np.random.default_rng(4)
    taps = [(rng.normal(size=(8, 15, CONFIG.hidden)) * 2).astype(np.float32)
            for _ in range(GAMMA)]
    labels = rng.integers(0, CONFIG.classes, size=8)
    before = [t.copy() for t in taps]

    ws = Workspace(CONFIG, 8, 15)
    logits = side_forward(taps, params, ws)
    d_logits = loss_and_grad(logits, labels)[1]
    grads = side_backward(ws, d_logits, params, taps)
    expected_logits, expected = oracle_step(taps, params, CONFIG, labels)

    assert logits.tobytes() == expected_logits.tobytes()
    assert grads is ws.grads
    for (name, got), (_, want) in zip(grads.named_tensors(), expected.named_tensors()):
        assert got.dtype == np.float32
        # measured at most 4e-7 of each tensor's largest entry
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max(), name
    for t, b in zip(taps, before):
        np.testing.assert_array_equal(t, b)
    # the backward wrote over the forward it read, so it cannot run twice;
    # a second forward in the same workspace gives the same bits again
    with pytest.raises(ValueError, match="no forward"):
        side_backward(ws, d_logits, params, taps)
    first = grads.flat.copy()
    again = side_forward(taps, params, ws)
    assert again.tobytes() == logits.tobytes()
    assert side_backward(ws, d_logits, params, taps).flat.tobytes() == first.tobytes()


def test_the_backward_recomputes_each_activation_bit_for_bit():
    rng = np.random.default_rng(8)
    taps = [(rng.normal(size=(4, 15, CONFIG.hidden)) * 2).astype(np.float32)
            for _ in range(GAMMA)]
    ws = Workspace(CONFIG, 4, 15)
    side_forward(taps, trained_params(), ws)
    # the forward leaves the last adapter's activation in the one scratch
    last = ws.act.copy()
    assert _activation(ws, CONFIG.adapters - 1).tobytes() == last.tobytes()
    for l in range(CONFIG.adapters):
        fresh = kernels.gelu(ws.pre[l].copy())
        assert _activation(ws, l).tobytes() == fresh.tobytes()


def test_the_backward_rebuilds_each_adapter_input_bit_for_bit():
    params = trained_params()
    rng = np.random.default_rng(10)
    taps = [(rng.normal(size=(4, 15, CONFIG.hidden)) * 2).astype(np.float32)
            for _ in range(GAMMA)]
    # -0 in the first block tap: u_1 = s_0 + tap_1 must add the tap as the forward does
    taps[1][0, 0, :4] = -0.0
    kept = []
    oracle_step(taps, params, CONFIG, rng.integers(0, CONFIG.classes, size=4), kept)
    ws = Workspace(CONFIG, 4, 15)
    side_forward(taps, params, ws)
    # in the backward's order: each rebuild spends x̂_l and reads x̂_{l-1}
    for l in reversed(range(CONFIG.adapters)):
        u = _rebuild_input(ws, params, taps[l + 1], taps[0], copy_tap, l)
        assert u is ws.u and u.tobytes() == kept[l][0].tobytes(), l


def test_a_backward_refuses_a_workspace_that_holds_no_forward():
    params = init_side(CONFIG, 1)
    with pytest.raises(ValueError, match="no forward"):
        side_backward(Workspace(CONFIG, 2, 3), np.zeros((2, CONFIG.classes), np.float32),
                      params, [np.zeros((2, 3, CONFIG.hidden), np.float32)] * GAMMA)


def test_a_workspace_counts_every_buffer_it_keeps():
    tracemalloc.start()
    try:
        ws = Workspace(CONFIG, 16, 63)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # beyond its buffers, only the Python objects that hold them and the
    # gradient's named views
    assert ws.nbytes <= kept < ws.nbytes + 12 * 1024


def test_after_the_first_step_a_step_allocates_less_than_one_tap():
    # the benchmark's long_seq shape, each batch decoded from its frame as
    # the server receives it, so its taps view that frame's codes
    shape = (16, 255, CONFIG.hidden)
    tap_bytes = np.prod(shape) * 4
    rng = np.random.default_rng(5)
    hello = Hello(backbone=BackboneConfig(vocab_size=16, hidden=CONFIG.hidden,
                                          layers=CONFIG.adapters, heads=4, max_seq=255,
                                          block_cuts=(1, 2, 3, 4)),
                  scheme="nf4", batch_size=shape[0], seq_len=shape[1])
    batches = [try_decode(bytes(encode(random_batch(rng, i, shape))), hello.batch_payload(),
                          hello)[0] for i in range(3)]
    assert isinstance(batches[0].taps[0].codes, memoryview)
    state = new_state(*shape[:2])
    train_iteration(state, batches[0])
    tracemalloc.start()
    try:
        train_iteration(state, batches[1])
        tracemalloc.reset_peak()
        train_iteration(state, batches[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the frames were made before the trace; beyond them a steady step
    # allocates a decode's gather indices, per-row statistics and smaller,
    # about 77 KB here, so a temporary of one tap plane (522 KB), such as a
    # dequantized tap, fails
    assert peak < tap_bytes


def test_a_steady_step_of_a_tiny_batch_allocates_a_few_kilobytes():
    rng = np.random.default_rng(7)
    batches = [random_batch(rng, i, (2, 3, CONFIG.hidden)) for i in range(3)]
    state = new_state(2, 3)
    train_iteration(state, batches[0])
    train_iteration(state, batches[1])
    tracemalloc.start()
    try:
        train_iteration(state, batches[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the gradient, Adam's scratch and the workspace are kept; what is left
    # is per-row statistics and the metrics (about 6 KB). A step that made
    # its gradient, Adam's temporaries and a float64 copy for the norm
    # peaked at about 97 KB here, whatever the batch
    assert peak < 16 * 1024


def run(batches, fresh_workspace):
    shape = batches[0].taps[0].shape[:2]
    state = new_state(*shape)
    losses = []
    for b in batches:
        if fresh_workspace:
            state.workspace = Workspace(CONFIG, *shape)
        losses.append(train_iteration(state, b).loss)
    buf = io.BytesIO()
    save_side(buf, state.params, state.config)
    return losses, buf.getvalue()


@pytest.mark.parametrize("scheme", ["none_fp16", "nf4"])
def test_a_workspace_kept_across_a_sessions_steps_changes_no_bit(scheme):
    # a session's batches share its one shape; a batch of another is refused
    # before its step (test_server's "seq_len" case)
    rng = np.random.default_rng(6)
    batches = [random_batch(rng, i, (4, 15, CONFIG.hidden), scheme) for i in range(4)]
    kept = run(batches, fresh_workspace=False)
    assert kept == run(batches, fresh_workspace=True)
