"""The frozen decoder's forward: the BLAS products against the ascending-k
reference, the tiled in-place attention against its full out-of-place
formula, the choice between the shift-free and the max-shifted softmax,
slabs of sequences against one sequence at a time, a batch rerun after a
batch of another shape, read-only taps in one plane while a caller writes
over the idle slab buffers, the working sets of the attention and of the
whole forward, the causal mask,
and the frozen weights: fused once, read-only after, and every one of
them read."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from sidetune import BackboneConfig, backbone, forward_collect, init_backbone, kernels
from test_hooks import counting
from test_kernels import exact_matmul

CONFIG = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                        block_cuts=(1, 2, 3, 4))
TILE = backbone.ATTN_TILE
# three query tiles, the last one short
LONG = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=3 * TILE,
                      block_cuts=(1, 2, 3, 4))
LONG_SEQ = 3 * TILE - 5

# taps are layer-normed (unit scale), so this bounds the rounding that four
# layers add to float32 products summed in a different order
TAP_ATOL = 1e-5

# the attention scales q instead of the scores and divides the context by a
# row sum that BLAS adds up in the product with vᵀ's ones row; a tiled row
# also sums its r1 <= S entries, not S, and BLAS may pick another kernel for a
# tile's shape (a one-row tile is a matrix-vector product): about 8 float32
# ulps of max |output|; measured gaps stay below 2.2e-7 of it
TILED_RTOL = 1e-6


def tokens(batch=3, seq=15, seed=0):
    return kernels.make_rng(seed).integers(0, CONFIG.vocab_size, size=(batch, seq))


def workspace(config, x):
    """A forward workspace for the batch `x`, to run its layers one slab at a time."""
    return backbone.ForwardWorkspace(config, *x.shape[:2])


def collect(weights, toks, ws=None, spoil=False):
    """The taps of `toks`, each copied as the forward emits it, from a
    forward in `ws` or in a workspace of its own. Each tap must be a
    read-only view of the workspace's one plane; with `spoil`, NaN is
    written over every slab buffer once the tap is copied, as a caller
    that quantizes in them would."""
    ws = ws or workspace(weights.config, toks)
    taps = []

    def emit(i, act):
        assert np.shares_memory(act, ws.act) and not act.flags.writeable
        taps.append((i, act.copy()))
        if spoil:
            for buf in (*ws.wide, ws.tile_ctx, ws.proj, ws.ctx):
                buf.fill(np.nan)

    forward_collect(weights, toks, ws, emit)
    return taps


# the attention's unfused sources: [H, H] projections and [H] biases
SOURCES = ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o")


def attention_sources(config, seed):
    """Random unfused, unscaled attention weights, every bias nonzero."""
    rng = kernels.make_rng(seed)
    h = config.hidden
    return {name: rng.normal(0.0, backbone.INIT_STD if name.startswith("w_") else 0.5,
                             size=(h, h) if name.startswith("w_") else h).astype(np.float32)
            for name in SOURCES}


def fused_layer(lw, src, heads, fuse=None):
    """`lw` with the attention of `src`, its QKV fused as the weight file stores it."""
    w_qkv, b_qkv = (fuse or backbone._fuse_qkv)(
        *(src[name] for name in ("w_q", "w_k", "w_v", "b_q", "b_k", "b_v")), heads)
    return dataclasses.replace(lw, w_qkv=w_qkv, b_qkv=b_qkv, w_o=src["w_o"], b_o=src["b_o"])


def out_of_place_attention(x, src, heads):
    """The attention formula over the unfused sources `src`, with a fresh
    array for the scale and the mask."""
    b, s, h = x.shape
    hd = h // heads

    def split(t):
        return t.reshape(b, s, heads, hd).transpose(0, 2, 1, 3)

    q, k, v = (split(kernels.fast_matmul(x, src["w_" + p]) + src["b_" + p]) for p in "qkv")
    scores = kernels.fast_matmul(q, k.swapaxes(-1, -2)) * x.dtype.type(1.0 / np.sqrt(hd))
    mask = np.triu(np.ones((s, s), dtype=bool), k=1)
    scores = np.where(mask, x.dtype.type(-np.inf), scores)
    ctx = kernels.fast_matmul(kernels.softmax_rows(scores), v).transpose(0, 2, 1, 3).reshape(b, s, h)
    return kernels.fast_matmul(ctx, src["w_o"]) + src["b_o"]


def assert_attention_agrees(x, weights, fuse=None):
    """Each layer's tiled attention, fused from random sources, against the
    formula over those sources, on the activations of the layer chain."""
    config = weights.config
    ws = workspace(config, x)
    for i, lw in enumerate(weights.layers):
        src = attention_sources(config, seed=i)
        lw = fused_layer(lw, src, config.heads, fuse)
        full = out_of_place_attention(x, src, config.heads)
        np.testing.assert_allclose(backbone._self_attention(x, lw, config.heads, ws), full,
                                   rtol=0, atol=TILED_RTOL * np.abs(full).max())
        x = backbone.layer_forward(x, lw, config.heads, ws)


def test_one_tile_attention_agrees_with_the_out_of_place_formula():
    weights = init_backbone(CONFIG, 7)
    assert_attention_agrees(weights.token_embedding[tokens()] + weights.pos_embedding[:15],
                            weights)


@pytest.mark.parametrize("seq", [TILE, TILE + 1, LONG_SEQ])
def test_tiled_attention_agrees_with_the_full_formula(seq):
    weights = init_backbone(LONG, 7)
    assert_attention_agrees(weights.token_embedding[tokens(seq=seq)] + weights.pos_embedding[:seq],
                            weights)


def shifted_tiles(monkeypatch):
    """The calls of the max-shifted exponent, one per tile that takes it."""
    return counting(monkeypatch, kernels, "exp_rows")


def test_large_query_and_key_weights_take_the_shifted_path(monkeypatch):
    weights = init_backbone(LONG, 7)
    x = weights.token_embedding[tokens(seq=LONG_SEQ)] + weights.pos_embedding[:LONG_SEQ]
    src = attention_sources(LONG, seed=0)
    # a score bound of about 47, past EXP_SAFE; the largest score is about
    # 26, small enough that float32 scores still agree to TILED_RTOL
    src.update(w_q=src["w_q"] * 600, w_k=src["w_k"] * 600)
    lw = fused_layer(weights.layers[0], src, LONG.heads)
    shifted = shifted_tiles(monkeypatch)
    tiled = backbone._self_attention(x, lw, LONG.heads, workspace(LONG, x))
    assert len(shifted) == 3
    assert np.isfinite(tiled).all()
    full = out_of_place_attention(x, src, LONG.heads)
    np.testing.assert_allclose(tiled, full, rtol=0, atol=TILED_RTOL * np.abs(full).max())


def test_a_non_finite_input_takes_the_shifted_path(monkeypatch):
    weights = init_backbone(CONFIG, 7)
    x = weights.token_embedding[tokens()] + weights.pos_embedding[:15]
    x[1, 9, 0] = np.nan  # the score bound is NaN
    src = attention_sources(CONFIG, seed=0)
    lw = fused_layer(weights.layers[0], src, CONFIG.heads)
    shifted = shifted_tiles(monkeypatch)
    tiled = backbone._self_attention(x, lw, CONFIG.heads, workspace(CONFIG, x))
    assert len(shifted) == 1
    full = out_of_place_attention(x, src, CONFIG.heads)
    for j in (0, 2):  # the sequences without the NaN
        np.testing.assert_allclose(tiled[j], full[j], rtol=0,
                                   atol=TILED_RTOL * np.abs(full[j]).max())


def test_attention_never_holds_a_full_score_tensor():
    b, s, heads = 16, 255, 4
    config = BackboneConfig(vocab_size=16, hidden=32, layers=1, heads=heads, max_seq=s)
    weights = init_backbone(config, 7)
    toks = kernels.make_rng(3).integers(0, config.vocab_size, size=(b, s))
    # the whole forward, its workspace and its taps included
    tracemalloc.start()
    try:
        collect(weights, toks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < b * heads * s * s * 4  # one float32 [B, heads, S, S] tensor


@pytest.mark.parametrize("seq", [255, 63])
def test_a_workspace_counts_every_buffer_it_keeps(seq):
    config = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=255)
    tracemalloc.start()
    try:
        ws = backbone.ForwardWorkspace(config, 16, seq)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # beyond its buffers, only the Python objects that hold them
    assert ws.nbytes <= kept < ws.nbytes + 4096


def test_taps_agree_with_the_exact_kernels(monkeypatch):
    # one tile, and three tiles with a short last one
    runs = [(init_backbone(config, 7), tokens(seq=seq))
            for config, seq in ((CONFIG, 15), (LONG, LONG_SEQ))]
    fast = [collect(weights, toks) for weights, toks in runs]
    monkeypatch.setattr(kernels, "fast_matmul", exact_matmul)
    for (weights, toks), fast_taps in zip(runs, fast):
        exact = collect(weights, toks)
        assert [i for i, _ in fast_taps] == [i for i, _ in exact] == [0, 1, 2, 3, 4]
        for (_, f), (_, e) in zip(fast_taps, exact):
            assert f.dtype == e.dtype == np.float32
            np.testing.assert_allclose(f, e, rtol=0, atol=TAP_ATOL)


def test_a_position_sees_no_later_token():
    weights = init_backbone(LONG, 7)
    toks = tokens(seq=LONG_SEQ)
    pos = TILE + TILE // 2  # inside the middle tile
    changed = toks.copy()
    changed[:, pos] = (changed[:, pos] + 1) % LONG.vocab_size
    for (_, a), (_, b) in zip(collect(weights, toks),
                              collect(weights, changed)):
        np.testing.assert_array_equal(a[:, :pos], b[:, :pos])
        assert not np.array_equal(a[:, pos], b[:, pos])


# the benchmark's model at its longest sequence
WIDE = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=255,
                      block_cuts=(1, 2, 3, 4))


def test_the_benchmark_model_takes_the_shift_free_path(monkeypatch):
    weights = init_backbone(WIDE, 7)
    toks = kernels.make_rng(3).integers(0, WIDE.vocab_size, size=(16, 255))
    shifted = shifted_tiles(monkeypatch)
    taps = collect(weights, toks)
    assert not shifted
    assert all(np.isfinite(tap).all() for _, tap in taps)


@pytest.mark.parametrize("seq", [255, 91])
def test_slabs_give_the_taps_of_one_sequence_at_a_time(seq):
    weights = init_backbone(WIDE, 7)
    toks = kernels.make_rng(5).integers(0, WIDE.vocab_size, size=(7, seq))
    # the last slab is short: 4 + 3 sequences at S=255, 7 of 11 at S=91
    assert 7 % backbone.slab_sequences(seq, WIDE, np.float32) != 0
    batched = collect(weights, toks)
    alone = [collect(weights, toks[j:j + 1]) for j in range(len(toks))]
    for n, (_, tap) in enumerate(batched):
        np.testing.assert_array_equal(tap, np.concatenate([a[n][1] for a in alone]))


def test_forward_peak_memory_is_one_plane_and_one_slab():
    b, s = 16, 255
    weights = init_backbone(WIDE, 7)
    toks = kernels.make_rng(3).integers(0, WIDE.vocab_size, size=(b, s))

    def forward():  # in a workspace of its own, keeping no tap
        forward_collect(weights, toks, backbone.ForwardWorkspace(WIDE, b, s), lambda i, act: None)

    forward()  # warm up outside the trace
    tracemalloc.start()
    try:
        forward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = b * s * WIDE.hidden * 4
    # the layer chain's one activation plane, whatever the number of taps,
    # and a slab's buffers of under three SLAB_BYTES (2.76 measured, with
    # the mask constants); a second plane would add two more, and one layer
    # over the whole batch needs about 7 MiB besides the plane
    assert peak < plane + 3 * backbone.SLAB_BYTES


def test_taps_repeat_after_a_batch_of_another_shape():
    weights = init_backbone(WIDE, 7)
    a = kernels.make_rng(6).integers(0, WIDE.vocab_size, size=(7, 255))
    # b is a's first 91 positions: its taps are a's there, up to the tile
    # bound, since the causal mask hides every later token
    b = a[:, :91]
    first = collect(weights, a)
    prefix = collect(weights, b)
    again = collect(weights, a)
    for (_, t1), (_, tb), (_, t2) in zip(first, prefix, again):
        assert np.isfinite(t1).all() and np.isfinite(tb).all()
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_allclose(tb, t1[:, :91], rtol=0,
                                   atol=TILED_RTOL * np.abs(t1).max())


def test_a_kept_workspace_gives_the_taps_of_fresh_arrays_across_shapes():
    weights = init_backbone(WIDE, 7)
    rng = kernels.make_rng(8)
    # several slabs with a short last one
    batches = [rng.integers(0, WIDE.vocab_size, size=(7, 255)) for _ in range(2)]
    ws = backbone.ForwardWorkspace(WIDE, 7, 255)
    for toks in batches:
        kept = collect(weights, toks, ws)
        fresh = collect(weights, toks)
        assert [i for i, _ in kept] == [i for i, _ in fresh]
        for (_, k), (_, f) in zip(kept, fresh):
            np.testing.assert_array_equal(k, f)
    # a batch of another shape, weights of another dtype, or another
    # config, even one of fewer layers, need their own
    fewer = dataclasses.replace(WIDE, layers=3, block_cuts=(1, 2, 3))
    for toks, other in ((batches[0][:3, :91], ws),
                        (batches[0], backbone.ForwardWorkspace(WIDE, 7, 255, np.float64)),
                        (batches[0], backbone.ForwardWorkspace(fewer, 7, 255))):
        with pytest.raises(ValueError, match="workspace built for"):
            forward_collect(weights, toks, other, lambda i, act: None)


@pytest.mark.parametrize("cuts", [(2, 4), (1, 3, 4), (4,)])
def test_taps_after_untapped_layers_are_those_of_the_layer_chain(cuts):
    config = dataclasses.replace(CONFIG, block_cuts=cuts)
    weights = init_backbone(config, 7)
    toks = tokens()
    x = weights.token_embedding[toks] + weights.pos_embedding[:15]
    expected = [(0, x)]
    ws = workspace(config, x)
    for i, lw in enumerate(weights.layers, start=1):
        x = backbone.layer_forward(x, lw, config.heads, ws)
        if i in cuts:
            expected.append((i, x))
    # the chain's one plane, whatever the number of taps
    assert ws.act.shape == x.shape
    # a caller that writes over the slab buffers while it is given a tap
    # changes no tap
    for taps in (collect(weights, toks), collect(weights, toks, ws),
                 collect(weights, toks, ws, spoil=True), collect(weights, toks, ws)):
        assert [i for i, _ in taps] == [i for i, _ in expected]
        for (_, got), (_, want) in zip(taps, expected):
            np.testing.assert_array_equal(got, want)


def test_forwards_without_a_workspace_share_no_memory():
    weights = init_backbone(CONFIG, 7)
    first, second = [], []  # the taps as lent, not copied
    for taps, seed in ((first, 1), (second, 2)):
        toks = tokens(seed=seed)
        forward_collect(weights, toks, workspace(CONFIG, toks), lambda i, act: taps.append(act))
    for a in first:
        assert not any(np.shares_memory(a, b) for b in second)


def test_a_forward_reads_the_fused_weights_the_assembly_built(monkeypatch):
    weights = init_backbone(CONFIG, 7)
    fused = counting(monkeypatch, backbone, "_fuse_qkv")
    ws = backbone.ForwardWorkspace(CONFIG, 3, 15)
    for seed in (1, 2):
        collect(weights, tokens(seed=seed), ws)
    assert not fused


def test_the_attention_test_catches_an_unscaled_query_bias():
    def unscaled_query_bias(wq, wk, wv, bq, bk, bv, heads):
        w, bias = backbone._fuse_qkv(wq, wk, wv, bq, bk, bv, heads)
        bias[:len(bq)] = bq
        return w, bias

    weights = init_backbone(CONFIG, 7)
    x = weights.token_embedding[tokens()] + weights.pos_embedding[:15]
    with pytest.raises(AssertionError):
        assert_attention_agrees(x, weights, fuse=unscaled_query_bias)


def test_every_stored_tensor_changes_the_taps():
    weights = init_backbone(CONFIG, 7)
    toks = tokens()
    base = collect(weights, toks)
    entries = list(zip(backbone._layout(CONFIG), weights.all_tensors()))
    for n, ((layer, name, _), t) in enumerate(entries):
        # a ramp, not a constant, which a layer norm would cancel after w_o,
        # b_o, w_down and b_down
        bumped = t + np.linspace(0, 0.1, t.size, dtype=np.float32).reshape(t.shape)
        changed = backbone._assemble(CONFIG, [(i, m, bumped if k == n else a)
                                              for k, ((i, m, _), a) in enumerate(entries)])
        gap = max(np.abs(a - b).max() for (_, a), (_, b) in zip(base, collect(changed, toks)))
        assert gap > 0, (layer, name)


@pytest.mark.parametrize("loaded", [False, True], ids=["initialized", "loaded"])
def test_the_frozen_weights_refuse_an_in_place_write(tmp_path, loaded):
    weights = init_backbone(CONFIG, 7)
    if loaded:
        backbone.save_backbone(tmp_path / "w.bin", weights)
        weights = backbone.load_backbone(tmp_path / "w.bin")
    lw = weights.layers[0]
    for t in (weights.token_embedding, lw.w_qkv, lw.b_qkv, lw.w_o, lw.ln2_beta):
        with pytest.raises(ValueError, match="read-only"):
            t += 1
