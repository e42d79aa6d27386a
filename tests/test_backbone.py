"""The frozen decoder's forward: the BLAS products against the ascending-k
reference, the in-place attention against its out-of-place formula, and
the causal mask."""

import numpy as np

from sidetune import BackboneConfig, backbone, forward_collect, init_backbone, kernels
from test_kernels import exact_matmul

CONFIG = BackboneConfig(vocab_size=16, hidden=32, layers=4, heads=4, max_seq=32,
                        block_cuts=(1, 2, 3, 4))

# taps are layer-normed (unit scale), so this bounds the rounding that four
# layers add to float32 products summed in a different order
TAP_ATOL = 1e-5


def tokens(batch=3, seq=15, seed=0):
    return kernels.make_rng(seed).integers(0, CONFIG.vocab_size, size=(batch, seq))


def out_of_place_attention(x, lw, heads):
    """The attention formula with a fresh array for the scale and the mask."""
    b, s, h = x.shape
    hd = h // heads

    def split(t):
        return t.reshape(b, s, heads, hd).transpose(0, 2, 1, 3)

    q, k, v = (split(kernels.fast_matmul(x, w) + bias)
               for w, bias in ((lw.w_q, lw.b_q), (lw.w_k, lw.b_k), (lw.w_v, lw.b_v)))
    scores = kernels.fast_matmul(q, k.swapaxes(-1, -2)) * x.dtype.type(1.0 / np.sqrt(hd))
    mask = np.triu(np.ones((s, s), dtype=bool), k=1)
    scores = np.where(mask, x.dtype.type(-np.inf), scores)
    ctx = kernels.fast_matmul(kernels.softmax_rows(scores), v).transpose(0, 2, 1, 3).reshape(b, s, h)
    return kernels.fast_matmul(ctx, lw.w_o) + lw.b_o


def test_in_place_attention_is_bit_equal_to_the_out_of_place_formula():
    weights = init_backbone(CONFIG, 7)
    x = weights.token_embedding[tokens()] + weights.pos_embedding[:15]
    for lw in weights.layers:
        np.testing.assert_array_equal(backbone._self_attention(x, lw, CONFIG.heads),
                                      out_of_place_attention(x, lw, CONFIG.heads))
        x = backbone.layer_forward(x, lw, CONFIG.heads)


def test_taps_agree_with_the_exact_kernels(monkeypatch):
    weights = init_backbone(CONFIG, 7)
    fast = forward_collect(weights, tokens()).taps
    monkeypatch.setattr(kernels, "fast_matmul", exact_matmul)
    exact = forward_collect(weights, tokens()).taps
    assert [i for i, _ in fast] == [i for i, _ in exact] == [0, 1, 2, 3, 4]
    for (_, f), (_, e) in zip(fast, exact):
        assert f.dtype == e.dtype == np.float32
        np.testing.assert_allclose(f, e, rtol=0, atol=TAP_ATOL)


def test_a_position_sees_no_later_token():
    weights = init_backbone(CONFIG, 7)
    toks = tokens()
    changed = toks.copy()
    changed[:, -1] = (changed[:, -1] + 1) % CONFIG.vocab_size
    for (_, a), (_, b) in zip(forward_collect(weights, toks).taps,
                              forward_collect(weights, changed).taps):
        np.testing.assert_array_equal(a[:, :-1], b[:, :-1])
        assert not np.array_equal(a[:, -1], b[:, -1])
