"""A frozen GPT-style decoder that exposes intermediate activations.

The backbone is never trained. Each forward pass embeds a token batch,
hands ("taps") the embedding to its caller as tap 0, runs the decoder
layers, and taps the running activation at configured block boundaries,
each read-only, right after the layer that makes it; those taps feed
the trainable side-network. Layers follow the post-norm composition

    u        = LN1(MSA(b) + b)
    b_next   = LN2(FFN(u) + u)

with causal scaled dot-product attention, a 4H-wide FFN, as in OPT, and
learned positional embeddings.

The forward is cache-blocked: each layer runs over slabs of whole
sequences, whose widest buffer is about SLAB_BYTES, and its attention
over query tiles of ATTN_TILE rows (:func:`forward_collect`). One
:class:`ForwardWorkspace`, which the caller builds once for its batch,
holds every buffer of a forward, one activation plane whatever the
number of taps, in which each layer runs in place, so the layer loop
allocates nothing.

The attention projects a slab in one product with a fused QKV weight
(:func:`_fuse_qkv`), already head-major. As in FlashAttention-2 it
scores in base 2 and defers the softmax division to the context, and it
skips the row-max shift when a bound on the scores shows that none can
overflow (:func:`_self_attention`). So it agrees with the full formula
to rounding, not bit for bit: within 1e-6 × max |output| (the tests'
bound; measured gaps are about 2e-7 of it).

The weight file (version 2) holds exactly what the forward reads, in
the order it reads it (:func:`_layout`): magic, version, config block,
the two embeddings, then per layer the fused QKV weight and bias, w_o,
b_o, the first layer norm, the FFN and the second layer norm, all
little-endian float32. The fused weight is Wqᵀ pre-scaled by
log2(e)/√hd, Wkᵀ, then per head its Wvᵀ over a constant row, zero
weights with bias 1, that gives the softmax its row sum; a load refuses
a file whose constant rows differ. Every weight array is read-only.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import kernels
from .binio import (
    FormatError,
    expect_magic,
    open_binary,
    read_exact,
    read_f32,
    write_f32,
    write_magic,
)

WEIGHTS_MAGIC = b"MBWT"
WEIGHTS_VERSION = 2

INIT_STD = 0.02

# query rows per attention tile; each tile's scores are [B, heads, tile, <=S]
ATTN_TILE = 32
# bytes of a layer's widest buffer per slab of sequences: a quarter of a
# 2 MiB L2, so a slab's buffers stay in cache between passes
SLAB_BYTES = 512 * 1024
# the largest score bound for which the attention exponentiates its scores
# without the row-max shift: e^30 is about 1e13, so a row of up to 1e25
# keys sums far below float32's 3.4e38, and e^-30 is about 1e-13, a normal
# float32 whose rows cannot sum to zero
EXP_SAFE = 30.0
# the exponent runs in base 2: q carries log2(e), and the max-shifted path
# takes its scores back to base e by ln(2)
LOG2E = 1.4426950408889634
LN2 = 0.6931471805599453


@dataclass(frozen=True)
class BackboneConfig:
    """One family: a 4H-wide FFN, and the embedding as tap 0, so M cuts give γ = M + 1 taps."""
    vocab_size: int
    hidden: int
    layers: int
    heads: int
    max_seq: int
    # ascending layer indices after which a tap is emitted; last must be
    # the final layer
    block_cuts: tuple[int, ...] = ()
    tap_embedding: bool = True  # only True; kept because the benchmark passes it

    def __post_init__(self):
        if min(self.vocab_size, self.hidden, self.max_seq) < 1:
            raise ValueError(f"vocab_size {self.vocab_size}, hidden {self.hidden} and max_seq "
                             f"{self.max_seq} must be at least 1")
        if self.tap_embedding is not True:
            raise ValueError(f"tap_embedding {self.tap_embedding!r}: the embedding is always tap 0")
        cuts = tuple(int(c) for c in self.block_cuts) or (self.layers,)
        object.__setattr__(self, "block_cuts", cuts)
        if self.heads < 1 or self.hidden % self.heads:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if not (1 <= len(cuts) <= self.layers):
            raise ValueError(f"need between 1 and {self.layers} block cuts")
        if list(cuts) != sorted(set(cuts)) or cuts[0] < 1 or cuts[-1] != self.layers:
            raise ValueError(f"block cuts {cuts} must ascend and end at layer {self.layers}")

    @property
    def ffn_dim(self) -> int:
        return 4 * self.hidden

    @property
    def num_blocks(self) -> int:
        return len(self.block_cuts)

    @property
    def gamma(self) -> int:
        """Taps per forward pass: the embedding tap, then one per block."""
        return self.num_blocks + 1

    def config_block(self) -> bytes:
        """Canonical binary form: the weight file's header and the Hello's
        backbone identity, with slots for the FFN width and the flags, 1."""
        out = struct.pack(
            "<7I", self.vocab_size, self.hidden, self.layers, self.heads,
            self.ffn_dim, self.max_seq, self.num_blocks,
        )
        out += struct.pack(f"<{self.num_blocks}I", *self.block_cuts)
        out += struct.pack("<B", 1)  # bit 0, the embedding tap, the one flag
        return out

    @classmethod
    def from_config_block(cls, fh) -> "BackboneConfig":
        vocab, hidden, layers, heads, ffn, max_seq, m = struct.unpack(
            "<7I", read_exact(fh, 28)
        )
        cuts = struct.unpack(f"<{m}I", read_exact(fh, 4 * m))
        (flags,) = struct.unpack("<B", read_exact(fh, 1))
        config = cls(vocab_size=vocab, hidden=hidden, layers=layers, heads=heads,
                     max_seq=max_seq, block_cuts=cuts)
        if (ffn, flags) != (config.ffn_dim, 1):  # so each config has one block
            raise ValueError(f"FFN width {ffn} and flags {flags:#04x}, not 4H and 0x01")
        return config


@dataclass
class LayerWeights:
    w_qkv: np.ndarray  # [2H + heads·(hd + 1), H], see :func:`_fuse_qkv`
    b_qkv: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    w_up: np.ndarray
    b_up: np.ndarray
    w_down: np.ndarray
    b_down: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray


@dataclass
class BackboneWeights:
    config: BackboneConfig
    token_embedding: np.ndarray  # [vocab, H]
    pos_embedding: np.ndarray    # [max_seq, H]
    layers: list[LayerWeights]

    def all_tensors(self):
        """Every tensor in weight-file order."""
        for layer, name, _ in _layout(self.config):
            yield getattr(self if layer is None else self.layers[layer], name)


def _layout(config: BackboneConfig):
    """The one shape declaration of the weight set: (layer index, or None
    for a model-level tensor, name, shape) in weight-file order, which is
    the forward's: the embeddings, then per layer the fused QKV weight
    [2H + heads·(hd + 1), H] and bias of :func:`_fuse_qkv` (q rows
    pre-scaled, a constant row under each head's values), w_o, b_o, LN1,
    the FFN and LN2."""
    h, f, qkv = config.hidden, config.ffn_dim, _qkv_rows(config.hidden, config.heads)
    per_layer = {
        "w_qkv": (qkv, h), "b_qkv": (qkv,), "w_o": (h, h), "b_o": (h,),
        "ln1_gamma": (h,), "ln1_beta": (h,),
        "w_up": (h, f), "b_up": (f,), "w_down": (f, h), "b_down": (h,),
        "ln2_gamma": (h,), "ln2_beta": (h,),
    }
    yield None, "token_embedding", (config.vocab_size, h)
    yield None, "pos_embedding", (config.max_seq, h)
    for i in range(config.layers):
        for name, shape in per_layer.items():
            yield i, name, shape


def _assemble(config: BackboneConfig, tensors) -> BackboneWeights:
    """Frozen (read-only) weights from (layer index or None, name, array) triples."""
    model, layers = {}, [{} for _ in range(config.layers)]
    for layer, name, t in tensors:
        t.flags.writeable = False
        (model if layer is None else layers[layer])[name] = t
    return BackboneWeights(config, layers=[LayerWeights(**d) for d in layers], **model)


def init_backbone(config: BackboneConfig, seed: int) -> BackboneWeights:
    """Gaussian(0, 0.02) projection weights and embeddings, zero biases,
    unit LN gains; each layer's Wq, Wk and Wv are fused once and only the
    fused pair (:func:`_fuse_qkv`) is kept."""
    rng = kernels.make_rng(seed)
    h, f = config.hidden, config.ffn_dim

    def normal(*shape):
        return rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)

    # the seed's stream draws each layer's Wq, Wk, Wv, Wo, W_up and W_down,
    # layer by layer, then the embeddings
    drawn = []
    for _ in range(config.layers):
        qkv = _fuse_qkv(*(normal(h, h) for _ in range(3)), *np.zeros((3, h), np.float32),
                        config.heads)
        drawn.append(dict(zip(("w_qkv", "b_qkv"), qkv), w_o=normal(h, h),
                          w_up=normal(h, f), w_down=normal(f, h)))
    model = {"token_embedding": normal(config.vocab_size, h),
             "pos_embedding": normal(config.max_seq, h)}

    def make(layer, name, shape):
        given = model if layer is None else drawn[layer]
        fill = np.ones if name.endswith("_gamma") else np.zeros
        return given[name] if name in given else fill(shape, np.float32)

    return _assemble(config, ((i, name, make(i, name, shape)) for i, name, shape in _layout(config)))


class ForwardWorkspace:
    """Every buffer of :func:`forward_collect` under `config` for a [b, s]
    batch of `dtype`, built here once. The taps a forward emits are
    read-only views of it, so the next layer, or the next forward, writes
    over them.

    A layer runs over slabs of ``step`` (:func:`slab_sequences`)
    sequences, and the slab buffers, sized for n = min(step, b)
    sequences, serve one slab at a time, reused across attention tiles,
    slabs and layers. Each holds, in turn, arrays that are never alive
    together:

    - wide[0]: one attention tile's scores, then the FFN expansion;
    - wide[1]: the product of the fused QKV weight (:func:`_fuse_qkv`) and
      the slab, [n, 2H + heads·(hd + 1), s]: the head-major qᵀ, then kᵀ,
      then per head its vᵀ with a row of ones under it; then the gelu of
      the expansion. The ones row makes the product of the values and a
      tile's weights also sum each of the tile's weight rows;
    - proj: the slab's xᵀ, the fused product's right operand, then the
      attention output, then the FFN output;
    - ctx: the attention context, then u, the first layer norm's output.

    With the FFN 4H wide, each wide one is at most SLAB_BYTES.

    Two constant arrays mask a tile's diagonal block, where key j comes
    after query i when j > i. `keep` is the block in the memory order of
    a tile's key-major weights, [tile, n, heads, tile], holding 0 at
    (j, ·, ·, i) for j > i and 1 elsewhere: one contiguous product
    after the exponent zeroes the masked weights. Its [tile, n × heads ×
    tile] floats are 64 KiB at n = 4 and 256 KiB at n = 16 in float32.
    `mask` is the same pattern as a [query, key] bool array, for the
    max-shifted path, which writes -inf over its masked scores.

    `act` is the layer chain's one [b, s, H] plane: it holds the
    embedding, then each layer's output in turn, written in place over
    its input (:func:`layer_forward`).

    `nbytes` counts every buffer; empty ones commit no memory until
    written, so a workspace may be built only to be counted.
    """

    def __init__(self, config: BackboneConfig, b: int, s: int, dtype=np.float32):
        h, heads = config.hidden, config.heads
        hd, tile = h // heads, min(ATTN_TILE, s)
        self.config, self.shape, self.dtype = config, (b, s), np.dtype(dtype)
        self.step = slab_sequences(s, config, dtype)
        n = min(self.step, b)
        wide = n * s * max(config.ffn_dim, heads * tile, _qkv_rows(h, heads))
        self.wide = (np.empty(wide, dtype), np.empty(wide, dtype))
        self.tile_ctx = np.empty(n * heads * (hd + 1) * tile, dtype)
        self.proj = np.empty((n, s, h), dtype)
        self.ctx = np.empty((n, s, heads, hd), dtype)
        self.mask = np.triu(np.ones((tile, tile), dtype=bool), k=1)
        self.keep = np.ones((tile, n, heads, tile), dtype)
        self.keep.transpose(1, 2, 3, 0)[..., self.mask] = 0
        self.act = np.empty((b, s, h), dtype)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (*self.wide, self.tile_ctx, self.proj, self.ctx,
                                      self.mask, self.keep, self.act))


def _qkv_rows(hidden: int, heads: int) -> int:
    """Rows of the fused QKV weight: qᵀ, kᵀ, and vᵀ with a ones row per head."""
    return 2 * hidden + heads * (hidden // heads + 1)


def _fuse_qkv(wq, wk, wv, bq, bk, bv, heads: int) -> tuple[np.ndarray, np.ndarray]:
    """The weight and bias whose product with a sequence's xᵀ [H, S] is its
    attention input, head-major: [2H + heads·(hd + 1), H] and the matching
    bias, from the [H, H] projections and their [H] biases.

    The rows are Wqᵀ scaled by log2(e)/√hd, then Wkᵀ, then for each head
    its hd rows of Wvᵀ and a zero row; the bias is bq, scaled the same
    way, then bk, then for each head its bv and a 1. So the product
    gives qᵀ in the base-2 units of :func:`_self_attention`'s exponent,
    kᵀ, and each head's vᵀ over a row of ones.
    """
    h, dtype = wq.shape[0], wq.dtype
    hd, rows = h // heads, _qkv_rows(h, heads)
    w, bias = np.empty((rows, h), dtype), np.empty(rows, dtype)
    scale = dtype.type(LOG2E / np.sqrt(hd))
    np.multiply(wq.T, scale, out=w[:h])
    np.copyto(w[h:2 * h], wk.T)
    w_vals, b_vals = w[2 * h:].reshape(heads, hd + 1, h), bias[2 * h:].reshape(heads, hd + 1)
    np.copyto(w_vals[:, :hd], wv.T.reshape(heads, hd, h))
    w_vals[:, hd] = 0
    np.multiply(bq, scale, out=bias[:h])
    np.copyto(bias[h:2 * h], bk)
    np.copyto(b_vals[:, :hd], bv.reshape(heads, hd))
    b_vals[:, hd] = 1
    return w, bias


def _head(buf: np.ndarray, shape) -> np.ndarray:
    """The first elements of the flat `buf` as a contiguous array of `shape`."""
    return buf[:math.prod(shape)].reshape(shape)


def _score_bound(qt: np.ndarray, kt: np.ndarray) -> float:
    """An upper bound on every |q_i · k_j| of the head-major qᵀ and kᵀ
    [B, heads, hd, S]: by Cauchy–Schwarz, the largest product of the
    longest query and the longest key of one sequence and head. NaN or
    inf when an entry is not finite."""
    qq = np.einsum("bhds,bhds->bhs", qt, qt).max(axis=-1)
    kk = np.einsum("bhds,bhds->bhs", kt, kt).max(axis=-1)
    return float(np.sqrt((qq * kk).max()))


def _self_attention(x: np.ndarray, lw: LayerWeights, heads: int,
                    ws: ForwardWorkspace) -> np.ndarray:
    """Causal multi-head attention with per-head scale 1/sqrt(H/heads).

    `x` is one slab of `ws`'s batch, and the result is a view of
    `ws.proj`. One product of the fused weight ``lw.w_qkv`` (:func:`_fuse_qkv`)
    and the slab's xᵀ, plus the fused bias ``lw.b_qkv``,
    writes qᵀ, pre-scaled, kᵀ and vᵀ with its ones row head-major into
    ``ws.wide[1]``. Queries then go in tiles of ATTN_TILE rows. A tile
    [r0, r1) scores only the keys [0, r1), since later keys are masked
    for every row in it, and masks only its diagonal block [r0, r1). So
    the masked upper triangle is never computed and no [B, heads, S, S]
    tensor is built.

    A tile's scores are stored key-major: key j of every sequence, head
    and query is one contiguous run. So the mask and the exponent run as
    whole-buffer passes instead of one short pass per row.

    The scores come in base 2: q carries log2(e), so 2^score is e^(q·k/√hd),
    as in FlashAttention-2. The softmax division is deferred to the
    context: vᵀ's ones row makes the product with the values give each
    row's sum next to its numerator, and only the [hd, tile] context is
    divided. Before the tiles, :func:`_score_bound` bounds every score of
    the call. When the bound is at most EXP_SAFE·log2(e), each tile takes
    exp2 of all its scores as they are, then multiplies its diagonal
    block by ``ws.keep``: every weight lies in [2^-bound, 2^bound], so
    the exponent meets no -inf and nothing underflows, which keeps numpy
    on its fast exp2; no row sum can overflow, and each row keeps its
    diagonal weight, so no sum is 0; the masked weights are exact zeros.
    Otherwise, and when the bound is NaN, each tile takes its scores back
    to base e, writes -inf over its masked ones and shifts them by their
    row max before the exponent (:func:`kernels.exp_rows`); every row
    keeps a 1 at its max, so its sum is at least 1. Both paths agree with
    the full formula to rounding: the scale is applied to q, not to the
    scores, and BLAS sums the rows. The bound is taken over the call's
    whole slab, so slabs change no bit of the taps unless their bounds
    fall on both sides of the limit.
    """
    b, s, h = x.shape
    hd = h // heads
    w, bias = lw.w_qkv, lw.b_qkv
    # BLAS takes a contiguous xᵀ in about half the time of a transposed view
    xt = _head(ws.proj.reshape(-1), (b, h, s))
    np.copyto(xt, x.transpose(0, 2, 1))
    t_all = kernels.fast_matmul(np.broadcast_to(w, (b,) + w.shape), xt,
                                out=_head(ws.wide[1], (b, w.shape[0], s)))
    t_all += bias[:, None]
    qt = t_all[:, :h].reshape(b, heads, hd, s)
    kt = t_all[:, h:2 * h].reshape(b, heads, hd, s)
    vt = t_all[:, 2 * h:].reshape(b, heads, hd + 1, s)
    k = kt.swapaxes(-1, -2)  # [B, heads, S, hd]
    ctx = ws.ctx[:b]
    shift = not _score_bound(qt, kt) <= EXP_SAFE * LOG2E
    for r0 in range(0, s, ATTN_TILE):
        r1 = min(r0 + ATTN_TILE, s)
        t = r1 - r0
        # [B, heads, keys, queries], stored as [keys, B, heads, queries]
        mem = _head(ws.wide[0], (r1, b, heads, t))
        scores_t = mem.transpose(1, 2, 0, 3)
        kernels.fast_matmul(k[:, :, :r1], qt[..., r0:r1], out=scores_t)
        if shift:
            mem *= x.dtype.type(LN2)
            scores = scores_t.swapaxes(-1, -2)  # [B, heads, queries, keys]
            np.copyto(scores[..., r0:], x.dtype.type(-np.inf), where=ws.mask[:t, :t])
            kernels.exp_rows(scores, out=scores)
        else:
            np.exp2(mem, out=mem)
            mem[r0:] *= ws.keep[:t, :b, :, :t]
        num = kernels.fast_matmul(vt[..., :r1], scores_t,
                                  out=_head(ws.tile_ctx, (b, heads, hd + 1, t)))
        # numpy buffers a broadcast divide in up to bufsize elements per
        # operand; groups of half that many quotients halve the buffers
        group = max(np.getbufsize() // (2 * h * t), 1)
        for g in range(0, b, group):
            np.divide(num[g:g + group, :, :hd], num[g:g + group, :, hd:],
                      out=ctx[g:g + group, r0:r1].transpose(0, 2, 3, 1))
    out = kernels.fast_matmul(ctx.reshape(b, s, h), lw.w_o, out=ws.proj[:b])
    out += lw.b_o
    return out


def layer_forward(x: np.ndarray, lw: LayerWeights, heads: int, ws: ForwardWorkspace,
                  out: np.ndarray | None = None) -> np.ndarray:
    """One decoder layer: post-norm attention then post-norm FFN.

    `x` is one slab of `ws`'s batch: at most ``ws.step`` of its
    sequences. Every intermediate lives in `ws`, and the result is
    written into `out` (a fresh array when None), which may be `x`
    itself: `x` is read only before the last layer norm writes `out`.
    Biases and residuals are added in place, in the order of the
    formula."""
    b, s, h = x.shape
    f = lw.w_up.shape[1]
    a = _self_attention(x, lw, heads, ws)
    a += x
    u = kernels.layer_norm(a, lw.ln1_gamma, lw.ln1_beta, kernels.LN_EPS,
                           out=ws.ctx[:b].reshape(b, s, h))
    up = kernels.fast_matmul(u, lw.w_up, out=_head(ws.wide[0], (b, s, f)))
    up += lw.b_up
    act = kernels.gelu(up, out=_head(ws.wide[1], (b, s, f)))
    ffn = kernels.fast_matmul(act, lw.w_down, out=ws.proj[:b])
    ffn += lw.b_down
    ffn += u
    return kernels.layer_norm(ffn, lw.ln2_gamma, lw.ln2_beta, kernels.LN_EPS, out=out)


def slab_sequences(seq_len: int, config: BackboneConfig, dtype) -> int:
    """Sequences per slab: as many as keep a layer's largest buffers (the
    FFN expansion, one attention tile's scores, or the fused QKV product)
    within SLAB_BYTES."""
    widest = max(config.ffn_dim, config.heads * ATTN_TILE,
                 _qkv_rows(config.hidden, config.heads))
    return max(1, SLAB_BYTES // (seq_len * widest * np.dtype(dtype).itemsize))


def forward_collect(weights: BackboneWeights, tokens: np.ndarray, ws: ForwardWorkspace,
                    emit) -> None:
    """Run the frozen decoder and hand each tap at the configured cuts to
    ``emit(block index, [B, S, H] activation)``, in block order.

    Weights are read-only here. Block index 0 is the embedding tap, and
    block index c is the activation after decoder layer c.
    Every buffer comes from `ws`, which must be built for the weights'
    config and dtype and the batch's (B, S). A tap is a read-only view of
    ``ws.act``, emitted right after the layer that makes it and before the
    next layer writes over it: `emit` may only read it, and must copy what
    it keeps. While `emit` runs no layer holds a slab buffer, so `emit` may
    use them, ``ws.wide`` among them, as scratch.

    Each layer runs over slabs of ``ws.step`` whole sequences, in place in
    ``ws.act``: a slab's last layer norm writes its output over its rows,
    which the layer no longer reads (:func:`layer_forward`). So the layer
    loop allocates nothing, the forward holds one [B, S, H] plane, and its
    working set stays cache-sized. A layer treats each sequence on its
    own, so the taps are bit-equal to running the whole batch, or each
    sequence alone, unless the attention's score bound falls on both
    sides of its limit across the slabs; then they agree to rounding.
    """
    cfg = weights.config
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be [B, S], got shape {tokens.shape}")
    b, s = tokens.shape
    if s > cfg.max_seq:
        raise ValueError(f"sequence length {s} exceeds configured max {cfg.max_seq}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")

    dtype = weights.token_embedding.dtype
    if (ws.config, ws.shape, ws.dtype) != (cfg, (b, s), dtype):
        raise ValueError(f"workspace built for another config or {ws.shape} of {ws.dtype}")
    x = ws.act
    # the ids are in range, so "clip" never clips; it writes straight into x
    np.take(weights.token_embedding, tokens, axis=0, out=x, mode="clip")
    x += weights.pos_embedding[:s]
    tap = x.view()
    tap.flags.writeable = False
    emit(0, tap)
    for i, lw in enumerate(weights.layers, start=1):
        for b0 in range(0, b, ws.step):
            slab = x[b0:b0 + ws.step]
            layer_forward(slab, lw, cfg.heads, ws, out=slab)
        if i in cfg.block_cuts:
            emit(i, tap)


def save_backbone(path, weights: BackboneWeights) -> None:
    with open_binary(path, "wb") as fh:
        write_magic(fh, WEIGHTS_MAGIC, WEIGHTS_VERSION)
        fh.write(weights.config.config_block())
        for t in weights.all_tensors():
            write_f32(fh, t)


def load_backbone(path, config: BackboneConfig | None = None) -> BackboneWeights:
    """Load a weight file; `config`, when given, must match the stored one."""
    with open_binary(path, "rb") as fh:
        expect_magic(fh, WEIGHTS_MAGIC, WEIGHTS_VERSION)
        stored = BackboneConfig.from_config_block(fh)
        if config is not None and config != stored:
            raise FormatError(
                f"weight file config {stored} does not match requested {config}"
            )
        weights = _assemble(
            stored, ((i, name, read_f32(fh, shape)) for i, name, shape in _layout(stored))
        )
        trailing = fh.read(1)
        if trailing:
            raise FormatError("trailing bytes after final tensor")
    hd = stored.hidden // stored.heads
    ones = slice(2 * stored.hidden + hd, None, hd + 1)  # each head's constant row
    # any other row would give the softmax a wrong denominator
    if any(lw.w_qkv[ones].any() or (lw.b_qkv[ones] != 1).any() for lw in weights.layers):
        raise FormatError("fused QKV constant rows are not zero weights with bias 1")
    return weights
