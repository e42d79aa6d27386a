"""A frozen GPT-style decoder that exposes intermediate activations.

The backbone is never trained. Each forward pass embeds a token batch,
runs the decoder layers, and records ("taps") the running activation at
configured block boundaries; those taps feed the trainable side-network
downstream. Layers follow the post-norm composition

    u        = LN1(MSA(b) + b)
    b_next   = LN2(FFN(u) + u)

with causal scaled dot-product attention and learned positional
embeddings.

The forward is cache-blocked. Each layer runs over slabs of whole
sequences, sized from the input's shape and dtype so that a slab's
widest buffer is about SLAB_BYTES, and attention runs over query tiles
of ATTN_TILE rows. A layer treats each sequence on its own, so the slabs
change no bit of the taps, unless the attention's score bound, taken
per slab, falls on both sides of EXP_SAFE (see :func:`_self_attention`).

One :class:`Workspace` per forward holds every intermediate of a slab,
so the layer loop allocates nothing but the layer outputs. Tiles, slabs
and layers reuse its buffers, and each slab's last layer norm writes
straight into its rows of the layer output.

The attention defers the softmax division to the context, as
FlashAttention does: a tile's scores are exponentiated, and one product
with the values, which carry a ones row, gives both the numerator and
the row sum. The scale is folded into q. The usual shift of each row by
its max only guards exp against overflow, so it is skipped when a
Cauchy–Schwarz bound on the scores, max ‖q_i‖·max ‖k_j‖, is at most
EXP_SAFE: then no score can overflow a row sum or underflow a whole row
to zero. A larger or non-finite bound takes the max-shifted path. So the
attention agrees with the full formula to rounding, not bit for bit:
within 1e-6 × max |output| (the tests' bound; measured gaps are about
2e-7 of it).
"""

from __future__ import annotations

import hashlib
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
WEIGHTS_VERSION = 1

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


@dataclass(frozen=True)
class BackboneConfig:
    vocab_size: int
    hidden: int
    layers: int
    heads: int
    max_seq: int
    ffn_dim: int = 0  # 0 means the conventional 4 * hidden
    # ascending layer indices after which a tap is emitted; last must be
    # the final layer
    block_cuts: tuple[int, ...] = ()
    tap_embedding: bool = True

    def __post_init__(self):
        ffn = self.ffn_dim or 4 * self.hidden
        object.__setattr__(self, "ffn_dim", ffn)
        cuts = tuple(int(c) for c in self.block_cuts) or (self.layers,)
        object.__setattr__(self, "block_cuts", cuts)
        if self.hidden % self.heads:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if not (1 <= len(cuts) <= self.layers):
            raise ValueError(f"need between 1 and {self.layers} block cuts")
        if list(cuts) != sorted(set(cuts)) or cuts[0] < 1 or cuts[-1] != self.layers:
            raise ValueError(f"block cuts {cuts} must ascend and end at layer {self.layers}")

    @property
    def num_blocks(self) -> int:
        return len(self.block_cuts)

    @property
    def gamma(self) -> int:
        """Taps per forward pass: one per block, plus the embedding tap."""
        return self.num_blocks + (1 if self.tap_embedding else 0)

    def config_block(self) -> bytes:
        """Canonical binary form; also the digest input for handshakes."""
        out = struct.pack(
            "<7I", self.vocab_size, self.hidden, self.layers, self.heads,
            self.ffn_dim, self.max_seq, self.num_blocks,
        )
        out += struct.pack(f"<{self.num_blocks}I", *self.block_cuts)
        out += struct.pack("<B", 1 if self.tap_embedding else 0)
        return out

    def digest(self) -> bytes:
        return hashlib.sha256(self.config_block()).digest()

    @classmethod
    def from_config_block(cls, fh) -> "BackboneConfig":
        vocab, hidden, layers, heads, ffn, max_seq, m = struct.unpack(
            "<7I", read_exact(fh, 28)
        )
        cuts = struct.unpack(f"<{m}I", read_exact(fh, 4 * m))
        (flags,) = struct.unpack("<B", read_exact(fh, 1))
        return cls(
            vocab_size=vocab, hidden=hidden, layers=layers, heads=heads,
            max_seq=max_seq, ffn_dim=ffn, block_cuts=cuts,
            tap_embedding=bool(flags & 1),
        )


@dataclass
class LayerWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    b_q: np.ndarray
    b_k: np.ndarray
    b_v: np.ndarray
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
    final_ln_gamma: np.ndarray   # stored in the weight file; the forward never applies it
    final_ln_beta: np.ndarray

    def all_tensors(self):
        """Every tensor in weight-file order."""
        for layer, name, _ in _layout(self.config):
            yield getattr(self if layer is None else self.layers[layer], name)


def _layout(config: BackboneConfig):
    """The one shape declaration of the weight set: (layer index, or None
    for a model-level tensor, name, shape) in weight-file order."""
    h, f = config.hidden, config.ffn_dim
    per_layer = {
        "w_q": (h, h), "w_k": (h, h), "w_v": (h, h), "w_o": (h, h),
        "b_q": (h,), "b_k": (h,), "b_v": (h,), "b_o": (h,),
        "ln1_gamma": (h,), "ln1_beta": (h,),
        "w_up": (h, f), "b_up": (f,), "w_down": (f, h), "b_down": (h,),
        "ln2_gamma": (h,), "ln2_beta": (h,),
    }
    yield None, "token_embedding", (config.vocab_size, h)
    yield None, "pos_embedding", (config.max_seq, h)
    for i in range(config.layers):
        for name, shape in per_layer.items():
            yield i, name, shape
    yield None, "final_ln_gamma", (h,)
    yield None, "final_ln_beta", (h,)


def _assemble(config: BackboneConfig, tensors) -> BackboneWeights:
    """Weights from (layer index or None, name, array) triples."""
    model, layers = {}, [{} for _ in range(config.layers)]
    for layer, name, t in tensors:
        (model if layer is None else layers[layer])[name] = t
    return BackboneWeights(config, layers=[LayerWeights(**d) for d in layers], **model)


def init_backbone(config: BackboneConfig, seed: int) -> BackboneWeights:
    """Gaussian(0, 0.02) projection weights, zero biases, unit LN gains."""
    rng = kernels.make_rng(seed)

    def make(name, shape):
        if name.startswith("w_") or name.endswith("_embedding"):
            return rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)
        if name.endswith("_gamma"):
            return np.ones(shape, dtype=np.float32)
        return np.zeros(shape, dtype=np.float32)

    # the seed's stream draws every layer before the embeddings
    order = sorted(_layout(config), key=lambda entry: entry[0] is None)
    return _assemble(config, ((i, name, make(name, shape)) for i, name, shape in order))


class Workspace:
    """The buffers of one decoder layer over a slab of up to `n` sequences
    of length `s`, reused across attention tiles, slabs and layers.

    Each buffer holds, in turn, arrays that are never alive together:

    - wide[0]: one attention tile's scores, then the FFN expansion;
    - wide[1]: the attention's head-major qᵀ and k, then the gelu of the
      expansion;
    - proj: each projection, then the attention output, then the FFN
      output;
    - ctx: the attention context, then u, the first layer norm's output.

    With the usual FFN width of 4H or more, each wide one is at most
    SLAB_BYTES when `n` comes from :func:`slab_sequences`. vᵀ has a buffer
    of its own, because it keeps a row of ones under its hd rows: so the
    product of the values and a tile's weights also sums each of the
    tile's weight rows.

    Two constant arrays mask a tile's diagonal block, where key j comes
    after query i when j > i. `causal` is the block in the memory
    order of a tile's key-major scores, [tile, n, heads, tile], holding
    -inf at (j, ·, ·, i) for j > i and 0 elsewhere: one contiguous add
    masks the block and leaves the value of every finite score. Its
    [tile, n × heads × tile] floats are 64 KiB at n = 4 and 256 KiB at
    n = 16 in float32. `mask` is the same pattern as a [query, key] bool
    array, for the max-shifted path, which writes -inf where the scores
    may not be finite.
    """

    def __init__(self, n: int, s: int, hidden: int, heads: int, ffn_dim: int, dtype):
        hd = hidden // heads
        tile = min(ATTN_TILE, s)
        wide = n * s * max(ffn_dim, heads * tile, 2 * hidden)
        self.wide = (np.empty(wide, dtype), np.empty(wide, dtype))
        self.tile_ctx = np.empty(n * heads * (hd + 1) * tile, dtype)
        self.proj = np.empty((n, s, hidden), dtype)
        self.ctx = np.empty((n, s, heads, hd), dtype)
        self.vt = np.empty((n, heads, hd + 1, s), dtype)
        self.vt[:, :, hd] = 1
        self.mask = np.triu(np.ones((tile, tile), dtype=bool), k=1)
        self.causal = np.zeros((tile, n, heads, tile), dtype)
        self.causal.transpose(1, 2, 3, 0)[..., self.mask] = -np.inf

    @classmethod
    def for_input(cls, x: np.ndarray, lw: LayerWeights, heads: int) -> "Workspace":
        """A workspace for `x` taken as one slab."""
        b, s, h = x.shape
        return cls(b, s, h, heads, lw.w_up.shape[1], x.dtype)


def _head(buf: np.ndarray, shape) -> np.ndarray:
    """The first elements of the flat `buf` as a contiguous array of `shape`."""
    return buf[:np.prod(shape)].reshape(shape)


def _score_bound(qt: np.ndarray, k: np.ndarray) -> float:
    """An upper bound on every |q_i · k_j| of the head-major qᵀ [B, heads,
    hd, S] and k [B, heads, S, hd]: by Cauchy–Schwarz, the largest
    product of the longest query and the longest key of one sequence and
    head. NaN or inf when an entry is not finite."""
    qq = np.einsum("bhds,bhds->bhs", qt, qt).max(axis=-1)
    kk = np.einsum("bhsd,bhsd->bhs", k, k).max(axis=-1)
    return float(np.sqrt((qq * kk).max()))


def _self_attention(x: np.ndarray, lw: LayerWeights, heads: int,
                    ws: Workspace | None = None) -> np.ndarray:
    """Causal multi-head attention with per-head scale 1/sqrt(H/heads).

    The result is a view of `ws.proj` (of a fresh workspace when `ws` is
    None). qᵀ, pre-scaled, k and vᵀ are written head-major into the
    workspace once per call. Queries then go in tiles of ATTN_TILE rows.
    A tile [r0, r1) scores only the keys [0, r1), since later keys are
    masked for every row in it, and masks only its diagonal block
    [r0, r1). So the masked upper triangle is never computed and no
    [B, heads, S, S] tensor is built.

    A tile's scores are stored key-major: key j of every sequence, head
    and query is one contiguous run. So the mask and the exponent run as
    whole-buffer passes instead of one short pass per row.

    The softmax division is deferred to the context: vᵀ's ones row makes
    the product with the values give each row's sum next to its
    numerator, and only the [hd, tile] context is divided. Before the
    tiles, :func:`_score_bound` bounds every score of the call. When the
    bound is at most EXP_SAFE, each tile adds ``ws.causal`` to its
    diagonal block and exponentiates its scores as they are: every
    weight then lies in [e^-EXP_SAFE, e^EXP_SAFE] or is an exact 0 where
    masked, so no row sum can overflow, and each row keeps its diagonal
    weight, so no sum is 0. Otherwise, and when the bound is NaN, each
    tile writes -inf over its masked scores and shifts them by their row
    max before the exponent (:func:`kernels.exp_rows`); every row keeps
    a 1 at its max, so its sum is at least 1. Both paths agree with the
    full formula to rounding: the scale is applied to q, not to the
    scores, and BLAS sums the rows. The bound is taken over the call's
    whole slab, so slabs change no bit of the taps unless their bounds
    fall on both sides of EXP_SAFE.
    """
    if ws is None:
        ws = Workspace.for_input(x, lw, heads)
    b, s, h = x.shape
    hd = h // heads
    proj = ws.proj[:b]

    def project(w, bias):  # [B, S, H] -> [B, S, heads, hd], a view of proj
        t = kernels.fast_matmul(x, w, out=proj)
        t += bias
        return t.reshape(b, s, heads, hd)

    qk = _head(ws.wide[1], (2, b * s * h))
    qt, k = qk[0].reshape(b, heads, hd, s), qk[1].reshape(b, heads, s, hd)
    vt, ctx = ws.vt[:b], ws.ctx[:b]
    np.multiply(project(lw.w_q, lw.b_q).transpose(0, 2, 3, 1),
                x.dtype.type(1.0 / np.sqrt(hd)), out=qt)         # [B, heads, hd, S]
    np.copyto(k, project(lw.w_k, lw.b_k).transpose(0, 2, 1, 3))   # [B, heads, S, hd]
    np.copyto(vt[:, :, :hd], project(lw.w_v, lw.b_v).transpose(0, 2, 3, 1))
    shift = not _score_bound(qt, k) <= EXP_SAFE
    for r0 in range(0, s, ATTN_TILE):
        r1 = min(r0 + ATTN_TILE, s)
        t = r1 - r0
        # [B, heads, keys, queries], stored as [keys, B, heads, queries]
        mem = _head(ws.wide[0], (r1, b, heads, t))
        scores_t = mem.transpose(1, 2, 0, 3)
        kernels.fast_matmul(k[:, :, :r1], qt[..., r0:r1], out=scores_t)
        if shift:
            scores = scores_t.swapaxes(-1, -2)  # [B, heads, queries, keys]
            np.copyto(scores[..., r0:], x.dtype.type(-np.inf), where=ws.mask[:t, :t])
            kernels.exp_rows(scores, out=scores)
        else:
            np.add(mem[r0:], ws.causal[:t, :b, :, :t], out=mem[r0:])
            np.exp(mem, out=mem)
        num = kernels.fast_matmul(vt[..., :r1], scores_t,
                                  out=_head(ws.tile_ctx, (b, heads, hd + 1, t)))
        np.divide(num[:, :, :hd], num[:, :, hd:], out=ctx[:, r0:r1].transpose(0, 2, 3, 1))
    out = kernels.fast_matmul(ctx.reshape(b, s, h), lw.w_o, out=proj)
    out += lw.b_o
    return out


def layer_forward(x: np.ndarray, lw: LayerWeights, heads: int,
                  ws: Workspace | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """One decoder layer: post-norm attention then post-norm FFN.

    Every intermediate lives in `ws` (a fresh workspace when None), and
    the result is written into `out` (a fresh array when None). Biases
    and residuals are added in place, in the order of the formula."""
    if ws is None:
        ws = Workspace.for_input(x, lw, heads)
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
    FFN expansion, or one attention tile's scores) within SLAB_BYTES."""
    widest = max(config.ffn_dim, config.heads * ATTN_TILE)
    return max(1, SLAB_BYTES // (seq_len * widest * np.dtype(dtype).itemsize))


def forward_collect(weights: BackboneWeights,
                    tokens: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Run the frozen decoder and record taps at the configured cuts.

    Returns (block index, [B, S, H] activation) pairs in block order.
    Weights are read-only here; the returned activations are fresh
    arrays. Block index 0 is the embedding tap (when enabled) and block
    index c is the activation after decoder layer c.

    Each layer runs over slabs of :func:`slab_sequences` whole sequences,
    in one :class:`Workspace` sized for a slab, and each slab's last
    layer norm writes straight into its rows of the layer's [B, S, H]
    output. So the layer loop allocates only the outputs, and its working
    set stays cache-sized. A layer treats each sequence on its own, so
    the taps are bit-equal to running the whole batch, or each sequence
    alone, unless the attention's score bound falls on both sides of
    EXP_SAFE across the slabs; then they agree to rounding.
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

    x = weights.token_embedding[tokens]  # the gather makes a fresh array
    x += weights.pos_embedding[:s]
    taps = []
    if cfg.tap_embedding:
        taps.append((0, x))  # a fresh array, and no layer writes its input

    step = slab_sequences(s, cfg, x.dtype)
    ws = Workspace(min(step, b), s, cfg.hidden, cfg.heads, cfg.ffn_dim, x.dtype)
    cuts = set(cfg.block_cuts)
    for i, lw in enumerate(weights.layers, start=1):
        y = np.empty_like(x)
        for b0 in range(0, b, step):
            layer_forward(x[b0:b0 + step], lw, cfg.heads, ws, out=y[b0:b0 + step])
        x = y
        if i in cuts:
            taps.append((i, x))
    return taps


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
    return weights
