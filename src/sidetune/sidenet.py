"""The trainable bypass: stacked bottleneck adapters over backbone taps.

Each adapter refines the running side activation ``s`` with the matching
(dequantized) backbone tap ``a``:

    u      = s + a
    s_next = LN( sigma(u W_down) W_up + u )

The final side state is blended with the last backbone tap through a
learnable sigmoid gate, mean-pooled over positions, and classified by a
linear head. Forward caches enough intermediates for an exact analytic
reverse pass; backbone taps are constants, so no gradient ever points at
the device.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import kernels
from .backbone import BackboneWeights, forward_collect
from .binio import (
    FormatError,
    expect_magic,
    open_binary,
    read_exact,
    read_f32,
    write_f32,
    write_magic,
)
from .quantize import dequantize, quantize

CHECKPOINT_MAGIC = b"MBSN"
CHECKPOINT_VERSION = 1

_SIGMA_CODES = {"gelu": 0, "relu": 1}
_SIGMA_NAMES = {v: k for k, v in _SIGMA_CODES.items()}


@dataclass(frozen=True)
class SideConfig:
    hidden: int
    bottleneck: int
    adapters: int
    classes: int
    nonlinearity: str = "gelu"
    init_std: float = 0.02

    def __post_init__(self):
        if self.bottleneck >= self.hidden:
            raise ValueError(
                f"bottleneck {self.bottleneck} must be below hidden {self.hidden}"
            )
        if self.nonlinearity not in _SIGMA_CODES:
            raise ValueError(f"unsupported adapter nonlinearity {self.nonlinearity!r}")
        if self.classes < 1:
            raise ValueError("head needs at least one output")


@dataclass
class AdapterParams:
    w_down: np.ndarray  # [H, m]
    w_up: np.ndarray    # [m, H]
    ln_gamma: np.ndarray
    ln_beta: np.ndarray


def _layout(config: SideConfig):
    """The one shape declaration of the side network: (adapter index, or
    None for a model-level tensor, name, shape) in checkpoint order. The
    scalar combine gate comes last; the checkpoint keeps it in its header."""
    h, m = config.hidden, config.bottleneck
    per_adapter = {"w_down": (h, m), "w_up": (m, h), "ln_gamma": (h,), "ln_beta": (h,)}
    for i in range(config.adapters):
        for name, shape in per_adapter.items():
            yield i, name, shape
    yield None, "head_weight", (h, config.classes)
    yield None, "head_bias", (config.classes,)
    yield None, "combine_gate", ()


class SideNetworkParams:
    """All trainable state as named views into one 1-D array `flat`, laid
    out by :func:`_layout`. Gradients and the Adam moments share the
    layout, so every whole-state operation is one vector expression.

    `flat` defaults to float32 zeros; any float dtype is accepted.
    """

    def __init__(self, config: SideConfig, flat: np.ndarray | None = None):
        layout = list(_layout(config))
        size = sum(math.prod(shape) for _, _, shape in layout)
        if flat is None:
            flat = np.zeros(size, dtype=np.float32)
        if flat.shape != (size,):
            raise ValueError(f"flat state of shape {flat.shape}, expected ({size},)")
        self.flat = flat
        self._views = []
        model, adapters = {}, [{} for _ in range(config.adapters)]
        off = 0
        for i, name, shape in layout:
            n = math.prod(shape)
            view = flat[off:off + n].reshape(shape)
            off += n
            (model if i is None else adapters[i])[name] = view
            self._views.append((name if i is None else f"adapter{i}.{name}", view))
        self.adapters = [AdapterParams(**d) for d in adapters]
        self.head_weight = model["head_weight"]    # [H, C]
        self.head_bias = model["head_bias"]        # [C]
        self.combine_gate = model["combine_gate"]  # scalar logit, shape ()

    def named_tensors(self):
        """(name, view) pairs in layout order."""
        yield from self._views


@dataclass
class BackwardCache:
    """Intermediates saved by a training-mode forward pass: only what
    :func:`side_backward` reads."""

    config: SideConfig
    final_tap: np.ndarray             # tap_M, blended into the output
    final_state: np.ndarray           # s_M
    adapter_inputs: list[np.ndarray]  # u_l = s_{l-1} + tap_l
    pre_acts: list[np.ndarray]        # u_l @ w_down
    acts: list[np.ndarray]            # sigma(pre)
    ln_inputs: list[np.ndarray]       # core + u, fed to each layer norm
    gate_blend: float                 # sigmoid(combine_gate)
    pooled: np.ndarray
    logits: np.ndarray


def init_side(config: SideConfig, seed: int) -> SideNetworkParams:
    """Zero-mean Gaussian projections, identity layer norms, zero head.
    Tensors are drawn in layout order."""
    rng = kernels.make_rng(seed)
    params = SideNetworkParams(config)
    for name, t in params.named_tensors():
        leaf = name.rpartition(".")[2]
        if leaf.startswith("w_"):
            t[...] = rng.normal(0.0, config.init_std, size=t.shape)
        elif leaf.endswith("_gamma"):
            t[...] = 1
    return params


def side_forward(
    taps: list[np.ndarray],
    params: SideNetworkParams,
    config: SideConfig,
    training: bool = False,
):
    """Run the side stack over dequantized taps.

    `taps` holds either M arrays (one per adapter) or M+1 when the first
    entry is the embedding tap seeding the side state; extra or missing
    taps are a configuration error. Returns logits [B, C], plus a
    :class:`BackwardCache` when `training` is set.
    """
    m = config.adapters
    if len(taps) == m + 1:
        s = taps[0]
        block_taps = taps[1:]
    elif len(taps) == m:
        s = np.zeros_like(taps[0])
        block_taps = taps
    else:
        raise ValueError(
            f"got {len(taps)} taps for {m} adapters (expected {m} or {m + 1})"
        )

    adapter_inputs, pre_acts, acts, ln_inputs = [], [], [], []
    for tap, ad in zip(block_taps, params.adapters):
        u = s + tap
        pre = kernels.fast_matmul(u, ad.w_down)
        act = kernels.nonlinearity(pre, config.nonlinearity)
        core = kernels.fast_matmul(act, ad.w_up)
        y = core + u
        s = kernels.layer_norm(y, ad.ln_gamma, ad.ln_beta, kernels.LN_EPS)
        adapter_inputs.append(u)
        pre_acts.append(pre)
        acts.append(act)
        ln_inputs.append(y)

    blend = kernels.sigmoid(params.combine_gate)
    final_tap = block_taps[-1]
    z = blend * final_tap + (1 - blend) * s
    pooled = kernels.mean_pool(z)
    logits = kernels.fast_matmul(pooled, params.head_weight) + params.head_bias

    if not training:
        return logits, None
    cache = BackwardCache(
        config=config, final_tap=final_tap, final_state=s,
        adapter_inputs=adapter_inputs, pre_acts=pre_acts, acts=acts,
        ln_inputs=ln_inputs, gate_blend=float(blend), pooled=pooled,
        logits=logits,
    )
    return logits, cache


def _layer_norm_backward(d_out, x, gamma, eps):
    """Gradients of layer_norm wrt its input and affine parameters."""
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
    d_x = (d_xhat - mean1 - xhat * mean2) * inv_std
    return d_x, d_gamma, d_beta


def side_backward(
    cache: BackwardCache,
    d_logits: np.ndarray,
    params: SideNetworkParams,
) -> SideNetworkParams:
    """Exact reverse pass; returns gradients shaped like `params`.

    Backbone taps are treated as constants -- the gradient set contains
    only side-network tensors.
    """
    if cache is None:
        raise ValueError("backward needs the cache from a training-mode forward")
    cfg = cache.config
    if len(cache.acts) != len(params.adapters) or d_logits.shape != cache.logits.shape:
        raise ValueError("cache does not match the given parameters and output grad")

    grads = SideNetworkParams(cfg, np.zeros_like(params.flat))
    pooled = cache.pooled
    s_len = cache.final_tap.shape[1]

    # head
    grads.head_weight[...] = kernels.fast_matmul(pooled.T, d_logits)
    grads.head_bias[...] = d_logits.sum(axis=0, dtype=d_logits.dtype)
    d_pooled = kernels.fast_matmul(d_logits, params.head_weight.T)

    # mean pooling spreads the gradient uniformly over positions
    d_z = np.broadcast_to(
        d_pooled[:, None, :] / d_logits.dtype.type(s_len),
        cache.final_tap.shape,
    ).copy()

    # gate blend z = a * tap_M + (1 - a) * s_M
    a = d_logits.dtype.type(cache.gate_blend)
    d_s = (1 - a) * d_z
    d_blend = (d_z * (cache.final_tap - cache.final_state)).sum(dtype=d_logits.dtype)
    grads.combine_gate[...] = d_blend * a * (1 - a)

    for l in reversed(range(len(params.adapters))):
        ad = params.adapters[l]
        d_y, d_gamma, d_beta = _layer_norm_backward(
            d_s, cache.ln_inputs[l], ad.ln_gamma, kernels.LN_EPS
        )
        g = grads.adapters[l]
        g.ln_gamma[...] = d_gamma
        g.ln_beta[...] = d_beta

        # y = act @ w_up + u
        u = cache.adapter_inputs[l]
        act = cache.acts[l]
        rows = lambda t: t.reshape(-1, t.shape[-1])
        g.w_up[...] = kernels.fast_matmul(rows(act).T, rows(d_y))
        d_act = kernels.fast_matmul(d_y, ad.w_up.T)
        d_pre = d_act * kernels.nonlinearity_grad(cache.pre_acts[l], cfg.nonlinearity)
        g.w_down[...] = kernels.fast_matmul(rows(u).T, rows(d_pre))
        d_u = d_y + kernels.fast_matmul(d_pre, ad.w_down.T)

        d_s = d_u  # taps are constants; only s_{l-1} carries gradient
    return grads


def combined_infer(
    backbone_weights: BackboneWeights,
    side_params: SideNetworkParams,
    side_config: SideConfig,
    tokens: np.ndarray,
    scheme: str = "none_fp16",
) -> np.ndarray:
    """Device-style prediction: frozen forward, quantize/dequantize each
    tap with the session scheme, then the side stack in inference mode.

    Bit-identical to the logits the server computes for the same batch
    and scheme, because it is the same code path.
    """
    taps = [dequantize(quantize(t, scheme)) for _, t in forward_collect(backbone_weights, tokens)]
    logits, _ = side_forward(taps, side_params, side_config, training=False)
    return logits


def save_side(path, params: SideNetworkParams, config: SideConfig) -> None:
    """Header with the config and the combine gate, then every other
    tensor as float32 in layout order, which is `flat` minus the gate."""
    with open_binary(path, "wb") as fh:
        write_magic(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        fh.write(struct.pack(
            "<4IBf",
            config.hidden, config.bottleneck, config.adapters, config.classes,
            _SIGMA_CODES[config.nonlinearity], float(params.combine_gate),
        ))
        write_f32(fh, params.flat[:-1])


def load_side(path, config: SideConfig | None = None):
    """Load a checkpoint; returns (config, params). A provided `config`
    must agree with the stored dimensions."""
    with open_binary(path, "rb") as fh:
        expect_magic(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        h, m, n_ad, c, sigma, gate = struct.unpack("<4IBf", read_exact(fh, 21))
        if sigma not in _SIGMA_NAMES:
            raise FormatError(f"unknown nonlinearity code {sigma}")
        stored = SideConfig(
            hidden=h, bottleneck=m, adapters=n_ad, classes=c,
            nonlinearity=_SIGMA_NAMES[sigma],
        )
        if config is not None and (
            (config.hidden, config.bottleneck, config.adapters, config.classes)
            != (h, m, n_ad, c)
        ):
            raise FormatError(f"checkpoint config {stored} does not match {config}")
        params = SideNetworkParams(stored)
        params.flat[:-1] = read_f32(fh, (params.flat.size - 1,))
        params.combine_gate[...] = gate
        if fh.read(1):
            raise FormatError("trailing bytes after final tensor")
    return stored, params
