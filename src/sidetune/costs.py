"""Analytic memory, payload, and iteration-time accounting.

Everything here is a closed-form estimate over a model/batch description;
nothing allocates real tensors. Byte counts are returned raw -- callers
pick their display unit (the reference accounting uses decimal GB for
memory tables and MiB for payload tables).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .wire import batch_bytes

MODES = ("full_ft", "side_local", "mobillm", "inference")

# Stored per-layer forward intermediates of one post-norm transformer
# layer, counted in units of one [B, S] plane: 18 hidden-width tensors
# (norm input/output, q/k/v, attention context and projection, residual
# sums, the 4H-wide FFN expansion before and after the nonlinearity, FFN
# output) plus two heads x S x S attention maps. An estimate, not a
# measurement.
FULL_FT_HIDDEN_COEF = 18

OPTIMIZER_BYTES_PER_PARAM = 8  # two f32 Adam moments


@dataclass(frozen=True)
class ModelSpec:
    params: int            # backbone parameter count P
    layers: int
    hidden: int
    heads: int
    seq_len: int
    batch_size: int
    dtype_bytes: int = 2   # 2 = half precision, 4 = single
    gamma: int = 0         # taps per iteration; defaults to layers
    trainable_params: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gamma", self.gamma or self.layers)
        if self.dtype_bytes not in (2, 4):
            raise ValueError("dtype_bytes must be 2 or 4")
        if self.gamma > self.layers + 1:
            raise ValueError("cannot tap more than layers + embedding")


@dataclass(frozen=True)
class CostReport:
    mode: str
    weights_bytes: int
    activation_bytes: int
    optimizer_bytes: int
    payload_bytes_per_iter: int
    est_iter_time_s: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.weights_bytes + self.activation_bytes + self.optimizer_bytes

    def to_json(self) -> str:
        return json.dumps({
            "mode": self.mode,
            "weights_bytes": self.weights_bytes,
            "activation_bytes": self.activation_bytes,
            "optimizer_bytes": self.optimizer_bytes,
            "total_bytes": self.total_bytes,
            "payload_bytes_per_iter": self.payload_bytes_per_iter,
            "est_iter_time_s": self.est_iter_time_s,
        })


def _tokens(spec: ModelSpec) -> int:
    return spec.batch_size * spec.seq_len


def _full_ft_layer_activation(spec: ModelSpec) -> int:
    per_token = FULL_FT_HIDDEN_COEF * spec.hidden + 2 * spec.heads * spec.seq_len
    return _tokens(spec) * per_token * spec.dtype_bytes


def device_memory_estimate(spec: ModelSpec, mode: str,
                           scheme: str = "none_fp16") -> CostReport:
    """Device-side memory for one training (or inference) configuration.

    full_ft stores every layer's forward intermediates for the backward
    pass and full optimizer state; side_local adds a resident side stack
    (taps kept plus its own optimizer) to the frozen backbone; mobillm
    keeps only the gamma tap tensors alive until they are shipped, and no
    optimizer state at all; inference holds a single layer's working set.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick one of {MODES}")
    tap_plane = _tokens(spec) * spec.hidden * spec.dtype_bytes
    weights = spec.params * spec.dtype_bytes
    payload = payload_per_iteration(spec, scheme)

    if mode == "full_ft":
        activations = spec.layers * _full_ft_layer_activation(spec)
        optimizer = spec.params * OPTIMIZER_BYTES_PER_PARAM
        trainable_weights = 0
    elif mode == "side_local":
        # taps plus the side stack's own stored intermediates (inputs,
        # bottleneck expansion, norm output per adapter ~ 3 planes)
        activations = spec.gamma * tap_plane + 3 * spec.gamma * tap_plane
        optimizer = spec.trainable_params * OPTIMIZER_BYTES_PER_PARAM
        trainable_weights = spec.trainable_params * spec.dtype_bytes
    elif mode == "mobillm":
        activations = spec.gamma * tap_plane
        optimizer = 0
        trainable_weights = 0
    else:  # inference
        activations = _full_ft_layer_activation(spec)
        optimizer = 0
        trainable_weights = 0

    return CostReport(
        mode=mode,
        weights_bytes=weights + trainable_weights,
        activation_bytes=activations,
        optimizer_bytes=optimizer,
        payload_bytes_per_iter=payload if mode == "mobillm" else 0,
    )


def payload_per_iteration(spec: ModelSpec, scheme: str) -> int:
    """Uplink bytes for one training step: gamma quantized taps + labels."""
    return batch_bytes((spec.batch_size, spec.seq_len, spec.hidden), scheme, spec.gamma)


def iteration_time_estimate(t_fwd_device_s: float, payload_bytes_per_iter: int,
                            rate_bps: float, t_server_s: float) -> float:
    """Steady-state pipelined iteration period: the slowest stage wins."""
    if rate_bps <= 0:
        raise ValueError("rate must be positive")
    t_tx = payload_bytes_per_iter * 8.0 / rate_bps
    return max(t_fwd_device_s, t_tx, t_server_s)


# Reference decoder-only configurations used throughout the accounting
# tables (sequence defaults: batch 16, length 256, per-layer taps).
PRESETS = {
    "opt350m": dict(params=331_000_000, layers=24, hidden=1024, heads=16),
    "opt1.3b": dict(params=1_316_000_000, layers=24, hidden=2048, heads=32),
}


def preset_spec(name: str, batch_size: int = 16, seq_len: int = 256,
                dtype_bytes: int = 2, gamma: int = 0,
                trainable_params: int = 0) -> ModelSpec:
    try:
        base = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None
    return ModelSpec(batch_size=batch_size, seq_len=seq_len,
                     dtype_bytes=dtype_bytes, gamma=gamma,
                     trainable_params=trainable_params, **base)
