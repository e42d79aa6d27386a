"""Device memory, payload, and iteration-time accounting.

The memory estimate builds the buffers the code would build for the
spec's shape and dtype, and counts their bytes; numpy's empty buffers
commit no memory until written, so even a 1.3B-parameter shape costs
little RSS. Per mode the device holds: `inference`, one forward
workspace, whose one activation plane the layers run in place in;
`mobillm`, that and the session's two batch frames, in turn sent and
filled, each tap quantized straight into its slot; `side_local`, both
workspaces, the side weights and their Adam state, and one frame, since
each batch trains before the next is computed and the batch decoded
from the frame views its codes rather than copies them. The side
workspace holds no tap: the side network decodes each one from the
frame's codes when an adapter reads it, forward and backward. `full_ft`
stays the one closed-form guess, since no code here backpropagates
through the backbone. Byte counts are raw.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .backbone import BackboneConfig, ForwardWorkspace
from .sidenet import SideConfig, Workspace
from .training import init_adam
from .wire import batch_bytes, batch_frame_bytes

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
    """A decoder of the backbone's one family, a 4H-wide FFN and the embedding
    as tap 0; for side_local, gamma - 1 gelu adapters of width `bottleneck` and 2 classes."""

    params: int            # backbone parameter count P
    layers: int
    hidden: int
    heads: int
    seq_len: int
    batch_size: int
    dtype_bytes: int = 2   # 2 = half precision, 4 = single
    gamma: int = 0         # taps per iteration, the embedding's included; defaults to layers
    bottleneck: int = 16   # the server's default

    def __post_init__(self):
        object.__setattr__(self, "gamma", self.gamma or self.layers)
        if self.dtype_bytes not in (2, 4):
            raise ValueError("dtype_bytes must be 2 or 4")
        if not 1 <= self.gamma <= self.layers + 1:
            raise ValueError(f"gamma {self.gamma} must be between 1 and layers + 1 (embedding)")
        if min(self.batch_size, self.seq_len) < 1:
            raise ValueError(f"batch {self.batch_size} and sequence {self.seq_len} must be >= 1")


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
        return json.dumps(dict(asdict(self), total_bytes=self.total_bytes))


def device_memory_estimate(spec: ModelSpec, mode: str,
                           scheme: str = "none_fp16") -> CostReport:
    """Device-side memory of one configuration, counted as the module
    says; the configs built refuse a model the code cannot build."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick one of {MODES}")
    # the forward's buffers do not depend on where the taps are
    backbone = BackboneConfig(vocab_size=1, hidden=spec.hidden, layers=spec.layers,
                              heads=spec.heads, max_seq=spec.seq_len)
    dtype = np.dtype(f"f{spec.dtype_bytes}")
    shape = (spec.batch_size, spec.seq_len)
    weights = spec.params * spec.dtype_bytes

    if mode == "full_ft":
        per_token = FULL_FT_HIDDEN_COEF * spec.hidden + 2 * spec.heads * spec.seq_len
        activations = spec.layers * spec.batch_size * spec.seq_len * per_token * spec.dtype_bytes
        return CostReport(mode, weights, activations, spec.params * OPTIMIZER_BYTES_PER_PARAM, 0)
    forward = ForwardWorkspace(backbone, *shape, dtype).nbytes
    if mode == "inference":
        return CostReport(mode, weights, forward, 0, 0)
    payload = payload_per_iteration(spec, scheme)
    frame = batch_frame_bytes((spec.batch_size, spec.seq_len, spec.hidden), scheme, spec.gamma)
    if mode == "mobillm":
        return CostReport(mode, weights, forward + 2 * frame, 0, payload)
    side = Workspace(SideConfig(hidden=spec.hidden, bottleneck=spec.bottleneck,
                                adapters=spec.gamma - 1, classes=2), *shape, dtype)
    adam = init_adam(side.grads)  # the gradient has the parameters' layout and dtype
    return CostReport(
        mode, weights + side.grads.flat.nbytes, forward + side.nbytes + frame,
        sum(a.nbytes for a in (adam.m, adam.v, adam.scratch)), 0,
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
# tables (sequence defaults: batch 16, length 256, gamma = layers taps).
PRESETS = {
    "opt350m": dict(params=331_000_000, layers=24, hidden=1024, heads=16),
    "opt1.3b": dict(params=1_316_000_000, layers=24, hidden=2048, heads=32),
}


def preset_spec(name: str, batch_size: int = 16, seq_len: int = 256, **fields) -> ModelSpec:
    """The preset's model; `fields` sets the other :class:`ModelSpec` fields."""
    try:
        base = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None
    return ModelSpec(batch_size=batch_size, seq_len=seq_len, **fields, **base)
