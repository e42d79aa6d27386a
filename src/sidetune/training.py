"""Losses, Adam, and the per-iteration server training step."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .quantize import dequantize
from .sidenet import SideConfig, SideNetworkParams, side_backward, side_forward

log = logging.getLogger(__name__)

# lr and batch size follow the reference training setup; the moment
# coefficients and eps are the customary Adam values
DEFAULT_LR = 5e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def loss_and_grad(logits: np.ndarray, labels: np.ndarray, kind: str = "cross_entropy"):
    """Mean-over-batch loss and its exact gradient wrt the logits.

    cross_entropy: log-sum-exp stabilized; d = (softmax - one_hot) / B.
    mse: squared error against float targets (single output column);
    d = 2 (pred - y) / B.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    b = logits.shape[0]
    if labels.shape[0] != b:
        raise ValueError(f"batch mismatch: {b} logits vs {labels.shape[0]} labels")

    if kind == "cross_entropy":
        c = logits.shape[1]
        if labels.min() < 0 or labels.max() >= c:
            raise ValueError(f"label outside [0, {c})")
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1, dtype=logits.dtype))
        picked = shifted[np.arange(b), labels]
        loss = float((lse - picked).mean(dtype=logits.dtype))
        probs = kernels.softmax_rows(logits)
        one_hot = np.zeros_like(logits)
        one_hot[np.arange(b), labels] = 1
        d_logits = (probs - one_hot) / logits.dtype.type(b)
        return loss, d_logits
    if kind == "mse":
        pred = logits.reshape(b, -1)
        y = labels.reshape(b, -1).astype(logits.dtype)
        diff = pred - y
        loss = float((diff ** 2).sum(axis=1).mean(dtype=logits.dtype))
        d_logits = (2 * diff / logits.dtype.type(b)).reshape(logits.shape)
        return loss, d_logits
    raise ValueError(f"unknown loss kind {kind!r}")


@dataclass
class AdamState:
    """First/second moments in the parameters' flat layout, plus step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = DEFAULT_LR


def init_adam(params: SideNetworkParams, lr: float = DEFAULT_LR) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=lr)


def adam_step(params: SideNetworkParams, grads: SideNetworkParams,
              state: AdamState) -> None:
    """One bias-corrected Adam update over the whole flat state, in place."""
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    if not p.shape == g.shape == m.shape == v.shape:
        raise ValueError(f"state shapes differ: params {p.shape}, grads {g.shape}, "
                         f"moments {m.shape}/{v.shape}")
    state.t += 1
    t = state.t
    dtype = p.dtype.type
    b1, b2 = dtype(ADAM_BETA1), dtype(ADAM_BETA2)
    lr, eps = dtype(state.lr), dtype(ADAM_EPS)
    c1, c2 = dtype(1.0 - ADAM_BETA1 ** t), dtype(1.0 - ADAM_BETA2 ** t)

    m[...] = b1 * m + (1 - b1) * g
    v[...] = b2 * v + (1 - b2) * g * g
    p[...] = p - lr * (m / c1) / (np.sqrt(v / c2) + eps)


def grad_norm(grads: SideNetworkParams) -> float:
    return float(np.sqrt(np.square(grads.flat, dtype=np.float64).sum()))


@dataclass
class IterationMetrics:
    batch_id: int
    loss: float
    acc: float | None  # batch accuracy; None for a regression loss
    grad_norm: float
    t_deq_ms: float
    t_fwd_ms: float
    t_bwd_ms: float
    t_opt_ms: float
    bytes_in: int

    def to_json(self) -> str:
        return json.dumps({
            "batch_id": self.batch_id, "loss": self.loss, "acc": self.acc,
            "grad_norm": self.grad_norm, "t_deq_ms": self.t_deq_ms,
            "t_fwd_ms": self.t_fwd_ms, "t_bwd_ms": self.t_bwd_ms,
            "t_opt_ms": self.t_opt_ms, "bytes_in": self.bytes_in,
        })


@dataclass
class TrainState:
    """Everything the server mutates while consuming activation batches."""

    config: SideConfig
    params: SideNetworkParams
    adam: AdamState
    loss_kind: str = "cross_entropy"
    last_batch_id: int = -1
    dropped: int = 0


def train_iteration(state: TrainState, batch) -> IterationMetrics | None:
    """Consume one activation batch: dequantize, forward, backward, step.

    `batch` is an ActBatch-shaped object carrying ``batch_id``, ``labels``
    and ``taps`` (quantized, in block order). Batches must arrive with
    strictly increasing ids; anything else is logged and dropped.
    """
    if batch.batch_id <= state.last_batch_id:
        state.dropped += 1
        log.warning("dropping out-of-order batch %d (last was %d)",
                    batch.batch_id, state.last_batch_id)
        return None
    state.last_batch_id = batch.batch_id

    bytes_in = sum(len(q.codes) for q in batch.taps)

    t0 = time.perf_counter()
    taps = [dequantize(q) for q in batch.taps]
    t1 = time.perf_counter()
    logits, cache = side_forward(taps, state.params, state.config, training=True)
    labels = np.asarray(batch.labels)
    loss, d_logits = loss_and_grad(logits, labels, state.loss_kind)
    t2 = time.perf_counter()
    grads = side_backward(cache, d_logits, state.params)
    t3 = time.perf_counter()
    adam_step(state.params, grads, state.adam)
    t4 = time.perf_counter()

    acc = None
    if state.loss_kind == "cross_entropy":
        acc = float((logits.argmax(axis=1) == labels).mean())
    return IterationMetrics(
        batch_id=int(batch.batch_id), loss=loss, acc=acc,
        grad_norm=grad_norm(grads),
        t_deq_ms=(t1 - t0) * 1e3, t_fwd_ms=(t2 - t1) * 1e3,
        t_bwd_ms=(t3 - t2) * 1e3, t_opt_ms=(t4 - t3) * 1e3,
        bytes_in=bytes_in,
    )
