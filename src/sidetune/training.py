"""The cross-entropy loss, Adam, and the per-iteration server training
step. The side network is a classifier, and cross-entropy is the one
loss it trains on.

A step runs the side forward and backward in the session's one
:class:`sidetune.sidenet.Workspace`, which holds what the backward reads
of the forward, then moves the parameters with Adam. The step only
trains: whether a batch fits the session, and what a refused batch
counts as, is the server's to decide (:mod:`sidetune.server`).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .quantize import dequantize
from .sidenet import SideConfig, SideNetworkParams, Workspace, side_backward, side_forward

# lr and batch size follow the reference training setup; the moment
# coefficients and eps are the customary Adam values
DEFAULT_LR = 5e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

def loss_and_grad(logits: np.ndarray, labels: np.ndarray):
    """Mean-over-batch cross-entropy and its exact gradient wrt the
    logits: log-sum-exp stabilized; d = (softmax - one_hot) / B. Both
    take one exponential, with :func:`sidetune.kernels.softmax_rows`' bits."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    b, c = logits.shape
    if labels.shape[0] != b:
        raise ValueError(f"batch mismatch: {b} logits vs {labels.shape[0]} labels")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label outside [0, {c})")
    rows = np.arange(b)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    sums = probs.sum(axis=1, keepdims=True, dtype=logits.dtype)
    loss = float((np.log(sums[:, 0]) - shifted[rows, labels]).mean(dtype=logits.dtype))
    probs /= sums
    probs[rows, labels] -= 1  # minus the one-hot labels
    probs /= logits.dtype.type(b)
    return loss, probs


@dataclass
class AdamState:
    """First/second moments in the parameters' flat layout, plus step count,
    and the two vectors of that layout a step works in."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = DEFAULT_LR
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty((2,) + self.m.shape, self.m.dtype)


def init_adam(params: SideNetworkParams, lr: float = DEFAULT_LR) -> AdamState:
    p = params.flat  # np.zeros, unlike np.zeros_like, commits no page until written
    return AdamState(m=np.zeros(p.shape, p.dtype), v=np.zeros(p.shape, p.dtype), lr=lr)


def adam_step(params: SideNetworkParams, grads: SideNetworkParams,
              state: AdamState) -> None:
    """One bias-corrected Adam update over the whole flat state, in place:

        m = b1 m + (1 - b1) g
        v = b2 v + (1 - b2) g g
        p = p - lr (m / c1) / (sqrt(v / c2) + eps)

    Each operation runs in the order of the formula, into m, v, p or one
    of the two scratch vectors, so the step allocates nothing and its
    bits are the formula's."""
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
    step, denom = state.scratch

    m *= b1
    m += np.multiply(g, 1 - b1, out=step)
    v *= b2
    np.multiply(g, 1 - b2, out=step)
    step *= g
    v += step
    np.divide(m, c1, out=step)
    step *= lr
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    p -= step


def grad_norm(grads: SideNetworkParams) -> float:
    """The gradient's L2 norm, from one BLAS dot product in the gradient's
    precision: no copy. In float32 a norm past about 1.8e19 reads inf,
    as does Adam's g·g for such a gradient."""
    g = grads.flat
    return math.sqrt(float(np.dot(g, g)))


@dataclass
class IterationMetrics:
    batch_id: int
    loss: float
    acc: float  # batch accuracy
    grad_norm: float
    t_deq_ms: float
    t_fwd_ms: float
    t_bwd_ms: float
    t_opt_ms: float
    bytes_in: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class TrainState:
    """Everything the server mutates while consuming activation batches.

    `workspace` holds the side network's buffers for the session's one
    batch shape, the (B, S) of its Hello; the server builds it with the
    state, before it accepts the session."""

    config: SideConfig
    params: SideNetworkParams
    adam: AdamState
    workspace: Workspace = field(repr=False, compare=False)
    last_batch_id: int = -1


class NonFiniteStep(ValueError):
    """A step whose loss or gradient is not finite; it left the parameters
    and the optimizer state as they were."""


def train_iteration(state: TrainState, batch) -> IterationMetrics:
    """Train on one activation batch: forward, backward, step.

    `batch` is an ActBatch-shaped object carrying ``batch_id``, ``labels``
    and ``taps`` (quantized, in block order), which the caller has
    checked against the session, so its taps fit ``state.workspace``; its
    id becomes ``state.last_batch_id``. The side network decodes a tap
    with :func:`sidetune.quantize.dequantize` each time it reads it, 2γ + 1
    times a step for γ taps (see :mod:`sidetune.sidenet`), so the codes
    must stay unchanged until the step returns. t_deq_ms sums the
    decodes; t_fwd_ms and t_bwd_ms are the passes without them.
    A finite but huge scale can still overflow the dequantized taps or the
    side network; when the loss or the gradient is not finite, the step
    raises :class:`NonFiniteStep` before the optimizer moves.
    """
    state.last_batch_id = batch.batch_id
    bytes_in = sum(len(q.codes) for q in batch.taps)
    ws = state.workspace
    taps = batch.taps
    decode_s = []

    def read(q, out):
        t = time.perf_counter()
        dequantize(q, out=out)
        decode_s.append(time.perf_counter() - t)

    # a huge tap from the peer may overflow from its dequantize on; the
    # finiteness checks then refuse the step, so numpy's warnings would
    # only echo peer input
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = time.perf_counter()
        logits = side_forward(taps, state.params, ws, read)
        labels = np.asarray(batch.labels)
        loss, d_logits = loss_and_grad(logits, labels)
        if not math.isfinite(loss):
            raise NonFiniteStep(f"batch {batch.batch_id}: loss {loss}")
        t1, fwd_decodes = time.perf_counter(), sum(decode_s)
        grads = side_backward(ws, d_logits, state.params, taps, read)
        norm = grad_norm(grads)
    if not math.isfinite(norm):
        raise NonFiniteStep(f"batch {batch.batch_id}: gradient norm {norm}")
    t2 = time.perf_counter()
    adam_step(state.params, grads, state.adam)
    t3 = time.perf_counter()

    decodes = sum(decode_s)
    return IterationMetrics(
        batch_id=int(batch.batch_id), loss=loss,
        acc=float((logits.argmax(axis=1) == labels).mean()),
        grad_norm=norm,
        t_deq_ms=decodes * 1e3, t_fwd_ms=(t1 - t0 - fwd_decodes) * 1e3,
        t_bwd_ms=(t2 - t1 - (decodes - fwd_decodes)) * 1e3, t_opt_ms=(t3 - t2) * 1e3,
        bytes_in=bytes_in,
    )
