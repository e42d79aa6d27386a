"""Finite-difference verification of the analytic side-network backward.

Runs double-precision forward/backward on tiny randomized configurations
and compares every parameter coordinate against central differences of
the scalar loss. Used by both the `gradcheck` CLI subcommand and the
acceptance suite.
"""

from __future__ import annotations

import numpy as np

from .kernels import make_rng
from .sidenet import (
    SideConfig,
    SideNetworkParams,
    Workspace,
    init_side,
    side_backward,
    side_forward,
)
from .training import loss_and_grad

TINY = SideConfig(hidden=8, bottleneck=4, adapters=2, classes=2)
TINY_BATCH = 2
TINY_SEQ = 4


def random_problem(seed: int, config: SideConfig = TINY,
                   batch: int = TINY_BATCH, seq: int = TINY_SEQ):
    """A double-precision (taps, params, labels) triple with generic
    gradients: a forward's M + 1 taps, and every parameter perturbed away
    from its init."""
    rng = make_rng(seed)
    taps = [rng.normal(size=(batch, seq, config.hidden)) for _ in range(config.adapters + 1)]
    params = SideNetworkParams(config, init_side(config, seed).flat.astype(np.float64))
    params.flat += rng.normal(scale=0.3, size=params.flat.shape)
    labels = rng.integers(0, config.classes, size=batch)
    return taps, params, labels


# Relative error uses max(|a|, |n|, GRAD_FLOOR) as the denominator: the
# plain ratio is ill-conditioned where the true gradient itself is ~0
# (differencing noise ~1e-10 divided by ~1e-6 says nothing about the
# backward pass). Coordinates under the floor are in effect held to a
# 1e-9 absolute bound, far below any real defect.
GRAD_FLOOR = 1e-4


def finite_diff_grad(f, theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at theta, one coordinate at a time.

    Only supports float64 inputs; the truncation/rounding trade-off is not
    meaningful in single precision.
    """
    theta = np.asarray(theta)
    if theta.dtype != np.float64:
        raise TypeError(f"finite differences require float64, got {theta.dtype}")
    theta = theta.copy(order="C")  # private copy; perturbed in place below
    grad = np.zeros_like(theta)
    flat = theta.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(theta)
        flat[i] = orig - h
        fm = f(theta)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def check_gradients(seed: int, step: float = 1e-6,
                    config: SideConfig = TINY) -> float:
    """Max relative error over every parameter coordinate for one seed.
    Every forward runs in one float64 workspace; the finite differences
    run only forwards, so the analytic gradient stays in it unchanged."""
    ws = Workspace(config, TINY_BATCH, TINY_SEQ, np.float64)
    taps, params, labels = random_problem(seed, config)
    _, d_logits = loss_and_grad(side_forward(taps, params, ws), labels)
    analytic = side_backward(ws, d_logits, params, taps).flat

    def scalar_loss(theta: np.ndarray) -> float:
        value, _ = loss_and_grad(side_forward(taps, SideNetworkParams(config, theta), ws), labels)
        return value

    numeric = finite_diff_grad(scalar_loss, params.flat, step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), GRAD_FLOOR)
    return float((np.abs(analytic - numeric) / denom).max())


def run_gradcheck(seeds: int = 5, step: float = 1e-6) -> float:
    """Worst relative error across `seeds` seeds, one configuration each."""
    return max(check_gradients(s, step) for s in range(seeds))
