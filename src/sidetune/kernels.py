"""Deterministic dense-tensor math shared by every other module.

All functions operate on plain numpy arrays (row-major, float32 or
float64) and never mutate their inputs, except :func:`gelu_backward`,
which works in its arguments' buffers. Outputs are freshly allocated,
except where a caller passes an `out` buffer to :func:`fast_matmul`,
:func:`layer_norm`, :func:`gelu`, :func:`gelu_from_tanh`,
:func:`exp_rows` or :func:`softmax_rows`, or the buffers for what
:func:`layer_norm` and :func:`gelu` also keep for a backward pass. Such
a buffer must have exactly the result's shape and dtype (else
ValueError), and the values written into it are bit-equal to those of
the fresh-output call. :func:`exp_rows` and :func:`softmax_rows` may
write over their input, and so may :func:`layer_norm` when it keeps x̂
in a buffer of its own; otherwise :func:`layer_norm`, :func:`gelu` and
:func:`gelu_from_tanh` read their input after writing `out`, so an
`out` that overlaps it raises ValueError. This lets a caller keep one
set of buffers across many calls instead of allocating a result per
call; :func:`sidetune.quantize.quantize` also works in a caller's
scratch buffer and writes its codes into a caller's `out`.

Two matrix products live here. :func:`matmul` and :func:`batched_matmul`
accumulate in ascending-k order, one product and one add per step, so
their results are the same on every platform; they are the reference
that tests compare against. :func:`fast_matmul` is the product the
program runs: BLAS behind the same shape and precision checks. Its
accumulation order belongs to the BLAS build, so its results are
deterministic for a given build and thread count, not across them. Local
and split runs stay bit-equal because both roles run the same code on
the same inputs. An operand shared by every batch entry, like the
backbone's fused QKV weight, goes in as a :func:`numpy.broadcast_to`
view with the other operand's batch dims.
"""

from __future__ import annotations

import numpy as np

# tanh-approximation constants for gelu
GELU_COEF = 0.7978845608028654  # sqrt(2/pi)
GELU_CUBIC = 0.044715

LN_EPS = 1e-5  # every layer norm, backbone and side network alike


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator with a platform-independent stream (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))


def _check_same_dtype(*arrays: np.ndarray) -> None:
    dtypes = {a.dtype for a in arrays}
    if len(dtypes) > 1:
        raise ValueError(f"mixed precisions: {sorted(map(str, dtypes))}")


def _out(out, shape, dtype, *inputs) -> np.ndarray:
    """`out` checked against the result's shape and dtype, and against
    overlap with `inputs`; a fresh buffer when it is None."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != tuple(shape) or out.dtype != dtype:
        raise ValueError(f"out is {out.dtype}{list(out.shape)}, "
                         f"the result is {np.dtype(dtype)}{list(shape)}")
    if any(np.may_share_memory(out, x) for x in inputs):
        raise ValueError("out overlaps an input this kernel reads after writing out")
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b with b strictly 2-D; a may carry batch dims.

    Accumulates over the inner index in ascending order, one product and
    one add per step, so the result is bit-identical to a naive triple
    loop on any platform. The reference for :func:`fast_matmul`; no
    production code calls it.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if b.ndim != 2:
        raise ValueError(f"rhs must be 2-D, got shape {b.shape}")
    if a.ndim < 1 or a.shape[-1] != b.shape[0]:
        raise ValueError(f"inner extents differ: {a.shape} x {b.shape}")
    _check_same_dtype(a, b)
    out = np.zeros(a.shape[:-1] + (b.shape[1],), dtype=a.dtype)
    for k in range(b.shape[0]):
        out += a[..., k : k + 1] * b[k]
    return out


def batched_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise matrix product with matching batch dims on both operands.

    Same ascending-k accumulation contract as :func:`matmul`; the
    reference for :func:`fast_matmul` with a batched rhs, such as the
    per-head attention products.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"batched shapes incompatible: {a.shape} x {b.shape}")
    _check_same_dtype(a, b)
    out = np.zeros(a.shape[:-1] + (b.shape[-1],), dtype=a.dtype)
    for k in range(a.shape[-1]):
        out += a[..., k : k + 1] * b[..., k : k + 1, :]
    return out


def fast_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product a @ b through BLAS, with the checks of the exact kernels.

    b is either 2-D, with a carrying any batch dims (as in :func:`matmul`),
    or carries batch dims equal to a's (as in :func:`batched_matmul`).
    Batch dims that would only broadcast and mixed precisions raise
    ValueError. Repeated calls give bit-equal results for a given BLAS
    build and thread count; against the ascending-k kernels they agree to
    rounding only.

    It runs twice per attention tile, so the checks read the arrays'
    attributes as they are, without converting them.
    """
    if a.ndim < 1 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"inner extents differ: {a.shape} x {b.shape}")
    if b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"batch dims differ: {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise ValueError(f"mixed precisions: {a.dtype} x {b.dtype}")
    if out is not None:
        _out(out, a.shape[:-1] + b.shape[-1:], a.dtype)
    return np.matmul(a, b, out=out)


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = LN_EPS,
    out: np.ndarray | None = None,
    xhat: np.ndarray | None = None,
    std: np.ndarray | None = None,
) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance, then affine.

    y = gamma * (x - mean) / sqrt(var + eps) + beta, statistics taken per
    row over the last axis (biased variance). Works in `out`, plus one
    value per row for each statistic: the centred rows are formed once in
    `out`, and their squares are summed there without a temporary.

    A backward pass needs x̂ = (x - mean) / sqrt(var + eps) and each row's
    σ = sqrt(var + eps). Given `xhat` (x's shape), the rows are centred
    and normalized there instead, and kept; given `std` (x's shape
    without the last axis), σ is copied there. Neither costs a pass over
    the rows, and `out` gets the same bits. With `xhat` given, `x` is
    read only before `out` is written, so `out` may be `x` itself.

    The row sums run in :func:`numpy.einsum` over the rows as one [N, h]
    matrix: its per-row loop beats numpy's reductions over short rows,
    and each row's sum depends only on that row, so a row gets the same
    bits in a batch of any size. (A product with a ones vector, through
    BLAS, does not: its kernel changes with the row count.) The matrix is
    only read: where `x` or the buffer of the rows cannot be viewed as
    one, it is a copy, and every write goes to the buffer itself.
    """
    x = np.asarray(x)
    gamma = np.asarray(gamma)
    beta = np.asarray(beta)
    h = x.shape[-1]
    if gamma.shape != (h,) or beta.shape != (h,):
        raise ValueError(
            f"affine shape {gamma.shape}/{beta.shape} does not match last extent {h}"
        )
    out = _out(out, x.shape, x.dtype, *(() if xhat is not None else (x,)))
    rows = out if xhat is None else _out(xhat, x.shape, x.dtype, x, out)
    per_row = x.shape[:-1] + (1,)
    size = x.dtype.type(h)
    mu = np.einsum("ij->i", x.reshape(-1, h))
    mu /= size
    np.subtract(x, mu.reshape(per_row), out=rows)
    centred = rows.reshape(-1, h)
    sd = np.einsum("ij,ij->i", centred, centred)
    sd /= size
    sd += x.dtype.type(eps)
    np.sqrt(sd, out=sd)
    rows /= sd.reshape(per_row)
    if std is not None:
        np.copyto(_out(std, x.shape[:-1], x.dtype), sd.reshape(x.shape[:-1]))
    if xhat is None:
        out *= gamma
    else:
        np.multiply(xhat, gamma, out=out)
    out += beta
    return out


def gelu(x: np.ndarray, out: np.ndarray | None = None,
         tanh: np.ndarray | None = None) -> np.ndarray:
    """Gaussian error linear unit, tanh approximation.

    gelu(x) = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))

    Works in `out` alone, with the operations of the formula in its
    order except the last product: (1 + tanh(...)) is halved first, then
    times x. Halving 1 + tanh(...) is exact, and so is halving x unless
    |x| is within a factor two of the smallest normal number, so the
    values are the formula's bit for bit outside that range.

    Given `tanh` (x's shape), the tanh(...) is written there and kept
    for :func:`gelu_backward`, with no extra pass. The last three
    operations are :func:`gelu_from_tanh`'s.
    """
    x = np.asarray(x)
    c = x.dtype.type(GELU_COEF)
    a = x.dtype.type(GELU_CUBIC)
    out = _out(out, x.shape, x.dtype, x)
    t = out if tanh is None else _out(tanh, x.shape, x.dtype, x, out)
    np.multiply(x, a, out=out)
    out *= x
    out *= x
    out += x
    out *= c
    np.tanh(out, out=t)
    return gelu_from_tanh(x, t, out=out)


def gelu_from_tanh(x: np.ndarray, tanh: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """gelu(x) from the tanh(sqrt(2/pi) (x + 0.044715 x^3)) that
    :func:`gelu` keeps: (1 + tanh) halved, then times x. These are
    gelu's own last three operations, so the result is gelu's bit for
    bit; `out` may be `tanh` itself."""
    x = np.asarray(x)
    out = _out(out, x.shape, x.dtype, x)
    np.add(_out(tanh, x.shape, x.dtype, x), 1, out=out)
    out *= x.dtype.type(0.5)
    out *= x
    return out


def gelu_backward(d: np.ndarray, x: np.ndarray, tanh: np.ndarray) -> np.ndarray:
    """d times gelu's derivative at x, in place in `d`.

    Works without a buffer of its own: it also writes over `x`, and over
    `tanh`, which must be what :func:`gelu` kept for this x. With
    t = tanh(c (x + a x^3)) and k = 0.5 c x (1 + 3a x^2),

        gelu'(x) = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3a x^2)
                 = (1 + t) (0.5 + k (1 - t)),

    with 1 - t taken as 2 - (1 + t): each of those two roundings is at
    most half a unit in the last place of 1, so the derivative agrees
    with the formula to rounding.
    """
    c = x.dtype.type(GELU_COEF)
    a = x.dtype.type(GELU_CUBIC)
    half = x.dtype.type(0.5)
    t = tanh
    t += 1
    d *= t
    np.subtract(2, t, out=t)
    t *= x
    x *= x
    x *= 3 * a
    x += 1
    t *= x
    t *= half * c
    t += half
    d *= t
    return d


def exp_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(x - max(x)) over the last axis: the numerator of a max-shifted
    softmax. Every row with a finite entry keeps a 1 at its max, so its
    sum is at least 1.

    Writes into `out` when given (it may be `x` itself), else into one
    fresh buffer.
    """
    x = np.asarray(x)
    if x.ndim < 1:
        raise ValueError("exp_rows requires rank >= 1")
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=_out(out, x.shape, x.dtype))
    return np.exp(out, out=out)


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis: :func:`exp_rows`, then each row divided
    by its sum, the same arithmetic as (e := exp(x - max)) / sum(e).

    Writes into `out` when given (it may be `x` itself), else into one
    fresh buffer.
    """
    out = exp_rows(x, out=out)
    out /= out.sum(axis=-1, keepdims=True, dtype=out.dtype)
    return out


def sigmoid(x):
    x = np.asarray(x)
    return 1 / (1 + np.exp(-x))


def mean_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the sequence axis of a [B, S, H] tensor.

    One reduction over the positions, then a division by S. Where the
    positions are not x's innermost axis in memory (a [B, S, H] array in
    C order with H > 1), the reduction's inner loop runs along another
    axis and adds whole positions in ascending order, so the result is
    bit-identical to a naive loop. (Where they are innermost, as with
    H = 1, numpy sums them pairwise.)
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"mean_pool expects rank 3, got shape {x.shape}")
    s = x.shape[1]
    if s == 0:
        raise ValueError("mean_pool over an empty sequence")
    acc = np.add.reduce(x, axis=1)
    acc /= x.dtype.type(s)
    return acc

