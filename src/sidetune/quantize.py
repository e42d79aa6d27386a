"""Activation quantization for the device-to-server shortcut connections.

Four schemes share one container type:

* ``none_fp16``  -- binary16 round-trip, two bytes per element (baseline).
* ``fp8_e4m3``   -- emulated 8-bit float (4 exponent / 3 mantissa bits).
* ``fp4_grid``   -- symmetric signed integer grid, clamp(round(7 x / absmax)).
* ``nf4``        -- 16-entry normal-quantile codebook lookup.

Every scheme normalizes by the tensor's absolute maximum; the resulting
scale is the only side information carried besides the packed codes.

The nf4 codebook's normal quantiles come from the standard library's
``statistics.NormalDist().inv_cdf``, so the module needs numpy only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .kernels import f16_roundtrip

SCHEMES = ("none_fp16", "fp8_e4m3", "fp4_grid", "nf4")

# bits per element on the wire
SCHEME_BITS = {"none_fp16": 16, "fp8_e4m3": 8, "fp4_grid": 4, "nf4": 4}

# What one tap carries on the wire besides its codes: block index (u16),
# scheme (u8), shape (3 x u32), absmax scale (f32) and code length (u32).
# The wire codec packs it and payload_bytes counts it.
TAP_HEADER = struct.Struct("<HB3IfI")


def nf4_codebook() -> np.ndarray:
    """The 16-entry 4-bit normal-float codebook, ascending, float32.

    Entries are standard-normal quantiles at evenly spaced probabilities
    (8 on the positive side, 7 on the negative, plus an exact zero),
    rescaled so the extremes land exactly on -1 and +1. The asymmetry is
    what buys the exact zero. Probabilities run from ``offset`` down to
    0.5 on each side with ``offset = 1 - (1/30 + 1/32)/2``, i.e. half a
    bin-width short of 1 for the respective side's bin count.

    The quantiles are the standard library's
    ``statistics.NormalDist().inv_cdf`` (Wichura's AS241 algorithm, good to
    about 1e-16); the float32 table equals the one built from
    ``scipy.special.ndtri`` bit for bit.
    """
    offset = 1.0 - (1.0 / 30 + 1.0 / 32) / 2.0
    inv_cdf = NormalDist().inv_cdf
    pos = [inv_cdf(p) for p in np.linspace(offset, 0.5, 9)[:-1]]
    neg = [-inv_cdf(p) for p in np.linspace(offset, 0.5, 8)[:-1]]
    vals = np.sort(np.array(neg + [0.0] + pos))
    vals /= np.abs(vals).max()
    return vals.astype(np.float32)


_NF4_TABLE = nf4_codebook()
# decision boundaries: midpoints between adjacent entries
_NF4_CUTS = (_NF4_TABLE[:-1] + _NF4_TABLE[1:]) / 2


@dataclass(frozen=True)
class QuantizedActivation:
    """Packed low-bit codes for one activation tensor plus its scale."""

    scheme: str
    shape: tuple[int, int, int]
    scale: float  # absmax of the source tensor, stored single precision
    codes: bytes

    def num_elements(self) -> int:
        b, s, h = self.shape
        return b * s * h


def pack_nibbles(codes: np.ndarray) -> bytes:
    """Pack 4-bit codes, element i in the low nibble of byte i//2 when i
    is even and the high nibble when odd; odd counts pad with a zero.
    Each code is taken modulo 16."""
    flat = np.ascontiguousarray(codes, dtype=np.uint8).reshape(-1)
    if flat.size % 2:
        flat = np.concatenate([flat, np.zeros(1, dtype=np.uint8)])
    # a little-endian pair (lo, hi) reads as lo | hi << 8; shifting the
    # masked pair right by 4 puts hi in bits 4-7, and the low byte of
    # the or is the packed byte
    pairs = flat.view("<u2") & 0x0F0F
    packed = pairs >> 4
    packed |= pairs
    return packed.astype(np.uint8).tobytes()


def unpack_nibbles(packed: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_nibbles`; returns `count` uint8 codes."""
    raw = np.frombuffer(packed, dtype=np.uint8)
    out = np.empty(raw.size * 2, dtype=np.uint8)
    out[0::2] = raw & 0xF
    out[1::2] = raw >> 4
    return out[:count]


def _absmax_scale(x: np.ndarray) -> np.float32:
    """The tensor's absolute maximum as float32; one max/min pair also
    rejects NaN and Inf, which either reduction carries through."""
    hi, lo = x.max(), x.min()
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("activations contain NaN or Inf")
    # all-zero tensors quantize against scale 1 so codes stay the zero code
    scale = np.float32(max(hi, -lo))
    return np.float32(1.0) if scale == 0 else scale


def _encode_e4m3(normalized: np.ndarray) -> np.ndarray:
    """Round finite values in [-448, 448] to the nearest E4M3 code byte.

    Layout: sign(1) | exponent(4, bias 7) | mantissa(3); exponent 0 holds
    subnormals with step 2^-9; the all-ones NaN pattern is never emitted.
    """
    a = np.abs(normalized).astype(np.float64)
    sign = (np.signbit(normalized)).astype(np.uint8) << 7
    a = np.minimum(a, 448.0)

    mant, exp = np.frexp(a)  # a = mant * 2^exp, mant in [0.5, 1)
    e_unb = exp - 1  # unbiased exponent with mantissa in [1, 2)
    # normal range: round mantissa to 3 bits, rint gives round-half-even
    m2 = mant * 2.0
    frac = np.rint((m2 - 1.0) * 8.0).astype(np.int64)
    carry = frac == 8
    frac = np.where(carry, 0, frac)
    e_unb = np.where(carry, e_unb + 1, e_unb)
    biased = e_unb + 7
    normal = (sign | (np.clip(biased, 0, 15).astype(np.uint8) << 3)
              | frac.astype(np.uint8))

    # subnormal range: |x| < 2^-6, quantize on the 2^-9 grid
    sub_codes = np.rint(a * 512.0).astype(np.int64)  # 512 = 2^9
    is_sub = sub_codes < 8
    subnormal = sign | np.clip(sub_codes, 0, 7).astype(np.uint8)
    # values that round up to exactly 2^-6 become the smallest normal
    promoted = sign | np.uint8(1 << 3)

    out = np.where(a < 2.0**-6, np.where(is_sub, subnormal, promoted), normal)
    return out.astype(np.uint8)


def _decode_e4m3(codes: np.ndarray) -> np.ndarray:
    sign = np.where(codes & 0x80, -1.0, 1.0).astype(np.float32)
    exp = ((codes >> 3) & 0xF).astype(np.int64)
    man = (codes & 0x7).astype(np.float32)
    sub = man * np.float32(2.0**-9)
    nrm = (1 + man / 8) * np.exp2((exp - 7).astype(np.float32))
    return sign * np.where(exp == 0, sub, nrm)


def quantize(x: np.ndarray, scheme: str) -> QuantizedActivation:
    """Quantize a [B, S, H] activation tensor under the given scheme."""
    x = np.asarray(x)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if x.ndim != 3:
        raise ValueError(f"expected a [B, S, H] tensor, got shape {x.shape}")
    shape = tuple(int(d) for d in x.shape)

    scale = _absmax_scale(x)
    x32 = x.astype(np.float32, copy=False)

    if scheme == "none_fp16":
        # values travel as binary16 directly; the scale rides along for
        # uniformity but is not applied on dequantize
        h = f16_roundtrip(x32).astype(np.float16)
        return QuantizedActivation(scheme, shape, float(scale), h.tobytes())

    z = (x32 / scale).reshape(-1)

    if scheme == "fp4_grid":
        # symmetric signed grid +/-7, stored offset by 8 in one nibble
        q = np.clip(np.rint(z * 7.0), -7, 7).astype(np.int8)
        codes = pack_nibbles((q + 8).astype(np.uint8))
    elif scheme == "nf4":
        # nearest codebook entry: the count of cuts strictly below z, so
        # exact midpoints go to the smaller index (searchsorted, side
        # "left"); 15 vector compares beat a binary search per element
        idx = np.zeros(z.shape, dtype=np.uint8)
        above = np.empty(z.shape, dtype=np.bool_)
        for cut in _NF4_CUTS:
            np.greater(z, cut, out=above)
            idx += above.view(np.uint8)
        codes = pack_nibbles(idx)
    else:  # fp8_e4m3
        codes = _encode_e4m3(z).tobytes()

    return QuantizedActivation(scheme, shape, float(scale), codes)


def dequantize(q: QuantizedActivation) -> np.ndarray:
    """Reconstruct a float32 [B, S, H] tensor from packed codes."""
    n = q.num_elements()
    expected = payload_code_bytes(n, q.scheme)
    if len(q.codes) != expected:
        raise ValueError(
            f"code length {len(q.codes)} inconsistent with shape {q.shape} "
            f"under {q.scheme} (expected {expected})"
        )
    scale = np.float32(q.scale)
    if q.scheme == "none_fp16":
        vals = np.frombuffer(q.codes, dtype=np.float16).astype(np.float32)
    elif q.scheme == "fp4_grid":
        nib = unpack_nibbles(q.codes, n)
        vals = (nib.astype(np.float32) - 8) / np.float32(7.0) * scale
    elif q.scheme == "nf4":
        nib = unpack_nibbles(q.codes, n)
        vals = _NF4_TABLE[nib] * scale
    else:  # fp8_e4m3
        vals = _decode_e4m3(np.frombuffer(q.codes, dtype=np.uint8)) * scale
    return vals.reshape(q.shape)


def payload_code_bytes(num_elements: int, scheme: str) -> int:
    """Raw code bytes for `num_elements` values under `scheme`."""
    bits = SCHEME_BITS[scheme]
    return (num_elements * bits + 7) // 8


def payload_bytes(shape, scheme: str) -> int:
    """Wire bytes for one quantized tap: codes + per-tap header."""
    n = 1
    for d in shape:
        n *= int(d)
    return payload_code_bytes(n, scheme) + TAP_HEADER.size
