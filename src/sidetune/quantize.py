"""Activation quantization for the device-to-server shortcut connections.

Four schemes share one container type:

* ``none_fp16``  -- binary16 round-trip, two bytes per element (baseline).
* ``fp8_e4m3``   -- 8-bit float (4 exponent / 3 mantissa bits).
* ``fp4_grid``   -- symmetric signed grid, clamp(rint(7 x / absmax)).
* ``nf4``        -- 16-entry normal-quantile codebook.

Every scheme normalizes by the tensor's absolute maximum; the resulting
scale is all that dequantize needs besides the packed codes.

The three low-bit schemes are code tables built at import: a wire byte
indexes a row of the values of the codes it holds, and dequantize is that
gather times the scale. nf4 and fp8 encode a normalized value z as the
count of table midpoints ("cuts") strictly below it. nf4 ties go to the
smaller index; fp8 counts on |z|, adds the sign bit, and sends ties to
the even code by moving each cut below an even code one float32 step
down; fp4 encodes as rint(7 z), which float32 midpoints would not match.

The nf4 codebook's normal quantiles come from the standard library's
``statistics.NormalDist().inv_cdf``, so the module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .kernels import f16_roundtrip

SCHEMES = ("none_fp16", "fp8_e4m3", "fp4_grid", "nf4")

# bits per element on the wire
SCHEME_BITS = {"none_fp16": 16, "fp8_e4m3": 8, "fp4_grid": 4, "nf4": 4}


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


def _e4m3_values() -> np.ndarray:
    """The value of every E4M3 byte: sign(1) | exponent(4, bias 7) |
    mantissa(3); exponent 0 holds subnormals with step 2^-9."""
    codes = np.arange(256)
    sign = np.where(codes & 0x80, -1.0, 1.0).astype(np.float32)
    exp = (codes >> 3) & 0xF
    man = (codes & 0x7).astype(np.float32)
    nrm = (1 + man / 8) * np.exp2((exp - 7).astype(np.float32))
    return sign * np.where(exp == 0, man * np.float32(2.0**-9), nrm)


_NF4_TABLE = nf4_codebook()
# decision boundaries: midpoints between adjacent entries
_NF4_CUTS = (_NF4_TABLE[:-1] + _NF4_TABLE[1:]) / 2

_FP8_TABLE = _e4m3_values()
# |z| <= 1 reaches codes 0..0x38; a z on a cut below an even code must
# count that cut, so those cuts move one float32 step down
_FP8_CUTS = (_FP8_TABLE[:0x38] + _FP8_TABLE[1:0x39]) / 2
_FP8_CUTS[1::2] = np.nextafter(_FP8_CUTS[1::2], np.float32(0))

# [256, k]: the values of the k codes that each wire byte holds
_NIBBLES = unpack_nibbles(bytes(range(256)), 512).reshape(256, 2)
_DECODE = {
    "fp8_e4m3": _FP8_TABLE.reshape(256, 1),
    "fp4_grid": ((np.arange(16, dtype=np.float32) - 8) / np.float32(7))[_NIBBLES],
    "nf4": _NF4_TABLE[_NIBBLES],
}


def _absmax_scale(x: np.ndarray) -> np.float32:
    """The tensor's absolute maximum as float32; one max/min pair also
    rejects NaN and Inf, which either reduction carries through."""
    hi, lo = x.max(), x.min()
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("activations contain NaN or Inf")
    # all-zero tensors quantize against scale 1 so codes stay the zero code
    scale = np.float32(max(hi, -lo))
    return np.float32(1.0) if scale == 0 else scale


def _count_cuts_below(z: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The number of cuts strictly below each z, as uint8: a left
    searchsorted, but vector compares beat a binary search per element."""
    idx = np.zeros(z.shape, dtype=np.uint8)
    above = np.empty(z.shape, dtype=np.bool_)
    for cut in cuts:
        np.greater(z, cut, out=above)
        idx += above.view(np.uint8)
    return idx


def quantize(x: np.ndarray, scheme: str) -> QuantizedActivation:
    """Quantize a [B, S, H] activation tensor under the given scheme."""
    x = np.asarray(x)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if x.ndim != 3:
        raise ValueError(f"expected a [B, S, H] tensor, got shape {x.shape}")
    shape = tuple(int(d) for d in x.shape)

    # cast first, so a value past float32's range is refused as infinite
    with np.errstate(over="ignore"):
        x32 = x.astype(np.float32, copy=False)
    scale = _absmax_scale(x32)

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
        codes = pack_nibbles(_count_cuts_below(z, _NF4_CUTS))
    else:  # fp8_e4m3
        idx = _count_cuts_below(np.abs(z), _FP8_CUTS)
        idx |= np.signbit(z).view(np.uint8) << 7
        codes = idx.tobytes()

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
    if q.scheme == "none_fp16":
        vals = np.frombuffer(q.codes, dtype=np.float16).astype(np.float32)
    else:
        raw = np.frombuffer(q.codes, dtype=np.uint8)
        vals = _DECODE[q.scheme].take(raw, axis=0).reshape(-1)[:n]
        vals *= np.float32(q.scale)
    return vals.reshape(q.shape)


def payload_code_bytes(num_elements: int, scheme: str) -> int:
    """Raw code bytes for `num_elements` values under `scheme`."""
    bits = SCHEME_BITS[scheme]
    return (num_elements * bits + 7) // 8
