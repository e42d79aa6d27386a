"""Activation quantization for the device-to-server shortcut connections.

Four schemes share one container type:

* ``none_fp16``  -- binary16 saturated at +/-65504, two bytes per element.
* ``fp8_e4m3``   -- 8-bit float (4 exponent / 3 mantissa bits).
* ``fp4_grid``   -- symmetric signed grid, clamp(rint(7 x / absmax)).
* ``nf4``        -- 16-entry normal-quantile codebook.

Every scheme normalizes by the tensor's absolute maximum; the resulting
scale is all that dequantize needs besides the packed codes.

The three low-bit schemes are code tables built at import: a wire byte
indexes a row of the values of the codes it holds, and dequantize is one
gather from that table times the scale. nf4 and fp8 encode a normalized value z as the
count of table midpoints ("cuts") strictly below it. nf4 ties go to the
smaller index; fp8 counts on |z|, adds the sign bit, and sends ties to
the even code by moving each cut below an even code one float32 step
down; fp4 encodes as rint(7 z), which float32 midpoints would not match.

:func:`quantize` only reads its tensor. It encodes it in even-sized
chunks of a caller's scratch buffer and can write the codes straight
into a caller's buffer, such as a tap's slot of a batch frame, so the
device quantizes a tap without a tap-sized allocation.

The nf4 codebook's normal quantiles come from the standard library's
``statistics.NormalDist().inv_cdf``, so the module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

SCHEMES = ("none_fp16", "fp8_e4m3", "fp4_grid", "nf4")

# bits per element on the wire
SCHEME_BITS = {"none_fp16": 16, "fp8_e4m3": 8, "fp4_grid": 4, "nf4": 4}

F16_MAX = 65504.0  # largest finite binary16 value; none_fp16 saturates there


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
    """Packed low-bit codes for one activation tensor plus its scale. The
    codes are bytes, or a view of a caller's buffer: the slot of a batch
    frame that :func:`quantize` wrote them into, or read-only, the frame
    a batch was decoded from."""

    scheme: str
    shape: tuple[int, int, int]
    scale: float  # absmax of the source tensor, stored single precision
    codes: bytes | memoryview

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
    return _pack_pairs(flat.view("<u2") & 0x0F0F, np.empty(flat.size // 2, np.uint8)).tobytes()


def _pack_pairs(pairs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into `out` the packed bytes of little-endian code pairs
    lo + 256 hi, both below 16, working in `pairs`: times 0x110 such a
    pair is, modulo 2^16, 16 lo + 256 (lo + 16 hi), so its high byte is
    the packed byte."""
    pairs *= 0x110
    np.copyto(out, pairs.view(np.uint8)[1::2])
    return out


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

# code bytes per gather in dequantize: a chunk's intp indices are 64 KiB
_DECODE_CHUNK = 8192

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


def _count_cuts_below(z: np.ndarray, cuts: np.ndarray, idx: np.ndarray,
                      above: np.ndarray) -> np.ndarray:
    """Write into the uint8 `idx` the number of cuts strictly below each
    z, using the bool `above`: a left searchsorted, but vector compares
    beat a binary search per element."""
    idx.fill(0)
    for cut in cuts:
        np.greater(z, cut, out=above)
        idx += above.view(np.uint8)
    return idx


def quantize(x: np.ndarray, scheme: str, scratch: np.ndarray | None = None,
             out=None) -> QuantizedActivation:
    """Quantize a [B, S, H] activation tensor under the given scheme.

    `x` is only read. The codes are written into `out` when given: a
    writable buffer of exactly :func:`payload_code_bytes` bytes, such as a
    tap's slot of a batch frame, which the result's codes then view; else
    into fresh bytes.

    After one pass over `x` for its scale, the encode works through it in
    chunks of an even number of elements, so 4-bit codes pack into whole
    bytes, in `scratch` when given: a C-contiguous float32 array that
    overlaps neither `x` nor `out`. A chunk of c elements takes 6c bytes
    of it: c float32 for the saturated (fp16) or normalized (the rest)
    values, then c bytes of per-element code counts and c of compare
    flags; c is the largest even count that fits, and a scratch of fewer
    than 3 floats is a ValueError. Without a scratch, one chunk covers
    the whole tensor. Every step is elementwise, so the codes are the same
    for every chunk size.
    """
    x = np.asarray(x)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if x.ndim != 3:
        raise ValueError(f"expected a [B, S, H] tensor, got shape {x.shape}")
    shape = tuple(int(d) for d in x.shape)
    n = x.size
    if scratch is None:
        scratch = np.empty(3 * (n + n % 2) // 2, np.float32)
    elif (scratch.dtype != np.float32 or not scratch.flags.c_contiguous or scratch.size < 3
          or np.may_share_memory(scratch, x)):
        raise ValueError(f"scratch is {scratch.dtype}{list(scratch.shape)}, need at least 3 "
                         f"C-contiguous float32 apart from x")
    nbytes = payload_code_bytes(n, scheme)
    codes = np.empty(nbytes, np.uint8) if out is None else np.frombuffer(out, np.uint8)
    if codes.size != nbytes or not codes.flags.writeable or np.may_share_memory(codes, scratch):
        raise ValueError(f"out must be {nbytes} writable bytes apart from scratch")

    # cast first, so a value past float32's range is refused as infinite
    with np.errstate(over="ignore"):
        flat = x.astype(np.float32, copy=False).reshape(-1)
    scale = _absmax_scale(flat)

    c = scratch.size * 4 // 6 // 2 * 2
    work = scratch.reshape(-1)
    raw = work.view(np.uint8)
    counts, flags = raw[4 * c:5 * c], raw[5 * c:6 * c].view(np.bool_)
    for i in range(0, n, c):
        xc = flat[i:i + c]
        m = xc.size
        z = work[:m]
        if scheme == "none_fp16":
            # binary16 saturated at +/-F16_MAX, not infinite; the scale rides
            # along for uniformity but is not applied on dequantize
            np.clip(xc, -F16_MAX, F16_MAX, out=z)
            np.copyto(codes[2 * i:2 * (i + m)].view(np.float16), z, casting="same_kind")
            continue
        np.divide(xc, scale, out=z)
        if scheme == "fp8_e4m3":
            sign = np.signbit(z, out=flags[:m]).view(np.uint8)  # before |z| overwrites z
            np.left_shift(sign, 7, out=counts[:m])
            dst = _count_cuts_below(np.abs(z, out=z), _FP8_CUTS, codes[i:i + m], flags[:m])
            dst |= counts[:m]
            continue
        idx = counts[:m]
        if scheme == "fp4_grid":
            # symmetric signed grid +/-7, stored offset by 8 in one nibble
            z *= 7
            np.clip(np.rint(z, out=z), -7, 7, out=z)
            z += 8
            np.copyto(idx, z, casting="unsafe")
        else:  # nf4
            _count_cuts_below(z, _NF4_CUTS, idx, flags[:m])
        if m % 2:  # only the last chunk: pad its last byte with a zero nibble
            counts[m] = 0
            idx = counts[:m + 1]
        # every code is below 16
        _pack_pairs(idx.view("<u2"), codes[i // 2:(i + idx.size) // 2])
    return QuantizedActivation(scheme, shape, float(scale),
                               codes.tobytes() if out is None else codes.data)


def dequantize(q: QuantizedActivation, out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct a float32 [B, S, H] tensor from packed codes.

    Writes into `out` when given: a C-contiguous float32 array of q's
    shape (else ValueError), with the values of the fresh-output call.
    """
    n = q.num_elements()
    expected = payload_code_bytes(n, q.scheme)
    if len(q.codes) != expected:
        raise ValueError(
            f"code length {len(q.codes)} inconsistent with shape {q.shape} "
            f"under {q.scheme} (expected {expected})"
        )
    if out is None:
        out = np.empty(q.shape, dtype=np.float32)
    elif out.shape != q.shape or out.dtype != np.float32 or not out.flags.c_contiguous:
        raise ValueError(f"out is {out.dtype}{list(out.shape)}, need C-contiguous "
                         f"float32{list(q.shape)}")
    flat = out.reshape(-1)
    if q.scheme == "none_fp16":
        np.copyto(flat, np.frombuffer(q.codes, dtype=np.float16))
        return out
    # fl(v * scale) is the same float whether v is scaled before or after
    # the gather, so the [256, k] table is scaled once and the gather is
    # the decode's only pass
    table = _DECODE[q.scheme] * np.float32(q.scale)
    k = table.shape[1]
    whole = n // k  # bytes whose every code is a value; an odd nibble count pads the last
    raw = np.frombuffer(q.codes, dtype=np.uint8)
    codes, rows = raw[:whole], flat[:whole * k].reshape(whole, k)
    # take copies its indices as intp, 8 B per byte, so it gathers a chunk
    # at a time; a byte indexes all 256 rows, so "clip" never clips, and
    # unlike the default "raise" it writes straight into `out`
    for i in range(0, whole, _DECODE_CHUNK):
        table.take(codes[i:i + _DECODE_CHUNK], axis=0, out=rows[i:i + _DECODE_CHUNK],
                   mode="clip")
    flat[whole * k:] = table[raw[whole:], :n - whole * k].reshape(-1)
    return out


def payload_code_bytes(num_elements: int, scheme: str) -> int:
    """Raw code bytes for `num_elements` values under `scheme`."""
    bits = SCHEME_BITS[scheme]
    return (num_elements * bits + 7) // 8
