"""Quantizer contracts: golden codebook, golden codes and decodes,
round-trip bounds, brute-force nearest-entry agreement, packing, and
payload arithmetic."""

import hashlib

import numpy as np
import pytest

from sidetune import kernels
from sidetune.quantize import (
    _NF4_CUTS,
    QuantizedActivation,
    SCHEME_BITS,
    SCHEMES,
    dequantize,
    nf4_codebook,
    pack_nibbles,
    quantize,
    unpack_nibbles,
)
from sidetune.wire import payload_bytes

# Normal-quantile codebook computed once with a 50-digit mpmath script
# (erfinv-based inverse CDF, offset 1 - (1/30 + 1/32)/2), frozen here.
NF4_GOLDEN = np.array([
    -1.0,
    -0.6961928056323434,
    -0.5250729594465009,
    -0.3949174259199073,
    -0.28444130892108227,
    -0.18477340280045576,
    -0.09104997598578049,
    0.0,
    0.07958031495840913,
    0.16093014438029082,
    0.24611225134745957,
    0.337915136713128,
    0.44070973186421647,
    0.5626168879699852,
    0.7229566441594738,
    1.0,
])


# The float32 table, little-endian, as scipy.special.ndtri built it
# before the quantiles came from the standard library.
NF4_FLOAT32_HEX = (
    "000080bfb13932bf2e6b06bf9e32cabe4ba291be3d353dbe6978babd00000000"
    "01fba23ddfca243eda047c3e3603ad3eb5a4e13ea907103fb013393f0000803f"
)


def random_activations(seed, shape=(2, 3, 8), scale=1.0):
    rng = kernels.make_rng(seed)
    return (rng.normal(size=shape) * scale).astype(np.float32)


def e4m3_magnitudes():
    """The 57 E4M3 magnitudes from 0 to 1, in code order: subnormals on the
    2^-9 grid, then 8 per binade."""
    subnormal = [m * 2.0**-9 for m in range(8)]
    normal = [(1 + m / 8) * 2.0**e for e in range(-6, 0) for m in range(8)]
    return np.array(subnormal + normal + [1.0], dtype=np.float32)


def boundary_input(steps=3):
    """Every float32 within `steps` steps of each nf4, fp4 and fp8 table
    entry and midpoint, both signs, inside [-1, 1]; then +/-0 and +/-1,
    which pin the scale to 1 so each value is its own z."""
    points = []
    for table in (nf4_codebook(), np.arange(-7, 8, dtype=np.float32) / np.float32(7),
                  e4m3_magnitudes()):
        both = np.unique(np.concatenate([table, -table]))
        points += [both, (both[:-1] + both[1:]) / 2]
    lo = hi = np.concatenate(points)
    values = [lo]
    for _ in range(steps):
        lo = np.nextafter(lo, np.float32(-2))
        hi = np.nextafter(hi, np.float32(2))
        values += [lo, hi]
    x = np.concatenate(values)
    x = np.concatenate([x[np.abs(x) <= 1], np.float32([0.0, -0.0, 1.0, -1.0])])
    return x.reshape(1, 1, -1)


# sha256 of the codes of boundary_input() and of the float32 values that
# the 256 byte values decode to at scale 1, frozen before the low-bit
# schemes became code tables: a change here is a change of wire format
CODES_SHA256 = {
    "none_fp16": "73561e1a0fac4bc625cbcd9a506f70dd9d697b96164fcb3899dcc9232f4652c0",
    "fp8_e4m3": "8dc93842f8ecb9b57cf07a40f166def46e22acd897db0820cac8c53e3e996370",
    "fp4_grid": "46826f7e60767981466ebd710f63b7bb9b717729d612765b7c7986a65ea4f3db",
    "nf4": "d8e222048107fc14d502d64889a30099812ca480cf641c9f05211ac138c2ce6d",
}
DECODE_SHA256 = {
    "fp8_e4m3": "72c73e709129eccdfce8d342e6eb511608b6878415467876a3b9772041c24589",
    "fp4_grid": "ceddc0e9aec33c6e9e38da9bcba55087073c651f7a23f0382bfc265b025c0625",
    "nf4": "ddd38157dfaf097d975d21f823c082898aee657ac3977c92ca4d4b6f16294c67",
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_boundary_codes_match_golden(scheme):
    q = quantize(boundary_input(), scheme)
    assert q.scale == 1.0
    assert hashlib.sha256(q.codes).hexdigest() == CODES_SHA256[scheme]


@pytest.mark.parametrize("scheme", sorted(DECODE_SHA256))
def test_every_byte_decodes_to_golden_values(scheme):
    n = 8 * 256 // SCHEME_BITS[scheme]
    deq = dequantize(QuantizedActivation(scheme, (1, 1, n), 1.0, bytes(range(256))))
    assert deq.dtype == np.float32
    assert hashlib.sha256(deq.tobytes()).hexdigest() == DECODE_SHA256[scheme]


class TestCodebook:
    def test_entry_count(self):
        assert len(nf4_codebook()) == 16

    def test_normalized_extremes_and_zero(self):
        table = nf4_codebook()
        assert table[0] == -1.0
        assert table[-1] == 1.0
        assert 0.0 in table

    def test_sorted_ascending(self):
        table = nf4_codebook()
        assert np.all(np.diff(table) > 0)

    def test_matches_golden_table(self):
        np.testing.assert_allclose(nf4_codebook(), NF4_GOLDEN, rtol=0, atol=2e-7)

    def test_float32_bytes_are_unchanged(self):
        assert nf4_codebook().astype("<f4").tobytes() == bytes.fromhex(NF4_FLOAT32_HEX)

    def test_equals_the_scipy_ndtri_formula(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        offset = 1.0 - (1.0 / 30 + 1.0 / 32) / 2.0
        pos = ndtri(np.linspace(offset, 0.5, 9)[:-1])
        neg = -ndtri(np.linspace(offset, 0.5, 8)[:-1])
        vals = np.sort(np.concatenate([neg, [0.0], pos]))
        vals /= np.abs(vals).max()
        assert nf4_codebook().tobytes() == vals.astype(np.float32).tobytes()


class TestQuantize:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_zero_input(self, scheme):
        x = np.zeros((1, 2, 4), dtype=np.float32)
        q = quantize(x, scheme)
        assert q.scale == 1.0
        np.testing.assert_array_equal(dequantize(q), x)

    @pytest.mark.parametrize("s", [1.0, 0.3, 100.0])
    def test_fp4_grid_fixed_points(self, s):
        x = (np.array([7.0, -7.0, 3.5, 0.0], dtype=np.float32) * np.float32(s / 7.0))
        q = quantize(x.reshape(1, 1, 4), "fp4_grid")
        deq = dequantize(q).reshape(-1)
        # on-grid values (+/-7, 0 sevenths of the scale) come back exactly
        assert deq[0] == x[0] and deq[1] == x[1] and deq[3] == 0.0

    def test_nf4_matches_brute_force_search(self):
        table = nf4_codebook()
        x = random_activations(0, shape=(10, 10, 10))  # 1000 draws
        q = quantize(x, "nf4")
        codes = unpack_nibbles(q.codes, x.size)
        z = (x.reshape(-1) / np.float32(q.scale))
        for i, value in enumerate(z):
            dist = np.abs(value - table)
            best = int(np.flatnonzero(dist == dist.min())[0])  # tie: smaller index
            assert codes[i] == best, f"element {i}: {value}"

    def test_fp8_matches_brute_force_search(self):
        mags = e4m3_magnitudes().astype(np.float64)
        draws = np.clip(random_activations(9, shape=(1, 1, 1000), scale=0.3), -1, 1)
        x = np.concatenate([boundary_input(), draws], axis=2)
        q = quantize(x, "fp8_e4m3")
        assert q.scale == 1.0  # each value is its own z, ties included
        codes = np.frombuffer(q.codes, dtype=np.uint8)
        z = x.reshape(-1)
        for i, value in enumerate(z):
            dist = np.abs(abs(float(value)) - mags)
            nearest = np.flatnonzero(dist == dist.min())
            # tie: the even code
            best = int(nearest[nearest % 2 == 0][0] if nearest.size > 1 else nearest[0])
            sign = 0x80 if np.signbit(value) else 0
            assert codes[i] == best | sign, f"element {i}: {value}"

    def test_nf4_codes_equal_a_left_searchsorted_over_the_cuts(self):
        table = nf4_codebook()
        # the +/-1 entries pin the scale to 1, so each value is its own z
        exact = np.concatenate([
            _NF4_CUTS,  # midpoints: ties go to the smaller index
            np.nextafter(_NF4_CUTS, np.float32(-2)),
            np.nextafter(_NF4_CUTS, np.float32(2)),
            table, [-1.0, 0.0, 1.0],
        ]).astype(np.float32)
        for x in (exact.reshape(1, 1, -1), random_activations(5, shape=(4, 9, 33), scale=3.0)):
            q = quantize(x, "nf4")
            z = x.reshape(-1) / np.float32(q.scale)
            np.testing.assert_array_equal(unpack_nibbles(q.codes, x.size),
                                          np.searchsorted(_NF4_CUTS, z, side="left"))

    def test_nan_rejected(self):
        x = np.zeros((1, 1, 2), dtype=np.float32)
        x[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            quantize(x, "nf4")

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_inf_rejected(self, scheme, value):
        x = np.zeros((1, 1, 2), dtype=np.float32)
        x[0, 0, 1] = value
        with pytest.raises(ValueError, match="NaN or Inf"):
            quantize(x, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_value_past_the_float32_range_is_rejected_as_inf(self, scheme):
        with pytest.raises(ValueError, match="NaN or Inf"):
            quantize(np.array([[[1e39, 1.0, -2.0]]]), scheme)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((1, 1, 2), np.float32), "int3")

    def test_rank_check(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((2, 2), np.float32), "nf4")


class TestDequantize:
    def test_nf4_round_trip_bound(self):
        table = nf4_codebook()
        half_gap = np.diff(table).max() / 2
        x = random_activations(1)
        q = quantize(x, "nf4")
        err = np.abs(dequantize(q) - x).max()
        assert err <= q.scale * half_gap * (1 + 1e-6)

    def test_fp4_round_trip_bound(self):
        x = random_activations(2)
        q = quantize(x, "fp4_grid")
        err = np.abs(dequantize(q) - x).max()
        assert err <= q.scale / 14 * (1 + 1e-6)

    def test_fp8_round_trip_bound(self):
        # e4m3: 3 mantissa bits -> rel err <= 2^-4 for normals, absolute
        # 2^-10 at the subnormal floor (in normalized units)
        x = random_activations(3)
        q = quantize(x, "fp8_e4m3")
        err = np.abs(dequantize(q) - x)
        bound = np.maximum(np.abs(x) / 16, q.scale * 2.0 ** -10)
        assert np.all(err <= bound * (1 + 1e-6))

    def test_fp16_round_trip_is_half_precision(self):
        x = random_activations(4, scale=3.0)
        q = quantize(x, "none_fp16")
        np.testing.assert_array_equal(dequantize(q), kernels.f16_roundtrip(x))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_code_level_idempotence(self, scheme):
        x = random_activations(5)
        q = quantize(x, scheme)
        once = dequantize(q)
        twice = dequantize(quantize(once, scheme))
        np.testing.assert_array_equal(twice, once)

    def test_code_length_validation(self):
        q = QuantizedActivation(scheme="nf4", shape=(1, 2, 3), scale=1.0, codes=b"\x00")
        with pytest.raises(ValueError):
            dequantize(q)


class TestProperties:
    def test_fp4_monotone_codes(self):
        x = np.sort(random_activations(6).reshape(-1)).reshape(1, 1, -1)
        q = quantize(x, "fp4_grid")
        codes = unpack_nibbles(q.codes, x.size).astype(np.int16)
        assert np.all(np.diff(codes) >= 0)

    @pytest.mark.parametrize("scheme", ["fp4_grid", "nf4"])
    @pytest.mark.parametrize("c", [2.0, 0.5, 7.25])
    def test_codes_invariant_under_positive_scaling(self, scheme, c):
        x = random_activations(7)
        assert quantize(x, scheme).codes == quantize(x * np.float32(c), scheme).codes

    def test_codebook_points_reproduce_indices(self):
        table = nf4_codebook()
        for scale in (1.0, 3.5):
            x = (table * np.float32(scale)).reshape(1, 1, 16)
            codes = unpack_nibbles(quantize(x, "nf4").codes, 16)
            np.testing.assert_array_equal(codes, np.arange(16))

    def test_pack_unpack_exhaustive_two_bytes(self):
        # every 4-nibble pattern: 16^4 sequences of length 4
        grid = np.indices((16, 16, 16, 16)).reshape(4, -1).T.astype(np.uint8)
        packed_rows = [pack_nibbles(row) for row in grid]
        for row, packed in zip(grid, packed_rows):
            np.testing.assert_array_equal(unpack_nibbles(packed, 4), row)

    def test_pack_odd_count(self):
        codes = np.array([1, 2, 3], dtype=np.uint8)
        np.testing.assert_array_equal(unpack_nibbles(pack_nibbles(codes), 3), codes)

    def test_pack_accepts_strided_input_and_takes_codes_modulo_16(self):
        codes = kernels.make_rng(8).integers(0, 256, size=(6, 7)).astype(np.uint8)
        for view in (codes[:, ::2], codes.T, codes[1::2], codes[::2, ::3]):
            np.testing.assert_array_equal(unpack_nibbles(pack_nibbles(view), view.size),
                                          view.reshape(-1) % 16)

    def test_nibble_layout(self):
        # element 0 in the low nibble, element 1 in the high nibble
        assert pack_nibbles(np.array([0x3, 0xA], dtype=np.uint8)) == b"\xa3"


class TestPayloadBytes:
    def test_fp16_covers_reported_full_precision_size(self):
        per_tap = payload_bytes((16, 256, 1024), "none_fp16")
        total_mib = 24 * per_tap / 2**20
        assert abs(total_mib - 190) / 190 < 0.05

    def test_4bit_covers_reported_quantized_size(self):
        per_tap = payload_bytes((16, 256, 1024), "fp4_grid")
        total_mib = 24 * per_tap / 2**20
        assert abs(total_mib - 49.2) / 49.2 < 0.05

    def test_ratio_fp16_to_4bit(self):
        fp16 = payload_bytes((16, 256, 1024), "none_fp16")
        fp4 = payload_bytes((16, 256, 1024), "fp4_grid")
        assert abs(fp16 / fp4 - 4.0) < 0.01  # packing/header overhead only

    def test_counts_scale_and_header(self):
        # 10 elements at 4 bits -> 5 code bytes, plus 4 scale + 13 scheme and shape
        assert payload_bytes((1, 2, 5), "nf4") == 5 + 4 + 13
