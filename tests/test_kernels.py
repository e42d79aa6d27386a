"""Tensor-kernel contracts: exact accumulation order, reference values,
the `out` buffers, and reproducible randomness."""

import numpy as np
import pytest

from sidetune import kernels

# gelu tanh-approximation references, evaluated with 50-digit mpmath
GELU_REFERENCE = {
    1.0: 0.8411919906082767,
    0.5: 0.34571400982514394,
    -1.0: -0.1588080093917233,
    2.0: 1.954597694087775,
    -0.25: -0.100324649298315,
}


def triple_loop_matmul(a, b):
    """Brute-force oracle with explicit scalar accumulation."""
    n, k = a.shape
    _, p = b.shape
    out = np.zeros((n, p), dtype=a.dtype)
    for i in range(n):
        for j in range(p):
            acc = a.dtype.type(0)
            for kk in range(k):
                acc = a.dtype.type(acc + a.dtype.type(a[i, kk] * b[kk, j]))
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2, dtype=np.float32)
        b = np.array([[3, 4], [5, 6]], dtype=np.float32)
        np.testing.assert_array_equal(kernels.matmul(eye, b), b)

    def test_dot_product(self):
        a = np.array([[1.0, 2.0]], dtype=np.float32)
        b = np.array([[3.0], [4.0]], dtype=np.float32)
        np.testing.assert_array_equal(kernels.matmul(a, b), [[11.0]])

    def test_matches_triple_loop_exactly(self):
        rng = kernels.make_rng(42)
        a = rng.normal(size=(4, 5)).astype(np.float32)
        b = rng.normal(size=(5, 3)).astype(np.float32)
        np.testing.assert_array_equal(kernels.matmul(a, b), triple_loop_matmul(a, b))

    def test_identity_bit_exact_for_any_a(self):
        rng = kernels.make_rng(1)
        for _ in range(5):
            a = rng.normal(size=(6, 6)).astype(np.float32) * 100
            np.testing.assert_array_equal(
                kernels.matmul(np.eye(6, dtype=np.float32), a), a
            )

    def test_batch_dims_on_lhs(self):
        rng = kernels.make_rng(2)
        a = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        b = rng.normal(size=(5, 2)).astype(np.float32)
        out = kernels.matmul(a, b)
        assert out.shape == (2, 3, 4, 2)
        np.testing.assert_array_equal(out[1, 2], triple_loop_matmul(a[1, 2], b))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kernels.matmul(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))

    def test_mixed_precision_rejected(self):
        with pytest.raises(ValueError):
            kernels.matmul(np.zeros((2, 2), np.float32), np.zeros((2, 2), np.float64))

    def test_batched_matmul_matches_per_slice(self):
        rng = kernels.make_rng(3)
        a = rng.normal(size=(2, 3, 4)).astype(np.float32)
        b = rng.normal(size=(2, 4, 5)).astype(np.float32)
        out = kernels.batched_matmul(a, b)
        for i in range(2):
            np.testing.assert_array_equal(out[i], triple_loop_matmul(a[i], b[i]))


def exact_matmul(a, b, out=None):
    """The ascending-k reference for a fast_matmul call of the same shapes,
    written into `out` when given."""
    result = kernels.matmul(a, b) if np.ndim(b) == 2 else kernels.batched_matmul(a, b)
    if out is None:
        return result
    out[...] = result
    return out


# BLAS may sum in any order: each element may differ from the ascending-k
# sum by this many units of roundoff of the sum of |terms| (the textbook
# dot-product bound is k units; measured differences stay below 2)
FAST_ULPS = 8


class TestFastMatmul:
    SHAPES = {
        "attention_qk": ((2, 4, 31, 8), (2, 4, 8, 31)),
        "attention_av": ((2, 4, 31, 31), (2, 4, 31, 8)),
        "ffn": ((2, 31, 32), (32, 128)),
        "weight_grad_large_k": ((32, 4080), (4080, 16)),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_agrees_with_the_exact_kernels(self, name, dtype):
        rng = kernels.make_rng(12)
        a_shape, b_shape = self.SHAPES[name]
        a = rng.normal(size=a_shape).astype(dtype)
        b = rng.normal(size=b_shape).astype(dtype)
        fast = kernels.fast_matmul(a, b)
        exact = exact_matmul(a, b)
        assert fast.shape == exact.shape and fast.dtype == exact.dtype
        terms = np.matmul(np.abs(a).astype(np.float64), np.abs(b).astype(np.float64))
        bound = FAST_ULPS * np.finfo(dtype).eps * terms
        assert (np.abs(fast.astype(np.float64) - exact) <= bound).all()

    def test_repeated_calls_are_bit_equal(self):
        rng = kernels.make_rng(13)
        a = rng.normal(size=(2, 4, 31, 31)).astype(np.float32)
        b = rng.normal(size=(2, 4, 31, 8)).astype(np.float32)
        np.testing.assert_array_equal(kernels.fast_matmul(a, b), kernels.fast_matmul(a, b))

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((2, 3), (4, 2)),           # inner extents differ
        ((2, 3, 4), (2, 5, 6)),     # inner extents differ, batched
        ((2, 3, 4), (1, 4, 5)),     # rhs batch dim would broadcast
        ((3, 4), (2, 4, 5)),        # lhs would broadcast over the rhs batch
        ((2, 2, 3, 4), (2, 4, 5)),  # batch ranks differ
    ])
    def test_shape_mismatch(self, a_shape, b_shape):
        with pytest.raises(ValueError):
            kernels.fast_matmul(np.zeros(a_shape, np.float32), np.zeros(b_shape, np.float32))

    def test_mixed_precision_rejected(self):
        with pytest.raises(ValueError):
            kernels.fast_matmul(np.zeros((2, 2), np.float32), np.zeros((2, 2), np.float64))


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = np.full((3, 8), 2.5, dtype=np.float32)
        out = kernels.layer_norm(x, np.ones(8, np.float32), np.zeros(8, np.float32))
        np.testing.assert_array_equal(out, np.zeros_like(x))

    def test_symmetric_two_point_row(self):
        x = np.array([[1.0, 3.0]], dtype=np.float64)
        out = kernels.layer_norm(x, np.ones(2), np.zeros(2), eps=0.0)
        np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-12)

    def test_against_two_pass_oracle(self):
        rng = kernels.make_rng(7)
        x = rng.normal(size=(5, 16)).astype(np.float32)
        gamma = rng.normal(size=16).astype(np.float32)
        beta = rng.normal(size=16).astype(np.float32)
        # independent double-precision two-pass reference
        x64 = x.astype(np.float64)
        mu = x64.sum(axis=1, keepdims=True) / 16
        var = ((x64 - mu) ** 2).sum(axis=1, keepdims=True) / 16
        ref = gamma * (x64 - mu) / np.sqrt(var + 1e-5) + beta
        out = kernels.layer_norm(x, gamma, beta, eps=1e-5)
        assert np.abs(out - ref).max() < 1e-6

    def test_output_statistics(self):
        rng = kernels.make_rng(8)
        x = rng.normal(size=(20, 32)).astype(np.float32) * 3 + 1
        out = kernels.layer_norm(x, np.ones(32, np.float32), np.zeros(32, np.float32))
        means = out.astype(np.float64).mean(axis=1)
        variances = out.astype(np.float64).var(axis=1)
        assert np.abs(means).max() < 1e-6
        assert np.abs(variances - 1).max() < 1e-4

    def test_affine_shape_mismatch(self):
        with pytest.raises(ValueError):
            kernels.layer_norm(np.zeros((2, 4), np.float32),
                               np.ones(3, np.float32), np.zeros(3, np.float32))


class TestNonlinearities:
    def test_softmax_symmetry(self):
        np.testing.assert_allclose(
            kernels.softmax_rows(np.array([0.0, 0.0])), [0.5, 0.5]
        )

    def test_softmax_rows_sum_to_one(self):
        rng = kernels.make_rng(9)
        x = rng.normal(size=(4, 7, 11)).astype(np.float32) * 10
        out = kernels.softmax_rows(x)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_rows_keeps_the_three_step_values(self, dtype):
        rng = kernels.make_rng(14)
        x = (rng.normal(size=(2, 3, 9, 9)) * 10).astype(dtype)
        x[..., np.triu(np.ones((9, 9), dtype=bool), k=1)] = -np.inf  # as attention masks it
        before = x.copy()
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        expected = e / e.sum(axis=-1, keepdims=True, dtype=x.dtype)
        out = kernels.softmax_rows(x)
        np.testing.assert_array_equal(out, expected)
        assert out.dtype == dtype
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("x,expected", sorted(GELU_REFERENCE.items()))
    def test_gelu_reference_values(self, x, expected):
        out = kernels.gelu(np.array([x], dtype=np.float64))
        assert abs(float(out[0]) - expected) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_keeps_the_one_expression_values(self, dtype):
        x = np.concatenate([
            kernels.make_rng(15).normal(size=(3, 50)).reshape(-1) * 3,
            [0.0, -0.0, 1e-30, -1e-30],
            [-1e4, -60.0, -12.0, 12.0, 60.0, 1e4],  # tanh saturates at +/-1
        ]).astype(dtype).reshape(2, -1)
        before = x.copy()
        c, a, half = dtype(kernels.GELU_COEF), dtype(kernels.GELU_CUBIC), dtype(0.5)
        expected = half * x * (1 + np.tanh(c * (x + a * x * x * x)))
        out = kernels.gelu(x)
        np.testing.assert_array_equal(out, expected)
        assert out.dtype == dtype
        np.testing.assert_array_equal(x, before)

    def test_gelu_grad_matches_finite_differences(self):
        x = np.linspace(-3, 3, 13)
        t = np.empty_like(x)
        kernels.gelu(x, tanh=t)
        g = kernels.gelu_backward(np.ones_like(x), x.copy(), t)
        h = 1e-7
        num = (kernels.gelu(x + h) - kernels.gelu(x - h)) / (2 * h)
        np.testing.assert_allclose(g, num, atol=1e-6)


def out_cases(dtype):
    """(kernel, inputs) for every kernel that takes an `out` buffer."""
    rng = kernels.make_rng(16)

    def arr(*shape):
        return (rng.normal(size=shape) * 3).astype(dtype)

    scores = arr(2, 4, 9, 9)
    scores[..., np.triu(np.ones((9, 9), dtype=bool), k=1)] = -np.inf
    return {
        "fast_matmul": (kernels.fast_matmul, (arr(2, 31, 32), arr(32, 128))),
        "fast_matmul_batched": (kernels.fast_matmul, (arr(2, 4, 31, 8), arr(2, 4, 8, 31))),
        "layer_norm": (kernels.layer_norm, (arr(2, 31, 32), arr(32), arr(32))),
        "gelu": (kernels.gelu, (arr(2, 31, 128),)),
        "exp_rows": (kernels.exp_rows, (scores,)),
        "softmax_rows": (kernels.softmax_rows, (scores,)),
    }


OUT_KERNELS = sorted(out_cases(np.float32))


class TestOutBuffers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", OUT_KERNELS)
    def test_out_is_bit_equal_to_the_fresh_output(self, name, dtype):
        fn, args = out_cases(dtype)[name]
        before = [a.copy() for a in args]
        fresh = fn(*args)
        out = np.full(fresh.shape, np.nan, dtype=dtype)
        assert fn(*args, out=out) is out
        np.testing.assert_array_equal(out, fresh)
        for a, b in zip(args, before):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", OUT_KERNELS)
    def test_an_out_of_the_wrong_shape_or_dtype_raises(self, name):
        fn, args = out_cases(np.float32)[name]
        shape = fn(*args).shape
        wider = shape[:-1] + (shape[-1] + 1,)
        for bad in (np.empty((1,) + shape, np.float32), np.empty(wider, np.float32),
                    np.empty(shape, np.float64)):
            with pytest.raises(ValueError):
                fn(*args, out=bad)

    @pytest.mark.parametrize("name", ["exp_rows", "softmax_rows"])
    def test_the_row_kernels_may_write_over_their_input(self, name):
        fn, (x,) = out_cases(np.float32)[name]
        fresh = fn(x)
        assert fn(x, out=x) is x
        np.testing.assert_array_equal(x, fresh)

    @pytest.mark.parametrize("name", ["layer_norm", "gelu"])
    def test_an_out_that_overlaps_the_input_raises(self, name):
        fn, args = out_cases(np.float32)[name]
        with pytest.raises(ValueError):
            fn(*args, out=args[0])

    def test_layer_norm_keeps_xhat_and_sigma_without_changing_a_bit(self):
        fn, (x, gamma, beta) = out_cases(np.float32)["layer_norm"]
        xhat, std = np.empty_like(x), np.empty(x.shape[:-1], np.float32)
        out = fn(x, gamma, beta, xhat=xhat, std=std)
        np.testing.assert_array_equal(out, fn(x, gamma, beta))
        np.testing.assert_array_equal(out, xhat * gamma + beta)
        x64 = x.astype(np.float64)
        np.testing.assert_allclose(std, np.sqrt(x64.var(axis=-1) + kernels.LN_EPS), rtol=1e-6)
        for bad in ({"xhat": x}, {"xhat": out}, {"std": std[:, 1:]}):
            with pytest.raises(ValueError):
                fn(x, gamma, beta, out=out, **{"xhat": xhat, "std": std, **bad})

    def test_layer_norm_that_keeps_xhat_may_write_over_its_input(self):
        fn, (x, gamma, beta) = out_cases(np.float32)["layer_norm"]
        fresh = fn(x, gamma, beta)
        xhat = np.empty_like(x)
        assert fn(x, gamma, beta, out=x, xhat=xhat) is x
        np.testing.assert_array_equal(x, fresh)
        np.testing.assert_array_equal(x, xhat * gamma + beta)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_from_its_tanh_is_gelu_bit_for_bit(self, dtype):
        fn, (x,) = out_cases(dtype)["gelu"]
        t = np.empty_like(x)
        out = fn(x, tanh=t)
        np.testing.assert_array_equal(kernels.gelu_from_tanh(x, t), out)
        # into the kept tanh itself, as well as into a buffer of its own
        assert kernels.gelu_from_tanh(x, t, out=t) is t
        np.testing.assert_array_equal(t, out)
        with pytest.raises(ValueError):
            kernels.gelu_from_tanh(x, t, out=x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_keeps_its_tanh_without_changing_a_bit(self, dtype):
        fn, (x,) = out_cases(dtype)["gelu"]
        t = np.empty_like(x)
        out = fn(x, tanh=t)
        np.testing.assert_array_equal(out, fn(x))
        c, a = dtype(kernels.GELU_COEF), dtype(kernels.GELU_CUBIC)
        np.testing.assert_array_equal(t, np.tanh(c * (x + a * x * x * x)))
        for bad in (x, out):
            with pytest.raises(ValueError):
                fn(x, out=out, tanh=bad)

    @pytest.mark.parametrize("strided", ["x", "out", "both"])
    @pytest.mark.parametrize("rows", ["every_other_row", "sequence_prefix"])
    def test_layer_norm_reads_and_writes_strided_rows(self, strided, rows):
        # every other row of a larger buffer merges into one [N, h] view; a
        # prefix of each sequence does not, so its [N, h] form is a copy
        fn, (x, gamma, beta) = out_cases(np.float32)["layer_norm"]
        fresh = fn(x, gamma, beta)
        b, s, h = x.shape
        pick = np.s_[:, ::2] if rows == "every_other_row" else np.s_[:, :s]

        def inside_a_larger_buffer(a):
            big = np.full((b, 2 * s, h), np.nan, np.float32)
            big[pick] = a
            return big, big[pick]

        if strided != "out":
            x = inside_a_larger_buffer(x)[1]
        out_buf, out = inside_a_larger_buffer(np.nan)
        if strided == "x":
            out_buf, out = None, np.full(fresh.shape, np.nan, np.float32)
        assert fn(x, gamma, beta, out=out) is out
        np.testing.assert_array_equal(out, fresh)
        if out_buf is not None:  # the rows around out's are left alone
            assert np.isnan(out_buf).sum() == out_buf.size - fresh.size

    def test_exp_rows_keeps_a_one_at_each_row_max(self):
        _, (x,) = out_cases(np.float32)["exp_rows"]
        e = kernels.exp_rows(x)
        np.testing.assert_array_equal(e.max(axis=-1), 1)
        assert (e.sum(axis=-1) >= 1).all()


class TestMeanPool:
    def test_single_position_is_identity(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 1, 3)
        np.testing.assert_array_equal(kernels.mean_pool(x), x[:, 0, :])

    def test_midpoint(self):
        x = np.array([[[1, 1, 1], [3, 3, 3]]], dtype=np.float32)
        np.testing.assert_array_equal(kernels.mean_pool(x), [[2, 2, 2]])

    def test_matches_naive_loop_exactly(self):
        rng = kernels.make_rng(10)
        x = rng.normal(size=(3, 9, 5)).astype(np.float32)
        ref = np.zeros((3, 5), dtype=np.float32)
        for b in range(3):
            for h in range(5):
                acc = np.float32(0)
                for s in range(9):
                    acc = np.float32(acc + x[b, s, h])
                ref[b, h] = np.float32(acc / np.float32(9))
        np.testing.assert_array_equal(kernels.mean_pool(x), ref)

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            kernels.mean_pool(np.zeros((2, 0, 3), np.float32))

    def test_rank_check(self):
        with pytest.raises(ValueError):
            kernels.mean_pool(np.zeros((2, 3), np.float32))


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = kernels.make_rng(123).normal(size=10_000)
        b = kernels.make_rng(123).normal(size=10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = kernels.make_rng(1).normal(size=100)
        b = kernels.make_rng(2).normal(size=100)
        assert not np.array_equal(a, b)
