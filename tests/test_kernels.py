import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrel.kernels import (
    DRAW_CHUNK,
    ParamTensor,
    conv1d,
    conv1d_backward,
    kmax_pool,
    kmax_pool_backward,
    logsumexp_rows,
    matvec,
    rel_error,
    scaled_uniform,
    tanh_backward,
)

from conftest import finite_difference
from pool_oracles import kmax_pool_oracle
from scatter_oracles import kmax_pool_backward_oracle


# --- oracles, written independently of the kernels ---

def naive_matvec(m, x):
    rows, cols = m.shape
    out = [0.0] * rows
    for r in range(rows):
        for c in range(cols):
            out[r] += m[r][c] * x[c]
    return np.array(out)


def naive_conv1d(seq, filters, bias):
    length, emb = seq.shape
    nk, width, _ = filters.shape
    out = np.zeros((length - width + 1, nk))
    for t in range(length - width + 1):
        for f in range(nk):
            acc = bias[f]
            for i in range(width):
                for e in range(emb):
                    acc += seq[t + i, e] * filters[f, i, e]
            out[t, f] = acc
    return out


class TestMatvec:
    def test_direct(self):
        out = matvec(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0, 1.0]]))
        assert np.array_equal(out, [[3.0, 7.0]])

    def test_identity(self):
        x = np.array([[2.5, -1.0, 0.25], [0.0, 4.0, -3.0]])
        assert np.array_equal(matvec(np.eye(3), x), x)

    def test_against_naive_oracle_exact(self):
        # integer-valued entries: every product and partial sum is exactly
        # representable, so the comparison is order-independent and exact
        rng = np.random.default_rng(11)
        m = rng.integers(-10, 11, size=(5, 4)).astype(float)
        x = rng.integers(-10, 11, size=(1, 4)).astype(float)
        assert np.array_equal(matvec(m, x)[0], naive_matvec(m, x[0]))

    def test_against_naive_oracle_float(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(5, 4))
        x = rng.normal(size=(1, 4))
        assert np.allclose(matvec(m, x)[0], naive_matvec(m, x[0]), atol=1e-14)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2,\)"):
            matvec(np.zeros((2, 3)), np.zeros(2))

    def test_batch_rows_match_single_vectors_exact(self):
        rng = np.random.default_rng(13)
        m = rng.integers(-10, 11, size=(5, 4)).astype(float)
        xs = rng.integers(-10, 11, size=(3, 4)).astype(float)
        out = matvec(m, xs)
        assert out.shape == (3, 5)
        for row, x in zip(out, xs):
            assert np.array_equal(row, naive_matvec(m, x))

    def test_batch_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matvec shape mismatch"):
            matvec(np.zeros((2, 3)), np.zeros((4, 2)))


class TestConv1d:
    def test_direct_sum(self):
        seq = np.array([[1.0], [2.0], [3.0], [4.0]])
        filters = np.ones((1, 3, 1))
        out = conv1d(seq, filters, np.zeros(1))
        assert np.allclose(out[:, 0], [6.0, 9.0])

    def test_zero_filters_give_bias(self):
        seq = np.arange(10.0).reshape(5, 2)
        out = conv1d(seq, np.zeros((3, 2, 2)), np.array([1.0, -2.0, 0.5]))
        assert np.allclose(out, np.tile([1.0, -2.0, 0.5], (4, 1)))

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(7)
        seq = rng.normal(size=(7, 3))
        filters = rng.normal(size=(4, 3, 3))
        bias = rng.normal(size=4)
        assert np.allclose(conv1d(seq, filters, bias),
                           naive_conv1d(seq, filters, bias), atol=1e-12)

    def test_too_short_is_internal_error(self):
        with pytest.raises(ValueError, match="padding"):
            conv1d(np.zeros((2, 3)), np.zeros((1, 3, 3)), np.zeros(1))

    def test_linear_in_filters(self):
        rng = np.random.default_rng(8)
        seq = rng.normal(size=(6, 2))
        filters = rng.normal(size=(3, 3, 2))
        a = conv1d(seq, 2.5 * filters, np.zeros(3))
        b = 2.5 * conv1d(seq, filters, np.zeros(3))
        assert np.allclose(a, b, atol=1e-12)


def pool_one(seq, k):
    """kmax_pool of seq as one window over all its rows: (out [k, nk],
    sel [k, nk])."""
    out, sel = kmax_pool(seq, [(0, len(seq))], k)
    return out[0], sel[0]


class TestKMaxPool:
    def test_two_largest_in_order(self):
        col = np.array([[1.0], [3.0], [2.0], [5.0], [4.0]])
        out, sel = pool_one(col, 2)
        assert out[:, 0].tolist() == [5.0, 4.0]
        assert sel[:, 0].tolist() == [3, 4]

    def test_zero_padding_rule(self):
        out, sel = pool_one(np.array([[1.0], [2.0]]), 3)
        assert out[:, 0].tolist() == [1.0, 2.0, 0.0]
        assert sel[:, 0].tolist() == [0, 1, -1]

    def test_short_negative_input_keeps_values(self):
        # output-padding rule: all rows kept in order, zeros appended
        out, _ = pool_one(np.array([[-5.0], [-7.0]]), 3)
        assert out[:, 0].tolist() == [-5.0, -7.0, 0.0]

    def test_window_of_exactly_k_rows_is_copied(self):
        conv = np.array([[9.0, -1.0], [-3.0, 4.0], [6.0, 6.0], [8.0, 0.0]])
        out, sel = kmax_pool(conv, [(1, 3)], 2)
        assert np.array_equal(out[0], conv[1:3])
        assert sel[0].tolist() == [[1, 1], [2, 2]]

    def test_tie_earlier_index_wins(self):
        out, sel = pool_one(np.array([[2.0], [5.0], [5.0], [1.0]]), 2)
        assert sel[:, 0].tolist() == [1, 2]
        out, sel = pool_one(np.array([[7.0], [7.0], [1.0]]), 1)
        assert sel[:, 0].tolist() == [0]

    def test_overlapping_windows_select_conv_rows(self):
        # two windows of one length share rows 1-3; each picks in its own rows
        conv = np.array([[5.0], [1.0], [4.0], [2.0], [3.0]])
        out, sel = kmax_pool(conv, [(0, 4), (1, 5), (2, 3)], 2)
        assert sel[:, :, 0].tolist() == [[0, 2], [2, 4], [2, -1]]
        assert out[:, :, 0].tolist() == [[5.0, 4.0], [4.0, 3.0], [4.0, 0.0]]

    def test_against_index_sort_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            col = rng.normal(size=(10, 1))
            out, sel = pool_one(col, 4)
            want_out, want_sel = kmax_pool_oracle(col, [(0, 10)], 4)
            assert np.array_equal(out, want_out[0])
            assert np.array_equal(sel, want_sel[0])

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_windows_match_per_column_oracle(self, data):
        # windows of any length up to the whole conv, overlapping, of exactly
        # k rows, or several of one length; small integers make ties common
        rows = data.draw(st.integers(1, 9), label="rows")
        nk = data.draw(st.integers(1, 4), label="nk")
        k = data.draw(st.integers(1, 4), label="k")
        bounds = st.tuples(st.integers(0, rows), st.integers(0, rows))
        windows = [(min(a, b), max(a, b)) for a, b in
                   data.draw(st.lists(bounds, max_size=8), label="windows")]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        conv = rng.integers(-2, 3, size=(rows, nk)).astype(np.float32)
        out, sel = kmax_pool(conv, windows, k)
        want_out, want_sel = kmax_pool_oracle(conv, windows, k)
        assert out.dtype == np.float32
        assert np.array_equal(out, want_out)
        assert np.array_equal(sel, want_sel)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=6))
    def test_output_multiset_and_order(self, values, k):
        col = np.array(values)[:, None]
        out, sel = pool_one(col, k)
        source = list(values) + [0.0]
        for v in out[:, 0]:
            assert v in source
        chosen = [s for s in sel[:, 0] if s >= 0]
        assert chosen == sorted(chosen)

    def test_backward_routing(self):
        col = np.array([[1.0], [3.0], [2.0], [5.0], [4.0]])
        _, sel = kmax_pool(col, [(0, 5)], 2)
        grad = kmax_pool_backward(np.array([[[10.0], [20.0]]]), sel, 5)
        assert grad[:, 0].tolist() == [0.0, 0.0, 0.0, 10.0, 20.0]

    def test_backward_ignores_padded_slots(self):
        _, sel = kmax_pool(np.array([[1.0], [2.0]]), [(0, 2)], 3)
        grad = kmax_pool_backward(np.array([[[1.0], [2.0], [99.0]]]), sel, 2)
        assert grad[:, 0].tolist() == [1.0, 2.0]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmax_pool(np.zeros((3, 1)), [(0, 3)], 0)

    def test_backward_batch_routes_into_one_input(self):
        # two pooled items select rows of one shared 4-row input; slots that
        # pick the same row add up, padded slots route nowhere
        sel = np.array([[[0], [2]], [[2], [-1]]])
        grad_out = np.array([[[1.0], [2.0]], [[10.0], [99.0]]])
        grad = kmax_pool_backward(grad_out, sel, 4)
        assert grad[:, 0].tolist() == [1.0, 0.0, 12.0, 0.0]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_backward_flat_scatter_matches_add_at_oracle(self, data):
        # windows of one shared input, overlapping as a sentence's context
        # parts do: a row that several windows select gets their sum, and
        # windows of k rows or fewer have padded slots
        rows = data.draw(st.integers(1, 9), label="rows")
        k = data.draw(st.integers(1, 4), label="k")
        nk = data.draw(st.integers(1, 4), label="nk")
        starts = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=6),
                           label="starts")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        seq = rng.integers(-2, 3, size=(rows, nk)).astype(float)  # ties common
        length = data.draw(st.integers(1, rows), label="length")  # clipped at the end
        _, sel = kmax_pool(seq, [(start, min(rows, start + length)) for start in starts], k)
        grad_out = rng.normal(size=sel.shape)
        grad = kmax_pool_backward(grad_out, sel, rows)
        oracle = kmax_pool_backward_oracle(grad_out, sel, rows)
        assert grad.shape == oracle.shape == (rows, nk)
        assert np.allclose(grad, oracle, rtol=0, atol=1e-12)


def logsumexp(xs):
    """logsumexp_rows of one vector, as one row."""
    return float(logsumexp_rows(np.asarray(xs, dtype=float).reshape(1, -1))[0])


class TestLogsumexp:
    def test_ln2(self):
        assert math.isclose(logsumexp(np.zeros(2)), math.log(2), rel_tol=1e-12)

    def test_no_overflow(self):
        assert math.isclose(logsumexp(np.array([1000.0, 1000.0])),
                            1000.0 + math.log(2), rel_tol=1e-12)

    def test_against_extended_precision_oracle(self):
        import mpmath

        rng = np.random.default_rng(3)
        xs = rng.normal(size=11) * 5
        expected = float(mpmath.log(mpmath.fsum(mpmath.exp(x) for x in xs)))
        assert math.isclose(logsumexp(xs), expected, rel_tol=1e-12)

    def test_empty_is_domain_error(self):
        with pytest.raises(ValueError):
            logsumexp_rows(np.zeros((1, 0)))
        with pytest.raises(ValueError):
            logsumexp_rows(np.array([]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=9),
           st.floats(-1e5, 1e5))
    def test_shift_invariance(self, values, shift):
        xs = np.array(values)
        assert abs(logsumexp(xs + shift) - (logsumexp(xs) + shift)) < 1e-9

    def test_rows_reduce_independently(self):
        # rows at very different scales: each is shifted by its own max
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(4, 7)) * 3 + np.array([[-800.0], [0.0], [5.0], [900.0]])
        out = logsumexp_rows(mat)
        assert out.shape == (4,)
        for row, value in zip(mat, out):
            m = row.max()
            expected = m + math.log(math.fsum(math.exp(x - m) for x in row))
            assert math.isclose(value, expected, rel_tol=1e-12)
            assert value == logsumexp(row)


class TestBackwardPasses:
    def test_tanh_derivative_at_zero(self):
        h = np.tanh(np.zeros(3))
        assert np.allclose(tanh_backward(h, np.ones(3)), 1.0)

    def test_tanh_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=6)
        upstream = rng.normal(size=6)
        analytic = tanh_backward(np.tanh(x), upstream)
        numeric = finite_difference(lambda: float(np.tanh(x) @ upstream), x)
        assert rel_error(analytic, numeric) < 1e-6

    def test_conv1d_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        seq = rng.normal(size=(7, 3))
        filters = rng.normal(size=(4, 3, 3))
        bias = rng.normal(size=4)
        upstream = rng.normal(size=(5, 4))

        def objective():
            return float((conv1d(seq, filters, bias) * upstream).sum())

        grad_seq, grad_filters, grad_bias = conv1d_backward(upstream, seq, filters)
        assert rel_error(grad_seq, finite_difference(objective, seq)) < 1e-6
        assert rel_error(grad_filters, finite_difference(objective, filters)) < 1e-6
        assert rel_error(grad_bias, finite_difference(objective, bias)) < 1e-6

    def test_kmax_backward_matches_finite_differences(self):
        # fixed values far from ties so the selection is stable under +/- eps
        seq = np.array([[0.9, -0.2], [0.1, 0.8], [-0.6, 0.3], [0.4, -0.9], [0.0, 0.5]])
        upstream = np.array([[1.0, -2.0], [0.5, 3.0]])

        def objective():
            out, _ = pool_one(seq, 2)
            return float((out * upstream).sum())

        _, sel = kmax_pool(seq, [(0, 5)], 2)
        analytic = kmax_pool_backward(upstream[None], sel, 5)
        assert rel_error(analytic, finite_difference(objective, seq)) < 1e-6


class TestParamTensor:
    def test_buffer_made_zeroed_on_first_read(self):
        tensor = ParamTensor("w", np.ones((2, 3), dtype=np.float32))
        assert tensor._grad is None
        grad = tensor.grad
        assert grad.dtype == np.float32 and grad.shape == (2, 3) and not grad.any()
        assert tensor.grad is grad


class TestInit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (0, 5), (7,), (DRAW_CHUNK - 1,), (DRAW_CHUNK,), (DRAW_CHUNK + 1,), (257, 300),
        (500, 3, 50)])
    def test_chunked_draws_equal_one_draw(self, shape, dtype):
        """The values and the generator's position afterwards are those of
        one float64 draw of the whole tensor, cast to the dtype."""
        rng, reference = np.random.default_rng(21), np.random.default_rng(21)
        bound = np.sqrt(6.0 / (30 + 20))
        expected = reference.uniform(-bound, bound, size=shape).astype(dtype)
        draws = scaled_uniform(rng, shape, 30, 20, dtype=dtype)
        assert draws.dtype == dtype and draws.shape == expected.shape
        assert draws.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_sample_mean_within_three_sigma(self):
        rng = np.random.default_rng(9)
        n = 100_000
        draws = scaled_uniform(rng, (n,), 40, 60)
        bound = np.sqrt(6.0 / 100)
        sigma = bound / np.sqrt(3.0)  # std of U(-b, b)
        assert abs(draws.mean()) < 3 * sigma / np.sqrt(n)
        assert np.abs(draws).max() <= bound
