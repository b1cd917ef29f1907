import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrel import crf
from entrel.corpus import LabelSpace

from conftest import finite_difference
from crf_oracles import (
    brute_force_best,
    brute_force_logZ,
    brute_force_marginals,
    sequence_score,
)


def random_instance(rng, n=11, scale=2.0):
    d = rng.normal(size=(3, n)) * scale
    q = rng.normal(size=(n + 2, n + 2)) * scale
    return d, q


def nll(d, q, gold, allowed=None):
    """nll_and_gradients of one score sequence d [3, N] as a batch of one:
    (loss, grad_d [3, N], grad_q)."""
    losses, grad_d, grad_q = crf.nll_and_gradients(d[None], q, [gold], allowed)
    return float(losses[0]), grad_d[0], grad_q


def best_path(d, q, allowed=None):
    """viterbi of one score sequence d [3, N] as a batch of one."""
    return tuple(int(v) for v in crf.viterbi(d[None], q, allowed)[0])


def log_partition(d, q, gold=(0, 0, 0)):
    """log Z read off the loss: loss = log Z - score(gold), for any gold."""
    loss, _, _ = nll(d, q, gold)
    return loss + sequence_score(d, gold, q)


def marginals(d, q, gold=(0, 0, 0)):
    """P(y_i = c) read off the gradient: grad_d = marginals - one-hot(gold)."""
    _, grad_d, _ = nll(d, q, gold)
    grad_d[np.arange(3), gold] += 1.0
    return grad_d


def itertools_logz(d, q):
    """Second, fully independent enumeration: python loops + math only."""
    n = d.shape[1]
    begin, end = n, n + 1
    scores = []
    for y in itertools.product(range(n), repeat=3):
        s = q[begin, y[0]] + q[y[0], y[1]] + q[y[1], y[2]] + q[y[2], end]
        s += d[0, y[0]] + d[1, y[1]] + d[2, y[2]]
        scores.append(s)
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


class TestSequenceScore:
    """The oracle the tests read gold path scores from."""

    def test_toy_direct_sum(self):
        d = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        q = np.full((4, 4), 0.5)
        assert sequence_score(d, (0, 1, 0), q) == pytest.approx(8.0)

    def test_all_zero(self):
        d = np.zeros((3, 4))
        q = np.zeros((6, 6))
        for y in itertools.product(range(4), repeat=3):
            assert sequence_score(d, y, q) == 0.0

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(0)
        d, q = random_instance(rng, n=5)
        y = (3, 1, 4)
        expected = 0.0
        expected += q[5, 3] + d[0, 3]
        expected += q[3, 1] + d[1, 1]
        expected += q[1, 4] + d[2, 4]
        expected += q[4, 6]
        assert sequence_score(d, y, q) == pytest.approx(expected, abs=1e-15)


class TestForwardLogZ:
    def test_uniform_case(self):
        d = np.zeros((3, 3))
        q = np.zeros((5, 5))
        assert log_partition(d, q) == pytest.approx(math.log(27), abs=1e-12)

    def test_row_shift_law(self):
        rng = np.random.default_rng(1)
        d, q = random_instance(rng, n=6)
        base = log_partition(d, q)
        shifted = d.copy()
        shifted[1] += 3.75
        assert log_partition(shifted, q) == pytest.approx(base + 3.75, abs=1e-9)

    def test_matches_brute_force_over_full_space(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d, q = random_instance(rng)
            assert log_partition(d, q) == pytest.approx(
                brute_force_logZ(d, q), abs=1e-9
            )

    def test_brute_force_matches_independent_itertools_sum(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 11):
            d, q = random_instance(rng, n=n)
            assert brute_force_logZ(d, q) == pytest.approx(
                itertools_logz(d, q), abs=1e-9
            )


class TestBruteForce:
    def test_uniform_logz(self):
        for n in (2, 4, 11):
            d = np.zeros((3, n))
            q = np.zeros((n + 2, n + 2))
            assert brute_force_logZ(d, q) == pytest.approx(3 * math.log(n), abs=1e-12)

    def test_dominant_sequence_limit(self):
        d = np.zeros((3, 4))
        d[0, 1] = d[1, 2] = d[2, 3] = 1e6
        q = np.zeros((6, 6))
        score = sequence_score(d, (1, 2, 3), q)
        assert brute_force_logZ(d, q) == pytest.approx(score, abs=1e-9)

    def test_refuses_large_spaces(self):
        n = 40
        with pytest.raises(ValueError):
            brute_force_logZ(np.zeros((3, n)), np.zeros((n + 2, n + 2)))


class TestViterbi:
    def test_per_position_argmax_when_q_zero(self):
        d = np.zeros((3, 5))
        d[0, 2] = d[1, 4] = d[2, 0] = 3.0
        q = np.zeros((7, 7))
        best = best_path(d, q)
        assert best == (2, 4, 0)
        assert sequence_score(d, best, q) == pytest.approx(9.0)

    def test_matches_brute_force_argmax(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            d, q = random_instance(rng)
            best = best_path(d, q)
            oracle_best, oracle_score = brute_force_best(d, q)
            assert best == oracle_best
            assert sequence_score(d, best, q) == pytest.approx(oracle_score, abs=1e-9)

    def test_row_shift_leaves_argmax(self):
        rng = np.random.default_rng(5)
        d, q = random_instance(rng)
        best = best_path(d, q)
        shifted = d.copy()
        shifted[1] += 123.0
        assert best_path(shifted, q) == best

    def test_q_shift_leaves_argmax(self):
        rng = np.random.default_rng(6)
        d, q = random_instance(rng)
        best = best_path(d, q)
        assert best_path(d, q + 7.5) == best

    def test_tie_break_lowest_earliest(self):
        # all sequences tie; lexicographically smallest must win
        d = np.zeros((3, 3))
        q = np.zeros((5, 5))
        assert best_path(d, q) == (0, 0, 0)
        assert brute_force_best(d, q)[0] == (0, 0, 0)

    def test_tie_break_constructed_paths(self):
        # exactly two optimal paths, (0,1,2) and (1,0,0), both scoring 3;
        # the earliest differing position must take the lower class
        n = 3
        begin, end = n, n + 1
        d = np.zeros((3, n))
        q = np.full((n + 2, n + 2), -10.0)
        q[begin, 0] = 0.0
        q[begin, 1] = 2.0
        q[0, 1] = 2.0
        q[1, 0] = 0.0
        q[1, 2] = 1.0
        q[0, 0] = 1.0
        q[2, end] = 0.0
        q[0, end] = 0.0
        assert sequence_score(d, (0, 1, 2), q) == pytest.approx(3.0)
        assert sequence_score(d, (1, 0, 0), q) == pytest.approx(3.0)
        assert best_path(d, q) == brute_force_best(d, q)[0] == (0, 1, 2)

    def test_masked_decode_respects_positions(self):
        ls = LabelSpace()
        rng = np.random.default_rng(7)
        allowed = ls.position_mask()
        for _ in range(25):
            d, q = random_instance(rng)
            best = best_path(d, q, allowed)
            assert ls.is_ec_index(best[0])
            assert ls.is_re_index(best[1])
            assert ls.is_ec_index(best[2])

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 6), n=st.integers(1, 6), masked=st.booleans(),
           coarse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_rows_and_enumeration(self, batch, n, masked, coarse, seed):
        # coarse draws are small integers: sums are exact and ties are common,
        # so the lowest-earliest tie-break is exercised
        rng = np.random.default_rng(seed)

        def draw(shape):
            return rng.integers(-1, 2, size=shape).astype(float) if coarse else rng.normal(size=shape)

        d = draw((batch, 3, n))
        q = draw((n + 2, n + 2))
        allowed = rng.random((3, n)) < 0.6 if masked else None
        best = crf.viterbi(d, q, allowed)
        assert best.shape == (batch, 3)
        masked_d = d if allowed is None else crf.apply_position_mask(d, allowed)
        for b in range(batch):
            row_best = best_path(d[b], q, allowed)
            assert tuple(int(v) for v in best[b]) == row_best
            oracle_best, oracle_score = brute_force_best(masked_d[b], q)
            assert row_best == oracle_best
            assert sequence_score(masked_d[b], row_best, q) == pytest.approx(oracle_score,
                                                                             abs=1e-6)

    def test_batch_shape_errors(self):
        q = np.zeros((6, 6))
        with pytest.raises(ValueError):
            crf.viterbi(np.zeros((2, 2, 4)), q)
        with pytest.raises(ValueError, match="mask shape"):
            crf.viterbi(np.zeros((2, 3, 4)), q, np.ones((2, 3, 4), dtype=bool))

    @pytest.mark.parametrize("call", [
        lambda d, q: crf.viterbi(d, q),
        lambda d, q: crf.nll_and_gradients(d, q, [(0, 0, 0)]),
    ], ids=["viterbi", "nll_and_gradients"])
    def test_one_unbatched_sequence_rejected(self, call):
        with pytest.raises(ValueError, match=r"score sequences must be Bx3xN, got \(3, 4\)"):
            call(np.zeros((3, 4)), np.zeros((6, 6)))


class TestMarginals:
    def test_uniform_scores_uniform_rows(self):
        d = np.zeros((3, 5))
        q = np.zeros((7, 7))
        assert np.allclose(marginals(d, q), 0.2, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d, q = random_instance(rng)
            assert np.allclose(marginals(d, q).sum(axis=1), 1.0, atol=1e-9)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d, q = random_instance(rng, n=7)
            assert np.allclose(
                marginals(d, q), brute_force_marginals(d, q), atol=1e-9
            )


class TestNllAndGradients:
    def test_dominant_gold_path_saturates(self):
        d = np.zeros((3, 4))
        gold = (1, 2, 0)
        for i, c in enumerate(gold):
            d[i, c] = 1e6
        q = np.zeros((6, 6))
        loss, grad_d, grad_q = nll(d, q, gold)
        assert loss == pytest.approx(0.0, abs=1e-9)
        assert np.abs(grad_d).max() < 1e-9
        assert np.abs(grad_q).max() < 1e-9

    def test_uniform_case(self):
        n = 5
        d = np.zeros((3, n))
        q = np.zeros((n + 2, n + 2))
        gold = (0, 3, 2)
        loss, grad_d, _ = nll(d, q, gold)
        assert loss == pytest.approx(3 * math.log(n), abs=1e-12)
        expected = np.full((3, n), 1.0 / n)
        for i, c in enumerate(gold):
            expected[i, c] -= 1.0
        assert np.allclose(grad_d, expected, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        d, q = random_instance(rng, n=6)
        gold = (2, 5, 1)
        _, grad_d, grad_q = nll(d, q, gold)

        def objective():
            return brute_force_logZ(d, q) - sequence_score(d, gold, q)

        num_d = finite_difference(objective, d)
        num_q = finite_difference(objective, q)
        assert np.abs(grad_d - num_d).max() < 1e-6
        assert np.abs(grad_q - num_q).max() < 1e-6

    def test_grad_of_logz_equals_marginals_identity(self):
        # grad_d plus the gold one-hot is the marginals, whatever the gold
        rng = np.random.default_rng(11)
        d, q = random_instance(rng, n=7)
        oracle = brute_force_marginals(d, q)
        for gold in ((0, 6, 4), (3, 3, 3), (6, 0, 1)):
            _, grad_d, _ = nll(d, q, gold)
            onehot = np.zeros_like(d)
            for i, c in enumerate(gold):
                onehot[i, c] = 1.0
            assert np.allclose(grad_d + onehot, oracle, atol=1e-9)

    def test_loss_nonnegative_and_log_domination(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d, q = random_instance(rng, n=4)
            logz = log_partition(d, q)
            for y in itertools.product(range(4), repeat=3):
                assert sequence_score(d, y, q) <= logz + 1e-12

    def test_out_of_range_label(self):
        d = np.zeros((3, 4))
        q = np.zeros((6, 6))
        for gold in ((0, 4, 0), (-1, 0, 0), (0, 0)):  # 4 is the begin tag
            with pytest.raises(ValueError, match="out of class range"):
                nll(d, q, gold)

    def test_path_probabilities_sum_to_one(self):
        rng = np.random.default_rng(13)
        d, q = random_instance(rng)
        logz = log_partition(d, q)
        total = sum(
            math.exp(sequence_score(d, y, q) - logz)
            for y in itertools.product(range(11), repeat=3)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestMaskedNll:
    """nll_and_gradients with a position mask, as the softmax baseline runs it."""

    def test_matches_masked_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            d, q = random_instance(rng, n=6)
            allowed = rng.random((3, 6)) < 0.5
            allowed[np.arange(3), rng.integers(0, 6, size=3)] = True
            gold = tuple(int(rng.choice(np.flatnonzero(row))) for row in allowed)
            loss, grad_d, grad_q = nll(d, q, gold, allowed)
            masked = crf.apply_position_mask(d[None], allowed)[0]
            assert loss == pytest.approx(
                brute_force_logZ(masked, q) - sequence_score(d, gold, q), abs=1e-9)
            onehot = np.zeros_like(d)
            onehot[np.arange(3), gold] = 1.0
            assert np.allclose(grad_d + onehot, brute_force_marginals(masked, q), atol=1e-9)
            assert not grad_d[~allowed].any()
            unmasked = nll(masked, q, gold)
            assert np.array_equal(grad_q, unmasked[2])

    @pytest.mark.parametrize("gold", [(5, 5, 0), (0, 0, 0), (0, 5, 6)])
    def test_gold_outside_mask_rejected(self, gold):
        allowed = LabelSpace().position_mask()
        with pytest.raises(ValueError, match="outside the position mask"):
            nll(np.zeros((3, 11)), np.zeros((13, 13)), gold, allowed)

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match="mask shape"):
            nll(np.zeros((3, 4)), np.zeros((6, 6)), (0, 0, 0), np.ones((3, 5), dtype=bool))


class TestBatchedNll:
    """nll_and_gradients over a batch [B, 3, N], as training calls it once per
    mini-batch."""

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 6), n=st.integers(1, 6), masked=st.booleans(),
           coarse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_single_calls_and_enumeration(self, batch, n, masked, coarse, seed):
        # coarse draws are small integers: many paths tie in score
        rng = np.random.default_rng(seed)

        def draw(shape):
            return rng.integers(-1, 2, size=shape).astype(float) if coarse else rng.normal(size=shape)

        d = draw((batch, 3, n))
        q = draw((n + 2, n + 2))
        allowed = None
        gold = rng.integers(0, n, size=(batch, 3))
        if masked:
            allowed = rng.random((3, n)) < 0.6
            allowed[np.arange(3), gold[0]] = True
            gold[:] = gold[0]  # every row's gold inside the mask
        losses, grad_d, grad_q = crf.nll_and_gradients(d, q, gold, allowed)
        assert losses.shape == (batch,) and grad_d.shape == d.shape
        masked_d = d if allowed is None else crf.apply_position_mask(d, allowed)
        summed_q = np.zeros_like(q)
        for b in range(batch):
            loss, row_grad_d, row_grad_q = nll(d[b], q, tuple(gold[b]), allowed)
            assert losses[b] == pytest.approx(loss, rel=1e-13, abs=1e-13)
            assert np.allclose(grad_d[b], row_grad_d, rtol=0, atol=1e-13)
            summed_q += row_grad_q
            assert loss == pytest.approx(
                brute_force_logZ(masked_d[b], q) - sequence_score(d[b], gold[b], q), abs=1e-9)
            onehot = np.zeros_like(d[b])
            onehot[np.arange(3), gold[b]] = 1.0
            assert np.allclose(row_grad_d + onehot, brute_force_marginals(masked_d[b], q),
                               atol=1e-9)
        assert np.allclose(grad_q, summed_q, rtol=0, atol=1e-12)

    def test_gold_shape_and_mask_checked_per_row(self):
        d = np.zeros((2, 3, 11))
        q = np.zeros((13, 13))
        with pytest.raises(ValueError, match="out of class range"):
            crf.nll_and_gradients(d, q, [(0, 5, 0)])
        with pytest.raises(ValueError, match="out of class range"):
            crf.nll_and_gradients(d, q, [(0, 5, 0), (0, 11, 0)])
        allowed = LabelSpace().position_mask()
        with pytest.raises(ValueError, match=r"\(0, 0, 0\) is outside the position mask"):
            crf.nll_and_gradients(d, q, [(0, 5, 0), (0, 0, 0)], allowed)
