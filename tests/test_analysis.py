import statistics

import numpy as np
import pytest

from entrel.analysis import disagreement_report, inspect_transitions


class TestInspectTransitions:
    def test_zero_matrix_empty_report(self):
        report = inspect_transitions(np.zeros((13, 13)))
        assert report.edges == []

    def test_threshold_minus_inf_lists_all_169(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(13, 13))
        report = inspect_transitions(q, threshold=-1e9)
        assert len(report.edges) == 169

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(13, 13))
        low = {(e.from_label, e.to_label) for e in inspect_transitions(q, 0.1).edges}
        high = {(e.from_label, e.to_label) for e in inspect_transitions(q, 0.9).edges}
        assert high <= low

    def test_sorted_descending_and_thresholded(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(13, 13))
        report = inspect_transitions(q, 0.5)
        scores = [e.score for e in report.edges]
        assert scores == sorted(scores, reverse=True)
        assert all(s > 0.5 for s in scores)

    def test_tag_rows_flagged(self):
        q = np.zeros((13, 13))
        q[11, 0] = 1.0  # begin -> Peop
        q[5, 2] = 1.0  # Located_in -> Loc
        report = inspect_transitions(q, 0.5)
        by_pair = {(e.from_label, e.to_label): e for e in report.edges}
        assert by_pair[("<begin>", "Peop")].involves_tag
        assert not by_pair[("Located_in", "Loc")].involves_tag

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            inspect_transitions(np.zeros((11, 11)))


class TestDisagreementReport:
    def test_unanimous_groups(self):
        stats = disagreement_report([("Peop", ["Peop", "Peop"]), ("Loc", ["Loc"])])
        assert stats.n_groups == 2
        assert stats.n_disagreeing == 0
        assert stats.fraction == 0.0
        assert stats.max_fraction is None

    def test_single_disagreeing_group(self):
        stats = disagreement_report([("A", ["A", "A", "A", "B"])])
        assert stats.n_disagreeing == 1
        assert stats.max_fraction == pytest.approx(0.25)
        assert stats.median_fraction == pytest.approx(0.25)

    def test_majority_never_disagrees_with_itself(self):
        stats = disagreement_report([("A", ["A"] * 10)])
        assert stats.n_disagreeing == 0

    def test_fractions_strictly_below_one(self):
        # by definition of majority the disagreement fraction is < 1
        rng = np.random.default_rng(3)
        groups = []
        for _ in range(50):
            votes = [str(v) for v in rng.integers(0, 3, size=rng.integers(1, 8))]
            counts = {v: votes.count(v) for v in votes}
            majority = min(counts, key=lambda v: (-counts[v], v))
            groups.append((majority, votes))
        stats = disagreement_report(groups)
        if stats.n_disagreeing:
            assert 0 < stats.min_fraction <= stats.max_fraction < 1

    def test_random_groups_match_recount_oracle(self):
        rng = np.random.default_rng(4)
        groups = []
        for _ in range(100):
            votes = [str(v) for v in rng.integers(0, 4, size=rng.integers(1, 9))]
            counts = {v: votes.count(v) for v in votes}
            majority = min(counts, key=lambda v: (-counts[v], v))
            groups.append((majority, votes))
        stats = disagreement_report(groups)
        # oracle: recount everything with plain python
        fractions = []
        for majority, votes in groups:
            wrong = len([v for v in votes if v != majority])
            if wrong:
                fractions.append(wrong / len(votes))
        assert stats.n_groups == 100
        assert stats.n_disagreeing == len(fractions)
        assert stats.fraction == pytest.approx(len(fractions) / 100)
        if fractions:
            assert stats.max_fraction == pytest.approx(max(fractions))
            assert stats.min_fraction == pytest.approx(min(fractions))
            assert stats.median_fraction == pytest.approx(statistics.median(fractions))

    def test_empty_vote_group_rejected(self):
        with pytest.raises(ValueError):
            disagreement_report([("A", [])])
