import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entrel import synth
from entrel.analysis import disagreement_report
from entrel.corpus import (NO_RELATION, RE_LABELS, EntityMention, LabelSpace, RelationAnnotation,
                           Sentence, related_pairs)
from entrel.evaluation import (
    ClassCounts,
    MetricsReport,
    PredictedTable,
    class_counts,
    format_report,
    macro_and_avg,
    majority_vote,
    score_paired,
    score_queries,
    score_setup3,
)
from entrel.model import gold_indices
from entrel.querygen import gen_setup1, gen_setup2, gen_setup3


def counting_oracle(predictions, golds, cls):
    """Independent P/R/F implementation for one class."""
    tp = sum(1 for p, g in zip(predictions, golds) if p == cls and g == cls)
    fp = sum(1 for p, g in zip(predictions, golds) if p == cls and g != cls)
    fn = sum(1 for p, g in zip(predictions, golds) if p != cls and g == cls)
    if tp == 0 and fp == 0 and fn == 0:
        return None
    if tp == 0:
        return 0.0
    p = tp / (tp + fp)
    r = tp / (tp + fn)
    return 2 * p * r / (p + r)


class TestF1:
    def test_direct(self):
        preds = ["A", "A", "A", "B"]
        golds = ["A", "A", "B", "A"]
        # TP=2, FP=1, FN=1 -> P=R=2/3 -> F1=2/3
        assert class_counts(preds, golds, ["A"])["A"].f1 == pytest.approx(2 / 3, abs=1e-4)

    def test_perfect(self):
        assert class_counts(["A", "B"], ["A", "B"], ["A"])["A"].f1 == 1.0

    def test_zero_tp_with_errors_is_zero(self):
        assert class_counts(["B"], ["A"], ["A"])["A"].f1 == 0.0

    def test_absent_class_reported_absent(self):
        assert class_counts(["B"], ["B"], ["A"])["A"].f1 is None

    def test_against_counting_oracle(self):
        rng = np.random.default_rng(0)
        labels = ["A", "B", "C"]
        for _ in range(30):
            preds = [labels[i] for i in rng.integers(0, 3, size=40)]
            golds = [labels[i] for i in rng.integers(0, 3, size=40)]
            counts = class_counts(preds, golds, labels)
            for cls in labels:
                assert counts[cls].f1 == counting_oracle(preds, golds, cls)

    @given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
    def test_symmetric_under_fp_fn_swap(self, tp, fp, fn):
        a = ClassCounts(tp, fp, fn).f1
        b = ClassCounts(tp, fn, fp).f1
        assert a == b


class TestMacros:
    def test_reference_column(self):
        ec = dict(zip(("Peop", "Org", "Loc", "Other"), (0.9524, 0.8894, 0.9325, 0.9038)))
        re = dict(zip(("Located_in", "Work_for", "OrgBased_in", "Live_in", "Kill"),
                      (0.5503, 0.7123, 0.5325, 0.5957, 0.7470)))
        avg_ec, avg_re, _ = macro_and_avg(ec, re)
        assert round(100 * avg_ec, 2) == 91.95
        assert round(100 * avg_re, 2) == 62.76
        # the combined average of the two (rounded) macros
        assert round((91.95 + 62.76) / 2, 2) == 77.36

    def test_all_equal_classes(self):
        ec = {c: 0.5 for c in ("Peop", "Org", "Loc", "Other", "O")}
        re = {c: 0.5 for c in ("Located_in", "Work_for", "OrgBased_in", "Live_in", "Kill")}
        avg_ec, avg_re, avg = macro_and_avg(ec, re)
        assert avg_ec == avg_re == avg == 0.5

    def test_o_and_n_excluded(self):
        ec = {"Peop": 1.0, "Org": 1.0, "Loc": 1.0, "Other": 1.0, "O": 0.0}
        re = {c: 1.0 for c in ("Located_in", "Work_for", "OrgBased_in", "Live_in", "Kill")}
        re["N"] = 0.0
        avg_ec, avg_re, avg = macro_and_avg(ec, re)
        assert avg_ec == avg_re == avg == 1.0

    def test_absent_classes_excluded(self):
        ec = {"Peop": 1.0, "Org": None, "Loc": None, "Other": None}
        re = {"Kill": 0.5}
        avg_ec, avg_re, avg = macro_and_avg(ec, re)
        assert avg_ec == 1.0
        assert avg_re == 0.5
        assert avg == 0.75

    def test_omit_other(self):
        ec = {"Peop": 1.0, "Org": 1.0, "Loc": 1.0, "Other": 0.0}
        avg_ec, _, _ = macro_and_avg(ec, {}, omit_other=True)
        assert avg_ec == 1.0


class TestMajorityVote:
    def test_plain_majority(self):
        assert majority_vote(["Peop"] * 3 + ["Loc"]) == "Peop"

    def test_tie_breaks_canonical(self):
        assert majority_vote(["Loc", "Peop"]) == "Peop"
        assert majority_vote(["Other", "Org"]) == "Org"

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        votes = ["Peop"] * 2 + ["Loc"] * 2 + ["Org"]
        results = set()
        for _ in range(20):
            shuffled = list(votes)
            rng.shuffle(shuffled)
            results.add(majority_vote(shuffled))
        assert results == {"Peop"}

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([])


def perfect_predictions(queries, ls):
    return [gold_indices(q, ls) for q in queries]


class TestScorePaired:
    def test_perfect_setup1(self, label_space):
        sentences = synth.generate(synth.default_grammar(seed=4), 80)
        queries = gen_setup1(sentences)
        report = score_paired(queries, perfect_predictions(queries, label_space))
        for cls, value in {**report.ec_f1, **report.re_f1}.items():
            if value is not None:
                assert value == 1.0, cls
        assert report.avg_ec_re == 1.0
        assert report.disagreement.n_disagreeing == 0

    def test_perfect_setup2(self, label_space):
        sentences = synth.generate(synth.default_grammar(seed=5), 15)
        queries, _ = gen_setup2(sentences)
        report = score_queries(queries, perfect_predictions(queries, label_space), 2,
                               label_space, sentences)
        assert report.avg_ec_re == 1.0

    def test_majority_vote_aggregation(self, label_space):
        # one entity observed in two queries: votes (Peop, Peop) beat one Loc
        sent = Sentence(
            "v",
            ["per1", "x", "loc1", "y", "org1"],
            [EntityMention(0, 1, "Peop"), EntityMention(2, 3, "Loc"), EntityMention(4, 5, "Org")],
            [],
        )
        queries = gen_setup1([sent])  # pairs (per1,loc1), (per1,org1), (loc1,org1)
        ls = label_space
        preds = perfect_predictions(queries, ls)
        preds[0] = (ls.unified("Loc"), preds[0][1], preds[0][2])  # one bad vote for per1
        report = score_paired(queries, preds, ls)
        assert report.ec_f1["Peop"] == 1.0  # majority still Peop
        assert report.disagreement.n_disagreeing == 1

    def test_out_of_task_prediction_counts_against_gold(self, label_space):
        sent = Sentence(
            "ot",
            ["per1", "x", "loc1"],
            [EntityMention(0, 1, "Peop"), EntityMention(2, 3, "Loc")],
            [],
        )
        (query,) = gen_setup1([sent])
        ls = label_space
        preds = [(ls.unified("Kill"), ls.unified("N"), ls.unified("Loc"))]
        report = score_paired([query], preds, ls)
        assert report.ec_f1["Peop"] == 0.0  # FN for Peop, no EC class gets the FP


def setup3_oracle(tables, sentences, ls):
    """Independent recount of the relaxed counting convention."""
    per_class = {c: ClassCounts() for c in ls.ec_labels + ls.re_labels}
    for sent in sentences:
        table = tables.get(sent.id, PredictedTable(sent.id, {}, {}))
        # --- entities ---
        entity_tokens = set()
        for ent in sent.entities:
            toks = list(range(ent.start, ent.end))
            entity_tokens.update(toks)
            votes = [table.ec_by_token.get(t, None) for t in toks]
            votes = [v for v in votes if v is not None]
            if any(v == ent.type for v in votes):
                per_class[ent.type].tp += 1
            else:
                per_class[ent.type].fn += 1
                wrong = [v for v in votes if v != "O"]
                if wrong:
                    counts = Counter(wrong)
                    top = min(counts, key=lambda lb: (-counts[lb], ls.unified(lb)))
                    per_class[top].fp += 1
        for t, label in table.ec_by_token.items():
            if t not in entity_tokens and label != "O":
                per_class[label].fp += 1
        # --- relations ---
        # the documented pair rule: where several relations share a pair,
        # the canonically first label (RE_LABELS order) is the pair's one
        # gold relation; its direction does not enter the table scoring,
        # whose cells run from the first span to the second in textual order
        gold_of_pair = {}
        for rel in sent.relations:
            pair = tuple(sorted([sent.entities[rel.head].span, sent.entities[rel.tail].span]))
            if pair not in gold_of_pair or (RE_LABELS.index(rel.type)
                                            < RE_LABELS.index(gold_of_pair[pair])):
                gold_of_pair[pair] = rel.type
        pair_cells = {(s1, s2, label): set(itertools.product(range(*s1), range(*s2)))
                      for (s1, s2), label in gold_of_pair.items()}
        claimed = set().union(*pair_cells.values()) if pair_cells else set()
        for (s1, s2, gold_label), cells in pair_cells.items():
            labels = [table.rel_by_cell[c] for c in cells
                      if table.rel_by_cell.get(c, NO_RELATION) != NO_RELATION]
            if gold_label in labels:
                per_class[gold_label].tp += 1
            elif labels:
                counts = Counter(labels)
                top = min(counts, key=lambda lb: (-counts[lb], ls.unified(lb)))
                per_class[top].fp += 1
                per_class[gold_label].fn += 1
            else:
                per_class[gold_label].fn += 1
        for cell, label in table.rel_by_cell.items():
            if label != NO_RELATION and cell not in claimed:
                per_class[label].fp += 1
    return per_class


class TestScoreSetup3:
    def make_pair_sentence(self):
        return Sentence(
            "p",
            ["per1", "lives", "in", "new", "loc1"],
            [EntityMention(0, 1, "Peop"), EntityMention(3, 5, "Loc")],
            [RelationAnnotation(0, 1, "Live_in")],
        )

    def test_one_of_two_cells_correct_is_tp(self, label_space):
        sent = self.make_pair_sentence()
        table = PredictedTable(
            "p",
            {0: "Peop", 3: "Loc", 4: "Loc"},
            {(0, 3): "N", (0, 4): "Live_in"},
        )
        report = score_setup3({"p": table}, [sent], label_space)
        assert report.re_f1["Live_in"] == 1.0

    def test_empty_table_zero_recall(self, label_space):
        sent = self.make_pair_sentence()
        report = score_setup3({}, [sent], label_space)
        assert report.re_f1["Live_in"] == 0.0
        assert report.counts["Live_in"].fn == 1

    def test_entity_at_least_one_token(self, label_space):
        sent = self.make_pair_sentence()
        table = PredictedTable("p", {0: "Peop", 3: "O", 4: "Loc"}, {(0, 4): "Live_in"})
        report = score_setup3({"p": table}, [sent], label_space)
        assert report.ec_f1["Loc"] == 1.0

    def test_collapsed_fp_for_wrong_pair_prediction(self, label_space):
        sent = self.make_pair_sentence()
        table = PredictedTable("p", {}, {(0, 3): "Kill", (0, 4): "Kill"})
        report = score_setup3({"p": table}, [sent], label_space)
        # both wrong cells over one gold pair collapse to a single decision
        assert report.counts["Kill"].fp == 1
        assert report.counts["Live_in"].fn == 1

    def test_stray_cell_fp_per_cell(self, label_space):
        sent = Sentence("s", ["a", "b", "c"], [], [])
        table = PredictedTable("s", {}, {(0, 1): "Kill", (1, 2): "Kill"})
        report = score_setup3({"s": table}, [sent], label_space)
        assert report.counts["Kill"].fp == 2

    def test_random_tables_match_enumeration_oracle(self, label_space):
        """Random tables over synthetic sentences, and over a hand-built pair
        that carries two relations, Work_for one way and Live_in the other,
        with each relation label in turn on the pair's cell."""
        rng = np.random.default_rng(6)
        ls = label_space
        grammar = synth.default_grammar(seed=8)
        sentences = synth.generate(grammar, 100)
        labels = list(RE_LABELS)

        def random_table(sent):
            n = len(sent.tokens)
            ec = {t: ls.ec_labels[rng.integers(0, 5)] for t in range(n)}
            rel = {}
            for i in range(n):
                for j in range(i + 1, n):
                    # bias towards N so tables stay sparse
                    rel[(i, j)] = labels[rng.integers(0, 6)] if rng.random() < 0.3 else "N"
            return PredictedTable(sent.id, ec, rel)

        inputs = []
        for batch in range(2):
            subset = sentences[batch * 50 : (batch + 1) * 50]
            inputs.append(({sent.id: random_table(sent) for sent in subset}, subset))
        shared = Sentence(
            "w",
            ["per1", "works", "for", "org1"],
            [EntityMention(0, 1, "Peop"), EntityMention(3, 4, "Org")],
            [RelationAnnotation(0, 1, "Work_for"), RelationAnnotation(1, 0, "Live_in")],
        )
        for label in labels:
            table = random_table(shared)
            table.rel_by_cell[(0, 3)] = label
            inputs.append(({shared.id: table}, [shared]))
        for tables, subset in inputs:
            report = score_setup3(tables, subset, ls)
            oracle = setup3_oracle(tables, subset, ls)
            for cls in ls.ec_labels + ls.re_labels:
                if cls in ("O", NO_RELATION):
                    continue
                got = report.counts[cls]
                want = oracle[cls]
                assert (got.tp, got.fp, got.fn) == (want.tp, want.fp, want.fn), cls

    def test_perfect_setup3_from_queries(self, label_space):
        sentences = synth.generate(synth.default_grammar(seed=9), 10)
        queries, _ = gen_setup3(sentences)
        preds = perfect_predictions(queries, label_space)
        report = score_queries(queries, preds, 3, label_space, sentences)
        assert report.avg_ec_re == 1.0

    def test_setup3_counts_a_sentence_no_query_reaches(self, label_space):
        # gold predictions for the first sentence's queries only: the second
        # sentence's entities and relation are all missed
        sentences = synth.generate(synth.default_grammar(seed=9), 2)
        queries = [q for q in gen_setup3(sentences)[0] if q.sentence is sentences[0]]
        report = score_queries(queries, perfect_predictions(queries, label_space), 3,
                               label_space, sentences)
        missed = Counter(ent.type for ent in sentences[1].entities)
        missed.update(label for label, _ in related_pairs(sentences[1]).values())
        assert missed
        for cls, counts in report.counts.items():
            if cls != "O":  # each missed entity is predicted O
                assert (counts.fp, counts.fn) == (0, missed[cls]), cls


def plain_votes(queries, predictions, ls):
    """(gold, majority, votes) per (sentence id, span), voted the plain way:
    label names in query order, the majority by count with ties broken by
    canonical label order, the gold label the first query's."""
    votes = {}
    for query, (t1, _, t2) in zip(queries, predictions):
        for span, gold, idx in ((query.span_i, query.gold_t1, t1),
                                (query.span_j, query.gold_t2, t2)):
            votes.setdefault((query.sentence_id, span), (gold, []))[1].append(ls.class_labels[idx])
    voted = {}
    for key, (gold, labels) in votes.items():
        counts = Counter(labels)
        voted[key] = (gold, min(counts, key=lambda label: (-counts[label], ls.unified(label))),
                      labels)
    return voted


class TestScoreQueries:
    @pytest.mark.parametrize("setup", [2, 3])
    def test_random_predictions_match_plain_vote(self, label_space, setup):
        """score_queries against dense decisions built from plain_votes: each
        entity's votes draw from two labels, so they disagree and tie."""
        ls = label_space
        rng = np.random.default_rng(setup)
        sentences = synth.generate(synth.default_grammar(seed=12), 40)
        queries, _ = (gen_setup2 if setup == 2 else gen_setup3)(sentences)
        rels = [ls.unified(RE_LABELS[0]), ls.unified(NO_RELATION)]
        preds = [(int(rng.integers(0, 2)), rels[rng.integers(0, 2)], int(rng.integers(0, 2)))
                 for _ in queries]
        voted = plain_votes(queries, preds, ls)
        stats = disagreement_report([(majority, labels) for _, majority, labels in voted.values()])
        assert 0 < stats.n_disagreeing < stats.n_groups
        if setup == 3:
            tables = {}  # every cell's label and every token's majority, O and N included
            for query, pred in zip(queries, preds):
                table = tables.setdefault(query.sentence_id,
                                          PredictedTable(query.sentence_id, {}, {}))
                table.rel_by_cell[(query.span_i[0], query.span_j[0])] = ls.class_labels[pred[1]]
            for (sid, span), (_, majority, _) in voted.items():
                tables[sid].ec_by_token[span[0]] = majority
            expected = score_setup3(tables, sentences, ls, diagnostics=stats)
        else:
            re_classes = [cls for cls in ls.re_labels if cls != NO_RELATION]
            counts = class_counts([m for _, m, _ in voted.values()],
                                  [g for g, _, _ in voted.values()], ls.ec_labels)
            counts.update(class_counts([ls.class_labels[p[1]] for p in preds],
                                       [q.gold_rel for q in queries], re_classes))
            ec_f1 = {cls: counts[cls].f1 for cls in ls.ec_labels}
            re_f1 = {cls: counts[cls].f1 for cls in re_classes}
            expected = MetricsReport(ec_f1, re_f1, *macro_and_avg(ec_f1, re_f1, ls), counts, stats)
        report = score_queries(queries, preds, setup, ls, sentences)
        assert report.as_dict() == expected.as_dict()


class TestReportFormat:
    def test_contains_all_rows(self, label_space):
        sentences = synth.generate(synth.default_grammar(seed=10), 30)
        queries = gen_setup1(sentences)
        report = score_paired(queries, perfect_predictions(queries, label_space))
        text = format_report(report, label_space)
        for row in ("Peop", "Org", "Loc", "Other", "Avg EC", "Located_in", "Work_for",
                    "OrgBased_in", "Live_in", "Kill", "Avg RE", "Avg EC+RE"):
            assert row in text

    def test_as_dict_round_trips_json(self, label_space):
        import json

        sentences = synth.generate(synth.default_grammar(seed=11), 10)
        queries = gen_setup1(sentences)
        report = score_paired(queries, perfect_predictions(queries, label_space))
        blob = json.dumps(report.as_dict())
        assert json.loads(blob)["avg_ec_re"] == 1.0
