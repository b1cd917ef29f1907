"""Scoring: per-class F1, task macros, majority-vote aggregation and the
relaxed setup-3 table scorer.

F1 per class is computed from aligned prediction/gold decision lists.
Macros average the per-class F1 of the four entity classes (O excluded) and
of the five relation classes (N excluded); classes that never occur as
prediction or gold are reported as absent and excluded from the macro.

Entity decisions come from one vote pass over the queries: each (sentence,
span) gets its gold label, its votes and their majority. Gold relations come
from the queries in setups 1 and 2, and from corpus.related_pairs in setup
3, the rule the queries' gold labels were generated with.

Scoring needs the corpus the queries came from: setup 3 counts every gold
entity and relation of each sentence, also of one that negative subsampling
left without a query.
"""

from collections import Counter
from dataclasses import dataclass, field

from entrel.analysis import DisagreementStats, disagreement_report
from entrel.corpus import EC_LABELS, NO_RELATION, RE_LABELS, LabelSpace, related_pairs


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def absent(self) -> bool:
        return self.tp == 0 and self.fp == 0 and self.fn == 0

    @property
    def f1(self):
        if self.absent:
            return None
        if self.tp == 0:
            return 0.0
        precision = self.tp / (self.tp + self.fp)
        recall = self.tp / (self.tp + self.fn)
        return 2 * precision * recall / (precision + recall)


@dataclass
class MetricsReport:
    ec_f1: dict
    re_f1: dict
    avg_ec: float | None
    avg_re: float | None
    avg_ec_re: float | None
    counts: dict = field(default_factory=dict)
    disagreement: DisagreementStats | None = None

    def as_dict(self):
        return {
            "ec_f1": self.ec_f1,
            "re_f1": self.re_f1,
            "avg_ec": self.avg_ec,
            "avg_re": self.avg_re,
            "avg_ec_re": self.avg_ec_re,
            "counts": {k: vars(v).copy() for k, v in self.counts.items()},
            "disagreement": None if self.disagreement is None else vars(self.disagreement).copy(),
        }


def class_counts(predictions, golds, classes) -> dict:
    """ClassCounts of each of ``classes`` over aligned prediction/gold lists;
    labels outside ``classes`` count for none."""
    if len(predictions) != len(golds):
        raise ValueError(f"{len(predictions)} predictions vs {len(golds)} golds")
    counts = {cls: ClassCounts() for cls in classes}
    for (pred, gold), n in Counter(zip(predictions, golds)).items():
        if pred == gold:
            if pred in counts:
                counts[pred].tp += n
        else:
            if pred in counts:
                counts[pred].fp += n
            if gold in counts:
                counts[gold].fn += n
    return counts


def _mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def macro_and_avg(ec_f1: dict, re_f1: dict, omit_other: bool = False):
    """(Avg EC, Avg RE, Avg EC+RE) from per-class F1 maps.

    O and N never participate; absent classes (value None) are skipped.
    omit_other additionally drops the entity class "Other".
    """
    ec_classes = [c for c in EC_LABELS if c != "O" and not (omit_other and c == "Other")]
    re_classes = [c for c in RE_LABELS if c != NO_RELATION]
    avg_ec = _mean([ec_f1.get(c) for c in ec_classes])
    avg_re = _mean([re_f1.get(c) for c in re_classes])
    avg_both = _mean([avg_ec, avg_re])
    return avg_ec, avg_re, avg_both


def majority_vote(votes) -> str:
    """Most frequent label; ties break by canonical label order."""
    if not votes:
        raise ValueError("majority_vote needs at least one vote")
    return _majority(votes, LabelSpace().unified)


def _majority(votes, order=None):
    """Most frequent of a non-empty list of votes; ties go to the least by
    ``order`` (by default the votes' own order)."""
    first = votes[0]
    if votes.count(first) == len(votes):
        return first
    counts = Counter(votes)
    top = max(counts.values())
    return min((vote for vote, n in counts.items() if n == top), key=order)


def _entity_votes(queries, predictions):
    """The entity votes of the queries as {sentence_id: {span: (gold label,
    majority, votes)}}, one entry per span that some query holds: the votes
    are the unified indices that every query holding the span predicted for
    it, in query order; the majority breaks ties by canonical label order,
    and the gold label is the first such query's."""
    by_sentence, sentence = {}, None
    for query, (t1, _, t2) in zip(queries, predictions):
        if query.sentence is not sentence:
            sentence = query.sentence
            spans = by_sentence.setdefault(query.sentence_id, {})
        # the two spans written out: a loop over them costs as much again
        voted = spans.get(query.span_i)
        if voted is None:
            spans[query.span_i] = (query.gold_t1, [t1])
        else:
            voted[1].append(t1)
        voted = spans.get(query.span_j)
        if voted is None:
            spans[query.span_j] = (query.gold_t2, [t2])
        else:
            voted[1].append(t2)
    return {sid: {span: (gold, _majority(votes), votes) for span, (gold, votes) in spans.items()}
            for sid, spans in by_sentence.items()}


def _disagreement(voted):
    return disagreement_report([(majority, votes) for spans in voted.values()
                                for _, majority, votes in spans.values()])


def _report_from_decisions(ec_decisions, re_decisions, omit_other, diagnostics):
    re_classes = [cls for cls in RE_LABELS if cls != NO_RELATION]
    counts = {}
    for decisions, classes in ((ec_decisions, EC_LABELS), (re_decisions, re_classes)):
        predictions, golds = zip(*decisions) if decisions else ((), ())
        counts.update(class_counts(predictions, golds, classes))
    ec_f1 = {cls: counts[cls].f1 for cls in EC_LABELS}
    re_f1 = {cls: counts[cls].f1 for cls in re_classes}
    avg_ec, avg_re, avg_both = macro_and_avg(ec_f1, re_f1, omit_other)
    return MetricsReport(ec_f1, re_f1, avg_ec, avg_re, avg_both, counts, diagnostics)


def score_paired(queries, predictions, omit_other: bool = False) -> MetricsReport:
    """Setup 1/2 scoring: majority-voted entity decisions, per-pair relations."""
    voted = _entity_votes(queries, predictions)
    names = EC_LABELS + RE_LABELS
    ec_decisions = [(names[majority], gold) for spans in voted.values()
                    for gold, majority, _ in spans.values()]
    re_decisions = [(names[pred[1]], query.gold_rel)
                    for query, pred in zip(queries, predictions)]
    return _report_from_decisions(ec_decisions, re_decisions, omit_other, _disagreement(voted))


@dataclass
class PredictedTable:
    """Decoded table for one sentence in setup 3 (token rows)."""

    sentence_id: str
    ec_by_token: dict  # token index -> majority-voted label
    rel_by_cell: dict  # (i, j) token pair, i < j -> relation label (may be N)


def score_setup3(tables: dict, sentences, omit_other: bool = False,
                 diagnostics: DisagreementStats | None = None) -> MetricsReport:
    """Relaxed token-table scoring.

    A gold relation is a true positive iff at least one of its comprising
    cells predicts it; all non-N predictions over one gold pair collapse to
    a single decision (majority label, canonical tie-break). A non-N cell
    under no gold pair is one false positive for its label. Gold entities
    are scored the same way over their token cells; off-entity tokens with
    a non-O vote are one false positive each.

    The gold pairs and their labels are corpus.related_pairs of each
    sentence, the rule querygen labels the queries' cells with.
    """
    ec_decisions = []
    re_decisions = []
    empty = PredictedTable("", {}, {})
    for sentence in sentences:
        table = tables.get(sentence.id, empty)
        ec_by_token = table.ec_by_token
        span_of = {}  # token -> the span of the entity that holds it
        # entity decisions: at-least-one over the entity's tokens
        for ent in sentence.entities:
            tokens = range(ent.start, ent.end)
            span_of.update(dict.fromkeys(tokens, ent.span))
            votes = [ec_by_token[t] for t in tokens if t in ec_by_token]
            if ent.type in votes:
                ec_decisions.append((ent.type, ent.type))
            else:
                wrong = [v for v in votes if v != "O"]
                if wrong:
                    ec_decisions.append((majority_vote(wrong), ent.type))
                else:
                    ec_decisions.append(("O", ent.type))
        for t, label in ec_by_token.items():
            if t not in span_of and label != "O":
                ec_decisions.append((label, "O"))
        # relation decisions: a cell (a, b) lies under the pair of the
        # entities that hold a and b
        pairs = related_pairs(sentence)
        under = {pair: [] for pair in pairs}
        for (a, b), label in table.rel_by_cell.items():
            if label == NO_RELATION:
                continue
            pair = (span_of.get(a), span_of.get(b))
            if pair in under:
                under[pair].append(label)
            else:
                re_decisions.append((label, NO_RELATION))
        for pair, gold_label in pairs.items():
            labels = under[pair]
            if gold_label in labels:
                re_decisions.append((gold_label, gold_label))
            elif labels:
                re_decisions.append((majority_vote(labels), gold_label))
            else:
                re_decisions.append((NO_RELATION, gold_label))
    return _report_from_decisions(ec_decisions, re_decisions, omit_other, diagnostics)


def score_queries(queries, predictions, setup: int, label_space: LabelSpace,
                  sentences, omit_other: bool = False) -> MetricsReport:
    """Setup-aware scoring entry point used by training and the CLI, over
    ``sentences``, the corpus the queries came from.

    ``label_space`` is always ``LabelSpace()``; it stays a parameter only
    because the benchmark passes it (perfbench/bench_workloads.py:443)."""
    if setup in (1, 2):
        return score_paired(queries, predictions, omit_other)
    if setup == 3:
        voted = _entity_votes(queries, predictions)
        names = label_space.class_labels
        no_relation, other = label_space.unified(NO_RELATION), label_space.unified("O")
        # the tables hold only the tokens voted other than O and the cells
        # predicted other than N: score_setup3 reads the rest as O and N
        tables = {sid: PredictedTable(sid, {span[0]: names[majority]
                                            for span, (_, majority, _) in spans.items()
                                            if majority != other}, {})
                  for sid, spans in voted.items()}
        for query, (_, rel, _) in zip(queries, predictions):
            if rel != no_relation:
                cell = (query.span_i[0], query.span_j[0])
                tables[query.sentence_id].rel_by_cell[cell] = names[rel]
        return score_setup3(tables, sentences, omit_other, _disagreement(voted))
    raise ValueError(f"unknown setup {setup}")


def format_report(report: MetricsReport) -> str:
    """Aligned plain-text table in the per-class / Avg row layout."""

    def fmt(value):
        return "  absent" if value is None else f"{100 * value:8.2f}"

    lines = []
    for cls in EC_LABELS:
        if cls == "O":
            continue
        lines.append(f"{cls:<12}{fmt(report.ec_f1.get(cls))}")
    lines.append(f"{'Avg EC':<12}{fmt(report.avg_ec)}")
    for cls in RE_LABELS:
        if cls == NO_RELATION:
            continue
        lines.append(f"{cls:<12}{fmt(report.re_f1.get(cls))}")
    lines.append(f"{'Avg RE':<12}{fmt(report.avg_re)}")
    lines.append(f"{'Avg EC+RE':<12}{fmt(report.avg_ec_re)}")
    if report.disagreement is not None:
        d = report.disagreement
        lines.append(
            f"disagreement: {d.n_disagreeing}/{d.n_groups} entities"
            f" ({100 * d.fraction:.2f}%)"
        )
        if d.n_disagreeing:
            lines.append(
                f"  per-entity disagreement max/median/min: "
                f"{100 * d.max_fraction:.0f}%/{100 * d.median_fraction:.0f}%/{100 * d.min_fraction:.0f}%"
            )
    return "\n".join(lines)
