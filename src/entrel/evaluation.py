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
"""

from collections import Counter
from dataclasses import dataclass, field

from entrel.analysis import DisagreementStats, disagreement_report
from entrel.corpus import NO_RELATION, LabelSpace, related_pairs


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


def class_counts(predictions, golds, cls) -> ClassCounts:
    if len(predictions) != len(golds):
        raise ValueError(f"{len(predictions)} predictions vs {len(golds)} golds")
    counts = ClassCounts()
    for pred, gold in zip(predictions, golds):
        if pred == cls and gold == cls:
            counts.tp += 1
        elif pred == cls:
            counts.fp += 1
        elif gold == cls:
            counts.fn += 1
    return counts


def _mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def macro_and_avg(ec_f1: dict, re_f1: dict, label_space: LabelSpace | None = None,
                  omit_other: bool = False):
    """(Avg EC, Avg RE, Avg EC+RE) from per-class F1 maps.

    O and N never participate; absent classes (value None) are skipped.
    omit_other additionally drops the entity class "Other".
    """
    ls = label_space or LabelSpace()
    ec_classes = [c for c in ls.ec_labels if c != "O" and not (omit_other and c == "Other")]
    re_classes = [c for c in ls.re_labels if c != NO_RELATION]
    avg_ec = _mean([ec_f1.get(c) for c in ec_classes])
    avg_re = _mean([re_f1.get(c) for c in re_classes])
    avg_both = _mean([avg_ec, avg_re])
    return avg_ec, avg_re, avg_both


def majority_vote(votes, label_space: LabelSpace | None = None) -> str:
    """Most frequent label; ties break by canonical label order."""
    if not votes:
        raise ValueError("majority_vote needs at least one vote")
    ls = label_space or LabelSpace()
    counts = Counter(votes)
    return min(counts, key=lambda label: (-counts[label], ls.unified(label)))


def _entity_votes(queries, predictions, label_space: LabelSpace):
    """One entry per (sentence_id, span) that some query holds: (gold label,
    majority label, votes), the votes being the labels every query holding
    the span predicted for it, in query order."""
    ls = label_space
    votes = {}
    for query, (t1, _, t2) in zip(queries, predictions):
        for span, gold, idx in ((query.span_i, query.gold_t1, t1),
                                (query.span_j, query.gold_t2, t2)):
            votes.setdefault((query.sentence_id, span), (gold, []))[1].append(ls.label_of(idx))
    return {key: (gold, majority_vote(labels, ls), labels)
            for key, (gold, labels) in votes.items()}


def _disagreement(voted):
    return disagreement_report([(majority, labels) for _, majority, labels in voted.values()])


def _report_from_decisions(ec_decisions, re_decisions, ls, omit_other, diagnostics):
    counts = {}
    ec_f1 = {}
    for cls in ls.ec_labels:
        c = class_counts([p for p, _ in ec_decisions], [g for _, g in ec_decisions], cls)
        counts[cls] = c
        ec_f1[cls] = c.f1
    re_f1 = {}
    for cls in ls.re_labels:
        if cls == NO_RELATION:
            continue
        c = class_counts([p for p, _ in re_decisions], [g for _, g in re_decisions], cls)
        counts[cls] = c
        re_f1[cls] = c.f1
    avg_ec, avg_re, avg_both = macro_and_avg(ec_f1, re_f1, ls, omit_other)
    return MetricsReport(ec_f1, re_f1, avg_ec, avg_re, avg_both, counts, diagnostics)


def score_paired(queries, predictions, label_space: LabelSpace | None = None,
                 omit_other: bool = False) -> MetricsReport:
    """Setup 1/2 scoring: majority-voted entity decisions, per-pair relations."""
    ls = label_space or LabelSpace()
    voted = _entity_votes(queries, predictions, ls)
    ec_decisions = [(majority, gold) for gold, majority, _ in voted.values()]
    re_decisions = [(ls.label_of(pred[1]), query.gold_rel)
                    for query, pred in zip(queries, predictions)]
    return _report_from_decisions(ec_decisions, re_decisions, ls, omit_other,
                                  _disagreement(voted))


@dataclass
class PredictedTable:
    """Decoded table for one sentence in setup 3 (token rows)."""

    sentence_id: str
    ec_by_token: dict  # token index -> majority-voted label
    rel_by_cell: dict  # (i, j) token pair, i < j -> relation label (may be N)


def score_setup3(tables: dict, sentences, label_space: LabelSpace | None = None,
                 omit_other: bool = False, diagnostics: DisagreementStats | None = None) -> MetricsReport:
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
    ls = label_space or LabelSpace()
    ec_decisions = []
    re_decisions = []
    for sentence in sentences:
        table = tables.get(sentence.id, PredictedTable(sentence.id, {}, {}))
        covered = {}
        for ent_idx, ent in enumerate(sentence.entities):
            for t in range(ent.start, ent.end):
                covered[t] = ent_idx
        # entity decisions: at-least-one over the entity's tokens
        for ent in sentence.entities:
            votes = [table.ec_by_token.get(t) for t in range(ent.start, ent.end)]
            votes = [v for v in votes if v is not None]
            if ent.type in votes:
                ec_decisions.append((ent.type, ent.type))
            else:
                wrong = [v for v in votes if v != "O"]
                if wrong:
                    ec_decisions.append((majority_vote(wrong, ls), ent.type))
                else:
                    ec_decisions.append(("O", ent.type))
        for t, label in sorted(table.ec_by_token.items()):
            if t not in covered and label != "O":
                ec_decisions.append((label, "O"))
        # relation decisions
        pairs = related_pairs(sentence)
        pair_of_cell = {}
        for first, second in pairs:
            for a in range(*first):
                for b in range(*second):
                    pair_of_cell[(a, b)] = (first, second)
        under = {pair: [] for pair in pairs}
        for cell, label in sorted(table.rel_by_cell.items()):
            if label == NO_RELATION:
                continue
            pair = pair_of_cell.get(cell)
            if pair is None:
                re_decisions.append((label, NO_RELATION))
            else:
                under[pair].append(label)
        for pair, (gold_label, _) in pairs.items():
            labels = under[pair]
            if gold_label in labels:
                re_decisions.append((gold_label, gold_label))
            elif labels:
                re_decisions.append((majority_vote(labels, ls), gold_label))
            else:
                re_decisions.append((NO_RELATION, gold_label))
    return _report_from_decisions(ec_decisions, re_decisions, ls, omit_other, diagnostics)


def score_queries(queries, predictions, setup: int, label_space: LabelSpace | None = None,
                  sentences=None, omit_other: bool = False) -> MetricsReport:
    """Setup-aware scoring entry point used by training and the CLI."""
    ls = label_space or LabelSpace()
    if setup in (1, 2):
        return score_paired(queries, predictions, ls, omit_other)
    if setup == 3:
        if sentences is None:
            sentences = list({q.sentence_id: q.sentence for q in queries}.values())
        voted = _entity_votes(queries, predictions, ls)
        tables = {}
        for query, pred in zip(queries, predictions):
            table = tables.setdefault(query.sentence_id,
                                      PredictedTable(query.sentence_id, {}, {}))
            table.rel_by_cell[(query.span_i[0], query.span_j[0])] = ls.label_of(pred[1])
        for (sid, span), (_, majority, _) in voted.items():
            tables[sid].ec_by_token[span[0]] = majority
        return score_setup3(tables, sentences, ls, omit_other, _disagreement(voted))
    raise ValueError(f"unknown setup {setup}")


def format_report(report: MetricsReport, label_space: LabelSpace | None = None) -> str:
    """Aligned plain-text table in the per-class / Avg row layout."""
    ls = label_space or LabelSpace()

    def fmt(value):
        return "  absent" if value is None else f"{100 * value:8.2f}"

    lines = []
    for cls in ls.ec_labels:
        if cls == "O":
            continue
        lines.append(f"{cls:<12}{fmt(report.ec_f1.get(cls))}")
    lines.append(f"{'Avg EC':<12}{fmt(report.avg_ec)}")
    for cls in ls.re_labels:
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
