"""Post-hoc model inspection: transition-matrix edges and entity-vote
disagreement statistics."""

import statistics
from dataclasses import dataclass

from entrel.corpus import LabelSpace


@dataclass(frozen=True)
class TransitionEdge:
    from_label: str
    to_label: str
    score: float
    involves_tag: bool  # from/to is the begin or end tag


@dataclass
class TransitionReport:
    threshold: float
    edges: list  # TransitionEdge sorted by descending score


def inspect_transitions(q, threshold: float = 0.5) -> TransitionReport:
    """All transition-matrix cells with score above the threshold.

    Begin/end rows are included but flagged so reports can separate learned
    class-to-class correlations from boundary effects.
    """
    ls = LabelSpace()
    size = ls.size_with_tags
    if q.shape != (size, size):
        raise ValueError(f"transition matrix shape {q.shape}, expected {(size, size)}")
    edges = []
    for i in range(size):
        for j in range(size):
            score = float(q[i, j])
            if score > threshold:
                tagged = i >= ls.n_classes or j >= ls.n_classes
                edges.append(TransitionEdge(ls.label_of(i), ls.label_of(j), score, tagged))
    edges.sort(key=lambda e: (-e.score, e.from_label, e.to_label))
    return TransitionReport(threshold, edges)


@dataclass
class DisagreementStats:
    n_groups: int
    n_disagreeing: int
    fraction: float  # disagreeing entities / all entities
    max_fraction: float | None  # over disagreeing entities only
    min_fraction: float | None
    median_fraction: float | None


def disagreement_report(groups) -> DisagreementStats:
    """Stats over (majority_label, votes) groups from majority voting.

    The disagreement of one entity is the fraction of its votes that differ
    from the majority label; entities with unanimous votes never count.
    """
    fractions = []
    total = 0
    for majority, votes in groups:
        total += 1
        if not votes:
            raise ValueError("disagreement_report: empty vote group")
        wrong = len(votes) - votes.count(majority)
        if wrong:
            fractions.append(wrong / len(votes))
    if fractions:
        return DisagreementStats(
            total,
            len(fractions),
            len(fractions) / total,
            max(fractions),
            min(fractions),
            statistics.median(fractions),
        )
    return DisagreementStats(total, 0, 0.0, None, None, None)
