"""Turn sentences into model queries for the three experimental setups.

All three setups fill one entity-relation table per sentence (Miwa & Sasaki,
2014); only the row layout differs:

- setup 1: one row per gold named entity (type != O);
- setup 2: all tokens, with each gold entity merged into one row;
- setup 3: one row per token, ignoring entity boundaries.

Each cell above the diagonal is one query over its two rows, in textual
order. A row is labelled with the type of the gold entity that holds it (O
if none). A cell's gold relation is that of the entity pair holding its two
rows, as corpus.related_pairs decides it: where several relations share a
pair, the canonically first label wins. The labels are undirected, so a
query does not say which of its spans is the annotated head.

gen_setup1 builds no table and returns the queries alone. gen_setup2/3
still return (queries, tables), because
perfbench/bench_workloads.py::generate_queries indexes [0].
"""

import json
from dataclasses import dataclass

import numpy as np

from entrel.corpus import NO_RELATION, Sentence, related_pairs


class QueryError(ValueError):
    pass


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Query:
    """One model input: a sentence, two ordered spans and the gold triple."""

    sentence: Sentence
    span_i: tuple
    span_j: tuple
    gold_t1: str
    gold_rel: str
    gold_t2: str
    setup: int

    @property
    def sentence_id(self) -> str:
        return self.sentence.id


@dataclass
class TableSpec:
    """Gold upper-triangle (incl. diagonal) cell labels for one sentence."""

    sentence_id: str
    row_spans: list  # ordered (start, end) token spans
    gold: dict  # (i, j) with i <= j -> label (EC on the diagonal, RE off it)


def check_spans(n_tokens, span_i, span_j):
    """Raise QueryError unless both spans lie in the sentence, ordered and disjoint."""
    si, ei = span_i
    sj, ej = span_j
    if not (0 <= si < ei <= n_tokens and 0 <= sj < ej <= n_tokens):
        raise QueryError(f"span outside sentence: {span_i}, {span_j} for {n_tokens} tokens")
    if ei > sj:
        raise QueryError(f"spans must be ordered and non-overlapping: {span_i}, {span_j}")


def _named_rows(sentence: Sentence):
    """Setup 1: one row per gold named entity (type != O)."""
    return sorted(e.span for e in sentence.entities if e.type != "O")


def _merged_rows(sentence: Sentence):
    """Setup 2: all tokens, with each gold entity merged into one row."""
    ends = {e.start: e.end for e in sentence.entities}
    rows, pos = [], 0
    while pos < len(sentence.tokens):
        end = ends.get(pos, pos + 1)
        rows.append((pos, end))
        pos = end
    return rows


def _token_rows(sentence: Sentence):
    """Setup 3: one row per token."""
    return [(t, t + 1) for t in range(len(sentence.tokens))]


def _fill_tables(sentences, setup, row_layout):
    """Per sentence: the sentence, the rows row_layout gives it, their labels
    and one query per cell above the diagonal, in row order.

    A row is labelled with the type of the entity that holds it (O if none);
    a related entity pair labels every row pair inside its two entities.
    """
    for sentence in sentences:
        rows = row_layout(sentence)
        owner = {t: e for e in sentence.entities for t in range(e.start, e.end)}
        held_by = [owner.get(start) for start, _ in rows]
        spans = [None if e is None else e.span for e in held_by]
        labels = ["O" if e is None else e.type for e in held_by]
        pairs = related_pairs(sentence)
        queries = []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                rel = pairs.get((spans[i], spans[j]), NO_RELATION)
                queries.append(Query(sentence, rows[i], rows[j], labels[i], rel, labels[j],
                                     setup))
        yield sentence, rows, labels, queries


def _queries_and_tables(sentences, setup, row_layout):
    """All queries, and the gold TableSpec of each sentence by id."""
    all_queries = []
    tables = {}
    for sentence, rows, labels, queries in _fill_tables(sentences, setup, row_layout):
        row_of = {span: k for k, span in enumerate(rows)}
        gold = {(k, k): label for k, label in enumerate(labels)}
        gold.update(((row_of[q.span_i], row_of[q.span_j]), q.gold_rel) for q in queries)
        tables[sentence.id] = TableSpec(sentence.id, rows, gold)
        all_queries.extend(queries)
    return all_queries, tables


def gen_setup1(sentences):
    """One query per ordered pair of gold named entities (type != O)."""
    return [q for *_, queries in _fill_tables(sentences, 1, _named_rows) for q in queries]


def gen_setup2(sentences):
    """Table filling over merged entity rows; one query per off-diagonal cell."""
    return _queries_and_tables(sentences, 2, _merged_rows)


def gen_setup3(sentences):
    """Table filling over single tokens; a relation labels every cell of the
    (head tokens x tail tokens) block."""
    return _queries_and_tables(sentences, 3, _token_rows)


def subsample_negatives(queries, keep_prob: float, seed: int):
    """Independently keep each no-relation query with keep_prob (train/dev only)."""
    if not (0.0 < keep_prob <= 1.0):
        raise ConfigError(f"keep_prob must be in (0, 1], got {keep_prob}")
    rng = np.random.default_rng(seed)
    kept = []
    for query in queries:
        if query.gold_rel != NO_RELATION:
            kept.append(query)
        elif rng.random() < keep_prob:
            kept.append(query)
    return kept


def query_to_record(query: Query) -> dict:
    return {
        "sentence_id": query.sentence_id,
        "span_i": list(query.span_i),
        "span_j": list(query.span_j),
        "gold_t1": query.gold_t1,
        "gold_rel": query.gold_rel,
        "gold_t2": query.gold_t2,
        "setup": query.setup,
    }


def dump_queries(path, queries):
    """Write queries in the canonical line-delimited format for inspection."""
    with open(path, "w", encoding="utf-8") as handle:
        for query in queries:
            handle.write(json.dumps(query_to_record(query), ensure_ascii=False))
            handle.write("\n")
