"""Turn sentences into model queries for the three experimental setups.

Setup 1 pairs gold named entities. Setup 2 fills a table whose rows are all
tokens with gold multi-token entities merged into single rows. Setup 3
ignores entity boundaries entirely (one row per token).

Queries keep their spans in textual order; when the annotated relation's
head is the later span, the query carries inverse=True so direction
survives aggregation.
"""

import json
from dataclasses import dataclass

import numpy as np

from entrel.corpus import NO_RELATION, LabelSpace, Sentence


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
    inverse: bool = False  # annotated head is the later span

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


def _relation_lookup(sentence: Sentence, label_space: LabelSpace):
    """Map ordered entity-index pairs to (label, inverse): textual order wins."""
    spans = [e.span for e in sentence.entities]
    best = {}
    for rel in sentence.relations:
        head_span, tail_span = spans[rel.head], spans[rel.tail]
        if head_span < tail_span:
            key, inverse = (rel.head, rel.tail), False
        else:
            key, inverse = (rel.tail, rel.head), True
        rank = label_space.re_labels.index(rel.type)
        # at most one relation per pair in the data; if duplicated, keep the
        # canonically first label for determinism
        if key not in best or rank < best[key][0]:
            best[key] = (rank, rel.type, inverse)
    return {key: (label, inverse) for key, (_, label, inverse) in best.items()}


def gen_setup1(sentences):
    """One query per ordered pair of gold named entities (type != O)."""
    ls = LabelSpace()
    queries = []
    for sentence in sentences:
        named = [
            (idx, ent) for idx, ent in enumerate(sentence.entities) if ent.type != "O"
        ]
        named.sort(key=lambda pair: pair[1].span)
        rel_by_pair = _relation_lookup(sentence, ls)
        for a in range(len(named)):
            for b in range(a + 1, len(named)):
                idx_a, ent_a = named[a]
                idx_b, ent_b = named[b]
                label, inverse = rel_by_pair.get((idx_a, idx_b), (NO_RELATION, False))
                queries.append(
                    Query(
                        sentence=sentence,
                        span_i=ent_a.span,
                        span_j=ent_b.span,
                        gold_t1=ent_a.type,
                        gold_rel=label,
                        gold_t2=ent_b.type,
                        setup=1,
                        inverse=inverse,
                    )
                )
    return queries


def _merged_rows(sentence: Sentence):
    """Row spans: all tokens, with gold entity spans merged into one row."""
    spans = sorted(e.span for e in sentence.entities)
    types = {e.span: e.type for e in sentence.entities}
    rows, labels = [], []
    pos = 0
    span_iter = iter(spans)
    nxt = next(span_iter, None)
    while pos < len(sentence.tokens):
        if nxt is not None and pos == nxt[0]:
            rows.append(nxt)
            labels.append(types[nxt])
            pos = nxt[1]
            nxt = next(span_iter, None)
        else:
            rows.append((pos, pos + 1))
            labels.append("O")
            pos += 1
    return rows, labels


def _token_rows(sentence: Sentence):
    """Row spans for setup 3: one row per token, labels from covering entity."""
    labels = ["O"] * len(sentence.tokens)
    for ent in sentence.entities:
        for t in range(ent.start, ent.end):
            labels[t] = ent.type
    rows = [(t, t + 1) for t in range(len(sentence.tokens))]
    return rows, labels


def _table_and_queries(sentence, rows, labels, setup, cell_relations, inverse_cells):
    gold = {}
    for i, label in enumerate(labels):
        gold[(i, i)] = label
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            gold[(i, j)] = NO_RELATION
    gold.update(cell_relations)
    table = TableSpec(sentence.id, rows, gold)
    queries = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            queries.append(
                Query(
                    sentence=sentence,
                    span_i=rows[i],
                    span_j=rows[j],
                    gold_t1=labels[i],
                    gold_rel=gold[(i, j)],
                    gold_t2=labels[j],
                    setup=setup,
                    inverse=(i, j) in inverse_cells,
                )
            )
    return table, queries


def gen_setup2(sentences):
    """Table filling over merged entity rows; one query per off-diagonal cell."""
    all_queries = []
    tables = {}
    for sentence in sentences:
        rows, labels = _merged_rows(sentence)
        row_of_span = {span: idx for idx, span in enumerate(rows)}
        cell_relations = {}
        inverse_cells = set()
        for rel in sentence.relations:
            ra = row_of_span[sentence.entities[rel.head].span]
            rb = row_of_span[sentence.entities[rel.tail].span]
            cell = (min(ra, rb), max(ra, rb))
            cell_relations[cell] = rel.type
            if ra > rb:
                inverse_cells.add(cell)
        table, queries = _table_and_queries(sentence, rows, labels, 2, cell_relations, inverse_cells)
        tables[sentence.id] = table
        all_queries.extend(queries)
    return all_queries, tables


def gen_setup3(sentences):
    """Table filling over single tokens; a relation labels every cell of the
    (head tokens x tail tokens) block."""
    all_queries = []
    tables = {}
    for sentence in sentences:
        rows, labels = _token_rows(sentence)
        cell_relations = {}
        inverse_cells = set()
        for rel in sentence.relations:
            head_span = sentence.entities[rel.head].span
            tail_span = sentence.entities[rel.tail].span
            inverse = head_span > tail_span
            first, second = sorted([head_span, tail_span])
            for a in range(first[0], first[1]):
                for b in range(second[0], second[1]):
                    cell_relations[(a, b)] = rel.type
                    if inverse:
                        inverse_cells.add((a, b))
        table, queries = _table_and_queries(sentence, rows, labels, 3, cell_relations, inverse_cells)
        tables[sentence.id] = table
        all_queries.extend(queries)
    return all_queries, tables


def subsample_negatives(queries, keep_prob: float, seed: int):
    """Independently keep each no-relation query with keep_prob (train/dev only)."""
    if not (0.0 < keep_prob <= 1.0):
        raise ConfigError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return list(queries)
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
        "inverse": query.inverse,
    }


def dump_queries(path, queries):
    """Write queries in the canonical line-delimited format for inspection."""
    with open(path, "w", encoding="utf-8") as handle:
        for query in queries:
            handle.write(json.dumps(query_to_record(query), ensure_ascii=False))
            handle.write("\n")
