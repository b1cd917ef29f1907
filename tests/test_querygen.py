import pytest

from entrel import synth
from entrel.corpus import NO_RELATION, EntityMention, RelationAnnotation, Sentence
from entrel.querygen import (
    ConfigError,
    QueryError,
    check_spans,
    dump_queries,
    gen_setup1,
    gen_setup2,
    gen_setup3,
    subsample_negatives,
)

from conftest import FIG_TOKENS


def fig_sentence():
    return Sentence(
        "fig",
        FIG_TOKENS,
        [EntityMention(0, 1, "Peop"), EntityMention(7, 9, "Loc"), EntityMention(11, 14, "Org")],
        [RelationAnnotation(0, 1, "Live_in")],
    )


class TestCheckSpans:
    def test_overlapping_spans_rejected(self):
        check_spans(3, (0, 1), (1, 3))
        with pytest.raises(QueryError, match="non-overlapping"):
            check_spans(3, (0, 2), (1, 3))
        with pytest.raises(QueryError, match="outside"):
            check_spans(3, (0, 1), (2, 4))


class TestSetup1:
    def test_three_named_entities_three_pairs(self):
        queries = gen_setup1([fig_sentence()])
        assert len(queries) == 3

    def test_gold_triples(self):
        queries = gen_setup1([fig_sentence()])
        by_spans = {(q.span_i, q.span_j): q for q in queries}
        live = by_spans[((0, 1), (7, 9))]
        assert (live.gold_t1, live.gold_rel, live.gold_t2) == ("Peop", "Live_in", "Loc")
        rest = by_spans[((0, 1), (11, 14))]
        assert rest.gold_rel == "N"

    def test_kill_pair_carries_gold(self):
        sent = Sentence(
            "k",
            ["per1", "killed", "per2"],
            [EntityMention(0, 1, "Peop"), EntityMention(2, 3, "Peop")],
            [RelationAnnotation(0, 1, "Kill")],
        )
        (query,) = gen_setup1([sent])
        assert (query.gold_t1, query.gold_rel, query.gold_t2) == ("Peop", "Kill", "Peop")

    def test_o_entities_excluded(self):
        sent = Sentence(
            "o",
            ["a", "b", "c"],
            [EntityMention(0, 1, "Peop"), EntityMention(1, 2, "O"), EntityMention(2, 3, "Loc")],
            [],
        )
        queries = gen_setup1([sent])
        assert len(queries) == 1
        assert queries[0].span_i == (0, 1) and queries[0].span_j == (2, 3)

    def test_later_head_labels_the_pair_in_text_order(self):
        # annotated head is the later span: the query keeps text order
        sent = Sentence(
            "inv",
            ["loc1", "is", "home", "of", "per1"],
            [EntityMention(0, 1, "Loc"), EntityMention(4, 5, "Peop")],
            [RelationAnnotation(1, 0, "Live_in")],
        )
        (query,) = gen_setup1([sent])
        assert (query.span_i, query.span_j) == ((0, 1), (4, 5))
        assert (query.gold_t1, query.gold_rel, query.gold_t2) == ("Loc", "Live_in", "Peop")


class TestSetup2:
    def test_counts_m4(self):
        # 2 two-token entities + 2 plain tokens -> 4 rows
        sent = Sentence(
            "m4",
            ["a", "b", "x", "c", "d", "y"],
            [EntityMention(0, 2, "Peop"), EntityMention(3, 5, "Loc")],
            [RelationAnnotation(0, 1, "Live_in")],
        )
        queries, tables = gen_setup2([sent])
        table = tables["m4"]
        assert len(table.row_spans) == 4
        assert len(queries) == 6  # m(m-1)/2
        assert len(table.gold) == 10  # m(m+1)/2 cells

    def test_live_in_cell_location(self):
        _, tables = gen_setup2([fig_sentence()])
        table = tables["fig"]
        anderson = table.row_spans.index((0, 1))
        middle_east = table.row_spans.index((7, 9))
        assert table.gold[(anderson, middle_east)] == "Live_in"
        assert table.gold[(anderson, anderson)] == "Peop"
        assert table.gold[(middle_east, middle_east)] == "Loc"

    def test_every_gold_relation_in_exactly_one_cell(self):
        sentences = synth.generate(synth.default_grammar(seed=5), 60)
        _, tables = gen_setup2(sentences)
        for sentence in sentences:
            table = tables[sentence.id]
            non_n = {cell: lab for cell, lab in table.gold.items()
                     if cell[0] != cell[1] and lab != "N"}
            assert len(non_n) == len(sentence.relations)
            # exhaustive re-scan: each annotated relation appears once
            for rel in sentence.relations:
                spans = sorted([sentence.entities[rel.head].span,
                                sentence.entities[rel.tail].span])
                cell = (table.row_spans.index(spans[0]), table.row_spans.index(spans[1]))
                assert non_n[cell] == rel.type

    def test_gold_labels_consistent_with_annotations(self):
        sentences = synth.generate(synth.default_grammar(seed=6), 40)
        queries, _ = gen_setup2(sentences)
        by_id = {s.id: s for s in sentences}
        for q in queries:
            sent = by_id[q.sentence_id]
            types = {e.span: e.type for e in sent.entities}
            assert q.gold_t1 == types.get(q.span_i, "O")
            assert q.gold_t2 == types.get(q.span_j, "O")


class TestSetup3:
    def test_five_tokens_ten_queries(self):
        sent = Sentence("t5", ["a", "b", "c", "d", "e"], [], [])
        queries, tables = gen_setup3([sent])
        assert len(queries) == 10
        assert len(tables["t5"].gold) == 15

    def test_multi_token_relation_labels_product_cells(self):
        sent = Sentence(
            "mt",
            ["per1", "lives", "in", "new", "loc1"],
            [EntityMention(0, 1, "Peop"), EntityMention(3, 5, "Loc")],
            [RelationAnnotation(0, 1, "Live_in")],
        )
        _, tables = gen_setup3([sent])
        gold = tables["mt"].gold
        live_cells = {c for c, lab in gold.items() if lab == "Live_in"}
        assert live_cells == {(0, 3), (0, 4)}
        assert gold[(3, 3)] == "Loc" and gold[(4, 4)] == "Loc"

    def test_setup3_query_count_at_least_setup2(self):
        sentences = synth.generate(synth.default_grammar(seed=7), 30)
        q2, _ = gen_setup2(sentences)
        q3, _ = gen_setup3(sentences)
        assert len(q3) >= len(q2)


# two relations on one pair: Work_for is canonically first, so it wins in
# either listing order
WORK_LIVE = [RelationAnnotation(0, 1, "Work_for"), RelationAnnotation(1, 0, "Live_in")]


def two_relation_sentence(sid, relations):
    return Sentence(sid, ["per1", "works", "for", "the", "org", "one"],
                    [EntityMention(0, 1, "Peop"), EntityMention(4, 6, "Org")], relations)


def hand_built_corpus():
    return [
        two_relation_sentence("listed", WORK_LIVE),
        two_relation_sentence("reversed", WORK_LIVE[::-1]),
        Sentence(  # relations touching an O-typed entity
            "o-rel",
            ["per1", "x", "some", "thing", "y", "loc1"],
            [EntityMention(0, 1, "Peop"), EntityMention(2, 4, "O"), EntityMention(5, 6, "Loc")],
            [RelationAnnotation(0, 2, "Live_in"), RelationAnnotation(1, 0, "Kill")],
        ),
    ]


RULE_CORPORA = {
    "default": lambda: synth.generate(synth.default_grammar(seed=11), 150),
    "ambiguous": lambda: synth.generate(synth.ambiguous_grammar(seed=11), 150),
    "hand-built": hand_built_corpus,
}


def cells(queries):
    return [(q.sentence_id, q.span_i, q.span_j, q.gold_t1, q.gold_rel, q.gold_t2)
            for q in queries]


class TestOnePairRule:
    @pytest.mark.parametrize("corpus", sorted(RULE_CORPORA))
    def test_setups_agree_on_every_pair(self, corpus):
        sentences = RULE_CORPORA[corpus]()
        assert len({s.id for s in sentences}) == len(sentences)
        q2, _ = gen_setup2(sentences)
        named = {(s.id, e.span) for s in sentences for e in s.entities if e.type != "O"}
        between_named = [q for q in q2 if (q.sentence_id, q.span_i) in named
                         and (q.sentence_id, q.span_j) in named]
        assert cells(gen_setup1(sentences)) == cells(between_named)
        # setup-2 rows are whole entities: each pair's label
        pair = {(q.sentence_id, q.span_i, q.span_j): q.gold_rel for q in q2}
        holder = {s.id: {t: e.span for e in s.entities for t in range(e.start, e.end)}
                  for s in sentences}
        related = 0
        for q in gen_setup3(sentences)[0]:
            held = holder[q.sentence_id]
            key = (q.sentence_id, held.get(q.span_i[0]), held.get(q.span_j[0]))
            assert q.gold_rel == pair.get(key, NO_RELATION), q
            related += q.gold_rel != NO_RELATION
        assert related > 0

    def test_canonically_first_label_wins(self):
        listed, reversed_, o_rel = hand_built_corpus()
        for sentence in (listed, reversed_):
            (query,) = gen_setup1([sentence])
            assert query.gold_rel == "Work_for"
        # the O-typed entity has no setup-1 row, but its relations label setup 2
        assert [q.span_j for q in gen_setup1([o_rel])] == [(5, 6)]
        related = {(q.span_i, q.span_j): q.gold_rel
                   for q in gen_setup2([o_rel])[0] if q.gold_rel != NO_RELATION}
        assert related == {((0, 1), (5, 6)): "Live_in", ((0, 1), (2, 4)): "Kill"}


class TestSubsampling:
    def test_keep_prob_one_identity(self):
        queries = gen_setup1(synth.generate(synth.default_grammar(seed=8), 20))
        assert subsample_negatives(queries, 1.0, seed=0) == queries

    def test_binomial_bound(self):
        sent = Sentence(
            "neg",
            ["a", "b"],
            [EntityMention(0, 1, "Peop"), EntityMention(1, 2, "Loc")],
            [],
        )
        queries = gen_setup1([sent]) * 10_000
        kept = subsample_negatives(queries, 0.5, seed=42)
        sigma = (10_000 * 0.25) ** 0.5
        assert abs(len(kept) - 5000) < 3 * sigma

    def test_same_seed_identical(self):
        queries = gen_setup1(synth.generate(synth.default_grammar(seed=9), 50))
        a = subsample_negatives(queries, 0.4, seed=7)
        b = subsample_negatives(queries, 0.4, seed=7)
        assert a == b

    def test_never_removes_positives(self):
        queries = gen_setup1(synth.generate(synth.default_grammar(seed=10), 100))
        kept = subsample_negatives(queries, 0.01, seed=1)
        positives = [q for q in queries if q.gold_rel != "N"]
        assert [q for q in kept if q.gold_rel != "N"] == positives

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            subsample_negatives([], 0.0, seed=0)
        with pytest.raises(ConfigError):
            subsample_negatives([], 1.5, seed=0)


def test_dump_queries_jsonl(tmp_path):
    queries = gen_setup1([fig_sentence()])
    out = tmp_path / "queries.jsonl"
    dump_queries(out, queries)
    import json

    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["sentence_id"] == "fig"
    assert {"span_i", "span_j", "gold_rel", "setup"} <= set(lines[0])
