import json
import re

import numpy as np
import pytest

from entrel import synth
from entrel.corpus import (
    ColumnMap,
    CorpusError,
    EntityMention,
    LabelSpace,
    RelationAnnotation,
    Sentence,
    corpus_vocabulary,
    load_canonical,
    load_embeddings,
    parse_raw,
    random_embeddings,
    sentence_from_record,
    sentence_to_record,
    write_canonical,
)

from conftest import RAW_SENTENCE


class TestLabelSpace:
    def test_unified_indexing_is_bijection(self, label_space):
        seen = set()
        for label in label_space.ec_labels + label_space.re_labels:
            idx = label_space.unified(label)
            assert label_space.label_of(idx) == label
            seen.add(idx)
        assert seen == set(range(11))

    def test_ec_labels_keep_their_index(self, label_space):
        for i, label in enumerate(label_space.ec_labels):
            assert label_space.unified(label) == i

    def test_re_labels_offset(self, label_space):
        for j, label in enumerate(label_space.re_labels):
            assert label_space.unified(label) == label_space.n_ec + j

    def test_tags(self, label_space):
        assert label_space.n_classes == 11
        assert label_space.begin_index == 11
        assert label_space.end_index == 12
        assert label_space.size_with_tags == 13
        assert label_space.label_of(11) == "<begin>"
        assert label_space.label_of(12) == "<end>"

    def test_position_mask_excludes_tags(self, label_space):
        mask = label_space.position_mask()
        assert mask.shape == (3, 11)
        assert mask[0].sum() == label_space.n_ec
        assert mask[1].sum() == label_space.n_re


class TestParseRaw:
    def test_figure_sentence(self, tmp_path):
        path = tmp_path / "raw.corp"
        path.write_text(RAW_SENTENCE)
        sentences = parse_raw(path)
        assert len(sentences) == 1
        sent = sentences[0]
        assert sent.tokens == [
            "Anderson", ",", "41", ",", "was", "the", "chief",
            "Middle", "East", "correspondent", "for", "The", "Associated", "Press",
        ]
        spans = {(e.start, e.end): e.type for e in sent.entities}
        assert spans == {(0, 1): "Peop", (7, 9): "Loc", (11, 14): "Org"}
        assert len(sent.relations) == 1
        rel = sent.relations[0]
        head = sent.entities[rel.head]
        tail = sent.entities[rel.tail]
        assert (sent.tokens[head.start], rel.type) == ("Anderson", "Live_in")
        assert sent.tokens[tail.start : tail.end] == ["Middle", "East"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.corp"
        path.write_text("")
        assert parse_raw(path) == []

    def test_unknown_entity_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.corp"
        path.write_text("1\tXyz\t0\tO\tNNP\tfoo\tO\tO\tO\n")
        with pytest.raises(CorpusError, match=r":1"):
            parse_raw(path)

    def test_relation_to_non_entity_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.corp"
        path.write_text(
            "1\tPeop\t0\tO\tNNP\tfoo\tO\tO\tO\n"
            "1\tO\t1\tO\tNN\tbar\tO\tO\tO\n"
            "\n"
            "0\t1\tKill\n"
        )
        with pytest.raises(CorpusError, match=r":4"):
            parse_raw(path)

    def test_unknown_relation_label(self, tmp_path):
        path = tmp_path / "bad.corp"
        path.write_text(
            "1\tPeop\t0\tO\tNNP\tfoo\tO\tO\tO\n"
            "1\tPeop\t1\tO\tNN\tbar\tO\tO\tO\n"
            "\n"
            "0\t1\tBefriends\n"
        )
        with pytest.raises(CorpusError, match="Befriends"):
            parse_raw(path)

    def test_no_split_slash(self, tmp_path):
        path = tmp_path / "raw.corp"
        path.write_text("1\tLoc\t0\tO\tNNP\tMiddle/East\tO\tO\tO\n")
        sentences = parse_raw(path, ColumnMap(split_slash=False))
        assert sentences[0].tokens == ["Middle/East"]

    def test_consecutive_blocks_without_relations(self, tmp_path):
        # row-index restart separates blocks even with equal sentence fields
        path = tmp_path / "raw.corp"
        path.write_text(
            "1\tPeop\t0\tO\tNNP\ta\tO\tO\tO\n"
            "1\tPeop\t0\tO\tNNP\tb\tO\tO\tO\n"
        )
        sentences = parse_raw(path)
        assert [s.tokens for s in sentences] == [["a"], ["b"]]
        assert len({s.id for s in sentences}) == 2

    def test_repeated_raw_id_takes_a_suffix_no_sentence_holds(self, tmp_path):
        # blocks 5, 5, 5.1: the second 5 takes 5.1, so the raw 5.1 after it
        # must take another id
        path = tmp_path / "raw.corp"
        path.write_text("".join(f"{sid}\tPeop\t0\tO\tNNP\t{word}\tO\tO\tO\n\n"
                                for sid, word in (("5", "a"), ("5", "b"), ("5.1", "c"))))
        sentences = parse_raw(path)
        assert [(s.id, s.tokens) for s in sentences] == [
            ("5", ["a"]), ("5.1", ["b"]), ("5.1.1", ["c"])]
        out = tmp_path / "canon.jsonl"
        write_canonical(out, sentences)
        assert load_canonical(out) == sentences

    def test_column_map_variation(self, tmp_path):
        path = tmp_path / "raw.corp"
        path.write_text("0\tsent1\tLoc\tfoo\n", encoding="utf-8")
        sentences = parse_raw(path, ColumnMap(sent_col=1, tag_col=2, idx_col=0, word_col=3))
        assert sentences[0].tokens == ["foo"]
        assert sentences[0].entities[0].type == "Loc"

    def test_spans_pairwise_disjoint(self, tmp_path):
        path = tmp_path / "raw.corp"
        path.write_text(RAW_SENTENCE)
        for sent in parse_raw(path):
            spans = sorted(e.span for e in sent.entities)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2


class TestCanonical:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "raw.corp"
        path.write_text(RAW_SENTENCE)
        sentences = parse_raw(path)
        out = tmp_path / "canon.jsonl"
        write_canonical(out, sentences)
        assert load_canonical(out) == sentences

    def test_missing_field_names_it(self, tmp_path):
        out = tmp_path / "canon.jsonl"
        out.write_text('{"id": "x", "tokens": ["a"], "entities": []}\n')
        with pytest.raises(CorpusError, match="relations"):
            load_canonical(out)

    def test_record_index_in_error(self, tmp_path):
        good = sentence_to_record(Sentence("s", ["a"], [], []))
        out = tmp_path / "canon.jsonl"
        out.write_text(json.dumps(good) + "\n" + '{"id": "y"}\n')
        with pytest.raises(CorpusError, match=f"^{re.escape(str(out))}:2: missing field"):
            load_canonical(out)

    @pytest.mark.parametrize("mutate, message", [
        (lambda r: r["entities"][0].update(start="1"), r"entities\[0\]\.start is not an integer: '1'"),
        (lambda r: r["entities"][0].update(start=1.5), r"entities\[0\]\.start is not an integer: 1\.5"),
        (lambda r: r["entities"][0].update(end="x"), r"entities\[0\]\.end is not an integer: 'x'"),
        (lambda r: r["entities"][0].update(start=True), r"entities\[0\]\.start is not an integer"),
        (lambda r: r["relations"][0].update(head=None), r"relations\[0\]\.head is not an integer"),
        (lambda r: r["relations"][0].update(type=3), r"relations\[0\]\.type is not a string"),
        (lambda r: r["relations"][0].pop("tail"), r"relations\[0\] lacks field 'tail'"),
        (lambda r: r.update(entities={}), "field 'entities' is not a list"),
        (lambda r: r.update(relations=[7]), r"relations\[0\] is not an object"),
        (lambda r: r.update(tokens="a b"), "field 'tokens' is not a list of strings"),
        (lambda r: r.update(tokens=["a", 2]), "field 'tokens' is not a list of strings"),
    ], ids=["start-text", "start-float", "end-not-a-number", "start-bool", "head-null",
            "type-number", "tail-missing", "entities-object", "relation-number",
            "tokens-text", "token-number"])
    def test_mistyped_record_names_file_and_record(self, tmp_path, mutate, message):
        sent = Sentence("s1", ["a", "b"], [EntityMention(0, 1, "Peop"), EntityMention(1, 2, "Loc")],
                        [RelationAnnotation(0, 1, "Live_in")])
        record = sentence_to_record(sent)
        mutate(record)
        path = tmp_path / "canon.jsonl"
        path.write_text(json.dumps(sentence_to_record(sent)) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:2: {message}"):
            load_canonical(path)

    def test_repeated_sentence_id_names_both_lines(self, tmp_path):
        # a record whose id is the number 7 repeats the text id "7"
        records = [sentence_to_record(Sentence(sid, ["a"], [], [])) for sid in ("7", "s", "t")]
        records[2]["id"] = 7
        path = tmp_path / "canon.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:3: sentence id '7' "
                                              "repeats the one on line 1$"):
            load_canonical(path)

    def test_record_that_is_no_object_is_named(self, tmp_path):
        path = tmp_path / "canon.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:1: not a JSON object"):
            load_canonical(path)

    @pytest.mark.parametrize("third, message", [
        (b'{"id": "y"}', "missing field 'tokens'"),
        (b"{not json", "invalid JSON"),
        (b"\xff", "not UTF-8 text"),
    ], ids=["malformed-record", "invalid-json", "not-utf8"])
    def test_record_errors_locate_the_same_one_based_line(self, tmp_path, third, message):
        # a blank line is skipped but still counted
        good = json.dumps(sentence_to_record(Sentence("s", ["a"], [], []))).encode()
        path = tmp_path / "canon.jsonl"
        path.write_bytes(good + b"\n\n" + third + b"\n")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:3: {message}"):
            load_canonical(path)

    @pytest.mark.parametrize("reader, suffix", [(load_canonical, "jsonl"), (parse_raw, "corp")])
    def test_non_utf8_names_file_and_line(self, tmp_path, reader, suffix):
        path = tmp_path / f"bad.{suffix}"
        path.write_bytes(b"\n\n\xff\n")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:3: not UTF-8 text"):
            reader(path)

    def test_thousand_sentence_byte_identical_round_trip(self, tmp_path):
        sentences = synth.generate(synth.default_grammar(seed=17), 1000)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_canonical(first, sentences)
        write_canonical(second, load_canonical(first))
        assert first.read_bytes() == second.read_bytes()

    def test_validation_rejects_overlapping_spans(self):
        sent = Sentence(
            "s",
            ["a", "b", "c"],
            [EntityMention(0, 2, "Peop"), EntityMention(1, 3, "Loc")],
            [],
        )
        with pytest.raises(CorpusError, match="overlap"):
            sent.validate()

    def test_validation_rejects_self_relation(self):
        sent = Sentence(
            "s",
            ["a", "b"],
            [EntityMention(0, 1, "Peop"), EntityMention(1, 2, "Loc")],
            [RelationAnnotation(0, 0, "Live_in")],
        )
        with pytest.raises(CorpusError, match="head == tail"):
            sent.validate()

    def test_record_round_trip(self):
        sent = Sentence(
            "s1",
            ["a", "b"],
            [EntityMention(0, 1, "Peop"), EntityMention(1, 2, "Loc")],
            [RelationAnnotation(0, 1, "Live_in")],
        )
        assert sentence_from_record(sentence_to_record(sent), 0) == sent


def write_embeddings(path, rows, dim):
    lines = [f"{len(rows)} {dim}"]
    for word, values in rows:
        lines.append(word + " " + " ".join(str(v) for v in values))
    path.write_text("\n".join(lines) + "\n")


class TestEmbeddings:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_embeddings(path, [("a", [1, 2, 3, 4]), ("b", [5, 6, 7, 8]), ("c", [0, 0, 0, 1])], 4)
        table = load_embeddings(path, ["a", "b"], np.random.default_rng(0))
        assert table.dim == 4
        assert np.allclose(table.matrix[table.lookup("a")], [1, 2, 3, 4])
        assert np.allclose(table.matrix[table.lookup("b")], [5, 6, 7, 8])

    def test_absent_word_maps_to_unk(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_embeddings(path, [("a", [1, 2])], 2)
        table = load_embeddings(path, ["a", "zzz"], np.random.default_rng(0))
        assert table.lookup("zzz") == table.unk_row
        assert table.lookup("a") != table.unk_row

    def test_lowercase_fallback_after_exact(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_embeddings(path, [("Paris", [1, 0]), ("paris", [0, 1])], 2)
        table = load_embeddings(path, ["Paris", "PARIS"], np.random.default_rng(0))
        assert np.allclose(table.matrix[table.lookup("Paris")], [1, 0])
        assert np.allclose(table.matrix[table.lookup("PARIS")], [0, 1])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1 2 3\nb 1 2\n")
        with pytest.raises(CorpusError, match=":3"):
            load_embeddings(path, ["a", "b"], np.random.default_rng(0))

    @pytest.mark.parametrize("value, message", [
        ("nan", "row of 'b' holds the non-finite value 'nan'"),
        ("-inf", "row of 'b' holds the non-finite value '-inf'"),
        ("1e999", "row of 'b' holds the non-finite value '1e999'"),
        ("abc", "row of 'b': could not convert string to float: 'abc'"),
    ])
    def test_bad_value_names_file_and_line(self, tmp_path, value, message):
        path = tmp_path / "vec.txt"
        write_embeddings(path, [("a", [1, 2]), ("b", [3, value])], 2)
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:3: {re.escape(message)}$"):
            load_embeddings(path, ["a", "b"], np.random.default_rng(0))

    def test_value_outside_float32_range_is_named(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_embeddings(path, [("a", [1, 2]), ("b", [3, "-1e39"])], 2)
        message = "row of 'b' holds '-1e39', outside the float32 range (±3.403e+38)"
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:3: {re.escape(message)}$"):
            load_embeddings(path, ["a", "b"], np.random.default_rng(0), dtype=np.float32)
        table = load_embeddings(path, ["a", "b"], np.random.default_rng(0))  # float64 holds it
        assert table.matrix[table.lookup("b"), 1] == -1e39

    def test_largest_float32_value_loads(self, tmp_path):
        path = tmp_path / "vec.txt"
        big = float(np.finfo(np.float32).max)
        write_embeddings(path, [("a", [big, -big])], 2)
        table = load_embeddings(path, ["a"], np.random.default_rng(0), dtype=np.float32)
        assert table.matrix.dtype == np.float32
        assert table.matrix[table.lookup("a")].tolist() == [big, -big]

    def test_repeated_word_names_both_lines(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_embeddings(path, [("a", [1, 2]), ("zz", [3, 4]), ("a", [5, 6])], 2)
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:4: word 'a' repeats the row on line 2$"):
            load_embeddings(path, ["a", "b"], np.random.default_rng(0))

    @pytest.mark.parametrize("content", [b"2\na 1 2\n", b"2 0\n", b"x 2\n", b"",
                                         b"1 2\na 1 \xff\n"],
                             ids=["one-field", "zero-dim", "text-count", "empty", "not-utf8"])
    def test_bad_header_or_encoding_is_located(self, tmp_path, content):
        path = tmp_path / "vec.txt"
        path.write_bytes(content)
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:[12]: "):
            load_embeddings(path, ["a"], np.random.default_rng(0))

    def test_unk_row_is_drawn_from_the_rng(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_embeddings(path, [("a", [1, 2, 3, 4])], 4)
        tables = [load_embeddings(path, ["a", "zzz"], np.random.default_rng(seed))
                  for seed in (0, 0, 1)]
        unk = [table.matrix[table.lookup("zzz")] for table in tables]
        assert np.abs(unk[0]).min() > 0
        assert np.array_equal(unk[0], unk[1]) and not np.array_equal(unk[0], unk[2])

    def test_full_coverage_counts_zero_unk(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_embeddings(path, [("a", [1, 0]), ("b", [0, 1])], 2)
        table = load_embeddings(path, ["a", "b"], np.random.default_rng(0))
        assert table.unk_row == 2
        assert np.array_equal(table.matrix[[table.lookup("a"), table.lookup("b")]],
                              [[1, 0], [0, 1]])

    def test_random_table_covers_vocab(self):
        table = random_embeddings(["x", "y"], 4, np.random.default_rng(0))
        assert table.lookup("x") != table.lookup("y")
        assert table.lookup("unseen") == table.unk_row

    def test_vocabulary_is_sorted_unique(self):
        sentences = [Sentence("a", ["b", "a", "b"], [], [])]
        assert corpus_vocabulary(sentences) == ["a", "b"]
