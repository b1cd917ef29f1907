"""Corpus ingestion: raw column-format files, canonical JSONL, embeddings.

The raw format is the distributed entity/relation corpus layout: blocks of
tab-separated token rows (one row per table row; multi-token entities are a
single row with the words joined by "/"), each block followed by zero or
more 3-column relation lines, blocks separated by blank lines. Column
positions differ between distributed copies, so they are configurable via
ColumnMap.

The canonical format is line-delimited JSON, one sentence per line, and
round-trips exactly.
"""

import json
from dataclasses import dataclass

import numpy as np

from entrel.kernels import scaled_uniform

EC_LABELS = ("Peop", "Org", "Loc", "Other", "O")
RE_LABELS = ("Located_in", "Work_for", "OrgBased_in", "Live_in", "Kill", "N")
NO_RELATION = "N"


class CorpusError(Exception):
    """Malformed corpus or embedding input; carries file location."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:" + (f"{line}: " if line is not None else " ")
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


@dataclass(frozen=True)
class LabelSpace:
    """Unified label indexing: EC classes first, then RE classes, then tags.

    Entity class i keeps index i; relation class j maps to n_ec + j. The
    begin and end tags used by the transition matrix sit past the classes
    and never appear in emission scores. There is one label space, over
    EC_LABELS and RE_LABELS; model.load_checkpoint refuses any other.
    """

    ec_labels = EC_LABELS
    re_labels = RE_LABELS

    @property
    def n_ec(self) -> int:
        return len(self.ec_labels)

    @property
    def n_re(self) -> int:
        return len(self.re_labels)

    @property
    def n_classes(self) -> int:
        return self.n_ec + self.n_re

    @property
    def begin_index(self) -> int:
        return self.n_classes

    @property
    def end_index(self) -> int:
        return self.n_classes + 1

    @property
    def size_with_tags(self) -> int:
        return self.n_classes + 2

    @property
    def class_labels(self) -> tuple:
        """The label of each class, by unified index."""
        return self.ec_labels + self.re_labels

    def unified(self, label: str) -> int:
        if label in self.ec_labels:
            return self.ec_labels.index(label)
        if label in self.re_labels:
            return self.n_ec + self.re_labels.index(label)
        raise KeyError(f"unknown label {label!r}")

    def label_of(self, index: int) -> str:
        if 0 <= index < self.n_ec:
            return self.ec_labels[index]
        if self.n_ec <= index < self.n_classes:
            return self.re_labels[index - self.n_ec]
        if index == self.begin_index:
            return "<begin>"
        if index == self.end_index:
            return "<end>"
        raise KeyError(f"index {index} outside unified label space")

    def is_ec_index(self, index: int) -> bool:
        return 0 <= index < self.n_ec

    def is_re_index(self, index: int) -> bool:
        return self.n_ec <= index < self.n_classes

    def position_mask(self) -> np.ndarray:
        """[3, N] booleans: EC classes at positions 0/2, RE classes at 1."""
        mask = np.zeros((3, self.n_classes), dtype=bool)
        mask[0, : self.n_ec] = True
        mask[2, : self.n_ec] = True
        mask[1, self.n_ec :] = True
        return mask


@dataclass(frozen=True)
class EntityMention:
    start: int  # token index, inclusive
    end: int  # token index, exclusive
    type: str

    @property
    def span(self):
        return (self.start, self.end)


@dataclass(frozen=True)
class RelationAnnotation:
    head: int  # entity index
    tail: int  # entity index
    type: str


@dataclass
class Sentence:
    id: str
    tokens: list
    entities: list
    relations: list

    def validate(self):
        n = len(self.tokens)
        occupied = []
        for ent in self.entities:
            if not (0 <= ent.start < ent.end <= n):
                raise CorpusError(
                    f"sentence {self.id}: entity span {ent.span} outside 0..{n}"
                )
            if ent.type not in EC_LABELS:
                raise CorpusError(f"sentence {self.id}: unknown entity label {ent.type!r}")
            occupied.append(ent.span)
        occupied.sort()
        for (s1, e1), (s2, e2) in zip(occupied, occupied[1:]):
            if s2 < e1:
                raise CorpusError(
                    f"sentence {self.id}: overlapping entity spans {(s1, e1)} / {(s2, e2)}"
                )
        for rel in self.relations:
            if rel.head == rel.tail:
                raise CorpusError(f"sentence {self.id}: relation with head == tail")
            if not (0 <= rel.head < len(self.entities) and 0 <= rel.tail < len(self.entities)):
                raise CorpusError(f"sentence {self.id}: relation argument out of range")
            if rel.type not in RE_LABELS or rel.type == NO_RELATION:
                raise CorpusError(f"sentence {self.id}: unknown relation label {rel.type!r}")
        return self


def related_pairs(sentence: Sentence) -> dict:
    """The gold relation of each related entity pair.

    Maps (first span, second span), in textual order, to the relation's
    label, whichever span the annotation names as head: the labels are
    undirected. Where several relations share a pair, the canonically first
    label (RE_LABELS order) wins.
    """
    pairs = {}
    for rel in sentence.relations:
        head, tail = sentence.entities[rel.head].span, sentence.entities[rel.tail].span
        pair = (head, tail) if head < tail else (tail, head)
        if pair not in pairs or RE_LABELS.index(rel.type) < RE_LABELS.index(pairs[pair]):
            pairs[pair] = rel.type
    return pairs


@dataclass(frozen=True)
class ColumnMap:
    """Which tab-separated columns carry what in the raw corpus file."""

    sent_col: int = 0
    tag_col: int = 1
    idx_col: int = 2
    word_col: int = 5
    split_slash: bool = True  # split multi-token entity words joined with "/"


def _text_lines(handle, path):
    """(line number, text) of each line of a file opened in binary mode; a
    line that is not UTF-8 is a CorpusError naming it."""
    for line_no, raw in enumerate(handle, start=1):
        try:
            yield line_no, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"not UTF-8 text ({exc.reason} at byte {exc.start} of the line)",
                              path, line_no) from None


def _split_fields(line: str):
    return line.split("\t") if "\t" in line else line.split()


def parse_raw(path, column_map: ColumnMap | None = None):
    """Parse a raw column-format corpus file into Sentence objects."""
    cmap = column_map or ColumnMap()
    needed = max(cmap.sent_col, cmap.tag_col, cmap.idx_col, cmap.word_col) + 1

    sentences = []
    emitted = set()  # the sentence ids given out so far
    next_suffix = {}  # raw id -> the first suffix number left to try
    rows = []  # (line_no, row_index, tag, words)
    rels = []  # (line_no, row_a, row_b, label)
    block_sent_field = None

    def flush(line_no):
        nonlocal rows, rels, block_sent_field
        if not rows:
            if rels:
                raise CorpusError("relation lines without a token block", path, rels[0][0])
            return
        tokens = []
        entities = []
        row_to_entity = {}
        for ln, row_idx, tag, words in rows:
            start = len(tokens)
            tokens.extend(words)
            if tag != "O":
                if tag not in EC_LABELS:
                    raise CorpusError(f"unknown entity label {tag!r}", path, ln)
                row_to_entity[row_idx] = len(entities)
                entities.append(EntityMention(start, len(tokens), tag))
        relations = []
        for ln, a, b, label in rels:
            if label not in RE_LABELS or label == NO_RELATION:
                raise CorpusError(f"unknown relation label {label!r}", path, ln)
            if a not in row_to_entity or b not in row_to_entity:
                raise CorpusError(
                    f"relation ({a},{b},{label}) references a non-entity row", path, ln
                )
            relations.append(RelationAnnotation(row_to_entity[a], row_to_entity[b], label))
        # a repeated raw id gets the first suffix .N that no emitted id holds
        raw_id = str(block_sent_field)
        count = next_suffix.get(raw_id, 0)
        sid = raw_id if count == 0 else f"{raw_id}.{count}"
        while sid in emitted:
            count += 1
            sid = f"{raw_id}.{count}"
        next_suffix[raw_id] = count + 1
        emitted.add(sid)
        sentence = Sentence(sid, tokens, entities, relations)
        try:
            sentence.validate()
        except CorpusError as exc:
            raise CorpusError(str(exc), path, line_no) from None
        sentences.append(sentence)
        rows, rels, block_sent_field = [], [], None

    with open(path, "rb") as handle:
        line_no = 0
        for line_no, line in _text_lines(handle, path):
            stripped = line.strip()
            if not stripped:
                continue
            fields = _split_fields(stripped)
            if len(fields) == 3:
                try:
                    a, b = int(fields[0]), int(fields[1])
                except ValueError:
                    raise CorpusError(f"malformed relation line {stripped!r}", path, line_no)
                rels.append((line_no, a, b, fields[2]))
                continue
            if len(fields) < needed:
                raise CorpusError(
                    f"expected at least {needed} columns, got {len(fields)}", path, line_no
                )
            sent_field = fields[cmap.sent_col]
            try:
                row_idx = int(fields[cmap.idx_col])
            except ValueError:
                raise CorpusError(
                    f"row index column is not an integer: {fields[cmap.idx_col]!r}",
                    path,
                    line_no,
                )
            # a new block starts after relation lines, on a sentence-field
            # change, or when the row index restarts
            if rels or (block_sent_field is not None and sent_field != block_sent_field) \
                    or (rows and row_idx <= rows[-1][1]):
                flush(line_no)
            block_sent_field = sent_field
            word = fields[cmap.word_col]
            if cmap.split_slash and "/" in word:
                parts = [w for w in word.split("/") if w]
                words = parts if parts else [word]
            else:
                words = [word]
            rows.append((line_no, row_idx, fields[cmap.tag_col], words))
        flush(line_no)
    return sentences


_SENTENCE_FIELDS = ("id", "tokens", "entities", "relations")


def sentence_to_record(sentence: Sentence) -> dict:
    return {
        "id": sentence.id,
        "tokens": list(sentence.tokens),
        "entities": [
            {"start": e.start, "end": e.end, "type": e.type} for e in sentence.entities
        ],
        "relations": [
            {"head": r.head, "tail": r.tail, "type": r.type} for r in sentence.relations
        ],
    }


def _record_items(record: dict, key: str, int_fields, bad):
    """The objects of a record's list field ``key`` as tuples: its integer
    fields, then its "type" string."""
    items = record[key]
    if not isinstance(items, list):
        raise bad(f"field {key!r} is not a list")
    out = []
    for number, item in enumerate(items):
        where = f"{key}[{number}]"
        if not isinstance(item, dict):
            raise bad(f"{where} is not an object")
        for name in (*int_fields, "type"):
            if name not in item:
                raise bad(f"{where} lacks field {name!r}")
            value = item[name]
            # bool is an int subclass; JSON true is no token index
            valid = isinstance(value, str) if name == "type" else type(value) is int
            if not valid:
                kind = "a string" if name == "type" else "an integer"
                raise bad(f"{where}.{name} is not {kind}: {value!r}")
        out.append(tuple(item[name] for name in (*int_fields, "type")))
    return out


def sentence_from_record(record: dict, line: int, path=None) -> Sentence:
    """The sentence a canonical record holds; a CorpusError located at
    ``path``:``line`` (the record's 1-based line) when it is malformed."""
    def bad(message):
        return CorpusError(message, path, line)

    if not isinstance(record, dict):
        raise bad("not a JSON object")
    for key in _SENTENCE_FIELDS:
        if key not in record:
            raise bad(f"missing field {key!r}")
    tokens = record["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
        raise bad("field 'tokens' is not a list of strings")
    entities = [EntityMention(*item) for item in
                _record_items(record, "entities", ("start", "end"), bad)]
    relations = [RelationAnnotation(*item) for item in
                 _record_items(record, "relations", ("head", "tail"), bad)]
    sentence = Sentence(str(record["id"]), list(tokens), entities, relations)
    try:
        sentence.validate()
    except CorpusError as exc:
        raise bad(exc) from None
    return sentence


def write_canonical(path, sentences):
    with open(path, "w", encoding="utf-8") as handle:
        for sentence in sentences:
            handle.write(json.dumps(sentence_to_record(sentence), ensure_ascii=False))
            handle.write("\n")


def load_canonical(path):
    """The sentences of a canonical JSONL corpus. A sentence id that repeats
    an earlier one is a CorpusError naming both lines: evaluation keys votes
    and tables by sentence id, so two sentences would merge."""
    sentences = []
    first_line = {}  # sentence id -> the line of its record
    with open(path, "rb") as handle:
        for line_no, line in _text_lines(handle, path):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"invalid JSON ({exc.msg})", path, line_no) from None
            sentence = sentence_from_record(record, line_no, path)
            if sentence.id in first_line:
                raise CorpusError(f"sentence id {sentence.id!r} repeats the one on line "
                                  f"{first_line[sentence.id]}", path, line_no)
            first_line[sentence.id] = line_no
            sentences.append(sentence)
    return sentences


@dataclass
class EmbeddingTable:
    """Word-embedding lookup with a shared trainable UNK row.

    vocab maps each corpus word to its row; words absent from the embedding
    file all share unk_row. Lookup tries the exact word first, then its
    lowercase form, then falls back to UNK.
    """

    dim: int
    vocab: dict
    matrix: np.ndarray
    unk_row: int
    trainable: bool = True

    def lookup(self, word: str) -> int:
        row = self.vocab.get(word)
        if row is not None:
            return row
        row = self.vocab.get(word.lower())
        if row is not None:
            return row
        return self.unk_row

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    def words_in_row_order(self):
        ordered = sorted(self.vocab.items(), key=lambda kv: (kv[1], kv[0]))
        return [(word, row) for word, row in ordered]


def corpus_vocabulary(sentences):
    """Sorted unique tokens across a corpus (deterministic row order)."""
    words = set()
    for sentence in sentences:
        words.update(sentence.tokens)
    return sorted(words)


def load_embeddings(path, vocab, rng, trainable=True, dtype=np.float64) -> EmbeddingTable:
    """Load word2vec text-format vectors for the given vocabulary.

    Format: header line "<count> <dim>", then one "word v1 ... v_dim" line
    per word. Corpus words found in the file (exact case first, lowercase
    second) get their own rows; the rest share one UNK row drawn from the
    standard init with ``rng``.
    """
    vocab = list(vocab)
    wanted = set(vocab) | {w.lower() for w in vocab}
    found = {}
    first_line = {}  # every word of the file -> the line of its row
    with open(path, "rb") as handle:
        lines = _text_lines(handle, path)
        header = next(lines, (1, ""))[1]
        try:
            count, dim = (int(part) for part in header.split())
        except ValueError:  # not two integers
            count = dim = -1
        if count < 0 or dim < 1:
            raise CorpusError(f"bad embedding header {header.strip()!r}", path, 1)
        for line_no, line in lines:
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split(" ")
            word, values = fields[0], fields[1:]
            if len(values) != dim:
                raise CorpusError(
                    f"row has {len(values)} values, header says {dim}", path, line_no
                )
            if word in first_line:
                raise CorpusError(f"word {word!r} repeats the row on line {first_line[word]}",
                                  path, line_no)
            first_line[word] = line_no
            if word in wanted:
                found[word] = _row_vector(word, values, dtype, path, line_no)

    matrix = np.zeros((len(vocab) + 1, dim), dtype=dtype)
    unk_row = len(vocab)
    matrix[unk_row] = scaled_uniform(rng, (dim,), dim, dim, dtype=dtype)
    table_vocab = {}
    row = 0
    for word in vocab:
        vec = found.get(word)
        if vec is None:
            vec = found.get(word.lower())
        if vec is None:
            continue  # word maps to unk_row via lookup fallback
        matrix[row] = vec
        table_vocab[word] = row
        row += 1
    matrix = np.vstack([matrix[:row], matrix[unk_row : unk_row + 1]])
    return EmbeddingTable(dim, table_vocab, matrix, row, trainable)


def _row_vector(word, values, dtype, path, line_no) -> np.ndarray:
    """The finite vector of ``dtype`` an embedding row's value fields spell."""
    try:
        exact = np.array([float(v) for v in values])
    except ValueError as exc:
        raise CorpusError(f"row of {word!r}: {exc}", path, line_no) from None
    bad = np.flatnonzero(~np.isfinite(exact))
    if bad.size:
        raise CorpusError(f"row of {word!r} holds the non-finite value {values[bad[0]]!r}",
                          path, line_no)
    # a finite value past the dtype's largest one casts to an infinity
    with np.errstate(over="ignore"):
        vec = exact.astype(dtype)
    bad = np.flatnonzero(~np.isfinite(vec))
    if bad.size:
        raise CorpusError(f"row of {word!r} holds {values[bad[0]]!r}, outside the "
                          f"{np.dtype(dtype).name} range (±{np.finfo(dtype).max:.4g})",
                          path, line_no)
    return vec


def random_embeddings(vocab, dim, rng, trainable=True, dtype=np.float64) -> EmbeddingTable:
    """Random table over the corpus vocabulary (no pretrained file)."""
    vocab = list(vocab)
    matrix = scaled_uniform(rng, (len(vocab) + 1, dim), dim, dim, dtype=dtype)
    table_vocab = {word: row for row, word in enumerate(vocab)}
    return EmbeddingTable(dim, table_vocab, matrix, len(vocab), trainable)
