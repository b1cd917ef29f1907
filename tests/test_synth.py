
from entrel import synth

SIGNATURES = {
    "Located_in": ("Loc", "Loc"),
    "Work_for": ("Peop", "Org"),
    "OrgBased_in": ("Org", "Loc"),
    "Live_in": ("Peop", "Loc"),
    "Kill": ("Peop", "Peop"),
}


class TestGenerate:
    def test_empty(self):
        assert synth.generate(synth.default_grammar(), 0) == []

    def test_deterministic_under_seed(self):
        a = synth.generate(synth.default_grammar(seed=5), 50)
        b = synth.generate(synth.default_grammar(seed=5), 50)
        assert a == b
        c = synth.generate(synth.default_grammar(seed=6), 50)
        assert a != c

    def test_type_signature_audit_10k(self):
        sentences = synth.generate(synth.default_grammar(seed=1), 10_000)
        for sent in sentences:
            for rel in sent.relations:
                head = sent.entities[rel.head].type
                tail = sent.entities[rel.tail].type
                assert (head, tail) == SIGNATURES[rel.type], (sent.id, rel.type)

    def test_corpus_invariants_hold(self):
        for sent in synth.generate(synth.default_grammar(seed=2), 500):
            sent.validate()

    def test_unique_ids(self):
        sentences = synth.generate(synth.default_grammar(seed=3), 200)
        assert len({s.id for s in sentences}) == 200

    def test_no_relation_fraction_roughly_respected(self):
        sentences = synth.generate(synth.default_grammar(seed=4), 2000)
        without = sum(1 for s in sentences if not s.relations)
        assert 0.2 < without / 2000 < 0.4  # NO_RELATION_FRACTION = 0.3

    def test_inverse_surfaces_produce_later_heads(self):
        grammar = synth.default_grammar(seed=5)
        sentences = synth.generate(grammar, 3000)
        later_heads = [rel for s in sentences for rel in s.relations
                       if s.entities[rel.head].start > s.entities[rel.tail].start]
        assert later_heads  # the Live_in inverse template fires sometimes
        for rel in later_heads:
            assert rel.type == "Live_in"

    def test_all_relations_and_types_appear(self):
        sentences = synth.generate(synth.default_grammar(seed=6), 2000)
        rel_types = {r.type for s in sentences for r in s.relations}
        ent_types = {e.type for s in sentences for e in s.entities}
        assert rel_types == set(SIGNATURES)
        assert ent_types == {"Peop", "Org", "Loc", "Other"}

    def test_ambiguous_grammar_shares_triggers(self):
        grammar = synth.ambiguous_grammar()
        triggers = {}
        for label, template in grammar.templates.items():
            for t in template.triggers:
                triggers.setdefault(t, []).append(label)
        assert any(len(labels) >= 2 for labels in triggers.values())
        # signatures still distinct per relation
        for label, template in grammar.templates.items():
            assert (template.head_type, template.tail_type) == SIGNATURES[label]


def test_split_corpus_sizes():
    sentences = synth.generate(synth.default_grammar(seed=12), 100)
    train, dev = synth.split_corpus(sentences, 0.15)
    assert len(train) == 85 and len(dev) == 15
    assert train + dev == sentences
