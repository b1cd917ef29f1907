"""Rule-governed synthetic corpus generator for closed-loop tests.

Sentences follow "fillers e1 trigger e2 fillers" templates with a small
closed vocabulary, so a desk-scale model separates them in seconds. Every
generated relation instance is consistent with its template's type
signature (e.g. Live_in always connects a person to a location).
"""

from dataclasses import dataclass

import numpy as np

from entrel.corpus import RE_LABELS, EntityMention, RelationAnnotation, Sentence

MODIFIERS = ("new", "old", "big")  # the first token of a two-token name
FILLERS = ("the", "a", "report", "today", "said", "meanwhile", "yesterday")
NEUTRAL_TRIGGERS = (("met",), ("saw",), ("discussed",), ("mentioned",))
NO_RELATION_FRACTION = 0.3  # sentences whose trigger is neutral
MULTI_TOKEN_FRACTION = 0.25  # names drawn with a modifier


@dataclass(frozen=True)
class RelationTemplate:
    head_type: str
    tail_type: str
    triggers: tuple  # tuple of token tuples, head-entity-first surface order
    inverse_triggers: tuple = ()  # surfaces that put the head entity second


@dataclass
class RuleGrammar:
    templates: dict  # relation label -> RelationTemplate
    type_pools: dict  # entity type -> list of name tokens
    inverse_fraction: float = 0.1
    seed: int = 7

    def __post_init__(self):
        for label, template in self.templates.items():
            if label not in RE_LABELS or label == "N":
                raise ValueError(f"unknown relation label {label!r}")
            for entity_type in (template.head_type, template.tail_type):
                if entity_type not in self.type_pools:
                    raise ValueError(f"{label}: no name pool for type {entity_type!r}")


def _name_pools(count):
    """``count`` name tokens per entity type: per00, per01, ..."""
    prefixes = {"Peop": "per", "Org": "org", "Loc": "loc", "Other": "oth"}
    return {etype: [f"{prefix}{i:02d}" for i in range(count)]
            for etype, prefix in prefixes.items()}


def default_grammar(seed: int = 7) -> RuleGrammar:
    """Separable grammar: every relation has its own trigger phrases."""
    templates = {
        "Located_in": RelationTemplate("Loc", "Loc", (("lies", "within"), ("sits", "inside"))),
        "Work_for": RelationTemplate("Peop", "Org", (("works", "for"), ("serves", "at"))),
        "OrgBased_in": RelationTemplate("Org", "Loc", (("based", "in"), ("headquartered", "in"))),
        "Live_in": RelationTemplate(
            "Peop", "Loc",
            (("lives", "in"), ("resides", "in")),
            (("is", "home", "of"),),
        ),
        "Kill": RelationTemplate("Peop", "Peop", (("killed",), ("murdered",))),
    }
    return RuleGrammar(templates=templates, type_pools=_name_pools(24), seed=seed)


def ambiguous_grammar(seed: int = 7) -> RuleGrammar:
    """Grammar with strong type-relation coupling: trigger phrases are shared
    across relations, so only the entity types disambiguate the relation."""
    join = (("linked", "to"),)
    bind = (("tied", "to"),)
    templates = {
        "Located_in": RelationTemplate("Loc", "Loc", join),
        "OrgBased_in": RelationTemplate("Org", "Loc", join),
        "Live_in": RelationTemplate("Peop", "Loc", join),
        "Work_for": RelationTemplate("Peop", "Org", bind),
        "Kill": RelationTemplate("Peop", "Peop", bind),
    }
    return RuleGrammar(templates=templates, type_pools=_name_pools(40),
                       inverse_fraction=0.0, seed=seed)


def _draw_name(rng, grammar, entity_type):
    name = grammar.type_pools[entity_type][rng.integers(len(grammar.type_pools[entity_type]))]
    if rng.random() < MULTI_TOKEN_FRACTION:
        return [MODIFIERS[rng.integers(len(MODIFIERS))], name]
    return [name]


def _draw_fillers(rng):
    count = int(rng.integers(0, 3))
    return [FILLERS[rng.integers(len(FILLERS))] for _ in range(count)]


def _make_sentence(index, rng, grammar) -> Sentence:
    relation = None
    if rng.random() < NO_RELATION_FRACTION or not grammar.templates:
        types = [t for t in grammar.type_pools]
        t1 = types[rng.integers(len(types))]
        t2 = types[rng.integers(len(types))]
        trigger = list(NEUTRAL_TRIGGERS[rng.integers(len(NEUTRAL_TRIGGERS))])
        first_type, second_type = t1, t2
        head_is_second = False
    else:
        labels = sorted(grammar.templates)
        relation = labels[rng.integers(len(labels))]
        template = grammar.templates[relation]
        head_is_second = bool(
            template.inverse_triggers and rng.random() < grammar.inverse_fraction
        )
        if head_is_second:
            trigger = list(template.inverse_triggers[rng.integers(len(template.inverse_triggers))])
            first_type, second_type = template.tail_type, template.head_type
        else:
            trigger = list(template.triggers[rng.integers(len(template.triggers))])
            first_type, second_type = template.head_type, template.tail_type

    prefix = _draw_fillers(rng)
    suffix = _draw_fillers(rng)
    first_name = _draw_name(rng, grammar, first_type)
    second_name = _draw_name(rng, grammar, second_type)

    tokens = prefix + first_name + trigger + second_name + suffix
    first_start = len(prefix)
    second_start = first_start + len(first_name) + len(trigger)
    entities = [
        EntityMention(first_start, first_start + len(first_name), first_type),
        EntityMention(second_start, second_start + len(second_name), second_type),
    ]
    relations = []
    if relation is not None:
        head, tail = (1, 0) if head_is_second else (0, 1)
        relations.append(RelationAnnotation(head, tail, relation))
    return Sentence(f"synth-{index}", tokens, entities, relations)


def generate(grammar: RuleGrammar, n_sentences: int):
    """Deterministic corpus: sentence i derives its own seed from (seed, i)."""
    sentences = []
    for index in range(n_sentences):
        rng = np.random.default_rng((grammar.seed, index))
        sentences.append(_make_sentence(index, rng, grammar).validate())
    return sentences


def split_corpus(sentences, dev_fraction: float = 0.15):
    """Deterministic tail split into (train, dev)."""
    n_dev = max(1, int(round(len(sentences) * dev_fraction))) if sentences else 0
    return sentences[: len(sentences) - n_dev], sentences[len(sentences) - n_dev :]
