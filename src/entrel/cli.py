"""Command-line entry points: convert, train, eval, predict, gradcheck,
inspect-transitions. ``entrel eval`` also reports how often the entity
votes of the queries disagree.

Options can come from a JSON config file (--config, or the ENTREL_CONFIG
environment variable) whose keys are flag names with underscores; explicit
flags always win, and a key that no command knows is a config error. Exit
codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from entrel import analysis, evaluation, model, synth, training
from entrel.corpus import (
    ColumnMap,
    CorpusError,
    LabelSpace,
    NO_RELATION,
    Sentence,
    corpus_vocabulary,
    load_canonical,
    load_embeddings,
    parse_raw,
    random_embeddings,
    write_canonical,
)
from entrel.querygen import (
    ConfigError,
    Query,
    QueryError,
    dump_queries,
    gen_setup1,
    gen_setup2,
    gen_setup3,
    subsample_negatives,
)

CONFIG_ENV = "ENTREL_CONFIG"
DEFAULT_KEEP_PROB = 0.3  # train/dev negative subsampling for setups 2/3


def _generate_queries(sentences, setup):
    if setup == 1:
        return gen_setup1(sentences)
    return (gen_setup2 if setup == 2 else gen_setup3)(sentences)[0]


def cmd_convert(args) -> int:
    cmap = ColumnMap(
        sent_col=args.sent_col,
        tag_col=args.tag_col,
        idx_col=args.idx_col,
        word_col=args.word_col,
        split_slash=not args.no_split_slash,
    )
    sentences = parse_raw(args.input, cmap)
    write_canonical(args.output, sentences)
    entity_counts = Counter(ent.type for sentence in sentences for ent in sentence.entities)
    relation_counts = Counter(rel.type for sentence in sentences for rel in sentence.relations)
    print(f"sentences: {len(sentences)}")
    print(f"tokens: {sum(len(sentence.tokens) for sentence in sentences)}")
    for label in LabelSpace().ec_labels:
        print(f"entities[{label}]: {entity_counts.get(label, 0)}")
    for label in LabelSpace().re_labels:
        if label == NO_RELATION:
            continue
        print(f"relations[{label}]: {relation_counts.get(label, 0)}")
    several = sum(n > 1 for sentence in sentences
                  for n in Counter(frozenset((rel.head, rel.tail))
                                   for rel in sentence.relations).values())
    print(f"pairs with several relations: {several}")
    for setup in (1, 2, 3):
        queries = _generate_queries(sentences, setup)
        print(f"queries[setup{setup}]: {len(queries)}")
        print(f"N[setup{setup}]: {sum(1 for q in queries if q.gold_rel == NO_RELATION)}")
    return 0


def _build_table(sentences, args, hyper, seed):
    rng = np.random.default_rng((seed, 2))
    vocab = corpus_vocabulary(sentences)
    if args.embeddings:
        table = load_embeddings(args.embeddings, vocab, rng=rng,
                                trainable=not args.freeze_embeddings,
                                dtype=hyper.np_dtype)
        if table.dim != hyper.emb_dim:
            raise ConfigError(
                f"embedding file dim {table.dim} != configured emb-dim {hyper.emb_dim}"
            )
        return table
    return random_embeddings(vocab, hyper.emb_dim, rng,
                             trainable=not args.freeze_embeddings,
                             dtype=hyper.np_dtype)


def _hyper_from_args(args) -> model.HyperParams:
    overrides = {}
    for name in ("nk_c", "nk_e", "h_c", "h_e", "k", "emb_dim"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    try:
        return model.HyperParams.defaults_for(args.setup, args.output_layer, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_train(args) -> int:
    train_sentences = load_canonical(args.train)
    dev_sentences = load_canonical(args.dev) if args.dev else []
    hyper = _hyper_from_args(args)
    config = training.TrainConfig(
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        l2=args.l2,
        max_epochs=args.max_epochs,
        seed=args.seed,
        setup=args.setup,
        neg_keep_prob=args.keep_prob,
        masked_decode=args.masked_decode,
    )

    train_queries = _generate_queries(train_sentences, config.setup)
    dev_queries = _generate_queries(dev_sentences, config.setup)
    if config.setup == 1:
        if config.neg_keep_prob is not None:
            print("warning: --keep-prob ignored for setup 1", file=sys.stderr)
    else:
        keep = config.neg_keep_prob if config.neg_keep_prob is not None else DEFAULT_KEEP_PROB
        train_queries = subsample_negatives(train_queries, keep, (config.seed, 3, 0))
        dev_queries = subsample_negatives(dev_queries, keep, (config.seed, 3, 1))

    table = _build_table(train_sentences + dev_sentences, args, hyper, config.seed)
    params = model.init_params(hyper, LabelSpace(), table, seed=args.seed)
    out_dir = Path(args.out)
    if args.dump_queries:
        dump = Path(args.dump_queries)
        dump.parent.mkdir(parents=True, exist_ok=True)
        dump_queries(dump, train_queries)

    state = training.train_loop(
        params,
        train_queries,
        dev_queries,
        config,
        out_dir=out_dir,
        dev_sentences=dev_sentences,
        log_path=out_dir / "log.jsonl",
    )
    print(f"epochs: {state.epoch}")
    if state.best_metric is None:
        print("best dev Avg EC+RE: none, no dev set was given")
    else:
        print(f"best dev Avg EC+RE: {state.best_metric}")
    print(f"best checkpoint: {state.best_path}")
    print(f"final checkpoint: {out_dir / 'final'}")
    return 0


@contextmanager
def _running(checkpoint):
    """Prefix a RuntimeError raised while a checkpoint's model runs, such as
    non-finite scores, with the checkpoint directory."""
    try:
        yield
    except RuntimeError as exc:
        raise RuntimeError(f"{checkpoint}: {exc}") from None


def cmd_eval(args) -> int:
    params, _ = model.load_checkpoint(args.checkpoint)
    sentences = load_canonical(args.corpus)
    queries = _generate_queries(sentences, args.setup)
    ls = params.label_space
    if args.oracle:
        preds = [model.gold_indices(q, ls) for q in queries]
    else:
        with _running(args.checkpoint):
            preds = model.predict_queries(queries, params, args.masked_decode)
    report = evaluation.score_queries(queries, preds, args.setup, ls,
                                      sentences, args.omit_other)
    text = evaluation.format_report(report, ls)
    print(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "report.json", "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        (out_dir / "report.txt").write_text(text + "\n", encoding="utf-8")
    return 0


def _parse_span(text):
    try:
        start, end = text.split(":")
        span = (int(start), int(end))
    except ValueError:
        raise ConfigError(f"span must be start:end token indices, got {text!r}")
    if span[0] >= span[1]:
        raise ConfigError(f"span {text!r} is empty")
    return span


def cmd_predict(args) -> int:
    params, _ = model.load_checkpoint(args.checkpoint)
    tokens = args.sentence.split()
    span_i = _parse_span(args.span1)
    span_j = _parse_span(args.span2)
    if span_i == span_j:
        raise ConfigError("the two spans must differ")
    if span_i > span_j:
        span_i, span_j = span_j, span_i
    sentence = Sentence("cli", tokens, [], [])
    query = Query(sentence, span_i, span_j, "O", NO_RELATION, "O", setup=1)
    with _running(args.checkpoint):
        d, _ = model.forward_query(query, params)
        pred = model.decode_query(d, params, args.masked_decode)
    ls = params.label_space
    t1, r, t2 = (ls.label_of(i) for i in pred)
    e1 = " ".join(tokens[span_i[0] : span_i[1]])
    e2 = " ".join(tokens[span_j[0] : span_j[1]])
    print(f"({e1!r}, {e2!r}) => ({t1}, {r}, {t2})")
    print(f"scores: t1={d[0, pred[0]]:.4f} r={d[1, pred[1]]:.4f} t2={d[2, pred[2]]:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    grammar = synth.default_grammar(seed=args.seed)
    sentences = synth.generate(grammar, max(8, args.queries * 2))
    queries = gen_setup1(sentences)[: args.queries]
    hyper = model.HyperParams(nk_c=4, nk_e=3, h_c=5, h_e=4, k=2, emb_dim=6,
                              output_layer=args.output_layer)
    rng = np.random.default_rng((args.seed, 2))
    table = random_embeddings(corpus_vocabulary(sentences), hyper.emb_dim, rng)
    params = model.init_params(hyper, LabelSpace(), table, seed=args.seed)
    report = training.grad_check(params, queries, l2=args.l2, tolerance=args.tolerance)
    for name in sorted(report.errors):
        status = "ok" if report.errors[name] < report.tolerance else "FAIL"
        print(f"{name:<14} max rel err {report.errors[name]:.3e}  {status}")
    print(f"gradcheck: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_inspect_transitions(args) -> int:
    params, _ = model.load_checkpoint(args.checkpoint)
    report = analysis.inspect_transitions(params.transitions.value,
                                          params.label_space, args.threshold)
    print(f"transitions above {report.threshold}: {len(report.edges)}")
    for edge in report.edges:
        tag = " [tag]" if edge.involves_tag else ""
        print(f"{edge.from_label} -> {edge.to_label}: {edge.score:.4f}{tag}")
    return 0


def _add_common_model_flags(parser):
    parser.add_argument("--setup", type=int, choices=(1, 2, 3), default=1)
    parser.add_argument("--masked-decode", action="store_true",
                        help="restrict decoding to task-valid classes per position")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that records the action of every value-carrying
    argument added to it by destination, so config-file keys and values can
    be checked against them."""

    def __init__(self, *args, **kwargs):
        self.dests = {}  # before super().__init__, which adds --help
        self.flags = {}  # every option string, --help included -> its action
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags.update(dict.fromkeys(action.option_strings, action))
        if action.default is not argparse.SUPPRESS:  # --help carries no value
            self.dests[action.dest] = action
        return action

    def parse_known_args(self, args=None, namespace=None):
        """Bind a token that starts with '-' to the flag before it when that
        flag takes one value its type accepts: argparse alone reads "-inf" or
        "-1e9" as a flag, which leaves "--threshold -inf" without its value."""
        bound = []
        for token in sys.argv[1:] if args is None else args:
            if token.startswith("-") and bound and self._accepts(bound[-1], token):
                bound[-1] += "=" + token
            else:
                bound.append(token)
        return super().parse_known_args(bound, namespace)

    def _accepts(self, flag: str, text: str) -> bool:
        # a flag is its own option string or, as argparse resolves it, a
        # prefix of exactly one long option string; an ambiguous prefix
        # binds nothing and stays argparse's usage error
        names = [flag] if flag in self.flags else [
            name for name in self.flags if flag.startswith("--") and name.startswith(flag)]
        if len(names) != 1:
            return False
        action = self.flags[names[0]]
        if action.nargs is not None or not action.type:
            return False
        try:
            action.type(text)
            return True
        except ValueError:
            return False


def build_parser():
    """The top-level entrel parser, and the parser of each subcommand by name."""
    commands = {}

    def command(name, func, description):
        p = _Parser(prog=f"entrel {name}", description=description)
        p.set_defaults(func=func)
        commands[name] = p
        return p

    p = command("convert", cmd_convert, "parse a raw corpus into canonical JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--sent-col", type=int, default=0)
    p.add_argument("--tag-col", type=int, default=1)
    p.add_argument("--idx-col", type=int, default=2)
    p.add_argument("--word-col", type=int, default=5)
    p.add_argument("--no-split-slash", action="store_true")

    p = command("train", cmd_train, "train a model on a canonical corpus")
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--embeddings")
    p.add_argument("--out", required=True)
    _add_common_model_flags(p)
    p.add_argument("--output-layer", choices=("crf", "softmax"), default="crf")
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--l2", type=float, default=1e-3)
    p.add_argument("--max-epochs", type=int, default=20)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--keep-prob", type=float, default=None)
    p.add_argument("--nk-c", type=int, default=None)
    p.add_argument("--nk-e", type=int, default=None)
    p.add_argument("--h-c", type=int, default=None)
    p.add_argument("--h-e", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--emb-dim", type=int, default=None)
    p.add_argument("--freeze-embeddings", action="store_true")
    p.add_argument("--dump-queries", help="write generated train queries as JSONL")

    p = command("eval", cmd_eval, "evaluate a checkpoint on a canonical corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.add_argument("--omit-other", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="substitute gold labels for predictions (pipeline check)")
    _add_common_model_flags(p)

    p = command("predict", cmd_predict, "classify one sentence with two spans")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sentence", required=True, help="space-separated tokens")
    p.add_argument("--span1", required=True, help="start:end token indices")
    p.add_argument("--span2", required=True)
    p.add_argument("--masked-decode", action="store_true")

    p = command("gradcheck", cmd_gradcheck, "finite-difference gradient check")
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--queries", type=int, default=5)
    p.add_argument("--output-layer", choices=("crf", "softmax"), default="crf")
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--tolerance", type=float, default=1e-4)

    p = command("inspect-transitions", cmd_inspect_transitions,
                "transition scores above a threshold")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--threshold", type=float, default=0.5)

    parser = argparse.ArgumentParser(
        prog="entrel",
        description="Joint entity classification and relation extraction toolkit",
        epilog="commands:\n" + "\n".join(f"  {name:<21}{p.description}"
                                          for name, p in commands.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("command", choices=commands)
    parser.add_argument("args", nargs=argparse.REMAINDER, help="the command's own flags")
    return parser, commands


def _config_value(path, key, value, action):
    """``value`` converted as its flag's text would be; a ConfigError naming
    the key and the file where the flag would refuse it.

    argparse converts and checks only string defaults, so a config value
    goes through the flag's ``type`` and ``choices`` here.
    """
    if action.nargs == 0:  # a switch: on or off
        valid = isinstance(value, bool)
    elif value is None:
        valid = action.default is None
    elif action.type is None:
        valid = isinstance(value, str)
    else:
        try:
            value = action.type(str(value))
            valid = True
        except (TypeError, ValueError):
            valid = False
    if not valid or (action.choices is not None and value not in action.choices):
        raise ConfigError(f"config file {path}: invalid value {value!r} for key {key!r}")
    return value


def _config_values(path, commands, command):
    """The values a JSON config file sets for ``command``; {} without a file.

    A key that no subcommand knows, or a value its flag would refuse, is a
    config error. Keys of other subcommands are left out, so one file can
    serve several commands.
    """
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path, encoding="utf-8") as handle:
        try:
            values = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(values).difference(*(p.dests for p in commands.values())))
    if unknown:
        raise ConfigError(f"config file {path}: unknown key {unknown[0]!r}")
    return {key: _config_value(path, key, value, command.dests[key])
            for key, value in values.items() if key in command.dests}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        top = parser.parse_args(argv)
        command = commands[top.command]
        # argparse defaults, then config values, then explicit flags
        command.set_defaults(**_config_values(top.config, commands, command))
        args = command.parse_args(top.args)
        # a value that overflows or turns NaN surfaces as the one error line
        # of sgd_step or decode_query, not as numpy warnings on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ConfigError, QueryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CorpusError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
