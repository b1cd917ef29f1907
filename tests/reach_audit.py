"""List the statements of ``src/entrel`` that no normal run executes.

Runs the three benchmark workloads at the tiny sizes of
``perfbench/test_perfbench.py`` and the user paths of each ``entrel``
command under ``sys.settrace``, then prints every statement of the package
that none of these runs executed, as ``path:line: source``, and a count.
Statements that raise are left out: those are the error paths, which the
tests reach on purpose. ``tests/test_reach_audit.py`` runs this script and
fails on a listed statement that its allowlist does not name, and on an
allowlist entry that is no longer listed.

    PYTHONPATH=src python tests/reach_audit.py

pytest does not collect this file, as its name does not start with
``test_``. The test runs it in a fresh interpreter, so the package's
module-level statements run under the tracer too.
"""

import ast
import contextlib
import io
import json
import os
import re
import runpy
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entrel"
TINY_FLAGS = ["--nk-c", 4, "--nk-e", 3, "--h-c", 5, "--h-e", 4, "--k", 2, "--emb-dim", 6]


def statements(path: Path):
    """(first, last) line of each statement whose execution a line event
    shows: a compound statement by its header, a simple one by all its
    lines. Definitions, ``try`` headers, docstrings, raises and the
    ``global`` and ``nonlocal`` declarations are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (
                ast.FunctionDef, ast.ClassDef, ast.Try, ast.Raise, ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, max(node.lineno, last)


def traced(work):
    """Run ``work()`` under a line tracer; the executed (file, line) pairs
    of the package."""
    executed = set()
    package = str(PACKAGE)
    real = {}

    def local(frame, event, arg):
        if event == "line":
            executed.add((real[frame.f_code.co_filename], frame.f_lineno))
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in real:
            real[name] = os.path.realpath(name)
        return local if real[name].startswith(package) else None

    sys.settrace(start)
    try:
        work()
    finally:
        sys.settrace(None)
    return executed


def run_workloads(out: Path):
    import bench_workloads as bench
    from test_perfbench import TINY

    for name, workload in bench.WORKLOADS.items():
        result = bench.run_workload(replace(workload, **TINY), 3, 0, False, out / name)
        if not result["correct"]:
            raise SystemExit(f"workload {name} failed: {result['errors']}")


def run_commands(out: Path):
    from conftest import RAW_SENTENCE
    from entrel import cli, synth
    from entrel.corpus import corpus_vocabulary, write_canonical

    train_s, dev_s = synth.split_corpus(synth.generate(synth.default_grammar(seed=3), 24), 0.25)
    train, dev = out / "train.jsonl", out / "dev.jsonl"
    write_canonical(train, train_s)
    write_canonical(dev, dev_s)
    with open(dev, "a", encoding="utf-8") as handle:
        handle.write("\n")  # a blank line
    words = corpus_vocabulary(train_s)[::2]
    rows = [f"{w} 0.1 -0.2 0.3 0 0.5 -0.1\n" for w in words]
    (out / "vectors.txt").write_text(f"{len(words)} 6\n" + "".join(rows[:3]) + "\n"
                                     + "".join(rows[3:]))
    # three blocks whose sentence fields repeat: 5, 5, 5.1
    (out / "raw.corp").write_text("".join(re.sub("^1\t", f"{sid}\t", RAW_SENTENCE, flags=re.M)
                                          for sid in ("5", "5", "5.1")))
    (out / "empty.corp").write_text("")  # converts to an empty corpus
    # a number, a switch, a null and a plain string
    (out / "config.json").write_text(json.dumps(
        {"max_epochs": 2, "masked_decode": True, "keep_prob": None, "output_layer": "crf"}))
    checkpoint = out / "run" / "final"
    trained = ["--train", train, "--dev", dev]
    commands = [
        ["convert", "--input", out / "raw.corp", "--output", out / "raw.jsonl"],
        ["convert", "--input", out / "empty.corp", "--output", out / "empty.jsonl"],
        ["--config", out / "config.json", "train", *trained,
         "--embeddings", out / "vectors.txt", "--out", out / "run", *TINY_FLAGS],
        *(["eval", "--checkpoint", checkpoint, "--corpus", dev,
           "--setup", setup, "--out", out / f"eval{setup}"] for setup in (1, 2, 3)),
        ["eval", "--checkpoint", checkpoint, "--corpus", dev, "--setup", 3, "--oracle"],
        # spans in reverse order; a capitalised token found in lowercase
        ["predict", "--checkpoint", checkpoint, "--sentence",
         f"per01 works for {words[0].upper()}", "--span1", "3:4", "--span2", "0:1"],
        ["gradcheck", "--queries", 1],
        ["train", "--train", train, "--out", out / "softmax", "--output-layer", "softmax",
         "--freeze-embeddings", "--max-epochs", 1, *TINY_FLAGS],
        ["train", *trained, "--out", out / "setup2", "--setup", 2, "--keep-prob", 0.5,
         "--dump-queries", out / "queries.jsonl", "--max-epochs", 1, *TINY_FLAGS],
        ["train", *trained, "--out", out / "setup1", "--keep-prob", 0.5, "--max-epochs", 1,
         *TINY_FLAGS],
        # the learning-rate floor stops training after one epoch
        ["train", "--train", train, "--out", out / "floor", "--learning-rate", 5e-7,
         *TINY_FLAGS],
        # an untrained model's entity votes agree, and its setup-3 relation
        # votes under a gold pair tie
        ["train", "--train", train, "--out", out / "untrained", "--max-epochs", 0, *TINY_FLAGS],
        ["eval", "--checkpoint", out / "untrained" / "final", "--corpus", dev, "--setup", 3],
        # the one-epoch setup-1 model's entity votes disagree in setup 2
        ["eval", "--checkpoint", out / "setup1" / "final", "--corpus", dev, "--setup", 2],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([str(arg) for arg in argv])
        if code != 0:
            raise SystemExit(f"entrel {' '.join(map(str, argv))} exited {code}")
    # python -m entrel.cli, which runs the module again as __main__
    argv, sys.argv = sys.argv, ["entrel", "inspect-transitions", "--checkpoint",
                                str(checkpoint), "--threshold", "-inf"]
    try:
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "'entrel.cli' found in sys.modules")
            runpy.run_module("entrel.cli", run_name="__main__")
    except SystemExit as exc:
        if exc.code != 0:
            raise SystemExit(f"python -m entrel.cli {' '.join(sys.argv[1:])} exited {exc.code}")
    finally:
        sys.argv = argv


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "bench").mkdir()
        (out / "cli").mkdir()

        def runs():
            run_workloads(out / "bench")
            run_commands(out / "cli")

        executed = traced(runs)
    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        real = os.path.realpath(path)
        for first, last in sorted(set(statements(path))):
            if not any((real, line) in executed for line in range(first, last + 1)):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{unreached} statements unreached")


if __name__ == "__main__":
    main()
