"""List the statements of ``src/entrel`` that no normal run executes.

Runs the three benchmark workloads at the tiny sizes of
``perfbench/test_perfbench.py`` and the normal path of each ``entrel``
command under ``sys.settrace``, then prints every statement of the package
that none of these runs executed, as ``path:line: source``, and a count.
Statements that raise are left out: those are the error paths, which the
tests reach on purpose. A listed statement is a candidate for removal, or
for a test that names why it exists.

    PYTHONPATH=src python tests/reach_audit.py

pytest does not collect this file: its name does not start with ``test_``.
"""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entrel"
TINY_FLAGS = ["--nk-c", 4, "--nk-e", 3, "--h-c", 5, "--h-e", 4, "--k", 2, "--emb-dim", 6]


def statements(path: Path):
    """(first, last) line of each statement whose execution a line event
    shows: a compound statement by its header, a simple one by all its
    lines. Definitions, ``try`` headers, docstrings and raises are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.FunctionDef, ast.ClassDef, ast.Try, ast.Raise)):
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
    write_canonical(out / "train.jsonl", train_s)
    write_canonical(out / "dev.jsonl", dev_s)
    words = corpus_vocabulary(train_s)[::2]
    (out / "vectors.txt").write_text(
        f"{len(words)} 6\n" + "".join(f"{w} 0.1 -0.2 0.3 0 0.5 -0.1\n" for w in words))
    (out / "raw.corp").write_text(RAW_SENTENCE)
    (out / "config.json").write_text(json.dumps({"max_epochs": 2}))
    checkpoint = out / "run" / "final"
    commands = [
        ["convert", "--input", out / "raw.corp", "--output", out / "raw.jsonl"],
        ["--config", out / "config.json", "train", "--train", out / "train.jsonl",
         "--dev", out / "dev.jsonl", "--embeddings", out / "vectors.txt",
         "--out", out / "run", *TINY_FLAGS],
        *(["eval", "--checkpoint", checkpoint, "--corpus", out / "dev.jsonl",
           "--setup", setup, "--out", out / f"eval{setup}"] for setup in (1, 2, 3)),
        ["predict", "--checkpoint", checkpoint, "--sentence", "per01 works for org02",
         "--span1", "0:1", "--span2", "3:4"],
        ["gradcheck", "--queries", 1],
        ["inspect-transitions", "--checkpoint", checkpoint],
        ["disagreement", "--checkpoint", checkpoint, "--corpus", out / "dev.jsonl",
         "--setup", 2],
        # an untrained model's entity votes disagree and tie, as a tuned
        # model's do on the benchmark-size setup-2/3 eval sets; the tiny
        # trained model above is unanimous
        ["train", "--train", out / "train.jsonl", "--out", out / "untrained",
         "--max-epochs", 0, *TINY_FLAGS],
        ["eval", "--checkpoint", out / "untrained" / "final", "--corpus", out / "dev.jsonl",
         "--setup", 3],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(arg) for arg in argv])
        if code != 0:
            raise SystemExit(f"entrel {' '.join(map(str, argv))} exited {code}")


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
