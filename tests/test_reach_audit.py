"""The reach audit as a gate: every package statement that no normal run
executes is named below, with why no run reaches it.

``tests/reach_audit.py`` runs the benchmark workloads at tiny sizes and the
user paths of every ``entrel`` command under a line tracer, in a fresh
interpreter, and lists the statements none of them executed. A listed
statement that the allowlist does not name fails here, and so does an entry
that a run now reaches or that no longer exists, so the list only shrinks.
An entry is the file and the first line of the statement, as the audit
prints them; a statement text that appears twice needs two entries.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import reach_audit

ROOT = Path(__file__).resolve().parent.parent

# error paths, which the tests reach on purpose: the statements next to a
# raise, the handlers that turn an error into an exit code, and the save of
# a failed training step
ALLOWED_UNREACHED = [  # (file, statement, why no normal run executes it)
    ("src/entrel/cli.py", "return False",
     "_Parser._accepts: a '-' token its flag's type refuses stays apart, and argparse exits 2"),
    ("src/entrel/cli.py", "valid = False",
     "_config_value: a config value its flag's type refuses is a ConfigError"),
    ("src/entrel/cli.py", 'print(f"error: {exc}", file=sys.stderr)', "main: a usage error"),
    ("src/entrel/cli.py", "return 2", "main: a usage error"),
    ("src/entrel/cli.py", 'print(f"error: {exc}", file=sys.stderr)', "main: a runtime error"),
    ("src/entrel/cli.py", "return 1", "main: a runtime error"),
    ("src/entrel/corpus.py", 'loc = ""', "CorpusError.__init__"),
    ("src/entrel/corpus.py", "if path is not None:", "CorpusError.__init__"),
    ("src/entrel/corpus.py", 'loc = f"{path}:" + (f"{line}: " if line is not None else " ")',
     "CorpusError.__init__"),
    ("src/entrel/corpus.py", 'super().__init__(f"{loc}{message}")', "CorpusError.__init__"),
    ("src/entrel/corpus.py", "self.path = path", "CorpusError.__init__"),
    ("src/entrel/corpus.py", "self.line = line", "CorpusError.__init__"),
    ("src/entrel/corpus.py", 'kind = "a string" if name == "type" else "an integer"',
     "_record_items: a record field of the wrong type"),
    ("src/entrel/corpus.py", "return CorpusError(message, path, line)",
     "sentence_from_record's bad(): a malformed record"),
    ("src/entrel/corpus.py", "count = dim = -1",
     "load_embeddings: a header that is not two integers"),
    ("src/entrel/crf.py", "triple = tuple(gold[outside][0].tolist())",
     "nll_and_gradients: a gold triple outside the position mask"),
    ("src/entrel/training.py",
     'ids = ", ".join(dict.fromkeys(query.sentence_id for query in batch))',
     "train_loop: a failed training step"),
    ("src/entrel/training.py", 'save_checkpoint(out_dir / "final", params, config.seed,',
     "train_loop: a failed training step"),
    # not an error path
    ("src/entrel/evaluation.py", "continue",
     "score_setup3 skips an N cell of a dense table; score_queries passes only the cells "
     "predicted other than N; test_random_predictions_match_plain_vote[3] and "
     "test_random_tables_match_enumeration_oracle (its random_table) write N cells"),
    ("src/entrel/synth.py", 'join = (("linked", "to"),)',
     "ambiguous_grammar: only tests use it until the CRF-vs-softmax claim is put under test "
     "(ROADMAP item 2)"),
    ("src/entrel/synth.py", 'bind = (("tied", "to"),)', "ambiguous_grammar, as above"),
    ("src/entrel/synth.py", "templates = {", "ambiguous_grammar, as above"),
    ("src/entrel/synth.py",
     "return RuleGrammar(templates=templates, type_pools=_name_pools(40),",
     "ambiguous_grammar, as above"),
]
ALLOWED = Counter((path, text) for path, text, _ in ALLOWED_UNREACHED)


@pytest.fixture(scope="module")
def listed():
    """(file, statement) of each statement the audit lists."""
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "reach_audit.py")],
                         capture_output=True, text=True, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    *lines, summary = run.stdout.splitlines()
    assert summary == f"{len(lines)} statements unreached"
    return [(path, text.strip()) for path, _, text in (line.split(":", 2) for line in lines)]


def test_every_unreached_statement_is_allowlisted(listed):
    assert sorted((Counter(listed) - ALLOWED).elements()) == []


def test_every_allowlist_entry_is_still_unreached(listed):
    assert sorted((ALLOWED - Counter(listed)).elements()) == []


def test_declarations_are_not_statements(tmp_path):
    # global and nonlocal make no line event, so a run could never show them
    path = tmp_path / "module.py"
    path.write_text("def outer():\n"
                    "    x = 1\n"
                    "\n"
                    "    def inner():\n"
                    "        nonlocal x\n"
                    "        global y\n"
                    "        x = y = 2\n"
                    "    return inner\n")
    assert sorted(reach_audit.statements(path)) == [(2, 2), (7, 7), (8, 8)]
