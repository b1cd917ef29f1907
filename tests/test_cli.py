"""End-to-end runs of the entrel command line, in process through cli.main.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

import json
import shutil

import pytest

from entrel import cli, synth
from entrel.corpus import load_canonical, write_canonical

from conftest import RAW_SENTENCE

TINY_FLAGS = ("--nk-c", 4, "--nk-e", 3, "--h-c", 5, "--h-e", 4, "--k", 2, "--emb-dim", 6)


def run(*argv):
    """Exit code of one entrel command; argparse exits through SystemExit."""
    try:
        return cli.main([str(arg) for arg in argv])
    except SystemExit as exc:
        return exc.code


def train(corpus, out, *flags):
    return run("train", "--train", corpus / "train.jsonl", "--dev", corpus / "dev.jsonl",
               "--out", out, *flags)


def manifest(checkpoint):
    return json.loads((checkpoint / "manifest.json").read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train_s, dev_s = synth.split_corpus(synth.generate(synth.default_grammar(seed=3), 24), 0.25)
    write_canonical(root / "train.jsonl", train_s)
    write_canonical(root / "dev.jsonl", dev_s)
    return root


@pytest.fixture(scope="module")
def checkpoint(corpus):
    assert train(corpus, corpus / "run", "--max-epochs", 1, *TINY_FLAGS) == 0
    return corpus / "run" / "final"


def test_convert(tmp_path, capsys):
    (tmp_path / "raw.corp").write_text(RAW_SENTENCE)
    assert run("convert", "--input", tmp_path / "raw.corp", "--output", tmp_path / "c.jsonl") == 0
    (sentence,) = load_canonical(tmp_path / "c.jsonl")
    assert len(sentence.tokens) == 14 and len(sentence.relations) == 1
    out = capsys.readouterr().out
    assert "relations[Live_in]: 1" in out and "queries[setup1]: 3" in out


def test_train_writes_checkpoints_and_log(corpus, checkpoint):
    assert manifest(checkpoint)["hyperparams"]["k"] == 2
    assert (corpus / "run" / "best" / "manifest.json").exists()
    log = (corpus / "run" / "log.jsonl").read_text().splitlines()
    assert [json.loads(line)["epoch"] for line in log] == [1]


def test_eval_writes_report(corpus, checkpoint, tmp_path):
    assert run("eval", "--checkpoint", checkpoint, "--corpus", corpus / "dev.jsonl",
               "--out", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) >= {"ec_f1", "re_f1", "avg_ec_re"}
    assert (tmp_path / "report.txt").read_text().strip()


def test_predict(checkpoint, capsys):
    assert run("predict", "--checkpoint", checkpoint, "--sentence", "per1 works for org1",
               "--span1", "3:4", "--span2", "0:1", "--masked-decode") == 0
    assert capsys.readouterr().out.startswith("('per1', 'org1') => (")


def test_inspect_transitions_and_disagreement(corpus, checkpoint, capsys):
    assert run("inspect-transitions", "--checkpoint", checkpoint, "--threshold=-inf") == 0
    assert "transitions above -inf: 169" in capsys.readouterr().out
    assert run("disagreement", "--checkpoint", checkpoint, "--corpus", corpus / "dev.jsonl",
               "--setup", 2) == 0
    assert capsys.readouterr().out.startswith("entities: ")


def test_gradcheck():
    assert run("gradcheck", "--queries", 1) == 0


@pytest.mark.parametrize("flags", [
    ("--k", 0),
    ("--h-e", -1),
    ("--batch-size", 0),
    ("--k", "two"),
    ("--no-such-flag",),
], ids=["k-zero", "negative-layer", "batch-size-zero", "not-a-number", "unknown-flag"])
def test_train_usage_errors_exit_2(corpus, tmp_path, flags):
    assert train(corpus, tmp_path, "--max-epochs", 0, *flags) == 2


def test_missing_subcommand_and_bad_span_exit_2(checkpoint):
    assert run() == 2
    assert run("predict", "--checkpoint", checkpoint, "--sentence", "a b",
               "--span1", "1:0", "--span2", "1:2") == 2


@pytest.mark.parametrize("corrupt, key", [
    (lambda m: m["hyperparams"].update(bogus=3), "bogus"),
    (lambda m: m["hyperparams"].pop("h_c"), "h_c"),
    (lambda m: m.pop("tensors"), "tensors"),
], ids=["unknown-hyperparam", "missing-hyperparam", "missing-key"])
def test_malformed_manifest_exits_1_with_one_line(checkpoint, tmp_path, capsys, corrupt, key):
    broken = tmp_path / "ck"
    shutil.copytree(checkpoint, broken)
    content = manifest(broken)
    corrupt(content)
    (broken / "manifest.json").write_text(json.dumps(content))
    assert run("inspect-transitions", "--checkpoint", broken) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert str(broken / "manifest.json") in line and line.endswith(f" {key}")


@pytest.mark.parametrize("corrupt", [
    lambda ck: (ck / "params.bin").write_bytes((ck / "params.bin").read_bytes()[:-8]),
    lambda ck: (ck / "manifest.json").write_text("{not json"),
    # an invalid layer size inside a checkpoint is a corrupt file, not a usage error
    lambda ck: (ck / "manifest.json").write_text(
        json.dumps({**manifest(ck), "hyperparams": {**manifest(ck)["hyperparams"], "k": 0}})),
], ids=["truncated-payload", "manifest-not-json", "zero-layer-size"])
def test_corrupt_checkpoint_exits_1(checkpoint, tmp_path, corrupt):
    broken = tmp_path / "ck"
    shutil.copytree(checkpoint, broken)
    corrupt(broken)
    assert run("inspect-transitions", "--checkpoint", broken) == 1


def test_missing_checkpoint_exits_1(tmp_path):
    assert run("inspect-transitions", "--checkpoint", tmp_path / "absent") == 1


class TestConfigFile:
    def write(self, path, values):
        path.write_text(json.dumps(values))
        return path

    def test_config_values_apply_and_flags_win(self, corpus, tmp_path):
        # k comes from the flag, h_c from the config; threshold belongs to
        # another subcommand and is left out
        config = self.write(tmp_path / "c.json", {"k": 3, "h_c": 7, "max_epochs": 0,
                                                  "threshold": 0.9})
        assert run("--config", config, "train", "--train", corpus / "train.jsonl",
                   "--out", tmp_path / "run", *TINY_FLAGS[:4], *TINY_FLAGS[6:]) == 0
        hyper = manifest(tmp_path / "run" / "final")["hyperparams"]
        assert (hyper["k"], hyper["h_c"]) == (2, 7)
        assert (tmp_path / "run" / "log.jsonl").read_text() == ""

    def test_environment_variable_names_the_file(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.CONFIG_ENV, str(self.write(tmp_path / "c.json",
                                                           {"max_epochs": 0, "k": 3})))
        assert train(corpus, tmp_path / "run", "--nk-c", 4, "--nk-e", 3) == 0
        assert manifest(tmp_path / "run" / "final")["hyperparams"]["k"] == 3

    def test_unknown_key_exits_2_naming_key_and_file(self, corpus, tmp_path, capsys):
        config = self.write(tmp_path / "c.json", {"max_epochs": 0, "bogus_key": 3})
        assert run("--config", config, "train", "--train", corpus / "train.jsonl",
                   "--out", tmp_path / "run") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert str(config) in line and "'bogus_key'" in line
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json"], ids=["not-an-object", "not-json"])
    def test_malformed_config_exits_2(self, tmp_path, text):
        (tmp_path / "c.json").write_text(text)
        assert run("--config", tmp_path / "c.json", "gradcheck", "--queries", 1) == 2
