"""End-to-end runs of the entrel command line, in process through cli.main.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

import json
import shutil
import warnings

import numpy as np
import pytest

from entrel import cli, model, synth
from entrel.corpus import corpus_vocabulary, load_canonical, write_canonical
from entrel.model import load_checkpoint, save_checkpoint

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
    assert "pairs with several relations: 0" in out


def report_rows(text):
    """Row label -> printed value of a format_report table."""
    return dict(line.rsplit(None, 1) for line in text.splitlines()
                if line and not line.startswith(("disagreement", " ")))


@pytest.mark.parametrize("setup", [1, 2, 3])
def test_oracle_eval_scores_100(corpus, checkpoint, capsys, setup):
    assert run("eval", "--checkpoint", checkpoint, "--corpus", corpus / "dev.jsonl",
               "--setup", setup, "--oracle") == 0
    assert report_rows(capsys.readouterr().out)["Avg EC+RE"] == "100.00"


def test_oracle_eval_of_a_pair_with_two_relations_agrees_across_setups(checkpoint, tmp_path,
                                                                       capsys):
    # two relation lines on one row pair; Work_for is canonically first
    raw = RAW_SENTENCE.replace("0\t7\tLive_in", "7\t0\tWork_for\n0\t7\tLive_in")
    (tmp_path / "raw.corp").write_text(raw)
    assert run("convert", "--input", tmp_path / "raw.corp", "--output", tmp_path / "c.jsonl") == 0
    assert "pairs with several relations: 1" in capsys.readouterr().out
    relation_rows = []
    for setup in (1, 2, 3):
        assert run("eval", "--checkpoint", checkpoint, "--corpus", tmp_path / "c.jsonl",
                   "--setup", setup, "--oracle") == 0
        rows = report_rows(capsys.readouterr().out)
        assert rows["Avg EC+RE"] == "100.00", setup
        relation_rows.append({label: rows[label] for label in
                              ("Located_in", "Work_for", "OrgBased_in", "Live_in", "Kill")})
    assert relation_rows[0]["Work_for"] == "100.00"
    assert relation_rows[0] == relation_rows[1] == relation_rows[2]


def test_train_writes_checkpoints_and_log(corpus, checkpoint):
    assert manifest(checkpoint)["hyperparams"]["k"] == 2
    assert manifest(checkpoint)["dtype"] == "float32"
    assert (corpus / "run" / "best" / "manifest.json").exists()
    log = (corpus / "run" / "log.jsonl").read_text().splitlines()
    assert [json.loads(line)["epoch"] for line in log] == [1]


def test_train_without_dev_claims_no_best_epoch(corpus, tmp_path, capsys):
    out = tmp_path / "run"
    assert run("train", "--train", corpus / "train.jsonl", "--out", out,
               "--max-epochs", 3, *TINY_FLAGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["epochs: 3", "best dev Avg EC+RE: none, no dev set was given",
                     f"best checkpoint: {out / 'final'}", f"final checkpoint: {out / 'final'}"]
    assert not (out / "best").exists()
    assert manifest(out / "final")["extra"] == {"epoch": 3}
    log = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
    assert [(r["epoch"], r["improved"], r["dev_avg_ec_re"]) for r in log] == [
        (1, False, None), (2, False, None), (3, False, None)]


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


def test_inspect_transitions_flags_the_tag_rows(checkpoint, capsys):
    assert run("inspect-transitions", "--checkpoint", checkpoint, "--threshold=-inf") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "transitions above -inf: 169"
    # 13 x 13 cells: the 11 x 11 between classes are the untagged ones
    assert sum(line.endswith(" [tag]") for line in lines[1:]) == 169 - 121
    assert any(line.startswith("<begin> -> ") for line in lines)
    assert any(" -> <end>: " in line for line in lines)


@pytest.mark.parametrize("setup", [1, 2, 3])
def test_disagreement_reports_the_stats_eval_reports(corpus, checkpoint, tmp_path, capsys, setup):
    """entrel eval prints the entity-vote disagreement with the numbers its
    report.json holds. The one-epoch model's votes agree in setup 1 and
    disagree in setups 2 and 3."""
    assert run("eval", "--checkpoint", checkpoint, "--corpus", corpus / "dev.jsonl",
               "--setup", setup, "--out", tmp_path) == 0
    printed = capsys.readouterr().out
    stats = json.loads((tmp_path / "report.json").read_text())["disagreement"]
    assert (stats["n_disagreeing"] > 0) == (setup > 1)
    expected = [f"disagreement: {stats['n_disagreeing']}/{stats['n_groups']} entities"
                f" ({100 * stats['fraction']:.2f}%)"]
    if stats["n_disagreeing"]:
        expected.append("  per-entity disagreement max/median/min: " + "/".join(
            f"{100 * stats[key]:.0f}%" for key in ("max_fraction", "median_fraction",
                                                   "min_fraction")))
    assert [line for line in printed.splitlines() if "disagreement" in line] == expected
    assert (tmp_path / "report.txt").read_text() == printed


@pytest.mark.parametrize("value", ["-inf", "-1e9"])
def test_negative_value_follows_its_flag(checkpoint, capsys, value):
    # argparse alone reads -inf and -1e9 as flags and exits 2
    assert run("inspect-transitions", "--checkpoint", checkpoint, "--threshold", value) == 0
    assert f"transitions above {float(value)}: 169" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--thresh", "--t"])
def test_negative_value_follows_an_abbreviated_flag(checkpoint, capsys, flag):
    assert run("inspect-transitions", "--checkpoint", checkpoint, flag, "-inf") == 0
    assert "transitions above -inf: 169" in capsys.readouterr().out


def test_ambiguous_abbreviation_stays_a_usage_error(corpus, tmp_path, capsys):
    # --h could be --help, --h-c or --h-e
    assert train(corpus, tmp_path / "run", "--max-epochs", 0, "--h", "-5") == 2
    assert "ambiguous option: --h" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_failed_sgd_step_exits_1_naming_the_batch(corpus, tmp_path, capsys, monkeypatch):
    real = model.init_params

    def poisoned(*args, **kwargs):
        params = real(*args, **kwargs)
        params["ec_out"].value[0, 0] = np.nan
        return params

    monkeypatch.setattr(model, "init_params", poisoned)
    assert train(corpus, tmp_path / "run", "--max-epochs", 1, *TINY_FLAGS) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: epoch 1, batch 1 (sentences synth-")
    assert line.endswith("): non-finite gradient in tensor embeddings")


def test_overflow_in_training_exits_1_with_one_line_and_no_warning(corpus, tmp_path, capsys):
    # every value fits float32, but the first batch's context convolution overflows it
    sentences = load_canonical(corpus / "train.jsonl") + load_canonical(corpus / "dev.jsonl")
    vocab = corpus_vocabulary(sentences)
    rng = np.random.default_rng(0)
    rows = [" ".join([word, *map(repr, rng.uniform(-3e38, 3e38, 6).tolist())]) for word in vocab]
    (tmp_path / "vec.txt").write_text("\n".join([f"{len(vocab)} 6", *rows]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert train(corpus, tmp_path / "run", "--embeddings", tmp_path / "vec.txt",
                     "--max-epochs", 1, *TINY_FLAGS) == 1
    assert [str(w.message) for w in caught] == []
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: epoch 1, batch 1 (sentences synth-")
    assert line.endswith("): non-finite context CNN output: a model parameter is non-finite "
                         "or overflows float32")


def test_saturated_hidden_layer_exits_1_and_keeps_the_initial_model(corpus, tmp_path, capsys):
    # every value 1e38: no product overflows float32, but every tanh unit of
    # the hidden layers sits at +-1, so no gradient would reach the CNNs
    sentences = load_canonical(corpus / "train.jsonl") + load_canonical(corpus / "dev.jsonl")
    vocab = corpus_vocabulary(sentences)
    rows = [" ".join([word] + ["1e38"] * 6) for word in vocab]
    (tmp_path / "vec.txt").write_text("\n".join([f"{len(vocab)} 6", *rows]) + "\n")
    assert train(corpus, tmp_path / "run", "--embeddings", tmp_path / "vec.txt",
                 "--max-epochs", 1, *TINY_FLAGS) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: epoch 1, batch 1 (sentences synth-")
    assert line.endswith("): saturated ec context hidden layer: every unit is at +-1 on "
                         "every input, so no gradient passes it")
    saved, meta = load_checkpoint(tmp_path / "run" / "final")
    assert meta["extra"] == {"epoch": 1, "batch": 1}
    rows = [saved.embeddings.lookup(word) for word in vocab]
    assert (saved["embeddings"].value[rows] == np.float32(1e38)).all()  # no step was taken


@pytest.mark.parametrize("command", [
    ("eval", "--corpus", "dev.jsonl"),
    ("predict", "--sentence", "per1 works for org1", "--span1", "0:1", "--span2", "3:4"),
], ids=["eval", "predict"])
def test_overflowing_checkpoint_exits_1_with_one_line(corpus, checkpoint, tmp_path, capsys,
                                                       command):
    params, meta = load_checkpoint(checkpoint)
    params["ec_out"].value[...] = 3e38  # finite in float32; the scores overflow it
    save_checkpoint(tmp_path / "ck", params, meta["seed"])
    name, *flags = command
    flags = [corpus / flag if flag.endswith(".jsonl") else flag for flag in flags]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(name, "--checkpoint", tmp_path / "ck", *flags) == 1
    assert [str(w.message) for w in caught] == []
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (f"error: {tmp_path / 'ck'}: non-finite scores: a model parameter is "
                    "non-finite or overflows float32")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_checkpoint_value_exits_1_naming_the_tensor(corpus, checkpoint, tmp_path,
                                                               capsys, value):
    params, meta = load_checkpoint(checkpoint)
    params["re_ctx_w"].value[2, 1] = value
    save_checkpoint(tmp_path / "ck", params, meta["seed"])
    assert run("eval", "--checkpoint", tmp_path / "ck", "--corpus", corpus / "dev.jsonl") == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: {tmp_path / 'ck' / 'params.bin'}: tensor re_ctx_w holds a non-finite value"


def test_embedding_value_outside_float32_exits_1_naming_the_line(corpus, tmp_path, capsys):
    word = load_canonical(corpus / "train.jsonl")[0].tokens[0]
    (tmp_path / "vec.txt").write_text(f"1 6\n{word} 1 2 3 4 5 1e39\n")
    assert train(corpus, tmp_path / "run", "--embeddings", tmp_path / "vec.txt",
                 "--max-epochs", 1, *TINY_FLAGS) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (f"error: {tmp_path / 'vec.txt'}:2: row of {word!r} holds '1e39', "
                    "outside the float32 range (±3.403e+38)")
    assert not (tmp_path / "run").exists()


def test_negative_exponent_reaches_the_value_check(corpus, tmp_path, capsys):
    assert train(corpus, tmp_path / "run", "--learning-rate", "-1e-2") == 2
    assert "learning_rate" in capsys.readouterr().err


def test_gradcheck():
    assert run("gradcheck", "--queries", 1) == 0


class TestSoftmaxBaseline:
    @pytest.fixture(scope="class")
    def softmax_checkpoint(self, corpus):
        assert train(corpus, corpus / "softmax", "--output-layer", "softmax",
                     "--max-epochs", 1, *TINY_FLAGS) == 0
        return corpus / "softmax" / "final"

    def test_train_eval_predict(self, corpus, softmax_checkpoint, tmp_path, capsys):
        assert manifest(softmax_checkpoint)["hyperparams"]["output_layer"] == "softmax"
        assert run("eval", "--checkpoint", softmax_checkpoint, "--corpus", corpus / "dev.jsonl",
                   "--setup", 2, "--out", tmp_path) == 0
        assert json.loads((tmp_path / "report.json").read_text())["avg_ec_re"] is not None
        capsys.readouterr()
        assert run("predict", "--checkpoint", softmax_checkpoint,
                   "--sentence", "per1 works for org1", "--span1", "0:1", "--span2", "3:4") == 0
        assert capsys.readouterr().out.startswith("('per1', 'org1') => (")

    def test_gradcheck(self):
        assert run("gradcheck", "--queries", 1, "--output-layer", "softmax") == 0

    def test_stored_transitions_do_not_change_decoding(self, corpus, softmax_checkpoint,
                                                       tmp_path, capsys):
        # a softmax checkpoint's transitions are carried but never chained
        params, meta = load_checkpoint(softmax_checkpoint)
        assert not params.transitions.value.any()
        rng = np.random.default_rng(0)
        params.transitions.value[...] = rng.normal(scale=50.0, size=params.transitions.shape)
        save_checkpoint(tmp_path / "noisy", params, meta["seed"], meta["extra"])
        outputs = []
        for checkpoint in (softmax_checkpoint, tmp_path / "noisy"):
            out = tmp_path / checkpoint.name
            assert run("eval", "--checkpoint", checkpoint, "--corpus", corpus / "dev.jsonl",
                       "--setup", 3, "--out", out) == 0
            assert run("predict", "--checkpoint", checkpoint, "--sentence",
                       "per1 works for org1", "--span1", "0:1", "--span2", "3:4") == 0
            outputs.append(((out / "report.json").read_text(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("corrupt, ending", [
    (lambda m: m["hyperparams"].update(bogus=3), "bogus"),
    (lambda m: m["hyperparams"].pop("h_c"), "h_c"),
    (lambda m: m.pop("tensors"), "tensors"),
    (lambda m: m["vocab"][0].__setitem__(1, 67), "[word, row] pair of the 67 rows"),
    (lambda m: m["vocab"][0].__setitem__(1, -1), "[word, row] pair of the 67 rows"),
    (lambda m: m.update(vocab={"a": 0}), "manifest vocab is not of type list"),
    (lambda m: m["vocab"].__setitem__(0, ["a"]), "['a'] is not a [word, row] pair of the 67 rows"),
    (lambda m: m.update(unk_row=67), "unk_row 67 is outside the 67 embedding rows"),
    (lambda m: m.update(ec_labels=5), "manifest ec_labels is not of type list"),
    (lambda m: m["tensors"][0].update(shape=67), "tensor entry shape is not of type list"),
    (lambda m: m["tensors"][1].update(offset=-8), "ctx_filters has a negative offset or size"),
    (lambda m: m["tensors"][2].update(shape=[-4]), "ctx_bias has a negative offset or size"),
    (lambda m: m["tensors"][0].update(name=[0]), "tensor entry name is not of type str"),
    (lambda m: m["hyperparams"].update(k="2"), "hyperparams k is not of type int"),
    (lambda m: m.update(embeddings_trainable="no"), "embeddings_trainable is not of type bool"),
    (lambda m: m.update(format=2), "format 2 is not 1, the one format this build reads"),
    (lambda m: m.update(format=True), "manifest format is not of type int"),
    (lambda m: m["ec_labels"].remove("Other"),
     "ec_labels ['Peop', 'Org', 'Loc', 'O'] is not the label set "
     "['Peop', 'Org', 'Loc', 'Other', 'O']"),
    (lambda m: m.update(seed={"a": [1]}), "manifest seed is not of type int"),
    (lambda m: m.update(seed="13"), "manifest seed is not of type int"),
    (lambda m: m.update(seed=True), "manifest seed is not of type int"),
], ids=["unknown-hyperparam", "missing-hyperparam", "missing-key", "vocab-row-past-table",
        "negative-vocab-row", "vocab-not-a-list", "vocab-entry-not-a-pair", "unk-row-past-table",
        "labels-not-a-list", "shape-not-a-list", "negative-offset", "negative-size",
        "name-not-a-string", "hyperparam-as-text", "trainable-not-a-bool", "other-format",
        "format-not-an-int", "other-label-set", "seed-as-a-dict", "seed-as-text",
        "seed-as-a-bool"])
def test_malformed_manifest_exits_1_with_one_line(checkpoint, tmp_path, capsys, corrupt, ending):
    broken = tmp_path / "ck"
    shutil.copytree(checkpoint, broken)
    content = manifest(broken)
    corrupt(content)
    (broken / "manifest.json").write_text(json.dumps(content))
    assert run("inspect-transitions", "--checkpoint", broken) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert str(broken / "manifest.json") in line and line.endswith(f" {ending}")


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

    @pytest.mark.parametrize("values", [
        {"setup": 5},
        {"output_layer": "maxent"},
        {"k": 2.5},
        {"max_epochs": "many"},
        {"masked_decode": "yes"},
        {"train": 3},
    ], ids=["setup-choice", "output-layer-choice", "float-for-int", "text-for-int",
            "text-for-switch", "number-for-path"])
    def test_train_value_the_flag_refuses_exits_2(self, corpus, tmp_path, capsys, values):
        config = self.write(tmp_path / "c.json", {"max_epochs": 0, **values})
        assert run("--config", config, "train", "--train", corpus / "train.jsonl",
                   "--out", tmp_path / "run") == 2
        (line,) = capsys.readouterr().err.splitlines()
        (key,) = values
        assert str(config) in line and repr(key) in line
        assert not (tmp_path / "run").exists()

    def test_eval_setup_the_flag_refuses_exits_2(self, corpus, checkpoint, tmp_path, capsys):
        config = self.write(tmp_path / "c.json", {"setup": 5})
        assert run("--config", config, "eval", "--checkpoint", checkpoint,
                   "--corpus", corpus / "dev.jsonl", "--out", tmp_path / "report") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert str(config) in line and "'setup'" in line
        assert not (tmp_path / "report").exists()

    def test_config_values_take_the_flags_types(self, corpus, tmp_path):
        # numbers as JSON text convert as flag text does; a null keeps a None default
        config = self.write(tmp_path / "c.json", {"max_epochs": "0", "k": "3", "h_c": 7,
                                                  "keep_prob": None, "setup": 2})
        assert run("--config", config, "train", "--train", corpus / "train.jsonl",
                   "--out", tmp_path / "run", *TINY_FLAGS[:4], *TINY_FLAGS[6:8]) == 0
        hyper = manifest(tmp_path / "run" / "final")["hyperparams"]
        assert (hyper["k"], hyper["h_c"], hyper["nk_c"]) == (3, 7, 4)
