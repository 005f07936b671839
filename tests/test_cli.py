"""The commands through `cli.main`. Every `cli.main` call sets numpy's
bundled OpenBLAS to one thread for its process, so the in-process calls
here leave the test process pinned to one BLAS thread too; that is the
setting every command runs under. `TestBlasThreads` runs its commands in
child processes, each under its own `OPENBLAS_NUM_THREADS`."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mvclda import baseline, cli, corpus, embed, model, train

from test_corpus import TENSOR_FILE_DAMAGES, damage_tensor_file

SYNTH_CFG = """\
n_codes = 10
zipf_exponent = 1.0
n_train = 40
n_dev = 10
n_test = 10
background_vocab = 60
evidence_len_min = 2
evidence_len_max = 4
doc_len_min = 20
doc_len_max = 50
coupling = 0.8
"""

TRAIN_CFG = """\
# desk-scale settings
learning_rate = 0.001
batch_size = 4
max_epochs = 2
patience = 10
dropout = 0.2
lambda = 0.01
kernel_sizes = 1,3
n_filters = 6
embed_dim = 12
cbow_epochs = 1
"""


def run(argv):
    return cli.main(argv)


def _watch_models(monkeypatch) -> list:
    """Weak references to the models the commands build, in build order."""
    built, real = [], model.init_params

    def init(*args, **kwargs):
        params = real(*args, **kwargs)
        built.append(weakref.ref(params))
        return params

    monkeypatch.setattr(cli.model, "init_params", init)
    return built


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    cfg = root / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    assert run(["synth", "--config", str(cfg), "--out-dir", str(root / "data"),
                "--seed", "13"]) == 0
    return root / "data"


@pytest.fixture(scope="session")
def train_cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "train.cfg"
    path.write_text(TRAIN_CFG)
    return path


@pytest.fixture(scope="session")
def trained_dir(tmp_path_factory, corpus_dir, train_cfg_path):
    out = tmp_path_factory.mktemp("run") / "mvc-lda"
    assert run([
        "train", "--model", "mvc-lda",
        "--train", str(corpus_dir / "train.jsonl"),
        "--dev", str(corpus_dir / "dev.jsonl"),
        "--labels", str(corpus_dir / "descriptions.tsv"),
        "--config", str(train_cfg_path),
        "--seed", "3", "--out", str(out),
    ]) == 0
    return out


class TestExitCodes:
    def test_numerical_errors_map_to_exit_3(self, monkeypatch, capsys):
        def blow_up(args):
            raise FloatingPointError("training diverged at epoch 2, batch 7")

        monkeypatch.setattr(cli, "cmd_synth", blow_up)
        code = cli.main(["synth", "--config", "x", "--out-dir", "y", "--seed", "1"])
        assert code == cli.EXIT_NUMERIC
        assert "epoch 2, batch 7" in capsys.readouterr().err

    # each is a usage error before any file is read or written
    @pytest.mark.parametrize("command, option, value", [
        ("hyperband", "--R", "0"),
        ("hyperband", "--eta", "1"),
        ("ablate", "--p-at", "0"),
        ("ablate", "--p-at", "8,5,8"),  # once recorded [8, 5, 8] beside one "8" result
        ("ablate", "--components", "bogus"),
        # each once trained the full model and wrote an empty "ablations"
        ("ablate", "--components", ","),
        ("ablate", "--components", ""),
    ])
    def test_bad_search_and_ablation_options_exit_1(self, corpus_dir, train_cfg_path, tmp_path,
                                                   capsys, command, option, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run([
                command, "--train", str(corpus_dir / "train.jsonl"),
                "--dev", str(corpus_dir / "dev.jsonl"),
                "--labels", str(corpus_dir / "descriptions.tsv"),
                "--config", str(train_cfg_path), "--seed", "1", "--out", str(out),
                option, value,
            ])
        assert err.value.code == cli.EXIT_USAGE
        assert f"argument {option}" in capsys.readouterr().err
        assert not out.exists()

    # each is a data error before any corpus is read or any file written;
    # Adam once trained on a negative rate and diverged on a NaN one
    @pytest.mark.parametrize("command, line, message", [
        ("train", "learning_rate = -1", "learning_rate must be finite and > 0"),
        ("train", "learning_rate = 0", "learning_rate must be finite and > 0"),
        ("train", "learning_rate = nan", "learning_rate must be finite and > 0"),
        # Adam's beta1, beta2 and epsilon are module constants of train.py now,
        # so a config line that sets one names an unknown key
        pytest.param("train", "beta1 = 1", "unknown config key 'beta1'",
                     id="train-beta1 = 1-beta1 and beta2 are no config keys"),
        pytest.param("train", "beta2 = 1.5", "unknown config key 'beta2'",
                     id="train-beta2 = 1.5-beta1 and beta2 are no config keys"),
        pytest.param("train", "epsilon = 0", "unknown config key 'epsilon'",
                     id="train-epsilon = 0-epsilon is no config key"),
        ("train", "lambda = nan", "lambda) must be finite and >= 0"),
        ("ablate", "lambda = inf", "lambda) must be finite and >= 0"),
        ("hyperband", "dc_min = 0", "invalid filter count range"),
    ])
    def test_bad_config_values_exit_2_before_reading(self, corpus_dir, tmp_path, monkeypatch,
                                                     capsys, command, line, message):
        def no_reading(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli.corpus, "read_corpus_jsonl", no_reading)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TRAIN_CFG + line + "\n")
        out = tmp_path / "out"
        assert run([
            command, "--model", "mvc-rlda", "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(cfg), "--seed", "1", "--out", str(out),
        ]) == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()


TRAIN_KEYS = [
    "learning_rate", "batch_size", "max_segment", "patience", "max_epochs", "dropout",
    "lambda", "kernel_sizes", "n_filters", "embed_dim", "use_length", "min_doc_freq",
    "cbow_window", "cbow_epochs", "cbow_negative",
]
SEARCH_KEYS = ["s0_min", "s0_max", "dc_min", "dc_max", "lambda_candidates"]
COMMAND_KEYS = {
    "Synthesis": (cli.SYNTH_KEYS, [
        "n_codes", "zipf_exponent", "n_train", "n_dev", "n_test", "background_vocab",
        "evidence_len_min", "evidence_len_max", "doc_len_min", "doc_len_max", "coupling",
    ]),
    "Training / model": (cli.TRAIN_KEYS, TRAIN_KEYS),
    "Hyperband": (cli.HYPERBAND_KEYS, TRAIN_KEYS + SEARCH_KEYS),
    "Baseline": (cli.BASELINE_KEYS, ["max_features", "svm_epochs", "svm_reg", "min_doc_freq"]),
}


class TestConfigKeys:
    # the tables derive from the config dataclasses; these literal lists keep
    # a new dataclass field (say a new CbowConfig setting) from becoming a key
    # unnoticed
    @pytest.mark.parametrize("section", list(COMMAND_KEYS))
    def test_accepted_keys(self, section):
        table, expected = COMMAND_KEYS[section]
        assert sorted(table) == sorted(expected)

    def test_readme_names_every_key_in_full(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Configuration keys")[1].split("\n## ")[0]
        named = {}
        for para in section.split("\n\n"):
            title = re.match(r"\*\*(.+?)\*\*", para)
            if title:
                named[title.group(1)] = set(re.findall(r"`([a-z0-9_]+)`", para))
        assert set(named) == set(COMMAND_KEYS)
        named["Hyperband"] |= set(TRAIN_KEYS)  # "training keys plus ..."
        for title, (_, expected) in COMMAND_KEYS.items():
            assert named[title] == set(expected), title

    def test_parsing(self):
        values = cli.parse_kv_config(
            "kernel_sizes = 1, 3,\nlambda = 0.5\nuse_length = No\n"
            "lambda_candidates = 0.1,,0.2\nn_filters = 7\n", cli.HYPERBAND_KEYS, "hb.cfg")
        assert values == {"kernel_sizes": (1, 3), "lambda": 0.5, "use_length": False,
                          "lambda_candidates": (0.1, 0.2), "n_filters": 7}
        assert cli.parse_kv_config("use_length = YES", cli.TRAIN_KEYS, "train.cfg") == {
            "use_length": True}
        assert type(values["n_filters"]) is int and type(values["lambda"]) is float
        for line in ("use_length = maybe", "n_filters = 2.5", "kernel_sizes = 1,x"):
            with pytest.raises(corpus.DataFormatError, match="train.cfg:1: bad value"):
                cli.parse_kv_config(line, cli.TRAIN_KEYS, "train.cfg")


class TestSynth:
    def test_outputs_and_sizes(self, corpus_dir):
        train, dev, test = (list(corpus.read_corpus_jsonl(corpus_dir / f"{split}.jsonl"))
                            for split in ("train", "dev", "test"))
        assert (len(train), len(dev), len(test)) == (40, 10, 10)
        assert (corpus_dir / "descriptions.tsv").exists()
        assert (corpus_dir / "hierarchy.tsv").exists()
        assert (corpus_dir / "groups.tsv").exists()
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth" and manifest["seed"] == 13

    def test_byte_identical_rerun(self, corpus_dir, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SYNTH_CFG)
        assert run(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "again"),
                    "--seed", "13"]) == 0
        for name in ("train.jsonl", "dev.jsonl", "test.jsonl",
                     "descriptions.tsv", "hierarchy.tsv", "groups.tsv"):
            assert (tmp_path / "again" / name).read_bytes() == (corpus_dir / name).read_bytes()

    def test_missing_config_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["synth", "--out-dir", "x", "--seed", "1"])
        assert err.value.code == 1

    def test_unknown_config_key_is_data_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 3\n")
        assert run(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                    "--seed", "1"]) == cli.EXIT_DATA

    def test_seed_comes_from_the_command_line_only(self, corpus_dir, tmp_path, capsys):
        # --seed always won, so a seed key was silently ignored
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text(SYNTH_CFG + "seed = 99\n")
        assert run(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                    "--seed", "13"]) == cli.EXIT_DATA
        assert "unknown config key 'seed'" in capsys.readouterr().err
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 13


class TestTrain:
    # an empty dev split once failed only after CBOW had written its files
    @pytest.mark.parametrize("split", ["train", "dev"])
    def test_empty_split_fails_before_any_file(self, corpus_dir, train_cfg_path, tmp_path,
                                               capsys, split):
        paths = {s: str(corpus_dir / f"{s}.jsonl") for s in ("train", "dev")}
        paths[split] = str(tmp_path / "empty.jsonl")
        Path(paths[split]).write_text("")
        out = tmp_path / "out"
        assert run([
            "train", "--model", "mvc-lda", "--train", paths["train"], "--dev", paths["dev"],
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(train_cfg_path), "--seed", "3", "--out", str(out),
        ]) == cli.EXIT_DATA
        assert f"{split} split {paths[split]} is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_all_digit_training_split_leaves_no_out(self, corpus_dir, train_cfg_path,
                                                     tmp_path, capsys):
        # CBOW found the empty text only after vocab.tsv was written
        lines = (corpus_dir / "train.jsonl").read_text().splitlines()
        notes = [dict(json.loads(line), text="123 456") for line in lines]
        digits = tmp_path / "digits.jsonl"
        digits.write_text("".join(json.dumps(note) + "\n" for note in notes))
        out = tmp_path / "out"
        assert run([
            "train", "--model", "mvc-lda", "--train", str(digits),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(train_cfg_path), "--seed", "3", "--out", str(out),
        ]) == cli.EXIT_DATA
        assert "cannot pretrain embeddings on an empty corpus" in capsys.readouterr().err
        assert not out.exists()

    # with --embeddings, such a split once trained a checkpoint on
    # zero-length notes and exited 0
    @pytest.mark.parametrize("command, pretrained", [
        ("train", True), ("hyperband", True), ("hyperband", False),
    ])
    def test_all_digit_training_split_is_refused(self, corpus_dir, train_cfg_path, hb_cfg,
                                                  tmp_path, capsys, command, pretrained):
        lines = (corpus_dir / "train.jsonl").read_text().splitlines()
        digits = tmp_path / "digits.jsonl"
        digits.write_text("".join(json.dumps(dict(json.loads(line), text="123 456")) + "\n"
                                  for line in lines))
        extra = []
        if pretrained:
            # a table for the vocabulary of no token, which holds the oov id only
            vocab = corpus.build_vocabulary([np.zeros(0, np.int32) for _ in lines], {}, 3)
            checksum = hashlib.sha256(corpus.vocabulary_bytes(vocab)).hexdigest()
            emb = tmp_path / "embeddings.bin"
            embed.save_embeddings(emb, np.full((vocab.size, 8), 0.1), checksum)
            extra = ["--embeddings", str(emb)]
        out = tmp_path / "out"
        assert run([
            command, "--model", "mvc-lda", "--train", str(digits),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(hb_cfg if command == "hyperband" else train_cfg_path),
            "--seed", "3", "--out", str(out), *extra,
        ]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert ("has no token to train on" if pretrained
                else "cannot pretrain embeddings on an empty corpus") in err
        assert not out.exists()

    def test_artifacts_exist(self, trained_dir):
        for name in ("checkpoint.bin", "history.jsonl", "vocab.tsv",
                     "embeddings.bin", "train_counts.tsv", "manifest.json"):
            assert (trained_dir / name).exists(), name

    def test_lda_warns_about_lambda(self, corpus_dir, train_cfg_path, tmp_path, capsys):
        out = tmp_path / "warn"
        assert run([
            "train", "--model", "mvc-lda",
            "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(train_cfg_path),
            "--seed", "3", "--out", str(out),
        ]) == 0
        assert "ignores the lambda" in capsys.readouterr().err

    def test_byte_identical_checkpoint_on_rerun(self, corpus_dir, train_cfg_path,
                                                trained_dir, tmp_path):
        out = tmp_path / "rerun"
        assert run([
            "train", "--model", "mvc-lda",
            "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(train_cfg_path),
            "--seed", "3", "--out", str(out),
        ]) == 0
        assert (out / "checkpoint.bin").read_bytes() == (trained_dir / "checkpoint.bin").read_bytes()
        assert (out / "vocab.tsv").read_bytes() == (trained_dir / "vocab.tsv").read_bytes()
        assert (out / "embeddings.bin").read_bytes() == (trained_dir / "embeddings.bin").read_bytes()

    def _train_with_embeddings(self, corpus_dir, train_cfg_path, embeddings, out):
        return run([
            "train", "--model", "mvc-lda",
            "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(train_cfg_path),
            "--seed", "3", "--embeddings", str(embeddings), "--out", str(out),
        ])

    # a header without d_v once escaped as a KeyError traceback; "tensors"
    # now carries the table's shape
    @pytest.mark.parametrize("field", ["vocab_sha256", "tensors"])
    def test_embeddings_header_lacking_a_field_is_data_error(
            self, field, corpus_dir, train_cfg_path, trained_dir, tmp_path, capsys):
        head, _, body = (trained_dir / "embeddings.bin").read_bytes().partition(b"\n")
        header = json.loads(head)
        del header[field]
        emb = tmp_path / "embeddings.bin"
        emb.write_bytes(json.dumps(header).encode() + b"\n" + body)
        code = self._train_with_embeddings(corpus_dir, train_cfg_path, emb, tmp_path / "out")
        assert code == cli.EXIT_DATA
        assert str(emb) in capsys.readouterr().err

    def test_old_format_embeddings_are_data_error(self, corpus_dir, train_cfg_path,
                                                  trained_dir, tmp_path, capsys):
        emb = tmp_path / "embeddings.bin"
        emb.write_bytes(b"#emb\tversion=1\td_v=2\td_e=2\n" + bytes(32))
        code = self._train_with_embeddings(corpus_dir, train_cfg_path, emb, tmp_path / "out")
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(emb) in err and "old text-header format" in err

    def test_embeddings_of_another_vocabulary_leave_no_out(
            self, corpus_dir, train_cfg_path, trained_dir, tmp_path, monkeypatch, capsys):
        # the table was once refused only after vocab.tsv was written
        monkeypatch.setenv("MVC_MIN_DOC_FREQ", "2")
        out = tmp_path / "out"
        code = self._train_with_embeddings(
            corpus_dir, train_cfg_path, trained_dir / "embeddings.bin", out)
        assert code == cli.EXIT_DATA
        assert "vocabulary" in capsys.readouterr().err
        assert not out.exists()

    # a finite gradient whose square overflows in Adam once warned, left the
    # moments inf and wrote a checkpoint with exit 0
    @pytest.mark.parametrize("key, value", [("LAMBDA", "1e200")])
    def test_float_overflow_is_a_numerical_error(self, corpus_dir, train_cfg_path, tmp_path,
                                                 monkeypatch, capsys, key, value):
        monkeypatch.setenv("MVC_" + key, value)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([
                "train", "--model", "mvc-rlda",
                "--train", str(corpus_dir / "train.jsonl"),
                "--dev", str(corpus_dir / "dev.jsonl"),
                "--labels", str(corpus_dir / "descriptions.tsv"),
                "--config", str(train_cfg_path),
                "--seed", "3", "--out", str(out),
            ])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical error in train: training diverged at epoch 1" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "checkpoint.bin").exists()

    def test_pretrained_embeddings_reproduce_the_checkpoint(
            self, corpus_dir, train_cfg_path, trained_dir, tmp_path, monkeypatch):
        # a loaded table sets the width, whatever the embed_dim key says
        monkeypatch.setenv("MVC_EMBED_DIM", "5")
        out = tmp_path / "reuse"
        emb = trained_dir / "embeddings.bin"
        before = emb.read_bytes()
        code = self._train_with_embeddings(corpus_dir, train_cfg_path, emb, out)
        assert code == 0
        assert (out / "checkpoint.bin").read_bytes() == (trained_dir / "checkpoint.bin").read_bytes()
        assert emb.read_bytes() == before  # fine-tuning leaves the loaded file as it was

    def test_pretrained_table_is_not_held_while_training(self, corpus_dir, train_cfg_path,
                                                         hb_cfg, tmp_path, monkeypatch):
        # the float64 table CBOW returns or --embeddings loads is V x d_e;
        # once the first model and embeddings.bin hold it, each command lets
        # it go before any training starts: hyperband and ablate start later
        # models from a float32 copy, and ablate's extra_notes from its own
        # table, dropped once its model holds it
        tables, held = [], []
        real_cbow, real_load, real_epochs = embed.train_cbow, embed.load_embeddings, train.epochs

        def returned(real):
            def spy(*args, **kwargs):
                table = real(*args, **kwargs)
                tables.append(weakref.ref(table))
                return table
            return spy

        def watched(*args):
            held.append([table() is not None for table in tables])
            return real_epochs(*args)

        monkeypatch.setattr(cli.embed, "train_cbow", returned(real_cbow))
        monkeypatch.setattr(cli.embed, "load_embeddings", returned(real_load))
        monkeypatch.setattr(cli.train_mod, "epochs", watched)
        argv = TestCommandFront._argv
        first = tmp_path / "train"
        runs = [(argv("train", corpus_dir, train_cfg_path, first), 1),
                (argv("train", corpus_dir, train_cfg_path, tmp_path / "reuse")
                 + ["--embeddings", str(first / "embeddings.bin")], 1),
                (argv("hyperband", corpus_dir, hb_cfg, tmp_path / "hb") + ["--R", "3"], 1),
                (argv("ablate", corpus_dir, train_cfg_path, tmp_path / "ablate")
                 + ["--components", "all"], 2)]
        for args, n_tables in runs:
            tables.clear()
            held.clear()
            assert run(args) == 0, args[0]
            assert len(tables) == n_tables and held and not any(map(any, held)), args

    def test_token_ids_are_int32_from_reader_to_model(self, corpus_dir, train_cfg_path,
                                                      tmp_path, monkeypatch):
        # one token-id dtype: CBOW, the training and dev notes, every label
        # description and evaluate's notes all take int32 ids
        seen = []
        real_cbow, real_train, real_predict = embed.train_cbow, train.train, model.predict_matrix

        def cbow(docs, *args):
            seen.append(("cbow", {ids.dtype for ids in docs}))
            return real_cbow(docs, *args)

        def watched(params, train_docs, dev_docs, desc_ids, cfg):
            seen.append(("notes", {d.token_ids.dtype for d in train_docs + dev_docs}))
            seen.append(("descriptions", {ids.dtype for ids in desc_ids}))
            return real_train(params, train_docs, dev_docs, desc_ids, cfg)

        def predict(params, docs):
            seen.append(("evaluate", {d.token_ids.dtype for d in docs}))
            return real_predict(params, docs)

        monkeypatch.setattr(cli.embed, "train_cbow", cbow)
        monkeypatch.setattr(cli.train_mod, "train", watched)
        monkeypatch.setattr(cli.model, "predict_matrix", predict)
        out = tmp_path / "out"
        assert run([
            "train", "--model", "mvc-rlda",
            "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(train_cfg_path), "--seed", "3", "--out", str(out),
        ]) == 0
        assert run([
            "evaluate", "--checkpoint", str(out / "checkpoint.bin"),
            "--test", str(corpus_dir / "test.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"), "--vocab", str(out / "vocab.tsv"),
            "--metrics-out", str(out / "metrics.json"),
        ]) == 0
        assert seen == [(name, {np.dtype(np.int32)})
                        for name in ("cbow", "notes", "descriptions", "evaluate")]

    def test_env_override_shortens_training(self, corpus_dir, train_cfg_path,
                                             tmp_path, monkeypatch):
        monkeypatch.setenv("MVC_MAX_EPOCHS", "1")
        out = tmp_path / "short"
        assert run([
            "train", "--model", "mvc-rlda",
            "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(train_cfg_path),
            "--seed", "3", "--out", str(out),
        ]) == 0
        lines = (out / "history.jsonl").read_text().strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0]).keys() == {
            "epoch", "train_loss", "dev_micro_f1", "wall_time_s", "best"}
        assert json.loads(lines[0])["best"] is True

    def test_zero_length_scale_is_data_error(self, corpus_dir, tmp_path, monkeypatch, capsys):
        # it once ended in a ZeroDivisionError traceback inside forward; the
        # scale is the constant model.LENGTH_SCALE now, and setting it is an
        # unknown key or variable
        cfg, out = tmp_path / "train.cfg", tmp_path / "out"
        argv = [
            "train", "--model", "mvc-lda",
            "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(cfg),
            "--seed", "3", "--out", str(out),
        ]
        cfg.write_text(TRAIN_CFG + "length_scale = 0\n")
        assert run(argv) == cli.EXIT_DATA
        assert "unknown config key 'length_scale'" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text(TRAIN_CFG)
        monkeypatch.setenv("MVC_LENGTH_SCALE", "0")
        assert run(argv) == cli.EXIT_DATA
        assert "MVC_LENGTH_SCALE names no config key" in capsys.readouterr().err
        assert not out.exists()

    def test_retired_key_is_an_unknown_config_key(self, corpus_dir, tmp_path, monkeypatch,
                                                   capsys):
        # each once selected a code path that no command, bench or check used
        def no_reading(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli.corpus, "read_corpus_jsonl", no_reading)
        cfg, out = tmp_path / "train.cfg", tmp_path / "out"
        for line in ("attention_softmax = false", "length_scale = 10000",
                     "freeze_embeddings = false", "freeze_desc_encoder = false",
                     "beta1 = 0.9", "beta2 = 0.999", "epsilon = 1e-8"):
            cfg.write_text(TRAIN_CFG + line + "\n")
            assert run([
                "train", "--model", "mvc-lda",
                "--train", str(corpus_dir / "train.jsonl"),
                "--dev", str(corpus_dir / "dev.jsonl"),
                "--labels", str(corpus_dir / "descriptions.tsv"),
                "--config", str(cfg),
                "--seed", "3", "--out", str(out),
            ]) == cli.EXIT_DATA
            key = line.split(" = ")[0]
            assert f"unknown config key {key!r}" in capsys.readouterr().err
            assert not out.exists()

    def test_rlda_trains(self, corpus_dir, train_cfg_path, tmp_path):
        out = tmp_path / "rlda"
        assert run([
            "train", "--model", "mvc-rlda",
            "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(train_cfg_path),
            "--seed", "3", "--out", str(out),
        ]) == 0
        header = json.loads(
            (out / "checkpoint.bin").open("rb").readline().decode()
        )
        assert header["kind"] == "mvc-rlda"


class TestBlasThreads:
    def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # paper kernels on notes of 1,000-1,600 tokens: GEMMs large enough
        # that a second OpenBLAS thread changes their bits, unless the
        # command sets one thread itself
        (tmp_path / "synth.cfg").write_text("n_codes = 20\nn_train = 8\nn_dev = 4\nn_test = 4\n"
                                            "background_vocab = 2000\ndoc_len_min = 1000\n"
                                            "doc_len_max = 1600\n")
        (tmp_path / "train.cfg").write_text("max_epochs = 1\nkernel_sizes = 6,8,10,12\n"
                                            "n_filters = 90\nembed_dim = 100\ncbow_epochs = 1\n")
        data = tmp_path / "data"
        assert run(["synth", "--config", str(tmp_path / "synth.cfg"), "--out-dir", str(data),
                    "--seed", "3"]) == 0
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            subprocess.run(
                [sys.executable, "-m", "mvclda.cli", "train", "--model", "mvc-rlda",
                 "--train", str(data / "train.jsonl"), "--dev", str(data / "dev.jsonl"),
                 "--labels", str(data / "descriptions.tsv"), "--config",
                 str(tmp_path / "train.cfg"), "--seed", "3", "--out", str(tmp_path / threads)],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                check=True, capture_output=True)
        assert ((tmp_path / "1" / "checkpoint.bin").read_bytes()
                == (tmp_path / "2" / "checkpoint.bin").read_bytes())


class TestEvaluate:
    def _evaluate(self, trained_dir, corpus_dir, split, out, p_at="8", checkpoint=None):
        return run([
            "evaluate",
            "--checkpoint", str(checkpoint or trained_dir / "checkpoint.bin"),
            "--test", str(corpus_dir / f"{split}.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--vocab", str(trained_dir / "vocab.tsv"),
            "--metrics-out", str(out),
            "--p-at", p_at,
        ])

    def test_evaluating_into_the_train_directory_keeps_both_manifests(
            self, corpus_dir, train_cfg_path, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--model", "mvc-lda", "--train", str(corpus_dir / "train.jsonl"),
                    "--dev", str(corpus_dir / "dev.jsonl"),
                    "--labels", str(corpus_dir / "descriptions.tsv"),
                    "--config", str(train_cfg_path), "--seed", "3", "--out", str(out)]) == 0
        assert self._evaluate(out, corpus_dir, "test", out / "metrics.json") == 0
        trained = json.loads((out / "manifest.json").read_text())
        evaluated = json.loads((out / "metrics.manifest.json").read_text())
        assert trained["command"] == "train" and "train" in trained["inputs"]
        assert evaluated["command"] == "evaluate" and "checkpoint" in evaluated["inputs"]
        assert evaluated["artifacts"] == {"metrics": str(out / "metrics.json")}

    def test_reproduces_best_dev_micro_f1(self, trained_dir, corpus_dir, tmp_path):
        out = tmp_path / "dev_metrics.json"
        assert self._evaluate(trained_dir, corpus_dir, "dev", out) == 0
        report = json.loads(out.read_text())
        history = [json.loads(l) for l in (trained_dir / "history.jsonl").read_text().splitlines()]
        best = max(h["dev_micro_f1"] for h in history)
        assert report["micro_f1"] == best

    def test_p_at_list_and_groups_and_counts(self, trained_dir, corpus_dir, tmp_path):
        out = tmp_path / "full_metrics.json"
        assert run([
            "evaluate",
            "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--test", str(corpus_dir / "test.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--vocab", str(trained_dir / "vocab.tsv"),
            "--metrics-out", str(out),
            "--p-at", "8,5",
            "--groups", str(corpus_dir / "groups.tsv"),
            "--train-counts", str(trained_dir / "train_counts.tsv"),
        ]) == 0
        report = json.loads(out.read_text())
        assert set(report["p_at"]) == {"8", "5"}
        assert set(report["micro_f1_by_group"]) == {"diagnosis", "procedure"}
        assert report["bins"] is not None

    def test_byte_identical_rerun(self, trained_dir, corpus_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self._evaluate(trained_dir, corpus_dir, "test", a) == 0
        assert self._evaluate(trained_dir, corpus_dir, "test", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_digit_note_gets_a_score(self, trained_dir, corpus_dir, tmp_path):
        # digits are dropped by preprocessing, so this note has no tokens
        lines = (corpus_dir / "test.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        first["text"] = "123 456"
        data = tmp_path / "data"
        data.mkdir()
        (data / "test.jsonl").write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        (data / "descriptions.tsv").write_text((corpus_dir / "descriptions.tsv").read_text())
        assert self._evaluate(trained_dir, data, "test", tmp_path / "m.json") == 0

    @pytest.mark.parametrize(
        "damage", ["invalid_config", "short_V", "no_U", "extra_tensor", "swapped_V_U"]
        + list(TENSOR_FILE_DAMAGES)
    )
    def test_damaged_checkpoint_is_data_error(self, damage, trained_dir, corpus_dir,
                                              tmp_path, capsys):
        # "oversized_tensor" declares a 10^6 x 10^6 W_e, which the reader
        # must refuse before allocating it; "short_V" and "no_U" are
        # self-consistent files whose V lacks one of the header's n_filters
        # columns, or which lack U; "extra_tensor" carries one tensor more
        # than the table, and "swapped_V_U" stores U before V, both of one
        # shape, so only the order tells them apart
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes((trained_dir / "checkpoint.bin").read_bytes())
        if damage == "invalid_config":
            head, _, body = ckpt.read_bytes().partition(b"\n")
            header = json.loads(head)
            header["n_filters"] = 0
            ckpt.write_bytes(json.dumps(header).encode() + b"\n" + body)
        elif damage in ("short_V", "no_U", "extra_tensor", "swapped_V_U"):
            header, arrays, _ = corpus.read_tensor_file(
                ckpt, model.CHECKPOINT_FORMAT, model.CHECKPOINT_FORMAT_VERSION
            )
            if damage == "short_V":
                arrays["V"] = arrays["V"][:, :-1]
            elif damage == "no_U":
                del arrays["U"]
            elif damage == "extra_tensor":
                arrays["extra"] = arrays["b"]
            else:
                names = list(arrays)
                i, j = names.index("V"), names.index("U")
                names[i], names[j] = names[j], names[i]
                arrays = {name: arrays[name] for name in names}
            del header["tensors"]
            corpus.write_tensor_file(ckpt, header, arrays.items())
        else:
            damage_tensor_file(ckpt, damage)
        metrics_out = tmp_path / "m.json"
        code = self._evaluate(trained_dir, corpus_dir, "test", metrics_out, checkpoint=ckpt)
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(ckpt) in err
        assert not metrics_out.exists()
        if damage == "short_V":
            assert "tensor V has shape" in err
        if damage == "no_U":
            assert "lacks 'U'" in err
        if damage in ("extra_tensor", "swapped_V_U"):
            assert "in its order" in err

    def test_malformed_test_file_reports_line(self, trained_dir, corpus_dir,
                                              tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "a", "text": "t", "codes": []}\n{broken\n')
        code = run([
            "evaluate",
            "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--test", str(bad),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--vocab", str(trained_dir / "vocab.tsv"),
            "--metrics-out", str(tmp_path / "m.json"),
        ])
        assert code == cli.EXIT_DATA
        assert ":2:" in capsys.readouterr().err

    def test_empty_test_split_is_data_error(self, trained_dir, corpus_dir, tmp_path, capsys):
        # it once ended in numpy's "need at least one array to stack"
        data = tmp_path / "data"
        data.mkdir()
        (data / "test.jsonl").write_text("")
        (data / "descriptions.tsv").write_text((corpus_dir / "descriptions.tsv").read_text())
        assert self._evaluate(trained_dir, data, "test", tmp_path / "m.json") == cli.EXIT_DATA
        assert f"test split {data / 'test.jsonl'} is empty" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()
        # notes without a code, or with codes outside the label space only
        docs = corpus.read_corpus_jsonl(corpus_dir / "test.jsonl")
        corpus.write_corpus_jsonl(data / "test.jsonl", [
            corpus.RawDocument(d.doc_id, d.text, {"999.9"} if i % 2 else set())
            for i, d in enumerate(docs)])
        assert self._evaluate(trained_dir, data, "test", tmp_path / "m.json") == cli.EXIT_DATA
        assert (f"test split {data / 'test.jsonl'} has no gold code in the label space"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    def test_p_at_above_label_count_fails_before_predicting(self, trained_dir, corpus_dir,
                                                            tmp_path, monkeypatch, capsys):
        # it once scored every document first
        def no_prediction(*args):
            raise AssertionError("a document was scored")

        monkeypatch.setattr(cli.model, "predict_matrix", no_prediction)
        out = tmp_path / "m.json"
        assert self._evaluate(trained_dir, corpus_dir, "test", out, p_at="8,50") == cli.EXIT_DATA
        assert "--p-at 50 exceeds the number of labels 10" in capsys.readouterr().err
        assert not out.exists()

    def test_vocab_checksum_mismatch(self, trained_dir, corpus_dir, tmp_path, capsys):
        tampered = tmp_path / "vocab.tsv"
        tampered.write_text((trained_dir / "vocab.tsv").read_text() + "zzz\t999\t3\n")
        code = run([
            "evaluate",
            "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--test", str(corpus_dir / "test.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--vocab", str(tampered),
            "--metrics-out", str(tmp_path / "m.json"),
        ])
        assert code == cli.EXIT_DATA
        assert "checksum" in capsys.readouterr().err

    def test_label_space_mismatch(self, trained_dir, corpus_dir, tmp_path):
        labels = tmp_path / "extra.tsv"
        labels.write_text(
            (corpus_dir / "descriptions.tsv").read_text() + "999.9\textra code\n"
        )
        code = run([
            "evaluate",
            "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--test", str(corpus_dir / "test.jsonl"),
            "--labels", str(labels),
            "--vocab", str(trained_dir / "vocab.tsv"),
            "--metrics-out", str(tmp_path / "m.json"),
        ])
        assert code == cli.EXIT_DATA


class TestBaselineCmd:
    def test_flat_and_hierarchical(self, corpus_dir, tmp_path):
        flat_out = tmp_path / "flat"
        assert run([
            "baseline",
            "--train", str(corpus_dir / "train.jsonl"),
            "--test", str(corpus_dir / "test.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--seed", "4", "--out", str(flat_out),
        ]) == 0
        report = json.loads((flat_out / "metrics.json").read_text())
        assert 0.0 <= report["micro_f1"] <= 1.0

        hier_out = tmp_path / "hier"
        assert run([
            "baseline",
            "--train", str(corpus_dir / "train.jsonl"),
            "--test", str(corpus_dir / "test.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--hierarchy", str(corpus_dir / "hierarchy.tsv"),
            "--seed", "4", "--out", str(hier_out),
        ]) == 0
        assert (hier_out / "baseline_model.bin").exists()


    def test_all_digit_training_split_fits_bias_only(self, corpus_dir, tmp_path):
        # no term to weigh: no tf-idf column, so every classifier is its bias
        lines = (corpus_dir / "train.jsonl").read_text().splitlines()
        digits = tmp_path / "digits.jsonl"
        digits.write_text("".join(json.dumps(dict(json.loads(line), text="123 456")) + "\n"
                                  for line in lines))
        out = tmp_path / "out"
        assert run([
            "baseline", "--train", str(digits), "--test", str(corpus_dir / "test.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"), "--seed", "4", "--out", str(out),
        ]) == 0
        header, arrays, _ = corpus.read_tensor_file(out / "baseline_model.bin",
                                                    baseline.BASELINE_FORMAT,
                                                    baseline.BASELINE_FORMAT_VERSION)
        assert header["terms"] == [] and arrays["idf"].shape == (0,)
        assert arrays["weights"].shape == (len(header["rows"]), 0)
        assert 0.0 <= json.loads((out / "metrics.json").read_text())["micro_f1"] <= 1.0

    @pytest.mark.parametrize("line,message", [("svm_reg = 0", "svm_reg must be finite and > 0"),
                                              ("svm_epochs = 0", "svm_epochs must be >= 1")],
                             ids=["svm_reg", "svm_epochs"])
    def test_invalid_svm_config_is_data_error(self, line, message, corpus_dir, tmp_path,
                                              capsys):
        cfg = tmp_path / "baseline.cfg"
        cfg.write_text(line + "\n")
        code = run([
            "baseline",
            "--train", str(corpus_dir / "train.jsonl"),
            "--test", str(corpus_dir / "test.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(cfg), "--seed", "4", "--out", str(tmp_path / "out"),
        ])
        assert code == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "baseline_model.bin").exists()

    def test_env_override_applies_without_a_config_file(self, corpus_dir, tmp_path,
                                                         monkeypatch, capsys):
        # MVC_<KEY> once took effect only next to --config
        monkeypatch.setenv("MVC_SVM_EPOCHS", "0")
        assert self._baseline(corpus_dir, tmp_path / "out") == cli.EXIT_DATA
        assert "svm_epochs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_step_size_is_zero_not_a_numeric_error(self, corpus_dir, tmp_path):
        # reg * t overflows past the first step, so every later step size is
        # 0; in Python floats, where the command's errstate cannot raise
        out = tmp_path / "out"
        assert self._baseline(corpus_dir, out, "svm_reg = 1e308\n") == 0
        assert 0.0 <= json.loads((out / "metrics.json").read_text())["micro_f1"] <= 1.0

    def _baseline(self, corpus_dir, out, cfg_text=None):
        argv = ["baseline",
                "--train", str(corpus_dir / "train.jsonl"),
                "--test", str(corpus_dir / "test.jsonl"),
                "--labels", str(corpus_dir / "descriptions.tsv"),
                "--seed", "4", "--out", str(out)]
        if cfg_text is not None:
            cfg = out.parent / f"{out.name}.cfg"
            cfg.write_text(cfg_text)
            argv += ["--config", str(cfg)]
        return run(argv)

    def test_unknown_gold_code_warns_and_changes_no_metric(self, corpus_dir, tmp_path, capsys):
        lines = (corpus_dir / "test.jsonl").read_text().splitlines()
        doc = json.loads(lines[0])
        doc["codes"].append("NOT-A-CODE")
        test_path = tmp_path / "test.jsonl"
        test_path.write_text("\n".join([json.dumps(doc)] + lines[1:]) + "\n")
        assert self._baseline(corpus_dir, tmp_path / "known") == 0
        assert "dropped" not in capsys.readouterr().err
        argv = ["baseline",
                "--train", str(corpus_dir / "train.jsonl"), "--test", str(test_path),
                "--labels", str(corpus_dir / "descriptions.tsv"),
                "--seed", "4", "--out", str(tmp_path / "unknown")]
        assert run(argv) == 0
        assert capsys.readouterr().err == (
            "warning: dropped 1 gold codes absent from the label space\n")
        assert ((tmp_path / "unknown" / "metrics.json").read_bytes()
                == (tmp_path / "known" / "metrics.json").read_bytes())

    # each once trained every classifier and wrote baseline_model.bin first
    @pytest.mark.parametrize("case, message", [
        ("empty", "test split {test} is empty"),
        ("foreign", "test split {test} has no gold code in the label space"),
        ("p_at", "--p-at 50 exceeds the number of labels 10"),
    ])
    def test_bad_test_split_or_p_at_fails_before_training(self, corpus_dir, tmp_path,
                                                          monkeypatch, capsys, case, message):
        def no_training(*args):
            raise AssertionError("a classifier trained")

        monkeypatch.setattr(cli.baseline, "train_flat", no_training)
        test = corpus_dir / "test.jsonl"
        if case != "p_at":
            docs = corpus.read_corpus_jsonl(test) if case == "foreign" else []
            test = tmp_path / "test.jsonl"
            corpus.write_corpus_jsonl(test, [corpus.RawDocument(d.doc_id, d.text, {"999.9"})
                                             for d in docs])
        out = tmp_path / "out"
        assert run([
            "baseline", "--train", str(corpus_dir / "train.jsonl"), "--test", str(test),
            "--labels", str(corpus_dir / "descriptions.tsv"), "--seed", "4",
            "--p-at", "50" if case == "p_at" else "8", "--out", str(out),
        ]) == cli.EXIT_DATA
        assert message.format(test=test) in capsys.readouterr().err
        assert not out.exists()

    def test_cyclic_hierarchy_exits_2_before_any_split_is_read(self, corpus_dir, tmp_path,
                                                               monkeypatch, capsys):
        def no_read(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli.corpus, "read_corpus_jsonl", no_read)
        hierarchy, out = tmp_path / "hierarchy.tsv", tmp_path / "out"
        code = next(iter(corpus.read_descriptions_tsv(corpus_dir / "descriptions.tsv")))
        corpus.write_pairs_tsv(hierarchy, [(code, "X"), ("X", code)])
        assert run([
            "baseline", "--train", str(corpus_dir / "train.jsonl"),
            "--test", str(corpus_dir / "test.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"), "--hierarchy", str(hierarchy),
            "--seed", "4", "--out", str(out),
        ]) == cli.EXIT_DATA
        assert "hierarchy contains a cycle through" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_features_below_one_is_data_error(self, value, corpus_dir, tmp_path, capsys):
        # -1 once sliced off the last term, 0 fitted a featureless model
        out = tmp_path / "out"
        assert self._baseline(corpus_dir, out, f"max_features = {value}\n") == cli.EXIT_DATA
        assert "max_features must be >= 1" in capsys.readouterr().err
        assert not (out / "baseline_model.bin").exists()

    def test_min_doc_freq_floors_the_terms(self, corpus_dir, tmp_path):
        def terms(out):
            header, _, _ = corpus.read_tensor_file(out / "baseline_model.bin",
                                                   baseline.BASELINE_FORMAT,
                                                   baseline.BASELINE_FORMAT_VERSION)
            return header["terms"]

        default, floor1, floor5 = tmp_path / "default", tmp_path / "floor1", tmp_path / "floor5"
        assert self._baseline(corpus_dir, default) == 0
        assert self._baseline(corpus_dir, floor1, "min_doc_freq = 1\n") == 0
        assert self._baseline(corpus_dir, floor5, "min_doc_freq = 5\n") == 0
        # 1 is the default: the same model and metrics
        for name in ("baseline_model.bin", "metrics.json"):
            assert (floor1 / name).read_bytes() == (default / name).read_bytes()
        docs = [set(corpus.preprocess_text(d.text))
                for d in corpus.read_corpus_jsonl(corpus_dir / "train.jsonl")]
        df = {t: sum(t in doc for doc in docs) for t in terms(default)}
        assert min(df.values()) < 5
        assert terms(floor5) == [t for t in terms(default) if df[t] >= 5]


@pytest.fixture(scope="session")
def hb_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("hbcfg") / "hb.cfg"
    path.write_text(TRAIN_CFG + "s0_min = 1\ns0_max = 2\ndc_min = 4\ndc_max = 6\n")
    return path


class TestHyperbandCmd:
    def _run(self, corpus_dir, cfg_path, out, *extra):
        return run([
            "hyperband", "--model", "mvc-lda",
            "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(cfg_path),
            "--R", "3", "--eta", "3",
            "--seed", "5", "--out", str(out), *extra,
        ])

    def test_schedule_and_trials(self, corpus_dir, hb_cfg, tmp_path):
        out = tmp_path / "hb"
        assert self._run(corpus_dir, hb_cfg, out) == 0
        best = json.loads((out / "best_config.json").read_text())
        assert best["schedule"] == [{"s": 1, "n": 3, "r": 1}, {"s": 0, "n": 2, "r": 3}]
        trials = [json.loads(l) for l in (out / "trials.jsonl").read_text().splitlines()]
        assert len(trials) == 6  # 3 + 1 + 2
        assert trials[0].keys() == {"bracket", "rung", "trial", "config", "epochs", "dev_micro_f1"}
        assert trials[0]["config"].keys() == {"kernel_sizes", "n_filters", "lambda"}
        assert best["best_dev_micro_f1"] == max(t["dev_micro_f1"] for t in trials)

    def test_trial_log_byte_identical(self, corpus_dir, hb_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self._run(corpus_dir, hb_cfg, a) == 0
        assert self._run(corpus_dir, hb_cfg, b) == 0
        assert (a / "trials.jsonl").read_bytes() == (b / "trials.jsonl").read_bytes()

    def test_pretrained_embeddings_reproduce_the_search(self, corpus_dir, hb_cfg, tmp_path):
        # the table an earlier search pretrained on the same split and seed
        first, again = tmp_path / "first", tmp_path / "again"
        assert self._run(corpus_dir, hb_cfg, first) == 0
        emb = first / "embeddings.bin"
        assert self._run(corpus_dir, hb_cfg, again, "--embeddings", str(emb)) == 0
        for name in ("trials.jsonl", "best_config.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes()
        assert not (again / "embeddings.bin").exists()
        manifest = json.loads((again / "manifest.json").read_text())
        assert manifest["inputs"]["embeddings"]["path"] == str(emb)

    def test_r_past_a_float_exits_2_before_any_split_is_read(self, corpus_dir, hb_cfg, tmp_path,
                                                             monkeypatch, capsys):
        # the schedule once came after the search: an OverflowError
        # traceback, with vocab.tsv and embeddings.bin already in --out
        def no_read(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli.corpus, "read_corpus_jsonl", no_read)
        huge, out = "1" + "0" * 400, tmp_path / "hb"
        assert self._run(corpus_dir, hb_cfg, out, "--R", huge) == cli.EXIT_DATA  # the last --R
        assert f"R {huge} with eta 3" in capsys.readouterr().err
        assert not out.exists()

    def test_lda_warns_about_lambda_keys(self, corpus_dir, hb_cfg, tmp_path, capsys):
        # the mvc-lda search space has no lambda, whatever the config says
        cfg = tmp_path / "lambdas.cfg"
        cfg.write_text(hb_cfg.read_text() + "lambda_candidates = 0.01,0.001\n")
        assert self._run(corpus_dir, cfg, tmp_path / "hb") == 0
        err = capsys.readouterr().err
        assert "ignores the lambda config key" in err
        assert "ignores the lambda_candidates config key" in err
        best = json.loads((tmp_path / "hb" / "best_config.json").read_text())
        assert best["best_config"]["lambda"] is None

    def test_lda_never_reads_lambda_candidates(self, corpus_dir, hb_cfg, tmp_path, capsys):
        # a candidate mvc-rlda refuses goes unchecked, as it goes unused
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(hb_cfg.read_text() + "lambda_candidates = -0.5\n")
        assert self._run(corpus_dir, cfg, tmp_path / "hb") == 0
        assert "ignores the lambda_candidates config key" in capsys.readouterr().err
        assert all(t["config"]["lambda"] is None for t in self._trials(tmp_path / "hb"))

    def test_size_probe_is_not_held_during_the_search(self, corpus_dir, hb_cfg, tmp_path,
                                                      monkeypatch):
        # the largest model the space holds is built before --out to be
        # refused early, then dropped: no trial trains beside it
        built, held, real_epochs = _watch_models(monkeypatch), [], train.epochs

        def watched(*args):
            held.append(built[0]() is not None)
            return real_epochs(*args)

        monkeypatch.setattr(cli.train_mod, "epochs", watched)
        assert self._run(corpus_dir, hb_cfg, tmp_path / "hb") == 0
        assert held and not any(held)

    @staticmethod
    def _trials(out):
        return [json.loads(line) for line in (out / "trials.jsonl").read_text().splitlines()]

    def _rlda_argv(self, corpus_dir, cfg_text, tmp_path, R, seed):
        cfg = tmp_path / "rlda.cfg"
        cfg.write_text(TRAIN_CFG + cfg_text)
        return ["hyperband", "--model", "mvc-rlda",
                "--train", str(corpus_dir / "train.jsonl"), "--dev", str(corpus_dir / "dev.jsonl"),
                "--labels", str(corpus_dir / "descriptions.tsv"), "--config", str(cfg),
                "--R", str(R), "--eta", "3", "--seed", str(seed), "--out", str(tmp_path / "hb")]

    def test_every_trial_scores_as_a_run_from_scratch(self, corpus_dir, tmp_path):
        # a trial reads its score off its config's one run; train() from
        # scratch with max_epochs = patience = the trial's epochs gives the
        # same float, whether the trial trained, continued or reused
        argv = self._rlda_argv(corpus_dir, "s0_min = 1\ns0_max = 2\ndc_min = 4\ndc_max = 5\n"
                               "lambda_candidates = 0.01,0.001\n", tmp_path, R=9, seed=5)
        assert run(argv) == 0
        trials = self._trials(tmp_path / "hb")
        args = cli.build_parser().parse_args(argv[:-1] + [str(tmp_path / "ref")])
        setup, _ = cli._read_and_check(args, cli.load_config(args.config, cli.HYPERBAND_KEYS))
        table = cli._start(args, setup)["W_e"]
        reference = {}
        for t in trials:
            c, e = t["config"], t["epochs"]
            key = (json.dumps(c), e)
            if key not in reference:
                model_cfg = replace(setup.model_cfg, kernel_sizes=tuple(c["kernel_sizes"]),
                                    n_filters=c["n_filters"], lambda_=c["lambda"])
                _, history = train.train(cli._init_params(setup, model_cfg, table),
                                         setup.train_docs, setup.dev_docs, setup.desc_ids,
                                         replace(setup.train_cfg, max_epochs=e, patience=e))
                reference[key] = history.best_dev_micro_f1
            assert t["dev_micro_f1"] == reference[key], t
        assert len(reference) < len(trials)  # some trials repeat a config and budget

    def test_a_desk_shaped_search_trains_only_what_it_cannot_reuse(self, corpus_dir, tmp_path,
                                                                  monkeypatch):
        # only lambda varies, so configs repeat. At R = 3, eta = 3, bracket 1
        # trains 3 configs 1 epoch and continues the best to 3; bracket 0
        # asks 2 configs for 3 epochs. Each config trains to the most epochs
        # asked of it, and only a config that lost bracket 1's first rung
        # (its run dropped) trains its 1 epoch again when bracket 0 draws it.
        trained, real = [], cli.train_mod.epochs

        def counted(*args):
            for item in real(*args):
                trained.append(item[0].epoch)
                yield item

        monkeypatch.setattr(cli.train_mod, "epochs", counted)
        space = ("s0_min = 1\ns0_max = 1\ndc_min = 4\ndc_max = 4\n"
                 "lambda_candidates = 0.01,0.001,0.0001\n")
        retrained_seen = set()
        for seed in range(1, 7):
            trained.clear()
            (tmp_path / str(seed)).mkdir()
            argv = self._rlda_argv(corpus_dir, space, tmp_path / str(seed), R=3, seed=seed)
            assert run(argv) == 0
            most, rung = {}, {(1, 0): set(), (1, 1): set(), (0, 0): set()}
            for t in self._trials(tmp_path / str(seed) / "hb"):
                config = json.dumps(t["config"])
                most[config] = max(most.get(config, 0), t["epochs"])
                rung[t["bracket"], t["rung"]].add(config)
            retrained = (rung[0, 0] & rung[1, 0]) - rung[1, 1]
            assert len(trained) == sum(most.values()) + len(retrained) < 12  # 12 from scratch
            retrained_seen.add(len(retrained))
        assert 0 in retrained_seen and len(retrained_seen) > 1  # both cases ran

    def test_a_diverging_trial_scores_zero_and_the_search_goes_on(self, corpus_dir, tmp_path,
                                                                  capsys):
        # a lambda of 1e308 makes the loss inf; that once aborted the search
        argv = self._rlda_argv(corpus_dir, "s0_min = 1\ns0_max = 2\ndc_min = 4\ndc_max = 6\n"
                               "lambda_candidates = 0.001,1e308\n", tmp_path, R=3, seed=1)
        assert run(argv) == 0
        err = capsys.readouterr().err
        trials = self._trials(tmp_path / "hb")
        assert len(trials) == 6
        assert all(t.keys() == {"bracket", "rung", "trial", "config", "epochs", "dev_micro_f1"}
                   for t in trials)
        diverged = [t for t in trials if t["config"]["lambda"] == 1e308]
        assert diverged and all(t["dev_micro_f1"] == 0.0 for t in diverged)
        for t in diverged:
            assert f"bracket {t['bracket']} rung {t['rung']} trial {t['trial']} diverged" in err
        assert max(t["dev_micro_f1"] for t in trials) > 0.0


class TestAblateCmd:
    def test_four_component_report(self, corpus_dir, train_cfg_path, tmp_path):
        out = tmp_path / "ablate"
        assert run([
            "ablate", "--model", "mvc-rlda",
            "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--test", str(corpus_dir / "test.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(train_cfg_path),
            "--seed", "6", "--out", str(out),
        ]) == 0
        report = json.loads((out / "ablation.json").read_text())
        assert set(report["ablations"]) == {
            "regularization", "multi_view", "length_embedding", "extra_notes",
        }
        for entry in report["ablations"].values():
            assert {"micro_f1", "pr_auc", "p_at"} <= set(entry["delta"])

    def test_full_model_is_not_held_while_variants_train(self, corpus_dir, train_cfg_path,
                                                         tmp_path, monkeypatch):
        # the full model is trained in place and scored; no variant trains
        # beside it
        built, held, real_train = _watch_models(monkeypatch), [], train.train

        def watched(*args):
            held.append(built[0]() is not None)
            return real_train(*args)

        monkeypatch.setattr(cli.train_mod, "train", watched)
        assert run([
            "ablate", "--model", "mvc-lda", "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"), "--config", str(train_cfg_path),
            "--components", "length_embedding,multi_view",
            "--seed", "6", "--out", str(tmp_path / "ablate"),
        ]) == 0
        assert held == [True, False, False]

    def test_extra_notes_table_serves_only_its_own_variant(self, corpus_dir, train_cfg_path,
                                                           tmp_path):
        # the reduced notes' CBOW table trains extra_notes alone: a variant
        # listed after it starts from the full training split's table
        def ablation(components):
            out = tmp_path / components
            assert run([
                "ablate", "--model", "mvc-lda", "--train", str(corpus_dir / "train.jsonl"),
                "--dev", str(corpus_dir / "dev.jsonl"),
                "--labels", str(corpus_dir / "descriptions.tsv"),
                "--config", str(train_cfg_path), "--components", components,
                "--seed", "6", "--out", str(out),
            ]) == 0
            return json.loads((out / "ablation.json").read_text())["ablations"]

        after = ablation("extra_notes,multi_view")["multi_view"]
        assert after == ablation("multi_view")["multi_view"]

    def test_known_results_are_not_trained_again(self, corpus_dir, train_cfg_path, tmp_path,
                                                 monkeypatch):
        # a repeated component, and mvc-lda's regularization (there is none to
        # remove), once each trained another model; only the full model and
        # length_embedding need one
        fits, real_train = [], cli.train_mod.train

        def counted(*args):
            fits.append(args)
            return real_train(*args)

        monkeypatch.setattr(cli.train_mod, "train", counted)
        out = tmp_path / "ablate"
        assert run([
            "ablate", "--model", "mvc-lda", "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"), "--config", str(train_cfg_path),
            "--components", "regularization,regularization,length_embedding",
            "--seed", "6", "--out", str(out),
        ]) == 0
        assert len(fits) == 2
        report = json.loads((out / "ablation.json").read_text())
        assert list(report["ablations"]) == ["length_embedding", "regularization"]
        regularization = report["ablations"]["regularization"]
        assert regularization["delta"] == {"micro_f1": 0.0, "pr_auc": 0.0, "p_at": {"8": 0.0},
                                           "dev_micro_f1": 0.0}
        assert {k: v for k, v in regularization.items() if k != "delta"} == report["full"]

    @pytest.mark.parametrize("codes, message", [
        (None, "is empty"),
        (["999.9"], "has no gold code in the label space"),
    ])
    def test_unscorable_test_split_fails_before_training(
            self, corpus_dir, train_cfg_path, tmp_path, monkeypatch, capsys, codes, message):
        # both once failed only after the full model had trained
        def no_training(*args):
            raise AssertionError("a model trained")

        monkeypatch.setattr(cli.train_mod, "train", no_training)
        test = tmp_path / "test.jsonl"
        docs = corpus.read_corpus_jsonl(corpus_dir / "test.jsonl") if codes else []
        corpus.write_corpus_jsonl(test, [corpus.RawDocument(d.doc_id, d.text, set(codes))
                                         for d in docs])
        out = tmp_path / "ablate"
        assert run([
            "ablate", "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"), "--test", str(test),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(train_cfg_path), "--seed", "6", "--out", str(out),
        ]) == cli.EXIT_DATA
        assert f"test split {test} {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_p_at_above_label_count_fails_before_training(self, corpus_dir, train_cfg_path,
                                                          tmp_path, monkeypatch, capsys):
        def no_training(*args):
            raise AssertionError("a model trained")

        monkeypatch.setattr(cli.train_mod, "train", no_training)
        out = tmp_path / "ablate"
        assert run([
            "ablate", "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(train_cfg_path), "--p-at", "11",
            "--seed", "6", "--out", str(out),
        ]) == cli.EXIT_DATA
        assert "--p-at 11 exceeds the number of labels 10" in capsys.readouterr().err
        assert not (out / "ablation.json").exists()

    @staticmethod
    def _short_notes(tmp_path):
        """A training split where no note's first half holds two tokens;
        the whole notes "fever cough" and "rash fever" do."""
        data = tmp_path / "short"
        data.mkdir()
        notes = {"a": ("fever cough", {"A"}), "b": ("123 456", {"B"}),
                 "c": ("rash fever", {"B"}), "d": ("cough", {"A"})}
        corpus.write_corpus_jsonl(data / "train.jsonl", [corpus.RawDocument(i, text, codes)
                                                         for i, (text, codes) in notes.items()])
        corpus.write_corpus_jsonl(data / "dev.jsonl", [
            corpus.RawDocument("e", "fever rash cough", {"A"}),
            corpus.RawDocument("f", "rash", {"B"})])
        (data / "descriptions.tsv").write_text("A\tfever and cough\nB\trash\n")
        (data / "train.cfg").write_text("kernel_sizes = 1,3\nn_filters = 4\nembed_dim = 4\n"
                                        "min_doc_freq = 1\nmax_epochs = 1\nbatch_size = 2\n"
                                        "cbow_epochs = 1\n")
        return ["ablate", "--train", str(data / "train.jsonl"), "--dev", str(data / "dev.jsonl"),
                "--labels", str(data / "descriptions.tsv"), "--config", str(data / "train.cfg"),
                "--p-at", "1", "--seed", "6", "--out", str(tmp_path / "ablate")]

    def test_extra_notes_without_a_context_window_fails_before_training(
            self, tmp_path, monkeypatch, capsys):
        # it once failed in the reduced notes' CBOW, after every other model
        # had trained, leaving --out with only vocab.tsv and embeddings.bin
        def no_training(*args):
            raise AssertionError("a model trained")

        monkeypatch.setattr(cli.train_mod, "train", no_training)
        assert run(self._short_notes(tmp_path)) == cli.EXIT_DATA
        assert "ablate component extra_notes: no note of train split" in capsys.readouterr().err
        assert not (tmp_path / "ablate").exists()

    def test_other_components_run_on_notes_too_short_for_extra_notes(self, tmp_path):
        argv = self._short_notes(tmp_path)
        assert run([*argv, "--components", "regularization,multi_view,length_embedding"]) == 0
        report = json.loads((tmp_path / "ablate" / "ablation.json").read_text())
        assert list(report["ablations"]) == ["length_embedding", "multi_view", "regularization"]


class TestCommandFront:
    """The check order every command shares: config keys, then the label
    space, then the splits and --p-at, then the first file written."""

    @staticmethod
    def _argv(command, corpus_dir, cfg, out):
        data = ["--train", str(corpus_dir / "train.jsonl"),
                "--labels", str(corpus_dir / "descriptions.tsv"), "--seed", "3"]
        fit = [*data, "--dev", str(corpus_dir / "dev.jsonl"), "--config", str(cfg),
               "--out", str(out)]
        return {
            "synth": ["synth", "--config", str(cfg), "--out-dir", str(out), "--seed", "3"],
            "train": ["train", "--model", "mvc-lda", *fit],
            "hyperband": ["hyperband", "--model", "mvc-lda", *fit, "--R", "1"],
            "ablate": ["ablate", "--model", "mvc-lda", *fit,
                       "--components", "length_embedding"],
            "baseline": ["baseline", *data, "--test", str(corpus_dir / "test.jsonl"),
                         "--config", str(cfg), "--out", str(out)],
        }[command]

    # one bad key per config class, and each vocabulary key; each is
    # refused before any file is read (--labels names a missing file) or
    # written, and a CbowConfig key even when --embeddings replaces CBOW
    @pytest.mark.parametrize("command, line, message, embeddings", [
        ("train", "n_filters = 0", "filter count and embedding dim must be positive", False),
        ("train", "kernel_sizes = ,", "kernel_sizes lists no size", False),
        ("train", "patience = 0", "patience must be >= 1", False),
        ("train", "min_doc_freq = 0", "min_doc_freq must be >= 1, not 0", False),
        ("train", "cbow_window = 0", "window must be >= 1", False),
        ("train", "cbow_window = 0", "window must be >= 1", True),
        ("hyperband", "s0_min = 9", "invalid kernel size range", False),
        ("baseline", "svm_epochs = 0", "svm_epochs must be >= 1", False),
        ("baseline", "max_features = 0", "max_features must be >= 1", False),
        ("baseline", "min_doc_freq = 0", "min_doc_freq must be >= 1, not 0", False),
        ("synth", "n_codes = 0", "all synthetic corpus counts must be positive", False),
    ], ids=["ModelConfig", "ModelConfig-kernel_sizes", "TrainConfig", "TrainConfig-min_doc_freq",
            "CbowConfig", "CbowConfig-embeddings", "SearchSpace", "SvmConfig",
            "TfidfConfig-max_features", "TfidfConfig-min_doc_freq", "SynthConfig"])
    def test_bad_config_key_exits_2_leaving_nothing(self, corpus_dir, trained_dir, tmp_path,
                                                    capsys, command, line, message, embeddings):
        base = {"synth": SYNTH_CFG, "baseline": ""}.get(command, TRAIN_CFG)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(base + line + "\n")
        out = tmp_path / "out"
        argv = self._argv(command, corpus_dir, cfg, out)
        if "--labels" in argv:
            argv[argv.index("--labels") + 1] = str(tmp_path / "missing.tsv")
        if embeddings:
            argv += ["--embeddings", str(trained_dir / "embeddings.bin")]
        assert run(argv) == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()

    # each once left an empty --out-dir: nan and 1e308 exited 2 from the
    # sampler, -inf and -400 exited 3 on the overflow of the Zipf weights
    @pytest.mark.parametrize("exponent", ["nan", "1e308", "-inf", "-400"])
    def test_bad_zipf_exponent_exits_2_leaving_nothing(self, corpus_dir, tmp_path, capsys,
                                                       exponent):
        cfg, out = tmp_path / "zipf.cfg", tmp_path / "out"
        cfg.write_text(SYNTH_CFG.replace("zipf_exponent = 1.0", f"zipf_exponent = {exponent}"))
        assert run(self._argv("synth", corpus_dir, cfg, out)) == cli.EXIT_DATA
        assert "zipf_exponent must be finite" in capsys.readouterr().err
        assert not out.exists()

    # each once let numpy's MemoryError escape main with a traceback; a
    # model size once failed only after --out held vocab.tsv and
    # embeddings.bin. numpy refuses a 10**15-sized array at once, without
    # asking the system for it
    @pytest.mark.parametrize("command, key", [
        ("train", "cbow_negative"), ("train", "embed_dim"), ("train", "n_filters"),
        ("train", "kernel_sizes"), ("ablate", "n_filters"), ("ablate", "kernel_sizes"),
    ], ids=["cbow_negative", "embed_dim", "n_filters", "kernel_sizes", "ablate-n_filters",
            "ablate-kernel_sizes"])
    def test_size_that_cannot_be_allocated_exits_2(self, corpus_dir, tmp_path, capsys,
                                                   command, key):
        cfg, out = tmp_path / "huge.cfg", tmp_path / "out"
        cfg.write_text(TRAIN_CFG + f"{key} = {10**15}\n")
        assert run(self._argv(command, corpus_dir, cfg, out)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"mvclda: out of memory in {command}: ")
        assert not out.exists()

    # hyperband draws its trials' sizes inside the search; the largest model
    # its space holds is built before --out exists. At s0_max = 10**17 a
    # kernel's bytes pass numpy's largest array size, which numpy itself
    # refuses with a ValueError ("array is too big")
    @pytest.mark.parametrize("lines", [f"dc_min = {10**15}\ndc_max = {10**15}\n",
                                       f"s0_max = {10**12}\n", f"s0_max = {10**17}\n"],
                             ids=["dc", "s0_max", "s0_max_past_intp"])
    def test_search_space_that_cannot_be_allocated_exits_2(self, corpus_dir, tmp_path, capsys,
                                                           lines):
        cfg, out = tmp_path / "huge.cfg", tmp_path / "out"
        cfg.write_text(TRAIN_CFG + lines)
        assert run(self._argv("hyperband", corpus_dir, cfg, out)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("mvclda: out of memory in hyperband: ")
        assert not out.exists()

    def test_window_past_every_note_trains(self, corpus_dir, tmp_path):
        # the window is taken as at most a note's length less one, so it
        # allocates nothing of its own size
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(TRAIN_CFG + f"cbow_window = {10**15}\nmax_epochs = 1\n")
        assert run(self._argv("train", corpus_dir, cfg, tmp_path / "out")) == cli.EXIT_OK

    def test_synth_creates_out_dir_after_generating(self, corpus_dir, tmp_path, monkeypatch):
        def fail(cfg):
            raise ValueError("generation failed")

        monkeypatch.setattr(cli.corpus, "generate_synthetic_corpus", fail)
        cfg, out = tmp_path / "synth.cfg", tmp_path / "out"
        cfg.write_text(SYNTH_CFG)
        assert run(self._argv("synth", corpus_dir, cfg, out)) == cli.EXIT_DATA
        assert not out.exists()

    # synth once created --out-dir, then exited 2 on numpy's "expected
    # non-negative integer"; a seed is parsed like --R, as a usage error
    @pytest.mark.parametrize("command", ["synth", "train", "hyperband", "ablate", "baseline"])
    def test_negative_seed_is_refused_leaving_nothing(self, corpus_dir, train_cfg_path, tmp_path,
                                                      capsys, command):
        cfg, out = tmp_path / "synth.cfg", tmp_path / "out"
        cfg.write_text(SYNTH_CFG)
        argv = self._argv(command, corpus_dir, cfg if command == "synth" else train_cfg_path, out)
        argv[argv.index("--seed") + 1] = "-1"
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == cli.EXIT_USAGE
        assert "argument --seed: -1 is below the minimum 0" in capsys.readouterr().err
        assert not out.exists()

    # an empty label space once trained a zero-label model, and scored every
    # hyperband trial 0.0, with exit 0
    @pytest.mark.parametrize("command", ["train", "hyperband", "evaluate", "baseline"])
    def test_empty_label_space_exits_2_leaving_nothing(self, corpus_dir, trained_dir, tmp_path,
                                                       capsys, command):
        labels, cfg, out = tmp_path / "empty.tsv", tmp_path / "empty.cfg", tmp_path / "out"
        labels.write_text("")
        cfg.write_text("")
        if command == "evaluate":
            argv = ["evaluate", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                    "--test", str(corpus_dir / "test.jsonl"), "--labels", str(labels),
                    "--vocab", str(trained_dir / "vocab.tsv"),
                    "--metrics-out", str(out / "metrics.json")]
        else:
            argv = self._argv(command, corpus_dir, cfg, out)
            argv[argv.index("--labels") + 1] = str(labels)
        assert run(argv) == cli.EXIT_DATA
        assert f"--labels {labels} defines no code" in capsys.readouterr().err
        assert not out.exists()

    # a misspelt variable was once ignored: MVC_MAX_EPOCH=1 trained every epoch
    @pytest.mark.parametrize("command, name", [
        ("synth", "MVC_MAX_EPOCH"), ("train", "MVC_MAX_EPOCH"),
        ("hyperband", "MVC_ATTENTION_SOFTMAX"), ("ablate", "MVC_BETA1"),
        ("baseline", "MVC_LENGTH_SCALE"),
    ])
    def test_unknown_env_variable_exits_2_leaving_nothing(self, corpus_dir, tmp_path,
                                                          monkeypatch, capsys, command, name):
        monkeypatch.setenv(name, "1")
        cfg, out = tmp_path / "empty.cfg", tmp_path / "out"
        cfg.write_text("")
        assert run(self._argv(command, corpus_dir, cfg, out)) == cli.EXIT_DATA
        assert f"environment variable {name} names no config key" in capsys.readouterr().err
        assert not out.exists()

    def test_env_variable_of_another_command_is_accepted(self, monkeypatch):
        monkeypatch.setenv("MVC_SVM_EPOCHS", "0")
        monkeypatch.setenv("MVC_N_CODES", "0")
        assert cli.load_config(None, cli.TRAIN_KEYS) == {}

    def test_corpus_field_of_the_wrong_type_exits_2(self, corpus_dir, train_cfg_path, tmp_path,
                                                   capsys):
        # a string of codes was once read as its set of characters, exit 0
        train = tmp_path / "train.jsonl"
        train.write_text('{"doc_id": "a", "text": "t", "codes": "101.1"}\n')
        argv = self._argv("train", corpus_dir, train_cfg_path, tmp_path / "out")
        argv[argv.index("--train") + 1] = str(train)
        assert run(argv) == cli.EXIT_DATA
        assert f"{train}:1: doc_id and text must be strings" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, value", [
        ("train", "0"), ("hyperband", "0"), ("ablate", "0"), ("baseline", "-5"),
    ])
    def test_min_doc_freq_below_one_exits_2_leaving_nothing(self, corpus_dir, tmp_path, capsys,
                                                            command, value):
        # 0 once kept every token, and -5 every tf-idf term, with exit 0
        cfg = tmp_path / "floor.cfg"
        cfg.write_text(("" if command == "baseline" else TRAIN_CFG) + f"min_doc_freq = {value}\n")
        out = tmp_path / "out"
        assert run(self._argv(command, corpus_dir, cfg, out)) == cli.EXIT_DATA
        assert f"min_doc_freq must be >= 1, not {value}" in capsys.readouterr().err
        assert not out.exists()

    # each once exited 2 only after CBOW, with vocab.tsv and embeddings.bin in --out
    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
    def test_bad_lambda_candidate_exits_2_leaving_nothing(self, corpus_dir, tmp_path, capsys,
                                                          value):
        cfg, out = tmp_path / "lambdas.cfg", tmp_path / "out"
        cfg.write_text(TRAIN_CFG + f"lambda_candidates = 0.01,{value}\n")
        argv = self._argv("hyperband", corpus_dir, cfg, out)
        argv[argv.index("--model") + 1] = "mvc-rlda"
        assert run(argv) == cli.EXIT_DATA
        assert "lambda_candidates must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_inputs_are_the_file_options_given(self, corpus_dir, train_cfg_path,
                                                        trained_dir, tmp_path):
        d, emb, cfg = corpus_dir, str(trained_dir / "embeddings.bin"), tmp_path / "b.cfg"
        cfg.write_text("svm_epochs = 2\n")
        synth_cfg = tmp_path / "synth.cfg"
        synth_cfg.write_text(SYNTH_CFG)
        evaluate = ["evaluate", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                    "--test", str(d / "test.jsonl"), "--labels", str(d / "descriptions.tsv"),
                    "--vocab", str(trained_dir / "vocab.tsv")]
        fit = {"train", "dev", "labels", "config"}
        # (argv, the directory of its manifest, the file options it gives)
        cases = [
            (self._argv("synth", d, synth_cfg, tmp_path / "synth"), "synth", {"config"}),
            (self._argv("train", d, train_cfg_path, tmp_path / "train"), "train", fit),
            (self._argv("train", d, train_cfg_path, tmp_path / "train_emb")
             + ["--embeddings", emb], "train_emb", fit | {"embeddings"}),
            (evaluate + ["--metrics-out", str(tmp_path / "eval" / "m.json")], "eval",
             {"checkpoint", "test", "labels", "vocab"}),
            (evaluate + ["--metrics-out", str(tmp_path / "eval_all" / "m.json"),
                         "--groups", str(d / "groups.tsv"),
                         "--train-counts", str(trained_dir / "train_counts.tsv")], "eval_all",
             {"checkpoint", "test", "labels", "vocab", "groups", "train_counts"}),
            (["baseline", "--train", str(d / "train.jsonl"), "--test", str(d / "test.jsonl"),
              "--labels", str(d / "descriptions.tsv"), "--seed", "3",
              "--out", str(tmp_path / "base")], "base", {"train", "test", "labels"}),
            (self._argv("baseline", d, cfg, tmp_path / "base_all")
             + ["--hierarchy", str(d / "hierarchy.tsv")], "base_all",
             {"train", "test", "labels", "config", "hierarchy"}),
            (self._argv("hyperband", d, train_cfg_path, tmp_path / "hb"), "hb", fit),
            (self._argv("hyperband", d, train_cfg_path, tmp_path / "hb_emb")
             + ["--embeddings", emb], "hb_emb", fit | {"embeddings"}),
            (self._argv("ablate", d, train_cfg_path, tmp_path / "abl"), "abl", fit),
            (self._argv("ablate", d, train_cfg_path, tmp_path / "abl_test")
             + ["--test", str(d / "test.jsonl")], "abl_test", fit | {"test"}),
        ]
        assert {argv[0] for argv, _, _ in cases} == {
            "synth", "train", "evaluate", "baseline", "hyperband", "ablate"}
        for argv, out, given in cases:
            assert run(argv) == 0, argv
            # evaluate's manifest is named after its metrics file, m.json
            file = "m.manifest.json" if argv[0] == "evaluate" else "manifest.json"
            manifest = json.loads((tmp_path / out / file).read_text())
            assert manifest["command"] == argv[0]
            assert set(manifest["inputs"]) == given, argv
            for name, entry in manifest["inputs"].items():
                path = argv[argv.index("--" + name.replace("_", "-")) + 1]
                assert entry == {"path": path, "sha256": embed.sha256_file(path)}

    # a NaN in the table once made train exit 3 at its first batch after
    # writing vocab.tsv, and hyperband exit 0 with every trial diverged
    @pytest.mark.parametrize("command", ["train", "hyperband"])
    def test_non_finite_embeddings_exit_2_leaving_nothing(self, corpus_dir, train_cfg_path,
                                                          trained_dir, tmp_path, capsys, command):
        table = embed.load_embeddings(trained_dir / "embeddings.bin",
                                      embed.sha256_file(trained_dir / "vocab.tsv")).copy()
        table[1, 2] = np.nan
        emb, out = tmp_path / "embeddings.bin", tmp_path / "out"
        embed.save_embeddings(emb, table, embed.sha256_file(trained_dir / "vocab.tsv"))
        argv = self._argv(command, corpus_dir, train_cfg_path, out) + ["--embeddings", str(emb)]
        assert run(argv) == cli.EXIT_DATA
        assert f"{emb}: embedding table holds non-finite values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "hyperband", "ablate"])
    def test_vocabulary_is_formatted_once(self, corpus_dir, train_cfg_path, tmp_path,
                                          monkeypatch, command):
        # its bytes are both hashed for the checksum and written as vocab.tsv
        calls, real = [], corpus.vocabulary_bytes

        def counted(vocab):
            calls.append(vocab)
            return real(vocab)

        monkeypatch.setattr(cli.corpus, "vocabulary_bytes", counted)
        out = tmp_path / "out"
        assert run(self._argv(command, corpus_dir, train_cfg_path, out)) == 0
        assert len(calls) == 1
        # the table is pinned to the vocabulary file written
        embed.load_embeddings(out / "embeddings.bin",
                              expected_vocab_checksum=embed.sha256_file(out / "vocab.tsv"))
