"""Command-line pipelines: corpus synthesis, model training, evaluation,
hyperparameter search, ablation, and linear baselines.

One binary, subcommand style; every command writes its outputs as files
plus a manifest sufficient to reproduce the run. Exit codes: 0 success,
1 usage error, 2 data error, 3 numerical error. Any config-file key can be
overridden with an environment variable `MVC_<KEY>` (upper-cased key).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import itertools
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, baseline, corpus, embed, hyperband as hb, metrics, model, train as train_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

ENV_PREFIX = "MVC_"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parser(tp):
    """The config-value parser for a field of type `tp`: `bool` takes the
    words above, `tuple[int, ...]` and `tuple[float, ...]` take comma lists
    with blank items skipped, `int` and `float` parse as themselves."""
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        return lambda text: tuple(item(p) for p in text.split(",") if p.strip())
    return _parse_bool if tp is bool else tp


# The key prefix of each config dataclass whose fields set a component
# beside the model (`cbow_epochs`, `svm_reg`); a field of any other class
# is keyed by `model.config_key` of its name alone.
_PREFIX = {embed.CbowConfig: "cbow_", baseline.SvmConfig: "svm_"}


def _key(cls, name: str) -> str:
    return _PREFIX.get(cls, "") + model.config_key(name)


def _keys(cls, skip=()) -> dict:
    """{config key: parser} for the fields of dataclass `cls` not in `skip`."""
    hints = typing.get_type_hints(cls)
    return {_key(cls, f.name): _parser(hints[f.name]) for f in fields(cls) if f.name not in skip}


def _build(cls, values: dict, **fixed):
    """Dataclass `cls` from the parsed config `values` of its fields' keys;
    `fixed` arguments take precedence, and absent keys keep the defaults."""
    kw = {f.name: values[_key(cls, f.name)] for f in fields(cls) if _key(cls, f.name) in values}
    return cls(**dict(kw, **fixed))


# One key table per command. The seeds, the model kind and the embedding
# width of a loaded table come from the command line or the data.
SYNTH_KEYS = _keys(corpus.SynthConfig, skip={"seed"})
TRAIN_KEYS = {
    **_keys(train_mod.TrainConfig, skip={"seed"}),
    **_keys(model.ModelConfig, skip={"kind"}),
    **_keys(embed.CbowConfig, skip={"dim", "seed"}),
}
HYPERBAND_KEYS = {**TRAIN_KEYS, **_keys(hb.SearchSpace)}
BASELINE_KEYS = {**_keys(baseline.SvmConfig, skip={"seed"}), **_keys(baseline.TfidfConfig)}
# every key of any command; an MVC_ variable that names none is refused
ALL_KEYS = SYNTH_KEYS.keys() | HYPERBAND_KEYS.keys() | BASELINE_KEYS.keys()


def parse_kv_config(text: str, keys: dict, source: str) -> dict:
    """Flat `key = value` lines; blank lines and '#' comments are allowed;
    keys outside the key table are rejected, naming `source` and the line."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise corpus.DataFormatError(f"{source}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in keys:
            raise corpus.DataFormatError(f"{source}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = keys[key](raw)
        except ValueError as exc:
            raise corpus.DataFormatError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _apply_env_overrides(values: dict, keys: dict) -> dict:
    """`values` with each `MVC_<KEY>` override of `keys` applied. An
    `MVC_` variable that names no key of any command is refused, as an
    unknown config-file key is."""
    known = {ENV_PREFIX + key.upper() for key in ALL_KEYS}
    for name in sorted(os.environ):
        if name.startswith(ENV_PREFIX) and name not in known:
            raise corpus.DataFormatError(f"environment variable {name} names no config key")
    for key, caster in keys.items():
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            try:
                values[key] = caster(raw)
            except ValueError as exc:
                raise corpus.DataFormatError(
                    f"environment override {ENV_PREFIX}{key.upper()}: bad value: {exc}"
                ) from exc
    return values


def load_config(path, keys: dict) -> dict:
    """The config file at `path` (None: no file), then the environment
    overrides of `keys`."""
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values = parse_kv_config(fh.read(), keys, str(path))
    return _apply_env_overrides(values, keys)


# Every file option of any command; the manifest lists each one given.
FILE_OPTIONS = ("train", "dev", "test", "labels", "hierarchy", "config", "embeddings",
                "checkpoint", "vocab", "groups", "train_counts")


def _write_manifest(out_dir: Path, args, config: dict, artifacts: dict,
                    file_name: str = "manifest.json") -> None:
    """The manifest `out_dir/file_name`: the command and seed of `args`, the
    `config` values, each file option given with its sha256, and the files
    written."""
    given = {name: Path(getattr(args, name)) for name in FILE_OPTIONS if getattr(args, name, None)}
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
        "inputs": {
            name: {"path": str(p), "sha256": embed.sha256_file(p)}
            for name, p in given.items()
        },
        "artifacts": {name: str(p) for name, p in artifacts.items()},
    }
    corpus.write_json(out_dir / file_name, manifest)


def _load_label_space(path, p_at, hierarchy=None) -> corpus.LabelSpace:
    """The label space of the descriptions at `path`, under the parents of
    the `hierarchy` file if given. An empty one, a cyclic hierarchy, or a
    --p-at value in `p_at` above its size, is refused before any split is
    read."""
    descriptions = corpus.read_descriptions_tsv(path)
    if not descriptions:
        raise ValueError(f"--labels {path} defines no code")
    parents = corpus.read_hierarchy_tsv(hierarchy) if hierarchy else None
    labels = corpus.make_label_space(descriptions, parents)
    largest = max(p_at, default=0)
    if largest > labels.n_labels:
        raise ValueError(f"--p-at {largest} exceeds the number of labels {labels.n_labels}")
    return labels


class _Split(typing.NamedTuple):
    notes: list  # each document's int32 ids in the command's word table
    gold: list  # `corpus.encode_gold`'s label ids per document,
    dropped: int  # and its count of codes outside the label space


def _read_split(name: str, path, labels: corpus.LabelSpace, words: dict, grow: bool = False,
                scored: bool = False) -> _Split:
    """Read split `name` from `path` one note at a time into int32 ids in
    the word table `words`, and encode its gold codes, warning about codes
    outside the label space. The training split (`grow`) adds each unseen
    word to the table at the next id; any other split gives every word
    outside the table the one id len(words), which the vocabulary and the
    tf-idf terms map to none (`corpus.Vocabulary.lookup`). Fail, naming the
    split, when it holds no document, or when a `scored` split (one PR AUC
    is taken on) has no gold code of the label space."""
    notes, gold, dropped = [], [], 0
    unseen = len(words)
    for raw in corpus.read_corpus_jsonl(path):
        note_gold, note_dropped = corpus.encode_gold(raw, labels)
        gold.append(note_gold)
        dropped += note_dropped
        tokens = corpus.preprocess_text(raw.text)
        ids = ((words.setdefault(t, len(words)) for t in tokens) if grow
               else map(words.get, tokens, itertools.repeat(unseen)))
        notes.append(np.fromiter(ids, np.int32, len(tokens)))
    if not notes:
        raise ValueError(f"{name} split {path} is empty")
    if dropped:
        print(f"warning: dropped {dropped} gold codes absent from the label space",
              file=sys.stderr)
    if scored and not any(map(len, gold)):
        raise ValueError(f"{name} split {path} has no gold code in the label space")
    return _Split(notes, gold, dropped)


@dataclass
class _TrainingSetup:
    """What train, hyperband and ablate all read, built by `_read_and_check`
    and then `_start`; each command makes its own checks before or between
    the two (hyperband's search space, ablate's extra_notes)."""

    values: dict
    out_dir: Path
    labels: corpus.LabelSpace
    vocab: corpus.Vocabulary
    train_docs: list
    dev_docs: list
    desc_ids: list
    model_cfg: model.ModelConfig  # at the pretrained table's width once `_start` has run
    train_cfg: train_mod.TrainConfig
    cbow_cfg: embed.CbowConfig  # of the embed_dim key's width; unused under --embeddings
    artifacts: dict
    vocab_checksum: str = ""  # of the vocabulary file, set by `_start`


def _read_and_check(args, values: dict, p_at=(), scored=None) -> tuple[_TrainingSetup, list]:
    """Build the model, training and CBOW configs from `values`, warning
    about each lambda key under mvc-lda, which has no regularizer; load the
    label space, refusing a `p_at` above its size; read train, dev and
    `scored`, the (name, path) of the split PR AUC is taken on; build the
    vocabulary from train alone and encode every split. Returns the setup
    and `scored`'s documents, dev's when `scored` is None."""
    for key in ("lambda", "lambda_candidates"):
        if args.model == "mvc-lda" and key in values:
            print(f"warning: --model mvc-lda ignores the {key} config key", file=sys.stderr)
    model_cfg = _build(model.ModelConfig, values, kind=args.model)
    train_cfg = _build(train_mod.TrainConfig, values, seed=args.seed)
    cbow_cfg = _build(embed.CbowConfig, values, dim=model_cfg.embed_dim, seed=args.seed)
    labels = _load_label_space(args.labels, p_at)
    eval_split, eval_path = scored or ("dev", args.dev)
    words: dict[str, int] = {}
    splits = {name: _read_split(name, path, labels, words, grow=name == "train",
                                scored=scored is not None and name == eval_split)
              for name, path in {"train": args.train, "dev": args.dev,
                                 eval_split: eval_path}.items()}
    vocab = corpus.build_vocabulary(splits["train"].notes, words, train_cfg.min_doc_freq)
    docs = {name: corpus.encode_corpus(s.notes, words, (s.gold, s.dropped), vocab)[0]
            for name, s in splits.items()}
    run = _TrainingSetup(
        values, Path(args.out), labels, vocab, docs["train"], docs["dev"],
        [vocab.encode(toks) for toks in labels.descriptions],
        model_cfg, train_cfg, cbow_cfg, {},
    )
    return run, docs[eval_split]


def _init_params(run: _TrainingSetup, model_cfg: model.ModelConfig,
                 table: np.ndarray) -> model.ModelParams:
    """A `model_cfg` model on embedding `table`, initialized from the run's
    seed."""
    return model.init_params(model_cfg, run.vocab.size, run.labels.n_labels,
                             np.random.default_rng(run.train_cfg.seed), embeddings=table)


def _start(args, run, embeddings=None, **sizes) -> model.ModelParams:
    """Build the vocabulary file's bytes once, and set the run's checksum
    to their hash. Get the float64 table: the `embeddings` file, checked
    against that checksum (a training split with no token is refused
    first, as CBOW refuses it), or else CBOW on the training split. Set
    the run's model config to the table's width, build the first model
    with the caller's `sizes`, and only then create --out and write the
    vocabulary and the CBOW table, so that a model too large to allocate
    leaves no output behind. Returns the first model alone: its W_e is the
    table in the model's dtype, and the float64 table is dropped here."""
    vocab_bytes = corpus.vocabulary_bytes(run.vocab)
    run.vocab_checksum = hashlib.sha256(vocab_bytes).hexdigest()
    if embeddings:
        # as CBOW does without --embeddings
        if not any(len(d.token_ids) for d in run.train_docs):
            raise ValueError(f"train split {args.train} has no token to train on")
        table = embed.load_embeddings(embeddings, expected_vocab_checksum=run.vocab_checksum)
        if table.shape[0] != run.vocab.size:
            raise ValueError(
                f"embedding rows {table.shape[0]} do not match vocabulary size {run.vocab.size}"
            )
    else:
        table = embed.train_cbow([d.token_ids for d in run.train_docs], run.vocab.size,
                                 run.cbow_cfg)
    run.model_cfg = replace(run.model_cfg, embed_dim=table.shape[1])
    params0 = _init_params(run, replace(run.model_cfg, **sizes), table)

    run.out_dir.mkdir(parents=True, exist_ok=True)
    run.artifacts["vocab"] = run.out_dir / "vocab.tsv"
    run.artifacts["vocab"].write_bytes(vocab_bytes)
    if not embeddings:
        run.artifacts["embeddings"] = run.out_dir / "embeddings.bin"
        embed.save_embeddings(run.artifacts["embeddings"], table, run.vocab_checksum)
    return params0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    values = load_config(args.config, SYNTH_KEYS)
    cfg = _build(corpus.SynthConfig, values, seed=args.seed)
    synth = corpus.generate_synthetic_corpus(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    for split, docs in (("train", synth.train), ("dev", synth.dev), ("test", synth.test)):
        artifacts[split] = out_dir / f"{split}.jsonl"
        corpus.write_corpus_jsonl(artifacts[split], docs)
    # descriptions keep the label-space order; the maps are written sorted
    labels = synth.labels
    for name, pairs in (("descriptions", zip(labels.codes, map(" ".join, labels.descriptions))),
                        ("hierarchy", sorted(labels.parents.items())),
                        ("groups", sorted(synth.groups.items()))):
        artifacts[name] = out_dir / f"{name}.tsv"
        corpus.write_pairs_tsv(artifacts[name], pairs)
    _write_manifest(out_dir, args, dict(values, seed=args.seed), artifacts)
    print(f"wrote {len(synth.train)}/{len(synth.dev)}/{len(synth.test)} documents to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    run, _ = _read_and_check(args, load_config(args.config, TRAIN_KEYS))
    params0 = _start(args, run, args.embeddings)
    best, history = train_mod.train(params0, run.train_docs, run.dev_docs, run.desc_ids,
                                    run.train_cfg)

    ckpt_path = run.out_dir / "checkpoint.bin"
    model.save_checkpoint(ckpt_path, best, run.vocab_checksum)
    run.artifacts["checkpoint"] = ckpt_path
    hist_path = run.out_dir / "history.jsonl"
    corpus.write_jsonl(hist_path, (dict(asdict(e), best=e.epoch == history.best_epoch)
                                   for e in history.epochs))
    run.artifacts["history"] = hist_path
    counts_path = run.out_dir / "train_counts.tsv"
    counts = np.bincount(corpus.gold_cells(d.gold for d in run.train_docs)[1],
                         minlength=run.labels.n_labels)
    corpus.write_pairs_tsv(counts_path, sorted(zip(run.labels.codes, counts.tolist())))
    run.artifacts["train_counts"] = counts_path
    _write_manifest(run.out_dir, args, run.values, run.artifacts)
    print(
        f"best epoch {history.best_epoch} dev micro F1 {history.best_dev_micro_f1:.5f}; "
        f"checkpoint at {ckpt_path}"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    params, header = model.load_checkpoint(args.checkpoint)
    vocab = corpus.load_vocabulary(args.vocab)
    if embed.sha256_file(args.vocab) != header.get("vocab_sha256"):
        raise ValueError(
            "vocabulary file does not match the checkpoint's vocabulary checksum"
        )
    labels = _load_label_space(args.labels, args.p_at)
    if labels.n_labels != params.n_labels:
        raise ValueError(
            f"checkpoint was trained for {params.n_labels} labels, "
            f"label file defines {labels.n_labels}"
        )
    # the vocabulary's words at their ids, so each note is read straight
    # into vocabulary ids, an unseen word into len(words), the OOV id
    test = _read_split("test", args.test, labels, vocab.token_to_id, scored=True)
    groups = None
    if args.groups:
        by_code = corpus.read_groups_tsv(args.groups)
        groups = [by_code.get(code, "none") for code in labels.codes]
    train_counts = None
    if args.train_counts:
        by_code = corpus.read_counts_tsv(args.train_counts)
        train_counts = np.array([by_code.get(code, 0) for code in labels.codes], dtype=np.float64)

    docs = [corpus.EncodedDocument(ids, gold) for ids, gold in zip(test.notes, test.gold)]
    scores = model.predict_matrix(params, docs)
    cells = corpus.gold_cells(test.gold)
    # macro F1 over the labels with gold support (the split has at least one)
    report = metrics.evaluate_predictions(
        scores, cells, p_at=tuple(args.p_at), groups=groups, train_counts=train_counts,
        macro_labels=np.unique(cells[1]),
    )
    out_path = Path(args.metrics_out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    corpus.write_json(out_path, asdict(report))
    # named after the metrics file, so evaluating into a train directory
    # keeps the training run's manifest.json
    _write_manifest(out_path.parent, args, {"p_at": list(args.p_at)}, {"metrics": out_path},
                    file_name=f"{out_path.stem}.manifest.json")
    print(f"micro F1 {report.micro_f1:.5f}  PR AUC {report.pr_auc:.5f} -> {out_path}")
    return EXIT_OK


def cmd_hyperband(args) -> int:
    schedule = [{"s": s, "n": n, "r": r} for s, n, r in hb.bracket_schedule(args.R, args.eta)]
    values = load_config(args.config, HYPERBAND_KEYS)
    # an mvc-lda model has no lambda to search, so its candidates are not read
    space = _build(hb.SearchSpace, {k: v for k, v in values.items()
                                    if args.model == "mvc-rlda" or k != "lambda_candidates"})
    run, _ = _read_and_check(args, values)
    # the largest model the search can draw, built and dropped before any
    # trial; every trial starts from its W_e, the table in the model's dtype
    table = _start(args, run, args.embeddings, n_filters=space.dc_max,
                   kernel_sizes=hb.kernel_sizes(space.s0_max))["W_e"].copy()

    # every trial is a prefix of its config's run: R epochs, never stopped early
    train_cfg = replace(run.train_cfg, max_epochs=args.R)

    def start(model_cfg: model.ModelConfig):
        params0 = _init_params(run, model_cfg, table)
        return (stats.dev_micro_f1 for stats, _ in train_mod.epochs(
            params0, run.train_docs, run.dev_docs, run.desc_ids, train_cfg))

    best_cfg, best_score, log = hb.hyperband_search(space, run.model_cfg, start, args.R, args.eta,
                                                    args.seed)
    trials_path = run.out_dir / "trials.jsonl"
    corpus.write_jsonl(trials_path, (dict(asdict(t), config=hb.config_json(t.config))
                                     for t in log))
    run.artifacts["trials"] = trials_path
    best_path = run.out_dir / "best_config.json"
    corpus.write_json(best_path, {
        "R": args.R, "eta": args.eta, "schedule": schedule,
        "best_config": hb.config_json(best_cfg), "best_dev_micro_f1": best_score,
    })
    run.artifacts["best_config"] = best_path
    _write_manifest(run.out_dir, args, dict(run.values, R=args.R, eta=args.eta), run.artifacts)
    print(f"best dev micro F1 {best_score:.5f} with {hb.config_json(best_cfg)}")
    return EXIT_OK


# Each ablation component and the model config without it; extra_notes
# keeps the config and trains on the first half of every note instead. An
# mvc-lda model has no regularizer to remove.
ABLATIONS = {
    "regularization": lambda cfg: replace(cfg, lambda_=0.0) if cfg.kind == "mvc-rlda" else cfg,
    "multi_view": lambda cfg: replace(cfg, kernel_sizes=(max(cfg.kernel_sizes),)),
    "length_embedding": lambda cfg: replace(cfg, use_length=False),
    "extra_notes": lambda cfg: cfg,
}


def cmd_ablate(args) -> int:
    """Train the full model and one model per component with that component
    removed; report each one's metrics on the evaluation split and its
    deltas full minus ablated (positive: the component helps). A component
    whose removal leaves the full model reuses its result."""
    run, eval_docs = _read_and_check(args, load_config(args.config, TRAIN_KEYS), args.p_at,
                                     ("test", args.test) if args.test else ("dev", args.dev))
    if "extra_notes" in args.components and not any(
            train_mod.reduce_document(d).length > 1 for d in run.train_docs):
        raise ValueError(f"ablate component extra_notes: no note of train split {args.train} "
                         "keeps two tokens in its first half, so CBOW has no context window")
    params0 = _start(args, run)
    table = params0["W_e"].copy()  # params0 trains in place

    def score(params0, splits) -> dict:
        train_docs, dev_docs, eval_docs = splits
        best, history = train_mod.train(params0, train_docs, dev_docs, run.desc_ids,
                                        run.train_cfg)
        report = metrics.evaluate_predictions(model.predict_matrix(best, eval_docs),
                                              corpus.gold_cells(d.gold for d in eval_docs),
                                              p_at=tuple(args.p_at))
        return {"best_dev_micro_f1": history.best_dev_micro_f1, "micro_f1": report.micro_f1,
                "pr_auc": report.pr_auc, "p_at": report.p_at}

    splits = (run.train_docs, run.dev_docs, eval_docs)
    full = score(params0, splits)
    del params0  # trained in place: not held through the variants' training
    ablations = {}
    for name in args.components:
        variant_cfg = ABLATIONS[name](run.model_cfg)
        if name == "extra_notes":  # their own CBOW table, dropped once the model holds it
            reduced = [[train_mod.reduce_document(d) for d in split] for split in splits]
            entry = score(_init_params(run, variant_cfg, embed.train_cbow(
                [d.token_ids for d in reduced[0]], run.vocab.size, run.cbow_cfg)), reduced)
        elif variant_cfg == run.model_cfg:  # nothing removed: every delta is 0.0
            entry = dict(full)
        else:
            entry = score(_init_params(run, variant_cfg, table), splits)
        entry["delta"] = {
            "micro_f1": full["micro_f1"] - entry["micro_f1"],
            "pr_auc": full["pr_auc"] - entry["pr_auc"],
            "p_at": {n: full["p_at"][n] - entry["p_at"][n] for n in full["p_at"]},
            "dev_micro_f1": full["best_dev_micro_f1"] - entry["best_dev_micro_f1"],
        }
        ablations[name] = entry

    out_path = run.out_dir / "ablation.json"
    corpus.write_json(out_path, {"format_version": 2, "p_at": args.p_at, "full": full,
                                 "ablations": ablations})
    run.artifacts["ablation"] = out_path
    _write_manifest(run.out_dir, args, run.values, run.artifacts)
    for name, entry in ablations.items():
        d = entry["delta"]
        print(
            f"{name}: micro F1 delta {d['micro_f1']:+.5f}  "
            f"PR AUC delta {d['pr_auc']:+.5f}"
        )
    return EXIT_OK


def cmd_baseline(args) -> int:
    values = load_config(args.config, BASELINE_KEYS)
    svm_cfg = _build(baseline.SvmConfig, values, seed=args.seed)
    tfidf_cfg = _build(baseline.TfidfConfig, values)
    labels = _load_label_space(args.labels, args.p_at, args.hierarchy)
    words: dict[str, int] = {}
    train = _read_split("train", args.train, labels, words, grow=True)
    test = _read_split("test", args.test, labels, words, scored=True)
    featurizer = baseline.fit_tfidf(train.notes, words, tfidf_cfg)
    train_rows = featurizer.transform(train.notes)
    X_test = baseline.to_dense(featurizer.transform(test.notes))  # for the one scoring GEMM
    train_cells = corpus.gold_cells(train.gold)
    if args.hierarchy:
        ovr = baseline.train_hierarchical(train_rows, train_cells, labels.codes, labels.parents,
                                          svm_cfg)
        pred = baseline.predict_hierarchical(ovr, X_test, labels.codes, labels.parents)
    else:
        ovr = baseline.train_flat(train_rows, train_cells, labels.codes, svm_cfg)
        pred = baseline.predict_flat(ovr, X_test)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {"model": out_dir / "baseline_model.bin", "metrics": out_dir / "metrics.json"}
    baseline.save_baseline(artifacts["model"], featurizer, ovr)
    report = metrics.evaluate_predictions(pred, corpus.gold_cells(test.gold),
                                          p_at=tuple(args.p_at))
    corpus.write_json(artifacts["metrics"], asdict(report))
    _write_manifest(out_dir, args, values, artifacts)
    print(f"{'hierarchical' if args.hierarchy else 'flat'} baseline micro F1 {report.micro_f1:.5f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _components(text: str) -> list[str]:
    """`all`, or a nonempty comma list of ABLATIONS' components, each kept
    once."""
    if text == "all":
        return list(ABLATIONS)
    names = list(dict.fromkeys(c.strip() for c in text.split(",") if c.strip()))
    if not names:
        raise argparse.ArgumentTypeError("no ablation component given")
    for name in names:
        if name not in ABLATIONS:
            raise argparse.ArgumentTypeError(
                f"unknown ablation component {name!r} (choose from {', '.join(ABLATIONS)})")
    return names


def _p_at_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("P@n values must be positive integers")
    for i, v in enumerate(values):
        if v in values[:i]:
            # the reports key each n once: a repeat would be listed twice
            # beside one result
            raise argparse.ArgumentTypeError(f"P@n value {v} given more than once")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mvclda", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mvclda {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_synth)

    # the options train, hyperband and ablate share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--train", required=True)
    run.add_argument("--dev", required=True)
    run.add_argument("--labels", required=True, help="descriptions TSV (defines the label space)")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=_int_at_least(0), required=True)
    run.add_argument("--out", required=True)

    p = sub.add_parser("train", parents=[run], help="train MVC-LDA or MVC-RLDA")
    p.add_argument("--model", choices=model.MODEL_KINDS, required=True)
    p.add_argument("--embeddings", help="pretrained embedding file (else CBOW runs)")
    p.set_defaults(func=cmd_train)

    # the P@n cutoffs of evaluate, ablate and baseline
    p_at = argparse.ArgumentParser(add_help=False)
    p_at.add_argument("--p-at", type=_p_at_list, default=[8])

    p = sub.add_parser("evaluate", parents=[p_at], help="score a checkpoint on a test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--metrics-out", required=True)
    p.add_argument("--groups", help="optional code<TAB>group TSV for per-group micro F1")
    p.add_argument("--train-counts", help="optional code<TAB>count TSV for binned F1")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hyperband", parents=[run],
                       help="Hyperband search over kernel sizes, filters, lambda")
    p.add_argument("--model", choices=model.MODEL_KINDS, default="mvc-rlda")
    p.add_argument("--embeddings", help="pretrained embedding file (else CBOW runs)")
    p.add_argument("--R", type=_int_at_least(1), default=27)
    p.add_argument("--eta", type=_int_at_least(2), default=3)
    p.set_defaults(func=cmd_hyperband)

    p = sub.add_parser("ablate", parents=[run, p_at], help="component ablation study")
    p.add_argument("--model", choices=model.MODEL_KINDS, default="mvc-rlda")
    p.add_argument("--test", help="evaluation split for the deltas (default: dev)")
    p.add_argument("--components", type=_components, default="all",
                   help=f"all, or a comma list of {','.join(ABLATIONS)}")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("baseline", parents=[p_at], help="tf-idf one-vs-rest linear baseline")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--hierarchy", help="child<TAB>parent TSV enabling the hierarchical variant")
    p.add_argument("--config")
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    return parser


@functools.cache
def _one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread, once per process. The
    checkpoint's bytes depend on the BLAS thread count, and a second
    thread buys nothing measurable on this model's GEMMs. Under another
    BLAS, or without the symbol, the threads are left alone."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        set_threads = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


def main(argv=None) -> int:
    _one_blas_thread()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow or invalid float operation fails the command (exit 3)
        # instead of warning and writing a result that silently stalled
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except FloatingPointError as exc:
        print(f"mvclda: numerical error in {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # corpus.DataFormatError is a ValueError
        print(f"mvclda: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # a config size too large to allocate
        print(f"mvclda: out of memory in {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
