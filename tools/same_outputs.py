"""Check that the working tree writes the same files as a git revision.

    python tools/same_outputs.py <rev>

Extracts `git archive <rev> src` into a temporary directory and runs one
command flow with that source and with the working tree's `src/`, each in
its own run directory with the same relative paths. The flow: synth;
train mvc-rlda, mvc-lda, mvc-lda with the first run's `--embeddings`,
mvc-rlda with patience 1, which must stop early (its `history.jsonl` is
checked to be shorter than `max_epochs`), and mvc-rlda at dropout 0, so
training runs without dropout masks; evaluate the first two models (the
first with `--groups` and `--train-counts`) and the dropout-0 one; flat
and hierarchical baselines, and a flat one with `--config`; hyperband at
R=3, eta=3: mvc-rlda once pretraining and once on the first train run's
`--embeddings`, and mvc-lda, which searches no lambda, on the same
`--embeddings`; ablate mvc-rlda with every component on `--test`, and
mvc-lda with regularization, extra_notes and regularization again on the
dev split; then a second synth with a few thousand background words
and one epoch of mvc-rlda training on it at embed_dim 64, whose
vocabulary spans several of
`adam_step`'s row blocks and whose batches leave most rows untouched, and
whose notes, trained untruncated, are longer than `model.CONV_CHUNK`, so
the convolution's backward carries rows from one chunk into the next;
then `evaluate` of that model and a flat baseline on the same data, whose
test notes hold words its training split lacks, so word-table ids cross
splits; last a third synth, no training on it, at the MIMIC-shaped
benchmark's word range: 40,000 background words and 1,000 codes'
phrases, in a few notes, and a flat and a hierarchical baseline on it, so
the hierarchical fit's node loop and its constant nodes run at label scale.
So every file option of every command is given at least once.
Every file either run wrote is then reported as identical or differing;
`history.jsonl` is compared with each line's `wall_time_s` removed, the
only field allowed to differ. A differing tensor file (`.bin`) is reported by part: whether the
tensor payloads after the header line are identical, and which header keys
differ; a differing JSON document (`.json`) by the top-level keys that
differ. Either still counts as differing.

Then the cross-evaluate step: the working tree's source reruns the flow's
`evaluate` commands on the revision's checkpoints, in the revision's run
directory, and each `metrics.json` it writes must equal the revision's own
byte for byte. A change that moves training arithmetic may change any
checkpoint, history, trial log or metrics file of the flow, by design;
this step still holds scoring exact on the revision's checkpoints, which
an older revision writes in its own format and dtype. Exits 0 when every file of both steps
matches and 1 otherwise.

Needs no network; reads `.git` only through `git archive`. BLAS runs one
thread, as in the benchmark. The commands set one OpenBLAS thread
themselves, but an older revision does not, so the environment pins it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from revision import REPO, extract_src

STOP_MAX_EPOCHS = 8

CONFIGS = {
    "synth.cfg": """\
n_codes = 12
n_train = 60
n_dev = 15
n_test = 15
background_vocab = 80
doc_len_min = 30
doc_len_max = 90
""",
    # max_segment below the longest note, so truncation runs too
    "train.cfg": """\
kernel_sizes = 2,4,6,8
n_filters = 8
embed_dim = 12
max_epochs = 3
max_segment = 60
lambda = 0.01
cbow_epochs = 1
""",
    "stop.cfg": f"""\
kernel_sizes = 2,4,6,8
n_filters = 8
embed_dim = 12
max_epochs = {STOP_MAX_EPOCHS}
patience = 1
max_segment = 60
lambda = 0.01
cbow_epochs = 1
""",
    # no dropout: training makes no masks and scales nothing
    "nodrop.cfg": """\
kernel_sizes = 2,4,6,8
n_filters = 8
embed_dim = 12
max_epochs = 3
max_segment = 60
lambda = 0.01
dropout = 0
cbow_epochs = 1
""",
    # ~5,000 words at embed_dim 64: several of adam_step's row blocks;
    # notes longer than model.CONV_CHUNK (512), two row chunks each
    "wide_synth.cfg": """\
n_codes = 12
n_train = 40
n_dev = 8
n_test = 8
background_vocab = 5000
doc_len_min = 600
doc_len_max = 800
""",
    "wide.cfg": """\
kernel_sizes = 2,4,6,8
n_filters = 8
embed_dim = 64
max_epochs = 1
min_doc_freq = 1
lambda = 0.01
cbow_epochs = 1
""",
    # the mimic workload's word range: 40,000 background words (five
    # syllables from 20,736) and 1,000 phrases of 2-34 words
    "mimic_synth.cfg": """\
n_codes = 1000
n_train = 4
n_dev = 2
n_test = 2
background_vocab = 40000
evidence_len_min = 2
evidence_len_max = 34
doc_len_min = 300
doc_len_max = 600
""",
    "baseline.cfg": """\
svm_epochs = 5
max_features = 300
min_doc_freq = 2
""",
    "hyperband.cfg": """\
n_filters = 8
embed_dim = 12
max_segment = 60
cbow_epochs = 1
s0_min = 2
s0_max = 6
dc_min = 4
dc_max = 10
""",
}

DATA = ["--train", "data/train.jsonl", "--labels", "data/descriptions.tsv"]
TRAIN = DATA + ["--dev", "data/dev.jsonl", "--config", "cfg/train.cfg", "--seed", "42"]
FLOW = [
    ["synth", "--config", "cfg/synth.cfg", "--out-dir", "data", "--seed", "42"],
    ["train", "--model", "mvc-rlda", *TRAIN, "--out", "rlda"],
    ["train", "--model", "mvc-lda", *TRAIN, "--out", "lda"],
    ["train", "--model", "mvc-lda", *TRAIN, "--embeddings", "rlda/embeddings.bin",
     "--out", "lda_emb"],
    ["train", "--model", "mvc-rlda", *DATA, "--dev", "data/dev.jsonl", "--config", "cfg/stop.cfg",
     "--seed", "42", "--out", "stop"],
    ["train", "--model", "mvc-rlda", *DATA, "--dev", "data/dev.jsonl",
     "--config", "cfg/nodrop.cfg", "--seed", "42", "--out", "nodrop"],
    ["evaluate", "--checkpoint", "rlda/checkpoint.bin", "--test", "data/test.jsonl",
     "--labels", "data/descriptions.tsv", "--vocab", "rlda/vocab.tsv",
     "--metrics-out", "rlda/metrics.json", "--p-at", "8,5", "--groups", "data/groups.tsv",
     "--train-counts", "rlda/train_counts.tsv"],
    ["evaluate", "--checkpoint", "lda/checkpoint.bin", "--test", "data/test.jsonl",
     "--labels", "data/descriptions.tsv", "--vocab", "lda/vocab.tsv",
     "--metrics-out", "lda/metrics.json"],
    ["evaluate", "--checkpoint", "nodrop/checkpoint.bin", "--test", "data/test.jsonl",
     "--labels", "data/descriptions.tsv", "--vocab", "nodrop/vocab.tsv",
     "--metrics-out", "nodrop/metrics.json"],
    ["baseline", *DATA, "--test", "data/test.jsonl", "--seed", "42", "--out", "base_flat"],
    ["baseline", *DATA, "--test", "data/test.jsonl", "--hierarchy", "data/hierarchy.tsv",
     "--seed", "42", "--out", "base_hier"],
    ["baseline", *DATA, "--test", "data/test.jsonl", "--config", "cfg/baseline.cfg",
     "--seed", "42", "--out", "base_cfg"],
    ["hyperband", "--model", "mvc-rlda", *DATA, "--dev", "data/dev.jsonl",
     "--config", "cfg/hyperband.cfg", "--R", "3", "--eta", "3", "--seed", "42", "--out", "hb"],
    ["hyperband", "--model", "mvc-rlda", *DATA, "--dev", "data/dev.jsonl",
     "--config", "cfg/hyperband.cfg", "--embeddings", "rlda/embeddings.bin",
     "--R", "3", "--eta", "3", "--seed", "42", "--out", "hb_emb"],
    ["hyperband", "--model", "mvc-lda", *DATA, "--dev", "data/dev.jsonl",
     "--config", "cfg/hyperband.cfg", "--embeddings", "rlda/embeddings.bin",
     "--R", "3", "--eta", "3", "--seed", "42", "--out", "hb_lda"],
    ["ablate", "--model", "mvc-rlda", *TRAIN, "--test", "data/test.jsonl",
     "--components", "all", "--out", "abl"],
    # mvc-lda has no regularizer to remove, and the name repeats: a result
    # known without training, then one trained
    ["ablate", "--model", "mvc-lda", *TRAIN,
     "--components", "regularization,extra_notes,regularization", "--out", "abl_lda"],
    ["synth", "--config", "cfg/wide_synth.cfg", "--out-dir", "wide_data", "--seed", "42"],
    ["train", "--model", "mvc-rlda", "--train", "wide_data/train.jsonl",
     "--dev", "wide_data/dev.jsonl", "--labels", "wide_data/descriptions.tsv",
     "--config", "cfg/wide.cfg", "--seed", "42", "--out", "wide"],
    ["evaluate", "--checkpoint", "wide/checkpoint.bin", "--test", "wide_data/test.jsonl",
     "--labels", "wide_data/descriptions.tsv", "--vocab", "wide/vocab.tsv",
     "--metrics-out", "wide/metrics.json"],
    ["baseline", "--train", "wide_data/train.jsonl", "--test", "wide_data/test.jsonl",
     "--labels", "wide_data/descriptions.tsv", "--seed", "42", "--out", "wide_base"],
    ["synth", "--config", "cfg/mimic_synth.cfg", "--out-dir", "mimic_data", "--seed", "42"],
    ["baseline", "--train", "mimic_data/train.jsonl", "--test", "mimic_data/test.jsonl",
     "--labels", "mimic_data/descriptions.tsv", "--seed", "42", "--out", "mimic_base"],
    ["baseline", "--train", "mimic_data/train.jsonl", "--test", "mimic_data/test.jsonl",
     "--labels", "mimic_data/descriptions.tsv", "--hierarchy", "mimic_data/hierarchy.tsv",
     "--seed", "42", "--out", "mimic_hier"],
]


def run_command(src: Path, run_dir: Path, argv: list[str]) -> None:
    """Run `mvclda argv` with the package in `src`, from `run_dir`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MVC_")}
    env.update(PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "mvclda.cli", *argv], cwd=run_dir,
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{src}: `mvclda {' '.join(argv)}` exited {done.returncode}:\n"
                         f"{done.stderr}")


def run_flow(src: Path, run_dir: Path) -> None:
    """Run FLOW with the package in `src`, from `run_dir`."""
    cfg_dir = run_dir / "cfg"
    cfg_dir.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (cfg_dir / name).write_text(text)
    for argv in FLOW:
        run_command(src, run_dir, argv)
    epochs = len((run_dir / "stop" / "history.jsonl").read_text().splitlines())
    if epochs >= STOP_MAX_EPOCHS:
        raise SystemExit(f"{src}: the patience-1 run trained all {epochs} epochs; "
                         "the flow no longer covers early stopping")


def outputs(run_dir: Path) -> dict[str, bytes]:
    """Every file the flow wrote under `run_dir`, by relative path."""
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.relative_to(run_dir).parts[0] != "cfg"}


def without_wall_time(history: bytes) -> list[dict]:
    lines = [json.loads(line) for line in history.decode("utf-8").splitlines()]
    for line in lines:
        line.pop("wall_time_s", None)
    return lines


def differing_keys(old: bytes, new: bytes) -> str:
    """The top-level keys, present in either, whose values differ between
    two JSON objects, comma separated ('none' if no key does)."""
    old, new = json.loads(old), json.loads(new)
    keys = sorted(k for k in old.keys() | new.keys()
                  if (k in old, old.get(k)) != (k in new, new.get(k)))
    return ", ".join(keys) or "none"


def tensor_file_verdict(old: bytes, new: bytes) -> str:
    """How two differing tensor files differ: in their payloads after the
    header line, and in which keys of their JSON headers."""
    (old_head, _, old_body), (new_head, _, new_body) = old.partition(b"\n"), new.partition(b"\n")
    tensors = "tensors identical" if old_body == new_body else "TENSORS DIFFER"
    return f"{tensors}; header keys differ: {differing_keys(old_head, new_head)}"


def compare(old: dict[str, bytes], new: dict[str, bytes]) -> list[tuple[str, str]]:
    """(path, verdict) for every file in either run."""
    verdicts = []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            verdict = "only at the revision"
        elif path not in old:
            verdict = "only in the working tree"
        elif old[path] == new[path]:
            verdict = "identical"
        elif (Path(path).name == "history.jsonl"
              and without_wall_time(old[path]) == without_wall_time(new[path])):
            verdict = "identical except wall_time_s"
        elif Path(path).suffix == ".bin":
            verdict = tensor_file_verdict(old[path], new[path])
        elif Path(path).suffix == ".json":
            verdict = f"keys differ: {differing_keys(old[path], new[path])}"
        else:
            verdict = "DIFFERS"
        verdicts.append((path, verdict))
    return verdicts


def cross_evaluate(src: Path, rev_dir: Path, out_dir: Path) -> list[tuple[str, str]]:
    """(path, verdict) for each `evaluate` of FLOW rerun with the package in
    `src` from the revision's run directory `rev_dir`, on its checkpoints,
    writing under `out_dir`: whether the metrics file equals the one the
    revision wrote there."""
    verdicts = []
    for argv in (a for a in FLOW if a[0] == "evaluate"):
        at = argv.index("--metrics-out") + 1
        ours = out_dir / argv[at]
        run_command(src, rev_dir, [*argv[:at], str(ours), *argv[at + 1:]])
        same = ours.read_bytes() == (rev_dir / argv[at]).read_bytes()
        verdicts.append((argv[at], "identical" if same else "DIFFERS"))
    return verdicts


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_outputs.py <rev>", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        run_flow(extract_src(rev, tmp / "rev"), tmp / "run_rev")
        run_flow(REPO / "src", tmp / "run_tree")
        verdicts = compare(outputs(tmp / "run_rev"), outputs(tmp / "run_tree"))
        crossed = cross_evaluate(REPO / "src", tmp / "run_rev", tmp / "cross")
    for path, verdict in verdicts:
        print(f"{verdict:30s} {path}")
    same = sum(v.startswith("identical") for _, v in verdicts)
    print(f"{same} of {len(verdicts)} files match {rev}")
    print("cross-evaluate: the working tree's evaluate on the revision's checkpoints")
    for path, verdict in crossed:
        print(f"{verdict:30s} {path}")
    same_crossed = sum(v == "identical" for _, v in crossed)
    print(f"{same_crossed} of {len(crossed)} cross-evaluated metrics files match {rev}'s")
    return 0 if same == len(verdicts) and same_crossed == len(crossed) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
