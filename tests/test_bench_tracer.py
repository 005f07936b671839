"""The bench's layer tracer over a tiny synth, train, evaluate, baseline
and hyperband run.

`bench/tracer.py` wraps the package's functions by name and reads their
arguments and results; a source change that drops a wrapped name or
reshapes a call it reads fails here, not only in a traced bench run.
"""

import importlib.util
from pathlib import Path

import mvclda
from mvclda import baseline, cli, corpus, embed, hyperband, metrics, model, train

from test_cli import SYNTH_CFG, TRAIN_CFG

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
tracer_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_mod)

OWNERS = (baseline, corpus, embed, hyperband, metrics, model, train,
          model.GradientSet, baseline.TfidfFeaturizer)


def test_layer_spans_carry_tokens_and_restore_puts_every_name_back(tmp_path):
    assert Path(mvclda.__file__).resolve().parent == ROOT / "src" / "mvclda"
    before = {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}
    (tmp_path / "synth.cfg").write_text(SYNTH_CFG)
    (tmp_path / "train.cfg").write_text(TRAIN_CFG)
    data, out = tmp_path / "data", tmp_path / "out"
    tracer = tracer_mod.Tracer("layer")
    tracer.install()
    try:
        assert cli.main(["synth", "--config", str(tmp_path / "synth.cfg"),
                         "--out-dir", str(data), "--seed", "13"]) == 0
        assert cli.main(["train", "--model", "mvc-lda", "--train", str(data / "train.jsonl"),
                         "--dev", str(data / "dev.jsonl"),
                         "--labels", str(data / "descriptions.tsv"),
                         "--config", str(tmp_path / "train.cfg"), "--seed", "3",
                         "--out", str(out)]) == 0
        assert cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                         "--test", str(data / "test.jsonl"),
                         "--labels", str(data / "descriptions.tsv"),
                         "--vocab", str(out / "vocab.tsv"),
                         "--metrics-out", str(out / "metrics.json")]) == 0
        split = ["--train", str(data / "train.jsonl"), "--labels", str(data / "descriptions.tsv"),
                 "--seed", "3"]
        for name, extra in (("flat", []), ("hier", ["--hierarchy", str(data / "hierarchy.tsv")])):
            assert cli.main(["baseline", *split, "--test", str(data / "test.jsonl"),
                             "--out", str(tmp_path / name), *extra]) == 0
        assert cli.main(["hyperband", "--model", "mvc-lda", *split,
                         "--dev", str(data / "dev.jsonl"), "--config", str(tmp_path / "train.cfg"),
                         "--R", "1", "--out", str(tmp_path / "hb")]) == 0
    finally:
        tracer.restore()
    for name in ("corpus.encode", "train.train", "model.predict_matrix"):
        spans = tracer.find(name)
        assert spans and all(s.attrs["tokens"] > 0 for s in spans), name
    # `baseline.fit` reads the fitted model's nodes, `hyperband.search` the trial log
    fits = tracer.find("baseline.fit")
    assert len(fits) == 2 and all(s.attrs["classifiers"] > 0 for s in fits)
    assert [s.attrs["trials"] for s in tracer.find("hyperband.search")] == [1]
    after = {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
