import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from mvclda import baseline, cli, corpus, embed, model

from oracles import (_word, contains_phrase, hand_pearson, per_word_synthetic_corpus,
                     random_table, string_vocabulary, word_table)


class TestPreprocess:
    def test_lowercase_and_split(self):
        assert corpus.preprocess_text("Acute Respiratory FAILURE") == [
            "acute", "respiratory", "failure",
        ]

    def test_digit_only_tokens_removed(self):
        assert corpus.preprocess_text("given 325 mg aspirin") == ["given", "mg", "aspirin"]

    def test_edge_punctuation_then_digit_rule(self):
        # "2019." strips to "2019" which is digits-only and therefore dropped
        assert corpus.preprocess_text("x-ray, 2019.") == ["x-ray"]

    def test_unicode_digit_lookalikes_kept(self):
        # only strings of ASCII 0-9 are dropped: a superscript, Arabic-Indic
        # and fullwidth digits all survive
        assert corpus.preprocess_text("² ٣٤ １２ 12") == ["²", "٣٤", "１２"]

    def test_mixed_alphanumeric_kept(self):
        assert corpus.preprocess_text("b12 100mg 100") == ["b12", "100mg"]

    def test_internal_hyphens_and_slashes_kept(self):
        assert corpus.preprocess_text("(x-ray) 'n/a'.") == ["x-ray", "n/a"]

    def test_empty_input(self):
        assert corpus.preprocess_text("") == []
        assert corpus.preprocess_text("   \n\t ") == []

    @pytest.mark.parametrize(
        "text",
        [
            "Acute Respiratory FAILURE",
            "x-ray, 2019. (stable)",
            "alpha 'beta' GAMMA-3, ...  12a 12",
            "punct!!! ??? [brackets] {braces} \"quotes\"",
        ],
    )
    def test_idempotent(self, text):
        once = corpus.preprocess_text(text)
        assert corpus.preprocess_text(" ".join(once)) == once


# words that stress the ranking: non-ASCII, a word beside the same word
# with a trailing NUL (numpy's "<U" order drops it), and shared stems
TRICKY_WORDS = ["a", "a\x00", "ab", "b", "é", "e", "ß", "ss", "日本", "z\x00z", "Z"]


def tricky_token_corpus(seed):
    """(train, dev, test) lists of token lists over TRICKY_WORDS and a few
    numbered words, with document-frequency ties; dev and test add words
    of their own, and each split holds an empty note. Training opens with
    "q\x00" before "q", tied at 3 notes: an order that cannot tell them
    apart keeps them in the order first seen."""
    rng = np.random.default_rng(seed)
    pool = TRICKY_WORDS + [f"w{k}" for k in range(12)]

    def split(n, extra):
        words = pool + extra
        return [[]] + [
            [words[k] for k in rng.integers(0, len(words), rng.integers(0, 15))]
            for _ in range(n)]

    return ([["q\x00", "q"]] * 3 + split(40, []), split(10, ["dev-only", "ünseen"]),
            split(10, ["test-only", "a\x00\x00"]))


class TestVocabulary:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_string_vocabulary(self, seed):
        train, dev, test = tricky_token_corpus(seed)
        # the table is filled from test first, so its order is not train's
        notes, words = word_table(test + train + dev)
        train_notes, dev_notes = notes[len(test):-len(dev)], notes[-len(dev):]
        for min_doc_freq in (1, 2, 3, 5):
            vocab = corpus.build_vocabulary(train_notes, words, min_doc_freq)
            assert vocab == corpus.Vocabulary(*string_vocabulary(train, min_doc_freq))
            docs, _ = corpus.encode_corpus(dev_notes, words,
                                           ([np.zeros(0, np.int64)] * len(dev), 0), vocab)
            for doc, tokens in zip(docs, dev):
                assert doc.token_ids.dtype == np.int32
                assert np.array_equal(doc.token_ids, vocab.encode(tokens))

    def test_doc_freq_boundary(self):
        docs = [["twice"], ["twice"], ["thrice"], ["thrice"], ["thrice"]]
        vocab = corpus.build_vocabulary(*word_table(docs), 3)
        assert "thrice" in vocab.token_to_id
        assert "twice" not in vocab.token_to_id
        assert vocab.encode(["twice"])[0] == vocab.oov_id

    def test_hand_counted_example(self):
        docs = [["pain"], ["pain"], ["pain"], ["pain", "rare"]]
        vocab = corpus.build_vocabulary(*word_table(docs), 3)
        assert list(vocab.token_to_id) == ["pain"]
        assert vocab.encode(["rare"])[0] == vocab.oov_id
        assert vocab.doc_freq["pain"] == 4

    def test_repeats_within_one_doc_count_once(self):
        docs = [["dup", "dup", "dup"], ["x"], ["x"], ["x"]]
        vocab = corpus.build_vocabulary(*word_table(docs), 3)
        assert "dup" not in vocab.token_to_id

    def test_id_order_descending_freq_then_lexicographic(self):
        docs = [
            ["b", "a", "c"],
            ["b", "a", "c"],
            ["b", "a", "c"],
            ["b"],
        ]
        vocab = corpus.build_vocabulary(*word_table(docs), 3)
        # b: 4 docs; a and c: 3 docs each -> a before c
        assert vocab.id_to_token == ["b", "a", "c"]
        assert vocab.oov_id == 3
        assert vocab.size == 4

    def test_empty_training_set_errors(self):
        with pytest.raises(ValueError):
            corpus.build_vocabulary([], {}, 3)

    def test_save_load_round_trip(self, tmp_path):
        docs = [["alpha", "beta", "gamma"]] * 3 + [["alpha"]]
        vocab = corpus.build_vocabulary(*word_table(docs), 3)
        path = tmp_path / "vocab.tsv"
        path.write_bytes(corpus.vocabulary_bytes(vocab))
        loaded = corpus.load_vocabulary(path)
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.oov_id == vocab.oov_id
        assert loaded.doc_freq == vocab.doc_freq

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        for text in ("not a header\n", "#version=1\ntok\t0\t3\n"):
            path.write_text(text)
            with pytest.raises(corpus.DataFormatError):
                corpus.load_vocabulary(path)

    @pytest.mark.parametrize("text, line", [
        ("#version=1\toov_id=1\ntok\tzero\t3\n", 2),
        ("#version=1\toov_id=2\ntok\t0\t3\nkot\t1\tthree\n", 3),
        ("#version=one\toov_id=1\ntok\t0\t3\n", 1),
        ("#version=1\toov_id=x\ntok\t0\t3\n", 1),
    ])
    def test_load_rejects_non_integer_field_with_line(self, tmp_path, text, line):
        path = tmp_path / "vocab.tsv"
        path.write_text(text)
        with pytest.raises(corpus.DataFormatError, match=re.escape(f"{path}:{line}: bad")):
            corpus.load_vocabulary(path)

    def test_load_rejects_repeated_token_with_line(self, tmp_path):
        # once loaded as {"tok": 1}, leaving id 0 unreachable
        path = tmp_path / "vocab.tsv"
        path.write_text("#version=1\toov_id=2\ntok\t0\t3\ntok\t1\t3\n")
        with pytest.raises(corpus.DataFormatError,
                           match=re.escape(f"{path}:3: duplicate token")):
            corpus.load_vocabulary(path)


def _toy_space():
    return corpus.make_label_space({"A": "alpha disease", "B": "beta disease", "C": "gamma"},
                                   None)


def encode_document(raw, vocab, labels):
    """One document through `encode_corpus`: (its encoding, dropped count)."""
    gold, dropped = corpus.encode_gold(raw, labels)
    docs, dropped = corpus.encode_corpus(*word_table([corpus.preprocess_text(raw.text)]),
                                         ([gold], dropped), vocab)
    return docs[0], dropped


class TestEncodeDocument:
    def test_empty_text(self):
        vocab = corpus.build_vocabulary(*word_table([["w"]] * 3), 3)
        doc, dropped = encode_document(
            corpus.RawDocument("d1", "", set()), vocab, _toy_space()
        )
        assert len(doc.token_ids) == 0 and doc.length == 0
        assert dropped == 0

    def test_all_unknown_tokens(self):
        vocab = corpus.build_vocabulary(*word_table([["w"]] * 3), 3)
        doc, _ = encode_document(
            corpus.RawDocument("d1", "novel words only", set()), vocab, _toy_space()
        )
        assert np.all(doc.token_ids == vocab.oov_id)

    def test_gold_vector(self):
        vocab = corpus.build_vocabulary(*word_table([["w"]] * 3), 3)
        doc, dropped = encode_document(
            corpus.RawDocument("d1", "w", {"A", "B"}), vocab, _toy_space()
        )
        assert doc.gold.tolist() == [0, 1] and doc.gold.dtype == np.int64
        assert dropped == 0

    def test_unknown_codes_dropped_and_counted(self):
        vocab = corpus.build_vocabulary(*word_table([["w"]] * 3), 3)
        doc, dropped = encode_document(
            corpus.RawDocument("d1", "w", {"A", "Zed", "Q"}), vocab, _toy_space()
        )
        assert doc.gold.tolist() == [0]
        assert dropped == 2
        # every code outside the label space: no gold id
        doc, dropped = encode_document(
            corpus.RawDocument("d2", "w", {"Zed", "Q"}), vocab, _toy_space()
        )
        assert doc.gold.tolist() == [] and doc.gold.dtype == np.int64
        assert dropped == 2

    def test_round_trip_through_vocabulary(self):
        tokens = ["alpha", "beta", "alpha"]
        vocab = corpus.build_vocabulary(*word_table([tokens] * 3), 3)
        doc, _ = encode_document(
            corpus.RawDocument("d1", "alpha beta alpha", set()), vocab, _toy_space()
        )
        assert [vocab.id_to_token[i] for i in doc.token_ids] == tokens


class TestGoldCells:
    def test_row_major_cells_with_empty_notes(self):
        dense = np.zeros((6, 5))
        dense[0, [1, 3]] = dense[2, 0] = dense[4, [2, 4]] = 1.0  # notes 1, 3, 5 empty
        golds = [np.flatnonzero(row) for row in dense]
        rows, cols = corpus.gold_cells(golds)
        assert rows.dtype == cols.dtype == np.int64
        assert rows.tolist() == [0, 0, 2, 4, 4] and cols.tolist() == [1, 3, 0, 2, 4]
        assert all(np.array_equal(a, b) for a, b in zip((rows, cols), np.nonzero(dense)))
        for split in ([], [np.zeros(0, np.int64)] * 3):
            rows, cols = corpus.gold_cells(split)
            assert rows.dtype == cols.dtype == np.int64 and rows.size == cols.size == 0

    def test_gold_memory_per_note_is_bounded(self):
        # CAML's full code set and ~15 codes a note; a dense float64 gold
        # row held 71 KB per note
        n_notes, n_codes = 1_000, 8_922
        labels = corpus.make_label_space({f"c{j}": "code" for j in range(n_codes)}, None)
        rng = np.random.default_rng(0)
        raws = [corpus.RawDocument(f"d{i}", "", {f"c{j}" for j in rng.choice(n_codes, 15, False)})
                for i in range(n_notes)]
        tracemalloc.start()
        try:
            golds, dropped = zip(*(corpus.encode_gold(raw, labels) for raw in raws))
            cells = corpus.gold_cells(golds)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(dropped) == 0 and cells[0].size == 15 * n_notes
        assert held / n_notes < 1024

    def test_front_memory_per_note_is_bounded(self, tmp_path):
        # notes of ~1,500 tokens read, counted into a vocabulary and
        # encoded; a note held as a list of token strings took ~100 KB.
        # The split's notes were also once all read before the first was
        # tokenized, which raised the read's peak above what it keeps by
        # ~2.7 MB here (~12.5 KB of text a note), against ~0.27 MB read one
        # note at a time
        n_notes, n_words = 200, 5_000
        rng = np.random.default_rng(0)
        table = corpus._word_table(n_words)
        path = tmp_path / "train.jsonl"
        corpus.write_corpus_jsonl(path, [
            corpus.RawDocument(f"d{i}", " ".join(table[rng.integers(0, n_words, 1_500)]), {"c"})
            for i in range(n_notes)])
        labels = corpus.make_label_space({"c": "code"}, None)
        tracemalloc.start()
        try:
            words = {}
            split = cli._read_split("train", path, labels, words, grow=True)
            held, read_peak = tracemalloc.get_traced_memory()
            vocab = corpus.build_vocabulary(split.notes, words, 3)
            docs, _ = corpus.encode_corpus(split.notes, words, (split.gold, split.dropped), vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(d.length for d in docs) == 1_500 * n_notes
        assert peak / n_notes < 40 * 1024
        assert read_peak - held < 48 * max(map(len, path.read_bytes().splitlines()))


class TestLabelSpace:
    def test_empty_description_rejected(self):
        with pytest.raises(ValueError):
            corpus.make_label_space({"A": "2019"}, None)  # preprocesses to nothing

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle through"):
            corpus.make_label_space(
                {"A": "alpha", "B": "beta"}, parents={"A": "B", "B": "A"}
            )


class TestSyntheticCorpus:
    CFG = corpus.SynthConfig(
        n_codes=12, n_train=80, n_dev=15, n_test=15,
        background_vocab=80, doc_len_min=25, doc_len_max=70, seed=11,
    )

    def test_determinism_byte_identical(self, tmp_path):
        a = corpus.generate_synthetic_corpus(self.CFG)
        b = corpus.generate_synthetic_corpus(self.CFG)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        corpus.write_corpus_jsonl(pa, a.train + a.dev + a.test)
        corpus.write_corpus_jsonl(pb, b.train + b.dev + b.test)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        a = corpus.generate_synthetic_corpus(self.CFG)
        b = corpus.generate_synthetic_corpus(
            corpus.SynthConfig(**{**self.CFG.__dict__, "seed": 12})
        )
        assert any(x.text != y.text for x, y in zip(a.train, b.train))

    def test_evidence_phrase_contained_for_every_positive_pair(self):
        synth = corpus.generate_synthetic_corpus(self.CFG)
        checked = 0
        for doc in synth.train + synth.dev + synth.test:
            for code in doc.codes:
                assert contains_phrase(doc.text, synth.evidence_phrases[code])
                checked += 1
        assert checked > 0

    def test_descriptions_share_a_token_with_their_phrase(self):
        synth = corpus.generate_synthetic_corpus(self.CFG)
        for j, code in enumerate(synth.labels.codes):
            desc = set(synth.labels.descriptions[j])
            assert desc & set(synth.evidence_phrases[code])

    def test_split_sizes_and_disjoint_ids(self):
        synth = corpus.generate_synthetic_corpus(self.CFG)
        assert (len(synth.train), len(synth.dev), len(synth.test)) == (80, 15, 15)
        ids = [d.doc_id for d in synth.train + synth.dev + synth.test]
        assert len(set(ids)) == len(ids)

    def test_document_lengths_within_range(self):
        synth = corpus.generate_synthetic_corpus(self.CFG)
        for doc in synth.train:
            n = len(doc.text.split())
            assert self.CFG.doc_len_min <= n <= self.CFG.doc_len_max

    def test_length_cardinality_coupling(self):
        cfg = corpus.SynthConfig(
            n_codes=20, n_train=500, n_dev=10, n_test=10,
            background_vocab=150, doc_len_min=40, doc_len_max=120,
            coupling=0.8, seed=5,
        )
        synth = corpus.generate_synthetic_corpus(cfg)
        lengths = [len(d.text.split()) for d in synth.train]
        cards = [len(d.codes) for d in synth.train]
        assert hand_pearson(lengths, cards) > 0.3

    def test_zipf_marginals_skew(self):
        synth = corpus.generate_synthetic_corpus(self.CFG)
        counts = {c: 0 for c in synth.labels.codes}
        for doc in synth.train:
            for code in doc.codes:
                counts[code] += 1
        ordered = [counts[c] for c in synth.labels.codes]
        assert ordered[0] > ordered[-1]

    def test_infeasible_evidence_placement_rejected(self):
        with pytest.raises(ValueError):
            corpus.SynthConfig(doc_len_min=4, doc_len_max=10, evidence_len_max=6)

    # the bench workloads' shapes with fewer notes, then each edge of the
    # configuration space; 21,000 background words reach five syllables
    @pytest.mark.parametrize("shape", [
        dict(n_codes=20, n_train=40, n_dev=8, n_test=8, background_vocab=150,
             doc_len_min=40, doc_len_max=120, coupling=0.8),
        dict(n_codes=1000, n_train=3, n_dev=1, n_test=2, background_vocab=40000,
             evidence_len_min=2, evidence_len_max=34, doc_len_min=1000, doc_len_max=2000),
        dict(n_codes=48, zipf_exponent=0.0, n_train=1, n_dev=1, n_test=1, background_vocab=2000,
             doc_len_min=12000, doc_len_max=13000),
        dict(n_codes=1, n_train=20, n_dev=2, n_test=2),
        dict(n_codes=9, n_train=20, n_dev=2, n_test=2, evidence_len_max=6, doc_len_min=6,
             doc_len_max=6),
        dict(background_vocab=1, n_train=20, n_dev=2, n_test=2),
        dict(zipf_exponent=0.0, n_train=20, n_dev=2, n_test=2),
        dict(zipf_exponent=2.5, n_train=20, n_dev=2, n_test=2),
        dict(coupling=0.0, n_train=20, n_dev=2, n_test=2),
        dict(coupling=1.0, n_train=20, n_dev=2, n_test=2),
        dict(n_codes=30, background_vocab=21000, n_train=20, n_dev=2, n_test=2),
        dict(n_codes=12, zipf_exponent=3.0, evidence_len_max=2, doc_len_min=24,
             n_train=40, n_dev=4, n_test=4),
    ], ids=["desk", "mimic", "long", "one-code", "fixed-length", "one-background-word",
            "zipf-0", "zipf-2.5", "coupling-0", "coupling-1", "five-syllables",
            "redraw-rounds"])
    def test_equals_the_per_word_generator(self, shape):
        cfg = corpus.SynthConfig(**shape, seed=7)
        new, old = corpus.generate_synthetic_corpus(cfg), per_word_synthetic_corpus(cfg)
        for split in ("train", "dev", "test"):
            assert ([(d.doc_id, d.text, d.codes) for d in getattr(new, split)]
                    == [(d.doc_id, d.text, d.codes) for d in getattr(old, split)])
        assert new.labels.codes == old.labels.codes
        assert new.labels.descriptions == old.labels.descriptions
        assert new.labels.parents == old.labels.parents
        assert new.groups == old.groups
        assert new.evidence_phrases == old.evidence_phrases
        assert all(type(w) is str for p in new.evidence_phrases.values() for w in p)
        if cfg.background_vocab > 12 ** 4:
            assert any(len(w) == 10 for d in new.train for w in d.text.split())

    # up to every code of a steep Zipf law, so a draw takes several rounds
    @pytest.mark.parametrize("n_codes", [1, 2, 3, 7, 20, 48, 200, 1000])
    def test_code_draw_equals_generator_choice(self, n_codes):
        for exponent in (0.0, 0.5, 1.0, 1.5, 3.0):
            marginals = corpus._zipf_marginals(n_codes, exponent)
            cdf = np.cumsum(marginals)
            cdf /= cdf[-1]
            for size in sorted({s for s in (1, 2, 3, n_codes // 2, n_codes)
                                if 1 <= s <= n_codes}):
                for seed in range(25):
                    ours, numpy_s = np.random.default_rng(seed), np.random.default_rng(seed)
                    codes = corpus._draw_codes(ours, cdf, marginals, size)
                    want = np.sort(numpy_s.choice(n_codes, size, replace=False, p=marginals))
                    assert codes.dtype == want.dtype and codes.tolist() == want.tolist()
                    # the generator is left where `choice` leaves it
                    assert ours.random() == numpy_s.random()

    # each side of a change in the number of syllables
    @pytest.mark.parametrize("n", [1, 11, 12, 13, 143, 144, 145, 1727, 1728, 20735, 20737])
    def test_word_table_spells_each_number(self, n):
        assert corpus._word_table(n).tolist() == [_word(i) for i in range(n)]

    def test_bad_zipf_exponent_rejected(self):
        for exponent in (math.nan, math.inf, -math.inf, 1e308, -400.0):
            with pytest.raises(ValueError, match="zipf_exponent must be finite"):
                corpus.SynthConfig(zipf_exponent=exponent)
        # one code has marginal 1 whatever the finite exponent
        assert corpus.SynthConfig(n_codes=1, zipf_exponent=1e308).n_codes == 1

    def test_hierarchy_is_acyclic_forest_over_codes(self):
        synth = corpus.generate_synthetic_corpus(self.CFG)
        parents = synth.labels.parents
        assert parents
        codes = set(synth.labels.codes)
        assert set(parents) <= codes and set(parents.values()) <= codes


class TestFileFormats:
    def test_corpus_jsonl_round_trip(self, tmp_path):
        docs = [
            corpus.RawDocument("a", "some text", {"X", "Y"}),
            corpus.RawDocument("b", "", set()),
        ]
        path = tmp_path / "c.jsonl"
        corpus.write_corpus_jsonl(path, docs)
        loaded = corpus.read_corpus_jsonl(path)
        assert [(d.doc_id, d.text, d.codes) for d in loaded] == [
            ("a", "some text", {"X", "Y"}),
            ("b", "", set()),
        ]

    def test_json_writers_bytes(self, tmp_path):
        # one indented document; one compact sorted-key object per line
        obj = {"b": [1, 2.5], "a": {"z": None, "y": True}, "é": "ü"}
        corpus.write_json(tmp_path / "o.json", obj)
        assert (tmp_path / "o.json").read_bytes() == (
            json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
        assert b"\\u00e9" in (tmp_path / "o.json").read_bytes()
        corpus.write_jsonl(tmp_path / "o.jsonl", [obj, {"k": 1}])
        assert (tmp_path / "o.jsonl").read_text(encoding="utf-8") == (
            '{"a": {"y": true, "z": null}, "b": [1, 2.5], "é": "ü"}\n{"k": 1}\n')

    def test_malformed_jsonl_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "a", "text": "t", "codes": []}\nnot json\n')
        with pytest.raises(corpus.DataFormatError, match=":2:"):
            list(corpus.read_corpus_jsonl(path))

    def test_wrong_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "a", "body": "t", "codes": []}\n')
        with pytest.raises(corpus.DataFormatError, match=":1:"):
            list(corpus.read_corpus_jsonl(path))

    # each once ended in a traceback, or ("101.1") was read as the
    # character set {"1", "0", "."}
    @pytest.mark.parametrize("field, value", [
        ("text", 5), ("codes", 7), ("doc_id", ["a"]), ("codes", [["z"]]), ("codes", "101.1"),
        ("doc_id", None), ("text", ["t"]), ("codes", ["1", 2]),
    ])
    def test_field_of_the_wrong_type_rejected(self, tmp_path, field, value):
        path = tmp_path / "bad.jsonl"
        good = {"doc_id": "a", "text": "t", "codes": ["1"]}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "doc_id": "b", field: value}))
        with pytest.raises(corpus.DataFormatError, match=r"bad\.jsonl:2: doc_id and text must"):
            list(corpus.read_corpus_jsonl(path))

    def test_duplicate_doc_id_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        line = '{"doc_id": "a", "text": "t", "codes": []}\n'
        path.write_text(line + line)
        with pytest.raises(corpus.DataFormatError, match="duplicate"):
            list(corpus.read_corpus_jsonl(path))

    def test_descriptions_round_trip(self, tmp_path):
        space = _toy_space()
        path = tmp_path / "desc.tsv"
        corpus.write_pairs_tsv(path, zip(space.codes, map(" ".join, space.descriptions)))
        loaded = corpus.read_descriptions_tsv(path)
        assert loaded == {"A": "alpha disease", "B": "beta disease", "C": "gamma"}
        assert list(loaded) == ["A", "B", "C"]

    def test_hierarchy_round_trip_and_cycle_check(self, tmp_path):
        path = tmp_path / "h.tsv"
        corpus.write_pairs_tsv(path, [("B", "A"), ("C", "B")])
        assert path.read_text() == "B\tA\nC\tB\n"
        assert corpus.read_hierarchy_tsv(path) == {"B": "A", "C": "B"}
        # the reader returns a cycle as read; the label space refuses it
        path.write_text("A\tB\nB\tA\n")
        parents = corpus.read_hierarchy_tsv(path)
        assert parents == {"A": "B", "B": "A"}
        with pytest.raises(ValueError, match="cycle"):
            corpus.make_label_space({"A": "alpha", "B": "beta"}, parents)

    def test_groups_and_counts_round_trip(self, tmp_path):
        gp = tmp_path / "g.tsv"
        corpus.write_pairs_tsv(gp, [("A", "diagnosis"), ("B", "procedure")])
        assert corpus.read_groups_tsv(gp) == {"A": "diagnosis", "B": "procedure"}
        cp = tmp_path / "c.tsv"
        corpus.write_pairs_tsv(cp, [("A", 4), ("B", 0)])
        assert corpus.read_counts_tsv(cp) == {"A": 4, "B": 0}
        cp.write_text("A\tnot-a-number\n")
        with pytest.raises(corpus.DataFormatError, match=":1:"):
            corpus.read_counts_tsv(cp)
        # a negative count once loaded, and the binned F1 dropped its label
        cp.write_text("A\t4\n100.0\t-5\n")
        with pytest.raises(corpus.DataFormatError, match=re.escape(f"{cp}:2: bad count '-5'")):
            corpus.read_counts_tsv(cp)

    @pytest.mark.parametrize("reader", [
        corpus.read_descriptions_tsv, corpus.read_hierarchy_tsv,
        corpus.read_groups_tsv, corpus.read_counts_tsv,
    ], ids=["descriptions", "hierarchy", "groups", "counts"])
    def test_two_column_files_reject_bad_lines(self, reader, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("A\t1\n\nB\t2\nA\t3\n")
        with pytest.raises(corpus.DataFormatError, match=re.escape(f"{path}:4: duplicate")):
            reader(path)
        path.write_text("A\t1\nB\t2\textra\n")
        with pytest.raises(corpus.DataFormatError, match=re.escape(f"{path}:2: expected")):
            reader(path)


def _checkpoint_file(path):
    cfg = model.ModelConfig(kind="mvc-rlda", kernel_sizes=(1, 3), n_filters=2, embed_dim=3)
    rng = np.random.default_rng(0)
    params = model.init_params(cfg, 5, 2, rng, random_table(rng, 5, 3))
    model.save_checkpoint(path, params, "ab" * 32)
    return model.load_checkpoint


def _embeddings_file(path):
    embed.save_embeddings(path, np.arange(12.0).reshape(4, 3), "cd" * 32)
    return lambda p: embed.load_embeddings(p, "cd" * 32)


def _baseline_file(path):
    featurizer = baseline.TfidfFeaturizer(["x", "y", "z"], np.ones(3), np.arange(3))
    ovr = baseline.LinearOvrModel(nodes=["A", "B"], rows=np.array([1]), weights=np.ones((1, 3)),
                                  bias=np.zeros(2))
    baseline.save_baseline(path, featurizer, ovr)
    return lambda p: corpus.read_tensor_file(
        p, baseline.BASELINE_FORMAT, baseline.BASELINE_FORMAT_VERSION
    )


def _rewrite(header, body):
    return json.dumps(header).encode() + b"\n" + body


# Each way a tensor file can be malformed, as (header, payload) -> file bytes.
TENSOR_FILE_DAMAGES = {
    "other_format": lambda h, b: _rewrite({**h, "format": "other"}, b),
    "other_version": lambda h, b: _rewrite({**h, "version": 99}, b),
    "header_not_object": lambda h, b: b"[1, 2]\n" + b,
    "header_not_json": lambda h, b: b"\xff\xfe junk\n" + b,
    "no_tensors_list": lambda h, b: _rewrite({k: v for k, v in h.items() if k != "tensors"}, b),
    # the next four are refused by the header check each names, before any
    # size is compared; a float32 tensor keeps its "<f4"
    "negative_dimension": lambda h, b: _rewrite(
        {**h, "tensors": [[h["tensors"][0][0], [-1, -math.prod(h["tensors"][0][1])],
                           *h["tensors"][0][2:]]] + h["tensors"][1:]}, b),
    "duplicate_name": lambda h, b: _rewrite(
        {**h, "tensors": h["tensors"] + [[h["tensors"][0][0], [0]]]}, b),
    # float64 is the entry without a dtype; no other dtype string is read
    "named_float64": lambda h, b: _rewrite(
        {**h, "tensors": [[*h["tensors"][0][:2], "<f8"]] + h["tensors"][1:]}, b),
    "unknown_dtype": lambda h, b: _rewrite(
        {**h, "tensors": [[*h["tensors"][0][:2], "float32"]] + h["tensors"][1:]}, b),
    "oversized_tensor": lambda h, b: _rewrite(
        {**h, "tensors": [[h["tensors"][0][0], [10**6, 10**6]]] + h["tensors"][1:]}, b),
    "short_payload": lambda h, b: _rewrite(h, b[:-8]),
    "trailing_bytes": lambda h, b: _rewrite(h, b + b"garbage"),
}


def damage_tensor_file(path, damage: str) -> None:
    head, _, body = path.read_bytes().partition(b"\n")
    path.write_bytes(TENSOR_FILE_DAMAGES[damage](json.loads(head), body))


class TestTensorFile:
    """The one header-plus-tensors container behind the checkpoint,
    embeddings and baseline files: float64 tensors, and float32 ones named
    as such."""

    @pytest.mark.parametrize("damage", list(TENSOR_FILE_DAMAGES))
    @pytest.mark.parametrize("write", [_checkpoint_file, _embeddings_file, _baseline_file],
                             ids=["checkpoint", "embeddings", "baseline"])
    def test_rejects(self, write, damage, tmp_path):
        path = tmp_path / "file.bin"
        load = write(path)
        load(path)
        damage_tensor_file(path, damage)
        with pytest.raises(corpus.DataFormatError, match=re.escape(str(path))):
            load(path)

    def test_round_trip_in_order(self, tmp_path):
        path = tmp_path / "t.bin"
        tensors = [("b", np.arange(6.0).reshape(3, 2).T), ("a", np.float64(2.5)),
                   ("empty", np.zeros((0, 4)))]
        corpus.write_tensor_file(path, {"format": "f", "version": 3, "note": "x"}, tensors)
        header, arrays, payload = corpus.read_tensor_file(path, "f", 3)
        assert header["note"] == "x"
        assert list(arrays) == ["b", "a", "empty"]
        for name, arr in tensors:
            assert arrays[name].shape == np.shape(arr)
            assert np.array_equal(arrays[name], arr)
            assert arrays[name].flags.writeable
        # every tensor is a view of the one payload array, read in file order
        assert payload.tobytes() == path.read_bytes().partition(b"\n")[2]
        assert np.shares_memory(arrays["b"], payload) and np.shares_memory(arrays["a"], payload)

    def test_float32_round_trip_beside_float64(self, tmp_path):
        path = tmp_path / "t.bin"
        tensors = [("w", np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3)),
                   ("d", np.arange(3.0) / 7), ("s", np.float32(1 / 3))]
        corpus.write_tensor_file(path, {"format": "f", "version": 1}, tensors)
        header, arrays, _ = corpus.read_tensor_file(path, "f", 1)
        assert header["tensors"] == [["w", [2, 3], "<f4"], ["d", [3]], ["s", [], "<f4"]]
        for name, arr in tensors:
            assert arrays[name].dtype == np.asarray(arr).dtype, name
            assert arrays[name].tobytes() == np.asarray(arr).tobytes(), name

    def test_float64_files_keep_the_legacy_layout(self, tmp_path):
        # a file of [name, shape] entries, every tensor as <f8, reads as
        # before and is written byte for byte as before; a non-float32
        # array is stored as float64
        tensors = [("a", np.arange(6.0).reshape(2, 3) / 3), ("n", np.array([1, 2]))]
        legacy = (json.dumps({"format": "f", "tensors": [["a", [2, 3]], ["n", [2]]],
                              "version": 1}, sort_keys=True) + "\n").encode()
        legacy += b"".join(np.asarray(a, dtype="<f8").tobytes() for _, a in tensors)
        path = tmp_path / "t.bin"
        corpus.write_tensor_file(path, {"format": "f", "version": 1}, tensors)
        assert path.read_bytes() == legacy
        old = tmp_path / "old.bin"
        old.write_bytes(legacy)
        _, arrays, _ = corpus.read_tensor_file(old, "f", 1)
        for name, arr in tensors:
            assert arrays[name].dtype == np.float64
            assert np.array_equal(arrays[name], arr)

    def test_float32_sizes_are_checked_before_allocating(self, tmp_path):
        path = tmp_path / "t.bin"
        corpus.write_tensor_file(path, {"format": "f", "version": 1},
                                 [("w", np.ones((4, 5), dtype=np.float32))])
        head, _, body = path.read_bytes().partition(b"\n")
        assert len(body) == 4 * 20  # four bytes a value, not eight
        path.write_bytes(head + b"\n" + body[:-4])
        with pytest.raises(corpus.DataFormatError, match="truncated"):
            corpus.read_tensor_file(path, "f", 1)
        header = dict(json.loads(head), tensors=[["w", [10**6, 10**6], "<f4"]])
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        tracemalloc.start()
        try:
            with pytest.raises(corpus.DataFormatError, match="truncated"):
                corpus.read_tensor_file(path, "f", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
