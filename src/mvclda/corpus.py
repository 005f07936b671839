"""Text preprocessing, vocabulary construction, dataset encoding, and
seeded synthetic corpus generation.

A note is held as one int32 array of ids in its command's word table, a
dict from word to id in the training split's first-seen order; the id
len(table) stands for every word outside it. Vocabularies are built from
those and map them to int32 ids.

All operations here are pure given their inputs; randomness is an
explicit seeded stream.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

# Characters stripped from token edges. Internal hyphens/slashes are kept
# so clinical tokens like "x-ray" survive.
PUNCT_EDGE = ".,;:!?\"'()[]{}"


class DataFormatError(ValueError):
    """Malformed input file (carries a line number where available)."""


def preprocess_text(raw: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, and drop
    tokens made solely of ASCII digits (unicode digit lookalikes are kept).
    Empty input gives an empty list."""
    tokens = []
    for piece in raw.lower().split():
        tok = piece.strip(PUNCT_EDGE)
        if tok and not (tok.isascii() and tok.isdigit()):
            tokens.append(tok)
    return tokens


@dataclass
class RawDocument:
    doc_id: str
    text: str
    codes: set[str]


@dataclass
class Vocabulary:
    """Token/id bijection over retained tokens plus a reserved OOV id.

    Retained tokens are those occurring in at least `min_doc_freq` distinct
    training documents; ids are assigned by descending document frequency
    with lexicographic tie-break, and the OOV id comes last: `token_to_id`
    and `oov_id` follow from `id_to_token`.
    """

    id_to_token: list[str]
    doc_freq: dict[str, int]
    token_to_id: dict[str, int] = field(init=False)
    oov_id: int = field(init=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        self.oov_id = len(self.id_to_token)

    @property
    def size(self) -> int:
        """Number of ids including the OOV row."""
        return len(self.id_to_token) + 1

    def encode(self, tokens: list[str]) -> np.ndarray:
        return np.fromiter(map(self.token_to_id.get, tokens, repeat(self.oov_id)), np.int32,
                           count=len(tokens))

    def lookup(self, words: dict[str, int]) -> np.ndarray:
        """The int32 id of each id of the word table `words`, then of the id
        len(words), which stands for every word outside the table: OOV."""
        return np.append(self.encode(list(words)), np.int32(self.oov_id))


def build_vocabulary(notes: list[np.ndarray], words: dict[str, int],
                     min_doc_freq: int) -> Vocabulary:
    """Build a vocabulary from the training notes, each an array of ids in
    the word table `words`: a word is retained iff it occurs in >=
    min_doc_freq distinct notes."""
    if not notes:
        raise ValueError("cannot build a vocabulary from an empty training set")
    counts = np.bincount(np.concatenate([np.unique(n) for n in notes]), minlength=len(words))
    df = {w: c for w, c in zip(words, counts.tolist()) if c >= min_doc_freq}
    # by descending frequency, ties in lexicographic order (a stable sort)
    retained = sorted(sorted(df), key=df.__getitem__, reverse=True)
    return Vocabulary(retained, {t: df[t] for t in retained})


@dataclass
class LabelSpace:
    """Code/index map plus per-code descriptions and optional hierarchy.

    `parents` maps a code to its parent node name, and is empty without a
    hierarchy; parent names need not be codes of the label space themselves
    (internal taxonomy nodes).
    """

    codes: list[str]
    descriptions: list[list[str]]
    parents: dict[str, str] = field(default_factory=dict)
    code_to_index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.code_to_index = {c: i for i, c in enumerate(self.codes)}
        if len(self.codes) != len(self.descriptions):
            raise ValueError("one description required per code")
        for code, desc in zip(self.codes, self.descriptions):
            if not desc:
                raise ValueError(f"empty description for code {code!r}")
        _check_acyclic(self.parents)

    @property
    def n_labels(self) -> int:
        return len(self.codes)


def _check_acyclic(parents: dict[str, str]) -> None:
    for start in parents:
        seen = {start}
        node = start
        while node in parents:
            node = parents[node]
            if node in seen:
                raise ValueError(f"hierarchy contains a cycle through {node!r}")
            seen.add(node)


def make_label_space(descriptions: dict[str, str], parents: dict[str, str] | None) -> LabelSpace:
    """Build a LabelSpace from raw description strings (preprocessed here).

    Codes are indexed in the iteration order of `descriptions`.
    """
    codes = list(descriptions)
    return LabelSpace(
        codes=codes,
        descriptions=[preprocess_text(descriptions[c]) for c in codes],
        parents=dict(parents or {}),
    )


@dataclass
class EncodedDocument:
    token_ids: np.ndarray  # int32 vocabulary ids
    gold: np.ndarray  # the sorted int64 ids of its gold labels

    @property
    def length(self) -> int:
        return len(self.token_ids)


def encode_gold(raw: RawDocument, labels: LabelSpace) -> tuple[np.ndarray, int]:
    """The document's gold codes as the sorted int64 array of their label
    ids, and the count of gold codes dropped because the label space does
    not contain them."""
    index = labels.code_to_index
    gold = np.array(sorted(index[c] for c in raw.codes if c in index), dtype=np.int64)
    return gold, len(raw.codes) - len(gold)


def gold_cells(golds) -> tuple[np.ndarray, np.ndarray]:
    """The positive cells of a split's documents x labels gold, from each
    document's sorted label ids: int64 (rows, cols) in row-major order, the
    form the metrics and the baselines take."""
    golds = list(golds)
    rows = np.repeat(np.arange(len(golds)), [len(g) for g in golds])
    return rows, np.concatenate([np.zeros(0, np.int64), *golds])


def encode_corpus(notes: list, words: dict, encoded_gold: tuple[list[np.ndarray], int],
                  vocab: Vocabulary) -> tuple[list[EncodedDocument], int]:
    """Encode each note's ids in the word table `words` (len(words) for a
    word outside it) as int32 vocabulary ids beside its gold ids;
    `encoded_gold` is `encode_gold`'s (ids, dropped) of the same documents.
    Returns the documents and the dropped count."""
    golds, dropped = encoded_gold
    lookup = vocab.lookup(words)
    return [EncodedDocument(lookup[n], g) for n, g in zip(notes, golds)], dropped


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

def _zipf_marginals(n_codes: int, exponent: float) -> np.ndarray:
    """P(code j) proportional to (j + 1) ** -exponent. No floating-point
    error is raised: an exponent that overflows or underflows shows as a
    marginal that is not finite or not positive."""
    with np.errstate(all="ignore"):
        weights = np.arange(1, n_codes + 1, dtype=np.float64) ** (-exponent)
        return weights / weights.sum()


@dataclass(frozen=True)
class SynthConfig:
    n_codes: int = 20
    zipf_exponent: float = 1.0
    n_train: int = 500
    n_dev: int = 100
    n_test: int = 100
    background_vocab: int = 200
    evidence_len_min: int = 2
    evidence_len_max: int = 6
    doc_len_min: int = 40
    doc_len_max: int = 120
    coupling: float = 0.8
    seed: int = 0

    def __post_init__(self):
        counts = (
            self.n_codes, self.n_train, self.n_dev, self.n_test,
            self.background_vocab, self.evidence_len_min, self.evidence_len_max,
            self.doc_len_min, self.doc_len_max,
        )
        if any(c <= 0 for c in counts):
            raise ValueError("all synthetic corpus counts must be positive")
        if self.evidence_len_min > self.evidence_len_max:
            raise ValueError("evidence length range is inverted")
        if self.doc_len_min > self.doc_len_max:
            raise ValueError("document length range is inverted")
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling strength must lie in [0, 1]")
        if self.evidence_len_max > self.doc_len_min:
            raise ValueError(
                "evidence phrases cannot be placed: evidence_len_max exceeds doc_len_min"
            )
        marginals = _zipf_marginals(self.n_codes, self.zipf_exponent)
        if not (math.isfinite(self.zipf_exponent) and np.isfinite(marginals).all()
                and (marginals > 0).all()):
            raise ValueError(
                f"zipf_exponent must be finite with every code marginal over "
                f"{self.n_codes} codes finite and positive, not {self.zipf_exponent}"
            )


@dataclass
class SyntheticCorpus:
    train: list[RawDocument]
    dev: list[RawDocument]
    test: list[RawDocument]
    labels: LabelSpace
    groups: dict[str, str] = field(default_factory=dict)
    evidence_phrases: dict[str, list[str]] = field(default_factory=dict)


_SYLLABLES = [
    "ba", "re", "mo", "ti", "lu", "sa", "ne", "ko", "da", "pi", "fo", "gu",
]

_DESC_FILLERS = [
    "acute", "chronic", "unspecified", "disorder", "of", "with", "primary",
    "secondary", "syndrome", "recurrent",
]


def _word_table(n: int) -> np.ndarray:
    """The n synthetic words: word i spells the number i + 1 in base 12,
    most significant digit first, one syllable per digit. Built one digit
    count at a time: a number's word is the word of its leading digits
    (the number // 12) plus its last digit's syllable. Returned as an
    object array of Python strings, which a gather need not convert."""
    base = len(_SYLLABLES)
    n_digits = 1
    while base ** n_digits <= n:
        n_digits += 1
    syllables = np.array(_SYLLABLES)
    words = np.zeros(n + 1, dtype=f"<U{2 * n_digits}")  # by number; 0 is ""
    lo = 1
    while lo <= n:
        hi = min(lo * base, n + 1)
        k = np.arange(lo, hi)
        words[lo:hi] = np.char.add(words[k // base], syllables[k % base])
        lo = hi
    return words[1:].astype(object)


def _draw_codes(rng: np.random.Generator, cdf: np.ndarray, marginals: np.ndarray,
                size: int) -> np.ndarray:
    """`size` distinct codes drawn as `rng.choice(len(marginals), size,
    replace=False, p=marginals)` draws them, from the same uniforms, and
    returned sorted; `cdf` is the marginals' cumulative sum over its last
    element. Each uniform picks the code whose CDF step it falls in; while
    codes are missing, one uniform per missing code is mapped through the
    CDF of the marginals with the codes found so far zeroed. Every marginal
    is positive and `size` at most the number of codes, as `SynthConfig`
    ensures; `choice` checks both again on each call."""
    codes = np.unique(cdf.searchsorted(rng.random(size), side="right"))
    while len(codes) < size:
        rest = marginals.copy()
        rest[codes] = 0
        rest_cdf = np.cumsum(rest)
        rest_cdf /= rest_cdf[-1]
        codes = np.union1d(codes, rest_cdf.searchsorted(rng.random(size - len(codes)),
                                                        side="right"))
    return codes


def generate_synthetic_corpus(cfg: SynthConfig) -> SyntheticCorpus:
    """Generate a deterministic labeled corpus with planted evidence.

    Every code gets a unique evidence phrase; a document positive for a code
    contains that phrase verbatim. Code marginals follow a Zipf law, and the
    number of positive codes per document rises stochastically with document
    length (`coupling` controls the strength). A document's codes are drawn
    exactly as `Generator.choice` without replacement draws them, from one
    CDF of the marginals per corpus.

    Each code's phrase as one text, then each background word, form a table
    of units; a note is its units' texts joined in the drawn order.
    """
    rng = np.random.default_rng(cfg.seed)
    code_names = [f"{100 + j}.{j % 10}" for j in range(cfg.n_codes)]

    lengths, fillers = [], []
    for _ in range(cfg.n_codes):
        lengths.append(int(rng.integers(cfg.evidence_len_min, cfg.evidence_len_max + 1)))
        fillers.append((_DESC_FILLERS[int(rng.integers(len(_DESC_FILLERS)))],
                        _DESC_FILLERS[int(rng.integers(len(_DESC_FILLERS)))]))
    lengths = np.array(lengths, dtype=np.int64)
    words = _word_table(cfg.background_vocab + int(lengths.sum()))
    background, *phrases = np.split(words, cfg.background_vocab + np.cumsum(lengths) - lengths)
    phrases = [p.tolist() for p in phrases]
    descriptions = {code: " ".join([a, *phrase[:2], b])
                    for code, phrase, (a, b) in zip(code_names, phrases, fillers)}
    units = np.concatenate([np.array([" ".join(p) for p in phrases], dtype=object), background])

    # forest over the codes: the first ~sqrt(n) codes are roots
    n_roots = max(1, int(math.isqrt(cfg.n_codes)))
    parents: dict[str, str] = {}
    for j in range(n_roots, cfg.n_codes):
        parents[code_names[j]] = code_names[int(rng.integers(0, j))]

    groups = {
        code: ("diagnosis" if j % 2 == 0 else "procedure")
        for j, code in enumerate(code_names)
    }

    marginals = _zipf_marginals(cfg.n_codes, cfg.zipf_exponent)
    cdf = np.cumsum(marginals)
    cdf /= cdf[-1]

    # global cardinality cap chosen so any sampled code set always fits
    card_cap = max(1, min(cfg.n_codes, cfg.doc_len_min // cfg.evidence_len_max))

    def make_doc(split: str, i: int) -> RawDocument:
        length = int(rng.integers(cfg.doc_len_min, cfg.doc_len_max + 1))
        t = (length - cfg.doc_len_min) / max(1, cfg.doc_len_max - cfg.doc_len_min)
        mix = cfg.coupling * t + (1.0 - cfg.coupling) * rng.random()
        n_pos = 1 + int(math.floor(mix * (card_cap - 1) + 1e-12))
        chosen = _draw_codes(rng, cdf, marginals, n_pos)
        # the units: each chosen code's phrase, then one-word background units
        n_background = length - int(lengths[chosen].sum())
        ids = np.concatenate(
            [chosen, cfg.n_codes + rng.integers(0, cfg.background_vocab, n_background)])
        order = rng.permutation(len(ids))
        return RawDocument(
            doc_id=f"{split}-{i:05d}",
            text=" ".join(units[ids[order]].tolist()),
            codes={code_names[j] for j in chosen.tolist()},
        )

    train = [make_doc("train", i) for i in range(cfg.n_train)]
    dev = [make_doc("dev", i) for i in range(cfg.n_dev)]
    test = [make_doc("test", i) for i in range(cfg.n_test)]

    labels = make_label_space(descriptions, parents)
    return SyntheticCorpus(train, dev, test, labels, groups, dict(zip(code_names, phrases)))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_json(path, obj) -> None:
    """`obj` as one JSON document, indented 2 with sorted keys, and a
    trailing newline: the writer of every JSON artifact (manifests, metrics
    reports, the Hyperband best config, the ablation report)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# what `json.dumps(row, ensure_ascii=False, sort_keys=True)` builds anew per call
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def write_jsonl(path, rows) -> None:
    """One sorted-key JSON object per line, non-ASCII text kept as is: the
    writer of every JSON-lines file (corpora, training histories, trial logs)."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(_JSONL_ENCODER.encode(row) + "\n")


def write_corpus_jsonl(path, docs: list[RawDocument]) -> None:
    write_jsonl(path, ({"doc_id": d.doc_id, "text": d.text, "codes": sorted(d.codes)}
                       for d in docs))


def read_corpus_jsonl(path):
    """The documents of a corpus file, yielded one line at a time, so no
    more than one note's text is held. A line that is not one document's
    JSON object, or a doc_id seen before, raises DataFormatError naming
    `path:line` when the reader reaches it."""
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict) or set(obj) != {"doc_id", "text", "codes"}:
                raise DataFormatError(
                    f"{path}:{lineno}: expected exactly doc_id/text/codes fields"
                )
            doc_id, codes = obj["doc_id"], obj["codes"]
            if not (isinstance(doc_id, str) and isinstance(obj["text"], str)
                    and isinstance(codes, list) and all(isinstance(c, str) for c in codes)):
                raise DataFormatError(
                    f"{path}:{lineno}: doc_id and text must be strings, codes a list of strings"
                )
            if doc_id in seen:
                raise DataFormatError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            yield RawDocument(doc_id=doc_id, text=obj["text"], codes=set(codes))


def write_pairs_tsv(path, pairs) -> None:
    """One `key<TAB>value` line per pair, in the order given: the writer of
    every two-column file (descriptions, hierarchy, groups, counts)."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs:
            fh.write(f"{key}\t{value}\n")


def _read_pairs(path, columns: str, parse=str, skip: int = 0) -> dict:
    """TSV with the fields `columns` names ("code<TAB>group") as {first
    field: the others, each through `parse`}: the one other field of a
    two-column file, else a tuple of them. The first `skip` lines (headers)
    and blank lines are passed over. A line without exactly those fields,
    a first field seen before, or a field `parse` rejects raises
    DataFormatError naming `path:line`."""
    key_name, *value_names = columns.split("<TAB>")
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if lineno <= skip or not line:
                continue
            key, *raws = line.split("\t")
            if len(raws) != len(value_names):
                raise DataFormatError(f"{path}:{lineno}: expected {columns}")
            if key in out:
                raise DataFormatError(f"{path}:{lineno}: duplicate {key_name} {key!r}")
            values = []
            for name, raw in zip(value_names, raws):
                try:
                    values.append(parse(raw))
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{lineno}: bad {name} {raw!r}: {exc}") from exc
            out[key] = values[0] if len(values) == 1 else tuple(values)
    return out


def read_descriptions_tsv(path) -> dict[str, str]:
    return _read_pairs(path, "code<TAB>description")


def read_hierarchy_tsv(path) -> dict[str, str]:
    return _read_pairs(path, "child<TAB>parent")


def read_groups_tsv(path) -> dict[str, str]:
    return _read_pairs(path, "code<TAB>group")


def read_counts_tsv(path) -> dict[str, int]:
    def count(raw: str) -> int:
        if (n := int(raw)) < 0:
            raise ValueError("a count is at least 0")
        return n
    return _read_pairs(path, "code<TAB>count", count)


# A tensor's stored dtype: little-endian float32 for a float32 array, named
# in its header entry; little-endian float64, unnamed, for any other.
FLOAT32 = "<f4"
FLOAT64 = "<f8"


def write_tensor_file(path, header: dict, tensors) -> None:
    """One JSON header line (sorted keys): `header` plus a `tensors` list,
    one entry per tensor: [name, shape] for a float64 one, [name, shape,
    "<f4"] for a float32 one. Then each tensor, little-endian, in the order
    given. A float32 array is stored as float32, any other as float64.
    Round-trips bit-exactly through `read_tensor_file`."""
    arrays = [(name, np.asarray(arr)) for name, arr in tensors]
    arrays = [(name, arr.astype(FLOAT32 if arr.dtype == np.float32 else FLOAT64, copy=False))
              for name, arr in arrays]
    header = dict(header, tensors=[[name, list(arr.shape), FLOAT32] if arr.dtype == FLOAT32
                                   else [name, list(arr.shape)] for name, arr in arrays])
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for _name, arr in arrays:
            fh.write(np.ascontiguousarray(arr).data)  # no copy of a C-ordered array


def _is_tensor_entry(entry) -> bool:
    # [name, shape] or [name, shape, "<f4"]; bool is an int subclass, but
    # `true` is not a size
    return (isinstance(entry, list) and len(entry) in (2, 3) and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(n) is int and n >= 0 for n in entry[1])
            and entry[2:] in ([], [FLOAT32]))


def read_tensor_file(path, fmt: str,
                     version: int) -> tuple[dict, dict[str, np.ndarray], np.ndarray]:
    """Read a `write_tensor_file` file of format `fmt` at `version`; return
    (header, {name: array} in file order, payload). The payload is the one
    byte array all tensors were read into, each array a writable view of
    it, so a caller may take it whole as another view.

    Another format or version, a header that is not a JSON object with a
    valid `tensors` list (a dtype other than "<f4" named in an entry is
    invalid), a duplicate tensor name, or a payload other than exactly the
    declared tensors raises DataFormatError. The declared sizes
    are checked against the file's length before the payload is read, so no
    header can make the reader allocate more than the file holds."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            header = None
        if not isinstance(header, dict):
            raise DataFormatError(f"{path}: header is not a JSON object; not a {fmt} file")
        if (header.get("format"), header.get("version")) != (fmt, version):
            raise DataFormatError(
                f"{path}: format {header.get('format')!r} version {header.get('version')!r}, "
                f"expected {fmt!r} version {version}"
            )
        entries = header.get("tensors")
        if not isinstance(entries, list) or not all(map(_is_tensor_entry, entries)):
            raise DataFormatError(
                f"{path}: header has no valid tensors list of [name, shape] or "
                f"[name, shape, {FLOAT32!r}]"
            )
        if len({entry[0] for entry in entries}) != len(entries):
            raise DataFormatError(f"{path}: duplicate tensor name in header")
        dtypes = [np.dtype(FLOAT32 if entry[2:] else FLOAT64) for entry in entries]
        sizes = [dtype.itemsize * math.prod(entry[1]) for entry, dtype in zip(entries, dtypes)]
        total, left = sum(sizes), os.fstat(fh.fileno()).st_size - fh.tell()
        if total != left:
            problem = "truncated" if total > left else "trailing bytes after the last tensor"
            raise DataFormatError(
                f"{path}: {problem}: the header declares {total} bytes of tensors, "
                f"the file holds {left}"
            )
        payload = np.empty(total, np.uint8)
        if fh.readinto(payload) != total:
            raise DataFormatError(f"{path}: truncated while reading")
    arrays, offset = {}, 0
    for (name, shape, *_), dtype, size in zip(entries, dtypes, sizes):
        arrays[name] = payload[offset : offset + size].view(dtype).reshape(shape)
        offset += size
    return header, arrays, payload


VOCAB_FORMAT_VERSION = 1


def vocabulary_bytes(vocab: Vocabulary) -> bytes:
    """TSV: one header line (format version + oov id), then token/id/doc_freq."""
    lines = [f"#version={VOCAB_FORMAT_VERSION}\toov_id={vocab.oov_id}\n"]
    lines += [f"{tok}\t{i}\t{vocab.doc_freq[tok]}\n" for i, tok in enumerate(vocab.id_to_token)]
    return "".join(lines).encode("utf-8")


def _parse_int(path, lineno: int, name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: bad {name} {raw!r}") from None


def load_vocabulary(path) -> Vocabulary:
    """The vocabulary of a `vocabulary_bytes` file: its header, then its
    rows through `_read_pairs`, whose ids must count up from 0 and be
    followed by the header's oov_id."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    if not header.startswith("#version="):
        raise DataFormatError(f"{path}:1: missing vocabulary header")
    fields = dict(p.partition("=")[::2] for p in header[1:].split("\t"))
    if _parse_int(path, 1, "version", fields["version"]) != VOCAB_FORMAT_VERSION:
        raise DataFormatError(f"{path}:1: unsupported vocabulary format version")
    # a missing oov_id fails the check below
    oov_id = _parse_int(path, 1, "oov_id", fields.get("oov_id", "-1"))
    rows = _read_pairs(path, "token<TAB>id<TAB>doc_freq", int, skip=1)
    if [ident for ident, _ in rows.values()] != list(range(len(rows))):
        raise DataFormatError(f"{path}: ids must be dense and in order")
    vocab = Vocabulary(list(rows), {tok: freq for tok, (_, freq) in rows.items()})
    if oov_id != vocab.oov_id:
        raise DataFormatError(f"{path}: oov_id does not follow the retained tokens")
    return vocab
