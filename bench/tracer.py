"""Spans around calls into mvclda's public functions, set from the outside.

The program has no tracing of its own. This module replaces module and class
attributes of `mvclda` with wrappers that record one span per call (name,
start, end, parent) in memory, and restores the originals afterwards. Two
levels exist:

- "phase": the handful of calls the end-to-end metrics are cut from (one
  CLI command, CBOW, the training loop, inference, the metrics report).
  A few spans per command, so its cost is nil.
- "layer": every public function named in the README's layer table. This
  is the traced run; its cost is reported as the tracing overhead.

Self time of a span is its duration minus the durations of its direct
children. Calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}

    @property
    def duration(self) -> float:
        return (self.end - self.start) / 1e9


def _doc_tokens(docs) -> int:
    return int(sum(int(d.length) for d in docs))


def _train_attrs(span, args, kwargs, result):
    _params, train_docs, _dev, _desc, cfg = args[:5]
    epochs = len(result[1].epochs)
    per_epoch = sum(min(int(d.length), cfg.max_segment) for d in train_docs)
    span.attrs.update(epochs=epochs, tokens=epochs * per_epoch)


def _cbow_attrs(span, args, kwargs, result):
    docs, _vocab_size, cfg = args[:3]
    span.attrs["centers"] = cfg.epochs * sum(len(d) for d in docs if len(d) > 1)


class Tracer:
    """Collects spans from wrapped functions; `install` wraps, `restore`
    puts every original back."""

    def __init__(self, level: str):
        self.level = level  # "phase" or "layer"
        self.spans: list[Span] = []
        self.kept: dict[str, object] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def under(self, span: Span, name: str) -> bool:
        idx = span.parent
        while idx is not None:
            if self.spans[idx].name == name:
                return True
            idx = self.spans[idx].parent
        return False

    # -- wrapping ----------------------------------------------------------
    def _wrapper(self, func, name, attrs=None, keep=None, alloc_under=None):
        """`keep` names the slot in `self.kept` that holds the (args, kwargs,
        result) of the latest call made under the span `keep[1]`."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            alloc = alloc_under is not None and tracer.under(span, alloc_under)
            if alloc:
                tracemalloc.start()
            try:
                result = func(*args, **kwargs)
            finally:
                if alloc:
                    span.attrs["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.close(span)
            if attrs is not None:
                attrs(span, args, kwargs, result)
            if keep is not None and tracer.under(span, keep[1]):
                tracer.kept[keep[0]] = (args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, **kw) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapper(raw.__func__, name, **kw))
        else:
            new = self._wrapper(raw, name, **kw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        from mvclda import baseline, corpus, embed, hyperband, metrics, model, train

        w = self.wrap
        # the CBOW objective check needs the output table train_cbow drops
        w(embed, "train_cbow_tables", "embed.cbow_tables", keep=("cbow", "cli.train"))
        w(embed, "train_cbow", "embed.cbow", attrs=_cbow_attrs)
        w(train, "train", "train.train", attrs=_train_attrs,
          alloc_under="cli.train" if self.level == "layer" else None)
        w(model, "predict_matrix", "model.predict_matrix", keep=("predict", "cli.evaluate"),
          alloc_under="cli.evaluate" if self.level == "layer" else None,
          attrs=lambda s, a, k, r: s.attrs.update(tokens=_doc_tokens(a[1])))
        w(metrics, "evaluate_predictions", "metrics.report", keep=("report", "cli.evaluate"),
          attrs=lambda s, a, k, r: s.attrs.update(cells=int(a[0].size)))
        w(baseline, "predict_hierarchical", "baseline.predict", keep=("hier", "cli.baseline"))
        w(hyperband, "hyperband_search", "hyperband.search",
          attrs=lambda s, a, k, r: s.attrs.update(trials=len(r[2])))
        if self.level == "phase":
            return

        w(corpus, "generate_synthetic_corpus", "corpus.generate")
        w(corpus, "preprocess_text", "corpus.tokenize")
        w(corpus, "build_vocabulary", "corpus.vocab")
        w(corpus, "encode_corpus", "corpus.encode",
          attrs=lambda s, a, k, r: s.attrs.update(tokens=_doc_tokens(r[0])))
        for owner in (model, train):
            w(owner, "backward", "model.backward")
        w(model, "forward", "model.forward")
        for meth in ("zeros_like", "add_", "scale_", "check_finite"):
            w(model.GradientSet, meth, "model.grad_buffer")
        w(model, "save_checkpoint", "model.checkpoint",
          attrs=lambda s, a, k, r: s.attrs.update(bytes=os.path.getsize(a[0])))
        w(model, "load_checkpoint", "model.checkpoint")
        w(train, "adam_step", "train.adam")
        w(train, "dev_micro_f1", "train.dev_eval")
        w(metrics, "pr_auc", "metrics.pr_auc")
        w(metrics, "precision_at_n", "metrics.p_at_n")
        w(metrics, "macro_f1", "metrics.macro_f1")
        w(metrics, "frequency_binned_f1", "metrics.binned_f1")
        w(baseline, "fit_tfidf", "baseline.tfidf")
        w(baseline.TfidfFeaturizer, "transform", "baseline.tfidf")
        w(baseline, "predict_flat", "baseline.predict")
        for fit in ("train_flat", "train_hierarchical"):
            w(baseline, fit, "baseline.fit",
              attrs=lambda s, a, k, r: s.attrs.update(classifiers=len(r.nodes)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- summaries ---------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        out: dict[str, float] = defaultdict(float)
        for span, c in zip(self.spans, child):
            out[span.name] += span.duration - c
        return out

    def find(self, name: str, *parents: str) -> list[Span]:
        """Spans called `name`, only those under one of `parents` if given."""
        return [s for s in self.spans if s.name == name
                and (not parents or any(self.under(s, p) for p in parents))]

    def dump(self, path) -> None:
        rows = [
            {"name": s.name, "start_ns": s.start, "end_ns": s.end,
             "parent": s.parent, "attrs": s.attrs}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")
