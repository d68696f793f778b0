"""Per-layer probes that wrap regretstream's public functions from outside.

A probe names one function or method by its home module and attribute.
``install`` replaces a function in every loaded ``regretstream`` module that
holds a reference to it, so callers that imported it by name (``from .stats
import mann_whitney_u``) see the wrapper too; a method is replaced on its
class. A name that no longer exists raises, so a rename cannot silently
leave a layer unmeasured.

Every wrapped call is a span; for a generator function, every step of
the generator it returns is. A span's self time (its duration minus the
probed calls nested inside it) is added to the probe's layer, so the layer
times of one run add up to the time covered by the outermost spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str  # "function" or "Class.method"
    layer: str  # self time is added to this layer
    counter: str = ""  # calls are counted here; defaults to the layer
    observe: Callable | None = None  # observe(tracer, args, result)


class Tracer:
    """Span and count accumulators for one process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.distinct = defaultdict(set)
        self.top_s = 0.0
        self.failed_calls = 0
        self._stack = []

    def _enter(self):
        frame = [0.0]  # time spent in probed calls nested in this span
        self._stack.append(frame)
        return frame

    def _exit(self, frame, layer, elapsed):
        self._stack.pop()
        self.self_s[layer] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self.top_s += elapsed

    def wrap_generator(self, probe: Probe, fn):
        layer = probe.layer
        counter = probe.counter or probe.layer

        def wrapper(*args, **kwargs):
            self.calls[counter] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    frame = self._enter()
                    start = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except Exception:
                        self.failed_calls += 1
                        raise
                    finally:
                        self._exit(frame, layer, time.perf_counter() - start)
                    yield item
            finally:
                gen.close()

        return wrapper

    def wrap(self, probe: Probe, fn):
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(probe, fn)
        layer = probe.layer
        counter = probe.counter or probe.layer
        observe = probe.observe

        def wrapper(*args, **kwargs):
            self.calls[counter] += 1
            frame = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed_calls += 1
                raise
            finally:
                self._exit(frame, layer, time.perf_counter() - start)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def to_dict(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "work": dict(self.work),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "top_s": self.top_s,
            "failed_calls": self.failed_calls,
        }


def install(tracer: Tracer, probes) -> None:
    """Wrap every probe's target; raises if a target is missing."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "regretstream" or name.startswith("regretstream."))
    ]
    for probe in probes:
        home = importlib.import_module(probe.module)
        owner, _, attr = probe.attr.rpartition(".")
        if owner:
            cls = getattr(home, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(probe, raw.__func__)))
            else:
                setattr(cls, attr, tracer.wrap(probe, raw))
            continue
        fn = getattr(home, attr)
        wrapped = tracer.wrap(probe, fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapped)


# ---------------------------------------------------------------------------
# Work counts, taken from the probed calls' arguments and results
# ---------------------------------------------------------------------------

def _superficial_hit(tr, args, result):
    if result:
        tr.work["cleanup.superficial_hits"] += 1


def _edit_cells(tr, args, result):
    tr.work["textkit.edit_distance_cells"] += len(args[0]) * len(args[1])


def _distinct_text(tr, args, result):
    tr.distinct["textkit.tokenize"].add(args[0])


def _distinct_word(tr, args, result):
    tr.distinct["textkit.categories_for"].add(args[1])


def _featurize_rows(tr, args, result):
    tr.work["features.featurize_rows"] += len(result)


def _mwu_pairs(tr, args, result):
    tr.work["stats.mwu_pairs"] += len(args[0]) * len(args[1])


def _fisher_terms(tr, args, result):
    t = args[0]
    r1, r2, c1 = t.a + t.b, t.c + t.d, t.a + t.c
    tr.work["stats.fisher_terms"] += min(r1, c1) - max(0, c1 - r2) + 1


def _pegasos_steps(tr, args, result):
    model = result
    if getattr(model, "algorithm", None) == "linear_svm":
        tr.work["classify.pegasos_steps"] += model.epochs * len(args[0])


def _ada_rounds(tr, args, result):
    model = result[0]
    tr.work["classify.ada_rounds"] += len(getattr(model, "trees", ()))


PROBES = (
    Probe("regretstream.events", "read_events", "events.parse", "events.read"),
    Probe("regretstream.events", "parse_event", "events.parse"),
    Probe("regretstream.events", "build_corpus", "events.build_corpus"),
    Probe("regretstream.events", "TweetRecord.__init__", "events.records"),
    Probe("regretstream.events", "Corpus.__init__", "events.records", "events.corpus_init"),
    Probe("regretstream.events", "Corpus.save", "events.corpus_io"),
    Probe("regretstream.events", "Corpus.load", "events.corpus_io"),
    Probe("regretstream.cleanup", "run_cleanup", "cleanup.run"),
    Probe("regretstream.cleanup", "detect_superficial", "cleanup.run",
          "cleanup.superficial", _superficial_hit),
    Probe("regretstream.textkit", "edit_distance", "textkit.edit_distance",
          observe=_edit_cells),
    Probe("regretstream.textkit", "tokenize", "textkit.tokenize", observe=_distinct_text),
    Probe("regretstream.textkit", "Lexicon.categories_for", "textkit.categories_for",
          observe=_distinct_word),
    Probe("regretstream.textkit", "pos_tag", "textkit.pos_tag"),
    Probe("regretstream.features", "build_vocab", "features.build_vocab"),
    Probe("regretstream.features", "featurize_corpus", "features.featurize",
          observe=_featurize_rows),
    Probe("regretstream.stats", "mann_whitney_u", "stats.mwu", observe=_mwu_pairs),
    Probe("regretstream.stats", "fisher_exact", "stats.fisher", observe=_fisher_terms),
    Probe("regretstream.analytics", "group_compare_report", "analytics.group_compare"),
    Probe("regretstream.analytics", "user_group_compare", "analytics.user_compare"),
    Probe("regretstream.analytics", "user_category_medians", "analytics.trait_medians"),
    Probe("regretstream.analytics", "response_report", "analytics.response"),
    Probe("regretstream.analytics", "reply_sentiment_split", "analytics.response"),
    Probe("regretstream.classify.pipeline", "balanced_sample", "classify.sample"),
    Probe("regretstream.classify.stage1", "train_stage1", "classify.stage1_fit",
          observe=_pegasos_steps),
    Probe("regretstream.classify.pipeline", "train_stage2", "classify.stage2_fit",
          observe=_ada_rounds),
    Probe("regretstream.classify.trees", "DecisionTree.fit", "classify.stage2_fit",
          "classify.tree_fit"),
    Probe("regretstream.classify.stage1", "derived_feature", "classify.derived_feature"),
    Probe("regretstream.classify.bundle", "ModelBundle.predict_records", "classify.predict"),
    Probe("regretstream.classify.bundle", "save_bundle", "classify.bundle_io"),
    Probe("regretstream.classify.bundle", "load_bundle", "classify.bundle_io"),
    Probe("regretstream.synth", "generate_synthetic", "synth.generate"),
)

# Layers probed while the set-up runs; every other layer is probed on the
# measured command sequence.
SETUP_LAYERS = ("synth.generate",)


def probes_for(layers) -> list[Probe]:
    return [p for p in PROBES if p.layer in layers]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: dict, setup: dict) -> dict:
    """Per-layer metric values from the traced workload and set-up dumps."""
    s, c, w, d = workload["self_s"], workload["calls"], workload["work"], workload["distinct"]

    def t(layer):
        return s.get(layer, 0.0)

    def n(counter):
        return c.get(counter, 0)

    return {
        "events.parse_s": t("events.parse"),
        "events.parse_calls": n("events.parse"),
        "events.build_corpus_s": t("events.build_corpus"),
        "events.records_s": t("events.records"),
        "events.records_built": n("events.records"),
        "events.corpus_io_s": t("events.corpus_io"),
        "events.corpus_io_calls": n("events.corpus_io"),
        "cleanup.run_s": t("cleanup.run"),
        "cleanup.superficial_calls": n("cleanup.superficial"),
        "cleanup.superficial_hit_ratio": _ratio(
            w.get("cleanup.superficial_hits", 0), n("cleanup.superficial")),
        "textkit.edit_distance_s": t("textkit.edit_distance"),
        "textkit.edit_distance_calls": n("textkit.edit_distance"),
        "textkit.edit_distance_cells": w.get("textkit.edit_distance_cells", 0),
        "textkit.tokenize_s": t("textkit.tokenize"),
        "textkit.tokenize_calls": n("textkit.tokenize"),
        "textkit.tokenize_per_text": _ratio(
            n("textkit.tokenize"), d.get("textkit.tokenize", 0)),
        "textkit.categories_for_s": t("textkit.categories_for"),
        "textkit.categories_for_calls": n("textkit.categories_for"),
        "textkit.categories_for_distinct_ratio": _ratio(
            d.get("textkit.categories_for", 0), n("textkit.categories_for")),
        "textkit.pos_tag_s": t("textkit.pos_tag"),
        "features.build_vocab_s": t("features.build_vocab"),
        "features.featurize_s": t("features.featurize"),
        "features.featurize_rows": w.get("features.featurize_rows", 0),
        "stats.mwu_s": t("stats.mwu"),
        "stats.mwu_calls": n("stats.mwu"),
        "stats.mwu_pairs": w.get("stats.mwu_pairs", 0),
        "stats.fisher_s": t("stats.fisher"),
        "stats.fisher_calls": n("stats.fisher"),
        "stats.fisher_terms": w.get("stats.fisher_terms", 0),
        "analytics.group_compare_s": t("analytics.group_compare"),
        "analytics.user_compare_s": t("analytics.user_compare"),
        "analytics.trait_medians_s": t("analytics.trait_medians"),
        "analytics.response_s": t("analytics.response"),
        "classify.sample_s": t("classify.sample"),
        "classify.stage1_fit_s": t("classify.stage1_fit"),
        "classify.stage1_fits": n("classify.stage1_fit"),
        "classify.pegasos_steps": w.get("classify.pegasos_steps", 0),
        "classify.stage2_fit_s": t("classify.stage2_fit"),
        "classify.tree_fits": n("classify.tree_fit"),
        "classify.ada_rounds": w.get("classify.ada_rounds", 0),
        "classify.derived_feature_s": t("classify.derived_feature"),
        "classify.predict_s": t("classify.predict"),
        "classify.bundle_io_s": t("classify.bundle_io"),
        "synth.generate_s": setup["self_s"].get("synth.generate", 0.0),
    }
