"""Span tracing of dirlink's layers from outside the package.

``Tracer.install`` replaces public functions of the ``dirlink`` modules, in
the namespace where their callers look them up, with wrappers that record a
span per call: name, start, end, the enclosing span, and optional work
counts.  Spans stay in memory until ``Tracer.write`` dumps them.  Nothing is
patched unless ``install`` is called, so an untraced run executes the
package unchanged.

``layer_metrics`` turns a span list into the per-layer numbers the benchmark
reports: busy time per layer function (outermost spans of a name only, so
recursion through a second wrapper is not counted twice), call counts, work
counts, and the self time of reconstruction outside its scoring calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np


def _pairs_arg(args, kwargs):
    pairs = kwargs["pairs"] if "pairs" in kwargs else args[2]
    return {"pairs": int(np.asarray(pairs).reshape(-1, 2).shape[0])}


def _fit_counts(args, kwargs, result):
    return {"epochs": int(result.epochs_run), "best_epoch": int(result.best_epoch)}


# (span name, module, attribute, counter).  A name listed under several
# modules covers every place a caller resolves that function.
TARGETS = (
    ("graph.load_edge_list", "dirlink.graph", "load_edge_list", None),
    ("graph.load_edge_list", "dirlink.datasets", "load_edge_list", None),
    ("graph.preprocess", "dirlink.graph", "preprocess", None),
    ("graph.normalize", "dirlink.graph", "normalize_sym", None),
    ("graph.normalize", "dirlink.training", "normalize_sym", None),
    ("graph.normalize", "dirlink.models", "normalize_adj", None),
    ("graph.spmm", "dirlink.autodiff", "_spmm", None),
    ("graph.spmm", "dirlink.autodiff", "_spmm_t", None),
    ("splits.split_edges", "dirlink.splits", "split_edges", None),
    ("splits.eval_neg", "dirlink.splits", "sample_eval_negatives", None),
    ("splits.train_neg", "dirlink.splits", "sample_train_negatives", None),
    ("splits.train_neg", "dirlink.training", "sample_train_negatives", None),
    ("splits.save_split", "dirlink.splits", "save_split", None),
    ("splits.init_features", "dirlink.splits", "init_features", None),
    ("splits.init_features", "dirlink.training", "init_features", None),
    ("autodiff.backward", "dirlink.autodiff", "backward",
     lambda a, k, r: {"tape_nodes": len(r)}),
    ("autodiff.adam_step", "dirlink.autodiff.AdamState", "step", None),
    ("models.encode", "dirlink.models", "encoder_forward", None),
    ("models.decode", "dirlink.models", "decode", lambda a, k, r: _pairs_arg(a, k)),
    ("models.score", "dirlink.models", "ranking_scores", lambda a, k, r: {"pairs": len(r)}),
    ("models.checkpoint", "dirlink.models", "save_checkpoint", None),
    ("models.checkpoint", "dirlink.models", "load_checkpoint", None),
    ("models.checkpoint", "dirlink.models", "load_state", None),
    ("training.fit", "dirlink.training", "fit", _fit_counts),
    ("training.evaluate", "dirlink.training", "evaluate", None),
    ("metrics.auc", "dirlink.training", "auc", None),
    ("metrics.auc", "dirlink.metrics", "auc", None),
    ("metrics.report", "dirlink.metrics.MetricsReport", "from_scores", None),
    ("analysis.reconstruct", "dirlink.analysis", "reconstruct_topm", None),
    ("analysis.degree_hist", "dirlink.analysis", "degree_histograms", None),
)


def _resolve(dotted):
    """A module, or a class inside a module, from its dotted path."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, cls = dotted.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._open[-1] if self._open else -1}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of its own, for benchmark-level phases."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        for name, where, attr, counter in TARGETS:
            owner = _resolve(where)
            original = getattr(owner, attr)
            if isinstance(owner, type) and isinstance(owner.__dict__[attr], classmethod):
                setattr(owner, attr, staticmethod(self.wrap(name, original, counter)))
            else:
                setattr(owner, attr, self.wrap(name, original, counter))
        # the validation callback is a closure built per run; wrap what the factory returns
        training = importlib.import_module("dirlink.training")
        factory = training.make_validation_scorer

        def traced_factory(bundle):
            return self.wrap("training.validate", factory(bundle))

        training.make_validation_scorer = traced_factory

    def write(self, path, run_id):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": run_id, "spans": self.spans}, fh)


class _NullTracer:
    """Stand-in when tracing is off: phases run as plain calls."""

    @staticmethod
    def span(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL_TRACER = _NullTracer()


def _in_phase(spans):
    """Flags for the spans inside a root span named ``bench`` (the timed phase).

    A parent is always recorded before its children, so one pass suffices.
    """
    inside = []
    for s in spans:
        p = s["parent"]
        inside.append(inside[p] if p >= 0 else s["name"] == "bench")
    return inside


def span_table(spans):
    """Per span name inside the timed phase: calls, busy seconds (outermost
    spans of the name), self seconds (duration minus direct children), and
    summed work counts."""
    inside = _in_phase(spans)
    children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]] += s["end"] - s["start"]
    table = {}
    for i, s in enumerate(spans):
        if not inside[i]:
            continue
        row = table.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}})
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["self_s"] += dur - children[i]
        if not _has_ancestor_named(spans, i, s["name"]):
            row["busy_s"] += dur
        for key, val in s.get("counts", {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + val
    return table


def _has_ancestor_named(spans, i, name):
    p = spans[i]["parent"]
    while p >= 0:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def layer_metrics(spans, names):
    """The per-layer metrics ``names`` (all but the tracing overhead) from one
    span list.  ``<span>_s`` is busy time and ``<span>_calls`` the call count;
    the other names are derived below.  Layers a workload never calls read zero.
    """
    table = span_table(spans)

    def busy(name):
        return table[name]["busy_s"] if name in table else 0.0

    def calls(name):
        return table[name]["calls"] if name in table else 0

    def count(name, key):
        return table[name]["counts"].get(key, 0) if name in table else 0

    out = {}
    for metric in names:
        if metric.endswith("_s") and not metric.endswith("_self_s"):
            out[metric] = busy(metric[:-2])
        elif metric.endswith("_calls"):
            out[metric] = calls(metric[: -len("_calls")])
    out["autodiff.tape_nodes"] = count("autodiff.backward", "tape_nodes")
    out["models.decode_pairs"] = count("models.decode", "pairs")
    epochs = count("training.fit", "epochs")
    out["training.epochs"] = epochs
    out["training.best_epoch_ratio"] = (
        count("training.fit", "best_epoch") / epochs if epochs else 0.0
    )
    out["analysis.reconstruct_self_s"] = (
        table["analysis.reconstruct"]["self_s"] if "analysis.reconstruct" in table else 0.0
    )
    out["analysis.pairs_scored"] = sum(
        s["counts"]["pairs"] for i, s in enumerate(spans)
        if s["name"] == "models.score" and _has_ancestor_named(spans, i, "analysis.reconstruct")
    )
    return out


def merge(span_lists):
    """Concatenate the span lists of several processes, keeping parent links."""
    merged = []
    for spans in span_lists:
        offset = len(merged)
        merged.extend(dict(s, parent=s["parent"] + offset if s["parent"] >= 0 else -1)
                      for s in spans)
    return merged
