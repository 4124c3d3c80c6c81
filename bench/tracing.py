"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of ``attrembed`` from the
outside: it rebinds each name wherever a package module holds it and puts
the original back on ``uninstall``.  Nothing inside the package changes.

Every call to a wrapped name records one span: name, start, end and the
index of the enclosing span.  Backward time is caught by wrapping the
closure that ``Tape.record`` receives, named after the operation whose
forward span is open when it is recorded.  Spans stay in memory, in flat
arrays, until ``save`` writes them.  A ``ModelScorer.unit_embedding`` call
that hits the scorer's cache (no span beneath it) is folded into per-phase
totals instead of kept: retrieval makes hundreds of thousands of them.

Per-layer figures are given per pass: the set-up's total plus the mean
over the traced rounds, so runs that complete different numbers of rounds
still compare.
"""

from __future__ import annotations

import itertools
import json
import time
import weakref
from array import array
from collections import Counter, defaultdict

import numpy as np

from attrembed import autodiff, backbone, cli, data, evaluation, model, training

MODULES = (autodiff, backbone, model, training, evaluation, data, cli)

OPS = (
    "conv_1x1",
    "fully_connected",
    "pointwise_activation",
    "softmax_flat",
    "weighted_spatial_sum",
    "elementwise_combine",
    "cosine_similarity",
    "matrix_column",
    "broadcast_spatial",
    "batch_item",
    "subtract",
    "add_constant",
    "scalar_mean",
)

# (owner, attribute, span name).  Module-level functions are rebound in
# every package module that imported them by name.
FUNCTIONS = [(autodiff, op, f"autodiff.{op}.forward") for op in OPS] + [
    (autodiff, "backward", "autodiff.backward"),
    (backbone, "conv2d", "backbone.conv2d.forward"),
    (backbone.TinyBackbone, "forward", "backbone.forward"),
    (backbone.TinyBackbone, "forward_batch", "backbone.forward_batch"),
    (model.AttributeEmbeddingModel, "embed_image", "model.embed_image"),
    (model.AttributeEmbeddingModel, "embed_map", "model.embed_map"),
    (model.AttributeEmbeddingModel, "spatial_attention", "model.spatial_attention"),
    (model.AttributeEmbeddingModel, "channel_attention", "model.channel_attention"),
    (model.AttributeEmbeddingModel, "project", "model.project"),
    (training, "train_epoch", "training.train_epoch"),
    (training, "adam_step", "training.adam_step"),
    (training, "sample_triplets", "training.sample_triplets"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (evaluation.ModelScorer, "__call__", "evaluation.score"),
    (evaluation, "evaluate_map", "evaluation.evaluate_map"),
    (evaluation, "rank_candidates", "evaluation.rank_candidates"),
    (evaluation, "average_precision", "evaluation.average_precision"),
    (evaluation, "rerank_topk", "evaluation.rerank_topk"),
    (evaluation, "evaluate_triplet_accuracy", "evaluation.triplet_accuracy"),
    (data, "generate_synthetic_dataset", "data.generate"),
    (data, "split_dataset", "data.split"),
    (data, "read_ppm", "data.read_ppm"),
    (data, "load_manifest", "data.load_manifest"),
    (cli, "load_images_for", "cli.load_images_for"),
    (cli, "load_run", "cli.load_run"),
]

# metric name -> (unit, span name, statistic); statistic is "s" (total
# time), "self_s" (time outside child spans) or "calls" (span count).
SPAN_METRICS = {}
for _op in OPS:
    SPAN_METRICS[f"autodiff.{_op}.forward_s"] = ("s", f"autodiff.{_op}.forward", "s")
    SPAN_METRICS[f"autodiff.{_op}.backward_s"] = ("s", f"autodiff.{_op}.backward", "s")
    SPAN_METRICS[f"autodiff.{_op}.calls"] = ("count", f"autodiff.{_op}.forward", "calls")
SPAN_METRICS.update(
    {
        "autodiff.backward.self_s": ("s", "autodiff.backward", "self_s"),
        "backbone.conv2d.forward_s": ("s", "backbone.conv2d.forward", "s"),
        "backbone.conv2d.backward_s": ("s", "backbone.conv2d.backward", "s"),
        "backbone.conv2d.calls": ("count", "backbone.conv2d.forward", "calls"),
        "model.embed_map.s": ("s", "model.embed_map", "s"),
        "model.embed_map.calls": ("count", "model.embed_map", "calls"),
        "model.spatial_attention.s": ("s", "model.spatial_attention", "s"),
        "model.channel_attention.s": ("s", "model.channel_attention", "s"),
        "model.project.s": ("s", "model.project", "s"),
        "training.train_epoch.s": ("s", "training.train_epoch", "s"),
        "training.adam_step.s": ("s", "training.adam_step", "s"),
        "training.adam_step.calls": ("count", "training.adam_step", "calls"),
        "training.sample_triplets.s": ("s", "training.sample_triplets", "s"),
        "training.save_checkpoint.s": ("s", "training.save_checkpoint", "s"),
        "training.load_checkpoint.s": ("s", "training.load_checkpoint", "s"),
        "evaluation.unit_embedding.self_s": ("s", "evaluation.unit_embedding", "self_s"),
        "evaluation.embeddings_computed": ("count", "model.embed_image", "calls"),
        "evaluation.embedding_lookups": ("count", "evaluation.unit_embedding", "calls"),
        "evaluation.score.self_s": ("s", "evaluation.score", "self_s"),
        "evaluation.rank_candidates.s": ("s", "evaluation.rank_candidates", "s"),
        "evaluation.average_precision.s": ("s", "evaluation.average_precision", "s"),
        "evaluation.rerank_topk.s": ("s", "evaluation.rerank_topk", "s"),
        "evaluation.triplet_accuracy.s": ("s", "evaluation.triplet_accuracy", "s"),
        "data.generate.s": ("s", "data.generate", "s"),
        "data.split.s": ("s", "data.split", "s"),
        "data.read_ppm.s": ("s", "data.read_ppm", "s"),
        "data.read_ppm.calls": ("count", "data.read_ppm", "calls"),
        "data.load_manifest.s": ("s", "data.load_manifest", "s"),
        "cli.load_images_for.s": ("s", "cli.load_images_for", "s"),
        "cli.load_run.s": ("s", "cli.load_run", "s"),
    }
)
# metric name -> (unit, numerator, denominator), from counters and span counts
RATIO_METRICS = {
    "autodiff.tape_nodes_per_triplet": ("count", "tape_nodes", "triplets_trained"),
    "backbone.images_forwarded": ("count", "images_forwarded", None),
    # single-image backbone passes come only from ModelScorer's embed_image
    "evaluation.backbone_forwards_per_image": ("count", "backbone.forward", "images_embedded"),
}
PHASES = ("bench.setup", "bench.round")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: list[Counter] = []  # one per phase span
        self._patches: list[tuple[object, str, object]] = []
        self._scorers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._embedded: set = set()
        self._elided_under: defaultdict = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        if name in PHASES:
            self.counts.append(Counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[-1][key] += n

    def elide_last(self) -> None:
        """Fold the last span, which has no children, into its phase's totals
        for its name and into its parent's child time, and drop it."""
        name = self.names[self.name_id[-1]]
        duration = self.end[-1] - self.start[-1]
        self._elided_under[self.parent[-1]] += duration
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[-1]
        self.count(f"{name} s", duration)
        self.count(f"{name} calls")

    def timed(self, name: str, fn):
        """``fn`` wrapped to record a span per call; ``open`` and ``close``
        are inlined because this runs on every operation of the tape."""
        nid = self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    # -- installing wrappers ----------------------------------------------

    def _rebind(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for module in MODULES:
            if module.__dict__.get(attr) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, replacement)

    def install(self) -> None:
        for owner, attr, name in FUNCTIONS:
            self._rebind(owner, attr, self.timed(name, getattr(owner, attr)))
        self._wrap_record()
        self._wrap_counters()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_record(self) -> None:
        record = autodiff.Tape.record
        backward_of = {}
        for op in OPS:
            backward_of[self._id(f"autodiff.{op}.forward")] = f"autodiff.{op}.backward"
        backward_of[self._id("backbone.conv2d.forward")] = "backbone.conv2d.backward"
        tracer = self

        def traced_record(tape, out, backward_fn):
            opened = tracer.stack[-1] if tracer.stack else -1
            name = backward_of.get(tracer.name_id[opened], "autodiff.other.backward") if opened >= 0 else "autodiff.other.backward"
            tracer.counts[-1]["tape_nodes"] += 1
            return record(tape, out, tracer.timed(name, backward_fn))

        self._rebind(autodiff.Tape, "record", traced_record)

    def _wrap_counters(self) -> None:
        tracer = self
        forward_batch = backbone.TinyBackbone.forward_batch
        forward = backbone.TinyBackbone.forward
        train_epoch = training.train_epoch
        unit_embedding = evaluation.ModelScorer.unit_embedding

        def counted_forward_batch(self, images):
            tracer.count("images_forwarded", images.shape[0])
            return forward_batch(self, images)

        def counted_forward(self, image):
            tracer.count("images_forwarded")
            return forward(self, image)

        def counted_train_epoch(model_, triplets, *args, **kwargs):
            tracer.count("triplets_trained", len(triplets))
            return train_epoch(model_, triplets, *args, **kwargs)

        def traced_unit_embedding(scorer, image_id, attribute):
            idx = tracer.open("evaluation.unit_embedding")
            try:
                return unit_embedding(scorer, image_id, attribute)
            finally:
                tracer.close(idx)
                if len(tracer.start) == idx + 1:  # cache hit
                    tracer.elide_last()
                else:
                    key = (tracer._scorers.setdefault(scorer, next(tracer._serials)), image_id)
                    if key not in tracer._embedded:
                        tracer._embedded.add(key)
                        tracer.count("images_embedded")

        self._rebind(backbone.TinyBackbone, "forward_batch", counted_forward_batch)
        self._rebind(backbone.TinyBackbone, "forward", counted_forward)
        self._rebind(training, "train_epoch", counted_train_epoch)
        self._rebind(evaluation.ModelScorer, "unit_embedding", traced_unit_embedding)

    # -- results ----------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.uint32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value per pass, unit)."""
        name_id, parent, start, end = self.arrays()
        duration = end - start
        child = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=len(duration))
        for idx, elided in self._elided_under.items():
            if idx >= 0:
                child[idx] += elided
        self_time = duration - child
        phase_ids = [self._ids[p] for p in PHASES if p in self._ids]
        tops = np.flatnonzero((parent < 0) & np.isin(name_id, phase_ids))
        phase_of = np.searchsorted(tops, np.arange(len(duration)), side="right") - 1
        setup_phase = self._ids["bench.setup"]
        weights = np.where(name_id[tops] == setup_phase, 1.0, 1.0 / max(1, int(np.sum(name_id[tops] != setup_phase))))
        w = weights[phase_of]

        def counter(key: str) -> float:
            return float(sum(c[key] * wt for c, wt in zip(self.counts, weights)))

        def per_pass(span: str, statistic: str) -> float:
            if span not in self._ids:
                return 0.0
            mask = name_id == self._ids[span]
            values = {"s": duration, "self_s": self_time, "calls": np.ones_like(duration)}[statistic]
            elided = counter(f"{span} calls" if statistic == "calls" else f"{span} s")
            return float(np.sum(values[mask] * w[mask])) + elided

        out = {name: (per_pass(span, stat), unit) for name, (unit, span, stat) in SPAN_METRICS.items()}
        def amount(key: str) -> float:  # a span's calls, else a counter
            return per_pass(key, "calls") if key in self._ids else counter(key)

        for name, (unit, num, den) in RATIO_METRICS.items():
            value = amount(num)
            if den is not None:
                value = value / amount(den) if amount(den) else 0.0
            out[name] = (value, unit)
        return out

    def save(self, path_prefix: str, summary: dict) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(f"{path_prefix}.spans.npz", name_id=name_id, parent=parent, start=start, end=end, names=np.array(self.names))
        with open(f"{path_prefix}.layers.json", "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
