"""Triplet sampling, hinge loss, Adam, and the epoch/fit training loop.

A triplet fixes one attribute: anchor and positive share that attribute's
value, the negative differs on it.  Other attributes play no role in the
comparison.  The loss per triplet is the margin hinge on the cosine
similarities in the attribute's embedding space; a batch embeds all its
images in one batched graph, averages its triplets' hinges, backpropagates
once, and applies one Adam step.

Model selection keeps the snapshot with the best validation metric, ties
going to the earliest epoch.  Epochs are numbered from 1 in logs and
checkpoints; the learning rate for epoch e is base * decay^(e-1), so the
first epoch runs at the base rate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Optional, Sequence, TextIO

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor, read_tensor, recording, write_tensor
from .errors import ConfigError, ContractError, FormatError, NumericalError, SamplingError
from .model import AttributeEmbeddingModel

CHECKPOINT_HEADER = "attrembed-checkpoint 1"


@dataclass(frozen=True)
class Triplet:
    anchor_id: str
    positive_id: str
    negative_id: str
    attribute: int
    anchor_value: int
    negative_value: int


@dataclass
class TrainConfig:
    margin: float = 0.2
    learning_rate: float = 1e-4
    lr_decay: float = 0.985
    epochs: int = 200
    triplets_per_epoch: int = 100000
    batch_size: int = 16
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    val_stride: int = 1

    def __post_init__(self):
        if self.margin <= 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.batch_size < 1 or self.epochs < 1 or self.triplets_per_epoch < 1:
            raise ConfigError("epochs, triplets_per_epoch and batch_size must be >= 1")
        if self.val_stride < 1:
            raise ConfigError(f"val_stride must be >= 1, got {self.val_stride}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")


def lr_schedule(epoch: int, base_lr: float, decay: float) -> float:
    """Learning rate after `epoch` decays: base_lr * decay^epoch."""
    if epoch < 0:
        raise ContractError(f"epoch must be >= 0, got {epoch}")
    return base_lr * decay**epoch


# -- triplet sampling -------------------------------------------------------


class _AttributePool:
    """Per-attribute index of image ids by value, precomputed for sampling."""

    __slots__ = ("classes", "values", "anchors", "complements", "value_of")

    def __init__(self, by_value: dict[int, list[str]]):
        self.classes = {v: sorted(ids) for v, ids in sorted(by_value.items())}
        self.values = sorted(self.classes)
        # anchors must admit a positive: their value class has >= 2 members
        self.anchors = [
            (img, v) for v in self.values if len(self.classes[v]) >= 2 for img in self.classes[v]
        ]
        self.complements = {
            v: [img for u in self.values if u != v for img in self.classes[u]]
            for v in self.values
        }
        self.value_of = {img: v for v in self.values for img in self.classes[v]}

    def viable(self) -> bool:
        return bool(self.anchors) and any(self.complements[v] for _, v in self.anchors)


def sample_triplets(
    annotations: Sequence[tuple[str, Mapping[int, int]]],
    n_attributes: int,
    count: int,
    seed: int,
    attribute_names: Optional[Sequence[str]] = None,
) -> list[Triplet]:
    """Draw `count` triplets from (image_id, {attribute: value}) records.

    The attribute is uniform over the vocabulary; the anchor is uniform over
    images whose value class can supply a positive; the positive is uniform
    over that class minus the anchor; the negative is uniform over images
    with any other value of the attribute.  Deterministic given the seed.
    """
    pools: list[_AttributePool] = []
    for a in range(n_attributes):
        by_value: dict[int, list[str]] = {}
        for image_id, labels in annotations:
            if a in labels:
                by_value.setdefault(labels[a], []).append(image_id)
        pool = _AttributePool(by_value)
        if not pool.viable():
            name = attribute_names[a] if attribute_names else str(a)
            raise SamplingError(
                f"attribute {name!r} admits no triplet: need a value with >= 2 "
                f"images and at least one image with a different value"
            )
        pools.append(pool)

    rng = np.random.default_rng(seed)
    out: list[Triplet] = []
    for _ in range(count):
        a = int(rng.integers(n_attributes))
        pool = pools[a]
        anchor, v = pool.anchors[int(rng.integers(len(pool.anchors)))]
        mates = pool.classes[v]
        positive = anchor
        while positive == anchor:
            positive = mates[int(rng.integers(len(mates)))]
        rest = pool.complements[v]
        negative = rest[int(rng.integers(len(rest)))]
        out.append(Triplet(anchor, positive, negative, a, v, pool.value_of[negative]))
    return out


# -- loss -------------------------------------------------------------------


def triplet_margin_loss(s_pos: Tensor, s_neg: Tensor, margin: float) -> Tensor:
    """Hinge max{0, margin - s_pos + s_neg} on graph scalars, or row-wise
    on vectors of similarities."""
    gap = ad.add_constant(ad.subtract(s_neg, s_pos), margin)
    return ad.pointwise_activation(gap, "relu")


# -- optimizer --------------------------------------------------------------


@dataclass
class OptimizerState:
    step: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: Sequence[Parameter], state: OptimizerState, lr: float, config: TrainConfig
) -> None:
    """One bias-corrected Adam update in place.

    Parameters whose gradient is absent this step are left untouched (their
    moments do not decay), so unused branches of a variant stay inert.
    """
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    for p in params:
        if not p.trainable or p.grad is None:
            continue
        g = p.grad
        if g.shape != p.data.shape:
            raise ContractError(
                f"adam_step: gradient shape {g.shape} mismatches parameter "
                f"{p.name!r} of shape {p.data.shape}"
            )
        m = state.first_moment.setdefault(p.name, np.zeros_like(p.data))
        v = state.second_moment.setdefault(p.name, np.zeros_like(p.data))
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p.data[...] = p.data - lr * m_hat / (np.sqrt(v_hat) + config.eps)


# -- epoch loop -------------------------------------------------------------


def batch_triplet_loss(
    model: AttributeEmbeddingModel, maps: Tensor, attributes: np.ndarray, margin: float
) -> Tensor:
    """Mean hinge over a batch of b triplets as one graph.

    ``maps`` stacks the b anchor maps, then the b positives, then the b
    negatives, (3b, c, h, w); ``attributes`` holds each triplet's attribute,
    (b,).  The head embeds all 3b maps in one call.
    """
    b = len(attributes)
    if maps.shape[0] != 3 * b:
        raise ContractError(f"batch_triplet_loss: {maps.shape[0]} maps for {b} triplets")
    embedded = model.embed_map(maps, np.tile(attributes, 3))
    anchor, positive, negative = (
        ad.batch_item(embedded, np.arange(k * b, (k + 1) * b)) for k in range(3)
    )
    s_pos = ad.cosine_similarity(anchor, positive)
    s_neg = ad.cosine_similarity(anchor, negative)
    return ad.scalar_mean(triplet_margin_loss(s_pos, s_neg, margin))


def train_epoch(
    model: AttributeEmbeddingModel,
    triplets: Sequence[Triplet],
    images: Mapping[str, np.ndarray],
    config: TrainConfig,
    state: OptimizerState,
    lr: float,
) -> float:
    """One pass over the triplets in batches; returns the mean hinge loss.

    Each batch runs the backbone once over its 3b images and records one
    graph (:func:`batch_triplet_loss`), then takes one Adam step.
    """
    if not triplets:
        raise ContractError("train_epoch needs at least one triplet")
    total = 0.0
    for start in range(0, len(triplets), config.batch_size):
        batch = triplets[start : start + config.batch_size]
        batch_index = start // config.batch_size
        image_ids = (
            [t.anchor_id for t in batch]
            + [t.positive_id for t in batch]
            + [t.negative_id for t in batch]
        )
        attributes = np.array([t.attribute for t in batch])
        tape = Tape()
        try:
            with recording(tape):
                stacked = Tensor(np.stack([images[i] for i in image_ids]).astype(model.dtype, copy=False))
                maps = model.image_to_map(stacked)
                batch_loss = batch_triplet_loss(model, maps, attributes, config.margin)
            if not np.isfinite(batch_loss.data):
                raise NumericalError("non-finite batch loss")
            model.zero_grads()
            ad.backward(tape, batch_loss)
        except NumericalError as exc:
            ids = [(t.anchor_id, t.positive_id, t.negative_id) for t in batch]
            raise NumericalError(f"batch {batch_index}: {exc}; triplets {ids}") from exc
        finally:
            tape.clear()
        adam_step(model.parameters(), state, lr, config)
        total += float(batch_loss.data) * len(batch)
    return total / len(triplets)


# -- checkpoints ------------------------------------------------------------


@dataclass
class Checkpoint:
    config_hash: str
    epoch: int
    metric: float
    state: dict[str, np.ndarray]


def config_fingerprint(model: AttributeEmbeddingModel) -> str:
    """Stable short hash of model + backbone configuration and shapes."""
    parts = []
    for cfg in (model.config, model.backbone_config):
        if cfg is None:
            parts.append("backbone=none")
            continue
        for f in fields(cfg):
            parts.append(f"{f.name}={getattr(cfg, f.name)!r}")
    parts.append(f"dtype={model.dtype.name}")
    for p in model.parameters():
        parts.append(f"{p.name}:{p.data.shape}")
    digest = hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()
    return digest[:12]


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    with open(path, "wb") as f:
        header = (
            f"{CHECKPOINT_HEADER}\n"
            f"config_hash {checkpoint.config_hash}\n"
            f"epoch {checkpoint.epoch}\n"
            f"metric {checkpoint.metric!r}\n"
            f"params {len(checkpoint.state)}\n"
        )
        f.write(header.encode("utf-8"))
        for name, array in checkpoint.state.items():
            f.write(name.encode("utf-8") + b"\n")
            write_tensor(f, array)


def _read_line(f) -> str:
    at = f.tell()
    raw = f.readline()
    if not raw.endswith(b"\n"):
        raise FormatError("checkpoint truncated inside a text line")
    try:
        return raw[:-1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"checkpoint text line at byte {at} is not UTF-8: {exc.reason}") from None


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        if _read_line(f) != CHECKPOINT_HEADER:
            raise FormatError(f"not a checkpoint file: {path}")
        header: dict = {}
        for line_no in range(2, 6):
            key, _, value = _read_line(f).partition(" ")
            try:
                header[key] = {"epoch": int, "metric": float, "params": int}.get(key, str)(value)
            except ValueError:
                raise FormatError(f"checkpoint line {line_no}: bad {key} value {value!r}") from None
        for key in ("config_hash", "epoch", "metric", "params"):
            if key not in header:
                raise FormatError(f"checkpoint header missing {key!r}")
        n_params = header["params"]
        state: dict[str, np.ndarray] = {}
        for _ in range(n_params):
            name = _read_line(f)
            if name in state:
                raise FormatError(f"duplicate parameter {name!r} in checkpoint")
            state[name] = read_tensor(f)
        if f.read(1):
            raise FormatError("trailing bytes after final checkpoint tensor")
    return Checkpoint(
        config_hash=header["config_hash"],
        epoch=header["epoch"],
        metric=header["metric"],
        state=state,
    )


# -- fit --------------------------------------------------------------------


def fit(
    model: AttributeEmbeddingModel,
    annotations: Sequence[tuple[str, Mapping[int, int]]],
    images: Mapping[str, np.ndarray],
    config: TrainConfig,
    val_metric_fn: Callable[[AttributeEmbeddingModel], float],
    attribute_names: Optional[Sequence[str]] = None,
    log_stream: Optional[TextIO] = None,
) -> Checkpoint:
    """Train for the configured epochs and return the best snapshot.

    `val_metric_fn` scores the current model on held-out data (larger is
    better); it runs every `val_stride` epochs and always on the last one.
    The returned checkpoint is the argmax-metric snapshot, earliest epoch
    on ties.
    """
    if not annotations:
        raise ContractError("fit needs a nonempty training annotation list")
    fingerprint = config_fingerprint(model)
    state = OptimizerState()
    best: Optional[Checkpoint] = None
    n_attrs = model.config.n_attributes
    for epoch in range(1, config.epochs + 1):
        triplets = sample_triplets(
            annotations, n_attrs, config.triplets_per_epoch, config.seed ^ epoch, attribute_names
        )
        lr = lr_schedule(epoch - 1, config.learning_rate, config.lr_decay)
        mean_loss = train_epoch(model, triplets, images, config, state, lr)
        evaluate_now = epoch % config.val_stride == 0 or epoch == config.epochs
        metric_text = "-"
        if evaluate_now:
            metric = float(val_metric_fn(model))
            metric_text = f"{metric:.6f}"
            if best is None or metric > best.metric:
                best = Checkpoint(fingerprint, epoch, metric, model.state_arrays())
        if log_stream is not None:
            log_stream.write(f"{epoch}\t{mean_loss:.6f}\t{lr:.8g}\t{metric_text}\n")
    assert best is not None
    return best
