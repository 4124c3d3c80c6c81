"""Float64 reference computations the benchmark checks the program against.

Nothing here imports ``attrembed``.  The forward pass, the PPM, manifest
and checkpoint readers, the ranking and the average precision are written
from the file formats and the method's definitions, vectorised over
images, so that agreement with the program is evidence rather than a
repeat of its own code.  ``test_reference.py`` pins the forward pass to
the loop oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import struct

import numpy as np

# -- forward pass -------------------------------------------------------------


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Zero-padded strided convolution of (n, c, h, w) by (o, c, k, k)."""
    n, c, h, w = x.shape
    o, _, k, _ = weight.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    padded[:, :, padding : padding + h, padding : padding + w] = x
    out = np.zeros((n, ho, wo, o))
    for di in range(k):
        for dj in range(k):
            window = padded[:, :, di : di + stride * (ho - 1) + 1 : stride, dj : dj + stride * (wo - 1) + 1 : stride]
            out += np.tensordot(window, weight[:, :, di, dj], axes=([1], [1]))
    return out.transpose(0, 3, 1, 2) + bias[None, :, None, None]


def backbone(images: np.ndarray, state: dict) -> np.ndarray:
    """Three 3x3 stride-2 convolutions with padding 1, each followed by ReLU."""
    x = np.asarray(images, dtype=np.float64)
    for stage in (1, 2, 3):
        weight = np.asarray(state[f"backbone.stage{stage}.weight"], dtype=np.float64)
        bias = np.asarray(state[f"backbone.stage{stage}.bias"], dtype=np.float64)
        x = np.maximum(conv2d(x, weight, bias, 2, 1), 0.0)
    return x


def _p(state: dict, name: str) -> np.ndarray:
    return np.asarray(state[name], dtype=np.float64)


def head_full(maps: np.ndarray, state: dict, attribute: int) -> np.ndarray:
    """Spatial attention, channel gate and projection for one attribute.

    maps is (n, c, h, w); the result is (n, d).
    """
    maps = np.asarray(maps, dtype=np.float64)
    n, c, h, w = maps.shape
    mapped = np.tanh(np.einsum("pc,nchw->nphw", _p(state, "spatial.map_conv.weight"), maps))
    attr_s = np.tanh(_p(state, "spatial.attr_embed.weight")[:, attribute])
    score_w = _p(state, "spatial.score_conv.weight")[0]
    scores = np.tanh(np.einsum("p,nphw->nhw", score_w * attr_s, mapped)).reshape(n, h * w)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    pooled = np.einsum("ncj,nj->nc", maps.reshape(n, c, h * w), alpha)
    attr_c = np.maximum(_p(state, "channel.attr_embed.weight")[:, attribute], 0.0)
    joined = np.concatenate([np.broadcast_to(attr_c, (n, c)), pooled], axis=1)
    hidden = np.maximum(joined @ _p(state, "channel.gate_reduce.weight").T, 0.0)
    gate = 1.0 / (1.0 + np.exp(-(hidden @ _p(state, "channel.gate_expand.weight").T)))
    return (pooled * gate) @ _p(state, "proj.weight").T + _p(state, "proj.bias")


def head_plain(maps: np.ndarray, state: dict) -> np.ndarray:
    """Mean pooling and projection, the same for every attribute: (n, d)."""
    pooled = np.asarray(maps, dtype=np.float64).mean(axis=(2, 3))
    return pooled @ _p(state, "proj.weight").T + _p(state, "proj.bias")


def embeddings(images: np.ndarray, state: dict, variant: str, n_attributes: int) -> np.ndarray:
    """Raw embeddings of (n, 3, s, s) images under every attribute: (n, A, d)."""
    maps = backbone(images, state)
    if variant == "full":
        per_attr = [head_full(maps, state, a) for a in range(n_attributes)]
    elif variant == "triplet_plain":
        per_attr = [head_plain(maps, state)] * n_attributes
    else:
        raise ValueError(f"no reference forward for variant {variant!r}")
    return np.stack(per_attr, axis=1)


def unit(vectors: np.ndarray) -> np.ndarray:
    return vectors / np.linalg.norm(vectors, axis=-1, keepdims=True)


# Parameters each variant's forward reads; the rest must never change.
def used_parameters(variant: str, names) -> set:
    heads = {"full": ("spatial.", "channel.", "proj.", "backbone."), "triplet_plain": ("proj.", "backbone.")}
    return {name for name in names if name.startswith(heads[variant])}


# -- ranking and average precision ------------------------------------------


def average_precisions(scores: np.ndarray, relevant: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """AP of every row of a (queries, candidates) score matrix.

    Columns must be in ascending id order: the stable sort on descending
    score then breaks ties by ascending id.  Returns (ap, defined), where
    a row with no relevant candidate has ap 0 and defined False.
    """
    order = np.argsort(-scores, axis=1, kind="stable")
    flags = np.take_along_axis(relevant, order, axis=1).astype(np.float64)
    hits = np.cumsum(flags, axis=1)
    ranks = np.arange(1, scores.shape[1] + 1)
    n_relevant = flags.sum(axis=1)
    defined = n_relevant > 0
    ap = (flags * hits / ranks).sum(axis=1) / np.where(defined, n_relevant, 1.0)
    return ap, defined


def ap_of_flags(flags) -> float | None:
    flags = np.asarray(flags, dtype=np.float64)
    total = flags.sum()
    if total == 0:
        return None
    hits = np.cumsum(flags)
    return float((flags * hits / np.arange(1, len(flags) + 1)).sum() / total)


def random_ranking_ap(n_candidates: int, n_relevant: int) -> float:
    """Expected AP of a uniformly random order: the j-th ranked item is
    relevant with probability R/N, and given that, each of the k-1 items
    above it is relevant with probability (R-1)/(N-1)."""
    if n_candidates == 1:
        return 1.0
    k = np.arange(1, n_candidates + 1, dtype=np.float64)
    return float(np.sum((1.0 + (k - 1) * (n_relevant - 1) / (n_candidates - 1)) / k) / n_candidates)


# -- Adam movement bound -----------------------------------------------------


def adam_ratio_bound(t: int, beta1: float = 0.9, beta2: float = 0.999) -> float:
    """Bound on |m_hat / sqrt(v_hat)| after t steps, by Cauchy-Schwarz.

    |sum b1^(t-k) g_k| <= sqrt(sum (b1^2/b2)^(t-k)) * sqrt(sum b2^(t-k) g_k^2),
    so the ratio is at most (1-b1)/(1-b1^t) * sqrt((1-b2^t)/(1-b2)) *
    sqrt(sum_{j<t} (b1^2/b2)^j); it tends to about 7.27 for the defaults.
    """
    q = beta1 * beta1 / beta2
    geometric = (1.0 - q**t) / (1.0 - q)
    return (1.0 - beta1) / (1.0 - beta1**t) * np.sqrt((1.0 - beta2**t) / (1.0 - beta2)) * np.sqrt(geometric)


# -- file readers -------------------------------------------------------------


def read_ppm(path) -> np.ndarray:
    """Binary P6 raster with maxval 255 and no comments, as (3, h, w) floats."""
    with open(path, "rb") as f:
        data = f.read()
    magic, w, h, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit P6 raster")
    w, h = int(w), int(h)
    pixels = np.frombuffer(data[len(data) - 3 * w * h :], dtype=np.uint8)
    return pixels.reshape(h, w, 3).transpose(2, 0, 1) / 255.0


class Manifest:
    """The parts of a split manifest the checks need, parsed from its text."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        self.attributes: list[str] = []
        self.values: list[list[str]] = []
        pos = 2
        while lines[pos].startswith("attribute "):
            parts = lines[pos].split()
            self.attributes.append(parts[1])
            self.values.append(parts[2:])
            pos += 1
        n_records = int(lines[pos].split()[1])
        self.labels: dict[str, dict[int, int]] = {}
        for line in lines[pos + 1 : pos + 1 + n_records]:
            image_id, *tokens = line.split()
            labels = {}
            for token in tokens:
                name, value = token.split(":")
                a = self.attributes.index(name)
                labels[a] = self.values[a].index(value)
            self.labels[image_id] = labels
        self.split: dict[str, str] = {}
        self.role: dict[str, str] = {}
        for line in lines[pos + 2 + n_records : pos + 2 + 2 * n_records]:
            image_id, split, role = line.split()
            self.split[image_id] = split
            self.role[image_id] = role

    def ids(self, split: str) -> list[str]:
        return [i for i in self.labels if self.split[i] == split]

    def retrieval(self, split: str):
        """Queries as (image_id, attribute, value) in manifest order, and per
        attribute the candidate ids in ascending order with their values."""
        queries = []
        pools: dict[int, list[tuple[str, int]]] = {}
        for image_id in self.ids(split):
            for a, v in sorted(self.labels[image_id].items()):
                if self.role[image_id] == "query":
                    queries.append((image_id, a, v))
                else:
                    pools.setdefault(a, []).append((image_id, v))
        return queries, {a: sorted(pool) for a, pool in pools.items()}


def _read_tensor(f) -> np.ndarray:
    if f.read(4) != b"ATT1":
        raise ValueError("bad tensor magic")
    (rank,) = struct.unpack("<I", f.read(4))
    shape = struct.unpack(f"<{rank}I", f.read(4 * rank))
    dtype = {4: "<f4", 8: "<f8"}[f.read(1)[0]]
    count = int(np.prod(shape)) if rank else 1
    return np.frombuffer(f.read(count * np.dtype(dtype).itemsize), dtype=dtype).reshape(shape)


def read_checkpoint(path) -> tuple[float, dict]:
    """(validation metric, parameter arrays) of a checkpoint file."""
    with open(path, "rb") as f:
        header = [f.readline().decode("utf-8").split() for _ in range(5)]
        fields = {row[0]: row[1] for row in header[1:]}
        state = {}
        for _ in range(int(fields["params"])):
            name = f.readline().decode("utf-8").rstrip("\n")
            state[name] = _read_tensor(f)
    return float(fields["metric"]), state


def read_run_config(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            if key:
                out[key] = value
    return out
