"""Retrieval MAP, triplet relation accuracy, and top-k reranking.

Retrieval: each query names an image, an attribute, and that image's value
for it.  The query's candidates are ranked by similarity in the query
attribute's embedding space, a candidate being relevant when it shares the
query's value.  Average precision is the mean of precision measured at
each relevant rank; per-attribute MAP averages a query's attribute peers
and overall MAP averages every query (query-weighted).

Queries with no relevant candidate have undefined AP.  They are counted
and reported, never averaged in as zeros.

Ties in similarity are broken by ascending image id so a report is a pure
function of (scores, split).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, DegenerateVectorError, ExcludedQueryError, VocabularyError
from .model import AttributeEmbeddingModel
from .training import Triplet


@dataclass(frozen=True)
class Query:
    image_id: str
    attribute: int
    value: int


@dataclass
class RetrievalSplit:
    """Queries plus, per attribute, the candidate pool they rank."""

    queries: list[Query]
    candidates: dict[int, list[tuple[str, int]]]

    def validate(self) -> None:
        for a, pool in self.candidates.items():
            ids = [image_id for image_id, _ in pool]
            if len(set(ids)) != len(ids):
                raise ContractError(f"duplicate candidate ids for attribute {a}")
        for q in self.queries:
            if q.attribute not in self.candidates:
                raise ContractError(
                    f"query {q.image_id!r} names attribute {q.attribute} with no candidate pool"
                )
            if any(image_id == q.image_id for image_id, _ in self.candidates[q.attribute]):
                raise ContractError(
                    f"query {q.image_id!r} appears among its own candidates"
                )


@dataclass
class EvalReport:
    per_attribute: dict[int, float]
    overall: float
    n_queries: int
    n_excluded: int
    variant: str = ""
    checkpoint_hash: str = ""
    triplet_accuracy: Optional[float] = None


def average_precision(relevance: Sequence[int]) -> float:
    """AP of an ordered 0/1 relevance list: mean precision at relevant ranks."""
    flags = np.asarray(relevance, dtype=np.int64)
    if flags.ndim != 1 or len(flags) == 0:
        raise ContractError("average_precision expects a nonempty flat relevance list")
    total = int(flags.sum())
    if total == 0:
        raise ExcludedQueryError("no relevant candidate: average precision undefined")
    ranks = np.flatnonzero(flags) + 1
    hits = np.arange(1, total + 1)
    return float(np.sum(hits / ranks) / total)


def expected_random_average_precision(n_candidates: int, n_relevant: int) -> float:
    """Exact expected AP of a uniformly random ranking with R relevant of N.

    E[AP] = (1/N) * sum over ranks k of (1 + (k-1)(R-1)/(N-1)) / k.
    """
    if not 0 < n_relevant <= n_candidates:
        raise ContractError(
            f"need 0 < relevant <= candidates, got {n_relevant} of {n_candidates}"
        )
    if n_candidates == 1:
        return 1.0
    k = np.arange(1, n_candidates + 1, dtype=np.float64)
    pair = (k - 1) * (n_relevant - 1) / (n_candidates - 1)
    return float(np.sum((1.0 + pair) / k) / n_candidates)


Scorer = Callable[[str, int, Sequence[str]], np.ndarray]


def rank_candidates(
    scores: np.ndarray, candidate_ids: Sequence[str]
) -> list[int]:
    """Indices ordering candidates by descending score, ids ascending on ties.
    The ids stay Python strings: a numpy string array drops trailing NULs."""
    return np.lexsort((np.array(candidate_ids, dtype=object), -np.asarray(scores))).tolist()


def evaluate_map(scorer: Scorer, split: RetrievalSplit, variant: str = "", checkpoint_hash: str = "") -> EvalReport:
    """Rank every query's candidate pool and aggregate average precision.

    The scorer maps (query image id, attribute, candidate ids) to one
    similarity per candidate.  Excluded queries (no relevant candidate) are
    counted and skipped in both the per-attribute and overall means.
    """
    if not split.queries:
        raise ContractError("evaluate_map needs at least one query")
    split.validate()
    for a in sorted({q.attribute for q in split.queries}):
        if not split.candidates.get(a):
            raise ContractError(f"empty candidate pool for attribute {a}")
    ap_by_attr: dict[int, list[float]] = {}
    included: list[float] = []
    excluded = 0
    for q in split.queries:
        pool = split.candidates[q.attribute]
        ids = [image_id for image_id, _ in pool]
        scores = np.asarray(scorer(q.image_id, q.attribute, ids), dtype=np.float64)
        if scores.shape != (len(ids),):
            raise ContractError(
                f"scorer returned {scores.shape} scores for {len(ids)} candidates"
            )
        order = rank_candidates(scores, ids)
        flags = [1 if pool[i][1] == q.value else 0 for i in order]
        try:
            ap = average_precision(flags)
        except ExcludedQueryError:
            excluded += 1
            continue
        ap_by_attr.setdefault(q.attribute, []).append(ap)
        included.append(ap)
    if not included:
        raise ContractError("every query was excluded; no average precision to report")
    return EvalReport(
        per_attribute={a: float(np.mean(v)) for a, v in sorted(ap_by_attr.items())},
        overall=float(np.mean(included)),
        n_queries=len(split.queries),
        n_excluded=excluded,
        variant=variant,
        checkpoint_hash=checkpoint_hash,
    )


def expected_random_map(split: RetrievalSplit) -> float:
    """Query-weighted mean of the analytic random-ranking AP over a split."""
    values = []
    for q in split.queries:
        pool = split.candidates[q.attribute]
        relevant = sum(1 for _, v in pool if v == q.value)
        if relevant == 0:
            continue
        values.append(expected_random_average_precision(len(pool), relevant))
    if not values:
        raise ContractError("every query lacks relevant candidates")
    return float(np.mean(values))


# -- model adapters ---------------------------------------------------------


# Images embedded per backbone and head call: the 3 x 16 images of a
# training batch, so evaluation peaks no higher in memory than training.
EMBED_CHUNK = 48


class ModelScorer:
    """Cosine scorer over one float64 array of unit embeddings, shape
    (images, attributes, d), with one row per image embedded so far.

    Each call first embeds the ids not yet seen, EMBED_CHUNK images per
    backbone pass and head call.  A near-zero or non-finite embedding is
    stored as NaN and refused as degenerate only when a score needs it.
    """

    def __init__(self, model: AttributeEmbeddingModel, images: Mapping[str, np.ndarray]):
        self.model = model
        self.images = images
        self._row: dict[str, int] = {}
        self._units = np.empty((0, model.config.n_attributes, model.config.embed_dim))

    def _check_attribute(self, attribute: int) -> None:
        if not 0 <= attribute < self.model.config.n_attributes:
            raise VocabularyError(
                f"attribute index {attribute} outside vocabulary of {self.model.config.n_attributes}"
            )

    def embed(self, image_ids: Sequence[str]) -> None:
        """Embed the named images the array lacks.  Scores embed what they
        need on demand; naming a whole split first embeds it in full chunks."""
        new = [i for i in dict.fromkeys(image_ids) if i not in self._row]
        start = len(self._row)
        self._units = np.concatenate([self._units, np.empty((len(new), *self._units.shape[1:]))])
        for lo in range(0, len(new), EMBED_CHUNK):
            chunk = new[lo : lo + EMBED_CHUNK]
            batch = Tensor(np.stack([np.asarray(self.images[i], dtype=self.model.dtype) for i in chunk]))
            vectors = self.model.embed_attributes(self.model.image_to_map(batch)).data.astype(np.float64)
            norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
            ok = np.isfinite(norms) & (norms >= 1e-12)
            rows = slice(start + lo, start + lo + len(chunk))
            self._units[rows] = np.nan
            np.divide(vectors, norms, out=self._units[rows], where=ok)
            self._row.update(zip(chunk, range(rows.start, rows.stop)))

    def _rows(self, image_ids: Sequence[str]) -> list[int]:
        rows = list(map(self._row.get, image_ids))
        if None in rows:
            self.embed(image_ids)
            rows = list(map(self._row.get, image_ids))
        return rows

    def _degenerate(self, image_ids: Sequence[str], attribute: int) -> DegenerateVectorError:
        bad = next(i for i in image_ids if np.isnan(self._units[self._row[i], attribute, 0]))
        return DegenerateVectorError(
            f"embedding of {bad!r} under attribute {attribute} has near-zero norm or is not finite"
        )

    def unit_embedding(self, image_id: str, attribute: int) -> np.ndarray:
        self(image_id, attribute, [])  # embeds the image and refuses a degenerate row
        return self._units[self._row[image_id], attribute]

    def __call__(self, query_id: str, attribute: int, candidate_ids: Sequence[str]) -> np.ndarray:
        self._check_attribute(attribute)
        ids = [query_id, *candidate_ids]
        rows = self._rows(ids)  # before reading self._units, which embedding replaces
        vectors = self._units[rows, attribute]
        if np.isnan(vectors[:, 0]).any():
            raise self._degenerate(ids, attribute)
        return vectors[1:] @ vectors[0]

    def similarity(self, id_a: str, id_b: str, attributes: Sequence[int]) -> float:
        """Fine-grained similarity: summed per-attribute cosines."""
        if not attributes:
            raise ContractError("similarity needs at least one attribute")
        row_a, row_b = self._row.get(id_a), self._row.get(id_b)
        if row_a is None or row_b is None:
            row_a, row_b = self._rows([id_a, id_b])
        total = 0.0
        for a in attributes:
            self._check_attribute(a)
            cosine = float(self._units[row_a, a] @ self._units[row_b, a])
            if cosine != cosine:
                raise self._degenerate([id_a, id_b], a)
            total += cosine
        return total


def evaluate_triplet_accuracy(
    similarity: Callable[[str, str, int], float], triplets: Sequence[Triplet]
) -> float:
    """Fraction of triplets where the positive outranks the negative.

    The prediction is the strict comparison sim(anchor, positive) >
    sim(anchor, negative) in the triplet's attribute space; an exact tie is
    counted as incorrect.
    """
    if not triplets:
        raise ContractError("evaluate_triplet_accuracy needs at least one triplet")
    correct = 0
    for t in triplets:
        s_pos = similarity(t.anchor_id, t.positive_id, t.attribute)
        s_neg = similarity(t.anchor_id, t.negative_id, t.attribute)
        if s_pos > s_neg:
            correct += 1
    return correct / len(triplets)


def rerank_topk(
    ranking: Sequence[str], score: Callable[[str], float], k: int = 10
) -> list[str]:
    """Reorder the first k entries by descending score, leaving the tail.

    The sort is stable: candidates with equal scores keep their incoming
    relative order.  k must not exceed the ranking length.
    """
    if k < 1:
        raise ContractError(f"rerank_topk needs k >= 1, got {k}")
    if k > len(ranking):
        raise ContractError(f"k={k} exceeds ranking of length {len(ranking)}")
    head = list(ranking[:k])
    scored = [score(image_id) for image_id in head]
    order = sorted(range(k), key=lambda i: -scored[i])
    return [head[i] for i in order] + list(ranking[k:])


def write_report(path, reports: Sequence[EvalReport], attribute_names: Sequence[str]) -> None:
    """Tab-separated table: attribute columns plus overall, one row per
    variant, MAP values as percentages with two decimals."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("\t".join(["variant", *attribute_names, "overall"]) + "\n")
        for r in reports:
            cells = [r.variant or "-"]
            for a in range(len(attribute_names)):
                cells.append(f"{100 * r.per_attribute[a]:.2f}" if a in r.per_attribute else "-")
            cells.append(f"{100 * r.overall:.2f}")
            f.write("\t".join(cells) + "\n")
