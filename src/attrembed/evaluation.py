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
    """Indices ordering candidates by descending score, ids ascending on ties."""
    order = sorted(range(len(candidate_ids)), key=lambda i: (-scores[i], candidate_ids[i]))
    return order


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


class ModelScorer:
    """Cosine scorer over cached unit-normalized model embeddings.

    The first lookup of an image runs the backbone on it once and embeds
    the feature map under every attribute in one batched head call; every
    (image, attribute) embedding is then reused across queries, candidates,
    and triplet evaluation.
    """

    def __init__(self, model: AttributeEmbeddingModel, images: Mapping[str, np.ndarray]):
        self.model = model
        self.images = images
        self._cache: dict[tuple[str, int], np.ndarray] = {}

    def unit_embedding(self, image_id: str, attribute: int) -> np.ndarray:
        key = (image_id, attribute)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if not 0 <= attribute < self.model.config.n_attributes:
            raise VocabularyError(
                f"attribute index {attribute} outside vocabulary of {self.model.config.n_attributes}"
            )
        image = Tensor(np.asarray(self.images[image_id], dtype=self.model.dtype))
        vectors = self.model.embed_attributes(self.model.image_to_map(image)).data
        norms = np.linalg.norm(vectors, axis=1)
        for a, (vec, norm) in enumerate(zip(vectors, norms)):
            if norm >= 1e-12:  # degenerate rows stay uncached and raise when asked for
                self._cache[(image_id, a)] = (vec / norm).astype(np.float64)
        if norms[attribute] < 1e-12:
            raise DegenerateVectorError(
                f"embedding of {image_id!r} under attribute {attribute} has near-zero norm"
            )
        return self._cache[key]

    def __call__(self, query_id: str, attribute: int, candidate_ids: Sequence[str]) -> np.ndarray:
        q = self.unit_embedding(query_id, attribute)
        return np.array(
            [float(q @ self.unit_embedding(c, attribute)) for c in candidate_ids]
        )

    def similarity(self, id_a: str, id_b: str, attributes: Sequence[int]) -> float:
        """Fine-grained similarity: summed per-attribute cosines."""
        if not attributes:
            raise ContractError("similarity needs at least one attribute")
        return float(
            sum(
                self.unit_embedding(id_a, a) @ self.unit_embedding(id_b, a)
                for a in attributes
            )
        )


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
