"""Output checks: each compares what the program wrote or returned with
the benchmark's own recomputation from reference embeddings, or with a
property the method must have, and raises CheckFailed on a mismatch.

Float32 near-ties.  The program scores with float32 embeddings, the
reference with float64 ones.  ``check_embeddings`` requires every sampled
unit-embedding component to agree within EMBED_TOL; then no cosine differs
by more than 2 * sqrt(d) * EMBED_TOL = TIE_EPS / 2.  Two candidates whose
reference cosines lie within TIE_EPS of each other may therefore come out
in either order, so each ranking quantity is checked against the interval
spanned by resolving every such near-tie for and against the relevant
candidates.  Written values are also rounded: MAP to 0.01 percent, the
accuracy and rerank APs to 1e-6.
"""

from __future__ import annotations

import numpy as np

import reference as ref

EMBED_TOL = 5e-6
EMBED_DIM = 16
TIE_EPS = 4 * np.sqrt(EMBED_DIM) * EMBED_TOL


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- embeddings ---------------------------------------------------------------


def check_embeddings(program: np.ndarray, reference: np.ndarray, label: str) -> float:
    """Program and reference unit embeddings of the same images agree."""
    worst = float(np.max(np.abs(ref.unit(np.asarray(program, dtype=np.float64)) - ref.unit(reference))))
    require(worst <= EMBED_TOL, f"{label}: unit embeddings differ by {worst:.3e} > {EMBED_TOL:.1e}")
    return worst


# -- retrieval MAP -----------------------------------------------------------


class MapBounds:
    """Reference MAP per attribute and overall, as (low, exact, high)."""

    def __init__(self, units: np.ndarray, row: dict, queries, pools, eps: float = TIE_EPS):
        per_query: dict[int, list[np.ndarray]] = {}
        for a, pool in pools.items():
            qs = [(image_id, v) for image_id, qa, v in queries if qa == a]
            if not qs:
                continue
            q_units = units[[row[i] for i, _ in qs], a]
            c_units = units[[row[i] for i, _ in pool], a]
            scores = q_units @ c_units.T
            relevant = np.array([v for _, v in qs])[:, None] == np.array([v for _, v in pool])[None, :]
            exact, defined = ref.average_precisions(scores, relevant)
            low, _ = ref.average_precisions(scores - eps * relevant, relevant)
            high, _ = ref.average_precisions(scores + eps * relevant, relevant)
            per_query[a] = [x[defined] for x in (low, exact, high)]
        self.n_excluded = len(queries) - sum(len(v[0]) for v in per_query.values())
        self.per_attribute = {a: tuple(float(x.mean()) for x in v) for a, v in per_query.items() if len(v[0])}
        self.overall = tuple(
            float(np.concatenate([v[i] for v in per_query.values()]).mean()) for i in range(3)
        )


def check_in(value: float, bounds: tuple, slack: float, label: str) -> None:
    low, exact, high = bounds
    require(
        low - slack - 1e-12 <= value <= high + slack + 1e-12,
        f"{label}: program {value:.6f} outside reference [{low:.6f}, {high:.6f}] (exact {exact:.6f})",
    )


def check_report(path, bounds: MapBounds, attribute_names) -> None:
    """report.tsv: one row, MAP per attribute and overall in percent."""
    with open(path, encoding="utf-8") as f:
        header, row = (line.rstrip("\n").split("\t") for line in f.readlines()[:2])
    values = dict(zip(header[1:], (float(x) / 100 for x in row[1:])))
    for a, name in enumerate(attribute_names):
        check_in(values[name], bounds.per_attribute[a], 5e-5, f"report.tsv MAP[{name}]")
    check_in(values["overall"], bounds.overall, 5e-5, "report.tsv overall MAP")


def check_above_random(claimed: float, queries, pools, label: str) -> float:
    """The MAP beats the analytic MAP of a random ranking."""
    values = []
    for _, a, v in queries:
        relevant = sum(1 for _, cv in pools[a] if cv == v)
        if relevant:
            values.append(ref.random_ranking_ap(len(pools[a]), relevant))
    chance = float(np.mean(values))
    require(claimed > chance, f"{label}: MAP {claimed:.4f} does not beat random ranking {chance:.4f}")
    return chance


# -- triplet accuracy --------------------------------------------------------


def triplet_accuracy_bounds(units: np.ndarray, row: dict, triplets, eps: float = TIE_EPS) -> tuple:
    idx = np.array([[row[t.anchor_id], row[t.positive_id], row[t.negative_id]] for t in triplets])
    attr = np.array([t.attribute for t in triplets])
    anchor, pos, neg = (units[idx[:, j], attr] for j in range(3))
    gap = np.sum(anchor * pos, axis=1) - np.sum(anchor * neg, axis=1)
    n = len(triplets)
    return float(np.sum(gap > eps)) / n, float(np.sum(gap > 0)) / n, float(np.sum(gap >= -eps)) / n


def check_triplet_file(path, bounds: tuple) -> None:
    with open(path, encoding="utf-8") as f:
        fields = dict(line.split() for line in f if line.strip())
    check_in(float(fields["accuracy"]), bounds, 5e-7, "triplet_eval.txt accuracy")


# -- reranking ---------------------------------------------------------------


def expected_rerank(fine: np.ndarray, coarse: np.ndarray, row: dict, queries, pools, k: int, eps: float = TIE_EPS):
    """Per query: (ap_before, ap_after, certain); the APs are None when
    nothing relevant reaches the coarse top k.  ``certain`` is False when
    a near-tie could change the top-k set or either order."""
    out = []
    for image_id, a, v in queries:
        pool = pools[a]
        ids = [c for c, _ in pool]
        relevant = np.array([cv == v for _, cv in pool])
        base = coarse[[row[c] for c in ids], a] @ coarse[row[image_id], a]
        order = np.argsort(-base, kind="stable")
        kk = min(k, len(ids))
        head = order[:kk]
        ranked = base[order[: kk + 1]]
        fine_scores = fine[[row[ids[i]] for i in head], a] @ fine[row[image_id], a]
        reorder = np.argsort(-fine_scores, kind="stable")
        certain = bool(np.all(-np.diff(ranked) > eps) and np.all(-np.diff(fine_scores[reorder]) > eps))
        before = ref.ap_of_flags(relevant[head])
        after = ref.ap_of_flags(relevant[head][reorder])
        out.append((before, after, certain))
    return out


def check_rerank_file(path, expected, queries, attribute_names) -> int:
    """Every rerank.tsv row, in query order, matches the recomputation;
    rows whose query is near-tied are only required to be well formed.
    Returns the number of near-tied queries."""
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f.readlines()[1:]]
    pos = 0
    uncertain = 0
    for (image_id, a, _), want in zip(queries, expected):
        present = pos < len(rows) and rows[pos][:2] == [image_id, attribute_names[a]]
        if not want[2]:
            uncertain += 1
            if present:
                values = [float(x) for x in rows[pos][2:]]
                require(all(0.0 < x <= 1.0 for x in values), f"rerank.tsv row {pos + 1}: bad APs {values}")
                pos += 1
            continue
        require(
            present == (want[0] is not None),
            f"rerank.tsv: query {image_id}/{attribute_names[a]} has a row: {present}, expected {want[0] is not None}",
        )
        if present:
            got = [float(x) for x in rows[pos][2:]]
            for g, w, name in zip(got, want[:2], ("ap_before", "ap_after")):
                require(
                    abs(g - w) <= 5e-7 + 1e-12,
                    f"rerank.tsv row {pos + 1} {name}: program {g:.6f}, reference {w:.6f}",
                )
            pos += 1
    require(pos == len(rows), f"rerank.tsv: {len(rows) - pos} rows match no query")
    return uncertain


# -- training ----------------------------------------------------------------


def sample_heldout_triplets(labels: dict, ids, count: int, seed: int, n_attributes: int):
    """(anchor, positive, negative, attribute) index rows over ``ids``."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = int(rng.integers(n_attributes))
        anchor = ids[int(rng.integers(len(ids)))]
        same = [i for i in ids if i != anchor and labels[i][a] == labels[anchor][a]]
        other = [i for i in ids if labels[i][a] != labels[anchor][a]]
        if same and other:
            out.append((anchor, same[int(rng.integers(len(same)))], other[int(rng.integers(len(other)))], a))
    return out


def mean_hinge(units: np.ndarray, row: dict, triplets, margin: float) -> float:
    idx = np.array([[row[t[0]], row[t[1]], row[t[2]]] for t in triplets])
    attr = np.array([t[3] for t in triplets])
    anchor, pos, neg = (units[idx[:, j], attr] for j in range(3))
    s_pos = np.sum(anchor * pos, axis=1)
    s_neg = np.sum(anchor * neg, axis=1)
    return float(np.mean(np.maximum(0.0, margin - s_pos + s_neg)))


def check_hinge_decreased(before: float, after: float) -> None:
    require(after < before, f"held-out mean hinge did not fall: {before:.5f} -> {after:.5f}")


def check_parameter_moves(initial: dict, final: dict, variant: str, step_lrs) -> None:
    """Unused parameters stay bitwise unchanged, every used one moves, and
    no coordinate moves further than Adam's per-step bound allows.

    ``step_lrs`` is the learning rate of each Adam step in order.  The
    bound is sum_t lr_t * adam_ratio_bound(t); float32 rounding of each
    update adds at most one spacing of the coordinate per step.
    """
    used = ref.used_parameters(variant, initial)
    limit = sum(lr * ref.adam_ratio_bound(t) for t, lr in enumerate(step_lrs, start=1))
    for name, before in initial.items():
        after = final[name]
        if name not in used:
            require(np.array_equal(before, after), f"unused parameter {name} changed")
            continue
        moved = np.abs(after.astype(np.float64) - before.astype(np.float64))
        require(float(moved.max()) > 0.0, f"used parameter {name} never moved")
        slack = len(step_lrs) * np.spacing(np.abs(before).astype(before.dtype) + np.asarray(limit, before.dtype))
        excess = moved - limit - slack
        require(float(excess.max()) <= 0.0, f"{name} moved {float(moved.max()):.4e}, beyond the Adam bound {limit:.4e}")
