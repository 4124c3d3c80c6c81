"""Retrieval metric tests: AP against enumeration, the analytic random
baseline against Monte Carlo, ranking and reranking rules, and the model
scorer adapter."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from attrembed import autodiff as ad
from attrembed.autodiff import Tensor
from attrembed.backbone import BackboneConfig, TinyBackbone
from attrembed.errors import (
    ContractError,
    DegenerateVectorError,
    ExcludedQueryError,
    VocabularyError,
)
from attrembed.evaluation import (
    EMBED_CHUNK,
    EvalReport,
    ModelScorer,
    Query,
    RetrievalSplit,
    average_precision,
    evaluate_map,
    evaluate_triplet_accuracy,
    expected_random_average_precision,
    expected_random_map,
    rank_candidates,
    rerank_topk,
    write_report,
)
from attrembed.model import VARIANTS, AttributeEmbeddingModel, ModelConfig
from attrembed.training import Triplet
from test_model import EXPECTED_SIMILARITY, pencil_maps, pencil_model


class TestAveragePrecision:
    def test_hand_cases(self):
        assert math.isclose(average_precision([1, 0, 1]), 5 / 6, rel_tol=1e-15)
        assert math.isclose(average_precision([0, 0, 1]), 1 / 3, rel_tol=1e-15)
        assert average_precision([1, 1, 1]) == 1.0
        assert average_precision([1]) == 1.0
        assert average_precision([0, 1]) == 0.5

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 40))
            flags = (rng.random(n) < 0.4).astype(int).tolist()
            if sum(flags) == 0:
                flags[int(rng.integers(n))] = 1
            assert math.isclose(
                average_precision(flags), oracles.brute_force_ap(flags), rel_tol=1e-13
            )

    def test_no_relevant_candidate_is_excluded_not_zero(self):
        with pytest.raises(ExcludedQueryError):
            average_precision([0, 0, 0])

    def test_malformed_input_rejected(self):
        with pytest.raises(ContractError):
            average_precision([])
        with pytest.raises(ContractError):
            average_precision([[1, 0], [0, 1]])


class TestExpectedRandomAP:
    def test_degenerate_pools(self):
        assert expected_random_average_precision(1, 1) == 1.0
        # all candidates relevant: every ranking is perfect
        for n in (2, 5, 30):
            assert math.isclose(expected_random_average_precision(n, n), 1.0, rel_tol=1e-15)

    def test_single_relevant_is_harmonic_mean_formula(self):
        # R=1 collapses to H_N / N
        expected = (1 + 0.5 + 1 / 3 + 0.25) / 4
        assert math.isclose(expected_random_average_precision(4, 1), expected, rel_tol=1e-15)

    @pytest.mark.parametrize("n,r", [(10, 3), (25, 5), (50, 10)])
    def test_matches_monte_carlo(self, n, r):
        analytic = expected_random_average_precision(n, r)
        estimate = oracles.monte_carlo_random_ap(n, r, trials=20000, seed=n * 100 + r)
        assert abs(analytic - estimate) < 0.01

    def test_bounds_rejected(self):
        with pytest.raises(ContractError):
            expected_random_average_precision(5, 0)
        with pytest.raises(ContractError):
            expected_random_average_precision(5, 6)


class TestRankCandidates:
    def test_descending_scores(self):
        order = rank_candidates(np.array([0.5, 0.9, 0.5]), ["b", "a", "c"])
        assert order == [1, 0, 2]

    def test_full_tie_falls_back_to_id_order(self):
        order = rank_candidates(np.zeros(4), ["d", "b", "c", "a"])
        assert order == [3, 1, 2, 0]

    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0]), st.text(max_size=3)),
            max_size=12,
            unique_by=lambda pair: pair[1],
        )
    )
    def test_matches_sort_by_descending_score_then_id(self, pairs):
        scores = [s for s, _ in pairs]
        ids = [i for _, i in pairs]
        want = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
        assert rank_candidates(np.array(scores), ids) == want


def random_split_and_scores(rng):
    """A randomized split plus a deterministic score table for it."""
    n_attrs = int(rng.integers(1, 4))
    candidates = {}
    queries = []
    scores = {}
    for a in range(n_attrs):
        pool_size = int(rng.integers(2, 51))
        pool = [(f"c{a}_{i:03d}", int(rng.integers(4))) for i in range(pool_size)]
        candidates[a] = pool
        for qi in range(int(rng.integers(1, 6))):
            q = Query(f"q{a}_{qi}", a, int(rng.integers(4)))
            queries.append(q)
            for image_id, _ in pool:
                scores[(q.image_id, a, image_id)] = float(rng.normal())
    split = RetrievalSplit(queries=queries, candidates=candidates)

    def scorer(query_id, attribute, candidate_ids):
        return np.array([scores[(query_id, attribute, c)] for c in candidate_ids])

    return split, scorer


def oracle_map(split, scorer):
    """Reference MAP: sort per query, enumerate AP, average by hand."""
    per_attr = {}
    included = []
    excluded = 0
    for q in split.queries:
        pool = split.candidates[q.attribute]
        ids = [image_id for image_id, _ in pool]
        s = scorer(q.image_id, q.attribute, ids)
        order = sorted(range(len(ids)), key=lambda i: (-s[i], ids[i]))
        flags = [1 if pool[i][1] == q.value else 0 for i in order]
        ap = oracles.brute_force_ap(flags)
        if ap is None:
            excluded += 1
            continue
        per_attr.setdefault(q.attribute, []).append(ap)
        included.append(ap)
    per_attr = {a: sum(v) / len(v) for a, v in per_attr.items()}
    return per_attr, sum(included) / len(included), excluded


class TestEvaluateMap:
    def test_matches_brute_force_on_random_splits(self, rng):
        checked = 0
        for _ in range(40):
            split, scorer = random_split_and_scores(rng)
            try:
                expected_attr, expected_overall, expected_excluded = oracle_map(split, scorer)
            except ZeroDivisionError:
                continue  # every query excluded; evaluate_map raises, tested below
            report = evaluate_map(scorer, split)
            assert abs(report.overall - expected_overall) <= 1e-12
            assert report.n_excluded == expected_excluded
            assert set(report.per_attribute) == set(expected_attr)
            for a, v in expected_attr.items():
                assert abs(report.per_attribute[a] - v) <= 1e-12
            checked += 1
        assert checked >= 30

    def test_perfect_scorer_scores_one(self):
        split = RetrievalSplit(
            queries=[Query("q", 0, 1)],
            candidates={0: [("a", 1), ("b", 0), ("c", 1), ("d", 2)]},
        )
        values = {"a": 1, "b": 0, "c": 1, "d": 2}

        def scorer(query_id, attribute, ids):
            return np.array([1.0 if values[c] == 1 else 0.0 for c in ids])

        report = evaluate_map(scorer, split)
        assert report.overall == 1.0
        assert report.n_queries == 1
        assert report.n_excluded == 0

    def test_excluded_queries_counted_not_averaged(self):
        split = RetrievalSplit(
            queries=[Query("q1", 0, 0), Query("q2", 0, 3)],
            candidates={0: [("a", 0), ("b", 1)]},
        )

        def scorer(query_id, attribute, ids):
            return np.array([0.9 if c == "a" else 0.1 for c in ids])

        report = evaluate_map(scorer, split)
        assert report.n_excluded == 1
        assert report.overall == 1.0  # only q1 contributes, its AP is 1

    def test_all_queries_excluded_is_an_error(self):
        split = RetrievalSplit(
            queries=[Query("q", 0, 3)], candidates={0: [("a", 0), ("b", 1)]}
        )
        with pytest.raises(ContractError):
            evaluate_map(lambda *_: np.zeros(2), split)

    def test_tie_break_prefers_ascending_id(self):
        # equal scores: id order puts the relevant candidate first
        split = RetrievalSplit(
            queries=[Query("q", 0, 1)], candidates={0: [("a", 1), ("b", 0)]}
        )
        report = evaluate_map(lambda *_: np.zeros(2), split)
        assert report.overall == 1.0

    def test_scorer_shape_checked(self):
        split = RetrievalSplit(
            queries=[Query("q", 0, 0)], candidates={0: [("a", 0), ("b", 0)]}
        )
        with pytest.raises(ContractError):
            evaluate_map(lambda *_: np.zeros(3), split)

    def test_split_validation(self):
        with pytest.raises(ContractError):
            evaluate_map(lambda *_: np.zeros(1), RetrievalSplit(queries=[], candidates={}))
        dup = RetrievalSplit(
            queries=[Query("q", 0, 0)], candidates={0: [("a", 0), ("a", 1)]}
        )
        with pytest.raises(ContractError):
            evaluate_map(lambda *_: np.zeros(2), dup)
        own = RetrievalSplit(
            queries=[Query("a", 0, 0)], candidates={0: [("a", 0), ("b", 0)]}
        )
        with pytest.raises(ContractError):
            evaluate_map(lambda *_: np.zeros(2), own)
        missing_pool = RetrievalSplit(queries=[Query("q", 1, 0)], candidates={1: []})
        with pytest.raises(ContractError):
            evaluate_map(lambda *_: np.zeros(0), missing_pool)

    def test_expected_random_map_hand_average(self):
        split = RetrievalSplit(
            queries=[Query("q1", 0, 0), Query("q2", 0, 1)],
            candidates={0: [("a", 0), ("b", 0), ("c", 1), ("d", 2), ("e", 1)]},
        )
        expected = (
            expected_random_average_precision(5, 2)
            + expected_random_average_precision(5, 2)
        ) / 2
        assert math.isclose(expected_random_map(split), expected, rel_tol=1e-15)


class TestModelScorer:
    def scorer(self, variant="full", n_attributes=2):
        config = ModelConfig(
            channels=4, n_attributes=n_attributes, attn_channels=2, reduction=2, embed_dim=4,
            variant=variant,
        )
        model = AttributeEmbeddingModel(config, backbone_config=None, seed=3)
        rng = np.random.default_rng(21)
        images = {f"img_{i}": rng.normal(size=(4, 2, 2)) for i in range(5)}
        return ModelScorer(model, images), model, images

    def test_embeddings_are_unit_and_cached(self, monkeypatch):
        scorer, model, _ = self.scorer()
        passes = []
        embed = model.embed_attributes
        monkeypatch.setattr(model, "embed_attributes", lambda maps: passes.append(maps.shape) or embed(maps))
        u = scorer.unit_embedding("img_0", 1)
        assert math.isclose(float(np.linalg.norm(u)), 1.0, abs_tol=1e-12)
        np.testing.assert_array_equal(scorer.unit_embedding("img_0", 1), u)
        assert len(passes) == 1

    def test_scores_are_pairwise_cosines(self):
        scorer, model, images = self.scorer()
        out = scorer("img_0", 0, ["img_1", "img_2"])
        for got, other in zip(out, ["img_1", "img_2"]):
            e_q = model.embed_image(images["img_0"], 0).data
            e_c = model.embed_image(images[other], 0).data
            manual = float(
                e_q @ e_c / (np.linalg.norm(e_q) * np.linalg.norm(e_c))
            )
            assert math.isclose(float(got), manual, abs_tol=1e-12)

    def test_similarity_is_symmetric_and_sums_attributes(self):
        scorer, _, _ = self.scorer()
        s_ab = scorer.similarity("img_1", "img_3", [0, 1])
        s_ba = scorer.similarity("img_3", "img_1", [0, 1])
        assert math.isclose(s_ab, s_ba, abs_tol=1e-12)
        parts = scorer.similarity("img_1", "img_3", [0]) + scorer.similarity(
            "img_1", "img_3", [1]
        )
        assert math.isclose(s_ab, parts, abs_tol=1e-12)
        with pytest.raises(ContractError):
            scorer.similarity("img_1", "img_3", [])

    def test_self_similarity_is_attribute_count(self):
        scorer, _, _ = self.scorer(n_attributes=3)
        assert math.isclose(scorer.similarity("img_2", "img_2", [0, 1, 2]), 3.0, abs_tol=1e-12)

    def test_attribute_order_irrelevant(self):
        scorer, _, _ = self.scorer(n_attributes=3)
        assert scorer.similarity("img_1", "img_4", [2, 0]) == scorer.similarity("img_1", "img_4", [0, 2])

    def test_similarity_reproduces_the_hand_worked_chain(self):
        map_a, map_b = pencil_maps()
        scorer = ModelScorer(pencil_model(), {"a": map_a.data, "b": map_b.data})
        assert math.isclose(scorer.similarity("a", "b", [0, 1]), EXPECTED_SIMILARITY, abs_tol=1e-9)

    def test_zero_embedding_rejected(self):
        # fresh init has a zero projection bias, so a zero map embeds to the
        # zero vector under triplet_plain
        scorer, _, images = self.scorer(variant="triplet_plain")
        images["img_0"] = np.zeros((4, 2, 2))
        with pytest.raises(DegenerateVectorError):
            scorer.unit_embedding("img_0", 0)
        with pytest.raises(DegenerateVectorError, match="img_0"):
            scorer.similarity("img_1", "img_0", [0])
        with pytest.raises(DegenerateVectorError, match="img_0"):
            scorer("img_1", 0, ["img_2", "img_0"])
        assert scorer("img_1", 0, ["img_2"]).shape == (1,)

    def test_non_finite_embedding_rejected_as_degenerate(self):
        scorer, _, images = self.scorer()
        images["a"] = np.full((4, 2, 2), np.nan)
        previous = ad.set_finite_checks(False)
        try:
            with pytest.raises(DegenerateVectorError, match="'a'"):
                scorer("img_1", 0, ["a"])
        finally:
            ad.set_finite_checks(previous)

    def test_backbone_runs_once_per_image(self, monkeypatch):
        config = ModelConfig(
            channels=4, n_attributes=3, attn_channels=2, reduction=2, embed_dim=4
        )
        backbone = BackboneConfig(kind="tiny_conv", out_channels=4, out_spatial=2, widths=(3, 4))
        model = AttributeEmbeddingModel(config, backbone, seed=6, dtype=np.float32)
        rng = np.random.default_rng(22)
        images = {f"img_{i}": rng.random((3, 16, 16)).astype(np.float32) for i in range(4)}
        calls = []
        forward_batch = TinyBackbone.forward_batch

        def counted(self, batch):
            calls.append(batch.shape[0])
            return forward_batch(self, batch)

        monkeypatch.setattr(TinyBackbone, "forward_batch", counted)
        scorer = ModelScorer(model, images)
        units = {(i, a): scorer.unit_embedding(i, a) for i in images for a in range(3)}
        assert sum(calls) == len(images)
        monkeypatch.setattr(TinyBackbone, "forward_batch", forward_batch)
        for (image_id, a), unit in units.items():
            direct = model.embed_image(images[image_id], a).data
            np.testing.assert_allclose(
                unit, direct / np.linalg.norm(direct), rtol=0, atol=1e-6
            )

    def test_attribute_outside_vocabulary_rejected(self):
        scorer, _, _ = self.scorer()
        with pytest.raises(VocabularyError):
            scorer.unit_embedding("img_0", 2)
        with pytest.raises(VocabularyError):
            scorer.unit_embedding("img_0", -1)

    @staticmethod
    def backbone_model(variant="full", n_images=EMBED_CHUNK + 5):
        config = ModelConfig(
            channels=4, n_attributes=3, attn_channels=2, reduction=2, embed_dim=4, variant=variant
        )
        backbone = BackboneConfig(kind="tiny_conv", out_channels=4, out_spatial=2, widths=(3, 4))
        model = AttributeEmbeddingModel(config, backbone, seed=8, dtype=np.float64)
        model.parameter("mask.weight").data[...] = np.random.default_rng(2).normal(size=(3, 4))
        rng = np.random.default_rng(23)
        images = {f"img_{i:03d}": rng.random((3, 16, 16)) for i in range(n_images)}
        return model, images

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batched_scores_match_embed_image_across_chunks(self, variant):
        model, images = self.backbone_model(variant)
        ids = sorted(images)
        scorer = ModelScorer(model, images)
        for a in range(3):
            unit = {i: model.embed_image(images[i], a).data for i in ids}
            unit = {i: v / np.linalg.norm(v) for i, v in unit.items()}
            want = [float(unit[ids[-1]] @ unit[c]) for c in ids[:-1]]
            np.testing.assert_allclose(scorer(ids[-1], a, ids[:-1]), want, rtol=0, atol=1e-6)
            assert math.isclose(scorer.similarity(ids[0], ids[-1], [a]), want[0], abs_tol=1e-6)

    def test_scoring_runs_the_backbone_once_per_chunk(self, monkeypatch):
        model, images = self.backbone_model(n_images=2 * EMBED_CHUNK + 4)
        ids = sorted(images)
        batches = []
        forward_batch = TinyBackbone.forward_batch

        def counted(self, batch):
            batches.append(batch.shape[0])
            return forward_batch(self, batch)

        def refused(self, image):
            raise AssertionError("single-image backbone pass")

        monkeypatch.setattr(TinyBackbone, "forward_batch", counted)
        monkeypatch.setattr(TinyBackbone, "forward", refused)
        scorer = ModelScorer(model, images)
        scorer(ids[0], 0, ids[1:])
        assert batches == [EMBED_CHUNK, EMBED_CHUNK, 4]
        scorer(ids[1], 2, ids[:1] + ids[2:])
        scorer.similarity(ids[5], ids[7], [0, 1, 2])
        assert len(batches) == math.ceil(len(ids) / EMBED_CHUNK)


class TestTripletAccuracy:
    def table_similarity(self, table):
        return lambda a, b, attr: table[(a, b, attr)]

    def test_hand_cases(self):
        t = Triplet("a", "p", "n", 0, 0, 1)
        win = self.table_similarity({("a", "p", 0): 0.9, ("a", "n", 0): 0.1})
        lose = self.table_similarity({("a", "p", 0): 0.1, ("a", "n", 0): 0.9})
        tie = self.table_similarity({("a", "p", 0): 0.5, ("a", "n", 0): 0.5})
        assert evaluate_triplet_accuracy(win, [t]) == 1.0
        assert evaluate_triplet_accuracy(lose, [t]) == 0.0
        assert evaluate_triplet_accuracy(tie, [t]) == 0.0  # ties are incorrect

    def random_setup(self):
        triplets = [
            Triplet(f"a{i}", f"p{i}", f"n{i}", 0, 0, 1) for i in range(5000)
        ]
        rng = np.random.default_rng(31)
        scores = {}

        def similarity(a, b, attr):
            key = (a, b, attr)
            if key not in scores:
                scores[key] = float(rng.random())
            return scores[key]

        return triplets, similarity

    def test_random_scores_sit_at_half(self):
        triplets, similarity = self.random_setup()
        acc = evaluate_triplet_accuracy(similarity, triplets)
        assert abs(acc - 0.5) < 0.02

    def test_negating_scores_flips_every_decision(self):
        triplets, similarity = self.random_setup()
        acc = evaluate_triplet_accuracy(similarity, triplets)
        negated = evaluate_triplet_accuracy(lambda a, b, c: -similarity(a, b, c), triplets)
        assert acc + negated == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            evaluate_triplet_accuracy(lambda *_: 0.0, [])


class TestRerankTopk:
    def test_head_reordered_by_score(self):
        scores = {"a": 0.2, "b": 0.9, "c": 0.5}
        assert rerank_topk(["a", "b", "c"], scores.get, k=3) == ["b", "c", "a"]

    def test_k_one_changes_nothing(self):
        assert rerank_topk(["a", "b", "c"], lambda _: 0.0, k=1) == ["a", "b", "c"]

    def test_tail_untouched(self):
        scores = {"a": 0.1, "b": 0.9, "c": -1.0, "d": 5.0, "e": 2.0}
        out = rerank_topk(["a", "b", "c", "d", "e"], scores.get, k=2)
        assert out == ["b", "a", "c", "d", "e"]

    def test_equal_scores_keep_incoming_order(self):
        out = rerank_topk(["c", "a", "b"], lambda _: 1.0, k=3)
        assert out == ["c", "a", "b"]

    def test_bad_k_rejected(self):
        with pytest.raises(ContractError):
            rerank_topk(["a"], lambda _: 0.0, k=0)
        with pytest.raises(ContractError):
            rerank_topk(["a"], lambda _: 0.0, k=2)


class TestWriteReport:
    def test_table_layout_and_percentages(self, tmp_path):
        reports = [
            EvalReport(
                per_attribute={0: 0.5352, 1: 0.6102}, overall=0.5727,
                n_queries=10, n_excluded=0, variant="full",
            ),
            EvalReport(
                per_attribute={0: 0.25}, overall=0.25,
                n_queries=5, n_excluded=1, variant="plain",
            ),
        ]
        path = tmp_path / "report.tsv"
        write_report(path, reports, ["texture", "shape"])
        lines = path.read_text().splitlines()
        assert lines[0] == "variant\ttexture\tshape\toverall"
        assert lines[1] == "full\t53.52\t61.02\t57.27"
        assert lines[2] == "plain\t25.00\t-\t25.00"
