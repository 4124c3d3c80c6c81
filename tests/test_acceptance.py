"""Acceptance suite: nine numbered checks that gate a release.

Criteria 1 to 4 are fast numerical audits (gradients, attention
normalization, retrieval metrics, the hand-worked chain).  Criteria 5 to 9
share one frozen experiment: the default synthetic dataset, 30 epochs per
variant, three seeds each for the full model and the plain-triplet
baseline.  The experiment runs once, in a module fixture; expect roughly
three to five minutes of wall time for this file.

Each test prints a single "criterion N: PASS/FAIL (detail)" line on the
real stdout so the verdicts survive output capture.
"""

import time

import numpy as np
import pytest

from test_evaluation import oracle_map, random_split_and_scores
from test_model import (
    EXPECTED,
    EXPECTED_COSINE,
    EXPECTED_SIMILARITY,
    pencil_maps,
    pencil_model,
)

from attrembed import autodiff as ad
from attrembed.autodiff import Tensor
from attrembed.backbone import BackboneConfig
from attrembed.data import (
    SyntheticSpec,
    generate_synthetic_dataset,
    quadrant_slices,
    split_dataset,
)
from attrembed.errors import ContractError, ExcludedQueryError
from attrembed.evaluation import (
    ModelScorer,
    average_precision,
    evaluate_map,
    evaluate_triplet_accuracy,
    expected_random_map,
    rerank_topk,
)
from attrembed.model import AttributeEmbeddingModel, ModelConfig
from attrembed.training import (
    TrainConfig,
    fit,
    load_checkpoint,
    sample_triplets,
    save_checkpoint,
    triplet_margin_loss,
)

DATA_SEED = 11
MODEL_SEEDS = (0, 1, 2)


def report_line(capsys, number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"criterion {number}: {verdict} ({detail})")
    assert passed, f"criterion {number}: {detail}"


def experiment_model(variant, seed):
    config = ModelConfig(
        channels=16,
        n_attributes=4,
        attn_channels=8,
        reduction=4,
        embed_dim=16,
        variant=variant,
    )
    backbone = BackboneConfig(kind="tiny_conv", out_channels=16, out_spatial=4, widths=(12, 16))
    return AttributeEmbeddingModel(config, backbone, seed=seed, dtype=np.float32)


def experiment_train_config(seed, epochs=30, triplets_per_epoch=2500):
    return TrainConfig(
        margin=0.4,
        learning_rate=1e-3,
        lr_decay=0.985,
        epochs=epochs,
        triplets_per_epoch=triplets_per_epoch,
        batch_size=16,
        seed=seed,
        val_stride=2,
    )


@pytest.fixture(scope="module")
def dataset():
    spec = SyntheticSpec(noise=0.15, seed=DATA_SEED)
    images, manifest = generate_synthetic_dataset(spec)
    manifest = split_dataset(manifest, (8, 1, 1), 0.2, seed=DATA_SEED)
    return {
        "spec": spec,
        "images": images,
        "manifest": manifest,
        "val_split": manifest.to_retrieval_split("val"),
        "test_split": manifest.to_retrieval_split("test"),
    }


@pytest.fixture(scope="module")
def experiment(dataset):
    """Six training runs: {full, triplet_plain} x three seeds, best
    checkpoint reloaded, test MAP recorded."""
    images = dataset["images"]
    manifest = dataset["manifest"]
    annotations = manifest.annotations("train")
    val_split = dataset["val_split"]
    test_split = dataset["test_split"]

    start = time.monotonic()
    runs = {}
    for variant in ("full", "triplet_plain"):
        for seed in MODEL_SEEDS:
            model = experiment_model(variant, seed)

            def val_metric(m):
                return evaluate_map(ModelScorer(m, images), val_split).overall

            best = fit(
                model,
                annotations,
                images,
                experiment_train_config(seed),
                val_metric,
                attribute_names=manifest.vocabulary.names,
            )
            model.load_state_arrays(best.state)
            test_map = evaluate_map(ModelScorer(model, images), test_split).overall
            runs[(variant, seed)] = {"model": model, "best": best, "test_map": test_map}
    elapsed = time.monotonic() - start
    return {"runs": runs, "elapsed": elapsed}


def topk_ap(ranking, value_of, value, k):
    flags = [1 if value_of[c] == value else 0 for c in ranking[:k]]
    try:
        return average_precision(flags)
    except ExcludedQueryError:
        return None


class TestAcceptance:
    def test_criterion_1_gradients_match_finite_differences(self, capsys):
        config = ModelConfig(
            channels=8, n_attributes=3, attn_channels=4, reduction=2, embed_dim=8
        )
        backbone = BackboneConfig(kind="tiny_conv", out_channels=8, out_spatial=4, widths=(8, 12))
        model = AttributeEmbeddingModel(config, backbone, seed=0, dtype=np.float64)
        rng = np.random.default_rng(0)
        anchor, positive, negative = (rng.random((3, 32, 32)) for _ in range(3))
        attribute = int(rng.integers(config.n_attributes))

        def loss_fn():
            e_a = model.embed_image(anchor, attribute)
            e_p = model.embed_image(positive, attribute)
            e_n = model.embed_image(negative, attribute)
            s_pos = ad.cosine_similarity(e_a, e_p)
            s_neg = ad.cosine_similarity(e_a, e_n)
            return triplet_margin_loss(s_pos, s_neg, 0.2)

        start = time.monotonic()
        report = ad.grad_check(loss_fn, model.parameters())
        elapsed = time.monotonic() - start
        n_params = sum(p.data.size for p in model.parameters() if p.trainable)
        passed = report.passed and report.max_relative_error <= 1e-4 and elapsed < 60.0
        report_line(
            capsys, 1, passed,
            f"{n_params} parameters, max rel err {report.max_relative_error:.2e}, {elapsed:.1f}s",
        )

    def test_criterion_2_attention_weights_are_proper(self, capsys):
        config = ModelConfig(channels=6, n_attributes=3, attn_channels=3, reduction=2, embed_dim=6)
        model = AttributeEmbeddingModel(config, backbone_config=None, seed=42, dtype=np.float64)
        rng = np.random.default_rng(42)
        worst_sum = 0.0
        worst_shift = 0.0
        min_weight = np.inf
        gates_in_range = True
        for _ in range(1000):
            h, w = (int(x) for x in rng.integers(2, 6, size=2))
            fmap = Tensor(rng.normal(size=(6, h, w)))
            attribute = int(rng.integers(3))
            pooled, weights = model.spatial_attention(fmap, attribute)
            worst_sum = max(worst_sum, abs(float(weights.data.sum()) - 1.0))
            min_weight = min(min_weight, float(weights.data.min()))
            _, gate = model.channel_attention(pooled, attribute)
            if not (np.all(gate.data > 0.0) and np.all(gate.data < 1.0)):
                gates_in_range = False
            scores = rng.normal(size=(1, h, w))
            shift = float(rng.uniform(-100.0, 100.0))
            plain = ad.softmax_flat(Tensor(scores)).data
            shifted = ad.softmax_flat(Tensor(scores + shift)).data
            worst_shift = max(worst_shift, float(np.max(np.abs(plain - shifted))))
        passed = (
            worst_sum <= 1e-6 and min_weight > 0.0 and gates_in_range and worst_shift <= 1e-12
        )
        report_line(
            capsys, 2, passed,
            f"1000 inputs: sum dev {worst_sum:.1e}, min weight {min_weight:.1e}, "
            f"shift dev {worst_shift:.1e}",
        )

    def test_criterion_3_map_matches_brute_force(self, capsys):
        rng = np.random.default_rng(7)
        checked = 0
        degenerate = 0
        worst = 0.0
        while checked < 200:
            split, scorer = random_split_and_scores(rng)
            try:
                ref_per, ref_overall, ref_excluded = oracle_map(split, scorer)
            except ZeroDivisionError:
                # every query excluded; the library must refuse too
                with pytest.raises(ContractError):
                    evaluate_map(scorer, split)
                degenerate += 1
                continue
            result = evaluate_map(scorer, split)
            worst = max(worst, abs(result.overall - ref_overall))
            assert result.n_excluded == ref_excluded
            assert set(result.per_attribute) == set(ref_per)
            for a, value in ref_per.items():
                worst = max(worst, abs(result.per_attribute[a] - value))
            checked += 1
        passed = worst <= 1e-12
        report_line(
            capsys, 3, passed,
            f"200 splits (plus {degenerate} degenerate), worst abs diff {worst:.1e}",
        )

    def test_criterion_4_hand_worked_chain(self, capsys):
        model = pencil_model()
        map_a, map_b = pencil_maps()
        worst = 0.0
        similarity = 0.0
        for attribute in (0, 1):
            want = EXPECTED[attribute]
            pooled, weights = model.spatial_attention(map_a, attribute)
            gated, gate = model.channel_attention(pooled, attribute)
            embedding = model.embed_map(map_a, attribute)
            for got, key in (
                (weights.data, "alpha_s"),
                (pooled.data, "pooled"),
                (gate.data, "alpha_c"),
                (gated.data, "gated"),
                (embedding.data, "embedding"),
            ):
                worst = max(worst, float(np.max(np.abs(got - np.array(want[key])))))
            cosine = ad.cosine_similarity(
                model.embed_map(map_a, attribute), model.embed_map(map_b, attribute)
            )
            worst = max(worst, abs(float(cosine.data) - EXPECTED_COSINE[attribute]))
            similarity += float(cosine.data)
        worst = max(worst, abs(similarity - EXPECTED_SIMILARITY))
        passed = worst <= 1e-9
        report_line(capsys, 4, passed, f"worst abs deviation {worst:.1e}")

    def test_criterion_5_training_beats_baseline_and_chance(self, capsys, dataset, experiment):
        runs = experiment["runs"]
        full = [runs[("full", s)]["test_map"] for s in MODEL_SEEDS]
        plain = [runs[("triplet_plain", s)]["test_map"] for s in MODEL_SEEDS]
        mean_full = float(np.mean(full))
        mean_plain = float(np.mean(plain))
        random_map = expected_random_map(dataset["test_split"])
        elapsed = experiment["elapsed"]
        passed = (
            mean_full > mean_plain > random_map
            and mean_full - mean_plain >= 0.05
            and elapsed < 1800.0
        )
        report_line(
            capsys, 5, passed,
            f"test MAP full {mean_full:.3f} > plain {mean_plain:.3f} > random {random_map:.3f}, "
            f"gap {mean_full - mean_plain:.3f}, {elapsed:.0f}s",
        )

    def test_criterion_6_attention_mass_lands_in_owned_quadrant(self, capsys, dataset, experiment):
        spec = dataset["spec"]
        images = dataset["images"]
        manifest = dataset["manifest"]
        map_side = spec.image_size // 8  # backbone map extent is 4 for 32 px inputs
        hits = 0
        total = 0
        for seed in MODEL_SEEDS:
            model = experiment["runs"][("full", seed)]["model"]
            for image_id in manifest.ids("test"):
                fmap = model.image_to_map(
                    Tensor(np.asarray(images[image_id], dtype=model.dtype))
                )
                for attention in model.attention_maps(fmap):
                    rows, cols = quadrant_slices(map_side, spec.regions[attention.attribute])
                    mass = float(attention.weights[rows, cols].sum())
                    hits += mass > 0.375
                    total += 1
        rate = hits / total
        passed = rate >= 0.70
        report_line(capsys, 6, passed, f"{hits}/{total} attention maps localized, rate {rate:.3f}")

    def test_criterion_7_triplet_accuracy(self, capsys, dataset, experiment):
        manifest = dataset["manifest"]
        triplets = sample_triplets(
            manifest.annotations("test"),
            manifest.vocabulary.n,
            5000,
            seed=202,
            attribute_names=manifest.vocabulary.names,
        )
        accuracies = []
        for seed in MODEL_SEEDS:
            scorer = ModelScorer(experiment["runs"][("full", seed)]["model"], dataset["images"])
            accuracies.append(
                evaluate_triplet_accuracy(
                    lambda a, b, attr: scorer.similarity(a, b, [attr]), triplets
                )
            )
        rng = np.random.default_rng(99)
        random_accuracy = evaluate_triplet_accuracy(
            lambda a, b, attr: float(rng.random()), triplets
        )
        passed = min(accuracies) >= 0.75 and abs(random_accuracy - 0.5) <= 0.02
        report_line(
            capsys, 7, passed,
            f"trained {min(accuracies):.3f}..{max(accuracies):.3f}, random {random_accuracy:.3f}",
        )

    def test_criterion_8_checkpoints_are_reproducible(self, capsys, dataset, tmp_path):
        images = dataset["images"]
        manifest = dataset["manifest"]
        annotations = manifest.annotations("train")
        val_split = dataset["val_split"]
        config = experiment_train_config(seed=0, epochs=4, triplets_per_epoch=300)

        def val_metric(m):
            return evaluate_map(ModelScorer(m, images), val_split).overall

        paths = []
        checkpoints = []
        for attempt in range(2):
            model = experiment_model("full", seed=0)
            best = fit(model, annotations, images, config, val_metric,
                       attribute_names=manifest.vocabulary.names)
            path = tmp_path / f"run_{attempt}.bin"
            save_checkpoint(path, best)
            paths.append(path)
            checkpoints.append(best)
        identical = paths[0].read_bytes() == paths[1].read_bytes()

        reloaded = load_checkpoint(paths[0])
        model = experiment_model("full", seed=0)
        model.load_state_arrays(reloaded.state)
        replayed = val_metric(model)
        drift = abs(replayed - reloaded.metric)
        passed = identical and drift <= 1e-9
        report_line(
            capsys, 8, passed,
            f"bitwise identical: {identical}, reload val MAP drift {drift:.1e}",
        )

    def test_criterion_9_reranking_recovers_shuffled_rankings(self, capsys, dataset, experiment):
        test_split = dataset["test_split"]
        images = dataset["images"]
        before = []
        after = []
        per_seed = []
        for seed in MODEL_SEEDS:
            fine = ModelScorer(experiment["runs"][("full", seed)]["model"], images)
            rng = np.random.default_rng(1000 + seed)
            seed_before = []
            seed_after = []
            for q in test_split.queries:
                pool = test_split.candidates[q.attribute]
                ids = [image_id for image_id, _ in pool]
                value_of = dict(pool)
                order = rng.permutation(len(ids))
                shuffled = [ids[i] for i in order]
                ap_before = topk_ap(shuffled, value_of, q.value, 10)
                if ap_before is None:
                    continue  # nothing relevant landed in the shuffled top 10
                reranked = rerank_topk(
                    shuffled,
                    lambda c: fine.similarity(q.image_id, c, [q.attribute]),
                    10,
                )
                ap_after = topk_ap(reranked, value_of, q.value, 10)
                seed_before.append(ap_before)
                seed_after.append(ap_after)
            before.extend(seed_before)
            after.extend(seed_after)
            per_seed.append((float(np.mean(seed_before)), float(np.mean(seed_after))))
        mean_before = float(np.mean(before))
        mean_after = float(np.mean(after))
        passed = mean_after > mean_before and all(b < a for b, a in per_seed)
        report_line(
            capsys, 9, passed,
            f"mean top-10 AP {mean_before:.3f} -> {mean_after:.3f} over {len(before)} queries",
        )
