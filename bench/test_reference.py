"""Tests of the benchmark's own reference and checks.

Run from the repository root:  python -m pytest -q bench

The reference forward is pinned to the loop oracles in tests/oracles.py,
and each output check is shown to pass on the program's real output and
to fail on a perturbed parameter, reversed scores or a wrong rerank.
"""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import checks  # noqa: E402
import oracles  # noqa: E402
import reference as ref  # noqa: E402
from attrembed.backbone import BackboneConfig  # noqa: E402
from attrembed.data import SyntheticSpec, generate_synthetic_dataset, split_dataset  # noqa: E402
from attrembed.evaluation import ModelScorer, evaluate_map, rank_candidates, rerank_topk, write_report  # noqa: E402
from attrembed.model import AttributeEmbeddingModel, ModelConfig  # noqa: E402
from attrembed.training import Triplet  # noqa: E402

HEAD_NAMES = {
    "map_conv": "spatial.map_conv.weight",
    "spatial_attr": "spatial.attr_embed.weight",
    "score_conv": "spatial.score_conv.weight",
    "channel_attr": "channel.attr_embed.weight",
    "gate_reduce": "channel.gate_reduce.weight",
    "gate_expand": "channel.gate_expand.weight",
    "proj": "proj.weight",
    "proj_bias": "proj.bias",
}


def random_head(rng, c=4, cp=3, n=3, hidden=2, d=5):
    shapes = {
        "map_conv": (cp, c), "spatial_attr": (cp, n), "score_conv": (1, cp), "channel_attr": (c, n),
        "gate_reduce": (hidden, 2 * c), "gate_expand": (c, hidden), "proj": (d, c), "proj_bias": (d,),
    }
    return {key: rng.normal(size=shape) for key, shape in shapes.items()}


def as_state(params):
    return {HEAD_NAMES[key]: np.array(value, dtype=np.float64) for key, value in params.items()}


# -- reference forward against the loop oracles --------------------------------


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 0), (1, 1)])
def test_conv2d_matches_loops(stride, padding):
    rng = np.random.default_rng(stride * 10 + padding)
    images = rng.normal(size=(2, 3, 7, 7))
    kernel = rng.normal(size=(4, 3, 3, 3))
    bias = rng.normal(size=4)
    got = ref.conv2d(images, kernel, bias, stride, padding)
    for i in range(2):
        want = oracles.conv2d_loops(images[i].tolist(), kernel.tolist(), bias.tolist(), stride, padding)
        assert np.max(np.abs(got[i] - np.array(want))) <= 1e-9


def test_backbone_matches_loops():
    rng = np.random.default_rng(1)
    state = {}
    for stage, (cin, cout) in enumerate([(3, 5), (5, 6), (6, 4)], start=1):
        state[f"backbone.stage{stage}.weight"] = rng.normal(size=(cout, cin, 3, 3))
        state[f"backbone.stage{stage}.bias"] = rng.normal(size=cout)
    images = rng.random((2, 3, 16, 16))
    got = ref.backbone(images, state)
    for i in range(2):
        x = images[i].tolist()
        for stage in (1, 2, 3):
            w, b = state[f"backbone.stage{stage}.weight"], state[f"backbone.stage{stage}.bias"]
            x = np.maximum(np.array(oracles.conv2d_loops(x, w.tolist(), b.tolist(), 2, 1)), 0.0).tolist()
        assert np.max(np.abs(got[i] - np.array(x))) <= 1e-9


def test_full_head_matches_hand_chain_on_pencil_config():
    state = as_state(oracles.PENCIL_PARAMS)
    maps = np.array([oracles.PENCIL_MAP, oracles.PENCIL_MAP_B])
    for attribute in (0, 1):
        got = ref.head_full(maps, state, attribute)
        for i, fmap in enumerate((oracles.PENCIL_MAP, oracles.PENCIL_MAP_B)):
            want = oracles.hand_chain(oracles.PENCIL_PARAMS, fmap, attribute)["embedding"]
            assert np.max(np.abs(got[i] - np.array(want))) <= 1e-9


def test_full_head_matches_hand_chain_on_random_configs():
    rng = np.random.default_rng(2)
    for _ in range(5):
        params = random_head(rng)
        maps = rng.normal(size=(3, 4, 3, 2))
        for attribute in range(3):
            got = ref.head_full(maps, as_state(params), attribute)
            for i in range(3):
                want = oracles.hand_chain({k: v.tolist() for k, v in params.items()}, maps[i].tolist(), attribute)
                assert np.max(np.abs(got[i] - np.array(want["embedding"]))) <= 1e-9


def test_plain_head_is_mean_pool_then_projection():
    rng = np.random.default_rng(3)
    params = random_head(rng)
    maps = rng.normal(size=(2, 4, 3, 3))
    got = ref.head_plain(maps, as_state(params))
    for i in range(2):
        pooled = [sum(maps[i, k].ravel().tolist()) / 9 for k in range(4)]
        want = [sum(w * p for w, p in zip(row, pooled)) + b for row, b in zip(params["proj"], params["proj_bias"])]
        assert np.max(np.abs(got[i] - np.array(want))) <= 1e-9


# -- a small program setting for the checks ------------------------------------


def program_model(variant, seed=0, dtype=np.float32):
    config = ModelConfig(channels=16, n_attributes=4, attn_channels=8, reduction=4, embed_dim=16, variant=variant)
    backbone = BackboneConfig(kind="tiny_conv", out_channels=16, out_spatial=4, widths=(12, 16))
    return AttributeEmbeddingModel(config, backbone, seed=seed, dtype=dtype)


@pytest.fixture(scope="module")
def setting():
    images, manifest = generate_synthetic_dataset(SyntheticSpec(n_images=150, noise=0.15, seed=4096))
    manifest = split_dataset(manifest, (2, 1, 2), 0.2, seed=0)
    ids = manifest.ids("val") + manifest.ids("test")
    row = {image_id: i for i, image_id in enumerate(ids)}
    stack = np.stack([images[i] for i in ids])
    split = manifest.to_retrieval_split("test")
    queries = [(q.image_id, q.attribute, q.value) for q in split.queries]
    pools = {a: sorted(pool) for a, pool in split.candidates.items()}
    full, plain = program_model("full", 0), program_model("triplet_plain", 1)
    units = {
        name: ref.unit(ref.embeddings(stack, m.state_arrays(), m.config.variant, 4))
        for name, m in (("full", full), ("plain", plain))
    }
    return dict(images=images, row=row, stack=stack, split=split, queries=queries, pools=pools,
                full=full, plain=plain, units=units, ids=ids)


def program_units(model, stack):
    return np.array([[model.embed_image(img, a).data for a in range(4)] for img in stack])


def test_reference_matches_float64_program():
    rng = np.random.default_rng(5)
    images = rng.random((3, 3, 32, 32))
    for variant in ("full", "triplet_plain"):
        model = program_model(variant, dtype=np.float64)
        got = np.array([[model.embed_image(img, a).data for a in range(4)] for img in images])
        want = ref.embeddings(images, model.state_arrays(), variant, 4)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_embedding_check_fails_on_perturbed_parameter(setting):
    stack = setting["stack"][:6]
    got = program_units(setting["full"], stack)
    checks.check_embeddings(got, setting["units"]["full"][:6], "unperturbed")
    for name in ("proj.bias", "spatial.attr_embed.weight", "backbone.stage1.weight"):
        state = setting["full"].state_arrays()
        state[name] = state[name] + 1e-3
        perturbed = ref.unit(ref.embeddings(stack, state, "full", 4))
        with pytest.raises(checks.CheckFailed):
            checks.check_embeddings(got, perturbed, name)


def write_program_report(tmp_path, scorer, split):
    path = tmp_path / "report.tsv"
    write_report(path, [evaluate_map(scorer, split)], ["a0", "a1", "a2", "a3"])
    return path


def test_map_check_fails_on_reversed_scores(setting, tmp_path):
    bounds = checks.MapBounds(setting["units"]["full"], setting["row"], setting["queries"], setting["pools"])
    scorer = ModelScorer(setting["full"], setting["images"])
    checks.check_report(write_program_report(tmp_path, scorer, setting["split"]), bounds, ["a0", "a1", "a2", "a3"])

    def reversed_scorer(query_id, attribute, candidate_ids):
        return -scorer(query_id, attribute, candidate_ids)

    with pytest.raises(checks.CheckFailed):
        checks.check_report(write_program_report(tmp_path, reversed_scorer, setting["split"]), bounds, ["a0", "a1", "a2", "a3"])
    with pytest.raises(checks.CheckFailed):
        checks.check_in(evaluate_map(reversed_scorer, setting["split"]).overall, bounds.overall, 0.0, "reversed")


def write_triplet_file(tmp_path, accuracy):
    path = tmp_path / "triplet_eval.txt"
    path.write_text(f"split test\ncount 1\nseed 0\naccuracy {accuracy:.6f}\n")
    return path


def test_triplet_check_fails_on_reversed_scores(setting, tmp_path):
    rng = np.random.default_rng(6)
    ids, units, row = setting["ids"], setting["units"]["full"], setting["row"]
    triplets = []
    for i in range(300):  # the first 250 are ordered so the positive is nearer
        a, b, c = (ids[j] for j in rng.choice(len(ids), 3, replace=False))
        attr = int(rng.integers(4))
        nearer = units[row[a], attr] @ units[row[b], attr] > units[row[a], attr] @ units[row[c], attr]
        triplets.append(Triplet(a, b, c, attr, 0, 1) if nearer == (i < 250) else Triplet(a, c, b, attr, 0, 1))
    scorer = ModelScorer(setting["full"], setting["images"])
    wins = [scorer.similarity(t.anchor_id, t.positive_id, [t.attribute]) > scorer.similarity(t.anchor_id, t.negative_id, [t.attribute]) for t in triplets]
    bounds = checks.triplet_accuracy_bounds(setting["units"]["full"], setting["row"], triplets)
    checks.check_triplet_file(write_triplet_file(tmp_path, np.mean(wins)), bounds)
    with pytest.raises(checks.CheckFailed):
        checks.check_triplet_file(write_triplet_file(tmp_path, 1 - np.mean(wins)), bounds)


def write_rerank(tmp_path, setting, reverse=False, k=10):
    """rerank.tsv as the CLI writes it, optionally reranking in the wrong order."""
    fine = ModelScorer(setting["full"], setting["images"])
    coarse = ModelScorer(setting["plain"], setting["images"])
    lines = ["query_id\tattribute\tap_before\tap_after"]
    for q in setting["split"].queries:
        pool = setting["split"].candidates[q.attribute]
        ids = [i for i, _ in pool]
        value_of = dict(pool)
        ranking = [ids[i] for i in rank_candidates(coarse(q.image_id, q.attribute, ids), ids)]
        sign = -1.0 if reverse else 1.0
        reranked = rerank_topk(ranking, lambda c: sign * fine.similarity(q.image_id, c, [q.attribute]), k)
        before = ref.ap_of_flags([value_of[c] == q.value for c in ranking[:k]])
        after = ref.ap_of_flags([value_of[c] == q.value for c in reranked[:k]])
        if before is not None:
            lines.append(f"{q.image_id}\ta{q.attribute}\t{before:.6f}\t{after:.6f}")
    path = tmp_path / "rerank.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_rerank_check_fails_on_wrong_rerank(setting, tmp_path):
    names = ["a0", "a1", "a2", "a3"]
    args = (setting["units"]["full"], setting["units"]["plain"], setting["row"], setting["queries"], setting["pools"], 10)
    expected = checks.expected_rerank(*args)
    checks.check_rerank_file(write_rerank(tmp_path, setting), expected, setting["queries"], names)
    with pytest.raises(checks.CheckFailed):
        checks.check_rerank_file(write_rerank(tmp_path, setting, reverse=True), expected, setting["queries"], names)
    path = write_rerank(tmp_path, setting)
    rows = path.read_text().splitlines()
    cells = rows[1].split("\t")
    cells[3] = f"{float(cells[3]) / 2:.6f}"
    rows[1] = "\t".join(cells)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_rerank_file(path, expected, setting["queries"], names)


def test_parameter_check_fails_on_moved_unused_or_far_moved_parameter():
    initial = program_model("triplet_plain").state_arrays()
    lrs = [1e-3] * 10
    final = {k: v.copy() for k, v in initial.items()}
    for name in ref.used_parameters("triplet_plain", initial):
        final[name] += np.float32(1e-3)
    checks.check_parameter_moves(initial, final, "triplet_plain", lrs)
    moved_unused = {k: v.copy() for k, v in final.items()}
    moved_unused["mask.weight"][0, 0] += np.float32(1e-6)
    with pytest.raises(checks.CheckFailed):
        checks.check_parameter_moves(initial, moved_unused, "triplet_plain", lrs)
    too_far = {k: v.copy() for k, v in final.items()}
    too_far["proj.bias"][0] += np.float32(0.1)
    with pytest.raises(checks.CheckFailed):
        checks.check_parameter_moves(initial, too_far, "triplet_plain", lrs)
    with pytest.raises(checks.CheckFailed):
        checks.check_parameter_moves(initial, initial, "triplet_plain", lrs)


def test_adam_ratio_bound_holds_and_tends_to_7_27():
    assert ref.adam_ratio_bound(1) == pytest.approx(1.0)
    assert ref.adam_ratio_bound(100000) == pytest.approx(7.2700, abs=1e-3)
    rng = np.random.default_rng(7)
    for _ in range(200):
        grads = rng.normal(size=50) * rng.choice([1e-3, 1.0, 1e3], size=50)
        m = v = 0.0
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ratio = abs(m / (1 - 0.9**t)) / np.sqrt(v / (1 - 0.999**t))
            assert ratio <= ref.adam_ratio_bound(t) * (1 + 1e-12)


def test_hinge_and_random_checks():
    checks.check_hinge_decreased(0.3, 0.2)
    with pytest.raises(checks.CheckFailed):
        checks.check_hinge_decreased(0.2, 0.2)
    queries = [("q", 0, 1)]
    pools = {0: [("a", 1), ("b", 0), ("c", 0), ("d", 0)]}
    assert checks.check_above_random(0.9, queries, pools, "x") == pytest.approx((1 + 1 / 2 + 1 / 3 + 1 / 4) / 4)
    with pytest.raises(checks.CheckFailed):
        checks.check_above_random(0.4, queries, pools, "x")
