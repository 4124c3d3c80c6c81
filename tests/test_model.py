"""Embedding-head tests: the hand-worked chain, variant semantics, and
the model-level contracts (validation, similarity, attention export).

The numbers in TestHandChain were produced by tests/oracles.py (explicit
scalar loops, no package code) and frozen here; the model must reproduce
them, not the other way round.
"""

import math

import numpy as np
import pytest

import oracles
from attrembed import autodiff as ad
from attrembed.autodiff import Tensor
from attrembed.backbone import BackboneConfig
from attrembed.errors import (
    ConfigError,
    ContractError,
    DegenerateVectorError,
    DimensionError,
    VocabularyError,
)
from attrembed.model import (
    VARIANTS,
    AttributeEmbeddingModel,
    AttributeVocabulary,
    ModelConfig,
    write_attention_file,
)
from attrembed.evaluation import ModelScorer

PENCIL_STATE = {
    "spatial.map_conv.weight": np.array(oracles.PENCIL_PARAMS["map_conv"]),
    "spatial.attr_embed.weight": np.array(oracles.PENCIL_PARAMS["spatial_attr"]),
    "spatial.score_conv.weight": np.array(oracles.PENCIL_PARAMS["score_conv"]),
    "channel.attr_embed.weight": np.array(oracles.PENCIL_PARAMS["channel_attr"]),
    "channel.gate_reduce.weight": np.array(oracles.PENCIL_PARAMS["gate_reduce"]),
    "channel.gate_expand.weight": np.array(oracles.PENCIL_PARAMS["gate_expand"]),
    "proj.weight": np.array(oracles.PENCIL_PARAMS["proj"]),
    "proj.bias": np.array(oracles.PENCIL_PARAMS["proj_bias"]),
    "mask.weight": np.ones((2, 2)),
}

# Frozen output of `python tests/oracles.py`.
EXPECTED = {
    0: {
        "alpha_s": [
            [0.25359297433694045, 0.23853765870140364],
            [0.25105889983979435, 0.2568104671218615],
        ],
        "pooled": [0.38969672028758334, -0.11036856845867263],
        "alpha_c": [0.48454403820780695, 0.5460500328446392],
        "gated": [0.18882522252448383, -0.06026676043187399],
        "embedding": [0.2689586027404208, -0.09799376469278454],
    },
    1: {
        "alpha_s": [
            [0.23045392459620712, 0.28728871385513577],
            [0.2506936666122515, 0.23156369493640563],
        ],
        "pooled": [0.3231557555240063, -0.057914206672244915],
        "alpha_c": [0.48503548678491415, 0.541071950201633],
        "gated": [0.15674200918793313, -0.03133575274853198],
        "embedding": [0.2224098855621991, -0.08431631226441572],
    },
}
EXPECTED_COSINE = {0: 0.999964401704992, 1: 0.998957787208818}
EXPECTED_SIMILARITY = 1.99892218891381


def pencil_model(variant="full"):
    config = ModelConfig(
        channels=2,
        n_attributes=2,
        attn_channels=2,
        reduction=1,
        embed_dim=2,
        variant=variant,
    )
    model = AttributeEmbeddingModel(config, backbone_config=None, dtype=np.float64)
    model.load_state_arrays(PENCIL_STATE)
    return model


def pencil_maps():
    a = Tensor(np.array(oracles.PENCIL_MAP, dtype=np.float64))
    b = Tensor(np.array(oracles.PENCIL_MAP_B, dtype=np.float64))
    return a, b


class TestHandChain:
    @pytest.mark.parametrize("attribute", [0, 1])
    def test_attention_weights(self, attribute):
        model = pencil_model()
        fmap, _ = pencil_maps()
        _, weights = model.spatial_attention(fmap, attribute)
        np.testing.assert_allclose(
            weights.data, EXPECTED[attribute]["alpha_s"], rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("attribute", [0, 1])
    def test_pooled_gate_and_gated(self, attribute):
        model = pencil_model()
        fmap, _ = pencil_maps()
        pooled, _ = model.spatial_attention(fmap, attribute)
        np.testing.assert_allclose(
            pooled.data, EXPECTED[attribute]["pooled"], rtol=0, atol=1e-9
        )
        gated, gate = model.channel_attention(pooled, attribute)
        np.testing.assert_allclose(
            gate.data, EXPECTED[attribute]["alpha_c"], rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            gated.data, EXPECTED[attribute]["gated"], rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("attribute", [0, 1])
    def test_embedding(self, attribute):
        model = pencil_model()
        fmap, _ = pencil_maps()
        emb = model.embed_map(fmap, attribute)
        np.testing.assert_allclose(
            emb.data, EXPECTED[attribute]["embedding"], rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("attribute", [0, 1])
    def test_cosine(self, attribute):
        model = pencil_model()
        map_a, map_b = pencil_maps()
        e = model.embed_map(map_a, attribute)
        f = model.embed_map(map_b, attribute)
        cos = ad.cosine_similarity(e, f)
        assert math.isclose(float(cos.data), EXPECTED_COSINE[attribute], abs_tol=1e-9)

    def test_similarity_sums_per_attribute_cosines(self):
        model = pencil_model()
        map_a, map_b = pencil_maps()
        sim = sum(
            float(ad.cosine_similarity(model.embed_map(map_a, a), model.embed_map(map_b, a)).data)
            for a in (0, 1)
        )
        assert math.isclose(sim, EXPECTED_SIMILARITY, abs_tol=1e-9)

    def test_agrees_with_oracle_on_random_configs(self):
        # same chain, different weights and a non-square map
        for seed in range(5):
            config = ModelConfig(
                channels=6, n_attributes=3, attn_channels=3, reduction=3, embed_dim=4
            )
            model = AttributeEmbeddingModel(
                config, backbone_config=None, seed=seed, dtype=np.float64
            )
            state = model.state_arrays()
            params = {
                "map_conv": state["spatial.map_conv.weight"].tolist(),
                "spatial_attr": state["spatial.attr_embed.weight"].tolist(),
                "score_conv": state["spatial.score_conv.weight"].tolist(),
                "channel_attr": state["channel.attr_embed.weight"].tolist(),
                "gate_reduce": state["channel.gate_reduce.weight"].tolist(),
                "gate_expand": state["channel.gate_expand.weight"].tolist(),
                "proj": state["proj.weight"].tolist(),
                "proj_bias": state["proj.bias"].tolist(),
            }
            rng = np.random.default_rng(100 + seed)
            fmap_arr = rng.normal(size=(6, 3, 5))
            attribute = seed % 3
            chain = oracles.hand_chain(params, fmap_arr.tolist(), attribute)
            fmap = Tensor(fmap_arr)
            pooled, weights = model.spatial_attention(fmap, attribute)
            np.testing.assert_allclose(weights.data, chain["alpha_s"], atol=1e-12)
            np.testing.assert_allclose(pooled.data, chain["pooled"], atol=1e-12)
            emb = model.embed_map(fmap, attribute)
            np.testing.assert_allclose(emb.data, chain["embedding"], atol=1e-12)


class TestVariantSemantics:
    def build(self, variant, seed=3):
        config = ModelConfig(
            channels=8, n_attributes=3, attn_channels=4, reduction=2, embed_dim=8,
            variant=variant,
        )
        return AttributeEmbeddingModel(config, backbone_config=None, seed=seed)

    def fmap(self, seed=0):
        return Tensor(np.random.default_rng(seed).normal(size=(8, 4, 4)))

    def test_all_variants_share_parameter_set(self):
        states = [self.build(v).state_arrays() for v in VARIANTS]
        names = set(states[0])
        for state in states[1:]:
            assert set(state) == names
            for name in names:
                np.testing.assert_array_equal(state[name], states[0][name])

    def test_no_asa_ignores_spatial_tables(self):
        model = self.build("no_asa")
        fmap = self.fmap()
        before = model.embed_map(fmap, 1).data.copy()
        for name in (
            "spatial.map_conv.weight",
            "spatial.attr_embed.weight",
            "spatial.score_conv.weight",
        ):
            model.parameter(name).data[...] += 1.0
        np.testing.assert_array_equal(model.embed_map(fmap, 1).data, before)

    def test_no_aca_ignores_channel_tables(self):
        model = self.build("no_aca")
        fmap = self.fmap()
        before = model.embed_map(fmap, 1).data.copy()
        for name in (
            "channel.attr_embed.weight",
            "channel.gate_reduce.weight",
            "channel.gate_expand.weight",
        ):
            model.parameter(name).data[...] += 1.0
        np.testing.assert_array_equal(model.embed_map(fmap, 1).data, before)

    def test_triplet_plain_ignores_attribute_entirely(self):
        model = self.build("triplet_plain")
        fmap = self.fmap()
        e0 = model.embed_map(fmap, 0).data.copy()
        np.testing.assert_array_equal(model.embed_map(fmap, 1).data, e0)
        np.testing.assert_array_equal(model.embed_map(fmap, 2).data, e0)
        for name in (
            "spatial.map_conv.weight",
            "spatial.attr_embed.weight",
            "spatial.score_conv.weight",
            "channel.attr_embed.weight",
            "channel.gate_reduce.weight",
            "channel.gate_expand.weight",
            "mask.weight",
        ):
            model.parameter(name).data[...] += 1.0
        np.testing.assert_array_equal(model.embed_map(fmap, 0).data, e0)

    def test_csn_at_init_matches_triplet_plain(self):
        # mask starts at ones, so the two coincide until training moves it
        csn = self.build("csn", seed=7)
        plain = self.build("triplet_plain", seed=7)
        fmap = self.fmap(2)
        for a in range(3):
            np.testing.assert_array_equal(
                csn.embed_map(fmap, a).data, plain.embed_map(fmap, a).data
            )

    def test_csn_mask_row_scales_one_attribute_only(self):
        csn = self.build("csn", seed=7)
        plain = self.build("triplet_plain", seed=7)
        fmap = self.fmap(2)
        row = np.arange(1.0, 9.0) * 0.5
        csn.parameter("mask.weight").data[1] = row
        shared = plain.embed_map(fmap, 0).data
        np.testing.assert_allclose(csn.embed_map(fmap, 1).data, shared * row, atol=1e-15)
        np.testing.assert_array_equal(csn.embed_map(fmap, 0).data, shared)

    def test_full_output_depends_on_attribute(self):
        model = self.build("full")
        fmap = self.fmap()
        e0 = model.embed_map(fmap, 0).data
        e1 = model.embed_map(fmap, 1).data
        assert np.abs(e0 - e1).max() > 1e-8


class TestAttentionIsolation:
    def test_spatial_weights_ignore_channel_tables(self, head_model_factory):
        model = head_model_factory()
        fmap = Tensor(np.random.default_rng(5).normal(size=(8, 4, 4)))
        before = model.spatial_attention(fmap, 0)[1].data.copy()
        model.parameter("channel.attr_embed.weight").data[...] += 2.0
        model.parameter("channel.gate_reduce.weight").data[...] += 2.0
        np.testing.assert_array_equal(model.spatial_attention(fmap, 0)[1].data, before)

    def test_channel_gate_ignores_spatial_tables(self, head_model_factory):
        model = head_model_factory()
        pooled = Tensor(np.random.default_rng(6).normal(size=8))
        before = model.channel_attention(pooled, 2)[1].data.copy()
        model.parameter("spatial.attr_embed.weight").data[...] += 2.0
        model.parameter("spatial.map_conv.weight").data[...] += 2.0
        np.testing.assert_array_equal(model.channel_attention(pooled, 2)[1].data, before)


class TestModelValidation:
    def test_attribute_index_bounds(self, head_model_factory):
        model = head_model_factory(n_attributes=3)
        fmap = Tensor(np.zeros((8, 4, 4)))
        with pytest.raises(VocabularyError):
            model.embed_map(fmap, 3)
        with pytest.raises(VocabularyError):
            model.embed_map(fmap, -1)

    def test_wrong_channel_count_rejected(self, head_model_factory):
        model = head_model_factory()
        with pytest.raises(DimensionError):
            model.spatial_attention(Tensor(np.zeros((7, 4, 4))), 0)
        with pytest.raises(DimensionError):
            model.channel_attention(Tensor(np.zeros(7)), 0)

    def test_single_cell_map_warns(self):
        config = ModelConfig(channels=4, n_attributes=2, attn_channels=2, reduction=2, embed_dim=4)
        model = AttributeEmbeddingModel(config, backbone_config=None)
        fmap = Tensor(np.random.default_rng(0).normal(size=(4, 1, 1)))
        with pytest.warns(UserWarning):
            _, weights = model.spatial_attention(fmap, 0)
        np.testing.assert_array_equal(weights.data, [[1.0]])

    def test_config_rejections(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="resnet")
        with pytest.raises(ConfigError):
            ModelConfig(embed_dim=1)
        with pytest.raises(ConfigError):
            ModelConfig(channels=8, reduction=16)

    def test_attn_channels_defaults_to_half(self):
        assert ModelConfig(channels=16).attn_channels == 8
        assert ModelConfig(channels=2, reduction=1, embed_dim=2).attn_channels == 1

    def test_backbone_channel_mismatch(self):
        config = ModelConfig(channels=16)
        backbone = BackboneConfig(kind="precomputed", out_channels=8)
        with pytest.raises(ConfigError):
            AttributeEmbeddingModel(config, backbone)

    def test_headless_accepts_any_spatial_extent(self):
        config = ModelConfig(channels=4, attn_channels=2, reduction=2, embed_dim=4)
        model = AttributeEmbeddingModel(config, backbone_config=None)
        out = model.image_to_map(Tensor(np.zeros((4, 5, 7))))
        assert out.shape == (4, 5, 7)
        with pytest.raises(DimensionError):
            model.image_to_map(Tensor(np.zeros((5, 4, 4))))
        with pytest.raises(DimensionError):
            model.image_to_map(Tensor(np.zeros((4, 4))))

    def test_precomputed_config_pins_map_shape(self, head_model_factory):
        model = head_model_factory(spatial=4)
        with pytest.raises(DimensionError):
            model.image_to_map(Tensor(np.zeros((8, 5, 5))))

    def test_load_state_rejections(self, head_model_factory):
        model = head_model_factory()
        state = model.state_arrays()
        missing = dict(state)
        del missing["proj.bias"]
        with pytest.raises(KeyError):
            model.load_state_arrays(missing)
        bad = dict(state)
        bad["proj.weight"] = np.zeros((3, 3))
        with pytest.raises(DimensionError):
            model.load_state_arrays(bad)

    def test_unknown_parameter_name(self, head_model_factory):
        with pytest.raises(KeyError):
            head_model_factory().parameter("proj.gamma")

    def test_headless_has_no_backbone_parameters(self, head_model_factory):
        config = ModelConfig(channels=8, attn_channels=4, reduction=2, embed_dim=8)
        headless = AttributeEmbeddingModel(config, backbone_config=None)
        assert len(headless.parameters()) == 9
        with_backbone = AttributeEmbeddingModel(
            config, BackboneConfig(out_channels=8, out_spatial=4)
        )
        extra = {p.name for p in with_backbone.parameters()} - {
            p.name for p in headless.parameters()
        }
        assert extra and all(name.startswith("backbone.") for name in extra)


class TestVocabulary:
    def good(self):
        return AttributeVocabulary(
            names=["color", "sleeve"],
            value_names=[["red", "blue"], ["long", "short", "none"]],
        )

    def test_lookups(self):
        vocab = self.good()
        assert vocab.n == 2
        assert vocab.attribute_index("sleeve") == 1
        assert vocab.value_index(1, "short") == 1
        assert vocab.n_values(1) == 3

    def test_unknown_names(self):
        vocab = self.good()
        with pytest.raises(VocabularyError):
            vocab.attribute_index("fabric")
        with pytest.raises(VocabularyError):
            vocab.value_index(0, "green")

    def test_structural_rejections(self):
        with pytest.raises(ConfigError):
            AttributeVocabulary(names=[], value_names=[])
        with pytest.raises(ConfigError):
            AttributeVocabulary(names=["a", "a"], value_names=[["x", "y"], ["x", "y"]])
        with pytest.raises(ConfigError):
            AttributeVocabulary(names=["a b"], value_names=[["x", "y"]])
        with pytest.raises(ConfigError):
            AttributeVocabulary(names=["a"], value_names=[["x"]])
        with pytest.raises(ConfigError):
            AttributeVocabulary(names=["a"], value_names=[["x", "x"]])
        with pytest.raises(ConfigError):
            AttributeVocabulary(names=["a"], value_names=[["x", "y:z"]])
        with pytest.raises(ConfigError):
            AttributeVocabulary(names=["a", "b"], value_names=[["x", "y"]])


class TestModelAttentionProperties:
    def test_weights_and_gate_ranges(self, head_model_factory):
        model = head_model_factory(n_attributes=4)
        rng = np.random.default_rng(17)
        for i in range(100):
            fmap = Tensor(rng.normal(size=(8, 4, 4)) * rng.uniform(0.1, 5.0))
            a = int(rng.integers(4))
            pooled, weights = model.spatial_attention(fmap, a)
            assert abs(weights.data.sum() - 1.0) < 1e-12
            assert (weights.data > 0).all()
            _, gate = model.channel_attention(pooled, a)
            assert ((gate.data > 0) & (gate.data < 1)).all()


class TestSimilarityContract:
    # the model's similarity is scored through ModelScorer, the one
    # similarity path; the symmetric, order and self cases live beside it
    def test_needs_at_least_one_attribute(self, head_model_factory):
        model = head_model_factory()
        scorer = ModelScorer(model, {"a": np.zeros((8, 4, 4))})
        with pytest.raises(ContractError):
            scorer.similarity("a", "a", [])

    def test_zero_embedding_refused(self, head_model_factory):
        # fresh init has a zero projection bias, so a zero map embeds to the
        # zero vector under triplet_plain and cosine must refuse it
        model = head_model_factory(variant="triplet_plain")
        images = {
            "zero": np.zeros((8, 4, 4)),
            "other": np.random.default_rng(11).normal(size=(8, 4, 4)),
        }
        with pytest.raises(DegenerateVectorError, match="zero"):
            ModelScorer(model, images).similarity("zero", "other", [0])


class TestAttentionExport:
    def test_maps_cover_all_attributes(self, head_model_factory):
        model = head_model_factory(n_attributes=3)
        fmap = Tensor(np.random.default_rng(12).normal(size=(8, 4, 4)))
        maps = model.attention_maps(fmap, image_id="img_000001")
        assert [m.attribute for m in maps] == [0, 1, 2]
        for m in maps:
            assert m.image_id == "img_000001"
            assert m.weights.shape == (4, 4)
            assert abs(m.weights.sum() - 1.0) < 1e-12

    def test_file_round_trip(self, head_model_factory, tmp_path):
        model = head_model_factory(n_attributes=2)
        vocab = AttributeVocabulary(
            names=["upper", "lower"], value_names=[["a", "b"], ["c", "d"]]
        )
        fmap = Tensor(np.random.default_rng(13).normal(size=(8, 4, 4)))
        maps = model.attention_maps(fmap, image_id="img_7")
        path = tmp_path / "img_7.attn.txt"
        write_attention_file(path, "img_7", maps, vocab)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 * (1 + 4)
        for block, m in enumerate(maps):
            header = lines[block * 5].split()
            assert header == ["img_7", vocab.names[m.attribute], "4", "4"]
            parsed = np.array(
                [
                    [float(tok) for tok in lines[block * 5 + 1 + r].split()]
                    for r in range(4)
                ]
            )
            np.testing.assert_allclose(parsed, m.weights, rtol=1e-8)


class TestBatchedHead:
    """A batch of maps with per-row attributes embeds each row exactly as
    the single-map call does."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_match_single_calls(self, head_model_factory, variant):
        model = head_model_factory(n_attributes=3, variant=variant)
        model.parameter("mask.weight").data[...] = np.random.default_rng(1).normal(size=(3, 8))
        maps = np.random.default_rng(14).normal(size=(5, 8, 4, 4))
        attributes = np.array([2, 0, 2, 1, 0])
        batched = model.embed_map(Tensor(maps), attributes).data
        assert batched.shape == (5, 8)
        for i, a in enumerate(attributes):
            single = model.embed_map(Tensor(maps[i]), int(a)).data
            np.testing.assert_allclose(batched[i], single, rtol=0, atol=1e-14)

    def test_attention_rows_match_single_calls(self, head_model_factory):
        model = head_model_factory(n_attributes=3)
        maps = np.random.default_rng(15).normal(size=(4, 8, 4, 4))
        attributes = np.array([1, 1, 0, 2])
        pooled, weights = model.spatial_attention(Tensor(maps), attributes)
        gated, gate = model.channel_attention(pooled, attributes)
        for i, a in enumerate(attributes):
            p, w = model.spatial_attention(Tensor(maps[i]), int(a))
            g, c = model.channel_attention(p, int(a))
            for got, want in ((pooled, p), (weights, w), (gated, g), (gate, c)):
                np.testing.assert_allclose(got.data[i], want.data, rtol=0, atol=1e-14)

    def test_embed_attributes_stacks_every_attribute(self, head_model_factory):
        model = head_model_factory(n_attributes=3)
        fmap = Tensor(np.random.default_rng(16).normal(size=(8, 4, 4)))
        every = model.embed_attributes(fmap).data
        assert every.shape == (3, 8)
        for a in range(3):
            np.testing.assert_allclose(every[a], model.embed_map(fmap, a).data, atol=1e-14)
        batch = model.embed_attributes(Tensor(np.stack([2.0 * fmap.data, fmap.data]))).data
        assert batch.shape == (2, 3, 8)
        np.testing.assert_allclose(batch[1], every, rtol=0, atol=1e-14)

    def test_attribute_array_must_match_batch(self, head_model_factory):
        model = head_model_factory(n_attributes=3)
        maps = Tensor(np.zeros((4, 8, 4, 4)))
        with pytest.raises(DimensionError):
            model.embed_map(maps, np.array([0, 1, 2]))
        with pytest.raises(DimensionError):
            model.embed_map(maps, 1)
        with pytest.raises(VocabularyError):
            model.embed_map(maps, np.array([0, 1, 3, 2]))
        with pytest.raises(VocabularyError):
            model.embed_map(maps, np.array([0.0, 1.0, 1.0, 2.0]))
