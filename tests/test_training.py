"""Sampler, loss, optimizer, and training-loop tests.

Training here runs on head-only models over tiny synthetic feature maps,
so every test stays well under a second; the full-scale experiment lives
in the acceptance suite.
"""

import io
import math
import struct

import numpy as np
import pytest

from attrembed import autodiff as ad
from attrembed.autodiff import Parameter, Tape, Tensor, recording, write_tensor
from attrembed.errors import (
    ConfigError,
    ContractError,
    FormatError,
    NumericalError,
    SamplingError,
)
from attrembed import training
from attrembed.backbone import BackboneConfig
from attrembed.model import VARIANTS, AttributeEmbeddingModel, ModelConfig
from attrembed.training import (
    CHECKPOINT_HEADER,
    Checkpoint,
    OptimizerState,
    TrainConfig,
    Triplet,
    adam_step,
    batch_triplet_loss,
    config_fingerprint,
    fit,
    load_checkpoint,
    lr_schedule,
    sample_triplets,
    save_checkpoint,
    train_epoch,
    triplet_margin_loss,
)


def tiny_model(variant="full", seed=0, n_attributes=2):
    config = ModelConfig(
        channels=4,
        n_attributes=n_attributes,
        attn_channels=2,
        reduction=2,
        embed_dim=4,
        variant=variant,
    )
    return AttributeEmbeddingModel(config, backbone_config=None, seed=seed)


def tiny_images(n, seed=0, spatial=2):
    rng = np.random.default_rng(seed)
    return {f"img_{i}": rng.normal(size=(4, spatial, spatial)) for i in range(n)}


class TestLrSchedule:
    def test_first_epoch_runs_at_base(self):
        assert lr_schedule(0, 1e-3, 0.985) == 1e-3

    def test_decay_power(self):
        assert math.isclose(lr_schedule(3, 2.0, 0.5), 2.0 * 0.125, rel_tol=1e-15)

    def test_decay_one_is_constant(self):
        assert lr_schedule(40, 1e-4, 1.0) == 1e-4

    def test_negative_epoch_rejected(self):
        with pytest.raises(ContractError):
            lr_schedule(-1, 1e-3, 0.985)


def toy_annotations():
    """8 images, 2 attributes, enough diversity for every sampler path."""
    out = []
    for i in range(8):
        out.append((f"img_{i}", {0: i % 2, 1: i % 4 // 2}))
    return out


class TestTripletSampling:
    def test_deterministic_under_seed(self):
        a = sample_triplets(toy_annotations(), 2, 50, seed=4)
        b = sample_triplets(toy_annotations(), 2, 50, seed=4)
        assert a == b
        c = sample_triplets(toy_annotations(), 2, 50, seed=5)
        assert a != c

    def test_structural_invariants(self):
        annotations = toy_annotations()
        labels = dict(annotations)
        for t in sample_triplets(annotations, 2, 2000, seed=0):
            assert 0 <= t.attribute < 2
            assert t.anchor_id != t.positive_id
            assert labels[t.anchor_id][t.attribute] == labels[t.positive_id][t.attribute]
            assert labels[t.anchor_id][t.attribute] != labels[t.negative_id][t.attribute]
            assert t.anchor_value == labels[t.anchor_id][t.attribute]
            assert t.negative_value == labels[t.negative_id][t.attribute]

    def test_attribute_choice_is_uniform(self):
        # binomial n=10000 p=1/4: sigma ~ 43, allow 3 sigma
        records = [(f"img_{i}", {a: i % 2 for a in range(4)}) for i in range(20)]
        triplets = sample_triplets(records, 4, 10000, seed=1)
        counts = [0] * 4
        for t in triplets:
            counts[t.attribute] += 1
        for c in counts:
            assert abs(c - 2500) <= 130

    def test_error_names_starved_attribute(self):
        # attribute 1 has a single value everywhere: no negative exists
        records = [(f"img_{i}", {0: i % 2, 1: 0}) for i in range(6)]
        with pytest.raises(SamplingError, match="pattern"):
            sample_triplets(records, 2, 10, seed=0, attribute_names=["color", "pattern"])
        with pytest.raises(SamplingError, match="'1'"):
            sample_triplets(records, 2, 10, seed=0)

    def test_error_when_no_positive_exists(self):
        # every value class is a singleton: no positive pair anywhere
        records = [(f"img_{i}", {0: i}) for i in range(4)]
        with pytest.raises(SamplingError):
            sample_triplets(records, 1, 10, seed=0)

    def test_unlabeled_images_never_drawn(self):
        records = toy_annotations()
        records.append(("img_x", {1: 0}))  # lacks attribute 0
        for t in sample_triplets(records, 2, 500, seed=2):
            if t.attribute == 0:
                assert "img_x" not in (t.anchor_id, t.positive_id, t.negative_id)


class TestTripletLoss:
    def run_loss(self, s_pos, s_neg, margin):
        tape = Tape()
        with recording(tape):
            p = Tensor(np.array(s_pos))
            n = Tensor(np.array(s_neg))
            loss = triplet_margin_loss(p, n, margin)
            ad.backward(tape, loss)
        tape.clear()
        return float(loss.data), p.grad, n.grad

    def test_inactive_when_separated_by_margin(self):
        value, gp, gn = self.run_loss(0.9, 0.1, 0.2)
        assert value == 0.0
        assert float(gp) == 0.0 and float(gn) == 0.0

    def test_equal_similarities_cost_the_margin(self):
        value, gp, gn = self.run_loss(0.5, 0.5, 0.2)
        assert math.isclose(value, 0.2, abs_tol=1e-15)
        assert float(gp) == -1.0 and float(gn) == 1.0

    def test_inverted_pair(self):
        value, gp, gn = self.run_loss(0.3, 0.4, 0.2)
        assert math.isclose(value, 0.3, abs_tol=1e-15)
        assert float(gp) == -1.0 and float(gn) == 1.0


class TestAdam:
    def config(self):
        return TrainConfig(epochs=1, triplets_per_epoch=1)

    def test_first_step_moves_by_lr(self):
        p = Parameter(np.array([1.0, -2.0]), name="w")
        p.tensor.grad = np.array([0.5, -3.0])
        adam_step([p], OptimizerState(), lr=0.01, config=self.config())
        # bias-corrected first step is lr * g / (|g| + eps) = lr * sign(g)
        np.testing.assert_allclose(p.data, [1.0 - 0.01, -2.0 + 0.01], rtol=1e-6)

    def test_absent_gradient_leaves_parameter_and_moments_alone(self):
        p = Parameter(np.array([1.0]), name="w")
        state = OptimizerState()
        adam_step([p], state, lr=0.1, config=self.config())
        np.testing.assert_array_equal(p.data, [1.0])
        assert "w" not in state.first_moment

    def test_zero_gradient_is_a_no_op_update(self):
        p = Parameter(np.array([1.0]), name="w")
        p.tensor.grad = np.zeros(1)
        adam_step([p], OptimizerState(), lr=0.1, config=self.config())
        np.testing.assert_array_equal(p.data, [1.0])

    def test_non_trainable_parameter_skipped(self):
        p = Parameter(np.array([1.0]), name="w", trainable=False)
        p.tensor.grad = np.ones(1)
        adam_step([p], OptimizerState(), lr=0.1, config=self.config())
        np.testing.assert_array_equal(p.data, [1.0])

    def test_shape_mismatch_rejected(self):
        p = Parameter(np.array([1.0, 2.0]), name="w")
        p.tensor.grad = np.ones(3)
        with pytest.raises(ContractError):
            adam_step([p], OptimizerState(), lr=0.1, config=self.config())

    def test_five_steps_are_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(3)
            p = Parameter(np.ones((2, 3)), name="w")
            state = OptimizerState()
            for _ in range(5):
                p.tensor.grad = rng.normal(size=(2, 3))
                adam_step([p], state, lr=0.01, config=self.config())
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())


def manual_triplets():
    return [
        Triplet("img_0", "img_2", "img_1", 0, 0, 1),
        Triplet("img_1", "img_3", "img_0", 0, 1, 0),
        Triplet("img_0", "img_4", "img_3", 1, 0, 1),
    ]


class TestTrainEpoch:
    def test_single_batch_loss_matches_direct_forward(self):
        model = tiny_model()
        images = tiny_images(6)
        triplets = manual_triplets()
        expected = []
        for t in triplets:
            e_a = model.embed_map(Tensor(images[t.anchor_id]), t.attribute)
            e_p = model.embed_map(Tensor(images[t.positive_id]), t.attribute)
            e_n = model.embed_map(Tensor(images[t.negative_id]), t.attribute)
            s_pos = float(ad.cosine_similarity(e_a, e_p).data)
            s_neg = float(ad.cosine_similarity(e_a, e_n).data)
            expected.append(max(0.0, 0.2 - s_pos + s_neg))
        config = TrainConfig(epochs=1, triplets_per_epoch=3, batch_size=8)
        mean = train_epoch(model, triplets, images, config, OptimizerState(), lr=1e-3)
        assert math.isclose(mean, sum(expected) / 3, abs_tol=1e-12)

    def test_active_loss_moves_parameters(self):
        model = tiny_model()
        images = tiny_images(6)
        before = model.state_arrays()
        config = TrainConfig(epochs=1, triplets_per_epoch=3, batch_size=2, margin=1.5)
        train_epoch(model, manual_triplets(), images, config, OptimizerState(), lr=1e-2)
        after = model.state_arrays()
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_loss_scale_invariance_in_projection(self):
        # cosine ignores a common positive scale of the embedding map
        images = tiny_images(6)
        config = TrainConfig(epochs=1, triplets_per_epoch=3, batch_size=8, margin=0.4)

        def run(scale):
            model = tiny_model(seed=5)
            model.parameter("proj.weight").data[...] *= scale
            model.parameter("proj.bias").data[...] = 0.01 * scale
            return train_epoch(
                model, manual_triplets(), images, config, OptimizerState(), lr=1e-3
            )

        assert math.isclose(run(1.0), run(3.0), abs_tol=1e-12)

    @staticmethod
    def probe_loss(model, triplets, images, margin):
        total = 0.0
        for t in triplets:
            e_a = model.embed_map(Tensor(images[t.anchor_id]), t.attribute)
            e_p = model.embed_map(Tensor(images[t.positive_id]), t.attribute)
            e_n = model.embed_map(Tensor(images[t.negative_id]), t.attribute)
            s_pos = float(ad.cosine_similarity(e_a, e_p).data)
            s_neg = float(ad.cosine_similarity(e_a, e_n).data)
            total += max(0.0, margin - s_pos + s_neg)
        return total / len(triplets)

    def test_training_lowers_loss_on_a_fixed_probe_set(self):
        # weak signal under heavy noise keeps the initial cosines mediocre,
        # so the hinge starts active; per-epoch means bounce with resampling,
        # hence the fixed probe set measured before and after
        model = tiny_model(n_attributes=1, seed=1)
        rng = np.random.default_rng(0)
        images, annotations = {}, []
        for i in range(8):
            value = i % 2
            base = np.zeros((4, 2, 2))
            base[0] = 0.5 if value == 0 else -0.5
            images[f"img_{i}"] = base + rng.normal(size=(4, 2, 2))
            annotations.append((f"img_{i}", {0: value}))
        config = TrainConfig(
            epochs=1, triplets_per_epoch=48, batch_size=8, learning_rate=3e-3, margin=1.0
        )
        probe = sample_triplets(annotations, 1, 64, seed=999)
        before = self.probe_loss(model, probe, images, 1.0)
        state = OptimizerState()
        for epoch in range(1, 7):
            triplets = sample_triplets(annotations, 1, 48, seed=epoch)
            train_epoch(model, triplets, images, config, state, lr=3e-3)
        after = self.probe_loss(model, probe, images, 1.0)
        assert before > 0.5
        assert after < before - 0.1

    def test_empty_epoch_rejected(self):
        model = tiny_model()
        config = TrainConfig(epochs=1, triplets_per_epoch=1)
        with pytest.raises(ContractError):
            train_epoch(model, [], tiny_images(2), config, OptimizerState(), lr=1e-3)

    def test_numerical_failure_names_batch_and_triplets(self):
        model = tiny_model()
        images = tiny_images(6)
        images["img_2"] = np.full((4, 2, 2), np.nan)
        config = TrainConfig(epochs=1, triplets_per_epoch=3, batch_size=2)
        with pytest.raises(NumericalError, match=r"batch 0.*img_2"):
            train_epoch(model, manual_triplets(), images, config, OptimizerState(), lr=1e-3)

    def test_numerical_failure_in_a_later_batch_names_it(self):
        model = tiny_model()
        images = tiny_images(6)
        images["img_4"] = np.full((4, 2, 2), np.nan)  # used by the third triplet only
        config = TrainConfig(epochs=1, triplets_per_epoch=3, batch_size=2)
        with pytest.raises(NumericalError, match=r"batch 1: .*\[\('img_0', 'img_4', 'img_3'\)\]"):
            train_epoch(model, manual_triplets(), images, config, OptimizerState(), lr=1e-3)


def backbone_model(variant, dtype=np.float64, seed=4):
    config = ModelConfig(
        channels=4, n_attributes=2, attn_channels=2, reduction=2, embed_dim=4, variant=variant
    )
    backbone = BackboneConfig(kind="tiny_conv", out_channels=4, out_spatial=2, widths=(3, 4))
    return AttributeEmbeddingModel(config, backbone, seed=seed, dtype=dtype)


def batch_gradients(model, triplets, images, margin):
    """Loss and per-parameter gradients of one batched training graph."""
    ids = [t.anchor_id for t in triplets] + [t.positive_id for t in triplets] + [
        t.negative_id for t in triplets
    ]
    tape = Tape()
    with recording(tape):
        maps = model.image_to_map(Tensor(np.stack([images[i] for i in ids])))
        loss = batch_triplet_loss(model, maps, np.array([t.attribute for t in triplets]), margin)
    model.zero_grads()
    ad.backward(tape, loss)
    grads = {
        p.name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        for p in model.parameters()
    }
    return float(loss.data), grads


class TestBatchedStep:
    """The one-graph batch step against its per-triplet definition."""

    TRIPLETS = [
        Triplet("img_0", "img_2", "img_1", 0, 0, 1),
        Triplet("img_1", "img_3", "img_0", 1, 1, 0),
        Triplet("img_0", "img_4", "img_3", 1, 0, 1),
        Triplet("img_5", "img_0", "img_5", 0, 1, 1),
        Triplet("img_2", "img_4", "img_1", 0, 0, 1),
    ]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_equals_mean_of_batches_of_one(self, variant):
        model = backbone_model(variant)
        model.parameter("mask.weight").data[...] = np.random.default_rng(3).uniform(
            0.5, 1.5, size=(2, 4)
        )
        rng = np.random.default_rng(8)
        images = {f"img_{i}": rng.random((3, 16, 16)) for i in range(6)}
        loss, grads = batch_gradients(model, self.TRIPLETS, images, margin=0.6)
        singles = [batch_gradients(model, [t], images, margin=0.6) for t in self.TRIPLETS]
        assert any(value > 0.0 for value, _ in singles)  # some hinge is active
        n = len(self.TRIPLETS)
        assert math.isclose(loss, sum(value for value, _ in singles) / n, abs_tol=1e-12)
        for name, grad in grads.items():
            mean = sum(g[name] for _, g in singles) / n
            np.testing.assert_allclose(grad, mean, rtol=0, atol=1e-12, err_msg=name)

    def test_full_batch_of_sixteen_records_at_most_forty_nodes(self, monkeypatch):
        lengths = []

        class CountingTape(Tape):
            def clear(self):
                lengths.append(len(self))
                super().clear()

        monkeypatch.setattr(training, "Tape", CountingTape)
        model = backbone_model("full", dtype=np.float32)
        rng = np.random.default_rng(9)
        images = {f"img_{i}": rng.random((3, 16, 16)).astype(np.float32) for i in range(6)}
        annotations = [(f"img_{i}", {0: i % 2, 1: i // 3}) for i in range(6)]
        triplets = sample_triplets(annotations, 2, 32, seed=1)
        config = TrainConfig(epochs=1, triplets_per_epoch=32, batch_size=16)
        train_epoch(model, triplets, images, config, OptimizerState(), lr=1e-3)
        assert len(lengths) == 2
        assert max(lengths) <= 40


def fit_setup(n_attributes=1):
    model = tiny_model(n_attributes=n_attributes, seed=2)
    images = tiny_images(6, seed=7)
    annotations = [(f"img_{i}", {a: i % 2 for a in range(n_attributes)}) for i in range(6)]
    return model, images, annotations


class TestFit:
    def test_best_checkpoint_prefers_earliest_tie(self):
        model, images, annotations = fit_setup()
        metrics = iter([0.3, 0.5, 0.5, 0.4])
        config = TrainConfig(epochs=4, triplets_per_epoch=4, batch_size=4)
        best = fit(model, annotations, images, config, lambda m: next(metrics))
        assert best.epoch == 2
        assert best.metric == 0.5

    def test_val_stride_skips_epochs_but_covers_the_last(self):
        model, images, annotations = fit_setup()
        seen = []

        def metric(m):
            seen.append(len(seen))
            return float(len(seen))

        log = io.StringIO()
        config = TrainConfig(epochs=5, triplets_per_epoch=4, batch_size=4, val_stride=2)
        best = fit(model, annotations, images, config, metric, log_stream=log)
        assert len(seen) == 3  # epochs 2, 4, 5
        assert best.epoch == 5
        lines = log.getvalue().splitlines()
        assert len(lines) == 5
        for i, line in enumerate(lines, start=1):
            cols = line.split("\t")
            assert len(cols) == 4
            assert cols[0] == str(i)
            assert math.isclose(
                float(cols[2]),
                lr_schedule(i - 1, config.learning_rate, config.lr_decay),
                rel_tol=1e-6,  # the log keeps 8 significant digits
            )
            if i in (1, 3):
                assert cols[3] == "-"
            else:
                assert cols[3] != "-"

    def test_empty_annotations_rejected(self):
        model, images, _ = fit_setup()
        config = TrainConfig(epochs=1, triplets_per_epoch=2)
        with pytest.raises(ContractError):
            fit(model, [], images, config, lambda m: 0.0)

    def test_reloading_best_state_reproduces_the_metric(self):
        model, images, annotations = fit_setup()
        val_map = Tensor(np.random.default_rng(8).normal(size=(4, 2, 2)))
        ref = Tensor(np.random.default_rng(9).normal(size=(4, 2, 2)))

        def metric(m):
            return float(ad.cosine_similarity(m.embed_map(val_map, 0), m.embed_map(ref, 0)).data)

        config = TrainConfig(epochs=3, triplets_per_epoch=4, batch_size=4, learning_rate=1e-2)
        best = fit(model, annotations, images, config, metric)
        fresh = tiny_model(n_attributes=1, seed=99)
        fresh.load_state_arrays(best.state)
        assert math.isclose(metric(fresh), best.metric, abs_tol=1e-12)


class TestCheckpointFiles:
    def sample_checkpoint(self):
        model = tiny_model(seed=4)
        return Checkpoint(
            config_hash=config_fingerprint(model),
            epoch=7,
            metric=0.875,
            state=model.state_arrays(),
        )

    def test_round_trip_is_bitwise(self, tmp_path):
        ckpt = self.sample_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.config_hash == ckpt.config_hash
        assert loaded.epoch == 7
        assert loaded.metric == 0.875
        assert set(loaded.state) == set(ckpt.state)
        for name, arr in ckpt.state.items():
            assert loaded.state[name].dtype == arr.dtype
            np.testing.assert_array_equal(loaded.state[name], arr)

    def test_identical_checkpoints_serialize_identically(self, tmp_path):
        ckpt = self.sample_checkpoint()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, ckpt)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"attrembed-checkpoint 2\nconfig_hash x\n")
        with pytest.raises(FormatError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_missing_header_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        body = f"{CHECKPOINT_HEADER}\nconfig_hash x\nepoch 1\nmetric 0.5\nextra 9\n"
        path.write_bytes(body.encode())
        with pytest.raises(FormatError, match="params"):
            load_checkpoint(path)

    def test_duplicate_parameter_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        with open(path, "wb") as f:
            f.write(f"{CHECKPOINT_HEADER}\nconfig_hash x\nepoch 1\nmetric 0.5\nparams 2\n".encode())
            for _ in range(2):
                f.write(b"w\n")
                write_tensor(f, np.zeros(2))
        with pytest.raises(FormatError, match="duplicate"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        with open(path, "wb") as f:
            f.write(f"{CHECKPOINT_HEADER}\nconfig_hash x\nepoch 1\nmetric 0.5\nparams 1\n".encode())
            f.write(b"w\n")
            write_tensor(f, np.zeros(2))
            f.write(b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(f"{CHECKPOINT_HEADER}\nconfig_hash x".encode())
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_non_utf8_line_names_its_offset(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(f"{CHECKPOINT_HEADER}\n".encode() + b"config_hash \xff\n")
        with pytest.raises(FormatError, match=f"byte {len(CHECKPOINT_HEADER) + 1}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line_no,bad", [(3, "epoch 1.5"), (4, "metric 0}5"), (5, "params two")])
    def test_unparsable_header_number_names_its_line(self, tmp_path, line_no, bad):
        lines = [CHECKPOINT_HEADER, "config_hash x", "epoch 1", "metric 0.5", "params 0"]
        lines[line_no - 1] = bad
        path = tmp_path / "bad.ckpt"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        with pytest.raises(FormatError, match=f"line {line_no}"):
            load_checkpoint(path)

    def test_corrupted_extent_fails_as_truncation(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, self.sample_checkpoint())
        blob = bytearray(path.read_bytes())
        first_extent = blob.index(ad.MAGIC) + 8
        blob[first_extent : first_extent + 4] = struct.pack("<I", 0xFFFFFFF0)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_fingerprint_tracks_configuration(self):
        base = config_fingerprint(tiny_model())
        assert base == config_fingerprint(tiny_model(seed=9))  # weights don't matter
        assert base != config_fingerprint(tiny_model(variant="csn"))
        assert base != config_fingerprint(tiny_model(n_attributes=3))


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"margin": 0.0},
            {"margin": -0.1},
            {"lr_decay": 0.0},
            {"lr_decay": 1.5},
            {"batch_size": 0},
            {"epochs": 0},
            {"triplets_per_epoch": 0},
            {"val_stride": 0},
            {"learning_rate": 0.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)
