"""Synthetic dataset, splitting, manifest, and raster io tests.

The renderer's core promise: an attribute's value is readable from its
own quadrant and from nowhere else.  The classifier used to check both
directions lives in tests/oracles.py as explicit scalar loops.
"""

import math
import warnings

import numpy as np
import pytest

import oracles
from attrembed.data import (
    CANVAS_GRAY,
    MANIFEST_HEADER,
    PALETTE,
    QUADRANT_NAMES,
    QUADRANT_STYLES,
    AnnotationRecord,
    DatasetManifest,
    SyntheticSpec,
    generate_synthetic_dataset,
    largest_remainder_counts,
    load_manifest,
    quadrant_slices,
    read_ppm,
    render_image,
    save_manifest,
    split_dataset,
    write_ppm,
)
from attrembed.errors import ConfigError, FormatError
from attrembed.model import AttributeVocabulary
from attrembed.training import sample_triplets


def small_spec(**overrides):
    base = dict(n_attributes=4, n_values=4, n_images=120, image_size=16, noise=0.0, seed=5)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSyntheticSpec:
    def test_defaults(self):
        spec = SyntheticSpec()
        assert (spec.n_attributes, spec.n_values, spec.n_images) == (4, 4, 2000)
        assert spec.image_size == 32
        assert spec.regions == (0, 1, 2, 3)
        vocab = spec.vocabulary()
        assert vocab.names == list(QUADRANT_NAMES)
        assert vocab.value_names[0] == ["red", "green", "blue", "yellow"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_attributes": 0},
            {"n_attributes": 5},
            {"n_values": 1},
            {"n_values": 9},
            {"n_images": 0},
            {"image_size": 15},
            {"image_size": 6},
            {"noise": -0.1},
            {"regions": (0, 0, 1, 2)},
            {"regions": (0, 1)},
            {"regions": (0, 1, 2, 7)},
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticSpec(**kwargs)

    def test_stripe_thickness_floor(self):
        assert SyntheticSpec(image_size=32).stripe_thickness == 2
        assert SyntheticSpec(image_size=16).stripe_thickness == 1
        assert SyntheticSpec(image_size=8).stripe_thickness == 1

    def test_quadrant_slices_tile_the_grid(self):
        cover = np.zeros((8, 8), dtype=int)
        for q in range(4):
            rows, cols = quadrant_slices(8, q)
            cover[rows, cols] += 1
        assert (cover == 1).all()
        with pytest.raises(ConfigError):
            quadrant_slices(7, 0)
        with pytest.raises(ConfigError):
            quadrant_slices(8, 4)


class TestRenderer:
    def classify(self, image, spec, quadrant):
        palette = [color for _, color in PALETTE[: spec.n_values]]
        return oracles.classify_value(
            image.tolist(),
            spec.image_size,
            quadrant,
            QUADRANT_STYLES[quadrant],
            palette,
            CANVAS_GRAY,
        )

    def test_noise_free_render_is_label_deterministic(self):
        spec = small_spec()
        labels = {0: 1, 1: 3, 2: 0, 3: 2}
        np.testing.assert_array_equal(render_image(spec, labels), render_image(spec, labels))

    def test_owned_quadrant_reveals_the_value(self):
        spec = small_spec(n_images=80)
        images, manifest = generate_synthetic_dataset(spec)
        labels = {r.image_id: r.labels for r in manifest.records}
        hits = total = 0
        for image_id, image in images.items():
            for a in range(4):
                predicted = self.classify(image, spec, spec.regions[a])
                hits += predicted == labels[image_id][a]
                total += 1
        assert hits / total > 0.9  # in fact 1.0 at zero noise

    def test_wrong_quadrant_reads_at_chance(self):
        spec = small_spec(n_images=80)
        images, manifest = generate_synthetic_dataset(spec)
        labels = {r.image_id: r.labels for r in manifest.records}
        hits = total = 0
        for image_id, image in images.items():
            for a in range(4):
                for q in range(4):
                    if q == spec.regions[a]:
                        continue
                    predicted = self.classify(image, spec, q)
                    hits += predicted == labels[image_id][a]
                    total += 1
        assert abs(hits / total - 0.25) < 0.05

    def test_moderate_noise_keeps_the_owned_quadrant_readable(self):
        spec = small_spec(n_images=60, noise=0.1)
        images, manifest = generate_synthetic_dataset(spec)
        labels = {r.image_id: r.labels for r in manifest.records}
        hits = total = 0
        for image_id, image in images.items():
            for a in range(4):
                hits += self.classify(image, spec, spec.regions[a]) == labels[image_id][a]
                total += 1
        assert hits / total > 0.9

    def test_pixels_stay_in_unit_range(self):
        images, _ = generate_synthetic_dataset(small_spec(n_images=10, noise=0.4))
        for image in images.values():
            assert image.min() >= 0.0 and image.max() <= 1.0

    def test_generation_deterministic_and_prefix_stable(self):
        # per-image rng at seed ^ index: a longer run extends, never reshuffles
        a_images, a_manifest = generate_synthetic_dataset(small_spec(n_images=30))
        b_images, b_manifest = generate_synthetic_dataset(small_spec(n_images=60))
        for i in range(30):
            image_id = f"img_{i:06d}"
            np.testing.assert_array_equal(a_images[image_id], b_images[image_id])
            assert a_manifest.records[i].labels == b_manifest.records[i].labels

    def test_labels_are_roughly_uniform(self):
        _, manifest = generate_synthetic_dataset(small_spec(n_images=500))
        for a in range(4):
            counts = [0] * 4
            for r in manifest.records:
                counts[r.labels[a]] += 1
            for c in counts:
                assert abs(c - 125) <= 30  # 3 sigma of binomial(500, 1/4)

    def test_identical_labels_render_identically_inside_a_dataset(self):
        images, manifest = generate_synthetic_dataset(small_spec(n_images=120))
        by_labels = {}
        for r in manifest.records:
            by_labels.setdefault(tuple(sorted(r.labels.items())), []).append(r.image_id)
        twins = [ids for ids in by_labels.values() if len(ids) >= 2]
        assert twins  # 120 draws over 256 label combinations collide
        for ids in twins:
            np.testing.assert_array_equal(images[ids[0]], images[ids[1]])


class TestLargestRemainder:
    def test_exact_ratio(self):
        assert largest_remainder_counts(10, (8, 1, 1)) == [8, 1, 1]

    def test_remainders_go_to_largest_fraction(self):
        assert largest_remainder_counts(7, (1, 1, 1)) == [3, 2, 2]

    def test_ties_prefer_earlier_entries(self):
        assert largest_remainder_counts(1, (1, 1)) == [1, 0]

    def test_total_always_preserved(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 6))
            weights = rng.uniform(0.01, 5.0, size=k)
            total = int(rng.integers(0, 500))
            counts = largest_remainder_counts(total, tuple(weights))
            assert sum(counts) == total
            assert all(c >= 0 for c in counts)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigError):
            largest_remainder_counts(-1, (1, 1))
        with pytest.raises(ConfigError):
            largest_remainder_counts(5, ())
        with pytest.raises(ConfigError):
            largest_remainder_counts(5, (0.0, 0.0))
        with pytest.raises(ConfigError):
            largest_remainder_counts(5, (1.0, -1.0))


class TestSplitDataset:
    def test_ten_images_split_8_1_1(self):
        _, manifest = generate_synthetic_dataset(small_spec(n_images=10))
        out = split_dataset(manifest, seed=3)
        assert len(out.ids("train")) == 8
        assert len(out.ids("val")) == 1
        assert len(out.ids("test")) == 1

    def test_roles_follow_query_fraction(self):
        _, manifest = generate_synthetic_dataset(small_spec(n_images=1000, image_size=8))
        out = split_dataset(manifest, query_fraction=0.2, seed=0)
        for split in ("val", "test"):
            ids = out.ids(split)
            assert len(ids) == 100
            queries = [i for i in ids if out.role_of[i] == "query"]
            candidates = [i for i in ids if out.role_of[i] == "candidate"]
            assert len(queries) == 20
            assert len(candidates) == 80

    def test_partition_is_exact_and_deterministic(self):
        _, manifest = generate_synthetic_dataset(small_spec(n_images=50))
        a = split_dataset(manifest, seed=9)
        b = split_dataset(manifest, seed=9)
        assert a.split_of == b.split_of and a.role_of == b.role_of
        c = split_dataset(manifest, seed=10)
        assert a.split_of != c.split_of
        all_ids = set(a.ids("train")) | set(a.ids("val")) | set(a.ids("test"))
        assert all_ids == {r.image_id for r in manifest.records}
        assert len(a.ids("train")) + len(a.ids("val")) + len(a.ids("test")) == 50

    def test_warns_when_train_misses_a_value(self):
        vocab = AttributeVocabulary(names=["patch"], value_names=[["red", "green", "blue"]])
        records = [AnnotationRecord(f"img_{i}", {0: i}) for i in range(3)]
        manifest = DatasetManifest(vocabulary=vocab, records=records)
        with pytest.warns(UserWarning, match="absent from the train split"):
            split_dataset(manifest, ratios=(1, 1, 1), seed=0)

    def test_query_fraction_bounds(self):
        _, manifest = generate_synthetic_dataset(small_spec(n_images=10))
        with pytest.raises(ConfigError):
            split_dataset(manifest, query_fraction=0.0)
        with pytest.raises(ConfigError):
            split_dataset(manifest, query_fraction=1.0)

    def test_train_annotations_feed_the_sampler_with_train_ids_only(self):
        _, manifest = generate_synthetic_dataset(small_spec(n_images=60))
        out = split_dataset(manifest, seed=1)
        train_ids = set(out.ids("train"))
        triplets = sample_triplets(out.annotations("train"), 4, 300, seed=2)
        for t in triplets:
            assert {t.anchor_id, t.positive_id, t.negative_id} <= train_ids

    def test_retrieval_split_shape(self):
        _, manifest = generate_synthetic_dataset(small_spec(n_images=100))
        out = split_dataset(manifest, seed=4)
        split = out.to_retrieval_split("test")
        split.validate()
        n_test_queries = sum(1 for i in out.ids("test") if out.role_of[i] == "query")
        assert len(split.queries) == 4 * n_test_queries  # one per attribute
        for a in range(4):
            assert len(split.candidates[a]) == len(out.ids("test")) - n_test_queries
        with pytest.raises(ConfigError):
            out.to_retrieval_split("train")


class TestManifestIO:
    def sample_manifest(self, with_splits=False):
        _, manifest = generate_synthetic_dataset(small_spec(n_images=12))
        if with_splits:
            # 8 train images cannot cover 16 attribute values; that warning
            # is expected here and not what this test is about
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                manifest = split_dataset(manifest, ratios=(8, 2, 2), query_fraction=0.5, seed=2)
        return manifest

    def test_round_trip_without_splits(self, tmp_path):
        manifest = self.sample_manifest()
        path = tmp_path / "data.manifest"
        save_manifest(path, manifest)
        loaded = load_manifest(path)
        assert loaded.vocabulary.names == manifest.vocabulary.names
        assert loaded.vocabulary.value_names == manifest.vocabulary.value_names
        assert loaded.source_kind == "raster"
        assert [r.image_id for r in loaded.records] == [r.image_id for r in manifest.records]
        for got, want in zip(loaded.records, manifest.records):
            assert dict(got.labels) == dict(want.labels)
        assert loaded.split_of == {}

    def test_round_trip_with_splits(self, tmp_path):
        manifest = self.sample_manifest(with_splits=True)
        path = tmp_path / "data.manifest"
        save_manifest(path, manifest)
        loaded = load_manifest(path)
        assert loaded.split_of == manifest.split_of
        assert loaded.role_of == manifest.role_of
        assert loaded.ratios == (8.0, 2.0, 2.0)
        assert loaded.query_fraction == 0.5

    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.manifest"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_wrong_header(self, tmp_path):
        path = self.write_lines(tmp_path, ["attrembed-manifest 2"])
        with pytest.raises(FormatError, match="line 1"):
            load_manifest(path)

    def test_malformed_source_line(self, tmp_path):
        path = self.write_lines(tmp_path, [MANIFEST_HEADER, "source raster"])
        with pytest.raises(FormatError, match="line 2"):
            load_manifest(path)

    def test_non_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_bytes(f"{MANIFEST_HEADER}\nsource raster images\nattribute \xff a b\n".encode("latin-1"))
        with pytest.raises(FormatError, match="line 3"):
            load_manifest(path)

    def test_non_numeric_splits_line(self, tmp_path):
        manifest = self.sample_manifest(with_splits=True)
        path = tmp_path / "data.manifest"
        save_manifest(path, manifest)
        text = path.read_text()
        path.write_text(text.replace("splits 8 2 2", "splits 8 two 2"))
        line_no = text.splitlines().index("splits 8 2 2 query_fraction 0.5") + 1
        with pytest.raises(FormatError, match=f"line {line_no}"):
            load_manifest(path)

    def test_superscript_record_count(self, tmp_path):
        path = self.write_lines(
            tmp_path, [MANIFEST_HEADER, "source raster images", "attribute a x y", "records \u00b2"]
        )
        with pytest.raises(FormatError, match="line 4"):
            load_manifest(path)

    def test_empty_vocabulary(self, tmp_path):
        path = self.write_lines(
            tmp_path, [MANIFEST_HEADER, "source raster images", "records 0"]
        )
        with pytest.raises(FormatError, match="vocabulary"):
            load_manifest(path)

    def test_attribute_needs_two_values(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [MANIFEST_HEADER, "source raster images", "attribute patch red", "records 0"],
        )
        with pytest.raises(FormatError, match="line 3"):
            load_manifest(path)

    def test_malformed_records_count(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [MANIFEST_HEADER, "source raster images", "attribute patch red green", "records x"],
        )
        with pytest.raises(FormatError, match="line 4"):
            load_manifest(path)

    def test_unknown_attribute_in_record(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                MANIFEST_HEADER,
                "source raster images",
                "attribute patch red green",
                "records 1",
                "img_0 hue:red",
            ],
        )
        with pytest.raises(FormatError, match="line 5.*hue"):
            load_manifest(path)

    def test_duplicate_attribute_in_record_names_the_image(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                MANIFEST_HEADER,
                "source raster images",
                "attribute patch red green",
                "records 1",
                "img_0 patch:red patch:green",
            ],
        )
        with pytest.raises(FormatError, match="img_0.*twice"):
            load_manifest(path)

    def test_label_token_without_colon(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                MANIFEST_HEADER,
                "source raster images",
                "attribute patch red green",
                "records 1",
                "img_0 patchred",
            ],
        )
        with pytest.raises(FormatError, match="label token"):
            load_manifest(path)

    def test_truncated_record_section(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                MANIFEST_HEADER,
                "source raster images",
                "attribute patch red green",
                "records 3",
                "img_0 patch:red",
            ],
        )
        with pytest.raises(FormatError, match="unexpected end"):
            load_manifest(path)

    def test_duplicate_image_id(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                MANIFEST_HEADER,
                "source raster images",
                "attribute patch red green",
                "records 2",
                "img_0 patch:red",
                "img_0 patch:green",
            ],
        )
        with pytest.raises(FormatError, match="img_0"):
            load_manifest(path)

    def test_bad_split_section(self, tmp_path):
        base = [
            MANIFEST_HEADER,
            "source raster images",
            "attribute patch red green",
            "records 2",
            "img_0 patch:red",
            "img_1 patch:green",
        ]
        cases = [
            (["splits 8 1 1 qf 0.2", "img_0 train -", "img_1 val query"], "splits line"),
            (["splits 8 1 1 query_fraction 0.2", "img_9 train -", "img_1 val query"], "unknown image"),
            (["splits 8 1 1 query_fraction 0.2", "img_0 train -", "img_0 val query"], "twice"),
            (["splits 8 1 1 query_fraction 0.2", "img_0 dev -", "img_1 val query"], "unknown split"),
            (["splits 8 1 1 query_fraction 0.2", "img_0 train judge", "img_1 val query"], "unknown role"),
            (["splits 8 1 1 query_fraction 0.2", "img_0 train -"], "unexpected end"),
        ]
        for extra, pattern in cases:
            path = self.write_lines(tmp_path, base + extra)
            with pytest.raises(FormatError, match=pattern):
                load_manifest(path)

    def test_trailing_content(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                MANIFEST_HEADER,
                "source raster images",
                "attribute patch red green",
                "records 1",
                "img_0 patch:red",
                "stray line",
            ],
        )
        with pytest.raises(FormatError, match="trailing"):
            load_manifest(path)


class TestPPM:
    def test_round_trip_within_quantization(self, tmp_path, rng):
        image = rng.random((3, 9, 7))
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        back = read_ppm(path)
        assert back.shape == (3, 9, 7)
        assert np.abs(back - image).max() <= 0.5 / 255 + 1e-12

    def test_write_clips_out_of_range(self, tmp_path):
        image = np.zeros((3, 2, 2))
        image[0] = 2.0
        image[1] = -1.0
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        back = read_ppm(path)
        assert back[0].max() == 1.0
        assert back[1].min() == 0.0

    def test_plain_text_ppm_with_comments(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P3\n# a comment\n2 1\n255\n255 0 0  0 0 255\n")
        image = read_ppm(path)
        assert image.shape == (3, 1, 2)
        assert math.isclose(image[0, 0, 0], 1.0)
        assert math.isclose(image[2, 0, 1], 1.0)

    def test_rejections(self, tmp_path):
        bad_shape = np.zeros((2, 4, 4))
        with pytest.raises(FormatError):
            write_ppm(tmp_path / "x.ppm", bad_shape)
        p5 = tmp_path / "p5.ppm"
        p5.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError, match="magic"):
            read_ppm(p5)
        deep = tmp_path / "deep.ppm"
        deep.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(FormatError, match="maxval"):
            read_ppm(deep)
        short = tmp_path / "short.ppm"
        short.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(FormatError, match="truncated"):
            read_ppm(short)
        header_only = tmp_path / "h.ppm"
        header_only.write_bytes(b"P6\n4")
        with pytest.raises(FormatError, match="header"):
            read_ppm(header_only)
