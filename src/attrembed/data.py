"""Dataset schema, synthetic image generation, splits, and raster io.

The synthetic dataset gives each attribute its own quadrant of the image.
An attribute's value is drawn independently of the others and rendered
only inside the owned quadrant, as a colored pattern on a mid-gray
canvas.  Quadrants are visually distinct (solid fill, horizontal or
vertical stripes, checkerboard) and the palette color encodes the value,
so a value is recoverable from the owned region and nothing else.  That
makes "does attention look at the right place" a measurable property
rather than a plot.

Generation derives one RNG per image from seed XOR image index, so any
parallel execution order produces identical output.

Manifests are line-oriented UTF-8: a vocabulary header, one record line
per image (`image_id attr:value ...`), and an optional split section
assigning train/val/test plus query/candidate roles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, FormatError
from .evaluation import Query, RetrievalSplit
from .model import AttributeVocabulary

MANIFEST_HEADER = "attrembed-manifest 1"

QUADRANT_NAMES = ("top_left", "top_right", "bottom_left", "bottom_right")
QUADRANT_STYLES = ("solid", "h_stripes", "v_stripes", "checker")
PALETTE = (
    ("red", (0.85, 0.15, 0.15)),
    ("green", (0.15, 0.85, 0.15)),
    ("blue", (0.15, 0.15, 0.85)),
    ("yellow", (0.85, 0.85, 0.15)),
    ("magenta", (0.85, 0.15, 0.85)),
    ("cyan", (0.15, 0.85, 0.85)),
    ("orange", (0.9, 0.55, 0.1)),
    ("violet", (0.5, 0.15, 0.9)),
)
CANVAS_GRAY = 0.5


@dataclass(frozen=True)
class AnnotationRecord:
    """One image's labels: at most one value per attribute."""

    image_id: str
    labels: Mapping[int, int]

    def __post_init__(self):
        if not self.image_id or any(ch.isspace() for ch in self.image_id):
            raise ConfigError(f"bad image id {self.image_id!r}")


@dataclass
class DatasetManifest:
    vocabulary: AttributeVocabulary
    records: list[AnnotationRecord]
    source_kind: str = "raster"
    source_path: str = "images"
    split_of: dict[str, str] = field(default_factory=dict)
    role_of: dict[str, str] = field(default_factory=dict)
    ratios: Optional[tuple[float, float, float]] = None
    query_fraction: Optional[float] = None

    def __post_init__(self):
        if self.source_kind not in ("raster", "features"):
            raise ConfigError(f"unknown source kind {self.source_kind!r}")
        seen = set()
        for r in self.records:
            if r.image_id in seen:
                raise ConfigError(f"duplicate image id {r.image_id!r}")
            seen.add(r.image_id)
            for a, v in r.labels.items():
                if not 0 <= a < self.vocabulary.n:
                    raise ConfigError(f"record {r.image_id!r}: attribute index {a} out of range")
                if not 0 <= v < self.vocabulary.n_values(a):
                    raise ConfigError(
                        f"record {r.image_id!r}: value index {v} out of range for "
                        f"attribute {self.vocabulary.names[a]!r}"
                    )

    def annotations(self, split: Optional[str] = None) -> list[tuple[str, dict[int, int]]]:
        """(image_id, labels) pairs, optionally restricted to one split."""
        out = []
        for r in self.records:
            if split is not None and self.split_of.get(r.image_id) != split:
                continue
            out.append((r.image_id, dict(r.labels)))
        return out

    def ids(self, split: Optional[str] = None) -> list[str]:
        return [image_id for image_id, _ in self.annotations(split)]

    def to_retrieval_split(self, split: str) -> RetrievalSplit:
        """Build the retrieval task for `split`: query-role images against
        candidate-role images, one query per (query image, attribute)."""
        if split not in ("val", "test"):
            raise ConfigError(f"retrieval split must be val or test, got {split!r}")
        queries: list[Query] = []
        candidates: dict[int, list[tuple[str, int]]] = {}
        for image_id, labels in self.annotations(split):
            role = self.role_of.get(image_id)
            if role == "query":
                for a, v in sorted(labels.items()):
                    queries.append(Query(image_id, a, v))
            elif role == "candidate":
                for a, v in sorted(labels.items()):
                    candidates.setdefault(a, []).append((image_id, v))
            else:
                raise ConfigError(f"image {image_id!r} in {split} has no query/candidate role")
        return RetrievalSplit(queries=queries, candidates=candidates)


# -- synthetic generation ---------------------------------------------------


@dataclass
class SyntheticSpec:
    n_attributes: int = 4
    n_values: int = 4
    n_images: int = 2000
    image_size: int = 32
    noise: float = 0.1
    seed: int = 0
    # attribute index -> quadrant index; identity by default
    regions: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if not 1 <= self.n_attributes <= len(QUADRANT_NAMES):
            raise ConfigError(
                f"n_attributes must lie in [1, {len(QUADRANT_NAMES)}], got {self.n_attributes}"
            )
        if not 2 <= self.n_values <= len(PALETTE):
            raise ConfigError(f"n_values must lie in [2, {len(PALETTE)}], got {self.n_values}")
        if self.n_images < 1:
            raise ConfigError("n_images must be >= 1")
        if self.image_size < 8 or self.image_size % 2:
            raise ConfigError(f"image_size must be even and >= 8, got {self.image_size}")
        if self.noise < 0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")
        if self.regions is None:
            self.regions = tuple(range(self.n_attributes))
        if len(self.regions) != self.n_attributes:
            raise ConfigError("regions must assign exactly one quadrant per attribute")
        if any(not 0 <= q < len(QUADRANT_NAMES) for q in self.regions):
            raise ConfigError(f"quadrant indices must lie in [0, {len(QUADRANT_NAMES)})")
        if len(set(self.regions)) != len(self.regions):
            raise ConfigError(f"attribute regions overlap: {self.regions}")

    def vocabulary(self) -> AttributeVocabulary:
        value_names = [PALETTE[v][0] for v in range(self.n_values)]
        return AttributeVocabulary(
            names=[QUADRANT_NAMES[q] for q in self.regions],
            value_names=[list(value_names) for _ in range(self.n_attributes)],
        )

    @property
    def stripe_thickness(self) -> int:
        return max(1, self.image_size // 16)


def quadrant_slices(size: int, quadrant: int) -> tuple[slice, slice]:
    """Row and column slices of one quadrant on a size x size grid."""
    if size % 2:
        raise ConfigError(f"grid size must be even, got {size}")
    if not 0 <= quadrant < 4:
        raise ConfigError(f"quadrant must lie in [0, 4), got {quadrant}")
    half = size // 2
    rows = slice(0, half) if quadrant in (0, 1) else slice(half, size)
    cols = slice(0, half) if quadrant in (0, 2) else slice(half, size)
    return rows, cols


def render_image(spec: SyntheticSpec, labels: Mapping[int, int]) -> np.ndarray:
    """Noise-free raster for one label vector: (3, size, size) in [0, 1]."""
    size = spec.image_size
    img = np.full((3, size, size), CANVAS_GRAY, dtype=np.float64)
    t = spec.stripe_thickness
    for a in range(spec.n_attributes):
        q = spec.regions[a]
        rows, cols = quadrant_slices(size, q)
        color = np.array(PALETTE[labels[a]][1])[:, None, None]
        style = QUADRANT_STYLES[q]
        block = img[:, rows, cols]
        h, w = block.shape[1:]
        r = np.arange(h)[:, None] // t
        c = np.arange(w)[None, :] // t
        if style == "solid":
            mask = np.ones((h, w), dtype=bool)
        elif style == "h_stripes":
            mask = r % 2 == 0
        elif style == "v_stripes":
            mask = c % 2 == 0
        else:
            mask = (r + c) % 2 == 0
        block[:] = np.where(mask[None, :, :], color, block)
    return img


def generate_synthetic_dataset(
    spec: SyntheticSpec,
) -> tuple[dict[str, np.ndarray], DatasetManifest]:
    """Render the images and their annotation records.

    Label values are i.i.d. uniform per attribute, so no quadrant carries
    information about another attribute's value.  Every image gets its own
    RNG at seed XOR index; with zero noise the raster is a pure function of
    the labels.
    """
    images: dict[str, np.ndarray] = {}
    records: list[AnnotationRecord] = []
    for i in range(spec.n_images):
        rng = np.random.default_rng(spec.seed ^ i)
        labels = {a: int(rng.integers(spec.n_values)) for a in range(spec.n_attributes)}
        img = render_image(spec, labels)
        if spec.noise > 0:
            img += rng.uniform(-spec.noise, spec.noise, img.shape)
            np.clip(img, 0.0, 1.0, out=img)
        image_id = f"img_{i:06d}"
        images[image_id] = img
        records.append(AnnotationRecord(image_id, labels))
    manifest = DatasetManifest(vocabulary=spec.vocabulary(), records=records)
    return images, manifest


# -- splitting --------------------------------------------------------------


def largest_remainder_counts(total: int, weights: Sequence[float]) -> list[int]:
    """Apportion `total` into integer counts proportional to `weights`.

    Floors first, then hands remaining units to the largest fractional
    remainders (earlier entries win exact ties).
    """
    if total < 0 or not weights or any(w < 0 for w in weights) or sum(weights) == 0:
        raise ConfigError(f"bad apportionment: total={total}, weights={weights}")
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(x) for x in raw]
    order = sorted(range(len(weights)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def split_dataset(
    manifest: DatasetManifest,
    ratios: tuple[float, float, float] = (8, 1, 1),
    query_fraction: float = 0.2,
    seed: int = 0,
) -> DatasetManifest:
    """Assign train/val/test splits and query/candidate roles.

    A seeded shuffle of the records is cut by largest-remainder counts;
    within val and test the first query_fraction become queries.  Attribute
    values present in the data but missing from train trigger a warning
    naming them (training simply cannot learn those values).
    """
    if not 0 < query_fraction < 1:
        raise ConfigError(f"query_fraction must lie in (0, 1), got {query_fraction}")
    counts = largest_remainder_counts(len(manifest.records), ratios)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(manifest.records))
    ids = [manifest.records[i].image_id for i in order]
    bounds = [counts[0], counts[0] + counts[1], len(ids)]
    split_of: dict[str, str] = {}
    role_of: dict[str, str] = {}
    for pos, image_id in enumerate(ids):
        if pos < bounds[0]:
            split_of[image_id] = "train"
        elif pos < bounds[1]:
            split_of[image_id] = "val"
        else:
            split_of[image_id] = "test"
    for split, lo, hi in (("val", bounds[0], bounds[1]), ("test", bounds[1], bounds[2])):
        members = ids[lo:hi]
        n_query = largest_remainder_counts(len(members), (query_fraction, 1 - query_fraction))[0]
        for pos, image_id in enumerate(members):
            role_of[image_id] = "query" if pos < n_query else "candidate"
    out = DatasetManifest(
        vocabulary=manifest.vocabulary,
        records=list(manifest.records),
        source_kind=manifest.source_kind,
        source_path=manifest.source_path,
        split_of=split_of,
        role_of=role_of,
        ratios=tuple(ratios),
        query_fraction=query_fraction,
    )
    _warn_missing_train_values(out)
    return out


def _warn_missing_train_values(manifest: DatasetManifest) -> None:
    present: set[tuple[int, int]] = set()
    in_train: set[tuple[int, int]] = set()
    for r in manifest.records:
        for a, v in r.labels.items():
            present.add((a, v))
            if manifest.split_of.get(r.image_id) == "train":
                in_train.add((a, v))
    missing = sorted(present - in_train)
    if missing:
        vocab = manifest.vocabulary
        names = ", ".join(f"{vocab.names[a]}:{vocab.value_names[a][v]}" for a, v in missing)
        warnings.warn(f"values absent from the train split: {names}", stacklevel=2)


# -- manifest io ------------------------------------------------------------


def save_manifest(path, manifest: DatasetManifest) -> None:
    vocab = manifest.vocabulary
    with open(path, "w", encoding="utf-8") as f:
        f.write(MANIFEST_HEADER + "\n")
        f.write(f"source {manifest.source_kind} {manifest.source_path}\n")
        for name, values in zip(vocab.names, vocab.value_names):
            f.write(f"attribute {name} {' '.join(values)}\n")
        f.write(f"records {len(manifest.records)}\n")
        for r in manifest.records:
            labels = " ".join(
                f"{vocab.names[a]}:{vocab.value_names[a][v]}" for a, v in sorted(r.labels.items())
            )
            f.write(f"{r.image_id} {labels}\n".rstrip() + "\n")
        if manifest.split_of:
            r0, r1, r2 = manifest.ratios if manifest.ratios else (0, 0, 0)
            qf = manifest.query_fraction if manifest.query_fraction is not None else 0
            f.write(f"splits {r0:g} {r1:g} {r2:g} query_fraction {qf:g}\n")
            for r in manifest.records:
                role = manifest.role_of.get(r.image_id, "-")
                f.write(f"{r.image_id} {manifest.split_of[r.image_id]} {role}\n")


def load_manifest(path) -> DatasetManifest:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"line {line_no}: not UTF-8 ({exc.reason})") from None
    pos = 0

    def need_line(what: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise FormatError(f"line {pos + 1}: unexpected end of manifest, expected {what}")
        line = lines[pos]
        pos += 1
        return line

    if need_line("header") != MANIFEST_HEADER:
        raise FormatError(f"line 1: not a manifest file (missing {MANIFEST_HEADER!r})")
    source = need_line("source line").split()
    if len(source) != 3 or source[0] != "source":
        raise FormatError(f"line {pos}: malformed source line")
    names: list[str] = []
    value_names: list[list[str]] = []
    while pos < len(lines) and lines[pos].startswith("attribute "):
        parts = need_line("attribute line").split()
        if len(parts) < 4:
            raise FormatError(f"line {pos}: attribute needs a name and >= 2 values")
        names.append(parts[1])
        value_names.append(parts[2:])
    if not names:
        raise FormatError(f"line {pos + 1}: empty vocabulary (no attribute lines)")
    try:
        vocab = AttributeVocabulary(names, value_names)
    except ConfigError as exc:
        raise FormatError(f"line {pos}: {exc}") from exc
    count_parts = need_line("records count").split()
    if len(count_parts) != 2 or count_parts[0] != "records" or not count_parts[1].isdecimal():
        raise FormatError(f"line {pos}: malformed records count")
    n_records = int(count_parts[1])
    records: list[AnnotationRecord] = []
    for _ in range(n_records):
        line = need_line("record line")
        parts = line.split()
        if not parts:
            raise FormatError(f"line {pos}: empty record line")
        image_id = parts[0]
        labels: dict[int, int] = {}
        for token in parts[1:]:
            attr_name, sep, value_name = token.partition(":")
            if not sep:
                raise FormatError(f"line {pos}: malformed label token {token!r}")
            try:
                a = vocab.attribute_index(attr_name)
                v = vocab.value_index(a, value_name)
            except Exception as exc:
                raise FormatError(f"line {pos}: {exc}") from exc
            if a in labels:
                raise FormatError(
                    f"line {pos}: image {image_id!r} lists attribute {attr_name!r} twice"
                )
            labels[a] = v
        records.append(AnnotationRecord(image_id, labels))
    split_of: dict[str, str] = {}
    role_of: dict[str, str] = {}
    ratios = None
    query_fraction = None
    if pos < len(lines) and lines[pos].startswith("splits "):
        parts = need_line("splits line").split()
        if len(parts) != 6 or parts[4] != "query_fraction":
            raise FormatError(f"line {pos}: malformed splits line")
        try:
            ratios = (float(parts[1]), float(parts[2]), float(parts[3]))
            query_fraction = float(parts[5])
        except ValueError:
            raise FormatError(f"line {pos}: splits line needs numbers") from None
        known = {r.image_id for r in records}
        for _ in range(n_records):
            parts = need_line("split assignment").split()
            if len(parts) != 3:
                raise FormatError(f"line {pos}: malformed split assignment")
            image_id, split, role = parts
            if image_id not in known:
                raise FormatError(f"line {pos}: unknown image {image_id!r} in split section")
            if image_id in split_of:
                raise FormatError(f"line {pos}: image {image_id!r} assigned twice")
            if split not in ("train", "val", "test"):
                raise FormatError(f"line {pos}: unknown split {split!r}")
            if role not in ("query", "candidate", "-"):
                raise FormatError(f"line {pos}: unknown role {role!r}")
            split_of[image_id] = split
            if role != "-":
                role_of[image_id] = role
        if len(split_of) != n_records:
            raise FormatError("split section does not cover every record")
    if pos < len(lines) and any(line.strip() for line in lines[pos:]):
        raise FormatError(f"line {pos + 1}: trailing content after manifest")
    try:
        return DatasetManifest(
            vocabulary=vocab,
            records=records,
            source_kind=source[1],
            source_path=source[2],
            split_of=split_of,
            role_of=role_of,
            ratios=ratios,
            query_fraction=query_fraction,
        )
    except ConfigError as exc:
        raise FormatError(str(exc)) from exc


# -- raster io --------------------------------------------------------------


def write_ppm(path, image: np.ndarray) -> None:
    """Binary 8-bit PPM from a (3, h, w) float array in [0, 1]."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise FormatError(f"expected a (3, h, w) image, got {image.shape}")
    h, w = image.shape[1:]
    quantized = np.clip(np.rint(image * 255), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(quantized.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    """Read binary (P6) or plain (P3) PPM into (3, h, w) floats in [0, 1]."""
    with open(path, "rb") as f:
        data = f.read()
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if data[i : i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        tokens.append(data[start:i])
    if len(tokens) < 4:
        raise FormatError(f"truncated PPM header in {path}")
    magic, w_s, h_s, maxval = tokens
    if magic not in (b"P6", b"P3"):
        raise FormatError(f"unsupported raster magic {magic!r} in {path}")
    try:
        w, h, mv = int(w_s), int(h_s), int(maxval)
    except ValueError:
        raise FormatError(f"malformed PPM header in {path}") from None
    if mv != 255:
        raise FormatError(f"unsupported PPM maxval {mv} in {path}")
    if magic == b"P6":
        i += 1  # single whitespace byte after maxval
        raw = data[i : i + 3 * w * h]
        if len(raw) != 3 * w * h:
            raise FormatError(f"PPM pixel payload truncated in {path}")
        flat = np.frombuffer(raw, dtype=np.uint8)
    else:
        values = data[i:].split()
        if len(values) != 3 * w * h:
            raise FormatError(f"expected {3 * w * h} samples in {path}, found {len(values)}")
        flat = np.array([int(v) for v in values], dtype=np.uint8)
    return flat.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0
