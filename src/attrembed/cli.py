"""Command-line interface.

Subcommands cover the whole desk workflow: synthesize a dataset, split it,
train a variant, evaluate retrieval MAP and triplet accuracy, rerank a
baseline model's results, export attention maps, and check gradients.

Configuration comes from an optional key=value text file (--config) with
individual flags overriding it; every command prints its fully resolved
configuration and seed before acting, so a console transcript documents
the run.  Output files land under --out with fixed names.

Exit codes: 0 success, 1 usage or configuration error, 2 data or format
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import BackboneConfig, load_precomputed_features
from .data import (
    DatasetManifest,
    SyntheticSpec,
    generate_synthetic_dataset,
    load_manifest,
    read_ppm,
    save_manifest,
    split_dataset,
    write_ppm,
)
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    ExcludedQueryError,
    FormatError,
    SamplingError,
    VocabularyError,
)
from .evaluation import (
    ModelScorer,
    average_precision,
    evaluate_map,
    evaluate_triplet_accuracy,
    expected_random_map,
    rank_candidates,
    rerank_topk,
    write_report,
)
from .model import VARIANTS, AttributeEmbeddingModel, ModelConfig, write_attention_file
from .training import (
    Checkpoint,
    TrainConfig,
    batch_triplet_loss,
    config_fingerprint,
    fit,
    load_checkpoint,
    sample_triplets,
    save_checkpoint,
)

CHECKPOINT_NAME = "checkpoint.bin"
RUN_CONFIG_NAME = "run_config.txt"
TRAIN_LOG_NAME = "train_log.tsv"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main controls the code."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def read_config_file(path) -> dict[str, str]:
    """key=value lines; '#' starts a comment; later keys override earlier."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for i, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"{path}:{i}: expected key=value, got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def resolve(args: argparse.Namespace, keys: Sequence[str]) -> dict[str, str]:
    """Merge config-file values and flag overrides for the listed keys."""
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_values) - set(keys)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved: dict[str, str] = {}
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = str(flag)
        elif key in file_values:
            resolved[key] = file_values[key]
    return resolved


def announce(command: str, resolved: dict[str, str]) -> None:
    print(f"[{command}] resolved configuration:")
    for key in sorted(resolved):
        print(f"  {key} = {resolved[key]}")
    if "seed" in resolved:
        print(f"  (seed {resolved['seed']})")


def _get(resolved: dict[str, str], key: str, default, cast):
    if key not in resolved:
        return default
    try:
        if cast is bool:
            return resolved[key].lower() in ("1", "true", "yes", "on")
        return cast(resolved[key])
    except ValueError:
        raise UsageError(f"bad value for {key}: {resolved[key]!r}") from None


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# -- model plumbing ---------------------------------------------------------

MODEL_KEYS = (
    "variant",
    "channels",
    "attn_channels",
    "reduction",
    "embed_dim",
    "backbone",
    "widths",
    "out_spatial",
    "dtype",
    "model_seed",
)
TRAIN_KEYS = MODEL_KEYS + (
    "seed",
    "margin",
    "learning_rate",
    "lr_decay",
    "epochs",
    "triplets_per_epoch",
    "batch_size",
    "val_stride",
)


def build_model(resolved: dict[str, str], n_attributes: int) -> AttributeEmbeddingModel:
    channels = _get(resolved, "channels", 16, int)
    widths = _get(resolved, "widths", "16,32", str)
    try:
        width_pair = tuple(int(w) for w in widths.split(","))
    except ValueError:
        raise UsageError(f"bad widths {widths!r}; expected like 16,32") from None
    backbone = BackboneConfig(
        kind=_get(resolved, "backbone", "tiny_conv", str),
        out_channels=channels,
        out_spatial=_get(resolved, "out_spatial", 4, int),
        widths=width_pair,
    )
    config = ModelConfig(
        channels=channels,
        n_attributes=n_attributes,
        attn_channels=_get(resolved, "attn_channels", None, int),
        reduction=_get(resolved, "reduction", 4, int),
        embed_dim=_get(resolved, "embed_dim", 16, int),
        variant=_get(resolved, "variant", "full", str),
    )
    dtype = {"float32": np.float32, "float64": np.float64}.get(
        _get(resolved, "dtype", "float32", str)
    )
    if dtype is None:
        raise UsageError(f"dtype must be float32 or float64, got {resolved['dtype']!r}")
    seed = _get(resolved, "model_seed", _get(resolved, "seed", 0, int), int)
    return AttributeEmbeddingModel(config, backbone, seed=seed, dtype=dtype)


def load_images_for(
    manifest: DatasetManifest, manifest_path: str, splits: Sequence[str]
) -> dict[str, np.ndarray]:
    """Read the images, or precomputed feature maps, of the records in the
    given splits; records of other splits are never opened."""
    base = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), manifest.source_path)
    wanted = [r.image_id for r in manifest.records if manifest.split_of.get(r.image_id) in splits]
    if manifest.source_kind == "raster":
        return {image_id: read_ppm(os.path.join(base, image_id + ".ppm")) for image_id in wanted}
    known = set(wanted)
    loaded = {k: v for k, v in load_precomputed_features(base) if k in known}
    missing = known - set(loaded)
    if missing:
        raise FormatError(f"features missing for {len(missing)} images, e.g. {sorted(missing)[:3]}")
    return loaded


def load_run(run_dir: str, n_attributes: int) -> tuple[AttributeEmbeddingModel, Checkpoint]:
    config_path = os.path.join(run_dir, RUN_CONFIG_NAME)
    if not os.path.exists(config_path):
        raise UsageError(f"no {RUN_CONFIG_NAME} in {run_dir}; is this a train output directory?")
    resolved = read_config_file(config_path)
    model = build_model(resolved, n_attributes)
    checkpoint = load_checkpoint(os.path.join(run_dir, CHECKPOINT_NAME))
    if checkpoint.config_hash != config_fingerprint(model):
        raise FormatError(
            f"checkpoint hash {checkpoint.config_hash} does not match the run "
            f"configuration in {config_path}"
        )
    try:
        model.load_state_arrays(checkpoint.state)
    except (KeyError, DimensionError) as exc:
        raise FormatError(f"checkpoint in {run_dir} does not fit its run configuration: {exc.args[0]}") from exc
    return model, checkpoint


# -- subcommands ------------------------------------------------------------


def cmd_gen_data(args) -> int:
    keys = ("seed", "n_attributes", "n_values", "n_images", "image_size", "noise")
    resolved = resolve(args, keys)
    spec = SyntheticSpec(
        n_attributes=_get(resolved, "n_attributes", 4, int),
        n_values=_get(resolved, "n_values", 4, int),
        n_images=_get(resolved, "n_images", 2000, int),
        image_size=_get(resolved, "image_size", 32, int),
        noise=_get(resolved, "noise", 0.1, float),
        seed=_get(resolved, "seed", 0, int),
    )
    resolved = {k: str(getattr(spec, k)) for k in keys}
    announce("gen-data", resolved)
    out = _outdir(args)
    images, manifest = generate_synthetic_dataset(spec)
    image_dir = os.path.join(out, manifest.source_path)
    os.makedirs(image_dir, exist_ok=True)
    for image_id, img in images.items():
        write_ppm(os.path.join(image_dir, image_id + ".ppm"), img)
    save_manifest(os.path.join(out, "manifest.txt"), manifest)
    print(f"wrote {len(images)} images and manifest.txt under {out}")
    return 0


def cmd_split(args) -> int:
    keys = ("seed", "ratios", "query_fraction")
    resolved = resolve(args, keys)
    ratio_text = _get(resolved, "ratios", "8,1,1", str)
    try:
        parts = tuple(float(x) for x in ratio_text.split(","))
    except ValueError:
        raise UsageError(f"bad ratios {ratio_text!r}; expected like 8,1,1") from None
    if len(parts) != 3:
        raise UsageError(f"ratios need three comma-separated numbers, got {ratio_text!r}")
    seed = _get(resolved, "seed", 0, int)
    query_fraction = _get(resolved, "query_fraction", 0.2, float)
    announce("split", {"seed": str(seed), "ratios": ratio_text, "query_fraction": str(query_fraction)})
    manifest = load_manifest(args.manifest)
    out = _outdir(args)
    assigned = split_dataset(manifest, parts, query_fraction, seed)
    save_manifest(os.path.join(out, "manifest.txt"), assigned)
    counts = {s: sum(1 for v in assigned.split_of.values() if v == s) for s in ("train", "val", "test")}
    print(f"assigned splits: {counts} -> {os.path.join(out, 'manifest.txt')}")
    return 0


def cmd_train(args) -> int:
    resolved = resolve(args, TRAIN_KEYS)
    manifest = load_manifest(args.manifest)
    if not manifest.split_of:
        raise FormatError("manifest has no split section; run the split command first")
    model = build_model(resolved, manifest.vocabulary.n)
    config = TrainConfig(
        margin=_get(resolved, "margin", 0.2, float),
        learning_rate=_get(resolved, "learning_rate", 1e-4, float),
        lr_decay=_get(resolved, "lr_decay", 0.985, float),
        epochs=_get(resolved, "epochs", 200, int),
        triplets_per_epoch=_get(resolved, "triplets_per_epoch", 100000, int),
        batch_size=_get(resolved, "batch_size", 16, int),
        seed=_get(resolved, "seed", 0, int),
        val_stride=_get(resolved, "val_stride", 1, int),
    )
    full = dict(resolved)
    full.setdefault("variant", model.config.variant)
    full.setdefault("channels", str(model.config.channels))
    full.setdefault("attn_channels", str(model.config.attn_channels))
    full.setdefault("reduction", str(model.config.reduction))
    full.setdefault("embed_dim", str(model.config.embed_dim))
    full.setdefault("dtype", model.dtype.name)
    full.setdefault("seed", str(config.seed))
    announce("train", full)
    images = load_images_for(manifest, args.manifest, ("train", "val"))
    val_split = manifest.to_retrieval_split("val")
    out = _outdir(args)

    def val_metric(m: AttributeEmbeddingModel) -> float:
        scorer = ModelScorer(m, images)
        scorer.embed(manifest.ids("val"))
        return evaluate_map(scorer, val_split).overall

    with open(os.path.join(out, TRAIN_LOG_NAME), "w", encoding="utf-8") as log:
        log.write("epoch\tmean_loss\tlr\tval_metric\n")
        best = fit(
            model,
            manifest.annotations("train"),
            images,
            config,
            val_metric,
            attribute_names=manifest.vocabulary.names,
            log_stream=log,
        )
    save_checkpoint(os.path.join(out, CHECKPOINT_NAME), best)
    with open(os.path.join(out, RUN_CONFIG_NAME), "w", encoding="utf-8") as f:
        for key in sorted(full):
            f.write(f"{key}={full[key]}\n")
    print(
        f"best epoch {best.epoch} with validation MAP {best.metric:.4f}; "
        f"checkpoint -> {os.path.join(out, CHECKPOINT_NAME)}"
    )
    return 0


def cmd_eval_map(args) -> int:
    resolved = resolve(args, ("seed", "split"))
    split_name = _get(resolved, "split", "test", str)
    announce("eval-map", {"split": split_name, "run": args.run})
    manifest = load_manifest(args.manifest)
    model, checkpoint = load_run(args.run, manifest.vocabulary.n)
    images = load_images_for(manifest, args.manifest, (split_name,))
    split = manifest.to_retrieval_split(split_name)
    scorer = ModelScorer(model, images)
    scorer.embed(manifest.ids(split_name))
    report = evaluate_map(scorer, split, variant=model.config.variant, checkpoint_hash=checkpoint.config_hash)
    out = _outdir(args)
    write_report(os.path.join(out, "report.tsv"), [report], manifest.vocabulary.names)
    print(f"queries {report.n_queries} (excluded {report.n_excluded})")
    for a, value in report.per_attribute.items():
        print(f"  {manifest.vocabulary.names[a]}: MAP {100 * value:.2f}")
    print(f"overall MAP {100 * report.overall:.2f} (random {100 * expected_random_map(split):.2f})")
    return 0


def cmd_eval_triplet(args) -> int:
    resolved = resolve(args, ("seed", "split", "count"))
    split_name = _get(resolved, "split", "test", str)
    count = _get(resolved, "count", 5000, int)
    seed = _get(resolved, "seed", 0, int)
    announce("eval-triplet", {"split": split_name, "count": str(count), "seed": str(seed)})
    manifest = load_manifest(args.manifest)
    model, _ = load_run(args.run, manifest.vocabulary.n)
    images = load_images_for(manifest, args.manifest, (split_name,))
    triplets = sample_triplets(
        manifest.annotations(split_name), manifest.vocabulary.n, count, seed,
        attribute_names=manifest.vocabulary.names,
    )
    scorer = ModelScorer(model, images)
    scorer.embed([i for t in triplets for i in (t.anchor_id, t.positive_id, t.negative_id)])
    accuracy = evaluate_triplet_accuracy(
        lambda a, b, attr: scorer.similarity(a, b, [attr]), triplets
    )
    out = _outdir(args)
    with open(os.path.join(out, "triplet_eval.txt"), "w", encoding="utf-8") as f:
        f.write(f"split {split_name}\ncount {count}\nseed {seed}\naccuracy {accuracy:.6f}\n")
    print(f"triplet relation accuracy {accuracy:.4f} over {count} triplets")
    return 0


def cmd_rerank(args) -> int:
    resolved = resolve(args, ("seed", "split", "k"))
    split_name = _get(resolved, "split", "test", str)
    k = _get(resolved, "k", 10, int)
    attrs = _parse_attrs(args.attrs)
    announce("rerank", {"split": split_name, "k": str(k), "attrs": args.attrs or "query attribute"})
    manifest = load_manifest(args.manifest)
    model, _ = load_run(args.run, manifest.vocabulary.n)
    base_model, _ = load_run(args.base_run, manifest.vocabulary.n)
    images = load_images_for(manifest, args.manifest, (split_name,))
    split = manifest.to_retrieval_split(split_name)
    fine = ModelScorer(model, images)
    coarse = ModelScorer(base_model, images)
    for scorer in (fine, coarse):
        scorer.embed(manifest.ids(split_name))
    before, after = [], []
    out = _outdir(args)
    with open(os.path.join(out, "rerank.tsv"), "w", encoding="utf-8") as f:
        f.write("query_id\tattribute\tap_before\tap_after\n")
        for q in split.queries:
            pool = split.candidates[q.attribute]
            ids = [image_id for image_id, _ in pool]
            value_of = dict(pool)
            base_scores = coarse(q.image_id, q.attribute, ids)
            order = rank_candidates(base_scores, ids)
            ranking = [ids[i] for i in order]
            top = min(k, len(ranking))
            head = ranking[:top]
            fine_scores = sum(fine(q.image_id, a, head) for a in attrs or [q.attribute])
            reranked = rerank_topk(ranking, dict(zip(head, fine_scores)).__getitem__, top)
            ap_before = _topk_ap(ranking, value_of, q.value, k)
            ap_after = _topk_ap(reranked, value_of, q.value, k)
            if ap_before is None or ap_after is None:
                continue
            before.append(ap_before)
            after.append(ap_after)
            f.write(f"{q.image_id}\t{manifest.vocabulary.names[q.attribute]}\t{ap_before:.6f}\t{ap_after:.6f}\n")
    if not before:
        raise ContractError("no query had a relevant candidate in its top-k")
    print(
        f"mean top-{k} AP before {float(np.mean(before)):.4f} "
        f"after {float(np.mean(after)):.4f} over {len(before)} queries"
    )
    return 0


def _topk_ap(ranking: Sequence[str], value_of: dict[str, int], value: int, k: int) -> Optional[float]:
    flags = [1 if value_of[c] == value else 0 for c in ranking[: min(k, len(ranking))]]
    try:
        return average_precision(flags)
    except ExcludedQueryError:
        return None


def _parse_attrs(text: Optional[str]) -> list[int]:
    if not text:
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"bad --attrs {text!r}; expected comma-separated indices") from None


def cmd_export_attention(args) -> int:
    resolved = resolve(args, ("split", "limit"))
    split_name = _get(resolved, "split", "test", str)
    limit = _get(resolved, "limit", 16, int)
    announce("export-attention", {"split": split_name, "limit": str(limit)})
    manifest = load_manifest(args.manifest)
    model, _ = load_run(args.run, manifest.vocabulary.n)
    images = load_images_for(manifest, args.manifest, (split_name,))
    out = _outdir(args)
    attn_dir = os.path.join(out, "attention")
    os.makedirs(attn_dir, exist_ok=True)
    ids = manifest.ids(split_name)[:limit]
    if not ids:
        raise ContractError(f"no images in split {split_name!r}")
    for image_id in ids:
        fmap = model.image_to_map(Tensor(np.asarray(images[image_id], dtype=model.dtype)))
        maps = model.attention_maps(fmap, image_id)
        write_attention_file(
            os.path.join(attn_dir, image_id + ".attn.txt"), image_id, maps, manifest.vocabulary
        )
    print(f"wrote attention maps for {len(ids)} images under {attn_dir}")
    return 0


def cmd_grad_check(args) -> int:
    keys = ("seed", "channels", "attn_channels", "reduction", "embed_dim", "n_attributes", "spatial")
    resolved = resolve(args, keys)
    seed = _get(resolved, "seed", 0, int)
    channels = _get(resolved, "channels", 8, int)
    spatial = _get(resolved, "spatial", 4, int)
    config = ModelConfig(
        channels=channels,
        n_attributes=_get(resolved, "n_attributes", 3, int),
        attn_channels=_get(resolved, "attn_channels", 4, int),
        reduction=_get(resolved, "reduction", 2, int),
        embed_dim=_get(resolved, "embed_dim", 8, int),
    )
    announce(
        "grad-check",
        {
            "seed": str(seed),
            "channels": str(channels),
            "attn_channels": str(config.attn_channels),
            "reduction": str(config.reduction),
            "embed_dim": str(config.embed_dim),
            "n_attributes": str(config.n_attributes),
            "spatial": str(spatial),
        },
    )
    backbone = BackboneConfig(kind="precomputed", out_channels=channels, out_spatial=spatial)
    model = AttributeEmbeddingModel(config, backbone, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    shape = (channels, spatial, spatial)
    anchor, positive, negative = (rng.normal(size=shape) for _ in range(3))
    attribute = int(rng.integers(config.n_attributes))

    maps = np.stack([anchor, positive, negative])

    def loss_fn():
        # the batched graph train_epoch records, for a batch of one triplet
        return batch_triplet_loss(model, Tensor(maps.copy()), np.array([attribute]), 0.2)

    report = ad.grad_check(loss_fn, model.parameters())
    print(report.summary())
    return 0 if report.passed else 3


# -- entry point ------------------------------------------------------------


def make_parser() -> _Parser:
    parser = _Parser(prog="attrembed", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p: argparse.ArgumentParser, manifest: bool = True, run: bool = False):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--out", help="output directory (default: current)")
        if manifest:
            p.add_argument("--manifest", required=True, help="dataset manifest path")
        if run:
            p.add_argument("--run", required=True, help="train output directory")

    p = sub.add_parser("gen-data", help="synthesize a quadrant-pattern dataset")
    common(p, manifest=False)
    p.add_argument("--n-attributes", dest="n_attributes", type=int)
    p.add_argument("--n-values", dest="n_values", type=int)
    p.add_argument("--n-images", dest="n_images", type=int)
    p.add_argument("--image-size", dest="image_size", type=int)
    p.add_argument("--noise", type=float)

    p = sub.add_parser("split", help="assign train/val/test splits and query roles")
    common(p)
    p.add_argument("--ratios", help="three comma-separated weights, default 8,1,1")
    p.add_argument("--query-fraction", dest="query_fraction", type=float)

    p = sub.add_parser("train", help="train a model variant")
    common(p)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--channels", type=int)
    p.add_argument("--attn-channels", dest="attn_channels", type=int)
    p.add_argument("--reduction", type=int)
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--triplets-per-epoch", dest="triplets_per_epoch", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--val-stride", dest="val_stride", type=int)

    p = sub.add_parser("eval-map", help="retrieval MAP on a split")
    common(p, run=True)
    p.add_argument("--split", choices=("val", "test"))

    p = sub.add_parser("eval-triplet", help="triplet relation accuracy")
    common(p, run=True)
    p.add_argument("--split", choices=("train", "val", "test"))
    p.add_argument("--count", type=int)

    p = sub.add_parser("rerank", help="rerank a baseline model's top-k")
    common(p, run=True)
    p.add_argument("--base-run", dest="base_run", required=True, help="baseline train directory")
    p.add_argument("--split", choices=("val", "test"))
    p.add_argument("--k", type=int)
    p.add_argument("--attrs", help="comma-separated attribute indices for the fine score")

    p = sub.add_parser("export-attention", help="write spatial attention maps as text")
    common(p, run=True)
    p.add_argument("--split", choices=("train", "val", "test"))
    p.add_argument("--limit", type=int)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    common(p, manifest=False)
    p.add_argument("--channels", type=int)
    p.add_argument("--attn-channels", dest="attn_channels", type=int)
    p.add_argument("--reduction", type=int)
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    p.add_argument("--n-attributes", dest="n_attributes", type=int)
    p.add_argument("--spatial", type=int)
    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "split": cmd_split,
    "train": cmd_train,
    "eval-map": cmd_eval_map,
    "eval-triplet": cmd_eval_triplet,
    "rerank": cmd_rerank,
    "export-attention": cmd_export_attention,
    "grad-check": cmd_grad_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, VocabularyError, SamplingError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ContractError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
