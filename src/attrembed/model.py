"""Attribute-specific embedding model.

Given a convolutional feature map and an attribute index, the full model
applies attribute-conditioned spatial attention (softmax-weighted pooling
of the map), then an attribute-conditioned channel gate (sigmoid,
squeeze-excitation style), then a final linear projection into that
attribute's embedding space.  Fine-grained similarity between two images
under an attribute is the cosine between their embeddings in that space.

Four reduced variants are provided for comparison:

- ``no_asa``     mean pooling replaces spatial attention
- ``no_aca``     the pooled vector goes straight to the projection
- ``csn``        one shared space, masked per attribute by a learned mask
- ``triplet_plain``  one shared space, attribute ignored entirely

Attribute one-hot vectors exist only at the model boundary; internally an
attribute embedding is a column lookup, which is the same linear map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .backbone import BackboneConfig, TinyBackbone, glorot_uniform
from .errors import ConfigError, VocabularyError, dimension_error

VARIANTS = ("full", "no_asa", "no_aca", "csn", "triplet_plain")


@dataclass
class AttributeVocabulary:
    """Attribute names plus, per attribute, its value names.

    Attribute indices are dense in [0, n); every attribute needs at least
    two values for triplets to exist.  Names must be whitespace-free so the
    line-oriented manifest format stays unambiguous.
    """

    names: list[str]
    value_names: list[list[str]]

    def __post_init__(self):
        if len(self.names) < 1:
            raise ConfigError("vocabulary needs at least one attribute")
        if len(self.names) != len(self.value_names):
            raise ConfigError("one value list per attribute required")
        if len(set(self.names)) != len(self.names):
            raise ConfigError("attribute names must be unique")
        for name, values in zip(self.names, self.value_names):
            if any(ch.isspace() for ch in name) or not name:
                raise ConfigError(f"bad attribute name {name!r}")
            if len(values) < 2:
                raise ConfigError(f"attribute {name!r} needs >= 2 values")
            if len(set(values)) != len(values):
                raise ConfigError(f"duplicate value names under attribute {name!r}")
            for v in values:
                if any(ch.isspace() for ch in v) or not v or ":" in v:
                    raise ConfigError(f"bad value name {v!r} under attribute {name!r}")

    @property
    def n(self) -> int:
        return len(self.names)

    def n_values(self, attribute: int) -> int:
        return len(self.value_names[attribute])

    def attribute_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise VocabularyError(f"unknown attribute {name!r}") from None

    def value_index(self, attribute: int, value_name: str) -> int:
        try:
            return self.value_names[attribute].index(value_name)
        except ValueError:
            raise VocabularyError(
                f"unknown value {value_name!r} for attribute {self.names[attribute]!r}"
            ) from None


@dataclass
class ModelConfig:
    """Dimensions and variant of the embedding model.

    ``attn_channels`` is the common dimensionality image and attribute are
    mapped to inside spatial attention (default: half the map channels).
    ``reduction`` shrinks the channel gate's hidden layer.  The projection
    is embed_dim x channels, which reduces to a square map when the two
    agree.
    """

    channels: int = 16
    n_attributes: int = 4
    attn_channels: Optional[int] = None
    reduction: int = 16
    embed_dim: int = 16
    variant: str = "full"
    attn_conv_bias: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.attn_channels is None:
            self.attn_channels = max(1, self.channels // 2)
        if self.channels < 1 or self.attn_channels < 1 or self.n_attributes < 1:
            raise ConfigError("channels, attn_channels and n_attributes must be positive")
        if self.embed_dim < 2:
            raise ConfigError(f"embed_dim must be >= 2, got {self.embed_dim}")
        if self.reduction < 1 or self.channels // self.reduction < 1:
            raise ConfigError(
                f"reduction {self.reduction} leaves no hidden units for {self.channels} channels"
            )

    @property
    def gate_hidden(self) -> int:
        return self.channels // self.reduction


@dataclass
class AttentionMap:
    """Spatial attention weights for one (image, attribute) pair.

    Entries lie in (0, 1) and sum to 1 up to rounding.
    """

    weights: np.ndarray
    attribute: int
    image_id: str = ""


class AttributeEmbeddingModel:
    """Backbone plus embedding head, all parameters on one flat list.

    The spatial and channel attentions deliberately use separate attribute
    embedding tables; perturbing one never changes the other's output.
    All variants allocate the same parameter set (so a seed fixes the same
    initialization regardless of variant); unused tables simply receive no
    gradient.
    """

    def __init__(
        self,
        config: ModelConfig,
        backbone_config: Optional[BackboneConfig] = None,
        seed: int = 0,
        dtype=np.float64,
    ):
        """With a backbone config, images go through the extractor (and a
        tiny_conv backbone trains jointly); without one the model is just
        the head, fed feature maps of any spatial extent directly."""
        if backbone_config is not None and backbone_config.out_channels != config.channels:
            raise ConfigError(
                f"backbone emits {backbone_config.out_channels} channels but the "
                f"head expects {config.channels}"
            )
        self.config = config
        self.backbone_config = backbone_config
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)

        c, cp, n = config.channels, config.attn_channels, config.n_attributes
        d, hidden = config.embed_dim, config.gate_hidden

        def init(shape, fan_in, fan_out, name):
            return Parameter(glorot_uniform(rng, shape, fan_in, fan_out, self.dtype), name=name)

        self.map_conv = init((cp, c), c, cp, "spatial.map_conv.weight")
        self.spatial_attr_embed = init((cp, n), n, cp, "spatial.attr_embed.weight")
        self.score_conv = init((1, cp), cp, 1, "spatial.score_conv.weight")
        if config.attn_conv_bias:
            self.map_conv_bias = Parameter(np.zeros(cp, dtype=self.dtype), "spatial.map_conv.bias")
            self.score_conv_bias = Parameter(np.zeros(1, dtype=self.dtype), "spatial.score_conv.bias")
        else:
            self.map_conv_bias = None
            self.score_conv_bias = None
        self.channel_attr_embed = init((c, n), n, c, "channel.attr_embed.weight")
        self.gate_reduce = init((hidden, 2 * c), 2 * c, hidden, "channel.gate_reduce.weight")
        self.gate_expand = init((c, hidden), hidden, c, "channel.gate_expand.weight")
        self.proj = init((d, c), c, d, "proj.weight")
        self.proj_bias = Parameter(np.zeros(d, dtype=self.dtype), "proj.bias")
        # learned per-attribute mask over the shared space; starts as identity
        self.mask = Parameter(np.ones((n, d), dtype=self.dtype), "mask.weight")

        if backbone_config is not None and backbone_config.kind == "tiny_conv":
            self.backbone: Optional[TinyBackbone] = TinyBackbone(backbone_config, rng, self.dtype)
        else:
            self.backbone = None

        self._params: list[Parameter] = [
            self.map_conv,
            self.spatial_attr_embed,
            self.score_conv,
            self.channel_attr_embed,
            self.gate_reduce,
            self.gate_expand,
            self.proj,
            self.proj_bias,
            self.mask,
        ]
        if self.map_conv_bias is not None:
            self._params[3:3] = [self.map_conv_bias, self.score_conv_bias]
        if self.backbone is not None:
            self._params.extend(self.backbone.params)
        names = [p.name for p in self._params]
        assert len(set(names)) == len(names)

    # -- parameter access ---------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return list(self._params)

    def parameter(self, name: str) -> Parameter:
        for p in self._params:
            if p.name == name:
                return p
        raise KeyError(name)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self._params}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for p in self._params:
            if p.name not in state:
                raise KeyError(f"missing parameter {p.name!r} in state")
            src = state[p.name]
            if src.shape != p.data.shape:
                raise dimension_error(f"load_state[{p.name}]", src.shape, p.data.shape)
            p.data[...] = src.astype(self.dtype, copy=False)

    def zero_grads(self) -> None:
        for p in self._params:
            p.zero_grad()

    # -- forward pieces -----------------------------------------------------

    def _attributes(self, attribute, batch_shape: tuple) -> np.ndarray:
        """Attribute indices as an array of the batch shape: an int for one
        map, an (n,) array for an (n, ...) batch."""
        attrs = np.asarray(attribute)
        if attrs.dtype.kind not in "iu":
            raise VocabularyError(f"attribute indices must be integers, got {attribute!r}")
        if attrs.shape != tuple(batch_shape):
            raise dimension_error("attribute indices", attrs.shape, tuple(batch_shape))
        n = self.config.n_attributes
        if attrs.size and (attrs.min() < 0 or attrs.max() >= n):
            bad = attrs[(attrs < 0) | (attrs >= n)].reshape(-1)[0]
            raise VocabularyError(f"attribute index {bad} outside vocabulary of {n}")
        return attrs

    def _check_map(self, feature_map: Tensor, where: str) -> None:
        if feature_map.data.ndim not in (3, 4) or feature_map.shape[-3] != self.config.channels:
            raise dimension_error(where, feature_map.shape, (self.config.channels, "h", "w"))

    def spatial_attention(self, feature_map: Tensor, attribute) -> tuple[Tensor, Tensor]:
        """Attribute-conditioned softmax pooling of a (c, h, w) map, or of
        each row of an (n, c, h, w) batch under its own attribute.

        Image and attribute are mapped into a common space, multiplied, and
        scored per location; the softmax of the scores weights the original
        feature columns.  Returns (pooled vector, h x w attention weights),
        each with the map's batch axis.
        """
        self._check_map(feature_map, "spatial_attention")
        attrs = self._attributes(attribute, feature_map.shape[:-3])
        h, w = feature_map.shape[-2:]
        if h * w == 1:
            warnings.warn(
                "spatial attention on a 1x1 map degenerates to identity pooling",
                stacklevel=2,
            )
        mapped = ad.pointwise_activation(
            ad.conv_1x1(feature_map, self.map_conv.tensor, self._bias(self.map_conv_bias)),
            "tanh",
        )
        attr_vec = ad.pointwise_activation(
            ad.matrix_column(self.spatial_attr_embed.tensor, attrs), "tanh"
        )
        attr_map = ad.broadcast_spatial(attr_vec, h, w)
        fused = ad.elementwise_combine(attr_map, mapped, "mul")
        scores = ad.pointwise_activation(
            ad.conv_1x1(fused, self.score_conv.tensor, self._bias(self.score_conv_bias)),
            "tanh",
        )
        weights = ad.softmax_flat(scores)
        pooled = ad.weighted_spatial_sum(feature_map, weights)
        return pooled, weights

    @staticmethod
    def _bias(p: Optional[Parameter]) -> Optional[Tensor]:
        return None if p is None else p.tensor

    def channel_attention(self, pooled: Tensor, attribute) -> tuple[Tensor, Tensor]:
        """Sigmoid gate over a pooled length-c vector, or over each row of an
        (n, c) batch, conditioned on the attribute.  Returns (gated vector,
        gate weights in (0, 1))."""
        if pooled.data.ndim not in (1, 2) or pooled.shape[-1] != self.config.channels:
            raise dimension_error("channel_attention", pooled.shape, (self.config.channels,))
        attrs = self._attributes(attribute, pooled.shape[:-1])
        attr_vec = ad.pointwise_activation(
            ad.matrix_column(self.channel_attr_embed.tensor, attrs), "relu"
        )
        joined = ad.elementwise_combine(attr_vec, pooled, "concat")
        hidden = ad.pointwise_activation(
            ad.fully_connected(joined, self.gate_reduce.tensor), "relu"
        )
        gate = ad.pointwise_activation(
            ad.fully_connected(hidden, self.gate_expand.tensor), "sigmoid"
        )
        gated = ad.elementwise_combine(pooled, gate, "mul")
        return gated, gate

    def project(self, vec: Tensor) -> Tensor:
        return ad.fully_connected(vec, self.proj.tensor, self.proj_bias.tensor)

    def embed_map(self, feature_map: Tensor, attribute) -> Tensor:
        """Embed a (c, h, w) feature map into the attribute's space, or each
        row of an (n, c, h, w) batch into the space of its entry in an (n,)
        attribute array, following the configured variant."""
        self._check_map(feature_map, "embed_map")
        attrs = self._attributes(attribute, feature_map.shape[:-3])
        variant = self.config.variant
        if variant == "full":
            pooled, _ = self.spatial_attention(feature_map, attrs)
            gated, _ = self.channel_attention(pooled, attrs)
            return self.project(gated)
        if variant == "no_asa":
            pooled = ad.mean_pool_spatial(feature_map)
            gated, _ = self.channel_attention(pooled, attrs)
            return self.project(gated)
        if variant == "no_aca":
            pooled, _ = self.spatial_attention(feature_map, attrs)
            return self.project(pooled)
        if variant == "triplet_plain":
            return self.project(ad.mean_pool_spatial(feature_map))
        # csn: shared projection masked by the attribute's row of the mask
        shared = self.project(ad.mean_pool_spatial(feature_map))
        row = ad.batch_item(self.mask.tensor, attrs)
        return ad.elementwise_combine(shared, row, "mul")

    def image_to_map(self, image: Tensor) -> Tensor:
        """Run the backbone over one (3, h, w) image or an (n, 3, h, w)
        batch, or pass precomputed maps through unchanged."""
        if self.backbone is None:
            if self.backbone_config is not None and image.shape[-3:] != self.backbone_config.map_shape:
                raise dimension_error(
                    "precomputed feature map", image.shape, self.backbone_config.map_shape
                )
            self._check_map(image, "feature map")
            return image
        if image.data.ndim == 4:
            return self.backbone.forward_batch(image)
        return self.backbone.forward(image)

    def embed_image(self, image, attribute) -> Tensor:
        x = image if isinstance(image, Tensor) else Tensor(np.asarray(image, dtype=self.dtype))
        return self.embed_map(self.image_to_map(x), attribute)

    def embed_attributes(self, feature_map: Tensor) -> Tensor:
        """Embeddings of a (c, h, w) map under every attribute, (n_attributes,
        d), or of each map of an (m, c, h, w) batch, (m, n_attributes, d), from
        one head call.  For inference: the result is detached from any tape."""
        out = self.embed_map(*self._per_attribute(feature_map))
        return Tensor(out.data.reshape(*feature_map.shape[:-3], self.config.n_attributes, -1))

    def _per_attribute(self, feature_map: Tensor) -> tuple[Tensor, np.ndarray]:
        self._check_map(feature_map, "per-attribute batch")
        n = self.config.n_attributes
        maps = feature_map.data.reshape(-1, *feature_map.shape[-3:])
        return Tensor(np.repeat(maps, n, axis=0)), np.tile(np.arange(n), len(maps))

    # -- attention export -----------------------------------------------------

    def attention_maps(self, feature_map: Tensor, image_id: str = "") -> list[AttentionMap]:
        """Spatial attention weights for every attribute, as plain arrays."""
        _, weights = self.spatial_attention(*self._per_attribute(feature_map))
        return [
            AttentionMap(weights=w, attribute=a, image_id=image_id)
            for a, w in enumerate(weights.data)
        ]


def write_attention_file(path, image_id: str, maps: Sequence[AttentionMap], vocab: AttributeVocabulary) -> None:
    """One text file per image: per attribute a header line
    ``image_id attribute_name h w`` then h rows of w weights."""
    with open(path, "w", encoding="utf-8") as f:
        for m in maps:
            h, w = m.weights.shape
            f.write(f"{image_id} {vocab.names[m.attribute]} {h} {w}\n")
            for row in m.weights:
                f.write(" ".join(f"{v:.9g}" for v in row) + "\n")
