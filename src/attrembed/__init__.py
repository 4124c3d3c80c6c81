"""Attribute-specific embedding spaces over convolutional features.

The package trains and evaluates models that embed an image differently
for each attribute of interest, using attribute-conditioned spatial and
channel attention, on a small self-contained reverse-mode autodiff
engine.  See the module docstrings for the individual pieces:

- ``autodiff``    tensors, tape, operators, gradient checking, tensor io
- ``backbone``    tiny strided conv feature extractor, precomputed maps
- ``model``       attention modules, embedding variants, attention export
- ``training``    triplet sampling, hinge loss, Adam, fit loop, checkpoints
- ``evaluation``  retrieval MAP, triplet accuracy, reranking, reports
- ``data``        synthetic quadrant dataset, manifests, splits, rasters
- ``cli``         command-line workflow over all of the above
"""

from .autodiff import (
    GradCheckReport,
    Parameter,
    Tape,
    Tensor,
    backward,
    grad_check,
    load_tensor,
    recording,
    save_tensor,
)
from .backbone import BackboneConfig, TinyBackbone
from .data import (
    AnnotationRecord,
    DatasetManifest,
    SyntheticSpec,
    generate_synthetic_dataset,
    load_manifest,
    save_manifest,
    split_dataset,
)
from .errors import (
    ConfigError,
    ContractError,
    DegenerateVectorError,
    DimensionError,
    ExcludedQueryError,
    FormatError,
    NumericalError,
    SamplingError,
    VocabularyError,
)
from .evaluation import (
    EvalReport,
    ModelScorer,
    Query,
    RetrievalSplit,
    average_precision,
    evaluate_map,
    evaluate_triplet_accuracy,
    expected_random_average_precision,
    expected_random_map,
    rerank_topk,
)
from .model import (
    AttentionMap,
    AttributeEmbeddingModel,
    AttributeVocabulary,
    ModelConfig,
    VARIANTS,
)
from .training import (
    Checkpoint,
    OptimizerState,
    TrainConfig,
    Triplet,
    adam_step,
    fit,
    load_checkpoint,
    lr_schedule,
    sample_triplets,
    save_checkpoint,
    train_epoch,
    triplet_margin_loss,
)

__version__ = "0.1.0"
