"""The paper's contribution: learned set structures and their machinery."""

from .cardinality import LearnedCardinalityEstimator
from .clsm import CompressedDeepSetsModel
from .compression import (
    ElementCompressor,
    compress_element,
    compressed_input_dims,
    decompress_element,
    embedding_matrix_bytes,
    embedding_matrix_entries,
    optimal_divisor,
)
from .config import ModelConfig
from .deepsets import DeepSetsModel, SetModel
from .hooks import UpdateNotifier
from .hybrid import (
    GuidedFitResult,
    LocalErrorBounds,
    OutlierRemovalConfig,
    guided_fit,
)
from .index import LearnedSetIndex, LookupStats
from .membership import LearnedBloomFilter
from .multi import MultiSetMembership
from .predicate_suite import PredicateCardinalitySuite
from .qerror import (
    absolute_error,
    binary_accuracy,
    group_q_error_by_result_size,
    mean_absolute_error,
    mean_q_error,
    q_error,
    q_error_percentile,
)
from .recipe import task_of, train_structure
from .scaling import LogMinMaxScaler
from .set_transformer import SetTransformerModel
from .training import TrainConfig, Trainer, TrainingHistory

__all__ = [
    "LearnedCardinalityEstimator",
    "LearnedSetIndex",
    "LearnedBloomFilter",
    "MultiSetMembership",
    "PredicateCardinalitySuite",
    "train_structure",
    "task_of",
    "UpdateNotifier",
    "LookupStats",
    "DeepSetsModel",
    "CompressedDeepSetsModel",
    "SetTransformerModel",
    "SetModel",
    "ModelConfig",
    "ElementCompressor",
    "optimal_divisor",
    "compress_element",
    "decompress_element",
    "compressed_input_dims",
    "embedding_matrix_entries",
    "embedding_matrix_bytes",
    "LogMinMaxScaler",
    "TrainConfig",
    "Trainer",
    "TrainingHistory",
    "OutlierRemovalConfig",
    "GuidedFitResult",
    "guided_fit",
    "LocalErrorBounds",
    "q_error",
    "mean_q_error",
    "q_error_percentile",
    "absolute_error",
    "mean_absolute_error",
    "binary_accuracy",
    "group_q_error_by_result_size",
]
