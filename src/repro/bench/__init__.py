"""Benchmark harness: shared fixtures, table rendering, timing, memory."""

from .memory import megabytes, pickled_megabytes
from .reporting import (
    format_table,
    format_value,
    markdown_table,
    print_table,
    report_table,
    results_dir,
)
from .timing import Timer, mean_query_ms
from .workbench import (
    MAX_SUBSET_SIZE,
    MAX_TRAINING_SAMPLES,
    get_bloom_filter,
    get_cardinality_estimator,
    get_cardinality_pairs,
    get_cardinality_workload,
    get_collection,
    get_ground_truth,
    get_index_pairs,
    get_index_workload,
    get_query_workload,
    get_set_index,
    model_config,
)

__all__ = [
    "megabytes",
    "pickled_megabytes",
    "format_table",
    "format_value",
    "markdown_table",
    "print_table",
    "report_table",
    "results_dir",
    "Timer",
    "mean_query_ms",
    "MAX_SUBSET_SIZE",
    "MAX_TRAINING_SAMPLES",
    "get_collection",
    "get_ground_truth",
    "get_query_workload",
    "get_cardinality_pairs",
    "get_index_pairs",
    "get_cardinality_workload",
    "get_index_workload",
    "get_cardinality_estimator",
    "get_set_index",
    "get_bloom_filter",
    "model_config",
]
