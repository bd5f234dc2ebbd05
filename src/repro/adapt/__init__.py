"""Workload-adaptive training and drift-aware targeted refresh.

The feedback loop ROADMAP item 5 asks for, in three pieces:

* :class:`WorkloadLog` — bounded, thread-safe record of the served query
  stream (frequencies + sampled observed q-error);
* :class:`ShardStalenessTracker` / :func:`probe_shard_errors` —
  Algorithm 2's local error bounds applied to staleness: observed error
  bucketed by shard offsets;
* :class:`AdaptiveRefresher` — the maintain layer's one refresher
  (:class:`repro.maintain.BackgroundRefresher`, importable here under its
  old name) with a workload attached: its ``shards[i...]`` plan rebuilds
  *only* tripped shards (:func:`workload_shard_rebuilder`, which trains
  on the observed workload with frequencies as sample weights) and
  hot-swaps them individually.
"""

from ..maintain.refresher import BackgroundRefresher as AdaptiveRefresher
from .refresher import workload_shard_rebuilder
from .tracker import ShardStalenessTracker, probe_shard_errors
from .workload import WorkloadEntry, WorkloadLog

__all__ = [
    "AdaptiveRefresher",
    "ShardStalenessTracker",
    "WorkloadEntry",
    "WorkloadLog",
    "probe_shard_errors",
    "workload_shard_rebuilder",
]
