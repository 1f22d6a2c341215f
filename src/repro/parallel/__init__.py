"""Real-hardware master–slaves farm for all-vs-all PSC workloads.

The simulator packages (`repro.core`, `repro.scc`) model the paper's
rckAlign farm on a *simulated* SCC; this package runs the same
master–slaves design on the actual machine: a long-lived process pool
whose workers boot once, fed dynamically with chunks of (i, j)
comparison jobs from any number of overlapping drains, each drained in
deterministic job order.

See :mod:`repro.parallel.farm` for the public API.
"""

from repro.parallel.costsched import (
    ChunkPlan,
    pack_chunks,
    predict_pair_seconds,
)
from repro.parallel.farm import (
    FarmBackend,
    FarmStats,
    ParallelConfig,
    RetryPolicy,
    WorkerCrash,
    effective_workers,
    iter_pair_results,
    reset_worker_clamp_warnings,
)
from repro.parallel.shmplane import (
    DatasetPlane,
    PlaneUnavailable,
    ShmDataset,
    plane_for,
    shutdown_planes,
)

__all__ = [
    "ChunkPlan",
    "DatasetPlane",
    "FarmBackend",
    "FarmStats",
    "ParallelConfig",
    "PlaneUnavailable",
    "RetryPolicy",
    "ShmDataset",
    "WorkerCrash",
    "effective_workers",
    "iter_pair_results",
    "pack_chunks",
    "plane_for",
    "predict_pair_seconds",
    "reset_worker_clamp_warnings",
    "shutdown_planes",
]
