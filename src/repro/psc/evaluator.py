"""Cost-aware pair evaluation shared by all runners.

The serial baseline, the distributed-MCPC baseline and rckAlign must
charge *identical* per-pair costs for the speedup tables to be
meaningful, so they all evaluate pairs through one :class:`JobEvaluator`:

* ``model`` mode (default for timing sweeps): op counts come from the
  method's analytic estimate; no structures are actually aligned.
* ``measured`` mode: the real method runs and its measured op counts
  are used.

The rule itself is :func:`evaluate_pair`, which the process farm's
workers and in-process chunks call too (always in ``measured`` mode), so
a measured pair costs the same whichever path evaluated it.

Both modes memoize per pair, so a core-count sweep that replays the
same job list at every point pays the Python cost (analytic estimate or
real alignment) exactly once per pair; callers receive fresh copies of
the cached scores/counters, so the cache cannot be mutated from
outside.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from repro.cost.counters import CostCounter
from repro.datasets.registry import Dataset
from repro.psc.base import PSCMethod
from repro.psc.methods import TMAlignMethod
from repro.structure.model import Chain

__all__ = ["EvalMode", "JobEvaluator", "evaluate_pair"]


class EvalMode(str, enum.Enum):
    MODEL = "model"
    MEASURED = "measured"


def evaluate_pair(
    method: PSCMethod, mode: EvalMode, chain_a: Chain, chain_b: Chain
) -> tuple[Dict[str, float], CostCounter]:
    """Score ``chain_a`` against ``chain_b`` and count the ops charged.

    MODEL mode charges the method's analytic estimate and aligns nothing
    (the scores are a ``{"estimated": 1.0}`` placeholder); MEASURED mode
    runs the method and charges its measured counts.
    """
    counter = CostCounter()
    if mode is EvalMode.MODEL:
        est = method.estimate_counts(
            len(chain_a), len(chain_b), f"{chain_a.name}|{chain_b.name}"
        )
        for op, v in est.items():
            counter.add(op, v)
        return {"estimated": 1.0}, counter
    return dict(method.compare(chain_a, chain_b, counter)), counter


class JobEvaluator:
    """Evaluates (i, j) pairs of a dataset for one PSC method."""

    def __init__(
        self,
        dataset: Dataset,
        method: Optional[PSCMethod] = None,
        mode: EvalMode | str = EvalMode.MODEL,
    ) -> None:
        self.dataset = dataset
        self.method = method or TMAlignMethod()
        self.mode = EvalMode(mode)
        self._cache: Dict[Tuple[int, int], Tuple[Dict[str, float], CostCounter]] = {}

    def evaluate(self, i: int, j: int) -> tuple[Dict[str, float], CostCounter]:
        """Return ``(scores, op_counts)`` for comparing chains i and j."""
        key = (i, j)
        cached = self._cache.get(key)
        if cached is None:
            cached = evaluate_pair(
                self.method, self.mode, self.dataset[i], self.dataset[j]
            )
            self._cache[key] = cached
        scores, counter = cached
        return dict(scores), counter.copy()

    def cache_len(self) -> int:
        """Number of memoized pairs (bench/diagnostic instrumentation)."""
        return len(self._cache)

    def job_nbytes(self, i: int, j: int) -> int:
        """Wire size of the job the master ships (both structures)."""
        return self.dataset[i].nbytes_wire + self.dataset[j].nbytes_wire + 64

    def result_nbytes(self) -> int:
        """Wire size of a result record (scores, not the alignment)."""
        return 256
