"""Cost-model-driven chunk packing for the farm.

The farm's original scheduler cut the job list into *equal-count*
chunks.  Per-pair TM-align cost spans an order of magnitude across
chain lengths, so equal-count chunks carry wildly unequal work and the
run ends on a straggler chunk of long chains (tail imbalance).  This
module prices and packs the job list with the repro's own cost model:

* :func:`predict_pair_seconds` prices every ``(i, j)`` job from chain
  lengths alone, vectorized over the whole job list (the per-op-class
  polynomial of :class:`repro.cost.model.PairCostModel` priced in cycles
  by a :class:`repro.cost.cpu.CpuModel`).  Only *relative* costs matter
  for scheduling, so the nominal CPU choice is irrelevant;
* :func:`pack_chunks` cuts the job list into **contiguous** chunks of
  roughly equal *predicted cost* instead of equal pair count.
  Contiguity is load-bearing: the farm drains results in chunk-index
  order, so contiguous chunks keep the ordered-result stream (and the
  bit-identical-to-serial guarantee) without buffering the whole table.

Concurrency itself is not decided here: the farm keeps two chunks in
flight per worker, one running and one queued behind it (see
:mod:`repro.parallel.farm`), so the budget also bounds how long a
queued chunk waits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.cost.cpu import AMD_ATHLON_2400
from repro.cost.model import DEFAULT_PAIR_COST_MODEL

__all__ = [
    "CHUNKS_PER_WORKER",
    "MAX_CHUNK_PAIRS",
    "ChunkPlan",
    "pack_chunks",
    "predict_pair_seconds",
]

#: target scheduling granularity: the cost budget aims for about this
#: many chunks per worker, so dynamic pickup can absorb prediction error.
#: Re-fitted from 6 to 8 with the shared-memory dataset plane (per-chunk
#: dispatch no longer rides on a pool whose startup scaled with dataset
#: size), then to 16 with double-buffered dispatch: a chunk queued
#: behind a running one waits up to that chunk's run time, so half-size
#: chunks keep a pair's latency from its chunk's submit where it was
CHUNKS_PER_WORKER = 16

#: hard cap on pairs per chunk regardless of how cheap they are, so a
#: retry/fault re-dispatch never replays an unbounded pair list
MAX_CHUNK_PAIRS = 128


def predict_pair_seconds(
    lengths_a: Sequence[int], lengths_b: Sequence[int]
) -> np.ndarray:
    """Predicted seconds per pair on the nominal CPU, vectorized.

    The noiseless mean of :data:`DEFAULT_PAIR_COST_MODEL` priced on
    :data:`AMD_ATHLON_2400` (no per-pair jitter: scheduling wants the
    expectation, and needs no chain names).  Mirrors
    :meth:`PairCostModel.counts` exactly: polynomial per op class clipped
    at zero, ``sec_res`` exact, ``align_fixed`` one per comparison.
    """
    la = np.asarray(lengths_a, dtype=float)
    lb = np.asarray(lengths_b, dtype=float)
    lmin = np.minimum(la, lb)
    prod = la * lb
    cycles = np.zeros_like(la)
    for op, (c0, c1, c2) in DEFAULT_PAIR_COST_MODEL.coeffs.items():
        if op == "sec_res":
            counts = la + lb
        elif op == "align_fixed":
            counts = np.ones_like(la)
        else:
            counts = np.maximum(0.0, c0 + c1 * lmin + c2 * prod)
        cycles += counts * AMD_ATHLON_2400.cycles_per_op(op)
    return cycles / AMD_ATHLON_2400.freq_hz


@dataclass(frozen=True)
class ChunkPlan:
    """Cost-balanced chunking of one job list."""

    chunks: List[List[Tuple[int, int]]]
    predicted_seconds: List[float]
    budget_seconds: float

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)


def pack_chunks(
    pairs: Sequence[Tuple[int, int]],
    costs: Sequence[float],
    workers: int,
) -> ChunkPlan:
    """Cut ``pairs`` into contiguous chunks of ~equal predicted cost.

    The budget is ``total_cost / (workers * CHUNKS_PER_WORKER)``, floored
    at the most expensive single pair (one pair can never be split).  A
    chunk closes when adding the next pair would overshoot the budget or
    exceed :data:`MAX_CHUNK_PAIRS`; every chunk therefore carries at most
    ``budget + max_single_cost`` of predicted work, which bounds the tail
    straggler by construction.  Concatenating the chunks reproduces
    ``pairs`` exactly — order is preserved, nothing dropped or duplicated.
    """
    if len(pairs) != len(costs):
        raise ValueError("pairs and costs must have equal length")
    if not pairs:
        return ChunkPlan([], [], 0.0)
    workers = max(1, workers)
    costs = [max(0.0, float(c)) for c in costs]
    total = sum(costs)
    budget = max(total / (workers * CHUNKS_PER_WORKER), max(costs))
    chunks: List[List[Tuple[int, int]]] = []
    predicted: List[float] = []
    cur: List[Tuple[int, int]] = []
    cur_cost = 0.0
    for pair, cost in zip(pairs, costs):
        if cur and (cur_cost + cost > budget or len(cur) >= MAX_CHUNK_PAIRS):
            chunks.append(cur)
            predicted.append(cur_cost)
            cur, cur_cost = [], 0.0
        cur.append(tuple(pair))
        cur_cost += cost
    chunks.append(cur)
    predicted.append(cur_cost)
    return ChunkPlan(chunks, predicted, budget)
