"""Master-side process-pool farm over pairwise comparison jobs.

This is the paper's rckAlign master–slaves design mapped onto a real
machine instead of the simulated SCC:

* **pickle-once workers** — each pool process is initialised exactly once
  with the dataset (registry rebuild, or a single unpickle; copy-on-write
  pages under ``fork``), so jobs are bare ``(i, j)`` index tuples, not
  shipped structures;
* **cost-aware dynamic scheduling** — the job list is cut into contiguous
  chunks of roughly equal *predicted* work (the per-pair polynomial cost
  model of :mod:`repro.parallel.costsched`, not a flat pair count);
  whichever worker frees up first takes the next chunk (the paper's
  dynamic farm, with the predicted-cost budget as the granularity dial);
* **one chunk in flight per worker** — requested workers are clamped
  against ``os.cpu_count()`` (with a warning, so oversubscribed runs are
  visible) and the master keeps at most ``workers`` chunks submitted and
  not yet finished, handing a worker its next chunk when it returns the
  last one.  On a single-CPU machine (and no fault plan) no pool is
  built at all: the planned chunks are evaluated in-process in index
  order, since pool workers could only add IPC to the master's work;
* **ordered collection** — results are consumed in job order regardless
  of worker arrival order, so score tables, merged cost counters and
  streamed CSV rows are byte-identical to the serial path;
* **failure surfacing** — a worker-side exception or a dead worker
  process raises :class:`WorkerCrash` on the master with the failing pair
  and the remote traceback, instead of hanging the pool;
* **failure absorption** — with a :class:`~repro.parallel.retry.
  RetryPolicy` attached, failed chunks are re-dispatched with exponential
  backoff, an abruptly dead worker triggers a pool rebuild plus pair-level
  re-dispatch of every in-flight chunk, and chunks stalled past the
  timeout get a duplicate dispatch (first result wins) — so a transient
  fault costs wall-clock time, never correctness or completed work.

Scores are bit-identical across any worker/chunk/retry configuration:
each pair is an independent computation with no accumulation across
jobs, counters are merged in job order on the master, and a re-dispatch
recomputes exactly the same values a first attempt would have.  The
scheduling rule only moves *where and when* a chunk is evaluated, never
*what* it computes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.datasets.registry import Dataset
from repro.faults.farm import FarmFaultPlan, InjectedFault
from repro.parallel import worker as _worker
from repro.parallel.costsched import pack_chunks, predict_pair_seconds
from repro.parallel.retry import RetryPolicy
from repro.psc.base import PSCMethod
from repro.psc.evaluator import EvalMode, evaluate_pair
from repro.structure.model import Chain

__all__ = [
    "DEFAULT_CHUNK",
    "SERIAL_RETRY_CHUNK_CAP",
    "FarmStats",
    "ParallelConfig",
    "RetryPolicy",
    "WorkerCrash",
    "auto_chunk",
    "effective_workers",
    "iter_pair_results",
    "reset_worker_clamp_warnings",
]

#: default scheduling granularity when ``chunk`` is left at 0 and the job
#: list is too small for the auto heuristic to matter
DEFAULT_CHUNK = 8

#: serial-path chunk bound once a retry policy is armed: bounds how much
#: completed work a single re-dispatch could ever replay
SERIAL_RETRY_CHUNK_CAP = 32

#: (i, j, scores, op_counts) for one evaluated pair
PairResult = tuple[int, int, Dict[str, float], Dict[str, float]]


class WorkerCrash(RuntimeError):
    """A farm worker failed; carries the failing pair and remote traceback."""

    def __init__(self, pair: tuple[int, int], remote_traceback: str) -> None:
        self.pair = pair
        self.remote_traceback = remote_traceback
        super().__init__(
            f"parallel farm worker failed on pair {pair}:\n{remote_traceback}"
        )


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the process-pool farm.

    ``workers <= 1`` runs the jobs serially in-process (no pool at all);
    requests above the machine's core count are clamped (with a warning)
    by :func:`effective_workers`.  ``chunk = 0`` packs chunks by
    predicted cost (see :func:`repro.parallel.costsched.pack_chunks`);
    an explicit ``chunk`` forces fixed-size chunks.  ``start_method``
    defaults to ``fork`` where available (shared copy-on-write dataset
    pages) and ``spawn`` elsewhere.  ``retry`` (None = fail fast, the
    historical behaviour) arms re-dispatch with backoff for failed,
    killed and stalled chunks.  ``shm`` (default on) publishes the
    dataset once as a shared-memory plane (:mod:`repro.parallel.shmplane`)
    that workers attach to zero-copy instead of unpickling; it degrades
    silently to the pickle path when shared memory is unavailable, and
    results are bit-identical either way — ``shm=False`` (CLI
    ``--no-shm``) forces the pickle path.
    """

    workers: int = 0
    chunk: int = 0
    start_method: str = ""
    retry: Optional[RetryPolicy] = None
    shm: bool = True

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.chunk < 0:
            raise ValueError("chunk must be >= 0")
        if self.start_method and self.start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"unknown start method {self.start_method!r}; "
                f"available: {multiprocessing.get_all_start_methods()}"
            )

    def resolved_start_method(self) -> str:
        if self.start_method:
            return self.start_method
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"


#: (requested, cap) clamps already warned about in this run — the service
#: batcher calls :func:`effective_workers` per batch, which used to emit
#: the identical RuntimeWarning hundreds of times per session
_CLAMP_WARNED: set[tuple[int, int]] = set()


def reset_worker_clamp_warnings() -> None:
    """Re-arm the once-per-run clamp warning (new CLI invocation/test)."""
    _CLAMP_WARNED.clear()


def effective_workers(requested: int) -> int:
    """Clamp a worker request against the machine's core count.

    A pool wider than ``os.cpu_count()`` is pure context-switch overhead
    — the historical ``BENCH_parallel.json`` recorded 4 workers running
    slower than serial on a 1-CPU box precisely because the farm obeyed
    ``--workers`` blindly.  The floor of 2 keeps an explicit parallel
    request on the farm path even on a single-core machine, where the
    chunks are then evaluated in-process unless a fault plan needs the
    pool's crash isolation (see :func:`iter_pair_results`).

    The RuntimeWarning states the clamped value and the detected
    ``os.cpu_count()``, and fires **once per run** for a given
    (requested, cap) pair — repeated clamps (e.g. every service
    micro-batch) stay silent until
    :func:`reset_worker_clamp_warnings`.
    """
    cap = max(2, os.cpu_count() or 1)
    if requested > cap:
        if (requested, cap) not in _CLAMP_WARNED:
            _CLAMP_WARNED.add((requested, cap))
            warnings.warn(
                f"workers={requested} exceeds usable CPUs; clamping to {cap} "
                f"(os.cpu_count()={os.cpu_count()})",
                RuntimeWarning,
                stacklevel=3,
            )
        return cap
    return requested


@dataclass
class FarmStats:
    """Throughput, scheduling and resilience accounting for one farm run.

    ``workers`` is the *effective* (clamped) worker count the run used;
    ``requested_workers`` preserves what the caller asked for.
    ``chunk_sizes``/``chunk_predicted``/``chunk_walls`` record the
    *realized* chunks — sizes as packed, predicted cost and worker-side
    execution wall per chunk — so traces and benches report the truth
    rather than the configured nominal.
    """

    n_jobs: int = 0
    n_chunks: int = 0
    workers: int = 0
    requested_workers: int = 0
    chunk_size: int = 0  # configured (or nominal packed) chunk size
    wall_seconds: float = 0.0
    retries: int = 0  # chunk re-dispatches after worker-side errors
    pool_restarts: int = 0  # rebuilds after an abrupt worker death
    chunk_timeouts: int = 0  # duplicate dispatches of stalled chunks
    cost_packed: bool = False  # chunks cut by predicted cost, not count
    backoffs: int = 0  # always 0: the in-flight window is static
    final_window: int = 0  # in-flight chunk cap (0 = in-process, no pool)
    serial_fallback: bool = False  # one-CPU rule ran the chunks in-process
    shm_plane: bool = False  # workers attached a shared-memory plane
    pool_startup_s: float = 0.0  # first pool warm-up (spawn + initializer)
    rebuild_s: float = 0.0  # cumulative warm-up of fault-triggered rebuilds
    bytes_to_workers: int = 0  # pickled initializer payload x pool width
    chunk_sizes: List[int] = field(default_factory=list)
    chunk_predicted: List[float] = field(default_factory=list)
    chunk_walls: List[float] = field(default_factory=list)
    chunk_done_at: List[float] = field(default_factory=list)

    @property
    def pairs_per_second(self) -> float:
        return self.n_jobs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def chunk_size_min(self) -> int:
        return min(self.chunk_sizes) if self.chunk_sizes else 0

    @property
    def chunk_size_max(self) -> int:
        return max(self.chunk_sizes) if self.chunk_sizes else 0

    @property
    def chunk_size_mean(self) -> float:
        if not self.chunk_sizes:
            return 0.0
        return sum(self.chunk_sizes) / len(self.chunk_sizes)

    def predicted_cost_error(self) -> Optional[float]:
        """Mean |relative error| of predicted vs measured chunk cost.

        A single scale factor is fitted first (predictions are in nominal
        CPU seconds; only relative cost matters to the scheduler), so the
        number reports *shape* error — exactly what load balance depends
        on.  None when fewer than two chunks carry usable measurements.
        """
        paired = [
            (p, w)
            for p, w in zip(self.chunk_predicted, self.chunk_walls)
            if p > 0 and w > 0
        ]
        if len(paired) < 2:
            return None
        scale = sum(w for _, w in paired) / sum(p for p, _ in paired)
        return sum(abs(p * scale - w) / w for p, w in paired) / len(paired)

    def tail_imbalance(self) -> Optional[float]:
        """Measured wall over the perfectly-balanced ideal (>= ~1.0).

        Ideal is total worker-side execution time spread evenly over the
        lanes that ran chunks — the effective workers, or the master
        alone when the one-CPU rule ran every chunk in-process; the
        ratio bundles tail straggling *and* oversubscription stalls —
        both are scheduling waste.  None when no per-chunk walls were
        recorded (serial path).
        """
        if not self.chunk_walls or self.wall_seconds <= 0:
            return None
        workers = 1 if self.serial_fallback else self.workers
        lanes = max(1, min(workers, len(self.chunk_walls)))
        ideal = sum(self.chunk_walls) / lanes
        return self.wall_seconds / ideal if ideal > 0 else None


def auto_chunk(n_jobs: int, workers: int, retry_armed: bool = False) -> int:
    """Fixed chunk size balancing dispatch overhead against load balance.

    Aim for ~4 chunks per worker (dynamic scheduling can then absorb a
    4x per-pair cost spread), capped at 32 pairs so one straggler chunk
    cannot dominate the tail, floored at 1.  The serial path takes the
    whole list as one chunk — unless a retry policy is armed, in which
    case the chunk is bounded at :data:`SERIAL_RETRY_CHUNK_CAP` so a
    single fault can never force an unbounded re-dispatch.

    This is the cost-*blind* fallback; with ``chunk=0`` the farm prefers
    :func:`repro.parallel.costsched.pack_chunks`.
    """
    if workers <= 1:
        if retry_armed:
            return max(1, min(SERIAL_RETRY_CHUNK_CAP, n_jobs))
        return max(1, n_jobs)
    target = -(-n_jobs // (workers * 4))  # ceil division
    return max(1, min(32, target, n_jobs))


def _chunked(pairs: Sequence[tuple[int, int]], size: int) -> list[list[tuple[int, int]]]:
    return [list(pairs[k : k + size]) for k in range(0, len(pairs), size)]


def _pair_lengths(
    dataset: Dataset, pairs: Sequence[tuple[int, int]], query: Optional[Chain]
) -> tuple[list[int], list[int]]:
    cache: Dict[int, int] = {}

    def length(idx: int) -> int:
        if idx not in cache:
            cache[idx] = len(query) if idx == _worker.QUERY_INDEX else len(dataset[idx])
        return cache[idx]

    return [length(i) for i, _ in pairs], [length(j) for _, j in pairs]


def _plan_chunks(
    dataset: Dataset,
    pairs: Sequence[tuple[int, int]],
    config: ParallelConfig,
    workers: int,
    mode: EvalMode,
    query: Optional[Chain],
) -> tuple[list[list[tuple[int, int]]], Optional[list[float]], bool, int]:
    """Cut the job list into chunks; cost-packed when possible.

    Returns ``(chunks, predicted_costs, cost_packed, nominal_size)``.
    An explicit ``config.chunk`` forces fixed sizes (still priced, so
    stats keep their cost signal); MODEL
    mode is priced trivially per pair, so cost packing is pointless and
    the fixed heuristic is used.
    """
    costs: Optional[list[float]] = None
    try:
        la, lb = _pair_lengths(dataset, pairs, query)
        costs = [float(c) for c in predict_pair_seconds(la, lb)]
    except Exception:  # pricing must never break the farm
        costs = None
    if config.chunk > 0 or mode is EvalMode.MODEL or costs is None:
        size = config.chunk or auto_chunk(len(pairs), workers)
        chunks = _chunked(pairs, size)
        predicted = None
        if costs is not None:
            predicted, k = [], 0
            for c in chunks:
                predicted.append(sum(costs[k : k + len(c)]))
                k += len(c)
        return chunks, predicted, False, size
    plan = pack_chunks(pairs, costs, workers)
    nominal = int(round(len(pairs) / plan.n_chunks)) if plan.n_chunks else 0
    return plan.chunks, list(plan.predicted_seconds), True, nominal


def _fire_serial_fault(
    faults: FarmFaultPlan, i: int, j: int, attempt: int
) -> None:
    """In-process fault firing: kills degrade to raises (suicide would
    take the caller down), stalls sleep for real."""
    fault = faults.should_fire(i, j, attempt)
    if fault is None:
        return
    if fault.kind == "stall":
        time.sleep(fault.stall_seconds)
        return
    raise InjectedFault(
        f"injected {fault.kind} on pair ({i}, {j}) attempt {attempt}"
    )


def _serial_results(
    dataset: Dataset,
    pairs: Iterable[tuple[int, int]],
    method: PSCMethod,
    mode: EvalMode,
    query: Optional[Chain],
    faults: Optional[FarmFaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    stats: Optional[FarmStats] = None,
) -> Iterator[PairResult]:
    """In-process evaluation, identical op-for-op to the worker path."""
    for i, j in pairs:
        attempt = 0
        while True:
            try:
                if faults is not None:
                    _fire_serial_fault(faults, i, j, attempt)
                chain_a = query if i == _worker.QUERY_INDEX else dataset[i]
                scores, counter = evaluate_pair(
                    method, mode, chain_a, dataset[j]
                )
                break
            except Exception:
                if retry is None or attempt >= retry.max_retries:
                    raise
                time.sleep(retry.backoff(attempt))
                attempt += 1
                if stats is not None:
                    stats.retries += 1
        yield (i, j, scores, counter.as_dict())


def _inprocess_chunk(
    dataset: Dataset,
    pairs: Sequence[tuple[int, int]],
    method: PSCMethod,
    mode: EvalMode,
    query: Optional[Chain],
    retry: Optional[RetryPolicy],
    stats: Optional[FarmStats],
) -> tuple[list[PairResult], float]:
    """Evaluate one chunk on the master, timed, with worker-equivalent
    failure semantics: an exhausted evaluation surfaces as
    :class:`WorkerCrash` naming the pair, exactly like a pool worker."""
    t0 = time.perf_counter()
    out: list[PairResult] = []
    gen = _serial_results(
        dataset, pairs, method, mode, query, retry=retry, stats=stats
    )
    try:
        for res in gen:
            out.append(res)
    except Exception as exc:
        pair = tuple(pairs[len(out)])
        raise WorkerCrash(pair, traceback.format_exc()) from exc
    return out, time.perf_counter() - t0


def _record_chunk(
    stats: FarmStats, size: int, predicted: float, wall: float, t0: float
) -> None:
    stats.chunk_sizes.append(size)
    stats.chunk_predicted.append(predicted)
    stats.chunk_walls.append(wall)
    stats.chunk_done_at.append(time.perf_counter() - t0)


def _inprocess_drain(
    dataset: Dataset,
    chunks: list[list[tuple[int, int]]],
    predicted: Optional[list[float]],
    method: PSCMethod,
    mode: EvalMode,
    query: Optional[Chain],
    retry: Optional[RetryPolicy],
    stats: Optional[FarmStats],
) -> Iterator[PairResult]:
    """The one-CPU rule: the planned chunks, in index order, on the
    master — no pool, no plane, worker-equivalent failure semantics."""
    t0 = time.perf_counter()
    if stats is not None:
        stats.serial_fallback = True
    for idx, chunk in enumerate(chunks):
        payload, wall = _inprocess_chunk(
            dataset, chunk, method, mode, query, retry, stats
        )
        if stats is not None:
            cost = predicted[idx] if predicted is not None else 0.0
            _record_chunk(stats, len(chunk), cost, wall, t0)
        yield from payload


def _farm_drain(
    dataset: Dataset,
    chunks: list[list[tuple[int, int]]],
    predicted: Optional[list[float]],
    method: PSCMethod,
    mode: EvalMode,
    query: Optional[Chain],
    config: ParallelConfig,
    workers: int,
    faults: Optional[FarmFaultPlan],
    stats: Optional[FarmStats],
    plane=None,
) -> Iterator[PairResult]:
    """Submit-based farm drain: retry, restart and stall handling in one
    loop.

    At most ``workers`` chunks are submitted and not yet finished — one
    per worker, the paper's master–slaves rule — so a submitted chunk
    starts executing at once and its stall deadline times the chunk,
    not a wait in the pool's queue.  The only excess is a stall
    duplicate, dispatched beside the chunk it shadows.  Results are
    buffered per chunk index and yielded strictly in job order.

    With a live ``plane`` (see :mod:`repro.parallel.shmplane`), worker
    initializers carry a segment name instead of the pickled dataset, so
    pool construction — and every fault-triggered **rebuild** — ships a
    few hundred bytes and attaches zero-copy, instead of re-pickling the
    whole corpus into each fresh worker.
    """
    retry = config.retry
    max_retries = retry.max_retries if retry is not None else 0
    timeout_s = retry.chunk_timeout_seconds if retry is not None else 0.0
    ctx = multiprocessing.get_context(config.resolved_start_method())
    if plane is not None:
        spec = plane.worker_spec()
    else:
        spec = _worker.dataset_spec(dataset)
    initargs = (spec, method, mode, query, faults)
    if stats is not None:
        stats.shm_plane = plane is not None
        try:
            import pickle

            stats.bytes_to_workers = len(pickle.dumps(initargs)) * workers
        except Exception:
            stats.bytes_to_workers = 0

    n = len(chunks)
    attempts = [0] * n  # latest attempt number dispatched per chunk
    done: Dict[int, list] = {}
    # Fatal per-chunk errors are buffered by chunk index and raised only
    # when the ordered drain reaches them: with several chunks in flight
    # the *first failure in job order* must surface, not whichever error
    # future happens to complete first (serial-path semantics).
    failed: Dict[int, WorkerCrash] = {}
    next_yield = 0
    pending: deque[int] = deque(range(n))
    inflight: Dict = {}  # Future -> (chunk_idx, attempt)
    deadlines: Dict = {}  # Future -> monotonic stall deadline
    restarts = 0
    t_drain0 = time.perf_counter()
    # Warm-up accounting: [pool creation timestamp, measurement pending].
    # The first ok completion of each pool generation prices its warm-up
    # (process spawn + initializer, i.e. dataset delivery) as round-trip
    # wall minus worker-side execution wall — the component the plane is
    # supposed to make dataset-size-independent.
    pool_born: list = [0.0, True]

    def make_pool() -> ProcessPoolExecutor:
        pool_born[0] = time.perf_counter()
        pool_born[1] = True
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_worker.init_worker,
            initargs=initargs,
        )

    pool = make_pool()

    def submit(idx: int) -> None:
        fut = pool.submit(_worker.eval_chunk, chunks[idx], attempts[idx])
        inflight[fut] = (idx, attempts[idx])
        deadlines[fut] = (
            time.monotonic() + timeout_s if timeout_s > 0 else math.inf
        )

    def mark_done(idx: int, payload: list, exec_wall: float) -> None:
        done[idx] = payload
        if stats is not None:
            cost = predicted[idx] if predicted is not None else 0.0
            _record_chunk(stats, len(chunks[idx]), cost, exec_wall, t_drain0)

    try:
        while next_yield < n:
            # Work past the first failure in job order is never yielded,
            # so don't start it; chunks before it must still run (a pool
            # rebuild may have re-pended them) for the drain to reach
            # the failure point.  pending stays ascending: appendleft
            # re-pends in reverse, stall duplicates bypass the queue.
            fatal_floor = min(failed) if failed else n
            while (
                pending
                and pending[0] < fatal_floor
                and len(inflight) < workers
            ):
                submit(pending.popleft())
            while next_yield in done:
                yield from done.pop(next_yield)
                next_yield += 1
            if next_yield in failed:
                raise failed[next_yield]
            if next_yield >= n:
                break
            wait_timeout = None
            if timeout_s > 0:
                wait_timeout = max(
                    0.0, min(deadlines.values()) - time.monotonic()
                )
            ready, _ = _futures_wait(
                list(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED
            )
            if not ready:
                # Stall deadline expired: dispatch one duplicate per
                # overdue chunk (at most once per dispatched future);
                # whichever attempt finishes first supplies the result.
                now = time.monotonic()
                for fut in [f for f, dl in deadlines.items() if dl <= now]:
                    idx, _att = inflight[fut]
                    deadlines[fut] = math.inf
                    if idx in done:
                        continue
                    if attempts[idx] >= max_retries:
                        raise WorkerCrash(
                            tuple(chunks[idx][0]),
                            f"chunk {idx} stalled past "
                            f"{timeout_s}s on every allowed attempt",
                        )
                    attempts[idx] += 1
                    if stats is not None:
                        stats.chunk_timeouts += 1
                    submit(idx)
                continue

            broken_idx: list[int] = []
            pool_broken = False
            for fut in ready:
                idx, att = inflight.pop(fut)
                deadlines.pop(fut, None)
                try:
                    status, payload, remote_tb, exec_wall = fut.result()
                except BrokenProcessPool:
                    pool_broken = True
                    broken_idx.append(idx)
                    continue
                if idx in done or idx in failed or idx < next_yield:
                    continue  # duplicate result of a timed-out chunk
                if status == "ok":
                    if pool_born[1]:
                        pool_born[1] = False
                        warm = max(
                            0.0,
                            (time.perf_counter() - pool_born[0]) - exec_wall,
                        )
                        if stats is not None:
                            if restarts:
                                stats.rebuild_s += warm
                            else:
                                stats.pool_startup_s = warm
                    mark_done(idx, payload, exec_wall)
                    continue
                pair = tuple(payload)
                if att < attempts[idx]:
                    continue  # a newer attempt is already in flight
                if attempts[idx] >= max_retries:
                    failed[idx] = WorkerCrash(pair, remote_tb or "")
                    continue
                time.sleep(retry.backoff(attempts[idx]))
                attempts[idx] += 1
                if stats is not None:
                    stats.retries += 1
                submit(idx)

            if pool_broken:
                # The executor is permanently broken: every in-flight
                # chunk is lost.  Rebuild the pool and re-dispatch all of
                # them (pair-level re-dispatch — completed chunks stay
                # completed, nothing is ever recomputed).
                if retry is None or restarts >= max_retries:
                    raise WorkerCrash(
                        (-2, -2),
                        "a worker process died abruptly; jobs in flight "
                        "were not evaluated (enable a RetryPolicy to "
                        "absorb worker deaths)",
                    )
                restarts += 1
                if stats is not None:
                    stats.pool_restarts += 1
                redo = sorted(
                    set(broken_idx)
                    | {idx for idx, _att in inflight.values()}
                )
                inflight.clear()
                deadlines.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                time.sleep(retry.backoff(restarts - 1))
                pool = make_pool()
                for idx in reversed(redo):
                    if idx not in done and idx >= next_yield:
                        attempts[idx] += 1
                        pending.appendleft(idx)
    finally:
        if stats is not None:
            stats.final_window = workers
        pool.shutdown(wait=False, cancel_futures=True)


def iter_pair_results(
    dataset: Dataset,
    pairs: Sequence[tuple[int, int]],
    method: PSCMethod,
    mode: EvalMode | str = EvalMode.MEASURED,
    config: Optional[ParallelConfig] = None,
    query: Optional[Chain] = None,
    stats: Optional[FarmStats] = None,
    faults: Optional[FarmFaultPlan] = None,
) -> Iterator[PairResult]:
    """Evaluate ``pairs`` over the farm, yielding results in job order.

    This is the one path a pair list takes to the kernel;
    ``config.workers <= 1`` makes it the plain in-process loop, whose
    failures raise the original exception, not :class:`WorkerCrash`.
    Pairs ``(i, j)`` index ``dataset``; ``i == QUERY_INDEX`` stands for
    ``query``.

    The generator streams: the master holds at most the in-flight chunks,
    never the whole result table, so callers can write rows to disk as
    they arrive.  ``stats``, when given, is filled in place (wall time
    covers the full drain).  Worker failures raise :class:`WorkerCrash`
    unless ``config.retry`` absorbs them; ``faults`` ships a
    deterministic :class:`~repro.faults.farm.FarmFaultPlan` to the
    workers (and the serial path) for resilience testing.

    Scheduling is cost-aware by default: with ``config.chunk == 0`` the
    job list is packed into contiguous chunks of roughly equal predicted
    cost.  The requested worker count is clamped against the machine and
    each worker holds one chunk at a time.  With fewer than 2 CPUs and
    no fault plan the chunks run in-process instead, in index order.
    None of it changes a single result bit.
    """
    config = config or ParallelConfig()
    mode = EvalMode(mode)
    pairs = list(pairs)
    n_jobs = len(pairs)
    requested = config.workers
    workers = effective_workers(requested) if requested > 1 else requested
    retry_armed = config.retry is not None
    if stats is not None:
        stats.n_jobs = n_jobs
        stats.requested_workers = requested
        stats.workers = workers
    t0 = time.perf_counter()
    try:
        if workers <= 1 or n_jobs == 0:
            chunk = config.chunk or auto_chunk(n_jobs, workers, retry_armed)
            if stats is not None:
                stats.chunk_size = chunk
                stats.n_chunks = -(-n_jobs // chunk) if n_jobs else 0
                stats.chunk_sizes = [
                    len(c) for c in _chunked(pairs, chunk)
                ]
            yield from _serial_results(
                dataset, pairs, method, mode, query,
                faults=faults, retry=config.retry, stats=stats,
            )
            return
        chunks, predicted, cost_packed, nominal = _plan_chunks(
            dataset, pairs, config, workers, mode, query
        )
        if stats is not None:
            stats.chunk_size = nominal
            stats.n_chunks = len(chunks)
            stats.cost_packed = cost_packed
        if (os.cpu_count() or 1) < 2 and faults is None:
            # one core: pool workers cannot outrun the master, they can
            # only add IPC; fault-injection runs keep the pool's crash
            # isolation
            yield from _inprocess_drain(
                dataset, chunks, predicted, method, mode, query,
                config.retry, stats,
            )
            return
        plane = None
        if config.shm:
            from repro.parallel import shmplane

            # None on any shared-memory failure -> pickle fallback;
            # the pin is dropped when this generator is exhausted or
            # closed (the finally below runs either way)
            plane = shmplane.plane_for(dataset)
        try:
            yield from _farm_drain(
                dataset, chunks, predicted, method, mode, query, config,
                workers, faults, stats, plane=plane,
            )
        finally:
            if plane is not None:
                from repro.parallel import shmplane

                shmplane.release(plane)
    finally:
        if stats is not None:
            stats.wall_seconds = time.perf_counter() - t0
