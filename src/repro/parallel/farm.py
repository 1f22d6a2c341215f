"""Master-side process-pool farm over pairwise comparison jobs.

This is the paper's rckAlign master–slaves design mapped onto a real
machine instead of the simulated SCC:

* **long-lived workers** — a :class:`FarmBackend` owns one process pool
  for its owner's lifetime (a service shard holds one from start to
  close); the slaves boot once and serve every drain sent to them.  A
  caller without a backend gets a temporary one that lives for one
  drain;
* **per-drain context, not per-pool dataset** — every chunk carries its
  drain's small context (the plane or registry spec, the method, the
  query and the fault plan), which each worker materialises
  once and caches by fingerprint, so jobs stay bare ``(i, j)`` index
  tuples and one pool serves any dataset.  Like the paper's master
  loading the structures once per job list, each drain publishes its
  dataset once as a shared-memory plane and unlinks it when it ends;
* **cost-aware dynamic scheduling** — the job list is cut into contiguous
  chunks of roughly equal *predicted* work (the per-pair polynomial cost
  model of :mod:`repro.parallel.costsched`, not a flat pair count);
  whichever worker frees up first takes the next chunk (the paper's
  dynamic farm, with the predicted-cost budget as the granularity dial);
* **double-buffered dispatch** — requested workers are clamped against
  ``os.cpu_count()`` (with a warning, so oversubscribed runs are
  visible) and a backend keeps at most :data:`INFLIGHT_PER_WORKER` ×
  ``workers`` chunks submitted and not yet finished, shared by every
  drain running on it: one running on each worker and one queued
  behind it.  The paper's master hands a slave its next job only when
  the last one returns, which costs nothing when a message is an
  on-die hop (the simulator keeps that rule); here a chunk's round
  trip through the master costs about as much as a pair, so a worker
  that finishes takes its next chunk from the pool's queue instead of
  idling on that round trip.  On a single-CPU machine (and no fault
  plan) no pool is built at all: the planned chunks are evaluated
  in-process in index order, since pool workers could only add IPC to
  the master's work;
* **ordered collection** — results are consumed in job order regardless
  of worker arrival order, so score tables, merged cost counters and
  streamed CSV rows are byte-identical to the serial path;
* **failure surfacing** — a worker-side exception or a dead worker
  process raises :class:`WorkerCrash` on the master with the failing pair
  and the remote traceback, instead of hanging the pool;
* **failure absorption** — with a :class:`~repro.parallel.retry.
  RetryPolicy` attached, failed chunks are re-dispatched with exponential
  backoff, an abruptly dead worker triggers one pool rebuild plus
  pair-level re-dispatch of every in-flight chunk of every drain on the
  pool, and chunks stalled past the timeout get a duplicate dispatch
  (first result wins) — so a transient fault costs wall-clock time,
  never correctness or completed work.

Scores are bit-identical across any worker/chunk/retry configuration:
each pair is an independent computation with no accumulation across
jobs, counters are merged in job order on the master, and a re-dispatch
recomputes exactly the same values a first attempt would have.  The
scheduling rule only moves *where and when* a chunk is evaluated, never
*what* it computes.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import threading
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import CancelledError, ProcessPoolExecutor
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
    "FarmBackend",
    "FarmStats",
    "ParallelConfig",
    "RetryPolicy",
    "WorkerCrash",
    "effective_workers",
    "iter_pair_results",
    "reset_worker_clamp_warnings",
]

#: a drain context up to this many bytes rides with every chunk; a bigger
#: one (a pickled dataset) goes only to a worker that reports a cache
#: miss, since shipping a few KiB costs less than the round trip a miss
#: takes
INLINE_CONTEXT_BYTES = 16 * 1024

#: chunks a backend keeps submitted and unfinished per worker: one
#: running and one queued behind it, so a worker never waits on the
#: master's round trip between two chunks
INFLIGHT_PER_WORKER = 2

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
    final_window: int = 0  # in-flight cap, 2 chunks per worker (0 = no pool)
    serial_fallback: bool = False  # one-CPU rule ran the chunks in-process
    shm_plane: bool = False  # workers attached a shared-memory plane
    pool_startup_s: float = 0.0  # warm-up of a pool this drain built; 0 if warm
    rebuild_s: float = 0.0  # cumulative warm-up of fault-triggered rebuilds
    bytes_to_workers: int = 0  # drain-context bytes shipped with the chunks
    chunk_sizes: List[int] = field(default_factory=list)
    chunk_predicted: List[float] = field(default_factory=list)
    chunk_walls: List[float] = field(default_factory=list)

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
    chunk: int,
    workers: int,
    query: Optional[Chain],
) -> tuple[list[list[tuple[int, int]]], list[float], bool, int]:
    """Cut the job list into chunks, every one priced by the cost model.

    Returns ``(chunks, predicted_costs, cost_packed, nominal_size)``.  An
    explicit ``chunk`` forces fixed sizes; otherwise
    :func:`~repro.parallel.costsched.pack_chunks` cuts chunks of equal
    predicted cost.
    """
    la, lb = _pair_lengths(dataset, pairs, query)
    costs = [float(c) for c in predict_pair_seconds(la, lb)]
    if chunk > 0:
        chunks = _chunked(pairs, chunk)
        predicted, k = [], 0
        for c in chunks:
            predicted.append(sum(costs[k : k + len(c)]))
            k += len(c)
        return chunks, predicted, False, chunk
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
                    method, EvalMode.MEASURED, chain_a, dataset[j]
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
    query: Optional[Chain],
    retry: Optional[RetryPolicy],
    stats: Optional[FarmStats],
) -> tuple[list[PairResult], float]:
    """Evaluate one chunk on the master, timed, with worker-equivalent
    failure semantics: an exhausted evaluation surfaces as
    :class:`WorkerCrash` naming the pair, exactly like a pool worker."""
    t0 = time.perf_counter()
    out: list[PairResult] = []
    gen = _serial_results(dataset, pairs, method, query, retry=retry, stats=stats)
    try:
        for res in gen:
            out.append(res)
    except Exception as exc:
        pair = tuple(pairs[len(out)])
        raise WorkerCrash(pair, traceback.format_exc()) from exc
    return out, time.perf_counter() - t0


def _record_chunk(
    stats: FarmStats, size: int, predicted: float, wall: float
) -> None:
    stats.chunk_sizes.append(size)
    stats.chunk_predicted.append(predicted)
    stats.chunk_walls.append(wall)


def _inprocess_drain(
    dataset: Dataset,
    chunks: list[list[tuple[int, int]]],
    predicted: list[float],
    method: PSCMethod,
    query: Optional[Chain],
    retry: Optional[RetryPolicy],
    stats: Optional[FarmStats],
) -> Iterator[PairResult]:
    """The one-CPU rule: the planned chunks, in index order, on the
    master — no pool, no plane, worker-equivalent failure semantics."""
    if stats is not None:
        stats.serial_fallback = True
    for chunk, cost in zip(chunks, predicted):
        payload, wall = _inprocess_chunk(
            dataset, chunk, method, query, retry, stats
        )
        if stats is not None:
            _record_chunk(stats, len(chunk), cost, wall)
        yield from payload


class FarmBackend:
    """One long-lived process pool shared by every drain of its owner.

    The paper's rckAlign slaves boot once and then serve the whole job
    list; a backend does the same for a service shard, a store build or
    a matrix run.  It builds its ``ProcessPoolExecutor`` lazily on the
    first drain, replaces it when a worker dies (the first drain to see
    the broken pool rebuilds it, the others adopt the replacement; with
    no retry policy the drain that hit it fails and the next drain gets
    a fresh pool), and shuts it down in :meth:`close`.  Workers carry no dataset of their
    own: each chunk names its drain's context (see
    :func:`repro.parallel.worker.drain_context`), which a worker
    materialises once and caches.

    Drains from several threads may overlap on one backend.  They share
    a single cap of :data:`INFLIGHT_PER_WORKER` × ``workers`` chunks
    submitted and not yet finished: one running per worker and one
    queued behind it.  A queued chunk's stall deadline is armed only
    once a worker can have taken it — at submit while fewer than
    ``workers`` chunks are outstanding, otherwise when an earlier chunk
    completes, in the pool's FIFO order — so it times the chunk, not
    its wait in the queue.

    ``pools_built`` counts pool constructions, rebuilds included.  The
    backend owns no dataset: each drain publishes and unlinks its own
    shared-memory plane.
    """

    def __init__(self, config: Optional[ParallelConfig] = None) -> None:
        self.config = config or ParallelConfig()
        requested = self.config.workers
        self.workers = effective_workers(requested) if requested > 1 else requested
        self.pools_built = 0
        self._cv = threading.Condition()
        self.window = INFLIGHT_PER_WORKER * self.workers
        self._free = self.window  # in-flight slots left under the cap
        self._outstanding = 0  # submitted futures not yet done, any drain
        retry = self.config.retry
        self._timed = retry is not None and retry.chunk_timeout_seconds > 0
        # with stall deadlines on: (future, its drain's armed list) of
        # chunks submitted behind busy workers, in submission order
        self._queued: deque = deque()
        self._submit_lock = threading.Lock()  # pool order == _queued order
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._closed = False

    def __enter__(self) -> "FarmBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the pool down (idempotent).

        The workers are joined before this returns, so no process
        outlives its owner.  Chunks still outstanding (a drain that
        failed, or one still running on a closing service) are
        cancelled, and workers busy with one are terminated.
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            busy = self._outstanding > 0
            self._cv.notify_all()
        if pool is not None:
            procs = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=not busy, cancel_futures=True)
            for proc in procs if busy else ():
                proc.terminate()
                proc.join()

    # -- drain-side primitives ---------------------------------------------
    def _current_pool(self, broken: int = -1) -> tuple[ProcessPoolExecutor, int, bool]:
        """``(pool, generation, built_now)`` of the live pool.

        ``broken`` is the generation a drain found broken: while it is
        still the live one it is replaced; when another drain has
        already replaced it the replacement is returned as is.  A pool
        that broke while no drain was using it (a worker killed between
        drains) is replaced too.
        """
        old = None
        with self._cv:
            if self._closed:
                raise RuntimeError("farm backend is closed")
            built = (
                self._pool is None
                or self._generation == broken
                or bool(getattr(self._pool, "_broken", False))
            )
            if built:
                old = self._pool
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(
                        self.config.resolved_start_method()
                    ),
                    initializer=_worker.boot,
                )
                self._generation += 1
                self.pools_built += 1
            pool, generation = self._pool, self._generation
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)
        return pool, generation, built

    def _retire(self, generation: int) -> None:
        """Drop the broken pool of ``generation`` if it is still the live
        one, so the next drain builds a fresh pool instead of inheriting
        it; its workers are joined before this returns."""
        with self._cv:
            if self._pool is None or self._generation != generation:
                return
            old, self._pool = self._pool, None
        old.shutdown(wait=True, cancel_futures=True)

    def _take_slots(self, wanted: int) -> int:
        with self._cv:
            k = max(0, min(wanted, self._free))
            self._free -= k
            return k

    def _release_slots(self, k: int) -> None:
        with self._cv:
            self._free += k
            self._cv.notify_all()

    def _submit(self, pool, args: tuple, arrived: list, armed: list, slot: bool):
        """Submit one chunk; returns ``(future, started)``, or ``None``
        (slot returned) when ``pool`` no longer takes work — broken, or
        shut down by a rebuild.

        ``started`` is the monotonic time from which a worker can have
        taken the chunk, or None when stall deadlines are on and it
        waits behind busy workers; it is then appended to ``armed`` as
        ``(future, started)`` once an earlier chunk completes.
        """
        with self._submit_lock:
            try:
                fut = pool.submit(_worker.eval_chunk, *args)
            except (BrokenProcessPool, RuntimeError):
                if slot:
                    self._release_slots(1)
                return None
            with self._cv:
                started: Optional[float] = time.monotonic()
                if self._timed and self._outstanding >= self.workers:
                    started = None
                    self._queued.append((fut, armed))
                self._outstanding += 1
        fut.add_done_callback(functools.partial(self._chunk_done, arrived, slot))
        return fut, started

    def _chunk_done(self, arrived: list, slot: bool, fut) -> None:
        with self._cv:
            arrived.append(fut)
            self._outstanding -= 1
            if slot:
                self._free += 1
            for k, (queued, _armed) in enumerate(self._queued):
                if queued is fut:  # cancelled, or lost with a broken pool
                    del self._queued[k]
                    break
            else:
                # a worker freed up: the oldest queued chunk is its next
                if self._queued:
                    nxt, armed = self._queued.popleft()
                    armed.append((nxt, time.monotonic()))
            self._cv.notify_all()

    def _wait(
        self, arrived: list, armed: list, want_slot: bool, timeout: Optional[float]
    ) -> tuple[list, list]:
        """Block until one of this drain's futures is done or armed, a
        slot frees up (when ``want_slot``), or ``timeout``; returns the
        done futures and the ``(future, started)`` pairs armed since."""
        with self._cv:
            self._cv.wait_for(
                lambda: arrived
                or armed
                or (want_slot and self._free > 0)
                or self._closed,
                timeout,
            )
            done, started = list(arrived), list(armed)
            arrived.clear()
            armed.clear()
            return done, started


def _farm_drain(
    backend: FarmBackend,
    context: tuple[str, bytes],
    chunks: list[list[tuple[int, int]]],
    predicted: list[float],
    stats: Optional[FarmStats],
) -> Iterator[PairResult]:
    """Submit-based farm drain on ``backend``: retry, restart and stall
    handling in one loop.

    Chunks take the backend's in-flight slots as they free up; the only
    excess is a stall duplicate, dispatched beside the chunk it shadows.
    A chunk's stall deadline runs from the moment a worker can have
    taken it (see :meth:`FarmBackend._submit`), not from its submit.
    Every chunk names ``context``, the drain's ``(key, blob)`` from
    :func:`repro.parallel.worker.drain_context`.  A blob of at most
    :data:`INLINE_CONTEXT_BYTES` travels with every chunk; a bigger one
    is left off, and a worker that has not cached the key bounces the
    chunk, which goes back into the queue with the blob attached.
    Results are buffered per chunk index and yielded strictly in job
    order.
    """
    retry = backend.config.retry
    max_retries = retry.max_retries if retry is not None else 0
    timeout_s = retry.chunk_timeout_seconds if retry is not None else 0.0
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
    inflight: Dict = {}  # Future -> (chunk_idx, attempt, holds a slot)
    deadlines: Dict = {}  # Future -> monotonic stall deadline
    arrived: list = []  # done futures, appended by the backend's callback
    armed: list = []  # (Future, started) of queued chunks a worker can take
    key, blob = context
    with_blob = len(blob) <= INLINE_CONTEXT_BYTES
    bounced: set[int] = set()  # chunks a worker returned for the blob
    restarts = 0
    pool, generation, built = backend._current_pool()
    # Warm-up accounting: the first ok completion after this drain built
    # (or rebuilt) the pool prices its warm-up — process start plus
    # context materialisation — as round-trip wall minus worker-side
    # execution wall.  A drain on a warm pool records none.
    born = time.perf_counter() if built else None

    def submit(idx: int, slot: bool) -> bool:
        sent = blob if with_blob or idx in bounced else None
        sub = backend._submit(
            pool, (chunks[idx], attempts[idx], (key, sent)), arrived, armed, slot
        )
        if sub is None:
            return False
        fut, started = sub
        inflight[fut] = (idx, attempts[idx], slot)
        deadlines[fut] = (
            started + timeout_s
            if timeout_s > 0 and started is not None else math.inf
        )
        if stats is not None and sent is not None:
            stats.bytes_to_workers += len(sent)
        return True

    def mark_done(idx: int, payload: list, exec_wall: float) -> None:
        done[idx] = payload
        if stats is not None:
            _record_chunk(stats, len(chunks[idx]), predicted[idx], exec_wall)

    try:
        while next_yield < n:
            # Work past the first failure in job order is never yielded,
            # so don't start it; chunks before it must still run (a pool
            # rebuild may have re-pended them) for the drain to reach
            # the failure point.  pending stays ascending: re-pends are
            # merged in order, stall duplicates bypass the queue.
            fatal_floor = min(failed) if failed else n
            wanted = (
                sum(1 for idx in pending if idx < fatal_floor)
                if failed else len(pending)
            )
            pool_broken = False
            slots = backend._take_slots(wanted)
            while slots:
                slots -= 1
                idx = pending.popleft()
                if not submit(idx, slot=True):
                    pending.appendleft(idx)
                    backend._release_slots(slots)
                    pool_broken = True
                    break
            while next_yield in done:
                yield from done.pop(next_yield)
                next_yield += 1
            if next_yield in failed:
                raise failed[next_yield]
            if next_yield >= n:
                break

            ready: list = []
            if not pool_broken:
                wait_timeout = None
                soonest = min(deadlines.values(), default=math.inf)
                if soonest < math.inf:
                    wait_timeout = max(0.0, soonest - time.monotonic())
                want_slot = bool(pending) and pending[0] < fatal_floor
                ready, started = backend._wait(
                    arrived, armed, want_slot, wait_timeout
                )
                if backend.closed:
                    raise RuntimeError("farm backend is closed")
                for fut, t in started:
                    if fut in deadlines:  # not lost to a pool rebuild
                        deadlines[fut] = t + timeout_s
            if not ready and not pool_broken:
                # Stall deadline expired: dispatch one duplicate per
                # overdue chunk (at most once per dispatched future);
                # whichever attempt finishes first supplies the result.
                now = time.monotonic()
                for fut in [f for f, dl in deadlines.items() if dl <= now]:
                    idx, _att, _slot = inflight[fut]
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
                    if not submit(idx, slot=False):
                        pool_broken = True
                if not pool_broken:
                    continue

            broken_idx: list[int] = []
            retried: list[int] = []
            for fut in ready:
                entry = inflight.pop(fut, None)
                if entry is None:
                    continue  # lost to an earlier pool rebuild, re-pended
                idx, att, _slot = entry
                deadlines.pop(fut, None)
                try:
                    status, payload, remote_tb, exec_wall = fut.result()
                except (BrokenProcessPool, CancelledError):
                    pool_broken = True
                    broken_idx.append(idx)
                    continue
                if idx in done or idx in failed or idx < next_yield:
                    continue  # duplicate result of a timed-out chunk
                if status == "ok":
                    if born is not None:
                        warm = max(0.0, (time.perf_counter() - born) - exec_wall)
                        born = None
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
                if status == "context":
                    # the worker lacks this drain's context: send the
                    # chunk again, blob attached; not a failed attempt
                    bounced.add(idx)
                    retried.append(idx)
                    continue
                if attempts[idx] >= max_retries:
                    failed[idx] = WorkerCrash(pair, remote_tb or "")
                    continue
                time.sleep(retry.backoff(attempts[idx]))
                attempts[idx] += 1
                if stats is not None:
                    stats.retries += 1
                retried.append(idx)
            # a retried chunk goes back into the queue, in order, and
            # waits for a slot like any other
            if retried:
                pending = deque(sorted({*pending, *retried}))

            if pool_broken:
                # The pool is permanently broken: every chunk this drain
                # had in flight is lost.  Rebuild it (or adopt the
                # rebuild another drain already made) and re-dispatch
                # them (pair-level re-dispatch — completed chunks stay
                # completed, nothing is ever recomputed).
                if retry is None or restarts >= max_retries:
                    backend._retire(generation)
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
                    | {idx for idx, _att, _slot in inflight.values()}
                )
                for fut in inflight:
                    fut.cancel()
                inflight.clear()
                deadlines.clear()
                time.sleep(retry.backoff(restarts - 1))
                pool, generation, built = backend._current_pool(generation)
                if built:
                    born = time.perf_counter()
                redo = [i for i in redo if i not in done and i >= next_yield]
                for idx in redo:
                    attempts[idx] += 1
                pending = deque(sorted({*pending, *redo}))
    finally:
        if stats is not None:
            stats.final_window = backend.window
        for fut in inflight:
            fut.cancel()


def iter_pair_results(
    dataset: Dataset,
    pairs: Sequence[tuple[int, int]],
    method: PSCMethod,
    config: Optional[ParallelConfig] = None,
    query: Optional[Chain] = None,
    stats: Optional[FarmStats] = None,
    faults: Optional[FarmFaultPlan] = None,
    backend: Optional[FarmBackend] = None,
) -> Iterator[PairResult]:
    """Evaluate ``pairs`` over the farm, yielding results in job order.

    This is the one path a pair list takes to the kernel;
    ``config.workers <= 1`` makes it the plain in-process loop, whose
    failures raise the original exception, not :class:`WorkerCrash`.
    Pairs ``(i, j)`` index ``dataset``; ``i == QUERY_INDEX`` stands for
    ``query``.

    One call is one drain.  With a ``backend`` the drain runs on that
    backend's long-lived pool, beside any other drain in flight on it,
    and its settings are the backend's config; without one the call
    opens a temporary :class:`FarmBackend` and closes it when the
    generator ends, so its pool lives exactly as long as the drain.
    With ``config.shm`` the drain publishes ``dataset`` as its own
    shared-memory plane and unlinks it when the generator ends —
    exhausted, failed or closed early.

    The generator streams: the master holds at most the in-flight chunks,
    never the whole result table, so callers can write rows to disk as
    they arrive.  ``stats``, when given, is filled in place (wall time
    covers the full drain).  Worker failures raise :class:`WorkerCrash`
    unless ``config.retry`` absorbs them; ``faults`` ships a
    deterministic :class:`~repro.faults.farm.FarmFaultPlan` to the
    workers (and the serial path) for resilience testing.

    Every pair is evaluated in MEASURED mode: the method really runs.
    Scheduling is cost-aware by default: with ``config.chunk == 0`` the
    job list is packed into contiguous chunks of roughly equal predicted
    cost.  The requested worker count is clamped against the machine and
    the backend holds at most :data:`INFLIGHT_PER_WORKER` chunks per
    worker: one running, one queued behind it.  With fewer than 2
    CPUs and no fault plan the chunks run in-process instead, in index
    order.  None of it changes a single result bit.
    """
    if backend is not None:
        if config is not None and config != backend.config:
            raise ValueError("config differs from the backend's config")
        config = backend.config
    config = config or ParallelConfig()
    pairs = list(pairs)
    n_jobs = len(pairs)
    requested = config.workers
    workers = effective_workers(requested) if requested > 1 else requested
    if stats is not None:
        stats.n_jobs = n_jobs
        stats.requested_workers = requested
        stats.workers = workers
    t0 = time.perf_counter()
    try:
        if workers <= 1 or n_jobs == 0:
            # pair by pair in-process; the stats report the job list as
            # the configured chunks, or one chunk of everything
            chunk = config.chunk or max(1, n_jobs)
            if stats is not None:
                stats.chunk_size = chunk
                stats.chunk_sizes = [len(c) for c in _chunked(pairs, chunk)]
                stats.n_chunks = len(stats.chunk_sizes)
            yield from _serial_results(
                dataset, pairs, method, query,
                faults=faults, retry=config.retry, stats=stats,
            )
            return
        chunks, predicted, cost_packed, nominal = _plan_chunks(
            dataset, pairs, config.chunk, workers, query
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
                dataset, chunks, predicted, method, query, config.retry, stats
            )
            return
        from repro.parallel import shmplane

        owner = backend or FarmBackend(config)
        # None on any shared-memory failure -> pickle fallback; the plane
        # is this drain's alone, unlinked however the generator ends
        plane = shmplane.plane_for(dataset) if config.shm else None
        try:
            spec = (
                plane.worker_spec() if plane is not None
                else _worker.dataset_spec(dataset)
            )
            context = _worker.drain_context(spec, method, query, faults)
            if stats is not None:
                stats.shm_plane = plane is not None
            yield from _farm_drain(owner, context, chunks, predicted, stats)
        finally:
            if plane is not None:
                plane.unlink()
            if backend is None:
                owner.close()
    finally:
        if stats is not None:
            stats.wall_seconds = time.perf_counter() - t0
