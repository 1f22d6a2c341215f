"""Dynamic micro-batcher: coalesce in-flight pair jobs into kernel batches.

Concurrent ``align``/``search`` requests decompose into pair jobs that
land on one shared queue.  The batcher drains the queue in batches of up
to ``max_batch`` jobs — waiting up to ``batch_window`` seconds for
stragglers to coalesce when the queue is short — and hands each batch
to :func:`repro.parallel.iter_pair_results`, the farm's one pair path,
where the batch-vectorized TM-align kernel does the work.  Each
(method, params) group of a batch is one drain over one small dataset
of its chains, indexed by content hash; with the shared-memory plane on,
that drain publishes the dataset and unlinks it when done.  With a
:class:`~repro.parallel.FarmBackend` (a service shard holds one), every
batch drains on the backend's long-lived process pool; without one the
batches run serially in-process.  The farm's rule is fixed before the
batch starts: serial in-process below 2 workers or on a one-CPU
machine, otherwise the pool, with the farm's retry/backoff machinery.

Batches overlap: the run loop keeps up to ``workers`` batches in flight
(one when the farm is serial), each in its own executor thread, and
resolves a batch's waiters as soon as that batch finishes.  Their chunks
share the backend's single cap of two chunks per worker (one running,
one queued behind it), so a batch that is finishing its tail leaves the
idle workers to the next batch instead of holding a barrier.

Batches are cut by job count alone; the farm call below the batch
prices its pairs with the cost model and packs its own chunks, so the
service, the search API and the matrix CLI reach the kernel through the
same call and the same cost-aware chunker.

Two protections keep overload graceful instead of fatal:

* **admission control** — a bounded pending queue; a job arriving at a
  full queue is shed immediately with a typed
  :class:`~repro.service.protocol.ServiceOverloaded`, and everything
  already admitted still completes;
* **in-flight coalescing** — a job whose cache key is already pending or
  dispatched attaches to the existing job's waiters instead of consuming
  queue capacity, so a thundering herd of identical queries costs one
  evaluation.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.datasets.registry import Dataset
from repro.parallel import FarmBackend, iter_pair_results
from repro.psc.base import PSCMethod
from repro.service.cache import CacheKey
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    ServiceError,
    ServiceOverloaded,
    canonical_json,
)
from repro.structure.model import Chain

__all__ = ["PairJob", "MicroBatcher", "result_body"]


@dataclass
class PairJob:
    """One pairwise comparison awaiting evaluation."""

    key: CacheKey  # (hash_a, hash_b, method_name, params_hash)
    chain_a: Chain
    chain_b: Chain
    method: PSCMethod
    submitted_at: float = field(default_factory=time.perf_counter)

    @property
    def method_name(self) -> str:
        return self.key[2]

    @property
    def params_hash(self) -> str:
        return self.key[3]


def result_body(
    key: CacheKey, method: PSCMethod, scores: Dict[str, float]
) -> str:
    """The canonical JSON body of one scored pair (what gets cached),
    whether the batcher evaluated it or the matrix store served it."""
    return canonical_json(
        {
            "pair": [key[0], key[1]],
            "method": key[2],
            "params_hash": key[3],
            "scores": dict(scores),
            "score": method.similarity(scores),
        }
    )


def _hash_named(chain: Chain, content_hash: str) -> Chain:
    """A copy of ``chain`` named by its content hash.

    Batch datasets index chains by hash so two same-named uploads with
    different content can share a batch; the secondary-structure caches
    are computed on (and therefore retained by) the registry's original
    chain object, then carried over, so the server assigns SS once per
    structure, not once per request.
    """
    out = Chain(content_hash, chain.coords, chain.sequence, chain.family)
    out._secondary = chain.secondary
    out._ss_codes = chain.ss_codes
    return out


class MicroBatcher:
    """Bounded batch queue between the asyncio server and the farm.

    ``submit`` is awaited from request handlers; the ``run`` loop (one
    asyncio task, started via :meth:`start`) drains the queue and runs
    each batch in an executor thread so the event loop keeps serving
    while the kernel computes, with up to :attr:`max_inflight` batches
    at once.  ``backend`` is the farm the batches drain on (``None``:
    serial in-process evaluation).  ``evaluate`` is injectable, so tests
    can hold a batch (overload, shard fan-out) without a timing knob;
    the default groups jobs by method+params and dispatches each group
    through :func:`repro.parallel.iter_pair_results`.
    """

    def __init__(
        self,
        queue_limit: int = 64,
        max_batch: int = 16,
        batch_window: float = 0.002,
        metrics: Optional[ServiceMetrics] = None,
        evaluate: Optional[Callable[[Sequence[PairJob]], List[str]]] = None,
        backend: Optional[FarmBackend] = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.queue_limit = queue_limit
        self.max_batch = max_batch
        self.batch_window = batch_window
        self.backend = backend
        #: batches evaluated at once: one per farm worker, one when serial
        self.max_inflight = max(1, backend.workers if backend is not None else 1)
        self.metrics = metrics or ServiceMetrics()
        self._evaluate = evaluate or self._evaluate_batch
        self._pending: Deque[PairJob] = deque()
        self._waiters: Dict[CacheKey, List[asyncio.Future]] = {}
        self._wakeup = asyncio.Event()
        self._stopping = False
        self._task: Optional[asyncio.Task] = None
        self._inflight_jobs = 0

    # -- public surface ----------------------------------------------------
    @property
    def depth(self) -> int:
        """Jobs admitted but not yet dispatched (the bounded queue)."""
        return len(self._pending)

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self.run())

    async def stop(self) -> None:
        """Drain what was admitted, await every batch in flight, then
        stop the run loop."""
        self._stopping = True
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None

    async def submit(
        self,
        key: CacheKey,
        chain_a: Chain,
        chain_b: Chain,
        method: PSCMethod,
    ) -> str:
        """Admit one pair job and await its canonical result body.

        Raises :class:`ServiceOverloaded` when the pending queue is full
        and the job cannot coalesce onto an identical in-flight one.
        """
        if self._stopping:
            raise ServiceError("service is shutting down")
        fut = asyncio.get_running_loop().create_future()
        waiters = self._waiters.get(key)
        if waiters is not None:
            waiters.append(fut)
            self.metrics.inc("batcher_coalesced")
            return await fut
        if len(self._pending) >= self.queue_limit:
            self.metrics.inc("batcher_shed")
            raise ServiceOverloaded(
                f"batch queue is full ({len(self._pending)}/"
                f"{self.queue_limit} jobs pending); retry later"
            )
        self._waiters[key] = [fut]
        self._pending.append(PairJob(key, chain_a, chain_b, method))
        self.metrics.set_gauge("queue_depth", len(self._pending))
        self._wakeup.set()
        return await fut

    # -- batch loop --------------------------------------------------------
    async def run(self) -> None:
        inflight: set = set()
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while self._pending:
                if len(inflight) >= self.max_inflight:
                    _done, inflight = await asyncio.wait(
                        inflight, return_when=asyncio.FIRST_COMPLETED
                    )
                    continue
                if (
                    len(self._pending) < self.max_batch
                    and self.batch_window > 0
                    and not self._stopping
                ):
                    await asyncio.sleep(self.batch_window)
                batch = [
                    self._pending.popleft()
                    for _ in range(min(self.max_batch, len(self._pending)))
                ]
                self.metrics.set_gauge("queue_depth", len(self._pending))
                self.metrics.inc("batches_dispatched")
                self.metrics.inc("jobs_dispatched", len(batch))
                inflight.add(asyncio.ensure_future(self._dispatch(batch)))
                self._inflight_jobs += len(batch)
                self.metrics.set_gauge("inflight_jobs", self._inflight_jobs)
            if self._stopping:
                break
        if inflight:
            await asyncio.wait(inflight)

    async def _dispatch(self, batch: List[PairJob]) -> None:
        """Evaluate one batch in an executor thread and resolve its
        waiters; never raises (a failure resolves them with an error)."""
        t0 = time.perf_counter()
        try:
            bodies = await asyncio.get_running_loop().run_in_executor(
                None, self._evaluate, batch
            )
        except Exception as exc:
            self.metrics.inc("batches_failed")
            failure = ServiceError(
                f"batch evaluation failed: {type(exc).__name__}: {exc}"
            )
            for job in batch:
                self._resolve(job.key, error=failure)
        else:
            self.metrics.observe("batch_dispatch", time.perf_counter() - t0)
            for job, body in zip(batch, bodies):
                self._resolve(job.key, body=body)
        finally:
            self._inflight_jobs -= len(batch)
            self.metrics.set_gauge("inflight_jobs", self._inflight_jobs)

    def _resolve(
        self,
        key: CacheKey,
        body: Optional[str] = None,
        error: Optional[Exception] = None,
    ) -> None:
        for fut in self._waiters.pop(key, []):
            if fut.done():  # waiter went away (cancelled request)
                continue
            if error is not None:
                fut.set_exception(error)
            else:
                fut.set_result(body)

    # -- default evaluation (worker thread) --------------------------------
    def _evaluate_batch(self, jobs: Sequence[PairJob]) -> List[str]:
        """Evaluate one batch through the farm; returns bodies in job order.

        Jobs are grouped by (method, params) — each group becomes one
        ad-hoc hash-indexed dataset plus an (i, j) pair list handed to
        :func:`repro.parallel.iter_pair_results`, so a mixed batch still
        dispatches one farm call per distinct parameterisation.
        """
        groups: Dict[tuple, List[PairJob]] = {}
        for job in jobs:
            groups.setdefault((job.method_name, job.params_hash), []).append(job)
        bodies: Dict[CacheKey, str] = {}
        for group in groups.values():
            index: Dict[str, int] = {}
            chains: List[Chain] = []

            def idx_of(content_hash: str, chain: Chain) -> int:
                if content_hash not in index:
                    index[content_hash] = len(chains)
                    chains.append(_hash_named(chain, content_hash))
                return index[content_hash]

            pairs = [
                (idx_of(job.key[0], job.chain_a), idx_of(job.key[1], job.chain_b))
                for job in group
            ]
            dataset = Dataset(
                "service-batch", tuple(chains), "ad-hoc micro-batch corpus"
            )
            results = list(
                iter_pair_results(
                    dataset, pairs, group[0].method, backend=self.backend,
                )
            )
            for job, (_i, _j, scores, _counts) in zip(group, results):
                bodies[job.key] = result_body(job.key, job.method, scores)
        return [bodies[job.key] for job in jobs]
