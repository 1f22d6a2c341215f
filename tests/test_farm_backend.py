"""The long-lived farm backend: one pool per owner, shared by overlapping drains.

A service shard builds one process pool on its first drain and keeps it
until it closes; its micro-batches, matrix runs and store builds drain
on that pool concurrently, under one cap of two chunks per worker.  These
tests pin the ownership (one pool, rebuilt once after a killed worker,
nothing left running after close), the shared in-flight cap, the
worker's bounded context cache, the batcher's overlapping batches, the
orphaned-segment janitor, and that no shared-memory plane outlives the
drain that published it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.datasets.pairs import all_vs_all_pairs
from repro.datasets.registry import Dataset
from repro.faults import FarmFaultPlan
from repro.parallel import (
    FarmBackend,
    FarmStats,
    ParallelConfig,
    RetryPolicy,
    WorkerCrash,
    iter_pair_results,
    shmplane,
)
from repro.parallel import worker as _worker
from repro.psc import get_method
from repro.service import PSCService, ServiceClient, ServiceConfig
from repro.service.batcher import MicroBatcher
from repro.service.protocol import ServiceError, canonical_json

needs_two_cpus = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="on one CPU the farm evaluates chunks in-process, without a pool",
)


@pytest.fixture
def pool_probe(monkeypatch):
    """Count pool constructions and the peak of unfinished chunks."""
    probe = {"pools": 0, "futures": [], "peak": 0}
    lock = threading.Lock()
    init = ProcessPoolExecutor.__init__
    submit = ProcessPoolExecutor.submit

    def tracked_init(pool, *args, **kwargs):
        probe["pools"] += 1
        init(pool, *args, **kwargs)

    def tracked_submit(pool, fn, *args, **kwargs):
        fut = submit(pool, fn, *args, **kwargs)
        with lock:
            probe["futures"].append(fut)
            busy = sum(not f.done() for f in probe["futures"])
            probe["peak"] = max(probe["peak"], busy)
        return fut

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", tracked_init)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", tracked_submit)
    return probe


def _serial(dataset, pairs, method):
    return list(iter_pair_results(dataset, pairs, method))


def _own_planes():
    """This process's plane segments in ``/dev/shm``, by name prefix
    (none where there is no ``/dev/shm``)."""
    if not os.path.isdir("/dev/shm"):
        return []
    prefix = f"psc{os.getpid():x}-{shmplane._pid_namespace():x}-"
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))


class TestShardPool:
    CONFIG = ServiceConfig(dataset="ck34-mini", port=0, batch_window=0.001)

    @staticmethod
    def _requests(port):
        """Two concurrent tmalign searches, a repeat and an align."""
        out = {}

        def search(name):
            with ServiceClient(port=port) as c:
                out[name] = c.search(name, top=7)

        threads = [
            threading.Thread(target=search, args=(name,))
            for name in ("ck_globin_00", "ck_globin_05")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with ServiceClient(port=port) as c:
            out["repeat"] = c.search("ck_globin_00", top=7)
            out["align"] = c.align("ck_globin_00", "ck_globin_01")["result"]
            out["metrics"] = c.metrics()
        return out

    def _run(self, config):
        async def main():
            async with PSCService(config) as service:
                out = await asyncio.to_thread(self._requests, service.port)
            return service, out

        return asyncio.run(main())

    @needs_two_cpus
    def test_one_pool_per_shard(self, pool_probe):
        children = set(multiprocessing.active_children())
        _svc, want = self._run(self.CONFIG)
        assert pool_probe["pools"] == 0
        farm = dataclasses.replace(self.CONFIG, farm=ParallelConfig(workers=2))
        service, got = self._run(farm)

        assert pool_probe["pools"] == 1
        assert service.farm.pools_built == 1
        assert got["metrics"]["counters"]["farm_pools_built"] == 1
        for key in ("ck_globin_00", "ck_globin_05", "repeat", "align"):
            assert canonical_json(got[key]) == canonical_json(want[key]), key
        assert got["repeat"]["from_cache"] == 7
        # the shared cap: never more unfinished chunks than two per worker
        assert len(pool_probe["futures"]) > 4
        assert pool_probe["peak"] <= 4
        assert service.farm.closed
        assert set(multiprocessing.active_children()) <= children
        assert _own_planes() == []

    @needs_two_cpus
    def test_killed_worker_fails_one_batch_only(self, monkeypatch):
        """A shard without a retry policy: a worker killed inside one
        batch fails that request, and the next runs on a fresh pool."""
        from repro.service import batcher as _batcher

        real, calls = _batcher.iter_pair_results, []

        def first_batch_kills(dataset, pairs, method, **kwargs):
            calls.append(pairs)
            if len(calls) == 1:
                kwargs["faults"] = FarmFaultPlan.single("kill", tuple(pairs[0]))
            return real(dataset, pairs, method, **kwargs)

        monkeypatch.setattr(_batcher, "iter_pair_results", first_batch_kills)

        def requests(port):
            with ServiceClient(port=port) as c:
                with pytest.raises(ServiceError):
                    c.align("ck_globin_00", "ck_globin_01")
                return c.align("ck_globin_00", "ck_globin_01")["result"]

        async def main():
            config = dataclasses.replace(
                self.CONFIG, farm=ParallelConfig(workers=2)
            )
            async with PSCService(config) as service:
                body = await asyncio.to_thread(requests, service.port)
                return service.farm.pools_built, body

        children = set(multiprocessing.active_children())
        pools_built, body = asyncio.run(main())
        assert pools_built == 2
        assert len(calls) == 2
        assert body["score"] > 0.9
        assert set(multiprocessing.active_children()) <= children


class TestBackendFaults:
    RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.01)

    @needs_two_cpus
    def test_queue_wait_is_not_a_stall(self, ck34_mini):
        """Two workers, one-pair chunks, the first three chunks stalled
        for less than the timeout: the third waits one stall in the
        pool's queue, then runs its own.  Its deadline starts when a
        worker can take it, so no stall is charged."""
        method = get_method("sse_composition")
        pairs = list(all_vs_all_pairs(len(ck34_mini)))
        want = _serial(ck34_mini, pairs, method)
        # stall < timeout < 2 * stall: a deadline armed at submit would
        # expire while the third chunk runs its stall
        retry = RetryPolicy(
            max_retries=1, backoff_seconds=0.01, chunk_timeout_seconds=0.9
        )
        faults = FarmFaultPlan.parse(
            ",".join(f"stall:0.5@{i}-{j}" for i, j in pairs[:3])
        )
        config = ParallelConfig(workers=2, chunk=1, retry=retry)
        with FarmBackend(config) as backend:
            # a warm pool, so worker start-up is not on the clock
            assert list(
                iter_pair_results(ck34_mini, pairs, method, backend=backend)
            ) == want
            stats = FarmStats()
            got = list(
                iter_pair_results(
                    ck34_mini, pairs, method, backend=backend, stats=stats,
                    faults=faults,
                )
            )
        assert got == want
        assert stats.chunk_timeouts == 0

    @needs_two_cpus
    def test_killed_worker_rebuilds_the_pool_once(self, ck34_mini):
        """A SIGKILLed worker breaks the pool under two drains in flight:
        one rebuild serves both, both tables equal serial, and the next
        drain reuses the rebuilt pool."""
        method = get_method("tmalign")
        pairs = list(all_vs_all_pairs(len(ck34_mini)))
        want = _serial(ck34_mini, pairs, method)
        config = ParallelConfig(workers=2, chunk=2, retry=self.RETRY)
        children = set(multiprocessing.active_children())
        got, stats = {}, {}
        start = threading.Barrier(2)

        def drain(name, faults):
            stats[name] = FarmStats()
            start.wait()
            got[name] = list(
                iter_pair_results(
                    ck34_mini, pairs, method, backend=backend,
                    stats=stats[name], faults=faults,
                )
            )

        with FarmBackend(config) as backend:
            threads = [
                threading.Thread(
                    target=drain,
                    args=("killed", FarmFaultPlan.single("kill", (1, 2))),
                ),
                threading.Thread(target=drain, args=("bystander", None)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert backend.pools_built == 2
            assert got["killed"] == want
            assert got["bystander"] == want
            assert stats["killed"].pool_restarts >= 1

            again = FarmStats()
            assert list(
                iter_pair_results(
                    ck34_mini, pairs[:6], method, backend=backend, stats=again
                )
            ) == want[:6]
            assert backend.pools_built == 2
            assert again.pool_startup_s == 0.0 and again.pool_restarts == 0
        assert set(multiprocessing.active_children()) <= children

    @needs_two_cpus
    def test_killed_worker_without_retry_fails_one_drain_only(self, ck34_mini):
        """Without a retry policy a dead worker fails the drain it hit;
        the next drain gets a fresh pool, not the broken one."""
        method = get_method("sse_composition")
        pairs = list(all_vs_all_pairs(len(ck34_mini)))
        want = _serial(ck34_mini, pairs, method)
        config = ParallelConfig(workers=2, chunk=2)
        kill = FarmFaultPlan.single("kill", (1, 2))
        children = set(multiprocessing.active_children())
        with pytest.raises(WorkerCrash, match="died abruptly"):
            list(iter_pair_results(ck34_mini, pairs, method, config=config, faults=kill))
        # a temporary backend leaves no worker behind, even a broken one
        assert set(multiprocessing.active_children()) <= children
        with FarmBackend(config) as backend:
            with pytest.raises(WorkerCrash, match="died abruptly"):
                list(
                    iter_pair_results(
                        ck34_mini, pairs, method, backend=backend,
                        faults=kill,
                    )
                )
            assert list(
                iter_pair_results(ck34_mini, pairs, method, backend=backend)
            ) == want
            assert backend.pools_built == 2

    @needs_two_cpus
    def test_worker_killed_between_drains(self, ck34_mini):
        """A worker that dies while the pool is idle (an OOM kill) costs
        a rebuild, not the next drain."""
        import signal

        method = get_method("sse_composition")
        pairs = list(all_vs_all_pairs(len(ck34_mini)))
        want = _serial(ck34_mini, pairs, method)
        with FarmBackend(ParallelConfig(workers=2)) as backend:
            assert list(
                iter_pair_results(ck34_mini, pairs, method, backend=backend)
            ) == want
            pool, _gen, _built = backend._current_pool()
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert list(
                iter_pair_results(ck34_mini, pairs, method, backend=backend)
            ) == want
            assert backend.pools_built == 2

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="only fork-started workers inherit handlers",
    )
    def test_workers_die_on_sigterm(self):
        """A fork-started worker must not inherit a master's SIGTERM
        handler: the CLI's SystemExit handler can leave a terminated
        worker holding the result queue's write lock, hanging the pool."""
        import signal

        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with FarmBackend(ParallelConfig(workers=2, start_method="fork")) as backend:
                pool, _gen, _built = backend._current_pool()
                assert pool.submit(signal.getsignal, signal.SIGTERM).result() == (
                    signal.SIG_DFL
                )
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_config_must_match_the_backend(self, ck34_mini):
        with FarmBackend(ParallelConfig(workers=2)) as backend:
            with pytest.raises(ValueError):
                list(
                    iter_pair_results(
                        ck34_mini, [(0, 1)], get_method("sse_composition"),
                        config=ParallelConfig(workers=2, chunk=3),
                        backend=backend,
                    )
                )

    def test_closed_backend_refuses_drains(self, ck34_mini, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        backend = FarmBackend(ParallelConfig(workers=2))
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(
                iter_pair_results(
                    ck34_mini, [(0, 1), (0, 2)], get_method("sse_composition"),
                    backend=backend,
                )
            )
        assert backend.pools_built == 0


class TestWorkerContexts:
    def test_superseded_planes_are_detached(self, ck34_mini):
        """Evaluated in-process: three drain contexts over three planes
        leave the worker with the last two attached."""
        method = get_method("sse_composition")
        planes, views = [], []
        try:
            for k in range(3):
                ds = Dataset(f"ctx-{k}", ck34_mini.chains[k : k + 3], "ctx test")
                plane = shmplane.plane_for(ds)
                if plane is None:
                    pytest.skip("shared memory unavailable")
                planes.append(plane)
                ctx = _worker.drain_context(plane.worker_spec(), method)
                status, rows, _tb, _wall = _worker.eval_chunk([(0, 1)], 0, ctx)
                assert status == "ok"
                assert rows == _serial(ds, [(0, 1)], method)
                views.append(_worker.init_worker(ctx).view)
            assert len(_worker._CONTEXTS) == _worker.CONTEXT_CACHE == 2
            assert views[0]._coords is None  # detached
            assert views[1]._coords is not None and views[2]._coords is not None
        finally:
            _worker._detach_planes()
            for plane in planes:
                plane.unlink()

    def test_large_context_is_sent_on_a_miss_only(self, ck34_mini):
        """A context without its blob is served from the cache, or
        bounced back for the blob when the worker has not seen it."""
        method = get_method("sse_composition")
        key, blob = _worker.drain_context(("pickle", ck34_mini), method)
        try:
            assert _worker.eval_chunk([(0, 1)], 0, (key, None))[0] == "context"
            status, rows, _tb, _wall = _worker.eval_chunk([(0, 1)], 0, (key, blob))
            assert status == "ok"
            assert _worker.eval_chunk([(0, 2)], 0, (key, None))[0] == "ok"
            assert rows == _serial(ck34_mini, [(0, 1)], method)
        finally:
            _worker._detach_planes()

    @needs_two_cpus
    def test_pickled_dataset_goes_to_each_worker_once(self, ck34_mini):
        """Over the pickle path the dataset is not shipped per chunk:
        about once per worker, however many chunks the drain has."""
        method = get_method("sse_composition")
        ds = Dataset("adhoc", ck34_mini.chains, "not in the registry")
        pairs = list(all_vs_all_pairs(len(ds)))
        _key, blob = _worker.drain_context(("pickle", ds), method)
        stats = FarmStats()
        config = ParallelConfig(workers=2, chunk=1, shm=False)
        got = list(iter_pair_results(ds, pairs, method, config=config, stats=stats))
        assert got == _serial(ds, pairs, method)
        assert stats.n_chunks == len(pairs) > 8
        assert 0 < stats.bytes_to_workers <= 4 * len(blob)

    def test_context_key_tracks_content(self, ck34_mini):
        method = get_method("sse_composition")
        spec = ("registry", "ck34-mini")
        a = _worker.drain_context(spec, method)
        assert a == _worker.drain_context(spec, method)
        assert a[0] != _worker.drain_context(spec, get_method("tmalign"))[0]
        assert a[0] != _worker.drain_context(spec, method, query=ck34_mini[0])[0]


class TestOverlappingBatches:
    def test_batches_overlap_up_to_the_worker_count(self):
        """With a two-worker farm the batcher keeps two batches in
        flight; each batch's waiters resolve when that batch is done."""
        active, peak = [0], [0]
        lock = threading.Lock()

        def evaluate(jobs):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            time.sleep(0.05)
            with lock:
                active[0] -= 1
            return [f"body-{job.key[0]}" for job in jobs]

        async def main():
            b = MicroBatcher(
                max_batch=1, batch_window=0.0, evaluate=evaluate,
                backend=backend,
            )
            b.start()
            method = get_method("sse_composition")
            from repro.datasets.registry import load_dataset

            chain = load_dataset("ck34-mini")[0]
            bodies = await asyncio.gather(*(
                b.submit((f"h{k}", "x", "m", "p"), chain, chain, method)
                for k in range(6)
            ))
            await b.stop()
            return b, bodies

        with FarmBackend(ParallelConfig(workers=2)) as backend:
            b, bodies = asyncio.run(main())
        assert backend.pools_built == 0  # the injected evaluate ran
        assert b.max_inflight == 2
        assert peak[0] == 2
        assert bodies == [f"body-h{k}" for k in range(6)]

    def test_serial_farm_keeps_one_batch_in_flight(self):
        assert MicroBatcher(evaluate=lambda jobs: []).max_inflight == 1


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestJanitor:
    def test_first_plane_for_unlinks_dead_owners_segments(
        self, ck34_mini, monkeypatch
    ):
        ns = shmplane._pid_namespace()
        if ns == 0:
            pytest.skip("PID namespace not readable")
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        dead = f"/dev/shm/psc{child.pid:x}-{ns:x}-jantst-0"
        mine = f"/dev/shm/psc{os.getpid():x}-{ns:x}-jantst-0"
        # a dead-looking pid of another PID namespace sharing /dev/shm
        # may be a live process over there
        foreign = f"/dev/shm/psc{child.pid:x}-{ns + 1:x}-jantst-0"
        paths = (dead, mine, foreign)
        for path in paths:
            with open(path, "wb") as fh:
                fh.write(b"x")
        monkeypatch.setattr(shmplane, "_SWEPT", False)
        try:
            shmplane.plane_for(ck34_mini).unlink()
            assert not os.path.exists(dead)
            assert os.path.exists(mine)  # a live owner keeps its segments
            assert os.path.exists(foreign)
            assert shmplane._SWEPT
        finally:
            for path in paths:
                if os.path.exists(path):
                    os.unlink(path)


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestPlaneLifetime:
    """A plane lives exactly one drain: however the drain ends, its
    segment is gone from ``/dev/shm`` when the generator is done."""

    CONFIG = ParallelConfig(workers=2, chunk=2, shm=True)

    @pytest.fixture(autouse=True)
    def _no_planes_before(self):
        shmplane.shutdown_planes()
        assert _own_planes() == []

    def test_completed_drain(self, ck34_mini):
        method = get_method("sse_composition")
        pairs = list(all_vs_all_pairs(len(ck34_mini)))
        want = _serial(ck34_mini, pairs, method)
        stats = FarmStats()
        got = list(
            iter_pair_results(
                ck34_mini, pairs, method, config=self.CONFIG, stats=stats
            )
        )
        assert got == want and stats.shm_plane
        assert _own_planes() == []
        # a long-lived backend keeps its pool between drains, not a plane
        with FarmBackend(self.CONFIG) as backend:
            assert list(
                iter_pair_results(ck34_mini, pairs, method, backend=backend)
            ) == want
            assert _own_planes() == []

    def test_drain_that_raises_workercrash(self, ck34_mini):
        kill = FarmFaultPlan.single("kill", (1, 2))
        with pytest.raises(WorkerCrash, match="died abruptly"):
            list(
                iter_pair_results(
                    ck34_mini, list(all_vs_all_pairs(len(ck34_mini))),
                    get_method("sse_composition"), config=self.CONFIG,
                    faults=kill,
                )
            )
        assert _own_planes() == []

    def test_drain_closed_after_its_first_result(self, ck34_mini):
        gen = iter_pair_results(
            ck34_mini, list(all_vs_all_pairs(len(ck34_mini))),
            get_method("sse_composition"), config=self.CONFIG,
        )
        next(gen)
        assert len(_own_planes()) == 1  # published for this drain
        gen.close()
        assert _own_planes() == []

    def test_pool_rebuilt_mid_drain(self, ck34_mini):
        method = get_method("sse_composition")
        pairs = list(all_vs_all_pairs(len(ck34_mini)))
        stats = FarmStats()
        config = dataclasses.replace(
            self.CONFIG, retry=RetryPolicy(max_retries=2, backoff_seconds=0.01)
        )
        got = list(
            iter_pair_results(
                ck34_mini, pairs, method, config=config, stats=stats,
                faults=FarmFaultPlan.single("kill", (1, 2)),
            )
        )
        assert got == _serial(ck34_mini, pairs, method)
        assert stats.shm_plane and stats.pool_restarts >= 1
        assert _own_planes() == []

    def test_stall_duplicate_outliving_its_drain(self, ck34_mini):
        """A stalled chunk still running when its drain has ended and
        unlinked the plane: the next drain on the backend is unharmed,
        and a chunk that attaches to the gone plane gets an error
        result, not a dead worker."""
        method = get_method("sse_composition")
        pairs = list(all_vs_all_pairs(len(ck34_mini)))
        want = _serial(ck34_mini, pairs, method)
        retry = RetryPolicy(
            max_retries=1, backoff_seconds=0.01, chunk_timeout_seconds=0.2
        )
        config = dataclasses.replace(self.CONFIG, retry=retry)
        stall = FarmFaultPlan.single("stall", (0, 1), stall_seconds=1.0)
        with FarmBackend(config) as backend:
            stats = FarmStats()
            assert list(
                iter_pair_results(
                    ck34_mini, pairs, method, backend=backend, stats=stats,
                    faults=stall,
                )
            ) == want
            assert stats.chunk_timeouts >= 1
            assert list(
                iter_pair_results(ck34_mini, pairs, method, backend=backend)
            ) == want
        assert _own_planes() == []

        plane = shmplane.plane_for(ck34_mini)
        context = _worker.drain_context(plane.worker_spec(), method)
        plane.unlink()
        status, _pair, remote_tb, _wall = _worker.eval_chunk([(0, 1)], 0, context)
        assert status == "error" and "PlaneUnavailable" in remote_tb

    def test_service_keeps_no_plane(self):
        """A two-worker shard holds no segment between requests, and
        none after it closes."""

        def requests(port):
            with ServiceClient(port=port) as c:
                search = c.search("ck_globin_00", top=3)
                return search, _own_planes()

        async def main():
            config = dataclasses.replace(
                TestShardPool.CONFIG, farm=ParallelConfig(workers=2)
            )
            async with PSCService(config) as service:
                return await asyncio.to_thread(requests, service.port)

        search, between = asyncio.run(main())
        assert search["from_cache"] == 0
        assert between == []
        assert _own_planes() == []
