"""Micro-batcher: admission control, coalescing, batched dispatch."""

import asyncio
import threading

import pytest

from repro.psc import get_method
from repro.service import MicroBatcher, pair_key, resolve_method
from repro.service.protocol import ServiceError, ServiceOverloaded
from repro.service.registry import chain_content_hash


def key(tag: str):
    return pair_key(f"a-{tag}", f"b-{tag}", "test", "p0")


class TestOverload:
    def test_full_queue_sheds_while_inflight_completes(self):
        """queue_limit=1: job 1 dispatches, job 2 queues, job 3 is shed
        with a typed ServiceOverloaded — and 1+2 still complete."""
        release = threading.Event()
        started = threading.Event()

        def evaluate(jobs):
            started.set()
            assert release.wait(10), "test deadlock: release never set"
            return [f"body:{job.key[0]}" for job in jobs]

        async def scenario():
            b = MicroBatcher(
                queue_limit=1, max_batch=1, batch_window=0.0, evaluate=evaluate
            )
            b.start()
            t1 = asyncio.ensure_future(b.submit(key("1"), None, None, None))
            while not started.is_set():  # job 1 is now inside evaluate
                await asyncio.sleep(0.001)
            t2 = asyncio.ensure_future(b.submit(key("2"), None, None, None))
            while b.depth < 1:  # job 2 admitted to the bounded queue
                await asyncio.sleep(0.001)
            with pytest.raises(ServiceOverloaded, match="queue is full"):
                await b.submit(key("3"), None, None, None)
            assert b.metrics.counters["batcher_shed"] == 1
            release.set()
            assert await t1 == "body:a-1"
            assert await t2 == "body:a-2"
            await b.stop()

        asyncio.run(scenario())

    def test_shed_job_can_be_resubmitted_after_drain(self):
        def evaluate(jobs):
            return [f"body:{job.key[0]}" for job in jobs]

        async def scenario():
            b = MicroBatcher(
                queue_limit=2, max_batch=2, batch_window=0.0, evaluate=evaluate
            )
            # saturate the queue before starting the drain loop, so the
            # admission decision is fully deterministic
            loop_tasks = [
                asyncio.ensure_future(b.submit(key(str(i)), None, None, None))
                for i in range(2)
            ]
            await asyncio.sleep(0)  # let both submits enqueue
            assert b.depth == 2
            with pytest.raises(ServiceOverloaded):
                await b.submit(key("late"), None, None, None)
            b.start()
            await asyncio.gather(*loop_tasks)
            # capacity freed: the very same job is admitted now
            assert await b.submit(key("late"), None, None, None) == "body:a-late"
            await b.stop()

        asyncio.run(scenario())


class TestCoalescing:
    def test_identical_inflight_requests_share_one_evaluation(self):
        calls = []

        def evaluate(jobs):
            calls.append([j.key for j in jobs])
            return ["body"] * len(jobs)

        async def scenario():
            b = MicroBatcher(
                queue_limit=8, max_batch=8, batch_window=0.02, evaluate=evaluate
            )
            b.start()
            k = key("same")
            bodies = await asyncio.gather(
                *(b.submit(k, None, None, None) for _ in range(5))
            )
            assert bodies == ["body"] * 5
            assert sum(len(c) for c in calls) == 1  # one job evaluated
            assert b.metrics.counters["batcher_coalesced"] == 4
            await b.stop()

        asyncio.run(scenario())

    def test_coalesced_jobs_do_not_consume_queue_capacity(self):
        release = threading.Event()
        started = threading.Event()

        def evaluate(jobs):
            started.set()
            release.wait(10)
            return ["body"] * len(jobs)

        async def scenario():
            b = MicroBatcher(
                queue_limit=1, max_batch=1, batch_window=0.0, evaluate=evaluate
            )
            b.start()
            t1 = asyncio.ensure_future(b.submit(key("x"), None, None, None))
            while not started.is_set():
                await asyncio.sleep(0.001)
            # the same key coalesces onto the in-flight job instead of
            # being shed, even though the queue is at capacity 0/1 + busy
            t2 = asyncio.ensure_future(b.submit(key("x"), None, None, None))
            await asyncio.sleep(0.01)
            assert not t2.done()
            release.set()
            assert await t1 == "body" and await t2 == "body"
            await b.stop()

        asyncio.run(scenario())


class TestDispatch:
    def test_jobs_coalesce_into_one_batch(self):
        calls = []

        def evaluate(jobs):
            calls.append(len(jobs))
            return ["body"] * len(jobs)

        async def scenario():
            b = MicroBatcher(
                queue_limit=8, max_batch=8, batch_window=0.05, evaluate=evaluate
            )
            b.start()
            await asyncio.gather(
                *(b.submit(key(str(i)), None, None, None) for i in range(3))
            )
            assert calls == [3]  # window let the stragglers coalesce
            assert b.metrics.counters["batches_dispatched"] == 1
            assert b.metrics.counters["jobs_dispatched"] == 3
            await b.stop()

        asyncio.run(scenario())

    def test_max_batch_splits_large_queues(self):
        calls = []

        def evaluate(jobs):
            calls.append(len(jobs))
            return ["body"] * len(jobs)

        async def scenario():
            b = MicroBatcher(
                queue_limit=16, max_batch=2, batch_window=0.0, evaluate=evaluate
            )
            b.start()
            await asyncio.gather(
                *(b.submit(key(str(i)), None, None, None) for i in range(5))
            )
            assert sum(calls) == 5
            assert max(calls) <= 2
            await b.stop()

        asyncio.run(scenario())

    def test_evaluation_failure_maps_to_service_error(self):
        def evaluate(jobs):
            raise RuntimeError("kernel exploded")

        async def scenario():
            b = MicroBatcher(queue_limit=4, batch_window=0.0, evaluate=evaluate)
            b.start()
            with pytest.raises(ServiceError, match="kernel exploded"):
                await b.submit(key("boom"), None, None, None)
            assert b.metrics.counters["batches_failed"] == 1
            # the batcher survives a failed batch and keeps dispatching
            with pytest.raises(ServiceError):
                await b.submit(key("boom2"), None, None, None)
            await b.stop()

        asyncio.run(scenario())

    def test_default_evaluate_matches_direct_method_call(self, ck34_mini):
        """The real farm path: an ad-hoc batch over dataset chains gives
        exactly the scores a direct method.compare would."""
        method, params_hash = resolve_method("sse_composition", None)
        a, b_, c = ck34_mini[0], ck34_mini[1], ck34_mini[2]
        ha, hb, hc = (chain_content_hash(x) for x in (a, b_, c))

        async def scenario():
            batcher = MicroBatcher(queue_limit=8, max_batch=8, batch_window=0.02)
            batcher.start()
            bodies = await asyncio.gather(
                batcher.submit(
                    pair_key(ha, hb, "sse_composition", params_hash), a, b_, method
                ),
                batcher.submit(
                    pair_key(ha, hc, "sse_composition", params_hash), a, c, method
                ),
            )
            await batcher.stop()
            return bodies

        import json

        from repro.cost.counters import CostCounter

        bodies = asyncio.run(scenario())
        direct = get_method("sse_composition")
        for body, other in zip(bodies, (b_, c)):
            doc = json.loads(body)
            assert doc["scores"] == dict(direct.compare(a, other, CostCounter()))
            assert doc["pair"] == [ha, chain_content_hash(other)]

    def test_mixed_methods_batch_in_one_dispatch(self, ck34_mini):
        """One batch holding two parameterisations still produces correct
        per-job results (grouped farm calls under the hood)."""
        m_sse, h_sse = resolve_method("sse_composition", None)
        m_rmsd, h_rmsd = resolve_method("kabsch_rmsd", None)
        a, b_ = ck34_mini[0], ck34_mini[1]
        ha, hb = chain_content_hash(a), chain_content_hash(b_)

        async def scenario():
            batcher = MicroBatcher(queue_limit=8, max_batch=8, batch_window=0.02)
            batcher.start()
            bodies = await asyncio.gather(
                batcher.submit(pair_key(ha, hb, "sse_composition", h_sse), a, b_, m_sse),
                batcher.submit(pair_key(ha, hb, "kabsch_rmsd", h_rmsd), a, b_, m_rmsd),
            )
            await batcher.stop()
            return bodies, batcher.metrics.counters["batches_dispatched"]

        import json

        (body_sse, body_rmsd), n_batches = asyncio.run(scenario())
        assert n_batches == 1
        assert json.loads(body_sse)["method"] == "sse_composition"
        assert json.loads(body_rmsd)["method"] == "kabsch_rmsd"

    def test_submit_after_stop_is_rejected(self):
        async def scenario():
            b = MicroBatcher(evaluate=lambda jobs: ["x"] * len(jobs))
            b.start()
            await b.stop()
            with pytest.raises(ServiceError, match="shutting down"):
                await b.submit(key("late"), None, None, None)

        asyncio.run(scenario())
