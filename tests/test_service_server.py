"""End-to-end TCP tests of the PSC query service.

Each test boots a real :class:`PSCService` on a free port inside
``asyncio.run`` and drives it with the blocking :class:`ServiceClient`
from worker threads (``asyncio.to_thread``), exactly how an external
process would talk to it.
"""

import asyncio
import dataclasses
import json
import os
import socket
import threading

import pytest

from repro.service import PSCService, ServiceClient, ServiceConfig
from repro.service.protocol import (
    BadRequest,
    NotFound,
    ServiceOverloaded,
    canonical_json,
)

#: fast service config for tests: tiny corpus, cheap default method lives
#: on the wire anyway (each test names its method explicitly)
CONFIG = ServiceConfig(dataset="ck34-mini", port=0, batch_window=0.001)


def with_service(client_fn, config=CONFIG, evaluate=None):
    """Boot a service, run ``client_fn(port)`` in a thread, return
    ``(service, client_result)`` after a clean close."""

    async def main():
        async with PSCService(config, evaluate=evaluate) as service:
            result = await asyncio.to_thread(client_fn, service.port)
            return service, result

    return asyncio.run(main())


def _stub_bodies(jobs):
    """One canned result body per job, in job order."""
    return [
        canonical_json(
            {
                "pair": [j.key[0], j.key[1]],
                "method": j.method_name,
                "params_hash": j.params_hash,
                "scores": {"similarity": 1.0},
                "score": 1.0,
            }
        )
        for j in jobs
    ]


class TestAlignAndCache:
    def test_repeat_align_is_cached_and_byte_identical(self):
        def client(port):
            with ServiceClient(port=port) as c:
                r1 = c.align(
                    "ck_globin_00", "ck_globin_01", method="sse_composition"
                )
                r2 = c.align(
                    "ck_globin_00", "ck_globin_01", method="sse_composition"
                )
                metrics = c.metrics()
                return r1, r2, metrics

        service, (r1, r2, metrics) = with_service(client)
        assert r1["cached"] is False and r2["cached"] is True
        # the acceptance criterion: the cached JSON body is byte-identical
        assert canonical_json(r1["result"]) == canonical_json(r2["result"])
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 1
        assert metrics["counters"]["requests_align"] == 2
        assert metrics["latency"]["op_align"]["count"] == 2

    def test_tmalign_params_change_misses_the_cache(self):
        def client(port):
            with ServiceClient(port=port) as c:
                r1 = c.align("ck_globin_00", "ck_globin_01")
                r2 = c.align(
                    "ck_globin_00",
                    "ck_globin_01",
                    params={"max_refine_iters": 2},
                )
                r3 = c.align("ck_globin_00", "ck_globin_01")
                return r1, r2, r3

        _svc, (r1, r2, r3) = with_service(client)
        assert r1["cached"] is False
        assert r2["cached"] is False  # different params: a different entry
        assert r3["cached"] is True  # default params still cached
        assert r1["result"]["params_hash"] != r2["result"]["params_hash"]
        assert canonical_json(r1["result"]) == canonical_json(r3["result"])

    def test_hash_and_prefix_references_hit_the_same_entry(self):
        def client(port):
            with ServiceClient(port=port) as c:
                r1 = c.align(
                    "ck_globin_00", "ck_globin_01", method="sse_composition"
                )
                full_hash = r1["result"]["pair"][0]
                r2 = c.align(
                    full_hash[:16], "ck_globin_01", method="sse_composition"
                )
                return r1, r2

        _svc, (r1, r2) = with_service(client)
        assert r2["cached"] is True  # same content, different spelling

    def test_unknown_chain_is_not_found(self):
        def client(port):
            with ServiceClient(port=port) as c:
                with pytest.raises(NotFound):
                    c.align("no_such_chain", "ck_globin_00")
                return True

        assert with_service(client)[1]


class TestSearch:
    def test_search_ranks_the_corpus(self):
        def client(port):
            with ServiceClient(port=port) as c:
                result = c.search(
                    "ck_globin_00", top=3, method="sse_composition"
                )
                again = c.search(
                    "ck_globin_00", top=3, method="sse_composition"
                )
                return result, again

        _svc, (result, again) = with_service(client)
        assert result["corpus"] == 7  # 8 chains minus the query itself
        assert len(result["hits"]) == 3
        scores = [h["score"] for h in result["hits"]]
        assert scores == sorted(scores, reverse=True)
        assert result["from_cache"] == 0
        assert again["from_cache"] == 7  # second pass fully cache-served
        assert result["hits"] == again["hits"]

    def test_search_agrees_with_serial_one_vs_all(self, ck34_mini):
        from repro.psc import get_method, one_vs_all

        def client(port):
            with ServiceClient(port=port) as c:
                return c.search(
                    "ck_globin_00", top=7, method="sse_composition"
                )

        _svc, result = with_service(client)
        expected = one_vs_all(
            ck34_mini.by_name("ck_globin_00"),
            ck34_mini,
            method=get_method("sse_composition"),
        )
        expected = [h for h in expected if h.chain_name != "ck_globin_00"]
        assert [h["chain"] for h in result["hits"]] == [
            h.chain_name for h in expected
        ]


class TestFarmPath:
    def test_farm_service_answers_byte_identically(self):
        """Two farm workers behind the batcher: every batch drains on the
        shard's pool over its own plane and answers exactly as the
        in-process service does."""
        from repro.parallel import ParallelConfig

        def client(port):
            with ServiceClient(port=port) as c:
                search = c.search("ck_globin_00", top=7)
                align = c.align("ck_globin_01", "ck_globin_02")
                return search, align["result"]

        _svc, (want_search, want_align) = with_service(client)
        farm = dataclasses.replace(CONFIG, farm=ParallelConfig(workers=2))
        svc, (search, align) = with_service(client, config=farm)
        assert search["from_cache"] == 0
        assert canonical_json(search) == canonical_json(want_search)
        assert canonical_json(align) == canonical_json(want_align)
        if (os.cpu_count() or 1) >= 2:  # one CPU: chunks run in-process
            assert svc.farm.pools_built == 1


class TestRegisterAndRuns:
    def test_register_then_align_uploaded_chain(self, ck34_mini, tmp_path):
        from repro.structure import write_pdb_file

        path = tmp_path / "up.pdb"
        write_pdb_file(ck34_mini[0], path)
        text = path.read_text()

        def client(port):
            with ServiceClient(port=port) as c:
                info = c.register_pdb("uploaded", text)
                r = c.align("uploaded", "ck_globin_01", method="sse_composition")
                return info, r

        _svc, (info, r) = with_service(client)
        assert info["residues"] == len(ck34_mini[0])
        assert r["result"]["pair"][0] == info["hash"]

    def test_submit_matrix_runs_to_completion(self, tmp_path):
        runs_dir = str(tmp_path / "runs")

        def client(port):
            with ServiceClient(port=port) as c:
                info = c.submit_matrix(
                    dataset="ck34-mini",
                    method="sse_composition",
                    runs_dir=runs_dir,
                )
                import time

                for _ in range(200):  # poll to completion (fast method)
                    status = c.status(info["run_id"], runs_dir=runs_dir)
                    if status["status"] in ("complete", "failed"):
                        break
                    time.sleep(0.05)
                return info, status, c.metrics()

        _svc, (info, status, metrics) = with_service(client)
        assert info["n_pairs"] == 28
        assert status["status"] == "complete"
        assert status["done"] == 28 and status["n_pairs"] == 28
        assert metrics["matrix_runs"][info["run_id"]] == "done"
        # the durable artefact exists where submit-matrix said it would
        with open(info["output"], encoding="ascii") as fh:
            assert fh.readline().startswith("chain_a,chain_b")

    def test_status_of_unknown_run_is_not_found(self, tmp_path):
        def client(port):
            with ServiceClient(port=port) as c:
                with pytest.raises(NotFound):
                    c.status("no-such-run", runs_dir=str(tmp_path / "empty"))
                return True

        assert with_service(client)[1]


class TestOverloadEndToEnd:
    def test_saturated_queue_sheds_typed_errors_without_stalling(self):
        """N concurrent clients vs a capacity-1 queue: the surplus gets
        ServiceOverloaded, everything admitted completes, and the server
        keeps answering (healthz) throughout."""
        release = threading.Event()
        started = threading.Event()

        def evaluate(jobs):
            started.set()
            assert release.wait(30), "test deadlock: release never set"
            return _stub_bodies(jobs)

        config = ServiceConfig(
            dataset="ck34-mini",
            port=0,
            queue_limit=1,
            max_batch=1,
            batch_window=0.0,
        )
        pairs = [("ck_globin_00", f"ck_globin_0{i}") for i in range(1, 6)]

        def client(port):
            outcomes = []
            lock = threading.Lock()

            def one(a, b):
                with ServiceClient(port=port) as c:
                    try:
                        r = c.align(a, b, method="sse_composition")
                        with lock:
                            outcomes.append(("ok", r["result"]["pair"]))
                    except ServiceOverloaded as exc:
                        with lock:
                            outcomes.append(("shed", str(exc)))

            first = threading.Thread(target=one, args=pairs[0])
            first.start()
            assert started.wait(10)  # pair 0 occupies the evaluator
            rest = [threading.Thread(target=one, args=p) for p in pairs[1:]]
            for t in rest:
                t.start()
            # the event loop is still live while the queue is saturated
            import time

            deadline = 200
            with ServiceClient(port=port) as c:
                while deadline:
                    if c.metrics()["counters"].get("batcher_shed", 0) >= 3:
                        break
                    deadline -= 1
                    time.sleep(0.02)
                assert deadline, "expected >= 3 shed jobs"
                assert c.healthz()["status"] == "ok"
            release.set()
            for t in [first, *rest]:
                t.join(timeout=30)
            return outcomes

        _svc, outcomes = with_service(client, config=config, evaluate=evaluate)
        served = [o for o in outcomes if o[0] == "ok"]
        shed = [o for o in outcomes if o[0] == "shed"]
        assert len(served) == 2  # the in-flight job + the one queued slot
        assert len(shed) == 3
        for _tag, message in shed:
            assert "queue is full" in message

    def test_search_reports_shedding_as_overloaded(self):
        """A search that cannot admit all its pair jobs fails typed, not
        half-silently."""
        import time

        def evaluate(jobs):
            # hold each admitted job's batch so the queue stays full
            # while the rest of the search's jobs arrive
            time.sleep(0.05)
            return _stub_bodies(jobs)

        config = ServiceConfig(
            dataset="ck34-mini",
            port=0,
            queue_limit=2,
            max_batch=1,
            batch_window=0.0,
        )

        def client(port):
            with ServiceClient(port=port) as c:
                try:
                    c.search("ck_globin_00", method="sse_composition")
                    return None
                except ServiceOverloaded as exc:
                    return str(exc)

        _svc, message = with_service(client, config=config, evaluate=evaluate)
        assert message is not None and "search shed" in message
        assert "retry later" in message

    def test_shedding_search_replies_before_admitted_jobs_finish(self):
        """The overloaded reply does not wait for the jobs the search did
        admit: they are held until the client has its reply, then finish
        into the cache, and no job's exception goes unretrieved."""
        import gc
        import re

        release = threading.Event()
        held = []

        def evaluate(jobs):
            held.append(release.wait(timeout=5))
            return _stub_bodies(jobs)

        config = ServiceConfig(
            dataset="ck34-mini",
            port=0,
            queue_limit=2,
            max_batch=1,
            batch_window=0.0,
        )

        def client(port):
            try:
                with ServiceClient(port=port) as c:
                    with pytest.raises(ServiceOverloaded) as err:
                        c.search("ck_globin_00", method="sse_composition")
                    return str(err.value)
            finally:
                release.set()

        lost = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, ctx: lost.append(ctx))
            async with PSCService(config, evaluate=evaluate) as service:
                message = await asyncio.to_thread(client, service.port)
            gc.collect()
            return service, message

        service, message = asyncio.run(main())
        assert held and all(held)  # no evaluate waited out its hold
        shed, total = map(int, re.search(r"shed (\d+)/(\d+)", message).groups())
        assert 0 < shed < total
        assert len(service.cache) == total - shed
        assert lost == []


class TestProtocolEdges:
    def test_unknown_op_and_garbage_line(self):
        def client(port):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                f = s.makefile("rwb")
                f.write(b'{"id": 1, "op": "frobnicate"}\n')
                f.flush()
                bad_op = json.loads(f.readline())
                f.write(b"this is not json\n")
                f.flush()
                garbage = json.loads(f.readline())
                return bad_op, garbage

        _svc, (bad_op, garbage) = with_service(client)
        assert bad_op["ok"] is False
        assert bad_op["error"]["code"] == "bad-request"
        assert "frobnicate" in bad_op["error"]["message"]
        assert garbage["ok"] is False
        assert garbage["error"]["code"] == "bad-request"

    def test_missing_field_is_bad_request(self):
        def client(port):
            with ServiceClient(port=port) as c:
                with pytest.raises(BadRequest, match="non-empty string"):
                    c.request("align", a="ck_globin_00")  # no "b"
                return True

        assert with_service(client)[1]

    def test_healthz_shape(self):
        def client(port):
            with ServiceClient(port=port) as c:
                return c.healthz()

        _svc, h = with_service(client)
        assert h["status"] == "ok"
        assert h["dataset"] == "ck34-mini"
        assert h["corpus"] == 8 and h["chains"] == 8
        assert h["uptime_seconds"] >= 0


class TestShutdown:
    def test_shutdown_op_stops_the_server(self):
        async def main():
            async with PSCService(CONFIG) as service:
                waiter = asyncio.ensure_future(service.serve_until_stopped())

                def client(port):
                    with ServiceClient(port=port) as c:
                        assert c.shutdown() == {"stopping": True}

                await asyncio.to_thread(client, service.port)
                await asyncio.wait_for(waiter, timeout=5)
                return True

        assert asyncio.run(main())


class TestPrefilteredSearch:
    #: the mini corpus (7 eligible) never demotes under min_keep=10, so
    #: the prefilter paths are driven on the full ck34 corpus
    CK34_CONFIG = ServiceConfig(dataset="ck34", port=0, batch_window=0.001)

    def test_prefilter_response_shape_and_subset(self):
        def client(port):
            with ServiceClient(port=port) as c:
                exact = c.search(
                    "ck_globin_00", top=33, method="sse_composition"
                )
                pre = c.search(
                    "ck_globin_00", top=33, method="sse_composition",
                    prefilter=True, prefilter_keep=0.1,
                )
                metrics = c.metrics()
                return exact, pre, metrics

        _service, (exact, pre, metrics) = with_service(
            client, config=self.CK34_CONFIG
        )
        # default responses carry no prefilter fields at all
        assert "prefilter" not in exact
        assert exact["corpus"] == 33
        # opt-in responses record the demotion arithmetic
        assert pre["corpus"] == 33
        assert pre["prefilter"]["keep"] == 0.1
        assert pre["prefilter"]["promoted"] == 10  # min_keep floor
        assert pre["prefilter"]["demoted"] == 23
        assert len(pre["hits"]) == 10
        # the prefiltered ranking is the exact ranking minus demotions
        kept = {h["chain"] for h in pre["hits"]}
        exact_kept = [h["chain"] for h in exact["hits"] if h["chain"] in kept]
        assert [h["chain"] for h in pre["hits"]] == exact_kept
        assert metrics["counters"]["prefilter_searches"] == 1
        assert metrics["counters"]["prefilter_demoted"] == 23

    def test_prefilter_built_once_per_corpus_and_keep(self):
        def client(port):
            with ServiceClient(port=port) as c:
                c.search("ck_globin_00", method="sse_composition",
                         prefilter=True, prefilter_keep=0.1)
                c.search("ck_globin_01", method="sse_composition",
                         prefilter=True, prefilter_keep=0.1)
                c.search("ck_globin_02", method="sse_composition",
                         prefilter=True, prefilter_keep=0.2)
                return c.metrics()

        _service, metrics = with_service(client, config=self.CK34_CONFIG)
        # same corpus + keep reuses the encoded prefilter; a new keep
        # builds a second one
        assert metrics["counters"]["prefilter_builds"] == 2
        assert metrics["counters"]["prefilter_searches"] == 3

    def test_bad_top_and_keep_are_typed_errors(self):
        def client(port):
            with ServiceClient(port=port) as c:
                with pytest.raises(BadRequest, match="top"):
                    c.search("ck_globin_00", top=0, method="sse_composition")
                with pytest.raises(BadRequest, match="prefilter_keep"):
                    c.search("ck_globin_00", method="sse_composition",
                             prefilter=True, prefilter_keep=1.5)
                # the connection survives both rejections
                return c.healthz()

        _service, health = with_service(client)
        assert health["status"] == "ok"


class TestMatstore:
    """The durable matrix store wired through the service: cache-before-
    compute on align, lookup/build ops, stats in status and metrics."""

    @pytest.fixture(scope="class")
    def store_root(self, ck34_mini, tmp_path_factory):
        from repro.matstore import build_store

        root = str(tmp_path_factory.mktemp("svc_matstore") / "store")
        build_store(ck34_mini, root)
        return root

    def _config(self, root):
        return ServiceConfig(
            dataset="ck34-mini", port=0, batch_window=0.001, matstore_dir=root
        )

    def test_align_is_served_from_the_store(self, store_root):
        def client(port):
            with ServiceClient(port=port) as c:
                r1 = c.align(
                    "ck_globin_00", "ck_globin_01", method="tmalign_full"
                )
                r2 = c.align(
                    "ck_globin_00", "ck_globin_01", method="tmalign_full"
                )
                return r1, r2, c.metrics()

        _svc, (r1, r2, metrics) = with_service(
            client, config=self._config(store_root)
        )
        # the very first align is a store hit — no kernel batch ran
        assert r1["cached"] is True and r2["cached"] is True
        assert canonical_json(r1["result"]) == canonical_json(r2["result"])
        assert metrics["counters"]["matstore_hits"] >= 1
        assert metrics["counters"].get("batches_dispatched", 0) == 0
        assert metrics["matstore"]["attached"] is True
        assert metrics["matstore"]["pairs_stored"] == 28

    def test_store_hits_are_byte_identical_across_restarts(self, store_root):
        def client(port):
            with ServiceClient(port=port) as c:
                return c.align(
                    "ck_globin_02", "ck_globin_05", method="tmalign_full"
                )

        _s1, first = with_service(client, config=self._config(store_root))
        _s2, second = with_service(client, config=self._config(store_root))
        assert canonical_json(first["result"]) == canonical_json(
            second["result"]
        )

    def test_matstore_lookup_op(self, store_root):
        def client(port):
            with ServiceClient(port=port) as c:
                hit = c.matstore_lookup("ck_globin_00", "ck_globin_03")
                with pytest.raises(NotFound):
                    c.matstore_lookup("ck_globin_00", "ck_globin_00")
                return hit, c.status()

        _svc, (hit, status) = with_service(
            client, config=self._config(store_root)
        )
        assert hit["method"] == "tmalign_full"
        assert set(hit["scores"]) == {
            "gdt_ts", "lddt", "n_aligned", "rmsd", "seq_identity",
            "tm_norm_a", "tm_norm_b",
        }
        assert status["matstore"]["attached"] is True
        assert status["matstore"]["lookup_hits"] == 1

    def test_lookup_without_store_is_bad_request(self):
        def client(port):
            with ServiceClient(port=port) as c:
                with pytest.raises(BadRequest, match="store"):
                    c.matstore_lookup("ck_globin_00", "ck_globin_01")
                return c.status()

        _svc, status = with_service(client)
        assert status["matstore"]["attached"] is False

    def test_matstore_build_op_builds_in_background(self, tmp_path):
        import time

        root = str(tmp_path / "built_by_op")
        config = ServiceConfig(
            dataset="ck34-mini", port=0, batch_window=0.001, matstore_dir=root
        )

        def client(port):
            with ServiceClient(port=port) as c:
                started = c.matstore_build()
                for _ in range(200):
                    status = c.status()
                    ms = status["matstore"]
                    if ms.get("attached") and not ms.get("building"):
                        break
                    time.sleep(0.05)
                hit = c.matstore_lookup("ck_globin_00", "ck_globin_01")
                return started, c.status(), hit

        _svc, (started, status, hit) = with_service(client, config=config)
        assert started["building"] is True
        assert started["n_pairs"] == 28
        assert status["matstore"]["pairs_stored"] == 28
        assert status["matstore"].get("error") is None
        assert hit["scores"]["tm_norm_b"] > 0

    def test_register_extends_the_store_by_one_row(
        self, store_root, ck34, tmp_path
    ):
        import shutil
        import time

        from repro.structure.pdbio import chain_to_pdb

        root = str(tmp_path / "extending")
        shutil.copytree(store_root, root)

        def client(port):
            with ServiceClient(port=port) as c:
                info = c.register_pdb(
                    "newcomer", chain_to_pdb(ck34[20]), corpus=True
                )
                for _ in range(200):
                    ms = c.status()["matstore"]
                    if ms.get("n_chains") == 9 and not ms.get("building"):
                        break
                    time.sleep(0.05)
                hit = c.matstore_lookup("ck_globin_00", "newcomer")
                return info, c.metrics(), hit

        _svc, (info, metrics, hit) = with_service(
            client, config=self._config(root)
        )
        assert info["matstore"] == "extending"
        assert metrics["matstore"]["n_chains"] == 9
        assert metrics["matstore"]["pairs_stored"] == 36
        assert metrics["counters"]["matstore_extends"] == 1
        assert hit["scores"]["rmsd"] > 0
