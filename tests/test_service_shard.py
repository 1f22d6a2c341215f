"""Sharded-service tests: rendezvous hashing, scatter-gather, failover.

The unit layer pins the rendezvous (HRW) ownership function — stable
under shard add/remove, deterministic across processes.  The end-to-end
layer boots real :class:`PSCService` shards plus a
:class:`ShardCoordinator` in one event loop and asserts the acceptance
criterion of the subsystem: a coordinator ``search`` over N shards is
byte-identical to the same search against a single-node service, and a
down shard degrades the answer, never hangs it.
"""

import asyncio
import contextlib
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.service import PSCService, ServiceClient, ServiceConfig
from repro.service.client import backoff_delays
from repro.service.protocol import (
    BadRequest,
    ServiceUnavailable,
    canonical_json,
)
from repro.service.shard import (
    AsyncShardConnection,
    CoordinatorConfig,
    ShardCoordinator,
    parse_shard_spec,
    partition_keys,
    rendezvous_owner,
    rendezvous_rank,
)

SHARD_IDS = [f"10.0.0.{i}:7743" for i in range(1, 5)]
KEYS = [f"chainhash{i:04d}" for i in range(400)]


class TestRendezvousHashing:
    def test_owner_is_first_of_rank(self):
        for key in KEYS[:50]:
            assert rendezvous_owner(key, SHARD_IDS) == rendezvous_rank(
                key, SHARD_IDS
            )[0]

    def test_rank_is_a_permutation_of_the_shards(self):
        for key in KEYS[:50]:
            assert sorted(rendezvous_rank(key, SHARD_IDS)) == sorted(SHARD_IDS)

    def test_owner_ignores_shard_list_order(self):
        shuffled = list(reversed(SHARD_IDS))
        for key in KEYS:
            assert rendezvous_owner(key, SHARD_IDS) == rendezvous_owner(
                key, shuffled
            )

    def test_empty_shard_list_raises(self):
        with pytest.raises(ValueError):
            rendezvous_owner("k", [])

    def test_remove_shard_moves_only_its_keys(self):
        before = {key: rendezvous_owner(key, SHARD_IDS) for key in KEYS}
        survivors = SHARD_IDS[:-1]
        after = {key: rendezvous_owner(key, survivors) for key in KEYS}
        for key in KEYS:
            if before[key] in survivors:
                # the defining HRW property: keys owned by surviving
                # shards do not move when another shard leaves
                assert after[key] == before[key]
            else:
                assert after[key] in survivors

    def test_add_shard_moves_about_one_in_n_keys(self):
        before = {key: rendezvous_owner(key, SHARD_IDS[:-1]) for key in KEYS}
        after = {key: rendezvous_owner(key, SHARD_IDS) for key in KEYS}
        moved = [key for key in KEYS if before[key] != after[key]]
        # every moved key lands on the new shard, nowhere else
        assert all(after[key] == SHARD_IDS[-1] for key in moved)
        # expected share 1/4; generous bounds on 400 keys
        assert 0.10 <= len(moved) / len(KEYS) <= 0.45

    def test_partition_covers_all_keys_disjointly(self):
        parts = partition_keys(KEYS, SHARD_IDS)
        seen = [key for shard in SHARD_IDS for key in parts[shard]]
        assert sorted(seen) == sorted(KEYS)
        for shard, owned in parts.items():
            assert all(rendezvous_owner(k, SHARD_IDS) == shard for k in owned)

    def test_deterministic_across_processes(self):
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.service.shard import rendezvous_owner\n"
            f"ids = {SHARD_IDS!r}\n"
            f"for key in {KEYS[:40]!r}:\n"
            "    print(rendezvous_owner(key, ids))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert out == [rendezvous_owner(key, SHARD_IDS) for key in KEYS[:40]]


class TestShardSpec:
    def test_host_port_passthrough(self):
        assert parse_shard_spec("10.1.2.3:9000") == "10.1.2.3:9000"

    def test_bare_port_gets_loopback(self):
        assert parse_shard_spec("9000") == "127.0.0.1:9000"
        assert parse_shard_spec(":9000") == "127.0.0.1:9000"

    @pytest.mark.parametrize("bad", ["", "host:", "host:abc", "x", "h:70000"])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_shard_spec(bad)

    def test_coordinator_requires_shards(self):
        with pytest.raises(ValueError):
            ShardCoordinator(CoordinatorConfig(shards=()))


def _shard_config(dataset="ck34-mini", **overrides):
    return ServiceConfig(dataset=dataset, port=0, batch_window=0.001, **overrides)


def with_cluster(client_fn, n_shards=2, dataset="ck34-mini", evaluate=None,
                 shard_overrides=None, **coord_kwargs):
    """Boot ``n_shards`` services + a coordinator; run ``client_fn`` in
    the loop with ``(coordinator, shard_services)``.

    ``evaluate(service, jobs)``, when given, is every shard's batch
    evaluation (``PSCService(evaluate=)``), called with the shard it
    runs in; ``shard_overrides`` are extra :class:`ServiceConfig` fields
    for every shard."""

    def shard_service():
        config = _shard_config(dataset, **(shard_overrides or {}))
        hook = evaluate and (lambda jobs: evaluate(service, jobs))
        service = PSCService(config, evaluate=hook)
        return service

    async def main():
        async with contextlib.AsyncExitStack() as stack:
            shards = [
                await stack.enter_async_context(shard_service())
                for _ in range(n_shards)
            ]
            specs = tuple(f"{s.host}:{s.port}" for s in shards)
            coordinator = await stack.enter_async_context(
                ShardCoordinator(
                    CoordinatorConfig(shards=specs, port=0, **coord_kwargs)
                )
            )
            return await client_fn(coordinator, shards)

    return asyncio.run(main())


async def _request(server, payload):
    conn = AsyncShardConnection(server.host, server.port)
    try:
        return await conn.request(payload)
    finally:
        await conn.aclose()


class TestScatterGather:
    def test_search_byte_identical_to_single_node_on_ck34(self):
        """The acceptance criterion, on the full CK34 corpus."""
        from repro.datasets import load_dataset

        names = [c.name for c in load_dataset("ck34").chains]
        queries = names[:3]

        async def scenario_named(coordinator, _shards):
            results = []
            async with PSCService(_shard_config("ck34")) as solo:
                for query in queries:
                    req = {
                        "op": "search",
                        "query": query,
                        "top": 7,
                        "method": "sse_composition",
                    }
                    sharded = await _request(coordinator, dict(req))
                    single = await _request(solo, dict(req))
                    results.append((sharded["result"], single["result"]))
            return results

        results = with_cluster(scenario_named, n_shards=3, dataset="ck34")
        for sharded, single in results:
            assert canonical_json(sharded) == canonical_json(single)

    def test_align_passthrough_and_cache_flag(self):
        async def scenario(coordinator, _shards):
            req = {
                "op": "align",
                "a": "ck_globin_00",
                "b": "ck_globin_01",
                "method": "sse_composition",
            }
            first = await _request(coordinator, dict(req))
            second = await _request(coordinator, dict(req))
            return first, second

        first, second = with_cluster(scenario)
        assert first["ok"] and second["ok"]
        assert first["cached"] is False and second["cached"] is True
        assert canonical_json(first["result"]) == canonical_json(
            second["result"]
        )

    def test_search_fanout_metrics_and_status(self):
        async def scenario(coordinator, _shards):
            await _request(
                coordinator,
                {
                    "op": "search",
                    "query": "ck_globin_00",
                    "top": 3,
                    "method": "sse_composition",
                },
            )
            metrics = await _request(coordinator, {"op": "metrics"})
            status = await _request(coordinator, {"op": "status"})
            healthz = await _request(coordinator, {"op": "healthz"})
            return metrics["result"], status["result"], healthz["result"]

        metrics, status, healthz = with_cluster(scenario, n_shards=2)
        assert metrics["fanout"]["searches"] == 1
        assert 1 <= metrics["fanout"]["mean_width"] <= 2
        assert set(metrics["shards"]) == set(status["topology"])
        assert status["status"] == "ok"
        assert status["coordinator"] is True
        assert status["shards_reachable"] == 2
        assert status["drift"] is False
        for info in status["shards"].values():
            assert info["reachable"] is True
            assert info["corpus"] == 8
            assert info["registry_generation"] == 8
            assert info["corpus_fingerprint"]
        assert healthz["status"] == "ok"
        assert healthz["shards_healthy"] == 2

    def test_register_replicates_to_every_shard(self, ck34_mini, tmp_path):
        from repro.structure import write_pdb_file

        path = tmp_path / "up.pdb"
        write_pdb_file(ck34_mini[0], path)
        pdb_text = path.read_text()

        async def scenario(coordinator, shards):
            reg = await _request(
                coordinator,
                {
                    "op": "register",
                    "name": "uploaded",
                    "pdb": pdb_text,
                    "corpus": True,
                },
            )
            views = [
                (await _request(s, {"op": "corpus"}))["result"] for s in shards
            ]
            return reg["result"], views

        info, views = with_cluster(scenario, n_shards=3)
        assert info["replicated"] == 3
        assert info["shards"] == 3
        assert "partial" not in info
        for view in views:
            assert "uploaded" in [entry["name"] for entry in view["chains"]]
        # write-all keeps the fingerprints converged (no drift)
        assert len({view["fingerprint"] for view in views}) == 1


class TestConcurrentFanOut:
    """The coordinator keeps every shard evaluating at the same moment.

    Each shard's batch evaluation waits on one shared two-party barrier
    before computing its real bodies, so a request that needs both
    shards completes only if both shards hold a batch at once.  A
    serialised fan-out (awaiting one shard slice after another) or one
    lock around forwarding leaves the first shard waiting alone until
    the barrier times out, and its batch fails."""

    BARRIER_TIMEOUT = 5.0

    def test_search_and_concurrent_aligns_reach_both_shards_at_once(self):
        barrier = threading.Barrier(2, timeout=self.BARRIER_TIMEOUT)
        evaluated = []

        def held(service, jobs):
            barrier.wait()
            evaluated.append((service.port, len(jobs)))
            return service.batcher._evaluate_batch(jobs)

        async def scenario(coordinator, shards):
            view = (await _request(coordinator, {"op": "corpus"}))["result"]
            names = [c["name"] for c in view["chains"]]
            owner = {
                c["name"]: rendezvous_owner(c["hash"], coordinator.shard_ids)
                for c in view["chains"]
            }
            search = await _request(
                coordinator, {"op": "search", "query": names[0], "top": 5}
            )
            # one align per owner, neither touching a pair the search
            # cached, sent at once on separate connections
            targets = [
                next(n for n in names[2:] if owner[n] == sid)
                for sid in coordinator.shard_ids
            ]
            aligns = await asyncio.gather(*(
                _request(coordinator, {"op": "align", "a": names[1], "b": b})
                for b in targets
            ))
            return search, aligns, [s.port for s in shards]

        search, aligns, ports = with_cluster(
            scenario,
            dataset="ck34",
            evaluate=held,
            # every slice of the 33-target search in one batch per shard
            shard_overrides={"max_batch": 64},
        )
        assert search["ok"]
        assert search["result"]["corpus"] == 33
        assert len(search["result"]["hits"]) == 5
        assert [r["ok"] for r in aligns] == [True, True]
        assert [r["cached"] for r in aligns] == [False, False]
        # two rendezvous: the search's two slices, then the two aligns
        assert len(evaluated) == 4
        assert sorted(port for port, _n in evaluated) == sorted(ports * 2)
        assert sum(n for _port, n in evaluated) == 33 + 2


class TestFailover:
    def test_search_survives_a_down_shard(self):
        async def scenario(coordinator, shards):
            req = {
                "op": "search",
                "query": "ck_globin_00",
                "top": 5,
                "method": "sse_composition",
            }
            healthy = await _request(coordinator, dict(req))
            await shards[1].aclose()  # hard-stop one shard mid-run
            degraded = await _request(coordinator, dict(req))
            status = await _request(coordinator, {"op": "status"})
            return healthy["result"], degraded["result"], status["result"]

        healthy, degraded, status = with_cluster(
            scenario, n_shards=2, connect_retries=0
        )
        # replication means the survivor can serve the dead shard's
        # slice: the merged answer stays complete, not partial (only the
        # from_cache count may differ — the survivor's slice is warm)
        assert "partial" not in degraded
        strip = lambda r: {k: v for k, v in r.items() if k != "from_cache"}
        assert canonical_json(strip(degraded)) == canonical_json(strip(healthy))
        assert status["status"] == "degraded"
        assert status["shards_reachable"] == 1

    def test_register_reports_typed_partial_on_down_shard(
        self, ck34_mini, tmp_path
    ):
        from repro.structure import write_pdb_file

        path = tmp_path / "up.pdb"
        write_pdb_file(ck34_mini[1], path)
        pdb_text = path.read_text()

        async def scenario(coordinator, shards):
            await shards[0].aclose()
            reg = await _request(
                coordinator,
                {
                    "op": "register",
                    "name": "survivor_only",
                    "pdb": pdb_text,
                    "corpus": True,
                },
            )
            return reg["result"]

        info = with_cluster(scenario, n_shards=2, connect_retries=0)
        assert info["replicated"] == 1
        assert info["shards"] == 2
        assert len(info["partial"]["failed_shards"]) == 1

    def test_all_shards_down_is_unavailable_not_a_hang(self):
        async def scenario(coordinator, shards):
            for shard in shards:
                await shard.aclose()
            with pytest.raises(ServiceUnavailable):
                await _request(
                    coordinator,
                    {
                        "op": "align",
                        "a": "ck_globin_00",
                        "b": "ck_globin_01",
                        "method": "sse_composition",
                    },
                )
            return True

        assert with_cluster(scenario, n_shards=2, connect_retries=0)

    def test_run_id_status_is_rejected_at_the_coordinator(self):
        async def scenario(coordinator, _shards):
            with pytest.raises(BadRequest):
                await _request(
                    coordinator, {"op": "status", "run_id": "some-run"}
                )
            return True

        assert with_cluster(scenario, n_shards=2)


class TestClientReconnect:
    def test_backoff_schedule_is_exponential(self):
        assert list(backoff_delays(4, 0.05)) == [0.05, 0.1, 0.2, 0.4]
        assert list(backoff_delays(0, 0.05)) == []

    def test_connect_to_dead_port_raises_unavailable(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        t0 = time.monotonic()
        with pytest.raises(ServiceUnavailable):
            ServiceClient(
                port=free_port, connect_retries=2, connect_backoff=0.01
            )
        assert time.monotonic() - t0 < 5.0  # bounded, not a hang

    def test_connect_retries_ride_out_a_late_server(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        accepted = threading.Event()

        def late_listener():
            time.sleep(0.25)
            with socket.socket() as listener:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind(("127.0.0.1", port))
                listener.listen(1)
                conn, _addr = listener.accept()
                accepted.set()
                conn.close()

        thread = threading.Thread(target=late_listener, daemon=True)
        thread.start()
        client = ServiceClient(
            port=port, connect_retries=8, connect_backoff=0.05
        )
        client.close()
        thread.join(timeout=5)
        assert accepted.is_set()
