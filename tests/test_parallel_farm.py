"""The process-pool farm: bit-identical results in any configuration.

The farm's whole contract is that parallelism is *invisible* in the
numbers: the same score table, the same merged cost counters, the same
CSV bytes as the serial loop, for any worker count and chunk size.  The
measured-mode goldens below were captured from the pre-farm serial code
path, so they also pin the optimised TM-align kernel to the seed's
bit-exact output.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cost.counters import CostCounter
from repro.datasets.pairs import all_vs_all_pairs
from repro.faults import FarmFaultPlan, InjectedFault, WorkerFault
from repro.parallel import (
    FarmStats,
    ParallelConfig,
    RetryPolicy,
    WorkerCrash,
    effective_workers,
    iter_pair_results,
    reset_worker_clamp_warnings,
)
from repro.parallel import shmplane
from repro.parallel.worker import QUERY_INDEX, dataset_spec
from repro.psc import all_vs_all, get_method, one_vs_all
from repro.psc.evaluator import EvalMode, JobEvaluator
from repro.psc.methods import SSECompositionMethod

#: both POSIX start methods where available (macOS/Windows lack fork)
START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]

# Measured-mode TM-align scores for ck34-mini pairs, captured as repr()
# from the serial pre-farm code path (the PR-2 seed).  repr round-trips
# doubles exactly, so equality here means bit-identical floats.
GOLDEN_MINI = {
    "ck_globin_00|ck_globin_01": {
        "n_aligned": "142.0",
        "rmsd": "0.7499474535489062",
        "seq_identity": "0.6197183098591549",
        "tm_norm_a": "0.9281806935058299",
        "tm_norm_b": "0.9726556580806811",
    },
    "ck_globin_00|ck_globin_06": {
        "n_aligned": "144.0",
        "rmsd": "0.8177780938484748",
        "seq_identity": "0.5486111111111112",
        "tm_norm_a": "0.9367403515375622",
        "tm_norm_b": "0.968213007489395",
    },
    "ck_globin_01|ck_globin_05": {
        "n_aligned": "142.0",
        "rmsd": "1.048441118881122",
        "seq_identity": "0.3732394366197183",
        "tm_norm_a": "0.9485783927397259",
        "tm_norm_b": "0.9179409688497665",
    },
    "ck_globin_02|ck_globin_05": {
        "n_aligned": "140.0",
        "rmsd": "1.123331429030768",
        "seq_identity": "0.4",
        "tm_norm_a": "0.9409182560096342",
        "tm_norm_b": "0.8986666497200446",
    },
    "ck_globin_03|ck_globin_06": {
        "n_aligned": "142.0",
        "rmsd": "1.1556817455108057",
        "seq_identity": "0.29577464788732394",
        "tm_norm_a": "0.9144192703161471",
        "tm_norm_b": "0.9263441094396094",
    },
    "ck_globin_06|ck_globin_07": {
        "n_aligned": "144.0",
        "rmsd": "1.2309751359816556",
        "seq_identity": "0.2916666666666667",
        "tm_norm_a": "0.932748657479765",
        "tm_norm_b": "0.9091816790922987",
    },
}


def farm_table(dataset, method, counter=None, **farm):
    """The all-vs-all score table read straight off
    :func:`iter_pair_results`, for tests that pass ``stats`` or
    ``faults`` (which :func:`all_vs_all` does not take)."""
    out = {}
    for i, j, scores, counts in iter_pair_results(
        dataset, list(all_vs_all_pairs(len(dataset))), method, **farm
    ):
        if counter is not None:
            counter.merge(CostCounter(counts))
        out[(dataset[i].name, dataset[j].name)] = scores
    return out


def query_rows(query, dataset, method, **farm):
    """``(chain_name, scores)`` of ``query`` against every other dataset
    chain, in dataset order, as one-vs-all jobs on the farm."""
    pairs = [
        (QUERY_INDEX, j)
        for j in range(len(dataset))
        if dataset[j].name != query.name
    ]
    return [
        (dataset[j].name, scores)
        for _i, j, scores, _counts in iter_pair_results(
            dataset, pairs, method, query=query, **farm
        )
    ]


class ExplodingMethod(SSECompositionMethod):
    """Raises on one specific pair — exercises worker-failure surfacing.

    Defined at module top level so the pool can pickle it by reference.
    """

    name = "exploding"

    def __init__(self, poison_b: str) -> None:
        self.poison_b = poison_b

    def compare(self, chain_a, chain_b, counter):
        if chain_b.name == self.poison_b:
            raise RuntimeError(f"boom on {chain_a.name}|{chain_b.name}")
        return super().compare(chain_a, chain_b, counter)


class PairPoisonMethod(SSECompositionMethod):
    """Raises on exactly one (a, b) name pair — unlike ExplodingMethod,
    only a single chunk can ever fail, so retry-exhaustion tests are
    deterministic regardless of result arrival order."""

    name = "pair_poison"

    def __init__(self, poison_a: str, poison_b: str) -> None:
        self.poison_a = poison_a
        self.poison_b = poison_b

    def compare(self, chain_a, chain_b, counter):
        if (chain_a.name, chain_b.name) == (self.poison_a, self.poison_b):
            raise RuntimeError(f"boom on {chain_a.name}|{chain_b.name}")
        return super().compare(chain_a, chain_b, counter)


class CountingPoisonMethod(PairPoisonMethod):
    """:class:`PairPoisonMethod` that counts the attempts on its pair."""

    name = "counting_poison"

    def __init__(self, poison_a: str, poison_b: str) -> None:
        super().__init__(poison_a, poison_b)
        self.attempts = 0

    def compare(self, chain_a, chain_b, counter):
        if (chain_a.name, chain_b.name) == (self.poison_a, self.poison_b):
            self.attempts += 1
        return super().compare(chain_a, chain_b, counter)


class SuicidalMethod(SSECompositionMethod):
    """Kills its own worker process — exercises dead-pool detection."""

    name = "suicidal"

    def compare(self, chain_a, chain_b, counter):
        os._exit(17)


class TestDeterminism:
    """Scores bit-identical across worker counts and chunk sizes."""

    @pytest.fixture(scope="class")
    def serial_table(self, ck34_mini):
        counter = CostCounter()
        table = all_vs_all(ck34_mini, get_method("tmalign"), counter=counter)
        return table, counter

    def test_serial_matches_pre_farm_golden(self, serial_table):
        table, _ = serial_table
        for pair_key, want in GOLDEN_MINI.items():
            a, b = pair_key.split("|")
            got = table[(a, b)]
            for field, want_repr in want.items():
                assert repr(got[field]) == want_repr, (pair_key, field)

    @pytest.mark.parametrize("workers,chunk", [(1, 1), (2, 7), (8, 64)])
    def test_tmalign_bit_identical_across_farm_configs(
        self, ck34_mini, serial_table, workers, chunk
    ):
        want_table, want_counter = serial_table
        counter = CostCounter()
        table = all_vs_all(
            ck34_mini, get_method("tmalign"), counter=counter,
            config=ParallelConfig(workers=workers, chunk=chunk),
        )
        assert table == want_table  # dict equality on floats = bit equality
        assert counter.as_dict() == want_counter.as_dict()

    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("shm", [True, False])
    def test_tmalign_bit_identical_across_start_methods(
        self, ck34_mini, serial_table, start_method, shm
    ):
        """fork and spawn, plane on and off: same table, bit for bit.

        Under spawn nothing is inherited, so this is the proof that the
        shared-memory plane (and the pickling fallback) each deliver the
        exact dataset the serial loop scored."""
        want_table, want_counter = serial_table
        counter = CostCounter()
        stats = FarmStats()
        table = farm_table(
            ck34_mini, get_method("tmalign"), counter=counter,
            config=ParallelConfig(
                workers=2, chunk=7, start_method=start_method, shm=shm
            ),
            stats=stats,
        )
        assert table == want_table
        assert counter.as_dict() == want_counter.as_dict()
        if shm:
            # /dev/shm exists on every platform we run CI on; if the
            # plane silently failed to build we want to know
            assert stats.shm_plane
            assert stats.bytes_to_workers < 4096  # names, not megabytes
        else:
            assert not stats.shm_plane
        assert stats.pool_startup_s >= 0.0

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_full_workers_chunk_cross(self, ck34_mini, workers, chunk):
        # cheap method so the full 3x3 (workers, chunk) cross stays fast
        method = get_method("sse_composition")
        want = all_vs_all(ck34_mini, method)
        counter = CostCounter()
        got = all_vs_all(
            ck34_mini, method, counter=counter,
            config=ParallelConfig(workers=workers, chunk=chunk),
        )
        assert got == want
        assert counter["sec_res"] > 0

    def test_one_vs_all_parity(self, ck34_mini):
        method = get_method("sse_composition")
        query = ck34_mini[2]
        want_ctr, got_ctr = CostCounter(), CostCounter()
        want = one_vs_all(query, ck34_mini, method, counter=want_ctr)
        got = one_vs_all(
            query, ck34_mini, method, counter=got_ctr,
            config=ParallelConfig(workers=2, chunk=3),
        )
        assert got == want
        assert got_ctr.as_dict() == want_ctr.as_dict()
        assert all(h.chain_name != query.name for h in got)

    def test_query_pairs_use_sentinel(self, ck34_mini):
        rows = query_rows(
            ck34_mini[0], ck34_mini, get_method("sse_composition"),
            config=ParallelConfig(workers=0),
        )
        assert len(rows) == len(ck34_mini) - 1
        assert QUERY_INDEX == -1


class TestFailureSurfacing:
    def test_worker_exception_raises_workercrash(self, ck34_mini):
        method = ExplodingMethod(poison_b=ck34_mini[3].name)
        with pytest.raises(WorkerCrash) as err:
            all_vs_all(
                ck34_mini, method, config=ParallelConfig(workers=2, chunk=2)
            )
        assert err.value.pair == (0, 3)
        assert "boom on" in err.value.remote_traceback
        assert "RuntimeError" in err.value.remote_traceback

    def test_serial_path_raises_the_original_error(self, ck34_mini):
        method = ExplodingMethod(poison_b=ck34_mini[3].name)
        with pytest.raises(RuntimeError, match="boom on") as err:
            all_vs_all(ck34_mini, method, config=ParallelConfig(workers=1))
        assert not isinstance(err.value, WorkerCrash)

    @pytest.mark.parametrize("search", ["one_vs_all", "all_vs_all"])
    def test_serial_path_applies_the_retry_policy(self, ck34_mini, search):
        """At ``workers <= 1`` search retries a failing pair under
        ``config.retry`` exactly as ``matrix`` does, then raises the
        original error."""
        query = ck34_mini[0]
        method = CountingPoisonMethod(query.name, ck34_mini[3].name)
        config = ParallelConfig(
            workers=0, retry=RetryPolicy(max_retries=2, backoff_seconds=0.0)
        )
        with pytest.raises(RuntimeError, match="boom on") as err:
            if search == "one_vs_all":
                one_vs_all(query, ck34_mini, method, config=config)
            else:
                all_vs_all(ck34_mini, method, config=config)
        assert not isinstance(err.value, WorkerCrash)
        assert method.attempts == 3

    def test_dead_worker_process_detected(self, ck34_mini):
        with pytest.raises(WorkerCrash, match="died abruptly"):
            all_vs_all(
                ck34_mini, SuicidalMethod(),
                config=ParallelConfig(workers=2, chunk=4),
            )


class TestScheduling:
    def test_serial_path_reports_one_chunk(self, ck34_mini):
        """The serial path evaluates pair by pair; its stats report the
        whole job list as one chunk, or as the explicit ``chunk``."""
        pairs = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
        method = get_method("sse_composition")
        for config, sizes in (
            (ParallelConfig(), [5]),
            (ParallelConfig(retry=RetryPolicy()), [5]),
            (ParallelConfig(chunk=2), [2, 2, 1]),
        ):
            stats = FarmStats()
            list(iter_pair_results(ck34_mini, pairs, method, config=config, stats=stats))
            assert stats.chunk_sizes == sizes
            assert stats.n_chunks == len(sizes)
            assert stats.chunk_size == sizes[0]
        stats = FarmStats()
        assert list(iter_pair_results(ck34_mini, [], method, stats=stats)) == []
        assert (stats.n_chunks, stats.chunk_sizes) == (0, [])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=-1)
        with pytest.raises(ValueError):
            ParallelConfig(chunk=-1)
        with pytest.raises(ValueError):
            ParallelConfig(start_method="quantum")
        assert ParallelConfig().resolved_start_method() in ("fork", "spawn")

    def test_stats_filled(self, ck34_mini):
        stats = FarmStats()
        list(
            iter_pair_results(
                ck34_mini,
                [(0, 1), (0, 2), (1, 2)],
                get_method("sse_composition"),
                config=ParallelConfig(workers=2, chunk=2),
                stats=stats,
            )
        )
        assert stats.n_jobs == 3
        assert stats.n_chunks == 2
        assert stats.chunk_size == 2
        assert stats.wall_seconds > 0
        assert stats.pairs_per_second > 0

    def test_dataset_spec_prefers_registry_name(self, ck34_mini):
        kind, payload = dataset_spec(ck34_mini)
        assert (kind, payload) == ("registry", "ck34-mini")

    def test_dataset_spec_falls_back_to_pickle(self, ck34_mini):
        subset = ck34_mini.subset(3, name="adhoc")
        kind, payload = dataset_spec(subset)
        assert kind == "pickle"
        assert payload is subset


class TestCostAwareScheduling:
    """PR-6: chunks packed by predicted cost, workers clamped against the
    machine, realized chunk sizes recorded truthfully."""

    def test_effective_workers_clamps_with_warning(self):
        reset_worker_clamp_warnings()
        cap = max(2, os.cpu_count() or 1)
        with pytest.warns(RuntimeWarning, match="exceeds usable CPUs") as rec:
            assert effective_workers(cap + 61) == cap
        clamped = [w for w in rec if "exceeds usable CPUs" in str(w.message)]
        assert len(clamped) == 1
        msg = str(clamped[0].message)
        # the warning must state the clamped value and the detected count
        assert f"workers={cap + 61}" in msg
        assert f"clamping to {cap}" in msg
        assert f"os.cpu_count()={os.cpu_count()}" in msg
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            # same clamp again: fires exactly once per run, so silent now
            assert effective_workers(cap + 61) == cap
            # at or below the cap: no warning, no change
            assert effective_workers(2) == 2
            assert effective_workers(cap) == cap
        reset_worker_clamp_warnings()

    def test_clamp_warning_distinct_per_request(self):
        reset_worker_clamp_warnings()
        cap = max(2, os.cpu_count() or 1)
        with pytest.warns(RuntimeWarning):
            effective_workers(cap + 10)
        with pytest.warns(RuntimeWarning):  # different request: warns again
            effective_workers(cap + 11)
        reset_worker_clamp_warnings()

    def test_cost_packed_stats_record_realized_chunks(self, ck34_mini):
        stats = FarmStats()
        results = list(
            iter_pair_results(
                ck34_mini,
                [(i, j) for i in range(8) for j in range(i + 1, 8)],
                get_method("sse_composition"),
                config=ParallelConfig(workers=2, chunk=0),
                stats=stats,
            )
        )
        assert stats.cost_packed
        assert stats.requested_workers == 2
        assert len(results) == stats.n_jobs == 28
        assert len(stats.chunk_sizes) == stats.n_chunks
        assert sum(stats.chunk_sizes) == stats.n_jobs
        assert stats.chunk_size_min <= stats.chunk_size_mean <= stats.chunk_size_max
        assert len(stats.chunk_walls) == stats.n_chunks
        assert all(w >= 0 for w in stats.chunk_walls)

    def test_explicit_chunk_disables_cost_packing(self, ck34_mini):
        stats = FarmStats()
        list(
            iter_pair_results(
                ck34_mini,
                [(0, 1), (0, 2), (1, 2)],
                get_method("sse_composition"),
                config=ParallelConfig(workers=2, chunk=2),
                stats=stats,
            )
        )
        assert not stats.cost_packed
        # recorded in completion order, so compare as a multiset
        assert sorted(stats.chunk_sizes) == [1, 2]

    def test_cost_packed_bit_identical_to_serial(self, ck34_mini):
        """chunk=0: cost-packed chunks, one per worker, against the
        serial loop — same table, same merged counters, bit for bit."""
        method = get_method("tmalign")
        want_ctr, got_ctr = CostCounter(), CostCounter()
        want = all_vs_all(ck34_mini, method, counter=want_ctr)
        stats = FarmStats()
        got = farm_table(
            ck34_mini, method, counter=got_ctr,
            config=ParallelConfig(workers=2, chunk=0),
            stats=stats,
        )
        assert got == want
        assert got_ctr.as_dict() == want_ctr.as_dict()
        assert stats.cost_packed

    @pytest.mark.parametrize("chunk", [0, 1])
    def test_two_chunks_in_flight_per_worker(self, ck34_mini, monkeypatch, chunk):
        """The pool never holds more than ``2 * workers`` unfinished
        chunks: one running on each worker and one queued behind it."""
        futures, peak = [], [0]
        submit = ProcessPoolExecutor.submit

        def tracked(pool, fn, *args, **kwargs):
            fut = submit(pool, fn, *args, **kwargs)
            futures.append(fut)
            peak[0] = max(peak[0], sum(not f.done() for f in futures))
            return fut

        monkeypatch.setattr(ProcessPoolExecutor, "submit", tracked)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        stats = FarmStats()
        farm_table(
            ck34_mini, get_method("sse_composition"),
            config=ParallelConfig(workers=2, chunk=chunk), stats=stats,
        )
        assert len(futures) == stats.n_chunks > 4
        assert peak[0] <= 2 * 2
        assert stats.final_window == 4 and not stats.serial_fallback

    def test_one_cpu_runs_in_process_unless_faults(self, ck34_mini, monkeypatch):
        """One CPU and no fault plan: no pool, serial-identical results;
        a fault plan keeps the pool for its crash isolation."""
        pools = []
        init = ProcessPoolExecutor.__init__

        def tracked(pool, *args, **kwargs):
            pools.append(pool)
            init(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", tracked)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        method = get_method("tmalign")
        want_ctr, got_ctr = CostCounter(), CostCounter()
        want = all_vs_all(ck34_mini, method, counter=want_ctr)
        stats = FarmStats()
        got = farm_table(
            ck34_mini, method, counter=got_ctr,
            config=ParallelConfig(workers=2), stats=stats,
        )
        assert got == want
        assert got_ctr.as_dict() == want_ctr.as_dict()
        assert not pools
        assert stats.serial_fallback and stats.backoffs == 0
        assert stats.final_window == 0
        # every chunk ran on the master: one lane, so wall ~= the sum
        # of the chunk walls, not half of it
        imb = stats.tail_imbalance()
        assert 1.0 <= imb < 1.5
        stats = FarmStats()
        farm_table(
            ck34_mini, get_method("sse_composition"),
            config=ParallelConfig(
                workers=2, chunk=2, retry=TestRetryPath.RETRY
            ),
            stats=stats,
            faults=FarmFaultPlan.single("raise", (0, 3)),
        )
        assert pools
        assert not stats.serial_fallback and stats.retries == 1

    def test_serial_stats_record_chunks(self, ck34_mini):
        stats = FarmStats()
        list(
            iter_pair_results(
                ck34_mini,
                [(0, 1), (0, 2), (1, 2)],
                get_method("sse_composition"),
                config=ParallelConfig(workers=0),
                stats=stats,
            )
        )
        assert stats.workers == 0
        assert stats.chunk_sizes == [3]  # serial: one chunk, realized

    def test_tail_imbalance_and_cost_error_computable(self, ck34_mini):
        stats = FarmStats()
        list(
            iter_pair_results(
                ck34_mini,
                [(i, j) for i in range(8) for j in range(i + 1, 8)],
                get_method("tmalign"),
                config=ParallelConfig(workers=2, chunk=0),
                stats=stats,
            )
        )
        imb = stats.tail_imbalance()
        assert imb is not None and imb > 0
        err = stats.predicted_cost_error()
        assert err is None or err >= 0


class TestRetryPath:
    """Retry/backoff absorbs injected failures; exhaustion still points
    at the failing pair."""

    RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.01)

    def test_injected_raise_absorbed_bit_identical(self, ck34_mini):
        method = get_method("sse_composition")
        want = all_vs_all(ck34_mini, method)
        stats = FarmStats()
        got = farm_table(
            ck34_mini, method,
            config=ParallelConfig(workers=2, chunk=2, retry=self.RETRY),
            stats=stats,
            faults=FarmFaultPlan.single("raise", (0, 3)),
        )
        assert got == want
        assert stats.retries == 1
        assert stats.pool_restarts == 0

    def test_injected_kill_pool_restart_bit_identical(self, ck34_mini):
        method = get_method("sse_composition")
        want = all_vs_all(ck34_mini, method)
        stats = FarmStats()
        got = farm_table(
            ck34_mini, method,
            config=ParallelConfig(workers=2, chunk=2, retry=self.RETRY),
            stats=stats,
            faults=FarmFaultPlan.single("kill", (1, 2)),
        )
        assert got == want
        assert stats.pool_restarts >= 1

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_plane_rebuild_after_kill_bit_identical(
        self, ck34_mini, start_method
    ):
        """The acceptance case: a SIGKILLed worker forces a pool rebuild,
        the replacement pool re-attaches the *same* plane (no re-pickle,
        no re-serialize), and the table still matches serial exactly.
        The plane goes with the drain."""
        method = get_method("sse_composition")
        want = all_vs_all(ck34_mini, method)
        stats = FarmStats()
        live = set(shmplane._LIVE)
        got = farm_table(
            ck34_mini, method,
            config=ParallelConfig(
                workers=2, chunk=2, retry=self.RETRY,
                start_method=start_method, shm=True,
            ),
            stats=stats,
            faults=FarmFaultPlan.single("kill", (1, 2)),
        )
        assert got == want
        assert stats.pool_restarts >= 1
        assert stats.shm_plane
        assert stats.rebuild_s >= 0.0
        assert shmplane._LIVE <= live  # the drain unlinked its plane

    def test_stalled_chunk_redispatched(self, ck34_mini):
        method = get_method("sse_composition")
        want = all_vs_all(ck34_mini, method)
        retry = RetryPolicy(
            max_retries=2, backoff_seconds=0.01, chunk_timeout_seconds=0.4
        )
        stats = FarmStats()
        got = farm_table(
            ck34_mini, method,
            config=ParallelConfig(workers=2, chunk=4, retry=retry),
            stats=stats,
            faults=FarmFaultPlan.single("stall", (0, 1), stall_seconds=2.0),
        )
        assert got == want
        assert stats.chunk_timeouts >= 1

    def test_workercrash_carries_pair_through_retry_path(self, ck34_mini):
        # the method fails on *every* attempt, so retries exhaust — the
        # surfaced WorkerCrash must still name the poisoned pair
        method = PairPoisonMethod(ck34_mini[0].name, ck34_mini[3].name)
        stats = FarmStats()
        with pytest.raises(WorkerCrash) as err:
            farm_table(
                ck34_mini, method,
                config=ParallelConfig(workers=2, chunk=2, retry=self.RETRY),
                stats=stats,
            )
        assert err.value.pair == (0, 3)
        assert "boom on" in err.value.remote_traceback
        assert stats.retries == self.RETRY.max_retries

    def test_fault_without_retry_names_pair(self, ck34_mini):
        with pytest.raises(WorkerCrash) as err:
            farm_table(
                ck34_mini, get_method("sse_composition"),
                config=ParallelConfig(workers=2, chunk=2),
                faults=FarmFaultPlan.single(
                    "raise", (2, 5), attempts=(0, 1, 2, 3)
                ),
            )
        assert err.value.pair == (2, 5)
        assert "InjectedFault" in err.value.remote_traceback

    def test_serial_path_retries_in_process(self, ck34_mini):
        method = get_method("sse_composition")
        want = all_vs_all(ck34_mini, method)
        stats = FarmStats()
        got = farm_table(
            ck34_mini, method,
            config=ParallelConfig(workers=0, retry=self.RETRY),
            stats=stats,
            faults=FarmFaultPlan.single("raise", (0, 3)),
        )
        assert got == want
        assert stats.retries == 1

    def test_serial_path_without_retry_raises_injected(self, ck34_mini):
        with pytest.raises(InjectedFault):
            farm_table(
                ck34_mini, get_method("sse_composition"),
                config=ParallelConfig(workers=0),
                faults=FarmFaultPlan.single("raise", (0, 3)),
            )

    def test_one_vs_all_retry_parity(self, ck34_mini):
        method = get_method("sse_composition")
        query = ck34_mini[2]
        want = query_rows(
            query, ck34_mini, method, config=ParallelConfig(workers=0)
        )
        got = query_rows(
            query, ck34_mini, method,
            config=ParallelConfig(workers=2, chunk=3, retry=self.RETRY),
            faults=FarmFaultPlan.single("raise", (QUERY_INDEX, 4)),
        )
        assert got == want


class TestEvaluatorParity:
    def test_farm_matches_job_evaluator_measured(self, ck34_mini):
        """The farm and the simulator's MEASURED JobEvaluator charge
        identical per-pair scores and counts: both go through
        ``evaluate_pair``."""
        evaluator = JobEvaluator(ck34_mini, mode=EvalMode.MEASURED)
        pairs = [(0, 1), (0, 2), (1, 3), (2, 3)]
        config = ParallelConfig(workers=2, chunk=1)
        for i, j, scores, counts in iter_pair_results(
            ck34_mini, pairs, evaluator.method, config=config
        ):
            s_scores, s_ctr = evaluator.evaluate(i, j)
            assert scores == s_scores
            assert counts == s_ctr.as_dict()
