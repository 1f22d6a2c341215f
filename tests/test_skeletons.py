"""rckskel constructs: SEQ, PAR, COLLECT, FARM, grouped FARM."""

import pytest

from repro.core.skeletons import FarmConfig, Job, SkeletonRuntime, TERMINATE
from repro.scc.machine import SccMachine
from repro.scc.rcce import Rcce

FAST_FARM = FarmConfig(
    master_job_cycles=1000, master_result_cycles=1000, slave_boot_seconds=0.0
)


def make_runtime(n_slaves=4, farm=FAST_FARM):
    m = SccMachine()
    rcce = Rcce(m)
    slave_ids = list(range(1, 1 + n_slaves))
    rt = SkeletonRuntime(m, rcce, 0, slave_ids, farm)
    return m, rt


def echo_handler(core, payload):
    yield from core.compute_cycles(1000)
    return ("echo", payload), 64


def slow_handler_factory(cycles_by_payload):
    def handler(core, payload):
        yield from core.compute_cycles(cycles_by_payload(payload))
        return payload, 64

    return handler


def jobs(n, nbytes=256):
    return [Job(job_id=k, payload=k, nbytes=nbytes) for k in range(n)]


def run_farm(n_slaves=4, n_jobs=10, handler=echo_handler, farm=FAST_FARM, **kw):
    m, rt = make_runtime(n_slaves, farm)
    box = {}

    def master(core):
        box["results"] = yield from rt.farm(core, jobs(n_jobs), **kw)

    m.spawn(0, master)
    for s in rt.slave_ids:
        m.spawn(s, rt.slave_loop, handler)
    m.run()
    return m, rt, box["results"]


class TestFarm:
    def test_all_jobs_completed(self):
        _, _, results = run_farm(n_slaves=4, n_jobs=20)
        assert len(results) == 20
        assert sorted(r.job_id for r in results) == list(range(20))

    def test_results_carry_payloads(self):
        _, _, results = run_farm(n_jobs=5)
        for r in results:
            assert r.payload == ("echo", r.job_id)

    def test_more_slaves_is_faster(self):
        heavy = slow_handler_factory(lambda p: 80_000_000)  # 0.1 s each
        m1, _, _ = run_farm(n_slaves=1, n_jobs=12, handler=heavy)
        m4, _, _ = run_farm(n_slaves=4, n_jobs=12, handler=heavy)
        assert m4.now < m1.now / 2.5

    def test_work_spread_across_slaves(self):
        m, rt, _ = run_farm(n_slaves=4, n_jobs=40)
        per_slave = [m.core(s).stats.jobs_done for s in rt.slave_ids]
        assert min(per_slave) >= 5

    def test_fewer_jobs_than_slaves(self):
        m, rt, results = run_farm(n_slaves=6, n_jobs=2)
        assert len(results) == 2

    def test_slaves_terminated(self):
        """After FARM with terminate=True the run() drains: slave loops
        exited (otherwise env.run would deadlock-error on them)."""
        m, _, results = run_farm(n_jobs=3)
        assert len(results) == 3  # reaching here means clean shutdown

    def test_single_job(self):
        _, _, results = run_farm(n_slaves=3, n_jobs=1)
        assert len(results) == 1

    def test_collector_called_in_completion_order(self):
        m, rt = make_runtime(2)
        seen = []

        def master(core):
            yield from rt.farm(core, jobs(6), collector=lambda r: seen.append(r.job_id))

        m.spawn(0, master)
        for s in rt.slave_ids:
            m.spawn(s, rt.slave_loop, echo_handler)
        m.run()
        assert sorted(seen) == list(range(6))

    def test_boot_serialization_delays_start(self):
        slow_boot = FarmConfig(
            master_job_cycles=1000, master_result_cycles=1000, slave_boot_seconds=0.5
        )
        m, _, _ = run_farm(n_slaves=4, n_jobs=4, farm=slow_boot)
        assert m.now >= 4 * 0.5  # boots serialize on the loader


class TestSeqParCollect:
    def test_seq_runs_in_order(self):
        m, rt = make_runtime(3)
        done_order = []

        def master(core):
            results = yield from rt.seq(
                core, jobs(5), collector=lambda r: done_order.append(r.job_id)
            )
            yield from rt.shutdown(core)
            return results

        p = m.spawn(0, master)
        for s in rt.slave_ids:
            m.spawn(s, rt.slave_loop, echo_handler)
        m.run()
        assert done_order == list(range(5))

    def test_seq_waits_without_spinning(self):
        """Unconsumed ready announcements must not keep the master
        polling: a 2-job SEQ costs one poll visit per awaited result."""
        m, rt = make_runtime(3)
        work = slow_handler_factory(lambda _: 4_000_000)  # 5 ms at 800 MHz

        def master(core):
            yield from rt.seq(core, jobs(2))
            yield from rt.shutdown(core)

        m.spawn(0, master)
        for s in rt.slave_ids:
            m.spawn(s, rt.slave_loop, work)
        m.run()
        assert rt.results_collected == 2
        assert rt.poll_visits <= 4
        assert m.now >= 2 * 0.005

    def test_par_then_collect(self):
        m, rt = make_runtime(3)
        box = {}

        def master(core):
            yield from rt.check_ready(core)
            n = yield from rt.par(core, jobs(3))
            box["results"] = yield from rt.collect(core, n)
            yield from rt.shutdown(core)

        m.spawn(0, master)
        for s in rt.slave_ids:
            m.spawn(s, rt.slave_loop, echo_handler)
        m.run()
        assert len(box["results"]) == 3

    def test_par_overcommit_blocks_but_completes(self):
        """More jobs than UEs: PAR's rendezvous sends serialize per UE."""
        m, rt = make_runtime(2)
        box = {}

        def master(core):
            yield from rt.check_ready(core)
            n = yield from rt.par(core, jobs(6))
            box["results"] = yield from rt.collect(core, n)
            yield from rt.shutdown(core)

        m.spawn(0, master)
        for s in rt.slave_ids:
            m.spawn(s, rt.slave_loop, echo_handler)
        m.run()
        assert len(box["results"]) == 6


class TestFarmGrouped:
    def test_groups_respected(self):
        m, rt = make_runtime(4)
        box = {}
        groups = {
            "a": ([Job(k, ("a", k), 64) for k in range(6)], [1, 2]),
            "b": ([Job(k, ("b", k), 64) for k in range(4)], [3, 4]),
        }

        def handler(core, payload):
            yield from core.compute_cycles(1000)
            return payload, 64

        def master(core):
            box["results"] = yield from rt.farm_grouped(core, groups)

        m.spawn(0, master)
        for s in rt.slave_ids:
            m.spawn(s, rt.slave_loop, handler)
        m.run()
        assert len(box["results"]["a"]) == 6
        assert len(box["results"]["b"]) == 4
        # group a jobs only ran on slaves 1-2
        assert {r.slave_id for r in box["results"]["a"]} <= {1, 2}
        assert {r.slave_id for r in box["results"]["b"]} <= {3, 4}

    def test_overlapping_groups_rejected(self):
        m, rt = make_runtime(3)
        groups = {"a": ([Job(0, 0, 8)], [1, 2]), "b": ([Job(0, 0, 8)], [2, 3])}

        def master(core):
            yield from rt.farm_grouped(core, groups)

        m.spawn(0, master)
        for s in rt.slave_ids:
            m.spawn(s, rt.slave_loop, echo_handler)
        with pytest.raises(ValueError):
            m.run()


class TestValidation:
    def test_master_in_slaves_rejected(self):
        m = SccMachine()
        rcce = Rcce(m)
        with pytest.raises(ValueError):
            SkeletonRuntime(m, rcce, 0, [0, 1])

    def test_duplicate_slaves_rejected(self):
        m = SccMachine()
        rcce = Rcce(m)
        with pytest.raises(ValueError):
            SkeletonRuntime(m, rcce, 0, [1, 1])

    def test_no_slaves_rejected(self):
        m = SccMachine()
        rcce = Rcce(m)
        with pytest.raises(ValueError):
            SkeletonRuntime(m, rcce, 0, [])

    def test_job_validation(self):
        with pytest.raises(ValueError):
            Job(0, "x", nbytes=-1)

    def test_farm_config_validation(self):
        with pytest.raises(ValueError):
            FarmConfig(master_job_cycles=-1)
        with pytest.raises(ValueError):
            FarmConfig(slave_boot_seconds=-0.1)


class TestPolling:
    def test_poll_visits_instrumented(self):
        _, rt, _ = run_farm(n_slaves=4, n_jobs=10)
        assert rt.poll_visits >= 10  # at least one visit per result
        assert rt.results_collected == 10

    def test_round_robin_not_starving(self):
        """With equal jobs, round-robin polling must serve all slaves."""
        heavy = slow_handler_factory(lambda p: 10_000_000)
        m, rt, _ = run_farm(n_slaves=4, n_jobs=32, handler=heavy)
        per_slave = [m.core(s).stats.jobs_done for s in rt.slave_ids]
        assert max(per_slave) - min(per_slave) <= 4
