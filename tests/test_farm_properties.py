"""Property-based invariants of the farm scheduler and simulation.

These hold for ANY job mix, so hypothesis drives random workloads:
* work conservation — every job runs exactly once, on exactly one slave;
* makespan lower bounds — never beats total-work/n or the longest job;
* greedy upper bound — never worse than the classic 2x-optimal LPT-type
  bound plus the modelled overheads;
* determinism — identical inputs give identical schedules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skeletons import FarmConfig, Job, SkeletonRuntime
from repro.scc.machine import SccMachine
from repro.scc.rcce import Rcce

FAST = FarmConfig(master_job_cycles=1e4, master_result_cycles=1e4, slave_boot_seconds=0.0)
FREQ = 800e6


def run_workload(durations_ms, n_slaves):
    m = SccMachine()
    rcce = Rcce(m)
    rt = SkeletonRuntime(m, rcce, 0, list(range(1, 1 + n_slaves)), FAST)
    jobs = [
        Job(job_id=k, payload=float(ms), nbytes=64)
        for k, ms in enumerate(durations_ms)
    ]
    box = {}

    def master(core):
        box["results"] = yield from rt.farm(core, jobs)

    def handler(core, payload):
        yield from core.compute_cycles(payload * 1e-3 * FREQ)
        return payload, 64

    m.spawn(0, master)
    for s in rt.slave_ids:
        m.spawn(s, rt.slave_loop, handler)
    m.run()
    return m, rt, box["results"]


durations = st.lists(
    st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    min_size=1,
    max_size=30,
)
slave_counts = st.integers(min_value=1, max_value=8)


class TestFarmInvariants:
    @given(durations, slave_counts)
    @settings(max_examples=25, deadline=None)
    def test_work_conservation(self, ms, n):
        _, _, results = run_workload(ms, n)
        assert sorted(r.job_id for r in results) == list(range(len(ms)))
        # every job ran on exactly one slave
        assert len({(r.job_id,) for r in results}) == len(ms)

    @given(durations, slave_counts)
    @settings(max_examples=25, deadline=None)
    def test_makespan_lower_bounds(self, ms, n):
        m, _, _ = run_workload(ms, n)
        total_s = sum(ms) * 1e-3
        longest_s = max(ms) * 1e-3
        assert m.now >= total_s / n - 1e-12
        assert m.now >= longest_s - 1e-12

    @given(durations, slave_counts)
    @settings(max_examples=25, deadline=None)
    def test_greedy_upper_bound(self, ms, n):
        """Greedy list scheduling is within (total/n + max) plus the
        modelled per-job overheads (master service + comm)."""
        m, _, _ = run_workload(ms, n)
        total_s = sum(ms) * 1e-3
        longest_s = max(ms) * 1e-3
        overhead_per_job = 2e-3  # generous bound for master+comm per job
        bound = total_s / n + longest_s + len(ms) * overhead_per_job + 0.01
        assert m.now <= bound

    @given(durations, slave_counts)
    @settings(max_examples=10, deadline=None)
    def test_determinism(self, ms, n):
        m1, _, r1 = run_workload(ms, n)
        m2, _, r2 = run_workload(ms, n)
        assert m1.now == m2.now
        assert [(r.job_id, r.slave_id) for r in r1] == [
            (r.job_id, r.slave_id) for r in r2
        ]

    @given(durations)
    @settings(max_examples=10, deadline=None)
    def test_more_slaves_never_slower(self, ms):
        m2, _, _ = run_workload(ms, 2)
        m6, _, _ = run_workload(ms, 6)
        assert m6.now <= m2.now * 1.01  # tiny slack for extra poll costs


class TestCostPackedFarmProperties:
    """PR-6 invariants of the *real* process-pool farm under cost-packed
    scheduling: ordered bit-identical results for any job mix, and
    predicted chunk costs that track measured walls on real chains."""

    @given(
        subset=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=7),
            ).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=25,
        ),
        workers=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=5, deadline=None)
    def test_cost_packed_results_bit_identical_and_ordered(
        self, subset, workers
    ):
        """Any pair list (duplicates and both orientations allowed), any
        worker count: cost-packed farming returns exactly the serial
        stream — same values, same order."""
        from repro.datasets import load_dataset
        from repro.parallel import ParallelConfig, iter_pair_results
        from repro.psc import get_method

        ds = load_dataset("ck34-mini")
        method = get_method("sse_composition")
        serial = list(
            iter_pair_results(
                ds, subset, method, config=ParallelConfig(workers=0)
            )
        )
        farmed = list(
            iter_pair_results(
                ds, subset, method,
                config=ParallelConfig(workers=workers, chunk=0),
            )
        )
        assert farmed == serial  # equality on floats = bit identity

    def test_predicted_chunk_costs_track_measured_walls(self, ck34):
        """On real ck34 chains under the measured TM-align workload, the
        cost model's chunk predictions land within a tolerance band of
        the worker-side walls (after the single scale fit — scheduling
        only needs relative accuracy)."""
        from repro.parallel import FarmStats, ParallelConfig, iter_pair_results
        from repro.psc import get_method

        ds = ck34.subset(12, name="ck34-head12")
        pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        stats = FarmStats()
        list(
            iter_pair_results(
                ds, pairs, get_method("tmalign"),
                config=ParallelConfig(workers=2, chunk=0),
                stats=stats,
            )
        )
        assert stats.cost_packed
        err = stats.predicted_cost_error()
        assert err is not None
        # mean |relative error| after scale fit: generous band — per-pair
        # jitter and scheduling noise are real, 10x mispricing is not
        assert err < 0.6, f"predicted chunk costs off by {err:.2f} mean rel err"
