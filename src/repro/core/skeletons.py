"""rckskel: algorithmic skeletons for the simulated SCC (paper §IV).

The library mirrors the C API described in the paper:

* **SEQ** — run jobs on a set of processing elements strictly in order;
* **PAR** — distribute jobs round-robin without waiting for completion;
* **COLLECT** — round-robin poll processing elements until all results
  of the outstanding jobs are in;
* **FARM** — the master–slaves construct: wait for all slaves to be
  ready (``check_ready``), keep every slave busy, poll round-robin, and
  terminate the slaves when the job list is exhausted.

Communication model: jobs travel master→slave through the full RCCE
rendezvous (MPB-chunked); a finished slave deposits its result in its
own MPB and raises a flag, which the master discovers by *round-robin
polling* — each poll visit is a remote flag read priced at the mesh hop
latency.  To keep the event count tractable the simulator charges the
walked poll visits as one lump timeout and sleeps when no flag is up
(time-equivalent to busy polling; DESIGN.md §5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, Optional, Sequence

from repro.faults.sim import SimFaultPlan
from repro.scc.machine import Core, SccMachine
from repro.scc.rcce import Rcce
from repro.sim.engine import Environment, Event, SimulationError
from repro.sim.resources import Resource, Store

__all__ = [
    "FarmConfig",
    "Job",
    "JobFailure",
    "JobResult",
    "SkeletonRuntime",
    "TERMINATE",
]


class _Terminate:
    """Sentinel job payload telling a slave to exit its loop."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "TERMINATE"


TERMINATE = _Terminate()


@dataclass(frozen=True)
class Job:
    """One unit of work: an opaque payload plus its modelled wire size."""

    job_id: int
    payload: Any
    nbytes: int = 64

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("job nbytes must be non-negative")


@dataclass(frozen=True)
class JobResult:
    """What a slave posts back to the master."""

    job_id: int
    payload: Any
    slave_id: int
    nbytes: int
    finished_at: float


@dataclass(frozen=True)
class JobFailure:
    """Tombstone a dying slave leaves in place of a result.

    Fail-stop model with bounded detection: a killed slave stops after
    ``detect_seconds`` of simulated time and this marker is what the
    master's round-robin poll finds instead of a result flag.  It carries
    the job the slave was holding so the master can re-dispatch it to a
    survivor.
    """

    job: Job
    slave_id: int
    detected_at: float
    nbytes: int = 32

    @property
    def job_id(self) -> int:
        return self.job.job_id


@dataclass(frozen=True)
class FarmConfig:
    """Master-side bookkeeping costs (cycles on the master's core).

    ``master_job_cycles`` covers building one job and staging it for
    send; ``master_result_cycles`` covers unpacking and storing one
    result.  They are the knobs that make the single master a soft
    bottleneck at high slave counts, calibrated against the paper's
    Table IV (see EXPERIMENTS.md); the per-visit poll cost models the
    remote MPB flag read.
    """

    master_job_cycles: float = 24.0e6
    master_result_cycles: float = 24.0e6
    poll_flag_bytes: int = 32
    # Launching the SPMD binary on a core faults it in over the MCPC's
    # NFS export, which serializes on the loader/disk; the master's FARM
    # cannot start until every slave reports ready (check_ready), so at
    # high core counts this shows up as a ~0.2 s-per-slave startup ramp
    # (visible in the paper's Table IV as the extra constant at 47
    # slaves).
    slave_boot_seconds: float = 0.2

    def __post_init__(self) -> None:
        if self.master_job_cycles < 0 or self.master_result_cycles < 0:
            raise ValueError("master cycle costs must be non-negative")
        if self.slave_boot_seconds < 0:
            raise ValueError("slave_boot_seconds must be non-negative")


# A slave handler is a generator coroutine: handler(core, payload)
# -> returns (result_payload, result_nbytes).
SlaveHandler = Callable[[Core, Any], Generator]


class SkeletonRuntime:
    """Shared state binding a master, its slaves, and the constructs."""

    def __init__(
        self,
        machine: SccMachine,
        rcce: Rcce,
        master_id: int,
        slave_ids: Sequence[int],
        config: Optional[FarmConfig] = None,
        fault_plan: Optional[SimFaultPlan] = None,
    ) -> None:
        slave_ids = list(slave_ids)
        if master_id in slave_ids:
            raise ValueError("master cannot also be a slave")
        if len(set(slave_ids)) != len(slave_ids):
            raise ValueError("duplicate slave ids")
        if not slave_ids:
            raise ValueError("need at least one slave")
        self.machine = machine
        self.rcce = rcce
        self.master_id = master_id
        self.slave_ids = slave_ids
        self.config = config or FarmConfig()
        env = machine.env
        self._outbox: dict[int, Store] = {s: Store(env) for s in slave_ids}
        self._ready: Store = Store(env)
        self._signal: Optional[Event] = None
        self._ready_count = 0
        self._boot_loader = Resource(env, capacity=1)
        # Poll-visit costs depend only on the (master, slave) tile pair
        # and the NoC constants, so they are cached — the master walks
        # the same poll ring thousands of times per farm.
        self._visit_cost_cache: dict[tuple[int, int], float] = {}
        self._order_cost_cache: dict[tuple[int, ...], tuple[list[float], float]] = {}
        self.fault_plan = fault_plan
        # instrumentation
        self.poll_visits = 0
        self.results_collected = 0
        self.failures_detected = 0
        self.jobs_reassigned = 0
        self.failed_slaves: list[int] = []

    # -- slave side --------------------------------------------------------
    def slave_loop(self, core: Core, handler: SlaveHandler) -> Generator:
        """Program run by every slave core (paper Fig. 3 template).

        Boots (binary faulted in through the serialized loader),
        announces readiness, then blocks receiving jobs from the master,
        executes ``handler`` on each, posts the result, and exits on
        TERMINATE.

        With a fault plan attached, a ``kill`` fault makes the slave
        fail-stop while holding its ``after_jobs``-th job: after
        ``detect_seconds`` the failure becomes visible as a
        :class:`JobFailure` tombstone in the slave's MPB (where the
        master's poll expects a result flag) and the slave never runs
        again.  A ``slow`` fault degrades the core's effective frequency
        from that point on — jobs still complete, just late.
        """
        fault = (
            self.fault_plan.for_slave(core.id)
            if self.fault_plan is not None
            else None
        )
        if self.config.slave_boot_seconds > 0:
            req = self._boot_loader.request()
            yield req
            try:
                yield self._env.timeout(self.config.slave_boot_seconds)
            finally:
                self._boot_loader.release(req)
        yield from self._post_ready(core)
        completed = 0
        while True:
            msg = yield from self.rcce.recv(core, self.master_id)
            if isinstance(msg.payload, _Terminate):
                return
            job: Job = msg.payload
            if fault is not None and completed >= fault.after_jobs:
                if fault.kind == "kill":
                    # Fail-stop mid-job.  The detection bound covers the
                    # master noticing the stuck flag / missed heartbeat.
                    yield self._env.timeout(fault.detect_seconds)
                    self._outbox[core.id].put(
                        JobFailure(job, core.id, core.env.now)
                    )
                    self._fire_signal()
                    return
                core.freq_scale = 1.0 / fault.slow_factor  # 'slow'
            out = yield from handler(core, job.payload)
            result_payload, result_nbytes = out
            core.stats.jobs_done += 1
            completed += 1
            yield from self._post_result(
                core,
                JobResult(
                    job.job_id,
                    result_payload,
                    core.id,
                    int(result_nbytes),
                    core.env.now,
                ),
            )

    def _post_ready(self, core: Core) -> Generator:
        yield self.machine.env.timeout(self.machine.config.noc.local_latency_s)
        self._ready.put(core.id)
        self._fire_signal()

    def _post_result(self, core: Core, result: JobResult) -> Generator:
        # local copy of the result into the slave's own MPB + flag raise
        yield self.machine.env.timeout(self.machine.config.noc.local_latency_s)
        self._outbox[core.id].put(result)
        self._fire_signal()

    def _fire_signal(self) -> None:
        if self._signal is not None and not self._signal.triggered:
            self._signal.succeed()

    # -- master-side cost helpers ------------------------------------------
    @property
    def _env(self) -> Environment:
        return self.machine.env

    def _poll_visit_seconds(self, master: Core, slave: int) -> float:
        """Cost of one remote MPB flag read by the master (cached)."""
        key = (master.id, slave)
        cached = self._visit_cost_cache.get(key)
        if cached is not None:
            return cached
        cfg = self.machine.config
        hops = self.machine.fabric.mesh.hop_count(
            self.machine.fabric.mesh.coord(master.tile),
            self.machine.fabric.mesh.coord(cfg.tile_of_core(slave)),
        )
        noc = cfg.noc
        cost = (
            hops * noc.hop_latency_s
            + self.config.poll_flag_bytes / noc.link_bandwidth_bytes_per_s
            + noc.local_latency_s
        )
        self._visit_cost_cache[key] = cost
        return cost

    def _order_costs(self, master: Core, order: Sequence[int]) -> tuple[list[float], float]:
        """Per-visit costs along one poll ring plus their round-trip sum,
        cached per (master, ring) — the ring is fixed for a whole farm."""
        key = (master.id, *order)
        cached = self._order_cost_cache.get(key)
        if cached is None:
            costs = [self._poll_visit_seconds(master, s) for s in order]
            cached = (costs, sum(costs))
            self._order_cost_cache[key] = cached
        return cached

    def _pull_result(self, master: Core, slave: int, result: JobResult) -> Generator:
        """Move a posted result from the slave's MPB to the master."""
        yield from self.machine.fabric.transfer(
            self.machine.config.tile_of_core(slave),
            master.tile,
            result.nbytes + self.config.poll_flag_bytes,
        )
        yield from master.compute_cycles(self.config.master_result_cycles)
        if not isinstance(result, JobFailure):
            self.results_collected += 1

    def _dispatch(self, master: Core, slave: int, job: Job) -> Generator:
        yield from master.compute_cycles(self.config.master_job_cycles)
        yield from self.rcce.send(master, slave, job, nbytes=job.nbytes)

    def _scan_for_result(
        self, master: Core, order: Sequence[int], start: int
    ) -> Generator:
        """Round-robin scan from position ``start``; returns
        ``(slave, result, next_start)`` or None if no flag is up.

        Visits are charged as one lump timeout (see module docstring).
        """
        n = len(order)
        costs, round_trip = self._order_costs(master, order)
        outbox = self._outbox
        for k in range(n):
            slave = order[(start + k) % n]
            ok, item = outbox[slave].try_get()
            if ok:
                visited = k + 1
                self.poll_visits += visited
                yield self._env.timeout(
                    sum(costs[(start + m) % n] for m in range(visited))
                )
                return slave, item, (start + k + 1) % n
        self.poll_visits += n
        yield self._env.timeout(round_trip)
        return None

    def _wait_signal(self, box: Optional[Store] = None) -> Generator:
        """Sleep until a slave posts; ``box`` narrows the lost-wakeup
        re-check to the one outbox the caller awaits."""
        self._signal = self._env.event()
        # re-check after arming to avoid a lost wakeup
        if box is not None:
            posted = len(box) > 0
        else:
            posted = any(len(b) for b in self._outbox.values()) or len(self._ready)
        if posted:
            self._signal.succeed()
        yield self._signal
        self._signal = None

    # -- constructs -----------------------------------------------------------
    def check_ready(self, master: Core, expected: Optional[int] = None) -> Generator:
        """Block until ``expected`` slaves announced readiness (all by
        default).  This is rckskel's ``check_ready`` hook.

        Idempotent: slaves announce once, and the count of consumed
        announcements persists, so back-to-back FARMs on the same
        slaves don't re-wait.
        """
        expected = len(self.slave_ids) if expected is None else expected
        while self._ready_count < expected:
            got, _ = self._ready.try_get()
            if got:
                self._ready_count += 1
                continue
            yield from self._wait_signal()

    def seq(
        self,
        master: Core,
        jobs: Sequence[Job],
        ue_ids: Optional[Sequence[int]] = None,
        collector: Optional[Callable[[JobResult], None]] = None,
    ) -> Generator:
        """SEQ: run jobs strictly one after another on the given UEs."""
        ues = list(ue_ids or self.slave_ids)
        results: list[JobResult] = []
        for k, job in enumerate(jobs):
            slave = ues[k % len(ues)]
            yield from self._dispatch(master, slave, job)
            result = yield from self._await_slave(master, slave)
            if collector is not None:
                collector(result)
            results.append(result)
        return results

    def par(
        self,
        master: Core,
        jobs: Sequence[Job],
        ue_ids: Optional[Sequence[int]] = None,
    ) -> Generator:
        """PAR: distribute jobs round-robin; do not wait for results.

        With more jobs than UEs, a send to a still-busy UE blocks until
        that UE accepts the next job (rendezvous semantics), exactly as
        issuing through RCCE would.
        """
        ues = list(ue_ids or self.slave_ids)
        for k, job in enumerate(jobs):
            yield from self._dispatch(master, ues[k % len(ues)], job)
        return len(jobs)

    def collect(
        self,
        master: Core,
        n_results: int,
        ue_ids: Optional[Sequence[int]] = None,
        collector: Optional[Callable[[JobResult], None]] = None,
    ) -> Generator:
        """COLLECT: round-robin poll until ``n_results`` arrive."""
        ues = list(ue_ids or self.slave_ids)
        results: list[JobResult] = []
        pos = 0
        while len(results) < n_results:
            found = yield from self._scan_for_result(master, ues, pos)
            if found is None:
                yield from self._wait_signal()
                continue
            slave, result, pos = found
            yield from self._pull_result(master, slave, result)
            if collector is not None:
                collector(result)
            results.append(result)
        return results

    def _await_slave(self, master: Core, slave: int) -> Generator:
        """Wait (polling this one slave) until it posts a result.

        Sleeps until that slave's outbox fills and charges the wait as
        one lumped poll visit, the one that finds the flag; ready
        announcements and other slaves' posts only wake the re-check.
        """
        box = self._outbox[slave]
        while not len(box):
            yield from self._wait_signal(box)
        _, item = box.try_get()
        self.poll_visits += 1
        yield self._env.timeout(self._poll_visit_seconds(master, slave))
        yield from self._pull_result(master, slave, item)
        return item

    def farm(
        self,
        master: Core,
        jobs: Sequence[Job],
        ue_ids: Optional[Sequence[int]] = None,
        collector: Optional[Callable[[JobResult], None]] = None,
        terminate: bool = True,
        on_dispatch: Optional[Callable[[Core, Job], Generator]] = None,
    ) -> Generator:
        """FARM: the paper's master–slaves construct.

        Waits for slave readiness, primes one job per slave, then keeps
        every slave busy with round-robin polling until the job list is
        exhausted; finally sends TERMINATE (unless ``terminate=False``,
        for callers that will farm again on the same slaves).

        ``on_dispatch`` is an optional master-side coroutine run before
        each job is sent — e.g. the streaming loader that faults
        structures into the master's limited memory.

        Failure handling: when the poll finds a :class:`JobFailure`
        tombstone instead of a result, the master permanently removes
        that slave from its poll ring, re-enqueues the lost job at the
        front of the queue, and hands it to the next slave that frees up
        — so a dead core costs its share of throughput, never a job.
        """
        ues = list(ue_ids or self.slave_ids)
        # Wait only for as many ready announcements as this farm uses:
        # waiting on every runtime slave would deadlock when the caller
        # farms over a subset and only that subset was spawned.
        yield from self.check_ready(master, expected=len(ues))
        queue = deque(jobs)
        results: list[JobResult] = []

        def dispatch(slave: int, job: Job) -> Generator:
            if on_dispatch is not None:
                yield from on_dispatch(master, job)
            yield from self._dispatch(master, slave, job)

        live = list(ues)
        busy: set[int] = set()
        for slave in live:
            if not queue:
                break
            yield from dispatch(slave, queue.popleft())
            busy.add(slave)
        pos = 0
        while busy or queue:
            if queue and len(busy) < len(live):
                # Idle live slaves with queued work: only reachable after
                # a failure handed a job back, so re-prime immediately.
                for slave in live:
                    if not queue:
                        break
                    if slave not in busy:
                        yield from dispatch(slave, queue.popleft())
                        busy.add(slave)
            found = yield from self._scan_for_result(master, live, pos)
            if found is None:
                yield from self._wait_signal()
                continue
            slave, result, pos = found
            yield from self._pull_result(master, slave, result)
            if isinstance(result, JobFailure):
                self.failures_detected += 1
                self.jobs_reassigned += 1
                self.failed_slaves.append(slave)
                busy.discard(slave)
                live.remove(slave)
                queue.appendleft(result.job)
                if not live:
                    raise SimulationError(
                        f"all farm slaves failed; {len(queue)} jobs stranded"
                    )
                pos %= len(live)
                continue
            if collector is not None:
                collector(result)
            results.append(result)
            busy.discard(slave)
            if queue:
                yield from dispatch(slave, queue.popleft())
                busy.add(slave)
        if terminate:
            yield from self.shutdown(master, ues)
        return results

    def farm_grouped(
        self,
        master: Core,
        groups: Mapping[str, tuple[Sequence[Job], Sequence[int]]],
        collector: Optional[Callable[[str, JobResult], None]] = None,
        terminate: bool = True,
    ) -> Generator:
        """FARM with per-group job queues and disjoint slave partitions.

        ``groups`` maps a group name to ``(jobs, ue_ids)``; each slave
        only ever receives jobs of its own group.  This is the engine of
        the multi-criteria PSC extension (paper §V): different slave
        partitions run different PSC algorithms concurrently under one
        master.  Returns ``{group: [JobResult, ...]}``.
        """
        slave_group: dict[int, str] = {}
        queues: dict[str, deque[Job]] = {}
        for gname, (gjobs, gues) in groups.items():
            queues[gname] = deque(gjobs)
            for ue in gues:
                if ue in slave_group:
                    raise ValueError(f"slave {ue} assigned to two groups")
                if ue not in self._outbox:
                    raise ValueError(f"slave {ue} is not part of this runtime")
                slave_group[ue] = gname
        order = [s for s in self.slave_ids if s in slave_group]
        # As in farm(): a grouped farm over a partition of the slaves
        # must not wait for readiness of slaves outside the partition.
        yield from self.check_ready(master, expected=len(order))
        results: dict[str, list[JobResult]] = {g: [] for g in groups}
        outstanding = 0
        for slave in order:
            queue = queues[slave_group[slave]]
            if queue:
                yield from self._dispatch(master, slave, queue.popleft())
                outstanding += 1
        pos = 0
        while outstanding:
            found = yield from self._scan_for_result(master, order, pos)
            if found is None:
                yield from self._wait_signal()
                continue
            slave, result, pos = found
            yield from self._pull_result(master, slave, result)
            gname = slave_group[slave]
            if collector is not None:
                collector(gname, result)
            results[gname].append(result)
            outstanding -= 1
            queue = queues[gname]
            if queue:
                yield from self._dispatch(master, slave, queue.popleft())
                outstanding += 1
        if terminate:
            yield from self.shutdown(master)
        return results

    def shutdown(self, master: Core, ue_ids: Optional[Sequence[int]] = None) -> Generator:
        """Send TERMINATE to the given (default: all) surviving slaves.

        Failed slaves are skipped: a rendezvous send to a core that will
        never post a receive flag would block the master forever.
        """
        for slave in ue_ids or self.slave_ids:
            if slave in self.failed_slaves:
                continue
            yield from self.rcce.send(master, slave, TERMINATE, nbytes=0)
