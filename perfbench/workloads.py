"""The two workloads: inputs from the seed, set-up, a timed phase,
output checks.

* ``matrix_batch`` — all-vs-all TM-align of a seeded ck34 (every chain
  perturbed) through :func:`repro.runs.matrix_run` on the process farm:
  the paper's task as the ``matrix`` command runs it; kernel and farm do
  the work and the service is bypassed.
* ``search_cold`` — one closed-loop client through coordinator -> one
  shard: ``register`` a new off-corpus query, then ``search`` it against
  ck34.  Every query is a fresh perturbation of a ck34 chain, so all 34
  pairs miss cache and store for any run length; batcher, farm dispatch
  and kernel work.

A timed phase does a fixed amount of work, sized from its seconds:
whole matrices, or whole rounds of queries, one per ck34 family.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import procs

#: setups per run, per workload; ``setup_s`` is their median
SETUP_REPEATS = {"matrix_batch": 11, "search_cold": 3}
#: ck34 chains in the ``search_cold`` store (consulted, always missed)
COLD_STORE_CHAINS = 4
#: pairs of ``matrix_batch`` re-checked against in-process tm_align
MATRIX_CHECK_PAIRS = 4
#: ``search_cold`` queries re-checked against in-process one_vs_all
SEARCH_CHECK_QUERIES = 2
#: pairs a ``search_cold`` query is compared with: all of ck34
CK34_CHAINS = 34
#: ``search_cold`` requests in a unit: one round, a query from each of
#: the five ck34 families
REQUESTS_PER_UNIT = 5

#: seconds one unit of work takes on a 2-vCPU reference machine: a
#: ``matrix_batch`` matrix, or a round of ``search_cold`` requests.  A
#: timed phase does a fixed number of units, its seconds over this, so
#: every run does the same work whatever the machine's speed at the
#: moment
NOMINAL_UNIT_S = {"matrix_batch": 21.0, "search_cold": 8.5}
#: independent latency samples per unit, for the tail rule.  A request
#: is one.  A matrix's pairs come back in chunks whose pairs share
#: dispatch and delivery: 16 of them on 2 workers at this writing
INDEPENDENT_PER_UNIT = {"matrix_batch": 16, "search_cold": REQUESTS_PER_UNIT}


def units(workload: str, seconds: float) -> int:
    """Units of work in a timed phase of ``seconds``: at least one."""
    return max(1, round(seconds / NOMINAL_UNIT_S[workload]))


def tail_q(workload: str, seconds: float) -> float:
    """The highest whole percentile with at least 10 independent samples
    beyond it; fixed per workload, because the work of a run is."""
    n = units(workload, seconds) * INDEPENDENT_PER_UNIT[workload]
    return max(0.5, math.floor(100 * (1 - 10 / n)) / 100)


@dataclass
class Context:
    root: str
    build: str
    run_dir: str
    seed: int
    nproc: int
    sampler: procs.TreeSampler


@dataclass
class Phase:
    """What one timed phase measured."""

    wall: float = 0.0
    requests: int = 0
    # pairs evaluated, and the seconds of the requests that evaluated them
    pairs: int = 0
    busy: float = 0.0
    latencies: List[float] = field(default_factory=list)
    # latency samples that are independent: requests, or farm chunks
    independent: int = 0
    # the farm's own accounting of each matrix run
    farm: List[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    peak_rss: float = 0.0
    # perf_counter (start, end) of each request, for the RSS peak
    windows: List[Tuple[float, float]] = field(default_factory=list)
    cpu: Dict[str, float] = field(default_factory=dict)
    # the machine around the phase: loop rates before and after, and
    # the share of CPU time stolen by other guests during it
    host: Dict[str, float] = field(default_factory=dict)
    server_before: Dict = field(default_factory=dict)
    server_after: Dict = field(default_factory=dict)
    t0_ns: int = 0
    t1_ns: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def _timed(ctx: Context, phase: Phase, cpu: procs.CpuAccount, body) -> Phase:
    """Run ``body(phase)`` as the timed phase, with RSS sampling
    and per-role CPU accounting around it."""
    before = procs.loop_rate()
    stolen = procs.steal_ticks()
    ctx.sampler.measure(True)
    cpu.start()
    phase.t0_ns = time.monotonic_ns()
    t0 = time.perf_counter()
    body(phase)
    phase.wall = time.perf_counter() - t0
    phase.t1_ns = time.monotonic_ns()
    phase.cpu = cpu.stop()
    stolen = (procs.steal_ticks() - stolen) / procs.CLK_TCK
    phase.host = {
        "loop_rate_before": before,
        "loop_rate_after": procs.loop_rate(),
        "steal_share": stolen / (phase.wall * ctx.nproc),
    }
    ctx.sampler.sample()
    ctx.sampler.measure(False)
    phase.peak_rss = ctx.sampler.request_peak(phase.windows)
    return phase


# -- matrix_batch -------------------------------------------------------------
class _PairClock:
    """perf_counter() of each pair's first dispatch — its chunk handed to
    a pool worker, or evaluated on the master once the farm has fallen
    back to serial — and of its journal append.  A pair's latency is the
    time between the two: queueing, evaluation and in-order delivery."""

    dispatched: Dict[Tuple[int, int], float] = {}
    journaled: Dict[Tuple[int, int], float] = {}

    @classmethod
    def install(cls) -> None:
        from concurrent.futures import ProcessPoolExecutor

        from repro.parallel import farm
        from repro.runs.store import RunJournal

        if getattr(RunJournal.append, "_perfbench_clock", False):
            return

        def stamp(pairs) -> None:
            now = time.perf_counter()
            for i, j in pairs:
                cls.dispatched.setdefault((i, j), now)

        submit = ProcessPoolExecutor.submit

        def pool_submit(self, fn, *args, **kwargs):
            if getattr(fn, "__name__", "") == "eval_chunk":
                stamp(args[0])
            return submit(self, fn, *args, **kwargs)

        inprocess = farm._inprocess_chunk

        def inprocess_chunk(dataset, pairs, *args, **kwargs):
            stamp(pairs)
            return inprocess(dataset, pairs, *args, **kwargs)

        append = RunJournal.append

        def journal_append(self, i, j, *args, **kwargs):
            out = append(self, i, j, *args, **kwargs)
            cls.journaled[(i, j)] = time.perf_counter()
            return out

        journal_append._perfbench_clock = True
        ProcessPoolExecutor.submit = pool_submit
        farm._inprocess_chunk = inprocess_chunk
        RunJournal.append = journal_append

    @classmethod
    def reset(cls) -> None:
        cls.dispatched = {}
        cls.journaled = {}

    @classmethod
    def latencies(cls) -> List[float]:
        return [t - cls.dispatched[p] for p, t in cls.journaled.items()]


def perturbed_ck34(seed: int):
    from repro.datasets.registry import Dataset, load_dataset
    from repro.structure.synthetic import perturb_chain

    rng = np.random.default_rng(seed)
    chains = tuple(
        perturb_chain(
            c, rng, f"{c.name}_p", jitter=0.3, hinge_angle_deg=5.0,
            max_indel=2, seq_identity=0.9,
        )
        for c in load_dataset("ck34").chains
    )
    return Dataset(f"ck34-perturbed-{seed}", chains, "seeded ck34 perturbation")


class MatrixBatch:
    name = "matrix_batch"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        _PairClock.install()

    def setup(self, traced: bool = False) -> dict:
        from repro.psc.methods import TMAlignMethod
        from repro.runs.store import RunStore

        dataset = perturbed_ck34(self.ctx.seed)
        method = TMAlignMethod()
        # first kernel call loads the compiled DP sweep
        method.compare(dataset[15], dataset[16], _counter())
        runs = os.path.join(self.ctx.run_dir, "matrix-runs")
        shutil.rmtree(runs, ignore_errors=True)
        return {"dataset": dataset, "method": method, "store": RunStore(runs)}

    def teardown(self, env: dict) -> None:
        from repro.parallel import shutdown_planes

        shutdown_planes()

    def measure(self, env: dict, seconds: float) -> Phase:
        from repro.parallel import ParallelConfig
        from repro.runs.matrix import matrix_run

        ctx = self.ctx
        config = ParallelConfig(workers=ctx.nproc)
        env["runs"] = []

        def body(phase: Phase) -> None:
            for k in range(units(self.name, seconds)):
                _PairClock.reset()
                out = os.path.join(ctx.run_dir, f"matrix-{k}.csv")
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    res = matrix_run(
                        env["dataset"], env["method"], out, env["store"],
                        config=config,
                    )
                except Exception as exc:  # a failed request, not a crash
                    phase.fail(f"matrix_run: {type(exc).__name__}: {exc}")
                    break
                done = time.perf_counter()
                phase.windows.append((t0, done))
                phase.requests += 1
                phase.pairs += res.n_pairs
                phase.busy += done - t0
                phase.latencies.extend(_PairClock.latencies())
                phase.independent += len(set(_PairClock.dispatched.values()))
                if res.n_rows != res.n_pairs or res.n_computed != res.n_pairs:
                    phase.fail(f"matrix run {res.run_id}: {res.n_rows} rows")
                env["runs"].append(res.run_id)
                stats = res.stats
                phase.farm.append({
                    "workers": stats.workers, "backoffs": stats.backoffs,
                    "final_window": stats.final_window,
                    "serial_fallback": stats.serial_fallback,
                    "tail_imbalance": stats.tail_imbalance(),
                })

        cpu = procs.CpuAccount({"client": os.getpid()}, os.getpid())
        return _timed(ctx, Phase(), cpu, body)

    def check(self, env: dict, phase: Phase) -> List[str]:
        """A seeded sample of journaled pairs must equal in-process
        tm_align bit for bit."""
        if not env.get("runs"):
            return ["no matrix run completed"]
        run = env["store"].open(env["runs"][0])
        journal = run.load_journal()
        n = len(env["dataset"])
        rng = np.random.default_rng(self.ctx.seed + 1)
        failures = []
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for k in rng.choice(len(pairs), MATRIX_CHECK_PAIRS, replace=False):
            i, j = pairs[int(k)]
            want = env["method"].compare(
                env["dataset"][i], env["dataset"][j], _counter()
            )
            got = journal.scores((i, j))
            if got != want:
                failures.append(f"pair {(i, j)}: farm {got} != in-process {want}")
        return failures


def _counter():
    from repro.cost.counters import CostCounter

    return CostCounter()


# -- service workloads --------------------------------------------------------
class Services:
    """One shard (``serve``) and its coordinator (``serve-shard``),
    launched through ``boot.py`` so a traced run can wrap them."""

    def __init__(self, ctx: Context, store_dir: str, tag: str,
                 trace_dir: Optional[str] = None) -> None:
        self.ctx = ctx
        self.store_dir = store_dir
        self.tag = tag
        self.trace_dir = trace_dir
        self.procs: List[Tuple[str, subprocess.Popen]] = []
        self.ports: Dict[str, int] = {}
        self.pids: Dict[str, int] = {}

    def _launch(self, role: str, argv: List[str], pattern: str) -> int:
        ctx = self.ctx
        log_path = os.path.join(ctx.run_dir, f"{role}-{self.tag}.log")
        env = dict(os.environ)
        if self.trace_dir:
            env["PERFBENCH_TRACE_DIR"] = self.trace_dir
            env["PERFBENCH_ROLE"] = role
        boot = os.path.join(os.path.dirname(os.path.abspath(__file__)), "boot.py")
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [sys.executable, boot, *argv],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ctx.run_dir,
            )
        self.procs.append((role, proc))
        self.pids[role] = proc.pid
        deadline = time.monotonic() + 120
        regex = re.compile(pattern)
        while time.monotonic() < deadline:
            with open(log_path) as fh:
                m = regex.search(fh.read())
            if m:
                return int(m.group(1))
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"{role} did not start:\n{tail}")

    def start(self) -> None:
        ctx = self.ctx
        shard = self._launch(
            "shard",
            [
                "serve", "--dataset", "ck34", "--workers", str(ctx.nproc),
                "--port", "0",
                "--runs-dir", os.path.join(ctx.run_dir, f"runs-{self.tag}"),
                "--matstore-dir", self.store_dir,
            ],
            r"serving .* on [\d.]+:(\d+)",
        )
        self.ports["shard"] = shard
        self.ports["coordinator"] = self._launch(
            "coordinator",
            ["serve-shard", f"127.0.0.1:{shard}", "--port", "0",
             "--timeout", "120"],
            r"coordinating .* on [\d.]+:(\d+)",
        )

    def client(self, role: str = "coordinator", timeout: float = 120.0):
        from repro.service.client import ServiceClient

        return ServiceClient(port=self.ports[role], timeout=timeout)

    def shard_metrics(self) -> dict:
        with self.client("shard") as c:
            return c.metrics()

    def stop(self) -> List[str]:
        """Broadcast shutdown and wait; a server that has to be killed
        is reported as a failure."""
        problems = []
        if "coordinator" in self.ports:
            try:
                with self.client(timeout=30) as c:
                    c.shutdown(broadcast=True)
            except Exception as exc:
                problems.append(f"shutdown: {type(exc).__name__}: {exc}")
        for role, proc in reversed(self.procs):
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                problems.append(f"{role} ignored shutdown and was killed")
        self.procs = []
        return problems


def _build_store(ctx: Context, chains, root: str) -> float:
    from repro.datasets.registry import Dataset
    from repro.matstore import build_store
    from repro.parallel import ParallelConfig, shutdown_planes

    shutil.rmtree(root, ignore_errors=True)
    t0 = time.perf_counter()
    build_store(
        Dataset("ck34-subset", tuple(chains), "benchmark store subset"),
        root,
        config=ParallelConfig(workers=ctx.nproc),
    )
    shutdown_planes()
    return time.perf_counter() - t0


def _subset(seed: int, k: int):
    from repro.datasets.registry import load_dataset

    ck34 = load_dataset("ck34")
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(len(ck34), k, replace=False).tolist())
    return [ck34[int(p)] for p in picks]


class SearchCold:
    name = "search_cold"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self._n = 0

    def setup(self, traced: bool = False) -> dict:
        ctx = self.ctx
        self._n += 1
        tag = f"{self._n}"
        store = os.path.join(ctx.run_dir, f"store-{tag}")
        build_s = _build_store(ctx, _subset(ctx.seed, COLD_STORE_CHAINS), store)
        trace_dir = os.path.join(ctx.run_dir, "trace") if traced else None
        services = Services(ctx, store, tag, trace_dir)
        env = {"services": services, "build_s": build_s, "problems": []}
        try:
            services.start()
        except BaseException:
            env["problems"] += services.stop()
            raise
        return env

    def teardown(self, env: dict) -> None:
        env["problems"] += env["services"].stop()

    def queries(self):
        """Seeded stream of (name, PDB text) new queries, in rounds of
        one perturbed parent from each ck34 family, families in a seeded
        order.  Round r takes the r-th parent of a seeded order of each
        family, so every run of whole rounds searches the same mix of
        folds and lengths (lengths within a family differ by a few
        residues), and different seeds use every ck34 chain."""
        from repro.datasets.registry import load_dataset
        from repro.structure.pdbio import chain_to_pdb
        from repro.structure.synthetic import perturb_chain

        families = list(load_dataset("ck34").families.values())
        rng = np.random.default_rng(self.ctx.seed)
        orders = [rng.permutation(len(f)) for f in families]
        k = 0
        for r in itertools.count():
            for f in rng.permutation(len(families)):
                order = orders[f]
                parent = families[f][int(order[r % len(order)])]
                name = f"query_{self.ctx.seed}_{k}"
                k += 1
                yield name, chain_to_pdb(perturb_chain(parent, rng, name))

    def warm_up(self, services: Services) -> List[str]:
        """One untimed request of a query outside the timed stream, so
        the timed phase starts on servers past their first request."""
        from repro.datasets.registry import load_dataset
        from repro.structure.pdbio import chain_to_pdb
        from repro.structure.synthetic import perturb_chain

        rng = np.random.default_rng([self.ctx.seed, self._n])
        name = f"warmup_{self.ctx.seed}_{self._n}"
        pdb = chain_to_pdb(perturb_chain(load_dataset("ck34")[0], rng, name))
        try:
            with services.client() as client:
                client.register_pdb(name, pdb, corpus=False)
                result = client.search(name, top=10)
        except Exception as exc:
            return [f"warm-up {name}: {type(exc).__name__}: {exc}"]
        if result["corpus"] != CK34_CHAINS:
            return [f"warm-up {name}: corpus={result['corpus']}"]
        return []

    def measure(self, env: dict, seconds: float) -> Phase:
        services = env["services"]
        env["served"] = []
        stream = self.queries()
        env["problems"] += self.warm_up(services)
        env["phase_before"] = services.shard_metrics()

        def body(phase: Phase) -> None:
            with services.client() as client:
                for _ in range(units(self.name, seconds) * REQUESTS_PER_UNIT):
                    name, pdb = next(stream)
                    phase.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        client.register_pdb(name, pdb, corpus=False)
                        result = client.search(name, top=10)
                    except Exception as exc:
                        phase.fail(f"{name}: {type(exc).__name__}: {exc}")
                        continue
                    done = time.perf_counter()
                    phase.windows.append((t0, done))
                    phase.requests += 1
                    phase.pairs += result["corpus"]
                    phase.busy += done - t0
                    phase.latencies.append(done - t0)
                    phase.independent += 1
                    env["served"].append((name, pdb, result))
                    if result["from_cache"] != 0 or result["corpus"] != CK34_CHAINS:
                        # warm regime where a cold one was asked for
                        phase.fail(
                            f"{name}: from_cache={result['from_cache']} "
                            f"corpus={result['corpus']}"
                        )

        pids = services.pids
        cpu = procs.CpuAccount(
            {"client": os.getpid(), "coordinator": pids["coordinator"],
             "shard": pids["shard"]},
            pids["shard"],
        )
        phase = _timed(self.ctx, Phase(), cpu, body)
        phase.server_before = env.pop("phase_before")
        phase.server_after = services.shard_metrics()
        return phase

    def check(self, env: dict, phase: Phase) -> List[str]:
        """A seeded sample of served queries must rank the same top-10,
        with the same scores, as in-process ``one_vs_all``."""
        from repro.datasets.registry import load_dataset
        from repro.psc.methods import TMAlignMethod
        from repro.psc.search import one_vs_all
        from repro.structure.pdbio import chain_from_pdb

        served = env.get("served") or []
        if not served:
            return ["no search completed"]
        rng = np.random.default_rng(self.ctx.seed + 1)
        picks = rng.choice(
            len(served), min(SEARCH_CHECK_QUERIES, len(served)), replace=False
        )
        failures = []
        ck34 = load_dataset("ck34")
        for k in picks:
            name, pdb, result = served[int(k)]
            hits = one_vs_all(chain_from_pdb(pdb, name), ck34, TMAlignMethod())
            want = [(h.chain_name, h.score, h.details) for h in hits[:10]]
            got = [(h["chain"], h["score"], h["scores"]) for h in result["hits"]]
            if got != want:
                failures.append(f"{name}: service top-10 differs from one_vs_all")
        return failures


WORKLOADS = {w.name: w for w in (MatrixBatch, SearchCold)}
