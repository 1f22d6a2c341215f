"""Command-line interface.

Experiment harnesses (regenerate the paper's tables/figures)::

    python -m repro.cli table1
    python -m repro.cli exp2 --quick --dataset both
    python -m repro.cli all --quick

Tool commands::

    python -m repro.cli align a.pdb b.pdb       # pairwise TM-align
    python -m repro.cli search query.pdb --dataset ck34 --top 10
    python -m repro.cli info --dataset rs119    # dataset summary
    python -m repro.cli bench                   # hot-path wall-clock bench
    python -m repro.cli serve --port 7743       # always-on query service
    python -m repro.cli serve-shard 7744 7745   # scatter-gather coordinator
    python -m repro.cli bench --service --check # 1 vs N shard load test
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Optional, Sequence

from repro.experiments import (
    SLAVE_GRID_FULL,
    SLAVE_GRID_QUICK,
    run_ablation_balancing,
    run_ablation_hierarchy,
    run_ablation_mcpsc,
    run_exp1,
    run_exp2,
    run_exp_resilience,
    run_table1,
    run_table3,
    run_table5,
)
from repro.experiments.ablations import (
    run_ablation_energy,
    run_ablation_frequency,
    run_ablation_inits,
    run_ablation_memory,
)

__all__ = ["main", "build_parser"]


def _grid(args) -> tuple[int, ...]:
    return SLAVE_GRID_QUICK if args.quick else SLAVE_GRID_FULL


# ---------------------------------------------------------------- experiments
def _cmd_table1(args) -> str:
    return run_table1().to_text()


def _cmd_table3(args) -> str:
    return run_table3(mode=args.mode).to_text()


def _cmd_exp1(args) -> str:
    return run_exp1(
        dataset=args.dataset, slave_counts=_grid(args), mode=args.mode
    ).to_text()


def _cmd_exp2(args) -> str:
    datasets = (args.dataset,) if args.dataset != "both" else ("ck34", "rs119")
    return run_exp2(
        datasets=datasets, slave_counts=_grid(args), mode=args.mode
    ).to_text()


def _cmd_table5(args) -> str:
    return run_table5(mode=args.mode).to_text()


def _cmd_ablations(args) -> str:
    parts = [
        run_ablation_balancing(mode=args.mode).to_text(),
        run_ablation_hierarchy(mode=args.mode).to_text(),
        run_ablation_mcpsc(mode=args.mode).to_text(),
        run_ablation_frequency(mode=args.mode).to_text(),
        run_ablation_memory(mode=args.mode).to_text(),
        run_ablation_energy(mode=args.mode).to_text(),
        run_ablation_inits().to_text(),
    ]
    return "\n\n".join(parts)


def _cmd_exp_resilience(args) -> str:
    dataset = args.dataset if args.dataset != "both" else "ck34"
    return run_exp_resilience(
        dataset=dataset,
        n_slaves=11 if args.quick else 23,
        failed_counts=(0, 1, 3),
        mode=args.mode,
    ).to_text()


def _cmd_all(args) -> str:
    out = []
    for name in ("table1", "table3", "exp1", "exp2", "table5", "ablations"):
        t0 = time.time()
        out.append(_EXPERIMENTS[name](args))
        out.append(f"[{name} regenerated in {time.time() - t0:.1f}s]")
    return "\n\n".join(out)


_EXPERIMENTS: dict[str, Callable] = {
    "table1": _cmd_table1,
    "table3": _cmd_table3,
    "exp1": _cmd_exp1,
    "exp2": _cmd_exp2,
    "exp-resilience": _cmd_exp_resilience,
    "table5": _cmd_table5,
    "ablations": _cmd_ablations,
    "all": _cmd_all,
}


# ----------------------------------------------------------------- tool cmds
def _load_chain(path: str, dataset_name: str):
    """A positional that is either a PDB file path or a chain name in
    the given dataset."""
    import os

    from repro.datasets import load_dataset
    from repro.structure import read_pdb_file

    if os.path.exists(path):
        return read_pdb_file(path)
    return load_dataset(dataset_name).by_name(path)


def _cmd_align(args) -> str:
    from repro.tmalign import tm_align
    from repro.tmalign.report import format_tmalign_report

    chain_a = _load_chain(args.chain_a, args.dataset)
    chain_b = _load_chain(args.chain_b, args.dataset)
    result = tm_align(chain_a, chain_b)
    return format_tmalign_report(result, chain_a, chain_b)


def _farm_config(args):
    """The :class:`~repro.parallel.ParallelConfig` of a command's farm
    flags.  ``--retries`` or ``--chunk-timeout`` arm a retry policy (a
    stall timeout alone allows one re-dispatch); ``serve`` has no
    ``--chunk-timeout``."""
    from repro.parallel import ParallelConfig, RetryPolicy

    timeout = getattr(args, "chunk_timeout", 0.0)
    retry = None
    if args.retries > 0 or timeout > 0:
        retry = RetryPolicy(
            max_retries=max(args.retries, 1 if timeout > 0 else 0),
            backoff_seconds=args.backoff,
            chunk_timeout_seconds=timeout,
        )
    return ParallelConfig(
        workers=args.workers,
        chunk=args.chunk,
        retry=retry,
        shm=not args.no_shm,
    )


def _faults_from_args(args):
    from repro.faults import FarmFaultPlan

    return FarmFaultPlan.parse(args.inject) if args.inject else None


def _run_store(args):
    from repro.runs import RunStore

    return RunStore(args.runs_dir)


def _cmd_search(args) -> str:
    from repro.datasets import load_dataset
    from repro.psc import get_method, one_vs_all
    from repro.runs import RunManifest

    dataset = load_dataset(args.dataset)
    query = _load_chain(args.query, args.dataset)
    prefilter_cfg = None
    if args.prefilter:
        from repro.seqalign.prefilter import PrefilterConfig

        if args.prefilter_keep is not None:
            prefilter_cfg = PrefilterConfig(keep=args.prefilter_keep)
        else:
            prefilter_cfg = PrefilterConfig()
    store = _run_store(args)
    manifest = RunManifest.for_task(
        run_id=store.new_run_id("search"),
        command="search",
        dataset=dataset,
        method_name=args.method,
        n_pairs=len(dataset),
        params={
            "query": query.name,
            "top": args.top,
            "workers": args.workers,
            "chunk": args.chunk,
            "prefilter_keep": (
                prefilter_cfg.keep if prefilter_cfg is not None else None
            ),
        },
    )
    run = store.create(manifest)
    try:
        hits = one_vs_all(
            query,
            dataset,
            method=get_method(args.method),
            config=_farm_config(args),
            prefilter=prefilter_cfg,
        )
    except BaseException:
        run.mark("interrupted")
        raise
    lines = [
        f"query {query.name} ({len(query)} residues) vs {dataset.name} "
        f"({len(dataset)} chains) using {args.method}:",
    ]
    if prefilter_cfg is not None:
        n_elig = len(dataset) - any(c.name == query.name for c in dataset)
        lines.append(
            f"prefilter: promoted {len(hits)} of {n_elig} candidates "
            f"(keep={prefilter_cfg.keep})"
        )
    lines.append(f"{'rank':>4}  {'chain':<20} {'score':>8}")
    for rank, hit in enumerate(hits[: args.top], start=1):
        lines.append(f"{rank:>4}  {hit.chain_name:<20} {hit.score:>8.4f}")
    text = "\n".join(lines)
    from repro.runs.manifest import atomic_write_text

    atomic_write_text(run.artifact_path("result.txt"), text + "\n")
    run.mark("complete")
    return text + f"\n[run {run.run_id} recorded in {args.runs_dir}]"


def _cmd_matrix(args) -> str:
    """All-vs-all score matrix, journaled to a run directory and
    streamed to CSV (atomic finalize; resumable after interruption)."""
    from repro.datasets import load_dataset
    from repro.faults import InjectedFault
    from repro.parallel import WorkerCrash
    from repro.psc import get_method
    from repro.runs import JournalCorrupt, matrix_run

    dataset = load_dataset(args.dataset)
    method = get_method(args.method)
    config = _farm_config(args)
    store = _run_store(args)
    try:
        result = matrix_run(
            dataset,
            method,
            args.output,
            store,
            run_id=args.run_id or None,
            resume=args.resume or None,
            config=config,
            faults=_faults_from_args(args),
        )
    except JournalCorrupt as exc:
        raise SystemExit(f"corrupt journal: {exc}") from None
    except (WorkerCrash, InjectedFault) as exc:
        run_id = args.resume or args.run_id
        hint = (
            f" — completed pairs are journaled; continue with "
            f"`matrix --resume {run_id} --runs-dir {args.runs_dir}`"
            if run_id
            else " — completed pairs are journaled (see the `runs` command)"
        )
        raise SystemExit(f"matrix run failed: {exc}{hint}") from exc
    stats = result.stats
    sched = "cost-packed" if stats.cost_packed else f"chunk={stats.chunk_size}"
    if stats.chunk_sizes:
        sched += (
            f", realized chunks {stats.chunk_size_min}/"
            f"{stats.chunk_size_mean:.1f}/{stats.chunk_size_max} (min/mean/max)"
        )
    lines = [
        f"wrote {result.n_rows} pair scores to {result.output} (streamed, "
        f"workers={stats.workers}, {sched}; "
        f"run {result.run_id})",
    ]
    if stats.serial_fallback:
        lines.append("one CPU: chunks evaluated serially in-process (no pool)")
    if result.n_journaled:
        lines.append(
            f"resumed: {result.n_journaled} pairs taken from the journal, "
            f"{result.n_computed} computed now"
        )
    if stats.retries or stats.pool_restarts or stats.chunk_timeouts:
        lines.append(
            f"absorbed faults: {stats.retries} chunk retries, "
            f"{stats.pool_restarts} pool restarts, "
            f"{stats.chunk_timeouts} stall re-dispatches"
        )
    lines.append(
        f"wall {stats.wall_seconds:.1f}s, {stats.pairs_per_second:.2f} pairs/s; "
        f"mean off-diagonal {result.score_key} = "
        f"{result.score_sum / max(1, result.n_pairs):.4f}"
    )
    return "\n".join(lines)


def _cmd_runs(args) -> str:
    """List durable runs under --runs-dir."""
    from repro.runs import JournalCorrupt

    store = _run_store(args)
    runs = store.list_runs()
    if not runs:
        return f"no runs under {args.runs_dir}"
    lines = [f"{'run':<34} {'command':<14} {'status':<12} {'done':>11}  dataset"]
    for run in runs:
        m = run.manifest
        try:
            done, total = run.progress()
        except JournalCorrupt as exc:
            raise SystemExit(f"corrupt journal: {exc}") from None
        lines.append(
            f"{m.run_id:<34} {m.command:<14} {m.status:<12} "
            f"{done:>5}/{total:<5}  {m.dataset}"
        )
    return "\n".join(lines)


def _cmd_trace(args) -> str:
    """Trace a simulated rckAlign farm; optionally export Chrome JSON."""
    from repro.core.rckalign import RckAlignConfig, run_rckalign
    from repro.faults import SimFaultPlan
    from repro.scc.trace import Tracer, chrome_trace, render_gantt

    plan = None
    if args.kill:
        plan = SimFaultPlan.kill_n(
            args.kill, list(range(1, args.slaves + 1)), seed=args.seed
        )
    box = {}
    report = run_rckalign(
        RckAlignConfig(
            dataset=args.dataset,
            n_slaves=args.slaves,
            mode=args.mode,
            fault_plan=plan,
        ),
        on_machine=lambda machine: box.update(tracer=Tracer(machine)),
    )
    tracer = box["tracer"]
    lines = [report.summary()]
    if report.failures_detected:
        lines.append(
            f"failures: {report.failures_detected} slave(s) died "
            f"({', '.join(f'rck{s:02d}' for s in report.failed_slaves)}), "
            f"{report.jobs_reassigned} job(s) reassigned"
        )
    if args.chrome:
        with open(args.chrome, "w", encoding="ascii") as fh:
            fh.write(chrome_trace(tracer))
        lines.append(
            f"wrote {len(tracer.intervals)} intervals to {args.chrome} "
            "(open in chrome://tracing or ui.perfetto.dev)"
        )
    if args.gantt:
        lines.append(render_gantt(tracer))
    return "\n".join(lines)


def _bench_output(args, default: Optional[str] = None) -> Optional[str]:
    """The artefact path: None under --no-output, else --output or ``default``."""
    return None if args.no_output else (args.output or default)


def _artefact_path(text: str) -> str:
    """argparse type for --output: a non-empty path."""
    if not text:
        raise argparse.ArgumentTypeError(
            "needs a path; use --no-output to skip the JSON artefact"
        )
    return text


#: per-suite keyword arguments of the run function, from the CLI flags
#: (thresholds come from the suite's ``gates``; ``output`` is the
#: resolved artefact path, which the kernel bench reads its baseline from)
_BENCH_KWARGS: dict[str, Callable] = {
    "hotpaths": lambda args, output: dict(
        datasets=(
            (args.dataset,) if args.dataset != "both" else ("ck34", "rs119")
        ),
        slave_counts=_grid(args),
        mode=args.mode,
        micro=not args.no_micro,
    ),
    "kernel": lambda args, output: dict(
        dataset=args.dataset if args.dataset != "both" else "ck34",
        baseline_path=output,
        baseline=args.baseline if args.baseline > 0 else None,
        repeats=1 if args.quick else args.repeats,
        stages=not args.no_micro,
        strict_baseline=args.check,
    ),
    "prefilter": lambda args, output: dict(
        dataset=args.dataset if args.dataset != "both" else "ck34",
        keep=args.prefilter_keep,
        queries=args.queries,
    ),
    "matstore": lambda args, output: dict(
        dataset=args.dataset if args.dataset != "both" else "ck34",
        limit=8 if args.quick else None,
    ),
    "service": lambda args, output: dict(
        dataset=args.dataset if args.dataset != "both" else "ck34",
        shards=args.shards,
        quick=args.quick,
    ),
    "parallel": lambda args, output: dict(
        dataset=args.dataset,
        workers_grid=tuple(int(w) for w in args.workers_grid.split(",")),
        chunk=args.chunk,
        shm=not args.no_shm,
    ),
}


def _cmd_bench(args, suite: Optional[str] = None, record=None) -> str:
    """Run one row of the bench table: run, write, format, then gate.

    ``suite`` defaults to the row ``bench``'s flags pick; ``record``, if
    given, is called with the report before the gate and returns a line
    to append (``bench-parallel``'s run-store entry).
    """
    from repro.experiments.bench import SUITES, BaselineError, write_report

    if suite is None:
        picked = [
            name for name in ("kernel", "prefilter", "matstore", "service")
            if getattr(args, name)
        ]
        if len(picked) > 1:
            raise SystemExit(
                "bench: --kernel, --prefilter, --matstore and --service are "
                "exclusive"
            )
        suite = picked[0] if picked else "hotpaths"
    row = SUITES[suite]
    if args.check and row.failure is None:
        raise SystemExit(
            f"bench --check: the {suite} suite has no gate (use --kernel, "
            "--prefilter, --matstore or --service)"
        )
    output = _bench_output(args, row.output)
    kwargs = _BENCH_KWARGS[suite](args, output)
    for name, default in row.gates.items():
        value = getattr(args, name, None)
        kwargs[name] = default if value is None else value
    try:
        report = row.run(**kwargs)
    except BaselineError as exc:
        raise SystemExit(f"bench --check: {exc}") from None
    if output:
        write_report(report, output)
    text = row.format(report)
    if output:
        text += f"\nwrote {output}"
    if record is not None:
        text += record(report)
    failure = row.failure(report) if args.check else None
    if failure:
        print(text, file=sys.stderr)
        raise SystemExit(failure)
    return text


def _cmd_bench_parallel(args) -> str:
    from repro.datasets import load_dataset
    from repro.runs import RunManifest
    from repro.runs.manifest import atomic_write_text

    dataset = load_dataset(args.dataset)
    store = _run_store(args)
    run = store.create(
        RunManifest.for_task(
            run_id=store.new_run_id("bench-parallel"),
            command="bench-parallel",
            dataset=dataset,
            method_name="tmalign",
            n_pairs=len(dataset) * (len(dataset) - 1) // 2,
            params={
                "workers_grid": [int(w) for w in args.workers_grid.split(",")],
                "chunk": args.chunk,
            },
        )
    )

    def record(report: dict) -> str:
        import json

        atomic_write_text(
            run.artifact_path("result.json"),
            json.dumps(report, indent=1, default=str),
        )
        run.mark("complete")
        return f"\n[run {run.run_id} recorded in {args.runs_dir}]"

    try:
        return _cmd_bench(args, "parallel", record)
    except BaseException:
        if run.manifest.status != "complete":
            run.mark("interrupted")
        raise


#: default TCP port of the query service (repro.service.client.DEFAULT_PORT)
_SERVICE_PORT = 7743


def _cmd_serve(args) -> str:
    """Run the always-on PSC query service until a ``shutdown`` request."""
    import asyncio

    from repro.service import PSCService, ServiceConfig

    config = ServiceConfig(
        dataset=args.dataset,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        max_batch=args.max_batch,
        batch_window=args.batch_window,
        max_batch_cost=args.max_batch_cost,
        farm=_farm_config(args),
        cache_capacity=args.cache_capacity,
        runs_dir=args.runs_dir,
        eval_delay=args.eval_delay,
        matstore_dir=args.matstore_dir,
    )

    async def _serve() -> str:
        async with PSCService(config) as service:
            print(
                f"serving {service.registry.dataset_name or '(empty registry)'} "
                f"({len(service.registry)} chains) on "
                f"{service.host}:{service.port}",
                flush=True,
            )
            await service.serve_until_stopped()
            stats = service.cache.stats()
            return (
                f"stopped after {service.metrics.counters['connections']} "
                f"connections; cache {stats['hits']} hits, "
                f"{stats['misses']} misses, {stats['evictions']} evictions"
            )

    return asyncio.run(_serve())


def _cmd_serve_shard(args) -> str:
    """Run the scatter-gather coordinator over running shard services."""
    import asyncio

    from repro.service.shard import (
        CoordinatorConfig,
        ShardCoordinator,
        parse_shard_spec,
    )

    try:
        shards = tuple(parse_shard_spec(spec) for spec in args.shards)
    except ValueError as exc:
        raise SystemExit(f"serve-shard: {exc}")
    config = CoordinatorConfig(
        shards=shards,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        connect_timeout=args.connect_timeout,
        hedge_after=args.hedge_after,
        down_after=args.down_after,
        probe_cooldown=args.probe_cooldown,
    )

    async def _serve() -> str:
        async with ShardCoordinator(config) as coordinator:
            print(
                f"coordinating {len(config.shards)} shard(s) on "
                f"{coordinator.host}:{coordinator.port}",
                flush=True,
            )
            await coordinator.serve_until_stopped()
            counters = coordinator.metrics.counters
            return (
                f"coordinator stopped after {counters['connections']} "
                f"connections; {counters['partial_results']} partial "
                f"results, {counters['hedged_requests']} hedged, "
                f"{counters['failover_retries']} failovers"
            )

    return asyncio.run(_serve())


def _cmd_shard_topology(args) -> str:
    """Offline view of the rendezvous-hash ownership map (no sockets)."""
    from repro.service.registry import chain_content_hash
    from repro.service.shard import (
        parse_shard_spec,
        partition_keys,
        rendezvous_rank,
    )

    try:
        shards = [parse_shard_spec(spec) for spec in args.shards]
    except ValueError as exc:
        raise SystemExit(f"shard-topology: {exc}")
    if args.key:
        order = rendezvous_rank(args.key, shards)
        lines = [f"preference order for key {args.key!r}:"]
        lines.extend(
            f"{rank}. {shard_id}" for rank, shard_id in enumerate(order, 1)
        )
        return "\n".join(lines)

    from repro.datasets import load_dataset

    ds = load_dataset(args.dataset)
    name_by_hash = {}
    for chain in ds.chains:
        name_by_hash[chain_content_hash(chain)] = chain.name
    parts = partition_keys(list(name_by_hash), shards)
    lines = [
        f"{len(name_by_hash)} chains of {ds.name} over "
        f"{len(shards)} shard(s):"
    ]
    for shard_id in shards:
        owned = parts.get(shard_id, [])
        share = 100.0 * len(owned) / max(1, len(name_by_hash))
        lines.append(f"{shard_id:<24} {len(owned):>5} chains ({share:.1f}%)")
        if args.verbose:
            lines.extend(
                f"    {name_by_hash[h]:<20} {h[:12]}" for h in owned
            )
    return "\n".join(lines)


def _cmd_query(args) -> str:
    """One request against a running service (see the ``serve`` command)."""
    import json as _json

    from repro.service.client import ServiceClient

    operands = {
        "align": (2, "<chain-a> <chain-b>"),
        "search": (1, "<query-chain>"),
        "register": (2, "<name> <pdb-file>"),
        "submit-matrix": (0, "[--dataset D] [--method M] [--runs-dir R]"),
        "status": ((0, 1), "[run-id]"),
        "matstore-build": (0, "[--matstore-dir DIR]"),
        "matstore-lookup": (2, "<chain-a> <chain-b>"),
        "corpus": (0, ""),
        "healthz": (0, ""),
        "metrics": (0, ""),
        "shutdown": (0, "[--broadcast]"),
    }
    n_args, usage = operands[args.op]
    allowed = n_args if isinstance(n_args, tuple) else (n_args,)
    if len(args.args) not in allowed:
        raise SystemExit(f"usage: query {args.op} {usage}".rstrip())
    params = _json.loads(args.params) if args.params else None
    method = args.method or "tmalign"
    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        if args.op == "align":
            a, b = args.args
            resp = client.align(a, b, method=method, params=params)
            result = resp["result"]
            lines = [
                f"align {a} vs {b} [{result['method']}]",
                f"score: {result['score']:.4f}",
            ]
            for key in sorted(result["scores"]):
                lines.append(f"  {key} = {result['scores'][key]:.4f}")
            lines.append(f"cached: {'yes' if resp.get('cached') else 'no'}")
            return "\n".join(lines)
        if args.op == "search":
            (query,) = args.args
            result = client.search(
                query,
                top=args.top,
                method=method,
                params=params,
                prefilter=args.prefilter,
                prefilter_keep=args.prefilter_keep,
            )
            lines = [
                f"query {query} vs {result['corpus']} corpus chains "
                f"[{result['method']}] ({result['from_cache']} from cache):",
            ]
            if "prefilter" in result:
                pf = result["prefilter"]
                lines.append(
                    f"prefilter: promoted {pf['promoted']} of "
                    f"{result['corpus']} candidates (keep={pf['keep']})"
                )
            lines.append(f"{'rank':>4}  {'chain':<20} {'score':>8}")
            for rank, hit in enumerate(result["hits"], start=1):
                lines.append(
                    f"{rank:>4}  {hit['chain']:<20} {hit['score']:>8.4f}"
                )
            return "\n".join(lines)
        if args.op == "register":
            name, path = args.args
            with open(path, encoding="ascii") as fh:
                text = fh.read()
            info = client.register_pdb(name, text, corpus=args.corpus)
            return (
                f"registered {info['name']} ({info['residues']} residues) "
                f"as {info['hash'][:12]}... (corpus: {info['corpus']})"
            )
        if args.op == "submit-matrix":
            info = client.submit_matrix(
                dataset=args.dataset or None,
                method=args.method or None,
                runs_dir=args.runs_dir or None,
                params=params,
            )
            return (
                f"submitted run {info['run_id']}: {info['n_pairs']} pairs of "
                f"{info['dataset']} via {info['method']} -> {info['output']}"
            )
        if args.op == "status":
            if args.args:
                (run_id,) = args.args
                info = client.status(run_id, runs_dir=args.runs_dir or None)
                line = f"run {info['run_id']}: {info['status']}"
                if "done" in info:
                    line += f" ({info['done']}/{info['n_pairs']} pairs)"
                if info.get("error"):
                    line += f"\nerror: {info['error']}"
                return line
            info = client.status()
            if info.get("coordinator"):
                lines = [
                    f"coordinator: {info['status']} "
                    f"({info['shards_reachable']}/{info['shards_total']} "
                    f"shards reachable, drift: "
                    f"{'yes' if info['drift'] else 'no'})",
                ]
                for shard_id in info["topology"]:
                    detail = info["shards"][shard_id]
                    if detail["reachable"]:
                        lines.append(
                            f"shard {shard_id}: up, "
                            f"{detail['dataset'] or '(empty)'} "
                            f"({detail['corpus']} corpus chains, "
                            f"generation {detail['registry_generation']}), "
                            f"{detail['requests']} requests, "
                            f"{detail['failures']} failures"
                        )
                    else:
                        lines.append(
                            f"shard {shard_id}: DOWN "
                            f"({detail.get('error') or 'unreachable'})"
                        )
                lines.append(
                    f"partial results: {info['partial_results']}, "
                    f"hedged: {info['hedged_requests']}, "
                    f"failovers: {info['failover_retries']}"
                )
                return "\n".join(lines)
            lines = [
                f"service: {info['status']} "
                f"({info['chains']} chains, dataset "
                f"{info['dataset'] or '(empty)'})",
            ]
            ms = info["matstore"]
            if ms.get("attached"):
                lines.append(
                    f"matstore: {ms['n_chains']} chains, "
                    f"{ms['pairs_stored']}/{ms['n_pairs']} pairs stored "
                    f"({ms['block_bytes']} block bytes) at {ms['root']}"
                )
                lines.append(
                    f"matstore lookups: {ms['lookup_hits']} hits, "
                    f"{ms['lookup_misses']} misses"
                )
            else:
                lines.append("matstore: not attached")
            if ms.get("building"):
                lines.append("matstore: build in progress")
            if ms.get("error"):
                lines.append(f"matstore error: {ms['error']}")
            return "\n".join(lines)
        if args.op == "matstore-build":
            info = client.matstore_build(root=args.matstore_dir or None)
            return (
                f"matstore build started at {info['root']}: "
                f"{info['n_chains']} corpus chains, {info['n_pairs']} pairs "
                "(background; poll `query status`)"
            )
        if args.op == "matstore-lookup":
            a, b = args.args
            info = client.matstore_lookup(a, b)
            lines = [
                f"matstore hit {a} vs {b} [{info['method']}]"
                + (" (stored swapped)" if info["swapped"] else ""),
            ]
            for key in sorted(info["scores"]):
                lines.append(f"  {key} = {info['scores'][key]:.4f}")
            return "\n".join(lines)
        if args.op == "corpus":
            info = client.corpus()
            lines = [
                f"corpus of {info['dataset'] or '(empty registry)'}: "
                f"{len(info['chains'])} chains, generation "
                f"{info['generation']}, fingerprint "
                f"{info['fingerprint'][:12]}..."
            ]
            lines.extend(
                f"  {entry['name']:<20} {entry['hash'][:12]}"
                for entry in info["chains"]
            )
            return "\n".join(lines)
        if args.op in ("healthz", "metrics"):
            result = client.healthz() if args.op == "healthz" else client.metrics()
            return _json.dumps(result, indent=1, sort_keys=True)
        # args.op == "shutdown" (argparse rejects anything else)
        client.shutdown(broadcast=args.broadcast)
        return "server is stopping"


def _cmd_matstore(args) -> str:
    """Durable all-vs-all matrix store: build, extend, query, verify,
    export (see :mod:`repro.matstore`)."""
    from repro.matstore import (
        MatStoreError,
        MatrixStore,
        build_store,
        ensure_coverage,
        export_csv,
    )
    from repro.runs import JournalCorrupt

    def load_limited():
        from repro.datasets import load_dataset

        ds = load_dataset(args.dataset)
        if args.limit:
            ds = ds.subset(args.limit)
        return ds

    def describe(result, verb: str) -> str:
        store = result.store
        lines = [
            f"{verb} {args.store}: {store.n_chains} chains, "
            f"{store.n_pairs} pairs committed "
            f"({result.n_computed} computed now, "
            f"{result.n_journaled} from the journal"
            + (f", {result.n_holes} prefilter holes" if result.n_holes else "")
            + f") in {result.wall_seconds:.1f}s"
        ]
        lines.extend(result.notes)
        return "\n".join(lines)

    try:
        if args.action == "build":
            result = build_store(
                load_limited(), args.store, config=_farm_config(args)
            )
            return describe(result, "built")
        if args.action == "extend":
            result = ensure_coverage(
                args.store, load_limited(), config=_farm_config(args)
            )
            return describe(result, "extended")
        store = MatrixStore.open(args.store)
        if args.action == "query":
            names = list(store.names)
            for name in (args.chain_a, args.chain_b):
                if name not in names:
                    raise SystemExit(
                        f"chain {name!r} is not in the store "
                        f"({store.n_chains} chains); see `matstore export`"
                    )
            hashes = store.hashes
            hit = store.lookup(
                hashes[names.index(args.chain_a)],
                hashes[names.index(args.chain_b)],
            )
            if hit is None:
                raise SystemExit(
                    f"pair {args.chain_a} vs {args.chain_b} is not stored "
                    "(prefilter hole or identical chains)"
                )
            lines = [
                f"{args.chain_a} vs {args.chain_b} [{store.method}]"
                + (" (stored swapped)" if hit.swapped else "")
            ]
            for key in sorted(hit.scores):
                lines.append(f"  {key} = {hit.scores[key]:.4f}")
            return "\n".join(lines)
        if args.action == "verify":
            report = store.verify()
            line = (
                f"store {args.store} verified: {report['pairs_checked']} "
                f"pairs cross-checked against the journal"
            )
            if report["holes"]:
                line += f", {report['holes']} prefilter holes"
            if report["uncommitted_journal_rows"]:
                line += (
                    f", {report['uncommitted_journal_rows']} journaled rows "
                    "awaiting commit"
                )
            if report["dropped_journal_lines"]:
                line += (
                    f", {report['dropped_journal_lines']} torn tail lines "
                    "dropped"
                )
            return line
        # args.action == "export" (argparse rejects anything else)
        n = export_csv(store, args.output)
        return f"exported {n} pair rows to {args.output}"
    except JournalCorrupt as exc:
        raise SystemExit(f"corrupt journal: {exc}") from None
    except MatStoreError as exc:
        raise SystemExit(f"matstore error: {exc}") from None


def _cmd_info(args) -> str:
    from repro.datasets import load_dataset

    ds = load_dataset(args.dataset)
    lines = [
        f"dataset {ds.name}: {len(ds)} chains, {ds.total_residues} residues "
        f"(mean length {ds.mean_length:.1f})",
        f"description: {ds.description}",
        "families:",
    ]
    for fam, members in sorted(ds.families.items()):
        lengths = [len(c) for c in members]
        lines.append(
            f"  {fam:<16} {len(members):>3} chains, "
            f"lengths {min(lengths)}-{max(lengths)}"
        )
    return "\n".join(lines)


def _positive_int(text: str) -> int:
    """argparse type: integer >= 1, rejected with a one-line error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fraction(text: str) -> float:
    """argparse type: number in (0, 1], rejected with a one-line error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rckalign",
        description=(
            "Reproduce 'Accelerating all-to-all protein structures comparison "
            "with TM-align using a NoC many-cores processor architecture' "
            "(IPDPSW 2013) — and use its tools directly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p) -> None:
        p.add_argument(
            "--mode",
            default="model",
            choices=("model", "measured"),
            help="pair costing: analytic model (fast) or real aligner runs",
        )
        p.add_argument(
            "--quick",
            action="store_true",
            help="sweep only 5 slave counts instead of all 24",
        )
        p.add_argument(
            "--dataset",
            default="ck34",
            help="dataset for exp1/exp2 (exp2 also accepts 'both')",
        )

    for name in sorted(_EXPERIMENTS):
        p = sub.add_parser(name, help=f"regenerate {name}")
        add_common(p)
        p.set_defaults(fn=_EXPERIMENTS[name])

    p = sub.add_parser("align", help="pairwise TM-align of two structures")
    p.add_argument("chain_a", help="PDB file path or chain name in --dataset")
    p.add_argument("chain_b", help="PDB file path or chain name in --dataset")
    p.add_argument("--dataset", default="ck34")
    p.set_defaults(fn=_cmd_align)

    def add_farm(p) -> None:
        p.add_argument(
            "--workers",
            type=int,
            default=0,
            help="process-pool size (0/1 = serial in-process)",
        )
        p.add_argument(
            "--chunk",
            type=int,
            default=0,
            help="pairs per scheduling chunk (0 = cost-packed: chunks of "
            "roughly equal predicted work from the pair cost model)",
        )
        p.add_argument(
            "--no-shm",
            action="store_true",
            help="disable the shared-memory dataset plane (workers "
            "unpickle the dataset instead of attaching zero-copy; "
            "results are bit-identical either way)",
        )

    def add_resilience(p) -> None:
        p.add_argument(
            "--retries",
            type=int,
            default=0,
            help="re-dispatches allowed per failed chunk (0 = fail fast)",
        )
        p.add_argument(
            "--backoff",
            type=float,
            default=0.05,
            help="base exponential-backoff delay between retries (s)",
        )
        p.add_argument(
            "--chunk-timeout",
            type=float,
            default=0.0,
            help="seconds before a stalled chunk gets a duplicate dispatch "
            "(0 = no stall detection)",
        )
        p.add_argument(
            "--inject",
            default="",
            help="deterministic fault plan for the farm workers, e.g. "
            "'kill@0-3', 'raise@1-2#0|1', 'stall:1.5@2-4' (comma-separated)",
        )

    def add_runs_dir(p) -> None:
        p.add_argument(
            "--runs-dir",
            default="runs",
            help="root directory of the durable run store",
        )

    p = sub.add_parser("search", help="one-vs-all ranked search")
    p.add_argument("query", help="PDB file path or chain name in --dataset")
    p.add_argument("--dataset", default="ck34")
    p.add_argument("--method", default="tmalign")
    p.add_argument("--top", type=_positive_int, default=10)
    p.add_argument(
        "--prefilter",
        action="store_true",
        help="hierarchical search: batched sequence tier promotes only "
        "the best candidates to the exact kernel",
    )
    p.add_argument(
        "--prefilter-keep",
        type=_fraction,
        default=None,
        metavar="FRACTION",
        help="promoted fraction of the candidate set, in (0, 1] "
        "(default: the benchmarked PrefilterConfig operating point)",
    )
    add_farm(p)
    add_resilience(p)
    add_runs_dir(p)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser(
        "matrix",
        help="all-vs-all score matrix to CSV (journaled; resumable)",
    )
    p.add_argument("--dataset", default="ck34-mini")
    p.add_argument("--method", default="sse_composition")
    p.add_argument("--output", default="scores.csv")
    p.add_argument(
        "--run-id",
        default="",
        help="name the fresh run directory (default: auto-generated)",
    )
    p.add_argument(
        "--resume",
        default="",
        help="continue an interrupted run by id; journaled pairs are "
        "never recomputed",
    )
    add_farm(p)
    add_resilience(p)
    add_runs_dir(p)
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("runs", help="list durable runs and their status")
    add_runs_dir(p)
    p.set_defaults(fn=_cmd_runs)

    p = sub.add_parser(
        "trace",
        help="trace a simulated rckAlign farm (Gantt / Chrome JSON)",
    )
    p.add_argument("--dataset", default="ck34-mini")
    p.add_argument("--slaves", type=int, default=5)
    p.add_argument(
        "--mode", default="model", choices=("model", "measured")
    )
    p.add_argument(
        "--kill",
        type=int,
        default=0,
        help="kill this many slaves mid-farm (seeded fault plan)",
    )
    p.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    p.add_argument(
        "--chrome",
        default="",
        help="write the trace as Chrome tracing JSON to this path",
    )
    p.add_argument(
        "--gantt",
        action="store_true",
        help="also print the fixed-width utilization chart",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "bench", help="wall-clock benchmark of the simulator hot paths"
    )
    add_common(p)
    p.add_argument(
        "--output",
        type=_artefact_path,
        default=None,
        help="JSON artefact path (default: BENCH_hotpaths.json, or "
        "BENCH_<suite>.json with --kernel/--prefilter/--matstore/--service)",
    )
    p.add_argument(
        "--no-output",
        action="store_true",
        help="skip writing the JSON artefact",
    )
    p.add_argument(
        "--no-micro",
        action="store_true",
        help="skip the micro-benchmarks (with --kernel: the stage table)",
    )
    p.add_argument(
        "--kernel",
        action="store_true",
        help="benchmark the TM-align kernel (quick grid) instead of the "
        "simulator, writing per-stage timings to BENCH_kernel.json",
    )
    p.add_argument(
        "--prefilter",
        action="store_true",
        help="benchmark the hierarchical search (SW prefilter + exact "
        "kernel): throughput, end-to-end speedup and recall@k, writing "
        "BENCH_prefilter.json",
    )
    p.add_argument(
        "--matstore",
        action="store_true",
        help="benchmark the durable matrix store (build, one-row extend, "
        "mmap lookup vs recompute), writing BENCH_matstore.json "
        "(--quick limits to 8 chains)",
    )
    p.add_argument(
        "--service",
        action="store_true",
        help="load-test the sharded query service (1-shard vs N-shard "
        "behind a coordinator, open-loop arrivals), writing "
        "BENCH_service.json (--quick runs one short rate point)",
    )
    p.add_argument(
        "--shards",
        type=_positive_int,
        default=2,
        help="with --service: shard count of the N-shard topology",
    )
    p.add_argument(
        "--prefilter-keep",
        type=_fraction,
        default=None,
        metavar="FRACTION",
        help="with --prefilter: fraction of candidates the cheap tier "
        "promotes (default: the benchmarked PrefilterConfig operating point)",
    )
    p.add_argument(
        "--queries",
        type=_positive_int,
        default=None,
        metavar="N",
        help="with --prefilter: evenly-spaced query subsample for quick "
        "runs (default: every chain queries the corpus)",
    )
    p.add_argument(
        "--min-recall",
        type=_fraction,
        default=None,
        metavar="FRACTION",
        help="with --prefilter --check: mean recall@10 floor (default: "
        "the suite's threshold, recorded in the artefact's regression block)",
    )
    p.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="--check speedup floor of --prefilter/--matstore/--service "
        "(default: the suite's threshold, recorded in the artefact's "
        "regression block)",
    )
    p.add_argument(
        "--baseline",
        type=float,
        default=0.0,
        help="kernel pairs/s to regress against (default: the committed "
        "artefact at --output, else the recorded pre-PR constant)",
    )
    p.add_argument(
        "--min-ratio",
        type=float,
        default=None,
        help="regression gate: fraction of baseline pairs/s that must be "
        "met (default: the suite's threshold)",
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing passes for the kernel bench (best is reported)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="with --kernel/--prefilter/--matstore/--service: exit "
        "non-zero when the regression gate fails",
    )
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "bench-parallel",
        help="measured-mode all-vs-all wall-clock vs worker count",
    )
    p.add_argument("--dataset", default="ck34")
    p.add_argument(
        "--workers-grid",
        default="1,2,4,8",
        help="comma-separated worker counts to sweep",
    )
    p.add_argument(
        "--chunk",
        type=int,
        default=0,
        help="pairs per chunk (0 = cost-packed)",
    )
    p.add_argument(
        "--output",
        type=_artefact_path,
        default=None,
        help="JSON artefact path (default: BENCH_parallel.json)",
    )
    p.add_argument(
        "--no-output",
        action="store_true",
        help="skip writing the JSON artefact",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when the best measured point is slower than "
        "--min-speedup x serial (the farm may fall back to serial, "
        "never lose to it)",
    )
    p.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="regression gate for --check: required best-point "
        "speedup_vs_serial (default: the suite's threshold)",
    )
    p.add_argument(
        "--no-shm",
        action="store_true",
        help="disable the shared-memory dataset plane for the sweep "
        "(the plane section of the report still measures both paths)",
    )
    p.add_argument(
        "--min-startup-speedup",
        type=float,
        default=None,
        help="regression gate for --check: required dataset-delivery "
        "speedup of plane attach vs pickling on the large synthetic "
        "registry (default: the suite's threshold; 0 disables the gate)",
    )
    add_runs_dir(p)
    p.set_defaults(fn=_cmd_bench_parallel)

    p = sub.add_parser(
        "serve",
        help="run the always-on PSC query service (TCP line-protocol JSON)",
    )
    p.add_argument(
        "--dataset",
        default="ck34-mini",
        help="corpus loaded into the registry at startup ('' = start empty)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=_SERVICE_PORT,
        help="TCP port (0 = pick a free one; printed at startup)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission control: max pending pair jobs before shedding",
    )
    p.add_argument(
        "--max-batch", type=int, default=16, help="pair jobs per kernel batch"
    )
    p.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        help="seconds to wait for a short batch to fill before dispatching",
    )
    p.add_argument(
        "--max-batch-cost",
        type=float,
        default=0.0,
        help="predicted-seconds budget per kernel batch; a batch closes "
        "early when its cost-model price reaches this (0 = count-only)",
    )
    p.add_argument(
        "--cache-capacity",
        type=int,
        default=1024,
        help="LRU result-cache entries",
    )
    p.add_argument(
        "--eval-delay",
        type=float,
        default=0.0,
        help="test/CI knob: extra seconds per dispatched batch",
    )
    p.add_argument(
        "--matstore-dir",
        default="",
        help="attach the durable matrix store at this root: align serves "
        "stored pairs as O(1) lookups, register extends by one row "
        "('' = no store)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="farm re-dispatches per failed chunk (0 = fail fast)",
    )
    p.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        help="base exponential-backoff delay between farm retries (s)",
    )
    add_farm(p)
    add_runs_dir(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "serve-shard",
        help="run the scatter-gather coordinator over running shard "
        "services (rendezvous-hash routing, write-all register)",
    )
    p.add_argument(
        "shards",
        nargs="+",
        metavar="HOST:PORT",
        help="shard service addresses (a bare port means 127.0.0.1)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=_SERVICE_PORT,
        help="TCP port of the coordinator (0 = pick a free one; "
        "printed at startup)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per shard-request budget in seconds",
    )
    p.add_argument(
        "--connect-timeout",
        type=float,
        default=2.0,
        help="per shard-connect budget in seconds",
    )
    p.add_argument(
        "--hedge-after",
        type=float,
        default=0.0,
        help="seconds before a slow shard request is hedged to the next "
        "shard in preference order (0 = off)",
    )
    p.add_argument(
        "--down-after",
        type=int,
        default=2,
        help="consecutive failures before a shard is marked down",
    )
    p.add_argument(
        "--probe-cooldown",
        type=float,
        default=2.0,
        help="seconds a down shard is skipped before being re-probed",
    )
    p.set_defaults(fn=_cmd_serve_shard)

    p = sub.add_parser(
        "shard-topology",
        help="offline rendezvous-hash ownership map for a shard list "
        "(no sockets; deterministic across processes)",
    )
    p.add_argument(
        "shards",
        nargs="+",
        metavar="HOST:PORT",
        help="shard identities exactly as passed to serve-shard",
    )
    p.add_argument(
        "--dataset",
        default="ck34-mini",
        help="dataset whose content-hash keys are partitioned",
    )
    p.add_argument(
        "--key",
        default="",
        help="print the full preference order for one key instead of "
        "the dataset map",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="list every owned chain under its shard",
    )
    p.set_defaults(fn=_cmd_shard_topology)

    p = sub.add_parser("query", help="query a running PSC service")
    p.add_argument(
        "op",
        choices=(
            "align",
            "search",
            "register",
            "submit-matrix",
            "status",
            "matstore-build",
            "matstore-lookup",
            "corpus",
            "healthz",
            "metrics",
            "shutdown",
        ),
    )
    p.add_argument(
        "args",
        nargs="*",
        help="op operands: align A B | search Q | register NAME FILE | "
        "status [RUN_ID] | matstore-lookup A B",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=_SERVICE_PORT)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument(
        "--method",
        default="",
        help="PSC method (default: tmalign; submit-matrix: server default)",
    )
    p.add_argument(
        "--params",
        default="",
        help='method parameter overrides as JSON, e.g. \'{"max_refine_iters": 5}\'',
    )
    p.add_argument(
        "--top", type=_positive_int, default=10, help="search: hits to show"
    )
    p.add_argument(
        "--prefilter",
        action="store_true",
        help="search: run the sequence prefilter tier server-side",
    )
    p.add_argument(
        "--prefilter-keep",
        type=_fraction,
        default=None,
        metavar="FRACTION",
        help="search: promoted fraction of the corpus, in (0, 1]",
    )
    p.add_argument(
        "--corpus",
        action="store_true",
        help="register: make the uploaded chain searchable",
    )
    p.add_argument(
        "--dataset", default="", help="submit-matrix: dataset to enumerate"
    )
    p.add_argument(
        "--runs-dir",
        default="",
        help="submit-matrix/status: run-store root (default: the server's)",
    )
    p.add_argument(
        "--matstore-dir",
        default="",
        help="matstore-build: store root (default: the server's)",
    )
    p.add_argument(
        "--broadcast",
        action="store_true",
        help="shutdown: coordinator forwards the shutdown to every shard "
        "before stopping itself",
    )
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser(
        "matstore",
        help="durable all-vs-all similarity-matrix store (mmap-able; "
        "incremental extends)",
    )
    msub = p.add_subparsers(dest="action", required=True)

    def add_store_root(mp) -> None:
        mp.add_argument(
            "--store",
            default="matstore",
            help="root directory of the matrix store",
        )

    def add_retry_flags(mp) -> None:
        mp.add_argument(
            "--retries",
            type=int,
            default=0,
            help="farm re-dispatches per failed chunk (0 = fail fast)",
        )
        mp.add_argument(
            "--backoff",
            type=float,
            default=0.05,
            help="base exponential-backoff delay between retries (s)",
        )
        mp.add_argument(
            "--chunk-timeout",
            type=float,
            default=0.0,
            help="seconds before a stalled chunk gets a duplicate dispatch",
        )

    mp = msub.add_parser(
        "build",
        help="compute and commit every pair of a dataset (resumable)",
    )
    add_store_root(mp)
    mp.add_argument("--dataset", default="ck34-mini")
    mp.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        metavar="N",
        help="build only the first N chains (prefix; extend later)",
    )
    add_farm(mp)
    add_retry_flags(mp)
    mp.set_defaults(fn=_cmd_matstore)

    mp = msub.add_parser(
        "extend",
        help="append the dataset chains the store is missing, one row "
        "(n pairs) per new chain — never a rebuild",
    )
    add_store_root(mp)
    mp.add_argument("--dataset", default="ck34-mini")
    mp.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        metavar="N",
        help="extend coverage up to the first N dataset chains",
    )
    add_farm(mp)
    add_retry_flags(mp)
    mp.set_defaults(fn=_cmd_matstore)

    mp = msub.add_parser(
        "query", help="O(1) mmap lookup of one stored pair (all metrics)"
    )
    add_store_root(mp)
    mp.add_argument("chain_a", help="chain name as stored")
    mp.add_argument("chain_b", help="chain name as stored")
    mp.set_defaults(fn=_cmd_matstore)

    mp = msub.add_parser(
        "verify",
        help="cross-check every committed block value against the "
        "CRC-checksummed journal",
    )
    add_store_root(mp)
    mp.set_defaults(fn=_cmd_matstore)

    mp = msub.add_parser(
        "export", help="write the committed matrix as CSV (atomic)"
    )
    add_store_root(mp)
    mp.add_argument("--output", default="matstore.csv")
    mp.set_defaults(fn=_cmd_matstore)

    p = sub.add_parser("info", help="dataset summary")
    p.add_argument("--dataset", default="ck34")
    p.set_defaults(fn=_cmd_info)

    return parser


def _arm_sigterm_cleanup() -> None:
    """Turn SIGTERM into SystemExit so finally/atexit teardown runs.

    Long ``matrix``/``serve`` runs own shared-memory segments; a default
    SIGTERM would kill the process without unlinking them (the
    resource-tracker "leaked shared_memory" warning, and stale
    ``/dev/shm`` files).  Installed only on the main thread and only
    when no handler is already set, so embedding applications keep
    their own signal policy.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return
    def _sigterm(signum, frame):
        raise SystemExit(143)

    try:
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _sigterm)
    except (ValueError, OSError):  # non-main interpreter contexts
        pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.parallel import reset_worker_clamp_warnings

    reset_worker_clamp_warnings()  # worker-clamp warning fires once per run
    _arm_sigterm_cleanup()
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        print(args.fn(args))
    finally:
        # unlink every shared-memory plane this run owned — including on
        # SystemExit (SIGTERM above), KeyboardInterrupt and error paths
        from repro.parallel import shutdown_planes

        shutdown_planes()
    print(f"\n[done in {time.time() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
