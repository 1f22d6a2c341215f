"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload {matrix_batch,search_cold}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Inputs come from ``--seed``; the timed
phase does the work a 2-vCPU reference machine does in about
``--seconds`` (``workloads.NOMINAL_UNIT_S``), the same in every run.
``--trace 0`` sets up a few times (``SETUP_REPEATS``), measures
untraced, and reports the end-to-end metrics.  ``--trace 1`` measures
half that work untraced, then again with every layer wrapped (see
``tracing.py``), and reports the per-layer metrics, the layer table of
the traced wall and the tracing overhead; the merged spans are written
as a Chrome trace under the build directory's ``traces/``.

Every run checks the program's outputs, checks that it left no process,
no ``/dev/shm/psc*`` segment and no file behind, prints a report, and
ends with one JSON line: ``correct``, ``attempted``, ``failed``,
``metrics``.  It builds nothing in the tree but the native-kernel cache,
kept under ``$CARGO_TARGET_DIR`` (default ``.bench_build``).
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional

END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def quantile(samples: List[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(phase, tail_q: float, setups: List[float]) -> Dict[str, float]:
    """The rate is pairs over the seconds of the requests that evaluated
    them; the tail is the workload's fixed quantile."""
    nan = float("nan")
    lat = phase.latencies or [nan]
    return {
        "setup_s": statistics.median(setups) if setups else nan,
        "pairs_per_s": phase.pairs / phase.busy if phase.busy else nan,
        "latency_p50_ms": quantile(lat, 0.5) * 1e3,
        "latency_tail_ms": quantile(lat, tail_q) * 1e3,
        "peak_rss_mb": phase.peak_rss / 2**20,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(untraced, traced, spans, records, env) -> Dict[str, tuple]:
    """Per-layer metrics: spans and drain records of the traced phase,
    ``/proc`` CPU and the shard's own ``metrics`` op from the untraced
    one.  Layers a workload does not reach report 0."""
    from perfbench import tracing

    m: Dict[str, tuple] = {}
    requests = max(traced.requests, 1)

    # kernel
    tm = tracing.durations(spans, "tmalign.compare")
    kernel_spans = [s for s in spans if s[2] == "tmalign"]
    own = tracing.self_times(kernel_spans)
    total = sum(tm)
    m["tmalign.ms_per_pair"] = (_mean(tm) * 1e3, "ms")
    for stage in tracing.STAGES:
        m[f"tmalign.share.{stage}"] = (
            _ratio(own.get(f"tmalign.{stage}", 0.0), total), "ratio"
        )
    m["tmalign.unattributed_share"] = (
        _ratio(own.get("tmalign.compare", 0.0), total), "ratio"
    )
    drained = sum(r["pairs"] for r in records)
    for op in ("dp_cell", "kabsch", "score_pair"):
        m[f"tmalign.ops_per_pair.{op}"] = (
            _ratio(sum(r["ops"].get(op, 0.0) for r in records), drained), "count"
        )

    # farm
    m["parallel.drains_per_request"] = (len(records) / requests, "count")
    m["parallel.pool_startup_ms"] = (
        _mean(r["pool_startup_s"] for r in records) * 1e3, "ms"
    )
    m["parallel.dispatch_ms_per_drain"] = (
        _mean(
            r["wall_s"] - r["kernel_s"] / max(r["workers"], 1) for r in records
        ) * 1e3,
        "ms",
    )
    m["parallel.efficiency"] = (
        _ratio(
            sum(r["kernel_s"] for r in records),
            sum(max(r["workers"], 1) * r["wall_s"] for r in records),
        ),
        "ratio",
    )
    m["parallel.tail_imbalance"] = (
        _mean(r["tail_imbalance"] for r in records if r["tail_imbalance"]),
        "ratio",
    )
    m["parallel.backoffs"] = (sum(r["backoffs"] for r in records), "count")
    m["parallel.serial_fallback"] = (
        sum(r["serial_fallback"] for r in records), "count"
    )

    # batcher
    submits = tracing.durations(spans, "batcher.submit")
    evals = [
        ((s[6] - s[5]) / 1e9, s[8]["jobs"])
        for s in spans
        if s[1] == "batcher.evaluate"
    ]
    jobs = sum(j for _d, j in evals)
    m["service.batcher.queue_wait_ms"] = (
        (_mean(submits) - _ratio(sum(d * j for d, j in evals), jobs)) * 1e3
        if submits else 0.0,
        "ms",
    )
    m["service.batcher.jobs_per_batch"] = (_ratio(jobs, len(evals)), "count")
    m["service.batcher.batches_in_flight_max"] = (
        tracing.max_overlap(spans, "batcher.evaluate"), "count"
    )

    # servers and wire
    for op in ("register", "search"):
        m[f"service.server.{op}_ms"] = (
            _mean(tracing.durations(spans, f"server.{op}")) * 1e3, "ms"
        )
        m[f"service.shard.{op}_ms"] = (
            _mean(tracing.durations(spans, f"shard.{op}")) * 1e3, "ms"
        )
    handler = sum(
        sum(tracing.durations(spans, f"shard.{op}"))
        for op in ("register", "search")
    )
    m["service.wire_ms"] = (
        (sum(traced.latencies) - handler) / requests * 1e3
        if handler else 0.0,
        "ms",
    )
    for role in ("client", "coordinator", "shard", "workers"):
        m[f"cpu_ms_per_request.{role}"] = (
            untraced.cpu.get(role, 0.0) / max(untraced.requests, 1) * 1e3, "ms"
        )

    # cache and store, from the shard's own counters
    before, after = untraced.server_before, untraced.server_after
    if after:
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        counters = after["counters"]
        store_hits = counters.get("matstore_hits", 0)
        store_misses = counters.get("matstore_misses", 0)
    else:
        hits = misses = store_hits = store_misses = 0
    m["service.cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["matstore.hit_ratio"] = (
        _ratio(store_hits, store_hits + store_misses), "ratio"
    )
    m["matstore.lookups"] = (store_hits + store_misses, "count")
    m["matstore.build_s"] = (env.get("build_s", 0.0), "s")

    # run store
    m["runs.journal_ms"] = (
        sum(tracing.durations(spans, "runs.journal")) / requests * 1e3, "ms"
    )
    m["runs.finalize_ms"] = (
        sum(tracing.durations(spans, "runs.finalize")) / requests * 1e3, "ms"
    )
    return m


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print(
            f"perfbench: no program sources under {root}/src; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.dirname(here))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if os.path.commonpath([build, root]) != root:
        build = os.path.join(root, ".bench_build")
    # the program caches its compiled kernels under the temp directory
    os.environ["TMPDIR"] = os.path.join(build, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )

    from perfbench import procs
    from perfbench import workloads as wl

    # every process the run starts ends before it does, on every path
    # out: registered first, the reaper runs after the program's own
    # atexit hooks (which may still use the resource tracker)
    procs.adopt_orphans()
    atexit.register(procs.reap_all)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # the compiled-kernel cache and the traces outlive a run by design
    keep = [os.path.join(os.environ["TMPDIR"], "repro-native-*"),
            os.path.join(build, "traces")]
    files_before = procs.tree_files(root, keep)
    shm_before = procs.shm_segments()
    run_dir = os.path.join(build, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    nproc = os.cpu_count() or 1
    sampler = procs.TreeSampler()
    sampler.start()
    ctx = wl.Context(root, build, run_dir, args.seed, nproc, sampler)
    workload = WORKLOADS[args.workload](ctx)
    report: Dict[str, object] = {
        "workload": args.workload,
        "environment": procs.environment(root, args.seed, nproc),
    }
    messages: List[str] = []
    attempted = failed = 0
    metrics: Dict[str, tuple] = {}
    try:
        attempted, failed, messages, metrics = _run(args, ctx, workload, report)
    finally:
        sampler.stop()
        from repro.parallel import shutdown_planes

        shutdown_planes()
        shutil.rmtree(run_dir, ignore_errors=True)

    # a leak is a failed operation; segments first, because the resource
    # tracker unlinks the ones registered with it when it stops
    leaks = [f"/dev/shm/{n} left behind"
             for n in sorted(procs.shm_segments() - shm_before)]
    procs.stop_resource_tracker()
    leaks += [f"process {pid} still running" for pid in sampler.stragglers()]
    leaks += [f"file {os.path.relpath(p, root)} left behind"
              for p in sorted(procs.tree_files(root, keep) - files_before)]
    attempted += len(leaks)
    failed += len(leaks)
    report["failures"] = messages + leaks
    report["error_rate"] = _ratio(failed, attempted)
    metrics_doc = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["metrics"] = metrics_doc
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics_doc,
    }))
    return 0


def _run(args, ctx, workload, report):
    """Set up, measure and check.

    Returns ``(attempted, failed, messages, metrics)``: every request is
    an attempted operation; a failed or wrong one, a failed output check
    and a server that had to be killed each count as failed.
    """
    from perfbench import workloads as wl

    tail_q = wl.tail_q(args.workload, args.seconds)
    if args.trace:
        return _run_traced(args, ctx, workload, report, tail_q)
    problems: List[str] = []
    setups: List[float] = []
    repeats = wl.SETUP_REPEATS[args.workload]
    for k in range(repeats):
        t0 = time.perf_counter()
        env = workload.setup()
        setups.append(time.perf_counter() - t0)
        if k + 1 < repeats:
            workload.teardown(env)
            problems += env.get("problems", [])
    try:
        phase = workload.measure(env, args.seconds)
    finally:
        workload.teardown(env)
    problems += env.get("problems", []) + workload.check(env, phase)
    report["setups_s"] = setups
    n = phase.independent
    report["tail"] = {"q": tail_q, "n": len(phase.latencies), "independent": n,
                      "beyond": round(n * (1 - tail_q), 1)}
    if n * (1 - tail_q) < 10:
        print(f"perfbench: --seconds {args.seconds:g} is too short for a tail: "
              f"p{tail_q * 100:.0f} of {n} independent samples", file=sys.stderr)
    report["measured_s"] = phase.wall
    report["requests"] = phase.requests
    report["requests_per_s"] = _ratio(phase.requests, phase.busy)
    report["cpu_s"] = phase.cpu
    report["host"] = phase.host
    if phase.farm:
        report["farm"] = phase.farm
    metrics = {
        k: (v, END_TO_END[k])
        for k, v in end_to_end(phase, tail_q, setups).items()
    }
    return (phase.attempted, phase.failed + len(problems),
            phase.errors + problems, metrics)


def _run_traced(args, ctx, workload, report, tail_q):
    """Both phases do the same work, half a timed run's each."""
    from perfbench import tracing

    seconds = args.seconds / 2
    env = workload.setup()
    try:
        untraced = workload.measure(env, seconds)
    finally:
        workload.teardown(env)
    problems = env.get("problems", []) + workload.check(env, untraced)

    trace_dir = os.path.join(ctx.run_dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    tracer = tracing.bootstrap(trace_dir, "client")
    tracer.enabled = False
    env_t = workload.setup(traced=True)
    try:
        tracer.enabled = True
        traced = workload.measure(env_t, seconds)
    finally:
        tracer.enabled = False
        workload.teardown(env_t)
    problems += env_t.get("problems", [])
    from repro.parallel import shutdown_planes

    shutdown_planes()
    tracer.flush()
    ctx.sampler.stragglers()  # farm workers write their spans on exit
    docs = tracing.merge(trace_dir)
    t0, t1 = traced.t0_ns, traced.t1_ns
    spans = tracing.clipped(docs, t0, t1)
    records = [
        r for doc in docs for r in doc["records"] if t0 <= r["t0"] < t1
    ]
    metrics = per_layer(untraced, traced, spans, records, env)

    wall = (t1 - t0) / 1e9
    table = tracing.layer_table(spans, t0, t1)
    for layer, seconds in table.items():
        metrics[f"layer.{layer}.share"] = (seconds / wall, "ratio")
    metrics["trace.wall_s"] = (wall, "s")
    e2e_u = end_to_end(untraced, tail_q, [])
    e2e_t = end_to_end(traced, tail_q, [])
    for key in ("pairs_per_s", "latency_p50_ms"):
        metrics[f"untraced.{key}"] = (e2e_u[key], END_TO_END[key])
        metrics[f"traced.{key}"] = (e2e_t[key], END_TO_END[key])
    metrics["trace.overhead"] = (
        _ratio(e2e_u["pairs_per_s"], e2e_t["pairs_per_s"]) - 1.0, "ratio"
    )
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed + len(problems)
    metrics["error_rate"] = (_ratio(failed, attempted), "ratio")
    report["layer_table_s"] = table
    report["layer_table"] = _format_table(table, wall, e2e_u, e2e_t)

    out_dir = os.path.join(ctx.build, "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        fh.write(tracing.chrome_trace(docs, t0))
    report["chrome_trace"] = os.path.relpath(path, ctx.root)
    print(report["layer_table"])
    return (attempted, failed,
            untraced.errors + traced.errors + problems, metrics)


def _format_table(table, wall, e2e_u, e2e_t) -> str:
    lines = [f"{'layer':<18}{'self s':>9}{'share':>8}"]
    for layer, seconds in table.items():
        lines.append(f"{layer:<18}{seconds:>9.3f}{seconds / wall:>8.1%}")
    lines.append(f"{'wall':<18}{wall:>9.3f}{sum(table.values()) / wall:>8.1%}")
    lines.append(
        "tracing overhead: pairs/s "
        f"{e2e_u['pairs_per_s']:.2f} untraced -> {e2e_t['pairs_per_s']:.2f} "
        f"traced ({_ratio(e2e_u['pairs_per_s'], e2e_t['pairs_per_s']) - 1:+.1%} "
        "time per pair); p50 "
        f"{e2e_u['latency_p50_ms']:.2f} -> {e2e_t['latency_p50_ms']:.2f} ms"
    )
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
