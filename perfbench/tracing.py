"""Span tracing from outside the program.

:func:`install` replaces public entry points of the program's layers
with wrappers that record one span per call — name, layer, start, end,
parent span, process, thread — into an in-memory :class:`Tracer`.
Nothing in the program changes: the wrappers are installed at run time,
in the benchmark process and (through ``boot.py``) in the server
processes it launches; fork-started farm workers inherit them.

Each process writes its spans once, when it exits, as one JSON file in
the trace directory; :func:`merge` reads them back, :func:`chrome_trace`
writes the merged spans in the Chrome trace-event format that
``repro.scc.trace`` exports for the simulator, and :func:`layer_table`
attributes every instant of the traced wall to one layer.
"""

from __future__ import annotations

import contextvars
import functools
import glob
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: layer order for wall attribution, outermost first: at each instant the
#: wall goes to the innermost layer with an open span on any process
LAYERS = (
    "service.wire",
    "service.shard",
    "service.server",
    "service.cache",
    "matstore",
    "service.batcher",
    "parallel",
    "runs",
    "psc",
    "tmalign",
)

#: kernel stages whose self time splits ``tm_align``
STAGES = (
    "superposition_search",
    "gapless_threading",
    "fragment_threading",
    "nw_align",
    "ss_alignment",
    "combined_alignment",
)

# (module, attribute, span name, layer, rank).  Rank orders spans on the
# request path, outermost first; wall attribution gives each instant to
# the highest-ranked open span.  "Class.method" attributes patch the
# class, so instances created later (servers, batchers) bind wrappers.
_COMMON = [
    ("repro.service.protocol", "decode_line", "protocol.decode", "service.wire", 1),
    ("repro.service.protocol", "encode_line", "protocol.encode", "service.wire", 1),
    ("repro.service.shard", "ShardCoordinator._op_search", "shard.search", "service.shard", 2),
    ("repro.service.shard", "ShardCoordinator._op_register", "shard.register", "service.shard", 2),
    ("repro.service.server", "PSCService._op_search", "server.search", "service.server", 4),
    ("repro.service.server", "PSCService._op_register", "server.register", "service.server", 4),
    ("repro.service.cache", "ResultCache.get", "cache.get", "service.cache", 5),
    ("repro.service.cache", "ResultCache.put", "cache.put", "service.cache", 5),
    ("repro.matstore.store", "MatrixStore.lookup", "matstore.lookup", "matstore", 6),
    ("repro.service.batcher", "MicroBatcher.submit", "batcher.submit", "service.batcher", 7),
    ("repro.service.batcher", "MicroBatcher._evaluate_batch", "batcher.evaluate", "service.batcher", 8),
    ("repro.parallel.farm", "iter_pair_results", "farm.drain", "parallel", 9),
    ("repro.parallel.costsched", "pack_chunks", "farm.pack_chunks", "parallel", 10),
    ("repro.parallel.shmplane", "plane_for", "farm.plane_for", "parallel", 10),
    ("repro.runs.store", "RunStore.create", "runs.create", "runs", 11),
    ("repro.runs.store", "RunJournal.append", "runs.journal", "runs", 11),
    ("repro.runs.store", "Run.finalize_csv", "runs.finalize", "runs", 11),
    ("repro.parallel.worker", "init_worker", "worker.init", "parallel", 12),
    ("repro.parallel.worker", "eval_chunk", "worker.chunk", "parallel", 12),
    ("repro.psc.methods", "TMAlignMethod.compare", "psc.compare", "psc", 13),
    ("repro.tmalign.align", "tm_align", "tmalign.compare", "tmalign", 14),
] + [
    (module, stage, f"tmalign.{stage}", "tmalign", 15)
    for module, stage in (
        ("repro.tmalign.align", "gapless_threading"),
        ("repro.tmalign.align", "ss_alignment"),
        ("repro.tmalign.align", "combined_alignment"),
        ("repro.tmalign.align", "fragment_threading"),
        ("repro.tmalign.align", "superposition_search"),
        ("repro.tmalign.align", "nw_align"),
    )
]

#: the client side of the wire: the generator's requests, and the
#: coordinator's requests to its shard (ranked between the two servers)
ROLE_TARGETS = {
    "client": [
        ("repro.service.client", "ServiceClient.request", "client.request", "service.wire", 0),
    ],
    "coordinator": [
        ("repro.service.shard", "AsyncShardConnection.request", "shard.forward", "service.wire", 3),
    ],
}


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, out_dir: str, role: str) -> None:
        self.out_dir = out_dir
        self.role = role
        self.enabled = True
        self.spans: List[list] = []
        self.records: List[dict] = []
        self._ids = itertools.count(1)
        self._flushed = False
        import multiprocessing.util as mp_util

        # fork-started farm workers keep the wrappers; give each its own
        # buffer and an exit hook (they leave through os._exit, so only
        # multiprocessing finalizers run, not atexit)
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        import multiprocessing.util as mp_util

        self.spans = []
        self.records = []
        self.role = self.role.split("-")[0] + "-worker"
        self._flushed = False
        mp_util.Finalize(self, self.flush, exitpriority=100)

    def new_id(self) -> str:
        return f"{os.getpid()}:{next(self._ids)}"

    def add(self, sid, name, layer, rank, parent, t0, t1, args=None) -> None:
        self.spans.append(
            [sid, name, layer, rank, parent, t0, t1, threading.get_ident(), args]
        )

    def flush(self) -> None:
        """Write this process's spans (once) as ``spans-<pid>.json``."""
        if self._flushed:
            return
        self._flushed = True
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(
                {
                    "pid": os.getpid(),
                    "role": self.role,
                    "spans": self.spans,
                    "records": self.records,
                },
                fh,
            )
        os.replace(path + ".tmp", path)


def _wrap(tracer: Tracer, fn: Callable, name: str, layer: str, rank: int):
    now = time.monotonic_ns

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def awrapper(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            sid = tracer.new_id()
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            t0 = now()
            try:
                return await fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                tracer.add(sid, name, layer, rank, parent, t0, now())

        return awrapper

    if name == "farm.drain":
        return _wrap_drain(tracer, fn, name, layer, rank)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        sid = tracer.new_id()
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        t0 = now()
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            extra = None
            if name == "batcher.evaluate":
                extra = {"jobs": len(args[1])}
            tracer.add(sid, name, layer, rank, parent, t0, now(), extra)

    return wrapper


def _wrap_drain(tracer: Tracer, fn: Callable, name: str, layer: str, rank: int):
    """``iter_pair_results`` is a generator: the span covers the whole
    drain, a :class:`FarmStats` is injected when the caller passed none,
    and the drain's stats and kernel op counts become a record."""
    from repro.parallel.farm import FarmStats

    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            yield from fn(*args, **kwargs)
            return
        bound = sig.bind(*args, **kwargs)
        stats = bound.arguments.get("stats")
        if stats is None:
            stats = bound.arguments["stats"] = FarmStats()
        sid = tracer.new_id()
        parent = _CURRENT.get()
        t0 = time.monotonic_ns()
        ops: Dict[str, float] = {}
        n = 0
        try:
            for item in fn(*bound.args, **bound.kwargs):
                n += 1
                for op, v in item[3].items():
                    ops[op] = ops.get(op, 0.0) + v
                yield item
        finally:
            tracer.add(sid, name, layer, rank, parent, t0, time.monotonic_ns())
            tracer.records.append(
                {
                    "t0": t0,
                    "pairs": n,
                    "workers": stats.workers,
                    "wall_s": stats.wall_seconds,
                    "kernel_s": sum(stats.chunk_walls),
                    "pool_startup_s": stats.pool_startup_s,
                    "backoffs": stats.backoffs,
                    "serial_fallback": bool(stats.serial_fallback),
                    "tail_imbalance": stats.tail_imbalance(),
                    "ops": ops,
                }
            )

    return wrapper


def install(tracer: Tracer, role: str) -> None:
    """Wrap every entry point of :data:`_COMMON` plus the role's own.

    A module-level function is replaced in every loaded ``repro``
    module that imported it by name, so ``from x import f`` callers see
    the wrapper too.
    """
    import importlib

    targets = _COMMON + ROLE_TARGETS.get(role, [])
    for module_name, attr, name, layer, rank in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tracer, original, name, layer, rank))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(tracer, original, name, layer, rank)
        setattr(module, attr, wrapped)
    # second pass so copies made by ``from x import f`` follow
    originals = {}
    for module_name, attr, *_ in targets:
        if "." not in attr:
            wrapped = getattr(sys.modules[module_name], attr)
            originals[id(wrapped.__wrapped__)] = wrapped
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            wrapped = originals.get(id(value))
            if wrapped is not None and value is wrapped.__wrapped__:
                setattr(mod, key, wrapped)


def bootstrap(out_dir: str, role: str) -> Tracer:
    """Import the program's layers, install the wrappers, and arrange
    for the spans to be written when the process exits.  Modules that
    copy a wrapped function by name are imported first, so that
    :func:`install` replaces their copy too."""
    import atexit

    for module in {t[0] for t in _COMMON + ROLE_TARGETS.get(role, [])}:
        __import__(module)
    __import__("repro.cli")
    __import__("repro.psc.search")
    __import__("repro.matstore.build")
    tracer = Tracer(out_dir, role)
    install(tracer, role)
    atexit.register(tracer.flush)
    return tracer


# -- analysis -----------------------------------------------------------------
def merge(out_dir: str) -> List[dict]:
    """Every process's span file from ``out_dir``."""
    docs = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.json"))):
        with open(path) as fh:
            docs.append(json.load(fh))
    return docs


def chrome_trace(docs: Sequence[dict], t_origin: int) -> str:
    """Trace-event JSON (``ph: "X"`` complete events, microseconds), one
    process track per traced process, named by role."""
    events = []
    for doc in docs:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": doc["pid"],
                "tid": 0,
                "args": {"name": f"{doc['role']} {doc['pid']}"},
            }
        )
        for sid, name, layer, _rank, parent, t0, t1, tid, args in doc["spans"]:
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (t0 - t_origin) / 1e3,
                    "dur": (t1 - t0) / 1e3,
                    "pid": doc["pid"],
                    "tid": tid,
                    "args": {"id": sid, "parent": parent, **(args or {})},
                }
            )
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def clipped(docs: Sequence[dict], t0: int, t1: int) -> List[list]:
    """All spans overlapping ``[t0, t1]``, each tagged with its role."""
    out = []
    for doc in docs:
        for span in doc["spans"]:
            if span[6] > t0 and span[5] < t1:
                out.append(span + [doc["role"]])
    return out


def layer_table(spans: Sequence[list], t0: int, t1: int) -> Dict[str, float]:
    """Seconds of ``[t0, t1]`` per layer, plus ``unattributed``.

    Each instant goes to the layer of the highest-ranked span open at
    that instant on any process — the innermost layer the request path
    is waiting on — so the rows sum exactly to the traced wall.
    """
    events: List[Tuple[int, int, int]] = []
    for span in spans:
        s, e = max(span[5], t0), min(span[6], t1)
        if e > s:
            events.append((s, 1, span[3]))
            events.append((e, -1, span[3]))
    events.sort()
    rank_layer = {t[4]: t[3] for t in _COMMON}
    for targets in ROLE_TARGETS.values():
        rank_layer.update({t[4]: t[3] for t in targets})
    open_count = [0] * (max(rank_layer) + 1)
    out = {layer: 0.0 for layer in LAYERS}
    out["unattributed"] = 0.0
    prev = t0
    for when, delta, rank in events:
        if when > prev:
            top = next(
                (r for r in range(len(open_count) - 1, -1, -1) if open_count[r]),
                None,
            )
            key = rank_layer[top] if top is not None else "unattributed"
            out[key] += (when - prev) / 1e9
            prev = when
        open_count[rank] += delta
    out["unattributed"] += (t1 - prev) / 1e9
    return out


def self_times(spans: Sequence[list]) -> Dict[str, float]:
    """Self seconds per span name: duration minus direct children's."""
    child_time: Dict[str, float] = {}
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] = child_time.get(span[4], 0.0) + (
                span[6] - span[5]
            ) / 1e9
    out: Dict[str, float] = {}
    for span in spans:
        own = (span[6] - span[5]) / 1e9 - child_time.get(span[0], 0.0)
        out[span[1]] = out.get(span[1], 0.0) + own
    return out


def durations(spans: Sequence[list], name: str) -> List[float]:
    return [(s[6] - s[5]) / 1e9 for s in spans if s[1] == name]


def max_overlap(spans: Sequence[list], name: str) -> int:
    events = []
    for s in spans:
        if s[1] == name:
            events.append((s[5], 1))
            events.append((s[6], -1))
    events.sort()
    best = cur = 0
    for _when, delta in events:
        cur += delta
        best = max(best, cur)
    return best

