"""Worker-process side of the parallel farm.

Mirrors the paper's slave design: a worker process boots once and then
serves chunks of (i, j) comparison jobs for the life of its pool, which
may span many drains over different datasets.  Every chunk names the
*drain context* it belongs to — the dataset spec, the method, the query
and the fault plan — as a ``(key, blob)`` pair built once per
drain by :func:`drain_context`.  The worker materialises a context the
first time it sees its key (attaching the shared-memory plane, rebuilding
the registry dataset, or unpickling the dataset once) and serves later
chunks of the same drain from its cache.  A small blob travels with
every chunk, since the master cannot tell which worker takes it; a large
one (a pickled dataset) is left off, and a worker that has not cached
the key answers ``"context"`` so the master sends the chunk again with
the blob attached.

Everything in this module must stay importable under both the ``fork``
and ``spawn`` start methods, so the cache lives in module globals and
the job function :func:`eval_chunk` is a plain top-level callable.

Fault injection: when the context carries a :class:`~repro.faults.farm.
FarmFaultPlan`, the worker consults it before evaluating each pair and
may raise, SIGKILL its own process, or stall — keyed on the pair and the
attempt number the master stamps on every dispatched chunk, so injected
chaos is deterministic and retry-once semantics hold.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import signal
import time
import traceback
from collections import OrderedDict
from typing import NamedTuple, Optional, Sequence

from repro.faults.farm import FarmFaultPlan, InjectedFault
from repro.psc.base import PSCMethod
from repro.psc.evaluator import EvalMode, evaluate_pair
from repro.structure.model import Chain

__all__ = [
    "CONTEXT_CACHE",
    "QUERY_INDEX",
    "boot",
    "dataset_spec",
    "drain_context",
    "eval_chunk",
    "init_worker",
]

#: sentinel chain index meaning "the farm's query chain" (one-vs-all jobs)
QUERY_INDEX = -1

#: drain contexts a worker keeps materialised; older ones are dropped and
#: their plane views detached, so a worker maps at most this many planes
CONTEXT_CACHE = 2


class _Context(NamedTuple):
    dataset: object
    method: PSCMethod
    query: Optional[Chain]
    faults: Optional[FarmFaultPlan]
    view: object  # the ShmDataset behind ``dataset`` for a plane spec, else None


# key -> materialised context, least recently used first
_CONTEXTS: "OrderedDict[str, _Context]" = OrderedDict()
_EXIT_HOOK = False


def dataset_spec(dataset) -> tuple:
    """Smallest pickle describing ``dataset`` when no plane serves it.

    Registry datasets are deterministic synthetic builds, so shipping the
    registry *name* and rebuilding in the worker beats pickling ~100
    coordinate arrays; ad-hoc datasets (subsets, PDB loads) fall back to
    pickling the Dataset object into the drain context.
    """
    from repro.datasets.registry import DATASET_BUILDERS, _CACHE

    for name, built in _CACHE.items():
        if built is dataset and name in DATASET_BUILDERS:
            return ("registry", name)
    return ("pickle", dataset)


def drain_context(
    spec: tuple,
    method: PSCMethod,
    query: Optional[Chain] = None,
    faults: Optional[FarmFaultPlan] = None,
) -> tuple[str, bytes]:
    """Master side: pickle one drain's context once, keyed by its digest.

    The key is a digest of the exact bytes a worker would unpickle, so
    two drains share a cached context only when their contexts are
    identical, and a pickled dataset is serialised once per drain rather
    than once per chunk.
    """
    blob = pickle.dumps(
        (spec, method, query, faults),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return hashlib.sha256(blob).hexdigest()[:32], blob


def _open_dataset(spec: tuple) -> tuple[object, object]:
    """``(dataset, plane view or None)`` for a dataset spec."""
    kind, payload = spec
    if kind == "registry":
        from repro.datasets.registry import load_dataset

        return load_dataset(payload), None
    if kind == "pickle":
        return payload, None
    if kind == "plane":
        from repro.parallel.shmplane import ShmDataset

        segment, fingerprint = payload
        view = ShmDataset.attach(segment, fingerprint=fingerprint)
        return view, view
    raise ValueError(f"unknown dataset spec kind {kind!r}")


def init_worker(context: tuple[str, Optional[bytes]]) -> Optional[_Context]:
    """The materialised drain context for ``context``, cached by key;
    ``None`` when the key is not cached and the blob was left off.

    Evicting a context detaches its plane view: every drain publishes
    its own plane, so no other context maps it.
    """
    global _EXIT_HOOK
    key, blob = context
    hit = _CONTEXTS.get(key)
    if hit is not None:
        _CONTEXTS.move_to_end(key)
        return hit
    if blob is None:
        return None
    spec, method, query, faults = pickle.loads(blob)
    dataset, view = _open_dataset(spec)
    ctx = _Context(dataset, method, query, faults, view)
    _CONTEXTS[key] = ctx
    while len(_CONTEXTS) > CONTEXT_CACHE:
        _key, old = _CONTEXTS.popitem(last=False)
        if old.view is not None:
            old.view.detach()
    if view is not None and not _EXIT_HOOK:
        _EXIT_HOOK = True
        atexit.register(_detach_planes)
    return ctx


def _detach_planes() -> None:
    """Drop the worker's shared-plane views before interpreter shutdown.

    Under ``spawn`` the child finalizes normally, where a still-mapped
    segment with live NumPy views would raise ``BufferError`` noise from
    ``SharedMemory.__del__``; under ``fork`` the child exits via
    ``os._exit`` and this never runs (nor needs to).  Never unlinks —
    only the owner destroys the plane.
    """
    views = [c.view for c in _CONTEXTS.values() if c.view is not None]
    _CONTEXTS.clear()
    for view in views:
        view.detach()


def boot() -> None:
    """Pool initializer: give SIGTERM back its default action.

    A fork-started worker inherits the master's signal handlers, and the
    CLI turns SIGTERM into ``SystemExit`` for its own cleanup.  When the
    pool terminates a worker after a sibling died, that exception can
    land inside ``concurrent.futures``' result send just after it took
    the result queue's write lock; the send's ``except BaseException``
    then sends again under the lock it still holds, and the worker hangs
    with the pool's manager thread, and interpreter exit, joining it.
    A worker owns nothing to clean up (it attaches planes untracked), so
    it dies on SIGTERM like a spawn-started one.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def maybe_inject_fault(
    faults: Optional[FarmFaultPlan], i: int, j: int, attempt: int
) -> None:
    """Fire the planned fault for ``(i, j, attempt)``, if any.

    ``raise`` faults raise :class:`InjectedFault` (caught by the normal
    worker error path), ``kill`` faults SIGKILL the worker process (the
    master sees BrokenProcessPool), ``stall`` faults sleep before
    letting the evaluation proceed.
    """
    if faults is None:
        return
    fault = faults.should_fire(i, j, attempt)
    if fault is None:
        return
    if fault.kind == "raise":
        raise InjectedFault(
            f"injected failure on pair ({i}, {j}) attempt {attempt}"
        )
    if fault.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(fault.stall_seconds)  # 'stall'


def eval_chunk(
    pairs: Sequence[tuple[int, int]],
    attempt: int = 0,
    context: Optional[tuple[str, Optional[bytes]]] = None,
) -> tuple[str, list, Optional[str], float]:
    """Evaluate one chunk of jobs under its drain ``context``; never raises.

    Returns ``("ok", results, None, exec_seconds)`` with one
    ``(i, j, scores, counts)`` per pair,
    ``("error", [i, j], traceback_text, exec_seconds)`` identifying the
    first failing pair so the master can surface the worker-side stack,
    or ``("context", [i, j], None, 0.0)`` when the context's blob was
    left off and this worker has not cached it.
    ``exec_seconds`` is the worker-side wall time spent evaluating the
    chunk (queue/IPC time and context materialisation excluded), which
    the master uses to score the cost model's predictions and the
    scheduler's tail balance.  ``attempt`` is the master's re-dispatch
    count for this chunk, used only to key fault injection.
    """
    first = list(pairs[0]) if len(pairs) else [-2, -2]
    if context is None:
        return ("error", first, "chunk sent without a drain context", 0.0)
    try:
        ctx = init_worker(context)
    except Exception:
        return ("error", first, traceback.format_exc(), 0.0)
    if ctx is None:
        return ("context", first, None, 0.0)
    t0 = time.perf_counter()
    out = []
    for i, j in pairs:
        try:
            maybe_inject_fault(ctx.faults, i, j, attempt)
            chain_a = ctx.query if i == QUERY_INDEX else ctx.dataset[i]
            scores, counter = evaluate_pair(
                ctx.method, EvalMode.MEASURED, chain_a, ctx.dataset[j]
            )
        except Exception:
            return ("error", [i, j], traceback.format_exc(), time.perf_counter() - t0)
        out.append((i, j, scores, counter.as_dict()))
    return ("ok", out, None, time.perf_counter() - t0)
