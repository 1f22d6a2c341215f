"""Worker-process side of the parallel farm.

Mirrors the paper's slave design: each worker is initialised exactly once
with the full dataset (rebuilt from the registry when possible, unpickled
once otherwise — never shipped per job), then serves chunks of (i, j)
comparison jobs until the pool drains.

Everything in this module must stay importable under both the ``fork``
and ``spawn`` start methods, so the worker state lives in module globals
set by :func:`init_worker` (the pool initializer) and the job function
:func:`eval_chunk` is a plain top-level callable.

Fault injection: when the master ships a :class:`~repro.faults.farm.
FarmFaultPlan`, the worker consults it before evaluating each pair and
may raise, SIGKILL its own process, or stall — keyed on the pair and the
attempt number the master stamps on every dispatched chunk, so injected
chaos is deterministic and retry-once semantics hold.
"""

from __future__ import annotations

import atexit
import os
import signal
import time
import traceback
from typing import Optional, Sequence

from repro.faults.farm import FarmFaultPlan, InjectedFault
from repro.psc.base import PSCMethod
from repro.psc.evaluator import EvalMode, evaluate_pair
from repro.structure.model import Chain

__all__ = ["init_worker", "eval_chunk", "dataset_spec", "ping", "QUERY_INDEX"]

#: sentinel chain index meaning "the farm's query chain" (one-vs-all jobs)
QUERY_INDEX = -1

# Per-process worker state, set once by init_worker.
_DATASET = None
_METHOD: Optional[PSCMethod] = None
_MODE: EvalMode = EvalMode.MEASURED
_QUERY: Optional[Chain] = None
_FAULTS: Optional[FarmFaultPlan] = None
_PLANE_VIEW = None  # ShmDataset attached by a "plane" spec, if any


def dataset_spec(dataset) -> tuple:
    """Smallest pickle describing ``dataset`` for worker initialisation.

    Registry datasets are deterministic synthetic builds, so shipping the
    registry *name* and rebuilding in the worker beats pickling ~100
    coordinate arrays; ad-hoc datasets (subsets, PDB loads) fall back to
    pickling the Dataset object once per worker.  Under the ``fork``
    start method either spec is effectively free: the parent's dataset
    pages are shared copy-on-write.
    """
    from repro.datasets.registry import DATASET_BUILDERS, _CACHE

    for name, built in _CACHE.items():
        if built is dataset and name in DATASET_BUILDERS:
            return ("registry", name)
    return ("pickle", dataset)


def init_worker(
    spec: tuple,
    method: PSCMethod,
    mode: EvalMode | str,
    query: Optional[Chain] = None,
    faults: Optional[FarmFaultPlan] = None,
) -> None:
    """Pool initializer: build the worker's dataset/method state once."""
    global _DATASET, _METHOD, _MODE, _QUERY, _FAULTS, _PLANE_VIEW
    if _PLANE_VIEW is not None:
        # re-initialised in the same process (in-process farm tests):
        # drop the previous attachment before replacing it
        _PLANE_VIEW.detach()
        _PLANE_VIEW = None
    kind, payload = spec
    if kind == "registry":
        from repro.datasets.registry import load_dataset

        _DATASET = load_dataset(payload)
    elif kind == "pickle":
        _DATASET = payload
    elif kind == "plane":
        from repro.parallel.shmplane import ShmDataset

        segment, fingerprint = payload
        _PLANE_VIEW = ShmDataset.attach(segment, fingerprint=fingerprint)
        _DATASET = _PLANE_VIEW
        atexit.register(_detach_plane)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown dataset spec kind {kind!r}")
    _METHOD = method
    _MODE = EvalMode(mode)
    _QUERY = query
    _FAULTS = faults


def _detach_plane() -> None:
    """Drop the worker's shared-plane views before interpreter shutdown.

    Under ``spawn`` the child finalizes normally, where a still-mapped
    segment with live NumPy views would raise ``BufferError`` noise from
    ``SharedMemory.__del__``; under ``fork`` the child exits via
    ``os._exit`` and this never runs (nor needs to).  Never unlinks —
    only the owner destroys the plane.
    """
    global _PLANE_VIEW, _DATASET
    if _PLANE_VIEW is not None:
        if _DATASET is _PLANE_VIEW:
            _DATASET = None
        _PLANE_VIEW.detach()
        _PLANE_VIEW = None


def ping() -> int:
    """Trivial job proving a worker is initialised and responsive.

    Used by the pool-startup benchmark to measure round-trip wall
    without paying any comparison cost; returns the worker's PID so the
    caller can count distinct processes.
    """
    return os.getpid()


def maybe_inject_fault(i: int, j: int, attempt: int) -> None:
    """Fire the planned fault for ``(i, j, attempt)``, if any.

    ``raise`` faults raise :class:`InjectedFault` (caught by the normal
    worker error path), ``kill`` faults SIGKILL the worker process (the
    master sees BrokenProcessPool), ``stall`` faults sleep before
    letting the evaluation proceed.
    """
    if _FAULTS is None:
        return
    fault = _FAULTS.should_fire(i, j, attempt)
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
    pairs: Sequence[tuple[int, int]], attempt: int = 0
) -> tuple[str, list, Optional[str], float]:
    """Evaluate one chunk of jobs; never raises.

    Returns ``("ok", results, None, exec_seconds)`` with one
    ``(i, j, scores, counts)`` per pair, or
    ``("error", [i, j], traceback_text, exec_seconds)`` identifying the
    first failing pair so the master can surface the worker-side stack.
    ``exec_seconds`` is the worker-side wall time spent evaluating the
    chunk (queue/IPC time excluded), which the master uses to score the
    cost model's predictions and the scheduler's tail balance.
    ``attempt`` is the master's re-dispatch count for this chunk, used
    only to key fault injection.
    """
    t0 = time.perf_counter()
    if _DATASET is None or _METHOD is None:
        return (
            "error",
            [-2, -2],
            "worker not initialised (init_worker missing)",
            0.0,
        )
    out = []
    for i, j in pairs:
        try:
            maybe_inject_fault(i, j, attempt)
            chain_a = _QUERY if i == QUERY_INDEX else _DATASET[i]
            scores, counter = evaluate_pair(
                _METHOD, _MODE, chain_a, _DATASET[j]
            )
        except Exception:
            return ("error", [i, j], traceback.format_exc(), time.perf_counter() - t0)
        out.append((i, j, scores, counter.as_dict()))
    return ("ok", out, None, time.perf_counter() - t0)
