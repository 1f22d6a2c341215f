"""The repository benchmark's hooks into the program still resolve.

``perfbench/`` drives the program from outside: traced runs wrap entry
points by module and attribute name, the matrix workload patches the
farm's in-process chunk evaluator, and every run reads farm statistics.
A rename or deletion in the program would not fail at import time but
only inside a benchmark run, so these tests resolve each hook here.
The target tables are read from ``perfbench/tracing.py`` itself, never
copied.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import tracing  # noqa: E402

TARGETS = tracing._COMMON + [
    t for targets in tracing.ROLE_TARGETS.values() for t in targets
]


@pytest.mark.parametrize(
    "module_name, attr", [(t[0], t[1]) for t in TARGETS],
    ids=[f"{t[0]}:{t[1]}" for t in TARGETS],
)
def test_traced_entry_point_resolves(module_name, attr):
    """``tracing.install`` replaces each target by name: a module-level
    function, or a method found in its class's own ``__dict__``."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert callable(cls.__dict__[meth])
    else:
        assert callable(getattr(module, attr))


def test_matrix_workload_hooks():
    """``workloads._PairClock`` patches ``farm._inprocess_chunk(dataset,
    pairs, ...)``; teardown calls ``repro.parallel.shutdown_planes``; the
    traced drain injects ``stats`` into ``iter_pair_results``."""
    from repro.parallel import farm, shutdown_planes

    assert callable(shutdown_planes)
    params = list(inspect.signature(farm._inprocess_chunk).parameters)
    assert params[:2] == ["dataset", "pairs"]
    assert "stats" in inspect.signature(farm.iter_pair_results).parameters


def test_farm_stats_fields_read_by_the_benchmark():
    from repro.parallel import FarmStats

    fields = {f.name for f in dataclasses.fields(FarmStats)}
    for name in (
        "workers", "wall_seconds", "chunk_walls", "pool_startup_s",
        "backoffs", "final_window", "serial_fallback",
    ):
        assert name in fields, name
    assert FarmStats().tail_imbalance() is None


def test_workload_call_shapes():
    """The keyword shapes the workloads call the program with."""
    from repro.matstore import build_store
    from repro.psc.search import one_vs_all
    from repro.runs.matrix import MatrixRunResult, matrix_run

    inspect.signature(matrix_run).bind(
        "dataset", "method", "out.csv", "store", config=None
    )
    inspect.signature(build_store).bind("dataset", "root", config=None)
    inspect.signature(one_vs_all).bind("query", "dataset", "method")
    fields = {f.name for f in dataclasses.fields(MatrixRunResult)}
    assert {"run_id", "n_pairs", "n_rows", "n_computed", "stats"} <= fields
