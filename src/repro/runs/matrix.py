"""Durable all-vs-all matrix runs: journaled execution with resume.

:func:`matrix_run` is the engine behind ``python -m repro.cli matrix``:
it evaluates the all-pairs job list over the farm, journals every
completed pair into a run directory as it drains, and finalizes the
score CSV atomically.  A run interrupted by a crash (worker or master)
can be continued with ``resume=<run_id>``: journaled pairs are **never
re-evaluated**, and the finalized CSV is byte-identical to the one an
uninterrupted run would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.datasets.pairs import all_vs_all_pairs
from repro.datasets.registry import Dataset
from repro.parallel import FarmBackend, FarmStats, ParallelConfig, iter_pair_results
from repro.psc.base import PSCMethod
from repro.psc.evaluator import EvalMode
from repro.runs.manifest import RunManifest
from repro.runs.store import Run, RunStore, RunStoreError

__all__ = ["MatrixRunResult", "matrix_run"]


@dataclass
class MatrixRunResult:
    """What one (possibly resumed) matrix run did."""

    run_id: str
    n_pairs: int
    n_computed: int  # pairs evaluated in *this* invocation
    n_journaled: int  # pairs found already complete in the journal
    n_rows: int  # rows in the finalized CSV
    output: str
    score_sum: float  # over all pairs, for the mean score report
    score_key: str
    stats: FarmStats = field(default_factory=FarmStats)


def matrix_run(
    dataset: Dataset,
    method: PSCMethod,
    output: str,
    store: RunStore,
    run_id: Optional[str] = None,
    resume: Optional[str] = None,
    config: Optional[ParallelConfig] = None,
    faults=None,
    backend: Optional[FarmBackend] = None,
) -> MatrixRunResult:
    """Evaluate (and journal) the all-vs-all matrix of ``dataset``.

    Exactly one of ``run_id`` (start a fresh run, optionally naming it)
    and ``resume`` (continue an interrupted run) may be given.  On a
    worker crash that exhausts the retry policy the journal keeps every
    completed pair and the run is marked ``interrupted`` before the
    exception propagates.  ``backend`` runs the drain on a long-lived
    farm; its config stands for ``config``, which, if given too, must
    equal it.
    """
    if resume and run_id:
        raise ValueError("pass either run_id or resume, not both")
    if backend is not None:
        if config is not None and config != backend.config:
            raise ValueError("config differs from the backend's config")
        config = backend.config
    config = config or ParallelConfig()
    pairs = list(all_vs_all_pairs(len(dataset)))

    if resume:
        run = store.open(resume)
        run.manifest.check_inputs(dataset, method.name)
        if run.manifest.command != "matrix":
            raise RunStoreError(
                f"run {resume!r} is a {run.manifest.command!r} run, not a matrix"
            )
        run.mark("running")
    else:
        manifest = RunManifest.for_task(
            run_id=run_id or store.new_run_id("matrix"),
            command="matrix",
            dataset=dataset,
            method_name=method.name,
            mode=EvalMode.MEASURED.value,
            n_pairs=len(pairs),
            params={
                "workers": config.workers,
                "chunk": config.chunk,
                "output": str(output),
            },
        )
        run = store.create(manifest)

    journaled = run.load_journal()
    todo = [p for p in pairs if p not in journaled]
    stats = FarmStats()
    n_computed = 0
    try:
        if todo:
            with run.journal() as journal:
                for i, j, scores, _ in iter_pair_results(
                    dataset,
                    todo,
                    method,
                    config=config,
                    faults=faults,
                    stats=stats,
                    backend=backend,
                ):
                    journal.append(i, j, scores)
                    n_computed += 1
    except BaseException:
        run.mark("interrupted")
        raise

    n_rows = run.finalize_csv(pairs, [c.name for c in dataset], output)
    run.mark("complete")

    final = run.load_journal()
    score_sum = sum(final.scores(p)[method.score_key] for p in pairs)
    return MatrixRunResult(
        run_id=run.run_id,
        n_pairs=len(pairs),
        n_computed=n_computed,
        n_journaled=len(journaled),
        n_rows=n_rows,
        output=str(output),
        score_sum=score_sum,
        score_key=method.score_key,
        stats=stats,
    )
