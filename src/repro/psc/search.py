"""PSC task APIs: ranked one-vs-all search and the all-vs-all table.

These are the *algorithmic* (non-simulated) entry points a
bioinformatician would call directly; the paper's motivating task is the
ranked one-vs-all search ("retrieve a ranked list of proteins, where
structurally similar proteins are ranked higher").

Each task decides *which* pairs need the exact kernel and hands that
pair list to :func:`repro.parallel.iter_pair_results`, the one path to
the kernel.  ``config`` (a :class:`repro.parallel.ParallelConfig`)
carries every farm setting: the default runs the pairs in-process, and
``workers > 1`` farms them over a process pool with bit-identical
scores and merged op counts (see :mod:`repro.parallel.farm` for chunk
packing, retries and the shared-memory dataset plane).

``prefilter`` — the cheap first tier of the hierarchical search
(:mod:`repro.seqalign.prefilter`) — shrinks a one-vs-all pair list
before it reaches the kernel.  Pass a
:class:`~repro.seqalign.prefilter.PrefilterConfig` (or a prebuilt
:class:`~repro.seqalign.prefilter.SequencePrefilter` over the same
corpus, e.g. the query service's cached instance) and only the
candidates its promotion policy keeps are compared.  Left at ``None``,
the exact path runs, byte-identical to the output before the tier
existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence

from repro.cost.counters import CostCounter
from repro.datasets.registry import Dataset
from repro.psc.base import PSCMethod
from repro.psc.methods import TMAlignMethod
from repro.seqalign.prefilter import PrefilterConfig, SequencePrefilter
from repro.structure.model import Chain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel import ParallelConfig

__all__ = [
    "RankedHit",
    "rank_hits",
    "one_vs_all",
    "all_vs_all",
    "resolve_prefilter",
]

#: accepted by the ``prefilter`` parameter of :func:`one_vs_all`
Prefilter = Optional["PrefilterConfig | SequencePrefilter"]


def resolve_prefilter(
    prefilter: Prefilter, dataset: Dataset
) -> Optional[SequencePrefilter]:
    """Normalize a ``prefilter`` argument against a candidate corpus.

    ``None`` stays ``None`` (exact search); a
    :class:`~repro.seqalign.prefilter.PrefilterConfig` builds a fresh
    :class:`~repro.seqalign.prefilter.SequencePrefilter` over the
    dataset; a prebuilt instance is checked to cover the same corpus
    (name-for-name) so a cached filter can never silently score against
    stale candidates.
    """
    if prefilter is None:
        return None
    if isinstance(prefilter, PrefilterConfig):
        return SequencePrefilter.from_chains(dataset, prefilter)
    if isinstance(prefilter, SequencePrefilter):
        names = tuple(c.name for c in dataset)
        if prefilter.names != names:
            raise ValueError(
                "prebuilt prefilter does not cover this dataset "
                f"({len(prefilter.names)} candidates vs {len(names)})"
            )
        return prefilter
    raise TypeError(
        "prefilter must be None, a PrefilterConfig or a SequencePrefilter, "
        f"got {type(prefilter).__name__}"
    )


@dataclass(frozen=True)
class RankedHit:
    """One entry of a ranked search result."""

    chain_name: str
    score: float
    details: Dict[str, float]


def rank_hits(
    rows: list[tuple[str, Dict[str, float]]], method: PSCMethod
) -> list[RankedHit]:
    """Rank raw ``(chain_name, scores)`` rows into :class:`RankedHit`\\ s.

    The single ranking rule shared by every search surface (serial loop,
    parallel farm, query service): descending similarity, chain name as
    the deterministic tie-break.
    """
    hits = [
        RankedHit(name, method.similarity(scores), dict(scores))
        for name, scores in rows
    ]
    hits.sort(key=lambda h: (-h.score, h.chain_name))
    return hits


def _evaluate(
    dataset: Dataset,
    pairs: Sequence[tuple[int, int]],
    method: PSCMethod,
    config: Optional["ParallelConfig"],
    counter: Optional[CostCounter],
    query: Optional[Chain] = None,
) -> Iterator[tuple[int, int, Dict[str, float]]]:
    """``(i, j, scores)`` for ``pairs`` in job order, op counts merged
    into ``counter``."""
    from repro.parallel import iter_pair_results

    for i, j, scores, counts in iter_pair_results(
        dataset, pairs, method, config=config, query=query
    ):
        if counter is not None:
            counter.merge(CostCounter(counts))
        yield i, j, scores


def one_vs_all(
    query: Chain,
    dataset: Dataset,
    method: Optional[PSCMethod] = None,
    counter: Optional[CostCounter] = None,
    exclude_self: bool = True,
    config: Optional["ParallelConfig"] = None,
    prefilter: Prefilter = None,
) -> list[RankedHit]:
    """Compare ``query`` against every dataset chain; rank by similarity.

    With ``prefilter`` set, the batched sequence tier scores all
    candidates first and only the promoted ones (see
    :meth:`~repro.seqalign.prefilter.PrefilterConfig.n_promoted`) pay
    the exact kernel; the returned ranking covers only those.
    """
    from repro.parallel.worker import QUERY_INDEX

    method = method or TMAlignMethod()
    pf = resolve_prefilter(prefilter, dataset)
    excluded = {
        k
        for k, chain in enumerate(dataset)
        if exclude_self and chain.name == query.name
    }
    candidates = [k for k in range(len(dataset)) if k not in excluded]
    if pf is not None:
        include = set(pf.promote_chain(query, exclude=excluded))
        candidates = [k for k in candidates if k in include]
    pairs = [(QUERY_INDEX, k) for k in candidates]
    rows = [
        (dataset[j].name, scores)
        for _i, j, scores in _evaluate(
            dataset, pairs, method, config, counter, query=query
        )
    ]
    return rank_hits(rows, method)


def all_vs_all(
    dataset: Dataset,
    method: Optional[PSCMethod] = None,
    counter: Optional[CostCounter] = None,
    config: Optional["ParallelConfig"] = None,
) -> Dict[tuple[str, str], Dict[str, float]]:
    """All unordered pairs (i<j) of the dataset, in row-major order;
    returns a score table.

    Scores and the merged ``counter`` are bit-identical for any
    ``config``.
    """
    method = method or TMAlignMethod()
    n = len(dataset)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return {
        (dataset[i].name, dataset[j].name): scores
        for i, j, scores in _evaluate(dataset, pairs, method, config, counter)
    }
