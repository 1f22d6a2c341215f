"""Populate and incrementally extend a :class:`MatrixStore`.

``build_store`` computes every unordered pair of a dataset through the
existing farm (cost-packed chunks, dynamic pickup, retries), journaling
each pair as it drains, then commits the float32 blocks and header in
one step.
``extend_store`` is the incremental database update: one new chain costs
exactly ``n`` new pairs appended at the block tails, never a rebuild.
Each takes the farm's ``config``, or a long-lived ``backend`` whose pool
its drains share (a service shard passes its own).

Both are resumable: rows already journaled (by a crashed or interrupted
run) are never recomputed, the same contract ``matrix --resume`` gives —
*provided* the journal's recorded content context (``journal.ctx``)
matches the chains being computed.  A tail journaled for different
chains at the same indices is discarded and recomputed, never reused.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.registry import Dataset
from repro.psc.methods import TMAlignFullMethod
from repro.service.registry import chain_content_hash
from repro.structure.model import Chain
from repro.tmalign.params import params_fingerprint

from repro.matstore.store import (
    METRICS,
    MatStoreError,
    MatrixStore,
    condensed_pairs,
)

__all__ = [
    "BuildResult",
    "build_store",
    "ensure_coverage",
    "extend_store",
    "export_csv",
    "store_method",
]

def _context_digest(hashes: Sequence[str]) -> str:
    """Identity of the working chain set journal rows are computed for.

    Journal rows are keyed by pair *indices* only, so this digest (over
    the ordered content hashes of the full working dataset) is what ties
    an uncommitted journal tail to the chains it was actually scored
    against — an interrupted extend of chain X must never donate its
    rows to a later extend of chain Y at the same index.
    """
    import hashlib

    h = hashlib.sha256()
    for chain_hash in hashes:
        h.update(chain_hash.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class BuildResult:
    """Outcome of one build/extend: how much work was actually done."""

    store: MatrixStore
    n_pairs: int  # pairs this invocation was responsible for
    n_computed: int  # pairs actually run through the kernel now
    n_journaled: int  # pairs taken from a prior (interrupted) journal
    wall_seconds: float = 0.0
    notes: List[str] = field(default_factory=list)


def store_method(
    store: Optional[MatrixStore] = None,
) -> Tuple[TMAlignFullMethod, str]:
    """The one method a matrix store is scored with, plus its fingerprint.

    The store schema carries exactly the ``tmalign_full`` score keys and
    default TM-align parameters, so the method is fixed; an existing
    store whose recorded method or parameter fingerprint differs is
    refused (mixing parameterisations in one matrix would poison every
    later lookup).
    """
    method = TMAlignFullMethod()
    fingerprint = params_fingerprint(method.params)
    if store is not None:
        if store.method != method.name:
            raise MatStoreError(
                f"store was built with method {store.method!r}, "
                f"cannot continue with {method.name!r}"
            )
        if store.params_hash != fingerprint:
            raise MatStoreError(
                f"store was built with params {store.params_hash[:12]}..., "
                f"the default params fingerprint {fingerprint[:12]}... differs"
            )
    return method, fingerprint


def _content_hashes(chains: Sequence[Chain]) -> List[str]:
    hashes = [chain_content_hash(c) for c in chains]
    if len(set(hashes)) != len(hashes):
        raise MatStoreError("dataset contains chains with identical content")
    return hashes


def _compute_rows(
    dataset: Dataset,
    store: MatrixStore,
    pairs: Sequence[Tuple[int, int]],
    method: TMAlignFullMethod,
    config,
    backend,
    digest: str,
    notes: List[str],
) -> Tuple[Dict[Tuple[int, int], Dict[str, float]], int, int]:
    """Journal-first evaluation of ``pairs``: rows already journaled *for
    the same chain content* are reused, the rest go through the farm.
    Returns ``(rows, n_computed, n_journaled)``.

    ``digest`` is the :func:`_context_digest` of the working dataset.  An
    uncommitted journal tail recorded under a different digest (an
    interrupted build/extend of *other* chains at these indices) is
    discarded and recomputed rather than grafted onto this content.
    """
    from repro.parallel import iter_pair_results

    state = store.load_journal()
    n_committed = store.n_chains
    if any(j >= n_committed for _i, j in state.rows):
        recorded = store.read_journal_context()
        if recorded != digest:
            dropped = store.discard_uncommitted_journal(state)
            state = store.load_journal()
            notes.append(
                f"discarded {dropped} uncommitted journal rows recorded "
                "for different chain content"
            )
    store.write_journal_context(digest)
    rows: Dict[Tuple[int, int], Dict[str, float]] = {}
    todo: List[Tuple[int, int]] = []
    for i, j in pairs:
        if (i, j) in state.rows:
            rows[(i, j)] = state.scores((i, j))
        else:
            todo.append((i, j))
    with store.journal() as journal:
        for i, j, scores, _counts in iter_pair_results(
            dataset, todo, method, config=config, backend=backend
        ):
            journal.append(i, j, scores)
            rows[(i, j)] = dict(scores)
    return rows, len(todo), len(pairs) - len(todo)


def _tail_blocks(
    rows: Dict[Tuple[int, int], Dict[str, float]],
    pairs: Sequence[Tuple[int, int]],
) -> Dict[str, np.ndarray]:
    """Condensed-order float32 tail arrays for one commit."""
    tail = {m: np.empty(len(pairs), dtype="<f4") for m in METRICS}
    for k, (i, j) in enumerate(pairs):
        scores = rows[(i, j)]
        for m in METRICS:
            tail[m][k] = np.float32(scores[m])
    return tail


def build_store(
    dataset: Dataset,
    root: str,
    config=None,
    backend=None,
) -> BuildResult:
    """Build (or resume building) the all-vs-all store for ``dataset``.

    A store whose header already covers the dataset is a no-op; a store
    left with an empty header but a partial journal (a crashed build)
    resumes, recomputing zero journaled pairs.  A store built from
    *different* content refuses — extend it instead.
    """
    t0 = time.perf_counter()
    hashes = _content_hashes(dataset.chains)
    names = [c.name for c in dataset.chains]
    try:
        store = MatrixStore.open(root)
    except MatStoreError:
        method, fingerprint = store_method()
        store = MatrixStore.create(
            root, method.name, fingerprint, dataset=dataset.name
        )
    method, _ = store_method(store)
    if store.n_chains:
        if store.hashes == hashes:
            return BuildResult(
                store,
                n_pairs=store.n_pairs,
                n_computed=0,
                n_journaled=store.n_pairs,
                wall_seconds=time.perf_counter() - t0,
                notes=["store already covers this dataset"],
            )
        raise MatStoreError(
            f"store at {root} holds {store.n_chains} chains of different "
            "content; extend it chain by chain or build into a fresh root"
        )
    pairs = list(condensed_pairs(len(dataset)))
    notes: List[str] = []
    rows, n_computed, n_journaled = _compute_rows(
        dataset, store, pairs, method, config, backend,
        _context_digest(hashes), notes,
    )
    store.commit_rows(names, hashes, _tail_blocks(rows, pairs))
    return BuildResult(
        store,
        n_pairs=len(pairs),
        n_computed=n_computed,
        n_journaled=n_journaled,
        wall_seconds=time.perf_counter() - t0,
        notes=notes,
    )


def extend_store(
    store: MatrixStore,
    corpus: Sequence[Chain],
    new_chain: Chain,
    config=None,
    backend=None,
) -> BuildResult:
    """Register one new chain: compute, journal and append exactly ``n``
    new pairs (``n`` = chains already stored), never touching the rest.

    ``corpus`` must be the already-stored chains — validated content
    hash by content hash, in store order, so an extend can never graft a
    row computed against the wrong structures.  A chain whose content is
    already stored is a no-op.  Interrupted extends resume from the
    journal.
    """
    t0 = time.perf_counter()
    method, _ = store_method(store)
    have = _content_hashes(corpus)
    if have != store.hashes:
        raise MatStoreError(
            f"supplied corpus ({len(corpus)} chains) does not match the "
            f"stored chains ({store.n_chains}) content-hash for content-hash"
        )
    new_hash = chain_content_hash(new_chain)
    if new_hash in store:
        return BuildResult(
            store,
            n_pairs=0,
            n_computed=0,
            n_journaled=0,
            wall_seconds=time.perf_counter() - t0,
            notes=[f"chain content {new_hash[:12]}... already stored"],
        )
    n = store.n_chains
    extended = Dataset(
        store.dataset or "matstore-extend",
        (*corpus, new_chain),
        "matrix-store extend working set",
    )
    pairs = [(i, n) for i in range(n)]
    notes: List[str] = []
    rows, n_computed, n_journaled = _compute_rows(
        extended, store, pairs, method, config, backend,
        _context_digest([*have, new_hash]), notes,
    )
    store.commit_rows([new_chain.name], [new_hash], _tail_blocks(rows, pairs))
    return BuildResult(
        store,
        n_pairs=len(pairs),
        n_computed=n_computed,
        n_journaled=n_journaled,
        wall_seconds=time.perf_counter() - t0,
        notes=notes,
    )


def ensure_coverage(
    root: str,
    dataset: Dataset,
    config=None,
    backend=None,
) -> BuildResult:
    """Make the store at ``root`` cover every pair of ``dataset``.

    Missing store → full build; store holding a *prefix* of the dataset
    (the incremental-update scenario: same corpus, new chains appended)
    → one :func:`extend_store` per new chain, ``n`` pairs each; store
    already covering the dataset → no-op.  Any other divergence refuses
    rather than silently mixing content.
    """
    t0 = time.perf_counter()
    hashes = _content_hashes(dataset.chains)
    try:
        store = MatrixStore.open(root)
    except MatStoreError:
        store = None
    if store is None or store.n_chains == 0 or store.hashes == hashes:
        return build_store(dataset, root, config=config, backend=backend)
    k = store.n_chains
    if k > len(dataset) or store.hashes != hashes[:k]:
        raise MatStoreError(
            f"store at {root} ({k} chains) is not a prefix of dataset "
            f"{dataset.name!r} ({len(dataset)} chains); build a fresh root"
        )
    total = BuildResult(store, n_pairs=0, n_computed=0, n_journaled=0)
    for idx in range(k, len(dataset)):
        r = extend_store(
            store, dataset.chains[:idx], dataset[idx],
            config=config, backend=backend,
        )
        total.n_pairs += r.n_pairs
        total.n_computed += r.n_computed
        total.n_journaled += r.n_journaled
        total.notes.extend(r.notes)
    total.wall_seconds = time.perf_counter() - t0
    return total


def export_csv(store: MatrixStore, path: str) -> int:
    """Write the committed matrix as CSV, atomically; returns row count.

    Values come from the journal — the exact ``format(value, "")``
    strings a direct ``matrix`` run would stream — so an export is
    byte-comparable with kernel output, not a float32 round-trip.
    """
    import csv
    import os

    state = store.load_journal()
    names = store.names
    tmp = f"{path}.tmp.{os.getpid()}"
    n = 0
    try:
        with open(tmp, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["chain_a", "chain_b", *METRICS])
            for i, j in condensed_pairs(store.n_chains):
                row = state.rows.get((i, j))
                if row is None:
                    raise MatStoreError(
                        f"pair ({i}, {j}) committed but not journaled; "
                        "run `matstore verify`"
                    )
                writer.writerow([names[i], names[j], *row])
                n += 1
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - error cleanup
            os.unlink(tmp)
    return n
