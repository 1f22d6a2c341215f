"""Durable mmap-able all-vs-all similarity-matrix store.

Layout under the store root::

    <root>/header.json         # identity + committed extent (atomic rewrite)
    <root>/journal.csv         # CRC-checksummed per-pair rows (runs idiom)
    <root>/journal.ctx         # content digest the journal tail belongs to
    <root>/blocks/<metric>.f32 # little-endian float32, one value per pair

Pairs live in the *condensed* triangular order ``offset(i, j) = j*(j-1)/2
+ i`` for ``i < j``: registering chain ``n`` appends exactly ``n`` values
at the tail of every block, so an incremental database update never
rewrites (or recomputes) the existing matrix.

Durability follows :mod:`repro.runs`: every computed pair is journaled
(flushed + fsynced, CRC per row) *before* the blocks are touched, block
tails are fsynced before the header is atomically replaced, and a reader
that opened the previous header never indexes past its own committed
extent — so writers can extend the store underneath live readers.  A
crash between journal and header leaves a store that simply re-commits
the journaled tail on the next build/extend; the journal is the source
of truth, the blocks a derived mmap view.

Values are stored as ``float32`` (the proteinshake matrix convention);
the journal keeps the full ``format(value, "")`` float64 strings, so a
verifier can check every mmap word against the exact journaled score.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.runs.manifest import atomic_write_text
from repro.runs.store import (
    JournalCorrupt,
    JournalState,
    RunJournal,
    read_journal,
    rewrite_journal,
)

__all__ = [
    "METRICS",
    "MatStoreError",
    "MatrixStore",
    "StoreHit",
    "pair_offset",
    "triangle_size",
]

#: store schema version, bumped on incompatible layout changes
STORE_VERSION = 1

#: per-pair metrics carried by every block set — exactly the (sorted)
#: score keys of ``tmalign_full``, so journal rows and compare() outputs
#: line up without remapping
METRICS = (
    "gdt_ts",
    "lddt",
    "n_aligned",
    "rmsd",
    "seq_identity",
    "tm_norm_a",
    "tm_norm_b",
)

#: methods a store hit can serve, mapped to the score keys they return.
#: ``tmalign`` is the strict subset ``tmalign_full`` computes with the
#: same kernel and parameters, so the one stored matrix answers both.
SERVABLE_KEYS = {
    "tmalign_full": METRICS,
    "tmalign": ("n_aligned", "rmsd", "seq_identity", "tm_norm_a", "tm_norm_b"),
}

_HEADER_NAME = "header.json"
_JOURNAL_NAME = "journal.csv"
_CONTEXT_NAME = "journal.ctx"
_BLOCKS_DIR = "blocks"


class MatStoreError(RuntimeError):
    """A matrix store is missing, malformed, or incompatible."""


def pair_offset(i: int, j: int) -> int:
    """Condensed offset of unordered pair ``(i, j)`` with ``i < j``."""
    if not 0 <= i < j:
        raise ValueError(f"need 0 <= i < j, got ({i}, {j})")
    return j * (j - 1) // 2 + i


def triangle_size(n_chains: int) -> int:
    """Number of unordered pairs over ``n_chains`` chains."""
    return n_chains * (n_chains - 1) // 2


def condensed_pairs(n_chains: int) -> Iterator[Tuple[int, int]]:
    """All unordered pairs in block (offset) order: ``j`` outer, ``i`` inner."""
    for j in range(n_chains):
        for i in range(j):
            yield i, j


class StoreHit:
    """One successful pair lookup.

    ``scores`` is in the store's *canonical* orientation — chain A is the
    one registered first (smaller store index); ``swapped`` is True when
    the caller asked for the reverse orientation.  TM-align is
    direction-dependent, so direction-sensitive callers (the service
    ``align`` op) only serve un-swapped hits.
    """

    __slots__ = ("scores", "swapped", "offset")

    def __init__(self, scores: Dict[str, float], swapped: bool, offset: int) -> None:
        self.scores = scores
        self.swapped = swapped
        self.offset = offset


class MatrixStore:
    """One on-disk all-vs-all matrix, mmap-served.

    Read paths (:meth:`lookup`, :meth:`values`) go through per-metric
    ``np.memmap`` views sized by the committed header extent; the write
    path (:meth:`commit_rows`) is only ever driven by
    :mod:`repro.matstore.build`.
    """

    def __init__(self, root: str, header: Dict[str, object]) -> None:
        self.root = os.fspath(root)
        self._header = header
        self._index: Dict[str, int] = {
            h: k for k, h in enumerate(self.hashes)
        }
        self._maps: Dict[str, np.memmap] = {}

    # -- creation / opening ------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str | os.PathLike,
        method: str,
        params_hash: str,
        dataset: str = "",
    ) -> "MatrixStore":
        """Initialise an empty store (0 chains) under ``root``."""
        root = os.fspath(root)
        if os.path.exists(os.path.join(root, _HEADER_NAME)):
            raise MatStoreError(f"store already exists at {root}")
        os.makedirs(os.path.join(root, _BLOCKS_DIR), exist_ok=True)
        import time

        header = {
            "version": STORE_VERSION,
            "metrics": list(METRICS),
            "method": method,
            "params_hash": params_hash,
            "dataset": dataset,
            "names": [],
            "hashes": [],
            "n_chains": 0,
            "n_pairs": 0,
            "created_at": time.time(),
        }
        store = cls(root, header)
        store._write_header()
        return store

    @classmethod
    def open(cls, root: str | os.PathLike) -> "MatrixStore":
        """Open an existing store; raises :class:`MatStoreError` if absent
        or structurally inconsistent."""
        root = os.fspath(root)
        path = os.path.join(root, _HEADER_NAME)
        if not os.path.exists(path):
            raise MatStoreError(f"no matrix store at {root} (missing {_HEADER_NAME})")
        with open(path, encoding="ascii") as fh:
            try:
                header = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MatStoreError(f"store header {path} is not JSON: {exc}") from None
        version = header.get("version")
        if version != STORE_VERSION:
            raise MatStoreError(
                f"store version {version} not supported (expected {STORE_VERSION})"
            )
        if tuple(header.get("metrics", ())) != METRICS:
            raise MatStoreError(
                f"store at {root} carries metrics {header.get('metrics')}, "
                f"this build expects {list(METRICS)}"
            )
        store = cls(root, header)
        n = header.get("n_chains")
        if n != len(store.names) or n != len(store.hashes):
            raise MatStoreError(f"store header at {root} is inconsistent: n_chains")
        if header.get("n_pairs") != triangle_size(n):
            raise MatStoreError(f"store header at {root} is inconsistent: n_pairs")
        for metric in METRICS:
            want = store.n_pairs * 4
            have = store._block_size(metric)
            if have < want:
                raise MatStoreError(
                    f"block {metric}.f32 holds {have} bytes, header commits "
                    f"{want} — store at {root} is damaged"
                )
        return store

    # -- identity ----------------------------------------------------------
    @property
    def method(self) -> str:
        return str(self._header["method"])

    @property
    def params_hash(self) -> str:
        return str(self._header["params_hash"])

    @property
    def dataset(self) -> str:
        return str(self._header.get("dataset", ""))

    @property
    def names(self) -> List[str]:
        return list(self._header["names"])

    @property
    def hashes(self) -> List[str]:
        return list(self._header["hashes"])

    @property
    def n_chains(self) -> int:
        return int(self._header["n_chains"])

    @property
    def n_pairs(self) -> int:
        return int(self._header["n_pairs"])

    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, _JOURNAL_NAME)

    def block_path(self, metric: str) -> str:
        return os.path.join(self.root, _BLOCKS_DIR, f"{metric}.f32")

    def _block_size(self, metric: str) -> int:
        try:
            return os.path.getsize(self.block_path(metric))
        except OSError:
            return 0

    def __contains__(self, chain_hash: str) -> bool:
        return chain_hash in self._index

    # -- mmap read path ----------------------------------------------------
    def _map(self, metric: str) -> np.memmap:
        m = self._maps.get(metric)
        if m is None:
            if metric not in METRICS:
                raise MatStoreError(f"unknown metric {metric!r}")
            m = np.memmap(
                self.block_path(metric),
                dtype="<f4",
                mode="r",
                shape=(self.n_pairs,),
            )
            self._maps[metric] = m
        return m

    def values(self, metric: str) -> np.ndarray:
        """The committed condensed block of one metric (read-only mmap)."""
        if self.n_pairs == 0:
            return np.empty(0, dtype="<f4")
        return self._map(metric)

    def lookup(self, hash_a: str, hash_b: str) -> Optional[StoreHit]:
        """Scores for an unordered pair of content hashes.

        Returns ``None`` (a miss) when either hash is unregistered, the
        hashes are equal, or the slot holds a NaN hole (a pair a
        prefiltered build skipped).  ``hit.swapped`` says the request
        named the chains in the reverse of the stored orientation.
        """
        ka = self._index.get(hash_a)
        kb = self._index.get(hash_b)
        if ka is None or kb is None or ka == kb:
            return None
        swapped = ka > kb
        i, j = (kb, ka) if swapped else (ka, kb)
        off = pair_offset(i, j)
        scores: Dict[str, float] = {}
        for metric in METRICS:
            v = float(self._map(metric)[off])
            if v != v:  # NaN hole: pair was never computed
                return None
            scores[metric] = v
        return StoreHit(scores, swapped, off)

    def close(self) -> None:
        """Drop mmap views (the OS unmaps when the arrays are collected)."""
        self._maps.clear()

    # -- write path (used by repro.matstore.build) -------------------------
    def journal(self) -> RunJournal:
        """Open the append-only journal (CRC rows, keys fixed to METRICS)."""
        return RunJournal(self.journal_path, keys=METRICS)

    def load_journal(self) -> JournalState:
        """All intact journal rows; raises :class:`JournalCorrupt` on
        mid-file damage (shared semantics with :mod:`repro.runs`)."""
        state = read_journal(self.journal_path)
        if state.keys is not None and state.keys != METRICS:
            raise MatStoreError(
                f"store journal carries keys {list(state.keys)}, "
                f"expected {list(METRICS)}"
            )
        return state

    @property
    def journal_context_path(self) -> str:
        return os.path.join(self.root, _CONTEXT_NAME)

    def read_journal_context(self) -> Optional[str]:
        """Content digest the uncommitted journal tail was computed for,
        or None when no writer ever recorded one."""
        try:
            with open(self.journal_context_path, encoding="ascii") as fh:
                return fh.read().strip() or None
        except OSError:
            return None

    def write_journal_context(self, digest: str) -> None:
        """Record (atomically, before any row is appended) which chain
        content the journal rows about to be written belong to.

        Journal rows are keyed only by pair indices; this sidecar is what
        lets a resume prove the uncommitted tail was computed for the
        *same* chains rather than silently grafting scores of different
        structures onto the store (see :meth:`discard_uncommitted_journal`).
        """
        atomic_write_text(self.journal_context_path, digest + "\n")

    def discard_uncommitted_journal(self, state: JournalState) -> int:
        """Drop journal rows past the committed extent, keeping committed
        rows byte-identical; returns the number of rows discarded.

        Called when the recorded journal context does not match the
        content a resume is computing — the tail belongs to a different
        (interrupted) build/extend and must be recomputed, never reused.
        """
        n = self.n_chains
        keep = {p: v for p, v in state.rows.items() if p[1] < n}
        dropped = len(state.rows) - len(keep)
        if dropped:
            rewrite_journal(self.journal_path, METRICS, keep)
        return dropped

    def commit_rows(
        self,
        new_names: Sequence[str],
        new_hashes: Sequence[str],
        tail: Dict[str, np.ndarray],
    ) -> None:
        """Append ``tail`` values at every block tail and publish a header
        covering the new chains — the one commit primitive.

        ``tail[metric]`` must hold the condensed-order values of every
        pair involving a new chain (``triangle_size(n_old + k) -
        n_pairs_old`` of them).  Blocks are truncated back to the
        committed extent first, so a tail a crashed commit half-wrote is
        discarded rather than shifted; the header replace is atomic and
        last, so readers only ever index fully fsynced bytes.
        """
        if len(new_names) != len(new_hashes):
            raise MatStoreError("new_names and new_hashes must align")
        n_old = self.n_chains
        n_new = n_old + len(new_names)
        want = triangle_size(n_new) - self.n_pairs
        dup = set(new_hashes) & set(self._index)
        if dup:
            raise MatStoreError(f"hashes already stored: {sorted(dup)[:3]}")
        if len(set(new_hashes)) != len(new_hashes):
            raise MatStoreError("duplicate hashes in one commit")
        for metric in METRICS:
            values = tail.get(metric)
            if values is None or len(values) != want:
                raise MatStoreError(
                    f"commit needs {want} {metric} values, got "
                    f"{'none' if values is None else len(values)}"
                )
        committed = self.n_pairs * 4
        for metric in METRICS:
            values = np.asarray(tail[metric], dtype="<f4")
            path = self.block_path(metric)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if not os.path.exists(path):
                with open(path, "wb"):
                    pass
            with open(path, "r+b") as fh:
                fh.truncate(committed)  # discard a crashed commit's tail
                fh.seek(committed)
                fh.write(values.tobytes())
                fh.flush()
                os.fsync(fh.fileno())
        self._header = dict(self._header)
        self._header["names"] = [*self.names, *new_names]
        self._header["hashes"] = [*self.hashes, *new_hashes]
        self._header["n_chains"] = n_new
        self._header["n_pairs"] = triangle_size(n_new)
        self._write_header()
        for k, h in enumerate(self._header["hashes"]):
            self._index[h] = k
        self._maps.clear()  # committed extent grew; remap lazily

    def _write_header(self) -> None:
        atomic_write_text(
            os.path.join(self.root, _HEADER_NAME),
            json.dumps(self._header, indent=1, sort_keys=True) + "\n",
        )

    # -- introspection -----------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Size and coverage summary (service ``status``/``metrics``)."""
        block_bytes = sum(self._block_size(m) for m in METRICS)
        journal_bytes = 0
        try:
            journal_bytes = os.path.getsize(self.journal_path)
        except OSError:
            pass
        holes = 0
        if self.n_pairs:
            holes = int(np.isnan(np.asarray(self.values(METRICS[0]))).sum())
        return {
            "n_chains": self.n_chains,
            "n_pairs": self.n_pairs,
            "pairs_stored": self.n_pairs - holes,
            "holes": holes,
            "block_bytes": block_bytes,
            "journal_bytes": journal_bytes,
            "method": self.method,
            "dataset": self.dataset,
        }

    def verify(self) -> Dict[str, int]:
        """Cross-check journal, blocks and header; returns check counts.

        Raises :class:`JournalCorrupt` on mid-file journal damage (same
        one-line typed error the runs CLI surfaces) and
        :class:`MatStoreError` on any block/header mismatch.
        """
        state = self.load_journal()
        checked = 0
        holes = 0
        for i, j in condensed_pairs(self.n_chains):
            off = pair_offset(i, j)
            row = state.rows.get((i, j))
            if row is None:
                raise MatStoreError(
                    f"pair ({i}, {j}) is committed in the header but has no "
                    "journal row"
                )
            scores = dict(zip(state.keys, (float(v) for v in row)))
            for metric in METRICS:
                stored = self._map(metric)[off]
                want = np.float32(scores[metric])
                same = stored == want or (stored != stored and want != want)
                if not same:
                    raise MatStoreError(
                        f"block {metric}.f32 offset {off} holds {stored!r}, "
                        f"journal says {want!r} — store is damaged"
                    )
            if scores[METRICS[0]] != scores[METRICS[0]]:
                holes += 1
            checked += 1
        extra = len(state.rows) - checked
        return {
            "pairs_checked": checked,
            "holes": holes,
            "uncommitted_journal_rows": extra,
            "dropped_journal_lines": state.dropped,
        }
