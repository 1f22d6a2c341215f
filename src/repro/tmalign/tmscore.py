"""TM-score machinery: scoring and the iterative superposition search.

The superposition search is TM-align's core optimisation: given a set of
matched residue pairs, find the rigid transform maximising the TM-score.
Following the original, the search seeds Kabsch superpositions from
contiguous fragments of the correspondence (full length, L/2, L/4, ...),
then iteratively re-superposes on the subset of pairs closer than a
distance cutoff until the subset is stable, keeping the best-scoring
transform seen anywhere (the first strictly best, in seed order).

When the compiled kernel loads, ``superposition_search`` runs the whole
search as one C call (``tm_search`` in :mod:`repro.tmalign._dpnative`).
``tm_score_matrix`` has no native call of its own: it is the reference
of the score matrices ``tm_align_pair`` builds in C.  The NumPy search
below is the reference and fallback of ``tm_search``.  It runs the search
*in lockstep across seeds*: all fragment seeds of a given length are
superposed with one batched Kabsch over strided windows, every candidate
transform is scored with one ``(k, n, 3)`` batched matmul per iteration,
and the pair reselection proceeds for all still-active seeds at once,
retiring each seed when its selection stabilises.  Per-seed selection
sequences, op counts and the best-score update order are exactly those
of a one-seed-at-a-time loop, so both paths return repr-exact identical
scores and transforms.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.geometry.distances import cross_distances
from repro.geometry.kabsch import _kabsch_batch_core
from repro.geometry.transforms import RigidTransform
from repro.tmalign._dpnative import load_tm_kernels
from repro.tmalign.params import TMAlignParams

__all__ = ["tm_score_from_distances", "tm_score_matrix", "superposition_search"]

# Compiled search (bit-identical to the NumPy code below); None when the
# kernel is unavailable or failed its load-time self-check.
_KERNELS = load_tm_kernels()
_NATIVE_SEARCH = getattr(_KERNELS, "search", None)


def tm_score_from_distances(
    d: np.ndarray, d0: float, lnorm: int, counter=None
) -> float:
    """TM-score of matched pairs at distances ``d``: Σ 1/(1+(d/d0)²) / Lnorm."""
    d = np.asarray(d, dtype=np.float64)
    if lnorm < 1:
        raise ValueError("lnorm must be >= 1")
    if d0 <= 0:
        raise ValueError("d0 must be positive")
    if counter is not None:
        counter.add("score_pair", d.size)
    return float((1.0 / (1.0 + (d / d0) ** 2)).sum() / lnorm)


def tm_score_matrix(
    xa: np.ndarray, ya: np.ndarray, xf: RigidTransform, d0: float
) -> np.ndarray:
    """``(la, lb)`` TM-score terms ``1 / (1 + (d / d0)^2)`` of every pair.

    ``d`` is the distance between residue i of ``xa`` moved by ``xf``
    and residue j of ``ya`` — the score matrix of the refinement DP and
    the distance term of the combined initial alignment.
    """
    d = cross_distances(xf.apply(xa), ya)
    # in place over d: the float expression 1 / (1 + (d/d0)^2)
    np.divide(d, d0, out=d)
    np.multiply(d, d, out=d)
    np.add(d, 1.0, out=d)
    np.divide(1.0, d, out=d)
    return d


def _moved_tm_scores_batch(
    pa_stack: np.ndarray,
    pb_stack: np.ndarray,
    rots: np.ndarray,
    tras: np.ndarray,
    d0: float,
    lnorm: int,
    work: np.ndarray,
    dist: np.ndarray,
    sbuf: np.ndarray,
    counter=None,
) -> np.ndarray:
    """TM-scores of ``k`` transforms of ``pa_stack`` against ``pb_stack``.

    ``pa_stack``/``pb_stack`` broadcast against the ``(k, 3, 3)``
    rotation stack (pass ``pa[None]`` to score one coordinate set under
    every transform).  Every intermediate lands in the caller's
    ``work``/``dist``/``sbuf`` buffers.  Each slice is bit-identical to
    scoring that transform alone: the stacked matmul runs the same
    per-slice BLAS kernel, and all remaining stages are elementwise or
    reduce over the same axes.  ``dist`` is left holding the per-slice
    pair distances.
    """
    np.matmul(pa_stack, rots.transpose(0, 2, 1), out=work)
    work += tras[:, None, :]
    np.subtract(work, pb_stack, out=work)
    np.multiply(work, work, out=work)
    np.add.reduce(work, axis=2, out=dist)
    np.sqrt(dist, out=dist)
    if counter is not None:
        counter.add("score_pair", dist.size)
    np.divide(dist, d0, out=sbuf)
    np.multiply(sbuf, sbuf, out=sbuf)
    np.add(sbuf, 1.0, out=sbuf)
    np.divide(1.0, sbuf, out=sbuf)
    # same reduction ndarray.sum(axis=1) dispatches to, sans the dispatch
    return np.add.reduce(sbuf, axis=1) / lnorm


def _seed_schedule(
    n: int, fractions: Sequence[int], params: TMAlignParams
) -> list[tuple[int, int]]:
    """Ordered, deduplicated ``(start, flen)`` fragment seeds.

    Enumeration order (fractions outer, window starts inner, first
    occurrence wins) fixes the best-score update order of the search.
    """
    seeds: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for frac in fractions:
        flen = max(n // frac, params.min_seed_len)
        flen = min(flen, n)
        step = max(flen // 2, 1)
        for start in range(0, n - flen + 1, step):
            if (start, flen) in seen:
                continue
            seen.add((start, flen))
            seeds.append((start, flen))
    return seeds


def _check_search_args(
    pa: np.ndarray, pb: np.ndarray, d0: float, d0_search: Optional[float]
) -> tuple[np.ndarray, np.ndarray, int, float]:
    pa = np.asarray(pa, dtype=np.float64)
    pb = np.asarray(pb, dtype=np.float64)
    if pa.shape != pb.shape or pa.ndim != 2 or pa.shape[1] != 3:
        raise ValueError(f"matched coordinate sets required, got {pa.shape}/{pb.shape}")
    n = pa.shape[0]
    if n < 3:
        raise ValueError("need at least 3 matched pairs")
    if d0_search is None:
        d0_search = min(8.0, max(4.5, d0))
    return pa, pb, n, d0_search


def superposition_search(
    pa: np.ndarray,
    pb: np.ndarray,
    d0: float,
    lnorm: int,
    params: Optional[TMAlignParams] = None,
    d0_search: Optional[float] = None,
    seed_fractions: Optional[Sequence[int]] = None,
    counter=None,
) -> tuple[float, RigidTransform]:
    """Maximise the TM-score over rigid motions of ``pa`` onto ``pb``.

    ``pa``/``pb`` are the coordinates of *matched* residue pairs (same
    length N ≥ 3).  Returns ``(best_tm, best_transform)`` with the score
    normalised by ``lnorm`` using scale ``d0``.

    ``d0_search`` is the initial pair-selection cutoff (defaults to the
    clipped d0 per TM-align); ``seed_fractions`` overrides the fragment
    seeding schedule (the refinement loop uses a cheaper schedule than
    the final scoring pass).

    The compiled search and the NumPy lockstep path return identical
    results (score, transform, charged op counts).
    """
    params = params or TMAlignParams()
    pa, pb, n, d0_search = _check_search_args(pa, pb, d0, d0_search)
    fractions = seed_fractions or params.n_seed_fractions
    if _NATIVE_SEARCH is not None:
        tm, rot, tra = _NATIVE_SEARCH(
            pa, pb, fractions, params.min_seed_len, d0, lnorm, d0_search,
            params.max_score_iters, counter=counter,
        )
    else:
        tm, rot, tra = _search_lockstep(
            pa, pb, _seed_schedule(n, fractions, params), d0, lnorm, d0_search,
            params.max_score_iters, counter=counter,
        )
    return tm, RigidTransform.from_trusted(rot, tra)


def _search_lockstep(
    pa: np.ndarray,
    pb: np.ndarray,
    seeds: list[tuple[int, int]],
    d0: float,
    lnorm: int,
    d0_search: float,
    max_iters: int,
    counter=None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """NumPy reference of the compiled ``tm_search``, same signature.

    Returns ``(best_tm, rotation, translation)`` over the ``(start,
    length)`` seeds, all of them iterating in lockstep.
    """
    k = len(seeds)
    n = pa.shape[0]

    # --- phase 1: one batched Kabsch per fragment length -------------------
    # Windows of equal length stack into a contiguous (g, flen, 3) gather;
    # each slice has the memory layout of a plain window view, so the
    # batched Kabsch reproduces one-window Kabsch bit-for-bit.
    rots = np.empty((k, 3, 3))
    tras = np.empty((k, 3))
    by_flen: dict[int, list[int]] = {}
    for i, (_, flen) in enumerate(seeds):
        by_flen.setdefault(flen, []).append(i)
    for flen, idxs in by_flen.items():
        starts = np.asarray([seeds[i][0] for i in idxs], dtype=np.intp)
        rows = starts[:, None] + np.arange(flen, dtype=np.intp)
        rots[idxs], tras[idxs] = _kabsch_batch_core(
            pa[rows], pb[rows], counter=counter
        )

    # --- phase 2: lockstep score / reselect iterations ----------------------
    # Per-iteration records keep every (tm, transform) candidate so phase 3
    # can replay the seed-by-seed best-update order; arrays are fresh per
    # iteration, so rows are stored as views, never copied.
    work = np.empty((k, n, 3))
    dist = np.empty((k, n))
    sbuf = np.empty((k, n))
    ids = list(range(k))
    pa_b = pa[None]
    prev_sel = np.empty((0, n), dtype=bool)
    has_prev = False
    records: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    seed_rows: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for _ in range(max_iters):
        ka = len(ids)
        tms = _moved_tm_scores_batch(
            pa_b, pb, rots, tras, d0, lnorm,
            work[:ka], dist[:ka], sbuf[:ka], counter=counter,
        )
        rec = len(records)
        records.append((tms, rots, tras))
        for row, oid in enumerate(ids):
            seed_rows[oid].append((rec, row))
        # pair selection with cutoff escalation: every seed
        # restarts from d0_search and widens by 0.5 until >= 3 pairs or 8 Å
        sel = dist[:ka] < d0_search
        counts = np.add.reduce(sel, axis=1)
        if (counts < 3).any():
            cut = np.full(ka, d0_search)
            while True:
                lag = (counts < 3) & (cut < 8.0)
                if not lag.any():
                    break
                cut[lag] += 0.5
                sel[lag] = dist[:ka][lag] < cut[lag, None]
                counts[lag] = sel[lag].sum(axis=1)
        hopeless = counts < 3  # nothing close even at 8 Å
        if has_prev:
            converged = (sel == prev_sel).all(axis=1)
            drop = hopeless | converged
        else:
            drop = hopeless
        if drop.any():
            keep = ~drop
            if not keep.any():
                break
            ids = [oid for oid, k_ in zip(ids, keep.tolist()) if k_]
            sel = sel[keep]
            counts = counts[keep]
        # reselection Kabsch, batched per selection size across all
        # still-active seeds (equal-length stacks are bit-identical per slice)
        groups: dict[int, list[int]] = {}
        for row, m in enumerate(counts.tolist()):
            groups.setdefault(m, []).append(row)
        rots = np.empty((len(ids), 3, 3))
        tras = np.empty((len(ids), 3))
        for m, rows in groups.items():
            cols = np.nonzero(sel[rows])[1].reshape(len(rows), m)
            rots[rows], tras[rows] = _kabsch_batch_core(
                pa[cols], pb[cols], counter=counter
            )
        prev_sel = sel
        has_prev = True

    # --- phase 3: replay the seed-by-seed best-update order ---------------
    best_tm = -1.0
    best_pos: Optional[tuple[int, int]] = None
    for oid in range(k):
        for rec, row in seed_rows[oid]:
            tm = float(records[rec][0][row])
            if tm > best_tm:
                best_tm = tm
                best_pos = (rec, row)
    if best_pos is None:
        ident = RigidTransform.identity()
        return -1.0, ident.rotation, ident.translation
    rec, row = best_pos
    return best_tm, records[rec][1][row], records[rec][2][row]
