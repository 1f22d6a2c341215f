"""Initial alignment generators (TM-align step 2).

Three kinds, as described in the paper's §II: dynamic-programming
secondary-structure alignment, gapless structure matching (threading),
and a DP over a score matrix combining the previous two.  A fragment
threading variant (half-length windows) is included as in the original's
additional inits.

The threading generators rank candidate windows by the TM-score of one
Kabsch superposition (the "GL score") and keep the best few.  Windows
of equal length are stacked and solved with one batched Kabsch and one
batched scoring pass, and every slice is bit-identical to scoring that
window alone.  This is the reference of the compiled kernel's scans
inside ``tm_align_pair`` (:mod:`repro.tmalign._dpnative`), which screen
every window and score exactly only the ones that can still rank.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.kabsch import _kabsch_batch_core
from repro.tmalign.dp import nw_align
from repro.tmalign.params import TMAlignParams
from repro.tmalign.result import Alignment
from repro.tmalign.tmscore import _moved_tm_scores_batch, tm_score_matrix

__all__ = [
    "gapless_threading",
    "ss_alignment",
    "combined_alignment",
    "fragment_threading",
]

# Cap on the element count of one stacked (g, m, 3) threading batch; larger
# groups are processed in row chunks so very long chains cannot balloon the
# working set.  Chunking never changes per-slice results.
_BATCH_ELEMS = 1 << 21


def _ss_codes(ss: str) -> np.ndarray:
    return np.frombuffer(ss.encode("ascii"), dtype=np.uint8)


def _gapless_alignment(shift: int, la: int, lb: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs for correspondence j = i - shift, clipped to bounds."""
    i0 = max(0, shift)
    i1 = min(la, lb + shift)
    ai = np.arange(i0, i1, dtype=np.intp)
    return ai, ai - shift


def _windows_numpy(
    mobile: np.ndarray,
    target: np.ndarray,
    starts_m: np.ndarray,
    starts_t: np.ndarray,
    lens: np.ndarray,
    d0: float,
    lnorm: int,
    counter=None,
) -> np.ndarray:
    """GL score of each window ``mobile[sm:sm+m]`` onto ``target[st:st+m]``.

    Scores come in input order.  Windows of equal length stack into ``(g, m, 3)`` gathers — in row chunks
    bounding the element count — for one batched Kabsch and one batched
    scoring pass; every slice is bit-identical to scoring that window
    alone.
    """
    tms = np.empty(lens.shape[0])
    for m in np.unique(lens).tolist():
        span = np.arange(m, dtype=np.intp)
        rows = np.flatnonzero(lens == m)
        step = max(1, _BATCH_ELEMS // (m * 3))
        for lo in range(0, rows.shape[0], step):
            r = rows[lo : lo + step]
            sa = mobile[starts_m[r, None] + span]
            sb = target[starts_t[r, None] + span]
            rots, tras = _kabsch_batch_core(sa, sb, counter=counter)
            g = r.shape[0]
            tms[r] = _moved_tm_scores_batch(
                sa, sb, rots, tras, d0, lnorm,
                np.empty((g, m, 3)), np.empty((g, m)), np.empty((g, m)),
                counter=counter,
            )
    return tms


def gapless_threading(
    xa: np.ndarray,
    ya: np.ndarray,
    d0: float,
    lnorm: int,
    params: Optional[TMAlignParams] = None,
    n_best: int = 2,
    min_overlap: int = 5,
    counter=None,
) -> list[Alignment]:
    """Slide chain A against chain B without gaps; keep the best shifts.

    Each shift is scored by one Kabsch superposition of the corresponded
    residues followed by a TM-score evaluation (the "GL score" of the
    original, without its extra refinement iterations).  Shifts rank by
    score, ties by shift.
    """
    params = params or TMAlignParams()
    la, lb = xa.shape[0], ya.shape[0]
    min_overlap = min(min_overlap, la, lb)
    stride = max(1, params.threading_stride)
    # every shift in this range overlaps by at least min_overlap residues
    shifts = np.arange(-(lb - min_overlap), la - min_overlap + 1, stride)
    starts = np.maximum(shifts, 0)
    lens = np.minimum(la, lb + shifts) - starts
    tms = _windows_numpy(xa, ya, starts, starts - shifts, lens, d0, lnorm,
                         counter=counter)
    # shifts ascend, so a stable sort on -score ranks ties by shift
    out = []
    for k in np.argsort(-tms, kind="stable")[:n_best].tolist():
        ai, aj = _gapless_alignment(int(shifts[k]), la, lb)
        out.append(Alignment.from_trusted(ai, aj, dp_score=float(tms[k])))
    return out


def ss_alignment(
    ss_a: str,
    ss_b: str,
    params: Optional[TMAlignParams] = None,
    counter=None,
    codes_a: Optional[np.ndarray] = None,
    codes_b: Optional[np.ndarray] = None,
) -> Alignment:
    """DP alignment of secondary-structure strings (match=1, mismatch=0).

    ``codes_a``/``codes_b`` accept pre-encoded SS byte codes (e.g. the
    per-chain cache :attr:`repro.structure.model.Chain.ss_codes`) to skip
    re-encoding the strings on every pair of an all-vs-all run.
    """
    params = params or TMAlignParams()
    ca = codes_a if codes_a is not None else _ss_codes(ss_a)
    cb = codes_b if codes_b is not None else _ss_codes(ss_b)
    score = (ca[:, None] == cb[None, :]).astype(np.float64)
    return nw_align(score, params.ss_gap_open, counter=counter)


def combined_alignment(
    xa: np.ndarray,
    ya: np.ndarray,
    transform,
    ss_a: str,
    ss_b: str,
    d0: float,
    params: Optional[TMAlignParams] = None,
    counter=None,
    codes_a: Optional[np.ndarray] = None,
    codes_b: Optional[np.ndarray] = None,
) -> Alignment:
    """DP over ``ss_mix * SS-match + (1-ss_mix) * TM distance score``.

    The distance term uses the best superposition found so far
    (``transform`` maps chain A onto chain B).  ``codes_a``/``codes_b``
    take pre-encoded SS codes as in :func:`ss_alignment`.
    """
    params = params or TMAlignParams()
    d = tm_score_matrix(xa, ya, transform, d0)
    if counter is not None:
        counter.add("score_pair", d.size)
    # in-place chains: same float expressions as
    #   mix * ss + (1 - mix) * (1 / (1 + (d/d0)^2))
    # without the intermediate allocations
    np.multiply(d, 1.0 - params.ss_mix, out=d)
    ca = codes_a if codes_a is not None else _ss_codes(ss_a)
    cb = codes_b if codes_b is not None else _ss_codes(ss_b)
    score = (ca[:, None] == cb[None, :]).astype(np.float64)
    np.multiply(score, params.ss_mix, out=score)
    np.add(score, d, out=score)
    return nw_align(score, params.gap_open, counter=counter)


def _fragment_geometry(
    la: int, lb: int, params: TMAlignParams
) -> Optional[tuple[bool, int, int, int, int]]:
    """Common window geometry: ``(swap, ls, ll, flen, step)`` or None."""
    swap = la > lb
    ls, ll = (lb, la) if swap else (la, lb)
    flen = max(ls // params.fragment_fraction, params.min_seed_len)
    if flen < params.min_seed_len or flen >= ls:
        return None
    return swap, ls, ll, flen, max(1, flen // 2)


def fragment_threading(
    xa: np.ndarray,
    ya: np.ndarray,
    d0: float,
    lnorm: int,
    params: Optional[TMAlignParams] = None,
    counter=None,
) -> Optional[Alignment]:
    """Gapless threading of an L/k window of the shorter chain.

    Catches alignments where only a sub-domain matches; returns None when
    the chains are too short to cut a meaningful fragment.  Every
    (fragment, segment) placement has the same window length; the best
    is the first maximum in fragment-major order, NaN scores last (the
    ranking rule of :func:`gapless_threading`).
    """
    params = params or TMAlignParams()
    la, lb = xa.shape[0], ya.shape[0]
    geom = _fragment_geometry(la, lb, params)
    if geom is None:
        return None
    swap, ls, ll, flen, step = geom
    short, long_ = (ya, xa) if swap else (xa, ya)
    stride = max(1, params.threading_stride)
    fstarts = np.arange(0, ls - flen + 1, step, dtype=np.intp)
    shifts = np.arange(0, ll - flen + 1, stride, dtype=np.intp)
    nf, ns = fstarts.shape[0], shifts.shape[0]
    # placements enumerate fragment-major (fstart outer, shift inner), so
    # argmax's first maximum is the first strict improvement in that order
    tms = _windows_numpy(
        short, long_, np.repeat(fstarts, ns), np.tile(shifts, nf),
        np.full(nf * ns, flen), d0, lnorm, counter=counter,
    )
    scored = np.flatnonzero(~np.isnan(tms))
    best_flat = int(scored[np.argmax(tms[scored])]) if scored.size else 0
    best_tm = float(tms[best_flat])
    fstart = int(fstarts[best_flat // ns])
    shift = int(shifts[best_flat % ns])
    idx_short = np.arange(fstart, fstart + flen, dtype=np.intp)
    idx_long = np.arange(shift, shift + flen, dtype=np.intp)
    if swap:
        return Alignment.from_trusted(idx_long, idx_short, dp_score=best_tm)
    return Alignment.from_trusted(idx_short, idx_long, dp_score=best_tm)
