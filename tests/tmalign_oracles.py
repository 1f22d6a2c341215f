"""Serial ground truth for the TM-align kernel's differential tests.

One seed, one window, one placement at a time, written with the plain
per-call :func:`repro.geometry.kabsch.kabsch` — the pre-batch kernel the
NumPy lockstep paths and the compiled kernel must both reproduce bit for
bit.  Also :func:`numpy_path`, which switches the compiled search, window,
traceback, score-matrix, refinement and whole-pair entry points off for
the duration of a block.

Window rankings follow the program's rule: descending score, NaN last,
ties in scan order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from repro.geometry.kabsch import kabsch
from repro.geometry.transforms import RigidTransform
from repro.tmalign._dpnative import native_handles
from repro.tmalign.initial import _fragment_geometry, _gapless_alignment
from repro.tmalign.params import TMAlignParams
from repro.tmalign.result import Alignment
from repro.tmalign.tmscore import _check_search_args, _seed_schedule

def native_loaded() -> bool:
    return all(getattr(mod, name) is not None for mod, name in native_handles())


@contextmanager
def numpy_path():
    """Run the block on the NumPy reference path (``nw_forward`` stays)."""
    handles = native_handles()
    saved = [getattr(mod, name) for mod, name in handles]
    for mod, name in handles:
        setattr(mod, name, None)
    try:
        yield
    finally:
        for (mod, name), handle in zip(handles, saved):
            setattr(mod, name, handle)


def _moved_tm_score(pa, pb, xf, d0, lnorm, work, dist, sbuf, counter=None):
    """TM-score of ``xf.apply(pa)`` against ``pb``; ``dist`` keeps distances."""
    np.matmul(pa, xf.rotation.T, out=work)
    work += xf.translation
    np.subtract(work, pb, out=work)
    np.multiply(work, work, out=work)
    np.add.reduce(work, axis=1, out=dist)
    np.sqrt(dist, out=dist)
    if counter is not None:
        counter.add("score_pair", dist.size)
    np.divide(dist, d0, out=sbuf)
    np.multiply(sbuf, sbuf, out=sbuf)
    np.add(sbuf, 1.0, out=sbuf)
    np.divide(1.0, sbuf, out=sbuf)
    return float(sbuf.sum() / lnorm)


def superposition_search_serial(
    pa: np.ndarray,
    pb: np.ndarray,
    d0: float,
    lnorm: int,
    params: Optional[TMAlignParams] = None,
    d0_search: Optional[float] = None,
    seed_fractions: Optional[Sequence[int]] = None,
    counter=None,
) -> tuple[float, RigidTransform]:
    """One-seed-at-a-time superposition search."""
    params = params or TMAlignParams()
    pa, pb, n, d0_search = _check_search_args(pa, pb, d0, d0_search)
    fractions = tuple(seed_fractions or params.n_seed_fractions)

    best_tm = -1.0
    best_xf = RigidTransform.identity()
    work = np.empty((n, 3))
    dist = np.empty(n)
    sbuf = np.empty(n)
    for start, flen in _seed_schedule(n, fractions, params):
        xf = kabsch(pa[start : start + flen], pb[start : start + flen], counter=counter)
        prev_sel: Optional[np.ndarray] = None
        for _ in range(params.max_score_iters):
            tm = _moved_tm_score(
                pa, pb, xf, d0, lnorm, work, dist, sbuf, counter=counter
            )
            if tm > best_tm:
                best_tm = tm
                best_xf = xf
            d_cut = d0_search
            sel = dist < d_cut
            n_sel = int(sel.sum())
            while n_sel < 3 and d_cut < 8.0:
                d_cut += 0.5
                sel = dist < d_cut
                n_sel = int(sel.sum())
            if n_sel < 3:
                break  # hopeless seed: nothing is close
            if prev_sel is not None and np.array_equal(sel, prev_sel):
                break  # selection stable -> converged
            prev_sel = sel
            xf = kabsch(pa[sel], pb[sel], counter=counter)
    return best_tm, best_xf


def gapless_threading_serial(
    xa: np.ndarray,
    ya: np.ndarray,
    d0: float,
    lnorm: int,
    params: Optional[TMAlignParams] = None,
    n_best: int = 2,
    min_overlap: int = 5,
    counter=None,
) -> list[Alignment]:
    """One-shift-at-a-time gapless threading."""
    params = params or TMAlignParams()
    la, lb = xa.shape[0], ya.shape[0]
    min_overlap = min(min_overlap, la, lb)
    scored: list[tuple[float, int]] = []
    stride = max(1, params.threading_stride)
    nmax = min(la, lb)
    work = np.empty((nmax, 3))
    dist = np.empty(nmax)
    sbuf = np.empty(nmax)
    for shift in range(-(lb - min_overlap), la - min_overlap + 1, stride):
        i0 = max(0, shift)
        i1 = min(la, lb + shift)
        m = i1 - i0
        if m < min_overlap:
            continue
        sa = xa[i0:i1]
        sb = ya[i0 - shift : i1 - shift]
        xf = kabsch(sa, sb, counter=counter)
        tm = _moved_tm_score(
            sa, sb, xf, d0, lnorm, work[:m], dist[:m], sbuf[:m], counter=counter
        )
        scored.append((tm, shift))
    scored.sort(key=lambda t: (t[0] != t[0], 0.0 if t[0] != t[0] else -t[0], t[1]))
    out = []
    for tm, shift in scored[:n_best]:
        ai, aj = _gapless_alignment(shift, la, lb)
        out.append(Alignment(ai, aj, dp_score=tm))
    return out


def fragment_threading_serial(
    xa: np.ndarray,
    ya: np.ndarray,
    d0: float,
    lnorm: int,
    params: Optional[TMAlignParams] = None,
    counter=None,
) -> Optional[Alignment]:
    """One-placement-at-a-time fragment threading."""
    params = params or TMAlignParams()
    la, lb = xa.shape[0], ya.shape[0]
    geom = _fragment_geometry(la, lb, params)
    if geom is None:
        return None
    swap, ls, ll, flen, step = geom
    short, long_ = (ya, xa) if swap else (xa, ya)
    best: tuple[float, int, int] | None = None
    work = np.empty((flen, 3))
    dist = np.empty(flen)
    sbuf = np.empty(flen)
    for fstart in range(0, ls - flen + 1, step):
        frag = short[fstart : fstart + flen]
        for shift in range(0, ll - flen + 1, max(1, params.threading_stride)):
            seg = long_[shift : shift + flen]
            xf = kabsch(frag, seg, counter=counter)
            tm = _moved_tm_score(
                frag, seg, xf, d0, lnorm, work, dist, sbuf, counter=counter
            )
            if best is None or tm > best[0] or (best[0] != best[0] and tm == tm):
                best = (tm, fstart, shift)
    if best is None:
        return None
    _, fstart, shift = best
    idx_short = np.arange(fstart, fstart + flen, dtype=np.intp)
    idx_long = np.arange(shift, shift + flen, dtype=np.intp)
    if swap:
        return Alignment(idx_long, idx_short, dp_score=best[0])
    return Alignment(idx_short, idx_long, dp_score=best[0])
