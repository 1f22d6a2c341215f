"""Needleman–Wunsch dynamic programming with TM-align's gap model.

TM-align charges a gap-*open* penalty only (gap extension is free).  We
implement that as a three-state Gotoh DP with ``extend = 0``:

* ``M``  — residue i aligned to residue j;
* ``Ix`` — vertical gap run (chain A residues skipped);
* ``Iy`` — horizontal gap run (chain B residues skipped).

Leading gap runs are free (zero boundary conditions, as in TM-align);
trailing runs cost one open per direction like interior ones, because
the traceback starts at the corner — again matching the original.

With free extension the in-row recurrence ``Iy[i,j] = max(open(j-1),
Iy[i,j-1])`` is a running maximum, so each row is computed with a
handful of whole-row NumPy ops — ``M`` and ``Ix`` from the previous row,
``Iy`` via ``np.maximum.accumulate``.  The traceback recovers predecessor
states by exact float equality (all values are propagated, never
recomputed), so no pointer matrices are stored.  When the compiled
kernel loads (:mod:`repro.tmalign._dpnative`), the forward fill and the
traceback run as C loops with the same dataflow; the NumPy code here is
their reference and fallback.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tmalign._dpnative import load_forward_kernel, load_tm_kernels, scratch
from repro.tmalign.result import Alignment

__all__ = ["nw_align", "nw_score_only"]

NEG = -1e18  # effectively -inf, but arithmetic-safe

# Compiled row sweep and traceback (bit-identical to the NumPy code
# below); None when no C compiler is available or REPRO_NO_NATIVE_DP is
# set.  The traceback handle is also dropped by the load-time self-check
# (repro.tmalign._dpnative.self_check).
_NATIVE_FORWARD = load_forward_kernel()
_NATIVE_TRACEBACK = getattr(load_tm_kernels(), "traceback", None)

def _workspace(la: int, lb: int):
    """The three state matrices and three scratch rows of one fill,
    carved from the thread's grow-only scratch buffer
    (:func:`repro.tmalign._dpnative.scratch`), so the refinement loop
    pays no allocation per ``nw_align``.  Valid until the thread's next
    kernel call, which is fine: ``nw_align``/``nw_score_only`` never
    nest."""
    ra, rb = la + 1, lb + 1
    cells = ra * rb
    nbytes = 8 * (3 * cells + 3 * rb)
    f = scratch(nbytes)[:nbytes].view(np.float64)
    return (
        f[:cells].reshape(ra, rb),
        f[cells : 2 * cells].reshape(ra, rb),
        f[2 * cells : 3 * cells].reshape(ra, rb),
        f[3 * cells : 3 * cells + rb - 1],
        f[3 * cells + rb : 3 * cells + 2 * rb - 1],
        f[3 * cells + 2 * rb : 3 * cells + 3 * rb],
    )


def _forward(
    score: np.ndarray, gap_open: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill the three DP matrices; returns (M, Ix, Iy) of shape (la+1, lb+1).

    The returned matrices are views into the thread's scratch buffer;
    they are consumed (traceback / corner read) before the next call.  Only the
    boundary cells need initialisation — every interior cell is written
    by the row sweep below.
    """
    la, lb = score.shape
    M, Ix, Iy, t1, t2, mi = _workspace(la, lb)
    M[0].fill(NEG)
    M[1:, 0].fill(NEG)
    M[0, 0] = 0.0
    Ix[0].fill(NEG)
    Ix[0, 0] = 0.0  # lets a leading vertical gap terminate cleanly
    Ix[1:, 0].fill(0.0)  # free leading gaps
    Iy[0].fill(0.0)
    Iy[1:, 0].fill(NEG)

    if _NATIVE_FORWARD is not None and score.strides[1] == 8:
        # same dataflow as the sweep below, one call instead of ~8*la
        _NATIVE_FORWARD(
            M.ctypes.data,
            Ix.ctypes.data,
            Iy.ctypes.data,
            score.ctypes.data,
            la,
            lb,
            M.strides[0] // 8,
            score.strides[0] // 8,
            gap_open,
        )
        return M, Ix, Iy

    # max(M, Iy) of the previous row feeds both the M recurrence (after a
    # further max with Ix — max is order-insensitive up to the sign of
    # equal zeros, which nothing downstream observes) and the Ix opener,
    # so it is computed once.  The ufuncs are hoisted to locals: at ~la
    # calls per fill and ~10^3 fills per pairwise comparison, attribute
    # lookups are measurable.
    maximum = np.maximum
    add = np.add
    accumulate = np.maximum.accumulate
    for i in range(1, la + 1):
        ix_prev = Ix[i - 1]
        maximum(M[i - 1], Iy[i - 1], out=mi)
        # M[i, j] = score[i-1, j-1] + max over states at (i-1, j-1)
        maximum(mi[:-1], ix_prev[:-1], out=t1)
        add(score[i - 1], t1, out=M[i, 1:])
        # Ix[i, j]: vertical gap (consume A row) — open from M/Iy or extend
        add(mi[1:], gap_open, out=t1)
        maximum(t1, ix_prev[1:], out=Ix[i, 1:])
        # Iy[i, j]: horizontal gap — running max of openers to the left
        maximum(M[i, :-1], Ix[i, :-1], out=t2)
        add(t2, gap_open, out=t2)
        accumulate(t2, out=Iy[i, 1:])
    return M, Ix, Iy


def nw_score_only(
    score: np.ndarray, gap_open: float, counter=None
) -> float:
    """DP optimum (semi-global) without traceback."""
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2 or score.size == 0:
        raise ValueError(f"score matrix must be 2-D non-empty, got {score.shape}")
    if gap_open > 0:
        raise ValueError("gap_open must be <= 0")
    if counter is not None:
        counter.add("dp_cell", score.shape[0] * score.shape[1])
    M, Ix, Iy = _forward(score, gap_open)
    return float(max(M[-1, -1], Ix[-1, -1], Iy[-1, -1]))


def nw_align(
    score: np.ndarray, gap_open: float, counter=None
) -> Alignment:
    """Optimal semi-global alignment for ``score`` under TM-align's gap model.

    Returns an :class:`Alignment` of matched (i, j) index pairs, both
    strictly increasing.
    """
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2 or score.size == 0:
        raise ValueError(f"score matrix must be 2-D non-empty, got {score.shape}")
    if gap_open > 0:
        raise ValueError("gap_open must be <= 0")
    la, lb = score.shape
    if counter is not None:
        counter.add("dp_cell", la * lb)
    M, Ix, Iy = _forward(score, gap_open)
    if _NATIVE_TRACEBACK is not None and score.strides[1] == 8:
        ai, aj, dp_score = _NATIVE_TRACEBACK(M, Ix, Iy, score, gap_open)
        return Alignment.from_trusted(ai, aj, dp_score)

    # Traceback from the corner; predecessors found by exact equality on
    # propagated values (ties resolved with M > Ix > Iy precedence, the
    # same order the forward max would pick).  Cells are read with
    # ndarray.item() — plain Python floats share float64 IEEE semantics,
    # and the traceback visits ~la+lb cells per call.
    m_at, ix_at, iy_at, s_at = M.item, Ix.item, Iy.item, score.item
    gap = float(gap_open)
    i, j = la, lb
    v0, v1, v2 = m_at(i, j), ix_at(i, j), iy_at(i, j)
    if v0 >= v1 and v0 >= v2:
        state, dp_score = 0, v0
    elif v1 >= v2:
        state, dp_score = 1, v1
    else:
        state, dp_score = 2, v2
    ai: list[int] = []
    aj: list[int] = []
    while i > 0 or j > 0:
        if state == 0:  # M
            ai.append(i - 1)
            aj.append(j - 1)
            # compare by re-adding (same float expression the forward
            # pass evaluated) — subtracting would be inexact
            cur = m_at(i, j)
            s = s_at(i - 1, j - 1)
            i -= 1
            j -= 1
            if s + m_at(i, j) == cur:
                state = 0
            elif s + ix_at(i, j) == cur:
                state = 1
            else:
                state = 2
        elif state == 1:  # Ix: came from (i-1, j)
            cur = ix_at(i, j)
            i -= 1
            if ix_at(i, j) == cur:
                state = 1
            elif m_at(i, j) + gap == cur:
                state = 0
            else:
                state = 2
        else:  # Iy: came from (i, j-1)
            cur = iy_at(i, j)
            j -= 1
            if iy_at(i, j) == cur:
                state = 2
            elif m_at(i, j) + gap == cur:
                state = 0
            else:
                state = 1
        if i == 0 and state == 2:
            # remaining leading horizontal gap is free; walk out
            j = 0
        if j == 0 and state == 1:
            i = 0
    ai.reverse()
    aj.reverse()
    return Alignment.from_trusted(
        np.asarray(ai, dtype=np.intp), np.asarray(aj, dtype=np.intp), dp_score
    )
