"""Optional compiled sweep for the batched banded Smith–Waterman.

The NumPy lockstep pass in :mod:`repro.seqalign.prefilter` is
dispatch-bound: it issues ~15 whole-batch ufunc calls per query row, and
a query runs a few hundred rows over small ``(N, band)`` slices, so
ufunc dispatch dominates the arithmetic.  The recurrence is additions
and binary max selections over integer-valued floats, so the same
dataflow compiled as one C loop produces bit-identical scores (there
are no multiplications inside the recurrence, so no FMA contraction can
change any value, and ``a >= b ? a : b`` reproduces ``np.maximum``
exactly for the non-NaN inputs the DP feeds it).  The band predicate is
evaluated per cell with the same ``|j - i * slope| <= band`` double
arithmetic as the NumPy mask, so boundary cells agree exactly.

The kernel is built on first use by :mod:`repro._native`; anything
going wrong — no compiler, sandboxed filesystem, missing ctypes —
degrades silently to the NumPy sweep.  Set ``REPRO_NO_NATIVE_SW=1`` to
force the fallback (the equivalence tests exercise both paths).
"""

from __future__ import annotations

import ctypes
from typing import Optional

from repro._native import load_library

__all__ = ["load_sw_kernel", "NATIVE_SW_ENV"]

NATIVE_SW_ENV = "REPRO_NO_NATIVE_SW"

_SOURCE = r"""
#include <stddef.h>
#include <math.h>

static double mx(double a, double b) { return a >= b ? a : b; }

/* Banded local-alignment sweep over a batch of independent DPs.
 *
 * codes:  (n, lmax) uint8 candidate codes (padded rows score so low
 *         under the LUT that pad columns can never leave 0)
 * qcodes: (nq, lq) uint8 query codes, nq in {1, n} (one shared query
 *         row, or one per alignment for fused multi-channel batches)
 * lut:    (d, d) float32 substitution table, row = query code
 * gaps:   (n,) per-alignment linear gap penalty (<= 0)
 * slopes: (n,) per-alignment band-center slope len_b / len_a
 * best:   (n,) out, the max DP cell per alignment
 *
 * Cell (i, j) participates iff |j - i * slope| <= band, evaluated in
 * double exactly like the vectorized mask.  Two rolling rows per
 * alignment; cells outside the current window read as 0 because each
 * buffer cell is re-zeroed when its column leaves the band.
 */
void sw_banded_batch(const unsigned char *codes, const unsigned char *qcodes,
                     const float *lut, ptrdiff_t d,
                     const double *gaps, const double *slopes, double band,
                     ptrdiff_t n, ptrdiff_t lmax, ptrdiff_t lq, ptrdiff_t nq,
                     double *hbuf, double *best)
{
    ptrdiff_t r, i, j;
    for (r = 0; r < n; ++r) {
        const unsigned char *c = codes + r * lmax;
        const unsigned char *q = qcodes + (nq == 1 ? 0 : r) * lq;
        const double gap = gaps[r];
        const double slope = slopes[r];
        double *h_prev = hbuf;            /* (lmax + 1) doubles each */
        double *h_cur = hbuf + lmax + 1;
        double b = 0.0;
        /* span of buffer cells last written into each rolling buffer;
         * invariant: outside its span a buffer holds exact zeros */
        ptrdiff_t prev_sl = 0, prev_sh = -1, cur_sl = 0, cur_sh = -1;
        for (j = 0; j <= lmax; ++j) { h_prev[j] = 0.0; h_cur[j] = 0.0; }
        for (i = 0; i < lq; ++i) {
            const double center = (double)i * slope;
            ptrdiff_t lo = (ptrdiff_t)floor(center - band);
            ptrdiff_t hi = (ptrdiff_t)ceil(center + band);
            double *tmp;
            ptrdiff_t tsp;
            if (lo < 0) lo = 0;
            if (hi > lmax - 1) hi = lmax - 1;
            /* restore the zero invariant before reusing this buffer
             * (it still holds row i-2's values inside its span) */
            for (j = cur_sl; j <= cur_sh; ++j) h_cur[j] = 0.0;
            for (j = lo; j <= hi; ++j) {
                double h;
                if (fabs((double)j - center) > band) continue;
                h = mx(h_prev[j] + (double)lut[q[i] * d + c[j]],
                       mx(h_prev[j + 1], h_cur[j]) + gap);
                h = mx(h, 0.0);
                h_cur[j + 1] = h;
                if (h > b) b = h;
            }
            cur_sl = lo + 1; cur_sh = hi + 1;
            tmp = h_prev; h_prev = h_cur; h_cur = tmp;
            tsp = prev_sl; prev_sl = cur_sl; cur_sl = tsp;
            tsp = prev_sh; prev_sh = cur_sh; cur_sh = tsp;
        }
        best[r] = b;
    }
}
"""


def load_sw_kernel() -> Optional[ctypes._CFuncPtr]:
    """ctypes handle to ``sw_banded_batch``, or None when unavailable."""
    lib = load_library("sw", _SOURCE, NATIVE_SW_ENV, libs=("-lm",))
    if lib is None:
        return None
    fn = lib.sw_banded_batch
    fn.restype = None
    fn.argtypes = [
        ctypes.c_void_p,  # codes
        ctypes.c_void_p,  # qcodes
        ctypes.c_void_p,  # lut
        ctypes.c_ssize_t,  # d (lut dimension)
        ctypes.c_void_p,  # gaps
        ctypes.c_void_p,  # slopes
        ctypes.c_double,  # band
        ctypes.c_ssize_t,  # n
        ctypes.c_ssize_t,  # lmax
        ctypes.c_ssize_t,  # lq
        ctypes.c_ssize_t,  # nq
        ctypes.c_void_p,  # hbuf (2 * (lmax + 1) doubles scratch)
        ctypes.c_void_p,  # best
    ]
    return fn
