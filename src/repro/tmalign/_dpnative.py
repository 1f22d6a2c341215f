"""Compiled TM-align kernel: DP sweep, traceback, superposition search
and the whole pairwise alignment.

TM-align's NumPy hot paths are dispatch-bound: the DP forward fill runs
~8 whole-row ufunc calls per row, the superposition search ~100 small
array ops per Kabsch/score/reselect iteration, the threading scans one
Kabsch and one scoring pass per window, and each refinement step
materialises a distance matrix through five ufuncs.  This module
compiles the same dataflow as C loops.  The NumPy code stays the single
reference: every entry point here reproduces it bit for bit, and the
modules that use them fall back to it whenever a handle is None.  Each
public entry point of the package has one native call:

* ``nw_forward`` — the Gotoh row sweep of :mod:`repro.tmalign.dp`.  Pure
  additions and binary max selections, so exactness needs only a max
  that equals ``np.maximum`` over the DP's non-NaN values; it is written
  ``b > a ? b : a`` so it compiles to ``maxsd`` rather than a branch.
* ``nw_traceback`` — the corner-to-origin walk of ``nw_align``, with the
  same exact-equality predecessor tests and M > Ix > Iy tie order.
* ``tm_search`` — ``superposition_search``: the seed schedule of its
  fractions, then per seed Kabsch on the seed window, score / reselect
  with cutoff escalation / convergence check, keeping the first strictly
  best score in serial seed order.  A reselection is a branch-free list
  of the selected pair indices, whose pairs are gathered into contiguous
  rows for Kabsch; it has converged when it lists the same pairs as the
  previous one.
* ``tm_align_pair`` — ``align.tm_align`` for one pair, in the order the
  Python orchestration runs its stages and with their arithmetic:

  - the gapless scan and its stable top-2, the SS DP, the fragment scan
    and its first best placement (NaN last, as in the gapless ranking);
  - the ``(1,)``-seed searches, the combined matrix and its DP;
  - candidate de-duplication on exact indices and ``align._refine``'s
    loop per candidate (``refine_core``: per step the gather of the
    matched coordinates, the ``(1, 2)``-seeded search, the TM-score
    matrix of the moved chain, the DP sweep and traceback, and the
    seen-alignment, patience and step-cap exits);
  - the degenerate branch, the two final searches and the RMSD.

  Scores, alignment, dp_score, transform and op counts come back in one
  buffer; the scratch (score matrix, three DP matrices, alignment
  history, windows) is carved from :func:`scratch`, the calling thread's
  grow-only buffer, which the NumPy-side DP workspace shares.

The threading scans inside ``tm_align_pair`` (``windows_scan``) keep
exact only the windows that can rank: 2 shifts, 1 placement.  Each
window is first screened: raw moments, Theobald's QCP rotation (Newton
on the Horn matrix's characteristic quartic, eigenvector from the
adjugate) and a GL score on squared distances, with a certified bound of
its distance from the exact score (``screen``, whose comment derives the
bound).  Having no summation order to keep, the screen's loops run four
pairs per step over column copies of the chains.  Only windows whose
bound reaches the keep-th best lower bound run the exact Kabsch and GL
score; the rest read ``-inf``, which changes no ranked window, score or
op count.

How the Kabsch and scoring loops match NumPy's floats:

* the 3x3 SVD is the one ``numpy.linalg`` gets from ``dgesdd``
  (``jobz='A'``, column-major copy) in NumPy's own bundled OpenBLAS, and
  ``R @ mu`` calls its ``cblas_dgemv`` with the arguments ``np.matmul``
  passes (see below for how the SVD is reached);
* every GEMM NumPy runs with K = 3 and three output columns (covariance,
  3x3 products, the ``(n, 3) @ (3, 3)`` transform) accumulates each
  output as one sequential fused multiply-add chain over K, which
  ``fma()`` reproduces;
* the ``(la, 3) @ (3, lb)`` cross product inside ``cross_distances`` is
  different: OpenBLAS switches kernels at its column tile edges, and a
  hand-written fma chain was measured to differ from NumPy in columns
  208-211 of every matrix with ``lb >= 212``.  ``score_matrix`` therefore
  calls the bound ``cblas_dgemm`` with the arguments ``np.matmul``
  passes, and only the elementwise tail of the score is C;
* window means are sequential sums, score sums use NumPy's pairwise
  order, and the rest is elementwise IEEE arithmetic compiled with
  ``-ffp-contract=off``;
* the TM-score term ``1 / (1 + (d / d0)^2)`` of the score matrices and
  of every search iteration takes no double-precision division where
  ``fma()`` is an instruction: ``d / d0`` is Markstein's corrected
  product with ``RN(1 / d0)``, and ``1 / u`` a seed within ``2^-14``
  and three Newton steps, the last Markstein's correction.  Both are
  correctly rounded, so the term has the division form's bits; the few
  lanes the theorems leave out (an all-ones significand of ``u``, ``u``
  not finite or past ``2^100``, ``d0`` outside ``[2^-500, 2^500]``) are
  recomputed in the division form (``term_fast`` derives it).  On the
  ``arch=x86-64-v4`` target the term rows (``term_grams`` for a score
  matrix row, ``term_dists`` for a search's distances) are explicit
  AVX-512 with masked tails, seeded by ``_mm512_rcp14_pd``; elsewhere
  they are ``term_fast`` per lane with a ``1.0f / (float)u`` seed.

The SVDs (~350 per ck34 pair once the window screen prunes, ~1,100
without it) take ``dgesdd``'s own code path for this input
without its wrapper.  For M = N = 3 and ``jobz='A'``, ``dgesdd`` picks
its "path 5" (M < MNTHR = 5): ``dgebrd``, which for N < NB is
``dgebd2``; then ``dbdsdc``, whose N <= SMLSIZ branch runs ``dlasdq``
on identity U and VT and a selection sort; then ``dormbr``, which for
K < NB is ``dorm2r`` and ``dorml2``.  ``svd3_chain`` calls those same
routines, bound from the same library, with the same arguments, so it
is the same arithmetic minus the wrapper's argument checks, workspace
queries, ``ilaenv`` lookups and norm.  It defers to ``dgesdd`` itself
for every input the wrapper treats differently: NaN, which ``dgesdd``
rejects, and a max-abs entry outside (SMLNUM, BIGNUM] as ``dgesdd``
derives them from ``dlamch``, which it rescales first; also for the
zero matrix, so that no memo key is all zero bytes (below).
:func:`load_tm_kernels` checks the chain against ``dgesdd`` byte for
byte on :func:`_svd_battery` once per process and keeps ``dgesdd``
alone on any difference.  In front of it a per-thread direct-mapped
memo keyed by the covariance's bytes returns the rotation computed the
first time (about a third of the covariances left after the window
screen repeat one decomposed earlier), so a hit is bit-identical by
construction and still charges its ``kabsch`` and ``kabsch_point`` ops.
It is per thread because ctypes releases the GIL inside the kernels.

The GEMM order depends on the OpenBLAS kernel the CPU selects, so
:func:`self_check` runs the search, traceback and whole-pair entry
points (:data:`NATIVE_HANDLES`) on a fixed probe against the NumPy path
when the package loads and switches them off on any bit difference;
``nw_forward`` does not depend on BLAS and stays on.  The library is
built on first use by :mod:`repro._native`, its ``HOT`` entry points for
the best instruction-set target the CPU runs: ``arch=x86-64-v4`` (AVX-512,
with 512-bit vectors in the elementwise loops and intrinsics in the term
rows), ``fma`` (FMA3 and AVX) or
``default`` (baseline code, where the term keeps its division form);
:func:`kernel_target` names the one loaded.  Set ``REPRO_NO_NATIVE_DP=1``
to disable all of it.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import os
import struct
import threading
from typing import Optional

import numpy as np

from repro._native import cpu_targets, load_library

__all__ = [
    "load_forward_kernel",
    "load_tm_kernels",
    "self_check",
    "TMKernels",
    "NATIVE_DP_ENV",
    "NATIVE_HANDLES",
    "native_handles",
    "kernel_target",
]

NATIVE_DP_ENV = "REPRO_NO_NATIVE_DP"

#: (module, attribute) of every entry-point handle :func:`self_check`
#: guards: the one native call of ``nw_align``'s traceback, of
#: ``superposition_search`` and of ``tm_align``.  ``nw_forward`` needs no
#: BLAS and is not among them.
NATIVE_HANDLES = (
    ("repro.tmalign.dp", "_NATIVE_TRACEBACK"),
    ("repro.tmalign.tmscore", "_NATIVE_SEARCH"),
    ("repro.tmalign.align", "_NATIVE_ALIGN"),
)

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* Hot entry points are compiled for the instruction-set target the
 * loader picked for this CPU (REPRO_TARGET: "arch=x86-64-v4", whose
 * 512-bit vectors the elementwise loops fill, or "fma"); without one
 * they are baseline code.  Every target computes fma() with one
 * rounding, so the choice changes speed only.  FAST_FMA says fma() is
 * an instruction, which the divider-free TM-score term needs to pay
 * off: every named target has one, while in baseline code fma() is a
 * libm call and the term keeps its division form.  REPRO_AVX512, which
 * the loader defines for the x86-64-v4 target alone, compiles the term
 * rows (term_grams, term_dists) as explicit AVX-512 intrinsics. */
#ifdef REPRO_TARGET
#define HOT __attribute__((target(REPRO_TARGET)))
#define FAST_FMA 1
#else
#define HOT
#define FAST_FMA 0
#endif
#define INLINE static inline __attribute__((always_inline))
#ifdef REPRO_AVX512
#include <immintrin.h>
#endif

/* np.maximum over the DP's non-NaN values.  Written with the strict
 * compare first it is the same function as `a >= b ? a : b` (on equal
 * inputs both return a) but compiles to one maxsd instead of a branch,
 * which mispredicts on DP data. */
static double mx(double a, double b) { return b > a ? b : a; }

/* Row sweep of the three-state Gotoh fill with free gap extension.
 *
 * Matrices are (la+1, lb+1) row-major views with a leading stride of
 * `stride` doubles (they live inside a larger reusable workspace); the
 * score matrix is (la, lb) with leading stride `sstride`.  Boundary row
 * 0 and column 0 are initialised by the caller.
 *
 * Per cell, identical dataflow to the NumPy whole-row sweep:
 *   M[i,j]  = score[i-1,j-1] + max(max(M[i-1,j-1], Iy[i-1,j-1]), Ix[i-1,j-1])
 *   Ix[i,j] = max(max(M[i-1,j], Iy[i-1,j]) + gap, Ix[i-1,j])
 *   Iy[i,j] = running max over j' <= j-1 of (max(M[i,j'], Ix[i,j']) + gap)
 * M and Ix read only the previous row, so each row fills them in one
 * branch-free vectorisable pass.  The running max is then a prefix scan
 * of the openers, four lanes at a time.  mx keeps its left operand on
 * ties, so a fold with it returns the leftmost maximal opener however
 * the fold is grouped (an associative selection): the lane-parallel scan
 * below is bit-identical to the serial one, signed zeros included.
 */
typedef double v4d __attribute__((vector_size(32)));
typedef int64_t v4i __attribute__((vector_size(32)));

/* lane-wise mx(a, b): a bit select of b where b > a, else a */
INLINE v4d vmx(v4d a, v4d b)
{
    v4i take = b > a;
    return (v4d)(((v4i)b & take) | ((v4i)a & ~take));
}

HOT void nw_forward(double *M, double *Ix, double *Iy, const double *score,
                    ptrdiff_t la, ptrdiff_t lb, ptrdiff_t stride,
                    ptrdiff_t sstride, double gap)
{
    const v4d lowest = {-INFINITY, -INFINITY, -INFINITY, -INFINITY};
    const v4i up1 = {4, 0, 1, 2}, up2 = {4, 5, 0, 1};
    ptrdiff_t i, j;
    for (i = 1; i <= la; ++i) {
        const double *restrict m_prev = M + (i - 1) * stride;
        const double *restrict ix_prev = Ix + (i - 1) * stride;
        const double *restrict iy_prev = Iy + (i - 1) * stride;
        double *restrict m_cur = M + i * stride;
        double *restrict ix_cur = Ix + i * stride;
        double *restrict iy_cur = Iy + i * stride;
        const double *restrict sc = score + (i - 1) * sstride;
        double run = -INFINITY; /* mx(-inf, x) == x for every finite x */
        for (j = 1; j <= lb; ++j) {
            double mi_diag = mx(m_prev[j - 1], iy_prev[j - 1]);
            double mi_up = mx(m_prev[j], iy_prev[j]);
            m_cur[j] = sc[j - 1] + mx(mi_diag, ix_prev[j - 1]);
            ix_cur[j] = mx(mi_up + gap, ix_prev[j]);
        }
        for (j = 1; j <= lb; ++j) /* openers */
            iy_cur[j] = mx(m_cur[j - 1], ix_cur[j - 1]) + gap;
        for (j = 1; j + 3 <= lb; j += 4) {
            v4d v;
            double last;
            memcpy(&v, iy_cur + j, sizeof v);
            v = vmx(__builtin_shuffle(v, lowest, up1), v);
            v = vmx(__builtin_shuffle(v, lowest, up2), v);
            /* only this scalar max carries from block to block */
            last = v[3];
            v = vmx((v4d){run, run, run, run}, v);
            memcpy(iy_cur + j, &v, sizeof v);
            run = mx(run, last);
        }
        for (; j <= lb; ++j) {
            run = mx(run, iy_cur[j]);
            iy_cur[j] = run;
        }
    }
}

/* Traceback from the corner of a filled (M, Ix, Iy), same layout as
 * nw_forward.  Predecessors are found by exact equality on propagated
 * values (ties M > Ix > Iy).  Writes the matched (i, j) pairs in
 * increasing order to ai/aj (capacity min(la, lb)) and returns their
 * count.  The boundary breaks are unreachable for scores of magnitude
 * far below the NEG sentinel's; they only keep every read in bounds.
 */
ptrdiff_t nw_traceback(const double *M, const double *Ix, const double *Iy,
                       const double *score, ptrdiff_t la, ptrdiff_t lb,
                       ptrdiff_t stride, ptrdiff_t sstride, double gap,
                       ptrdiff_t *ai, ptrdiff_t *aj, double *dp_score)
{
    ptrdiff_t i = la, j = lb, n = 0, k;
    double v0 = M[i * stride + j], v1 = Ix[i * stride + j];
    double v2 = Iy[i * stride + j];
    int state;
    if (v0 >= v1 && v0 >= v2) { state = 0; *dp_score = v0; }
    else if (v1 >= v2) { state = 1; *dp_score = v1; }
    else { state = 2; *dp_score = v2; }
    while (i > 0 || j > 0) {
        if (state == 0) { /* M: came from (i-1, j-1) */
            double cur, s;
            if (i == 0 || j == 0) break;
            cur = M[i * stride + j];
            s = score[(i - 1) * sstride + (j - 1)];
            ai[n] = i - 1;
            aj[n] = j - 1;
            ++n;
            --i;
            --j;
            if (s + M[i * stride + j] == cur) state = 0;
            else if (s + Ix[i * stride + j] == cur) state = 1;
            else state = 2;
        } else if (state == 1) { /* Ix: came from (i-1, j) */
            double cur;
            if (i == 0) break;
            cur = Ix[i * stride + j];
            --i;
            if (Ix[i * stride + j] == cur) state = 1;
            else if (M[i * stride + j] + gap == cur) state = 0;
            else state = 2;
        } else { /* Iy: came from (i, j-1) */
            double cur;
            if (j == 0) break;
            cur = Iy[i * stride + j];
            --j;
            if (Iy[i * stride + j] == cur) state = 2;
            else if (M[i * stride + j] + gap == cur) state = 0;
            else state = 1;
        }
        if (i == 0 && state == 2) j = 0; /* free leading gap */
        if (j == 0 && state == 1) i = 0;
    }
    for (k = 0; k < n / 2; ++k) {
        ptrdiff_t t = ai[k];
        ai[k] = ai[n - 1 - k];
        ai[n - 1 - k] = t;
        t = aj[k];
        aj[k] = aj[n - 1 - k];
        aj[n - 1 - k] = t;
    }
    return n;
}

/* ---- Kabsch and TM-score, bit-identical to the NumPy batch kernels ---- */

typedef void (*gesdd_fn)(const char *, const int64_t *, const int64_t *,
                         double *, const int64_t *, double *, double *,
                         const int64_t *, double *, const int64_t *,
                         double *, const int64_t *, int64_t *, int64_t *,
                         size_t);
typedef void (*gemv_fn)(int, int, int64_t, int64_t, double, const double *,
                        int64_t, const double *, int64_t, double, double *,
                        int64_t);
typedef void (*gemm_fn)(int, int, int, int64_t, int64_t, int64_t, double,
                        const double *, int64_t, const double *, int64_t,
                        double, double *, int64_t);
typedef const int64_t *fint; /* an ILP64 LAPACK integer argument */
typedef void (*gebd2_fn)(fint, fint, double *, fint, double *, double *,
                         double *, double *, double *, int64_t *);
typedef void (*lasdq_fn)(const char *, fint, fint, fint, fint, fint, double *,
                         double *, double *, fint, double *, fint, double *,
                         fint, double *, int64_t *, size_t);
typedef void (*orm_fn)(const char *, const char *, fint, fint, fint, double *,
                       fint, const double *, double *, fint, double *,
                       int64_t *, size_t, size_t);
typedef double (*lamch_fn)(const char *, size_t);

#define SVD_WORK_MAX 512
static gesdd_fn blas_gesdd;
static gemv_fn blas_gemv;
static gemm_fn blas_gemm;
static gebd2_fn lp_gebd2;
static lasdq_fn lp_lasdq;
static orm_fn lp_orm2r, lp_orml2;
static int64_t svd_lwork;
static double svd_small, svd_big; /* dgesdd's SMLNUM and BIGNUM */
static int svd_chain;

/* Bind NumPy's ILP64 dgesdd, cblas_dgemv and cblas_dgemm and, unless
 * chain is NULL, dgesdd's 3x3 path (dgebd2, dlasdq, dorm2r, dorml2 and
 * dlamch); sizes the SVD workspace by the same query numpy.linalg
 * makes.  Returns 0 on success. */
int tm_bind(void *gesdd, void *gemv, void *gemm, void *const *chain)
{
    char jobz = 'A';
    int64_t three = 3, query = -1, info = 0, iwork[24];
    double a[9] = {0}, s[3], u[9], vt[9], wq = 0.0;
    blas_gesdd = (gesdd_fn)gesdd;
    blas_gemv = (gemv_fn)gemv;
    blas_gemm = (gemm_fn)gemm;
    if ((svd_chain = chain != NULL)) {
        lamch_fn lamch = (lamch_fn)chain[4];
        lp_gebd2 = (gebd2_fn)chain[0];
        lp_lasdq = (lasdq_fn)chain[1];
        lp_orm2r = (orm_fn)chain[2];
        lp_orml2 = (orm_fn)chain[3];
        svd_small = sqrt(lamch("S", 1)) / lamch("P", 1);
        svd_big = 1.0 / svd_small;
    }
    blas_gesdd(&jobz, &three, &three, a, &three, s, u, &three, vt, &three,
               &wq, &query, iwork, &info, 1);
    svd_lwork = (int64_t)wq;
    if (svd_lwork < 1) svd_lwork = 1;
    return (info != 0 || svd_lwork > SVD_WORK_MAX) ? -1 : 0;
}

/* What dgesdd runs for this input ("path 5", M = N = 3 < MNTHR = 5,
 * N <= SMLSIZ, every NB >= K): dgebd2, then dbdsdc's small-N branch
 * (dlasdq on identity U and VT, then its selection sort), then dormbr's
 * unblocked dorm2r and dorml2.  Valid where dgesdd does not rescale. */
static int64_t svd3_chain(double *a, double *s, double *u, double *vt)
{
    const int64_t zero = 0, two = 2, three = 3;
    int64_t info = 0;
    double e[3], tauq[3], taup[3], work[12], t;
    int i, j, k;
    lp_gebd2(&three, &three, a, &three, s, e, tauq, taup, work, &info);
    for (i = 0; i < 9; ++i) u[i] = vt[i] = (i % 4 == 0) ? 1.0 : 0.0;
    lp_lasdq("U", &zero, &three, &three, &three, &zero, s, e, vt, &three, u,
             &three, u, &three, work, &info, 1);
    if (info != 0) return info;
    for (i = 0; i < 2; ++i) {
        for (k = i, j = i + 1; j < 3; ++j)
            if (s[j] > s[k]) k = j;
        if (k == i) continue;
        t = s[k], s[k] = s[i], s[i] = t;
        for (j = 0; j < 3; ++j) {
            t = u[j + 3 * k], u[j + 3 * k] = u[j + 3 * i], u[j + 3 * i] = t;
            t = vt[k + 3 * j], vt[k + 3 * j] = vt[i + 3 * j], vt[i + 3 * j] = t;
        }
    }
    lp_orm2r("L", "N", &three, &three, &three, a, &three, tauq, u, &three,
             work, &info, 1, 1);
    lp_orml2("R", "N", &three, &two, &two, a + 3, &three, taup, vt + 3,
             &three, work, &info, 1, 1);
    return 0;
}

/* Whether dgesdd takes A as it is: it rejects NaN and rescales A when
 * max|a| is outside (SMLNUM, BIGNUM]. */
static int svd3_unscaled(const double *a)
{
    double anrm = 0.0;
    int k;
    for (k = 0; k < 9; ++k) {
        if (a[k] != a[k]) return 0;
        anrm = fabs(a[k]) > anrm ? fabs(a[k]) : anrm;
    }
    return anrm > svd_small && anrm <= svd_big;
}

/* The SVD numpy.linalg.svd makes of the row-major 3x3 cov: the chain
 * where dgesdd takes A as it is, else (or with reference) dgesdd.  f
 * gets S, U and VT in Fortran order.  Returns dgesdd's INFO. */
static int64_t svd3(const double *cov, int reference, double *f)
{
    char jobz = 'A';
    int64_t three = 3, info = 0, iwork[24], lwork = svd_lwork;
    double a[9], work[SVD_WORK_MAX];
    int i, j;
    for (i = 0; i < 3; ++i)
        for (j = 0; j < 3; ++j) a[i + 3 * j] = cov[3 * i + j];
    if (!reference && svd_chain && svd3_unscaled(a))
        return svd3_chain(a, f, f + 3, f + 12);
    blas_gesdd(&jobz, &three, &three, a, &three, f, f + 3, &three, f + 12,
               &three, work, &lwork, iwork, &info, 1);
    return info;
}

/* svd3 of n covariances; out gets 22 doubles each: INFO, S, U, VT. */
void tm_svd3(const double *covs, ptrdiff_t n, int reference, double *out)
{
    ptrdiff_t k;
    for (k = 0; k < n; ++k)
        out[22 * k] = (double)svd3(covs + 9 * k, reference, out + 22 * k + 1);
}

/* C = A @ B (3x3 row-major), each output one fma chain over K from 0 */
INLINE void mm3(const double *A, const double *B, double *C)
{
    int i, j;
    for (i = 0; i < 3; ++i)
        for (j = 0; j < 3; ++j) {
            double acc = 0.0;
            acc = fma(A[3 * i + 0], B[0 + j], acc);
            acc = fma(A[3 * i + 1], B[3 + j], acc);
            acc = fma(A[3 * i + 2], B[6 + j], acc);
            C[3 * i + j] = acc;
        }
}

/* Per-thread direct-mapped memo of rotation_from_cov, keyed by the
 * covariance's bytes (1024 slots of 144 bytes), and this thread's call
 * and hit counts.  Only unscaled covariances enter, so a zeroed empty
 * slot never matches. */
#define MEMO_SLOTS 1024
static __thread struct memo_slot { double cov[9], rot[9]; } memo[MEMO_SLOTS];
static __thread int64_t svd_counts[2];

/* This thread's rotation_from_cov calls and memo hits, in out[0..1]. */
void tm_svd_counts(int64_t *out)
{
    memcpy(out, svd_counts, sizeof svd_counts);
}

/* rotations_from_covariances for one covariance */
INLINE void rotation_from_cov(const double *cov, double *rot)
{
    double f[21], *uf = f + 3, *vtf = f + 12, vtT[9], uT[9], det;
    struct memo_slot *slot = NULL;
    uint64_t h = 0, w;
    int i, j;
    ++svd_counts[0];
    if (svd3_unscaled(cov)) {
        for (i = 0; i < 9; ++i) {
            memcpy(&w, cov + i, sizeof w);
            h = (h ^ w) * 0x9E3779B97F4A7C15ull;
        }
        slot = &memo[h >> 54];
        if (memcmp(slot->cov, cov, sizeof slot->cov) == 0) {
            ++svd_counts[1];
            memcpy(rot, slot->rot, sizeof slot->rot);
            return;
        }
    }
    if (svd3(cov, 0, f) != 0) { /* numpy.linalg fills failed factors with NaN */
        for (i = 0; i < 9; ++i) uf[i] = vtf[i] = NAN;
    }
    /* Fortran outputs: u[i][j] = uf[i + 3j], vt[i][j] = vtf[i + 3j] */
    for (i = 0; i < 3; ++i)
        for (j = 0; j < 3; ++j) {
            vtT[3 * i + j] = vtf[j + 3 * i];
            uT[3 * i + j] = uf[j + 3 * i];
        }
    mm3(vtT, uT, rot);
    det = rot[0] * (rot[4] * rot[8] - rot[5] * rot[7])
        - rot[1] * (rot[3] * rot[8] - rot[5] * rot[6])
        + rot[2] * (rot[3] * rot[7] - rot[4] * rot[6]);
    if (!(det > 0.0)) { /* reflection (or NaN factors): diag(1,1,-1) */
        double diag[9] = {1, 0, 0, 0, 1, 0, 0, 0, -1};
        double t[9];
        mm3(vtT, diag, t);
        mm3(t, uT, rot);
    }
    if (slot) {
        memcpy(slot->cov, cov, sizeof slot->cov);
        memcpy(slot->rot, rot, sizeof slot->rot);
    }
}

/* rotation_from_cov of each of n row-major covariances */
void tm_rotations(const double *covs, ptrdiff_t n, double *rots)
{
    ptrdiff_t k;
    for (k = 0; k < n; ++k) rotation_from_cov(covs + 9 * k, rots + 9 * k);
}

/* Kabsch of pa onto pb over the m point pairs of rows a0.. / b0.. */
INLINE void kabsch(const double *pa, const double *pb, ptrdiff_t a0,
                   ptrdiff_t b0, ptrdiff_t m, double *rot, double *tra)
{
    double mu_a[3] = {0.0, 0.0, 0.0}, mu_b[3] = {0.0, 0.0, 0.0};
    double cov[9] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0}, y[3];
    ptrdiff_t r;
    int p, q;
    pa += 3 * a0;
    pb += 3 * b0;
    for (r = 0; r < m; ++r) {
        for (p = 0; p < 3; ++p) {
            mu_a[p] += pa[3 * r + p];
            mu_b[p] += pb[3 * r + p];
        }
    }
    for (p = 0; p < 3; ++p) {
        mu_a[p] /= (double)m;
        mu_b[p] /= (double)m;
    }
    for (r = 0; r < m; ++r) {
        double da[3], db[3];
        for (p = 0; p < 3; ++p) {
            da[p] = pa[3 * r + p] - mu_a[p];
            db[p] = pb[3 * r + p] - mu_b[p];
        }
        for (p = 0; p < 3; ++p)
            for (q = 0; q < 3; ++q)
                cov[3 * p + q] = fma(da[p], db[q], cov[3 * p + q]);
    }
    rotation_from_cov(cov, rot);
    blas_gemv(102 /* ColMajor */, 112 /* Trans */, 3, 3, 1.0, rot, 3, mu_a,
              1, 0.0, y, 1);
    for (p = 0; p < 3; ++p) tra[p] = mu_b[p] - y[p];
}

/* np.add.reduce's pairwise summation of a contiguous double row */
static double pairwise_sum(const double *a, ptrdiff_t n)
{
    ptrdiff_t i, n2;
    int j;
    double r[8], res = 0.0;
    if (n < 8) {
        for (i = 0; i < n; ++i) res += a[i];
        return res;
    }
    if (n > 128) {
        n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
    for (j = 0; j < 8; ++j) r[j] = a[j];
    for (i = 8; i < n - (n % 8); i += 8)
        for (j = 0; j < 8; ++j) r[j] += a[i + j];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; ++i) res += a[i];
    return res;
}

/* ---- the TM-score term 1 / (1 + (s / d0)^2) of a distance s ---- */

/* The term as NumPy computes it: q = s / d0, u = q * q + 1, then 1 / u,
 * each step correctly rounded. */
INLINE double term_div(double s, double d0)
{
    const double q = s / d0;
    return 1.0 / (q * q + 1.0);
}

/* Whether term_fast() stands in for term_div() at this d0: fma() is an
 * instruction, and d0 lies in [2^-500, 2^500], where no step of
 * term_fast() overflows and the remainder r below is exact. */
INLINE int term_fast_ok(double d0)
{
    return FAST_FMA && d0 >= 0x1p-500 && d0 <= 0x1p500;
}

#define MANTISSA 0x000FFFFFFFFFFFFFull
#define MANTISSA_BITS 0x0.fffffffffffffp-1022 /* MANTISSA as a double */

/* cross_distances' distance from |a|^2, |b|^2 and a . b */
INLINE double gram_distance(double asq, double bsq, double dot)
{
    const double d = (asq + bsq) - 2.0 * dot;
    return __builtin_sqrt(0.0 > d ? 0.0 : d); /* np.maximum(d, 0.0), NaN kept */
}

/* term_div(s, d0) without a double-precision division, given
 * inv = RN(1 / d0); s is a sqrt, so 0, at least 2^-537, inf or NaN.
 * Each step rounds as term_div()'s does (P. Markstein, "Computation of
 * elementary functions on the IBM RISC System/6000 processor", IBM J.
 * Res. Develop. 34(1), 1990; J.-M. Muller et al., Handbook of
 * Floating-Point Arithmetic, on FMA-based division):
 *
 * - q = RN(s / d0).  inv is within half an ulp of 1 / d0, so
 *   q0 = RN(s inv) is within one ulp of s / d0; r = s - d0 q0 is then
 *   exact in one fma, and RN(q0 + r inv) is RN(s / d0) (Markstein's
 *   division theorem).  For s >= 2^-537 and d0 <= 2^500 the product
 *   d0 q0 has no bit below 2^-1074, so r is exact; a q0 that underflows
 *   means q < 2^-27, and then u = 1 for every q within an ulp of it.
 * - u = RN(RN(q q) + 1): term_div()'s own two roundings.
 * - RN(1 / u).  For u in [1, 2^100) the seed y is within 2^-14 of 1 / u,
 *   relatively: 1.0f / (float)u is within 2^-23, and the AVX-512 rows'
 *   _mm512_rcp14_pd within 2^-14 by its specification.  A Newton step
 *   y + y RN(1 - u y) takes a relative error e to at most
 *   e^2 + 2^-53 e before its own rounding (the fma's remainder is
 *   1 - u y to 2^-53), and the rounding adds half an ulp.  So the first
 *   step leaves at most 2^-28 (1 + 2^-24), and the second
 *   2^-56 (1 + 2^-23), an eighth of an ulp, plus its half-ulp rounding:
 *   within one ulp of 1 / u.  The third step is
 *   Markstein's correction, which returns RN(1 / u) unless u's
 *   significand is all ones (there 1 / u sits just past a midpoint and
 *   the correction lands on the tie).
 *
 * So *bad is set for the lanes outside those theorems: u with an
 * all-ones significand, and u not in [1, 2^100) (s inf or NaN, a q0 that
 * overflowed, a seed that would).  The caller then redoes its whole row
 * or pair list with term_div() from the same input.  Stress runs of
 * 10^9 random and adversarial (s, d0) and u against the division form
 * found no other difference, for either seed. */
INLINE double term_fast(double s, double d0, double inv, uint64_t *bad)
{
    const double q0 = s * inv;
    const double q = fma(fma(-d0, q0, s), inv, q0);
    const double u = q * q + 1.0;
    double y = (double)(1.0f / (float)u), low;
    uint64_t bits;
    y = fma(y, fma(-u, y, 1.0), y);
    y = fma(y, fma(-u, y, 1.0), y);
    y = fma(y, fma(-u, y, 1.0), y); /* Markstein's correction */
    /* u's significand bits, compared as the subnormal double they make:
     * equal values are equal bits there, and a floating-point compare
     * vectorises at full width on the fma target (AVX has no 256-bit
     * integer compare) */
    memcpy(&bits, &u, sizeof bits);
    bits &= MANTISSA;
    memcpy(&low, &bits, sizeof low);
    *bad |= (low == MANTISSA_BITS) | !(u < 0x1p100);
    return y;
}

/* The term rows: out[j] = the term of distance s[j] (term_dists) or of
 * gram_distance(a, bsq[j], dot[j]) (term_grams), j < n, each returning
 * whether a lane needs term_div() (*bad of term_fast()).  A caller takes
 * them only where term_fast_ok(d0). */
#ifdef REPRO_AVX512
/* Explicit AVX-512: term_fast() on 8 lanes, rcp14-seeded, the tail
 * lanes masked (they load 0 and set no bad bit).  The intrinsics round
 * as term_fast()'s scalar steps: fnmadd(d0, q0, s) is fma(-d0, q0, s),
 * and the separate mul and add of u are its two roundings
 * (-ffp-contract=off). */
#define VEC static inline __attribute__((always_inline, target(REPRO_TARGET)))

VEC __m512d term8(__m512d s, __m512d d0, __m512d inv, __mmask8 live,
                  __mmask8 *bad)
{
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512i sig = _mm512_set1_epi64((long long)MANTISSA);
    const __m512d q0 = _mm512_mul_pd(s, inv);
    const __m512d q = _mm512_fmadd_pd(_mm512_fnmadd_pd(d0, q0, s), inv, q0);
    const __m512d u = _mm512_add_pd(_mm512_mul_pd(q, q), one);
    __m512d y = _mm512_rcp14_pd(u);
    y = _mm512_fmadd_pd(y, _mm512_fnmadd_pd(u, y, one), y);
    y = _mm512_fmadd_pd(y, _mm512_fnmadd_pd(u, y, one), y);
    y = _mm512_fmadd_pd(y, _mm512_fnmadd_pd(u, y, one), y); /* Markstein */
    *bad |= _mm512_mask_cmpeq_epi64_mask(
                live, _mm512_and_si512(_mm512_castpd_si512(u), sig), sig)
            | _mm512_mask_cmp_pd_mask(live, u, _mm512_set1_pd(0x1p100),
                                      _CMP_NLT_UQ);
    return y;
}

/* the lanes j.. of a row of n: all 8, or the n - j left */
VEC __mmask8 live8(ptrdiff_t j, ptrdiff_t n)
{
    return n - j >= 8 ? (__mmask8)0xFF : (__mmask8)((1u << (n - j)) - 1u);
}

HOT static int term_dists(const double *s, ptrdiff_t n, double d0, double inv,
                          double *out)
{
    const __m512d vd0 = _mm512_set1_pd(d0), vinv = _mm512_set1_pd(inv);
    __mmask8 bad = 0;
    ptrdiff_t j;
    for (j = 0; j < n; j += 8) {
        const __mmask8 live = live8(j, n);
        _mm512_mask_storeu_pd(out + j, live,
                              term8(_mm512_maskz_loadu_pd(live, s + j), vd0,
                                    vinv, live, &bad));
    }
    return bad != 0;
}

HOT static int term_grams(double a, const double *bsq, const double *dot,
                          ptrdiff_t n, double d0, double inv, double *out)
{
    const __m512d va = _mm512_set1_pd(a), two = _mm512_set1_pd(2.0);
    const __m512d zero = _mm512_setzero_pd();
    const __m512d vd0 = _mm512_set1_pd(d0), vinv = _mm512_set1_pd(inv);
    __mmask8 bad = 0;
    ptrdiff_t j;
    for (j = 0; j < n; j += 8) {
        const __mmask8 live = live8(j, n);
        /* gram_distance(): np.maximum(d, 0.0) keeps NaN and -0.0 */
        __m512d d = _mm512_sub_pd(
            _mm512_add_pd(va, _mm512_maskz_loadu_pd(live, bsq + j)),
            _mm512_mul_pd(two, _mm512_maskz_loadu_pd(live, dot + j)));
        d = _mm512_mask_mov_pd(d, _mm512_cmp_pd_mask(d, zero, _CMP_LT_OQ), zero);
        _mm512_mask_storeu_pd(out + j, live,
                              term8(_mm512_sqrt_pd(d), vd0, vinv, live, &bad));
    }
    return bad != 0;
}
#else
/* term_fast() lane by lane, left to the auto-vectoriser */
INLINE int term_dists(const double *s, ptrdiff_t n, double d0, double inv,
                      double *out)
{
    uint64_t bad = 0;
    ptrdiff_t j;
    for (j = 0; j < n; ++j) out[j] = term_fast(s[j], d0, inv, &bad);
    return bad != 0;
}

INLINE int term_grams(double a, const double *bsq, const double *dot,
                      ptrdiff_t n, double d0, double inv, double *out)
{
    uint64_t bad = 0;
    ptrdiff_t j;
    for (j = 0; j < n; ++j)
        out[j] = term_fast(gram_distance(a, bsq[j], dot[j]), d0, inv, &bad);
    return bad != 0;
}
#endif

/* TM-score of m pairs under (rot, tra); dist gets the pair distances,
 * sbuf (m doubles) is scratch. */
INLINE double score(const double *pa, const double *pb, ptrdiff_t m,
                    const double *rot, const double *tra, double d0,
                    double lnorm, double *dist, double *sbuf)
{
    ptrdiff_t i;
    int j;
    for (i = 0; i < m; ++i) {
        double w[3];
        for (j = 0; j < 3; ++j) {
            double acc = 0.0;
            acc = fma(pa[3 * i + 0], rot[3 * j + 0], acc);
            acc = fma(pa[3 * i + 1], rot[3 * j + 1], acc);
            acc = fma(pa[3 * i + 2], rot[3 * j + 2], acc);
            acc = (acc + tra[j]) - pb[3 * i + j];
            w[j] = acc * acc;
        }
        /* np.add.reduce: identity 0.0, then the elements in order */
        dist[i] = sqrt(((0.0 + w[0]) + w[1]) + w[2]);
    }
    if (!term_fast_ok(d0) || term_dists(dist, m, d0, 1.0 / d0, sbuf))
        for (i = 0; i < m; ++i) sbuf[i] = term_div(dist[i], d0);
    return (0.0 + pairwise_sum(sbuf, m)) / lnorm;
}

/* ---- the screened window scan ---- */

/* This thread's windows scanned and windows scored exactly (kabsch() +
 * score()), in out[0..1]. */
static __thread int64_t win_counts[2];

void tm_window_counts(int64_t *out)
{
    memcpy(out, win_counts, sizeof win_counts);
}

/* The exact GL score of one window: what the NumPy path computes. */
INLINE double window_exact(const double *xa, const double *ya, ptrdiff_t a0,
                           ptrdiff_t b0, ptrdiff_t m, double d0, double lnorm,
                           double *dist, double *sbuf)
{
    double rot[9], tra[3];
    ++win_counts[1];
    kabsch(xa, ya, a0, b0, m, rot, tra);
    return score(xa + 3 * a0, ya + 3 * b0, m, rot, tra, d0, lnorm, dist, sbuf);
}

/* Newton's method on a monic polynomial (coefficients c[0..deg-1] below
 * the leading 1, highest first) from x above its largest root: with
 * every root real the iterates fall monotonically onto that root, so
 * each one is an upper bound of it.  Stops where the value or the step
 * is no longer positive; returns the last x, and in *done whether it
 * stopped before the iteration cap. */
static double newton_down(const double *c, int deg, double x, int *done)
{
    int it, k;
    for (it = 0; it < 100; ++it) {
        double p = 1.0, dp = 0.0, step, next;
        for (k = 0; k < deg; ++k) {
            dp = dp * x + p;
            p = p * x + c[k];
        }
        if (!(p > 0.0) || !(dp > 0.0)) break;
        step = p / dp;
        next = x - step;
        if (!(next < x)) break;
        x = next;
    }
    *done = it < 100;
    return x;
}

#define SCREEN_SAFETY 1024.0
#define U_ROUND 0x1p-53 /* unit roundoff of double */

/* Screen of one window of m >= 1 pairs pa/pb: the GL score f under the
 * QCP superposition, and a bound eps of |f - E| for the exact score E
 * that window_exact() computes.  Returns 0 when the window must be
 * scored exactly instead.  Derivation of eps (u the unit roundoff,
 * a_i' = a_i - mu_a):
 *
 * - Covariance.  S = sum a_i' b_i'^T from raw moments about the window's
 *   first pair (in any order), K(S) the 4x4 Horn matrix, whose
 *   top eigenvector is the optimal rotation's quaternion.  The raw-moment
 *   error is |dS_pq| <= (m+5)u (Ra + Rb), Ra = sum |a_i - a_0|^2, and
 *   ||K(E)||_2 <= ||K(E)||_F = 2||E||_F <= 6 max|E_pq|: eta_s.  The exact
 *   path's centred fma covariance, whose means carry (m+2)u |a|max, and
 *   dgesdd's backward error give eta_k; by Kabsch = Horn, the exact
 *   rotation is the top eigenvector of a K within eta_k of the true one.
 * - Eigen-gap.  lambda1 is the largest root of Theobald's characteristic
 *   quartic x^4 + c2 x^2 + c1 x + c0 (c2 = -2||S||_F^2, c1 = -8 det S,
 *   c0 = det K), by Newton from (GA + GB) / 2 >= lambda1; lambda2 the
 *   largest root of the quartic deflated by (x - lambda1), by Newton from
 *   lambda1, so an upper bound of it.  Rounding the coefficients moves a
 *   root of multiplicity <= 3 (the Horn spectrum, sums of +-s1 +-s2 +-s3
 *   over the singular values, has a fourfold root only at K = 0) by at
 *   most e_g = (64u)^(1/3) ||K||_F per root; the gap used is
 *   G = (lambda1 - lambda2) - 2 e_g - 2 eta_s - rho_s.
 * - Eigenvector.  q is the largest column of adj(K - lambda1 I), made
 *   unit; its residual ||K q - (q.Kq) q|| plus rounding and eta_s is
 *   rho_s, and Davis-Kahan gives sin(q, q*) <= rho_s / G.  The exact
 *   rotation likewise is within eta_k / G.  A rotation differs from
 *   another by at most twice the sine of their quaternions' angle, so the
 *   two rotations differ by dR <= 2 (rho_s + eta_k) / G + 64u.
 * - Score.  f and E both sum t(d_i) = 1 / (1 + d_i^2 / d0^2) / lnorm
 *   over d_i = |R a_i' - b_i'|, and t is Lipschitz in d with constant
 *   3 sqrt(3) / (8 d0).  A rotation change dR moves d_i by at most
 *   dR |a_i'|, so the lever arm sum |a_i'| <= sqrt(m GA) carries it; the
 *   means and transforms of the two paths add (2(m+2) + 16)u (|a|max +
 *   |b|max) per distance and the sums (2m + 16)u m.
 *
 * eps is that first-order total times SCREEN_SAFETY.  The window goes
 * exact when G is not positive or either sine exceeds 0.1 (gap too small
 * for the bound to prune), when the adjugate has no usable column (no
 * eigenvector), and when any moment, coefficient or f is not finite or
 * a coordinate reaches 1e100 (non-finite values). */
INLINE v4d load4(const double *p)
{
    v4d v;
    memcpy(&v, p, sizeof v);
    return v;
}

INLINE v4d splat(double x) { return (v4d){x, x, x, x}; }

INLINE double lanes(v4d v) { return (v[0] + v[1]) + (v[2] + v[3]); }

INLINE int screen(const double *a, ptrdiff_t na, const double *b, ptrdiff_t nb,
                  ptrdiff_t m, double d0, double lnorm, double *f, double *eps)
{
    const double u = U_ROUND, inv_m = 1.0 / (double)m;
    const double *ac[3] = {a, a + na, a + 2 * na};
    const double *bc[3] = {b, b + nb, b + 2 * nb};
    const double ra[3] = {a[0], a[na], a[2 * na]};
    const double rb[3] = {b[0], b[nb], b[2 * nb]};
    const ptrdiff_t m4 = m & ~(ptrdiff_t)3;
    v4d va[3], vb[3], vab[9], vaa = splat(0.0), vbb = splat(0.0), vsum = vaa;
    double sa[3], sb[3], sab[9], saa, sbb, mua[3], mub[3], S[9], K[16];
    double A[16], adj[16], ga, gb, n2, nk, c[4], lam, lam2, qn = 0.0, q[4];
    double y[4], rq = 0.0, res = 0.0, R[9], t[3], sum;
    double inv_d02 = 1.0 / (d0 * d0);
    double xa_max, xb_max, eta_s, eta_k, e_g, gap, rho_s, sin_s, sin_k;
    double s0, s1, s2, s3, s4, s5, k0, k1, k2, k3, k4, k5;
    int p, j, done, best = 0;
    ptrdiff_t i;

    /* raw moments about the first pair, four pairs per step */
    for (p = 0; p < 3; ++p) va[p] = vb[p] = splat(0.0);
    for (p = 0; p < 9; ++p) vab[p] = splat(0.0);
    for (i = 0; i < m4; i += 4) {
        v4d x[3], z[3];
        for (p = 0; p < 3; ++p) {
            x[p] = load4(ac[p] + i) - splat(ra[p]);
            z[p] = load4(bc[p] + i) - splat(rb[p]);
            va[p] += x[p];
            vb[p] += z[p];
        }
        vaa += x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
        vbb += z[0] * z[0] + z[1] * z[1] + z[2] * z[2];
    }
    for (i = 0; i < m4; i += 4) {
        v4d x[3], z[3];
        for (p = 0; p < 3; ++p) {
            x[p] = load4(ac[p] + i) - splat(ra[p]);
            z[p] = load4(bc[p] + i) - splat(rb[p]);
        }
        for (p = 0; p < 3; ++p)
            for (j = 0; j < 3; ++j) vab[3 * p + j] += x[p] * z[j];
    }
    for (p = 0; p < 3; ++p) {
        sa[p] = lanes(va[p]);
        sb[p] = lanes(vb[p]);
    }
    for (p = 0; p < 9; ++p) sab[p] = lanes(vab[p]);
    saa = lanes(vaa);
    sbb = lanes(vbb);
    for (i = m4; i < m; ++i) {
        double x[3], z[3];
        for (p = 0; p < 3; ++p) {
            x[p] = ac[p][i] - ra[p];
            z[p] = bc[p][i] - rb[p];
            sa[p] += x[p];
            sb[p] += z[p];
        }
        for (p = 0; p < 3; ++p)
            for (j = 0; j < 3; ++j) sab[3 * p + j] += x[p] * z[j];
        saa += x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
        sbb += z[0] * z[0] + z[1] * z[1] + z[2] * z[2];
    }
    for (p = 0; p < 3; ++p) {
        mua[p] = sa[p] * inv_m;
        mub[p] = sb[p] * inv_m;
    }
    for (p = 0; p < 3; ++p)
        for (j = 0; j < 3; ++j) S[3 * p + j] = sab[3 * p + j] - sa[p] * mub[j];
    ga = saa - (sa[0] * mua[0] + sa[1] * mua[1] + sa[2] * mua[2]);
    gb = sbb - (sb[0] * mub[0] + sb[1] * mub[1] + sb[2] * mub[2]);
    ga = ga > 0.0 ? ga : 0.0;
    gb = gb > 0.0 ? gb : 0.0;
    xa_max = sqrt(ra[0] * ra[0] + ra[1] * ra[1] + ra[2] * ra[2]) + sqrt(saa);
    xb_max = sqrt(rb[0] * rb[0] + rb[1] * rb[1] + rb[2] * rb[2]) + sqrt(sbb);
    if (!(xa_max + xb_max < 1e100)) return 0;

    /* Horn's matrix; S[3p+q] = Spq with p on the mobile side */
    K[0] = S[0] + S[4] + S[8];
    K[1] = K[4] = S[5] - S[7];
    K[2] = K[8] = S[6] - S[2];
    K[3] = K[12] = S[1] - S[3];
    K[5] = S[0] - S[4] - S[8];
    K[6] = K[9] = S[1] + S[3];
    K[7] = K[13] = S[6] + S[2];
    K[10] = -S[0] + S[4] - S[8];
    K[11] = K[14] = S[5] + S[7];
    K[15] = -S[0] - S[4] + S[8];
    n2 = 0.0;
    for (p = 0; p < 9; ++p) n2 += S[p] * S[p];
    nk = 2.0 * sqrt(n2); /* ||K||_F */
    /* 2x2 minors of K's rows 0-1 (s) and 2-3 (k), for det and adjugate */
    s0 = K[0] * K[5] - K[4] * K[1];
    s1 = K[0] * K[6] - K[4] * K[2];
    s2 = K[0] * K[7] - K[4] * K[3];
    s3 = K[1] * K[6] - K[5] * K[2];
    s4 = K[1] * K[7] - K[5] * K[3];
    s5 = K[2] * K[7] - K[6] * K[3];
    k5 = K[10] * K[15] - K[14] * K[11];
    k4 = K[9] * K[15] - K[13] * K[11];
    k3 = K[9] * K[14] - K[13] * K[10];
    k2 = K[8] * K[15] - K[12] * K[11];
    k1 = K[8] * K[14] - K[12] * K[10];
    k0 = K[8] * K[13] - K[12] * K[9];
    c[0] = 0.0;
    c[1] = -2.0 * n2;
    c[2] = -8.0 * (S[0] * (S[4] * S[8] - S[5] * S[7])
                   - S[1] * (S[3] * S[8] - S[5] * S[6])
                   + S[2] * (S[3] * S[7] - S[4] * S[6]));
    c[3] = s0 * k5 - s1 * k4 + s2 * k3 + s3 * k2 - s4 * k1 + s5 * k0;
    if (!isfinite(c[1]) || !isfinite(c[2]) || !isfinite(c[3])
        || !isfinite(ga + gb))
        return 0;
    lam = newton_down(c, 4, 0.5 * (ga + gb) * (1.0 + 1e-9), &done);
    if (!done) return 0;
    { /* deflate by (x - lam): the cubic's coefficients by synthetic division */
        double cubic[3];
        cubic[0] = lam;
        cubic[1] = c[1] + lam * lam;
        cubic[2] = c[2] + lam * cubic[1];
        lam2 = newton_down(cubic, 3, lam, &done);
    }

    /* eigenvector: the largest column of adj(K - lam I), symmetric */
    memcpy(A, K, sizeof A);
    for (p = 0; p < 4; ++p) A[5 * p] -= lam;
    s0 = A[0] * A[5] - A[4] * A[1];
    s1 = A[0] * A[6] - A[4] * A[2];
    s2 = A[0] * A[7] - A[4] * A[3];
    s3 = A[1] * A[6] - A[5] * A[2];
    s4 = A[1] * A[7] - A[5] * A[3];
    s5 = A[2] * A[7] - A[6] * A[3];
    k5 = A[10] * A[15] - A[14] * A[11];
    k4 = A[9] * A[15] - A[13] * A[11];
    k3 = A[9] * A[14] - A[13] * A[10];
    k2 = A[8] * A[15] - A[12] * A[11];
    k1 = A[8] * A[14] - A[12] * A[10];
    k0 = A[8] * A[13] - A[12] * A[9];
    adj[0] = A[5] * k5 - A[6] * k4 + A[7] * k3;
    adj[1] = -A[4] * k5 + A[6] * k2 - A[7] * k1;
    adj[2] = A[4] * k4 - A[5] * k2 + A[7] * k0;
    adj[3] = -A[4] * k3 + A[5] * k1 - A[6] * k0;
    adj[4] = -A[1] * k5 + A[2] * k4 - A[3] * k3;
    adj[5] = A[0] * k5 - A[2] * k2 + A[3] * k1;
    adj[6] = -A[0] * k4 + A[1] * k2 - A[3] * k0;
    adj[7] = A[0] * k3 - A[1] * k1 + A[2] * k0;
    adj[8] = A[13] * s5 - A[14] * s4 + A[15] * s3;
    adj[9] = -A[12] * s5 + A[14] * s2 - A[15] * s1;
    adj[10] = A[12] * s4 - A[13] * s2 + A[15] * s0;
    adj[11] = -A[12] * s3 + A[13] * s1 - A[14] * s0;
    adj[12] = -A[9] * s5 + A[10] * s4 - A[11] * s3;
    adj[13] = A[8] * s5 - A[10] * s2 + A[11] * s1;
    adj[14] = -A[8] * s4 + A[9] * s2 - A[11] * s0;
    adj[15] = A[8] * s3 - A[9] * s1 + A[10] * s0;
    for (j = 0; j < 4; ++j) {
        double nrm = 0.0;
        for (p = 0; p < 4; ++p) nrm += adj[4 * j + p] * adj[4 * j + p];
        if (nrm > qn) qn = nrm, best = j;
    }
    if (!(qn > 0.0) || !isfinite(qn)) return 0;
    qn = 1.0 / sqrt(qn);
    for (p = 0; p < 4; ++p) q[p] = adj[4 * best + p] * qn;
    for (p = 0; p < 4; ++p) {
        y[p] = K[4 * p] * q[0] + K[4 * p + 1] * q[1] + K[4 * p + 2] * q[2]
               + K[4 * p + 3] * q[3];
        rq += q[p] * y[p];
    }
    for (p = 0; p < 4; ++p) res += (y[p] - rq * q[p]) * (y[p] - rq * q[p]);

    /* the bound's rotation terms, and the routing */
    eta_s = 6.0 * (m + 5) * u * (saa + sbb) + 4.0 * u * nk;
    eta_k = 6.0 * ((m + 2) * u * (xa_max * sqrt(m * gb) + xb_max * sqrt(m * ga))
                   + m * u * (ga + gb))
            + 32.0 * u * nk;
    rho_s = sqrt(res) + 8.0 * u * nk + eta_s;
    e_g = cbrt(64.0 * u) * nk;
    gap = (lam - lam2) - 2.0 * e_g - 2.0 * eta_s - rho_s;
    if (!(gap > 0.0)) return 0;
    sin_s = rho_s / gap;
    sin_k = eta_k / gap;
    if (!(sin_s <= 0.1 && sin_k <= 0.1)) return 0;

    /* R(q), mobile onto target, and the score pass */
    R[0] = q[0] * q[0] + q[1] * q[1] - q[2] * q[2] - q[3] * q[3];
    R[1] = 2.0 * (q[1] * q[2] - q[0] * q[3]);
    R[2] = 2.0 * (q[1] * q[3] + q[0] * q[2]);
    R[3] = 2.0 * (q[1] * q[2] + q[0] * q[3]);
    R[4] = q[0] * q[0] - q[1] * q[1] + q[2] * q[2] - q[3] * q[3];
    R[5] = 2.0 * (q[2] * q[3] - q[0] * q[1]);
    R[6] = 2.0 * (q[1] * q[3] - q[0] * q[2]);
    R[7] = 2.0 * (q[2] * q[3] + q[0] * q[1]);
    R[8] = q[0] * q[0] - q[1] * q[1] - q[2] * q[2] + q[3] * q[3];
    /* translation in absolute coordinates, then the score pass */
    for (p = 0; p < 3; ++p)
        t[p] = (rb[p] + mub[p]) - (R[3 * p] * (ra[0] + mua[0])
                                   + R[3 * p + 1] * (ra[1] + mua[1])
                                   + R[3 * p + 2] * (ra[2] + mua[2]));
    for (i = 0; i < m4; i += 4) {
        v4d x[3], w = splat(0.0);
        for (p = 0; p < 3; ++p) x[p] = load4(ac[p] + i);
        for (p = 0; p < 3; ++p) {
            v4d v = splat(R[3 * p]) * x[0] + splat(R[3 * p + 1]) * x[1]
                    + splat(R[3 * p + 2]) * x[2] + splat(t[p])
                    - load4(bc[p] + i);
            w += v * v;
        }
        vsum += 1.0 / (1.0 + w * inv_d02);
    }
    sum = lanes(vsum);
    for (i = m4; i < m; ++i) {
        double w = 0.0;
        for (p = 0; p < 3; ++p) {
            double v = R[3 * p] * ac[0][i] + R[3 * p + 1] * ac[1][i]
                       + R[3 * p + 2] * ac[2][i] + t[p] - bc[p][i];
            w += v * v;
        }
        sum += 1.0 / (1.0 + w * inv_d02);
    }
    *f = sum / lnorm;
    *eps = SCREEN_SAFETY
           * ((3.0 * sqrt(3.0) / (8.0 * d0))
                  * ((2.0 * (sin_s + sin_k) + 64.0 * u)
                         * sqrt(m * (ga + 4.0 * (m + 2) * u * saa))
                     + m * (2.0 * (m + 2) + 16.0) * u * (xa_max + xb_max))
              + m * (2.0 * m + 16.0) * u)
           / lnorm;
    return isfinite(*f) && isfinite(*eps);
}

/* The n rows of xyz as three contiguous columns, for the screen */
static void columns(const double *xyz, ptrdiff_t n, double *out)
{
    ptrdiff_t i;
    int p;
    for (i = 0; i < n; ++i)
        for (p = 0; p < 3; ++p) out[p * n + i] = xyz[3 * i + p];
}

/* Whether every window is inside the sets and not empty; the largest
 * length goes to *mmax and the total to *points. */
static int windows_valid(ptrdiff_t na, ptrdiff_t nb, const int64_t *a0,
                         const int64_t *b0, const int64_t *lens, ptrdiff_t nwin,
                         ptrdiff_t *mmax, ptrdiff_t *points)
{
    ptrdiff_t w;
    *mmax = 1;
    *points = 0;
    for (w = 0; w < nwin; ++w) {
        if (a0[w] < 0 || b0[w] < 0 || lens[w] < 1 || a0[w] + lens[w] > na
            || b0[w] + lens[w] > nb)
            return 0;
        if (lens[w] > *mmax) *mmax = lens[w];
        *points += lens[w];
    }
    return 1;
}

/* Doubles of scratch windows_scan() takes for nwin windows of at most
 * mmax pairs, the open flags' nwin bytes included. */
static ptrdiff_t windows_doubles(ptrdiff_t na, ptrdiff_t nb, ptrdiff_t nwin,
                                 ptrdiff_t mmax, ptrdiff_t keep)
{
    if (keep >= nwin) keep = 0;
    return 2 * mmax + (keep ? 3 * (na + nb) + nwin + keep + (nwin + 7) / 8 : 0);
}

/* GL scores of nwin windows: window w pairs xa[a0[w]:a0[w]+lens[w]] with
 * ya[b0[w]:...]; xa has na rows and ya nb.
 *
 * With keep = 0 every window is scored exactly (window_exact, the NumPy
 * path's Kabsch and GL score).  With keep >= 1, for a caller that ranks
 * only the keep highest, every window is screened first; lowk is the
 * keep-th largest of the lower bounds f - eps (exact scores, for windows
 * the screen sends exact; NaN ones do not count), every window whose
 * f + eps reaches lowk is then scored exactly and the rest get -inf.  A
 * pruned window's exact score is below lowk, so strictly below keep
 * exact scores: the keep highest windows, their order (ties included)
 * and their scores are those of the full scan.
 *
 * The windows are valid (windows_valid, which gives mmax); buf holds
 * windows_doubles() doubles. */
INLINE void windows_scan(const double *xa, ptrdiff_t na, const double *ya,
                         ptrdiff_t nb, const int64_t *a0, const int64_t *b0,
                         const int64_t *lens, ptrdiff_t nwin, ptrdiff_t mmax,
                         double d0, double lnorm, ptrdiff_t keep, double *tms,
                         double *buf)
{
    ptrdiff_t w, k;
    double *hi, *top, *ca, *cb, lowk;
    unsigned char *open;
    if (keep >= nwin || !(d0 > 0.0) || !(lnorm > 0.0)) keep = 0;
    win_counts[0] += nwin;
    if (!keep) {
        for (w = 0; w < nwin; ++w)
            tms[w] = window_exact(xa, ya, a0[w], b0[w], lens[w], d0, lnorm,
                                  buf, buf + mmax);
        return;
    }
    /* the chains' columns, the upper bounds, the top lower bounds and the
     * open flags */
    ca = buf + 2 * mmax;
    cb = ca + 3 * na;
    hi = cb + 3 * nb;
    top = hi + nwin; /* the keep largest lower bounds, descending */
    open = (unsigned char *)(top + keep);
    columns(xa, na, ca);
    columns(ya, nb, cb);
    for (k = 0; k < keep; ++k) top[k] = -INFINITY;
    for (w = 0; w < nwin; ++w) {
        double f = 0.0, eps = 0.0, lo;
        if ((open[w] = screen(ca + a0[w], na, cb + b0[w], nb, lens[w], d0,
                              lnorm, &f, &eps))) {
            lo = f - eps;
            hi[w] = f + eps;
        } else {
            lo = tms[w] = window_exact(xa, ya, a0[w], b0[w], lens[w], d0,
                                       lnorm, buf, buf + mmax);
        }
        if (lo > top[keep - 1]) { /* false for NaN */
            for (k = keep - 1; k > 0 && lo > top[k - 1]; --k)
                top[k] = top[k - 1];
            top[k] = lo;
        }
    }
    lowk = top[keep - 1];
    for (w = 0; w < nwin; ++w) {
        if (!open[w]) continue;
        tms[w] = hi[w] >= lowk ? window_exact(xa, ya, a0[w], b0[w], lens[w],
                                              d0, lnorm, buf, buf + mmax)
                               : -INFINITY;
    }
}

/* The screen of each window as windows_scan() runs it (a test hook): f
 * and eps per window in out[2w], out[2w+1], both NaN where the window
 * goes exact.  Returns 0, -1 when scratch allocation fails, or -2 when a
 * window is empty or outside the sets. */
HOT ptrdiff_t tm_window_screens(const double *xa, ptrdiff_t na,
                                const double *ya, ptrdiff_t nb,
                                const int64_t *a0, const int64_t *b0,
                                const int64_t *lens, ptrdiff_t nwin, double d0,
                                double lnorm, double *out)
{
    ptrdiff_t w, mmax, points;
    double *ca;
    if (!windows_valid(na, nb, a0, b0, lens, nwin, &mmax, &points)) return -2;
    ca = malloc(sizeof(double) * 3 * (na + nb));
    if (!ca) return -1;
    columns(xa, na, ca);
    columns(ya, nb, ca + 3 * na);
    for (w = 0; w < nwin; ++w)
        if (!screen(ca + a0[w], na, ca + 3 * na + b0[w], nb, lens[w], d0, lnorm,
                    out + 2 * w, out + 2 * w + 1))
            out[2 * w] = out[2 * w + 1] = NAN;
    free(ca);
    return 0;
}

/* The indices i < n with dist[i] < cut, ascending, into idx; returns
 * how many.  Branch-free: every index is written, and kept by counting
 * it. */
INLINE ptrdiff_t select_close(const double *dist, ptrdiff_t n, double cut,
                              int64_t *idx)
{
    ptrdiff_t i, cnt = 0;
    for (i = 0; i < n; ++i) {
        idx[cnt] = i;
        cnt += dist[i] < cut;
    }
    return cnt;
}

/* superposition_search over n matched pairs.  seeds holds (start, len)
 * per seed in schedule order; dist (2n doubles), idx (2n indices) and
 * ga (6n doubles) are scratch.  Each reselection's pairs are gathered
 * in index order into ga (mobile) and ga + 3n (target), so kabsch()
 * reads contiguous rows, with the sums of the NumPy path's pa[sel].
 * Writes the first strictly best score and its transform (identity and
 * -1 if none beats -1) and adds the kabsch, kabsch_point and score_pair
 * counts to ops[0..2]. */
INLINE void search(const double *pa, const double *pb, ptrdiff_t n,
                   const int64_t *seeds, ptrdiff_t nseeds, double d0,
                   double lnorm, double d0_search, ptrdiff_t max_iters,
                   double *dist, int64_t *idx, double *ga, double *best_tm,
                   double *best_rot, double *best_tra, int64_t *ops)
{
    double *gb = ga + 3 * n;
    ptrdiff_t s, it, k;
    *best_tm = -1.0;
    for (k = 0; k < 9; ++k) best_rot[k] = (k % 4 == 0) ? 1.0 : 0.0;
    for (k = 0; k < 3; ++k) best_tra[k] = 0.0;
    for (s = 0; s < nseeds; ++s) {
        double rot[9], tra[3];
        int64_t *cur = idx, *prev = idx + n, *tmp;
        ptrdiff_t prev_cnt = -1; /* no selection yet */
        kabsch(pa, pb, seeds[2 * s], seeds[2 * s], seeds[2 * s + 1], rot, tra);
        ops[0] += 1;
        ops[1] += seeds[2 * s + 1];
        for (it = 0; it < max_iters; ++it) {
            double tm, cut = d0_search;
            ptrdiff_t cnt;
            tm = score(pa, pb, n, rot, tra, d0, lnorm, dist, dist + n);
            ops[2] += n;
            if (tm > *best_tm) {
                *best_tm = tm;
                memcpy(best_rot, rot, sizeof rot);
                memcpy(best_tra, tra, sizeof tra);
            }
            /* widen the cutoff by 0.5 until >= 3 pairs or 8 A */
            cnt = select_close(dist, n, cut, cur);
            while (cnt < 3 && cut < 8.0) {
                cut += 0.5;
                cnt = select_close(dist, n, cut, cur);
            }
            if (cnt < 3) break; /* hopeless seed: nothing is close */
            /* converged: the same selection as the previous iteration's */
            if (cnt == prev_cnt && memcmp(cur, prev, sizeof(int64_t) * cnt) == 0)
                break;
            for (k = 0; k < cnt; ++k) {
                memcpy(ga + 3 * k, pa + 3 * cur[k], sizeof(double) * 3);
                memcpy(gb + 3 * k, pb + 3 * cur[k], sizeof(double) * 3);
            }
            kabsch(ga, gb, 0, 0, cnt, rot, tra);
            ops[0] += 1;
            ops[1] += cnt;
            prev_cnt = cnt;
            tmp = prev;
            prev = cur;
            cur = tmp;
        }
    }
}

/* ---- the refinement loop of align._refine ---- */

/* _seed_schedule: (start, len) seeds in fraction order.  A fraction whose
 * window length repeats an earlier one's adds nothing, because the starts
 * depend on the length alone.  seeds needs 2 * nfracs * (n + 1) entries. */
static ptrdiff_t seed_schedule(ptrdiff_t n, const int64_t *fracs,
                               ptrdiff_t nfracs, ptrdiff_t min_len,
                               int64_t *seeds)
{
    ptrdiff_t f, g, start, k = 0;
    for (f = 0; f < nfracs; ++f) {
        ptrdiff_t flen = n / fracs[f], step;
        int dup = 0;
        if (flen < min_len) flen = min_len;
        if (flen > n) flen = n;
        for (g = 0; g < f; ++g) {
            ptrdiff_t glen = n / fracs[g];
            if (glen < min_len) glen = min_len;
            if (glen > n) glen = n;
            dup |= glen == flen;
        }
        if (dup) continue;
        step = flen / 2 > 1 ? flen / 2 : 1;
        for (start = 0; start <= n - flen; start += step) {
            seeds[2 * k] = start;
            seeds[2 * k + 1] = flen;
            ++k;
        }
    }
    return k;
}

/* superposition_search from the seed fractions: search() over the
 * seed_schedule of n pairs.  out gets the best score, rotation (9) and
 * translation (3), then the kabsch, kabsch_point and score_pair counts
 * as int64.  Returns 0, -1 when scratch allocation fails, or -2 when
 * a fraction is below 1. */
HOT int tm_search(const double *pa, const double *pb, ptrdiff_t n,
                  const int64_t *fracs, ptrdiff_t nfracs,
                  ptrdiff_t min_seed_len, double d0, double lnorm,
                  double d0_search, ptrdiff_t max_iters, double *out)
{
    const ptrdiff_t nseeds_max = nfracs * (n + 1);
    int64_t ops[3] = {0, 0, 0}, *seeds;
    double *dist;
    ptrdiff_t k;
    for (k = 0; k < nfracs; ++k)
        if (fracs[k] < 1) return -2;
    /* dist, the gathered pairs, the seeds and the selections: 8-byte
     * entries throughout, so each part starts aligned */
    dist = malloc(8 * (8 * n + 2 * nseeds_max + 2 * n));
    if (!dist) return -1;
    seeds = (int64_t *)(dist + 8 * n);
    search(pa, pb, n, seeds,
           seed_schedule(n, fracs, nfracs, min_seed_len, seeds), d0, lnorm,
           d0_search, max_iters, dist, seeds + 2 * nseeds_max, dist + 2 * n,
           out, out + 1, out + 10, ops);
    memcpy(out + 13, ops, sizeof ops);
    free(dist);
    return 0;
}

/* TM-score terms of every residue pair under (rot, tra), as
 * tmscore.tm_score_matrix builds them: cross_distances(xf.apply(xa), ya)
 * then the in-place 1 / (1 + (d / d0)^2).  The transform is score()'s
 * fma form, or for la = 1 the dgemv np.matmul calls for one point.  The
 * cross product a @ b.T calls the bound dgemm with the arguments
 * np.matmul passes (its dgemv for one row or one column, one point on
 * either side; a 1 x 1 product, np.dot's ddot in NumPy, matched the
 * dgemm on 20,000 random pairs): OpenBLAS switches kernels at its column
 * tile edges (columns 208-211 at lb = 215, 216-219 at lb = 220 on one
 * build), where a hand-written fma chain differs in the last bit.  The
 * rest is elementwise in NumPy's op order, term_grams() per row, and
 * vectorises without changing a bit.  The terms of a row go to trow
 * first: a row with a lane term_fast() does not cover is redone with
 * term_div() from the GEMM output, which S still holds (another GEMM
 * call could tile the row differently).  mv (3 la), asq (la), bsq and
 * trow (lb each) are scratch; S gets la rows of leading stride lb. */
INLINE void score_matrix(const double *restrict xa, ptrdiff_t la,
                         const double *restrict ya, ptrdiff_t lb,
                         const double *rot, const double *tra, double d0,
                         double *restrict mv, double *restrict asq,
                         double *restrict bsq, double *restrict trow,
                         double *restrict S)
{
    const int fast = term_fast_ok(d0);
    const double inv = 1.0 / d0;
    ptrdiff_t i, j;
    int k;
    if (la == 1) /* np.matmul moves a single point with a dgemv */
        blas_gemv(102 /* ColMajor */, 112 /* Trans */, 3, 3, 1.0, rot, 3, xa,
                  1, 0.0, mv, 1);
    for (i = 0; i < la; ++i) {
        for (k = 0; k < 3; ++k) {
            double acc = 0.0;
            if (la == 1) {
                acc = mv[k];
            } else {
                acc = fma(xa[3 * i + 0], rot[3 * k + 0], acc);
                acc = fma(xa[3 * i + 1], rot[3 * k + 1], acc);
                acc = fma(xa[3 * i + 2], rot[3 * k + 2], acc);
            }
            mv[3 * i + k] = acc + tra[k];
        }
        asq[i] = (mv[3 * i] * mv[3 * i] + mv[3 * i + 1] * mv[3 * i + 1])
                 + mv[3 * i + 2] * mv[3 * i + 2];
    }
    for (j = 0; j < lb; ++j)
        bsq[j] = (ya[3 * j] * ya[3 * j] + ya[3 * j + 1] * ya[3 * j + 1])
                 + ya[3 * j + 2] * ya[3 * j + 2];
    /* np.matmul's own choice: a one-column or one-row product is a
     * dgemv over the other operand */
    if (la > 1 && lb == 1)
        blas_gemv(102 /* ColMajor */, 112 /* Trans */, 3, la, 1.0, mv, 3, ya,
                  1, 0.0, S, 1);
    else if (la == 1 && lb > 1)
        blas_gemv(102 /* ColMajor */, 112 /* Trans */, 3, lb, 1.0, ya, 3, mv,
                  1, 0.0, S, 1);
    else
        blas_gemm(101 /* RowMajor */, 111 /* NoTrans */, 112 /* Trans */, la,
                  lb, 3, 1.0, mv, 3, ya, 3, 0.0, S, lb);
    for (i = 0; i < la; ++i) {
        double *restrict row = S + i * lb;
        const double a = asq[i];
        if (!fast || term_grams(a, bsq, row, lb, d0, inv, trow))
            for (j = 0; j < lb; ++j)
                trow[j] = term_div(gram_distance(a, bsq[j], row[j]), d0);
        memcpy(row, trow, sizeof(double) * lb);
    }
}

/* score_matrix() as an entry point, a test and probe hook: a whole-pair
 * result rarely shows a last-bit difference in the matrix.  Returns 0,
 * or -1 when scratch allocation fails. */
HOT int tm_scores(const double *xa, ptrdiff_t la, const double *ya,
                  ptrdiff_t lb, const double *rot, const double *tra,
                  double d0, double *S)
{
    double *buf = calloc(4 * la + 2 * lb + 1, sizeof(double));
    if (!buf) return -1;
    score_matrix(xa, la, ya, lb, rot, tra, d0, buf, buf + 3 * la,
                 buf + 4 * la, buf + 4 * la + lb, S);
    free(buf);
    return 0;
}

/* The refinement loop's scratch, carved by refine_carve from a workspace
 * of refine_bytes() bytes: the gathered pairs, the search's distances,
 * gathered selections, seeds and selection indices, the score matrix and
 * its scratch, the three DP matrices, and the alignment history
 * (indices, lengths, corner scores). */
struct refine_ws {
    double *pa, *pb, *dist, *ga, *mv, *asq, *bsq, *trow, *S, *M, *Ix, *Iy;
    double *hdp;
    ptrdiff_t *hai, *haj, *hn;
    int64_t *seeds, *idx;
};

/* Entries of each 8-byte part: doubles, history indices, seeds and
 * selection indices. */
static void refine_sizes(ptrdiff_t la, ptrdiff_t lb, ptrdiff_t nfracs,
                         ptrdiff_t max_iters, ptrdiff_t *nf, ptrdiff_t *nh,
                         ptrdiff_t *ns, ptrdiff_t *nidx)
{
    const ptrdiff_t cap = la < lb ? la : lb, cells = (la + 1) * (lb + 1);
    *nf = 14 * cap + 4 * la + 2 * lb + la * lb + 3 * cells + max_iters + 1;
    *nh = 2 * (max_iters + 1) * cap + max_iters + 1;
    *ns = 2 * nfracs * (cap + 1);
    *nidx = 2 * cap;
}

/* Rounded up to a multiple of 64, so whatever is carved after it starts
 * as aligned as the workspace (scratch() hands out 64-byte aligned
 * bytes). */
static ptrdiff_t refine_bytes(ptrdiff_t la, ptrdiff_t lb, ptrdiff_t nfracs,
                              ptrdiff_t max_iters)
{
    ptrdiff_t nf, nh, ns, nidx;
    refine_sizes(la, lb, nfracs, max_iters, &nf, &nh, &ns, &nidx);
    return (sizeof(double) * nf + sizeof(ptrdiff_t) * nh
            + sizeof(int64_t) * (ns + nidx) + 63) & ~(ptrdiff_t)63;
}

static void refine_carve(unsigned char *ws, ptrdiff_t la, ptrdiff_t lb,
                         ptrdiff_t nfracs, ptrdiff_t max_iters,
                         struct refine_ws *w)
{
    const ptrdiff_t cap = la < lb ? la : lb, cells = (la + 1) * (lb + 1);
    ptrdiff_t n_f, n_h, n_s, n_idx;
    refine_sizes(la, lb, nfracs, max_iters, &n_f, &n_h, &n_s, &n_idx);
    w->pa = (double *)ws;
    w->pb = w->pa + 3 * cap;
    w->dist = w->pb + 3 * cap;
    w->ga = w->dist + 2 * cap;
    w->mv = w->ga + 6 * cap;
    w->asq = w->mv + 3 * la;
    w->bsq = w->asq + la;
    w->trow = w->bsq + lb;
    w->S = w->trow + lb;
    w->M = w->S + la * lb;
    w->Ix = w->M + cells;
    w->Iy = w->Ix + cells;
    w->hdp = w->Iy + cells;
    w->hai = (ptrdiff_t *)(w->pa + n_f);
    w->haj = w->hai + (max_iters + 1) * cap;
    w->hn = w->haj + (max_iters + 1) * cap;
    w->seeds = (int64_t *)(w->hai + n_h);
    w->idx = w->seeds + n_s;
}

/* The DP matrices' boundaries, as dp._forward initialises them; the sweep
 * and the traceback never write them. */
static void dp_bounds(double *M, double *Ix, double *Iy, ptrdiff_t la,
                      ptrdiff_t lb)
{
    const ptrdiff_t stride = lb + 1;
    ptrdiff_t k;
    for (k = 0; k < stride; ++k) {
        M[k] = Ix[k] = -1e18;
        Iy[k] = 0.0;
    }
    M[0] = Ix[0] = 0.0;
    for (k = 1; k <= la; ++k) {
        M[k * stride] = Iy[k * stride] = -1e18;
        Ix[k * stride] = 0.0;
    }
}

/* _refine for one starting alignment (ai0, aj0, n0) inside chains of la
 * and lb rows: alternate the seeded superposition search and the DP on
 * the TM-score matrix until the alignment repeats one seen in this call,
 * the score has not improved for `patience` steps, or after `max_iters`
 * steps.  w is carved for (la, lb, nfracs, max_iters), with the DP
 * boundaries set.
 *
 * out gets 14 doubles: the best search score (-1 if none), the corner
 * score of the best DP alignment, and the best rotation (identity if
 * none) and translation; then as int64 the best alignment's length (-1
 * when the starting alignment stayed best), the kabsch, kabsch_point,
 * score_pair and dp_cell counts, and the best alignment's i and j
 * indices (min(la, lb) slots each). */
INLINE void refine_core(const double *xa, ptrdiff_t la, const double *ya,
                        ptrdiff_t lb, const int64_t *ai0, const int64_t *aj0,
                        ptrdiff_t n0, const int64_t *fracs, ptrdiff_t nfracs,
                        ptrdiff_t min_seed_len, ptrdiff_t max_score_iters,
                        ptrdiff_t max_iters, ptrdiff_t patience, double d0,
                        double lnorm, double d0_search, double gap,
                        unsigned char *out, const struct refine_ws *w)
{
    const ptrdiff_t cap = la < lb ? la : lb, stride = lb + 1;
    double *best_tm = (double *)out, *best_dp = best_tm + 1;
    double *best_rot = best_tm + 2, *best_tra = best_tm + 11;
    int64_t *best_n = (int64_t *)(best_tm + 14), *ops = best_n + 1;
    int64_t *best_ai = ops + 4, *best_aj = best_ai + cap;
    ptrdiff_t *hai = w->hai, *haj = w->haj, *hn = w->hn;
    ptrdiff_t it, k, nh = 1, cur = 0, best = 0, stale = 0;

    for (k = 0; k < n0; ++k) {
        hai[k] = ai0[k];
        haj[k] = aj0[k];
    }
    hn[0] = n0;
    *best_tm = -1.0;
    for (k = 0; k < 9; ++k) best_rot[k] = (k % 4 == 0) ? 1.0 : 0.0;
    for (k = 0; k < 3; ++k) best_tra[k] = 0.0;
    ops[0] = ops[1] = ops[2] = ops[3] = 0;

    for (it = 0; it < max_iters; ++it) {
        const ptrdiff_t n = hn[cur];
        const ptrdiff_t *ci = hai + cur * cap, *cj = haj + cur * cap;
        ptrdiff_t *ni = hai + nh * cap, *nj = haj + nh * cap, nseeds, h;
        double tm, rot[9], tra[3];
        int seen = 0;
        if (n < 3) break;
        for (k = 0; k < n; ++k) {
            memcpy(w->pa + 3 * k, xa + 3 * ci[k], sizeof(double) * 3);
            memcpy(w->pb + 3 * k, ya + 3 * cj[k], sizeof(double) * 3);
        }
        nseeds = seed_schedule(n, fracs, nfracs, min_seed_len, w->seeds);
        search(w->pa, w->pb, n, w->seeds, nseeds, d0, lnorm, d0_search,
               max_score_iters, w->dist, w->idx, w->ga, &tm, rot, tra, ops);
        if (tm > *best_tm) {
            *best_tm = tm;
            memcpy(best_rot, rot, sizeof rot);
            memcpy(best_tra, tra, sizeof tra);
            best = cur;
            stale = 0;
        } else if (++stale >= patience) {
            break;
        }
        score_matrix(xa, la, ya, lb, rot, tra, d0, w->mv, w->asq, w->bsq,
                     w->trow, w->S);
        ops[2] += la * lb;
        nw_forward(w->M, w->Ix, w->Iy, w->S, la, lb, stride, lb, gap);
        ops[3] += la * lb;
        hn[nh] = nw_traceback(w->M, w->Ix, w->Iy, w->S, la, lb, stride, lb, gap,
                              ni, nj, w->hdp + nh);
        for (h = 0; h < nh && !seen; ++h)
            seen = hn[h] == hn[nh]
                   && memcmp(hai + h * cap, ni, sizeof(ptrdiff_t) * hn[nh]) == 0
                   && memcmp(haj + h * cap, nj, sizeof(ptrdiff_t) * hn[nh]) == 0;
        if (seen) break;
        cur = nh++;
    }
    if (best == 0) {
        *best_n = -1;
    } else {
        *best_n = hn[best];
        *best_dp = w->hdp[best];
        memcpy(best_ai, hai + best * cap, sizeof(ptrdiff_t) * hn[best]);
        memcpy(best_aj, haj + best * cap, sizeof(ptrdiff_t) * hn[best]);
    }
}

/* ---- the whole pair: align.tm_align ---- */

/* Python's a // b, b != 0 */
static ptrdiff_t floordiv(ptrdiff_t a, ptrdiff_t b)
{
    const ptrdiff_t q = a / b;
    return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}

/* len(np.arange(start, stop, step)), step >= 1 */
static ptrdiff_t arange_len(ptrdiff_t start, ptrdiff_t stop, ptrdiff_t step)
{
    return stop > start ? (stop - start + step - 1) / step : 0;
}

/* superposition_search's default cutoff: d0 clipped into [4.5, 8] */
static double clip_d0(double d0)
{
    const double x = d0 > 4.5 ? d0 : 4.5;
    return x < 8.0 ? x : 8.0;
}

/* Indices of the keep best of nwin scores, best first, into top: numpy's
 * stable argsort of -tms, i.e. descending score, NaN last, ties by index.
 * Returns how many (min(keep, nwin)). */
static ptrdiff_t rank_top(const double *tms, ptrdiff_t nwin, ptrdiff_t keep,
                          ptrdiff_t *top)
{
    ptrdiff_t w, k, j, n = 0;
    for (w = 0; w < nwin; ++w) {
        const double x = tms[w];
        /* a later window moves ahead only of one it strictly beats */
        for (k = n; k > 0; --k) {
            const double y = tms[top[k - 1]];
            if (!(x == x && (y != y || x > y))) break;
        }
        if (k >= keep) continue;
        if (n < keep) ++n;
        for (j = n - 1; j > k; --j) top[j] = top[j - 1];
        top[k] = w;
    }
    return n;
}

/* The scan geometry of one pair, as gapless_threading and
 * fragment_threading lay it out. */
struct scans {
    ptrdiff_t mo, stride, ngap;                  /* gapless: shifts */
    int frag, swap;                              /* fragment: any, swapped */
    ptrdiff_t ls, ll, flen, step, nf, ns;        /* fragment: placements */
};

/* Returns 0, or -6 when the fragment fraction is 0 (Python's // raises). */
static int scan_geometry(ptrdiff_t la, ptrdiff_t lb, int threading, int fragment,
                         ptrdiff_t stride, ptrdiff_t fraction,
                         ptrdiff_t min_seed_len, struct scans *g)
{
    memset(g, 0, sizeof *g);
    g->stride = stride > 1 ? stride : 1;
    if (threading) {
        g->mo = la < lb ? la : lb;
        if (g->mo > 5) g->mo = 5;
        g->ngap = arange_len(-(lb - g->mo), la - g->mo + 1, g->stride);
    }
    if (!fragment) return 0;
    if (fraction == 0) return -6;
    g->swap = la > lb;
    g->ls = g->swap ? lb : la;
    g->ll = g->swap ? la : lb;
    g->flen = floordiv(g->ls, fraction);
    if (g->flen < min_seed_len) g->flen = min_seed_len;
    if (g->flen < min_seed_len || g->flen >= g->ls) return 0;
    g->frag = 1;
    g->step = floordiv(g->flen, 2) > 1 ? floordiv(g->flen, 2) : 1;
    g->nf = arange_len(0, g->ls - g->flen + 1, g->step);
    g->ns = arange_len(0, g->ll - g->flen + 1, g->stride);
    return 0;
}

/* Windows of the larger scan, and the doubles of windows_scan() scratch
 * either scan takes (no window is longer than the shorter chain). */
static ptrdiff_t scan_windows(const struct scans *g)
{
    const ptrdiff_t nfrag = g->nf * g->ns;
    return g->ngap > nfrag ? g->ngap : nfrag;
}

static ptrdiff_t scan_doubles(ptrdiff_t la, ptrdiff_t lb, const struct scans *g)
{
    const ptrdiff_t cap = la < lb ? la : lb;
    const ptrdiff_t gap = windows_doubles(la, lb, g->ngap, cap, 2);
    const ptrdiff_t frag = windows_doubles(la, lb, g->nf * g->ns, cap, 1);
    return gap > frag ? gap : frag;
}

/* Workspace of tm_align_pair: the refinement loop's (whose score matrix,
 * DP matrices, gathered pairs and search scratch the other stages reuse),
 * the final searches' seeds, the windows (starts, lengths, scores, scan
 * scratch), five candidate alignments, the best one, and the refinement
 * loop's output. */
static ptrdiff_t align_bytes(ptrdiff_t la, ptrdiff_t lb, const struct scans *g,
                             ptrdiff_t nfracs, ptrdiff_t nrfracs,
                             ptrdiff_t max_iters)
{
    const ptrdiff_t cap = la < lb ? la : lb;
    return refine_bytes(la, lb, nrfracs, max_iters)
           + 8 * (2 * nfracs * (cap + 1)                   /* seeds */
                  + 4 * scan_windows(g)                    /* a0, b0, lens, tms */
                  + scan_doubles(la, lb, g)                /* scan scratch */
                  + 6 * 2 * cap                            /* candidates, best */
                  + 19 + 2 * cap);                         /* refine output */
}

/* One candidate alignment: n pairs (ai[k], aj[k]) and its dp_score */
struct cand {
    int64_t *ai, *aj;
    ptrdiff_t n;
    double dp;
};

static void gather(const double *xa, const double *ya, const struct cand *c,
                   double *pa, double *pb)
{
    ptrdiff_t k;
    for (k = 0; k < c->n; ++k) {
        memcpy(pa + 3 * k, xa + 3 * c->ai[k], sizeof(double) * 3);
        memcpy(pb + 3 * k, ya + 3 * c->aj[k], sizeof(double) * 3);
    }
}

/* The DP alignment of the (la, lb) score matrix S into c */
static void dp_align(const struct refine_ws *w, ptrdiff_t la, ptrdiff_t lb,
                     double gap, struct cand *c, int64_t *ops)
{
    nw_forward(w->M, w->Ix, w->Iy, w->S, la, lb, lb + 1, lb, gap);
    ops[3] += la * lb;
    c->n = nw_traceback(w->M, w->Ix, w->Iy, w->S, la, lb, lb + 1, lb, gap,
                        c->ai, c->aj, &c->dp);
}

/* align.tm_align for one pair, with the compiled stages in the Python
 * orchestration's order:
 *
 * - the gapless scan (keep 2) and its top two shifts; the SS DP on the
 *   0/1 match matrix of the SS codes; the fragment scan (keep 1) and its
 *   first best placement, NaN last (the candidates, in this order, for
 *   each init switched on in `flags`: 1 threading, 2 SS, 4 fragment,
 *   8 combined);
 * - the (1,)-seed search of each candidate of >= 3 pairs; the combined
 *   matrix ss_mix * SS + (1 - ss_mix) * score_matrix under the first best
 *   of those transforms, in NumPy's op order, and its DP;
 * - refine_core() of each candidate of >= 3 pairs not equal to an earlier
 *   one, keeping the first strictly best; when none scores above -1, the
 *   first candidate with the identity;
 * - the full-schedule searches normalised by la and by lb, and the RMSD
 *   of the best transform over the best alignment, summed in NumPy's
 *   order (contiguous (n, 3) array: one pairwise sum over 3n).
 *
 * xa/ya are (la, 3) and (lb, 3); ssa/ssb the SS codes; seqa/seqb the
 * sequences as UTF-32 code units (for the identity count).  iparams:
 * flags, max_refine_iters, refine_patience, max_score_iters,
 * min_seed_len, threading_stride, fragment_fraction, then the count and
 * values of the seed fractions, then of the refinement's seed fractions.
 * dparams: gap_open, ss_gap_open, ss_mix, d0 of min(la, lb), of la and
 * of lb.
 *
 * out gets 16 doubles: tm_a, tm_b, rmsd, the best alignment's dp_score,
 * rotation, translation; then as int64 the alignment length, the
 * identical pairs, the kabsch, kabsch_point, score_pair and dp_cell
 * counts, and the i and j indices (min(la, lb) slots each).  All scratch
 * is carved from the 8-byte aligned ws of ws_bytes bytes.
 *
 * Returns 0; the bytes needed when ws is smaller (before any work); or
 * -2 (a window outside the chains), -3 (a seed fraction below 1), -4
 * (the best alignment has fewer than 3 pairs), -5 (no initial alignment
 * switched on), -6 (fragment fraction 0), as the Python path raises. */
HOT ptrdiff_t tm_align_pair(const double *xa, ptrdiff_t la, const double *ya,
                            ptrdiff_t lb, const unsigned char *ssa,
                            const unsigned char *ssb, const uint32_t *seqa,
                            const uint32_t *seqb, const int64_t *iparams,
                            const double *dparams, double *out,
                            unsigned char *ws, ptrdiff_t ws_bytes)
{
    const ptrdiff_t flags = iparams[0], max_iters = iparams[1];
    const ptrdiff_t patience = iparams[2], max_score_iters = iparams[3];
    const ptrdiff_t min_seed_len = iparams[4], nfracs = iparams[7];
    const int64_t *fracs = iparams + 8, *rfracs = fracs + nfracs + 1;
    const ptrdiff_t nrfracs = fracs[nfracs];
    const double gap = dparams[0], ss_gap = dparams[1], mix = dparams[2];
    const double d0 = dparams[3], d0_a = dparams[4], d0_b = dparams[5];
    const ptrdiff_t cap = la < lb ? la : lb, lmin = cap;
    const int64_t one = 1;
    int64_t *ops = (int64_t *)(out + 16) + 2, *seeds, *a0, *b0, *lens, *ci;
    double *tms, *scan, *ro, best_tm = -1.0, rot_q[9], tra_q[3], rot[9], tra[3];
    double tm, q = -1.0, *rot_out = out + 4, *tra_out = out + 13;
    struct refine_ws w;
    struct scans g;
    struct cand cands[5], best;
    ptrdiff_t ncand = 0, need, k, c, h, top[2], nwin, pts, mmax, nseeds;
    unsigned char *p;
    int rc;

    rc = scan_geometry(la, lb, flags & 1, flags & 4, iparams[5], iparams[6],
                       min_seed_len, &g);
    if (rc) return rc;
    if (nfracs < 1 || nrfracs < 1) return -3;
    for (k = 0; k < nfracs; ++k)
        if (fracs[k] < 1) return -3;
    for (k = 0; k < nrfracs; ++k)
        if (rfracs[k] < 1) return -3;
    need = align_bytes(la, lb, &g, nfracs, nrfracs, max_iters);
    if (ws == NULL || ws_bytes < need) return need;

    /* carve */
    refine_carve(ws, la, lb, nrfracs, max_iters, &w);
    p = ws + refine_bytes(la, lb, nrfracs, max_iters);
    seeds = (int64_t *)p;
    a0 = seeds + 2 * nfracs * (cap + 1);
    nwin = scan_windows(&g);
    b0 = a0 + nwin;
    lens = b0 + nwin;
    tms = (double *)(lens + nwin);
    scan = tms + nwin;
    ci = (int64_t *)(scan + scan_doubles(la, lb, &g));
    for (k = 0; k < 5; ++k) {
        cands[k].ai = ci + 2 * k * cap;
        cands[k].aj = cands[k].ai + cap;
    }
    best.ai = ci + 10 * cap;
    best.aj = best.ai + cap;
    ro = (double *)(best.aj + cap); /* refine_core's output */
    ops[0] = ops[1] = ops[2] = ops[3] = 0;
    dp_bounds(w.M, w.Ix, w.Iy, la, lb);

    /* gapless threading: shifts ascend, so ties rank by shift */
    if (flags & 1) {
        for (k = 0; k < g.ngap; ++k) {
            const int64_t shift = -(lb - g.mo) + k * g.stride;
            const int64_t end = la < lb + shift ? la : lb + shift;
            a0[k] = shift > 0 ? shift : 0;
            b0[k] = a0[k] - shift;
            lens[k] = end - a0[k];
        }
        if (!windows_valid(la, lb, a0, b0, lens, g.ngap, &mmax, &pts)) return -2;
        windows_scan(xa, la, ya, lb, a0, b0, lens, g.ngap, mmax, d0, lmin, 2,
                     tms, scan);
        ops[0] += g.ngap;
        ops[1] += pts;
        ops[2] += pts;
        for (h = rank_top(tms, g.ngap, 2, top), k = 0; k < h; ++k) {
            struct cand *cd = &cands[ncand++];
            cd->n = lens[top[k]];
            for (c = 0; c < cd->n; ++c) {
                cd->ai[c] = a0[top[k]] + c;
                cd->aj[c] = b0[top[k]] + c;
            }
            cd->dp = tms[top[k]];
        }
    }
    /* secondary-structure DP: match 1, mismatch 0 */
    if (flags & 2) {
        for (k = 0; k < la; ++k)
            for (c = 0; c < lb; ++c) w.S[k * lb + c] = ssa[k] == ssb[c];
        dp_align(&w, la, lb, ss_gap, &cands[ncand++], ops);
    }
    /* fragment threading: short[fstart:] onto long[shift:], fragment-major */
    if (g.frag) {
        const double *sh = g.swap ? ya : xa, *lo = g.swap ? xa : ya;
        const ptrdiff_t n = g.nf * g.ns;
        struct cand *cd;
        for (k = 0; k < n; ++k) {
            a0[k] = (k / g.ns) * g.step;
            b0[k] = (k % g.ns) * g.stride;
            lens[k] = g.flen;
        }
        if (!windows_valid(g.ls, g.ll, a0, b0, lens, n, &mmax, &pts)) return -2;
        windows_scan(sh, g.ls, lo, g.ll, a0, b0, lens, n, mmax, d0, lmin, 1,
                     tms, scan);
        ops[0] += n;
        ops[1] += pts;
        ops[2] += pts;
        rank_top(tms, n, 1, top);
        cd = &cands[ncand++];
        cd->n = g.flen;
        for (c = 0; c < g.flen; ++c) {
            cd->ai[c] = (g.swap ? b0 : a0)[top[0]] + c;
            cd->aj[c] = (g.swap ? a0 : b0)[top[0]] + c;
        }
        cd->dp = tms[top[0]];
    }
    if (!ncand && !(flags & 8)) return -5;

    /* quick (1,)-seed searches: the combined init's superposition */
    for (k = 0; k < 9; ++k) rot_q[k] = (k % 4 == 0) ? 1.0 : 0.0;
    tra_q[0] = tra_q[1] = tra_q[2] = 0.0;
    for (c = 0; c < ncand; ++c) {
        if (cands[c].n < 3) continue;
        gather(xa, ya, &cands[c], w.pa, w.pb);
        nseeds = seed_schedule(cands[c].n, &one, 1, min_seed_len, seeds);
        search(w.pa, w.pb, cands[c].n, seeds, nseeds, d0, lmin, clip_d0(d0),
               max_score_iters, w.dist, w.idx, w.ga, &tm, rot, tra, ops);
        if (tm > q) {
            q = tm;
            memcpy(rot_q, rot, sizeof rot);
            memcpy(tra_q, tra, sizeof tra);
        }
    }
    /* combined: mix * ss + (1 - mix) * score, as three in-place ufuncs */
    if (flags & 8) {
        const double keep = 1.0 - mix;
        score_matrix(xa, la, ya, lb, rot_q, tra_q, d0, w.mv, w.asq, w.bsq,
                     w.trow, w.S);
        ops[2] += la * lb;
        for (k = 0; k < la; ++k)
            for (c = 0; c < lb; ++c) {
                const double ss = (ssa[k] == ssb[c]) * mix;
                w.S[k * lb + c] = ss + w.S[k * lb + c] * keep;
            }
        dp_align(&w, la, lb, gap, &cands[ncand++], ops);
    }

    /* refinement of each distinct candidate of >= 3 pairs */
    best.n = -1;
    for (c = 0; c < ncand; ++c) {
        const struct cand *cd = &cands[c];
        const int64_t *ints = (const int64_t *)(ro + 14);
        int dup = 0;
        if (cd->n < 3) continue;
        for (h = 0; h < c && !dup; ++h)
            dup = cands[h].n == cd->n
                  && memcmp(cands[h].ai, cd->ai, sizeof(int64_t) * cd->n) == 0
                  && memcmp(cands[h].aj, cd->aj, sizeof(int64_t) * cd->n) == 0;
        if (dup) continue;
        refine_core(xa, la, ya, lb, cd->ai, cd->aj, cd->n, rfracs, nrfracs,
                    min_seed_len, max_score_iters, max_iters, patience, d0,
                    lmin, clip_d0(d0), gap, (unsigned char *)ro, &w);
        for (k = 0; k < 4; ++k) ops[k] += ints[1 + k];
        if (!(ro[0] > best_tm)) continue;
        best_tm = ro[0];
        memcpy(rot_out, ro + 2, sizeof(double) * 12);
        if (ints[0] < 0) {
            best.n = cd->n;
            best.dp = cd->dp;
            memcpy(best.ai, cd->ai, sizeof(int64_t) * cd->n);
            memcpy(best.aj, cd->aj, sizeof(int64_t) * cd->n);
        } else {
            best.n = ints[0];
            best.dp = ro[1];
            memcpy(best.ai, ints + 5, sizeof(int64_t) * best.n);
            memcpy(best.aj, ints + 5 + cap, sizeof(int64_t) * best.n);
        }
    }
    if (best.n < 3) { /* degenerate tiny chains: the first candidate */
        best.n = cands[0].n;
        best.dp = cands[0].dp;
        memcpy(best.ai, cands[0].ai, sizeof(int64_t) * best.n);
        memcpy(best.aj, cands[0].aj, sizeof(int64_t) * best.n);
        for (k = 0; k < 9; ++k) rot_out[k] = (k % 4 == 0) ? 1.0 : 0.0;
        tra_out[0] = tra_out[1] = tra_out[2] = 0.0;
    }
    if (best.n < 3) return -4;

    /* final scores, normalised by each chain, with the full schedule */
    gather(xa, ya, &best, w.pa, w.pb);
    nseeds = seed_schedule(best.n, fracs, nfracs, min_seed_len, seeds);
    search(w.pa, w.pb, best.n, seeds, nseeds, d0_a, la, clip_d0(d0_a),
           max_score_iters, w.dist, w.idx, w.ga, out, rot, tra, ops);
    search(w.pa, w.pb, best.n, seeds, nseeds, d0_b, lb, clip_d0(d0_b),
           max_score_iters, w.dist, w.idx, w.ga, out + 1, rot, tra, ops);
    /* RMSD under the best transform, the squared differences in the
     * score matrix's 3 la doubles of scratch */
    {
        double *sq = w.mv;
        for (k = 0; k < best.n; ++k)
            for (c = 0; c < 3; ++c) {
                double acc = 0.0;
                acc = fma(w.pa[3 * k + 0], rot_out[3 * c + 0], acc);
                acc = fma(w.pa[3 * k + 1], rot_out[3 * c + 1], acc);
                acc = fma(w.pa[3 * k + 2], rot_out[3 * c + 2], acc);
                acc = (acc + tra_out[c]) - w.pb[3 * k + c];
                sq[3 * k + c] = acc * acc;
            }
        out[2] = sqrt((0.0 + pairwise_sum(sq, 3 * best.n)) / (double)best.n);
    }
    out[3] = best.dp;
    {
        int64_t *ints = (int64_t *)(out + 16), ident = 0;
        ints[0] = best.n;
        for (k = 0; k < best.n; ++k) ident += seqa[best.ai[k]] == seqb[best.aj[k]];
        ints[1] = ident;
        memcpy(ints + 6, best.ai, sizeof(int64_t) * best.n);
        memcpy(ints + 6 + cap, best.aj, sizeof(int64_t) * best.n);
    }
    return 0;
}
"""

_P = ctypes.c_void_p
_N = ctypes.c_ssize_t
_D = ctypes.c_double


def _load() -> tuple:
    """The kernel built for the best target this CPU runs whose build
    succeeds (a compiler that does not know a target falls to the next),
    and that target; ``(None, None)`` when none loads."""
    for target in cpu_targets():
        lib = load_library(
            "tmalign", _SOURCE, NATIVE_DP_ENV, libs=("-lm",), target=target
        )
        if lib is not None:
            return lib, target
    return None, None


def _library() -> Optional[ctypes.CDLL]:
    return _load()[0]


def kernel_target() -> Optional[str]:
    """The instruction-set target of the kernel this process loads (one
    of :data:`repro._native.TARGETS`), or None when none loads."""
    return _load()[1]


def load_forward_kernel() -> Optional[ctypes._CFuncPtr]:
    """ctypes handle to ``nw_forward``, or None when unavailable."""
    lib = _library()
    if lib is None:
        return None
    fn = lib.nw_forward
    fn.restype = None
    # M, Ix, Iy, score, la, lb, stride (doubles), sstride (doubles), gap
    fn.argtypes = [_P, _P, _P, _P, _N, _N, _N, _N, _D]
    return fn


# dgesdd's 3x3 path, in the order tm_bind takes it
_SVD_CHAIN = ("dgebd2", "dlasdq", "dorm2r", "dorml2", "dlamch")


def _bundled_blas() -> Optional[tuple]:
    """Addresses of ``dgesdd``, ``cblas_dgemv``, ``cblas_dgemm`` in NumPy's
    OpenBLAS, then the ``_SVD_CHAIN`` routines as a ctypes array (None
    when the library does not export them all).

    NumPy wheels bundle one ``libscipy_openblas64_`` next to the package;
    any other layout returns None (the NumPy path then stays in use).
    """
    pattern = os.path.join(
        os.path.dirname(np.__file__), os.pardir, "numpy.libs",
        "libscipy_openblas64_*.so",
    )
    found = glob.glob(pattern)
    if len(found) != 1:
        return None
    try:
        blas = ctypes.CDLL(found[0])
        core = tuple(
            ctypes.cast(getattr(blas, name), _P).value
            for name in ("scipy_dgesdd_64_", "scipy_cblas_dgemv64_",
                         "scipy_cblas_dgemm64_")
        )
    except (OSError, AttributeError):
        return None
    try:
        chain = (_P * len(_SVD_CHAIN))(*(
            ctypes.cast(getattr(blas, f"scipy_{name}_64_"), _P)
            for name in _SVD_CHAIN
        ))
    except AttributeError:
        chain = None
    return (*core, chain)


_SCRATCH = threading.local()
#: byte alignment of the scratch buffer's start
SCRATCH_ALIGN = 64


def scratch(nbytes: int) -> np.ndarray:
    """This thread's grow-only byte buffer, at least ``nbytes`` long.

    One buffer serves ``tm_align_pair`` and the DP workspace of
    :mod:`repro.tmalign.dp`: neither's contents outlive its own call,
    and neither call runs inside the other.  It is per thread because
    ctypes releases the GIL inside the kernels and a service evaluates
    batches in several threads.  Sized by the largest pair the thread
    has seen; it never shrinks.  ``_SCRATCH.addr`` caches its address,
    a multiple of :data:`SCRATCH_ALIGN`, which ``tm_align_pair``'s carve
    relies on.
    """
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.nbytes < nbytes:
        raw = np.empty(nbytes + SCRATCH_ALIGN, dtype=np.uint8)
        start = -raw.ctypes.data % SCRATCH_ALIGN
        buf = _SCRATCH.buf = raw[start:start + nbytes]
        _SCRATCH.addr = buf.ctypes.data
    return buf


def _f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _fn(lib: ctypes.CDLL, name: str, restype, argtypes: list):
    fn = getattr(lib, name)
    fn.restype = restype
    fn.argtypes = argtypes
    return fn


class TMKernels:
    """Front-ends of the search, traceback and whole-pair entry points,
    plus test and probe hooks.

    ``search``, ``traceback`` and ``align`` are the one native call of
    ``superposition_search``, ``nw_align``'s walk and ``tm_align``; each
    validates its arguments before a pointer reaches C (index bounds in
    C, which reports them by return code) and returns or charges the op
    totals the NumPy path charges.

    The hooks expose what a whole-pair comparison cannot see:

    * ``scores`` — the score matrix ``tm_align_pair`` builds.  A last-bit
      difference at a GEMM column edge tile rarely changes a
      ``tm_align`` result (a kernel with an fma-chain cross product
      matched the NumPy path on a whole 24 x 220 pair), so the load-time
      probe and the tests compare the matrix itself with
      ``tm_score_matrix``.
    * ``window_screens`` — each threading window's screened score and
      error bound, which tests hold against the exact NumPy scores.
    * ``window_counts``, ``svd_counts`` — per-thread counters that
      ``bench --kernel`` reports.
    * ``svd3`` — the dgesdd chain's factors, checked against ``dgesdd``
      at load; ``rotations`` — the memoised Kabsch rotation.

    ``svd_chain`` says whether the Kabsch SVDs take dgesdd's 3x3 path
    directly.
    """

    def __init__(self, lib: ctypes.CDLL, svd_chain: bool) -> None:
        self.svd_chain = svd_chain
        # pa, pb, n, fracs, nfracs, min_seed_len, d0, lnorm, d0_search,
        # max_iters, out
        self._search = _fn(lib, "tm_search", ctypes.c_int,
                           [_P, _P, _N, _P, _N, _N, _D, _D, _D, _N, _P])
        # xa, na, ya, nb, a0, b0, lens, nwin, d0, lnorm, out
        self._window_screens = _fn(lib, "tm_window_screens", _N,
                                   [_P, _N, _P, _N, _P, _P, _P, _N, _D, _D, _P])
        self._window_counts = _fn(lib, "tm_window_counts", None, [_P])
        # M, Ix, Iy, score, la, lb, stride, sstride, gap, ai, aj, dp_score
        self._traceback = _fn(lib, "nw_traceback", _N,
                              [_P, _P, _P, _P, _N, _N, _N, _N, _D, _P, _P, _P])
        # xa, la, ya, lb, rot, tra, d0, S
        self._scores = _fn(lib, "tm_scores", ctypes.c_int,
                           [_P, _N, _P, _N, _P, _P, _D, _P])
        # xa, la, ya, lb, ssa, ssb, seqa, seqb, iparams, dparams, out, ws,
        # ws_bytes
        self._align = _fn(lib, "tm_align_pair", _N,
                          [_P, _N, _P, _N] + [_P] * 8 + [_N])
        # covs, n, reference, out
        self._svd3 = _fn(lib, "tm_svd3", None, [_P, _N, ctypes.c_int, _P])
        # covs, n, rots
        self._rotations = _fn(lib, "tm_rotations", None, [_P, _N, _P])
        self._svd_counts = _fn(lib, "tm_svd_counts", None, [_P])

    def search(
        self,
        pa: np.ndarray,
        pb: np.ndarray,
        fractions,
        min_seed_len: int,
        d0: float,
        lnorm: int,
        d0_search: float,
        max_iters: int,
        counter=None,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """``(best_tm, rotation, translation)`` of the search seeded from
        ``fractions`` as ``tmscore._seed_schedule`` lays them out."""
        pa, pb = _f64(pa), _f64(pb)
        n = pa.shape[0]
        if pb.shape != (n, 3) or pa.shape != (n, 3):
            raise ValueError(f"matched (n, 3) sets required: {pa.shape}/{pb.shape}")
        fracs = _i64(fractions)
        if fracs.ndim != 1:
            raise ValueError("seed fractions must be a 1-D sequence")
        out = np.empty(16)
        rc = self._search(
            pa.ctypes.data, pb.ctypes.data, n, fracs.ctypes.data, fracs.shape[0],
            min_seed_len, d0, lnorm, d0_search, max_iters, out.ctypes.data,
        )
        if rc == -2:
            raise ValueError("seed fractions must be >= 1")
        if rc != 0:
            raise MemoryError("tm_search scratch allocation failed")
        if counter is not None:
            for name, value in zip(("kabsch", "kabsch_point", "score_pair"),
                                   out[13:].view(np.int64).tolist()):
                counter.add(name, value)
        return float(out[0]), out[1:10].reshape(3, 3), out[10:13]

    def window_screens(
        self, mobile, target, starts_m, starts_t, lens, d0: float, lnorm: int
    ) -> np.ndarray:
        """``(nwin, 2)``: the screened score and error bound of each window
        ``mobile[sm:sm+m]`` onto ``target[st:st+m]``, NaN for a window the
        screen sends to exact scoring."""
        mobile, target, sm, st, ln = (
            _f64(mobile), _f64(target), _i64(starts_m), _i64(starts_t), _i64(lens)
        )
        if sm.ndim != 1 or not (sm.shape == st.shape == ln.shape):
            raise ValueError("window start and length arrays must match")
        if mobile.shape[1:] != (3,) or target.shape[1:] != (3,):
            raise ValueError("(n, 3) coordinates required")
        out = np.empty((ln.shape[0], 2))
        rc = self._window_screens(
            mobile.ctypes.data, mobile.shape[0], target.ctypes.data,
            target.shape[0], sm.ctypes.data, st.ctypes.data, ln.ctypes.data,
            ln.shape[0], d0, lnorm, out.ctypes.data,
        )
        if rc == -2:
            raise ValueError("window outside the coordinate sets")
        if rc < 0:
            raise MemoryError("tm_window_screens scratch allocation failed")
        return out

    def window_counts(self) -> tuple[int, int]:
        """This thread's windows scanned and windows scored exactly so far."""
        out = np.empty(2, dtype=np.int64)
        self._window_counts(out.ctypes.data)
        return tuple(out.tolist())

    def traceback(
        self,
        M: np.ndarray,
        Ix: np.ndarray,
        Iy: np.ndarray,
        score: np.ndarray,
        gap: float,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """``(ai, aj, dp_score)`` of the filled DP matrices.

        ``M``/``Ix``/``Iy`` are the ``(la+1, lb+1)`` views ``_forward``
        returns (unit column stride, one shared row stride); ``score`` is
        the ``(la, lb)`` matrix with unit column stride.
        """
        la, lb = score.shape
        if not (
            M.shape == Ix.shape == Iy.shape == (la + 1, lb + 1)
            and M.strides == Ix.strides == Iy.strides
            and M.strides[1] == score.strides[1] == 8
            and M.dtype == score.dtype == np.float64
        ):
            raise ValueError("traceback needs the unit-stride float64 DP views")
        cap = min(la, lb)
        ai = np.empty(cap, dtype=np.intp)
        aj = np.empty(cap, dtype=np.intp)
        dp_score = np.empty(1)
        n = self._traceback(
            M.ctypes.data, Ix.ctypes.data, Iy.ctypes.data, score.ctypes.data,
            la, lb, M.strides[0] // 8, score.strides[0] // 8, gap,
            ai.ctypes.data, aj.ctypes.data, dp_score.ctypes.data,
        )
        return ai[:n].copy(), aj[:n].copy(), float(dp_score[0])

    def scores(
        self, xa: np.ndarray, ya: np.ndarray, rotation, translation, d0: float
    ) -> np.ndarray:
        """The score matrix ``tm_align_pair`` builds: ``1 / (1 + (d / d0)^2)``
        of every pair of ``xa @ R.T + t`` and ``ya``, as
        ``tmscore.tm_score_matrix`` computes it."""
        xa, ya = _f64(xa), _f64(ya)
        rot, tra = _f64(rotation), _f64(translation)
        la, lb = xa.shape[0], ya.shape[0]
        if xa.shape != (la, 3) or ya.shape != (lb, 3):
            raise ValueError(f"(n, 3) coordinates required: {xa.shape}/{ya.shape}")
        if rot.shape != (3, 3) or tra.shape != (3,):
            raise ValueError("a 3x3 rotation and a length-3 translation required")
        out = np.empty((la, lb))
        rc = self._scores(
            xa.ctypes.data, la, ya.ctypes.data, lb, rot.ctypes.data,
            tra.ctypes.data, d0, out.ctypes.data,
        )
        if rc != 0:
            raise MemoryError("tm_scores scratch allocation failed")
        return out

    def align(
        self,
        xa: np.ndarray,
        ya: np.ndarray,
        ss_a: np.ndarray,
        ss_b: np.ndarray,
        seq_a: str,
        seq_b: str,
        d0s: tuple[float, float, float],
        params,
        refine_fractions,
    ) -> tuple:
        """``align.tm_align`` of one pair in one call (``tm_align_pair``).

        ``ss_a``/``ss_b`` are the chains' SS byte codes, ``seq_a``/``seq_b``
        their sequences, ``d0s`` the d0 of the shorter chain, of A and of
        B.  Every ``params`` field the Python path reads goes to C.
        Returns ``(tm_a, tm_b, rmsd, ai, aj, dp_score, rotation,
        translation, identical_pairs, (kabsch, kabsch_point, score_pair,
        dp_cell))``.

        Inputs go to C as bytes objects, which ctypes passes by address
        for a fraction of the cost of an ndarray's ``ctypes.data``.
        """
        xa, ya = _f64(xa), _f64(ya)
        la, lb = xa.shape[0], ya.shape[0]
        if xa.shape != (la, 3) or ya.shape != (lb, 3):
            raise ValueError(f"(n, 3) coordinates required: {xa.shape}/{ya.shape}")
        ss_a = np.asarray(ss_a, dtype=np.uint8).tobytes()
        ss_b = np.asarray(ss_b, dtype=np.uint8).tobytes()
        # fixed-width code units, so residue k is unit k
        seq_a = seq_a.encode("utf-32-le")
        seq_b = seq_b.encode("utf-32-le")
        if (len(ss_a), len(ss_b), len(seq_a), len(seq_b)) != (la, lb, 4 * la, 4 * lb):
            raise ValueError("SS codes and sequences must match the chain lengths")
        fracs = tuple(params.n_seed_fractions)
        rfracs = tuple(refine_fractions)
        iparams = (
            bool(params.use_threading_init) | bool(params.use_ss_init) << 1
            | bool(params.use_fragment_init) << 2
            | bool(params.use_combined_init) << 3,
            params.max_refine_iters, params.refine_patience,
            params.max_score_iters, params.min_seed_len,
            params.threading_stride, params.fragment_fraction,
            len(fracs), *fracs, len(rfracs), *rfracs,
        )
        cap = min(la, lb)
        # 16 doubles (scores, RMSD, dp_score, rotation, translation), then
        # int64: length, identical pairs, 4 op counts, cap i and cap j indices
        out = (ctypes.c_double * (22 + 2 * cap))()
        args = (
            xa.tobytes(), la, ya.tobytes(), lb, ss_a, ss_b, seq_a, seq_b,
            struct.pack(f"<{len(iparams)}q", *iparams),
            struct.pack("<6d", params.gap_open, params.ss_gap_open,
                        params.ss_mix, *d0s),
            out,
        )
        ws = scratch(0)
        rc = self._align(*args, _SCRATCH.addr, ws.nbytes)
        if rc > 0:  # the workspace it needs, in bytes
            ws = scratch(rc)
            rc = self._align(*args, _SCRATCH.addr, ws.nbytes)
        if rc < 0:
            exc, message = _ALIGN_ERRORS[rc]
            raise exc(message)
        ints = np.frombuffer(out, dtype=np.int64, offset=8 * 16)
        n, ident = ints[:2].tolist()
        rot = np.frombuffer(out, count=12, offset=8 * 4)
        return (
            out[0], out[1], out[2], ints[6:6 + n].copy(),
            ints[6 + cap:6 + cap + n].copy(), out[3], rot[:9].reshape(3, 3).copy(),
            rot[9:].copy(), ident, ints[2:6].tolist(),
        )

    def svd3(self, covs: np.ndarray, reference: bool = False) -> np.ndarray:
        """The SVD the kernel takes of each 3x3 in ``covs`` (``reference``:
        plain ``dgesdd``), 22 doubles each: INFO, S, U and VT."""
        covs = _f64(covs)
        if covs.shape[1:] != (3, 3):
            raise ValueError("a stack of 3x3 matrices required")
        out = np.zeros((covs.shape[0], 22))  # a failed call leaves factors unset
        self._svd3(covs.ctypes.data, covs.shape[0], int(reference), out.ctypes.data)
        return out

    def rotations(self, covs: np.ndarray) -> np.ndarray:
        """Kabsch rotation of each 3x3 covariance in ``covs``, through
        this thread's memo, as ``rotations_from_covariances`` computes it."""
        covs = _f64(covs)
        if covs.shape[1:] != (3, 3):
            raise ValueError("a stack of 3x3 matrices required")
        out = np.empty(covs.shape)
        self._rotations(covs.ctypes.data, covs.shape[0], out.ctypes.data)
        return out

    def svd_counts(self) -> tuple[int, int]:
        """This thread's Kabsch SVD requests and memo hits so far."""
        out = np.empty(2, dtype=np.int64)
        self._svd_counts(out.ctypes.data)
        return tuple(out.tolist())


# tm_align_pair's error codes, as the Python path raises them
_ALIGN_ERRORS = {
    -2: (ValueError, "window outside the coordinate sets"),
    -3: (ValueError, "seed fractions must be >= 1"),
    -4: (ValueError, "need at least 3 matched pairs"),
    -5: (ValueError, "all initial alignments disabled"),
    -6: (ZeroDivisionError, "integer division or modulo by zero"),
}


def _svd_battery() -> np.ndarray:
    """Fixed 3x3 covariances on which the chain must match ``dgesdd``.

    General, rank-1, rank-2, repeated-singular-value and signed-zero
    matrices, scaled from 1e-100 to 1e100, then inputs ``dgesdd``
    rescales or rejects (1e-200 and 1e200 scales, zero, NaN, inf), which
    must take ``dgesdd`` itself.
    """
    rng = np.random.default_rng(26)
    g = rng.normal(size=(4, 3, 3))
    u, v = rng.normal(size=(2, 4, 3, 2))
    q = np.linalg.qr(g)[0]
    zeros = g.copy()
    zeros[rng.random(size=g.shape) < 0.4] = 0.0
    zeros[:2, 0, 0] = -0.0
    shapes = np.concatenate([
        g,
        u[..., :1] @ v[..., :1].swapaxes(1, 2),
        u @ v.swapaxes(1, 2),
        q * np.array([2.0, 2.0, 1.0]) @ q.swapaxes(1, 2),
        zeros,
        [np.eye(3), np.diag([1.0, 1.0, 0.0]), -np.eye(3)[::-1]],
    ])
    scales = 10.0 ** np.array([-100, 0, 100])
    edge = np.array([np.full((3, 3), x) for x in (1e-200, 1e200, 0.0, np.nan, np.inf)])
    return np.concatenate([(shapes[:, None] * scales[:, None, None]).reshape(-1, 3, 3), edge])


# Whether the chain matched dgesdd on the battery; taken once per process.
_CHAIN_MATCHES: Optional[bool] = None


def load_tm_kernels() -> Optional[TMKernels]:
    """The search, traceback and whole-pair entry points and the hooks, or None.

    None when the library does not build, ``REPRO_NO_NATIVE_DP`` is set,
    or NumPy does not bundle the OpenBLAS whose SVD, GEMV and GEMM the
    kernels must call to match it.  The dgesdd chain is switched on when
    that OpenBLAS exports it and it matched ``dgesdd`` byte for byte on
    :func:`_svd_battery` (checked once per process).  The caller runs
    :func:`self_check` before trusting the entry points.
    """
    global _CHAIN_MATCHES
    lib = _library()
    blas = _bundled_blas()
    if lib is None or blas is None:
        return None
    bind = _fn(lib, "tm_bind", ctypes.c_int, [_P, _P, _P, _P])
    chain = blas[3] if _CHAIN_MATCHES is not False else None
    if bind(*blas[:3], chain) != 0:
        return None
    kernels = TMKernels(lib, svd_chain=chain is not None)
    if chain is not None and _CHAIN_MATCHES is None:
        battery = _svd_battery()
        _CHAIN_MATCHES = (
            kernels.svd3(battery).tobytes()
            == kernels.svd3(battery, reference=True).tobytes()
        )
        if not _CHAIN_MATCHES:
            bind(*blas[:3], None)
            kernels.svd_chain = False
    return kernels


def native_handles() -> list:
    """:data:`NATIVE_HANDLES` as ``(module, attribute)`` pairs, with the
    modules imported."""
    return [(importlib.import_module(mod), name) for mod, name in NATIVE_HANDLES]


def _probe() -> list:
    """Results of every guarded entry point on a fixed small input.

    Covers seeded searches (proper and reflected fits, and one 300-pair
    covariance, past the K-blocking size of common GEMM kernels), two
    score matrices of the kind ``tm_align_pair`` builds whose last
    columns fall in GEMM edge tiles (where a plain fma chain differs
    from OpenBLAS, and a whole pair rarely shows it), a tie-heavy DP
    traceback, and one whole ``tm_align`` of a 36 x 30 pair.
    Everything is returned as exact reprs and bytes.
    """
    from repro.cost.counters import CostCounter
    from repro.structure.model import Chain
    from repro.tmalign import align, tmscore
    from repro.tmalign.dp import nw_align

    rng = np.random.default_rng(2013)
    xa = np.cumsum(rng.normal(scale=2.0, size=(300, 3)), axis=0)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    ya = xa @ q + rng.normal(scale=0.8, size=xa.shape)
    mirror = ya * np.array([1.0, 1.0, -1.0])
    ctr = CostCounter()
    out: list = []
    for pa, pb, d0, fractions in (
        (xa[:48], ya[:48], 2.5, None),
        (xa[:40], mirror[:40], 3.0, (1, 2)),
        (xa, ya, 4.0, (1,)),
    ):
        tm, xf = tmscore.superposition_search(
            pa, pb, d0, pa.shape[0] + 7, seed_fractions=fractions, counter=ctr
        )
        out.append((repr(tm), xf.rotation.tobytes(), xf.translation.tobytes()))
    # the matrix tm_align_pair builds, whose rows land near the edge
    # columns, where cancellation exposes a last-bit difference of the
    # cross product (the hook while the whole-pair handle is on)
    for rows, lb, d0 in ((slice(196, 220), 220, 3.0), (slice(192, 216), 215, 4.5)):
        if align._NATIVE_ALIGN is not None:
            score = tmscore._KERNELS.scores(
                xa[rows], ya[:lb], xf.rotation, xf.translation, d0
            )
        else:
            score = tmscore.tm_score_matrix(xa[rows], ya[:lb], xf, d0)
        out.append(score.tobytes())
    ties = rng.integers(-2, 3, size=(24, 31)).astype(np.float64)
    ali = nw_align(ties, -1.0, counter=ctr)
    out.append((ali.key(), repr(ali.dp_score)))
    res = align.tm_align(Chain("a", xa[:36]), Chain("b", ya[3:33]), counter=ctr)
    out.append((repr(res.tm_norm_a), repr(res.tm_norm_b), repr(res.rmsd),
                repr(res.seq_identity), res.alignment.key(),
                repr(res.alignment.dp_score), res.transform.rotation.tobytes(),
                res.transform.translation.tobytes()))
    out.append(sorted(ctr.as_dict().items()))
    return out


def self_check() -> bool:
    """Keep the native BLAS-bound entry points only if they match NumPy.

    Runs :func:`_probe` with the :data:`NATIVE_HANDLES` as loaded and
    again on the NumPy path; on any difference the handles stay None, so
    every later call takes the NumPy path (``nw_forward`` is not
    affected).  Returns whether the native entry points are on.
    """
    handles = native_handles()
    loaded = [getattr(mod, name) for mod, name in handles]
    if all(h is None for h in loaded):
        return False
    native = _probe()
    for mod, name in handles:
        setattr(mod, name, None)
    if _probe() != native:
        return False
    for (mod, name), h in zip(handles, loaded):
        setattr(mod, name, h)
    return True
