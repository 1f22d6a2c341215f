"""Compiled TM-align kernel: DP sweep, traceback, superposition search,
threading and the refinement loop.

TM-align's NumPy hot paths are dispatch-bound: the DP forward fill runs
~8 whole-row ufunc calls per row, the superposition search ~100 small
array ops per Kabsch/score/reselect iteration, the threading scans one
Kabsch and one scoring pass per window, and each refinement step
materialises a distance matrix through five ufuncs.  This module
compiles the same dataflow as C loops.  The NumPy code stays the single
reference: every entry point here reproduces it bit for bit, and the
modules that use them fall back to it whenever a handle is None.

* ``nw_forward`` — the Gotoh row sweep of :mod:`repro.tmalign.dp`.  Pure
  additions and binary max selections, so exactness needs only a max
  that equals ``np.maximum`` over the DP's non-NaN values; it is written
  ``b > a ? b : a`` so it compiles to ``maxsd`` rather than a branch.
* ``nw_traceback`` — the corner-to-origin walk of ``nw_align``, with the
  same exact-equality predecessor tests and M > Ix > Iy tie order.
* ``tm_search`` — ``superposition_search``: the seed schedule of its
  fractions, then per seed Kabsch on the seed window, score / reselect
  with cutoff escalation / convergence check, keeping the first strictly
  best score in serial seed order.
* ``tm_windows`` — the GL score of every window of a
  ``gapless_threading`` or ``fragment_threading`` scan, exact for the
  windows that can rank.  Those callers use only the ``keep`` best
  windows (2 shifts, 1 placement), so each window is first screened:
  raw moments, Theobald's QCP rotation (Newton on the Horn matrix's
  characteristic quartic, eigenvector from the adjugate) and a GL score
  on squared distances, with a certified bound of its distance from the
  exact score (``screen``, whose comment derives the bound).  Having no
  summation order to keep, the screen's loops run four pairs per step
  over column copies of the chains.  Only windows whose bound reaches the
  keep-th best lower bound run the exact Kabsch and GL score; the rest
  read ``-inf``, which changes no ranked window, score or op count.
* ``tm_refine`` — ``align._refine`` for one candidate alignment: per
  step the gather of the matched coordinates, the search with the
  ``(1, 2)`` seed schedule, the TM-score matrix of the moved chain, the
  DP sweep and traceback, and the seen-alignment, patience and step-cap
  exits, all in one call.  Its scratch (the score matrix, three DP
  matrices and the alignment history) is carved from :func:`scratch`,
  the calling thread's grow-only buffer, which the NumPy-side DP
  workspace shares.

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
  208-211 of every matrix with ``lb >= 212``.  ``tm_refine`` therefore
  calls the bound ``cblas_dgemm`` with the arguments ``np.matmul``
  passes, and only the elementwise tail of the score is C;
* window means are sequential sums, score sums use NumPy's pairwise
  order, and the rest is elementwise IEEE arithmetic compiled with
  ``-ffp-contract=off``.

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
:func:`self_check` runs the search, window, traceback and refinement
entry points on a fixed probe against the NumPy path when the package
loads and switches them off on any bit difference; ``nw_forward`` does
not depend on BLAS and stays on.  The library is built on first use by
:mod:`repro._native`; set ``REPRO_NO_NATIVE_DP=1`` to disable all of it.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from typing import Optional

import numpy as np

from repro._native import load_library

__all__ = [
    "load_forward_kernel",
    "load_tm_kernels",
    "self_check",
    "TMKernels",
    "NATIVE_DP_ENV",
]

NATIVE_DP_ENV = "REPRO_NO_NATIVE_DP"

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* Hot entry points get an FMA-instruction clone next to the baseline
 * one (glibc ifunc dispatch); both compute fma() with one rounding, so
 * the choice changes speed only. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) \
    && defined(__GLIBC__)
#define HOT __attribute__((target_clones("fma", "default")))
#else
#define HOT
#endif
#define INLINE static inline __attribute__((always_inline))

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
    if (!(det > 0.0)) { /* reflection: diag(1,1,-1), degenerate: (1,1,0) */
        double diag[9] = {1, 0, 0, 0, 1, 0, 0, 0, det == 0.0 ? 0.0 : -1.0};
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

/* Kabsch of pa onto pb over m point pairs: rows a0.. / b0.. when sel is
 * NULL, else the rows i < n with sel[i] (same rows of both sets). */
INLINE void kabsch(const double *pa, const double *pb, ptrdiff_t a0,
                   ptrdiff_t b0, ptrdiff_t m, const unsigned char *sel,
                   ptrdiff_t n, double *rot, double *tra)
{
    double mu_a[3] = {0.0, 0.0, 0.0}, mu_b[3] = {0.0, 0.0, 0.0};
    double cov[9] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0}, y[3];
    ptrdiff_t r, rows = sel ? n : m;
    int p, q;
    pa += 3 * a0;
    pb += 3 * b0;
    for (r = 0; r < rows; ++r) {
        if (sel && !sel[r]) continue;
        for (p = 0; p < 3; ++p) {
            mu_a[p] += pa[3 * r + p];
            mu_b[p] += pb[3 * r + p];
        }
    }
    for (p = 0; p < 3; ++p) {
        mu_a[p] /= (double)m;
        mu_b[p] /= (double)m;
    }
    for (r = 0; r < rows; ++r) {
        double da[3], db[3];
        if (sel && !sel[r]) continue;
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

/* TM-score of m pairs under (rot, tra); dist gets the pair distances,
 * sbuf (m doubles) is scratch. */
INLINE double score(const double *pa, const double *pb, ptrdiff_t m,
                    const double *rot, const double *tra, double d0,
                    double lnorm, double *dist, double *sbuf)
{
    ptrdiff_t i;
    int j;
    for (i = 0; i < m; ++i) {
        double w[3], d;
        for (j = 0; j < 3; ++j) {
            double acc = 0.0;
            acc = fma(pa[3 * i + 0], rot[3 * j + 0], acc);
            acc = fma(pa[3 * i + 1], rot[3 * j + 1], acc);
            acc = fma(pa[3 * i + 2], rot[3 * j + 2], acc);
            acc = (acc + tra[j]) - pb[3 * i + j];
            w[j] = acc * acc;
        }
        /* np.add.reduce: identity 0.0, then the elements in order */
        d = sqrt(((0.0 + w[0]) + w[1]) + w[2]);
        dist[i] = d;
        d = d / d0;
        sbuf[i] = 1.0 / (d * d + 1.0);
    }
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
    kabsch(xa, ya, a0, b0, m, NULL, 0, rot, tra);
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
 * Returns the total window length, -1 when scratch allocation fails, or
 * -2 when a window is empty or outside the sets. */
HOT ptrdiff_t tm_windows(const double *xa, ptrdiff_t na, const double *ya,
                         ptrdiff_t nb, const int64_t *a0, const int64_t *b0,
                         const int64_t *lens, ptrdiff_t nwin, double d0,
                         double lnorm, ptrdiff_t keep, double *tms)
{
    ptrdiff_t w, k, mmax, points, nd;
    double *buf, *hi, *top, *ca, *cb, lowk;
    unsigned char *open;
    if (!windows_valid(na, nb, a0, b0, lens, nwin, &mmax, &points)) return -2;
    if (keep >= nwin || !(d0 > 0.0) || !(lnorm > 0.0)) keep = 0;
    /* exact-score scratch; with keep, the chains' columns, the upper
     * bounds, the top lower bounds and the open flags */
    nd = 2 * mmax + (keep ? 3 * (na + nb) + nwin + keep : 0);
    buf = malloc(sizeof(double) * nd + (keep ? nwin : 0));
    if (!buf) return -1;
    win_counts[0] += nwin;
    if (!keep) {
        for (w = 0; w < nwin; ++w)
            tms[w] = window_exact(xa, ya, a0[w], b0[w], lens[w], d0, lnorm,
                                  buf, buf + mmax);
        free(buf);
        return points;
    }
    ca = buf + 2 * mmax;
    cb = ca + 3 * na;
    hi = cb + 3 * nb;
    top = hi + nwin; /* the keep largest lower bounds, descending */
    open = (unsigned char *)(top + keep);
    columns(xa, na, ca);
    columns(ya, nb, cb);
    for (k = 0; k < keep; ++k) top[k] = -INFINITY;
    for (w = 0; w < nwin; ++w) {
        double f, eps, lo;
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
    free(buf);
    return points;
}

/* The screen of each window as tm_windows runs it: f and eps per window
 * in out[2w], out[2w+1], both NaN where the window goes exact.  Returns
 * tm_windows' codes. */
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

/* superposition_search over n matched pairs.  seeds holds (start, len)
 * per seed in schedule order; dist (2n doubles) and sel (2n bytes) are
 * scratch.  Writes the first strictly best score and its transform
 * (identity and -1 if none beats -1) and adds the kabsch, kabsch_point
 * and score_pair counts to ops[0..2]. */
INLINE void search(const double *pa, const double *pb, ptrdiff_t n,
                   const int64_t *seeds, ptrdiff_t nseeds, double d0,
                   double lnorm, double d0_search, ptrdiff_t max_iters,
                   double *dist, unsigned char *sel, double *best_tm,
                   double *best_rot, double *best_tra, int64_t *ops)
{
    ptrdiff_t s, it, i;
    *best_tm = -1.0;
    for (i = 0; i < 9; ++i) best_rot[i] = (i % 4 == 0) ? 1.0 : 0.0;
    for (i = 0; i < 3; ++i) best_tra[i] = 0.0;
    for (s = 0; s < nseeds; ++s) {
        double rot[9], tra[3];
        unsigned char *cur = sel, *prev = sel + n, *tmp;
        int has_prev = 0;
        kabsch(pa, pb, seeds[2 * s], seeds[2 * s], seeds[2 * s + 1], NULL, 0,
               rot, tra);
        ops[0] += 1;
        ops[1] += seeds[2 * s + 1];
        for (it = 0; it < max_iters; ++it) {
            double tm, cut = d0_search;
            ptrdiff_t cnt = 0;
            tm = score(pa, pb, n, rot, tra, d0, lnorm, dist, dist + n);
            ops[2] += n;
            if (tm > *best_tm) {
                *best_tm = tm;
                memcpy(best_rot, rot, sizeof rot);
                memcpy(best_tra, tra, sizeof tra);
            }
            /* widen the cutoff by 0.5 until >= 3 pairs or 8 A */
            for (i = 0; i < n; ++i) cnt += (cur[i] = dist[i] < cut);
            while (cnt < 3 && cut < 8.0) {
                cut += 0.5;
                cnt = 0;
                for (i = 0; i < n; ++i) cnt += (cur[i] = dist[i] < cut);
            }
            if (cnt < 3) break; /* hopeless seed: nothing is close */
            if (has_prev && memcmp(cur, prev, n) == 0) break; /* converged */
            has_prev = 1;
            kabsch(pa, pb, 0, 0, cnt, cur, n, rot, tra);
            ops[0] += 1;
            ops[1] += cnt;
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
    dist = malloc(sizeof(double) * (2 * n + 2 * nseeds_max) + 2 * n);
    if (!dist) return -1;
    seeds = (int64_t *)(dist + 2 * n);
    search(pa, pb, n, seeds,
           seed_schedule(n, fracs, nfracs, min_seed_len, seeds), d0, lnorm,
           d0_search, max_iters, dist, (unsigned char *)(seeds + 2 * nseeds_max),
           out, out + 1, out + 10, ops);
    memcpy(out + 13, ops, sizeof ops);
    free(dist);
    return 0;
}

/* TM-score terms of every residue pair under (rot, tra), as
 * tmscore.tm_score_matrix builds them: cross_distances(xf.apply(xa), ya)
 * then the in-place 1 / (1 + (d / d0)^2).  The transform is score()'s
 * fma form.  The cross product a @ b.T calls the bound dgemm with the
 * arguments np.matmul passes: OpenBLAS switches kernels at its column
 * tile edges (columns 208-211 at lb = 215, 216-219 at lb = 220 on one
 * build), where a hand-written fma chain differs in the last bit.  The
 * rest is elementwise in NumPy's op order and vectorises without
 * changing a bit.  mv (3 la), asq (la) and bsq (lb) are scratch; S gets
 * la rows of leading stride lb. */
INLINE void score_matrix(const double *restrict xa, ptrdiff_t la,
                         const double *restrict ya, ptrdiff_t lb,
                         const double *rot, const double *tra, double d0,
                         double *restrict mv, double *restrict asq,
                         double *restrict bsq, double *restrict S)
{
    ptrdiff_t i, j;
    int k;
    for (i = 0; i < la; ++i) {
        for (k = 0; k < 3; ++k) {
            double acc = 0.0;
            acc = fma(xa[3 * i + 0], rot[3 * k + 0], acc);
            acc = fma(xa[3 * i + 1], rot[3 * k + 1], acc);
            acc = fma(xa[3 * i + 2], rot[3 * k + 2], acc);
            mv[3 * i + k] = acc + tra[k];
        }
        asq[i] = (mv[3 * i] * mv[3 * i] + mv[3 * i + 1] * mv[3 * i + 1])
                 + mv[3 * i + 2] * mv[3 * i + 2];
    }
    for (j = 0; j < lb; ++j)
        bsq[j] = (ya[3 * j] * ya[3 * j] + ya[3 * j + 1] * ya[3 * j + 1])
                 + ya[3 * j + 2] * ya[3 * j + 2];
    blas_gemm(101 /* RowMajor */, 111 /* NoTrans */, 112 /* Trans */, la, lb,
              3, 1.0, mv, 3, ya, 3, 0.0, S, lb);
    for (i = 0; i < la; ++i) {
        double *restrict row = S + i * lb;
        const double a = asq[i];
        for (j = 0; j < lb; ++j) {
            double d = (a + bsq[j]) - 2.0 * row[j];
            d = 0.0 > d ? 0.0 : d; /* np.maximum(d, 0.0), NaN kept */
            d = __builtin_sqrt(d) / d0;
            row[j] = 1.0 / (d * d + 1.0);
        }
    }
}

/* score_matrix() as an entry point.  Returns 0, or -1 when scratch
 * allocation fails. */
HOT int tm_scores(const double *xa, ptrdiff_t la, const double *ya,
                  ptrdiff_t lb, const double *rot, const double *tra,
                  double d0, double *S)
{
    double *buf = malloc(sizeof(double) * (4 * la + lb + 1));
    if (!buf) return -1;
    score_matrix(xa, la, ya, lb, rot, tra, d0, buf, buf + 3 * la,
                 buf + 4 * la, S);
    free(buf);
    return 0;
}

/* _refine for one starting alignment (ai0, aj0, n0): alternate the
 * seeded superposition search and the DP on the TM-score matrix until
 * the alignment repeats one seen in this call, the score has not
 * improved for `patience` steps, or after `max_iters` steps.
 *
 * out gets 14 doubles: the best search score (-1 if none), the corner
 * score of the best DP alignment, and the best rotation (identity if
 * none) and translation; then as int64 the best alignment's length (-1
 * when the starting alignment stayed best), the kabsch, kabsch_point,
 * score_pair and dp_cell counts, and the best alignment's i and j
 * indices (min(la, lb) slots each).  All scratch is carved from the
 * caller's 8-byte aligned workspace ws of ws_bytes bytes (see
 * tm_refine_bytes).  Returns 0, -1 when ws is too small, -2 when the
 * alignment indexes outside the chains, or -3 when there is no seed
 * fraction or one is below 1. */
static void refine_sizes(ptrdiff_t la, ptrdiff_t lb, ptrdiff_t nfracs,
                         ptrdiff_t max_iters, ptrdiff_t *nf, ptrdiff_t *nh,
                         ptrdiff_t *ns, ptrdiff_t *nsel)
{
    const ptrdiff_t cap = la < lb ? la : lb, cells = (la + 1) * (lb + 1);
    *nf = 8 * cap + 4 * la + lb + la * lb + 3 * cells + max_iters + 1;
    *nh = 2 * (max_iters + 1) * cap + max_iters + 1;
    *ns = 2 * nfracs * (cap + 1);
    *nsel = 2 * cap + 1;
}

ptrdiff_t tm_refine_bytes(ptrdiff_t la, ptrdiff_t lb, ptrdiff_t nfracs,
                          ptrdiff_t max_iters)
{
    ptrdiff_t nf, nh, ns, nsel;
    refine_sizes(la, lb, nfracs, max_iters, &nf, &nh, &ns, &nsel);
    return sizeof(double) * nf + sizeof(ptrdiff_t) * nh
           + sizeof(int64_t) * ns + nsel;
}

HOT int tm_refine(const double *xa, ptrdiff_t la, const double *ya,
                  ptrdiff_t lb, const int64_t *ai0, const int64_t *aj0,
                  ptrdiff_t n0, const int64_t *fracs, ptrdiff_t nfracs,
                  ptrdiff_t min_seed_len, ptrdiff_t max_score_iters,
                  ptrdiff_t max_iters, ptrdiff_t patience, double d0,
                  double lnorm, double d0_search, double gap,
                  unsigned char *out, unsigned char *ws, ptrdiff_t ws_bytes)
{
    const ptrdiff_t cap = la < lb ? la : lb, stride = lb + 1;
    const ptrdiff_t cells = (la + 1) * stride;
    double *best_tm = (double *)out, *best_dp = best_tm + 1;
    double *best_rot = best_tm + 2, *best_tra = best_tm + 11;
    int64_t *best_n = (int64_t *)(best_tm + 14), *ops = best_n + 1;
    int64_t *best_ai = ops + 4, *best_aj = best_ai + cap;
    ptrdiff_t *hai, *haj, *hn, it, k, nh = 1, cur = 0, best = 0, stale = 0;
    ptrdiff_t n_f, n_h, n_s, n_sel;
    double *fbuf, *pa, *pb, *dist, *mv, *asq, *bsq, *S, *M, *Ix, *Iy, *hdp;
    int64_t *seeds;
    unsigned char *sel;

    for (k = 0; k < n0; ++k)
        if (ai0[k] < 0 || ai0[k] >= la || aj0[k] < 0 || aj0[k] >= lb)
            return -2;
    if (nfracs < 1) return -3;
    for (k = 0; k < nfracs; ++k)
        if (fracs[k] < 1) return -3;
    refine_sizes(la, lb, nfracs, max_iters, &n_f, &n_h, &n_s, &n_sel);
    if (ws == NULL || ws_bytes < tm_refine_bytes(la, lb, nfracs, max_iters))
        return -1;
    fbuf = (double *)ws;
    hai = (ptrdiff_t *)(fbuf + n_f);
    seeds = (int64_t *)(hai + n_h);
    sel = (unsigned char *)(seeds + n_s);
    pa = fbuf;
    pb = pa + 3 * cap;
    dist = pb + 3 * cap;
    mv = dist + 2 * cap;
    asq = mv + 3 * la;
    bsq = asq + la;
    S = bsq + lb;
    M = S + la * lb;
    Ix = M + cells;
    Iy = Ix + cells;
    hdp = Iy + cells;
    haj = hai + (max_iters + 1) * cap;
    hn = haj + (max_iters + 1) * cap;

    /* boundaries, as dp._forward initialises them */
    for (k = 0; k < stride; ++k) {
        M[k] = Ix[k] = -1e18;
        Iy[k] = 0.0;
    }
    M[0] = Ix[0] = 0.0;
    for (k = 1; k <= la; ++k) {
        M[k * stride] = Iy[k * stride] = -1e18;
        Ix[k * stride] = 0.0;
    }

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
            memcpy(pa + 3 * k, xa + 3 * ci[k], sizeof(double) * 3);
            memcpy(pb + 3 * k, ya + 3 * cj[k], sizeof(double) * 3);
        }
        nseeds = seed_schedule(n, fracs, nfracs, min_seed_len, seeds);
        search(pa, pb, n, seeds, nseeds, d0, lnorm, d0_search,
               max_score_iters, dist, sel, &tm, rot, tra, ops);
        if (tm > *best_tm) {
            *best_tm = tm;
            memcpy(best_rot, rot, sizeof rot);
            memcpy(best_tra, tra, sizeof tra);
            best = cur;
            stale = 0;
        } else if (++stale >= patience) {
            break;
        }
        score_matrix(xa, la, ya, lb, rot, tra, d0, mv, asq, bsq, S);
        ops[2] += la * lb;
        nw_forward(M, Ix, Iy, S, la, lb, stride, lb, gap);
        ops[3] += la * lb;
        hn[nh] = nw_traceback(M, Ix, Iy, S, la, lb, stride, lb, gap, ni, nj,
                              hdp + nh);
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
        *best_dp = hdp[best];
        memcpy(best_ai, hai + best * cap, sizeof(ptrdiff_t) * hn[best]);
        memcpy(best_aj, haj + best * cap, sizeof(ptrdiff_t) * hn[best]);
    }
    return 0;
}
"""

_P = ctypes.c_void_p
_N = ctypes.c_ssize_t
_D = ctypes.c_double


def _library() -> Optional[ctypes.CDLL]:
    return load_library("tmalign", _SOURCE, NATIVE_DP_ENV, libs=("-lm",))


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


def scratch(nbytes: int) -> np.ndarray:
    """This thread's grow-only byte buffer, at least ``nbytes`` long.

    One buffer serves ``tm_refine`` and the DP workspace of
    :mod:`repro.tmalign.dp`: neither's contents outlive its own call,
    and neither call runs inside the other.  It is per thread because
    ctypes releases the GIL inside the kernels and a service evaluates
    batches in several threads.  Sized by the largest pair the thread
    has seen; it never shrinks.  ``_SCRATCH.addr`` caches its address.
    """
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.nbytes < nbytes:
        buf = _SCRATCH.buf = np.empty(nbytes, dtype=np.uint8)
        _SCRATCH.addr = buf.ctypes.data
    return buf


def _f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _charge(counter, kabsch: int, kabsch_points: int, score_pairs: int) -> None:
    if counter is not None:
        counter.add("kabsch", kabsch)
        counter.add("kabsch_point", kabsch_points)
        counter.add("score_pair", score_pairs)


def _fn(lib: ctypes.CDLL, name: str, restype, argtypes: list):
    fn = getattr(lib, name)
    fn.restype = restype
    fn.argtypes = argtypes
    return fn


class TMKernels:
    """Front-ends of the search, window, traceback, score and refine entry points.

    Each method validates its arguments before a pointer reaches C (the
    index bounds in C, which reports them by return code), and charges
    ``counter`` the totals the NumPy path charges.  ``svd_chain`` says
    whether the Kabsch SVDs take dgesdd's 3x3 path directly.
    """

    def __init__(self, lib: ctypes.CDLL, svd_chain: bool) -> None:
        self.svd_chain = svd_chain
        # pa, pb, n, fracs, nfracs, min_seed_len, d0, lnorm, d0_search,
        # max_iters, out
        self._search = _fn(lib, "tm_search", ctypes.c_int,
                           [_P, _P, _N, _P, _N, _N, _D, _D, _D, _N, _P])
        # xa, na, ya, nb, a0, b0, lens, nwin, d0, lnorm, keep, tms
        self._windows = _fn(lib, "tm_windows", _N,
                            [_P, _N, _P, _N, _P, _P, _P, _N, _D, _D, _N, _P])
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
        # xa, la, ya, lb, ai0, aj0, n0, fracs, nfracs, min_seed_len,
        # max_score_iters, max_iters, patience, d0, lnorm, d0_search, gap,
        # out, ws, ws_bytes
        self._refine = _fn(lib, "tm_refine", ctypes.c_int,
                           [_P, _N, _P, _N, _P, _P, _N, _P] + [_N] * 5
                           + [_D] * 4 + [_P, _P, _N])
        # la, lb, nfracs, max_iters
        self._refine_bytes = _fn(lib, "tm_refine_bytes", _N, [_N] * 4)
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
        _charge(counter, *out[13:].view(np.int64).tolist())
        return float(out[0]), out[1:10].reshape(3, 3), out[10:13]

    @staticmethod
    def _window_args(mobile, target, starts_m, starts_t, lens) -> tuple:
        """The checked arrays, which the caller holds through the C call,
        and the leading C arguments of ``tm_windows``."""
        arrays = mobile, target, sm, st, ln = (
            _f64(mobile), _f64(target), _i64(starts_m), _i64(starts_t), _i64(lens)
        )
        if sm.ndim != 1 or not (sm.shape == st.shape == ln.shape):
            raise ValueError("window start and length arrays must match")
        if mobile.shape[1:] != (3,) or target.shape[1:] != (3,):
            raise ValueError("(n, 3) coordinates required")
        return arrays, (
            mobile.ctypes.data, mobile.shape[0], target.ctypes.data,
            target.shape[0], sm.ctypes.data, st.ctypes.data, ln.ctypes.data,
            ln.shape[0],
        )

    def windows(
        self,
        mobile: np.ndarray,
        target: np.ndarray,
        starts_m,
        starts_t,
        lens,
        d0: float,
        lnorm: int,
        counter=None,
        keep: int = 0,
    ) -> np.ndarray:
        """GL score of each window ``mobile[sm:sm+m]`` onto ``target[st:st+m]``.

        ``keep`` > 0 is the number of top windows the caller ranks: only
        windows that can still rank among them are scored exactly, the
        rest read ``-inf`` (see ``tm_windows``).  0 scores every window.
        Either way ``counter`` is charged for every window.
        """
        if keep < 0:
            raise ValueError("keep must be >= 0")
        arrays, args = self._window_args(mobile, target, starts_m, starts_t, lens)
        nwin = arrays[4].shape[0]
        tms = np.empty(nwin)
        pts = self._windows(*args, d0, lnorm, keep, tms.ctypes.data)
        if pts == -2:
            raise ValueError("window outside the coordinate sets")
        if pts < 0:
            raise MemoryError("tm_windows scratch allocation failed")
        _charge(counter, nwin, pts, pts)
        return tms

    def window_screens(
        self, mobile, target, starts_m, starts_t, lens, d0: float, lnorm: int
    ) -> np.ndarray:
        """``(nwin, 2)``: each window's screened score and its error bound,
        NaN for a window the screen sends to exact scoring."""
        arrays, args = self._window_args(mobile, target, starts_m, starts_t, lens)
        out = np.empty((arrays[4].shape[0], 2))
        rc = self._window_screens(*args, d0, lnorm, out.ctypes.data)
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
        """``1 / (1 + (d / d0)^2)`` of every pair of ``xa @ R.T + t`` and ``ya``."""
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

    def refine(
        self,
        xa: np.ndarray,
        ya: np.ndarray,
        ai: np.ndarray,
        aj: np.ndarray,
        d0: float,
        lnorm: int,
        d0_search: float,
        seed_fractions,
        params,
        counter=None,
    ) -> tuple[float, Optional[tuple], np.ndarray, np.ndarray]:
        """The refinement loop of ``align._refine`` from the alignment ``(ai, aj)``.

        Returns ``(best_tm, best, rotation, translation)`` where ``best``
        is None when the starting alignment stayed best, else the
        ``(ai, aj, dp_score)`` of the DP alignment that scored best.
        ``params`` supplies the gap penalty, the loop caps, the patience
        and the seed length floor.
        """
        xa, ya = _f64(xa), _f64(ya)
        ai, aj = _i64(ai), _i64(aj)
        la, lb = xa.shape[0], ya.shape[0]
        cap = min(la, lb)
        if xa.shape != (la, 3) or ya.shape != (lb, 3):
            raise ValueError(f"(n, 3) coordinates required: {xa.shape}/{ya.shape}")
        if ai.ndim != 1 or ai.shape != aj.shape or ai.shape[0] > cap:
            raise ValueError("the starting alignment must be equal 1-D index arrays")
        fracs = _i64(seed_fractions)
        if fracs.ndim != 1:
            raise ValueError("seed fractions must be a 1-D sequence")
        max_iters = params.max_refine_iters
        nbytes = self._refine_bytes(la, lb, fracs.shape[0], max_iters)
        ws = scratch(nbytes)
        # 14 doubles (scores, rotation, translation), then int64: length,
        # 4 op counts, cap i indices, cap j indices
        out = np.empty(19 + 2 * cap)
        rc = self._refine(
            xa.ctypes.data, la, ya.ctypes.data, lb, ai.ctypes.data,
            aj.ctypes.data, ai.shape[0], fracs.ctypes.data, fracs.shape[0],
            params.min_seed_len, params.max_score_iters, max_iters,
            params.refine_patience, d0, lnorm, d0_search, params.gap_open,
            out.ctypes.data, _SCRATCH.addr, ws.nbytes,
        )
        if rc == -2:
            raise ValueError("the starting alignment indexes outside the chains")
        if rc == -3:
            raise ValueError("seed fractions must be >= 1")
        if rc != 0:
            raise MemoryError("tm_refine workspace too small")
        ints = out[14:].view(np.int64)
        n, kabsch, kabsch_points, score_pairs, dp_cells = ints[:5].tolist()
        _charge(counter, kabsch, kabsch_points, score_pairs)
        if counter is not None:
            counter.add("dp_cell", dp_cells)
        found = None
        if n >= 0:
            found = (ints[5:5 + n].copy(), ints[5 + cap:5 + cap + n].copy(),
                     float(out[1]))
        # copies, so that the transform does not keep the index tail alive
        return float(out[0]), found, out[2:11].reshape(3, 3).copy(), out[11:14].copy()

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
    """The search, window, traceback, score and refine entry points, or None.

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


def _probe() -> list:
    """Results of every native-backed entry point on a fixed small input.

    Covers seeded searches (proper and reflected fits, and one 300-pair
    covariance, past the K-blocking size of common GEMM kernels), short
    and long gapless windows, fragment windows, a tie-heavy DP
    traceback, two score matrices whose last columns fall in GEMM edge
    tiles (where a plain fma chain differs from OpenBLAS), and one
    refinement loop.  Everything is returned as exact reprs and bytes.
    """
    from repro.cost.counters import CostCounter
    from repro.tmalign.align import _refine
    from repro.tmalign.dp import nw_align
    from repro.tmalign.initial import fragment_threading, gapless_threading
    from repro.tmalign.params import TMAlignParams
    from repro.tmalign.result import Alignment
    from repro.tmalign.tmscore import superposition_search, tm_score_matrix

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
        tm, xf = superposition_search(
            pa, pb, d0, pa.shape[0] + 7, seed_fractions=fractions, counter=ctr
        )
        out.append((repr(tm), xf.rotation.tobytes(), xf.translation.tobytes()))
    # rows that land near the edge columns, where cancellation exposes
    # a last-bit difference of the cross product in the score
    out.append(tm_score_matrix(xa[196:220], ya[:220], xf, 3.0).tobytes())
    out.append(tm_score_matrix(xa[192:216], ya[:215], xf, 4.5).tobytes())
    alis = gapless_threading(xa[:24], ya[6:26], 2.0, 20, counter=ctr)
    alis += gapless_threading(xa, ya[:290], 4.0, 290, min_overlap=286, counter=ctr)
    alis.append(fragment_threading(xa[:40], mirror[:30], 2.0, 30, counter=ctr))
    ties = rng.integers(-2, 3, size=(24, 31)).astype(np.float64)
    alis.append(nw_align(ties, -1.0, counter=ctr))
    out.extend((a.key(), repr(a.dp_score)) for a in alis)
    diag = np.arange(24, dtype=np.intp)
    tm, ali, xf = _refine(
        xa[196:220], ya[:220], Alignment(diag, diag + 193), 2.0, 24,
        TMAlignParams(), ctr,
    )
    out.append((repr(tm), ali.key(), repr(ali.dp_score), xf.rotation.tobytes(),
                xf.translation.tobytes()))
    out.append(sorted(ctr.as_dict().items()))
    return out


def self_check() -> bool:
    """Keep the native BLAS-bound entry points only if they match NumPy.

    Runs :func:`_probe` with the module handles as loaded and again on
    the NumPy path; on any difference the handles stay None, so every
    later call takes the NumPy path (``nw_forward`` is not affected).
    Returns whether the native entry points are on.
    """
    from repro.tmalign import align, dp, initial, tmscore

    handles = (
        (dp, "_NATIVE_TRACEBACK"),
        (tmscore, "_NATIVE_SEARCH"),
        (initial, "_NATIVE_WINDOWS"),
        (tmscore, "_NATIVE_SCORES"),
        (align, "_NATIVE_REFINE"),
    )
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
