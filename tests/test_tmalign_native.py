"""Compiled TM-align kernel vs the NumPy path vs the serial oracles.

The compiled search, window and traceback entry points must reproduce
the NumPy path bit for bit — scores by repr, transforms by bytes, op
counts exactly.  ``tests/test_tmalign_batch.py`` runs the search and
threading differentials over random geometries; this file adds the
traceback, fragment sub-matches, whole ``tm_align`` runs (one
``tm_align_pair`` call each) over ck34, rs119-mini and edge-case pairs
and parameter sets, and the load-time self-check, which must switch the
entry points off on any mismatch and leave the NumPy path producing the
goldens.  Tests that need the compiled kernel skip when it is
unavailable (no C compiler, ``REPRO_NO_NATIVE_DP`` set, or a BLAS build
the self-check rejected).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.counters import CostCounter
from repro.datasets import load_dataset
from repro.geometry.transforms import RigidTransform
from repro.structure.model import Chain
from repro.structure.synthetic import perturb_chain
from repro.tmalign import _dpnative, align, dp, initial, tm_align, tmscore
from repro.tmalign.dp import nw_align
from repro.tmalign.initial import (
    _fragment_geometry,
    _windows_numpy,
    fragment_threading,
    gapless_threading,
)
from repro.tmalign.params import TMAlignParams, d0_from_length
from repro.tmalign.result import Alignment
from repro.tmalign.tmscore import superposition_search
from tests.test_tmalign_golden import GOLDEN
from tests.test_tmalign_golden import test_kernel_bit_identical_to_seed as check_golden
from tests.tmalign_oracles import (
    NATIVE_HANDLES,
    fragment_threading_serial,
    gapless_threading_serial,
    native_loaded,
    numpy_path,
)

requires_native = pytest.mark.skipif(
    not native_loaded(), reason="compiled TM-align kernel unavailable"
)


def _walk(rng, n):
    return np.cumsum(rng.normal(scale=2.0, size=(n, 3)), axis=0)


def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


@requires_native
def test_search_non_contiguous_input(rng):
    pa = _walk(rng, 50)
    pb = pa @ _rotation(rng) + rng.normal(scale=0.05, size=pa.shape)
    tm, xf = superposition_search(np.asfortranarray(pa), np.asfortranarray(pb), 3.0, 50)
    with numpy_path():
        tm_n, xf_n = superposition_search(pa, pb, 3.0, 50)
    assert repr(tm) == repr(tm_n)
    assert xf.rotation.tobytes() == xf_n.rotation.tobytes()


@requires_native
def test_fragment_submatch_three_paths(rng):
    # a rotated noisy copy gives a pronounced best placement, in both
    # chain orders (the swap branch)
    base = _walk(rng, 120)
    for la, lb in ((20, 31), (90, 41), (120, 120)):
        xa = base[:la]
        ya = base[:lb] @ _rotation(rng) + rng.normal(scale=1.0, size=(lb, 3))
        results = []
        for run in ("native", "numpy", "serial"):
            ctr = CostCounter()
            if run == "native":
                ali = fragment_threading(xa, ya, 2.7, min(la, lb), counter=ctr)
            elif run == "numpy":
                with numpy_path():
                    ali = fragment_threading(xa, ya, 2.7, min(la, lb), counter=ctr)
            else:
                ali = fragment_threading_serial(xa, ya, 2.7, min(la, lb), counter=ctr)
            results.append((ali.key(), repr(ali.dp_score), ctr.counts))
        assert results[0] == results[1] == results[2], (la, lb)


def _helix(n, turn=3.6, radius=2.3, rise=1.5):
    t = np.arange(n) * (2.0 * np.pi / turn)
    return np.stack([radius * np.cos(t), radius * np.sin(t), rise * t], axis=1)


def _scans(xa, ya, params=None):
    """Every window of the gapless and fragment scans of one pair, as
    ``(mobile, target, starts_m, starts_t, lens)``."""
    params = params or TMAlignParams()
    la, lb = xa.shape[0], ya.shape[0]
    mo = min(5, la, lb)
    shifts = np.arange(-(lb - mo), la - mo + 1)
    starts = np.maximum(shifts, 0)
    out = [(xa, ya, starts, starts - shifts, np.minimum(la, lb + shifts) - starts)]
    geom = _fragment_geometry(la, lb, params)
    if geom is not None:
        swap, ls, ll, flen, step = geom
        short, long_ = (ya, xa) if swap else (xa, ya)
        fs = np.arange(0, ls - flen + 1, step)
        sh = np.arange(0, ll - flen + 1)
        out.append((short, long_, np.repeat(fs, sh.size), np.tile(sh, fs.size),
                    np.full(fs.size * sh.size, flen)))
    return out


@requires_native
class TestScreenedThreading:
    """The threading scans screen every window with a QCP superposition and
    score exactly only the windows that can still rank: the ranked windows,
    their ``dp_score`` bytes and the op counts must be those of the serial
    oracles and of the exhaustive NumPy path, on the inputs where the
    screen is weakest: reflections, rank-deficient and repeated windows,
    ties and near-ties between windows, and NaN."""

    D0, LNORM = 2.6, 40

    def _three_ways(self, xa, ya):
        kernels = tmscore._KERNELS
        for run, serial in ((gapless_threading, gapless_threading_serial),
                            (fragment_threading, fragment_threading_serial)):
            ctrs = [CostCounter() for _ in range(3)]
            got = run(xa, ya, self.D0, self.LNORM, counter=ctrs[0])
            with numpy_path():
                ref = run(xa, ya, self.D0, self.LNORM, counter=ctrs[1])
            runs = [got, ref, serial(xa, ya, self.D0, self.LNORM, counter=ctrs[2])]
            keys = [
                [(a.key(), repr(a.dp_score))
                 for a in (r if isinstance(r, list) else [r])]
                for r in runs
            ]
            assert all(k == keys[0] for k in keys), run.__name__
            assert all(c.counts == ctrs[0].counts for c in ctrs)
        for args in _scans(xa, ya):
            full = kernels.windows(*args, self.D0, self.LNORM)
            want = _windows_numpy(*args, self.D0, self.LNORM)
            assert [repr(x) for x in full] == [repr(x) for x in want]
            screens = kernels.window_screens(*args, self.D0, self.LNORM)
            ok = ~np.isnan(screens[:, 1])
            assert np.all(np.abs(screens[ok, 0] - want[ok]) <= screens[ok, 1])

    def test_mirror_images(self, rng):
        base = _walk(rng, 48)
        self._three_ways(base, base * np.array([1.0, 1.0, -1.0]))
        # a helix and its mirror: the reflected fit has sigma2 == sigma3,
        # a two-fold top eigenvalue of the Horn matrix
        helix = _helix(45)
        self._three_ways(helix, helix * np.array([1.0, 1.0, -1.0]))
        noisy = helix * np.array([-1.0, 1.0, 1.0])
        noisy += rng.normal(scale=1e-9, size=helix.shape)
        self._three_ways(helix, noisy)

    def test_collinear_and_rank_one_windows(self, rng):
        steps = np.cumsum(rng.uniform(0.5, 2.0, size=40))
        line = steps[:, None] * np.array([0.3, -1.2, 0.8])
        walk = _walk(rng, 50)
        self._three_ways(line, walk)
        self._three_ways(walk, line[:35] + 7.0)
        self._three_ways(line, line[::-1] @ _rotation(rng))
        planar = walk.copy()
        planar[:, 2] = 0.0
        self._three_ways(planar, walk[:44])

    def test_repeated_coordinates(self, rng):
        self._three_ways(np.repeat(_walk(rng, 10), 4, axis=0), _walk(rng, 45))
        block = _walk(rng, 42)
        block[10:30] = block[10]
        self._three_ways(block, np.repeat(_walk(rng, 15), 3, axis=0))
        self._three_ways(np.zeros((30, 3)), np.ones((36, 3)))

    def test_windows_tied_by_symmetry(self, rng):
        # a byte-for-byte repeat: two shifts (and placements) score the
        # same bits, and ties must rank in scan order
        seg = _walk(rng, 24)
        self._three_ways(seg @ _rotation(rng) + 3.0, np.concatenate([seg, seg]))
        self._three_ways(np.concatenate([seg, seg, seg]), seg[:20])

    def test_near_ties_inside_the_margin(self, rng):
        # a copy translated by a dyadic offset scores the same in exact
        # arithmetic and within a few ulps in floats, far inside the
        # screen's margin: only exact scores may decide
        for _ in range(6):
            seg = _walk(rng, 24)
            mobile = seg @ _rotation(rng) + rng.normal(scale=0.3, size=seg.shape)
            target = np.concatenate([seg, seg + 0.5, seg - 0.25])
            self._three_ways(mobile, target)
            self._three_ways(target, mobile)

    def test_nan_coordinates(self, rng):
        # every path ranks NaN windows last: a NaN in the fragment scan's
        # first window, among the gapless scan's last rows, mid-chain,
        # and everywhere (all windows NaN: the first window wins)
        xa, ya = _walk(rng, 40), _walk(rng, 52)
        first = xa.copy()
        first[0] = np.nan
        last = xa.copy()
        last[39, 1] = np.nan
        mid = ya.copy()
        mid[20] = np.nan
        with np.errstate(invalid="ignore"):
            self._three_ways(first, ya)
            self._three_ways(last, ya[:44])
            self._three_ways(xa, mid)
            self._three_ways(np.full_like(xa, np.nan), ya)
            # the fragment pick skips the NaN placements
            ali = fragment_threading(first, ya, self.D0, self.LNORM)
            assert not np.isnan(ali.dp_score)

    def test_converted_inputs(self, rng):
        """Fortran-order coordinates and int32 windows are converted, and
        the copies live through the C call."""
        kernels = tmscore._KERNELS
        xa, ya = _walk(rng, 60), _walk(rng, 50)
        (args,) = _scans(xa, ya)[:1]
        want = kernels.windows(*args, self.D0, self.LNORM, keep=2)
        got = kernels.windows(
            np.asfortranarray(xa), np.asfortranarray(ya),
            *(a.astype(np.int32) for a in args[2:]), self.D0, self.LNORM, keep=2,
        )
        assert got.tobytes() == want.tobytes()

    def test_screen_prunes_all_but_the_ranked(self, rng):
        """On a plain pair the exact pass runs on a handful of windows,
        and every window is still counted as scanned."""
        kernels = tmscore._KERNELS
        xa = _walk(rng, 80)
        ya = xa[10:70] @ _rotation(rng) + rng.normal(scale=0.5, size=(60, 3))
        scanned, exact = kernels.window_counts()
        gapless_threading(xa, ya, 3.0, 60)
        scanned2, exact2 = kernels.window_counts()
        nwin = 80 + 60 - 2 * 5 + 1
        assert scanned2 - scanned == nwin
        assert 2 <= exact2 - exact <= 10


@requires_native
class TestTracebackDifferential:
    def _both(self, score, gap):
        got = nw_align(score, gap)
        with numpy_path():
            want = nw_align(score, gap)
        assert got.ai.dtype == want.ai.dtype == np.intp
        assert np.array_equal(got.ai, want.ai) and np.array_equal(got.aj, want.aj)
        assert repr(got.dp_score) == repr(want.dp_score)

    def test_random_scores(self, rng):
        for la, lb in ((1, 1), (1, 30), (30, 1), (17, 64), (120, 95)):
            self._both(rng.uniform(size=(la, lb)), -0.6)

    def test_tie_heavy_scores(self, rng):
        for _ in range(40):
            la, lb = (int(x) for x in rng.integers(1, 45, size=2))
            self._both(rng.integers(-2, 3, size=(la, lb)).astype(float), -1.0)

    def test_flat_and_gap_free_scores(self):
        self._both(np.zeros((9, 13)), -0.6)
        self._both(np.ones((13, 9)), 0.0)

    def test_strided_score_takes_numpy_path(self, rng):
        score = rng.uniform(size=(20, 40))[:, ::2]  # column stride 16 bytes
        self._both(score, -0.6)


class TestForwardDifferential:
    """The branch-free ``nw_forward`` fills M/Ix/Iy byte-identically to NumPy."""

    def _both(self, score, gap, monkeypatch):
        native = [m.copy() for m in dp._forward(score, gap)]
        with monkeypatch.context() as m:
            m.setattr(dp, "_NATIVE_FORWARD", None)
            reference = dp._forward(score, gap)
        for got, want in zip(native, reference):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(dp._NATIVE_FORWARD is None, reason="no compiled DP sweep")
    def test_tie_heavy_and_flat_scores(self, rng, monkeypatch):
        for la, lb in ((1, 1), (7, 40), (61, 13), (147, 147), (220, 200)):
            ties = rng.integers(-2, 3, size=(la, lb)).astype(np.float64)
            for gap in (-0.6, -1.0, 0.0):
                self._both(ties, gap, monkeypatch)
                self._both(np.zeros((la, lb)), gap, monkeypatch)
                self._both(np.ones((la, lb)), gap, monkeypatch)


@requires_native
def test_score_matrix_across_gemm_edge_tiles(rng):
    # OpenBLAS changes kernels at its column tile edges (columns 208-211
    # at lb = 215, 216-219 at lb = 220 on one build): the native matrix
    # must match NumPy's there too, not just the alignment built on it
    base = _walk(rng, 320)
    for la in (24, 150, 301):
        for lb in range(205, 233):
            xf = RigidTransform.from_trusted(_rotation(rng), rng.normal(size=3))
            ya = base[:lb] + rng.normal(scale=2.0, size=(lb, 3))
            got = tmscore.tm_score_matrix(base[:la], ya, xf, 3.1)
            with numpy_path():
                want = tmscore.tm_score_matrix(base[:la], ya, xf, 3.1)
            assert got.tobytes() == want.tobytes(), (la, lb)


@requires_native
class TestRefineDifferential:
    """``_refine`` as one ``tm_refine`` call vs its NumPy loop.

    Each case also checks, on a trace of the NumPy run, that the loop
    left the way the case is named for, so every exit of the compiled
    loop is compared at least once.
    """

    def _both(self, xa, ya, start, d0, lnorm, params, monkeypatch):
        ctr = CostCounter()
        native = align._refine(xa, ya, start, d0, lnorm, params, ctr)
        trace = {"tm": [], "dp": []}
        search, dp_align = align.superposition_search, align.nw_align

        def traced_search(*args, **kwargs):
            tm, xf = search(*args, **kwargs)
            trace["tm"].append(tm)
            return tm, xf

        def traced_dp(*args, **kwargs):
            ali = dp_align(*args, **kwargs)
            trace["dp"].append(ali)
            return ali

        ref_ctr = CostCounter()
        with monkeypatch.context() as m, numpy_path():
            m.setattr(align, "superposition_search", traced_search)
            m.setattr(align, "nw_align", traced_dp)
            reference = align._refine(xa, ya, start, d0, lnorm, params, ref_ctr)
        assert isinstance(native[1], Alignment)
        assert repr(native[0]) == repr(reference[0])
        assert native[1].key() == reference[1].key()
        assert native[1].ai.dtype == reference[1].ai.dtype == np.intp
        assert repr(native[1].dp_score) == repr(reference[1].dp_score)
        assert (native[1] is start) == (reference[1] is start)
        assert native[2].rotation.tobytes() == reference[2].rotation.tobytes()
        assert native[2].translation.tobytes() == reference[2].translation.tobytes()
        assert ctr.counts == ref_ctr.counts
        return reference, trace

    @staticmethod
    def _copy_pair(rng, la, lb, offset):
        """A random walk and a rotated noisy copy of ``[offset:offset+lb]``."""
        xa = _walk(rng, la)
        ya = xa[offset : offset + lb] @ _rotation(rng)
        return xa, ya + rng.normal(scale=1.5, size=ya.shape)

    def test_long_chains_past_gemm_tiling(self, rng, monkeypatch):
        # score matrices of >= 300 columns cross OpenBLAS's column tiles
        for la, lb, off in ((320, 305, 9), (305, 320, 0)):
            xa, ya = self._copy_pair(rng, max(la, lb) + off, lb, off)
            xa = xa[:la]
            start = Alignment(np.arange(4, 40), np.arange(7, 43))
            d0 = d0_from_length(min(la, lb))
            _, trace = self._both(
                xa, ya, start, d0, min(la, lb), TMAlignParams(), monkeypatch
            )
            assert len(trace["dp"]) >= 2

    def test_exit_by_seen_alignment(self, ck34, monkeypatch):
        a, b = ck34[0], ck34[1]
        start = Alignment(np.arange(0, 80), np.arange(3, 83))
        params = TMAlignParams()
        lmin = min(len(a), len(b))
        _, trace = self._both(
            a.coords, b.coords, start, d0_from_length(lmin), lmin, params,
            monkeypatch,
        )
        keys = [start.key()] + [ali.key() for ali in trace["dp"]]
        assert len(trace["dp"]) < params.max_refine_iters
        assert keys[-1] in keys[:-1]

    def test_exit_by_patience(self, ck34, monkeypatch):
        a, b = ck34[3], ck34[25]
        start = Alignment(np.arange(0, 60), np.arange(20, 80))
        params = TMAlignParams(refine_patience=1)
        lmin = min(len(a), len(b))
        _, trace = self._both(
            a.coords, b.coords, start, d0_from_length(lmin), lmin, params,
            monkeypatch,
        )
        # the last search did not improve and stopped the loop before a DP
        assert len(trace["tm"]) == len(trace["dp"]) + 1
        assert trace["tm"][-1] <= max(trace["tm"][:-1])

    def test_exit_by_iteration_cap(self, ck34, monkeypatch):
        a, b = ck34[5], ck34[20]
        start = Alignment(np.arange(0, 50), np.arange(30, 80))
        params = TMAlignParams(max_refine_iters=2, refine_patience=5)
        lmin = min(len(a), len(b))
        _, trace = self._both(
            a.coords, b.coords, start, d0_from_length(lmin), lmin, params,
            monkeypatch,
        )
        keys = [start.key()] + [ali.key() for ali in trace["dp"]]
        assert len(trace["tm"]) == len(trace["dp"]) == 2
        assert len(set(keys)) == 3

    def test_exit_below_three_pairs(self, monkeypatch):
        # free gaps let the DP keep two well-placed pairs of a 3-residue chain
        rng = np.random.default_rng(93)
        lb = int(rng.integers(3, 5))
        xa = rng.uniform(-6, 6, size=(3, 3))
        ya = rng.uniform(-6, 6, size=(lb, 3))
        start = Alignment(np.arange(3), np.sort(rng.choice(lb, size=3, replace=False)))
        d0 = float(rng.uniform(0.5, 3))
        _, trace = self._both(
            xa, ya, start, d0, 3, TMAlignParams(gap_open=0.0), monkeypatch
        )
        assert len(trace["dp"][-1]) < 3
        assert len(trace["tm"]) == len(trace["dp"])

    def test_starting_candidate_stays_best(self, ck34, monkeypatch):
        a, b = ck34[0], ck34[1]
        lmin = min(len(a), len(b))
        res = tm_align(a, b)
        start = Alignment(res.alignment.ai, res.alignment.aj, dp_score=7.25)
        (_, best, _), _ = self._both(
            a.coords, b.coords, start, d0_from_length(lmin), lmin,
            TMAlignParams(), monkeypatch,
        )
        assert best is start and best.dp_score == 7.25

    def test_start_below_three_pairs_returns_identity(self, monkeypatch):
        xa = _walk(np.random.default_rng(3), 12)
        start = Alignment(np.arange(2), np.arange(2), dp_score=1.5)
        (tm, best, xf), trace = self._both(
            xa, xa, start, 1.0, 12, TMAlignParams(), monkeypatch
        )
        assert tm == -1.0 and best is start and not trace["tm"]
        assert xf.rotation.tobytes() == np.eye(3).tobytes()


def _perturbed_pairs(ck34, n_pairs, seed):
    rng = np.random.default_rng(seed)
    chains = [
        perturb_chain(
            c, rng, f"{c.name}_p", jitter=0.3, hinge_angle_deg=5.0,
            max_indel=2, seq_identity=0.9,
        )
        for c in ck34.chains
    ]
    pairs = [(i, j) for i in range(len(chains)) for j in range(i + 1, len(chains))]
    pick = rng.choice(len(pairs), size=n_pairs, replace=False)
    return [(chains[pairs[k][0]], chains[pairs[k][1]]) for k in sorted(pick)]


def _result_key(res):
    return (
        repr(res.tm_norm_a),
        repr(res.tm_norm_b),
        repr(res.rmsd),
        repr(res.seq_identity),
        res.alignment.key(),
        res.transform.rotation.tobytes(),
        res.transform.translation.tobytes(),
        sorted(res.op_counts.items()),
    )


@requires_native
def test_tm_align_perturbed_ck34_both_paths(ck34):
    pairs = _perturbed_pairs(ck34, 150, seed=19)
    native = [_result_key(tm_align(a, b)) for a, b in pairs]
    with numpy_path():
        reference = [_result_key(tm_align(a, b)) for a, b in pairs]
    mismatched = [
        f"{a.name}|{b.name}" for (a, b), x, y in zip(pairs, native, reference) if x != y
    ]
    assert not mismatched


def test_threads_keep_their_own_scratch(ck34):
    """ctypes releases the GIL inside the kernel, so two threads aligning
    at once must not share a DP/refine scratch buffer: each thread's
    results equal the serial ones, and the buffers are distinct."""
    import threading

    pairs = _perturbed_pairs(ck34, 12, seed=23)
    want = [_result_key(tm_align(a, b)) for a, b in pairs]
    got, bufs = {}, {}

    def run(name, order):
        bufs[name] = _dpnative.scratch(8)
        got[name] = {k: _result_key(tm_align(*pairs[k])) for k in order}

    threads = [
        threading.Thread(target=run, args=("up", range(len(pairs)))),
        threading.Thread(target=run, args=("down", range(len(pairs))[::-1])),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert bufs["up"] is not bufs["down"]
    for name in ("up", "down"):
        assert [got[name][k] for k in range(len(pairs))] == want


@requires_native
def test_svd_chain_matches_dgesdd(rng):
    """The Kabsch SVD runs dgesdd's own 3x3 path where dgesdd would not
    rescale, and dgesdd itself elsewhere: the same INFO, S, U and VT
    bytes as the plain dgesdd call, on the load-time battery (which holds
    the 1e-200 and 1e+200 scales, the zero matrix and NaN that must take
    dgesdd) and on random, scaled and NaN-holed stacks."""
    kernels = tmscore._KERNELS
    assert kernels.svd_chain
    g = rng.normal(size=(200, 3, 3))
    holed = g[:20].copy()
    holed[:, 1, 2] = np.nan
    covs = np.concatenate(
        [_dpnative._svd_battery(), g, g[:50] * 1e-200, g[:50] * 1e200, holed]
    )
    assert kernels.svd3(covs).tobytes() == kernels.svd3(covs, reference=True).tobytes()


@requires_native
def test_repeated_covariance_hits_memo(rng):
    """A covariance seen before in this thread returns the rotation
    LAPACK produced for it the first time, and counts one memo hit."""
    from repro.geometry.kabsch import rotations_from_covariances

    kernels = tmscore._KERNELS
    cov = rng.normal(size=(3, 3))
    calls, hits = kernels.svd_counts()
    rots = kernels.rotations(np.stack([cov, cov]))
    assert kernels.svd_counts() == (calls + 2, hits + 1)
    want = rotations_from_covariances(cov[None])[0].tobytes()
    assert rots[0].tobytes() == rots[1].tobytes() == want


@requires_native
def test_svd_memo_is_per_thread(rng):
    """A covariance the main thread decomposed is a miss in a fresh
    thread, whose memo starts empty."""
    import threading

    kernels = tmscore._KERNELS
    cov = rng.normal(size=(1, 3, 3))
    kernels.rotations(cov)
    seen = {}

    def run():
        calls, hits = kernels.svd_counts()
        kernels.rotations(cov)
        calls2, hits2 = kernels.svd_counts()
        seen["delta"] = (calls2 - calls, hits2 - hits)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join()
    assert seen["delta"] == (1, 0)


def test_thread_pool_matches_serial(ck34_mini):
    """ctypes releases the GIL inside the kernel and the SVD memo is per
    thread: two pool threads aligning distinct pairs at once give the
    serial results byte for byte."""
    from concurrent.futures import ThreadPoolExecutor

    chains = ck34_mini.chains
    pairs = [(a, b) for k, a in enumerate(chains) for b in chains[k + 1:]]
    want = [_result_key(tm_align(a, b)) for a, b in pairs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lambda p: _result_key(tm_align(*p)), pairs))
    assert got == want


def _full_key(res):
    """Every :class:`TMAlignResult` field: floats by repr, index arrays by
    dtype and bytes, the transform by bytes, op counts in order."""
    ali, xf = res.alignment, res.transform
    return (
        res.name_a, res.name_b, res.len_a, res.len_b, repr(res.tm_norm_a),
        repr(res.tm_norm_b), repr(res.rmsd), res.n_aligned,
        repr(res.seq_identity), ali.ai.dtype.str, ali.ai.tobytes(),
        ali.aj.dtype.str, ali.aj.tobytes(), repr(ali.dp_score),
        xf.rotation.tobytes(), xf.translation.tobytes(),
        list(res.op_counts.items()),
    )


def _outcome(a, b, params=None):
    """``tm_align``'s full result and the counter it charged, or the type
    and message of what it raised."""
    ctr = CostCounter()
    try:
        res = tm_align(a, b, params, counter=ctr)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return _full_key(res), list(ctr.counts.items())


def _nan_copy(chain, rows, name):
    """``chain`` with NaN coordinates at ``rows``: Chain itself rejects
    non-finite input, so the coordinates are swapped in afterwards."""
    out = Chain(name, chain.coords, chain.sequence)
    coords = chain.coords.copy()
    coords[rows] = np.nan
    out.coords = coords
    return out


@pytest.fixture(scope="module")
def rs119_mini():
    return load_dataset("rs119-mini")


@requires_native
class TestOneCallAlign:
    """``tm_align`` as one ``tm_align_pair`` call vs the Python
    orchestration on the NumPy path: every result field, the charged
    counter, or the same error."""

    def _both(self, pairs, params=None):
        native = [_outcome(a, b, params) for a, b in pairs]
        with numpy_path(), np.errstate(invalid="ignore"):
            reference = [_outcome(a, b, params) for a, b in pairs]
        assert native == reference
        return reference

    def test_ck34_pairs_both_orders(self, ck34):
        pairs = [(ck34[i], ck34[j]) for i, j in ((0, 1), (0, 30), (5, 20), (12, 33))]
        self._both(pairs + [(b, a) for a, b in pairs])

    def test_rs119_mini_pairs(self, rs119_mini):
        self._both([(rs119_mini[0], rs119_mini[7]), (rs119_mini[9], rs119_mini[3])])

    def test_long_pair_across_gemm_edge_tiles(self, rs119_mini):
        a, b = rs119_mini[4], rs119_mini[5]
        assert min(len(a), len(b)) >= 300
        self._both([(a, b)])

    @pytest.mark.parametrize("change", [
        {"use_threading_init": False},
        {"use_ss_init": False},
        {"use_fragment_init": False},
        {"use_combined_init": False},
        {"use_threading_init": False, "use_ss_init": False,
         "use_fragment_init": False, "use_combined_init": False},
        {"threading_stride": 2},
        {"fragment_fraction": 3},
        {"fragment_fraction": 0},
        {"ss_mix": 0.0},
        {"ss_mix": 1.0},
        {"refine_patience": 1},
        {"max_refine_iters": 1},
        {"n_seed_fractions": (1,)},
    ], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
    def test_parameter_sets(self, ck34, change):
        a, b = ck34[3], ck34[25]
        outcomes = self._both([(a, b), (b, a)], TMAlignParams(**change))
        raises = change.get("fragment_fraction") == 0 or len(change) == 4
        assert all(isinstance(o[0], type) for o in outcomes) == raises

    def test_tiny_chains(self):
        """3-6 residues: no fragment fits a chain of 4 or fewer; with free
        gaps and no SS term the combined DP keeps < 3 pairs, and the
        degenerate branch's first candidate then fails the final search
        in both paths."""
        rng = np.random.default_rng(29)
        pairs = []
        for _ in range(12):
            la, lb = (int(x) for x in rng.integers(3, 7, size=2))
            pairs.append((Chain("a", rng.uniform(-80, 80, size=(la, 3))),
                          Chain("b", rng.uniform(-80, 80, size=(lb, 3)))))
        no_fragment = [
            fragment_threading(a.coords, b.coords, 0.5, 3) is None for a, b in pairs
        ]
        assert no_fragment == [min(len(a), len(b)) <= 4 for a, b in pairs]
        assert any(no_fragment) and not all(no_fragment)
        assert not any(isinstance(o[0], type) for o in self._both(pairs))
        bare = TMAlignParams(use_threading_init=False, use_ss_init=False,
                             use_fragment_init=False, ss_mix=0.0, gap_open=0.0)
        outcomes = self._both(pairs, bare)
        raised = [o for o in outcomes if isinstance(o[0], type)]
        assert (ValueError, "need at least 3 matched pairs") in raised
        assert len(raised) < len(outcomes)

    def test_tied_windows(self, rng):
        """A byte-for-byte repeat: two shifts and two placements score the
        same bits, and ties must rank in scan order."""
        seg = _walk(rng, 30)
        a = Chain("seg", seg @ _rotation(rng) + 3.0)
        b = Chain("twice", np.concatenate([seg, seg]))
        self._both([(a, b), (b, a)])

    def test_nan_coordinates(self, ck34, monkeypatch):
        """One NaN residue, and a chain of NaN, whose every refinement
        scores -1 so that the degenerate branch returns the first
        candidate under the identity."""
        a, b = ck34[2], ck34[17]
        one = _nan_copy(a, 40, "one_nan")
        every = _nan_copy(b, slice(None), "all_nan")
        self._both([(one, b), (b, one), (a, every)])
        refined = []
        refine = align._refine

        def spy(*args):
            refined.append(refine(*args)[0])
            return refine(*args)

        monkeypatch.setattr(align, "_refine", spy)
        with numpy_path(), np.errstate(invalid="ignore"):
            res = tm_align(a, every)
        assert refined and all(tm == -1.0 for tm in refined)
        assert res.transform.rotation.tobytes() == np.eye(3).tobytes()


class TestSelfCheck:
    @requires_native
    def test_passes_on_this_build(self):
        assert _dpnative.self_check()
        assert native_loaded()

    @requires_native
    def test_forced_mismatch_falls_back_and_goldens_hold(self, monkeypatch, ck34):
        for mod, name in NATIVE_HANDLES:
            monkeypatch.setattr(mod, name, getattr(mod, name))
        native_search = tmscore._NATIVE_SEARCH

        def off_by_one_ulp(*args, **kwargs):
            tm, rot, tra = native_search(*args, **kwargs)
            return float(np.nextafter(tm, 2.0)), rot, tra

        monkeypatch.setattr(tmscore, "_NATIVE_SEARCH", off_by_one_ulp)
        forward = dp._NATIVE_FORWARD
        assert not _dpnative.self_check()
        assert dp._NATIVE_TRACEBACK is None
        assert tmscore._NATIVE_SEARCH is None
        assert initial._NATIVE_WINDOWS is None
        assert tmscore._NATIVE_SCORES is None
        assert align._NATIVE_REFINE is None
        assert align._NATIVE_ALIGN is None
        assert dp._NATIVE_FORWARD is forward  # BLAS-free sweep stays on
        for pair in sorted(GOLDEN):
            check_golden(ck34, pair)

    def test_env_var_disables_tm_kernels(self, monkeypatch):
        monkeypatch.setenv(_dpnative.NATIVE_DP_ENV, "1")
        assert _dpnative.load_tm_kernels() is None

    def test_no_bundled_blas_means_numpy_path(self, monkeypatch):
        monkeypatch.setattr(_dpnative, "_bundled_blas", lambda: None)
        assert _dpnative.load_tm_kernels() is None

    def test_all_handles_off_reports_off(self, monkeypatch):
        for mod, name in NATIVE_HANDLES:
            monkeypatch.setattr(mod, name, None)
        assert not _dpnative.self_check()
