"""Batched-vs-serial equivalence for the TM-align kernel, on both paths.

The compiled kernel and the NumPy batch paths (stacked Kabsch, lockstep
superposition search, padded gapless/fragment threading, compiled DP row
sweep) all promise *bitwise* agreement with the serial oracles in
``tests/tmalign_oracles.py``.  The search tests run three ways — the
default path (compiled when it loads), the NumPy path, and the oracle —
and demand repr-exact scores, byte-identical transforms and identical op
counts on seeded random chains, including the degenerate geometries
(collinear points, <3-pair selections, all-far seeds) where the
determinant correction and cutoff escalation branch.  The threading
scans have no native call of their own: the NumPy scans must equal the
oracles, and ``tm_align`` of the same chains, whose compiled pair runs
the screened scans, must equal the NumPy path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.counters import CostCounter
from repro.geometry.kabsch import kabsch, kabsch_batch
from repro.tmalign.dp import _NATIVE_FORWARD, nw_align
from repro.tmalign.initial import fragment_threading, gapless_threading
from repro.tmalign.result import Alignment
from repro.tmalign.tmscore import superposition_search
from tests.test_tmalign_native import assert_scans_match
from tests.tmalign_oracles import (
    fragment_threading_serial,
    gapless_threading_serial,
    native_loaded,
    numpy_path,
    superposition_search_serial,
)


def _both_paths(call):
    """``call(counter)`` on the default path and on the NumPy path."""
    c_default, c_numpy = CostCounter(), CostCounter()
    got = call(c_default)
    with numpy_path():
        ref = call(c_numpy)
    return (got, c_default), (ref, c_numpy)


def _chain_coords(rng, n, mode):
    """Random-walk / helix / degenerate coordinate generators."""
    if mode == "walk":
        return np.cumsum(rng.normal(scale=2.0, size=(n, 3)), axis=0)
    if mode == "helix":
        t = np.linspace(0.0, n / 3.6, n)
        return np.stack(
            [2.3 * np.cos(1.7 * t), 2.3 * np.sin(1.7 * t), 1.5 * t], axis=1
        )
    if mode == "collinear":
        return np.linspace(0.0, 1.0, n)[:, None] * np.array([1.0, 2.0, 3.0])
    raise AssertionError(mode)


def _paired_sets(rng, n, mode):
    pa = _chain_coords(rng, n, "walk")
    if mode == "close":
        pb = pa + rng.normal(scale=0.4, size=(n, 3))
    elif mode == "half":
        pb = pa + rng.normal(scale=0.3, size=(n, 3))
        pb[n // 2 :] += 40.0
    elif mode == "far":
        pb = _chain_coords(rng, n, "walk") + 150.0
    elif mode == "random":
        pb = _chain_coords(rng, n, "walk")
    elif mode == "near":  # rotated, translated copy under small noise
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        pb = pa @ (q * np.sign(np.diag(r))) + rng.normal(size=3) * 10.0
        pb += rng.normal(scale=0.05, size=(n, 3))
    else:  # reflected: forces the determinant correction
        pb = pa * np.array([1.0, 1.0, -1.0]) + rng.normal(scale=0.1, size=(n, 3))
    return pa, pb


class TestKabschBatch:
    @pytest.mark.parametrize("mode", ["close", "half", "far", "reflected"])
    def test_slices_bit_identical_to_serial(self, rng, mode):
        k, n = 7, 24
        mob = np.stack([_paired_sets(rng, n, mode)[0] for _ in range(k)])
        tgt = np.stack([_paired_sets(rng, n, mode)[1] for _ in range(k)])
        cb = CostCounter()
        rots, tras = kabsch_batch(mob, tgt, counter=cb)
        cs = CostCounter()
        for i in range(k):
            xf = kabsch(mob[i], tgt[i], counter=cs)
            assert rots[i].tobytes() == xf.rotation.tobytes()
            assert tras[i].tobytes() == xf.translation.tobytes()
        assert cb.counts == cs.counts

    def test_degenerate_collinear_slices(self, rng):
        # rank-deficient covariances take the diag(1,1,0) branch
        mob = np.stack([_chain_coords(rng, 10, "collinear") for _ in range(4)])
        tgt = np.stack(
            [_chain_coords(rng, 10, "collinear")[::-1] for _ in range(4)]
        )
        rots, tras = kabsch_batch(mob, tgt)
        for i in range(4):
            xf = kabsch(mob[i], tgt[i])
            assert rots[i].tobytes() == xf.rotation.tobytes()
            assert tras[i].tobytes() == xf.translation.tobytes()

    def test_large_stack_vectorized_det_path(self, rng):
        # k > 32 switches the determinant sign to the vectorized form
        k, n = 40, 9
        mob = rng.normal(size=(k, n, 3))
        tgt = rng.normal(size=(k, n, 3))
        rots, tras = kabsch_batch(mob, tgt)
        for i in range(k):
            xf = kabsch(mob[i], tgt[i])
            assert rots[i].tobytes() == xf.rotation.tobytes()

    def test_empty_stack(self):
        rots, tras = kabsch_batch(np.empty((0, 5, 3)), np.empty((0, 5, 3)))
        assert rots.shape == (0, 3, 3) and tras.shape == (0, 3)

    def test_single_slice(self, rng):
        mob, tgt = rng.normal(size=(1, 6, 3)), rng.normal(size=(1, 6, 3))
        rots, _ = kabsch_batch(mob, tgt)
        assert rots[0].tobytes() == kabsch(mob[0], tgt[0]).rotation.tobytes()

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            kabsch_batch(rng.normal(size=(2, 5, 2)), rng.normal(size=(2, 5, 2)))
        with pytest.raises(ValueError):
            kabsch_batch(rng.normal(size=(2, 5, 3)), rng.normal(size=(3, 5, 3)))
        with pytest.raises(ValueError):
            kabsch_batch(np.empty((2, 0, 3)), np.empty((2, 0, 3)))


class TestLockstepSearch:
    @pytest.mark.parametrize(
        "mode", ["close", "half", "far", "reflected", "random", "near"]
    )
    @pytest.mark.parametrize("fractions", [(1, 2), (1, 2, 4), (1,)])
    def test_matches_serial_exactly(self, rng, mode, fractions):
        # 300 pairs puts the covariance K past common GEMM K-block sizes
        for n in (3, 17, 64, 121, 300):
            pa, pb = _paired_sets(rng, n, mode)
            lnorm = n + 11
            d0 = 3.7
            cs = CostCounter()
            tm_s, xf_s = superposition_search_serial(
                pa, pb, d0, lnorm, seed_fractions=fractions, counter=cs
            )
            for (tm, xf), ctr in _both_paths(
                lambda c: superposition_search(
                    pa, pb, d0, lnorm, seed_fractions=fractions, counter=c
                )
            ):
                assert repr(tm) == repr(tm_s)
                assert xf.rotation.tobytes() == xf_s.rotation.tobytes()
                assert xf.translation.tobytes() == xf_s.translation.tobytes()
                assert ctr.counts == cs.counts

    def test_all_far_seeds(self, rng):
        # nothing within 8 A: every seed is hopeless, all paths agree
        pa = _chain_coords(rng, 20, "walk")
        pb = _chain_coords(rng, 20, "walk") + 500.0
        cs = CostCounter()
        tm_s, _ = superposition_search_serial(pa, pb, 2.0, 20, counter=cs)
        for (tm, _), ctr in _both_paths(
            lambda c: superposition_search(pa, pb, 2.0, 20, counter=c)
        ):
            assert repr(tm) == repr(tm_s)
            assert ctr.counts == cs.counts


def _same_alignments(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.ai, w.ai) and np.array_equal(g.aj, w.aj)
        assert repr(g.dp_score) == repr(w.dp_score)


def _scans_in_whole_pairs(xa, ya):
    """The compiled scans run only inside ``tm_align_pair``: compare
    whole pairs of the same chains natively and on the NumPy path."""
    if native_loaded():
        assert_scans_match(xa, ya)


class TestThreadingBatch:
    @pytest.mark.parametrize(
        "sizes", [(5, 5), (8, 31), (60, 44), (97, 120), (280, 300)]
    )
    def test_gapless_matches_serial(self, rng, sizes):
        la, lb = sizes
        xa = _chain_coords(rng, la, "walk")
        ya = _chain_coords(rng, lb, "helix")
        cs, ctr = CostCounter(), CostCounter()
        want = gapless_threading_serial(xa, ya, 3.1, max(la, lb), counter=cs)
        _same_alignments(gapless_threading(xa, ya, 3.1, max(la, lb), counter=ctr), want)
        assert ctr.counts == cs.counts
        _scans_in_whole_pairs(xa, ya)

    def test_gapless_below_min_overlap(self, rng):
        xa = _chain_coords(rng, 3, "walk")
        ya = _chain_coords(rng, 3, "walk")
        want = gapless_threading_serial(xa, ya, 2.0, 3)
        got = gapless_threading(xa, ya, 2.0, 3)
        assert [g.key() for g in got] == [w.key() for w in want]
        _scans_in_whole_pairs(xa, ya)

    @pytest.mark.parametrize("sizes", [(40, 55), (80, 33), (64, 64)])
    def test_fragment_matches_serial(self, rng, sizes):
        la, lb = sizes
        xa = _chain_coords(rng, la, "walk")
        ya = _chain_coords(rng, lb, "helix")
        cs, ctr = CostCounter(), CostCounter()
        want = fragment_threading_serial(xa, ya, 2.9, max(la, lb), counter=cs)
        got = fragment_threading(xa, ya, 2.9, max(la, lb), counter=ctr)
        assert (got is None) == (want is None)
        if got is not None:
            _same_alignments([got], [want])
        assert ctr.counts == cs.counts
        _scans_in_whole_pairs(xa, ya)

    def test_fragment_none_for_tiny(self, rng):
        xa = _chain_coords(rng, 4, "walk")
        ya = _chain_coords(rng, 5, "walk")
        assert fragment_threading(xa, ya, 2.0, 5) is None


class TestNativeForward:
    @pytest.mark.skipif(
        _NATIVE_FORWARD is None, reason="no C compiler / native DP disabled"
    )
    def test_matrices_bit_identical_to_numpy(self, rng):
        import repro.tmalign.dp as dp

        for la, lb in ((1, 1), (1, 40), (40, 1), (23, 57), (80, 80)):
            score = rng.normal(size=(la, lb))
            m1, i1, y1 = (a.copy() for a in dp._forward(score, -0.6))
            native = dp._NATIVE_FORWARD
            dp._NATIVE_FORWARD = None
            try:
                m2, i2, y2 = dp._forward(score, -0.6)
            finally:
                dp._NATIVE_FORWARD = native
            assert m1.tobytes() == m2.tobytes()
            assert i1.tobytes() == i2.tobytes()
            assert y1.tobytes() == y2.tobytes()

    @pytest.mark.skipif(
        _NATIVE_FORWARD is None, reason="no C compiler / native DP disabled"
    )
    def test_alignments_identical_on_tie_heavy_scores(self, rng):
        import repro.tmalign.dp as dp

        for _ in range(10):
            la = int(rng.integers(2, 40))
            lb = int(rng.integers(2, 40))
            score = rng.integers(-2, 3, size=(la, lb)).astype(float)
            a1 = nw_align(score, -1.0)
            native = dp._NATIVE_FORWARD
            dp._NATIVE_FORWARD = None
            try:
                a2 = nw_align(score, -1.0)
            finally:
                dp._NATIVE_FORWARD = native
            assert np.array_equal(a1.ai, a2.ai)
            assert np.array_equal(a1.aj, a2.aj)
            assert repr(a1.dp_score) == repr(a2.dp_score)

    def test_fallback_env_toggle(self, monkeypatch):
        from repro.tmalign._dpnative import NATIVE_DP_ENV, load_forward_kernel

        monkeypatch.setenv(NATIVE_DP_ENV, "1")
        assert load_forward_kernel() is None


class TestTrustedAlignment:
    def test_from_trusted_equals_validated(self):
        ai = np.arange(2, 9, dtype=np.intp)
        aj = np.arange(5, 12, dtype=np.intp)
        fast = Alignment.from_trusted(ai, aj, dp_score=1.25)
        slow = Alignment(np.arange(2, 9), np.arange(5, 12), dp_score=1.25)
        assert fast == slow
        assert fast.key() == slow.key()
        assert fast.dp_score == slow.dp_score
        assert len(fast) == 7

    def test_from_trusted_freezes_arrays(self):
        ai = np.arange(3, dtype=np.intp)
        aj = np.arange(3, dtype=np.intp)
        ali = Alignment.from_trusted(ai, aj)
        with pytest.raises(ValueError):
            ali.ai[0] = 5


class TestSSCodesCache:
    def test_cached_and_propagated(self, tiny_chain):
        from repro.geometry.transforms import RigidTransform

        c1 = tiny_chain.ss_codes
        assert c1 is tiny_chain.ss_codes  # cached, not re-encoded
        assert c1.tobytes() == tiny_chain.secondary.encode("ascii")
        moved = tiny_chain.transformed(RigidTransform.identity())
        assert moved.ss_codes is c1  # survives transformed() copies
