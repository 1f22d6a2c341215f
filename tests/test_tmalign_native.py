"""Compiled TM-align kernel vs the NumPy path vs the serial oracles.

The compiled search, window and traceback entry points must reproduce
the NumPy path bit for bit — scores by repr, transforms by bytes, op
counts exactly.  ``tests/test_tmalign_batch.py`` runs the search and
threading differentials over random geometries; this file adds the
traceback, fragment sub-matches, whole ``tm_align`` runs over perturbed
ck34 pairs, and the load-time self-check, which must switch the entry
points off on any mismatch and leave the NumPy path producing the
goldens.  Tests that need the compiled kernel skip when it is
unavailable (no C compiler, ``REPRO_NO_NATIVE_DP`` set, or a BLAS build
the self-check rejected).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.counters import CostCounter
from repro.structure.synthetic import perturb_chain
from repro.tmalign import _dpnative, dp, initial, tm_align, tmscore
from repro.tmalign.dp import nw_align
from repro.tmalign.initial import fragment_threading
from repro.tmalign.tmscore import superposition_search
from tests.test_tmalign_golden import GOLDEN
from tests.test_tmalign_golden import test_kernel_bit_identical_to_seed as check_golden
from tests.tmalign_oracles import (
    NATIVE_HANDLES,
    fragment_threading_serial,
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
