"""Compiled TM-align kernel vs the NumPy path vs the serial oracles.

Each public entry point has one native call — ``superposition_search``
→ ``tm_search``, ``nw_align``'s walk → ``nw_traceback``, ``tm_align`` →
``tm_align_pair`` — and it must reproduce the NumPy path bit for bit:
scores by repr, transforms by bytes, op counts exactly.
``tests/test_tmalign_batch.py`` runs the search and threading
differentials over random geometries; this file adds the traceback, the
threading scans, fragment sub-matches and every exit of the refinement
loop seen through whole ``tm_align`` runs over ck34, rs119-mini and
edge-case pairs and parameter sets, the test hooks for what a whole pair
cannot show (the score matrix at GEMM edge tiles, the window screen's
bound, the SVD chain and memo), and the load-time self-check, which must
switch the entry points off on any mismatch and leave the NumPy path
producing the goldens.  Tests that need the compiled kernel skip when it
is unavailable (no C compiler, ``REPRO_NO_NATIVE_DP`` set, or a BLAS
build the self-check rejected).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.counters import CostCounter
from repro.datasets import load_dataset
from repro.geometry.transforms import RigidTransform
from repro.structure.model import MAX_ABS_COORD, Chain
from repro.structure.synthetic import perturb_chain
from repro.tmalign import _dpnative, align, dp, tm_align, tmscore
from repro.tmalign.dp import nw_align
from repro.tmalign.initial import (
    _fragment_geometry,
    _windows_numpy,
    fragment_threading,
    gapless_threading,
)
from repro.tmalign.params import TMAlignParams
from repro.tmalign.tmscore import superposition_search
from tests.test_tmalign_golden import GOLDEN
from tests.test_tmalign_golden import test_kernel_bit_identical_to_seed as check_golden
from tests.tmalign_oracles import (
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


def _raw_chain(name, coords, sequence=None):
    """A chain over ``coords`` as given: ``Chain`` rejects non-finite
    input, so the coordinates are swapped in afterwards."""
    out = Chain(name, np.zeros((coords.shape[0], 3)), sequence)
    out.coords = np.asarray(coords, dtype=np.float64)
    return out


#: parameter sets under which a ``tm_align`` result shows the ranked
#: threading windows: the defaults, then each scan alone with one
#: refinement step, whose best alignment is its start, so the result is
#: a ranked window with its GL score as dp_score
SCAN_PARAMS = (
    TMAlignParams(),
    TMAlignParams(use_ss_init=False, use_fragment_init=False,
                  use_combined_init=False, max_refine_iters=1),
    TMAlignParams(use_threading_init=False, use_ss_init=False,
                  use_combined_init=False, max_refine_iters=1),
)


def assert_scans_match(xa, ya):
    """``tm_align`` of the chains over ``xa`` and ``ya``, in both orders
    and under every :data:`SCAN_PARAMS`, natively (the scans inside
    ``tm_align_pair``) and on the NumPy path: every result field and the
    charged counter, or the same error."""
    a, b = _raw_chain("a", xa), _raw_chain("b", ya)
    for params in SCAN_PARAMS:
        assert_whole_pairs_match([(a, b), (b, a)], params)


@requires_native
def test_fragment_submatch_three_paths(rng):
    # a rotated noisy copy gives a pronounced best placement, in both
    # chain orders (the swap branch): the NumPy scan equals the serial
    # oracle, and whole pairs equal natively and on the NumPy path
    base = _walk(rng, 120)
    for la, lb in ((20, 31), (90, 41), (120, 120)):
        xa = base[:la]
        ya = base[:lb] @ _rotation(rng) + rng.normal(scale=1.0, size=(lb, 3))
        results = []
        for run in (fragment_threading, fragment_threading_serial):
            ctr = CostCounter()
            ali = run(xa, ya, 2.7, min(la, lb), counter=ctr)
            results.append((ali.key(), repr(ali.dp_score), ctr.counts))
        assert results[0] == results[1], (la, lb)
        assert_scans_match(xa, ya)


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
    """The threading scans inside ``tm_align_pair`` screen every window
    with a QCP superposition and score exactly only the windows that can
    still rank.  On the inputs where the screen is weakest — reflections,
    rank-deficient and repeated windows, ties and near-ties between
    windows, and NaN — whole pairs must equal the NumPy path
    (:func:`assert_scans_match`), the NumPy scans the serial oracles, and
    every screened bound must hold against the exact NumPy scores."""

    D0, LNORM = 2.6, 40

    def _three_ways(self, xa, ya):
        for run, serial in ((gapless_threading, gapless_threading_serial),
                            (fragment_threading, fragment_threading_serial)):
            ctrs = [CostCounter() for _ in range(2)]
            runs = [run(xa, ya, self.D0, self.LNORM, counter=ctrs[0]),
                    serial(xa, ya, self.D0, self.LNORM, counter=ctrs[1])]
            keys = [
                [(a.key(), repr(a.dp_score))
                 for a in (r if isinstance(r, list) else [r])]
                for r in runs
            ]
            assert keys[0] == keys[1], run.__name__
            assert ctrs[0].counts == ctrs[1].counts
        assert_scans_match(xa, ya)
        kernels = tmscore._KERNELS
        for args in _scans(xa, ya):
            want = _windows_numpy(*args, self.D0, self.LNORM)
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

    def test_loose_eigenvector_takes_the_sine_exit(self):
        # six residues zig-zagging 0.016616 off a line: the Horn matrix's
        # top eigenvalues split by 2(sigma2 + sigma3), just past the root
        # error allowance (the eigen-gap is positive from 0.0166128 on);
        # 9e5 from the origin the lever-arm term then exceeds a tenth of
        # that gap (up to ~0.016619), so the window goes to exact scoring
        d1 = np.array([0.3, -1.2, 0.8]) / np.linalg.norm([0.3, -1.2, 0.8])
        d2 = np.cross(d1, [1.0, 0.0, 0.0])
        d2 /= np.linalg.norm(d2)
        zigzag = np.array([1.0, -1.0] * 3)
        window = (1.5 * np.arange(6.0)[:, None] * d1
                  + 0.016616 * zigzag[:, None] * d2 + 9e5)
        screens = tmscore._KERNELS.window_screens(
            window, window.copy(), [0], [0], [6], self.D0, self.LNORM
        )
        assert np.isnan(screens).all()
        self._three_ways(window, window.copy())

    def test_screen_prunes_all_but_the_ranked(self, rng):
        """On a plain pair the exact pass runs on a handful of windows,
        and every window is still counted as scanned."""
        kernels = tmscore._KERNELS
        xa = _walk(rng, 80)
        ya = xa[10:70] @ _rotation(rng) + rng.normal(scale=0.5, size=(60, 3))
        gapless_only = TMAlignParams(use_ss_init=False, use_fragment_init=False,
                                     use_combined_init=False)
        scanned, exact = kernels.window_counts()
        tm_align(Chain("a", xa), Chain("b", ya), gapless_only)
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
    # at lb = 215, 216-219 at lb = 220 on one build): the matrix
    # tm_align_pair builds must match NumPy's there too.  A last-bit
    # difference there rarely moves an alignment, so the matrix is
    # compared through the ``scores`` hook; whole pairs at those widths
    # must match as well.
    kernels = tmscore._KERNELS
    base = _walk(rng, 320)
    for la in (24, 150, 301):
        for lb in range(205, 233):
            xf = RigidTransform.from_trusted(_rotation(rng), rng.normal(size=3))
            ya = base[:lb] + rng.normal(scale=2.0, size=(lb, 3))
            got = kernels.scores(base[:la], ya, xf.rotation, xf.translation, 3.1)
            want = tmscore.tm_score_matrix(base[:la], ya, xf, 3.1)
            assert got.tobytes() == want.tobytes(), (la, lb)
            if la == 24 and lb % 4 == 0:
                assert_whole_pairs_match([(Chain("a", base[:la]), Chain("b", ya))])


def _traced_numpy_align(a, b, params, monkeypatch):
    """``tm_align(a, b, params)`` on the NumPy path with a spy on
    ``align._refine``: its :func:`_outcome`, and per refinement a trace of
    its start, the search score and DP alignment of each step, and what
    it returned."""
    traces, active = [], []
    refine, search, dp_align = align._refine, align.superposition_search, align.nw_align

    def spy_refine(xa, ya, start, *rest):
        trace = {"start": start, "tm": [], "dp": []}
        traces.append(trace)
        active.append(trace)
        try:
            trace["result"] = refine(xa, ya, start, *rest)
        finally:
            active.pop()
        return trace["result"]

    def spy_search(*args, **kwargs):
        tm, xf = search(*args, **kwargs)
        if active:  # not the quick or final searches
            active[-1]["tm"].append(tm)
        return tm, xf

    def spy_dp(*args, **kwargs):
        ali = dp_align(*args, **kwargs)
        if active:
            active[-1]["dp"].append(ali)
        return ali

    with monkeypatch.context() as m, numpy_path(), np.errstate(invalid="ignore"):
        m.setattr(align, "_refine", spy_refine)
        m.setattr(align, "superposition_search", spy_search)
        m.setattr(align, "nw_align", spy_dp)
        outcome = _outcome(a, b, params)
    return outcome, traces


def _exit(trace, params):
    """How one traced refinement loop left."""
    if len(trace["tm"]) == len(trace["dp"]) + 1:
        return "patience"  # a search that did not improve, no DP after it
    keys = [trace["start"].key()] + [ali.key() for ali in trace["dp"]]
    if keys[-1] in keys[:-1]:
        return "seen"
    if len(trace["dp"][-1]) < 3:
        return "below three pairs"
    assert len(trace["dp"]) == params.max_refine_iters
    return "step cap"


def _tiny_pair(seed, max_len, scale):
    rng = np.random.default_rng(seed)
    la, lb = (int(x) for x in rng.integers(3, max_len, size=2))
    return (Chain("a", rng.uniform(-scale, scale, size=(la, 3))),
            Chain("b", rng.uniform(-scale, scale, size=(lb, 3))))


@requires_native
class TestRefineDifferential:
    """Every exit of the refinement loop, through whole pairs.

    ``tm_align`` natively (``refine_core`` inside ``tm_align_pair``) must
    equal the NumPy path in every result field and the charged counter,
    on pairs and parameters chosen so that a spy on the NumPy run sees
    the named exit: the alignment repeats one seen, the score stops
    improving for ``refine_patience`` steps, ``max_refine_iters`` steps,
    the DP keeps < 3 pairs, the start stays best.  A loop that runs one
    step more or less shows in the op counts.
    """

    def _exits(self, pairs, params, monkeypatch):
        """Each refinement of the pairs' NumPy runs as ``(exit, trace)``,
        after checking every pair natively vs on the NumPy path."""
        out = []
        for a, b in pairs:
            reference, traces = _traced_numpy_align(a, b, params, monkeypatch)
            assert _outcome(a, b, params) == reference
            out.extend((_exit(t, params), t) for t in traces)
        return out

    def test_long_chains_past_gemm_tiling(self, rng, monkeypatch):
        # score matrices of >= 300 columns cross OpenBLAS's column tiles
        xa = _walk(rng, 329)
        ya = xa[9:314] @ _rotation(rng) + rng.normal(scale=1.5, size=(305, 3))
        a, b = Chain("a", xa[:320]), Chain("b", ya)
        exits = self._exits([(a, b)], TMAlignParams(), monkeypatch)
        assert max(len(t["dp"]) for _, t in exits) >= 2

    def test_exit_by_seen_alignment(self, ck34, monkeypatch):
        params = TMAlignParams()
        exits = self._exits([(ck34[0], ck34[1]), (ck34[2], ck34[17])], params,
                            monkeypatch)
        assert "seen" in [e for e, _ in exits]

    def test_exit_by_patience(self, ck34, monkeypatch):
        exits = self._exits([(ck34[5], ck34[20]), (ck34[3], ck34[25])],
                            TMAlignParams(refine_patience=1), monkeypatch)
        assert "patience" in [e for e, _ in exits]

    def test_exit_by_iteration_cap(self, ck34, monkeypatch):
        params = TMAlignParams(max_refine_iters=2, refine_patience=5)
        exits = self._exits([(ck34[3], ck34[25])], params, monkeypatch)
        assert "step cap" in [e for e, _ in exits]

    def test_exit_below_three_pairs(self, monkeypatch):
        # free gaps let the DP keep two well-placed pairs of a tiny chain
        pairs = [_tiny_pair(seed, 7, 6.0) for seed in (18, 21)]
        exits = self._exits(pairs, TMAlignParams(gap_open=0.0), monkeypatch)
        assert "below three pairs" in [e for e, _ in exits]

    def test_starting_candidate_stays_best(self, ck34, monkeypatch):
        """The first gapless window stays best through its refinement and
        wins: the result is that window, with its GL score as dp_score."""
        a, b = ck34[0], ck34[1]
        exits = self._exits([(a, b)], TMAlignParams(), monkeypatch)
        kept = [t for _, t in exits if t["result"][1] is t["start"]]
        assert kept and kept[0]["result"][0] > 0.5
        res = tm_align(a, b)
        assert res.alignment.key() == kept[0]["start"].key()
        assert repr(res.alignment.dp_score) == repr(kept[0]["start"].dp_score)

    def test_start_below_three_pairs_returns_identity(self, ck34, monkeypatch):
        """``tm_align`` refines no candidate of < 3 pairs; when no
        refinement scores above -1 the first candidate comes back under
        the identity, and when it has < 3 pairs too, both paths raise."""
        combined = []
        build = align.combined_alignment

        def spy_combined(*args, **kwargs):
            combined.append(build(*args, **kwargs))
            return combined[-1]

        monkeypatch.setattr(align, "combined_alignment", spy_combined)
        # free gaps and no SS term: the combined DP keeps 2 pairs
        pair = _tiny_pair(36, 9, 30.0)
        exits = self._exits([pair], TMAlignParams(gap_open=0.0, ss_mix=0.0),
                            monkeypatch)
        assert len(combined[-1]) < 3
        assert exits and all(len(t["start"]) >= 3 for _, t in exits)
        # the combined DP is the only candidate, of < 3 pairs: nothing is
        # refined, and the first candidate fails the final search
        bare = TMAlignParams(use_threading_init=False, use_ss_init=False,
                             use_fragment_init=False, gap_open=0.0, ss_mix=0.0)
        pair = _tiny_pair(0, 9, 30.0)
        reference, traces = _traced_numpy_align(*pair, bare, monkeypatch)
        assert not traces and len(combined[-1]) < 3
        assert reference == (ValueError, "need at least 3 matched pairs")
        assert _outcome(*pair, bare) == reference
        # an all-NaN chain: every refinement keeps its start at -1, and
        # the result is the first candidate under the identity
        every = _raw_chain("all_nan", np.full((len(ck34[17]), 3), np.nan))
        reference, traces = _traced_numpy_align(ck34[2], every, None, monkeypatch)
        assert _outcome(ck34[2], every) == reference
        assert traces and all(t["result"][0] == -1.0 for t in traces)
        assert reference[0][14] == np.eye(3).tobytes()  # the result's rotation


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


def assert_whole_pairs_match(pairs, params=None):
    """``tm_align`` of each pair natively and on the NumPy path gives the
    same :func:`_outcome`; returns the outcomes."""
    native = [_outcome(a, b, params) for a, b in pairs]
    with numpy_path(), np.errstate(invalid="ignore"):
        reference = [_outcome(a, b, params) for a, b in pairs]
    assert native == reference
    return reference


def _nan_copy(chain, rows, name):
    """``chain`` with NaN coordinates at ``rows``."""
    coords = chain.coords.copy()
    coords[rows] = np.nan
    return _raw_chain(name, coords, chain.sequence)


@pytest.fixture(scope="module")
def rs119_mini():
    return load_dataset("rs119-mini")


@requires_native
class TestOneCallAlign:
    """``tm_align`` as one ``tm_align_pair`` call vs the Python
    orchestration on the NumPy path: every result field, the charged
    counter, or the same error."""

    def _both(self, pairs, params=None):
        return assert_whole_pairs_match(pairs, params)

    def test_ck34_pairs_both_orders(self, ck34):
        pairs = [(ck34[i], ck34[j]) for i, j in ((0, 1), (0, 30), (5, 20), (12, 33))]
        self._both(pairs + [(b, a) for a, b in pairs])

    @given(
        shift=st.tuples(*[st.floats(0.9, 0.9995) for _ in range(6)]),
        signs=st.tuples(*[st.sampled_from([-1.0, 1.0]) for _ in range(6)]),
        pair=st.sampled_from([(0, 1), (5, 20), (12, 33)]),
    )
    @settings(max_examples=8, deadline=None)
    def test_chains_near_the_coordinate_bound(self, shift, signs, pair):
        # translated chains stay inside Chain's bound (ck34 spans well
        # under 0.05% of it); there both paths are finite and agree
        ck34 = load_dataset("ck34")
        offsets = np.array(shift) * np.array(signs) * MAX_ABS_COORD
        a, b = (
            Chain(c.name, c.coords + offsets[3 * k:3 * k + 3], c.sequence)
            for k, c in enumerate(ck34[i] for i in pair)
        )
        [(key, _counts)] = self._both([(a, b)])
        # TM-scores, RMSD and dp_score: a result, and a finite one
        assert np.isfinite([float(key[k]) for k in (4, 5, 6, 13)]).all()

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
    @pytest.mark.skipif(
        _dpnative.load_tm_kernels() is None, reason="compiled TM-align kernel unavailable"
    )
    def test_passes_on_this_build(self):
        """Wherever the kernel builds against NumPy's bundled OpenBLAS, the
        import-time self-check kept every handle on: a kernel that drifts
        from the NumPy path on the probe fails here instead of turning the
        native tests into skips."""
        assert native_loaded()
        assert _dpnative.self_check()

    @requires_native
    def test_forced_mismatch_falls_back_and_goldens_hold(self, monkeypatch, ck34):
        handles = _dpnative.native_handles()
        assert [name for _, name in handles] == [
            "_NATIVE_TRACEBACK", "_NATIVE_SEARCH", "_NATIVE_ALIGN",
        ]
        for mod, name in handles:
            monkeypatch.setattr(mod, name, getattr(mod, name))
        native_search = tmscore._NATIVE_SEARCH

        def off_by_one_ulp(*args, **kwargs):
            tm, rot, tra = native_search(*args, **kwargs)
            return float(np.nextafter(tm, 2.0)), rot, tra

        monkeypatch.setattr(tmscore, "_NATIVE_SEARCH", off_by_one_ulp)
        forward = dp._NATIVE_FORWARD
        assert not _dpnative.self_check()
        assert all(getattr(mod, name) is None for mod, name in handles)
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
        for mod, name in _dpnative.native_handles():
            monkeypatch.setattr(mod, name, None)
        assert not _dpnative.self_check()
