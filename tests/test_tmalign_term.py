"""The compiled kernel's TM-score term ``1 / (1 + (d / d0)^2)`` vs NumPy's.

Where ``fma()`` is an instruction, the kernel computes the term of its
score matrices (the ``scores`` hook, C ``score_matrix``) and of every
search iteration's score (``superposition_search``, C ``score()``)
without a double-precision division: Markstein's corrected product for
``d / d0`` and a Newton reciprocal for ``1 / u``, ``u = (d / d0)^2 + 1``.
It falls back to the division form where those are not exact:

* lanes whose ``u`` has an all-ones significand, where the reciprocal's
  last correction lands on a tie;
* lanes whose ``u`` is not in ``[1, 2^100)``: NaN and inf distances, and
  distances so far past ``d0`` that the single-precision seed overflows;
* every lane when ``d0`` is outside ``[2^-500, 2^500]``.

Each arm must give NumPy's bits.  On the ``arch=x86-64-v4`` target the
rows run as explicit AVX-512, eight lanes at a time with masked tails,
so the tail tests cover every row length mod 8.  On a build whose hot
functions are baseline code (the ``default`` target) every lane takes
the division form, and these tests hold all the same.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.counters import CostCounter
from repro.geometry.distances import cross_distances
from repro.geometry.transforms import RigidTransform
from repro.structure.model import MAX_ABS_COORD
from repro.tmalign import tmscore
from repro.tmalign.tmscore import superposition_search
from tests.tmalign_oracles import native_loaded, numpy_path

pytestmark = pytest.mark.skipif(
    not native_loaded(), reason="compiled TM-align kernel unavailable"
)

MANTISSA = np.uint64((1 << 52) - 1)
IDENTITY = RigidTransform.from_trusted(np.eye(3), np.zeros(3))


def _denominators(d, d0):
    """NumPy's ``u = (d / d0)^2 + 1``, rounded step by step as the term."""
    q = np.asarray(d, dtype=np.float64) / d0
    return q * q + 1.0


def _all_ones(u):
    return (np.asarray(u).view(np.uint64) & MANTISSA) == MANTISSA


def _all_ones_distances():
    """Distances q with ``q * q + 1`` of an all-ones significand, from
    several binades, each with ``1 + q`` exact."""
    found = []
    for e in range(1, 12):
        target = np.ldexp(2.0 - 2.0**-52, e)
        q0 = np.sqrt(target - 1.0)
        qs = q0 + np.arange(-64, 65) * np.spacing(q0)
        qs = qs[(_denominators(qs, 1.0) == target) & ((1.0 + qs) - 1.0 == qs)]
        found += qs[:1].tolist()
    assert len(found) >= 4
    return found


def _scores_match(xa, ya, xf, d0):
    got = tmscore._KERNELS.scores(xa, ya, xf.rotation, xf.translation, d0)
    with np.errstate(all="ignore"):
        want = tmscore.tm_score_matrix(xa, ya, xf, d0)
    assert got.tobytes() == want.tobytes()
    return want


def _search_both(pa, pb, d0, **kwargs):
    """``superposition_search`` natively and on the NumPy path; asserts
    the same score and transform bits and op counts and returns the NumPy
    result."""
    kwargs.setdefault("d0_search", 5.0)
    c, c_n = CostCounter(), CostCounter()
    with np.errstate(all="ignore"):
        tm, xf = superposition_search(pa, pb, d0, pa.shape[0], counter=c, **kwargs)
        with numpy_path():
            tm_n, xf_n = superposition_search(
                pa, pb, d0, pa.shape[0], counter=c_n, **kwargs
            )
    assert repr(tm) == repr(tm_n)
    assert xf.rotation.tobytes() == xf_n.rotation.tobytes()
    assert xf.translation.tobytes() == xf_n.translation.tobytes()
    assert c.counts == c_n.counts
    return tm_n, xf_n


def _axis_pairs(q, far=(80.0, 150.0)):
    """Six pairs whose covariance is diagonal with distinct entries, so
    the search's one full-length Kabsch is exactly the identity: pairs 0
    and 1 lie ``q`` apart on x, the rest far apart on y and z (their
    terms are too small to hide a last-bit change of the first two)."""
    pa = np.array([(1, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 3),
                   (0, 0, -3)], dtype=np.float64)
    pb = np.array([(1 + q, 0, 0), (-1 - q, 0, 0), (0, far[0], 0),
                   (0, -far[0], 0), (0, 0, far[1]), (0, 0, -far[1])])
    return pa, pb


class TestAllOnesDenominator:
    def test_score_matrix(self, rng):
        qs = _all_ones_distances()
        xa = np.concatenate([
            np.array([(q, 0.0, 0.0) for q in qs]), rng.normal(scale=9.0, size=(5, 3))
        ])
        ya = np.concatenate([np.zeros((1, 3)), rng.normal(scale=9.0, size=(40, 3))])
        _scores_match(xa, ya, IDENTITY, 1.0)
        u = _denominators(cross_distances(xa, ya), 1.0)
        assert _all_ones(u[:len(qs), 0]).all()

    def test_search(self):
        for q in _all_ones_distances():
            pa, pb = _axis_pairs(q)
            tm, xf = _search_both(pa, pb, 1.0, seed_fractions=(1,))
            assert xf.rotation.tobytes() == np.eye(3).tobytes()
            d = np.linalg.norm(xf.apply(pa) - pb, axis=1)
            assert _all_ones(_denominators(d, 1.0)[:2]).all()


class TestNonFiniteDistances:
    def test_score_matrix(self, rng):
        # 1e200 squares to inf: inf distances against ordinary points and
        # inf - inf = NaN against each other; 1e40 keeps u finite but
        # past 2^100
        xa = np.concatenate([
            [(1e200, 0.0, 0.0), (0.0, -1e200, 0.0), (1e40, 0.0, 0.0)],
            rng.normal(scale=9.0, size=(4, 3)),
        ])
        ya = np.concatenate([
            [(1e200, 0.0, 0.0), (0.0, 3e39, 0.0)], rng.normal(scale=9.0, size=(40, 3))
        ])
        want = _scores_match(xa, ya, IDENTITY, 2.5)
        assert np.isnan(want[0, 0]) and (want[:2, 2:] == 0.0).all()
        with np.errstate(all="ignore"):
            u = _denominators(cross_distances(xa, ya), 2.5)
        assert np.isfinite(u[2, 1:]).all() and (u[2, 1:] >= 2.0**100).all()

    def test_search(self):
        pa, pb = _axis_pairs(1.5)
        pa[2:4, 1] = (1e-300, -1e-300)  # keeps the covariance finite
        pb[2:4, 1] = (1.5e308, -1.5e308)
        tm, _ = _search_both(pa, pb, 1.0, seed_fractions=(1,))
        assert np.isfinite(tm) and tm > 0.0  # two inf distances score 0
        pb[5] = np.nan
        assert _search_both(pa, pb, 1.0, seed_fractions=(1, 2))[0] == -1.0


class TestVectorTails:
    """Rows of every length mod 8: the AVX-512 rows' masked tail lanes
    must give NumPy's bits, and an all-ones or non-finite lane there must
    be caught.  One column or one row is np.matmul's dgemv case."""

    @pytest.mark.parametrize("lb", range(1, 18))
    def test_score_matrix(self, rng, lb):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        xf = RigidTransform.from_trusted(q, rng.normal(scale=3.0, size=3))
        xa = rng.normal(scale=9.0, size=(11, 3))
        ya = rng.normal(scale=9.0, size=(lb, 3))
        _scores_match(xa, ya, xf, 3.3)
        _scores_match(xa[:1], ya, xf, 3.3)  # one row: a dgemv in NumPy too
        # the last lane of row 0 all-ones (the origin at distance q) ...
        ya[-1] = 0.0
        xa[0] = (_all_ones_distances()[0], 0.0, 0.0)
        _scores_match(xa, ya, IDENTITY, 1.0)
        assert _all_ones(_denominators(cross_distances(xa, ya), 1.0)[0, -1])
        # ... and the last lane of every row at an infinite distance
        ya[-1] = (1e200, 0.0, 0.0)
        assert (_scores_match(xa, ya, IDENTITY, 2.5)[:, -1] == 0.0).all()

    @pytest.mark.parametrize("n", range(3, 18))
    def test_search(self, rng, n):
        pa = np.cumsum(rng.normal(scale=2.0, size=(n, 3)), axis=0)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pb = pa @ q + rng.normal(scale=0.8, size=(n, 3))
        _search_both(pa, pb, 2.7, d0_search=None)
        _search_both(pa, pb, 2.7, d0_search=None, seed_fractions=(1,))


D0_OUTSIDE = [0.0, 2.0**-1060, 5e-324, 2.0**-520, 2.0**600, 1.5 * 2.0**520]


@pytest.mark.parametrize("d0", D0_OUTSIDE, ids=lambda d0: f"{d0:.3g}")
class TestD0OutsideRange:
    def test_score_matrix(self, rng, d0):
        xa = rng.normal(scale=9.0, size=(30, 3))
        ya = np.concatenate([xa[:3], rng.normal(scale=9.0, size=(40, 3))])
        _scores_match(xa, ya, IDENTITY, d0)  # coincident points: d = 0

    def test_search(self, d0):
        pa, pb = _axis_pairs(1.5)
        _search_both(pa, pb, d0)
        pa[2:4, 1] = (1e-300, -1e-300)
        pb[2:4, 1] = (1.5e308, -1.5e308)
        _search_both(pa, pb, d0)


@given(
    shift=st.tuples(*[st.floats(0.9, 0.9995) for _ in range(6)]),
    signs=st.tuples(*[st.sampled_from([-1.0, 1.0]) for _ in range(6)]),
    d0=st.floats(0.5, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_near_the_coordinate_bound(shift, signs, d0, seed):
    """Chains translated to within 0.05-10% of ``MAX_ABS_COORD``: the
    expanded-square distances lose most of their bits to cancellation,
    and ``u`` reaches ~1e13, all on the divider-free path."""
    rng = np.random.default_rng(seed)
    offsets = np.array(shift) * np.array(signs) * MAX_ABS_COORD
    walk = np.cumsum(rng.normal(scale=2.0, size=(60, 3)), axis=0)
    xa = walk[:45] + offsets[:3]
    ya = walk[15:] + rng.normal(scale=1.0, size=(45, 3)) + offsets[3:]
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    xf = RigidTransform.from_trusted(q, rng.normal(scale=5.0, size=3))
    _scores_match(xa, ya, xf, d0)
    _search_both(xa, ya, d0, d0_search=None)
