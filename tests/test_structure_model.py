"""Chain model behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.transforms import RigidTransform, random_rotation
from repro.structure.model import MAX_ABS_COORD, Chain


def _coords(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(0, 2, (n, 3)), axis=0)


class TestChainConstruction:
    def test_basic(self):
        c = Chain("x", _coords(5), "AAAAA")
        assert len(c) == 5
        assert c.sequence == "AAAAA"

    def test_default_sequence_polyalanine(self):
        c = Chain("x", _coords(4))
        assert c.sequence == "AAAA"

    def test_sequence_length_mismatch(self):
        with pytest.raises(ValueError):
            Chain("x", _coords(4), "AAA")

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            Chain("x", _coords(2))

    def test_non_finite_rejected(self):
        bad = _coords(5)
        bad[2, 1] = np.nan
        with pytest.raises(ValueError):
            Chain("x", bad)

    @given(
        value=st.sampled_from([np.nan, np.inf, -np.inf])
        | st.floats(MAX_ABS_COORD, 1e308).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        row=st.integers(0, 4),
        col=st.integers(0, 2),
    )
    @settings(max_examples=50, deadline=None)
    def test_over_bound_and_non_finite_raise_one_error(self, value, row, col):
        bad = _coords(5)
        bad[row, col] = value
        with pytest.raises(ValueError) as err:
            Chain("x", bad)
        assert str(err.value) == "coords must be finite and within +-1e+06 A"

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            Chain("x", np.zeros((5, 2)))

    def test_coords_readonly(self):
        c = Chain("x", _coords(5))
        with pytest.raises(ValueError):
            c.coords[0, 0] = 1.0


class TestChainOps:
    def test_transformed_moves_coords(self, rng):
        c = Chain("x", _coords(8))
        xf = RigidTransform(random_rotation(rng), rng.normal(size=3))
        moved = c.transformed(xf)
        np.testing.assert_allclose(moved.coords, xf.apply(c.coords))
        assert moved.sequence == c.sequence

    def test_secondary_invariant_under_transform(self, rng, small_fold_pair):
        parent, _ = small_fold_pair
        xf = RigidTransform(random_rotation(rng), rng.normal(size=3) * 30)
        assert parent.transformed(xf).secondary == parent.secondary

    def test_slice(self):
        c = Chain("x", _coords(10), "ABCDEFGHIK")
        sub = c.slice(2, 7)
        assert len(sub) == 5
        assert sub.sequence == "CDEFG"
        np.testing.assert_array_equal(sub.coords, c.coords[2:7])

    def test_slice_bad_range(self):
        c = Chain("x", _coords(5))
        with pytest.raises(ValueError):
            c.slice(3, 2)
        with pytest.raises(ValueError):
            c.slice(0, 99)

    def test_wire_bytes_grow_with_length(self):
        a = Chain("a", _coords(10))
        b = Chain("b", _coords(20))
        assert b.nbytes_wire > a.nbytes_wire
        assert a.nbytes_wire == 64 + 32 * 10

    def test_pdb_bytes_estimate(self):
        c = Chain("a", _coords(10))
        assert c.nbytes_pdb == 81 * 10 + 200

    def test_secondary_cached(self, small_fold_pair):
        parent, _ = small_fold_pair
        first = parent.secondary
        assert parent.secondary is first
