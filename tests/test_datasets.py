"""Dataset builders and registry."""

import numpy as np
import pytest

from repro.datasets import (
    Dataset,
    all_vs_all_pairs,
    build_ck34,
    build_rs119,
    load_dataset,
)
from repro.datasets.pairs import n_all_vs_all
from repro.structure.model import Chain


class TestRegistry:
    def test_known_names(self):
        for name in ("ck34", "rs119", "ck34-mini", "rs119-mini"):
            assert len(load_dataset(name)) > 0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_memoized(self):
        assert load_dataset("ck34") is load_dataset("ck34")

    def test_case_insensitive(self):
        assert load_dataset("CK34") is load_dataset("ck34")


class TestCk34:
    def test_34_chains(self):
        assert len(load_dataset("ck34")) == 34

    def test_five_families(self):
        fams = load_dataset("ck34").families
        assert len(fams) == 5
        assert sum(len(m) for m in fams.values()) == 34

    def test_deterministic(self):
        a = build_ck34()
        b = build_ck34()
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.coords, cb.coords)
            assert ca.sequence == cb.sequence

    def test_realistic_lengths(self):
        ds = load_dataset("ck34")
        assert all(60 <= len(c) <= 300 for c in ds)
        assert 120 < ds.mean_length < 180

    def test_family_composition_matches_spec(self):
        from repro.datasets.ck34 import CK34_FAMILIES

        fams = load_dataset("ck34").families
        for name, members, _, _ in CK34_FAMILIES:
            assert len(fams[name]) == members


class TestRs119:
    def test_119_chains(self):
        assert len(load_dataset("rs119")) == 119

    def test_longer_than_ck34(self):
        assert load_dataset("rs119").mean_length > load_dataset("ck34").mean_length

    def test_deterministic(self):
        a = build_rs119()
        b = build_rs119()
        np.testing.assert_array_equal(a[7].coords, b[7].coords)

    def test_unique_names(self):
        names = [c.name for c in load_dataset("rs119")]
        assert len(set(names)) == 119

    def test_work_ratio_brackets_paper(self):
        """The Table III calibration needs CK34/RS119 work and pair-count
        ratios to bracket the paper's time ratios (14.1x, 18.0x)."""
        ck = [len(c) for c in load_dataset("ck34")]
        rs = [len(c) for c in load_dataset("rs119")]

        def prodsum(ls):
            total = 0
            for i in range(len(ls)):
                for j in range(i + 1, len(ls)):
                    total += ls[i] * ls[j]
            return total

        work_ratio = prodsum(rs) / prodsum(ck)
        pair_ratio = (119 * 118 / 2) / (34 * 33 / 2)
        assert pair_ratio < 14.0 < 18.1 < work_ratio


class TestDatasetContainer:
    def test_by_name(self, ck34_mini):
        chain = ck34_mini[3]
        assert ck34_mini.by_name(chain.name) is chain

    def test_by_name_missing(self, ck34_mini):
        with pytest.raises(KeyError):
            ck34_mini.by_name("missing")

    def test_subset(self, ck34):
        sub = ck34.subset(5)
        assert len(sub) == 5
        assert sub[0] is ck34[0]

    def test_subset_bad_n(self, ck34_mini):
        with pytest.raises(ValueError):
            ck34_mini.subset(0)
        with pytest.raises(ValueError):
            ck34_mini.subset(10**6)

    def test_duplicate_names_rejected(self, tiny_chain):
        with pytest.raises(ValueError):
            Dataset("d", (tiny_chain, tiny_chain))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset("d", ())


class TestPairEnumeration:
    def test_unordered_count(self):
        assert len(list(all_vs_all_pairs(34))) == 561
        assert len(list(all_vs_all_pairs(119))) == 7021

    def test_ordered_count(self):
        assert len(list(all_vs_all_pairs(5, ordered=True))) == 20

    def test_include_self(self):
        pairs = list(all_vs_all_pairs(3, include_self=True))
        assert (0, 0) in pairs and len(pairs) == 6

    def test_counts_formula_matches(self):
        for n in (1, 2, 5, 34):
            for ordered in (False, True):
                for inc in (False, True):
                    got = len(list(all_vs_all_pairs(n, ordered=ordered, include_self=inc)))
                    assert got == n_all_vs_all(n, ordered=ordered, include_self=inc)

    def test_unordered_i_lt_j(self):
        assert all(i < j for i, j in all_vs_all_pairs(10))
