"""One-vs-all ranked search and all-vs-all score tables."""

import numpy as np
import pytest

from repro.cost.counters import CostCounter
from repro.parallel import ParallelConfig
from repro.psc.methods import SSECompositionMethod, TMAlignMethod, get_method
from repro.psc.search import all_vs_all, one_vs_all


def _family_auc(table, dataset, key):
    """Mann-Whitney AUC of same-family pairs over cross-family pairs: the
    chance that a random same-family pair outscores a random cross-family
    one, ties counting half."""
    family = {c.name: c.family for c in dataset}
    same, cross = [], []
    for (a, b), scores in table.items():
        (same if family[a] == family[b] else cross).append(scores[key])
    same, cross = np.array(same)[:, None], np.array(cross)[None, :]
    wins = (same > cross).sum() + 0.5 * (same == cross).sum()
    return float(wins / (same.size * cross.size))


class TestOneVsAll:
    def test_ranked_descending(self, ck34_mini):
        hits = one_vs_all(ck34_mini[0], ck34_mini, method=SSECompositionMethod())
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_self_excluded(self, ck34_mini):
        hits = one_vs_all(ck34_mini[0], ck34_mini)
        assert ck34_mini[0].name not in [h.chain_name for h in hits]

    def test_self_included_ranks_first(self, ck34_mini):
        hits = one_vs_all(
            ck34_mini[0], ck34_mini, method=SSECompositionMethod(), exclude_self=False
        )
        assert hits[0].chain_name == ck34_mini[0].name

    def test_family_members_rank_high_with_tmalign(self, ck34):
        """The paper's motivating use case: structurally similar proteins
        rank higher."""
        sub = ck34.subset(12, "ck34-search")  # globins + start of tim family
        query = sub.by_name("ck_globin_01")
        hits = one_vs_all(query, sub, method=TMAlignMethod())
        top3 = [h.chain_name for h in hits[:3]]
        assert all(name.startswith("ck_globin") for name in top3)

    def test_counter_accumulates(self, ck34_mini):
        ctr = CostCounter()
        one_vs_all(ck34_mini[0], ck34_mini, method=SSECompositionMethod(), counter=ctr)
        assert ctr["align_fixed"] > 0

    def test_hit_details_preserved(self, ck34_mini):
        hits = one_vs_all(ck34_mini[0], ck34_mini, method=SSECompositionMethod())
        assert all("similarity" in h.details for h in hits)


class TestFamilyRanking:
    """Search quality on known families: same-family chains must outrank
    the rest, which is what a ranked PSC search is for."""

    @pytest.fixture(scope="class")
    def two_families(self, ck34):
        return ck34.subset(12, "ck34-quality")  # 8 globins + 4 TIM barrels

    @pytest.mark.parametrize("name", ["sse_composition", "kabsch_rmsd"])
    def test_family_auc_above_chance(self, ck34, name):
        table = all_vs_all(ck34, method=get_method(name))
        assert _family_auc(table, ck34, "similarity") > 0.6  # even crude methods

    def test_tmalign_auc_beats_sse_on_mini(self, two_families):
        """TM-align must be the better fold detector: the reason it is
        worth parallelizing at all."""
        tm = all_vs_all(two_families, method=TMAlignMethod())
        sse = all_vs_all(two_families, method=SSECompositionMethod())
        tm_auc = _family_auc(tm, two_families, "tm_norm_b")
        assert tm_auc > 0.95
        assert tm_auc >= _family_auc(sse, two_families, "similarity")

    def test_recovers_families(self, two_families):
        """Each query's hits above the conventional 0.5 same-fold TM-score
        line are exactly the rest of its family."""
        for query in two_families:
            hits = one_vs_all(query, two_families, method=TMAlignMethod())
            above = {h.chain_name for h in hits if h.score > 0.5}
            family = {c.name for c in two_families if c.family == query.family}
            assert above == family - {query.name}, query.name


class TestAllVsAll:
    def test_pair_count(self, ck34_mini):
        table = all_vs_all(ck34_mini, method=SSECompositionMethod())
        n = len(ck34_mini)
        assert len(table) == n * (n - 1) // 2

    def test_keys_are_name_pairs(self, ck34_mini):
        table = all_vs_all(ck34_mini, method=SSECompositionMethod())
        names = {c.name for c in ck34_mini}
        for a, b in table:
            assert a in names and b in names


class TestRankHitsTieBreak:
    def test_equal_scores_order_by_chain_name(self):
        from repro.psc.search import rank_hits

        method = SSECompositionMethod()
        scores = {"similarity": 0.5}
        rows = [("zeta", dict(scores)), ("alpha", dict(scores)),
                ("mid", dict(scores))]
        hits = rank_hits(rows, method)
        assert [h.chain_name for h in hits] == ["alpha", "mid", "zeta"]

    def test_score_dominates_name(self):
        from repro.psc.search import rank_hits

        method = SSECompositionMethod()
        rows = [("alpha", {"similarity": 0.1}), ("zeta", {"similarity": 0.9})]
        hits = rank_hits(rows, method)
        assert [h.chain_name for h in hits] == ["zeta", "alpha"]


class TestPrefilteredSearch:
    """Hierarchical search wiring: promotion in front of the exact tier."""

    @staticmethod
    def _pf(dataset, keep=0.5, min_keep=2):
        from repro.seqalign.prefilter import PrefilterConfig, SequencePrefilter

        return SequencePrefilter.from_chains(
            list(dataset), PrefilterConfig(keep=keep, min_keep=min_keep)
        )

    def test_off_path_identical(self, ck34_mini):
        method = SSECompositionMethod()
        plain = one_vs_all(ck34_mini[0], ck34_mini, method=method)
        off = one_vs_all(ck34_mini[0], ck34_mini, method=method, prefilter=None)
        assert plain == off

    def test_subset_preserves_exact_order(self, ck34_mini):
        method = SSECompositionMethod()
        pf = self._pf(ck34_mini)
        exact = one_vs_all(ck34_mini[0], ck34_mini, method=method)
        hits = one_vs_all(ck34_mini[0], ck34_mini, method=method, prefilter=pf)
        promoted = {h.chain_name for h in hits}
        assert len(hits) == pf.config.n_promoted(len(ck34_mini) - 1)
        # the prefiltered ranking is the exact ranking minus demotions
        assert [h for h in exact if h.chain_name in promoted] == hits

    def test_config_builds_prefilter(self, ck34_mini):
        from repro.seqalign.prefilter import PrefilterConfig

        cfg = PrefilterConfig(keep=0.5, min_keep=2)
        hits = one_vs_all(
            ck34_mini[0], ck34_mini, method=SSECompositionMethod(),
            prefilter=cfg,
        )
        assert len(hits) == cfg.n_promoted(len(ck34_mini) - 1)

    def test_serial_matches_parallel_one_vs_all(self, ck34_mini):
        method = SSECompositionMethod()
        pf = self._pf(ck34_mini)
        serial = one_vs_all(ck34_mini[1], ck34_mini, method=method, prefilter=pf)
        par = one_vs_all(
            ck34_mini[1], ck34_mini, method=method, prefilter=pf,
            config=ParallelConfig(workers=2),
        )
        assert serial == par

    def test_resolve_prefilter_rejects_wrong_corpus(self, ck34_mini):
        from repro.psc.search import resolve_prefilter
        from repro.seqalign.prefilter import SequencePrefilter

        other = SequencePrefilter(["x"], ["AAA"], ["CCC"])
        with pytest.raises(ValueError):
            resolve_prefilter(other, ck34_mini)
        with pytest.raises(TypeError):
            resolve_prefilter(object(), ck34_mini)
