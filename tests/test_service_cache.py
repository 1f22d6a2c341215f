"""Result cache: LRU eviction order, params sensitivity, byte identity."""

import json

import pytest

from repro.psc import get_method
from repro.service import ResultCache, pair_key, resolve_method
from repro.service.batcher import PairJob, result_body
from repro.service.protocol import canonical_json
from repro.service.registry import chain_content_hash


def key(tag: str):
    return pair_key(f"hash-{tag}", "hash-other", "tmalign", "params-0")


class TestLRUOrder:
    def test_capacity_is_enforced_oldest_first(self):
        cache = ResultCache(capacity=2)
        cache.put(key("a"), "A")
        cache.put(key("b"), "B")
        cache.put(key("c"), "C")
        assert key("a") not in cache
        assert cache.keys() == [key("b"), key("c")]
        assert cache.stats()["evictions"] == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        cache.put(key("a"), "A")
        cache.put(key("b"), "B")
        assert cache.get(key("a")) == "A"  # a becomes most recent
        cache.put(key("c"), "C")
        assert key("b") not in cache
        assert cache.keys() == [key("a"), key("c")]

    def test_put_refreshes_recency_without_evicting(self):
        cache = ResultCache(capacity=2)
        cache.put(key("a"), "A")
        cache.put(key("b"), "B")
        cache.put(key("a"), "A2")  # refresh, not insert
        assert len(cache) == 2 and cache.stats()["evictions"] == 0
        cache.put(key("c"), "C")
        assert key("b") not in cache and cache.get(key("a")) == "A2"

    def test_hit_miss_counters(self):
        cache = ResultCache(capacity=4)
        assert cache.get(key("a")) is None
        cache.put(key("a"), "A")
        assert cache.get(key("a")) == "A"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1 and stats["capacity"] == 4

    def test_direction_matters(self):
        cache = ResultCache(capacity=4)
        cache.put(pair_key("h1", "h2", "tmalign", "p"), "fwd")
        assert cache.get(pair_key("h2", "h1", "tmalign", "p")) is None


class TestParamsSensitivity:
    def test_changed_tmalign_knob_changes_the_key(self):
        _m0, hash_default = resolve_method("tmalign", None)
        _m1, hash_tweaked = resolve_method("tmalign", {"max_refine_iters": 5})
        assert hash_default != hash_tweaked
        cache = ResultCache(capacity=8)
        cache.put(pair_key("a", "b", "tmalign", hash_default), "default-body")
        assert cache.get(pair_key("a", "b", "tmalign", hash_tweaked)) is None

    def test_default_spelled_explicitly_shares_the_key(self):
        _m0, hash_default = resolve_method("tmalign", None)
        _m1, hash_spelled = resolve_method("tmalign", {"gap_open": -0.6})
        assert hash_default == hash_spelled

    def test_methods_never_collide(self):
        _ma, ha = resolve_method("sse_composition", None)
        _mb, hb = resolve_method("kabsch_rmsd", None)
        cache = ResultCache(capacity=8)
        cache.put(pair_key("a", "b", "sse_composition", ha), "sse")
        assert cache.get(pair_key("a", "b", "kabsch_rmsd", hb)) is None


class TestByteIdentity:
    def test_recomputed_body_is_byte_identical_to_cached(self, small_fold_pair):
        """The property the service guarantees: a cache hit serves bytes
        identical to what a fresh evaluation of the same pair produces."""
        parent, child = small_fold_pair
        method, params_hash = resolve_method("sse_composition", None)
        k = pair_key(
            chain_content_hash(parent),
            chain_content_hash(child),
            "sse_composition",
            params_hash,
        )
        job = PairJob(k, parent, child, method)

        def evaluate_once() -> str:
            from repro.cost.counters import CostCounter

            return result_body(
                job.key, job.method, method.compare(parent, child, CostCounter())
            )

        first, second = evaluate_once(), evaluate_once()
        assert first == second  # recompute is bit-identical
        cache = ResultCache(capacity=4)
        cache.put(k, first)
        assert cache.get(k) == second

    def test_body_is_canonical_json(self, small_fold_pair):
        from repro.cost.counters import CostCounter

        parent, child = small_fold_pair
        method = get_method("sse_composition")
        _m, params_hash = resolve_method("sse_composition", None)
        k = pair_key("ha", "hb", "sse_composition", params_hash)
        body = result_body(k, method, method.compare(parent, child, CostCounter()))
        # decoding and canonically re-encoding reproduces the exact bytes,
        # so a served cache hit cannot differ from the original response
        assert canonical_json(json.loads(body)) == body

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
