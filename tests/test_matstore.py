"""Durable mmap-able similarity-matrix store: layout, durability, flows.

The acceptance contract under test: lookups are byte-identical (at
float32) to direct kernel computation, extending by one structure costs
exactly ``n`` new pairs, a reopened mmap serves without recompute,
corruption is a one-line typed error, and concurrent readers are never
torn by a writer.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cost.counters import CostCounter
from repro.datasets.registry import Dataset
from repro.matstore import (
    METRICS,
    MatStoreError,
    MatrixStore,
    build_store,
    ensure_coverage,
    export_csv,
    extend_store,
    pair_offset,
    store_method,
    triangle_size,
)
from repro.runs import JournalCorrupt, read_journal
from repro.service.registry import chain_content_hash


@pytest.fixture(scope="session")
def mini4(ck34_mini):
    return ck34_mini.subset(4, "mini4")


@pytest.fixture(scope="session")
def built_store(mini4, tmp_path_factory):
    """One committed 4-chain store shared by every read-only test."""
    root = tmp_path_factory.mktemp("matstore") / "store"
    return build_store(mini4, str(root))


@pytest.fixture
def store_copy(built_store, tmp_path):
    """A private copy of the built store for tests that mutate it."""
    root = tmp_path / "store"
    shutil.copytree(built_store.store.root, root)
    return MatrixStore.open(str(root))


class TestIndexing:
    def test_pair_offset_is_condensed_append_order(self):
        # adding chain j appends its j pairs contiguously at the tail
        seen = []
        for j in range(1, 5):
            for i in range(j):
                seen.append(pair_offset(i, j))
        assert seen == list(range(triangle_size(5)))

    def test_triangle_size(self):
        assert triangle_size(0) == 0
        assert triangle_size(34) == 561


class TestBuildAndLookup:
    def test_build_commits_all_pairs(self, built_store, mini4):
        store = built_store.store
        assert built_store.n_computed == triangle_size(len(mini4))
        assert store.n_chains == len(mini4)
        assert store.n_pairs == triangle_size(len(mini4))
        assert list(store.names) == [c.name for c in mini4]

    def test_lookup_byte_identical_to_kernel_at_float32(
        self, built_store, mini4
    ):
        store = built_store.store
        method, _ = store_method(store)
        a, b = mini4[0], mini4[2]
        hit = store.lookup(chain_content_hash(a), chain_content_hash(b))
        assert hit is not None and not hit.swapped
        direct = method.compare(a, b, CostCounter())
        assert set(hit.scores) == set(METRICS) == set(direct)
        for key in METRICS:
            assert hit.scores[key] == float(np.float32(direct[key]))

    def test_swapped_orientation_is_flagged(self, built_store, mini4):
        store = built_store.store
        ha = chain_content_hash(mini4[0])
        hb = chain_content_hash(mini4[1])
        assert store.lookup(ha, hb).swapped is False
        assert store.lookup(hb, ha).swapped is True
        assert store.lookup(ha, hb).scores == store.lookup(hb, ha).scores

    def test_unknown_and_self_lookups_miss(self, built_store, mini4):
        store = built_store.store
        ha = chain_content_hash(mini4[0])
        assert store.lookup(ha, "0" * 64) is None
        assert store.lookup(ha, ha) is None

    def test_reopen_serves_without_recompute(self, built_store, mini4):
        reopened = MatrixStore.open(built_store.store.root)
        ha = chain_content_hash(mini4[0])
        hb = chain_content_hash(mini4[3])
        first = built_store.store.lookup(ha, hb)
        assert reopened.lookup(ha, hb).scores == first.scores

    def test_rebuild_of_covered_dataset_is_noop(self, built_store, mini4):
        again = build_store(mini4, built_store.store.root)
        assert again.n_computed == 0
        assert "already covers" in " ".join(again.notes)

    def test_build_refuses_divergent_content(self, built_store, ck34):
        other = Dataset("other4", ck34.chains[10:14], "disjoint slice")
        with pytest.raises(MatStoreError, match="different"):
            build_store(other, built_store.store.root)

    def test_stats_shape(self, built_store, mini4):
        stats = built_store.store.stats()
        assert stats["n_chains"] == len(mini4)
        assert stats["pairs_stored"] == stats["n_pairs"]
        assert stats["holes"] == 0
        assert stats["block_bytes"] == len(METRICS) * 4 * stats["n_pairs"]

    def test_export_csv_round_trip(self, built_store, tmp_path):
        out = tmp_path / "matrix.csv"
        n = export_csv(built_store.store, str(out))
        lines = out.read_text().splitlines()
        assert n == built_store.store.n_pairs == len(lines) - 1
        assert lines[0] == "chain_a,chain_b," + ",".join(METRICS)


class TestExtend:
    def test_extend_costs_exactly_n_pairs(self, store_copy, ck34_mini):
        n = store_copy.n_chains
        result = extend_store(
            store_copy, ck34_mini.chains[:n], ck34_mini[n]
        )
        assert result.n_computed == n
        assert store_copy.n_chains == n + 1
        assert store_copy.n_pairs == triangle_size(n + 1)
        # the appended row is immediately servable, old rows untouched
        hit = store_copy.lookup(
            chain_content_hash(ck34_mini[0]),
            chain_content_hash(ck34_mini[n]),
        )
        assert hit is not None

    def test_extend_is_idempotent(self, store_copy, ck34_mini):
        n = store_copy.n_chains
        extend_store(store_copy, ck34_mini.chains[:n], ck34_mini[n])
        again = extend_store(
            store_copy, ck34_mini.chains[: n + 1], ck34_mini[n]
        )
        assert again.n_computed == 0
        assert "already stored" in " ".join(again.notes)

    def test_extend_refuses_wrong_corpus(self, store_copy, ck34):
        wrong = ck34.chains[10 : 10 + store_copy.n_chains]
        with pytest.raises(MatStoreError, match="does not match"):
            extend_store(store_copy, wrong, ck34[20])

    def test_ensure_coverage_prefix_extends(self, store_copy, ck34_mini):
        n0 = store_copy.n_chains
        result = ensure_coverage(store_copy.root, ck34_mini)
        assert result.store.n_chains == len(ck34_mini)
        # per-chain extends: n0 + n0+1 + ... + n-1 pairs, nothing more
        assert result.n_computed == sum(range(n0, len(ck34_mini)))

    def test_ensure_coverage_refuses_non_prefix(self, store_copy, ck34_mini):
        shuffled = Dataset(
            "shuffled", tuple(reversed(ck34_mini.chains)), "reversed"
        )
        with pytest.raises(MatStoreError, match="not a prefix"):
            ensure_coverage(store_copy.root, shuffled)


class TestDurability:
    def test_verify_clean_store(self, built_store):
        report = built_store.store.verify()
        assert report["pairs_checked"] == built_store.store.n_pairs
        assert report["dropped_journal_lines"] == 0

    def test_corrupt_journal_line_is_typed_error(self, store_copy):
        path = Path(store_copy.journal_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace(lines[1][10], "x", 1)
        path.write_text("".join(lines))
        with pytest.raises(JournalCorrupt):
            read_journal(path)
        with pytest.raises(JournalCorrupt):
            store_copy.verify()

    def test_torn_tail_line_is_dropped_not_fatal(self, store_copy):
        path = Path(store_copy.journal_path)
        text = path.read_text()
        path.write_text(text + "0,9,torn-half-line")
        state = read_journal(path)
        assert state.dropped == 1
        # but a committed pair missing its journal row fails verify
        # loudly once the tail actually belonged to the matrix
        report = store_copy.verify()
        assert report["dropped_journal_lines"] == 1

    def test_corrupt_block_word_is_typed_error(self, store_copy):
        block = Path(store_copy.root) / "blocks" / f"{METRICS[0]}.f32"
        data = bytearray(block.read_bytes())
        data[:4] = np.float32(123.456).tobytes()
        block.write_bytes(bytes(data))
        with pytest.raises(MatStoreError, match=METRICS[0]):
            store_copy.verify()

    def test_concurrent_reader_never_sees_torn_state(
        self, store_copy, ck34_mini
    ):
        """A reader opened before an extend keeps serving its own
        committed snapshot; the appended row only becomes visible to
        readers opened after the header swap."""
        old_reader = MatrixStore.open(store_copy.root)
        n0, p0 = old_reader.n_chains, old_reader.n_pairs
        ha = chain_content_hash(ck34_mini[0])
        before = old_reader.lookup(ha, chain_content_hash(ck34_mini[1]))
        extend_store(
            store_copy, ck34_mini.chains[:n0], ck34_mini[n0]
        )
        # snapshot untouched: same extent, same scores, new chain unseen
        assert (old_reader.n_chains, old_reader.n_pairs) == (n0, p0)
        after = old_reader.lookup(ha, chain_content_hash(ck34_mini[1]))
        assert after.scores == before.scores
        assert old_reader.lookup(ha, chain_content_hash(ck34_mini[n0])) is None
        fresh = MatrixStore.open(store_copy.root)
        assert fresh.lookup(ha, chain_content_hash(ck34_mini[n0])) is not None


class TestJournalIdentity:
    """Journal rows are keyed by pair indices only; ``journal.ctx`` ties
    an uncommitted tail to the chain content it was computed for, so a
    resume can never graft scores of different structures onto the
    store."""

    @staticmethod
    def _crash_extend(store, new_chain, scores=0.123):
        """Leave the store as an extend of ``new_chain`` interrupted
        after journaling pair (0, n) would: one uncommitted row (with
        recognisable sentinel scores) plus the matching context."""
        from repro.matstore.build import _context_digest

        n = store.n_chains
        store.write_journal_context(
            _context_digest([*store.hashes, chain_content_hash(new_chain)])
        )
        with store.journal() as journal:
            journal.append(0, n, {m: scores for m in METRICS})
        return n

    def test_resume_of_same_chain_reuses_journaled_tail(
        self, store_copy, ck34_mini
    ):
        n = store_copy.n_chains
        x = ck34_mini[n]
        self._crash_extend(store_copy, x)
        result = extend_store(store_copy, ck34_mini.chains[:n], x)
        assert result.n_journaled == 1
        assert result.n_computed == n - 1
        hit = store_copy.lookup(
            chain_content_hash(ck34_mini[0]), chain_content_hash(x)
        )
        assert hit.scores[METRICS[0]] == float(np.float32(0.123))

    def test_tail_for_different_chain_is_discarded_not_reused(
        self, store_copy, ck34_mini
    ):
        n = store_copy.n_chains
        x, y = ck34_mini[n], ck34_mini[n + 1]
        self._crash_extend(store_copy, x)  # crashed extend of X...
        result = extend_store(store_copy, ck34_mini.chains[:n], y)  # ...then Y
        assert result.n_journaled == 0
        assert result.n_computed == n
        assert any("discarded" in note for note in result.notes)
        # Y's row holds Y's real scores, not X's sentinel
        method, _ = store_method(store_copy)
        direct = method.compare(ck34_mini[0], y, CostCounter())
        hit = store_copy.lookup(
            chain_content_hash(ck34_mini[0]), chain_content_hash(y)
        )
        for key in METRICS:
            assert hit.scores[key] == float(np.float32(direct[key]))
        # committed rows survived the journal rewrite byte-identically
        assert store_copy.verify()["pairs_checked"] == store_copy.n_pairs

    def test_uncommitted_tail_without_context_is_discarded(
        self, tmp_path, mini4
    ):
        """A leftover journal on an empty-header store (crashed build of
        unknown content) is recomputed, never trusted."""
        method, fingerprint = store_method()
        store = MatrixStore.create(
            str(tmp_path / "stale"), method.name, fingerprint
        )
        with store.journal() as journal:
            journal.append(0, 1, {m: 0.987 for m in METRICS})
        result = build_store(mini4, store.root)
        assert result.n_journaled == 0
        assert result.n_computed == triangle_size(len(mini4))
        assert any("discarded" in note for note in result.notes)
        direct = method.compare(mini4[0], mini4[1], CostCounter())
        hit = result.store.lookup(
            chain_content_hash(mini4[0]), chain_content_hash(mini4[1])
        )
        assert hit.scores[METRICS[0]] == float(np.float32(direct[METRICS[0]]))


class TestHoles:
    def test_nan_rows_are_misses_not_hits(self, tmp_path, ck34_mini):
        """NaN holes (prefilter-demoted pairs) journal and commit fine
        but never serve as lookups."""
        chains = ck34_mini.chains[:3]
        names = [c.name for c in chains]
        hashes = [chain_content_hash(c) for c in chains]
        store = MatrixStore.create(
            str(tmp_path / "holes"), "tmalign_full", "f" * 64
        )
        rows = {
            (0, 1): {m: 0.5 for m in METRICS},
            (0, 2): {m: float("nan") for m in METRICS},
            (1, 2): {m: 0.25 for m in METRICS},
        }
        with store.journal() as journal:
            for (i, j), scores in rows.items():
                journal.append(i, j, scores)
        tail = {
            m: np.array(
                [rows[(0, 1)][m], rows[(0, 2)][m], rows[(1, 2)][m]], "<f4"
            )
            for m in METRICS
        }
        store.commit_rows(names, hashes, tail)
        assert store.lookup(hashes[0], hashes[1]).scores[METRICS[0]] == 0.5
        assert store.lookup(hashes[0], hashes[2]) is None  # the hole
        assert store.stats()["holes"] == 1
        report = store.verify()
        assert report["holes"] == 1
