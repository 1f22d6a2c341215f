"""Cost-model-driven scheduling: pair pricing and chunk packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.cpu import AMD_ATHLON_2400
from repro.cost.model import DEFAULT_PAIR_COST_MODEL
from repro.parallel import pack_chunks, predict_pair_seconds
from repro.parallel.costsched import CHUNKS_PER_WORKER, MAX_CHUNK_PAIRS


class TestPredictPairSeconds:
    def test_matches_scalar_cost_model(self):
        """The vectorized predictor is the noiseless PairCostModel priced
        by the CpuModel, exactly."""
        cases = [(146, 153), (80, 300), (40, 40), (500, 120)]
        got = predict_pair_seconds([a for a, _ in cases], [b for _, b in cases])
        for k, (la, lb) in enumerate(cases):
            counts = DEFAULT_PAIR_COST_MODEL.counts(la, lb, pair_key=None)
            want = AMD_ATHLON_2400.seconds(counts)
            assert got[k] == pytest.approx(want, rel=1e-12), (la, lb)

    def test_monotone_in_length(self):
        lengths = [40, 80, 160, 320, 640]
        costs = predict_pair_seconds(lengths, lengths)
        assert all(np.diff(costs) > 0)

    def test_positive_and_finite(self):
        costs = predict_pair_seconds([1, 5, 2000], [1, 700, 2000])
        assert np.all(costs > 0)
        assert np.all(np.isfinite(costs))


pair_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=200,
)
cost_lists = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=200,
)


class TestPackChunks:
    @given(st.data(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_conservation_and_order(self, data, workers):
        """Concatenating the chunks reproduces the job list exactly —
        the invariant the ordered-result stream depends on."""
        pairs = data.draw(pair_lists)
        costs = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
        plan = pack_chunks(pairs, costs, workers)
        flat = [p for c in plan.chunks for p in c]
        assert flat == [tuple(p) for p in pairs]
        assert all(len(c) >= 1 for c in plan.chunks)
        assert len(plan.predicted_seconds) == plan.n_chunks

    @given(st.data(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_budget_bound(self, data, workers):
        """No chunk overshoots the budget by more than one pair, and the
        pair-count cap always holds."""
        pairs = data.draw(pair_lists)
        costs = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
        plan = pack_chunks(pairs, costs, workers)
        max_single = max(max(costs), 0.0)
        for chunk, cost in zip(plan.chunks, plan.predicted_seconds):
            assert len(chunk) <= MAX_CHUNK_PAIRS
            assert cost <= plan.budget_seconds + max_single + 1e-9

    def test_equal_costs_give_equal_counts(self):
        pairs = [(0, j) for j in range(96)]
        plan = pack_chunks(pairs, [1.0] * 96, workers=4)
        sizes = {len(c) for c in plan.chunks}
        assert max(sizes) - min(sizes) <= 1
        assert plan.n_chunks == 4 * CHUNKS_PER_WORKER

    def test_expensive_pairs_get_small_chunks(self):
        """A run of 10x-cost pairs is cut ~10x finer than the cheap run."""
        pairs = [(0, j) for j in range(80)]
        costs = [10.0] * 40 + [1.0] * 40
        plan = pack_chunks(pairs, costs, workers=2)
        cheap = [len(c) for c in plan.chunks if all(j >= 40 for _, j in c)]
        dear = [len(c) for c in plan.chunks if all(j < 40 for _, j in c)]
        assert dear and cheap
        assert max(dear) < min(cheap)

    def test_single_huge_pair_is_its_own_chunk(self):
        plan = pack_chunks(
            [(0, 1), (0, 2), (0, 3)], [0.1, 100.0, 0.1], workers=8
        )
        assert [len(c) for c in plan.chunks] == [1, 1, 1]

    def test_empty_and_mismatch(self):
        assert pack_chunks([], [], 4).n_chunks == 0
        with pytest.raises(ValueError):
            pack_chunks([(0, 1)], [], 4)
