"""Micro-benchmarks of the hot kernels (real wall-clock, many rounds).

These measure the Python implementation itself — useful when optimizing
the aligner or the simulator, and a regression net for the vectorized
kernels the HPC guides call for.
"""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.geometry.distances import cross_distances
from repro.geometry.kabsch import kabsch
from repro.structure.synthetic import build_helix
from repro.tmalign import nw_align, superposition_search, tm_align
from repro.tmalign.params import d0_from_length


@pytest.fixture(scope="module")
def pair150():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 1, (150, 150))


def test_bench_nw_dp_150x150(benchmark, pair150):
    ali = benchmark(nw_align, pair150, -0.6)
    assert len(ali) > 0


def test_bench_kabsch_150pts(benchmark):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(150, 3)) * 5
    b = rng.normal(size=(150, 3)) * 5
    xf = benchmark(kabsch, a, b)
    assert xf.is_proper()


def test_bench_cross_distances_300x300(benchmark):
    rng = np.random.default_rng(2)
    a = rng.normal(size=(300, 3)) * 10
    b = rng.normal(size=(300, 3)) * 10
    d = benchmark(cross_distances, a, b)
    assert d.shape == (300, 300)


def test_bench_superposition_search_150(benchmark):
    pts = build_helix(150)
    rng = np.random.default_rng(3)
    target = pts + rng.normal(0, 1.0, pts.shape)
    tm, _ = benchmark(superposition_search, pts, target, d0_from_length(150), 150)
    assert tm > 0.5


def test_bench_full_tmalign_pair(benchmark):
    ds = load_dataset("ck34")
    a, b = ds.by_name("ck_globin_00"), ds.by_name("ck_globin_01")
    result = benchmark.pedantic(tm_align, args=(a, b), rounds=3, iterations=1)
    assert result.tm_max > 0.8


def test_bench_blosum62_local_alignment_300x300(benchmark):
    from repro.seqalign import align_sequences
    from repro.structure.synthetic import random_sequence

    rng = np.random.default_rng(5)
    a = random_sequence(300, rng)
    b = random_sequence(300, rng)
    res = benchmark(align_sequences, a, b)
    assert res.score >= 0

