"""Pair enumeration for all-vs-all PSC tasks."""

from __future__ import annotations

from typing import Iterator

__all__ = ["all_vs_all_pairs", "blocked_pairs", "n_all_vs_all"]


def all_vs_all_pairs(
    n: int, *, ordered: bool = False, include_self: bool = False
) -> Iterator[tuple[int, int]]:
    """Index pairs for an all-vs-all task over ``n`` structures.

    Default is unordered pairs ``i < j`` (TM-align reports the scores
    normalised by both chains from a single comparison, so one job covers
    both directions — DESIGN.md §5.3).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for i in range(n):
        start = 0 if ordered else i
        for j in range(start, n):
            if i == j and not include_self:
                continue
            yield (i, j)


def n_all_vs_all(n: int, *, ordered: bool = False, include_self: bool = False) -> int:
    """Number of pairs :func:`all_vs_all_pairs` yields."""
    if ordered:
        return n * n if include_self else n * (n - 1)
    base = n * (n - 1) // 2
    return base + n if include_self else base


def blocked_pairs(n: int, block_size: int) -> Iterator[tuple[int, int]]:
    """Unordered pairs (i < j) in cache-friendly block-tile order.

    Pairs are grouped by (block_i, block_j) tiles so a master holding
    only ``2 * block_size`` structures in memory streams the dataset
    with few reloads — the ordering used by the memory-constrained
    rckAlign variant (paper future work: "datasets too large to be
    loaded into memory at once").
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    n_blocks = (n + block_size - 1) // block_size
    for bi in range(n_blocks):
        for bj in range(bi, n_blocks):
            lo_i = bi * block_size
            hi_i = min(n, lo_i + block_size)
            lo_j = bj * block_size
            hi_j = min(n, lo_j + block_size)
            for i in range(lo_i, hi_i):
                start = max(i + 1, lo_j)
                for j in range(start, hi_j):
                    yield (i, j)
