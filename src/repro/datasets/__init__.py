"""Benchmark datasets.

Synthetic stand-ins for the two protein-domain datasets of the paper:

* **CK34** (Chew–Kedem, 34 chains) — a small set drawn from a handful of
  well-known fold families (globins, TIM barrels, ...).
* **RS119** (Rost–Sander, 119 chains) — a larger, more diverse set.

Chain counts match the paper exactly; family structure and length
distributions are chosen to be realistic (see DESIGN.md substitution
table).  All generation is seeded, so every call reproduces the same
structures bit-for-bit.
"""

from repro.datasets.registry import Dataset, load_dataset, DATASET_BUILDERS
from repro.datasets.ck34 import build_ck34
from repro.datasets.rs119 import build_rs119
from repro.datasets.pairs import all_vs_all_pairs, blocked_pairs

__all__ = [
    "Dataset",
    "load_dataset",
    "DATASET_BUILDERS",
    "build_ck34",
    "build_rs119",
    "all_vs_all_pairs",
    "blocked_pairs",
]
