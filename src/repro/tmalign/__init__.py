"""TM-align: protein structure alignment based on the TM-score.

A from-scratch Python implementation of the TM-align algorithm of Zhang &
Skolnick (2005), the serial unit operation the paper parallelizes:

1. assign secondary structure from Cα geometry;
2. build initial alignments — gapless threading, secondary-structure
   dynamic programming, and a combined SS+distance DP (plus an optional
   fragment-threading init);
3. for each initial alignment, run the iterative TM-score refinement:
   superposition search (Kabsch over seed fragments + distance-cutoff
   reselection) alternated with TM-score-matrix Needleman–Wunsch DP until
   the alignment is stable;
4. report TM-scores normalised by both chain lengths, aligned-region
   RMSD, sequence identity, and the alignment itself.

The hot kernels (DP fill and traceback, superposition search, threading
scans) run as compiled C when a compiler is available and otherwise as
NumPy-vectorized code that is their bit-identical reference; every
kernel can charge a :class:`repro.cost.CostCounter` so the simulator can
price the work on 2013-era CPU models.
"""

from repro.tmalign.params import TMAlignParams, d0_from_length, d0_search_bounds
from repro.tmalign.result import TMAlignResult, Alignment
from repro.tmalign.dp import nw_align, nw_score_only
from repro.tmalign.tmscore import tm_score_from_distances, superposition_search
from repro.tmalign.align import tm_align
from repro.tmalign.scorer import tm_score_fixed_alignment
from repro.tmalign.metrics import gdt_score, gdt_ts, gdt_ha, lddt, maxsub_score
from repro.tmalign._dpnative import self_check as _native_self_check

# keep the compiled search/threading/traceback only if they reproduce the
# NumPy path bit for bit on this CPU and BLAS build
_native_self_check()

__all__ = [
    "gdt_score",
    "gdt_ts",
    "gdt_ha",
    "lddt",
    "maxsub_score",
    "TMAlignParams",
    "d0_from_length",
    "d0_search_bounds",
    "TMAlignResult",
    "Alignment",
    "nw_align",
    "nw_score_only",
    "tm_score_from_distances",
    "superposition_search",
    "tm_align",
    "tm_score_fixed_alignment",
]
