"""The TM-align orchestrator: initial alignments + iterative refinement.

Each candidate alignment is refined by alternating the superposition
search with a DP over the TM-score matrix of the current superposition
until the alignment repeats, stops improving, or hits the step cap.
When the compiled kernel loads, a whole pair is one C call
(``tm_align_pair`` in :mod:`repro.tmalign._dpnative`): the initial
alignments, the refinement of each candidate, the final scoring and the
RMSD.  The Python orchestration below, with ``_refine``'s NumPy loop,
is its reference and its fallback; both return the same scores,
alignment, dp_score and transform bytes and charge the same op counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cost.counters import CostCounter
from repro.geometry.transforms import RigidTransform
from repro.structure.model import Chain
from repro.tmalign._dpnative import load_tm_kernels
from repro.tmalign.dp import nw_align
from repro.tmalign.initial import (
    combined_alignment,
    fragment_threading,
    gapless_threading,
    ss_alignment,
)
from repro.tmalign.params import TMAlignParams, d0_from_length
from repro.tmalign.result import Alignment, TMAlignResult
from repro.tmalign.tmscore import superposition_search, tm_score_matrix

__all__ = ["tm_align"]

# Cheaper seeding schedule used inside the refinement loop; the full
# schedule from params is reserved for candidate evaluation and final
# scoring (mirrors TM-align's cheap in-loop TM-score search).
_REFINE_SEEDS = (1, 2)

# Compiled whole-pair alignment (bit-identical to tm_align's
# orchestration below); None when the kernel is unavailable or failed
# its load-time self-check.
_NATIVE_ALIGN = getattr(load_tm_kernels(), "align", None)


def _refine(
    xa: np.ndarray,
    ya: np.ndarray,
    ali: Alignment,
    d0: float,
    lnorm: int,
    params: TMAlignParams,
    counter: CostCounter,
) -> tuple[float, Alignment, RigidTransform]:
    """Alternate superposition search and DP until the alignment repeats."""
    best_tm = -1.0
    best_ali = ali
    best_xf = RigidTransform.identity()
    seen = {ali.key()}
    cur = ali
    stale = 0
    for _ in range(params.max_refine_iters):
        if len(cur) < 3:
            break
        tm, xf = superposition_search(
            xa[cur.ai],
            ya[cur.aj],
            d0,
            lnorm,
            params=params,
            seed_fractions=_REFINE_SEEDS,
            counter=counter,
        )
        if tm > best_tm:
            best_tm, best_ali, best_xf = tm, cur, xf
            stale = 0
        else:
            stale += 1
            if stale >= params.refine_patience:
                break
        score = tm_score_matrix(xa, ya, xf, d0)
        counter.add("score_pair", score.size)
        nxt = nw_align(score, params.gap_open, counter=counter)
        if nxt.key() in seen:
            break
        seen.add(nxt.key())
        cur = nxt
    return best_tm, best_ali, best_xf


def tm_align(
    chain_a: Chain,
    chain_b: Chain,
    params: Optional[TMAlignParams] = None,
    counter: Optional[CostCounter] = None,
) -> TMAlignResult:
    """Align ``chain_a`` onto ``chain_b`` and score with the TM-score.

    Returns a :class:`TMAlignResult` carrying TM-scores normalised by
    both chain lengths, the aligned-region RMSD, sequence identity, the
    residue correspondence, the rigid transform (A onto B), and the
    operation counts the cost model prices.

    ``counter``, when given, is additionally charged with the same op
    counts (useful when accumulating over a whole task).
    """
    params = params or TMAlignParams()
    local = CostCounter()
    local.add("align_fixed", 1)

    xa, ya = chain_a.coords, chain_b.coords
    la, lb = len(chain_a), len(chain_b)
    lmin = min(la, lb)
    d0_min = d0_from_length(lmin)
    # secondary structure (chains cache the string; cost charged always,
    # as the real program recomputes it per comparison)
    local.add("sec_res", la + lb)
    if _NATIVE_ALIGN is not None:
        tm_a, tm_b, rmsd, ai, aj, dp_score, rot, tra, ident, ops = _NATIVE_ALIGN(
            xa, ya, chain_a.ss_codes, chain_b.ss_codes, chain_a.sequence,
            chain_b.sequence, (d0_min, d0_from_length(la), d0_from_length(lb)),
            params, _REFINE_SEEDS,
        )
        for name, value in zip(("kabsch", "kabsch_point", "score_pair", "dp_cell"), ops):
            local.add(name, value)
        best_ali = Alignment.from_trusted(ai, aj, dp_score)
        best_xf = RigidTransform.from_trusted(rot, tra)
        seq_id = ident / max(1, len(best_ali))
        return _result(chain_a, chain_b, tm_a, tm_b, rmsd, seq_id, best_ali,
                       best_xf, local, counter)

    ss_a = chain_a.secondary
    ss_b = chain_b.secondary

    # --- initial alignments ------------------------------------------------
    candidates: list[Alignment] = []
    if params.use_threading_init:
        candidates.extend(
            gapless_threading(xa, ya, d0_min, lmin, params=params, counter=local)
        )
    if params.use_ss_init:
        candidates.append(
            ss_alignment(
                ss_a,
                ss_b,
                params=params,
                counter=local,
                codes_a=chain_a.ss_codes,
                codes_b=chain_b.ss_codes,
            )
        )
    if params.use_fragment_init:
        frag = fragment_threading(xa, ya, d0_min, lmin, params=params, counter=local)
        if frag is not None:
            candidates.append(frag)
    if not candidates and not params.use_combined_init:
        raise ValueError("all initial alignments disabled")

    # quick evaluation to give the combined init a starting superposition
    best_quick = (-1.0, RigidTransform.identity())
    for cand in candidates:
        if len(cand) < 3:
            continue
        tm, xf = superposition_search(
            xa[cand.ai],
            ya[cand.aj],
            d0_min,
            lmin,
            params=params,
            seed_fractions=(1,),
            counter=local,
        )
        if tm > best_quick[0]:
            best_quick = (tm, xf)
    if params.use_combined_init:
        candidates.append(
            combined_alignment(
                xa,
                ya,
                best_quick[1],
                ss_a,
                ss_b,
                d0_min,
                params=params,
                counter=local,
                codes_a=chain_a.ss_codes,
                codes_b=chain_b.ss_codes,
            )
        )

    # --- refinement ---------------------------------------------------------
    best_tm = -1.0
    best_ali: Optional[Alignment] = None
    best_xf = RigidTransform.identity()
    seen_keys: set[tuple] = set()
    for cand in candidates:
        if len(cand) < 3 or cand.key() in seen_keys:
            continue
        seen_keys.add(cand.key())
        tm, ali, xf = _refine(xa, ya, cand, d0_min, lmin, params, local)
        if tm > best_tm:
            best_tm, best_ali, best_xf = tm, ali, xf

    if best_ali is None or len(best_ali) < 3:  # degenerate tiny chains
        best_ali = candidates[0]
        best_tm = 0.0

    # --- final scoring -------------------------------------------------------
    pa = xa[best_ali.ai]
    pb = ya[best_ali.aj]
    tm_a, _ = superposition_search(
        pa, pb, d0_from_length(la), la, params=params, counter=local
    )
    tm_b, xf_b = superposition_search(
        pa, pb, d0_from_length(lb), lb, params=params, counter=local
    )
    diff = best_xf.apply(pa) - pb
    rmsd = float(np.sqrt((diff * diff).sum() / max(1, pa.shape[0])))

    ident = sum(
        1
        for i, j in zip(best_ali.ai.tolist(), best_ali.aj.tolist())
        if chain_a.sequence[i] == chain_b.sequence[j]
    )
    seq_id = ident / max(1, len(best_ali))
    return _result(chain_a, chain_b, tm_a, tm_b, rmsd, seq_id, best_ali,
                   best_xf, local, counter)


def _result(
    chain_a: Chain,
    chain_b: Chain,
    tm_a: float,
    tm_b: float,
    rmsd: float,
    seq_id: float,
    best_ali: Alignment,
    best_xf: RigidTransform,
    local: CostCounter,
    counter: Optional[CostCounter],
) -> TMAlignResult:
    if counter is not None:
        counter.merge(local)
    return TMAlignResult(
        name_a=chain_a.name,
        name_b=chain_b.name,
        len_a=len(chain_a),
        len_b=len(chain_b),
        tm_norm_a=tm_a,
        tm_norm_b=tm_b,
        rmsd=rmsd,
        n_aligned=len(best_ali),
        seq_identity=seq_id,
        alignment=best_ali,
        transform=best_xf,
        op_counts=local.as_dict(),
    )
