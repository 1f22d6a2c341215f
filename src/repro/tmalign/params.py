"""TM-align parameters and the d0 normalisation scale."""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = [
    "TMAlignParams",
    "params_fingerprint",
    "d0_from_length",
    "d0_search_bounds",
    "d8_cutoff",
]


def d0_from_length(length: int) -> float:
    """TM-score normalisation scale d0(L) = 1.24 (L-15)^(1/3) - 1.8.

    Clamped below at 0.5 Å (the published convention for short chains).
    """
    if length < 1:
        raise ValueError("length must be positive")
    if length <= 21:
        return 0.5
    return max(0.5, 1.24 * (length - 15.0) ** (1.0 / 3.0) - 1.8)


def d0_search_bounds(d0: float) -> tuple[float, float]:
    """Search-scale bounds used during superposition refinement.

    TM-align clips the search d0 into [4.5, 8.0] so short chains still
    find enough close pairs to seed Kabsch.
    """
    return (max(4.5, d0), min(8.0, max(4.5, d0)))


def d8_cutoff(avg_length: float) -> float:
    """Distance beyond which pairs are excluded from the final TM-score."""
    return 1.5 * avg_length ** 0.3 + 3.5


@dataclass(frozen=True)
class TMAlignParams:
    """Tunable knobs of the aligner (defaults follow the original)."""

    gap_open: float = -0.6  # DP gap penalty (no extension penalty)
    ss_gap_open: float = -1.0  # gap penalty for the SS-only DP
    max_refine_iters: int = 20  # alignment<->superposition outer loop
    refine_patience: int = 3  # stop after this many non-improving rounds
    max_score_iters: int = 20  # pair-reselection loop inside the search
    n_seed_fractions: tuple[int, ...] = (1, 2, 4)  # fragment = L/frac
    min_seed_len: int = 4
    threading_stride: int = 1  # gapless threading shift stride
    use_threading_init: bool = True  # gapless structure matching
    use_ss_init: bool = True  # secondary-structure DP
    use_combined_init: bool = True  # 0.5*SS + 0.5*distance DP
    use_fragment_init: bool = True
    fragment_fraction: int = 2  # fragment threading uses L/2 windows
    ss_mix: float = 0.5  # weight of SS term in the combined init
    convergence_tol: float = 1e-7

    def __post_init__(self) -> None:
        if self.gap_open > 0 or self.ss_gap_open > 0:
            raise ValueError("gap penalties must be <= 0")
        if self.max_refine_iters < 1 or self.max_score_iters < 1:
            raise ValueError("iteration caps must be >= 1")
        if not self.n_seed_fractions:
            raise ValueError("need at least one seed fraction")
        if any(f < 1 for f in self.n_seed_fractions):
            raise ValueError("seed fractions must be >= 1")
        if not 0.0 <= self.ss_mix <= 1.0:
            raise ValueError("ss_mix must be in [0, 1]")

    def to_dict(self) -> dict:
        """Every knob as a plain JSON-serialisable mapping."""
        return asdict(self)


def params_fingerprint(params: TMAlignParams) -> str:
    """sha256 over the canonical JSON of the *fully resolved* parameters.

    Two parameter sets that spell the same effective knobs (defaults
    included) share one fingerprint; changing any knob changes it.  The
    query service keys its result cache on this, so tweaked TM-align
    parameters can never be served a stale cached score.
    """
    import hashlib
    import json

    payload = json.dumps(
        params.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()

