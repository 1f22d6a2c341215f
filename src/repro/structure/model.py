"""The :class:`Chain` structure model."""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["Chain", "AMINO_ACIDS"]

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

# Largest accepted |coordinate| in Å: far above the PDB format's
# +-9999.999, far below where squared distances summed over a chain lose
# their finiteness.
MAX_ABS_COORD = 1e6

# Wire-format cost of one residue when a structure is shipped through the
# simulated NoC: 3 float64 coordinates + 1 sequence byte + 1 SS byte,
# padded to 32 for headers/alignment.  Used by the communication model.
_BYTES_PER_RESIDUE = 32
_CHAIN_HEADER_BYTES = 64


class Chain:
    """An immutable Cα trace of a protein chain/domain.

    Parameters
    ----------
    name:
        Identifier (e.g. ``"ck34_glob_03"``).
    coords:
        ``(N, 3)`` float64 Cα coordinates in Å.
    sequence:
        Length-N one-letter amino-acid string.  Optional; synthesized
        as poly-alanine when omitted.
    family:
        Optional fold-family label (dataset metadata).
    """

    __slots__ = ("name", "coords", "sequence", "family", "_secondary", "_ss_codes")

    def __init__(
        self,
        name: str,
        coords: np.ndarray,
        sequence: Optional[str] = None,
        family: Optional[str] = None,
    ) -> None:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"coords must be (N, 3), got {coords.shape}")
        if coords.shape[0] < 3:
            raise ValueError("a chain needs at least 3 residues")
        # one check for NaN, inf and overflow-prone magnitudes: NaN fails
        # the comparison, and every accepted chain stays finite through
        # the TM-align kernel on both paths
        if not np.abs(coords).max() < MAX_ABS_COORD:
            raise ValueError(
                f"coords must be finite and within +-{MAX_ABS_COORD:g} A"
            )
        n = coords.shape[0]
        if sequence is None:
            sequence = "A" * n
        if len(sequence) != n:
            raise ValueError(
                f"sequence length {len(sequence)} != number of residues {n}"
            )
        self.name = name
        self.coords = coords
        self.coords.setflags(write=False)
        self.sequence = sequence
        self.family = family
        self._secondary: Optional[str] = None
        self._ss_codes: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __repr__(self) -> str:
        fam = f", family={self.family!r}" if self.family else ""
        return f"Chain({self.name!r}, n={len(self)}{fam})"

    @property
    def secondary(self) -> str:
        """Secondary-structure string (lazily assigned, cached)."""
        if self._secondary is None:
            from repro.structure.secstruct import assign_secondary

            self._secondary = assign_secondary(self.coords)
        return self._secondary

    @property
    def ss_codes(self) -> np.ndarray:
        """Secondary-structure string as ASCII byte codes (cached).

        The SS-based alignment inits compare these codes on every pair,
        so an all-vs-all run over N chains would otherwise re-encode each
        chain's string ~2(N-1) times.
        """
        if self._ss_codes is None:
            self._ss_codes = np.frombuffer(
                self.secondary.encode("ascii"), dtype=np.uint8
            )
        return self._ss_codes

    @property
    def nbytes_wire(self) -> int:
        """Serialized size when shipped as a message payload (bytes)."""
        return _CHAIN_HEADER_BYTES + _BYTES_PER_RESIDUE * len(self)

    @property
    def nbytes_pdb(self) -> int:
        """Approximate on-disk PDB size (one 80-char ATOM line/residue)."""
        return 81 * len(self) + 200

    def transformed(self, transform) -> "Chain":
        """Return a copy with coordinates moved by a RigidTransform."""
        out = Chain(
            self.name, transform.apply(self.coords), self.sequence, self.family
        )
        out._secondary = self._secondary  # SS is invariant under rigid motion
        out._ss_codes = self._ss_codes
        return out

    def slice(self, start: int, stop: int, name: Optional[str] = None) -> "Chain":
        """Contiguous sub-chain ``[start:stop)``."""
        if not (0 <= start < stop <= len(self)):
            raise ValueError(f"bad slice [{start}:{stop}) for chain of {len(self)}")
        return Chain(
            name or f"{self.name}[{start}:{stop}]",
            self.coords[start:stop].copy(),
            self.sequence[start:stop],
            self.family,
        )
