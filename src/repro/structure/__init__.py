"""Protein structure model, I/O, and synthetic structure generation.

The paper's experiments use Cα traces of protein domains (TM-align only
reads Cα atoms).  This package provides:

* :class:`Chain` — an immutable Cα trace with sequence metadata;
* PDB-format reading/writing (Cα subset, enough for interchange);
* TM-align's geometric secondary-structure assignment;
* a seeded synthetic fold generator used to stand in for the CK34/RS119
  PDB datasets (see DESIGN.md substitution table).
"""

from repro.structure.model import Chain
from repro.structure.pdbio import chain_to_pdb, chain_from_pdb, read_pdb_file, write_pdb_file
from repro.structure.secstruct import assign_secondary, SS_HELIX, SS_STRAND, SS_TURN, SS_COIL
from repro.structure.synthetic import (
    FoldSpec,
    SSElement,
    build_helix,
    build_strand,
    build_loop,
    generate_fold,
    generate_family,
    perturb_chain,
    random_fold_spec,
)

__all__ = [
    "Chain",
    "chain_to_pdb",
    "chain_from_pdb",
    "read_pdb_file",
    "write_pdb_file",
    "assign_secondary",
    "SS_HELIX",
    "SS_STRAND",
    "SS_TURN",
    "SS_COIL",
    "FoldSpec",
    "SSElement",
    "build_helix",
    "build_strand",
    "build_loop",
    "generate_fold",
    "generate_family",
    "perturb_chain",
    "random_fold_spec",
]
