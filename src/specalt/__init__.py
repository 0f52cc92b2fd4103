"""Certification of minimal unlinking numbers for special alternating links.

The pipeline: parse an alternating diagram, compute the classical
signature bound p = (|sigma|+k-1)/2 by two independent routes, decide by
an exhaustive lattice-embedding obstruction and a crossing-change search
whether the bound is attained, and certify or bound the unlinking number.
"""

from .diagram import (LinkDiagram, Checkerboard, TwistDecomposition,
                      DiagramError, NotAlternating, NotSpecialAlternating,
                      SplitDiagram, parse_pd, parse_dt, faces, checkerboard,
                      checkerboard_negative, crossing_signs,
                      is_special_alternating, reduce_nugatory, twist_regions,
                      is_twist_reduced, change_crossings, mirror,
                      split_components, planar_isomorphic, canonical_key)
from .invariants import (GoeritzLattice, ClassicalInvariants, goeritz,
                         gl_signature, signature_nullity,
                         determinant, linking_matrix, unlinking_lower_bound,
                         euler_check, classical_invariants, DegenerateColoring)
from .seifert import seifert_matrix
from .lattice import (LatticeEmbedding, CoordinatePairing, ObstructionVerdict,
                      ClaspSet, TargetTooSmall, MarkedRegionsNotAdjacent,
                      SignatureRoutesDisagree,
                      enumerate_embeddings, condition_all_coords, find_pairing,
                      claim1_structure, obstruction, clasp_candidates,
                      canonical_matrix, signed_permutation_equivalent)
from .unknotting import (SimplifyBudget, UnlinkCertificate, SearchOutcome,
                         UnlinkingVerdict, CombinedVerdict,
                         WitnessContradictsObstruction,
                         reidemeister_simplify, certify_unlink,
                         exhaustive_search, decide_minimal_unlinking,
                         split_additivity, replay_moves)
from .bracket import kauffman_bracket, normalized_bracket, unlink_normalized_bracket
from .tables import (KnotRecord, ReportRow, load_table, analyze,
                     analyze_all, emit_tables, load_expected, diff_tables, TableError,
                     load_bundled_fixtures, bound_consistency_ok)
from . import families

__version__ = "0.1.0"
