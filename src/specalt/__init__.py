"""Certification of minimal unlinking numbers for special alternating links.

The pipeline: parse an alternating diagram, compute the classical
signature bound p = (|sigma|+|k-1-eta|)/2 from the Goeritz form by
Gordon-Litherland, decide by the lattice obstruction (a clasp count on
the Tait graph, read off the Goeritz form) and a crossing-change search
whether the bound is attained, and certify or bound the unlinking number;
the bounds on u also bound the 4-ball crossing number c4.  The Seifert-matrix module ``seifert`` is an
independent signature route for checking, not part of the pipeline.  The
checkers of the paper's intermediate claims (Claim 1's column structure,
the Euler identity) are test helpers and do not ship here.
"""

from .diagram import (LinkDiagram, Checkerboard, TwistDecomposition,
                      DiagramError, NotAlternating, NotSpecialAlternating,
                      SplitDiagram, parse_pd, checkerboard,
                      checkerboard_negative, is_special_alternating,
                      reduce_nugatory, twist_regions, is_twist_reduced,
                      change_crossings, mirror, split_components,
                      canonical_key)
from .invariants import (GoeritzLattice, ClassicalInvariants, goeritz,
                         gl_signature, signature_nullity,
                         determinant, linking_matrix, unlinking_lower_bound,
                         classical_invariants, DegenerateColoring)
from .seifert import seifert_matrix
from .lattice import (LatticeEmbedding, CoordinatePairing, ObstructionVerdict,
                      MarkedRegionsNotAdjacent, find_pairing, obstruction,
                      clasp_candidates, canonical_matrix)
from .unknotting import (UnlinkCertificate, SearchOutcome, UnlinkingVerdict,
                         WitnessContradictsObstruction, reidemeister_simplify,
                         certify_unlink, exhaustive_search,
                         decide_minimal_unlinking, replay_moves)
from .bracket import kauffman_bracket, normalized_bracket, unlink_normalized_bracket
from .tables import (KnotRecord, ReportRow, SignatureRoutesDisagree, load_table,
                     analyze, analyze_all, emit_tables, load_expected, diff_tables,
                     TableError, load_bundled_fixtures, bound_consistency_ok)
from . import families

__version__ = "0.1.0"
