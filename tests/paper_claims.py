"""Checkers of the paper's intermediate claims, for the tests.

The decision needs only its two certificates, the lattice obstruction and
the crossing-change search, so these checks of claims along the way do not
ship in the package: Claim 1's column structure of an admissible
embedding, and the Euler identity chi(S_-) = 1 + sigma = k - 2p of a
positive special alternating diagram.
"""

from specalt.diagram import Checkerboard, DiagramError, LinkDiagram, is_special_alternating
from specalt.invariants import goeritz, unlinking_lower_bound
from specalt.lattice import LatticeEmbedding


class PreconditionViolated(DiagramError):
    pass


def euler_check(d: LinkDiagram, c: Checkerboard) -> bool:
    """chi(S_-) = 1 + sigma = k - 2p for a positive special alternating
    reduced non-split diagram, with chi computed from the white surface."""
    if not (is_special_alternating(d) and all(s == 1 for s in d.signs)):
        raise PreconditionViolated("need a positive special alternating diagram")
    lat = goeritz(d, c)
    chi = 1 - (d.n - lat.rank)
    k = d.component_count
    p = unlinking_lower_bound(lat.sigma, 0, k)[0]
    return chi == 1 + lat.sigma and chi == k - 2 * p


def claim1_structure(e: LatticeEmbedding) -> bool:
    """Every column of the full matrix holds exactly one +1 and one -1."""
    for col in zip(*e.full_matrix):
        nz = sorted(x for x in col if x)
        if nz != [-1, 1]:
            return False
    return True
