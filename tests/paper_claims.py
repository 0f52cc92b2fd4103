"""Checkers of the paper's intermediate claims, for the tests.

The decision needs only its two certificates, the lattice obstruction and
the crossing-change search, so these checks of claims along the way do not
ship in the package: Claim 1's column structure of an admissible
embedding, and the Euler identity chi(S_-) = 1 + sigma = k - 2p of a
positive special alternating diagram.  Nor do the readers that compare an
embedding with the reference enumeration's: the canonical form under
signed column permutations, the Gram matrix of a Goeritz lattice and the
white-region pairs a coordinate pairing marks.
"""

from collections import Counter

from specalt.diagram import Checkerboard, DiagramError, LinkDiagram, is_special_alternating
from specalt.invariants import GoeritzLattice, _goeritz_form, goeritz, unlinking_lower_bound
from specalt.lattice import CoordinatePairing, LatticeEmbedding, _sign_normal


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


def canonical_matrix(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical form under signed column permutations: flip each column so
    its first nonzero entry is positive, then sort columns descending."""
    if not rows:
        return ()
    normed = sorted(map(_sign_normal, zip(*rows)), reverse=True)
    return tuple(zip(*normed)) if normed else ()


def goeritz_gram(lat: GoeritzLattice) -> tuple[tuple[int, ...], ...]:
    """The Goeritz form on v_1..v_r: the quotient of the form
    ``_goeritz_form`` reads off the lattice's diagram and coloring."""
    g = _goeritz_form(lat.coloring.diagram, lat.coloring)[2]
    return tuple(tuple(row[1:]) for row in g[1:])


def marked_region_pairs(e: LatticeEmbedding, pairing: CoordinatePairing) -> Counter:
    """How many pairs of ``pairing`` mark each set of full-matrix rows: on a
    Tait-graph incidence matrix, the two white regions both columns join."""
    full = e.full_matrix
    return Counter(frozenset(i for i, row in enumerate(full) if row[a])
                   for a, _, _ in pairing.pairs)
