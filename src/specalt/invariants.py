"""Classical invariants from checkerboard data; two independent signature
routes.

The production signature route goes through the positive-definite Goeritz
form of the all-(-1) checkerboard coloring: for a reduced non-split
alternating diagram,

    sigma(L) = sig(gram) - n_plus(D),

where n_plus is the number of positive crossings.  The correction term's
crossing-type convention is calibrated against the Seifert-matrix oracle
(module ``seifert``); the two routes must agree exactly on every
alternating fixture, and the test suite enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import (LinkDiagram, Checkerboard, checkerboard, is_special_alternating,
                      SplitDiagram, DiagramError)
from .linalg import symmetric_signature_nullity, det_bareiss
from . import seifert as _seifert


class DegenerateColoring(DiagramError):
    """The coloring passed to goeritz() has positive incidences."""


@dataclass(frozen=True)
class GoeritzLattice:
    """Positive-definite Goeritz form of an alternating diagram.

    ``gram`` is the pairing on the white regions v_1..v_r after deleting
    v_0 (the white face with the smallest face index); ``unquotiented`` is
    the full (r+1)x(r+1) degenerate pairing whose rows sum to zero.
    """

    rank: int
    gram: tuple[tuple[int, ...], ...]
    unquotiented: tuple[tuple[int, ...], ...]
    white_order: tuple[int, ...]          # face indices v_0, v_1, ..., v_r


def _goeritz_form(d: LinkDiagram, c: Checkerboard) -> tuple[list[int], list[list[int]]]:
    """White faces in index order and the unquotiented Goeritz form with
    incidence signs: a crossing between distinct white regions a, b adds
    mu to g[a][b] and g[b][a] and subtracts it from g[a][a] and g[b][b]; a
    crossing with both white corners in one region contributes nothing."""
    whites = c.white_faces()
    pos = {f: i for i, f in enumerate(whites)}
    g = [[0] * len(whites) for _ in whites]
    for cr in range(d.n):
        fa, fb = c.white_corner_pair(cr)
        ia, ib = pos[fa], pos[fb]
        if ia == ib:
            continue
        mu = c.incidence[cr]
        g[ia][ib] += mu
        g[ib][ia] += mu
        g[ia][ia] -= mu
        g[ib][ib] -= mu
    return whites, g


def goeritz(d: LinkDiagram, c: Checkerboard) -> GoeritzLattice:
    """Goeritz pairing: v_i . v_j = -(crossings between v_i and v_j) off the
    diagonal, diagonal = crossings around v_i."""
    if not d.is_connected:
        raise SplitDiagram("goeritz needs a non-split diagram")
    if any(mu != -1 for mu in c.incidence):
        raise DegenerateColoring("coloring must have incidence -1 at every crossing")
    if any(fa == fb for fa, fb in map(c.white_corner_pair, range(d.n))):
        raise DiagramError("crossing with both white corners in one region; "
                           "diagram is not reduced")
    whites, g = _goeritz_form(d, c)
    return GoeritzLattice(
        rank=len(whites) - 1,
        gram=tuple(tuple(row[1:]) for row in g[1:]),
        unquotiented=tuple(tuple(row) for row in g),
        white_order=tuple(whites),
    )


def gl_signature(d: LinkDiagram, c: Checkerboard) -> int:
    """Signature via the Goeritz form with the calibrated correction
    (number of positive crossings under the all-(-1) coloring)."""
    lat = goeritz(d, c)
    sig, _ = symmetric_signature_nullity(lat.gram)
    n_plus = sum(1 for s in d.signs if s == 1)
    return sig - n_plus


@dataclass(frozen=True)
class ClassicalInvariants:
    signature: int
    nullity: int
    determinant: int
    component_count: int
    seifert_genus_report: Fraction | None   # (n - r)/2 on special alternating knots


def signature_nullity(d: LinkDiagram) -> tuple[int, int]:
    """(sigma, eta) of the symmetrized Seifert form, additively over split
    parts (nullity gains one per extra split component)."""
    return _seifert.signature_nullity(d)


def determinant(d: LinkDiagram) -> int:
    """|det| of the quotient Goeritz form of either coloring (with incidence
    signs), an unoriented link invariant; 0 for split links."""
    if d.n == 0:
        return 1 if d.component_count == 1 else 0
    if not d.is_connected:
        return 0
    _, g = _goeritz_form(d, checkerboard(d))
    return abs(det_bareiss([row[1:] for row in g[1:]]))


def linking_matrix(d: LinkDiagram) -> dict[tuple[int, int], Fraction]:
    """Pairwise linking numbers lk(i, j) = half the signed count of
    crossings between components i and j."""
    comp = d.component_of_edge
    out: dict[tuple[int, int], Fraction] = {}
    for c in range(d.n):
        ca = comp[d.quads[c][0]]
        cb = comp[d.quads[c][1]]
        if ca == cb:
            continue
        key = (min(ca, cb), max(ca, cb))
        out[key] = out.get(key, Fraction(0)) + Fraction(d.signs[c], 2)
    return out


def unlinking_lower_bound(sigma: int, eta: int, k: int) -> tuple[Fraction, Fraction]:
    """The two classical lower bounds: (|sigma|+k-1)/2 for the unlinking
    number and (|sigma|-eta+k-1)/2 for the 4-ball crossing number."""
    return (Fraction(abs(sigma) + k - 1, 2),
            Fraction(abs(sigma) - eta + k - 1, 2))


class PreconditionViolated(DiagramError):
    pass


def euler_check(d: LinkDiagram, c: Checkerboard) -> bool:
    """chi(S_-) = 1 + sigma = k - 2p for a positive special alternating
    reduced non-split diagram, with chi computed from the white surface."""
    if not (is_special_alternating(d) and all(s == 1 for s in d.signs)):
        raise PreconditionViolated("need a positive special alternating diagram")
    lat = goeritz(d, c)
    chi = 1 - (d.n - lat.rank)
    sigma = gl_signature(d, c)
    k = d.component_count
    p = unlinking_lower_bound(sigma, 0, k)[0]
    return chi == 1 + sigma and Fraction(chi) == k - 2 * p


def classical_invariants(d: LinkDiagram) -> ClassicalInvariants:
    sigma, eta = signature_nullity(d)
    det = determinant(d)
    genus = None
    if is_special_alternating(d) and d.component_count == 1 and d.n > 0:
        # first Betti number of the Seifert-side checkerboard surface over
        # two; equals (n - rank)/2 for a positive diagram and rank/2 for
        # its mirror, i.e. |sigma|/2 in both cases
        genus = Fraction(abs(sigma), 2)
    return ClassicalInvariants(sigma, eta, det, d.component_count, genus)
