"""Classical invariants from checkerboard data.

Signature and nullity come from the Goeritz form G of a checkerboard
coloring by Gordon-Litherland (1978):

    sigma(L) = sig(G) + sum of mu(c) over crossings with mu(c) * sign(c) = -1,
    eta(L) = null(G),

additively over split parts.  On the all-(-1) coloring of a reduced
non-split alternating diagram G is positive definite, so the decision's
lattice reads sigma = rank(G) - n_plus(D), n_plus being the number of
positive crossings.  The Seifert-matrix oracle (module ``seifert``) is an
independent route that the tests compare this one against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (LinkDiagram, Checkerboard, checkerboard, is_special_alternating,
                      split_components, SplitDiagram, DiagramError)
from .linalg import det_bareiss, symmetric_signature_nullity


class DegenerateColoring(DiagramError):
    """The coloring passed to goeritz() has positive incidences."""


@dataclass(frozen=True)
class GoeritzLattice:
    """Positive-definite Goeritz form of an alternating diagram, held as
    its white Tait graph: ``edges`` gives each crossing's white regions in
    face-index order, and the form on v_1..v_r is the graph's Laplacian
    with region 0 deleted.  ``sigma`` is the signature of the diagram's
    link, rank - n_plus, and ``coloring`` the checkerboard the form was
    read from.
    """

    rank: int
    edges: tuple[tuple[int, int], ...]    # per crossing, its white corners' rows
    sigma: int
    coloring: Checkerboard


def _tait_graph(d: LinkDiagram, c: Checkerboard) -> tuple[list, list]:
    """White faces in index order and each crossing's white Tait-graph edge,
    from one pass over ``faces``: a face is white when its first corner
    (c, s) has s even exactly when mu(c) = +1 (face 0 alone on a
    crossing-free diagram), and crossing c's edge holds the positions of
    its white corners q_s, q_{s+2}."""
    mu = c.incidence
    whites = [] if d.n or not d.faces else [0]
    edges = [[0, 0] for _ in mu]
    for f, face in enumerate(d.faces):
        if face and (face[0][1] % 2 == 0) == (mu[face[0][0]] == 1):
            for cr, s in face:
                edges[cr][s >> 1] = len(whites)
            whites.append(f)
    return whites, edges


def _goeritz_form(d: LinkDiagram, c: Checkerboard) -> tuple[list, list, list]:
    """The white faces and edges of ``_tait_graph`` and the unquotiented
    Goeritz form with incidence signs: a crossing between distinct white
    regions a, b adds mu to g[a][b] and g[b][a] and subtracts it from
    g[a][a] and g[b][b]; one with both white corners in one region adds
    nothing."""
    whites, edges = _tait_graph(d, c)
    g = [[0] * len(whites) for _ in whites]
    for (ia, ib), m in zip(edges, c.incidence):
        if ia != ib:
            g[ia][ib] += m
            g[ib][ia] += m
            g[ia][ia] -= m
            g[ib][ib] -= m
    return whites, edges, g


def _gl_correction(d: LinkDiagram, c: Checkerboard) -> int:
    """Gordon-Litherland correction: the sum of mu(c) over the crossings
    whose incidence and orientation sign disagree; -n_plus on the
    all-(-1) coloring."""
    return sum(mu for mu, s in zip(c.incidence, d.signs) if mu != s)


def goeritz(d: LinkDiagram, c: Checkerboard) -> GoeritzLattice:
    """Goeritz lattice of the all-(-1) coloring: v_i . v_j = -(crossings
    between v_i and v_j) off the diagonal, diagonal = crossings around v_i.

    The form is the reduced Laplacian of the connected, loopless white Tait
    graph, so it is positive definite and its signature is its rank; the
    link signature is that rank minus the number of positive crossings."""
    if not d.is_connected:
        raise SplitDiagram("goeritz needs a non-split diagram")
    if any(mu != -1 for mu in c.incidence):
        raise DegenerateColoring("coloring must have incidence -1 at every crossing")
    whites, edges = _tait_graph(d, c)
    if any(a == b for a, b in edges):
        raise DiagramError("crossing with both white corners in one region; "
                           "diagram is not reduced")
    return GoeritzLattice(
        rank=len(whites) - 1,
        edges=tuple(map(tuple, edges)),
        sigma=len(whites) - 1 + _gl_correction(d, c),
        coloring=c,
    )


def gl_signature(d: LinkDiagram, c: Checkerboard) -> int:
    """Signature of the positive-definite lattice of the all-(-1) coloring
    ``c``: rank minus the number of positive crossings."""
    return goeritz(d, c).sigma


@dataclass(frozen=True)
class ClassicalInvariants:
    signature: int
    nullity: int
    determinant: int
    component_count: int
    seifert_genus_report: int | None   # |sigma|/2 on special alternating knots


def _gl_invariants(d: LinkDiagram) -> tuple[int, int, int]:
    """(sigma, eta, |det|) by Gordon-Litherland, from one checkerboard and
    one quotient Goeritz form per split part; eta gains one per extra split
    part, and |det| is 0 on a split link."""
    parts = split_components(d) if not d.is_connected else [d]
    sigma, eta = 0, len(parts) - 1
    det = int(d.component_count == 1) if not d.n else 0
    for part in parts:
        if part.n:
            c = checkerboard(part)
            q = [row[1:] for row in _goeritz_form(part, c)[2][1:]]
            s, nl = symmetric_signature_nullity(q)
            sigma += s + _gl_correction(part, c)
            eta += nl
            if part is d:
                det = abs(det_bareiss(q))
    return sigma, eta, det


def signature_nullity(d: LinkDiagram) -> tuple[int, int]:
    """(sigma, eta) of ``_gl_invariants``."""
    return _gl_invariants(d)[:2]


def determinant(d: LinkDiagram) -> int:
    """|det| of the quotient Goeritz form of either coloring (with incidence
    signs), an unoriented link invariant; 0 for split links."""
    if d.n == 0:
        return 1 if d.component_count == 1 else 0
    if not d.is_connected:
        return 0
    g = _goeritz_form(d, checkerboard(d))[2]
    return abs(det_bareiss([row[1:] for row in g[1:]]))


def linking_matrix(d: LinkDiagram) -> dict[tuple[int, int], int]:
    """Pairwise linking numbers lk(i, j) = half the signed count of the
    crossings whose ``component_pairs`` entry is (i, j).  Two components
    cross an even number of times, so each signed count is summed as an
    int and halved exactly once."""
    counts: dict[tuple[int, int], int] = {}
    for key, sign in zip(d.component_pairs, d.signs):
        if key is not None:
            counts[key] = counts.get(key, 0) + sign
    return {key: total // 2 for key, total in counts.items()}


def unlinking_lower_bound(sigma: int, eta: int, k: int) -> tuple[int, int]:
    """The two classical lower bounds: (|sigma|+|k-1-eta|)/2 for the
    unlinking number and (|sigma|-eta+k-1)/2 for the 4-ball crossing number.

    A crossing change is a rank-one change of V+V^T, so it moves
    |d sigma|+|d eta| by 0 or 2, and the k-component unlink has
    (sigma, eta) = (0, k-1).  Both bounds are integers because
    sigma + eta = k - 1 (mod 2) on every link; a pair that breaks this is
    a wrong signature and raises DiagramError."""
    if (sigma + eta + k - 1) % 2:
        raise DiagramError(f"sigma {sigma}, nullity {eta}, k = {k}: sigma + eta "
                           f"!= k - 1 (mod 2), so the bound is not an integer")
    return (abs(sigma) + abs(k - 1 - eta)) // 2, (abs(sigma) - eta + k - 1) // 2


def classical_invariants(d: LinkDiagram) -> ClassicalInvariants:
    sigma, eta, det = _gl_invariants(d)
    genus = None
    if is_special_alternating(d) and d.component_count == 1 and d.n > 0:
        # first Betti number of the Seifert-side checkerboard surface over
        # two; equals (n - rank)/2 for a positive diagram and rank/2 for
        # its mirror, i.e. |sigma|/2 in both cases
        genus = abs(sigma) // 2
    return ClassicalInvariants(sigma, eta, det, d.component_count, genus)
