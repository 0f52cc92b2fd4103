"""Lattice embeddings of the Goeritz form into the standard cubic lattice.

The obstruction: if the 4-ball crossing number of a non-split alternating
link attains (|sigma|+k-1)/2, its positive-definite Goeritz form embeds
into Z^n (n = rank - sigma) meeting every coordinate (condition i) and
admitting p coordinate pairs with equal projections up to sign
(condition ii).  Exhausting all embeddings up to signed column
permutations therefore certifies a strict inequality.

Only covering embeddings (condition i) are enumerated.  Each column of
the full matrix (v_0 = -(v_1 + ... + v_r) on top) sums to 0, so a
nonzero one has squared norm at least 2, and the squared norms add up to
tr(G) + (sum of all entries of G), twice the number of crossings.  On a
special alternating diagram, on its sigma <= 0 side, that is 2n: a
covering embedding then has exactly one +1 and one -1 in each full
column, so it is the signed incidence matrix of a multigraph on
v_0, ..., v_r whose Laplacian is the full Gram matrix.  A Laplacian fixes
every edge multiplicity, so that embedding is read off the Gram matrix
and is unique up to signed column permutation; no search is made.  Where
the sum exceeds 2n, which happens only on diagrams that are not special
alternating, the complete embeddings are searched for and filtered.

The search places one Gram row at a time, most constrained first: next
the unplaced row with the most nonzero Gram entries against the rows
already placed, ties to the larger norm.  Each row's candidates come from
a depth-first walk over its coordinates that breaks the signed column
permutations fixing the rows already placed: entries do not increase
within a block of equal placed columns, and are non-negative on a zero
placed column.  ``nodes`` counts the coordinate prefixes that walk
visits; ``dedup`` counts the complete matrices skipped because their
canonical form was already found, the symmetry the walk leaves unbroken.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .diagram import (LinkDiagram, checkerboard_negative, mirror, twist_regions,
                      is_twist_reduced, is_special_alternating, _bigon_pairs,
                      NotAlternating, SplitDiagram, DiagramError)
from .invariants import goeritz, unlinking_lower_bound, GoeritzLattice
from .linalg import is_positive_definite


class TargetTooSmall(ValueError):
    """Target dimension below the rank of the form."""


@dataclass(frozen=True)
class LatticeEmbedding:
    """Integer images of the Goeritz generators, rows v_1..v_r."""

    images: tuple[tuple[int, ...], ...]
    target_dim: int

    @property
    def full_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Rows v_0, v_1, ..., v_r with v_0 = -(sum of the others)."""
        v0 = tuple(-sum(col) for col in zip(*self.images)) if self.images \
            else tuple(0 for _ in range(self.target_dim))
        return (v0,) + self.images

    def to_json(self):
        return {"target_dim": self.target_dim,
                "rows": [list(r) for r in self.images],
                "full_matrix": [list(r) for r in self.full_matrix]}


@dataclass(frozen=True)
class CoordinatePairing:
    """p disjoint column pairs (a, b, eps) with column_a = eps * column_b."""

    pairs: tuple[tuple[int, int, int], ...]

    def to_json(self):
        return [list(p) for p in self.pairs]


@dataclass(frozen=True)
class ObstructionVerdict:
    """The verdict on ``lattice``, the Goeritz lattice of the diagram decided
    on, ``lattice.coloring.diagram``; ``lattice.sigma`` fixes p and n."""

    admissible: bool
    p: int
    target_dim: int
    lattice: GoeritzLattice
    embedding: LatticeEmbedding | None = None
    pairing: CoordinatePairing | None = None
    nodes: int = 0
    dedup: int = 0
    reason: str = ""

    def to_json(self):
        out = {"admissible": self.admissible, "p": self.p,
               "target_dim": self.target_dim, "nodes": self.nodes,
               "dedup": self.dedup, "reason": self.reason}
        if self.embedding is not None:
            out["embedding"] = self.embedding.to_json()
        if self.pairing is not None:
            out["pairing"] = self.pairing.to_json()
        return out


def _sign_normal(col: tuple[int, ...]) -> tuple[int, ...]:
    """The column flipped so that its first nonzero entry is positive."""
    for x in col:
        if x != 0:
            return col if x > 0 else tuple(-y for y in col)
    return col


def canonical_matrix(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical form under signed column permutations: flip each column so
    its first nonzero entry is positive, then sort columns descending."""
    if not rows:
        return ()
    normed = sorted(map(_sign_normal, zip(*rows)), reverse=True)
    return tuple(zip(*normed)) if normed else ()


class _Stats:
    __slots__ = ("nodes", "dedup")

    def __init__(self):
        self.nodes = 0
        self.dedup = 0


def _row_candidates(placed: list[tuple[int, ...]], diag: int,
                    dots: list[int], n: int, stats: _Stats) -> list[tuple[int, ...]]:
    """All vectors v with |v|^2 = diag and v . placed[i] = dots[i], up to
    the residual signed-permutation symmetry of the placed columns.

    A depth-first walk fixes v[0], v[1], ... in turn and carries the
    remaining norm ``rem`` and the remaining dot products ``need``.  Each
    prefix visited is one node of ``stats.nodes``; a child is screened in
    its parent's loop, so a pruned one costs no call.  Prunes:
    Cauchy-Schwarz, need[i]^2 <= rem * |placed[i][j:]|^2 for every i;
    non-increasing entries within a block of equal placed columns; a
    non-negative entry on a zero placed column (the first row is placed
    against none, so its entries come out non-negative and non-increasing)."""
    cols = list(zip(*placed)) if placed else [()] * n
    suffix = [()] * (n + 1)          # suffix[j][i] = |placed[i][j:]|^2
    acc = suffix[n] = (0,) * len(placed)
    for j in range(n - 1, -1, -1):
        acc = suffix[j] = tuple([a + c * c for a, c in zip(acc, cols[j])])
    capped = [j > 0 and cols[j] == cols[j - 1] for j in range(n)]
    zero = [not any(col) for col in cols]
    out: list[tuple[int, ...]] = []
    v = [0] * n
    nodes = 1                        # the empty prefix
    last = n - 1

    def rec(j: int, rem: int, need: list[int]):
        # v[:j] is a counted node that passed Cauchy-Schwarz
        nonlocal nodes
        hi = isqrt(rem)
        lo = -hi                  # before the block cap: only hi follows the block
        if capped[j] and v[j - 1] < hi:
            hi = v[j - 1]         # nonincreasing within a block
        if zero[j]:
            lo = 0                # sign-normalized block
        if hi < lo:
            return
        nodes += hi - lo + 1
        col = cols[j]
        if j == last:
            for x in range(hi, lo - 1, -1):
                if x * x == rem and all(a == x * c for a, c in zip(need, col)):
                    v[j] = x
                    out.append(tuple(v))
            v[j] = 0
            return
        suf = suffix[j + 1]
        for x in range(hi, lo - 1, -1):
            rem2 = rem - x * x
            need2 = [a - x * c for a, c in zip(need, col)] if x else need
            for a, s in zip(need2, suf):
                if a * a > rem2 * s:
                    break
            else:
                v[j] = x
                rec(j + 1, rem2, need2)
        v[j] = 0

    if all(a * a <= diag * s for a, s in zip(dots, suffix[0])):
        rec(0, diag, dots)
    stats.nodes += nodes
    return out


def _row_order(gram) -> list[int]:
    """Most constrained first: next the unplaced row with the most nonzero
    Gram entries against the rows already placed, ties to the larger norm,
    then to the lower index."""
    order: list[int] = []
    rest = list(range(len(gram)))
    while rest:
        i = max(rest, key=lambda i: (sum(1 for t in order if gram[i][t]),
                                     gram[i][i], -i))
        order.append(i)
        rest.remove(i)
    return order


def _covering_class(gram, n: int) -> list[LatticeEmbedding] | None:
    """The covering classes of a positive-definite ``gram`` in Z^n at zero
    slack; None at any other slack.  The gram is not checked.

    With v_0 = -(v_1 + ... + v_r), every column of the full matrix sums to
    0, so a nonzero one has squared norm at least 2, and the column norms
    add up to the trace of the full gram F (v_0's row and column are minus
    the gram's column sums).  When that trace is 2n (zero slack), a
    covering X has one +1 and one -1 in each full column, so X X^T = F is
    the Laplacian of a multigraph on v_0..v_r with -F[i][j] edges between
    v_i and v_j.  That fixes X up to signed column permutation: one class,
    and none when an off-diagonal entry of F is positive."""
    r = len(gram)
    full = [[sum(map(sum, gram))] + [-sum(col) for col in zip(*gram)]]
    full += [[full[0][i + 1], *row] for i, row in enumerate(gram)]
    if sum(full[i][i] for i in range(r + 1)) != 2 * n:
        return None
    pairs = [(i, j) for i in range(r + 1) for j in range(i + 1, r + 1)]
    if any(full[i][j] > 0 for i, j in pairs):
        return []
    cols = [tuple((t == i) - (t == j) for t in range(1, r + 1))
            for i, j in pairs for _ in range(-full[i][j])]
    return [LatticeEmbedding(canonical_matrix(tuple(zip(*cols))), n)]


def enumerate_embeddings(gram, n: int, stats: _Stats | None = None,
                         cover: bool = False):
    """Yield one representative per signed-column-permutation class of
    integer matrices X with X X^T = gram, exhaustively; with ``cover``,
    only the classes that meet every coordinate (``condition_all_coords``).

    Rows are placed in ``_row_order``; each row's candidates come from
    ``_row_candidates`` against the rows placed before it.  A complete
    matrix whose ``canonical_matrix`` was already yielded is counted in
    ``stats.dedup`` and skipped.  With ``cover`` at zero slack the classes
    are ``_covering_class``'s, found without a walk; otherwise the complete
    matrices are filtered.

    Raises TargetTooSmall when n < rank; an unembeddable form simply yields
    nothing.
    """
    gram = tuple(tuple(row) for row in gram)
    r = len(gram)
    if n < r:
        raise TargetTooSmall(f"target dimension {n} below rank {r}")
    if not is_positive_definite(gram):
        raise ValueError("gram matrix must be positive definite")
    if cover and (covering := _covering_class(gram, n)) is not None:
        yield from covering
        return
    if stats is None:
        stats = _Stats()
    order = _row_order(gram)
    seen: set = set()

    placed: list[tuple[int, ...]] = []

    def rec(k: int):
        if k == r:
            # undo the row permutation
            rows = [None] * r
            for pos, i in enumerate(order):
                rows[i] = placed[pos]
            canon = canonical_matrix(tuple(rows))
            if canon in seen:
                stats.dedup += 1
                return
            seen.add(canon)
            emb = LatticeEmbedding(canon, n)
            if not cover or condition_all_coords(emb):
                yield emb
            return
        i = order[k]
        dots = [gram[i][order[t]] for t in range(k)]
        for v in _row_candidates(placed, gram[i][i], dots, n, stats):
            placed.append(v)
            yield from rec(k + 1)
            placed.pop()

    yield from rec(0)


def condition_all_coords(e: LatticeEmbedding) -> bool:
    """Theorem condition (i): the image meets every coordinate axis,
    i.e. no column of the images is identically zero."""
    if not e.images:
        return e.target_dim == 0
    return all(any(row[j] for row in e.images) for j in range(e.target_dim))


def find_pairing(e: LatticeEmbedding, p: int) -> CoordinatePairing | None:
    """Theorem condition (ii): p disjoint column pairs equal up to sign.

    Groups columns into {+-column} classes and takes floor(size/2) pairs
    per class; None exactly when fewer than p pairs exist.
    """
    if p == 0:
        return CoordinatePairing(())
    cols = list(zip(*e.full_matrix)) if e.images else \
        [tuple()] * e.target_dim
    groups: dict[tuple, list[int]] = {}
    for j, col in enumerate(cols):
        groups.setdefault(_sign_normal(col), []).append(j)
    pairs = []
    for key in sorted(groups):
        members = groups[key]
        for t in range(len(members) // 2):
            a, b = members[2 * t], members[2 * t + 1]
            eps = 1 if cols[a] == cols[b] else -1
            pairs.append((a, b, eps))
    if len(pairs) < p:
        return None
    return CoordinatePairing(tuple(pairs[:p]))


def obstruction(d: LinkDiagram) -> ObstructionVerdict:
    """Decide whether the Goeritz lattice admits an embedding satisfying
    conditions (i) and (ii); Obstructed certifies c4 > p.

    The signature comes from the same lattice.  Only here is a diagram of
    positive signature replaced by its mirror; the verdict's lattice names
    the diagram decided on."""
    if not d.is_connected:
        raise SplitDiagram("obstruction needs a non-split diagram")
    if d.n and not d.is_alternating:
        raise NotAlternating("obstruction needs an alternating diagram")
    lat = goeritz(d, checkerboard_negative(d))
    if lat.sigma > 0:
        d = mirror(d)
        lat = goeritz(d, checkerboard_negative(d))
    sigma = lat.sigma
    p = unlinking_lower_bound(sigma, 0, d.component_count)[0]
    n_target = lat.rank - sigma
    stats = _Stats()
    # a goeritz gram is positive definite by construction: no check here
    found = _covering_class(lat.gram, n_target)
    if found is None:
        found = enumerate_embeddings(lat.gram, n_target, stats, cover=True)
    for emb in found:
        pairing = find_pairing(emb, p)
        if pairing is not None:
            return ObstructionVerdict(True, p, n_target, lat, emb, pairing,
                                      stats.nodes, stats.dedup, "witness")
    return ObstructionVerdict(False, p, n_target, lat, None, None,
                              stats.nodes, stats.dedup, "exhausted")


class MarkedRegionsNotAdjacent(DiagramError):
    """Marked regions lack the >= 2 crossings Claim 2 guarantees; indicates
    a convention bug, not a valid state."""


def clasp_candidates(v: ObstructionVerdict) -> tuple[int, ...]:
    """One crossing per disjoint clasp, extracted from an admissible
    verdict: each paired coordinate marks a white-region pair, and the
    crossings between a marked pair lie in one twist region.  That is
    Claim 2, on a twist-reduced diagram; on any other diagram the tuple is
    empty."""
    if not v.admissible:
        raise DiagramError("clasp extraction needs an admissible verdict")
    d = v.lattice.coloring.diagram
    if not is_special_alternating(d):
        raise DiagramError("clasp extraction needs a special alternating diagram")
    tw = twist_regions(d)
    if not is_twist_reduced(d, tw):
        return ()
    full = v.embedding.full_matrix      # row i is white region white_order[i]
    marked: dict[tuple[int, int], int] = {}
    for (a, b, eps) in v.pairing.pairs:
        rows_a = [i for i, row in enumerate(full) if row[a] != 0]
        rows_b = [i for i, row in enumerate(full) if row[b] != 0]
        if len(rows_a) != 2 or set(rows_a) != set(rows_b):
            raise MarkedRegionsNotAdjacent(
                f"columns {a},{b} do not mark a single region pair")
        key = (rows_a[0], rows_a[1])
        marked[key] = marked.get(key, 0) + 1
    bigons = {tuple(sorted(pair)) for pair in _bigon_pairs(d)}
    chosen: list[int] = []
    for pair, count in sorted(marked.items()):
        between = [c for c, edge in enumerate(v.lattice.edges)
                   if tuple(sorted(edge)) == pair]
        if len(between) < 2 * count:
            raise MarkedRegionsNotAdjacent(
                f"only {len(between)} crossings between marked regions, "
                f"need {2 * count}")
        regions = {tw.region_of(c) for c in between}
        if len(regions) != 1:
            raise MarkedRegionsNotAdjacent(
                "marked crossings span several twist regions")
        chain = [c for c in tw.regions[regions.pop()] if c in between]
        for t in range(count):
            c1, c2 = chain[2 * t], chain[2 * t + 1]
            if tuple(sorted((c1, c2))) not in bigons:
                raise MarkedRegionsNotAdjacent(
                    f"selected crossings {c1},{c2} are not clasped")
            chosen.append(min(c1, c2))
    return tuple(chosen)
