"""Lattice embeddings of the Goeritz form into the standard cubic lattice.

The obstruction: if the 4-ball crossing number of a non-split alternating
link attains (|sigma|+k-1)/2, its positive-definite Goeritz form embeds
into Z^n (n = rank - sigma) meeting every coordinate (condition i) and
admitting p coordinate pairs with equal projections up to sign
(condition ii).  Exhausting all embeddings up to signed column
permutations therefore certifies a strict inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .diagram import (LinkDiagram, checkerboard_negative, mirror, twist_regions,
                      is_twist_reduced, is_special_alternating, _bigon_pairs,
                      NotAlternating, SplitDiagram, DiagramError)
from .invariants import goeritz, gl_signature, signature_nullity, GoeritzLattice
from .linalg import is_positive_definite


class TargetTooSmall(ValueError):
    """Target dimension below the rank of the form."""


class SignatureRoutesDisagree(DiagramError):
    """The Goeritz-route signature differs from the Seifert-route one; the
    obstruction's target dimension and bound p would be wrong."""


@dataclass(frozen=True)
class LatticeEmbedding:
    """Integer images of the Goeritz generators, rows v_1..v_r."""

    images: tuple[tuple[int, ...], ...]
    target_dim: int

    @property
    def rank(self) -> int:
        return len(self.images)

    @property
    def full_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Rows v_0, v_1, ..., v_r with v_0 = -(sum of the others)."""
        v0 = tuple(-sum(col) for col in zip(*self.images)) if self.images \
            else tuple(0 for _ in range(self.target_dim))
        return (v0,) + self.images

    def gram(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sum(a * b for a, b in zip(r1, r2)) for r2 in self.images)
                     for r1 in self.images)

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
    admissible: bool
    p: int
    target_dim: int
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


def signed_permutation_equivalent(rows_a, rows_b) -> bool:
    return canonical_matrix(tuple(map(tuple, rows_a))) == \
        canonical_matrix(tuple(map(tuple, rows_b)))


class _Stats:
    __slots__ = ("nodes", "dedup")

    def __init__(self):
        self.nodes = 0
        self.dedup = 0


def _row_candidates(placed: list[tuple[int, ...]], diag: int,
                    dots: list[int], n: int, stats: _Stats):
    """All vectors v with |v|^2 = diag and v . placed[i] = dots[i], up to
    the residual signed-permutation symmetry of the placed columns."""
    k = len(placed)
    # suffix norms of placed rows for Cauchy-Schwarz pruning
    suffix = [[0] * (n + 1) for _ in range(k)]
    for i in range(k):
        for j in range(n - 1, -1, -1):
            suffix[i][j] = suffix[i][j + 1] + placed[i][j] * placed[i][j]
    prefixes = [tuple(placed[i][j] for i in range(k)) for j in range(n)]
    zero_pref = [all(x == 0 for x in pref) for pref in prefixes]

    v = [0] * n

    def rec(j: int, rem: int, partial: list[int]):
        stats.nodes += 1
        if j == n:
            if rem == 0 and all(partial[i] == dots[i] for i in range(k)):
                yield tuple(v)
            return
        # Cauchy-Schwarz: remaining dot product must be achievable
        for i in range(k):
            need = dots[i] - partial[i]
            if need * need > rem * suffix[i][j]:
                return
        if rem == 0 and any(partial[i] != dots[i] for i in range(k)):
            return
        hi = isqrt(rem)
        lo = -hi
        if j > 0 and prefixes[j] == prefixes[j - 1]:
            hi = min(hi, v[j - 1])           # nonincreasing within a block
        if zero_pref[j]:
            lo = 0                            # sign-normalized block
        for x in range(hi, lo - 1, -1):
            v[j] = x
            if x:
                for i in range(k):
                    partial[i] += x * placed[i][j]
            yield from rec(j + 1, rem - x * x, partial)
            if x:
                for i in range(k):
                    partial[i] -= x * placed[i][j]
        v[j] = 0

    yield from rec(0, diag, [0] * k)


def enumerate_embeddings(gram, n: int, stats: _Stats | None = None):
    """Yield one representative per signed-column-permutation class of
    integer matrices X with X X^T = gram, exhaustively.

    Raises TargetTooSmall when n < rank; an unembeddable form simply yields
    nothing.
    """
    gram = tuple(tuple(row) for row in gram)
    r = len(gram)
    if n < r:
        raise TargetTooSmall(f"target dimension {n} below rank {r}")
    if not is_positive_definite(gram):
        raise ValueError("gram matrix must be positive definite")
    if stats is None:
        stats = _Stats()
    if r == 0:
        yield LatticeEmbedding((), n)
        return
    order = sorted(range(r), key=lambda i: -gram[i][i])
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
            yield LatticeEmbedding(canon, n)
            return
        i = order[k]
        diag = gram[i][i]
        dots = [gram[i][order[t]] for t in range(k)]
        for v in _row_candidates(placed, diag, dots, n, stats):
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


def claim1_structure(e: LatticeEmbedding) -> bool:
    """Every column of the full matrix holds exactly one +1 and one -1."""
    for col in zip(*e.full_matrix):
        nz = sorted(x for x in col if x)
        if nz != [-1, 1]:
            return False
    return True


def obstruction(d: LinkDiagram, *, sigma: int | None = None) -> ObstructionVerdict:
    """Decide whether the Goeritz lattice admits an embedding satisfying
    conditions (i) and (ii); Obstructed certifies c4 > p.

    ``sigma`` is the signature of ``d`` as given; when omitted it is
    computed with the Seifert oracle.  Either way the Goeritz route must
    reproduce it, or ``SignatureRoutesDisagree`` is raised."""
    if not d.is_connected:
        raise SplitDiagram("obstruction needs a non-split diagram")
    if d.n and not d.is_alternating:
        raise NotAlternating("obstruction needs an alternating diagram")
    if sigma is None:
        sigma, _ = signature_nullity(d)
    if sigma > 0:
        d = mirror(d)
        sigma = -sigma
    cb = checkerboard_negative(d)
    gl_sigma = gl_signature(d, cb)
    if gl_sigma != sigma:
        raise SignatureRoutesDisagree(
            f"Goeritz-route sigma {gl_sigma} != Seifert-route sigma {sigma}")
    k = d.component_count
    two_p = abs(sigma) + k - 1
    if two_p % 2 == 1:
        return ObstructionVerdict(False, two_p // 2 + 1, 0,
                                  reason="obstructed-by-parity")
    p = two_p // 2
    lat = goeritz(d, cb)
    n_target = lat.rank - sigma
    stats = _Stats()
    for emb in enumerate_embeddings(lat.gram, n_target, stats):
        if not condition_all_coords(emb):
            continue
        pairing = find_pairing(emb, p)
        if pairing is not None:
            return ObstructionVerdict(True, p, n_target, emb, pairing,
                                      stats.nodes, stats.dedup, "witness")
    return ObstructionVerdict(False, p, n_target, None, None,
                              stats.nodes, stats.dedup, "exhausted")


@dataclass(frozen=True)
class ClaspSet:
    """One crossing per disjoint clasp, with the clasp partner and the
    marked white-face pair."""

    crossings: tuple[int, ...]
    clasps: tuple[tuple[int, int], ...]
    face_pairs: tuple[tuple[int, int], ...]


class MarkedRegionsNotAdjacent(DiagramError):
    """Marked regions lack the >= 2 crossings Claim 2 guarantees; indicates
    a convention bug, not a valid state."""


def clasp_candidates(d: LinkDiagram, lat: GoeritzLattice, e: LatticeEmbedding,
                     pairing: CoordinatePairing) -> ClaspSet:
    """Extract one crossing per disjoint clasp from an admissible witness:
    each paired coordinate marks a white-region pair, and the crossings
    between a marked pair lie in one twist region (d twist-reduced)."""
    if not is_special_alternating(d):
        raise DiagramError("clasp extraction needs a special alternating diagram")
    if not is_twist_reduced(d):
        raise DiagramError("clasp extraction needs a twist-reduced diagram")
    cb = checkerboard_negative(d)
    full = e.full_matrix
    # face of each full-matrix row
    faces_of_rows = lat.white_order
    marked: dict[tuple[int, int], int] = {}
    for (a, b, eps) in pairing.pairs:
        rows_a = [i for i, row in enumerate(full) if row[a] != 0]
        rows_b = [i for i, row in enumerate(full) if row[b] != 0]
        if len(rows_a) != 2 or set(rows_a) != set(rows_b):
            raise MarkedRegionsNotAdjacent(
                f"columns {a},{b} do not mark a single region pair")
        pair = (faces_of_rows[rows_a[0]], faces_of_rows[rows_a[1]])
        key = (min(pair), max(pair))
        marked[key] = marked.get(key, 0) + 1
    tw = twist_regions(d)
    bigons = {tuple(sorted(pair)) for pair in _bigon_pairs(d)}
    chosen: list[int] = []
    clasps: list[tuple[int, int]] = []
    face_pairs: list[tuple[int, int]] = []
    for (f1, f2), count in sorted(marked.items()):
        between = [c for c in range(d.n)
                   if tuple(sorted(cb.white_corner_pair(c))) == (f1, f2)]
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
            clasps.append((c1, c2))
            chosen.append(min(c1, c2))
            face_pairs.append((f1, f2))
    return ClaspSet(tuple(chosen), tuple(clasps), tuple(face_pairs))
