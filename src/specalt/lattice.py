"""The lattice obstruction, read off the Goeritz form of a special
alternating diagram.

The obstruction: if the 4-ball crossing number of a non-split alternating
link attains (|sigma|+k-1)/2, its positive-definite Goeritz form embeds
into Z^n (n = rank - sigma) meeting every coordinate (condition i) and
admitting p coordinate pairs with equal projections up to sign
(condition ii).  No such embedding certifies a strict inequality.

The sigma <= 0 side of a special alternating diagram is its positive
diagram, where n = rank - sigma is the crossing count: zero slack.  There
the only covering embedding is the signed incidence matrix of the white
Tait graph (``GoeritzLattice.edges``), read with no search.  Two of its
columns are equal up to sign exactly when their crossings join the same
two white regions, so condition (ii) counts disjoint clasps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (LinkDiagram, checkerboard_negative, mirror, twist_regions,
                      is_twist_reduced, is_special_alternating, _bigon_pairs,
                      NotAlternating, NotSpecialAlternating, SplitDiagram,
                      DiagramError)
from .invariants import goeritz, unlinking_lower_bound, GoeritzLattice


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
    on, ``lattice.coloring.diagram``; ``lattice.sigma`` fixes p and n.
    ``nodes`` and ``dedup`` read 0: the embedding is read, not searched."""

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


def find_pairing(e: LatticeEmbedding, p: int) -> CoordinatePairing | None:
    """Theorem condition (ii): p disjoint column pairs equal up to sign.

    Groups columns into {+-column} classes and takes floor(size/2) pairs
    per class; None exactly when fewer than p pairs exist.
    """
    cols = list(zip(*e.full_matrix))
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

    Only here is a diagram replaced by its mirror: a negative diagram has
    sigma = rank > 0, so the positive diagram is decided, and the verdict's
    lattice names it.  A diagram with crossings of both signs is not
    special alternating and raises NotSpecialAlternating.  The embedding
    has one column e_a - e_b per crossing, its Tait-graph edge (a, b), in
    Z^n with n = rank - sigma = n_plus: zero slack."""
    if not d.is_connected:
        raise SplitDiagram("obstruction needs a non-split diagram")
    if d.n and not d.is_alternating:
        raise NotAlternating("obstruction needs an alternating diagram")
    if d.n and d.signs[0] < 0:
        d = mirror(d)
    if -1 in d.signs:
        raise NotSpecialAlternating("obstruction needs a special alternating diagram")
    lat = goeritz(d, checkerboard_negative(d))
    p = unlinking_lower_bound(lat.sigma, 0, d.component_count)[0]
    cols = [tuple((t == a) - (t == b) for t in range(1, lat.rank + 1))
            for a, b in lat.edges]
    emb = LatticeEmbedding(canonical_matrix(tuple(zip(*cols))), d.n)
    pairing = find_pairing(emb, p)
    if pairing is None:
        return ObstructionVerdict(False, p, d.n, lat, reason="exhausted")
    return ObstructionVerdict(True, p, d.n, lat, emb, pairing, reason="witness")


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
    full = v.embedding.full_matrix      # row i: the region lattice.edges numbers i
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
