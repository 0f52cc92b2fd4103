"""Seifert matrices from diagrams: the signature/nullity reference oracle.

The diagram is first isotoped (by reverse Reidemeister II moves) until its
Seifert circles are coherently nested, i.e. the regions of the circle
arrangement form a directed chain; the diagram is then a closed braid and
the Seifert matrix of the braid-closure surface is read off band by band.

The oracle is the reference for the Gordon-Litherland route of
``invariants.signature_nullity``, which the pipeline runs instead: the
tests compare the two, and ``scripts/make_fixtures.py`` writes the frozen
signature column from this one.
"""

from __future__ import annotations

from .diagram import LinkDiagram, End, cycles, split_components
from .linalg import symmetric_signature_nullity
from . import moves as _moves


class SeifertError(RuntimeError):
    pass


def _in_ends(d: LinkDiagram, c: int) -> tuple[End, End]:
    return (c, 0), (c, d.over_in_slot(c))


def _smooth_out(d: LinkDiagram, end: End) -> End:
    c, s = end
    if s == 0:  # under-in continues to over-out
        return (c, 3 if d.over_in_slot(c) == 1 else 1)
    return (c, 2)  # over-in continues to under-out


def seifert_circles(d: LinkDiagram) -> list[tuple[End, ...]]:
    """Orientation-smoothing circles, each a cyclic tuple of in-ends."""
    ins = sorted(e for c in range(d.n) for e in _in_ends(d, c))
    return cycles(ins, lambda end: d.mate(_smooth_out(d, end)))


def _circle_of_edge(d: LinkDiagram, circles) -> dict[int, int]:
    out = {}
    for i, circ in enumerate(circles):
        for end in circ:
            out[d.quads[end[0]][end[1]]] = i
    return out


def _left_right_faces(d: LinkDiagram, edge_label: int) -> tuple[int, int]:
    a, b = d.edge_ends[edge_label]
    head = a if d.incoming[a[0]][a[1]] else b
    tail = b if head == a else a
    return d.face_index[head], d.face_index[tail]


def _regions(d: LinkDiagram) -> dict[int, int]:
    """Merge faces across smoothed crossings: face -> region id."""
    parent = list(range(len(d.faces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for c in range(d.n):
        if d.signs[c] == 1:
            union(d.face_index[(c, 0)], d.face_index[(c, 2)])
        else:
            union(d.face_index[(c, 1)], d.face_index[(c, 3)])
    return {f: find(f) for f in range(len(d.faces))}


def _circle_sides(d: LinkDiagram, circles, regions) -> list[tuple[int, int]]:
    """(left region, right region) per circle; consistent along the circle."""
    out = []
    for circ in circles:
        lefts, rights = set(), set()
        for end in circ:
            lab = d.quads[end[0]][end[1]]
            lf, rf = _left_right_faces(d, lab)
            lefts.add(regions[lf])
            rights.add(regions[rf])
        if len(lefts) != 1 or len(rights) != 1:
            raise SeifertError("inconsistent circle sides")
        out.append((lefts.pop(), rights.pop()))
    return out


def _is_chain(sides) -> bool:
    tails = [r for (_, r) in sides]
    heads = [l for (l, _) in sides]
    return len(set(tails)) == len(tails) and len(set(heads)) == len(heads)


def _vogel_site(d: LinkDiagram, circle_of):
    """The first R2+ site whose two edges lie on two different circles
    seen from the same side (Vogel's incoherent configuration)."""
    def circle_and_side(dart):
        c, s = dart
        # the site's face holds the edge's outgoing dart at c, which is on
        # the edge's left side exactly when the edge flows out of c
        return circle_of[d.quads[c][(s + 1) % 4]], not d.incoming[c][(s + 1) % 4]
    for da, db in _moves.r2plus_sites(d):
        (ca, sa), (cb, sb) = circle_and_side(da), circle_and_side(db)
        if ca != cb and sa == sb:
            return (da, db)
    return None


def isotope_to_braid_form(d: LinkDiagram) -> LinkDiagram:
    """Apply reverse-R2 moves until the Seifert circles are coherently
    nested (region tree is a directed chain).  Each move keeps the number
    s of circles, and Vogel's bound of (s - 1)(s - 2)/2 moves caps the
    loop."""
    cur, circles = d, seifert_circles(d)
    s = len(circles)
    for _ in range((s - 1) * (s - 2) // 2 + 1):
        regions = _regions(cur)
        sides = _circle_sides(cur, circles, regions)
        if _is_chain(sides):
            return cur
        circle_of = _circle_of_edge(cur, circles)
        site = _vogel_site(cur, circle_of)
        if site is None:
            raise SeifertError("no Vogel move available but circles not nested")
        cur = _moves.apply_r2plus(cur, site)
        circles = seifert_circles(cur)
    raise SeifertError("Vogel iteration did not stabilize")


def _braid_arrows(d: LinkDiagram):
    """(arrows, strand_count): each crossing becomes [height, strand, code]
    with strands indexed along the chain of nested circles."""
    circles = seifert_circles(d)
    regions = _regions(d)
    sides = _circle_sides(d, circles, regions)
    if not _is_chain(sides):
        raise SeifertError("diagram is not in braid form")
    s = len(circles)
    tails = {r: i for i, (_, r) in enumerate(sides)}
    heads = {l: i for i, (l, _) in enumerate(sides)}
    start_regions = [r for r in tails if r not in heads]
    if len(start_regions) != 1:
        raise SeifertError("region chain has no unique source")
    order = []
    reg = start_regions[0]
    while reg in tails and len(order) <= s:
        ci = tails[reg]
        order.append(ci)
        reg = sides[ci][0]
    if len(order) != s:
        raise SeifertError("region chain does not cover all circles")
    strand_index = {ci: k for k, ci in enumerate(order)}

    ordered_strands = [list(circles[ci]) for ci in order]
    circle_of = _circle_of_edge(d, circles)

    def crossing_strands(c: int) -> tuple[int, int]:
        under_circle = strand_index[circle_of[d.quads[c][0]]]
        over_circle = strand_index[circle_of[d.quads[c][d.over_in_slot(c)]]]
        return under_circle, over_circle

    for c in range(d.n):
        u, o = crossing_strands(c)
        if abs(u - o) != 1:
            raise SeifertError("crossing joins non-adjacent strands")

    # align cyclic starting points of consecutive strands
    for i in range(s - 1):
        done = False
        for end in ordered_strands[i]:
            for m, nxt in enumerate(ordered_strands[i + 1]):
                if nxt[0] == end[0]:
                    ordered_strands[i + 1] = (ordered_strands[i + 1][m:]
                                              + ordered_strands[i + 1][:m])
                    done = True
                    break
            if done:
                break

    arrows = []
    for i in range(s - 1):
        for n_pos, end in enumerate(ordered_strands[i]):
            for m_pos, nxt in enumerate(ordered_strands[i + 1]):
                if nxt[0] == end[0]:
                    c = end[0]
                    under_strand, _ = crossing_strands(c)
                    # 0 when the lower-numbered strand passes under; Collins'
                    # rules are calibrated so the positive trefoil gets -2
                    code = 0 if under_strand == i else 1
                    arrows.append([n_pos, m_pos, i, code])
                    break

    _straighten(arrows)
    arrows.sort(key=lambda a: a[0])
    return [[a[0], a[2], a[3]] for a in arrows], s


def _straighten(arrows):
    moved = True
    rounds = 0
    while moved:
        rounds += 1
        if rounds > 10_000:
            raise SeifertError("band straightening did not stabilize")
        moved = False
        for arrow in arrows:
            tail, head = arrow[0], arrow[1]
            if tail < head:
                diff = head - tail
                for other in arrows:
                    if other[2] == arrow[2] and other[0] >= tail:
                        other[0] += diff
                for other in arrows:
                    if other[2] == arrow[2] - 1 and other[1] >= tail:
                        other[1] += diff
                moved = True
            elif head < tail:
                diff = tail - head
                for other in arrows:
                    if other[2] == arrow[2] and other[1] >= head:
                        other[1] += diff
                for other in arrows:
                    if other[2] == arrow[2] + 1 and other[0] >= head:
                        other[0] += diff
                moved = True


def _collins_matrix(arrows, strand_count):
    grouped = [[a for a in arrows if a[1] == st] for st in range(strand_count - 1)]
    hom_gens = [[(g[i][0], g[i + 1][0], g[i][2], g[i + 1][2])
                 for i in range(len(g) - 1)] for g in grouped]
    entries = [(n, j) for n in range(len(hom_gens)) for j in range(len(hom_gens[n]))]
    idx = {e: i for i, e in enumerate(entries)}
    m = len(entries)
    v = [[0] * m for _ in range(m)]
    for n, gens in enumerate(hom_gens):
        for j, gen in enumerate(gens):
            if gen[2] == gen[3]:
                v[idx[(n, j)]][idx[(n, j)]] = -1 if gen[2] == 0 else 1
        for j, gen in enumerate(gens[:-1]):
            if gen[3] == 0:
                v[idx[(n, j + 1)]][idx[(n, j)]] = 1
            else:
                v[idx[(n, j)]][idx[(n, j + 1)]] = -1
        if n + 1 < len(hom_gens):
            for j, gen in enumerate(gens):
                for l, ngen in enumerate(hom_gens[n + 1]):
                    if ngen[0] < gen[0] < ngen[1] < gen[1]:
                        v[idx[(n + 1, l)]][idx[(n, j)]] = 1
                    elif gen[0] < ngen[0] < gen[1] < ngen[1]:
                        v[idx[(n + 1, l)]][idx[(n, j)]] = -1
    return v


def seifert_matrix(d: LinkDiagram):
    """Seifert matrix of the link (block sum over split components)."""
    parts = split_components(d) if not d.is_connected else [d]
    blocks = []
    for part in parts:
        if part.n == 0:
            continue
        braided = isotope_to_braid_form(part)
        arrows, s = _braid_arrows(braided)
        blocks.append(_collins_matrix(arrows, s))
    size = sum(len(b) for b in blocks)
    v = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                v[off + i][off + j] = x
        off += len(b)
    return v


def signature_nullity(d: LinkDiagram) -> tuple[int, int]:
    """(sigma, eta) of the symmetrized Seifert form; nullity gains one per
    extra split component."""
    parts = split_components(d) if not d.is_connected else [d]
    sigma = 0
    eta = len(parts) - 1
    for part in parts:
        if part.n == 0:
            continue
        v = seifert_matrix(part)
        n = len(v)
        sym = [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]
        s, nl = symmetric_signature_nullity(sym)
        sigma += s
        eta += nl
    return sigma, eta
