"""Derive src/specalt/data/named_pd_codes.csv: PD codes for the named 11- and
12-crossing knots of table_lists.json, computed from first principles.

The Hoste-Thistlethwaite tables number the prime alternating knots of each
crossing number in the lexicographic order of their minimal
Dowker-Thistlethwaite (DT) codes, the minimum being taken over every
minimal diagram (Hoste-Thistlethwaite-Weeks, "The first 1,701,936 knots",
1998).  By the flyping theorem (Menasco-Thistlethwaite 1993) the minimal
diagrams of a prime alternating knot are exactly one flype class of
reduced alternating diagrams, so the numbering can be recomputed:

1. Enumerate the Tait graphs of the reduced prime alternating diagrams:
   every 2-connected loopless plane multigraph with at most 12 edges, up to
   homeomorphism of the sphere.  Each one grows from a smaller one by
   adding an edge inside a face or by subdividing an edge; a canonical
   rooted-map code drops the duplicates.
2. Join each map to its dual and to every flype of it (union-find).
3. Keep the one-component classes, order them by the minimal DT code of
   their diagrams and name the k-th class at n crossings ``<n>a<k>``.
4. Write the DT-minimal diagram of each named knot as a PD code, mirrored
   so that sigma < 0, with the signature, u and genus cells of the
   published tables (``tables.analyze`` re-checks sigma against the code).

Nothing is written unless every gate holds: Tutte's rooted map counts,
the known counts of alternating knots, 915 classes at 11 crossings,
11a367 = T(2,11), the flype self-check (``flypes``) and the published
sigma and genus of every row.  Run from the repository root:

    python scripts/make_named_codes.py           # write the CSV
    python scripts/make_named_codes.py --check   # regenerate, compare bytes

A map is a tuple ``s`` over the darts 0..2E-1: dart ``d ^ 1`` is the
reverse of dart ``d`` and ``s[d]`` is the next dart counterclockwise around
the tail of ``d``.  Faces are the cycles of ``d -> s[d ^ 1]``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from specalt.diagram import (parse_pd, reduce_nugatory,  # noqa: E402
                             checkerboard_negative)
from specalt.invariants import gl_signature  # noqa: E402
from specalt.seifert import seifert_circles  # noqa: E402

DATA = os.path.normpath(os.path.join(HERE, "..", "src", "specalt", "data"))
OUT_PATH = os.path.join(DATA, "named_pd_codes.csv")
MAX_EDGES = 12

# Rooted nonseparable planar maps with 2..12 edges (Tutte 1963).
TUTTE_ROOTED = {2: 1, 3: 2, 4: 6, 5: 22, 6: 91, 7: 408, 8: 1938, 9: 9614,
                10: 49335, 11: 260130, 12: 1402440}
# Prime alternating knots with 3..12 crossings.
ALTERNATING_KNOTS = {3: 1, 4: 1, 5: 2, 6: 3, 7: 7, 8: 18, 9: 41, 10: 123,
                     11: 367, 12: 1288}
# Prime alternating knots and links with 11 crossings (367 + 548).
ALTERNATING_CLASSES_11 = 915
TORUS_2_11 = (12, 14, 16, 18, 20, 22, 2, 4, 6, 8, 10)


# -- maps ----------------------------------------------------------------------


def inverse(s):
    inv = [0] * len(s)
    for d, x in enumerate(s):
        inv[x] = d
    return inv


def orbits(perm):
    """Cycles of a permutation given as a sequence, each read from its
    least element, in the order of those elements.  The loop indexes a list
    instead of calling ``diagram.cycles``: ``canon`` calls it for every
    child map of the census, where the set-based walk made ``--check``
    12-17% slower."""
    seen = [False] * len(perm)
    out = []
    for d in range(len(perm)):
        if not seen[d]:
            cyc = []
            while not seen[d]:
                seen[d] = True
                cyc.append(d)
                d = perm[d]
            out.append(cyc)
    return out


def face_cycles(s):
    return orbits([s[d ^ 1] for d in range(len(s))])


def dual(s):
    """The dual map: its vertex rotations are the faces of ``s``."""
    return tuple(s[d ^ 1] for d in range(len(s)))


def _rooted_code(s, root, best):
    """``s`` relabelled by order of discovery from ``root`` (reverse darts
    keep odd labels), or None as soon as it exceeds ``best``."""
    n = len(s)
    lab = [-1] * n
    lab[root] = 0
    lab[root ^ 1] = 1
    order = [root, root ^ 1]
    code = []
    tied = best is not None
    for i in range(n):
        x = s[order[i]]
        v = lab[x]
        if v < 0:
            v = len(order)
            lab[x] = v
            lab[x ^ 1] = v + 1
            order.append(x)
            order.append(x ^ 1)
        if tied:
            b = best[i]
            if v > b:
                return None
            if v < b:
                tied = False
        code.append(v)
    return tuple(code)


def _root_keys(s, degree):
    """A relabelling-invariant key per dart of the oriented map ``s``."""
    flen = [0] * len(s)
    for cyc in face_cycles(s):
        for d in cyc:
            flen[d] = len(cyc)
    return [(degree[d], degree[d ^ 1], flen[d], flen[d ^ 1])
            for d in range(len(s))]


def canon(s):
    """(canonical code, number of automorphisms) of the map ``s`` up to
    homeomorphism of the sphere, reflections included.

    The code is itself a map.  Only the rootings with the largest invariant
    key are tried; automorphisms preserve the key, so the rootings that
    reach the canonical code are exactly one orbit of the automorphism
    group, which acts freely on (dart, orientation) pairs.
    """
    inv = tuple(inverse(s))
    degree = [0] * len(s)
    for cyc in orbits(s):
        for d in cyc:
            degree[d] = len(cyc)
    cands = []
    for perm in (s, inv):
        for d, key in enumerate(_root_keys(perm, degree)):
            cands.append((key, perm, d))
    top = max(c[0] for c in cands)
    best, aut = None, 0
    for key, perm, d in cands:
        if key != top:
            continue
        code = _rooted_code(perm, d, best)
        if code is None:
            continue
        if code == best:
            aut += 1
        else:
            best, aut = code, 1
    return best, aut


def children(s):
    """Maps with one more edge: a new edge inside a face, or a subdivided
    edge.  Both keep a map 2-connected and loopless."""
    n = len(s)
    a, b = n, n + 1
    for face in face_cycles(s):
        corners = [d ^ 1 for d in face]   # the corner after d precedes s[d^1]
        for i, ci in enumerate(corners):
            for cj in corners[i + 1:]:
                t = list(s) + [0, 0]
                t[ci], t[a] = a, s[ci]
                t[cj], t[b] = b, s[cj]
                yield tuple(t)
    inv = inverse(s)
    for q in range(1, n, 2):
        # dart q moves to a new vertex w; the new edge runs from w (dart a)
        # to q's old tail (dart b, in q's old place in the rotation)
        t = list(s) + [0, 0]
        t[inv[q]], t[b] = b, s[q]
        t[q], t[a] = a, q
        yield tuple(t)


DIGON = (2, 3, 0, 1)


def enumerate_maps(max_edges):
    """{E: {canonical map: automorphism count}} for 2 <= E <= max_edges."""
    levels = {2: dict([canon(DIGON)])}
    for e in range(3, max_edges + 1):
        level = {}
        for m in levels[e - 1]:
            for child in children(m):
                code, aut = canon(child)
                level[code] = aut
        levels[e] = level
    return levels


def rooted_count(level):
    """Rooted maps: each class contributes (4E / automorphisms) rootings."""
    return sum(2 * len(m) // aut for m, aut in level.items())


# -- flypes --------------------------------------------------------------------


def _set_cycle(t, cyc):
    for i, d in enumerate(cyc):
        t[d] = cyc[(i + 1) % len(cyc)]


def _bridge_groups(cyc_after, bridge_of):
    """Consecutive runs of darts with the same bridge, as (bridge, darts)."""
    groups = []
    for d in cyc_after:
        bid = bridge_of(d)
        if groups and groups[-1][0] == bid:
            groups[-1][1].append(d)
        else:
            groups.append((bid, [d]))
    return groups


def flypes(s):
    """Yield (p, run length, bridges, flyped map) for every flype of ``s``.

    Edge p-q joins u and v; the 2-cut {u, v} has bridges B_1..B_{k-1}
    following the edge counterclockwise around u.  Flyping the edge across
    B_1..B_r puts it after B_r and Whitney-twists each B_i in place: the
    run keeps its order.  Run lengths go up to k - 1; the flype across all
    other bridges reflects the whole map, so it must give ``s`` back.
    """
    n = len(s)
    inv = inverse(s)
    vcyc = orbits(s)
    vert = [0] * n
    for i, cyc in enumerate(vcyc):
        for d in cyc:
            vert[d] = i
    for p in range(n):
        q = p ^ 1
        u, v = vert[p], vert[q]
        comp = {}
        for start in range(len(vcyc)):
            if start in (u, v) or start in comp:
                continue
            comp[start] = start
            stack = [start]
            while stack:
                w = stack.pop()
                for d in vcyc[w]:
                    x = vert[d ^ 1]
                    if x not in (u, v) and x not in comp:
                        comp[x] = start
                        stack.append(x)

        def bridge_of(d):
            x = vert[d ^ 1]
            return ("edge", d >> 1) if x in (u, v) else ("comp", comp[x])

        after_p, after_q = [], []
        d = s[p]
        while d != p:
            after_p.append(d)
            d = s[d]
        d = s[q]
        while d != q:
            after_q.append(d)
            d = s[d]
        ugroups = _bridge_groups(after_p, bridge_of)
        vgroups = _bridge_groups(after_q, bridge_of)
        if len(ugroups) < 2:
            continue
        if [g[0] for g in vgroups] != [g[0] for g in reversed(ugroups)]:
            raise RuntimeError("bridges around u and v are not in reverse order")
        vint = {bid: darts for bid, darts in vgroups}
        members = {}
        for x, root in comp.items():
            members.setdefault(("comp", root), []).append(x)
        k = len(ugroups) + 1
        for r in range(1, k):
            run = ugroups[:r]
            t = list(s)
            new_u = [x for bid, _ in run for x in reversed(vint[bid])] + [p]
            new_u += [x for _, darts in ugroups[r:] for x in darts]
            new_v = [x for _, darts in vgroups[:len(vgroups) - r] for x in darts]
            new_v += [q] + [x for _, darts in reversed(run) for x in reversed(darts)]
            _set_cycle(t, new_u)
            _set_cycle(t, new_v)
            for bid, _ in run:
                for w in members.get(bid, ()):
                    for x in vcyc[w]:
                        t[x] = inv[x]
            yield p, r, k, tuple(t)


# -- diagrams ------------------------------------------------------------------


def _medial_other(s):
    """Alternating projection with Tait graph ``s``: crossing e (darts
    p = 2e, q = 2e+1) has, counterclockwise, the corners after s^-1(q), p,
    s^-1(p) and q, where the corner after d is the one between d and s[d].
    Returns, for each (crossing, slot) index 4e + slot, the index of the
    other end of the same projection edge; opposite slots differ by 2."""
    inv = inverse(s)
    ends = {}
    for e in range(len(s) // 2):
        p, q = 2 * e, 2 * e + 1
        for slot, corner in enumerate((inv[q], p, inv[p], q)):
            ends.setdefault(corner, []).append(4 * e + slot)
    other = [0] * (2 * len(s))
    for i, j in ends.values():
        other[i], other[j] = j, i
    return other


def component_count(s):
    """Link components of the projection: straight-ahead walks, each
    traversed once in each direction."""
    other = _medial_other(s)
    return len(orbits([other[i] ^ 2 for i in range(len(other))])) // 2


def _traverse(other, start):
    """Crossing visits (crossing, entry slot) from exit index ``start``."""
    visits = []
    cur = start
    for _ in range(len(other) // 2):
        j = other[cur]
        visits.append((j >> 2, j & 3))
        cur = j ^ 2
    return visits


def dt_code(crossings):
    """DT code of a knot traversal given as the sequence of crossings met:
    the even visit paired with each odd visit 1, 3, 5, ..."""
    first = {}
    code = [0] * (len(crossings) // 2)
    for t, c in enumerate(crossings, start=1):
        if c not in first:
            first[c] = t
        elif t % 2 == 0:
            code[(first[c] - 1) // 2] = t
        else:
            code[(t - 1) // 2] = first[c]
    return tuple(code)


def min_dt(s):
    """(minimal DT code over every start and direction, its start)."""
    other = _medial_other(s)
    return min((dt_code([c for c, _ in _traverse(other, i)]), i)
               for i in range(len(other)))


def pd_quads(s, start):
    """PD code of the knot projection of ``s`` read from exit ``start``:
    edge t enters the t-th crossing visit, odd visits pass under, and
    each crossing is listed from its incoming under-strand, in the order
    of its odd visit."""
    other = _medial_other(s)
    visits = _traverse(other, start)
    m = len(visits)
    labels = {}
    for t, (c, slot) in enumerate(visits, start=1):
        labels[(c, slot)] = t
        labels[(c, slot ^ 2)] = t % m + 1
    return [[labels[(c, (slot + k) % 4)] for k in range(4)]
            for c, slot in visits[::2]]


def quads_text(quads):
    return " ".join("X[%d,%d,%d,%d]" % tuple(q) for q in quads)


# -- census --------------------------------------------------------------------


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(b)] = self.find(a)


class Census:
    """Maps, flype classes and the DT-ordered knot names up to a size."""

    def __init__(self, max_edges):
        self.levels = enumerate_maps(max_edges)
        self.rooted = {e: rooted_count(lv) for e, lv in self.levels.items()}
        self.flype_failures = []
        self.classes = {}      # crossings -> list of sorted member lists
        self.knots = {}        # crossings -> [(min DT, map, start)] in order
        for e in range(3, max_edges + 1):
            self._classify(e)

    def _classify(self, e):
        level = self.levels[e]
        uf = UnionFind()
        for m in sorted(level):
            uf.find(m)
            uf.union(m, self._known(canon(dual(m))[0], e))
            for p, r, k, t in flypes(m):
                code = self._known(canon(t)[0], e)
                if r == k - 1:
                    if code != m:
                        self.flype_failures.append((m, p))
                else:
                    uf.union(m, code)
        groups = {}
        for m in sorted(level):
            groups.setdefault(uf.find(m), []).append(m)
        self.classes[e] = list(groups.values())
        knots = []
        for members in self.classes[e]:
            if component_count(members[0]) != 1:
                continue
            knots.append(min(min_dt(m) + (m,) for m in members))
        knots.sort()
        self.knots[e] = [(dt, m, start) for dt, start, m in knots]

    def _known(self, code, e):
        if code not in self.levels[e]:
            raise RuntimeError("a dual or flype left the enumerated maps")
        return code

    def knot_counts(self):
        return {e: len(v) for e, v in self.knots.items()}

    def class_counts(self):
        return {e: len(v) for e, v in self.classes.items()}

    def named(self, name):
        """(min DT, map, start) for a name such as ``11a367``."""
        n, k = name.split("a")
        return self.knots[int(n)][int(k) - 1]


def census_failures(census, max_edges):
    """Gate failures of the enumeration itself, as readable lines."""
    out = []
    for e in range(2, max_edges + 1):
        if census.rooted[e] != TUTTE_ROOTED[e]:
            out.append(f"rooted maps with {e} edges: {census.rooted[e]}, "
                       f"Tutte's count is {TUTTE_ROOTED[e]}")
    for e in range(3, max_edges + 1):
        got = len(census.knots[e])
        if got != ALTERNATING_KNOTS[e]:
            out.append(f"{e}-crossing knot classes: {got}, "
                       f"expected {ALTERNATING_KNOTS[e]}")
    if max_edges >= 11 and len(census.classes[11]) != ALTERNATING_CLASSES_11:
        out.append(f"11-crossing classes: {len(census.classes[11])}, "
                   f"expected {ALTERNATING_CLASSES_11}")
    if max_edges >= 11 and census.named("11a367")[0] != TORUS_2_11:
        out.append(f"11a367 has code {census.named('11a367')[0]}, not T(2,11)")
    for m, p in census.flype_failures:
        out.append(f"flype of dart {p} across all bridges changed map {m}")
    return out


# -- rows ----------------------------------------------------------------------


def _expected_cells():
    cells = {}
    for fname in ("table1_expected.csv", "table2_expected.csv"):
        with open(os.path.join(DATA, fname), newline="") as fh:
            for row in csv.DictReader(fh):
                cells[row["name"]] = row
    return cells


def named_list():
    with open(os.path.join(DATA, "table_lists.json")) as fh:
        lists = json.load(fh)
    return lists["list1_unknown_11a"] + lists["list_unknown_12a"]


def knot_row(census, name, cells):
    """(csv row, failures) for one named knot: its DT-minimal diagram,
    mirrored so that sigma < 0."""
    _, m, start = census.named(name)
    quads = pd_quads(m, start)
    d = parse_pd(quads_text(quads))
    sigma = gl_signature(d, checkerboard_negative(d))
    if sigma > 0:
        quads = [[a, b4, c, b2] for a, b2, c, b4 in quads]
        d = parse_pd(quads_text(quads))
        sigma = gl_signature(d, checkerboard_negative(d))
    genus = (d.n - len(seifert_circles(d)) + 1) // 2
    fails = []
    want = cells[name]
    if reduce_nugatory(d).n != d.n or d.component_count != 1:
        fails.append(f"{name}: diagram is not a reduced knot diagram")
    if sigma != int(want["sigma"]):
        fails.append(f"{name}: sigma {sigma}, published {want['sigma']}")
    if str(genus) != want["genus"]:
        fails.append(f"{name}: genus {genus}, published {want['genus']}")
    return [name, quads_text(quads), want["sigma"], want["u"], want["genus"]], fails


def render(rows):
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["name", "pd", "signature", "u", "genus"])
    w.writerows(rows)
    return buf.getvalue()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="regenerate and compare with the committed CSV; "
                         "write nothing")
    args = ap.parse_args(argv)

    census = Census(MAX_EDGES)
    for e in range(2, MAX_EDGES + 1):
        line = f"{e:2d} edges: {len(census.levels[e]):6d} maps, " \
               f"{census.rooted[e]:8d} rooted"
        if e >= 3:
            line += (f", {len(census.classes[e]):5d} classes, "
                     f"{len(census.knots[e]):5d} knots")
        print(line)
    failures = census_failures(census, MAX_EDGES)
    cells = _expected_cells()
    rows = []
    for name in named_list():
        row, fails = knot_row(census, name, cells)
        rows.append(row)
        failures += fails
    text = render(rows)
    if args.check:
        try:
            with open(OUT_PATH, newline="") as fh:
                committed = fh.read()
        except FileNotFoundError:
            committed = None
        if committed != text:
            failures.append(f"{OUT_PATH} is missing or differs from the "
                            "regenerated codes")
    if failures:
        for line in failures:
            print("GATE FAILED:", line, file=sys.stderr)
        return 1
    if args.check:
        print(f"all gates hold; {OUT_PATH} is reproduced byte for byte")
        return 0
    with open(OUT_PATH, "w", newline="") as fh:
        fh.write(text)
    print(f"all gates hold; wrote {len(rows)} rows to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
