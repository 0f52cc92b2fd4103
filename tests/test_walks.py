"""The orbit walks and flood fills of ``diagram.cycles`` and
``diagram.flood`` keep the start orders of the plain loops below.

Faces, strands, crossing components, Seifert circles, twist regions and
the edge labels of ``_Builder.to_diagram`` fix face indices, white orders,
embeddings, clasp hints, witnesses and move logs downstream, so each one
must come out element for element as these references read it."""

import random
from pathlib import Path

from specalt import families
from specalt.diagram import (LinkDiagram, _Builder, change_crossings, cycles,
                             flood, mirror, parse_pd, reduce_nugatory,
                             twist_regions)
from specalt.moves import apply_r2plus, r2plus_sites
from specalt.seifert import _in_ends, _smooth_out, seifert_circles
from specalt.tables import data_path, load_table

from conftest import SPLIT_TREFOILS_PD

PAPER13_CSV = Path(__file__).parent.parent / "perfbench" / "data" / "paper13.csv"


def ref_faces(d: LinkDiagram):
    if not d.quads:
        return tuple(() for _ in range(d.free_loops + 1)) if d.free_loops else ()
    seen, out = set(), []
    for c in range(d.n):
        for s in range(4):
            if (c, s) in seen:
                continue
            walk, cur = [], (c, s)
            while cur not in seen:
                seen.add(cur)
                walk.append(cur)
                cur = d.mate((cur[0], (cur[1] + 1) % 4))
            out.append(tuple(walk))
    return tuple(out) + ((),) * d.free_loops


def ref_strands(d: LinkDiagram):
    seen, out = set(), []
    for c in range(d.n):
        for s in range(4):
            if d.incoming[c][s] or (c, s) in seen:
                continue
            walk, cur = [], (c, s)
            while cur not in seen:
                seen.add(cur)
                walk.append(cur)
                arr = d.mate(cur)
                cur = (arr[0], (arr[1] + 2) % 4)
            out.append(tuple(walk))
    return tuple(out)


def ref_crossing_components(d: LinkDiagram):
    seen, out = [False] * d.n, []
    for c0 in range(d.n):
        if seen[c0]:
            continue
        stack, comp = [c0], []
        seen[c0] = True
        while stack:
            c = stack.pop()
            comp.append(c)
            for s in range(4):
                x = d.mate((c, s))[0]
                if not seen[x]:
                    seen[x] = True
                    stack.append(x)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def ref_seifert_circles(d: LinkDiagram):
    todo = {e for c in range(d.n) for e in _in_ends(d, c)}
    out = []
    while todo:
        walk, cur = [], min(todo)
        while cur in todo:
            todo.remove(cur)
            walk.append(cur)
            cur = d.mate(_smooth_out(d, cur))
        out.append(tuple(walk))
    return out


def ref_twist_regions(d: LinkDiagram):
    adj = {c: [] for c in range(d.n)}
    for face in d.faces:
        if len(face) == 2 and face[0][0] != face[1][0]:
            adj[face[0][0]].append(face[1][0])
            adj[face[1][0]].append(face[0][0])
    seen, regions = set(), []
    for c0 in range(d.n):
        if c0 in seen:
            continue
        comp, stack = {c0}, [c0]
        while stack:
            c = stack.pop()
            for x in adj[c]:
                if x not in comp:
                    comp.add(x)
                    stack.append(x)
        seen |= comp
        ends = [c for c in comp if len(set(adj[c]) & comp) <= 1]
        chain, prev = [min(ends) if ends else min(comp)], None
        while True:
            nxts = [x for x in adj[chain[-1]] if x != prev and x not in chain]
            if not nxts:
                break
            prev = chain[-1]
            chain.append(min(nxts))
        regions.append(tuple(chain))
    return tuple(regions)


def ref_builder_pd_text(b: _Builder) -> str:
    rot = {c: 0 if b.inc[(c, 0)] else 2 for c in b.cids}

    def renum(end):
        return end[0], (end[1] - rot[end[0]]) % 4
    mates = {renum(e): renum(m) for e, m in b.mates.items()}
    inc = {renum(e): v for e, v in b.inc.items()}
    order = sorted(b.cids)
    labels, nxt = {}, 1
    for c in order:
        for s in (2, 1, 3):
            if not inc[(c, s)] and frozenset(((c, s), mates[(c, s)])) not in labels:
                cur = (c, s)
                while frozenset((cur, mates[cur])) not in labels:
                    labels[frozenset((cur, mates[cur]))] = nxt
                    nxt += 1
                    arr = mates[cur]
                    cur = (arr[0], (arr[1] + 2) % 4)
    return " ".join("X[%d,%d,%d,%d]" % tuple(labels[frozenset(((c, s), mates[(c, s)]))]
                                             for s in range(4)) for c in order)


def scrambled_builder(d: LinkDiagram, rnd) -> _Builder:
    """``d`` as a builder whose crossing ids are shuffled and spread out and
    whose crossings half of the time sit rotated by two, slot 0 outgoing."""
    ids = rnd.sample(range(3 * d.n), d.n)
    turn = [rnd.choice((0, 2)) for _ in range(d.n)]

    def move(end):
        return ids[end[0]], (end[1] + turn[end[0]]) % 4
    b = _Builder()
    b.cids = list(ids)
    b.free_loops = d.free_loops
    for c in range(d.n):
        for s in range(4):
            b.mates[move((c, s))] = move(d.mate((c, s)))
            b.inc[move((c, s))] = d.incoming[c][s]
    return b


def walk_inputs():
    """Every fixture, named and paper13 diagram raw, nugatory-reduced and
    mirrored; two random crossing changes and two R2+ moves of each; the
    ``families`` constructors; and split diagrams with and without free
    loops."""
    rnd = random.Random(17)
    records = []
    for path in (data_path("fixtures.csv"), data_path("named_pd_codes.csv"), PAPER13_CSV):
        recs, errors = load_table(path)
        assert not errors
        records += recs
    assert len(records) == 133
    out = []
    for rec in records:
        raw = rec.diagram
        for d in (raw, reduce_nugatory(raw), mirror(raw)):
            out.append(d)
            out += [change_crossings(d, rnd.sample(range(d.n), rnd.randint(1, d.n)))
                    for _ in range(2)]
        moved = raw
        for _ in range(2):
            moved = apply_r2plus(moved, rnd.choice(r2plus_sites(moved)))
            out.append(moved)
    out += [families.torus_2q(q) for q in range(2, 6)]
    out += [families.generalized_pretzel(*p) for p in ((1, 1, 1), (3, 1, 5), (1, 3, 3, 1))]
    out += [families.complete_bipartite_k2n(n) for n in range(2, 5)]
    out += [families.ladder(n) for n in range(2, 5)]
    out += [families.medial_special_alternating(families.figure2_graph()),
            families.knot_8_15(), families.knot_9_35(), families.trefoil()]
    out += [families.rational_link(c) for c in ([2], [3], [2, 3], [1, 2, 1], [3, 1, 2], [2, 2, 2, 2])]
    split = parse_pd(SPLIT_TREFOILS_PD)
    out += [split, LinkDiagram(split.quads, split.incoming, 2)]
    out += [LinkDiagram((), (), k) for k in range(3)]
    return out


def test_cycles_and_flood():
    perm = [2, 0, 1, 4, 3, 5]
    assert cycles([3, 1, 0, 5], perm.__getitem__) == [(3, 4), (1, 0, 2), (5,)]
    adj = {1: [2], 2: [1, 3], 3: [2], 4: []}
    assert flood(1, adj.__getitem__) == {1, 2, 3}
    assert flood(4, adj.__getitem__) == {4}


def test_walk_orders_match_plain_loops():
    rnd = random.Random(23)
    inputs = walk_inputs()
    assert len(inputs) > 1400
    for d in inputs:
        assert d.faces == ref_faces(d), d.to_pd_text()
        assert d._strands == ref_strands(d), d.to_pd_text()
        assert d._crossing_components == ref_crossing_components(d), d.to_pd_text()
        assert seifert_circles(d) == ref_seifert_circles(d), d.to_pd_text()
        assert twist_regions(d).regions == ref_twist_regions(d), d.to_pd_text()
        b = scrambled_builder(d, rnd)
        assert b.to_diagram().to_pd_text() == ref_builder_pd_text(b), d.to_pd_text()
