"""The orbit walks and flood fills of ``diagram.cycles`` and
``diagram.flood`` keep the start orders of the plain loops below.

Faces, link components, crossing components, Seifert circles, twist
regions and the edge labels of ``_Builder.to_diagram`` fix face indices,
white orders, embeddings, clasp hints, linking numbers, witnesses and move
logs downstream, so each one must come out element for element as these
references read it.  The references step with ``mate`` one end at a time;
the package builds each step map, adjacency and mate table in one loop
over ``edge_ends`` (the link components' label walk in one pass over
``incoming``) instead, so the walks, the
checkerboard, ``_Builder.from_diagram``, ``r1_sites`` and
``change_crossings`` are also checked on every diagram the
crossing-change search and the simplifier build from the small fixtures
and from ``s13_1``, and on the R2+ excursions of the states the
simplifier pops there, which it never builds."""

import csv
import heapq
import itertools
import random
import types
from pathlib import Path

import pytest

from specalt import families, unknotting
from specalt.diagram import (LinkDiagram, _Builder, canonical_key, change_crossings,
                             checkerboard, cycles, flood, mirror, parse_pd, reduce_nugatory,
                             twist_regions)
from specalt.invariants import linking_matrix
from specalt.moves import apply_r2plus, r1_sites, r2plus_sites
from specalt.seifert import _in_ends, _smooth_out, seifert_circles
from specalt.tables import data_path, load_bundled_fixtures, load_table

from conftest import (SPLIT_TREFOILS_PD, TREFOIL_KINK_PD, TREFOIL_MIRROR_PD, TREFOIL_PD,
                      reflect_plane)

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


def ref_components(d: LinkDiagram):
    """``ref_strands`` with each outgoing end read as its edge label."""
    return tuple(tuple(d.quads[c][s] for c, s in strand) for strand in ref_strands(d))


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


def ref_face_index(d: LinkDiagram):
    return {corner: i for i, face in enumerate(ref_faces(d)) for corner in face}


def ref_component_of_edge(d: LinkDiagram):
    return {d.quads[c][s]: i for i, strand in enumerate(ref_strands(d)) for c, s in strand}


def ref_edge_order(d: LinkDiagram):
    """Edge labels in the order of their first end, crossing by crossing."""
    order = []
    for quad in d.quads:
        for label in quad:
            if label not in order:
                order.append(label)
    return order


def ref_incidence(d: LinkDiagram):
    mu = [0] * d.n
    for root in range(d.n):
        if mu[root]:
            continue
        mu[root] = 1
        stack = [root]
        while stack:
            c = stack.pop()
            for s in range(4):
                c2, s2 = d.mate((c, s))
                want = mu[c] if (s + s2) % 2 else -mu[c]
                if not mu[c2]:
                    mu[c2] = want
                    stack.append(c2)
                assert mu[c2] == want
    return tuple(mu)


def ref_r1_sites(d: LinkDiagram):
    out = []
    for c in range(d.n):
        for s in range(4):
            if d.mate((c, s)) == (c, (s + 1) % 4):
                out.append((c,))
                break
    return out


def ref_change_crossings(d: LinkDiagram, subset):
    quads, incs = [], []
    for c in range(d.n):
        r = d.over_in_slot(c) if c in subset else 0
        quads.append(tuple(d.quads[c][(s + r) % 4] for s in range(4)))
        incs.append(tuple(d.incoming[c][(s + r) % 4] for s in range(4)))
    return tuple(quads), tuple(incs)


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
        assert d._components == ref_components(d), d.to_pd_text()
        assert d._crossing_components == ref_crossing_components(d), d.to_pd_text()
        assert seifert_circles(d) == ref_seifert_circles(d), d.to_pd_text()
        assert twist_regions(d).regions == ref_twist_regions(d), d.to_pd_text()
        b = scrambled_builder(d, rnd)
        assert b.to_diagram().to_pd_text() == ref_builder_pd_text(b), d.to_pd_text()


def small_fixture_changes():
    """Every change of one or two crossings of each fixture with at most 9
    crossings, then its mirror and its plane reflection."""
    records, errors = load_bundled_fixtures()
    assert not errors
    out = []
    for rec in records:
        d = rec.diagram
        if d.n <= 9:
            for m in (1, 2):
                for subset in itertools.combinations(range(d.n), m):
                    x = change_crossings(d, subset)
                    out += [x, mirror(x), reflect_plane(x)]
    return out


@pytest.fixture(scope="module")
def s13_1_scans():
    """``s13_1`` changed at its witness (0, 1, 2, 4); every diagram the
    simplifier scans for kinks while certifying it, then the R2+ excursions
    of the states it pops and moves on from, which it never builds, built
    here, and their mirrors; and the 7 diagrams it keys, then those
    excursions greedy-reduced."""
    with open(PAPER13_CSV, newline="") as fh:
        pd = next(row["pd"] for row in csv.DictReader(fh) if row["name"] == "s13_1")
    d = change_crossings(reduce_nugatory(parse_pd(pd)), (0, 1, 2, 4))
    scanned, popped, keyed = [], [], []

    def scanning(x):
        scanned.append(x)
        return r1_sites(x)

    def popping(heap):
        item = heapq.heappop(heap)
        popped.append(item[2])
        return item

    def keying(x):
        keyed.append(x)
        return canonical_key(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unknotting._moves, "r1_sites", scanning)
        mp.setattr(unknotting, "heapq", types.SimpleNamespace(
            heappush=heapq.heappush, heappop=popping))
        mp.setattr(unknotting, "canonical_key", keying)
        final, log = unknotting.reidemeister_simplify(d)
    assert final.n == 0 and len(log) == 12 and len(keyed) == 7
    # the search returns inside the last popped state's R3 candidates
    excursions = [apply_r2plus(x, site) for x in popped[:-1] for site in r2plus_sites(x)]
    reduced = [unknotting._greedy_reduce(x, []) for x in excursions]
    return d, scanned + excursions + [mirror(x) for x in excursions], keyed + reduced


def test_changed_and_simplified_walks_match_plain_loops(s13_1_scans):
    d, _, keyed = s13_1_scans
    assert len(keyed) == 267
    inputs = small_fixture_changes() + [d] + keyed
    assert len(inputs) > 4000
    for x in inputs:
        pd = x.to_pd_text()
        assert x.faces == ref_faces(x), pd
        assert x.face_index == ref_face_index(x), pd
        assert x._components == ref_components(x), pd
        assert x.component_of_edge == ref_component_of_edge(x), pd
        assert x._crossing_components == ref_crossing_components(x), pd
        assert list(x.edge_ends) == ref_edge_order(x), pd
        assert checkerboard(x).incidence == ref_incidence(x), pd


def test_builder_splices_every_mate(s13_1_scans):
    _, _, keyed = s13_1_scans
    for d in walk_inputs() + keyed:
        b = _Builder.from_diagram(d)
        ends = [(c, s) for c in range(d.n) for s in range(4)]
        assert b.mates == {end: d.mate(end) for end in ends}, d.to_pd_text()
        assert b.inc == {(c, s): d.incoming[c][s] for c, s in ends}, d.to_pd_text()


def with_kink(d: LinkDiagram, rnd) -> LinkDiagram:
    """``d`` with a kink added on a random edge, the loop after the under
    pass or before the over pass."""
    label = rnd.choice(sorted(d.edge_ends))
    a, b = d.edge_ends[label]
    head = a if d.incoming[a[0]][a[1]] else b
    new, loop = max(d.edge_ends) + 1, max(d.edge_ends) + 2
    quads = [list(q) for q in d.quads]
    quads[head[0]][head[1]] = new
    quads.append(rnd.choice(([label, loop, loop, new], [label, new, loop, loop])))
    return parse_pd(" ".join("X[%d,%d,%d,%d]" % tuple(q) for q in quads))


def test_r1_sites_match_slot_scan(s13_1_scans):
    _, scanned, _ = s13_1_scans
    assert len(scanned) > 400
    rnd = random.Random(29)
    plain = [d for d in walk_inputs() if d.n]
    kinked = [with_kink(d, rnd) for d in plain[::5]]
    kinked += [with_kink(d, rnd) for d in kinked[::3]]
    kinked += [parse_pd(pd) for pd in (TREFOIL_KINK_PD, "X[1,1,2,2]", "X[2,1,1,2]")]
    for x in scanned + plain + kinked:
        assert r1_sites(x) == ref_r1_sites(x), x.to_pd_text()
    assert all(r1_sites(x) for x in kinked)


def test_change_crossings_rotates_as_reference():
    rnd = random.Random(5)
    for d in walk_inputs()[:600:3]:
        for _ in range(3):
            subset = rnd.sample(range(d.n), rnd.randint(0, d.n))
            x = change_crossings(d, subset)
            assert (x.quads, x.incoming) == ref_change_crossings(d, set(subset)), d.to_pd_text()
            assert change_crossings(x, subset) == d, d.to_pd_text()


def ref_component_pairs(d: LinkDiagram):
    comp = ref_component_of_edge(d)
    pairs = []
    for quad in d.quads:
        a, b = comp[quad[0]], comp[quad[1]]
        pairs.append(None if a == b else tuple(sorted((a, b))))
    return tuple(pairs)


def test_changed_diagrams_keep_the_parent_components():
    """``change_crossings`` hands the child its parent's crossing
    components and component count, and a link parent's component pairs.
    They, ``is_connected``, the child's own edge-to-component map and its
    linking numbers must equal those of a fresh diagram with the child's
    code: for every fixture, named and ``paper13`` diagram, its mirror,
    seeded changes of 1 to 3 crossings of each, and the split codes, with
    and without free loops.  A link child's linking numbers walk no
    component; a knot parent's children carry no pairs."""
    rnd = random.Random(31)
    parents = []
    for path in (data_path("fixtures.csv"), data_path("named_pd_codes.csv"), PAPER13_CSV):
        recs, errors = load_table(path)
        assert not errors
        parents += [rec.diagram for rec in recs]
    split = [parse_pd(pd) for pd in (SPLIT_TREFOILS_PD, TREFOIL_KINK_PD, TREFOIL_MIRROR_PD)]
    parents += split + [LinkDiagram(d.quads, d.incoming, 2) for d in split]
    children = []
    for d in parents:
        m = mirror(d)
        children.append(m)
        children += [change_crossings(x, rnd.sample(range(x.n), rnd.randint(1, min(3, x.n))))
                     for x in (d, m) for _ in range(3)]
    assert len(children) > 900 and sum(not x.is_connected for x in children) >= 42
    links = 0
    for x in children:
        fresh = LinkDiagram(x.quads, x.incoming, x.free_loops)
        if x.component_count > 1:
            links += 1
            linking_matrix(x)
            assert "_components" not in x.__dict__, x.to_pd_text()
            assert "component_of_edge" not in x.__dict__, x.to_pd_text()
        assert x.component_pairs == fresh.component_pairs, x.to_pd_text()
        assert x.component_pairs == ref_component_pairs(x), x.to_pd_text()
        assert x._crossing_components == fresh._crossing_components, x.to_pd_text()
        assert x.is_connected == fresh.is_connected, x.to_pd_text()
        assert x.component_count == fresh.component_count, x.to_pd_text()
        edges = list(x.component_of_edge.items())
        assert edges == list(fresh.component_of_edge.items()), x.to_pd_text()
        assert edges == list(ref_component_of_edge(x).items()), x.to_pd_text()
        assert list(linking_matrix(x).items()) == list(linking_matrix(fresh).items()), \
            x.to_pd_text()
    assert links >= 240
    knot = parse_pd(TREFOIL_PD)
    for x in (mirror(knot), change_crossings(knot, (0,)), change_crossings(knot, ())):
        assert "component_pairs" not in x.__dict__, x.to_pd_text()
        assert x.component_pairs == (None,) * x.n
