"""The tallied ``bracket.kauffman_bracket`` agrees with the per-state sum it
replaced, kept below as the reference.

Both are compared on every bundled fixture (all have at most 13
crossings), on seeded random crossing changes and component reversals of
them with extra free loops, on split unions, on crossing-free diagrams and
on the ten diagrams the named 11a/12a table run hands to the bracket."""

import random

from specalt import unknotting
from specalt.bracket import (DELTA, Laurent, _poly_add, _poly_mul, _poly_pow,
                             kauffman_bracket)
from specalt.diagram import (LinkDiagram, change_crossings, mirror, parse_pd,
                             reduce_nugatory, validate)
from specalt.tables import data_path, load_table


def per_state_bracket(d: LinkDiagram) -> Laurent:
    """<D> by the full state sum; the A-smoothing joins slots (0,3) and
    (1,2) of each crossing."""
    n = d.n
    labels = sorted({e for quad in d.quads for e in quad})
    index = {e: i for i, e in enumerate(labels)}
    out: Laurent = {}
    for state in range(1 << n):
        parent = list(range(len(labels)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
                return True
            return False

        loops = len(labels)
        a_count = 0
        for c in range(n):
            if (state >> c) & 1 == 0:
                a_count += 1
                pairs = ((0, 3), (1, 2))
            else:
                pairs = ((0, 1), (2, 3))
            for x, y in pairs:
                if union(index[d.quads[c][x]], index[d.quads[c][y]]):
                    loops -= 1
        loops += d.free_loops
        term = _poly_mul({2 * a_count - n: 1}, _poly_pow(DELTA, loops - 1))
        out = _poly_add(out, term)
    if n == 0:
        out = _poly_pow(DELTA, max(d.free_loops - 1, 0)) if d.free_loops else {}
    return out


def split_union(d1, d2):
    """The split union of two diagrams, side by side in the plane."""
    shift = max(e for q in d1.quads for e in q)
    quads = tuple(tuple(e + shift for e in q) for q in d2.quads)
    return validate(LinkDiagram(d1.quads + quads, d1.incoming + d2.incoming, 0))


def with_loops(d, loops):
    return LinkDiagram(d.quads, d.incoming, d.free_loops + loops)


def test_fixtures_and_variants_match_reference(bundled):
    rng = random.Random(14)
    assert max(rec.diagram.n for rec in bundled) <= 13
    for rec in bundled:
        d = rec.diagram
        reversed_ = tuple(k for k in range(d.component_count) if rng.random() < 0.5)
        variant = change_crossings(parse_pd(rec.pd, reverse_components=reversed_),
                                   [c for c in range(d.n) if rng.random() < 0.4])
        for diagram in (d, with_loops(variant, rng.randint(0, 2))):
            assert kauffman_bracket(diagram) == per_state_bracket(diagram), \
                (rec.name, diagram.to_pd_text(), diagram.free_loops)


def test_split_unions_and_free_loops_match_reference(bundled):
    rng = random.Random(15)
    small = [rec.diagram for rec in bundled if rec.diagram.n <= 5]
    for _ in range(12):
        d1, d2 = rng.choice(small), rng.choice(small)
        d = with_loops(split_union(d1, d2), rng.randint(0, 2))
        assert kauffman_bracket(d) == per_state_bracket(d), \
            (d.to_pd_text(), d.free_loops)
    for loops in range(4):
        d = LinkDiagram((), (), loops)
        assert kauffman_bracket(d) == per_state_bracket(d), loops


# (row, crossing subset) of the named table whose changed diagram survives
# the linking and determinant screens and the greedy pass, so that
# ``certify_unlink`` hands it to the bracket
NAMED_BRACKET_SUBSETS = [
    ("12a443", (1, 4, 5)), ("12a610", (0, 1, 5)), ("12a880", (0, 3, 6)),
    ("12a973", (0, 2, 5, 6)), ("12a974", (0, 2, 5)), ("12a995", (0, 2, 5, 6)),
    ("12a996", (0, 2, 10)), ("12a1097", (0, 2, 9)), ("12a1097", (3, 6, 8)),
    ("12a1112", (0, 2, 4, 6)),
]


def test_named_bracket_subsets_match_reference(monkeypatch):
    named = {rec.name: rec for rec in load_table(data_path("named_pd_codes.csv"))[0]}
    reached = []
    monkeypatch.setattr(unknotting, "normalized_bracket",
                        lambda d: reached.append(d) or {})
    for name, subset in NAMED_BRACKET_SUBSETS:
        d = reduce_nugatory(named[name].diagram)
        if d.signs[0] == -1:   # decided as its mirror, as the search does
            d = mirror(d)
        unknotting.certify_unlink(change_crossings(d, subset))
    assert [d.n for d in reached] == [12, 12, 10, 10, 12, 10, 12, 12, 12, 10]
    for d in reached:
        assert kauffman_bracket(d) == per_state_bracket(d), d.to_pd_text()

