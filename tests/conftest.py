from pathlib import Path

import pytest

from specalt.diagram import (LinkDiagram, _Builder, is_special_alternating, parse_pd,
                             reduce_nugatory)
from specalt import families

PAPER13_CSV = Path(__file__).parent.parent / "perfbench" / "data" / "paper13.csv"

TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
# Split links, each with (sigma, eta, k) = (-4, 1, 2), (-2, 1, 2), (0, 1, 2):
# two trefoils, a trefoil and a one-crossing unknot, a trefoil and its mirror.
SPLIT_TREFOILS_PD = TREFOIL_PD + " X[7,10,8,11] X[9,12,10,7] X[11,8,12,9]"
TREFOIL_KINK_PD = TREFOIL_PD + " X[7,7,8,8]"
TREFOIL_MIRROR_PD = TREFOIL_PD + " X[7,11,8,10] X[9,7,10,12] X[11,9,12,8]"


@pytest.fixture(scope="session")
def trefoil():
    return parse_pd(TREFOIL_PD)


@pytest.fixture(scope="session")
def figure_eight():
    return parse_pd("X[8,3,1,4] X[4,7,5,8] X[2,6,3,5] X[6,2,7,1]")


@pytest.fixture(scope="session")
def knot_8_15():
    return families.knot_8_15()


@pytest.fixture(scope="session")
def knot_9_35():
    return families.knot_9_35()


@pytest.fixture(scope="session")
def bundled():
    from specalt.tables import load_bundled_fixtures
    records, errors = load_bundled_fixtures()
    assert not errors
    return records


@pytest.fixture(scope="session")
def special_rows():
    """(name, diagram) for the 116 reduced special alternating diagrams of
    the fixtures, the named 11a/12a table and ``paper13``."""
    from specalt.tables import data_path, load_table
    rows = []
    for path in (data_path("fixtures.csv"), data_path("named_pd_codes.csv"), PAPER13_CSV):
        records, errors = load_table(path)
        assert not errors
        for rec in records:
            d = reduce_nugatory(rec.diagram)
            if d.is_connected and is_special_alternating(d):
                rows.append((rec.name, d))
    assert len(rows) == 116
    return rows


def reflect_plane(d: LinkDiagram) -> LinkDiagram:
    """The reflection that reverses the plane: each quad read as slots
    0, 3, 2, 1, so slot 0 stays the incoming under end."""
    return LinkDiagram(tuple((q[0], q[3], q[2], q[1]) for q in d.quads),
                       tuple((i[0], i[3], i[2], i[1]) for i in d.incoming), d.free_loops)


def _edge_type(d: LinkDiagram, label: int) -> tuple[int, int]:
    """The slot parities of an edge's tail and head: (1, 0) leaves an over
    pass and enters an under pass."""
    a, b = d.edge_ends[label]
    head, tail = (a, b) if d.incoming[a[0]][a[1]] else (b, a)
    return tail[1] % 2, head[1] % 2


def connected_sum(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    """``d1 # d2``, joined along two edges of the same type, so alternating
    summands give an alternating sum and special alternating summands of
    the same sign a special alternating one (checked).

    ``d2`` is cut at its highest label, and ``d1`` at its highest label
    once its labels are shifted round until that edge has the same type.
    Crossings ``0 .. d1.n - 1`` of the sum are ``d1``'s, the rest
    ``d2``'s, in order."""
    want = _edge_type(d2, max(d2.edge_ends))
    cut1 = next(label for label in sorted(d1.edge_ends, reverse=True)
                if _edge_type(d1, label) == want)
    shift = max(d1.edge_ends)
    quads2 = tuple(tuple(e + shift for e in q) for q in d2.quads)
    merged = LinkDiagram(d1.quads + quads2, d1.incoming + d2.incoming, 0)
    b = _Builder.from_diagram(merged)
    ends = []
    for label in (cut1, max(d2.edge_ends) + shift):
        x, y = merged.edge_ends[label]
        ends.append((x, y) if merged.incoming[x[0]][x[1]] else (y, x))
    (head1, tail1), (head2, tail2) = ends
    b.splice(tail1, head2)
    b.splice(tail2, head1)
    out = b.to_diagram()
    assert not (is_special_alternating(d1) and is_special_alternating(d2)) \
        or is_special_alternating(out), "the sum is not special alternating"
    return out
