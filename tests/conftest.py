import pytest

from specalt.diagram import parse_pd, LinkDiagram
from specalt import families

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


def reflect_plane(d: LinkDiagram) -> LinkDiagram:
    """The reflection that reverses the plane: each quad read as slots
    0, 3, 2, 1, so slot 0 stays the incoming under end."""
    return LinkDiagram(tuple((q[0], q[3], q[2], q[1]) for q in d.quads),
                       tuple((i[0], i[3], i[2], i[1]) for i in d.incoming), d.free_loops)


def connected_sum_pd(pd1: str, pd2: str) -> LinkDiagram:
    """Connected sum of two knot PDs along their highest-numbered edges."""
    d1 = parse_pd(pd1)
    d2 = parse_pd(pd2)
    n1 = 2 * d1.n
    # relabel d2's edges above d1's, splice edge n1 of d1 with edge n1+n2 of d2
    quads2 = tuple(tuple(e + n1 for e in q) for q in d2.quads)
    # cut edge a = n1 (ends A1, A2) and edge b = n1 + 2*d2.n (ends B1, B2),
    # rejoining A1-B2 and B1-A2 respecting orientation
    from specalt.diagram import _Builder
    merged = LinkDiagram(d1.quads + quads2, d1.incoming + d2.incoming, 0)
    b = _Builder.from_diagram(merged)
    a_ends = merged.edge_ends[n1]
    b_ends = merged.edge_ends[n1 + 2 * d2.n]
    a_head = a_ends[0] if merged.incoming[a_ends[0][0]][a_ends[0][1]] else a_ends[1]
    a_tail = a_ends[1] if a_head == a_ends[0] else a_ends[0]
    b_head = b_ends[0] if merged.incoming[b_ends[0][0]][b_ends[0][1]] else b_ends[1]
    b_tail = b_ends[1] if b_head == b_ends[0] else b_ends[0]
    b.splice(a_tail, b_head)
    b.splice(b_tail, a_head)
    return b.to_diagram()
