"""Constructors for alternating diagram families.

The central tool is the medial construction: a connected, bridgeless,
loopless plane bipartite multigraph G determines a positive special
alternating diagram whose white regions are the vertices of G and whose
crossings are the edges of G.  The unreduced Goeritz matrix of the result
is the graph Laplacian of G, so its determinant (the link determinant)
counts spanning trees — a handy independent check.

Rational (2-bridge) diagrams are built separately by stacking twist
regions; they supply alternating but non-special fixtures.
"""

from __future__ import annotations

from .diagram import LinkDiagram, _Builder, DiagramError

Rotations = dict[object, list[object]]  # vertex -> cyclic dart list


class PlaneGraphError(ValueError):
    pass


def _edge_of_darts(rotations: Rotations) -> dict[object, tuple]:
    """Pair up darts: each dart id must appear exactly twice overall."""
    seen: dict[object, list[tuple]] = {}
    for v, darts in rotations.items():
        for pos, d in enumerate(darts):
            seen.setdefault(d, []).append((v, pos))
    for d, occ in seen.items():
        if len(occ) != 2:
            raise PlaneGraphError(f"edge id {d} occurs {len(occ)} times, expected 2")
        if occ[0][0] == occ[1][0]:
            raise PlaneGraphError(f"edge id {d} is a loop; loops give nugatory crossings")
    return {d: (occ[0], occ[1]) for d, occ in seen.items()}


def _graph_face_count(rotations: Rotations, edges) -> int:
    # faces of the rotation system: orbits of (dart-side) -> next
    sides = [(d, k) for d in edges for k in (0, 1)]
    def step(side):
        d, k = side
        v, pos = edges[d][k]
        darts = rotations[v]
        nd = darts[(pos + 1) % len(darts)]
        (va, pa), (vb, pb) = edges[nd]
        retk = 0 if (va, pa) == (v, (pos + 1) % len(darts)) else 1
        return (nd, 1 - retk)
    seen = set()
    count = 0
    for s in sides:
        if s in seen:
            continue
        count += 1
        cur = s
        while cur not in seen:
            seen.add(cur)
            cur = step(cur)
    return count


def _bipartition(rotations: Rotations, edges) -> set:
    colors: dict[object, int] = {}
    for v0 in rotations:
        if v0 in colors:
            continue
        colors[v0] = 0
        stack = [v0]
        while stack:
            v = stack.pop()
            for d in rotations[v]:
                (va, _), (vb, _) = edges[d]
                w = vb if va == v else va
                if w not in colors:
                    colors[w] = 1 - colors[v]
                    stack.append(w)
                elif colors[w] == colors[v]:
                    raise PlaneGraphError("graph is not bipartite; no positive medial")
    return {v for v, c in colors.items() if c == 0}


def medial_special_alternating(rotations: Rotations) -> LinkDiagram:
    """Positive special alternating diagram of a plane bipartite multigraph.

    ``rotations`` gives the counterclockwise cyclic dart order at each
    vertex; the two occurrences of an edge id are its two darts.  White
    regions of the all-(-1) checkerboard coloring correspond to vertices.
    """
    edges = _edge_of_darts(rotations)
    if not edges:
        raise PlaneGraphError("empty graph")
    v_count = len(rotations)
    e_count = len(edges)
    f = _graph_face_count(rotations, edges)
    if v_count - e_count + f != 2:
        raise PlaneGraphError("rotation system is not planar (genus > 0)")
    west = _bipartition(rotations, edges)

    # one crossing per edge; slots: 0 = east-out, 1 = west-in, 2 = west-out,
    # 3 = east-in (under strand on 0-2, over on 1-3, all crossings positive)
    index = {d: i for i, d in enumerate(sorted(edges, key=repr))}
    b = _Builder()
    for d in index:
        c = b.new_crossing()
        assert c == index[d]
        b.inc[(c, 0)] = True
        b.inc[(c, 1)] = True
        b.inc[(c, 2)] = False
        b.inc[(c, 3)] = False

    def out_slot(dart, vert):
        return 2 if vert in west else 0

    def in_slot(dart, vert):
        return 1 if vert in west else 3

    for v, darts in rotations.items():
        k = len(darts)
        for pos, d in enumerate(darts):
            nd = darts[(pos + 1) % k]
            b.splice((index[d], out_slot(d, v)), (index[nd], in_slot(nd, v)))
    b.check()
    d = b.to_diagram()
    if not d.is_connected:
        raise PlaneGraphError("graph is not connected")
    assert all(s == 1 for s in d.signs)
    return d


# -- stock families ----------------------------------------------------------


def torus_2q(q: int) -> LinkDiagram:
    """The positive (2, q) torus link diagram, q >= 2."""
    if q < 2:
        raise ValueError("need q >= 2")
    return medial_special_alternating({
        "u": [("e", i) for i in range(q)],
        "v": [("e", i) for i in reversed(range(q))],
    })


def generalized_pretzel(*path_lengths: int) -> LinkDiagram:
    """Medial of two vertices joined by disjoint paths (all lengths odd and
    positive, at least two paths).  ``generalized_pretzel(p, q, r)`` is the
    positive pretzel link P(p, q, r); (1,1,1) is the trefoil, (3,3,3) the
    knot 9_35's diagram.
    """
    if len(path_lengths) < 2 or any(l < 1 for l in path_lengths):
        raise ValueError("need >= 2 paths of positive length")
    if len({l % 2 for l in path_lengths}) != 1 or path_lengths[0] % 2 == 0:
        raise ValueError("all path lengths must be odd (bipartite constraint)")
    rot: Rotations = {}
    for pi, length in enumerate(path_lengths):
        for k in range(length - 1):
            rot[("p", pi, k)] = [("e", pi, k), ("e", pi, k + 1)]
    rot["u"] = [("e", pi, 0) for pi in range(len(path_lengths))]
    rot["v"] = [("e", pi, path_lengths[pi] - 1)
                for pi in reversed(range(len(path_lengths)))]
    return medial_special_alternating(rot)


def complete_bipartite_k2n(n: int) -> LinkDiagram:
    """Medial of the book-embedded K_{2,n}."""
    if n < 2:
        raise ValueError("need n >= 2 for a bridgeless graph")
    rot: Rotations = {"x": [("e", i) for i in range(n)],
                      "y": [("f", i) for i in reversed(range(n))]}
    for i in range(n):
        rot[("z", i)] = [("f", i), ("e", i)]
    return medial_special_alternating(rot)


def ladder(n: int) -> LinkDiagram:
    """Medial of the 2 x n grid (circular ladder without the wrap)."""
    if n < 2:
        raise ValueError("need n >= 2")
    rot: Rotations = {}
    for i in range(n):
        top = [("r", i)]
        bot = [("r", i)]
        if i > 0:
            top = [("t", i - 1)] + top
            bot = bot + [("b", i - 1)]
        if i < n - 1:
            top = top + [("t", i)]
            bot = [("b", i)] + bot
        rot[("T", i)] = top
        rot[("B", i)] = bot
    return medial_special_alternating(rot)


def figure2_graph() -> Rotations:
    """The white-region multigraph of the 8_15 diagram, read off the region
    vectors of the standard embedding into Z^8 (two clasps a-d and b-d, and
    single crossings a-e, b-e, c-d, c-e)."""
    return {
        "d": ["e1", "e3", "e8", "e4", "e2"],
        "a": ["e5", "e3", "e1"],
        "b": ["e2", "e4", "e6"],
        "c": ["e8", "e7"],
        "e": ["e6", "e7", "e5"],
    }


def knot_8_15() -> LinkDiagram:
    return medial_special_alternating(figure2_graph())


def knot_9_35() -> LinkDiagram:
    return generalized_pretzel(3, 3, 3)


def trefoil() -> LinkDiagram:
    return generalized_pretzel(1, 1, 1)


# -- rational (2-bridge) diagrams -------------------------------------------


def _diagram_from_unoriented(mates: dict, n_crossings: int) -> LinkDiagram:
    """Orient an unoriented wiring (under strand on slots 0/2, over on 1/3)
    by walking each strand in an arbitrary fixed direction."""
    inc: dict[tuple, bool] = {}
    for start in sorted(mates):
        if start in inc:
            continue
        cur = start
        while cur not in inc:
            inc[cur] = False
            nxt = mates[cur]
            inc[nxt] = True
            cur = (nxt[0], (nxt[1] + 2) % 4)
    # rotate so slot 0 is the incoming under end (rotation by 2 keeps the
    # under strand on the even slots)
    rot = {c: (0 if inc[(c, 0)] else 2) for c in range(n_crossings)}

    def remap(end):
        c, s = end
        return (c, (s - rot[c]) % 4)

    b = _Builder()
    b.cids = list(range(n_crossings))
    b._next = n_crossings
    b.mates = {remap(e): remap(m) for e, m in mates.items()}
    b.inc = {remap(e): v for e, v in inc.items()}
    b.check()
    return b.to_diagram()


def rational_link(coeffs: list[int]) -> LinkDiagram:
    """Alternating 2-bridge diagram for the continued fraction
    ``[a_1, ..., a_m]`` (all a_i >= 1); its determinant is the numerator of
    the continued fraction a_m + 1/(a_{m-1} + 1/(... + 1/a_1)).

    Built by alternating horizontal and vertical twist blocks on a
    2-strand tangle and taking the numerator closure.
    """
    if not coeffs or any(a < 1 for a in coeffs):
        raise ValueError("continued fraction coefficients must be >= 1")
    coeffs = list(coeffs)
    if len(coeffs) % 2 == 0:
        # normalize to odd length so the last twist block is horizontal and
        # the numerator closure applies: [a, ...] == [1, a-1, ...]
        if coeffs[0] > 1:
            coeffs = [1, coeffs[0] - 1] + coeffs[1:]
        else:
            coeffs = [coeffs[1] + 1] + coeffs[2:]
    mates: dict[tuple, tuple] = {}

    def splice(x, y):
        mates[x] = y
        mates[y] = x

    pending: list[tuple] = []
    ends = {"NW": ("port", "NW"), "NE": ("port", "NE"),
            "SW": ("port", "SW"), "SE": ("port", "SE")}
    n = 0
    horizontals = True  # a_1 twists the right-hand pair (NE, SE)
    for i, a in enumerate(coeffs):
        for _ in range(a):
            c = n
            n += 1
            if horizontals:
                # crossing appended on the right: old NE feeds the upper
                # left end, old SE the lower left; listing is ccw
                pending.append((ends["NE"], (c, 0)))
                pending.append((ends["SE"], (c, 1)))
                ends["NE"] = (c, 3)
                ends["SE"] = (c, 2)
            else:
                # crossing appended below: old SW feeds the upper left,
                # old SE the upper right
                pending.append((ends["SW"], (c, 0)))
                pending.append((ends["SE"], (c, 3)))
                ends["SW"] = (c, 1)
                ends["SE"] = (c, 2)
        horizontals = not horizontals
    pending.append((ends["NW"], ends["NE"]))
    pending.append((ends["SW"], ends["SE"]))

    port_target: dict[str, tuple] = {}
    direct: list[tuple] = []
    for x, y in pending:
        if x[0] == "port" and y[0] == "port":
            raise DiagramError("degenerate rational code")
        if x[0] == "port":
            port_target[x[1]] = y
        elif y[0] == "port":
            port_target[y[1]] = x
        else:
            direct.append((x, y))
    for x, y in direct:
        splice(x, y)
    splice(port_target["NW"], port_target["NE"])
    splice(port_target["SW"], port_target["SE"])
    d = _diagram_from_unoriented(mates, n)
    if not d.is_connected:
        raise DiagramError("rational construction produced a split diagram")
    return d
