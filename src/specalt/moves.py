"""Reidemeister moves as diagram surgeries.

Move sites are referenced by indices into the current diagram, so a logged
move sequence replays deterministically.  All moves preserve the link type;
the tests check determinant/bracket invariance along move logs.  R1 and R2
edit the parent's quads through ``diagram.delete_crossings`` and R3 relabels
its triangle's three crossings; only R2+, which inserts two crossings, goes
through ``_Builder``.  The simplifier tries no R2+: the greedy R1/R2 pass
takes each one back to the diagram it was pushed from.  The Seifert
oracle's Vogel moves are R2+ moves at sites of ``r2plus_sites``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import LinkDiagram, _Builder, DiagramError, delete_crossings, validate


@dataclass(frozen=True)
class Move:
    kind: str            # "r1", "r2", "r3", "r2plus"
    site: tuple          # move-specific site data (see apply_move)

    def to_json(self):
        return {"kind": self.kind, "site": _jsonify(self.site)}


def _jsonify(x):
    if isinstance(x, tuple):
        return [_jsonify(y) for y in x]
    return x


def _tupleize(x):
    if isinstance(x, list):
        return tuple(_tupleize(y) for y in x)
    return x


def move_from_json(obj) -> Move:
    return Move(obj["kind"], _tupleize(obj["site"]))


def r1_sites(d: LinkDiagram) -> list[tuple]:
    """Crossings with a kink, in index order: those where a face is a
    monogon, its one corner (c, s) closed by the edge from slot s + 1 back
    to slot s."""
    return [(c,) for c in sorted({face[0][0] for face in d.faces if len(face) == 1})]


def _site(site, size: int, kind: str) -> tuple:
    """``site`` when it is a tuple of ``size`` entries; a logged or
    replayed move of another shape raises DiagramError."""
    if not isinstance(site, tuple) or len(site) != size:
        raise DiagramError(f"{kind} site must have length {size}, got {site!r}")
    return site


def apply_r1(d: LinkDiagram, site: tuple) -> LinkDiagram:
    (c,) = _site(site, 1, "r1")
    if (c,) not in r1_sites(d):
        raise DiagramError(f"no kink at crossing {c}")
    return delete_crossings(d, {c})


def r2_sites(d: LinkDiagram) -> list[tuple]:
    out = []
    seen = set()
    for face in d.faces:
        if len(face) != 2:
            continue
        (c, s), (e, t) = face
        if c == e:
            continue
        # reducible iff one strand is over at both crossings of the bigon
        if (s + 1) % 2 == t % 2:
            key = (min(c, e), max(c, e))
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def apply_r2(d: LinkDiagram, site: tuple) -> LinkDiagram:
    c, e = _site(site, 2, "r2")
    if c == e:
        raise DiagramError("r2 needs two distinct crossings")
    if tuple(sorted((c, e))) not in r2_sites(d):
        raise DiagramError(f"crossings {c},{e} do not bound a reducible bigon")
    return delete_crossings(d, {c, e})


def r3_sites(d: LinkDiagram) -> list[tuple]:
    """Triangle faces with an over-over edge (and hence an under-under one),
    on three distinct crossings; site = the sorted corner triple."""
    out = []
    for face in d.faces:
        if len(face) != 3:
            continue
        crossings = {c for c, _ in face}
        if len(crossings) != 3:
            continue
        parities = []
        for i in range(3):
            c, s = face[i]
            e_label = d.quads[c][(s + 1) % 4]
            (ca, sa), (cb, sb) = d.edge_ends[e_label]
            parities.append((sa % 2, sb % 2))
        if any(p == (1, 1) for p in parities):
            out.append(tuple(sorted(face)))
    return out


def apply_r3(d: LinkDiagram, site: tuple) -> LinkDiagram:
    """Slide each strand of the triangle across the crossing of the other
    two: along each strand the triangle's two crossings swap order, each
    keeping its slots, their directions and ``d``'s labels.  The edge with
    ends (x, p) and (y, q) then joins (x, p + 2) to (y, q + 2), whose labels
    move in to (y, q) and (x, p); read from ``d``, an outer edge joining two
    triangle crossings moves at both ends.

    The over-over strand's two crossings go last, the one on the under-under
    edge first: the order every recorded move log assumes.  Later move
    sites index crossings, so another order would change the logs."""
    _site(site, 3, "r3")
    face = next((f for f in d.faces if len(f) == 3 and sorted(f) == sorted(site)), None)
    if face is None:
        raise DiagramError("no such triangle face")
    edges = [d.edge_ends[d.quads[c][(s + 1) % 4]] for c, s in face]
    over = [{x, y} for (x, p), (y, q) in edges if p % 2 == q % 2 == 1]
    under = [{x, y} for (x, p), (y, q) in edges if p % 2 == q % 2 == 0]
    if not over or not under or len({c for c, _ in face}) != 3:
        raise DiagramError("triangle is not an r3 site")
    quads = [list(quad) for quad in d.quads]
    for (x, p), (y, q) in edges:
        quads[y][q] = d.quads[x][(p + 2) % 4]
        quads[x][p] = d.quads[y][(q + 2) % 4]
        quads[x][(p + 2) % 4] = quads[y][(q + 2) % 4] = d.quads[x][p]
    (first,) = over[0] & under[0]
    (second,) = over[0] - under[0]
    order = [c for c in range(d.n) if c not in over[0]] + [first, second]
    return validate(LinkDiagram(tuple(tuple(quads[c]) for c in order),
                                tuple(d.incoming[c] for c in order), d.free_loops))


def r2plus_sites(d: LinkDiagram) -> list[tuple]:
    """Pairs of darts (corners) of a common face on distinct edges; pushing
    the first dart's edge over the second's."""
    out = []
    for face in d.faces:
        if len(face) < 2:
            continue
        for i in range(len(face)):
            for j in range(len(face)):
                if i == j:
                    continue
                ci, si = face[i]
                cj, sj = face[j]
                ei = d.quads[ci][(si + 1) % 4]
                ej = d.quads[cj][(sj + 1) % 4]
                if ei != ej:
                    out.append((face[i], face[j]))
    return out


def apply_r2plus(d: LinkDiagram, site: tuple) -> LinkDiagram:
    """Push the edge after dart_a over the edge after dart_b across their
    common face (reverse Reidemeister II)."""
    dart_a, dart_b = _site(site, 2, "r2plus")
    for dart in site:
        if dart not in d.face_index:
            raise DiagramError(f"dart {dart} is not a corner of the diagram")
    if d.face_index[dart_b] != d.face_index[dart_a]:
        raise DiagramError("darts are not on a common face")
    ca, sa = dart_a
    cb, sb = dart_b
    label_a = d.quads[ca][(sa + 1) % 4]
    label_b = d.quads[cb][(sb + 1) % 4]
    if label_a == label_b:
        raise DiagramError("cannot push an edge over itself")
    b = _Builder.from_diagram(d)
    enda1, enda2 = d.edge_ends[label_a]
    a_head = enda1 if d.incoming[enda1[0]][enda1[1]] else enda2
    a_tail = enda2 if a_head == enda1 else enda1
    endb1, endb2 = d.edge_ends[label_b]
    # Flow vs. face-walk directions: the face walk traverses each boundary
    # edge away from its dart's crossing, so it runs with A's flow iff A
    # leaves ca, and with B's flow iff B leaves cb.
    wa = not d.incoming[ca][(sa + 1) % 4]
    wb = not d.incoming[cb][(sb + 1) % 4]
    # The two connecting arcs live inside the face (a disk): around its
    # boundary the walk-first endpoint on A must pair with the walk-second
    # crossing point on B, else the arcs would cross.  X1 sits on B's tail
    # side, X2 on its head side.
    swap = (wa == wb)   # True: a_tail pairs with the head-side crossing
    approach_left = wb  # F is on B's left iff the walk runs with B's flow
    x1, in1, out1 = b.insert_on_edge(endb1, approach_left if not swap else not approach_left)
    x2, in2, out2 = b.insert_on_edge((x1, 2), (not approach_left) if not swap else approach_left)
    if not swap:
        b.splice(a_tail, in1)
        b.splice(out1, in2)
        b.splice(out2, a_head)
    else:
        b.splice(a_tail, in2)
        b.splice(out2, in1)
        b.splice(out1, a_head)
    return b.to_diagram()


def apply_move(d: LinkDiagram, move: Move) -> LinkDiagram:
    if move.kind == "r1":
        return apply_r1(d, move.site)
    if move.kind == "r2":
        return apply_r2(d, move.site)
    if move.kind == "r3":
        return apply_r3(d, move.site)
    if move.kind == "r2plus":
        return apply_r2plus(d, move.site)
    raise DiagramError(f"unknown move kind {move.kind}")
