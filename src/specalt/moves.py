"""Reidemeister moves as diagram surgeries.

Move sites are referenced by indices into the current diagram, so a logged
move sequence replays deterministically.  All moves preserve the link type;
the tests check determinant/bracket invariance along move logs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import LinkDiagram, _Builder, DiagramError, End


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


def apply_r1(d: LinkDiagram, site: tuple) -> LinkDiagram:
    (c,) = site
    if (c,) not in r1_sites(d):
        raise DiagramError(f"no kink at crossing {c}")
    b = _Builder.from_diagram(d)
    b.delete_with_wiring({c}, b.passage_wires(c), set())
    return b.to_diagram()


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
    c, e = site
    if c == e:
        raise DiagramError("r2 needs two distinct crossings")
    if tuple(sorted((c, e))) not in r2_sites(d):
        raise DiagramError(f"crossings {c},{e} do not bound a reducible bigon")
    b = _Builder.from_diagram(d)
    wires = b.passage_wires(c) | b.passage_wires(e)
    b.delete_with_wiring({c, e}, wires, set())
    return b.to_diagram()


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
    """Slide the over-over strand of the triangle across the crossing of the
    other two strands (detour move: delete its two crossings, re-insert the
    strand over the two edges flanking the opposite corner)."""
    corners = list(site)
    face = None
    for f in d.faces:
        if len(f) == 3 and sorted(f) == sorted(corners):
            face = f
            break
    if face is None:
        raise DiagramError("no such triangle face")
    edges = [d.quads[c][(s + 1) % 4] for (c, s) in face]
    ends = {lab: d.edge_ends[lab] for lab in edges}
    parity = {lab: (ends[lab][0][1] % 2, ends[lab][1][1] % 2) for lab in edges}
    over_edges = [lab for lab in edges if parity[lab] == (1, 1)]
    under_edges = [lab for lab in edges if parity[lab] == (0, 0)]
    if not over_edges or not under_edges:
        raise DiagramError("triangle is not an r3 site")
    e_t, e_b = over_edges[0], under_edges[0]
    t_crossings = {ends[e_t][0][0], ends[e_t][1][0]}
    b_crossings = {ends[e_b][0][0], ends[e_b][1][0]}
    (q_,) = t_crossings & b_crossings
    (p_,) = t_crossings - {q_}
    (r_,) = b_crossings - {q_}
    o_p = next(s for (c, s) in ends[e_t] if c == p_)
    o_q = next(s for (c, s) in ends[e_t] if c == q_)
    s_r = next(s for (c, s) in face if c == r_)
    # flow along the sliding strand: does it run (P-external -> P -> Q)?
    up_is_p = not d.incoming[p_][o_p]

    b = _Builder.from_diagram(d)
    far1 = (r_, (s_r + 2) % 4)
    far2 = (r_, (s_r + 3) % 4)
    b_far = far1 if far1[1] % 2 == 0 else far2   # under strand of R
    m_far = far2 if b_far == far1 else far1

    # The far corner q_{s_r+2} of R is flanked by the edges at slots s_r+2
    # (its into-R dart bounds that corner: left of the flow iff incoming)
    # and s_r+3 (out-of-R dart: left of the flow iff outgoing).
    def far_is_left(slot_end: End) -> bool:
        if slot_end == far1:
            return d.incoming[r_][far1[1]]
        return not d.incoming[r_][far2[1]]

    # Over-in sides: spatially the new segment crosses B's far edge first
    # (entering the far region) then M's far edge (leaving it), seen from
    # the P-side end; the flow direction decides the arrival sides.
    ins_b_left = not far_is_left(b_far)
    ins_m_left = far_is_left(m_far)
    if not up_is_p:
        ins_b_left = not ins_b_left
        ins_m_left = not ins_m_left
    # Insert the new crossings while every edge is still intact, then splice
    # the middle segment of the detour (inside the far corner's region).
    xb, in_b, out_b = b.insert_on_edge(b_far, ins_b_left)
    xm, in_m, out_m = b.insert_on_edge(m_far, ins_m_left)
    if up_is_p:
        b.splice(out_b, in_m)
        open_in, open_out = in_b, out_m
    else:
        b.splice(out_m, in_b)
        open_in, open_out = in_m, out_b

    wires: dict[End, End] = {}
    cuts: set[End] = set()
    for cc, oo in ((p_, o_p), (q_, o_q)):
        wires[(cc, 0)] = (cc, 2)
        wires[(cc, 2)] = (cc, 0)
        cuts.add((cc, oo))
        cuts.add((cc, (oo + 2) % 4))
    cut_src = b.delete_with_wiring({p_, q_}, wires, cuts)
    t_p = cut_src[(p_, (o_p + 2) % 4)]
    t_q = cut_src[(q_, (o_q + 2) % 4)]
    if (t_p is None) != (t_q is None):
        raise DiagramError("inconsistent r3 cut structure")

    if t_p is None:
        b.splice(open_out, open_in)
    elif up_is_p:
        b.splice(t_p, open_in)
        b.splice(open_out, t_q)
    else:
        b.splice(t_q, open_in)
        b.splice(open_out, t_p)
    return b.to_diagram()


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
    dart_a, dart_b = site
    fa = d.face_index[dart_a]
    if d.face_index[dart_b] != fa:
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
