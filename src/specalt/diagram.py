"""Combinatorial planar link diagrams in PD-code form.

Conventions, fixed package-wide and calibrated against the public knot
tables (see tests/test_diagram.py for the anchor checks):

* A crossing is a quadruple of edge labels listed in the diagram's cyclic
  order starting from the incoming under-strand edge (slot 0).  Slots 0 and
  2 carry the under-strand, slots 1 and 3 the over-strand.
* ``incoming[c][s]`` is True when the edge in slot ``s`` is directed into
  the crossing.  Slot 0 is always incoming, slot 2 always outgoing.
* The sign of a crossing is +1 exactly when the over-strand enters at
  slot 1.  Under this rule the standard table code of the trefoil,
  ``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]``, is a positive diagram and the
  Seifert route gives it signature -2, matching the tables.
* The corner ``q_s`` of a crossing is the quadrant between slots ``s`` and
  ``s+1`` (mod 4).  The incidence number of a crossing is -1 exactly when
  the white regions occupy corners ``q_1`` and ``q_3``; for a positive
  diagram that coloring makes the white surface the Seifert surface.
* Faces are traced by the corner walk ``(c, s) -> other end of the edge in
  slot s+1``; a connected diagram with n crossings has n + 2 faces.
* For a directed edge, the face containing the arrival corner at its head
  lies on the LEFT of the edge.

Diagrams are immutable; every mutating operation returns a new value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

End = tuple[int, int]  # (crossing index, slot 0..3)

WHITE = "white"
BLACK = "black"


class DiagramError(ValueError):
    """Malformed or inconsistent diagram data."""


class NotAlternating(DiagramError):
    """Raised when an operation needs an alternating diagram."""


class NotSpecialAlternating(DiagramError):
    """Raised when an operation needs a special alternating diagram."""


class SplitDiagram(DiagramError):
    """Raised when an operation needs a non-split (connected) diagram."""


@dataclass(frozen=True)
class LinkDiagram:
    """An oriented link diagram as a connected-or-split 4-valent planar code.

    ``quads[c]`` lists the four edge labels around crossing ``c`` and
    ``incoming[c]`` their directions.  ``free_loops`` counts crossing-free
    circle components (the 0-crossing unknot is ``LinkDiagram((), (), 1)``).
    """

    quads: tuple[tuple[int, int, int, int], ...]
    incoming: tuple[tuple[bool, bool, bool, bool], ...]
    free_loops: int = 0

    def __post_init__(self):
        if len(self.quads) != len(self.incoming):
            raise DiagramError("quads and incoming lengths differ")
        if self.free_loops < 0:
            raise DiagramError("negative free loop count")
        counts: dict[int, int] = {}
        for quad in self.quads:
            if len(quad) != 4:
                raise DiagramError(f"crossing {quad} does not have 4 edges")
            for label in quad:
                counts[label] = counts.get(label, 0) + 1
        bad = [e for e, k in counts.items() if k != 2]
        if bad:
            raise DiagramError(f"edge labels not occurring exactly twice: {sorted(bad)}")
        for c, inc in enumerate(self.incoming):
            if not (inc[0] and not inc[2]):
                raise DiagramError(f"crossing {c}: slot 0 must be under-in, slot 2 under-out")
            if inc[1] == inc[3]:
                raise DiagramError(f"crossing {c}: over strand must pass through")
        for e, (a, b) in self.edge_ends.items():
            if self.incoming[a[0]][a[1]] == self.incoming[b[0]][b[1]]:
                raise DiagramError(f"edge {e} has inconsistent direction")
        # Planarity per connected component: faces close up with Euler count
        # n_i + 2 on the sphere.
        for comp in self._crossing_components:
            n_faces = len({self.face_index[(c, s)] for c in comp for s in range(4)})
            if n_faces != len(comp) + 2:
                raise DiagramError("face count violates Euler formula; non-planar code")

    # -- basic derived structure ------------------------------------------

    @property
    def n(self) -> int:
        return len(self.quads)

    @property
    def edge_count(self) -> int:
        return 2 * len(self.quads)

    @cached_property
    def edge_ends(self) -> dict[int, tuple[End, End]]:
        ends: dict[int, list[End]] = {}
        for c, quad in enumerate(self.quads):
            for s, label in enumerate(quad):
                ends.setdefault(label, []).append((c, s))
        return {e: (p[0], p[1]) for e, p in ends.items()}

    def mate(self, end: End) -> End:
        a, b = self.edge_ends[self.quads[end[0]][end[1]]]
        return b if a == end else a

    @cached_property
    def faces(self) -> tuple[tuple[End, ...], ...]:
        """Faces as cyclic tuples of corners; corner (c, s) is ``q_s``."""
        if not self.quads:
            return tuple(() for _ in range(self.free_loops + 1)) if self.free_loops else ()
        seen: set[End] = set()
        out: list[tuple[End, ...]] = []
        for c in range(len(self.quads)):
            for s in range(4):
                if (c, s) in seen:
                    continue
                walk: list[End] = []
                cur = (c, s)
                while cur not in seen:
                    seen.add(cur)
                    walk.append(cur)
                    cur = self.mate((cur[0], (cur[1] + 1) % 4))
                out.append(tuple(walk))
        for _ in range(self.free_loops):
            out.append(())
        return tuple(out)

    @cached_property
    def face_index(self) -> dict[End, int]:
        idx: dict[End, int] = {}
        for i, face in enumerate(self.faces):
            for corner in face:
                idx[corner] = i
        return idx

    @cached_property
    def _strands(self) -> tuple[tuple[End, ...], ...]:
        """Link components as cyclic tuples of outgoing ends, in flow order."""
        outs = [(c, s) for c in range(len(self.quads)) for s in range(4)
                if not self.incoming[c][s]]
        seen: set[End] = set()
        strands: list[tuple[End, ...]] = []
        for start in outs:
            if start in seen:
                continue
            walk: list[End] = []
            cur = start
            while cur not in seen:
                seen.add(cur)
                walk.append(cur)
                arr = self.mate(cur)
                cur = (arr[0], (arr[1] + 2) % 4)
            strands.append(tuple(walk))
        return tuple(strands)

    @property
    def component_count(self) -> int:
        return len(self._strands) + self.free_loops

    @cached_property
    def component_of_edge(self) -> dict[int, int]:
        comp = {}
        for i, strand in enumerate(self._strands):
            for c, s in strand:
                comp[self.quads[c][s]] = i
        return comp

    @cached_property
    def _crossing_components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the underlying 4-valent graph."""
        n = len(self.quads)
        seen = [False] * n
        comps = []
        for c0 in range(n):
            if seen[c0]:
                continue
            stack, comp = [c0], []
            seen[c0] = True
            while stack:
                c = stack.pop()
                comp.append(c)
                for s in range(4):
                    d = self.mate((c, s))[0]
                    if not seen[d]:
                        seen[d] = True
                        stack.append(d)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @property
    def is_connected(self) -> bool:
        if not self.quads:
            return self.free_loops <= 1
        return len(self._crossing_components) == 1 and self.free_loops == 0

    # -- elementary predicates --------------------------------------------

    @cached_property
    def signs(self) -> tuple[int, ...]:
        """Orientation sign per crossing; +1 when over enters at slot 1."""
        return tuple(1 if inc[1] else -1 for inc in self.incoming)

    @property
    def writhe(self) -> int:
        return sum(self.signs)

    @cached_property
    def is_alternating(self) -> bool:
        """Every edge joins an under end (even slot) to an over end (odd)."""
        return all((a[1] + b[1]) % 2 == 1 for a, b in self.edge_ends.values())

    def over_in_slot(self, c: int) -> int:
        return 1 if self.incoming[c][1] else 3

    # -- output -------------------------------------------------------------

    def to_pd_text(self) -> str:
        return " ".join("X[%d,%d,%d,%d]" % quad for quad in self.quads)

    def __str__(self):
        loops = f" + {self.free_loops} loop(s)" if self.free_loops else ""
        return f"<diagram {self.n} crossings, {self.component_count} component(s){loops}>"


@dataclass(frozen=True)
class Checkerboard:
    """A checkerboard face coloring with per-crossing incidence numbers."""

    diagram: LinkDiagram
    face_color: tuple[str, ...]       # indexed by face index
    incidence: tuple[int, ...]        # mu(c) per crossing

    def white_faces(self) -> list[int]:
        return [i for i, col in enumerate(self.face_color) if col == WHITE]

    def white_corner_pair(self, c: int) -> tuple[int, int]:
        """Face indices of the two white corners at crossing c (q-order)."""
        d = self.diagram
        f = [d.face_index[(c, s)] for s in range(4)]
        if self.face_color[f[0]] == WHITE:
            return f[0], f[2]
        return f[1], f[3]


def _two_coloring(d: LinkDiagram, white_first: bool) -> tuple[str, ...]:
    """2-color faces so adjacent faces differ; the face at corner q_0 of the
    first crossing of each component gets white (or black)."""
    adj: dict[int, set[int]] = {i: set() for i in range(len(d.faces))}
    for a, b in d.edge_ends.values():
        fa, fb = d.face_index[a], d.face_index[b]
        adj[fa].add(fb)
        adj[fb].add(fa)
    colors: list[str | None] = [None] * len(d.faces)
    for comp in d._crossing_components:
        root = d.face_index[(comp[0], 0)]
        if colors[root] is not None:
            continue
        colors[root] = WHITE if white_first else BLACK
        stack = [root]
        while stack:
            f = stack.pop()
            opposite = BLACK if colors[f] == WHITE else WHITE
            for g in adj[f]:
                if colors[g] is None:
                    colors[g] = opposite
                    stack.append(g)
                elif colors[g] != opposite:
                    raise DiagramError("faces are not 2-colorable; invalid planar code")
    return tuple(col if col is not None else WHITE for col in colors)


def _incidences(d: LinkDiagram, colors: tuple[str, ...]) -> tuple[int, ...]:
    """mu(c) = -1 iff the white corners at c are q_1 and q_3."""
    mus = []
    for c in range(d.n):
        if colors[d.face_index[(c, 1)]] == WHITE:
            mus.append(-1)
        else:
            mus.append(1)
    return tuple(mus)


def checkerboard(d: LinkDiagram, white_first: bool = True) -> Checkerboard:
    colors = _two_coloring(d, white_first)
    return Checkerboard(d, colors, _incidences(d, colors))


def checkerboard_negative(d: LinkDiagram) -> Checkerboard:
    """The coloring with incidence -1 at every crossing.

    Exists exactly for alternating diagrams; raises NotAlternating otherwise.
    """
    if not d.is_connected:
        raise SplitDiagram("checkerboard_negative needs a connected diagram")
    if d.n == 0:
        return Checkerboard(d, tuple(WHITE if i == 0 else BLACK for i in range(len(d.faces))), ())
    cb = checkerboard(d, white_first=True)
    if all(mu == -1 for mu in cb.incidence):
        return cb
    cb2 = checkerboard(d, white_first=False)
    if all(mu == -1 for mu in cb2.incidence):
        return cb2
    raise NotAlternating("no coloring has incidence -1 at every crossing")


def is_special_alternating(d: LinkDiagram) -> bool:
    """Alternating, connected, and all crossing signs equal."""
    if not d.is_connected:
        return False
    if d.n == 0:
        return True
    return d.is_alternating and len(set(d.signs)) == 1


def crossing_signs(d: LinkDiagram) -> tuple[int, ...]:
    return d.signs


def faces(d: LinkDiagram) -> tuple[tuple[End, ...], ...]:
    return d.faces


# -- parsing ---------------------------------------------------------------

_PD_TOKEN = re.compile(r"X\s*[\[\(]([^\]\)]*)[\]\)]")


def parse_pd(text: str, reverse_components: tuple[int, ...] = ()) -> LinkDiagram:
    """Parse a planar-diagram code in the public knot-table convention.

    Accepts ``X[a,b,c,d]`` quadruples, whitespace- or comma-separated, with
    an optional ``PD[...]`` wrapper.  Orientations are resolved from the
    under-strand rule (slot 0 in, slot 2 out) propagated along strands;
    ``reverse_components`` flips the orientation of the listed components
    (indexed in order of their smallest edge label), which is only needed
    for codes with orientation-ambiguous components.
    """
    body = text.strip()
    if body.startswith("PD"):
        body = body[2:].strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
    quads: list[tuple[int, int, int, int]] = []
    consumed = 0
    for m in _PD_TOKEN.finditer(body):
        consumed += 1
        parts = [p.strip() for p in m.group(1).split(",") if p.strip()]
        if len(parts) != 4:
            raise DiagramError(f"crossing X[{m.group(1)}] does not have 4 entries")
        try:
            quads.append(tuple(int(p) for p in parts))  # type: ignore[arg-type]
        except ValueError as exc:
            raise DiagramError(f"non-integer edge label in X[{m.group(1)}]") from exc
    if not consumed:
        stripped = re.sub(r"[\s,]", "", body)
        if stripped:
            raise DiagramError("no X[a,b,c,d] crossings found")
        return LinkDiagram((), (), 0)
    leftovers = _PD_TOKEN.sub("", body)
    if re.sub(r"[\s,]", "", leftovers):
        raise DiagramError(f"unparseable PD fragments: {leftovers.strip()!r}")
    incoming = _resolve_orientations(tuple(quads))
    d = LinkDiagram(tuple(quads), incoming, 0)
    if reverse_components:
        d = _reverse_strands(d, reverse_components)
    return d


def _reverse_strands(d: LinkDiagram, components: tuple[int, ...]) -> LinkDiagram:
    """Reverse the orientation of the given components (indices into the
    strand list); crossings whose under strand reverses rotate by two."""
    flips: set[End] = set()
    for i in components:
        for end in d._strands[i]:
            flips.add(end)
            flips.add(d.mate(end))
    new = [[d.incoming[c][s] ^ ((c, s) in flips) for s in range(4)]
           for c in range(d.n)]
    quads, incs = [], []
    for c in range(d.n):
        r = 0 if new[c][0] else 2
        quads.append(tuple(d.quads[c][(s + r) % 4] for s in range(4)))
        incs.append(tuple(new[c][(s + r) % 4] for s in range(4)))
    return LinkDiagram(tuple(quads), tuple(incs), d.free_loops)


def _resolve_orientations(
    quads: tuple[tuple[int, int, int, int], ...],
) -> tuple[tuple[bool, bool, bool, bool], ...]:
    """Propagate in/out marks: under passes go slot0 -> slot2, edges have one
    head and one tail, over passes go through."""
    ends: dict[int, list[End]] = {}
    for c, quad in enumerate(quads):
        for s, label in enumerate(quad):
            ends.setdefault(label, []).append((c, s))
    for e, ee in ends.items():
        if len(ee) != 2:
            raise DiagramError(f"edge label {e} occurs {len(ee)} times, expected 2")

    inc: dict[End, bool] = {}
    for c in range(len(quads)):
        inc[(c, 0)] = True
        inc[(c, 2)] = False

    def neighbors(end: End):
        c, s = end
        a, b = ends[quads[c][s]]
        yield (b if a == end else a)          # other end of the edge
        if s % 2 == 1:
            yield (c, (s + 2) % 4)            # over pass-through

    def propagate(frontier: list[End]):
        while frontier:
            cur = frontier.pop()
            for nb in neighbors(cur):
                want = not inc[cur]
                if nb in inc:
                    if inc[nb] != want:
                        raise DiagramError("inconsistent strand orientations in PD code")
                else:
                    inc[nb] = want
                    frontier.append(nb)

    propagate(list(inc))
    # Components never passing under are unconstrained: orient them so the
    # smallest edge label leaves its first-listed end.
    for e in sorted(ends):
        a, b = ends[e]
        if a not in inc:
            inc[a] = False
            propagate([a])

    return tuple(tuple(inc[(c, s)] for s in range(4)) for c in range(len(quads)))


# -- mutable builder for diagram surgery ------------------------------------


class _Builder:
    """Mutable mate/direction structure used by all diagram surgeries.

    Crossings are held in a dict keyed by arbitrary ids; slots keep the
    invariant (0, 2) = under strand with 0 incoming, (1, 3) = over strand.
    """

    def __init__(self):
        self.mates: dict[End, End] = {}
        self.inc: dict[End, bool] = {}
        self.cids: list[int] = []
        self.free_loops = 0
        self._next = 0

    @classmethod
    def from_diagram(cls, d: LinkDiagram) -> "_Builder":
        b = cls()
        b.free_loops = d.free_loops
        b.cids = list(range(d.n))
        b._next = d.n
        for c in range(d.n):
            for s in range(4):
                b.mates[(c, s)] = d.mate((c, s))
                b.inc[(c, s)] = d.incoming[c][s]
        return b

    def new_crossing(self) -> int:
        cid = self._next
        self._next += 1
        self.cids.append(cid)
        return cid

    def check(self):
        for end, m in self.mates.items():
            assert self.mates[m] == end, (end, m)
            assert self.inc[end] != self.inc[m], (end, m)
        for c in self.cids:
            assert self.inc[(c, 0)] and not self.inc[(c, 2)], c
            assert self.inc[(c, 1)] != self.inc[(c, 3)], c

    def splice(self, a: End, b: End):
        self.mates[a] = b
        self.mates[b] = a

    def delete_with_wiring(self, removed: set[int], wires: dict[End, End],
                           cuts: set[End]) -> dict[End, End | None]:
        """Remove crossings, reconnecting strands along ``wires``.

        ``wires`` is a symmetric pairing of removed slots the strand runs
        through; ``cuts`` are removed slots where the strand is severed.
        Returns a map from each cut slot to the surviving end its strand
        comes from (None when the cut strand is internal to the removal).
        Pure wire cycles become free loops.
        """
        removed_slots = {(c, s) for c in removed for s in range(4)}
        assert set(wires) | cuts == removed_slots
        assert all(wires[wires[x]] == x for x in wires)

        def chase(start_mate: End):
            cur = start_mate
            while True:
                if cur[0] not in removed:
                    return ("end", cur)
                if cur in cuts:
                    return ("cut", cur)
                cur = self.mates[wires[cur]]

        surviving = [e for e in self.mates
                     if e[0] not in removed and self.mates[e][0] in removed]
        cut_sources: dict[End, End | None] = {c: None for c in cuts}
        done: set[End] = set()
        for x in surviving:
            if x in done:
                continue
            kind, tgt = chase(self.mates[x])
            if kind == "end":
                self.splice(x, tgt)
                done.add(tgt)
            else:
                cut_sources[tgt] = x
            done.add(x)
        # pure cycles -> free loops
        visited: set[End] = set()
        for c in removed:
            for s in range(4):
                start = (c, s)
                if start in visited or start in cuts:
                    continue
                cur, cycle = start, True
                path = []
                while True:
                    if cur in visited:
                        break
                    path.append(cur)
                    visited.add(cur)
                    nxt = self.mates[wires[cur]]
                    visited.add(wires[cur])
                    path.append(wires[cur])
                    if nxt[0] not in removed or nxt in cuts:
                        cycle = False
                        break
                    cur = nxt
                if cycle and path and self.mates[path[-1]] == path[0]:
                    self.free_loops += 1
        for c in removed:
            self.cids.remove(c)
            for s in range(4):
                self.mates.pop((c, s), None)
                self.inc.pop((c, s), None)
        return cut_sources

    def passage_wires(self, c: int) -> dict[End, End]:
        return {(c, 0): (c, 2), (c, 2): (c, 0), (c, 1): (c, 3), (c, 3): (c, 1)}

    def insert_on_edge(self, target: End, in_port_incoming: bool,
                       approach_left: bool) -> tuple[int, End, End]:
        """Insert a crossing where a new OVER strand crosses the edge at
        ``target``; returns (cid, over-in slot, over-out slot).

        ``approach_left``: the new strand arrives from the left of the
        directed target edge (then over-in sits at slot 1, sign +1).
        The caller wires the returned over ports.
        """
        head = target if self.inc[target] else self.mates[target]
        tail = self.mates[head]
        x = self.new_crossing()
        self.splice((x, 0), tail)
        self.splice((x, 2), head)
        self.inc[(x, 0)] = True
        self.inc[(x, 2)] = False
        s_in = 1 if approach_left else 3
        s_out = 3 if approach_left else 1
        self.inc[(x, s_in)] = True
        self.inc[(x, s_out)] = False
        return x, (x, s_in), (x, s_out)

    def to_diagram(self) -> LinkDiagram:
        # normalize rotations so slot 0 is the incoming under end
        rot = {}
        for c in self.cids:
            rot[c] = 0 if self.inc[(c, 0)] else 2
        def renum(end: End) -> End:
            c, s = end
            return (c, (s - rot[c]) % 4)
        mates = {renum(e): renum(m) for e, m in self.mates.items()}
        inc = {renum(e): v for e, v in self.inc.items()}
        # deterministic edge labeling along strands
        order = sorted(self.cids)
        labels: dict[frozenset, int] = {}
        nxt = 1
        for c in order:
            for s in (2, 1, 3):
                if not inc[(c, s)] and frozenset(((c, s), mates[(c, s)])) not in labels:
                    cur = (c, s)
                    while frozenset((cur, mates[cur])) not in labels:
                        labels[frozenset((cur, mates[cur]))] = nxt
                        nxt += 1
                        arr = mates[cur]
                        cur = (arr[0], (arr[1] + 2) % 4)
        quads = []
        incs = []
        for c in order:
            quads.append(tuple(labels[frozenset(((c, s), mates[(c, s)]))] for s in range(4)))
            incs.append(tuple(inc[(c, s)] for s in range(4)))
        return LinkDiagram(tuple(quads), tuple(incs), self.free_loops)


# -- diagram operations ------------------------------------------------------


def change_crossings(d: LinkDiagram, subset) -> LinkDiagram:
    """Swap over/under at each crossing in ``subset``; involutive."""
    chosen = set(subset)
    for c in chosen:
        if not (0 <= c < d.n):
            raise DiagramError(f"crossing index {c} out of range")
    quads, incs = [], []
    for c in range(d.n):
        if c in chosen:
            r = d.over_in_slot(c)
            quads.append(tuple(d.quads[c][(s + r) % 4] for s in range(4)))
            incs.append(tuple(d.incoming[c][(s + r) % 4] for s in range(4)))
        else:
            quads.append(d.quads[c])
            incs.append(d.incoming[c])
    return LinkDiagram(tuple(quads), tuple(incs), d.free_loops)


def mirror(d: LinkDiagram) -> LinkDiagram:
    """The mirror image; negates all crossing signs and the signature."""
    return change_crossings(d, range(d.n))


def split_components(d: LinkDiagram) -> list[LinkDiagram]:
    """Connected components of the underlying 4-valent graph, plus one
    0-crossing diagram per free loop."""
    out = []
    for comp in d._crossing_components:
        quads = tuple(d.quads[c] for c in comp)
        incs = tuple(d.incoming[c] for c in comp)
        # relabel edges locally to keep labels tidy
        labels = sorted({e for q in quads for e in q})
        relab = {e: i + 1 for i, e in enumerate(labels)}
        quads = tuple(tuple(relab[e] for e in q) for q in quads)
        out.append(LinkDiagram(quads, incs, 0))
    for _ in range(d.free_loops):
        out.append(LinkDiagram((), (), 1))
    return out


def _nugatory_pattern(d: LinkDiagram, c: int) -> int | None:
    """0 when corners q0/q2 share a face, 1 when q1/q3 do, else None."""
    f = [d.face_index[(c, s)] for s in range(4)]
    if f[0] == f[2]:
        return 0
    if f[1] == f[3]:
        return 1
    return None


def _flip_tangle(b: _Builder, crossings: set[int]):
    """Reflect a sub-tangle: reverse rotations and swap over/under.

    New slot s corresponds to old slot 3 - s; strand directions are carried.
    """
    remap = {}
    for c in crossings:
        remap.update({(c, s): (c, 3 - s) for s in range(4)})
    old_mates = dict(b.mates)
    old_inc = dict(b.inc)
    for c in crossings:
        for s in range(4):
            old = (c, 3 - s)
            m = old_mates[old]
            b.mates[(c, s)] = remap.get(m, m)
            b.inc[(c, s)] = old_inc[old]
    for end, m in list(b.mates.items()):
        if end[0] not in crossings and m in remap:
            b.mates[end] = remap[m]


def reduce_nugatory(d: LinkDiagram) -> LinkDiagram:
    """Untwist nugatory crossings until none remain; idempotent."""
    cur = d
    while True:
        site = None
        for c in range(cur.n):
            if _nugatory_pattern(cur, c) is not None:
                site = c
                break
        if site is None:
            return cur
        pat = _nugatory_pattern(cur, site)
        b = _Builder.from_diagram(cur)
        # tangle side: q1 side for pattern 0, q2 side for pattern 1
        probe = (site, 1) if pat == 0 else (site, 2)
        tangle = _reachable_without(cur, b.mates[probe][0], site)
        b.delete_with_wiring({site}, b.passage_wires(site), set())
        if tangle:
            _flip_tangle(b, tangle)
        b.check()
        cur = b.to_diagram()


def _reachable_without(d: LinkDiagram, start: int, blocked: int) -> set[int]:
    if start == blocked:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        c = stack.pop()
        for s in range(4):
            nb = d.mate((c, s))[0]
            if nb != blocked and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


# -- twist regions -----------------------------------------------------------


@dataclass(frozen=True)
class TwistDecomposition:
    """Partition of crossings into maximal bigon-connected chains."""

    diagram: LinkDiagram
    regions: tuple[tuple[int, ...], ...]   # each region: crossings in chain order
    is_cycle: tuple[bool, ...]             # region closes up into a cycle

    def region_of(self, c: int) -> int:
        for i, reg in enumerate(self.regions):
            if c in reg:
                return i
        raise KeyError(c)


def _bigon_pairs(d: LinkDiagram) -> list[tuple[int, int]]:
    pairs = []
    for face in d.faces:
        if len(face) == 2:
            a, b = face[0][0], face[1][0]
            if a != b:
                pairs.append((a, b))
    return pairs


def twist_regions(d: LinkDiagram) -> TwistDecomposition:
    adj: dict[int, list[int]] = {c: [] for c in range(d.n)}
    for a, b in _bigon_pairs(d):
        adj[a].append(b)
        adj[b].append(a)
    seen: set[int] = set()
    regions, cycles = [], []
    for c0 in range(d.n):
        if c0 in seen:
            continue
        comp = {c0}
        stack = [c0]
        while stack:
            c = stack.pop()
            for nb in adj[c]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        endpoints = [c for c in comp if len(set(adj[c]) & comp) <= 1]
        cycle = not endpoints and len(comp) > 1
        start = min(endpoints) if endpoints else min(comp)
        chain = [start]
        prev = None
        while True:
            nxts = [x for x in adj[chain[-1]] if x != prev and x not in chain]
            if not nxts:
                break
            prev = chain[-1]
            chain.append(min(nxts))
        regions.append(tuple(chain))
        cycles.append(cycle)
    return TwistDecomposition(d, tuple(regions), tuple(cycles))


def is_twist_reduced(d: LinkDiagram) -> bool:
    """True iff for every pair of same-colored regions, all crossings
    between them lie in a single twist region."""
    tw = twist_regions(d)
    by_pair: dict[tuple[int, int], set[int]] = {}
    for c in range(d.n):
        f = [d.face_index[(c, s)] for s in range(4)]
        for pair in ((f[0], f[2]), (f[1], f[3])):
            key = tuple(sorted(pair))
            by_pair.setdefault(key, set()).add(c)
    for crossings in by_pair.values():
        if len({tw.region_of(c) for c in crossings}) > 1:
            return False
    return True


# -- planar isomorphism ------------------------------------------------------


def _canonical_code(d: LinkDiagram, reflect: bool) -> tuple:
    """Canonical encoding up to rotation-preserving relabeling (and optional
    reflection), used for isomorphism tests and search dedup."""
    n = d.n
    if n == 0:
        return ("loops", d.free_loops)
    if not d.is_connected:
        parts = sorted(_canonical_code(p, reflect) for p in split_components(d))
        return ("split", tuple(parts))
    step = -1 if reflect else 1
    best = None
    for c0 in range(n):
        for s0 in range(4):
            # BFS assigning canonical ids in traversal order
            ids = {c0: 0}
            slot0 = {c0: s0}
            queue = [c0]
            code: list[tuple] = []
            qi = 0
            while qi < len(queue):
                c = queue[qi]
                qi += 1
                row = []
                base = slot0[c]
                for k in range(4):
                    s = (base + step * k) % 4
                    mc, ms = d.mate((c, s))
                    if mc not in ids:
                        ids[mc] = len(ids)
                        slot0[mc] = ms
                        queue.append(mc)
                    rel = ((ms - slot0[mc]) * step) % 4
                    under = 1 if s % 2 == 0 else 0
                    inc = d.incoming[c][s]
                    row.append((ids[mc], rel, under, inc))
                code.append(tuple(row))
            if len(ids) == n:
                t = tuple(code)
                if best is None or t < best:
                    best = t
    return ("diag", d.free_loops, best)


def canonical_key(d: LinkDiagram) -> tuple:
    """Key equal for orientation-preservingly isomorphic diagrams."""
    return _canonical_code(d, reflect=False)


def planar_isomorphic(d1: LinkDiagram, d2: LinkDiagram,
                      allow_reflection: bool = False) -> bool:
    if _canonical_code(d1, False) == _canonical_code(d2, False):
        return True
    if allow_reflection:
        return _canonical_code(d1, True) == _canonical_code(d2, False)
    return False


# -- DT codes ----------------------------------------------------------------


def parse_dt(text: str) -> LinkDiagram:
    """Parse an (unsigned, alternating) knot DT code such as ``4 6 2``.

    The planar embedding is reconstructed by searching crossing chirality
    assignments until the face count matches Euler's formula; the mirror
    choice is unspecified (DT codes do not carry chirality).
    """
    parts = text.replace(",", " ").split()
    if not parts:
        raise DiagramError("empty DT code")
    try:
        seq = [int(p) for p in parts]
    except ValueError as exc:
        raise DiagramError("DT code entries must be integers") from exc
    n = len(seq)
    if any(a % 2 for a in seq):
        raise DiagramError("DT code entries must be even")
    if sorted(abs(a) for a in seq) != list(range(2, 2 * n + 1, 2)):
        raise DiagramError("DT code must pair odd numbers with 2..2n evenly")

    # crossing i pairs odd label 2i+1 with |seq[i]|; negative entry means the
    # even strand passes under.
    partner = {}
    under_first = {}
    for i, a in enumerate(seq):
        odd = 2 * i + 1
        partner[odd] = abs(a)
        partner[abs(a)] = odd
        # unsigned (alternating) convention: odd positions under
        under_first[i] = a > 0
    pos_of = {}
    for i in range(n):
        pos_of[2 * i + 1] = i
        pos_of[partner[2 * i + 1]] = i

    # Gauss sequence of (crossing, is_under) along labels 1..2n
    gauss = []
    for lab in range(1, 2 * n + 1):
        i = pos_of[lab]
        under = (lab % 2 == 1) == under_first[i]
        gauss.append((i, under))

    # search one chirality bit per crossing; bit=0 -> second visit exits
    # "left", realized as two candidate quad wirings per crossing.
    visits: dict[int, list[int]] = {}
    for t, (i, _) in enumerate(gauss):
        visits.setdefault(i, []).append(t)

    def build(bits) -> LinkDiagram | None:
        # strand ends: entering crossing at visit t uses edge t (from label t
        # to t+1, cyclically); each crossing: first visit along one strand
        # axis, second along the other; bit chooses relative rotation.
        quads = [[0, 0, 0, 0] for _ in range(n)]
        incs = [[False] * 4 for _ in range(n)]
        for i in range(n):
            t1, t2 = visits[i]
            e_in1, e_out1 = t1, (t1 + 1) % (2 * n)
            e_in2, e_out2 = t2, (t2 + 1) % (2 * n)
            under1 = gauss[t1][1]
            if under1:
                uin, uout, oin, oout = e_in1, e_out1, e_in2, e_out2
            else:
                uin, uout, oin, oout = e_in2, e_out2, e_in1, e_out1
            if bits[i]:
                quads[i] = [uin + 1, oin + 1, uout + 1, oout + 1]
                incs[i] = [True, True, False, False]
            else:
                quads[i] = [uin + 1, oout + 1, uout + 1, oin + 1]
                incs[i] = [True, False, False, True]
        try:
            return LinkDiagram(tuple(tuple(q) for q in quads),
                               tuple(tuple(x) for x in incs), 0)
        except DiagramError:
            return None

    from itertools import product
    for bits in product((0, 1), repeat=n):
        d = build(bits)
        if d is not None and d.component_count == 1:
            return d
    raise DiagramError("DT code is not realizable as a planar knot diagram")
