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
  slot s+1``; a connected diagram with n crossings has n + 2 faces.  Link
  components are traced by the label walk ``label -> label leaving straight
  through its head (slot + 2)``.  Both are orbits read by ``cycles``, and
  every crossing set reached over edges is read by ``flood``.
  ``edge_ends`` is the one pairing of the two ends of each label (it raises
  unless each occurs twice); the face step map, the components' crossing
  adjacency, the checkerboard's mate table and the mates of ``_Builder``
  are each built in one loop over it.  The label walk maps each label
  through ``incoming``, with no pairing: search children read it first,
  and building ``edge_ends`` for that walk made it about 60% slower.
* For a directed edge, the face containing the arrival corner at its head
  lies on the LEFT of the edge.

Diagrams are immutable; every mutating operation returns a new value.
``validate`` checks a code where its incidences are new: parsing, the quad
edits of R1, R2, R3 and nugatory untwisting, and ``_Builder.to_diagram``
behind R2+ and ``families``.  Crossing changes, mirrors, component splits
and orientation reversals only rotate or select quadruples of a valid
diagram, so they build without it.  A quad edit keeps its parent's labels
(``delete_crossings`` merges each strand's labels into the smallest), so
labels need not run 1..2n: sites, faces, components and ``canonical_key``
read no label names.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

End = tuple[int, int]  # (crossing index, slot 0..3)


class DiagramError(ValueError):
    """Malformed or inconsistent diagram data."""


class NotAlternating(DiagramError):
    """Raised when an operation needs an alternating diagram."""


class NotSpecialAlternating(DiagramError):
    """Raised when an operation needs a special alternating diagram."""


class SplitDiagram(DiagramError):
    """Raised when an operation needs a non-split (connected) diagram."""


def cycles(starts, step) -> list[tuple]:
    """The cycles of the permutation ``step`` that meet ``starts``, in the
    order of ``starts``, each read from its first element there."""
    seen = set()
    out = []
    for start in starts:
        if start in seen:
            continue
        walk = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            walk.append(cur)
            cur = step(cur)
        out.append(tuple(walk))
    return out


def _label_ends(quads) -> dict[int, tuple[End, End]]:
    """The two ends of each edge label, keyed in order of first occurrence;
    raises DiagramError unless every label occurs exactly twice."""
    ends: dict[int, list[End]] = {}
    for c, quad in enumerate(quads):
        for s, label in enumerate(quad):
            ends.setdefault(label, []).append((c, s))
    bad = [e for e, p in ends.items() if len(p) != 2]
    if bad:
        raise DiagramError(f"edge labels not occurring exactly twice: {sorted(bad)}")
    return {e: (p[0], p[1]) for e, p in ends.items()}


def flood(start, neighbours) -> set:
    """The set reachable from ``start``; ``neighbours(x)`` lists the
    elements one step from ``x``."""
    seen = {start}
    stack = [start]
    while stack:
        for nb in neighbours(stack.pop()):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


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

    # -- basic derived structure ------------------------------------------

    @property
    def n(self) -> int:
        return len(self.quads)

    @cached_property
    def edge_ends(self) -> dict[int, tuple[End, End]]:
        """The diagram's one label pairing, built by ``_label_ends``."""
        return _label_ends(self.quads)

    def mate(self, end: End) -> End:
        a, b = self.edge_ends[self.quads[end[0]][end[1]]]
        return b if a == end else a

    @cached_property
    def faces(self) -> tuple[tuple[End, ...], ...]:
        """Faces as cyclic tuples of corners; corner (c, s) is ``q_s``.

        Over ``edge_ends``, the corner just before either end of a label
        steps to the other end."""
        if not self.quads:
            return ((),) * (self.free_loops + 1) if self.free_loops else ()
        step: dict[End, End] = {}
        for a, b in self.edge_ends.values():
            step[a[0], (a[1] - 1) % 4] = b
            step[b[0], (b[1] - 1) % 4] = a
        corners = [(c, s) for c in range(self.n) for s in range(4)]
        return tuple(cycles(corners, step.__getitem__)) + ((),) * self.free_loops

    @cached_property
    def face_index(self) -> dict[End, int]:
        return {corner: i for i, face in enumerate(self.faces) for corner in face}

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        """Link components as cyclic tuples of edge labels, in flow order,
        each read from its first outgoing end in (crossing, slot) order.

        One pass over ``incoming`` maps each label to the label leaving
        straight through its head (slot ``^ 2``) and lists the outgoing
        labels as the walk's starts."""
        through: dict[int, int] = {}
        starts: list[int] = []
        for quad, inc in zip(self.quads, self.incoming):
            for s in range(4):
                if inc[s]:
                    through[quad[s]] = quad[s ^ 2]
                else:
                    starts.append(quad[s])
        return tuple(cycles(starts, through.__getitem__))

    @cached_property
    def component_count(self) -> int:
        return len(self._components) + self.free_loops

    @cached_property
    def component_of_edge(self) -> dict[int, int]:
        return {label: i for i, comp in enumerate(self._components) for label in comp}

    @cached_property
    def component_pairs(self) -> tuple[tuple[int, int] | None, ...]:
        """Per crossing, the sorted link components of its under strand
        (slot 0) and over strand (slot 1), or None where a component
        crosses itself."""
        comp = self.component_of_edge
        pairs = []
        for quad in self.quads:
            a, b = comp[quad[0]], comp[quad[1]]
            pairs.append(None if a == b else (a, b) if a < b else (b, a))
        return tuple(pairs)

    @cached_property
    def _crossing_components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the underlying 4-valent graph, over the
        crossing adjacency of ``edge_ends``."""
        adj: list[list[int]] = [[] for _ in self.quads]
        for (a, _), (b, _) in self.edge_ends.values():
            adj[a].append(b)
            adj[b].append(a)
        comps, done = [], set()
        for c in range(len(adj)):
            if c not in done:
                comp = flood(c, adj.__getitem__)
                done |= comp
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


def validate(d: LinkDiagram) -> LinkDiagram:
    """Return ``d``, or raise DiagramError if its labels, directions or face
    count (Euler's formula) do not make a planar code."""
    if len(d.quads) != len(d.incoming):
        raise DiagramError("quads and incoming lengths differ")
    if d.free_loops < 0:
        raise DiagramError("negative free loop count")
    for quad in d.quads:
        if len(quad) != 4:
            raise DiagramError(f"crossing {quad} does not have 4 edges")
    ends = d.edge_ends          # raises unless each label occurs twice
    for c, inc in enumerate(d.incoming):
        if not (inc[0] and not inc[2]):
            raise DiagramError(f"crossing {c}: slot 0 must be under-in, slot 2 under-out")
        if inc[1] == inc[3]:
            raise DiagramError(f"crossing {c}: over strand must pass through")
    for e, (a, b) in ends.items():
        if d.incoming[a[0]][a[1]] == d.incoming[b[0]][b[1]]:
            raise DiagramError(f"edge {e} has inconsistent direction")
    # Planarity per connected component: its faces, each counted at the
    # component of its first corner, close up with Euler count n_i + 2.
    comps = d._crossing_components
    of = {c: i for i, comp in enumerate(comps) for c in comp}
    count = Counter(of[face[0][0]] for face in d.faces if face)
    if any(count[i] != len(comp) + 2 for i, comp in enumerate(comps)):
        raise DiagramError("face count violates Euler formula; non-planar code")
    return d


@dataclass(frozen=True)
class Checkerboard:
    """A checkerboard face coloring, stored as its incidence numbers: mu(c)
    is +1 exactly when corner q_0 of crossing c is white, and the colors of
    the corners alternate around each crossing."""

    diagram: LinkDiagram
    incidence: tuple[int, ...]        # mu(c) per crossing


def checkerboard(d: LinkDiagram) -> Checkerboard:
    """The coloring with corner q_0 of the first crossing of each component
    white.  Along an edge the corners on one side are q_{a-1} at one end
    and q_b at the other, so mu keeps its value across an edge joining an
    even slot to an odd one and flips across any other edge."""
    # the mate table of ``edge_ends``: the crossing across each edge, and
    # whether the edge joins an even slot to an odd one
    across: list[list[tuple[int, bool]]] = [[] for _ in d.quads]
    for (c, s), (c2, s2) in d.edge_ends.values():
        odd = (s + s2) % 2 == 1
        across[c].append((c2, odd))
        across[c2].append((c, odd))
    mu = [0] * d.n
    for root in range(d.n):
        if mu[root]:
            continue
        mu[root] = 1
        stack = [root]
        while stack:
            c = stack.pop()
            for c2, odd in across[c]:
                want = mu[c] if odd else -mu[c]
                if not mu[c2]:
                    mu[c2] = want
                    stack.append(c2)
                elif mu[c2] != want:
                    raise DiagramError("faces are not 2-colorable; invalid planar code")
    return Checkerboard(d, tuple(mu))


def checkerboard_negative(d: LinkDiagram) -> Checkerboard:
    """The coloring with incidence -1 at every crossing.

    Exists exactly for alternating diagrams (every edge joins an even slot
    to an odd one, so the constant -1 propagates); raises NotAlternating
    otherwise."""
    if not d.is_connected:
        raise SplitDiagram("checkerboard_negative needs a connected diagram")
    if not d.is_alternating:
        raise NotAlternating("no coloring has incidence -1 at every crossing")
    return Checkerboard(d, (-1,) * d.n)


def is_special_alternating(d: LinkDiagram) -> bool:
    """Alternating, connected, and all crossing signs equal."""
    if not d.is_connected:
        return False
    if d.n == 0:
        return True
    return d.is_alternating and len(set(d.signs)) == 1


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
    d = validate(LinkDiagram(tuple(quads), incoming, 0))
    if reverse_components:
        d = _reverse_strands(d, reverse_components)
    return d


def _reverse_strands(d: LinkDiagram, components: tuple[int, ...]) -> LinkDiagram:
    """Reverse the orientation of the given components, indexed in order of
    their smallest edge label; crossings whose under strand reverses rotate
    by two."""
    by_min = sorted(d._components, key=min)
    flips: set[End] = set()
    for i in components:
        if not (0 <= i < len(by_min)):
            raise DiagramError(f"component index {i} out of range")
        for label in by_min[i]:
            flips.update(d.edge_ends[label])
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
    ends = _label_ends(quads)
    inc = {(c, s): s == 0 for c in range(len(quads)) for s in (0, 2)}

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
    """Mutable mate/direction structure for R2+, the one surgery that adds
    crossings, and for building diagrams from scratch (``families`` and the
    tests).  Deleting crossings edits quads instead (``delete_crossings``).

    Crossings are held in a dict keyed by arbitrary ids; slots (0, 2) hold
    the under strand and (1, 3) the over strand.  ``to_diagram`` rotates
    each crossing so that slot 0 is the incoming under end.
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
        for end, other in d.edge_ends.values():
            b.splice(end, other)
        b.inc = {(c, s): v for c, inc in enumerate(d.incoming) for s, v in enumerate(inc)}
        return b

    def new_crossing(self) -> int:
        cid = self._next
        self._next += 1
        self.cids.append(cid)
        return cid

    def splice(self, a: End, b: End):
        self.mates[a] = b
        self.mates[b] = a

    def insert_on_edge(self, target: End, approach_left: bool) -> tuple[int, End, End]:
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
        # deterministic edge labeling along strands, each edge numbered
        # at its outgoing end
        order = sorted(self.cids)
        outs = [(c, s) for c in order for s in (2, 1, 3) if not inc[(c, s)]]

        def along(end: End) -> End:
            c, s = mates[end]
            return c, (s + 2) % 4
        label: dict[End, int] = {}
        for k, end in enumerate(chain.from_iterable(cycles(outs, along)), 1):
            label[end] = label[mates[end]] = k
        quads = [tuple(label[(c, s)] for s in range(4)) for c in order]
        incs = [tuple(inc[(c, s)] for s in range(4)) for c in order]
        return validate(LinkDiagram(tuple(quads), tuple(incs), self.free_loops))


# -- diagram operations ------------------------------------------------------


def _crossing_set(d: LinkDiagram, subset) -> set[int]:
    """The crossings of ``subset``, each once; DiagramError on an index
    outside 0 … n − 1, checked before any is read."""
    chosen = set(subset)
    for c in chosen:
        if not (0 <= c < d.n):
            raise DiagramError(f"crossing index {c} out of range")
    return chosen


def change_crossings(d: LinkDiagram, subset) -> LinkDiagram:
    """Swap over/under at each crossing in ``subset``; involutive.

    The change keeps the 4-valent graph, its crossing indices and every
    label on its link component, so the child takes the parent's
    ``_crossing_components`` and ``component_count`` instead of flooding
    and walking its own.  It rotates a quad by its odd over-in slot, so
    slots 0 and 1 still hold one end of each strand: a link child also
    takes the parent's ``component_pairs``.  A knot parent hands none, as
    no knot child reads them."""
    chosen = _crossing_set(d, subset)
    quads, incs = list(d.quads), list(d.incoming)
    for c in chosen:
        r = d.over_in_slot(c)
        quads[c] = quads[c][r:] + quads[c][:r]
        incs[c] = incs[c][r:] + incs[c][:r]
    child = LinkDiagram(tuple(quads), tuple(incs), d.free_loops)
    child.__dict__["_crossing_components"] = d._crossing_components
    child.__dict__["component_count"] = d.component_count
    if d.component_count > 1:
        child.__dict__["component_pairs"] = d.component_pairs
    return child


def mirror(d: LinkDiagram) -> LinkDiagram:
    """The mirror image; negates all crossing signs and the signature."""
    return change_crossings(d, range(d.n))


def split_components(d: LinkDiagram) -> list[LinkDiagram]:
    """Connected components of the underlying 4-valent graph, plus one
    0-crossing diagram per free loop; each part keeps ``d``'s labels."""
    out = []
    for comp in d._crossing_components:
        out.append(LinkDiagram(tuple(d.quads[c] for c in comp),
                               tuple(d.incoming[c] for c in comp), 0))
    for _ in range(d.free_loops):
        out.append(LinkDiagram((), (), 1))
    return out


def delete_crossings(d: LinkDiagram, removed) -> LinkDiagram:
    """Remove crossings whose strands pass straight through them.

    Each strand through a removed crossing joins the labels in its slots s
    and s + 2, and each joined class takes its smallest label, so every
    surviving end is paired with the surviving end its strand reaches.  The
    other crossings keep their order, slots and directions; a class with no
    surviving end is a strand closed up inside the removed crossings, one
    free loop."""
    gone = set(removed)
    root: dict[int, int] = {}

    def find(label: int) -> int:
        while label in root:
            label = root[label]
        return label

    for c in gone:
        quad = d.quads[c]
        for s in (0, 1):
            a, b = find(quad[s]), find(quad[s + 2])
            if a != b:
                root[max(a, b)] = min(a, b)
    kept = [c for c in range(d.n) if c not in gone]
    quads = tuple(tuple(find(label) for label in d.quads[c]) for c in kept)
    surviving = {label for quad in quads for label in quad}
    loops = len({find(label) for c in gone for label in d.quads[c]} - surviving)
    return validate(LinkDiagram(quads, tuple(d.incoming[c] for c in kept),
                                d.free_loops + loops))


def _nugatory_pattern(d: LinkDiagram, c: int) -> int | None:
    """0 when corners q0/q2 share a face, 1 when q1/q3 do, else None."""
    f = [d.face_index[(c, s)] for s in range(4)]
    if f[0] == f[2]:
        return 0
    if f[1] == f[3]:
        return 1
    return None


def reduce_nugatory(d: LinkDiagram) -> LinkDiagram:
    """Untwist nugatory crossings until none remain; idempotent.

    The tangle on one side of the first nugatory crossing is reflected in
    place: each quad and its directions are reversed, so new slot s is old
    slot 3 - s and over and under swap, then rotated by two where slot 0 is
    outgoing.  The crossing itself is then deleted."""
    cur = d
    while True:
        for site in range(cur.n):
            pat = _nugatory_pattern(cur, site)
            if pat is not None:
                break
        else:
            return cur
        # the tangle on the q1 side (pattern 0) or the q2 side (pattern 1):
        # the crossings reached from there without passing the site
        probe = (site, 1) if pat == 0 else (site, 2)
        mate = cur.mate
        tangle = flood(mate(probe)[0], lambda c: () if c == site else
                       [mate((c, s))[0] for s in range(4)]) - {site}
        quads, incs = list(cur.quads), list(cur.incoming)
        for c in tangle:
            quad, inc = cur.quads[c][::-1], cur.incoming[c][::-1]
            r = 0 if inc[0] else 2
            quads[c], incs[c] = quad[r:] + quad[:r], inc[r:] + inc[:r]
        cur = delete_crossings(LinkDiagram(tuple(quads), tuple(incs), cur.free_loops),
                               {site})


# -- twist regions -----------------------------------------------------------


@dataclass(frozen=True)
class TwistDecomposition:
    """Partition of crossings into maximal bigon-connected chains."""

    regions: tuple[tuple[int, ...], ...]   # each region: crossings in chain order

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
    regions = []
    for c0 in range(d.n):
        if c0 in seen:
            continue
        comp = flood(c0, adj.__getitem__)
        seen |= comp
        endpoints = [c for c in comp if len(set(adj[c]) & comp) <= 1]
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
    return TwistDecomposition(tuple(regions))


def is_twist_reduced(d: LinkDiagram, tw: TwistDecomposition) -> bool:
    """True iff for every pair of same-colored regions, all crossings
    between them lie in a single twist region of ``tw``, the twist
    regions of ``d``."""
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


# -- canonical keys ----------------------------------------------------------


def canonical_key(d: LinkDiagram) -> tuple:
    """Canonical encoding up to rotation-preserving relabeling: equal
    exactly for orientation-preservingly isomorphic diagrams, used for
    isomorphism tests and search dedup.  Isomorphism up to planar
    reflection compares the key of the reflected diagram.

    An isomorphism of oriented diagrams maps slot s to slot s, because slot
    0 is the one incoming under-strand and the cyclic order is kept, so one
    walk per root crossing suffices.

    Every root's code has n rows of equal length, so codes compare row by
    row; a root's walk stops at the first row above the best code's row
    in the same place, since no later row can bring it back below."""
    n = d.n
    if n == 0:
        return ("loops", d.free_loops)
    if not d.is_connected:
        parts = sorted(canonical_key(p) for p in split_components(d))
        return ("split", tuple(parts))
    mates = [[d.mate((c, s)) for s in range(4)] for c in range(n)]
    over_in = [inc[1] for inc in d.incoming]
    best: list[tuple] = []
    for c0 in range(n):
        # BFS assigning canonical ids in traversal order
        ids = {c0: 0}
        queue = [c0]
        code: list[tuple] = []
        tied = bool(best)           # equal to best's rows so far
        for c in queue:
            row: list = [over_in[c]]
            for mc, ms in mates[c]:
                if mc not in ids:
                    ids[mc] = len(ids)
                    queue.append(mc)
                row += (ids[mc], ms)
            key = tuple(row)
            if tied:
                rival = best[len(code)]
                if key > rival:
                    break
                tied = key == rival
            code.append(key)
        else:
            best = code
    return ("diag", d.free_loops, tuple(best))
