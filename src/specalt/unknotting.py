"""Unlinking certification: simplify by Reidemeister moves, refute by
invariants, search crossing-change subsets, and decide minimality.

Certification is positive-only-by-simplification: a diagram is certified
an unlink exactly when logged moves reach a crossing-free diagram; the
bracket polynomial and the other invariants are used only to refute.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .diagram import (LinkDiagram, DiagramError, NotSpecialAlternating, SplitDiagram,
                      canonical_key, change_crossings, _crossing_set,
                      _nugatory_pattern, is_special_alternating)
from . import moves as _moves
from .moves import Move
from .bracket import normalized_bracket, unlink_normalized_bracket
from .invariants import determinant, linking_matrix
from .lattice import obstruction, clasp_candidates, ObstructionVerdict

# Searches above p that look for an upper bound once p is ruled out.
EXTRA_SEARCHES = 2

# The simplifier's one budget, read at call time: at most SIMPLIFY_NODES
# explored states.  A subset it leaves undecided is reported unknown, not
# retried.
SIMPLIFY_NODES = 1_000_000


def _greedy_reduce(d: LinkDiagram, log: list[Move]) -> LinkDiagram:
    """Apply R1/R2 reductions until none remain."""
    while True:
        sites = _moves.r1_sites(d)
        if sites:
            mv = Move("r1", sites[0])
            d = _moves.apply_r1(d, mv.site)
            log.append(mv)
            continue
        sites = _moves.r2_sites(d)
        if sites:
            mv = Move("r2", sites[0])
            d = _moves.apply_r2(d, mv.site)
            log.append(mv)
            continue
        return d


def reidemeister_simplify(d: LinkDiagram) -> tuple[LinkDiagram, list[Move]]:
    """Best-first search from the greedy reduction of ``d`` over R3
    transits, each followed by the greedy R1/R2 pass, over at most
    SIMPLIFY_NODES states; returns the fewest-crossing diagram found and
    the move log reaching it.  No R2+ is tried: greedy-reduced, each
    candidate is the state it was pushed from again (README, Conventions)."""
    log0: list[Move] = []
    start = _greedy_reduce(d, log0)
    if start.n == 0:
        return start, log0
    counter = itertools.count()
    heap: list[tuple[int, int, LinkDiagram, tuple[Move, ...]]] = []
    heapq.heappush(heap, (start.n, next(counter), start, tuple(log0)))
    seen = {canonical_key(start)}
    best, best_log = start, tuple(log0)
    nodes = 0
    while heap and nodes < SIMPLIFY_NODES:
        _, _, cur, log = heapq.heappop(heap)
        nodes += 1
        for site in _moves.r3_sites(cur):
            if nodes >= SIMPLIFY_NODES:
                break
            nodes += 1
            mv = Move("r3", site)
            try:
                nxt = _moves.apply_move(cur, mv)
            except DiagramError:
                continue
            sublog = list(log) + [mv]
            nxt = _greedy_reduce(nxt, sublog)
            key = canonical_key(nxt)
            if key in seen:
                continue
            seen.add(key)
            if nxt.n < best.n:
                best, best_log = nxt, tuple(sublog)
                if best.n == 0:
                    return best, list(best_log)
            heapq.heappush(heap, (nxt.n, next(counter), nxt, tuple(sublog)))
    return best, list(best_log)


@dataclass(frozen=True)
class UnlinkCertificate:
    """Certified(moves to a crossing-free diagram) | Refuted(invariant) |
    Unknown(the simplifier's fixed budget ran out)."""

    status: str                       # "certified" | "refuted" | "unknown"
    moves: tuple[Move, ...] = ()
    final_loops: int = 0
    invariant: str = ""
    value: str = ""

    def to_json(self):
        out = {"status": self.status}
        if self.status == "certified":
            out["moves"] = [m.to_json() for m in self.moves]
            out["final_loops"] = self.final_loops
        elif self.status == "refuted":
            out["invariant"] = self.invariant
            out["value"] = self.value
        return out


def certify_unlink(d: LinkDiagram) -> UnlinkCertificate:
    """Certify d as the unlink on its components, refute it, or give up."""
    k = d.component_count
    lk = linking_matrix(d) if k > 1 else {}     # a knot has no linking numbers
    for pair, val in sorted(lk.items()):
        if val != 0:
            return UnlinkCertificate("refuted", invariant="linking number",
                                     value=f"lk{pair}={val}")
    det = determinant(d)
    want_det = 1 if k == 1 else 0
    if det != want_det:
        return UnlinkCertificate("refuted", invariant="determinant", value=str(det))
    # cheap pass: greedy reductions only
    log: list[Move] = []
    final = _greedy_reduce(d, log)
    if final.n:
        if final.n <= 16:
            fb = normalized_bracket(final)
            if fb != unlink_normalized_bracket(k):
                return UnlinkCertificate("refuted", invariant="bracket",
                                         value=_poly_str(fb))
        final, more = reidemeister_simplify(final)
        log += more
        if final.n:
            return UnlinkCertificate("unknown")
    # R1, R2, R2+ and R3 keep the link type, so other than k free loops
    # means a surgery miscounted them: raise rather than refute.
    if final.free_loops != k:
        raise DiagramError(f"moves reached {final.free_loops} free loops from "
                           f"{k} components")
    return UnlinkCertificate("certified", tuple(log), k)


def _poly_str(p: dict[int, int]) -> str:
    return " ".join(f"{c}A^{e}" for e, c in sorted(p.items())) or "0"


def replay_moves(d: LinkDiagram, moves) -> LinkDiagram:
    for mv in moves:
        d = _moves.apply_move(d, mv)
    return d


@dataclass(frozen=True)
class SearchOutcome:
    """Some(witnesses) | AllRefuted | Inconclusive(unknown subsets)."""

    status: str                        # "some" | "all_refuted" | "inconclusive"
    witnesses: tuple[tuple[int, ...], ...] = ()
    certificate: UnlinkCertificate | None = None
    unknown: tuple[tuple[int, ...], ...] = ()
    subsets_tried: int = 0

    def to_json(self):
        return {"status": self.status,
                "witnesses": [list(w) for w in self.witnesses],
                "unknown": [list(u) for u in self.unknown],
                "subsets_tried": self.subsets_tried}


def _linking_refutes(d: LinkDiagram, lk: dict[tuple[int, int], int],
                     subset) -> bool:
    """True when changing the crossings of ``subset`` in the link ``d``,
    whose ``linking_matrix`` is ``lk``, leaves a non-zero linking number:
    exactly when ``certify_unlink`` would refute the changed diagram by
    one.  A change negates its crossing's sign and keeps its
    ``component_pairs`` entry, so each lk(i, j) loses the sign of every
    changed crossing between i and j.  ``subset`` is read as
    ``change_crossings`` reads it."""
    chosen = _crossing_set(d, subset)
    changed = dict(lk)
    pairs, signs = d.component_pairs, d.signs
    for c in chosen:
        if pairs[c] is not None:
            changed[pairs[c]] -= signs[c]
    return any(changed.values())


def _linking_survivors(d: LinkDiagram, lk: dict[tuple[int, int], int], m: int):
    """Yield, in lexicographic order, the m-subsets of the link ``d``'s
    crossings that ``_linking_refutes`` passes, by the walk that
    ``exhaustive_search`` describes.  The walk carries, per component pair,
    the residual r = lk − Σ sign(c) over the chosen crossings of that
    pair; a prefix survives while ``reachable`` holds."""
    n, signs = d.n, d.signs
    keys = sorted(lk)
    slot = {key: i for i, key in enumerate(keys)}
    pair_of = [None if key is None else slot[key] for key in d.component_pairs]
    residual = [lk[key] for key in keys]
    # ahead[c][2i] and ahead[c][2i + 1]: the crossings at c or later of
    # pair i with sign +1 and with sign -1.
    ahead = [[0] * (2 * len(keys))]
    for c in range(n - 1, -1, -1):
        row = list(ahead[-1])
        if pair_of[c] is not None:
            row[2 * pair_of[c] + (signs[c] < 0)] += 1
        ahead.append(row)
    ahead.reverse()

    def reachable(start: int, k: int) -> bool:
        row, need = ahead[start], 0
        for i, r in enumerate(residual):
            if r > 0 and r > row[2 * i] or r < 0 and -r > row[2 * i + 1]:
                return False
            need += abs(r)
        return need <= k

    chosen: list[int] = []

    def walk(start: int, k: int):
        if k == 0:
            yield tuple(chosen)
            return
        for c in range(start, n - k + 1):
            i = pair_of[c]
            if i is not None:
                residual[i] -= signs[c]
            if reachable(c + 1, k - 1):
                chosen.append(c)
                yield from walk(c + 1, k - 1)
                chosen.pop()
            if i is not None:
                residual[i] += signs[c]

    if reachable(0, m):
        yield from walk(0, m)


def _lex_rank(subset: tuple[int, ...], n: int) -> int:
    """The position, from 0, of the sorted ``subset`` in
    ``itertools.combinations(range(n), len(subset))``."""
    m = len(subset)
    return math.comb(n, m) - 1 - sum(math.comb(n - 1 - c, m - i)
                                     for i, c in enumerate(subset))


def exhaustive_search(d: LinkDiagram, m: int,
                      first_subsets: tuple[tuple[int, ...], ...] = ()) -> SearchOutcome:
    """Try all C(n, m) crossing-change subsets once each; Some on the first
    subset whose change certifies as an unlink, AllRefuted when every
    subset is refuted, Inconclusive otherwise, listing the subsets the
    simplifier's budget left unknown.  The subsets stream: the sorted
    hints of m distinct crossings, each once, then the other m-subsets in
    lexicographic order.  A hint of another size, or one that repeats a
    crossing, is dropped; an index out of range in a hint of length m
    raises DiagramError first.

    On a link, a subset whose change leaves a non-zero linking number is
    refuted from the parent's linking numbers and builds no diagram.  A
    hint is screened by ``_linking_refutes``.  The other subsets come from
    a depth-first walk in lexicographic order (``_linking_survivors``)
    that never visits a refuted one.  After choosing a prefix, each
    component pair (i, j) has the residual r = lk(i, j) minus the signs of
    the chosen crossings between i and j, and the walk drops the prefix
    when some |r| exceeds the later crossings between i and j with the
    sign of r, or when Σ|r| exceeds the picks left.  So a level with
    Σ|lk| > m is refuted at the root.  A knot level walks
    ``itertools.combinations``.

    ``subsets_tried`` counts every subset in stream order up to the
    witness, refuted ones too, and is computed, not counted: C(n, m)
    without a witness; at a witness, its place among the hints, or else the
    number of hints, plus its lexicographic rank, less the hints before it
    in that order, plus 1."""
    hints = list(dict.fromkeys(tuple(sorted(s)) for s in first_subsets
                               if len(s) == m and len(_crossing_set(d, s)) == m))
    skip = set(hints)
    lk = linking_matrix(d) if d.component_count > 1 else None
    if lk is None:
        screened, rest = hints, itertools.combinations(range(d.n), m)
    else:
        screened = [s for s in hints if not _linking_refutes(d, lk, s)]
        rest = _linking_survivors(d, lk, m)
    unknown: list[tuple[int, ...]] = []
    for subset in itertools.chain(screened, (s for s in rest if s not in skip)):
        cert = certify_unlink(change_crossings(d, subset))
        if cert.status == "certified":
            if subset in skip:
                tried = hints.index(subset) + 1
            else:
                tried = (len(hints) + _lex_rank(subset, d.n)
                         - sum(h < subset for h in hints) + 1)
            return SearchOutcome("some", (subset,), cert, (), tried)
        if cert.status == "unknown":
            unknown.append(subset)
    status = "inconclusive" if unknown else "all_refuted"
    return SearchOutcome(status, (), None, tuple(unknown), math.comb(d.n, m))


def bound_text(lo, hi) -> str:
    """Bounds lo..hi as ?, >=lo, a single value or a {lo;...;hi} set."""
    if lo is None:
        return "?"
    if hi is None:
        return f">={lo}"
    if lo == hi:
        return str(lo)
    return "{" + ";".join(str(x) for x in range(lo, hi + 1)) + "}"


class WitnessContradictsObstruction(DiagramError):
    """A witness at p was found although the lattice obstruction certifies
    c4 > p; one of the two certificates is wrong."""


@dataclass(frozen=True)
class UnlinkingVerdict:
    """Decision for u(L) against the classical lower bound p; ``sigma`` is
    the signature of the diagram as given.  The bounds u_lower..u_upper
    hold for c4 alike: c4 <= u gives the upper one, and the main theorem
    (c4 = p iff p changes here unlink) the lower one."""

    p: int
    sigma: int
    obstruction_verdict: ObstructionVerdict
    result: str                        # "equal" | "greater" | "inconclusive"
    witness: tuple[int, ...] | None = None
    u_lower: int | None = None
    u_upper: int | None = None
    searches: tuple[tuple[int, str], ...] = ()      # (m, outcome status)
    unknown: tuple[tuple[int, ...], ...] = ()
    certificate: UnlinkCertificate | None = None
    provenance: str = ""

    def to_json(self):
        out = {"p": str(self.p), "sigma": self.sigma, "result": self.result,
               "u_lower": self.u_lower, "u_upper": self.u_upper,
               "c4_lower": self.u_lower, "c4_upper": self.u_upper,
               "witness": list(self.witness) if self.witness is not None else None,
               "searches": [list(s) for s in self.searches],
               "unknown": [list(u) for u in self.unknown],
               "provenance": self.provenance,
               "obstruction": self.obstruction_verdict.to_json()}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def decide_minimal_unlinking(d: LinkDiagram) -> UnlinkingVerdict:
    """Theorem-driven decision: p attained exactly when p crossing changes
    in this alternating diagram unlink; AllRefuted at p certifies u >= p+1,
    and witnesses at higher m give upper bounds.

    ``d`` must be nugatory-free, as ``reduce_nugatory`` leaves it; a
    nugatory crossing raises DiagramError.  sigma, p and the side of the
    mirror come from the obstruction: the search runs on the diagram its
    lattice was read from, and sigma is negated when that is the mirror."""
    if not d.is_connected:
        raise SplitDiagram("decide needs a non-split diagram; decompose first")
    if not is_special_alternating(d):
        raise NotSpecialAlternating("decide needs a special alternating diagram")
    if any(_nugatory_pattern(d, c) is not None for c in range(d.n)):
        raise DiagramError("decide needs a nugatory-free diagram; reduce it first")
    ob = obstruction(d)
    lat = ob.lattice
    sigma = lat.sigma if lat.coloring.diagram is d else -lat.sigma
    d, p = lat.coloring.diagram, ob.p

    def verdict(result, witness, lo, hi, searches, unknown=(), cert=None, *, provenance):
        return UnlinkingVerdict(p, sigma, ob, result, witness, lo, hi,
                                tuple(searches), unknown, cert, provenance)

    if d.n == 0:
        return verdict("equal", (), 0, 0, (), provenance="crossing-free diagram")
    hints = (clasp_candidates(ob),) if ob.admissible else ()
    searches: list[tuple[int, str]] = []
    out_p = exhaustive_search(d, p, hints)
    searches.append((p, out_p.status))
    if out_p.status == "some":
        if not ob.admissible:
            raise WitnessContradictsObstruction(
                f"witness {list(out_p.witnesses[0])} at p={p} but the "
                f"lattice is obstructed ({ob.reason})")
        return verdict("equal", out_p.witnesses[0], p, p, searches, (),
                       out_p.certificate, provenance="witness at p")
    if out_p.status == "inconclusive" and ob.admissible:
        return verdict("inconclusive", None, p, None, searches, out_p.unknown,
                       provenance="unknown subsets at p")
    # The bound is certifiably not attained: either every p-subset was
    # refuted (the main theorem then rules out p in every diagram) or the
    # lattice obstruction already certifies c4 > p.  Search upward for an
    # upper bound.
    why = ("all refuted at p" if out_p.status == "all_refuted"
           else "obstructed lattice (search at p inconclusive)")
    lo = p + 1
    for m in range(p + 1, p + 1 + EXTRA_SEARCHES):
        out_m = exhaustive_search(d, m)
        searches.append((m, out_m.status))
        if out_m.status == "some":
            return verdict("greater", out_m.witnesses[0], lo, m, searches, (),
                           out_m.certificate, provenance=f"{why}; witness at {m}")
        if out_m.status == "inconclusive":
            return verdict("greater", None, lo, None, searches, out_m.unknown,
                           provenance=f"{why}; unknown at {m}")
    return verdict("greater", None, lo, None, searches,
                   provenance=f"{why}; no witness in searched range")
