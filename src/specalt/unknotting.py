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
from fractions import Fraction

from .diagram import (LinkDiagram, DiagramError, NotSpecialAlternating, SplitDiagram,
                      canonical_key, change_crossings, mirror, reduce_nugatory,
                      is_special_alternating, is_twist_reduced, checkerboard_negative)
from . import moves as _moves
from .moves import Move
from .bracket import normalized_bracket, unlink_normalized_bracket
from .invariants import determinant, linking_matrix, signature_nullity, goeritz
from .lattice import obstruction, clasp_candidates, ObstructionVerdict

# Searches above p that look for an upper bound once p is ruled out.
EXTRA_SEARCHES = 2


@dataclass(frozen=True)
class SimplifyBudget:
    """Caps for the move search: ``extra`` crossings above the input
    diagram and ``nodes`` explored diagram states."""

    extra: int = 2
    nodes: int = 1_000_000

    def escalated(self) -> "SimplifyBudget":
        return SimplifyBudget(self.extra + 4, max(self.nodes, 10_000_000))


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


def reidemeister_simplify(d: LinkDiagram,
                          budget: SimplifyBudget = SimplifyBudget()
                          ) -> tuple[LinkDiagram, list[Move]]:
    """Best-first search over R1/R2 reductions, R3 transits and bounded
    reverse-R2 excursions; returns the fewest-crossing diagram found and
    the move log reaching it."""
    log0: list[Move] = []
    start = _greedy_reduce(d, log0)
    if start.n == 0:
        return start, log0
    cap = d.n + budget.extra
    counter = itertools.count()
    heap: list[tuple[int, int, LinkDiagram, tuple[Move, ...]]] = []
    heapq.heappush(heap, (start.n, next(counter), start, tuple(log0)))
    seen = {canonical_key(start)}
    best, best_log = start, tuple(log0)
    nodes = 0
    while heap and nodes < budget.nodes:
        n_cur, _, cur, log = heapq.heappop(heap)
        nodes += 1
        candidates: list[Move] = []
        candidates += [Move("r3", s) for s in _moves.r3_sites(cur)]
        if cur.n + 2 <= cap:
            candidates += [Move("r2plus", s) for s in _moves.r2plus_sites(cur)]
        for mv in candidates:
            if nodes >= budget.nodes:
                break
            nodes += 1
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
            if nxt.n + 2 <= cap or _moves.r3_sites(nxt):
                heapq.heappush(heap, (nxt.n, next(counter), nxt, tuple(sublog)))
    return best, list(best_log)


@dataclass(frozen=True)
class UnlinkCertificate:
    """Certified(moves to a crossing-free diagram) | Refuted(invariant) |
    Unknown(budget exhausted)."""

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


def certify_unlink(d: LinkDiagram,
                   budget: SimplifyBudget = SimplifyBudget()) -> UnlinkCertificate:
    """Certify d as the unlink on its components, refute it, or give up."""
    k = d.component_count
    lk = linking_matrix(d)
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
    red = _greedy_reduce(d, log)
    if red.n == 0:
        if red.free_loops != k:
            return UnlinkCertificate("refuted", invariant="component count",
                                     value=str(red.free_loops))
        return UnlinkCertificate("certified", tuple(log), red.free_loops)
    if red.n <= 16:
        fb = normalized_bracket(red)
        if fb != unlink_normalized_bracket(k):
            return UnlinkCertificate("refuted", invariant="bracket",
                                     value=_poly_str(fb))
    final, full_log = reidemeister_simplify(d, budget)
    if final.n == 0 and final.free_loops == k:
        return UnlinkCertificate("certified", tuple(full_log), final.free_loops)
    return UnlinkCertificate("unknown")


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


def exhaustive_search(d: LinkDiagram, m: int,
                      budget: SimplifyBudget = SimplifyBudget(),
                      first_subsets: tuple[tuple[int, ...], ...] = ()) -> SearchOutcome:
    """Try all C(n, m) crossing-change subsets; Some on the first subset
    whose change certifies as an unlink, AllRefuted when every subset is
    refuted, Inconclusive otherwise.  Subsets left unknown are retried
    once with the escalated budget."""
    ordered: list[tuple[int, ...]] = []
    seen = set()
    for s in first_subsets:
        key = tuple(sorted(s))
        if len(key) == m and key not in seen:
            seen.add(key)
            ordered.append(key)
    for s in itertools.combinations(range(d.n), m):
        if s not in seen:
            ordered.append(s)
    unknown: list[tuple[int, ...]] = []
    tried = 0
    for subset in ordered:
        tried += 1
        cert = certify_unlink(change_crossings(d, subset), budget)
        if cert.status == "certified":
            return SearchOutcome("some", (subset,), cert, (), tried)
        if cert.status == "unknown":
            unknown.append(subset)
    if unknown:
        still: list[tuple[int, ...]] = []
        esc = budget.escalated()
        for subset in unknown:
            cert = certify_unlink(change_crossings(d, subset), esc)
            if cert.status == "certified":
                return SearchOutcome("some", (subset,), cert, (), tried)
            if cert.status == "unknown":
                still.append(subset)
        unknown = still
    if unknown:
        return SearchOutcome("inconclusive", (), None, tuple(unknown), tried)
    return SearchOutcome("all_refuted", (), None, (), tried)


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
    """Decision for u(L) against the classical lower bound p."""

    p: Fraction
    result: str                        # "equal" | "greater" | "inconclusive" | "parity"
    witness: tuple[int, ...] | None = None
    u_lower: int | None = None
    u_upper: int | None = None
    c4_lower: int | None = None
    c4_upper: int | None = None
    obstruction_verdict: ObstructionVerdict | None = None
    searches: tuple[tuple[int, str], ...] = ()      # (m, outcome status)
    unknown: tuple[tuple[int, ...], ...] = ()
    certificate: UnlinkCertificate | None = None
    provenance: str = ""

    def u_text(self) -> str:
        return bound_text(self.u_lower, self.u_upper)

    def c4_text(self) -> str:
        return bound_text(self.c4_lower, self.c4_upper)

    def to_json(self):
        out = {"p": str(self.p), "result": self.result,
               "u_lower": self.u_lower, "u_upper": self.u_upper,
               "c4_lower": self.c4_lower, "c4_upper": self.c4_upper,
               "witness": list(self.witness) if self.witness is not None else None,
               "searches": [list(s) for s in self.searches],
               "unknown": [list(u) for u in self.unknown],
               "provenance": self.provenance}
        if self.obstruction_verdict is not None:
            out["obstruction"] = self.obstruction_verdict.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def decide_minimal_unlinking(d: LinkDiagram,
                             budget: SimplifyBudget = SimplifyBudget(), *,
                             sigma: int | None = None) -> UnlinkingVerdict:
    """Theorem-driven decision: p attained exactly when p crossing changes
    in this alternating diagram unlink; AllRefuted at p certifies u >= p+1,
    and witnesses at higher m give upper bounds.

    ``sigma`` is the signature of ``d``; when omitted it is computed with
    the Seifert oracle."""
    if not d.is_connected:
        raise SplitDiagram("decide needs a non-split diagram; decompose first")
    if not is_special_alternating(d):
        raise NotSpecialAlternating("decide needs a special alternating diagram")
    d = reduce_nugatory(d)
    if sigma is None:
        sigma, _ = signature_nullity(d)
    if sigma > 0:
        d = mirror(d)
        sigma = -sigma
    k = d.component_count
    p = Fraction(abs(sigma) + k - 1, 2)
    if d.n == 0:
        return UnlinkingVerdict(p, "equal", (), 0, 0, 0, 0, None, (),
                                provenance="crossing-free diagram")
    ob = obstruction(d, sigma=sigma)
    if p.denominator != 1:
        lo = math.ceil(p)
        return UnlinkingVerdict(p, "parity", None, lo, None, lo, None, ob,
                                provenance="bound not attainable: parity")
    p_int = int(p)
    hints: tuple[tuple[int, ...], ...] = ()
    if ob.admissible and is_twist_reduced(d):
        try:
            cb = checkerboard_negative(d)
            lat = goeritz(d, cb)
            clasp = clasp_candidates(d, lat, ob.embedding, ob.pairing)
            hints = (clasp.crossings,)
        except DiagramError:
            hints = ()
    searches: list[tuple[int, str]] = []
    out_p = exhaustive_search(d, p_int, budget, hints)
    searches.append((p_int, out_p.status))
    if out_p.status == "some":
        if not ob.admissible:
            raise WitnessContradictsObstruction(
                f"witness {list(out_p.witnesses[0])} at p={p_int} but the "
                f"lattice is obstructed ({ob.reason})")
        return UnlinkingVerdict(p, "equal", out_p.witnesses[0],
                                p_int, p_int, p_int, p_int, ob,
                                tuple(searches), (), out_p.certificate,
                                provenance="witness at p")
    if out_p.status == "inconclusive" and ob.admissible:
        return UnlinkingVerdict(p, "inconclusive", None, p_int, None, p_int, None,
                                ob, tuple(searches), out_p.unknown,
                                provenance="unknown subsets at p")
    # The bound is certifiably not attained: either every p-subset was
    # refuted (the main theorem then rules out p in every diagram) or the
    # lattice obstruction already certifies c4 > p.  Search upward for an
    # upper bound.
    why = ("all refuted at p" if out_p.status == "all_refuted"
           else "obstructed lattice (search at p inconclusive)")
    lo = p_int + 1
    for m in range(p_int + 1, p_int + 1 + EXTRA_SEARCHES):
        out_m = exhaustive_search(d, m, budget)
        searches.append((m, out_m.status))
        if out_m.status == "some":
            return UnlinkingVerdict(p, "greater", out_m.witnesses[0],
                                    lo, m, lo, m, ob, tuple(searches), (),
                                    out_m.certificate,
                                    provenance=f"{why}; witness at {m}")
        if out_m.status == "inconclusive":
            return UnlinkingVerdict(p, "greater", None, lo, None, lo, None, ob,
                                    tuple(searches), out_m.unknown,
                                    provenance=f"{why}; unknown at {m}")
    return UnlinkingVerdict(p, "greater", None, lo, None, lo, None, ob,
                            tuple(searches), (),
                            provenance=f"{why}; no witness in searched range")


@dataclass(frozen=True)
class CombinedVerdict:
    m: Fraction
    result: str
    u_lower: int | None
    u_upper: int | None
    c4_lower: int | None
    c4_upper: int | None


def split_additivity(verdicts) -> CombinedVerdict:
    """Combine component verdicts under split union: bounds and p add;
    Equal exactly when every component is Equal."""
    verdicts = list(verdicts)
    if not verdicts:
        return CombinedVerdict(Fraction(0), "equal", 0, 0, 0, 0)
    m = sum((v.p for v in verdicts), Fraction(0))

    def add(vals):
        out = 0
        for v in vals:
            if v is None:
                return None
            out += v
        return out

    result = "equal" if all(v.result == "equal" for v in verdicts) else (
        "inconclusive" if any(v.result == "inconclusive" for v in verdicts)
        else "greater")
    return CombinedVerdict(m, result,
                           add(v.u_lower for v in verdicts),
                           add(v.u_upper for v in verdicts),
                           add(v.c4_lower for v in verdicts),
                           add(v.c4_upper for v in verdicts))
