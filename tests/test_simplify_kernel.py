"""The simplifier without R2+ moves and the early-abort canonical code
agree with a simplifier that tries every R2+ excursion and with the
full-walk code, kept below as the reference.

``reidemeister_simplify`` tries no R2+ candidate, because the greedy pass
would give back the state it was pushed from, and ``canonical_key`` stops
a root's walk at the first row above the best code so far.  Both must
leave the search unchanged: the same best diagram and the same move log
on every simplifier call made while deciding the named 11a/12a rows, on
the heaviest witness of the ``paper13`` benchmark set, and, under budgets
of 3 and 7 nodes that leave most of them unknown, on every one- and
two-crossing change of the bundled fixtures with at most 9 crossings,
whose keys must agree state by state.  ``reference_simplify`` builds,
reduces and keys every candidate, so it is the oracle for "same
search"."""

import csv
import heapq
import itertools
from pathlib import Path

from specalt import moves as _moves
from specalt import unknotting
from specalt.diagram import (DiagramError, canonical_key,
                             change_crossings, parse_pd, reduce_nugatory,
                             split_components)
from specalt.moves import Move
from specalt.tables import analyze, data_path, load_bundled_fixtures, load_table
from specalt.unknotting import _greedy_reduce, reidemeister_simplify

from conftest import reflect_plane

PAPER13_CSV = Path(__file__).parent.parent / "perfbench" / "data" / "paper13.csv"


def reference_canonical_code(d, reflect):
    """The minimum over root crossings of the full BFS code."""
    n = d.n
    if n == 0:
        return ("loops", d.free_loops)
    if not d.is_connected:
        parts = sorted(reference_canonical_code(p, reflect) for p in split_components(d))
        return ("split", tuple(parts))
    order = (0, 3, 2, 1) if reflect else (0, 1, 2, 3)
    mates = [[d.mate((c, s)) for s in order] for c in range(n)]
    codes = []
    for c0 in range(n):
        ids = {c0: 0}
        queue = [c0]
        code = []
        for c in queue:
            row = [d.incoming[c][order[1]]]
            for mc, ms in mates[c]:
                if mc not in ids:
                    ids[mc] = len(ids)
                    queue.append(mc)
                row += (ids[mc], order[ms])
            code.append(tuple(row))
        codes.append(tuple(code))
    return ("diag", d.free_loops, min(codes))


def reference_key(d):
    return reference_canonical_code(d, False)


def reference_simplify(d, max_nodes, key=reference_key):
    """Best-first search that reduces and keys every candidate, the R2+
    excursions of each popped state included, over at most ``max_nodes``
    states.  An R3 candidate costs one node and an R2+ candidate, of at
    most ``d.n + 2`` crossings, none: an excursion that reached a new state
    would push it here and make the two searches differ."""
    log0 = []
    start = _greedy_reduce(d, log0)
    if start.n == 0:
        return start, log0
    counter = itertools.count()
    heap = [(start.n, next(counter), start, tuple(log0))]
    seen = {key(start)}
    best, best_log = start, tuple(log0)
    nodes = 0
    while heap and nodes < max_nodes:
        _, _, cur, log = heapq.heappop(heap)
        nodes += 1
        candidates = ([Move("r3", s) for s in _moves.r3_sites(cur)]
                      + [Move("r2plus", s) for s in _moves.r2plus_sites(cur)])
        for mv in candidates:
            if mv.kind == "r3":
                if nodes >= max_nodes:
                    continue
                nodes += 1
            try:
                nxt = _moves.apply_move(cur, mv)
            except DiagramError:
                continue
            sublog = list(log) + [mv]
            nxt = _greedy_reduce(nxt, sublog)
            k = key(nxt)
            if k in seen:
                continue
            seen.add(k)
            if nxt.n < best.n:
                best, best_log = nxt, tuple(sublog)
                if best.n == 0:
                    return best, list(best_log)
            heapq.heappush(heap, (nxt.n, next(counter), nxt, tuple(sublog)))
    return best, list(best_log)


def test_named_rows_simplify_as_reference(monkeypatch):
    """Every simplifier search made while deciding the named rows.
    ``certify_unlink`` hands the simplifier its own greedy result; that
    greedy log and the simplifier's log must together be what the
    reference gives on the changed diagram it received."""
    received, calls = [], []
    real_certify, real_search = (unknotting.certify_unlink,
                                 unknotting.reidemeister_simplify)

    def certifying(d):
        received.append(d)
        return real_certify(d)

    def recording(start):
        out = real_search(start)
        calls.append((received[-1], start, out))
        return out

    monkeypatch.setattr(unknotting, "certify_unlink", certifying)
    monkeypatch.setattr(unknotting, "reidemeister_simplify", recording)
    records, errors = load_table(data_path("named_pd_codes.csv"))
    assert not errors and len(records) == 51
    for rec in records:
        assert analyze(rec).ok, rec.name
    assert calls
    for d, start, (final, log) in calls:
        greedy_log = []
        assert _greedy_reduce(d, greedy_log) == start
        assert (final, greedy_log + log) == reference_simplify(
            d, unknotting.SIMPLIFY_NODES)


def test_paper13_witness_simplifies_as_reference():
    """s13_1 changed at its witness (0, 1, 2, 4): the one searched
    certificate of the ``paper13`` set, where the reference keys 267
    states and the simplifier 7."""
    with open(PAPER13_CSV, newline="") as fh:
        pd = next(row["pd"] for row in csv.DictReader(fh) if row["name"] == "s13_1")
    d = change_crossings(reduce_nugatory(parse_pd(pd)), (0, 1, 2, 4))
    final, log = reidemeister_simplify(d)
    assert final.n == 0 and len(log) == 12
    assert (final, log) == reference_simplify(d, unknotting.SIMPLIFY_NODES)


def _small_fixture_changes():
    records, errors = load_bundled_fixtures()
    assert not errors
    for rec in records:
        d = rec.diagram
        if d.n <= 9:
            for m in (1, 2):
                for subset in itertools.combinations(range(d.n), m):
                    yield rec.name, subset, change_crossings(d, subset)


def test_fixture_changes_simplify_as_reference(monkeypatch):
    """Under budgets of 3 and 7 nodes most outcomes end unknown, the
    budget running out among the R3 candidates of the first states popped;
    the keys of every state the reference visits, R2+ excursions included,
    agree."""
    def both_keys(x):
        k = reference_key(x)
        assert canonical_key(x) == k
        return k

    for name, subset, d in _small_fixture_changes():
        assert canonical_key(reflect_plane(d)) == reference_canonical_code(d, True), \
            (name, subset)
    for budget in (3, 7):
        monkeypatch.setattr(unknotting, "SIMPLIFY_NODES", budget)
        unknown = 0
        for name, subset, d in _small_fixture_changes():
            out = reidemeister_simplify(d)
            assert out == reference_simplify(d, budget, both_keys), (name, subset, budget)
            unknown += out[0].n > 0
        assert unknown > 0
