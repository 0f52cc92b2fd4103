import csv
import dataclasses
import heapq
import itertools
import json
import random
import types
from pathlib import Path

import pytest

from specalt.diagram import (parse_pd, canonical_key, change_crossings, mirror,
                             LinkDiagram, DiagramError, NotSpecialAlternating,
                             SplitDiagram, is_special_alternating, reduce_nugatory)
from specalt import unknotting
from specalt.moves import apply_r2plus, move_from_json, r1_sites, r2_sites, r2plus_sites
from specalt.tables import KnotRecord, analyze, data_path, load_table
from specalt.unknotting import (certify_unlink, exhaustive_search,
                                decide_minimal_unlinking, reidemeister_simplify,
                                replay_moves)
from specalt.invariants import determinant, linking_matrix
from specalt.lattice import obstruction
from specalt import families

from conftest import TREFOIL_PD, connected_sum

PAPER13_CSV = Path(__file__).parent.parent / "perfbench" / "data" / "paper13.csv"
PAPER13_EXPECTED_JSON = PAPER13_CSV.with_name("paper13_expected.json")
CERTIFICATES_JSON = Path(__file__).parent / "data" / "certificates_expected.json"
VERDICTS_CSV = Path(__file__).parent / "data" / "verdicts_expected.csv"
# 12a880 changed at its witness and greedy-reduced: no R1 or R2 site, the
# unknot's bracket, and the simplifier unknots it with two R3 moves first.
NEEDS_R3_PD = ("X[20,16,1,15] X[17,2,18,3] X[19,4,20,5] X[1,18,2,19] X[3,16,4,17] "
               "X[10,6,11,5] X[7,12,8,13] X[9,14,10,15] X[11,8,12,9] X[13,6,14,7]")


class TestSimplify:
    def test_kink_chain(self):
        d = parse_pd("X[1,2,2,1]")
        final, log = reidemeister_simplify(d)
        assert final.n == 0 and final.free_loops == 1
        assert len(log) == 1

    def test_unknotted_trefoil(self, trefoil):
        d = change_crossings(trefoil, {0})
        final, log = reidemeister_simplify(d)
        assert final.n == 0 and final.free_loops == 1
        assert replay_moves(d, log) == final

    def test_trefoil_does_not_reduce(self, trefoil, monkeypatch):
        monkeypatch.setattr(unknotting, "SIMPLIFY_NODES", 500)
        final, log = reidemeister_simplify(trefoil)
        assert final.n == 3

    def test_budget_zero_nodes_still_greedy(self, trefoil, monkeypatch):
        monkeypatch.setattr(unknotting, "SIMPLIFY_NODES", 0)
        d = change_crossings(trefoil, {0})
        final, _ = reidemeister_simplify(d)
        assert final.n == 0

    def test_r2plus_candidates_reduce_to_the_popped_state(self, special_rows):
        """The simplifier tries no R2+ candidate.  Every state it pops, while deciding the 116 special alternating
        rows and on a seeded sample of crossing changes of them under a
        300-node budget, is greedy-reduced; each of its R2+ candidates
        fails to build or greedy-reduces back to the popped state's key.
        Some reductions start at the lens of the two new crossings and
        some at the bigon where the pushed edge meets the other at a
        corner of their face."""
        popped = []

        def popping(heap):
            item = heapq.heappop(heap)
            popped.append(item[2])
            return item
        rnd = random.Random(29)
        runs = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(unknotting, "heapq", types.SimpleNamespace(
                heappush=heapq.heappush, heappop=popping))
            for _, d in special_rows:
                decide_minimal_unlinking(d)
            deciding = len(popped)
            mp.setattr(unknotting, "SIMPLIFY_NODES", 300)
            while runs < 40:
                _, d = rnd.choice(special_rows)
                changed = change_crossings(d, rnd.sample(range(d.n), rnd.randint(1, 3)))
                if unknotting._greedy_reduce(changed, []).n <= 12:
                    reidemeister_simplify(changed)
                    runs += 1
        assert deciding >= 20 and len(popped) > deciding
        lens = corner = 0
        for cur in popped:
            assert not r1_sites(cur) and not r2_sites(cur), cur.to_pd_text()
            key = canonical_key(cur)
            for site in r2plus_sites(cur):
                try:
                    nxt = apply_r2plus(cur, site)
                except DiagramError:
                    continue
                first = (r1_sites(nxt) + r2_sites(nxt))[0]
                lens += first == (cur.n, cur.n + 1)
                corner += first != (cur.n, cur.n + 1)
                reduced = unknotting._greedy_reduce(nxt, [])
                assert canonical_key(reduced) == key, (cur.to_pd_text(), site)
        assert lens > 1000 and corner > 1000

    def test_simplifier_builds_no_r2plus_candidate(self, monkeypatch):
        """With ``apply_r2plus`` raising, the simplifier still certifies
        ``s13_1`` changed at its witness (0, 1, 2, 4) by its stored
        12-move log."""
        def refusing(d, site):
            raise RuntimeError("the simplifier built an R2+ candidate")
        monkeypatch.setattr(unknotting._moves, "apply_r2plus", refusing)
        with open(PAPER13_CSV, newline="") as fh:
            pd = next(row["pd"] for row in csv.DictReader(fh) if row["name"] == "s13_1")
        with open(CERTIFICATES_JSON) as fh:
            stored = next(row for row in json.load(fh) if row["name"] == "s13_1")
        d = change_crossings(reduce_nugatory(parse_pd(pd)), (0, 1, 2, 4))
        final, log = reidemeister_simplify(d)
        assert final.n == 0 and len(log) == 12
        assert [m.to_json() for m in log] == stored["moves"]


class TestCertify:
    def test_crossing_free(self):
        cert = certify_unlink(LinkDiagram((), (), 1))
        assert cert.status == "certified"

    def test_trefoil_refuted_by_determinant(self, trefoil):
        cert = certify_unlink(trefoil)
        assert cert.status == "refuted"
        assert cert.invariant == "determinant"
        assert cert.value == "3"

    def test_hopf_refuted_by_linking(self):
        cert = certify_unlink(families.torus_2q(2))
        assert cert.status == "refuted"
        assert cert.invariant == "linking number"

    def test_certified_replay(self, knot_8_15):
        d = change_crossings(knot_8_15, (0, 1))
        cert = certify_unlink(d)
        assert cert.status == "certified"
        final = replay_moves(d, cert.moves)
        assert final.n == 0 and final.free_loops == 1

    def test_certify_searches_through_the_simplifier(self, monkeypatch):
        """A changed diagram that only R3 unknots is certified by one call
        of ``reidemeister_simplify`` on its greedy result, so a trace of
        that name sees every simplifier search."""
        real = unknotting.reidemeister_simplify
        calls = []

        def counted(d):
            calls.append(d)
            return real(d)

        monkeypatch.setattr(unknotting, "reidemeister_simplify", counted)
        d = parse_pd(NEEDS_R3_PD)
        cert = certify_unlink(d)
        assert cert.status == "certified" and cert.moves[0].kind == "r3"
        assert calls == [unknotting._greedy_reduce(d, [])]

    def test_knot_search_skips_linking_numbers(self, knot_8_15, knot_9_35,
                                               monkeypatch):
        real = unknotting.linking_matrix
        calls = []

        def counted(d):
            calls.append(d.component_count)
            return real(d)

        monkeypatch.setattr(unknotting, "linking_matrix", counted)
        exhaustive_search(knot_9_35, 1)
        exhaustive_search(knot_8_15, 2)
        assert calls == []
        exhaustive_search(families.torus_2q(4), 2)
        assert calls and set(calls) == {2}

    def test_linking_skip_keeps_bundled_rows(self, bundled, monkeypatch):
        """Every bundled row reads the same, apart from its seconds, as
        when the linking numbers screen every changed diagram."""
        from specalt.invariants import linking_matrix
        from specalt.tables import analyze_all

        def rows():
            return [{k: v for k, v in row.to_json().items() if k != "seconds"}
                    for row in analyze_all(bundled)]

        shipped = rows()
        real = unknotting.certify_unlink

        def linking_first(d):
            for pair, val in sorted(linking_matrix(d).items()):
                if val != 0:
                    return unknotting.UnlinkCertificate(
                        "refuted", invariant="linking number", value=f"lk{pair}={val}")
            return real(d)

        monkeypatch.setattr(unknotting, "certify_unlink", linking_first)
        assert rows() == shipped

    def test_wrong_loop_count_raises(self, trefoil, monkeypatch):
        """R1, R2, R2+ and R3 keep the link type, so a crossing-free result
        with other than k free loops means a surgery miscounted them: both
        the greedy pass and the simplifier raise instead of refuting, and a
        table row reports the error."""
        real_greedy, real_search = (unknotting._greedy_reduce,
                                    unknotting.reidemeister_simplify)

        def one_loop_more(d):
            return dataclasses.replace(d, free_loops=d.free_loops + 1)

        def search_one_loop_more(d):
            final, log = real_search(d)
            return one_loop_more(final), log

        unknot = change_crossings(trefoil, (0,))
        needs_r3 = parse_pd(NEEDS_R3_PD)
        assert certify_unlink(unknot).status == "certified"
        assert certify_unlink(needs_r3).moves[0].kind == "r3"
        with monkeypatch.context() as mp:
            mp.setattr(unknotting, "_greedy_reduce",
                       lambda d, log: one_loop_more(real_greedy(d, log)))
            with pytest.raises(DiagramError, match="free loops"):
                certify_unlink(unknot)
            row = analyze(KnotRecord("3_1", TREFOIL_PD))
            assert not row.ok and row.provenance.startswith("error:"), row.provenance
        with monkeypatch.context() as mp:
            mp.setattr(unknotting, "reidemeister_simplify", search_one_loop_more)
            with pytest.raises(DiagramError, match="free loops"):
                certify_unlink(needs_r3)

    def test_det_one_knot_refuted_by_bracket(self):
        # changing one crossing of 9_35's standard diagram sometimes gives
        # det-1 non-unknots; the bracket must catch whatever det misses
        base = families.knot_9_35()
        out = exhaustive_search(base, 1)
        assert out.status == "all_refuted"


class TestExhaustiveSearch:
    def test_trefoil_all_singletons_work(self, trefoil):
        for c in range(3):
            cert = certify_unlink(change_crossings(trefoil, {c}))
            assert cert.status == "certified"
        out = exhaustive_search(trefoil, 1)
        assert out.status == "some"
        assert out.witnesses[0] == (0,)

    def test_9_35_m1_all_refuted(self, knot_9_35):
        out = exhaustive_search(knot_9_35, 1)
        assert out.status == "all_refuted"
        assert out.subsets_tried == 9

    def test_8_15_m2_some(self, knot_8_15):
        out = exhaustive_search(knot_8_15, 2)
        assert out.status == "some"

    def test_first_subset_hint(self, knot_8_15):
        out = exhaustive_search(knot_8_15, 2, first_subsets=((0, 1),))
        assert out.status == "some"
        assert out.subsets_tried == 1
        # a hint of the wrong size is dropped, an unsorted one sorted
        out = exhaustive_search(knot_8_15, 2, first_subsets=((0,), (1, 0), (0, 1)))
        assert (out.status, out.witnesses, out.subsets_tried) == ("some", ((0, 1),), 1)

    def test_hints_once_each_then_the_rest(self, knot_9_35, monkeypatch):
        """Duplicate hints are tried once, hints of another size never,
        and ``subsets_tried`` counts each of the C(n, m) subsets once."""
        order = []

        def recording(d, subset):
            order.append(subset)
            return change_crossings(d, subset)

        monkeypatch.setattr(unknotting, "change_crossings", recording)
        out = exhaustive_search(knot_9_35, 1,
                                first_subsets=((4,), (2, 3), (4,), (), (7,), (7,)))
        assert out.status == "all_refuted" and out.subsets_tried == 9
        assert order == [(4,), (7,), (0,), (1,), (2,), (3,), (5,), (6,), (8,)]

    @pytest.mark.parametrize("later_status", ["certified", "unknown"])
    def test_unknown_subsets_tried_once(self, trefoil, monkeypatch, later_status):
        """An undecided subset is reported unknown, not retried: each
        subset meets ``certify_unlink`` once, in search order, and an
        unknown first subset does not stop the search."""
        real = unknotting.certify_unlink
        calls = []

        def first_unknown(d):
            calls.append(d)
            if len(calls) == 1 or later_status == "unknown":
                return unknotting.UnlinkCertificate("unknown")
            return real(d)

        monkeypatch.setattr(unknotting, "certify_unlink", first_unknown)
        out = exhaustive_search(trefoil, 1)
        if later_status == "certified":
            assert (out.status, out.witnesses, out.subsets_tried) == ("some", ((1,),), 2)
            assert calls == [change_crossings(trefoil, (c,)) for c in range(2)]
        else:
            assert out.status == "inconclusive" and out.subsets_tried == 3
            assert out.unknown == ((0,), (1,), (2,))
            assert calls == [change_crossings(trefoil, (c,)) for c in range(3)]

    def test_monotone_parity(self, knot_8_15):
        """Same-parity monotonicity instance: the 2-change witness for
        8_15 extends to a certifying 4-change subset."""
        assert exhaustive_search(knot_8_15, 2).status == "some"
        assert exhaustive_search(knot_8_15, 4).status == "some"


def link_rows(bundled):
    """(name, diagram) of every link among the fixtures, the ``paper13``
    rows and ``torus_2q(2..6)``, reduced as the tables reduce them."""
    records, errors = load_table(PAPER13_CSV)
    assert not errors
    rows = [(rec.name, reduce_nugatory(rec.diagram)) for rec in bundled + records]
    rows += [(f"torus_2q({q})", families.torus_2q(q)) for q in range(2, 7)]
    return [(name, d) for name, d in rows if d.component_count > 1]


def screen_refutes(d, subset) -> bool:
    return unknotting._linking_refutes(d, linking_matrix(d), subset)


class TestLinkingScreen:
    """``exhaustive_search`` refutes a link subset from the parent's linking
    numbers before it builds the changed diagram."""

    def test_screen_agrees_with_built_children(self, bundled):
        """On every link row, for every subset of at most two crossings, a
        repeated crossing included, the screen refutes exactly when the
        built child has a non-zero linking number."""
        rows = link_rows(bundled)
        assert sum(name.startswith("s1") for name, _ in rows) == 10
        refuted = kept = 0
        for name, d in rows:
            subsets = [()] + [s for size in (1, 2) for s in
                              itertools.combinations_with_replacement(range(d.n), size)]
            for subset in subsets:
                child = linking_matrix(change_crossings(d, subset))
                assert screen_refutes(d, subset) == any(child.values()), (name, subset)
                refuted += any(child.values())
                kept += not any(child.values())
        assert refuted > 1000 and kept > 100

    def test_stored_witnesses_pass_the_screen(self, bundled):
        """Every link witness in verdicts_expected.csv and
        paper13_expected.json passes the screen on the searched diagram."""
        with open(VERDICTS_CSV, newline="") as fh:
            witnesses = {row["name"]: tuple(int(c) for c in row["witness"].split(";"))
                         for row in csv.DictReader(fh) if row["witness"]}
        with open(PAPER13_EXPECTED_JSON) as fh:
            witnesses.update((row["name"], tuple(row["witness"]))
                             for row in json.load(fh)["rows"] if row["witness"])
        checked = 0
        for name, d in link_rows(bundled):
            if name not in witnesses:
                continue
            searched = obstruction(d).lattice.coloring.diagram
            assert not screen_refutes(searched, witnesses[name]), name
            checked += 1
        assert checked == 11 + 7

    @pytest.mark.parametrize("name, m", [("c_4_1_4", 2), ("c_2_2_2_2_2", 3)])
    def test_children_only_for_survivors(self, bundled, monkeypatch, name, m):
        """The search builds a child for exactly the tried subsets whose
        child has all-zero linking numbers."""
        d = reduce_nugatory(next(rec.diagram for rec in bundled if rec.name == name))
        built = []

        def recording(parent, subset):
            built.append(subset)
            return change_crossings(parent, subset)

        monkeypatch.setattr(unknotting, "change_crossings", recording)
        out = exhaustive_search(d, m)
        tried = list(itertools.combinations(range(d.n), m))[:out.subsets_tried]
        survivors = [s for s in tried
                     if not any(linking_matrix(change_crossings(d, s)).values())]
        assert built == survivors and 0 < len(built) < len(tried)

    @pytest.mark.parametrize("hint", [(-1, 0), (6, 0)])
    def test_out_of_range_hint_raises(self, hint):
        """Each change of ``torus_2q(6)`` at m = 2 leaves lk = 1, so the
        screen refutes it: the indices are checked before that."""
        with pytest.raises(DiagramError, match="out of range"):
            exhaustive_search(families.torus_2q(6), 2, (hint,))

    @pytest.mark.parametrize("subset", [(-1, 0), (6, 0)])
    def test_screen_checks_the_range(self, subset):
        """The screen itself reads a subset as ``change_crossings`` does,
        for callers other than the search, which checks its hints first."""
        with pytest.raises(DiagramError, match="out of range"):
            screen_refutes(families.torus_2q(6), subset)

    @pytest.mark.parametrize("q, expected", [
        (2, {"status": "all_refuted", "witnesses": [], "unknown": [], "subsets_tried": 1}),
        (4, {"status": "some", "witnesses": [[0, 1]], "unknown": [], "subsets_tried": 1}),
        (6, {"status": "all_refuted", "witnesses": [], "unknown": [], "subsets_tried": 15}),
    ])
    def test_repeated_index_hint_is_a_set(self, q, expected):
        """A hint that repeats a crossing is read as a set, one crossing
        short of m, and dropped like a hint of another size: the outcomes
        are the hintless ones, and no witness makes fewer than m changes."""
        d = families.torus_2q(q)
        assert exhaustive_search(d, 2, ((1, 1),)).to_json() == expected
        assert exhaustive_search(d, 2).to_json() == expected


@pytest.fixture(scope="module")
def special_fixture_verdicts(bundled):
    """(name, verdict, mirror's verdict) per special alternating fixture."""
    out = []
    for rec in bundled:
        d = reduce_nugatory(parse_pd(rec.pd))
        if is_special_alternating(d):
            out.append((rec.name, decide_minimal_unlinking(d),
                        decide_minimal_unlinking(mirror(d))))
    assert len(out) >= 40
    return out


class TestDecide:
    def test_trefoil(self, trefoil):
        v = decide_minimal_unlinking(trefoil)
        assert v.result == "equal"
        assert v.u_lower == v.u_upper == 1
        assert v.witness == (0,)

    def test_mirror_gives_same_numbers(self, trefoil):
        v = decide_minimal_unlinking(mirror(trefoil))
        assert v.result == "equal" and v.u_upper == 1

    def test_8_15(self, knot_8_15):
        v = decide_minimal_unlinking(knot_8_15)
        assert v.result == "equal"
        assert v.u_lower == v.u_upper == 2
        assert v.obstruction_verdict.admissible

    def test_9_35(self, knot_9_35):
        v = decide_minimal_unlinking(knot_9_35)
        assert v.result == "greater"
        assert (v.u_lower, v.u_upper) == (2, 3)
        # the verdict's JSON reports its u bounds as the c4 bounds too
        out = v.to_json()
        assert (out["c4_lower"], out["c4_upper"]) == (2, 3)
        assert not v.obstruction_verdict.admissible
        assert dict(v.searches)[1] == "all_refuted"

    def test_7_4_exactly_determined(self):
        v = decide_minimal_unlinking(families.generalized_pretzel(3, 1, 3))
        assert v.result == "greater"
        assert v.u_lower == v.u_upper == 2

    def test_torus_links_attain_bound(self):
        for q in (2, 4, 6):
            v = decide_minimal_unlinking(families.torus_2q(q))
            assert v.result == "equal"
            assert v.u_upper == q // 2

    def test_rejects_non_special(self, figure_eight):
        with pytest.raises(NotSpecialAlternating):
            decide_minimal_unlinking(figure_eight)

    def test_rejects_split(self):
        d = parse_pd(TREFOIL_PD + " X[7,10,8,11] X[9,12,10,7] X[11,8,12,9]")
        with pytest.raises(SplitDiagram):
            decide_minimal_unlinking(d)

    def test_rejects_nugatory(self):
        """decide takes the reduced diagram; it does not untwist a kink."""
        with pytest.raises(DiagramError, match="nugatory"):
            decide_minimal_unlinking(parse_pd("X[1,1,2,2]"))

    def test_witness_replays(self, knot_8_15):
        v = decide_minimal_unlinking(knot_8_15)
        cert = certify_unlink(change_crossings(knot_8_15, v.witness))
        assert cert.status == "certified"
        assert len(v.witness) == v.p


    def test_mirror_decides_the_same_diagram(self, special_fixture_verdicts):
        for name, v, vm in special_fixture_verdicts:
            assert vm.sigma == -v.sigma, name
            assert (vm.witness, vm.provenance, vm.certificate) == \
                (v.witness, v.provenance, v.certificate), name
            assert (vm.u_lower, vm.u_upper) == (v.u_lower, v.u_upper), name

    def test_move_log_replays_on_the_searched_diagram(self, special_fixture_verdicts):
        replayed = 0
        for name, *verdicts in special_fixture_verdicts:
            for v in verdicts:
                if v.certificate is None:
                    continue
                searched = v.obstruction_verdict.lattice.coloring.diagram
                final = replay_moves(change_crossings(searched, v.witness),
                                     v.certificate.moves)
                assert final.n == 0, name
                assert final.free_loops == searched.component_count, name
                replayed += 1
        assert replayed >= 40

    def test_certificates_match_expected(self, special_fixture_verdicts):
        """Every certified verdict among the 116 special alternating
        fixture, named and ``paper13`` rows keeps the move log and final
        loop count stored in tests/data/certificates_expected.json, and each
        stored log replays on the searched diagram changed at the witness to
        k free loops.  Move sites index crossings, so this pins the crossing
        order every surgery leaves; seven logs make R3 moves."""
        with open(CERTIFICATES_JSON) as fh:
            expected = json.load(fh)
        verdicts = {name: v for name, v, _ in special_fixture_verdicts}
        for path in (data_path("named_pd_codes.csv"), PAPER13_CSV):
            records, errors = load_table(path)
            assert not errors
            for rec in records:
                d = reduce_nugatory(rec.diagram)
                if is_special_alternating(d):
                    verdicts[rec.name] = decide_minimal_unlinking(d)
        assert len(verdicts) == 116
        got = [{"name": name, "moves": [m.to_json() for m in v.certificate.moves],
                "final_loops": v.certificate.final_loops}
               for name, v in verdicts.items() if v.certificate is not None]
        assert len(got) == 111 and sum(len(row["moves"]) for row in got) == 837
        assert sum(any(m["kind"] == "r3" for m in row["moves"]) for row in got) == 7
        assert got == expected
        for row in expected:
            v = verdicts[row["name"]]
            d = change_crossings(v.obstruction_verdict.lattice.coloring.diagram, v.witness)
            final = replay_moves(d, [move_from_json(m) for m in row["moves"]])
            assert final.n == 0, row["name"]
            assert final.free_loops == row["final_loops"] == d.component_count, row["name"]

    def test_trefoil_sums_of_sharp_fixtures_stay_sharp(self, bundled, trefoil,
                                                       special_fixture_verdicts):
        """The trefoil joined to a sharp (u = p) special alternating knot
        fixture K with sigma < 0: p adds, so p = p(K) + 1 >= u(K) + 1,
        which bounds u of the sum.  By the main theorem its search finds a
        witness at p, on an admissible lattice; changing both summands'
        witnesses is not refuted."""
        verdicts = {name: v for name, v, _ in special_fixture_verdicts}
        w3 = decide_minimal_unlinking(trefoil).witness
        sharp = 0
        for rec in bundled:
            v1 = verdicts.get(rec.name)
            if (v1 is None or rec.diagram.component_count != 1 or v1.sigma >= 0
                    or v1.result != "equal"):
                continue
            total = connected_sum(trefoil, reduce_nugatory(rec.diagram))
            v = decide_minimal_unlinking(total)
            assert v.provenance == "witness at p", rec.name
            assert v.p == v1.p + 1 and v.u_lower == v.u_upper == v1.u_upper + 1, rec.name
            assert v.obstruction_verdict.admissible, rec.name
            union = w3 + tuple(trefoil.n + c for c in v1.witness)
            assert certify_unlink(change_crossings(total, union)).status != "refuted", rec.name
            sharp += 1
        assert sharp == 14
