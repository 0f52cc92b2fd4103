import json
import random

import pytest

from specalt.diagram import (LinkDiagram, parse_pd, change_crossings, canonical_key,
                             delete_crossings, DiagramError)
from specalt.moves import (Move, r1_sites, r2_sites, r3_sites, r2plus_sites, move_from_json,
                           apply_r1, apply_r2, apply_r3, apply_r2plus, apply_move)
from specalt.bracket import normalized_bracket
from specalt.invariants import determinant
from specalt import families


def invariants(d):
    return (normalized_bracket(d), determinant(d), d.writhe, d.component_count)


class TestR1:
    def test_kink_removal(self):
        d = parse_pd("X[1,2,2,1]")
        out = apply_r1(d, r1_sites(d)[0])
        assert out.n == 0 and out.free_loops == 1

    def test_no_kink_error(self, trefoil):
        from specalt.diagram import DiagramError
        with pytest.raises(DiagramError):
            apply_r1(trefoil, (0,))


class TestR2:
    def test_changed_trefoil_reduces(self, trefoil):
        d = change_crossings(trefoil, {0})
        sites = r2_sites(d)
        assert sites
        out = apply_r2(d, sites[0])
        assert out.n == 1

    def test_clasp_bigon_not_reducible(self, trefoil):
        # alternating bigons are clasps, never R2 sites
        assert r2_sites(trefoil) == []

    def test_unlink_appears(self):
        hopf = families.torus_2q(2)
        d = change_crossings(hopf, {0})
        out = apply_r2(d, r2_sites(d)[0])
        assert out.n == 0 and out.free_loops == 2


def ref_delete(d, removed):
    """The surviving ends' mates, renumbered to the surviving crossings in
    order, and the number of strands closed up inside ``removed``: each
    surviving end follows ``d``'s mates from slot s to slot s + 2 through
    the removed crossings, and each removed end it does not pass lies on a
    closed strand."""
    kept = [c for c in range(d.n) if c not in removed]
    index = {c: i for i, c in enumerate(kept)}
    passed = set()
    mates = {}
    for c in kept:
        for s in range(4):
            end = d.mate((c, s))
            while end[0] in removed:
                through = (end[0], (end[1] + 2) % 4)
                passed.update((end, through))
                end = d.mate(through)
            mates[index[c], s] = (index[end[0]], end[1])
    closed = 0
    for c in sorted(removed):
        for s in range(4):
            end = (c, s)
            if end in passed:
                continue
            closed += 1
            while end not in passed:
                through = (end[0], (end[1] + 2) % 4)
                passed.update((end, through))
                end = d.mate(through)
    return mates, kept, closed


class TestDeleteCrossings:
    def test_matches_mate_chasing(self, bundled):
        """Every R1 and R2 site met while greedily reducing seeded crossing
        changes of the bundled rows: the deletion pairs each surviving end
        with the end its strand reaches, keeps the surviving crossings'
        order and directions, and counts the strands it closes up."""
        rng = random.Random(26)
        cases = r1_cases = loops = 0
        for rec in bundled:
            d = rec.diagram
            for _ in range(4):
                cur = change_crossings(d, rng.sample(range(d.n), rng.randint(1, min(3, d.n))))
                while sites := r1_sites(cur) + r2_sites(cur):
                    for site in sites:
                        out = delete_crossings(cur, site)
                        mates, kept, closed = ref_delete(cur, set(site))
                        assert out.n == len(kept), (rec.name, site)
                        assert {end: out.mate(end) for end in mates} == mates, (rec.name, site)
                        assert out.incoming == tuple(cur.incoming[c] for c in kept)
                        assert out.free_loops == cur.free_loops + closed, (rec.name, site)
                        kind = "r1" if len(site) == 1 else "r2"
                        assert apply_move(cur, Move(kind, site)) == out
                        cases += 1
                        r1_cases += kind == "r1"
                        loops += closed
                    cur = delete_crossings(cur, sites[0])
        assert (cases, r1_cases, loops) == (1029, 267, 90)

    def test_deleting_every_crossing_leaves_the_components(self, bundled):
        for rec in bundled:
            d = rec.diagram
            assert delete_crossings(d, range(d.n)) == LinkDiagram((), (), d.component_count)


class TestR2Plus:
    def test_all_sites_roundtrip(self, trefoil, figure_eight):
        for base in (trefoil, figure_eight):
            inv = invariants(base)
            for site in r2plus_sites(base):
                dp = apply_r2plus(base, site)
                assert dp.n == base.n + 2
                assert invariants(dp) == inv
                assert any(canonical_key(apply_r2(dp, b)) == canonical_key(base)
                           for b in r2_sites(dp))


    def test_dart_outside_the_diagram_raises(self, trefoil):
        """A logged R2+ move naming a corner the diagram does not have fails
        with DiagramError, applied or replayed."""
        from specalt.unknotting import replay_moves
        logged = move_from_json({"kind": "r2plus", "site": [[9, 0], [0, 1]]})
        with pytest.raises(DiagramError, match=r"dart \(9, 0\) is not a corner"):
            apply_move(trefoil, logged)
        with pytest.raises(DiagramError, match=r"dart \(9, 0\) is not a corner"):
            replay_moves(trefoil, [logged])
        with pytest.raises(DiagramError, match=r"dart \(0, 7\) is not a corner"):
            apply_r2plus(trefoil, ((0, 1), (0, 7)))


class TestR3:
    def test_alternating_has_no_r3(self, bundled):
        for rec in bundled[:10]:
            assert r3_sites(parse_pd(rec.pd)) == []

    def test_refuses_a_triangle_that_is_not_a_site(self, bundled):
        """An alternating triangle has no over-over edge: ``apply_r3``
        refuses each triangle face of the alternating fixtures, directly and
        as a logged move read back from JSON."""
        refused = 0
        for rec in bundled:
            d = rec.diagram
            if not d.is_alternating:
                continue
            for face in d.faces:
                if len(face) != 3:
                    continue
                site = tuple(sorted(face))
                with pytest.raises(DiagramError, match="not an r3 site"):
                    apply_r3(d, site)
                logged = move_from_json(json.loads(json.dumps(Move("r3", site).to_json())))
                assert logged == Move("r3", site)
                with pytest.raises(DiagramError, match="not an r3 site"):
                    apply_move(d, logged)
                refused += 1
        assert refused == 104

    def test_invariance_sweep(self):
        pool = [families.knot_8_15(), families.knot_9_35(),
                families.rational_link([3, 2]), families.ladder(3)]
        rng = random.Random(3)
        checked = 0
        for base in pool:
            for _ in range(4):
                subset = rng.sample(range(base.n), rng.randint(1, 2))
                d = change_crossings(base, subset)
                for site in r3_sites(d):
                    d3 = apply_r3(d, site)
                    assert d3.n == d.n
                    assert invariants(d3) == invariants(d)
                    checked += 1
        assert checked >= 10

    def test_r3_round_trips_to_isomorphic(self):
        d = change_crossings(families.knot_9_35(), {0})
        sites = r3_sites(d)
        if not sites:
            pytest.skip("no r3 site")
        d3 = apply_r3(d, sites[0])
        back_sites = r3_sites(d3)
        assert any(canonical_key(apply_r3(d3, s)) == canonical_key(d)
                   for s in back_sites)


class TestReplay:
    def test_move_log_replays(self, trefoil):
        from specalt.unknotting import reidemeister_simplify, replay_moves
        d = change_crossings(trefoil, {0})
        final, log = reidemeister_simplify(d)
        assert final.n == 0
        replayed = replay_moves(d, log)
        assert replayed == final

    def test_determinant_constant_along_log(self):
        from specalt.unknotting import replay_moves, reidemeister_simplify
        base = families.knot_8_15()
        d = change_crossings(base, (0, 1))
        final, log = reidemeister_simplify(d)
        cur = d
        det0 = determinant(d)
        for mv in log:
            cur = apply_move(cur, mv)
            assert determinant(cur) == det0
        assert cur == final


class TestSiteShape:
    @pytest.mark.parametrize("move", [Move("r1", (0, 1)), Move("r2", (0,)),
                                      Move("r2plus", ((0, 1),)), Move("r3", ((0, 0),)),
                                      Move("r1", 0)])
    def test_wrong_length_site_raises(self, trefoil, move):
        """A site of the wrong shape is refused as a bad move, applied,
        read back from JSON or replayed."""
        from specalt.unknotting import replay_moves
        with pytest.raises(DiagramError, match="site must have length"):
            apply_move(trefoil, move)
        with pytest.raises(DiagramError, match="site must have length"):
            apply_move(trefoil, move_from_json(json.loads(json.dumps(move.to_json()))))
        with pytest.raises(DiagramError, match="site must have length"):
            replay_moves(trefoil, [move])
