import pytest
from hypothesis import given, settings, strategies as st

from specalt.diagram import (parse_pd, parse_dt, DiagramError, NotAlternating,
                             faces, checkerboard, checkerboard_negative,
                             crossing_signs, is_special_alternating,
                             reduce_nugatory, twist_regions, is_twist_reduced,
                             change_crossings, mirror, split_components,
                             planar_isomorphic, canonical_key, LinkDiagram)
from specalt import families

from conftest import TREFOIL_PD


class TestParsePD:
    def test_trefoil(self, trefoil):
        assert trefoil.n == 3
        assert trefoil.edge_count == 6
        assert trefoil.component_count == 1

    def test_one_crossing_unknot(self):
        d = parse_pd("X[1,2,2,1]")
        assert d.n == 1
        assert len(faces(d)) == 3

    def test_wrapper_and_commas(self, trefoil):
        d = parse_pd("PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]")
        assert d == trefoil

    def test_arity_error(self):
        with pytest.raises(DiagramError):
            parse_pd("X[1,2,3]")

    def test_duplicate_labels_error(self):
        with pytest.raises(DiagramError):
            parse_pd("X[1,1,1,1]")

    def test_garbage_error(self):
        with pytest.raises(DiagramError):
            parse_pd("X[1,4,2,5] junk")

    def test_empty_is_crossingless(self):
        d = parse_pd("")
        assert d.n == 0 and d.free_loops == 0

    def test_component_never_passing_under(self):
        # component 1 (edges 3, 4) is over at both crossings, so no under
        # pass fixes its direction: its smallest edge label leaves its
        # first-listed end
        from specalt.invariants import linking_matrix, determinant
        d = parse_pd("X[1,3,2,4] X[2,3,1,4]")
        assert d.incoming == ((True, False, False, True),
                              (True, True, False, False))
        assert d.component_count == 2
        assert d.signs == (-1, 1)
        assert list(linking_matrix(d).values()) == [0]
        assert determinant(d) == 0


class TestParseDT:
    def test_trefoil_roundtrip(self, trefoil):
        d = parse_dt("4 6 2")
        assert d.n == 3
        assert planar_isomorphic(d, trefoil, allow_reflection=True)

    def test_figure_eight(self, figure_eight):
        assert figure_eight.n == 4
        assert figure_eight.is_alternating
        assert sorted(figure_eight.signs) == [-1, -1, 1, 1]

    def test_odd_entries(self):
        with pytest.raises(DiagramError):
            parse_dt("3 5")

    def test_unrealizable(self):
        with pytest.raises(DiagramError):
            parse_dt("4 6 8 10 2")


class TestFaces:
    def test_euler_formula_all_fixtures(self, bundled):
        for rec in bundled:
            d = parse_pd(rec.pd)
            assert len(faces(d)) == d.n + 2, rec.name

    def test_8_15_face_count(self, knot_8_15):
        assert len(faces(knot_8_15)) == 10

    def test_trefoil_bigons(self, trefoil):
        sizes = sorted(len(f) for f in faces(trefoil))
        assert sizes == [2, 2, 2, 3, 3]


class TestCheckerboard:
    def test_trefoil_negative(self, trefoil):
        cb = checkerboard_negative(trefoil)
        assert all(mu == -1 for mu in cb.incidence)
        assert len(cb.white_faces()) == 2

    def test_complementary_coloring_flips(self, trefoil):
        cb = checkerboard(trefoil, white_first=True)
        cb2 = checkerboard(trefoil, white_first=False)
        assert all(a == -b for a, b in zip(cb.incidence, cb2.incidence))

    def test_8_15_five_whites(self, knot_8_15):
        cb = checkerboard_negative(knot_8_15)
        assert len(cb.white_faces()) == 5

    def test_not_alternating(self, trefoil):
        d = change_crossings(trefoil, {0})
        with pytest.raises(NotAlternating):
            checkerboard_negative(d)

    def test_all_fixtures_negative(self, bundled):
        for rec in bundled:
            d = parse_pd(rec.pd)
            cb = checkerboard_negative(d)
            assert all(mu == -1 for mu in cb.incidence), rec.name


class TestSigns:
    def test_trefoil_positive(self, trefoil):
        assert crossing_signs(trefoil) == (1, 1, 1)

    def test_figure_eight_balanced(self, figure_eight):
        assert figure_eight.writhe == 0

    def test_mirror_negates(self, trefoil):
        assert crossing_signs(mirror(trefoil)) == (-1, -1, -1)


class TestSpecialAlternating:
    def test_examples(self, trefoil, figure_eight, knot_8_15):
        assert is_special_alternating(trefoil)
        assert is_special_alternating(knot_8_15)
        assert not is_special_alternating(figure_eight)

    def test_equivalent_definition(self, bundled):
        for rec in bundled:
            d = parse_pd(rec.pd)
            expected = d.is_alternating and len(set(d.signs)) <= 1
            assert is_special_alternating(d) == expected, rec.name


class TestReduceNugatory:
    def test_kink(self):
        d = parse_pd("X[1,2,2,1]")
        r = reduce_nugatory(d)
        assert r.n == 0 and r.free_loops == 1

    def test_idempotent_on_reduced(self, trefoil):
        assert reduce_nugatory(trefoil) == trefoil

    def test_kinked_trefoil(self, trefoil):
        k = parse_pd("X[1,4,2,5] X[3,6,4,7] X[5,2,6,3] X[7,1,8,8]")
        r = reduce_nugatory(k)
        assert r.n == 3
        assert planar_isomorphic(r, trefoil)

    def test_idempotent(self):
        k = parse_pd("X[1,4,2,5] X[3,6,4,7] X[5,2,6,3] X[7,1,8,8]")
        r = reduce_nugatory(k)
        assert reduce_nugatory(r) == r

    def test_nugatory_with_tangle_flip(self):
        """A twisted connected sum: untwisting must flip a whole trefoil
        summand while preserving the oriented link type."""
        from conftest import TREFOIL_PD, connected_sum_pd
        from specalt.diagram import _Builder
        from specalt.invariants import signature_nullity, determinant
        conn = connected_sum_pd(TREFOIL_PD, TREFOIL_PD)
        # insert a kink on a bridge edge between the two summands: pick an
        # edge whose removal separates the summands (edge shared between
        # the two halves after the splice; edge labels were renumbered, so
        # find one whose endpoints lie in different original summands)
        bridge = None
        for e, (a, b) in conn.edge_ends.items():
            if (a[0] < 3) != (b[0] < 3):
                bridge = e
                break
        assert bridge is not None
        b = _Builder.from_diagram(conn)
        ends = conn.edge_ends[bridge]
        head = ends[0] if conn.incoming[ends[0][0]][ends[0][1]] else ends[1]
        tail = ends[1] if head == ends[0] else ends[0]
        k = b.new_crossing()
        b.splice((k, 0), tail)
        b.splice((k, 1), head)
        b.splice((k, 2), (k, 3))
        b.inc.update({(k, 0): True, (k, 1): False, (k, 2): False, (k, 3): True})
        kinked = b.to_diagram()
        assert kinked.n == 7
        sigma0, _ = signature_nullity(conn)
        red = reduce_nugatory(kinked)
        # untwisting flips one summand's sub-diagram but must preserve the
        # oriented link type: same signature, nullity, and determinant
        assert red.n == 6
        assert signature_nullity(red) == (sigma0, 0)
        assert determinant(red) == determinant(conn) == 9


class TestTwistRegions:
    def test_trefoil_single_cyclic_region(self, trefoil):
        tw = twist_regions(trefoil)
        assert len(tw.regions) == 1
        assert sorted(tw.regions[0]) == [0, 1, 2]
        assert is_twist_reduced(trefoil)

    def test_torus_chain(self):
        d = families.torus_2q(4)
        tw = twist_regions(d)
        assert len(tw.regions) == 1
        assert len(tw.regions[0]) == 4

    def test_8_15_twist_reduced(self, knot_8_15):
        assert is_twist_reduced(knot_8_15)
        tw = twist_regions(knot_8_15)
        sizes = sorted(len(r) for r in tw.regions)
        # two white-side clasps, two single crossings, and the length-2
        # twist flanking the degree-2 white region
        assert sizes == [1, 1, 2, 2, 2]

    def test_partition(self, bundled):
        for rec in bundled[:20]:
            d = parse_pd(rec.pd)
            tw = twist_regions(d)
            seen = sorted(c for reg in tw.regions for c in reg)
            assert seen == list(range(d.n)), rec.name


class TestChangeMirrorSplit:
    def test_involution(self, bundled):
        for rec in bundled[:15]:
            d = parse_pd(rec.pd)
            subset = set(range(0, d.n, 2))
            assert change_crossings(change_crossings(d, subset), subset) == d

    def test_empty_change_is_identity(self, trefoil):
        assert change_crossings(trefoil, set()) == trefoil

    def test_change_all_is_mirror(self, trefoil):
        assert change_crossings(trefoil, range(3)) == mirror(trefoil)

    def test_mirror_involution(self, knot_8_15):
        assert mirror(mirror(knot_8_15)) == knot_8_15

    def test_out_of_range(self, trefoil):
        with pytest.raises(DiagramError):
            change_crossings(trefoil, {7})

    def test_split_two_trefoils(self):
        d = parse_pd(TREFOIL_PD + " X[7,10,8,11] X[9,12,10,7] X[11,8,12,9]")
        parts = split_components(d)
        assert len(parts) == 2
        assert all(p.n == 3 for p in parts)

    @given(st.integers(min_value=2, max_value=7))
    @settings(max_examples=6, deadline=None)
    def test_change_involution_torus(self, q):
        d = families.torus_2q(q)
        subset = {0, q - 1}
        assert change_crossings(change_crossings(d, subset), subset) == d


class TestIsomorphism:
    def test_relabeled_trefoil(self, trefoil):
        d = parse_pd("X[3,6,4,1] X[5,2,6,3] X[1,4,2,5]")
        assert planar_isomorphic(d, trefoil)
        assert canonical_key(d) == canonical_key(trefoil)

    def test_mirror_not_isomorphic(self, trefoil):
        assert not planar_isomorphic(mirror(trefoil), trefoil)
        assert planar_isomorphic(mirror(trefoil), trefoil, allow_reflection=True)

    def test_different_knots(self, trefoil, figure_eight):
        assert not planar_isomorphic(trefoil, figure_eight, allow_reflection=True)


class TestZeroCrossing:
    def test_loops(self):
        d = LinkDiagram((), (), 2)
        assert d.component_count == 2
        assert len(faces(d)) == 3  # k + 1


class TestOrientationOverride:
    def test_reversal_flips_linking(self):
        from specalt.invariants import linking_matrix, signature_nullity
        from specalt.diagram import checkerboard_negative
        from specalt.invariants import gl_signature
        hopf_pd = families.torus_2q(2).to_pd_text()
        d = parse_pd(hopf_pd)
        rev = parse_pd(hopf_pd, reverse_components=(1,))
        (lk0,) = linking_matrix(d).values()
        (lk1,) = linking_matrix(rev).values()
        assert lk1 == -lk0
        # both signature routes still agree on the reversed orientation
        sigma, _ = signature_nullity(rev)
        assert gl_signature(rev, checkerboard_negative(rev)) == sigma

    def test_full_reversal_preserves_linking_and_signature(self):
        from specalt.invariants import linking_matrix, signature_nullity
        pd = families.torus_2q(4).to_pd_text()
        d = parse_pd(pd)
        rev = parse_pd(pd, reverse_components=(0, 1))
        assert linking_matrix(rev) == linking_matrix(d)
        assert signature_nullity(rev) == signature_nullity(d)
