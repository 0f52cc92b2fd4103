import itertools
from fractions import Fraction

import pytest

from specalt.diagram import (parse_pd, checkerboard, checkerboard_negative,
                             change_crossings, mirror, DiagramError)
from specalt.invariants import (goeritz, _goeritz_form, gl_signature,
                                signature_nullity, determinant, linking_matrix,
                                unlinking_lower_bound, classical_invariants,
                                DegenerateColoring)
from specalt.linalg import det_bareiss
from specalt import families, seifert

from conftest import (TREFOIL_PD, SPLIT_TREFOILS_PD, TREFOIL_KINK_PD,
                      TREFOIL_MIRROR_PD, connected_sum)
from paper_claims import euler_check, PreconditionViolated
from test_lattice_kernel import is_positive_definite


class TestGoeritz:
    def test_trefoil_rank_one(self, trefoil):
        lat = goeritz(trefoil, checkerboard_negative(trefoil))
        assert lat.rank == 1
        assert lat.gram == ((3,),)

    def test_8_15_rank_and_identity(self, knot_8_15):
        lat = goeritz(knot_8_15, checkerboard_negative(knot_8_15))
        assert lat.rank == 4
        sigma = gl_signature(knot_8_15, checkerboard_negative(knot_8_15))
        assert lat.rank - sigma == knot_8_15.n == 8

    def test_connected_sum_block_structure(self):
        d = connected_sum(parse_pd(TREFOIL_PD), parse_pd(TREFOIL_PD))
        lat = goeritz(d, checkerboard_negative(d))
        assert lat.rank == 2
        # v_0 is the merged region, so the quotient splits into the two
        # trefoil blocks exactly
        assert lat.gram == ((3, 0), (0, 3))
        assert abs(det_bareiss(lat.gram)) == 9
        g = _goeritz_form(d, checkerboard_negative(d))[2]
        assert sorted(g[i][i] for i in range(3)) == [3, 3, 6]

    def test_degenerate_coloring_rejected(self, trefoil):
        cb = checkerboard(trefoil)
        assert all(mu == 1 for mu in cb.incidence)
        with pytest.raises(DegenerateColoring):
            goeritz(trefoil, cb)

    def test_diag_sum_is_twice_crossings(self, bundled):
        for rec in bundled:
            d = parse_pd(rec.pd)
            g = _goeritz_form(d, checkerboard_negative(d))[2]
            assert sum(g[i][i] for i in range(len(g))) == 2 * d.n, rec.name

    def test_positive_definite_everywhere(self, bundled):
        for rec in bundled:
            d = parse_pd(rec.pd)
            lat = goeritz(d, checkerboard_negative(d))
            assert is_positive_definite(lat.gram), rec.name

    def test_unquotiented_rows_sum_zero(self, knot_9_35):
        g = _goeritz_form(knot_9_35, checkerboard_negative(knot_9_35))[2]
        for row in g:
            assert sum(row) == 0


class TestSignatureRoutes:
    def test_8_15(self, knot_8_15):
        assert signature_nullity(knot_8_15) == (-4, 0)
        assert gl_signature(knot_8_15, checkerboard_negative(knot_8_15)) == -4

    def test_unknot(self):
        from specalt.diagram import LinkDiagram
        assert signature_nullity(LinkDiagram((), (), 1)) == (0, 0)

    def test_special_alternating_rank_formula(self, bundled):
        """positive special alternating: sigma = rank - n."""
        from specalt.diagram import is_special_alternating
        count = 0
        for rec in bundled:
            d = parse_pd(rec.pd)
            if not (is_special_alternating(d) and all(s == 1 for s in d.signs)):
                continue
            lat = goeritz(d, checkerboard_negative(d))
            sigma, _ = seifert.signature_nullity(d)
            assert sigma == lat.rank - d.n, rec.name
            count += 1
        assert count >= 20

    def test_mirror_negates(self, knot_9_35):
        s, e = signature_nullity(knot_9_35)
        sm, em = signature_nullity(mirror(knot_9_35))
        assert (sm, em) == (-s, e)


class TestDeterminant:
    def test_examples(self, trefoil, figure_eight, knot_8_15, knot_9_35):
        assert determinant(trefoil) == 3
        assert determinant(figure_eight) == 5
        assert determinant(knot_8_15) == 33
        assert determinant(knot_9_35) == 27

    def test_unknot_and_split(self):
        from specalt.diagram import LinkDiagram
        assert determinant(LinkDiagram((), (), 1)) == 1
        assert determinant(LinkDiagram((), (), 2)) == 0

    def test_spanning_tree_counts(self):
        # medial determinant = spanning trees of the white graph
        assert determinant(families.torus_2q(6)) == 6
        assert determinant(families.complete_bipartite_k2n(3)) == 12

    def test_crossing_change_double_is_identity(self, trefoil):
        assert determinant(change_crossings(trefoil, {1, 2})) == \
            determinant(change_crossings(trefoil, {1, 2}))

    def test_matches_seifert_route(self, bundled):
        from specalt.seifert import seifert_matrix
        for rec in bundled[:12]:
            d = parse_pd(rec.pd)
            v = seifert_matrix(d)
            n = len(v)
            sym = [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]
            assert abs(det_bareiss(sym)) == determinant(d), rec.name

    def test_changed_determinant_from_the_parent_form(self, special_rows):
        """|det| of D_S is read off the parent: its unquotiented Goeritz
        form on its own white regions, with the changed crossings' mu
        negated, then v_0 deleted.  Checked for every |S| <= 2 on the 116
        special alternating rows."""
        checked = 0
        for name, d in special_rows:
            c = checkerboard(d)
            whites, edges, _ = _goeritz_form(d, c)
            for m in (1, 2):
                for subset in itertools.combinations(range(d.n), m):
                    g = [[0] * len(whites) for _ in whites]
                    for cr, (a, b) in enumerate(edges):
                        mu = -c.incidence[cr] if cr in subset else c.incidence[cr]
                        g[a][b] += mu
                        g[b][a] += mu
                        g[a][a] -= mu
                        g[b][b] -= mu
                    got = abs(det_bareiss([row[1:] for row in g[1:]]))
                    assert got == determinant(change_crossings(d, subset)), (name, subset)
                    checked += 1
        assert checked == 7367


class TestLinkingAndBounds:
    def test_hopf_linking(self):
        hopf = families.torus_2q(2)
        lk = linking_matrix(hopf)
        assert list(lk.values()) == [Fraction(-1)] or list(lk.values()) == [Fraction(1)]

    def test_t24_linking(self):
        lk = linking_matrix(families.torus_2q(4))
        (val,) = lk.values()
        assert abs(val) == 2

    def test_knot_has_no_linking(self, trefoil):
        assert linking_matrix(trefoil) == {}

    def test_lower_bounds(self):
        assert unlinking_lower_bound(-6, 0, 1) == (Fraction(3), Fraction(3))
        assert unlinking_lower_bound(-4, 0, 1) == (Fraction(2), Fraction(2))
        assert unlinking_lower_bound(-2, 0, 1) == (Fraction(1), Fraction(1))
        # split links: the k-component unlink has eta = k - 1, so u >= 1 on
        # the first, u >= 2 on the second (attained by two changes) and only
        # u >= 0 on the last
        for pd, u in ((TREFOIL_MIRROR_PD, 0), (TREFOIL_KINK_PD, 1),
                      (SPLIT_TREFOILS_PD, 2)):
            d = parse_pd(pd)
            sigma, eta = signature_nullity(d)
            assert (abs(sigma), eta, d.component_count) == (2 * u, 1, 2), pd
            assert unlinking_lower_bound(sigma, eta, 2) == (Fraction(u), Fraction(u))

    def test_half_integer_bound_raises(self):
        """sigma + eta = k - 1 (mod 2) on every link, so a pair that breaks
        it is a wrong signature, not a bound of 1/2."""
        with pytest.raises(DiagramError, match="not an integer"):
            unlinking_lower_bound(-1, 0, 1)
        with pytest.raises(DiagramError, match="not an integer"):
            unlinking_lower_bound(-2, 0, 2)


class TestEulerCheck:
    def test_positive_special_fixtures(self, bundled):
        from specalt.diagram import is_special_alternating
        for rec in bundled:
            d = parse_pd(rec.pd)
            if is_special_alternating(d) and d.n and all(s == 1 for s in d.signs):
                assert euler_check(d, checkerboard_negative(d)), rec.name

    def test_rejects_non_special(self, figure_eight):
        with pytest.raises(PreconditionViolated):
            euler_check(figure_eight, checkerboard_negative(figure_eight))


class TestClassicalInvariants:
    def test_genus_report(self, knot_8_15, knot_9_35, trefoil):
        assert classical_invariants(knot_8_15).seifert_genus_report == 2
        assert classical_invariants(knot_9_35).seifert_genus_report == 1
        assert classical_invariants(trefoil).seifert_genus_report == 1

    def test_no_genus_for_non_special(self, figure_eight):
        assert classical_invariants(figure_eight).seifert_genus_report is None

    def test_genus_mirror_invariant(self, knot_8_15):
        assert classical_invariants(mirror(knot_8_15)).seifert_genus_report == 2

    def test_eta_zero_on_fixtures(self, bundled):
        for rec in bundled[:20]:
            d = parse_pd(rec.pd)
            assert classical_invariants(d).nullity == 0, rec.name
