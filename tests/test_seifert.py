import random

import pytest

from specalt import moves, seifert
from specalt.diagram import parse_pd, change_crossings, mirror, LinkDiagram
from specalt.seifert import (seifert_circles, seifert_matrix, signature_nullity,
                             isotope_to_braid_form)
from specalt.invariants import gl_signature
from specalt.diagram import checkerboard_negative
from specalt.linalg import symmetric_signature_nullity

# externally known signature magnitudes and determinants for classical names
CLASSICAL = {
    "3_1": (2, 3), "4_1": (0, 5), "5_1": (4, 5), "5_2": (2, 7),
    "6_1": (0, 9), "6_3": (0, 13), "7_1": (6, 7), "7_2": (2, 11),
    "7_4": (2, 15), "8_1": (0, 13), "8_15": (4, 33), "9_1": (8, 9),
    "9_2": (2, 15), "9_35": (2, 27), "hopf": (1, 2), "t2_4": (3, 4),
    "t2_6": (5, 6), "t2_8": (7, 8),
}


class TestSeifertMatrix:
    def test_trefoil(self, trefoil):
        v = seifert_matrix(trefoil)
        assert len(v) == 2
        sym = [[v[i][j] + v[j][i] for j in range(2)] for i in range(2)]
        assert symmetric_signature_nullity(sym) == (-2, 0)

    def test_figure_eight(self, figure_eight):
        v = seifert_matrix(figure_eight)
        assert len(v) == 2
        sym = [[v[i][j] + v[j][i] for j in range(2)] for i in range(2)]
        assert symmetric_signature_nullity(sym) == (0, 0)

    def test_unknot_empty(self):
        assert seifert_matrix(LinkDiagram((), (), 1)) == []

    def test_size_matches_surface_homology(self, bundled):
        for rec in bundled[:10]:
            d = parse_pd(rec.pd)
            braided = isotope_to_braid_form(d)
            s = len(seifert_circles(braided))
            v = seifert_matrix(d)
            assert len(v) == braided.n - s + 1, rec.name


class TestSignatureNullity:
    def test_classical_magnitudes(self, bundled):
        by_name = {r.name: r for r in bundled}
        for name, (abs_sigma, det) in CLASSICAL.items():
            d = parse_pd(by_name[name].pd)
            sigma, eta = signature_nullity(d)
            assert abs(sigma) == abs_sigma, name
            assert eta == 0, name

    def test_positive_diagrams_negative_signature(self, bundled):
        for rec in bundled:
            d = parse_pd(rec.pd)
            if d.n and all(s == 1 for s in d.signs):
                sigma, _ = signature_nullity(d)
                assert sigma < 0, rec.name

    def test_mirror_negates(self, trefoil):
        assert signature_nullity(mirror(trefoil)) == (2, 0)

    def test_split_additivity(self, trefoil):
        from conftest import TREFOIL_PD
        d = parse_pd(TREFOIL_PD + " X[7,10,8,11] X[9,12,10,7] X[11,8,12,9]")
        sigma, eta = signature_nullity(d)
        assert sigma == -4
        assert eta == 1  # one extra split component

    def test_unlink_nullity(self):
        assert signature_nullity(LinkDiagram((), (), 3)) == (0, 2)


class TestOracleAgreement:
    def test_all_bundled(self, bundled):
        for rec in bundled:
            d = parse_pd(rec.pd)
            sigma, eta = signature_nullity(d)
            assert gl_signature(d, checkerboard_negative(d)) == sigma, rec.name
            assert eta == 0, rec.name

    def test_on_random_mirrors(self, bundled):
        rng = random.Random(5)
        for rec in rng.sample(bundled, 8):
            d = mirror(parse_pd(rec.pd))
            sigma, eta = signature_nullity(d)
            assert gl_signature(d, checkerboard_negative(d)) == sigma, rec.name


class TestVogelRobustness:
    def test_non_alternating_inputs(self, bundled):
        """signature_nullity must survive arbitrary crossing changes."""
        rng = random.Random(11)
        for rec in rng.sample(bundled, 10):
            d = parse_pd(rec.pd)
            subset = rng.sample(range(d.n), max(1, d.n // 3))
            dc = change_crossings(d, subset)
            sigma, eta = signature_nullity(dc)
            assert isinstance(sigma, int) and eta >= 0

    def test_braid_form_is_stable(self, trefoil):
        braided = isotope_to_braid_form(trefoil)
        assert braided == isotope_to_braid_form(braided)

    def test_vogel_moves_within_bound(self, bundled):
        """Vogel's algorithm braids a diagram with s Seifert circles in at
        most (s - 1)(s - 2) / 2 moves, each adding two crossings and
        keeping the circles' count.  The loop is capped one above that
        bound, and every bundled fixture reaches braid form, 44 of them by
        at least one move."""
        moved = 0
        for rec in bundled:
            d = parse_pd(rec.pd)
            s = len(seifert_circles(d))
            bound = (s - 1) * (s - 2) // 2
            braided = isotope_to_braid_form(d)
            assert braided.n <= d.n + 2 * bound, rec.name
            assert len(seifert_circles(braided)) == s, rec.name
            moved += braided.n > d.n
        assert moved == 44

    def test_a_site_that_never_converges_stops_at_the_bound(self, knot_8_15,
                                                              monkeypatch):
        """A site on one circle is not Vogel's: its move leaves the circles
        unnested.  Picking it every time, the loop gives up after
        (s - 1)(s - 2) / 2 + 1 sites."""
        picked = []

        def one_circle_site(d, circle_of):
            picked.append(d)
            for da, db in moves.r2plus_sites(d):
                if circle_of[d.quads[da[0]][(da[1] + 1) % 4]] == \
                        circle_of[d.quads[db[0]][(db[1] + 1) % 4]]:
                    return (da, db)
            return None

        monkeypatch.setattr(seifert, "_vogel_site", one_circle_site)
        s = len(seifert_circles(knot_8_15))
        with pytest.raises(seifert.SeifertError, match="did not stabilize"):
            isotope_to_braid_form(knot_8_15)
        assert len(picked) == (s - 1) * (s - 2) // 2 + 1 == 7
