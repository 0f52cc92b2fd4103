"""Randomized deep checks tying the independent routes together."""

import json
import random

from specalt.diagram import (LinkDiagram, parse_pd, change_crossings,
                             checkerboard_negative, is_special_alternating, mirror,
                             split_components, validate)
from specalt.families import medial_special_alternating
from specalt.invariants import (gl_signature, signature_nullity, determinant,
                                goeritz, linking_matrix, unlinking_lower_bound)
from specalt.seifert import seifert_matrix
from specalt import seifert
from specalt.linalg import det_bareiss
from specalt.bracket import normalized_bracket, unlink_normalized_bracket
from specalt.tables import data_path, load_table
from specalt.unknotting import certify_unlink, replay_moves
from specalt.moves import (move_from_json, apply_move, r2plus_sites, r3_sites,
                           apply_r2plus, apply_r3)
from specalt import families

from paper_claims import euler_check, goeritz_gram


def random_plane_bipartite_graph(rnd, grow_steps):
    """Connected bridgeless loopless plane bipartite multigraph, built from
    an even cycle by planarity- and parity-preserving growth moves."""
    m = rnd.choice([2, 3])
    rot = {}
    for i in range(2 * m):
        rot[("v", i)] = [("c", i), ("c", (i - 1) % (2 * m))]
    fresh = [0]

    def new_id(tag):
        fresh[0] += 1
        return (tag, fresh[0])

    def endpoints(eid):
        out = []
        for v, darts in rot.items():
            for pos, d in enumerate(darts):
                if d == eid:
                    out.append((v, pos))
        return out

    for _ in range(grow_steps):
        all_edges = sorted({d for darts in rot.values() for d in darts},
                           key=repr)
        e = rnd.choice(all_edges)
        (u, pu), (v, pv) = endpoints(e)
        op = rnd.choice(["dup", "subdiv", "theta"])
        if op == "dup":
            e2 = new_id("d")
            rot[u].insert(pu + 1, e2)
            (v, pv), = [x for x in endpoints(e) if x[0] == v]
            rot[v].insert(pv, e2)
        elif op == "subdiv":
            x, y = new_id("x"), new_id("x")
            e1, e2, e3 = new_id("s"), new_id("s"), new_id("s")
            rot[u][pu] = e1
            rot[v][pv] = e3
            rot[x] = [e1, e2]
            rot[y] = [e2, e3]
        else:
            a, b = new_id("t"), new_id("t")
            f1, f2, f3 = new_id("f"), new_id("f"), new_id("f")
            rot[u].insert(pu + 1, f1)
            (v, pv), = [x for x in endpoints(e) if x[0] == v]
            rot[v].insert(pv, f3)
            rot[a] = [f1, f2]
            rot[b] = [f2, f3]
    return rot


class TestRandomMedialPipeline:
    def test_oracle_agreement_on_random_graphs(self):
        rnd = random.Random(424242)
        built = 0
        while built < 12:
            rot = random_plane_bipartite_graph(rnd, rnd.randint(0, 3))
            d = medial_special_alternating(rot)
            if d.n > 13:
                continue
            built += 1
            assert is_special_alternating(d)
            cb = checkerboard_negative(d)
            sigma, eta = seifert.signature_nullity(d)
            assert gl_signature(d, cb) == sigma
            assert eta == 0
            lat = goeritz(d, cb)
            assert sigma == lat.rank - d.n          # positive special identity
            assert euler_check(d, cb)
            # determinant = spanning-tree count is odd iff knot (det parity)
            assert determinant(d) == abs(det_bareiss(goeritz_gram(lat)))

    def test_determinant_routes_agree_after_changes(self):
        """Also: crossing changes, mirrors, component splits and orientation
        reversals skip validation, so each result must still pass it."""
        rnd = random.Random(31337)
        pool = [families.knot_8_15(), families.knot_9_35(),
                families.rational_link([3, 2]), families.torus_2q(5),
                families.ladder(3)]
        trefoil = families.trefoil()
        for base in pool:
            pd = base.to_pd_text()
            validate(mirror(base))
            for k in range(base.component_count):
                validate(parse_pd(pd, reverse_components=(k,)))
            validate(parse_pd(pd, reverse_components=tuple(range(base.component_count))))
            shifted = " ".join("X[%d,%d,%d,%d]" % tuple(e + 2 * base.n for e in q)
                               for q in trefoil.quads)
            parts = split_components(parse_pd(pd + " " + shifted))
            assert [p.n for p in parts] == [base.n, 3]
            for part in parts:
                validate(part)
            for _ in range(3):
                subset = rnd.sample(range(base.n), rnd.randint(1, base.n))
                d = change_crossings(base, subset)
                validate(d)
                v = seifert_matrix(d)
                n = len(v)
                sym = [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]
                assert abs(det_bareiss(sym)) == determinant(d)


def split_union(d1, d2):
    """The split union of two diagrams, side by side in the plane."""
    shift = max(e for q in d1.quads for e in q)
    quads = tuple(tuple(e + shift for e in q) for q in d2.quads)
    return validate(LinkDiagram(d1.quads + quads, d1.incoming + d2.incoming, 0))


class TestParityLaw:
    def test_sigma_plus_eta_is_k_minus_one_mod_two(self, bundled):
        """sigma + eta = k - 1 (mod 2) and every linking number is an
        integer, on every fixture and named row, on a random crossing change
        of each and on a split union of each with another; so both bounds
        of ``unlinking_lower_bound`` are integers.  The law is read from
        the oracle, and the pipeline's route must give the same pair."""
        rnd = random.Random(1965)
        named, _ = load_table(data_path("named_pd_codes.csv"))
        bases = [parse_pd(rec.pd) for rec in bundled + named]
        diagrams = []
        for d in bases:
            subset = rnd.sample(range(d.n), rnd.randint(1, d.n))
            diagrams += [d, change_crossings(d, subset), split_union(d, rnd.choice(bases))]
        for d in diagrams:
            sigma, eta = seifert.signature_nullity(d)
            assert signature_nullity(d) == (sigma, eta), d.to_pd_text()
            k = d.component_count
            assert (sigma + eta - (k - 1)) % 2 == 0, d.to_pd_text()
            assert all(type(lk) is int for lk in linking_matrix(d).values())
            u, c4 = unlinking_lower_bound(sigma, eta, k)
            assert type(u) is int and type(c4) is int and 0 <= c4 <= u
        assert len(diagrams) == 3 * len(bases) > 300


class TestScrambledUnknots:
    def _scramble(self, d, rnd, steps):
        for _ in range(steps):
            moves = []
            if d.n <= 7:
                moves += [("r2plus", s) for s in r2plus_sites(d)]
            moves += [("r3", s) for s in r3_sites(d)]
            if not moves:
                break
            kind, site = rnd.choice(moves)
            d = apply_r2plus(d, site) if kind == "r2plus" else apply_r3(d, site)
        return d

    def test_certifier_untangles(self, trefoil):
        rnd = random.Random(777)
        base = change_crossings(trefoil, {0})   # an unknot diagram
        for trial in range(6):
            messy = self._scramble(base, rnd, rnd.randint(2, 4))
            cert = certify_unlink(messy)
            assert cert.status == "certified", trial
            final = replay_moves(messy, cert.moves)
            assert final.n == 0 and final.free_loops == 1

    def test_scrambled_nontrivial_stays_refuted(self, trefoil):
        rnd = random.Random(778)
        messy = self._scramble(trefoil, rnd, 3)
        cert = certify_unlink(messy)
        assert cert.status == "refuted"
        assert cert.invariant == "determinant" and cert.value == "3"


class TestBracketAnchors:
    def test_trefoil_value_up_to_global_mirror(self, trefoil):
        # the two classical values differ by the A <-> 1/A bit, which is
        # irrelevant to refutation (unlink values are symmetric)
        f = normalized_bracket(trefoil)
        assert f in ({4: 1, 12: 1, 16: -1}, {-4: 1, -12: 1, -16: -1})

    def test_alternating_span_theorem(self, trefoil, knot_8_15):
        # reduced alternating diagrams: bracket span = 4n
        from specalt.bracket import kauffman_bracket
        for d in (trefoil, knot_8_15, families.rational_link([2, 2])):
            b = kauffman_bracket(d)
            assert max(b) - min(b) == 4 * d.n

    def test_determinant_evaluation(self, trefoil, knot_8_15):
        import cmath
        for d in (trefoil, knot_8_15, families.torus_2q(2)):
            f = normalized_bracket(d)
            val = abs(sum(c * cmath.exp(1j * cmath.pi / 4) ** e
                          for e, c in f.items()))
            assert abs(val - determinant(d)) < 1e-9

    def test_mirror_inverts_variable(self, trefoil):
        from specalt.diagram import mirror
        f = normalized_bracket(trefoil)
        fm = normalized_bracket(mirror(trefoil))
        assert fm == {-e: c for e, c in f.items()}

    def test_unknot_diagrams_trivial(self):
        for pd in ["X[1,2,2,1]", "X[2,1,1,2]"]:
            assert normalized_bracket(parse_pd(pd)) == {0: 1}

    def test_hopf_value_up_to_global_mirror(self):
        f = normalized_bracket(families.torus_2q(2))
        assert f in ({-2: -1, -10: -1}, {2: -1, 10: -1})

    def test_unlink_values(self):
        assert unlink_normalized_bracket(1) == {0: 1}
        assert unlink_normalized_bracket(3) == \
            {e: c for e, c in {4: 1, 0: 2, -4: 1}.items()}


class TestKnownUnlinkingNumbers:
    def test_determined_values_match_tables(self, bundled):
        """Where the pipeline pins u exactly, it must equal the classical
        table value recorded in the fixtures CSV."""
        from specalt.tables import analyze
        determined = 0
        for rec in bundled:
            if rec.known_u is None or len(rec.known_u) != 1:
                continue
            row = analyze(rec)
            assert row.ok, rec.name
            (known,) = rec.known_u
            if row.u_lower == row.u_upper and row.u_upper is not None:
                assert row.u_lower == known, (rec.name, row.u_lower, known)
                determined += 1
            elif row.u_upper is not None:
                assert row.u_lower <= known <= row.u_upper, rec.name
        assert determined >= 10

    def test_9_35_bounds_contain_table_value(self, bundled):
        from specalt.tables import analyze
        rec = next(r for r in bundled if r.name == "9_35")
        row = analyze(rec)
        assert (row.u_lower, row.u_upper) == (2, 3)
        assert rec.known_u == frozenset({3})


from hypothesis import given, settings, strategies as st


class TestRationalHypothesis:
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_rational_links_verify(self, coeffs):
        from fractions import Fraction
        from specalt.diagram import checkerboard_negative
        from specalt.invariants import gl_signature
        d = families.rational_link(list(coeffs))
        assert d.is_alternating and d.is_connected
        value = Fraction(coeffs[0])
        for a in coeffs[1:]:
            value = a + 1 / value
        assert determinant(d) == value.numerator
        sigma, eta = seifert.signature_nullity(d)
        assert gl_signature(d, checkerboard_negative(d)) == sigma
        assert eta == 0


class TestGordonLitherlandHypothesis:
    @staticmethod
    def _draw_diagram(data, bundled):
        """A fixture with a random subset of its components reversed and a
        random subset of its crossings changed."""
        rec = data.draw(st.sampled_from(bundled))
        k = rec.diagram.component_count
        reversed_ = data.draw(st.sets(st.integers(0, k - 1)))
        d = parse_pd(rec.pd, reverse_components=tuple(sorted(reversed_)))
        return change_crossings(d, data.draw(st.sets(st.integers(0, d.n - 1))))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_seifert_oracle(self, bundled, data):
        """``invariants.signature_nullity`` (Gordon-Litherland) equals the
        Seifert-matrix oracle on modified fixtures, split unions of two of
        them and extra free loops."""
        d = self._draw_diagram(data, bundled)
        if data.draw(st.booleans()):
            d = split_union(d, self._draw_diagram(data, bundled))
        loops = data.draw(st.integers(0, 2))
        d = LinkDiagram(d.quads, d.incoming, d.free_loops + loops)
        assert signature_nullity(d) == seifert.signature_nullity(d), \
            (d.to_pd_text(), d.free_loops)


class TestCertificateJson:
    def test_move_log_json_roundtrip(self, knot_8_15):
        d = change_crossings(knot_8_15, (0, 1))
        cert = certify_unlink(d)
        assert cert.status == "certified"
        blob = json.dumps(cert.to_json())
        decoded = json.loads(blob)
        moves = [move_from_json(m) for m in decoded["moves"]]
        cur = d
        for mv in moves:
            cur = apply_move(cur, mv)
        assert cur.n == 0 and cur.free_loops == decoded["final_loops"]

    def test_refuted_json(self, trefoil):
        cert = certify_unlink(trefoil)
        blob = cert.to_json()
        assert blob["status"] == "refuted" and blob["invariant"] == "determinant"
