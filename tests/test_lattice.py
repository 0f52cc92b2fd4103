import itertools
import json
from collections import Counter
import os
import random

import pytest

from specalt.diagram import (parse_pd, mirror, checkerboard_negative, is_twist_reduced,
                             twist_regions, _bigon_pairs, DiagramError)
from specalt.invariants import goeritz, _goeritz_form
from specalt.lattice import (LatticeEmbedding, find_pairing, obstruction,
                             clasp_candidates)

from paper_claims import (canonical_matrix, claim1_structure, goeritz_gram,
                          marked_region_pairs)
from test_lattice_kernel import (condition_all_coords, filtered_obstruction,
                                 is_positive_definite, naive_solutions,
                                 reference_enumerate_embeddings, verdict_key)


def fig2_matrix():
    path = os.path.join(os.path.dirname(__file__), "..", "src", "specalt",
                        "data", "figure2_embedding.json")
    with open(path) as fh:
        return [tuple(r) for r in json.load(fh)["full_matrix"]]


class TestEnumerate:
    def test_norm_three_in_z3(self):
        embs = list(reference_enumerate_embeddings(((3,),), 3))
        assert len(embs) == 1
        assert embs[0].images == ((1, 1, 1),)

    def test_a2_in_z3(self):
        embs = list(reference_enumerate_embeddings(((2, -1), (-1, 2)), 3))
        assert len(embs) == 1
        assert canonical_matrix(embs[0].images) == \
            canonical_matrix(((1, -1, 0), (0, 1, -1)))

    def test_unit_in_z1(self):
        embs = list(reference_enumerate_embeddings(((1,),), 1))
        assert [e.images for e in embs] == [((1,),)]

    def test_unembeddable_is_empty(self):
        assert list(reference_enumerate_embeddings(((7,),), 3)) == []

    def test_target_too_small(self):
        with pytest.raises(ValueError, match="below rank"):
            list(reference_enumerate_embeddings(((2, 0), (0, 2)), 1))

    def test_gram_revalidates(self, knot_8_15):
        lat = goeritz(knot_8_15, checkerboard_negative(knot_8_15))
        gram = goeritz_gram(lat)
        for emb in itertools.islice(reference_enumerate_embeddings(gram, 12), 5):
            assert tuple(tuple(sum(a * b for a, b in zip(r1, r2)) for r2 in emb.images)
                         for r1 in emb.images) == gram
            assert all(sum(col) == 0 for col in zip(*emb.full_matrix))


def random_gram(rnd, rank):
    while True:
        rows = [tuple(rnd.randint(-2, 2) for _ in range(3)) for _ in range(rank)]
        gram = tuple(tuple(sum(a * b for a, b in zip(r1, r2)) for r2 in rows)
                     for r1 in rows)
        if is_positive_definite(gram) and max(gram[i][i] for i in range(rank)) <= 4:
            return gram


class TestOrbitExhaustiveness:
    def test_counts_match_naive(self):
        rnd = random.Random(2024)
        cases = 0
        while cases < 8:
            rank = rnd.randint(1, 3)
            gram = random_gram(rnd, rank)
            n = rnd.randint(rank, 5)
            sols = naive_solutions(gram, n)
            naive_orbits = {canonical_matrix(m) for m in sols}
            reps = list(reference_enumerate_embeddings(gram, n))
            assert len(reps) == len(naive_orbits), (gram, n)
            assert {canonical_matrix(e.images) for e in reps} == naive_orbits
            cases += 1

    def test_orbit_expansion_matches_total(self):
        """Sum of orbit sizes over representatives = raw solution count."""
        rnd = random.Random(7)
        for _ in range(4):
            rank = rnd.randint(1, 2)
            gram = random_gram(rnd, rank)
            n = rnd.randint(rank, 4)
            sols = naive_solutions(gram, n)
            reps = list(reference_enumerate_embeddings(gram, n))
            total = 0
            for e in reps:
                orbit = set()
                cols = list(zip(*e.images))
                for perm in itertools.permutations(range(n)):
                    for signs in itertools.product((1, -1), repeat=n):
                        mat = tuple(zip(*[tuple(signs[i] * x for x in cols[perm[i]])
                                          for i in range(n)]))
                        orbit.add(mat)
                total += len(orbit)
            assert total == len(sols), (gram, n)


class TestConditions:
    def test_all_coords(self):
        e = LatticeEmbedding(((1, 1, 1),), 3)
        assert condition_all_coords(e)
        e2 = LatticeEmbedding(((1, -1, 0),), 3)
        assert not condition_all_coords(e2)

    def test_fig2_all_coords(self):
        full = fig2_matrix()
        e = LatticeEmbedding(tuple(full[1:]), 8)   # delete v_0 = first row?
        # rows of the fixture sum to zero, so dropping any one row keeps the
        # lattice; use rows after the first
        assert condition_all_coords(e)

    def test_find_pairing_simple(self):
        e = LatticeEmbedding(((1, 1, 1),), 3)
        pr = find_pairing(e, 1)
        assert pr is not None and len(pr.pairs) == 1

    def test_find_pairing_none(self):
        e = LatticeEmbedding(((2, 1, 0), (0, 1, 2)), 3)
        assert find_pairing(e, 1) is None

    def test_fig2_pairing(self):
        full = fig2_matrix()
        e = LatticeEmbedding(tuple(full[1:]), 8)
        pr = find_pairing(e, 2)
        assert pr is not None and len(pr.pairs) == 2

    def test_claim1(self):
        full = fig2_matrix()
        e = LatticeEmbedding(tuple(full[1:]), 8)
        assert claim1_structure(e)
        assert claim1_structure(LatticeEmbedding(((1, 1, 1),), 3))
        bad = LatticeEmbedding(((2, 1, 1), (-1, -1, -1)), 3)
        assert not claim1_structure(bad)


def brute_pairing_exists(matrix, p, n):
    """Independent check: p disjoint column pairs equal up to sign."""
    cols = list(zip(*matrix)) if matrix else [()] * n

    def rec(remaining, need):
        if need == 0:
            return True
        if len(remaining) < 2 * need:
            return False
        a = remaining[0]
        rest = remaining[1:]
        for i, b in enumerate(rest):
            ca, cb = cols[a], cols[b]
            if ca == cb or ca == tuple(-x for x in cb):
                if rec(rest[:i] + rest[i + 1:], need - 1):
                    return True
        return rec(rest, need)

    return rec(list(range(n)), p)


def brute_pairing_signed_perms(matrix, p, n):
    """Literal condition (ii): some signed permutation makes column i equal
    column i+p for i < p."""
    cols = list(zip(*matrix))
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            new = [tuple(signs[i] * x for x in cols[perm[i]]) for i in range(n)]
            if all(new[i] == new[i + p] for i in range(p)):
                return True
    return False


class TestPairingBruteForce:
    def test_matches_disjoint_pair_search(self):
        rnd = random.Random(99)
        for _ in range(40):
            r = rnd.randint(1, 3)
            n = rnd.randint(2, 6)
            mat = tuple(tuple(rnd.randint(-2, 2) for _ in range(n))
                        for _ in range(r))
            e = LatticeEmbedding(mat, n)
            for p in (1, 2):
                got = find_pairing(e, p) is not None
                # full matrix includes the zero-sum completion row
                want = brute_pairing_exists(e.full_matrix, p, n)
                assert got == want, (mat, p)

    def test_matches_signed_permutations_small(self):
        rnd = random.Random(5)
        for _ in range(12):
            r = rnd.randint(1, 2)
            n = rnd.randint(2, 4)
            mat = tuple(tuple(rnd.randint(-1, 1) for _ in range(n))
                        for _ in range(r))
            e = LatticeEmbedding(mat, n)
            p = 1
            got = find_pairing(e, p) is not None
            want = brute_pairing_signed_perms(e.full_matrix, p, n)
            assert got == want, mat


class TestObstruction:
    def test_trefoil_admissible(self, trefoil):
        """The embedding is the class of ((1, 1, 1),), and its one pair marks
        the trefoil's two white regions."""
        v = obstruction(trefoil)
        assert v.admissible
        assert canonical_matrix(v.embedding.images) == ((1, 1, 1),)
        assert marked_region_pairs(v.embedding, v.pairing) == Counter({frozenset({0, 1}): 1})

    def test_8_15_matches_figure(self, knot_8_15):
        v = obstruction(knot_8_15)
        assert v.admissible and v.p == 2 and v.target_dim == 8
        full = v.embedding.full_matrix
        fig2 = fig2_matrix()
        assert any(canonical_matrix(tuple(fig2[i] for i in perm)) == canonical_matrix(full)
                   for perm in itertools.permutations(range(5)))

    def test_9_35_obstructed(self, knot_9_35):
        """Exhausted, as the full enumeration filtered by (i) and (ii) says:
        the white regions' pairs carry fewer than p disjoint clasps."""
        v = obstruction(knot_9_35)
        assert not v.admissible
        assert v.reason == "exhausted"
        assert verdict_key(v) == filtered_obstruction(knot_9_35)[0]
        g = _goeritz_form(v.lattice.coloring.diagram, v.lattice.coloring)[2]
        assert sum(-g[i][j] // 2 for i in range(len(g)) for j in range(i)) < v.p

    def test_non_integer_p_raises(self, trefoil, monkeypatch):
        """sigma = k - 1 (mod 2) on a connected alternating diagram, so an
        odd |sigma| + k - 1 means a wrong signature, not a verdict."""
        import dataclasses
        from specalt import lattice
        real = lattice.goeritz

        def off_by_one(d, c):
            lat = real(d, c)
            return dataclasses.replace(lat, sigma=lat.sigma + 1)

        monkeypatch.setattr(lattice, "goeritz", off_by_one)
        with pytest.raises(DiagramError, match="not an integer"):
            obstruction(trefoil)

    def test_mirrored_input_same_verdict(self, knot_9_35, knot_8_15):
        assert not obstruction(mirror(knot_9_35)).admissible
        assert obstruction(mirror(knot_8_15)).admissible

    def test_generator_permutation_invariance(self):
        gram = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
        counts = set()
        for perm in itertools.permutations(range(3)):
            g2 = tuple(tuple(gram[perm[i]][perm[j]] for j in range(3))
                       for i in range(3))
            counts.add(len(list(reference_enumerate_embeddings(g2, 4))))
        assert len(counts) == 1

    def test_claim1_on_admissible_special_fixtures(self, special_rows):
        """Every admissible verdict of the 116 special alternating rows of
        the fixtures, the named table and ``paper13`` covers and has
        Claim 1's column structure."""
        checked = 0
        for name, d in special_rows:
            v = obstruction(d)
            if v.admissible:
                lat = v.lattice
                g = _goeritz_form(lat.coloring.diagram, lat.coloring)[2]
                assert len(g) == lat.rank + 1
                assert sum(g[i][i] for i in range(len(g))) == 2 * d.n
                assert condition_all_coords(v.embedding)
                assert claim1_structure(v.embedding), name
                checked += 1
        assert checked == 28

    def test_pairs_name_parallel_crossings(self, special_rows):
        """On the 116 rows and their mirrors each pair (a, b, eps) of an
        admissible verdict names two crossings between the same two white
        regions, with eps = +1 exactly when their edges agree as ordered
        pairs.  On a twist-reduced side the two crossings lie in one twist
        region and share a bigon, so one of them is a clasp hint."""
        sides = reduced_sides = pairs = 0
        for name, d in special_rows:
            for side in (d, mirror(d)):
                v = obstruction(side)
                if not v.admissible:
                    continue
                edges = v.lattice.edges
                dd = v.lattice.coloring.diagram
                tw = twist_regions(dd)
                reduced = is_twist_reduced(dd, tw)
                bigons = {frozenset(pair) for pair in _bigon_pairs(dd)}
                for a, b, eps in v.pairing.pairs:
                    assert sorted(edges[a]) == sorted(edges[b]), name
                    assert (eps == 1) == (edges[a] == edges[b]), name
                    if reduced:
                        assert tw.region_of(a) == tw.region_of(b), name
                        assert frozenset((a, b)) in bigons, name
                    pairs += 1
                sides += 1
                reduced_sides += reduced
        assert (sides, reduced_sides, pairs) == (56, 50, 110)


class TestClaspCandidates:
    def test_8_15_two_crossings(self, knot_8_15):
        v = obstruction(knot_8_15)
        clasp = clasp_candidates(v)
        assert len(clasp) == 2
        assert len(set(clasp)) == 2
        # each hinted crossing is clasped: it shares a bigon with another one
        from specalt.diagram import _bigon_pairs
        bigons = _bigon_pairs(v.lattice.coloring.diagram)
        assert all(any(c in pair for pair in bigons) for c in clasp)

    def test_trefoil_single(self, trefoil):
        v = obstruction(trefoil)
        assert len(clasp_candidates(v)) == 1

    def test_clasp_crossings_certify(self, trefoil, knot_8_15):
        from specalt.unknotting import certify_unlink
        from specalt.diagram import change_crossings
        for d in (trefoil, knot_8_15):
            v = obstruction(d)
            cert = certify_unlink(change_crossings(v.lattice.coloring.diagram,
                                                   clasp_candidates(v)))
            assert cert.status == "certified", d

    def test_non_twist_reduced_gives_no_hint(self):
        """An 11-crossing medial diagram with two crossings between one
        pair of regions that form no bigon: special alternating and
        admissible, but not twist-reduced, so Claim 2 names no clasp."""
        from specalt.diagram import is_twist_reduced, twist_regions
        d = parse_pd("X[22,11,1,12] X[16,1,17,2] X[2,15,3,16] X[10,21,11,22] "
                     "X[8,19,9,20] X[20,17,21,18] X[6,9,7,10] X[18,7,19,8] "
                     "X[14,3,15,4] X[4,13,5,14] X[12,5,13,6]")
        assert not is_twist_reduced(d, twist_regions(d))
        v = obstruction(d)
        assert v.admissible
        assert clasp_candidates(v) == ()

    def test_rejects_obstructed_verdict(self, knot_9_35):
        v = obstruction(knot_9_35)
        assert not v.admissible
        with pytest.raises(DiagramError):
            clasp_candidates(v)
