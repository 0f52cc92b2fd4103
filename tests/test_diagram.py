import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from specalt.diagram import (parse_pd, DiagramError, NotAlternating,
                             checkerboard, checkerboard_negative,
                             is_special_alternating,
                             reduce_nugatory, twist_regions, is_twist_reduced,
                             change_crossings, mirror, split_components,
                             canonical_key, LinkDiagram,
                             validate, _resolve_orientations)
from specalt import families
from specalt.invariants import _goeritz_form
from specalt.tables import load_table, data_path

from conftest import TREFOIL_PD, reflect_plane

PAPER13_CSV = Path(__file__).parent.parent / "perfbench" / "data" / "paper13.csv"

# Codes whose nugatory untwisting flips a tangle, which leaves slot 0 of
# some crossings outgoing until the flip rotates them by two.
NUG_A = ("X[14,5,1,6] X[4,13,5,4] X[12,3,13,14] X[6,11,7,12] X[10,7,11,8] "
         "X[2,9,3,10] X[8,1,9,2]")
NUG_B = ("X[16,3,1,4] X[4,15,5,16] X[6,5,15,6] X[14,13,7,14] X[12,7,13,8] "
         "X[8,11,9,12] X[2,10,3,9] X[10,2,11,1]")


class TestParsePD:
    def test_trefoil(self, trefoil):
        assert trefoil.n == 3
        assert len(trefoil.edge_ends) == 6
        assert trefoil.component_count == 1

    def test_one_crossing_unknot(self):
        d = parse_pd("X[1,2,2,1]")
        assert d.n == 1
        assert len(d.faces) == 3

    def test_wrapper_and_commas(self, trefoil):
        d = parse_pd("PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]")
        assert d == trefoil

    def test_arity_error(self):
        with pytest.raises(DiagramError):
            parse_pd("X[1,2,3]")

    def test_duplicate_labels_error(self):
        with pytest.raises(DiagramError):
            parse_pd("X[1,1,1,1]")

    @pytest.mark.parametrize("pd, bad", [
        # labels 3 and 7 once each
        ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,7]", [3, 7]),
        # labels 1 and 7 three times each
        ("X[1,4,2,7] X[3,6,4,1] X[7,2,6,3] X[1,7,5,5]", [1, 7]),
    ])
    def test_label_count_error_names_labels(self, pd, bad):
        message = f"edge labels not occurring exactly twice: {bad}"
        with pytest.raises(DiagramError, match=re.escape(message)):
            parse_pd(pd)
        quads = tuple(tuple(int(x) for x in q.split(","))
                      for q in re.findall(r"X\[([^\]]*)\]", pd))
        raw = LinkDiagram(quads, ((True, True, False, False),) * len(quads))
        with pytest.raises(DiagramError, match=re.escape(message)):
            raw.edge_ends
        with pytest.raises(DiagramError, match=re.escape(message)):
            validate(raw)

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


class TestFigureEight:
    def test_figure_eight(self, figure_eight):
        assert figure_eight.n == 4
        assert figure_eight.is_alternating
        assert sorted(figure_eight.signs) == [-1, -1, 1, 1]


class TestFaces:
    def test_euler_formula_all_fixtures(self, bundled):
        for rec in bundled:
            d = parse_pd(rec.pd)
            assert len(d.faces) == d.n + 2, rec.name

    def test_8_15_face_count(self, knot_8_15):
        assert len(knot_8_15.faces) == 10

    def test_trefoil_bigons(self, trefoil):
        sizes = sorted(len(f) for f in trefoil.faces)
        assert sizes == [2, 2, 2, 3, 3]


def white_faces(cb):
    """The white faces of ``cb``, as the Goeritz form reads them."""
    return _goeritz_form(cb.diagram, cb)[0]


class TestCheckerboard:
    def test_trefoil_negative(self, trefoil):
        cb = checkerboard_negative(trefoil)
        assert all(mu == -1 for mu in cb.incidence)
        assert len(white_faces(cb)) == 2

    def test_complementary_coloring_flips(self, trefoil):
        cb = checkerboard(trefoil)
        cb2 = checkerboard_negative(trefoil)
        assert all(a == -b for a, b in zip(cb.incidence, cb2.incidence))

    def test_8_15_five_whites(self, knot_8_15):
        cb = checkerboard_negative(knot_8_15)
        assert len(white_faces(cb)) == 5

    def test_not_alternating(self, trefoil):
        d = change_crossings(trefoil, {0})
        with pytest.raises(NotAlternating):
            checkerboard_negative(d)

    def test_all_fixtures_negative(self, bundled):
        for rec in bundled:
            d = parse_pd(rec.pd)
            cb = checkerboard_negative(d)
            assert all(mu == -1 for mu in cb.incidence), rec.name

    def test_colouring_properties(self, bundled):
        """On every fixture, named and paper13 diagram, its mirror and six
        random crossing changes of each, the faces beside an edge differ,
        mu(c) = -1 exactly when q_1 is white, q_0 of each component's first
        crossing is white, and the negative colouring of an alternating
        diagram is the complement."""
        named, errors = load_table(data_path("named_pd_codes.csv"))
        assert not errors
        paper13, errors = load_table(PAPER13_CSV)
        assert not errors
        rnd = random.Random(9)
        diagrams = []
        for rec in bundled + named + paper13:
            for base in (rec.diagram, mirror(rec.diagram)):
                diagrams.append(base)
                diagrams += [change_crossings(base, rnd.sample(range(base.n),
                                                               rnd.randint(1, base.n)))
                             for _ in range(6)]
        assert len(diagrams) == 133 * 14
        for d in diagrams:
            cb = checkerboard(d)
            white = set(white_faces(cb))
            corner = d.face_index
            for c in range(d.n):
                assert (cb.incidence[c] == -1) == (corner[(c, 1)] in white)
                for a in range(4):
                    assert (corner[(c, (a - 1) % 4)] in white) != (corner[(c, a)] in white)
            assert all(corner[(comp[0], 0)] in white for comp in d._crossing_components)
            if d.is_alternating:
                neg = set(white_faces(checkerboard_negative(d)))
                assert neg == set(range(len(d.faces))) - white


class TestSigns:
    def test_trefoil_positive(self, trefoil):
        assert trefoil.signs == (1, 1, 1)

    def test_figure_eight_balanced(self, figure_eight):
        assert figure_eight.writhe == 0

    def test_mirror_negates(self, trefoil):
        assert mirror(trefoil).signs == (-1, -1, -1)


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
        assert canonical_key(r) == canonical_key(trefoil)

    def test_idempotent(self):
        k = parse_pd("X[1,4,2,5] X[3,6,4,7] X[5,2,6,3] X[7,1,8,8]")
        r = reduce_nugatory(k)
        assert reduce_nugatory(r) == r

    def test_nugatory_with_tangle_flip(self):
        """A twisted connected sum: untwisting must flip a whole trefoil
        summand while preserving the oriented link type."""
        from conftest import connected_sum
        from specalt.diagram import _Builder
        from specalt.invariants import signature_nullity, determinant
        conn = connected_sum(parse_pd(TREFOIL_PD), parse_pd(TREFOIL_PD))
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

    @pytest.mark.parametrize("pd", [NUG_A, NUG_B], ids=["nug_a", "nug_b"])
    def test_tangle_flip_keeps_invariants(self, pd):
        from specalt.invariants import signature_nullity, determinant, linking_matrix
        from specalt.bracket import normalized_bracket
        d = parse_pd(pd)
        red = validate(reduce_nugatory(d))
        assert red.n < d.n
        assert signature_nullity(red) == signature_nullity(d)
        assert determinant(red) == determinant(d)
        assert red.component_count == d.component_count
        assert linking_matrix(red) == linking_matrix(d)
        assert normalized_bracket(red) == normalized_bracket(d)


class TestTwistRegions:
    def test_trefoil_single_cyclic_region(self, trefoil):
        tw = twist_regions(trefoil)
        assert len(tw.regions) == 1
        assert sorted(tw.regions[0]) == [0, 1, 2]
        assert is_twist_reduced(trefoil, tw)

    def test_torus_chain(self):
        d = families.torus_2q(4)
        tw = twist_regions(d)
        assert len(tw.regions) == 1
        assert len(tw.regions[0]) == 4

    def test_8_15_twist_reduced(self, knot_8_15):
        tw = twist_regions(knot_8_15)
        assert is_twist_reduced(knot_8_15, tw)
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


def _relabel(d: LinkDiagram, rnd: random.Random) -> LinkDiagram:
    """``d`` with its crossings permuted and its edges renamed at random."""
    perm = rnd.sample(range(d.n), d.n)
    labels = sorted(d.edge_ends)
    rename = dict(zip(labels, rnd.sample(labels, len(labels))))
    quads: list = [None] * d.n
    incoming: list = [None] * d.n
    for c in range(d.n):
        quads[perm[c]] = tuple(rename[e] for e in d.quads[c])
        incoming[perm[c]] = d.incoming[c]
    return LinkDiagram(tuple(quads), tuple(incoming), d.free_loops)


def _matchings(slots: list) -> list:
    """Every perfect matching of ``slots`` as a list of pairs."""
    if not slots:
        return [[]]
    first, rest = slots[0], slots[1:]
    return [[(first, other)] + tail
            for i, other in enumerate(rest)
            for tail in _matchings(rest[:i] + rest[i + 1:])]


def _small_codes(max_n: int) -> list[LinkDiagram]:
    """Every connected oriented PD code with 1..max_n crossings: each way
    of pairing the 4n slots into edges that orients and embeds."""
    out = []
    for n in range(1, max_n + 1):
        for pairs in _matchings([(c, s) for c in range(n) for s in range(4)]):
            quads = [[0] * 4 for _ in range(n)]
            for label, ends in enumerate(pairs, start=1):
                for c, s in ends:
                    quads[c][s] = label
            quads = tuple(tuple(q) for q in quads)
            try:
                d = validate(LinkDiagram(quads, _resolve_orientations(quads), 0))
            except DiagramError:
                continue
            if d.is_connected:
                out.append(d)
    return out


def _brute_key(d: LinkDiagram) -> tuple:
    """The least (directions, (mate crossing, mate slot) per slot) over all
    relabelings of the crossings: equal exactly for isomorphic diagrams."""
    forms = []
    for perm in itertools.permutations(range(d.n)):
        back = sorted(range(d.n), key=perm.__getitem__)
        forms.append((tuple(d.incoming[c][1] for c in back),
                      tuple((perm[mc], ms) for c in back
                            for mc, ms in (d.mate((c, s)) for s in range(4)))))
    return min(forms)


class TestIsomorphism:
    def test_relabeled_trefoil(self, trefoil):
        d = parse_pd("X[3,6,4,1] X[5,2,6,3] X[1,4,2,5]")
        assert canonical_key(d) == canonical_key(trefoil)

    def test_key_on_every_input(self, bundled):
        records, errors = load_table(PAPER13_CSV)
        assert not errors and len(records) == 24
        rnd = random.Random(5)
        for rec in bundled + records:
            d = parse_pd(rec.pd)
            key = canonical_key(d)
            assert canonical_key(_relabel(d, rnd)) == key, rec.name
            r = validate(reflect_plane(d))
            assert canonical_key(_relabel(r, rnd)) == canonical_key(r), rec.name
            for c in range(d.n):
                assert canonical_key(change_crossings(d, [c])) != key, (rec.name, c)

    def test_key_partitions_small_codes_exactly(self):
        """canonical_key groups the 525 connected codes with at most three
        crossings exactly as the brute-force key does; a key without the
        direction bit merges four classes at n = 3."""
        codes = _small_codes(3)
        assert len(codes) == 525
        classes: dict = {}
        for d in codes:
            classes.setdefault(canonical_key(d), set()).add(_brute_key(d))
        assert all(len(brute) == 1 for brute in classes.values())
        assert len({_brute_key(d) for d in codes}) == len(classes) == 107

    def test_reversed_component_changes_key(self):
        """Reversing one component of this two-component diagram keeps
        every quad and flips every sign; the two are not isomorphic even
        with reflection, and only the strand directions tell them apart."""
        pd = "X[8,1,5,4] X[5,1,6,2] X[6,3,7,2] X[7,3,8,4]"
        d, rev = parse_pd(pd), parse_pd(pd, reverse_components=(0,))
        assert rev.quads == d.quads
        assert rev.signs == tuple(-s for s in d.signs)
        assert canonical_key(reflect_plane(d)) != canonical_key(rev)
        assert canonical_key(d) != canonical_key(rev)

    def test_mirror_not_isomorphic(self, trefoil):
        assert canonical_key(mirror(trefoil)) != canonical_key(trefoil)
        assert canonical_key(reflect_plane(mirror(trefoil))) == canonical_key(trefoil)

    def test_different_knots(self, trefoil, figure_eight):
        assert canonical_key(trefoil) != canonical_key(figure_eight)
        assert canonical_key(reflect_plane(trefoil)) != canonical_key(figure_eight)


class TestZeroCrossing:
    def test_loops(self):
        d = LinkDiagram((), (), 2)
        assert d.component_count == 2
        assert len(d.faces) == 3  # k + 1


class TestOrientationOverride:
    def test_reversal_flips_linking(self):
        from specalt.invariants import linking_matrix, gl_signature
        from specalt.diagram import checkerboard_negative
        from specalt.seifert import signature_nullity
        hopf_pd = families.torus_2q(2).to_pd_text()
        d = parse_pd(hopf_pd)
        rev = parse_pd(hopf_pd, reverse_components=(1,))
        (lk0,) = linking_matrix(d).values()
        (lk1,) = linking_matrix(rev).values()
        assert lk1 == -lk0
        # both signature routes still agree on the reversed orientation
        sigma, _ = signature_nullity(rev)
        assert gl_signature(rev, checkerboard_negative(rev)) == sigma

    def test_reversal_indexes_components_by_smallest_label(self):
        """Index 0 is the component of label 1, though the first outgoing
        end in crossing order lies on the component of label 2: both ends
        of label 1 swap direction and those of label 2 keep theirs."""
        pd = "X[3,4,2,1] X[1,2,4,3]"
        d, rev = parse_pd(pd), parse_pd(pd, reverse_components=(0,))

        def ends(x, label):
            return {(c, x.incoming[c][s]) for c in range(x.n) for s in range(4)
                    if x.quads[c][s] == label}
        assert d.component_of_edge[1] != d.component_of_edge[2] == 0
        assert ends(rev, 1) == {(c, not inc) for c, inc in ends(d, 1)}
        assert ends(rev, 2) == ends(d, 2)

    @pytest.mark.parametrize("index", [1, 3, -1])
    def test_reversal_index_out_of_range_raises(self, index):
        """The trefoil has one component: index 1 or 3 names none, and -1
        does not reverse the last one."""
        with pytest.raises(DiagramError, match=f"component index {index} out of range"):
            parse_pd(TREFOIL_PD, reverse_components=(index,))

    def test_full_reversal_preserves_linking_and_signature(self):
        from specalt.invariants import linking_matrix, signature_nullity
        pd = families.torus_2q(4).to_pd_text()
        d = parse_pd(pd)
        rev = parse_pd(pd, reverse_components=(0, 1))
        assert linking_matrix(rev) == linking_matrix(d)
        assert signature_nullity(rev) == signature_nullity(d)
