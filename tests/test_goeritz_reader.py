"""The Goeritz form is read off one pass over the face walk, and
``validate`` counts each crossing component's faces at the component of
a face's first corner.  Both are checked here against the readers they
replaced, kept below as the reference: the face indices of each
crossing's two white corners, looked up in ``face_index``.

The diagrams are every fixture, named and ``paper13`` diagram and its
mirror, each also under 2 seeded sets of crossing changes (4 changed
diagrams per row), a split diagram with free loops and crossing-free
diagrams; each is read under ``checkerboard`` and,
where it exists, ``checkerboard_negative``."""

import random
from collections import Counter

import pytest

from specalt.diagram import (LinkDiagram, DiagramError, change_crossings,
                             checkerboard, checkerboard_negative, is_special_alternating,
                             mirror, parse_pd, split_components, validate)
from specalt.invariants import (_goeritz_form, _gl_correction, classical_invariants,
                                determinant)
from specalt.linalg import det_bareiss, symmetric_signature_nullity
from specalt.tables import data_path, load_table

from conftest import PAPER13_CSV, SPLIT_TREFOILS_PD, TREFOIL_PD

# a two-crossing code whose labels, directions and slots are valid but
# whose faces number 3, not 4: not planar
NON_PLANAR_PD = "X[1,2,3,4] X[3,1,4,2]"


def corner_pair_form(d, c):
    """White faces in index order, each crossing's pair of white corner
    faces (q-order) and the unquotiented Goeritz form, from ``face_index``:
    the sorted set of the faces of the white corners q_s, q_{s+2}, with
    s = 0 exactly when mu = +1."""
    if not d.n:
        whites = [0] if d.faces else []
        return whites, [], [[0] * len(whites) for _ in whites]
    corner = d.face_index
    pairs = []
    for cr, mu in enumerate(c.incidence):
        s = 0 if mu == 1 else 1
        pairs.append((corner[(cr, s)], corner[(cr, s + 2)]))
    whites = sorted({f for pair in pairs for f in pair})
    pos = {f: i for i, f in enumerate(whites)}
    g = [[0] * len(whites) for _ in whites]
    for (fa, fb), mu in zip(pairs, c.incidence):
        a, b = pos[fa], pos[fb]
        if a != b:
            g[a][b] += mu
            g[b][a] += mu
            g[a][a] -= mu
            g[b][b] -= mu
    return whites, pairs, g


def reference_classical(d):
    """(sigma, eta, |det|) from ``corner_pair_form``, one split part at a
    time, with the unknot's determinant 1 and a split link's 0."""
    parts = split_components(d) if not d.is_connected else [d]
    sigma, eta = 0, len(parts) - 1
    det = int(d.component_count == 1) if not d.n else 0
    for part in parts:
        if part.n:
            c = checkerboard(part)
            q = [row[1:] for row in corner_pair_form(part, c)[2][1:]]
            s, nl = symmetric_signature_nullity(q)
            sigma += s + _gl_correction(part, c)
            eta += nl
            if part is d:
                det = abs(det_bareiss(q))
    return sigma, eta, det


def colourings(d):
    yield checkerboard(d)
    if d.is_connected and d.is_alternating:
        yield checkerboard_negative(d)


@pytest.fixture(scope="module")
def diagrams():
    records = []
    for path in (data_path("fixtures.csv"), data_path("named_pd_codes.csv"), PAPER13_CSV):
        recs, errors = load_table(path)
        assert not errors
        records += recs
    assert len(records) == 133
    rnd = random.Random(32)
    out = []
    for rec in records:
        for base in (rec.diagram, mirror(rec.diagram)):
            out.append(base)
            out += [change_crossings(base, rnd.sample(range(base.n), rnd.randint(1, base.n)))
                    for _ in range(2)]
    split = parse_pd(SPLIT_TREFOILS_PD)
    out.append(LinkDiagram(split.quads, split.incoming, 2))
    out += [LinkDiagram((), (), loops) for loops in (1, 2)]
    return out


def test_face_pass_reads_the_corner_pair_form(diagrams):
    """White faces, each crossing's pair, the form, ``determinant`` and
    ``classical_invariants`` agree with the corner-pair reference."""
    forms = 0
    for d in diagrams:
        for c in colourings(d):
            whites, edges, g = _goeritz_form(d, c)
            want_whites, want_pairs, want_g = corner_pair_form(d, c)
            assert whites == want_whites, d.to_pd_text()
            assert [(whites[a], whites[b]) for a, b in edges] == want_pairs, d.to_pd_text()
            assert g == want_g, d.to_pd_text()
            forms += 1
        sigma, eta, det = reference_classical(d)
        inv = classical_invariants(d)
        assert (inv.signature, inv.nullity, inv.determinant) == (sigma, eta, det)
        assert determinant(d) == det
        assert inv.component_count == d.component_count
        assert inv.seifert_genus_report == (
            abs(sigma) // 2 if is_special_alternating(d) and d.component_count == 1
            and d.n else None)
    assert len(diagrams) == 133 * 6 + 3
    assert forms > len(diagrams)


def test_euler_count_per_component_is_the_face_index_count(diagrams):
    """Each face lies in one crossing component, so counting it at the
    component of its first corner gives the ``face_index`` count, which is
    n_i + 2; ``validate`` accepts every diagram, free loops included."""
    for d in diagrams:
        comps = d._crossing_components
        corner = d.face_index
        want = [len({corner[(c, s)] for c in comp for s in range(4)}) for comp in comps]
        of = {c: i for i, comp in enumerate(comps) for c in comp}
        count = Counter(of[face[0][0]] for face in d.faces if face)
        assert [count[i] for i in range(len(comps))] == want
        assert want == [len(comp) + 2 for comp in comps]
        assert validate(d) is d


def test_non_planar_code_raises_the_euler_error():
    """A code that is valid but for its face count raises, alone and
    beside a planar split component."""
    with pytest.raises(DiagramError, match="Euler formula"):
        parse_pd(NON_PLANAR_PD)
    with pytest.raises(DiagramError, match="Euler formula"):
        parse_pd(TREFOIL_PD + " X[7,8,9,10] X[9,7,10,8]")
