"""The one embedding walk: ``reference_enumerate_embeddings``, the full
nested-generator enumeration that the package's obstruction is compared
against.  The package reads its embedding off the positive diagram's
Tait graph and walks none.

The walk is checked against brute force on seeded random positive-definite
Gram matrices of rank at most 4.  The argument for the Tait-graph reading
is checked on the walk's classes filtered by condition (i), on the same
grams and on grams of matrices with one +1 and one -1 per full column: at
zero slack there is at most one covering class, and it has that
structure.  The reading itself is compared with the filtered walk through
``obstruction`` on every special alternating row of the bundled fixtures,
the named 11a/12a table and ``paper13``, and their mirrors.  The other
alternating rows of the fixtures have crossings of both signs, and
``obstruction`` refuses them."""

import itertools
import random
from math import isqrt

import pytest

from specalt import families, lattice
from specalt.diagram import (LinkDiagram, NotSpecialAlternating, checkerboard_negative,
                             is_special_alternating, mirror, reduce_nugatory)
from specalt.invariants import goeritz, unlinking_lower_bound
from specalt.lattice import LatticeEmbedding, find_pairing, obstruction
from specalt.linalg import symmetric_signature_nullity
from specalt.tables import data_path, load_table

from conftest import connected_sum
from paper_claims import (canonical_matrix, claim1_structure, goeritz_gram,
                          marked_region_pairs)


class Stats:
    """What the walk counts: prefixes visited and complete matrices skipped
    as a class already yielded."""
    __slots__ = ("nodes", "dedup")

    def __init__(self):
        self.nodes = 0
        self.dedup = 0


def is_positive_definite(mat) -> bool:
    sig, nul = symmetric_signature_nullity(mat)
    return nul == 0 and sig == len(mat)


def condition_all_coords(e: LatticeEmbedding) -> bool:
    """Theorem condition (i): the image meets every coordinate axis,
    i.e. no column of the images is identically zero."""
    if not e.images:
        return e.target_dim == 0
    return all(any(row[j] for row in e.images) for j in range(e.target_dim))


def reference_row_candidates(placed, diag, dots, n, stats):
    """All vectors v with |v|^2 = diag and v . placed[i] = dots[i], up to
    the residual signed-permutation symmetry of the placed columns."""
    k = len(placed)
    # suffix norms of placed rows for Cauchy-Schwarz pruning
    suffix = [[0] * (n + 1) for _ in range(k)]
    for i in range(k):
        for j in range(n - 1, -1, -1):
            suffix[i][j] = suffix[i][j + 1] + placed[i][j] * placed[i][j]
    prefixes = [tuple(placed[i][j] for i in range(k)) for j in range(n)]
    zero_pref = [all(x == 0 for x in pref) for pref in prefixes]

    v = [0] * n

    def rec(j, rem, partial):
        stats.nodes += 1
        if j == n:
            if rem == 0 and all(partial[i] == dots[i] for i in range(k)):
                yield tuple(v)
            return
        # Cauchy-Schwarz: remaining dot product must be achievable
        for i in range(k):
            need = dots[i] - partial[i]
            if need * need > rem * suffix[i][j]:
                return
        if rem == 0 and any(partial[i] != dots[i] for i in range(k)):
            return
        hi = isqrt(rem)
        lo = -hi
        if j > 0 and prefixes[j] == prefixes[j - 1]:
            hi = min(hi, v[j - 1])           # nonincreasing within a block
        if zero_pref[j]:
            lo = 0                            # sign-normalized block
        for x in range(hi, lo - 1, -1):
            v[j] = x
            if x:
                for i in range(k):
                    partial[i] += x * placed[i][j]
            yield from rec(j + 1, rem - x * x, partial)
            if x:
                for i in range(k):
                    partial[i] -= x * placed[i][j]
        v[j] = 0

    yield from rec(0, diag, [0] * k)


def diagonal_order(gram):
    """Rows by decreasing norm, ties to the lower index."""
    return sorted(range(len(gram)), key=lambda i: -gram[i][i])


def reference_enumerate_embeddings(gram, n, stats=None):
    """One representative per signed-column-permutation class of integer
    matrices X with X X^T = gram, exhaustively, rows placed in
    ``diagonal_order``.  Raises ValueError when n < rank; an unembeddable
    form simply yields nothing."""
    gram = tuple(tuple(row) for row in gram)
    r = len(gram)
    if n < r:
        raise ValueError(f"target dimension {n} below rank {r}")
    if not is_positive_definite(gram):
        raise ValueError("gram matrix must be positive definite")
    if stats is None:
        stats = Stats()
    order = diagonal_order(gram)
    seen = set()
    placed = []

    def rec(k):
        if k == r:
            rows = [None] * r
            for pos, i in enumerate(order):
                rows[i] = placed[pos]
            canon = canonical_matrix(tuple(rows))
            if canon in seen:
                stats.dedup += 1
                return
            seen.add(canon)
            yield LatticeEmbedding(canon, n)
            return
        i = order[k]
        dots = [gram[i][order[t]] for t in range(k)]
        for v in reference_row_candidates(placed, gram[i][i], dots, n, stats):
            placed.append(v)
            yield from rec(k + 1)
            placed.pop()

    yield from rec(0)


def naive_solutions(gram, n):
    """All integer matrices X with X X^T = gram and |entries| <= sqrt(max
    diagonal), by unpruned row-wise product."""
    r = len(gram)
    out = []
    cands = []
    for i in range(r):
        b = isqrt(gram[i][i])
        cands.append([v for v in itertools.product(range(-b, b + 1), repeat=n)
                      if sum(x * x for x in v) == gram[i][i]])

    def rec(k, rows):
        if k == r:
            out.append(tuple(rows))
            return
        for v in cands[k]:
            if all(sum(a * b for a, b in zip(v, rows[j])) == gram[k][j]
                   for j in range(k)):
                rec(k + 1, rows + [v])

    rec(0, [])
    return out


def random_grams(seed, count):
    """Seeded positive-definite Gram matrices of rank 1..4 with norms up
    to 6, read from integer rows of width 5 or less; each comes with a
    target dimension from its rank to its width (or rank + 1)."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        rank = rnd.randint(1, 4)
        width = rnd.randint(rank, 5)
        rows = [tuple(rnd.randint(-2, 2) for _ in range(width))
                for _ in range(rank)]
        gram = tuple(tuple(sum(a * b for a, b in zip(r1, r2)) for r2 in rows)
                     for r1 in rows)
        if max(gram[i][i] for i in range(rank)) <= 6 and is_positive_definite(gram):
            out.append((gram, rnd.randint(rank, max(width, rank + 1))))
    return out


@pytest.mark.parametrize("gram, n", random_grams(2026, 40))
def test_same_classes_as_reference(gram, n):
    """The reference yields each class once, and its classes are those of
    brute force over every integer matrix."""
    reps = [canonical_matrix(e.images) for e in reference_enumerate_embeddings(gram, n)]
    assert len(reps) == len(set(reps))
    assert set(reps) == {canonical_matrix(m) for m in naive_solutions(gram, n)}


@pytest.mark.parametrize("gram, n", random_grams(17, 40))
def test_same_nodes_in_the_reference_order(gram, n):
    """The classes do not depend on how the generators are numbered: with
    the gram's rows and columns reversed, the reference's classes are the
    same, rows reversed."""
    rev = tuple(row[::-1] for row in gram[::-1])
    want = {canonical_matrix(e.images) for e in reference_enumerate_embeddings(gram, n)}
    got = {canonical_matrix(e.images[::-1])
           for e in reference_enumerate_embeddings(rev, n)}
    assert got == want


def special_alternating_rows():
    """The reduced special alternating diagrams of the bundled fixtures and
    the named 11a/12a table, as ``tables.analyze`` decides them."""
    out = []
    for name in ("fixtures.csv", "named_pd_codes.csv"):
        records, errors = load_table(data_path(name))
        assert not errors
        for rec in records:
            d = reduce_nugatory(rec.diagram)
            if is_special_alternating(d):
                out.append((rec.name, d))
    return out


def verdict_key(v):
    """The verdict, its embedding's class under signed column permutations
    and the white-region pairs its pairing marks, with their counts: the
    obstruction's columns are crossings in index order, the reference's in
    canonical order."""
    return (v.admissible, v.reason,
            canonical_matrix(v.embedding.images) if v.embedding else None,
            marked_region_pairs(v.embedding, v.pairing) if v.pairing else None)


def test_obstruction_verdicts_match_reference():
    """On the 92 special alternating rows of the fixtures and the named
    table, ``obstruction`` gives the verdict, the embedding class and the
    marked region pairs of the reference enumeration filtered by (i) and
    (ii)."""
    rows = special_alternating_rows()
    assert len(rows) == 92
    got = {name: verdict_key(obstruction(d)) for name, d in rows}
    want = {name: filtered_obstruction(d)[0]
            for name, d in rows}
    assert got == want
    assert sum(admissible for admissible, *_ in got.values()) > 0
    assert sum(not admissible for admissible, *_ in got.values()) > 0


def slack(gram, n):
    """2n - tr(G) - (sum of all entries of G), that is 2n minus the trace
    of the full gram: 0 where a covering embedding is an incidence
    matrix."""
    return 2 * n - sum(map(sum, gram)) - sum(gram[i][i] for i in range(len(gram)))


def unit_column_grams(seed, count):
    """Seeded Gram matrices X X^T of rank 1..4 whose full matrix, with
    v_0 = -(sum of the rows of X) on top, has exactly one +1 and one -1 in
    each of its 1..7 columns (the incidence matrix of a connected
    multigraph), so tr(G) + sum(G) = 2n at n = the column count; each
    comes with that X."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        rank = rnd.randint(1, 4)
        width = rnd.randint(rank, 7)
        full = [[0] * width for _ in range(rank + 1)]
        for j in range(width):
            a, b = rnd.sample(range(rank + 1), 2)
            full[a][j], full[b][j] = 1, -1
        rows = [tuple(r) for r in full[1:]]
        gram = tuple(tuple(sum(a * b for a, b in zip(r1, r2)) for r2 in rows)
                     for r1 in rows)
        if is_positive_definite(gram):
            assert slack(gram, width) == 0
            out.append((gram, tuple(rows)))
    return out


def covering_classes(gram, n):
    """The full enumeration's classes that meet every coordinate."""
    return [e.images for e in reference_enumerate_embeddings(gram, n)
            if condition_all_coords(e)]


def full_column_norms(images, n):
    """The squared norms of the full matrix's columns, v_0 on top."""
    return [sum(x * x for x in col)
            for col in zip(*LatticeEmbedding(images, n).full_matrix)]


@pytest.mark.parametrize("gram, rows", unit_column_grams(28, 40))
def test_cover_at_zero_slack(gram, rows):
    """At zero slack the generating incidence matrix's class is the full
    enumeration's only covering class.  One dimension up the slack is 2,
    and no embedding covers."""
    n = len(rows[0])
    found = covering_classes(gram, n)
    assert found == [canonical_matrix(rows)]
    assert claim1_structure(LatticeEmbedding(found[0], n))
    assert covering_classes(gram, n + 1) == []


def test_cover_at_zero_slack_with_a_positive_entry():
    """((2, 1), (1, 2)) at n = 5 has zero slack, but v_1 . v_2 = 1 > 0,
    which no two rows of a one-+1-one--1 matrix can have: nothing covers."""
    gram = ((2, 1), (1, 2))
    assert slack(gram, 5) == 0
    assert covering_classes(gram, 5) == []


@pytest.mark.parametrize("gram, n", random_grams(2026, 40))
def test_cover_on_random_grams(gram, n):
    """The column norms of a covering class are each at least 2 and add up
    to the full gram's trace, 2n - slack.  So at zero slack there is at
    most one covering class, an incidence matrix, and at positive slack
    there is none."""
    want = covering_classes(gram, n)
    s = slack(gram, n)
    for images in want:
        norms = full_column_norms(images, n)
        assert min(norms) >= 2 and sum(norms) == 2 * n - s
        assert claim1_structure(LatticeEmbedding(images, n)) == (s == 0)
    if s == 0:
        assert len(want) <= 1
    if s > 0:
        assert want == []


def test_cover_of_the_empty_form():
    """Rank 0 embeds once into any Z^n, and covers only Z^0, where
    ``obstruction`` on the crossing-free unknot reads that one class."""
    assert len(list(reference_enumerate_embeddings((), 2))) == 1
    assert covering_classes((), 2) == []
    assert covering_classes((), 0) == [()]
    v = obstruction(LinkDiagram((), (), 1))
    assert (v.embedding.images, v.target_dim) == ((), 0)


def test_random_grams_span_every_slack_sign():
    """The random grams hold zero, positive and negative slack."""
    signs = {(s > 0) - (s < 0) for s in (slack(gram, n) for gram, n in random_grams(2026, 40))}
    assert signs == {-1, 0, 1}


def filtered_obstruction(d):
    """``obstruction`` read off the full enumeration: the σ ≤ 0 side, then
    the first class that meets conditions (i) and (ii), as ``verdict_key``
    reads it (the reference yields canonical representatives)."""
    lat = goeritz(d, checkerboard_negative(d))
    if lat.sigma > 0:
        d = mirror(d)
        lat = goeritz(d, checkerboard_negative(d))
    p = unlinking_lower_bound(lat.sigma, 0, d.component_count)[0]
    stats = Stats()
    for emb in reference_enumerate_embeddings(goeritz_gram(lat), lat.rank - lat.sigma,
                                              stats):
        pairing = condition_all_coords(emb) and find_pairing(emb, p)
        if pairing:
            return ((True, "witness", emb.images, marked_region_pairs(emb, pairing)),
                    stats.nodes)
    return (False, "exhausted", None, None), stats.nodes


def test_obstruction_is_the_filtered_enumeration(special_rows):
    """On the 116 rows and their mirrors, ``obstruction`` gives the verdict,
    the embedding class and the marked region pairs of the full
    enumeration filtered by (i) and (ii), and never visits more nodes."""
    fewer = 0
    for name, d in special_rows:
        for side in (d, mirror(d)):
            v = obstruction(side)
            want, nodes = filtered_obstruction(side)
            assert verdict_key(v) == want, name
            assert v.nodes <= nodes, name
            fewer += v.nodes < nodes
    assert fewer > 100


def test_obstruction_refuses_what_is_not_special_alternating():
    """The 17 reduced alternating fixture rows that are not special
    alternating have crossings of both signs on both sides of the mirror,
    and ``obstruction`` refuses all 34 sides."""
    records, errors = load_table(data_path("fixtures.csv"))
    assert not errors
    rows = [reduce_nugatory(rec.diagram) for rec in records]
    rows = [d for d in rows if d.is_connected and d.is_alternating
            and not is_special_alternating(d)]
    assert len(rows) == 17
    for d in rows:
        for side in (d, mirror(d)):
            with pytest.raises(NotSpecialAlternating):
                obstruction(side)


def test_obstruction_builds_one_lattice_of_the_positive_diagram(special_rows, monkeypatch):
    """On the 116 rows and their mirrors ``obstruction`` builds one Goeritz
    lattice per call, and the diagram it decides has every crossing
    positive: a negative diagram is mirrored before its lattice is built."""
    built = []

    def counted(d, c):
        built.append(d)
        return goeritz(d, c)

    monkeypatch.setattr(lattice, "goeritz", counted)
    for name, d in special_rows:
        for side in (d, mirror(d)):
            built.clear()
            v = obstruction(side)
            assert built == [v.lattice.coloring.diagram], name
            assert all(s == 1 for s in v.lattice.coloring.diagram.signs), name


SIZE_NODES = 3000


@pytest.fixture(scope="module")
def named_by_name():
    records, errors = load_table(data_path("named_pd_codes.csv"))
    assert not errors
    return {rec.name: rec.diagram for rec in records}


@pytest.mark.parametrize("k", [6, 7, 8, 9, 10, None],
                         ids=lambda k: f"ladder({k})" if k else "11a299 # 11a320")
def test_size_guard(k, named_by_name):
    """At 16 to 28 crossings ``obstruction`` gives the full enumeration's
    verdict at 0 nodes, where the full one visits 14,001 to 847,180: a
    search back on the decision path fails a count, not a timing."""
    d = families.ladder(k) if k else connected_sum(named_by_name["11a299"],
                                                   named_by_name["11a320"])
    v = obstruction(d)
    want, nodes = filtered_obstruction(d)
    assert verdict_key(v) == want == (False, "exhausted", None, None)
    assert v.nodes <= SIZE_NODES < nodes
