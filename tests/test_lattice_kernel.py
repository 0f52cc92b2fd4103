"""The flat candidate kernel and most-constrained-first row order of
``lattice.enumerate_embeddings`` agree with the nested-generator kernel
and diagonal-only order they replaced, kept below as the reference.

Both are compared on seeded random positive-definite Gram matrices of
rank at most 4, class by class, and through ``lattice.obstruction`` on
every special alternating row of the bundled fixtures and the named
11a/12a table.  The covering enumeration (``cover=True``) is compared
with the full one filtered by condition (i), on the same grams, on
grams of matrices with one +1 and one -1 per full column, and through
``obstruction`` on the 116 special alternating rows of the fixtures, the
named table and ``paper13``, and their mirrors."""

import random
from math import isqrt

import pytest

from specalt import families, lattice
from specalt.diagram import (checkerboard_negative, is_special_alternating, mirror,
                             reduce_nugatory)
from specalt.invariants import goeritz, unlinking_lower_bound
from specalt.lattice import (LatticeEmbedding, TargetTooSmall, _Stats,
                             canonical_matrix, condition_all_coords,
                             enumerate_embeddings, find_pairing, obstruction)
from specalt.linalg import is_positive_definite
from specalt.tables import data_path, load_table

from conftest import connected_sum


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


def reference_enumerate_embeddings(gram, n, stats=None, cover=False):
    """One representative per signed-column-permutation class of integer
    matrices X with X X^T = gram, rows placed in ``diagonal_order``; with
    ``cover``, only those that meet every coordinate."""
    gram = tuple(tuple(row) for row in gram)
    r = len(gram)
    if n < r:
        raise TargetTooSmall(f"target dimension {n} below rank {r}")
    if not is_positive_definite(gram):
        raise ValueError("gram matrix must be positive definite")
    if stats is None:
        stats = _Stats()
    if r == 0:
        yield LatticeEmbedding((), n)
        return
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
            emb = LatticeEmbedding(canon, n)
            if not cover or condition_all_coords(emb):
                yield emb
            return
        i = order[k]
        dots = [gram[i][order[t]] for t in range(k)]
        for v in reference_row_candidates(placed, gram[i][i], dots, n, stats):
            placed.append(v)
            yield from rec(k + 1)
            placed.pop()

    yield from rec(0)


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
    reps = [canonical_matrix(e.images) for e in enumerate_embeddings(gram, n)]
    want = [canonical_matrix(e.images)
            for e in reference_enumerate_embeddings(gram, n)]
    assert len(reps) == len(set(reps))
    assert set(reps) == set(want)


@pytest.mark.parametrize("gram, n", random_grams(17, 40))
def test_same_nodes_in_the_reference_order(gram, n, monkeypatch):
    """Placed in the same order, the two kernels visit the same prefixes:
    the prunes are the same."""
    monkeypatch.setattr(lattice, "_row_order", diagonal_order)
    new, ref = _Stats(), _Stats()
    got = list(enumerate_embeddings(gram, n, new))
    want = list(reference_enumerate_embeddings(gram, n, ref))
    assert [e.images for e in got] == [e.images for e in want]
    assert (new.nodes, new.dedup) == (ref.nodes, ref.dedup)


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
    return (v.admissible, v.reason,
            v.embedding.images if v.embedding else None,
            v.pairing.pairs if v.pairing else None)


def test_obstruction_verdicts_match_reference(monkeypatch):
    rows = special_alternating_rows()
    assert len(rows) == 92
    got = {name: verdict_key(obstruction(d)) for name, d in rows}
    monkeypatch.setattr(lattice, "enumerate_embeddings",
                        reference_enumerate_embeddings)
    want = {name: verdict_key(obstruction(d)) for name, d in rows}
    assert got == want
    assert sum(admissible for admissible, *_ in got.values()) > 0
    assert sum(not admissible for admissible, *_ in got.values()) > 0


def slack(gram, n):
    """2n - tr(G) - (sum of all entries of G): 0 where the covering
    embedding is read off the Gram matrix."""
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
    return [e.images for e in enumerate_embeddings(gram, n)
            if condition_all_coords(e)]


@pytest.mark.parametrize("gram, rows", unit_column_grams(28, 40))
def test_cover_at_zero_slack(gram, rows):
    """At zero slack the covering enumeration is the generating matrix's
    class alone, read off the Gram matrix at no node, and it is the full
    enumeration's only covering class.  One dimension up the slack is 2,
    no embedding covers, and the filter yields none."""
    n = len(rows[0])
    stats = _Stats()
    got = [e.images for e in enumerate_embeddings(gram, n, stats, cover=True)]
    assert got == covering_classes(gram, n) == [canonical_matrix(rows)]
    assert stats.nodes == 0
    assert list(enumerate_embeddings(gram, n + 1, cover=True)) == []


def test_cover_at_zero_slack_with_a_positive_entry():
    """((2, 1), (1, 2)) at n = 5 has zero slack, but v_1 . v_2 = 1 > 0,
    which no two rows of a one-+1-one--1 matrix can have: nothing covers."""
    gram = ((2, 1), (1, 2))
    assert slack(gram, 5) == 0
    assert list(enumerate_embeddings(gram, 5, cover=True)) == []
    assert covering_classes(gram, 5) == []


@pytest.mark.parametrize("gram, n", random_grams(2026, 40))
def test_cover_on_random_grams(gram, n):
    """On the random grams, zero slack or not, the covering enumeration is
    the full one filtered by condition (i), and so is the reference's."""
    want = covering_classes(gram, n)
    assert [e.images for e in enumerate_embeddings(gram, n, cover=True)] == want
    assert {canonical_matrix(e.images)
            for e in reference_enumerate_embeddings(gram, n, cover=True)} == set(want)


def test_cover_of_the_empty_form():
    """Rank 0 embeds once into any Z^n, and covers only Z^0."""
    assert len(list(enumerate_embeddings((), 2))) == 1
    assert list(enumerate_embeddings((), 2, cover=True)) == []
    assert [e.images for e in enumerate_embeddings((), 0, cover=True)] == [()]


def test_random_grams_span_every_slack_sign():
    """The random grams hold zero, positive and negative slack."""
    signs = {(s > 0) - (s < 0) for s in (slack(gram, n) for gram, n in random_grams(2026, 40))}
    assert signs == {-1, 0, 1}


def filtered_obstruction(d):
    """``obstruction`` read off the full enumeration: the σ ≤ 0 side, then
    the first class that meets conditions (i) and (ii)."""
    lat = goeritz(d, checkerboard_negative(d))
    if lat.sigma > 0:
        d = mirror(d)
        lat = goeritz(d, checkerboard_negative(d))
    p = unlinking_lower_bound(lat.sigma, 0, d.component_count)[0]
    stats = _Stats()
    for emb in enumerate_embeddings(lat.gram, lat.rank - lat.sigma, stats):
        pairing = condition_all_coords(emb) and find_pairing(emb, p)
        if pairing:
            return (True, "witness", emb.images, pairing.pairs), stats.nodes
    return (False, "exhausted", None, None), stats.nodes


def test_obstruction_is_the_filtered_enumeration(special_rows):
    """On the 116 rows and their mirrors, ``obstruction`` gives the verdict,
    embedding and pairing of the full enumeration filtered by (i) and
    (ii), and never visits more nodes."""
    fewer = 0
    for name, d in special_rows:
        for side in (d, mirror(d)):
            v = obstruction(side)
            want, nodes = filtered_obstruction(side)
            assert verdict_key(v) == want, name
            assert v.nodes <= nodes, name
            fewer += v.nodes < nodes
    assert fewer > 100


SIZE_NODES = 3000


@pytest.fixture(scope="module")
def named_by_name():
    records, errors = load_table(data_path("named_pd_codes.csv"))
    assert not errors
    return {rec.name: rec.diagram for rec in records}


@pytest.mark.parametrize("k", [6, 7, 8, 9, 10, None],
                         ids=lambda k: f"ladder({k})" if k else "11a299 # 11a320")
def test_size_guard(k, named_by_name):
    """At 16 to 28 crossings the capped walk stays in the low thousands of
    nodes (the full one visits 8,595 to 483,213) and keeps the full
    enumeration's verdict: a lost cap fails a count, not a timing."""
    d = families.ladder(k) if k else connected_sum(named_by_name["11a299"],
                                                   named_by_name["11a320"])
    v = obstruction(d)
    want, nodes = filtered_obstruction(d)
    assert verdict_key(v) == want == (False, "exhausted", None, None)
    assert v.nodes <= SIZE_NODES < nodes
