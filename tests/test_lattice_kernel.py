"""The flat candidate kernel and most-constrained-first row order of
``lattice.enumerate_embeddings`` agree with the nested-generator kernel
and diagonal-only order they replaced, kept below as the reference.

Both are compared on seeded random positive-definite Gram matrices of
rank at most 4, class by class, and through ``lattice.obstruction`` on
every special alternating row of the bundled fixtures and the named
11a/12a table."""

import random
from math import isqrt

import pytest

from specalt import lattice
from specalt.diagram import is_special_alternating, reduce_nugatory
from specalt.lattice import (LatticeEmbedding, TargetTooSmall, _Stats,
                             canonical_matrix, enumerate_embeddings, obstruction)
from specalt.linalg import is_positive_definite
from specalt.tables import data_path, load_table


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
    matrices X with X X^T = gram, rows placed in ``diagonal_order``."""
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
            yield LatticeEmbedding(canon, n)
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
