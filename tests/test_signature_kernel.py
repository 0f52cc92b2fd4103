"""The fraction-free ``linalg.symmetric_signature_nullity`` agrees with the
rational congruence reduction it replaced, kept below as the reference.

Both are compared on seeded random symmetric integer matrices (dense, with
zero diagonals, with hyperbolic 2x2 blocks and as low-rank sums) and on the
symmetrized Seifert forms of fixture and ``paper13`` diagrams after random
crossing changes."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from specalt.diagram import change_crossings, parse_pd, split_components
from specalt.linalg import symmetric_signature_nullity
from specalt.seifert import seifert_matrix
from specalt.tables import load_table

PAPER13_CSV = Path(__file__).parent.parent / "perfbench" / "data" / "paper13.csv"


def fraction_signature_nullity(mat) -> tuple[int, int]:
    """(signature, nullity) of a symmetric matrix, by exact congruence
    reduction with symmetric pivoting.

    Zero-diagonal blocks are reduced with hyperbolic 2x2 pivots, which
    contribute one +1 and one -1 eigenvalue each.
    """
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    active = list(range(n))
    pos = neg = 0
    while active:
        piv = None
        for i in active:
            if a[i][i] != 0 and (piv is None or abs(a[i][i]) > abs(a[piv][piv])):
                piv = i
        if piv is not None:
            d = a[piv][piv]
            if d > 0:
                pos += 1
            else:
                neg += 1
            active.remove(piv)
            for j in active:
                if a[j][piv] == 0:
                    continue
                f = a[j][piv] / d
                for k in active:
                    a[j][k] -= f * a[piv][k]
            for j in active:
                a[j][piv] = a[piv][j] = Fraction(0)
            continue
        hyp = None
        for i in active:
            for j in active:
                if i < j and a[i][j] != 0:
                    hyp = (i, j)
                    break
            if hyp:
                break
        if hyp is None:
            break  # remaining block is zero
        i, j = hyp
        b = a[i][j]
        pos += 1
        neg += 1
        active.remove(i)
        active.remove(j)
        for k in active:
            ci, cj = a[k][i], a[k][j]
            if ci == 0 and cj == 0:
                continue
            for l in active:
                a[k][l] -= (ci * a[j][l] + cj * a[i][l]) / b
        for k in active:
            a[k][i] = a[i][k] = a[k][j] = a[j][k] = Fraction(0)
    nullity = n - pos - neg
    return pos - neg, nullity


def _dense(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-4, 4)
    return m


def _zero_diagonal(rng, n):
    m = _dense(rng, n)
    for i in range(n):
        m[i][i] = 0
    return m


def _hyperbolic_blocks(rng, n):
    """Hyperbolic 2x2 blocks ``[[0, b], [b, 0]]`` on the diagonal, the rest
    sparse, so that elimination has to start from a zero diagonal."""
    m = [[0] * n for _ in range(n)]
    for i in range(0, n - 1, 2):
        m[i][i + 1] = m[i + 1][i] = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    for _ in range(rng.randrange(n + 1)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            m[i][j] = m[j][i] = rng.randint(-4, 4)
    return m


def _low_rank(rng, n):
    """A sum of a few ``±v vᵀ``: rank at most the number of terms."""
    m = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(1, 4)):
        v = [rng.randint(-2, 2) for _ in range(n)]
        s = rng.choice([-1, 1])
        for i in range(n):
            for j in range(n):
                m[i][j] += s * v[i] * v[j]
    return m


@pytest.mark.parametrize("shape", [_dense, _zero_diagonal, _hyperbolic_blocks,
                                   _low_rank])
def test_random_matrices_match_reference(shape):
    rng = random.Random(shape.__name__)
    for _ in range(400):
        m = shape(rng, rng.randint(0, 12))
        assert symmetric_signature_nullity(m) == fraction_signature_nullity(m), m


def _symmetrized_seifert_forms(d):
    parts = split_components(d) if not d.is_connected else [d]
    for part in parts:
        if part.n == 0:
            continue
        v = seifert_matrix(part)
        n = len(v)
        yield [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]


def test_seifert_forms_match_reference(bundled):
    rng = random.Random(13)
    records = bundled[::3] + load_table(PAPER13_CSV)[0][::6]
    forms = 0
    for rec in records:
        d = parse_pd(rec.pd)
        changed = change_crossings(d, [c for c in range(d.n) if rng.random() < 0.3])
        for diagram in (d, changed):
            for sym in _symmetrized_seifert_forms(diagram):
                assert (symmetric_signature_nullity(sym)
                        == fraction_signature_nullity(sym)), rec.name
                forms += 1
    assert forms >= 2 * len(records)


def test_non_integral_entry_raises():
    with pytest.raises(ValueError):
        symmetric_signature_nullity([[Fraction(1, 2)]])


def test_asymmetric_message_unchanged():
    with pytest.raises(ValueError, match=r"^matrix is not symmetric$"):
        symmetric_signature_nullity([[1, 2], [3, 1]])
