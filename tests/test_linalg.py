import pytest
from hypothesis import given, settings, strategies as st

from specalt.linalg import symmetric_signature_nullity, det_bareiss

from test_lattice_kernel import is_positive_definite


def test_signature_basics():
    assert symmetric_signature_nullity([[3]]) == (1, 0)
    assert symmetric_signature_nullity([[-2, 1], [1, -2]]) == (-2, 0)
    assert symmetric_signature_nullity([[0, 1], [1, 0]]) == (0, 0)
    assert symmetric_signature_nullity([[0, 0], [0, 0]]) == (0, 2)
    assert symmetric_signature_nullity([]) == (0, 0)


def test_hyperbolic_block_with_tail():
    m = [[0, 2, 1], [2, 0, 0], [1, 0, 3]]
    sig, nul = symmetric_signature_nullity(m)
    assert nul == 0
    assert sig == 1


def test_det_bareiss():
    assert det_bareiss([]) == 1
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[2, -1], [-1, 2]]) == 3
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1


@pytest.mark.parametrize("mat", [[[1, 0, 5], [0, -1, 7]],   # rows longer than n
                                 [[1, 0, 5], [0, 1, 7]],
                                 [[1, 0], [0]],               # ragged
                                 [[1], [0, 1]]],
                         ids=["wide", "wide_unimodular", "ragged_short", "ragged_long"])
def test_non_square_raises(mat):
    with pytest.raises(ValueError, match="not square"):
        symmetric_signature_nullity(mat)
    with pytest.raises(ValueError, match="not square"):
        det_bareiss(mat)


def test_positive_definite():
    assert is_positive_definite([[2, -1], [-1, 2]])
    assert not is_positive_definite([[1, 2], [2, 1]])
    assert not is_positive_definite([[1, 1], [1, 1]])


@st.composite
def symmetric_matrix(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(st.integers(min_value=-4, max_value=4))
            entries[i][j] = entries[j][i] = v
    return entries


@given(symmetric_matrix(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_signature_congruence_invariant(m, rnd):
    """Unimodular congruence U^T A U preserves signature and nullity."""
    n = len(m)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i == j:
            continue
        c = rnd.choice([-2, -1, 1, 2])
        for k in range(n):
            u[i][k] += c * u[j][k]
    ua = [[sum(u[i][k] * m[k][l] for k in range(n)) for l in range(n)]
          for i in range(n)]
    uaut = [[sum(ua[i][k] * u[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert symmetric_signature_nullity(uaut) == symmetric_signature_nullity(m)


@given(symmetric_matrix())
@settings(max_examples=40, deadline=None)
def test_nullity_matches_rank_defect(m):
    """det == 0 exactly when nullity > 0 (symmetric integer matrices)."""
    sig, nul = symmetric_signature_nullity(m)
    assert (det_bareiss(m) == 0) == (nul > 0)
