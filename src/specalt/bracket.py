"""Exact Kauffman bracket / normalized bracket state sums.

Laurent polynomials in A are dicts {exponent: coefficient}.  The state sum
is exact over the integers and feasible for the diagram sizes handled here
(<= 16 crossings or so).

The A-labeling is pinned only up to the global A <-> 1/A substitution
(the usual planar-chirality bit); this cannot affect any use here, since
unlink comparison values are symmetric under it and the normalized
bracket is invariant under all Reidemeister moves either way.  The
convention-free anchors (span 4n on reduced alternating diagrams and
|f| = det at A = exp(i pi/4)) are enforced by the test suite.
"""

from __future__ import annotations

from .diagram import LinkDiagram

Laurent = dict[int, int]


def _poly_mul(p: Laurent, q: Laurent) -> Laurent:
    out: Laurent = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_add(p: Laurent, q: Laurent) -> Laurent:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _poly_pow(p: Laurent, k: int) -> Laurent:
    out: Laurent = {0: 1}
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


DELTA: Laurent = {2: -1, -2: -1}   # -A^2 - A^-2


def kauffman_bracket(d: LinkDiagram) -> Laurent:
    """<D> by the full state sum; the A-smoothing joins slots (0,3) and
    (1,2) of each crossing.

    Edges are relabelled 0..2n-1 once.  The 2^n states are walked depth
    first, crossing by crossing, and a union-find over the labels counts
    loops; states that agree on their first crossings share that prefix's
    unions.  States are tallied by (number of A-smoothings, number of
    loops), so the Laurent polynomial is built once per distinct pair."""
    n = d.n
    if n == 0:
        return _poly_pow(DELTA, d.free_loops - 1) if d.free_loops else {}
    index: dict[int, int] = {}
    quads = [[index.setdefault(e, len(index)) for e in quad] for quad in d.quads]
    m = len(index)
    smoothings = [(((q0, q3), (q1, q2)), ((q0, q1), (q2, q3)))
                  for q0, q1, q2, q3 in quads]
    tally: dict[tuple[int, int], int] = {}
    stack = [(0, list(range(m)), m, 0)]
    while stack:
        c, parent, loops, a_count = stack.pop()
        if c == n:
            key = (a_count, loops)
            tally[key] = tally.get(key, 0) + 1
            continue
        for b, pairs in enumerate(smoothings[c]):
            # the A branch works on a copy; the B branch takes the original
            p = parent[:] if b == 0 else parent
            left = loops
            for x, y in pairs:
                while p[x] != x:
                    p[x] = x = p[p[x]]
                while p[y] != y:
                    p[y] = y = p[p[y]]
                if x != y:
                    p[x] = y
                    left -= 1
            stack.append((c + 1, p, left, a_count + 1 - b))
    out: Laurent = {}
    for (a_count, loops), count in tally.items():
        term = _poly_pow(DELTA, loops + d.free_loops - 1)
        out = _poly_add(out, _poly_mul({2 * a_count - n: count}, term))
    return out


def normalized_bracket(d: LinkDiagram) -> Laurent:
    """f(D) = (-A^3)^(-w) <D>, an oriented-link invariant."""
    w = d.writhe
    twist: Laurent = {-3 * w: (-1) ** w}
    return _poly_mul(twist, kauffman_bracket(d))


def unlink_normalized_bracket(k: int) -> Laurent:
    """f of the k-component unlink."""
    if k < 1:
        raise ValueError("need k >= 1")
    return _poly_pow(DELTA, k - 1)
