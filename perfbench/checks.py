"""Output checks, run after the timed passes.

An operation fails when it raised, when its row is not ``ok``, when its
verdict is unknown or inconclusive, when it differs from the frozen
expected verdict, or when one of the checks below fails:

* fixtures: every cell against ``fixtures_expected.csv``, compared exactly;
* paper13: every field against ``data/paper13_expected.json``; the
  determinant against the spanning-tree count of the generating graph
  (Kirchhoff), computed here with this module's own integer determinant;
  the Gordon-Litherland signature against the Seifert-oracle one;
* every witness: its crossing changes certified and the move log replayed
  with ``unknotting.replay_moves`` to a crossing-free diagram with k loops;
* every row: ``tables.bound_consistency_ok``.

Bounds and genus are formatted here, not with the program's own helpers.
"""

from __future__ import annotations

import csv
import os
from fractions import Fraction

import workloads


def int_det(mat) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def spanning_trees(vertex_count: int, edges) -> int:
    """Kirchhoff: any cofactor of the graph Laplacian."""
    lap = [[0] * vertex_count for _ in range(vertex_count)]
    for a, b in edges:
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    return int_det([row[1:] for row in lap[1:]])


def bound_text(lo, hi) -> str:
    if lo is None:
        return "?"
    if hi is None:
        return f">={lo}"
    if lo == hi:
        return str(lo)
    return "{" + ";".join(str(x) for x in range(lo, hi + 1)) + "}"


def genus_text(g: Fraction | None) -> str:
    if g is None:
        return ""
    return str(g.numerator) if g.denominator == 1 else str(g)


def _fixtures_expected() -> dict[str, dict[str, str]]:
    path = os.path.join(workloads.SRC, "specalt", "data", "fixtures_expected.csv")
    with open(path, newline="") as fh:
        return {rec["name"].strip(): {k: v.strip() for k, v in rec.items()}
                for rec in csv.DictReader(fh)}


class Checker:
    def __init__(self, workload, held_out: int | None):
        self.workload = workload
        self.fixtures = _fixtures_expected() if workload.name == "fixtures" else None
        self.frozen = None
        if workload.name != "fixtures" and held_out is None:
            self.frozen = {row["name"]: row for row in workloads.load_expected()}
        self._memo: dict = {}

    def failures(self, op) -> list[str]:
        """Why ``op`` failed; empty when it passed every check."""
        if op.error:
            return [op.error]
        if self.workload.name == "paper13-search":
            return self._search(op)
        return self._row(op.output)

    def _once(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    # -- analysed rows ------------------------------------------------------

    def _row(self, row) -> list[str]:
        from specalt.tables import bound_consistency_ok
        if not row.ok:
            return [f"{row.name}: row not ok: {row.provenance}"]
        bad = []
        if "unknown" in row.provenance:     # decide marks undecided verdicts so
            bad.append(f"{row.name}: undecided: {row.provenance}")
        if self.fixtures is not None:
            bad += self._diff_fixture(row)
        elif self.frozen is not None:
            bad += self._diff_frozen(row)
        if self.workload.table == "paper13":
            bad += self._once(("paper13", row.name, row.det, row.sigma),
                              lambda: self._paper13_invariants(row))
        if not bound_consistency_ok(row):
            bad.append(f"{row.name}: bound consistency violated")
        if row.witness:
            bad += self._once(("witness", row.name, row.witness),
                              lambda: self._replay_row_witness(row))
        return bad

    def _diff_fixture(self, row) -> list[str]:
        exp = self.fixtures.get(row.name)
        if exp is None:
            return [f"{row.name}: not in fixtures_expected.csv"]
        got = {"sigma": str(row.sigma), "genus": genus_text(row.genus),
               "u": bound_text(row.u_lower, row.u_upper),
               "c4": bound_text(row.c4_lower, row.c4_upper)}
        return [f"{row.name}.{col}: computed {got[col]} vs expected {exp[col]}"
                for col in got if exp.get(col) and got[col] != exp[col]]

    def _diff_frozen(self, row) -> list[str]:
        exp = self.frozen.get(row.name)
        if exp is None:
            return [f"{row.name}: no frozen verdict"]
        got = {"sigma": row.sigma, "det": row.det, "k": row.components,
               "p": str(row.p), "u": [row.u_lower, row.u_upper],
               "c4": [row.c4_lower, row.c4_upper],
               "g": None if row.genus is None else str(row.genus),
               "witness": list(row.witness) if row.witness else None}
        return [f"{row.name}.{key}: computed {val} vs frozen {exp[key]}"
                for key, val in got.items() if val != exp[key]]

    def _paper13_invariants(self, row) -> list[str]:
        from specalt.diagram import parse_pd, reduce_nugatory, checkerboard_negative
        from specalt.invariants import gl_signature
        bad = []
        nv, edges = self.workload.graphs[row.name]
        trees = spanning_trees(nv, edges)
        if row.det != trees:
            bad.append(f"{row.name}: det {row.det} != spanning trees {trees}")
        d = reduce_nugatory(parse_pd(self.workload.pds[row.name]))
        gl = gl_signature(d, checkerboard_negative(d))
        if gl != row.sigma:
            bad.append(f"{row.name}: Goeritz signature {gl} != Seifert {row.sigma}")
        return bad

    def _replay_row_witness(self, row) -> list[str]:
        from specalt.unknotting import certify_unlink
        from specalt.diagram import change_crossings
        d, _ = workloads.search_input(self.workload.pds[row.name], row.sigma,
                                      row.components)
        changed = change_crossings(d, row.witness)
        cert = certify_unlink(changed)
        if cert.status != "certified":
            return [f"{row.name}: witness {row.witness} not certified: {cert.status}"]
        return _replay(row.name, changed, cert.moves, row.components)

    # -- search levels ------------------------------------------------------

    def _search(self, op) -> list[str]:
        from specalt.diagram import change_crossings
        name, m = op.op_id.rsplit("@", 1)
        out = op.output
        witness = list(out.witnesses[0]) if out.witnesses else None
        bad = []
        if out.status == "inconclusive":
            bad.append(f"{op.op_id}: inconclusive, unknown {list(out.unknown)}")
        if self.frozen is not None:
            exp = next((lv for lv in self.frozen[name]["search"]
                        if lv["m"] == int(m)), None)
            if exp is None or (exp["status"], exp["witness"]) != (out.status, witness):
                bad.append(f"{op.op_id}: {out.status} {witness} vs frozen {exp}")
        if out.status == "some":
            d = self.workload.diagrams[name]
            bad += _replay(op.op_id, change_crossings(d, witness),
                           out.certificate.moves, d.component_count)
        return bad


def _replay(label: str, changed, moves, k: int) -> list[str]:
    from specalt.unknotting import replay_moves
    final = replay_moves(changed, moves)
    if final.n != 0 or final.free_loops != k:
        return [f"{label}: replay ends with {final.n} crossings and "
                f"{final.free_loops} loops, want 0 and {k}"]
    return []
