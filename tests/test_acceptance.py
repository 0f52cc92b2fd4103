"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 4 and 5 read the PD codes of the named 11- and 12-crossing knots
from src/specalt/data/named_pd_codes.csv.  scripts/make_named_codes.py
derives that file offline: the Hoste-Thistlethwaite tables number the
prime alternating knots by the minimal DT codes of their flype classes,
and the script recomputes those classes from an enumeration of Tait
graphs.  Without the file both criteria fail with MISSING_NAMED_MSG.
"""

import csv
import itertools
import json
import os
import random
import time
from math import isqrt
from pathlib import Path

import pytest

from specalt.diagram import (parse_pd, checkerboard_negative,
                             change_crossings, is_special_alternating,
                             reduce_nugatory, twist_regions, is_twist_reduced)
from specalt.invariants import gl_signature, signature_nullity, determinant
from specalt import seifert
from specalt.lattice import (obstruction, clasp_candidates, find_pairing,
                             canonical_matrix, LatticeEmbedding)
from specalt.unknotting import (certify_unlink, exhaustive_search,
                                decide_minimal_unlinking, replay_moves)
from specalt.moves import apply_move
from specalt.tables import (load_bundled_fixtures, load_table, analyze_all,
                            bound_consistency_ok, data_path)
from specalt import families

from paper_claims import claim1_structure, euler_check
from test_lattice_kernel import (condition_all_coords, is_positive_definite,
                                 reference_enumerate_embeddings)

PAPER13_CSV = Path(__file__).parent.parent / "perfbench" / "data" / "paper13.csv"
PAPER13_EXPECTED_JSON = PAPER13_CSV.with_name("paper13_expected.json")
VERDICTS_CSV = Path(__file__).parent / "data" / "verdicts_expected.csv"

MISSING_NAMED_MSG = (
    "MISSING: src/specalt/data/named_pd_codes.csv, which holds the PD codes "
    "of the named 11a/12a knots (header name,pd,signature,u,genus), is not "
    "in this checkout. Regenerate it offline with "
    "`python scripts/make_named_codes.py`; it derives the codes from the "
    "minimal-DT numbering of the flype classes of alternating diagrams."
)


def _named_records(names):
    records, _ = load_bundled_fixtures()
    extra = data_path("named_pd_codes.csv")
    if os.path.exists(extra):
        more, errs = load_table(extra)
        assert not errs, errs
        records = list(records) + more
    by_name = {r.name: r for r in records}
    missing = [n for n in names if n not in by_name]
    return by_name, missing


def _lists():
    with open(data_path("table_lists.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def named_rows():
    """Report rows of the named 11- and 12-crossing knots in this checkout,
    by name, analysed once for every test that reads them; a test that
    needs a missing knot fails with MISSING_NAMED_MSG itself."""
    lists = _lists()
    names = lists["list1_unknown_11a"] + lists["list_unknown_12a"]
    by_name, missing = _named_records(names)
    present = [by_name[n] for n in names if n not in missing]
    return {row.name: row for row in analyze_all(present)}


@pytest.fixture(scope="module")
def fixture_rows(bundled):
    """Report rows of the bundled fixtures, in table order, analysed once."""
    return analyze_all(bundled)


@pytest.fixture(scope="module")
def paper13_pairs():
    """The ``paper13`` records and their report rows, analysed once."""
    records, errors = load_table(PAPER13_CSV)
    assert not errors, errors
    return records, analyze_all(records)


def test_criterion_1_signature_oracle_agreement(bundled):
    start = time.monotonic()
    assert len(bundled) >= 55
    for rec in bundled:
        d = parse_pd(rec.pd)
        sigma_seifert, eta = seifert.signature_nullity(d)
        sigma_gl = gl_signature(d, checkerboard_negative(d))
        assert sigma_gl == sigma_seifert, rec.name
        assert eta == 0, rec.name
        if rec.known_signature is not None:
            assert sigma_seifert == rec.known_signature, rec.name
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: gl == seifert signature and eta == 0 on "
          f"{len(bundled)} alternating fixtures in {elapsed:.2f}s")


def test_criterion_2_figure2_fixture():
    start = time.monotonic()
    d = families.knot_8_15()
    verdict = obstruction(d)
    assert verdict.admissible
    with open(data_path("figure2_embedding.json")) as fh:
        fig = json.load(fh)
    fig_rows = [tuple(r) for r in fig["full_matrix"]]
    full = verdict.embedding.full_matrix
    assert any(canonical_matrix(tuple(fig_rows[i] for i in perm)) == canonical_matrix(full)
               for perm in itertools.permutations(range(5)))
    pairing = find_pairing(verdict.embedding, 2)
    assert pairing is not None and len(pairing.pairs) == 2
    clasp = clasp_candidates(verdict)
    assert len(clasp) == 2
    cert = certify_unlink(change_crossings(d, clasp))
    assert cert.status == "certified"
    assert replay_moves(change_crossings(d, clasp), cert.moves).n == 0
    decision = decide_minimal_unlinking(d)
    assert decision.result == "equal"
    assert decision.u_lower == decision.u_upper == 2
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: 8_15 admissible witness matches the bundled "
          f"embedding fixture; clasp changes certify the unknot; u = c4 = 2 "
          f"({elapsed:.2f}s)")


def test_criterion_3_9_35_negative():
    start = time.monotonic()
    d = families.knot_9_35()
    verdict = obstruction(d)
    assert not verdict.admissible
    assert verdict.reason == "exhausted"
    out = exhaustive_search(d, 1)
    assert out.status == "all_refuted"
    decision = decide_minimal_unlinking(d)
    assert decision.u_lower >= 2
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 PASS: 9_35 obstructed by exhaustive search and "
          f"all 1-change subsets refuted, so u >= 2 ({elapsed:.2f}s)")


def _check_table_rows(names, expected_path, named_rows):
    by_name, missing = _named_records(names)
    if missing:
        pytest.fail(MISSING_NAMED_MSG + f"  Missing: {', '.join(missing)}")
    rows = [named_rows[n] for n in names]
    import csv
    with open(expected_path, newline="") as fh:
        expected = {r["name"]: r for r in csv.DictReader(fh)}

    def cell_set(text):
        return frozenset(int(x) for x in str(text).replace("{", "")
                         .replace("}", "").split(";"))

    for row in rows:
        exp = expected[row.name]
        assert row.ok, row.provenance
        assert row.sigma == int(exp["sigma"]), row.name
        assert row.genus_text() == exp["genus"], row.name
        want_u = cell_set(exp["u"])
        got_u = cell_set(row.u_text()) if row.u_upper is not None else None
        assert got_u is not None, (row.name, "u undetermined")
        if len(want_u) == 1:
            assert got_u == want_u, (row.name, "u", got_u, want_u)
        else:
            assert got_u <= want_u, (row.name, "u", got_u, want_u)
        want_c4 = cell_set(exp["c4"])
        got_c4 = cell_set(row.c4_text()) if row.c4_upper is not None else None
        assert got_c4 is not None, (row.name, "c4 undetermined")
        # externally determined c4 cells are contained in our certified set
        assert want_c4 <= got_c4 or got_c4 <= want_c4, (row.name, "c4")
    return rows


def test_criterion_4_table1_reproduction(named_rows):
    lists = _lists()
    names = lists["list1_unknown_11a"]
    by_name, missing = _named_records(names)
    if missing:
        pytest.fail(MISSING_NAMED_MSG + f"  Missing: {', '.join(missing)}")
    start = time.monotonic()
    determined = set(lists["list2_determined_11a"])
    for name in names:
        d = reduce_nugatory(parse_pd(by_name[name].pd))
        sigma, _ = signature_nullity(d)
        p = abs(sigma) // 2
        out_p = exhaustive_search(d, p)
        assert out_p.status == "all_refuted", (name, p)
        if name in determined:
            out_p1 = exhaustive_search(d, p + 1)
            assert out_p1.status == "some", (name, p + 1)
    _check_table_rows(names, data_path("table1_expected.csv"), named_rows)
    elapsed = time.monotonic() - start
    assert elapsed < 1800, f"criterion 4 took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 4 PASS: table of 11-crossing knots reproduced "
          f"({elapsed:.0f}s)")


def test_criterion_5_table2_spot_suite(named_rows):
    lists = _lists()
    spot = lists["spot_suite_12a"]
    expected_cells = {"12a94": (4, 4, -6, "3"), "12a97": (3, 3, -4, "2"),
                      "12a421": (3, 3, -4, "2"), "12a1035": (4, 4, -6, "3")}
    by_name, missing = _named_records(spot)
    if missing:
        pytest.fail(MISSING_NAMED_MSG + f"  Missing: {', '.join(missing)}")
    rows = [named_rows[n] for n in spot]
    for row in rows:
        u, c4, sigma, g = expected_cells[row.name]
        assert row.ok and row.sigma == sigma
        assert row.u_lower == row.u_upper == u, row.name
        assert row.c4_lower == row.c4_upper == c4, row.name
        assert row.genus_text() == g, row.name
    _check_table_rows(lists["list_unknown_12a"], data_path("table2_expected.csv"),
                      named_rows)
    print("\nACCEPTANCE 5 PASS: 12-crossing spot suite exact, "
          "full 35-knot table reproduced")


def test_criterion_6_lattice_property_suite(bundled):
    rnd = random.Random(20240809)
    # (a) embedding counts match naive brute force
    cases = 0
    while cases < 6:
        rank = rnd.randint(1, 3)
        rows = [tuple(rnd.randint(-2, 2) for _ in range(3)) for _ in range(rank)]
        gram = tuple(tuple(sum(a * b for a, b in zip(r1, r2)) for r2 in rows)
                     for r1 in rows)
        if not is_positive_definite(gram) or max(g[0] for g in [(gram[i][i],) for i in range(rank)]) > 4:
            continue
        n = rnd.randint(rank, 5)
        sols = []
        cands = []
        for i in range(rank):
            b = isqrt(gram[i][i])
            cands.append([v for v in itertools.product(range(-b, b + 1), repeat=n)
                          if sum(x * x for x in v) == gram[i][i]])

        def rec(k, acc):
            if k == rank:
                sols.append(tuple(acc))
                return
            for v in cands[k]:
                if all(sum(a * b for a, b in zip(v, acc[j])) == gram[k][j]
                       for j in range(k)):
                    rec(k + 1, acc + [v])

        rec(0, [])
        naive_orbits = {canonical_matrix(m) for m in sols}
        reps = list(reference_enumerate_embeddings(gram, n))
        assert len(reps) == len(naive_orbits)
        cases += 1
    # (b) find_pairing vs brute force over disjoint sign-matched pairs
    def brute(matrix, p, n):
        cols = list(zip(*matrix))

        def rec2(remaining, need):
            if need == 0:
                return True
            if len(remaining) < 2 * need:
                return False
            a, rest = remaining[0], remaining[1:]
            for i, b in enumerate(rest):
                if cols[a] == cols[b] or cols[a] == tuple(-x for x in cols[b]):
                    if rec2(rest[:i] + rest[i + 1:], need - 1):
                        return True
            return rec2(rest, need)

        return rec2(list(range(n)), p)

    for _ in range(30):
        r = rnd.randint(1, 3)
        n = rnd.randint(2, 6)
        mat = tuple(tuple(rnd.randint(-2, 2) for _ in range(n)) for _ in range(r))
        e = LatticeEmbedding(mat, n)
        for p in (1, 2, 3):
            assert (find_pairing(e, p) is not None) == brute(e.full_matrix, p, n)
    # (c) claim 1 on every admissible special alternating fixture verdict
    checked = 0
    for rec_ in bundled:
        d = parse_pd(rec_.pd)
        if not is_special_alternating(d) or not d.n or d.n > 10:
            continue
        v = obstruction(d)
        if v.admissible:
            assert condition_all_coords(v.embedding)
            assert claim1_structure(v.embedding), rec_.name
            checked += 1
    assert checked >= 5
    print(f"\nACCEPTANCE 6 PASS: embedding counts match brute force, pairing "
          f"matches brute force, claim-1 structure holds on {checked} "
          f"admissible fixtures")


def test_criterion_7_diagram_and_simplifier_properties(bundled):
    # F = n + 2 everywhere
    for rec in bundled:
        d = parse_pd(rec.pd)
        assert len(d.faces) == d.n + 2, rec.name
    # change_crossings involution
    rnd = random.Random(3)
    for rec in rnd.sample(bundled, 12):
        d = parse_pd(rec.pd)
        subset = set(rnd.sample(range(d.n), max(1, d.n // 2)))
        assert change_crossings(change_crossings(d, subset), subset) == d
    # determinant invariant along emitted move logs
    logs_checked = 0
    for base, subset in [(families.knot_8_15(), (0, 1)),
                         (families.trefoil(), (0,)),
                         (families.torus_2q(4), (0, 2))]:
        d = change_crossings(base, subset)
        cert = certify_unlink(d)
        assert cert.status == "certified"
        det0 = determinant(d)
        cur = d
        for mv in cert.moves:
            cur = apply_move(cur, mv)
            assert determinant(cur) == det0
        assert cur.n == 0
        logs_checked += 1
    # Euler identity chi(S_-) = 1 + sigma on positive special fixtures
    euler_count = 0
    for rec in bundled:
        d = parse_pd(rec.pd)
        if is_special_alternating(d) and d.n and all(s == 1 for s in d.signs):
            assert euler_check(d, checkerboard_negative(d)), rec.name
            euler_count += 1
    assert euler_count >= 20
    print(f"\nACCEPTANCE 7 PASS: Euler face counts, involution, determinant "
          f"constancy along {logs_checked} certificates, and the Euler "
          f"characteristic identity on {euler_count} positive fixtures")


def test_criterion_4_protocol_dry_run():
    """The table-reproduction protocol end to end at 11-crossing scale, on
    synthetic special alternating knots: the code path criterion 4 runs,
    checked independently of the named census codes."""
    rnd = random.Random(1105)
    import sys
    sys.path.insert(0, os.path.dirname(__file__))
    from test_properties import random_plane_bipartite_graph
    knots = []
    while len(knots) < 4:
        rot = random_plane_bipartite_graph(rnd, rnd.randint(2, 4))
        d = families.medial_special_alternating(rot)
        if d.component_count == 1 and 10 <= d.n <= 12:
            knots.append(d)
    start = time.monotonic()
    for d in knots:
        sigma, eta = signature_nullity(d)
        assert eta == 0 and sigma < 0
        p = abs(sigma) // 2
        out_p = exhaustive_search(d, p)
        assert out_p.status in ("all_refuted", "some")
        if out_p.status == "all_refuted":
            out_next = exhaustive_search(d, p + 1)
            assert out_next.status in ("all_refuted", "some")
            if out_next.status == "some":
                cert = out_next.certificate
                assert cert is not None and cert.status == "certified"
                changed = change_crossings(d, out_next.witnesses[0])
                assert replay_moves(changed, cert.moves).n == 0
        verdict = decide_minimal_unlinking(d)
        assert verdict.result in ("equal", "greater")
        assert verdict.u_lower is not None
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 4 (protocol dry run) PASS: {len(knots)} synthetic "
          f"11-crossing-scale knots through the table protocol in {elapsed:.1f}s")


def test_criterion_8_bound_consistency(fixture_rows):
    rows = fixture_rows
    for row in rows:
        assert row.ok, (row.name, row.provenance)
        assert bound_consistency_ok(row), row.name
    print(f"\nACCEPTANCE 8 PASS: (|sigma|+k-1)/2 <= c4 <= u holds on all "
          f"{len(rows)} emitted rows of the full table run")


def test_certificates_agree_at_p(bundled, fixture_rows, named_rows, paper13_pairs):
    """The two certificates at p agree on every special alternating row of
    the fixtures, named and paper13 tables: the lattice is admissible
    exactly when the search at p finds a witness.  On a twist-reduced
    admissible row the clasp hint is the first subset tried, it certifies,
    and it is the row's witness.  This pins today's answers on these rows,
    not a theorem."""
    lists = _lists()
    named = lists["list1_unknown_11a"] + lists["list_unknown_12a"]
    by_name, missing = _named_records(named)
    if missing:
        pytest.fail(MISSING_NAMED_MSG + f"  Missing: {', '.join(missing)}")
    paper13, paper13_rows = paper13_pairs
    pairs = list(zip(bundled + paper13, fixture_rows + paper13_rows))
    pairs += [(by_name[n], named_rows[n]) for n in named]
    special = [(rec, row) for rec, row in pairs if row.obstruction]
    assert len(special) == 116
    admissible = hinted = 0
    for rec, row in special:
        assert row.ok, (rec.name, row.provenance)
        assert (row.obstruction == "admissible") == \
            row.provenance.startswith("witness at p"), (rec.name, row.provenance)
        if row.obstruction != "admissible":
            continue
        admissible += 1
        ob = obstruction(reduce_nugatory(rec.diagram))
        d = ob.lattice.coloring.diagram
        if not is_twist_reduced(d, twist_regions(d)):
            continue
        hint = clasp_candidates(ob)
        assert exhaustive_search(d, ob.p, (hint,)).subsets_tried == 1, rec.name
        assert row.witness == tuple(sorted(hint)), rec.name
        hinted += 1
    assert (admissible, hinted) == (28, 25)


def test_verdicts_match_expected(fixture_rows, named_rows):
    """Every fixture and named row keeps the witness, provenance and
    obstruction recorded in tests/data/verdicts_expected.csv: the fixture
    rows in table order, then the named ones, witness crossings joined by
    ``;``.  A change that alters any of them must rewrite that file and
    say why."""
    with open(VERDICTS_CSV, newline="") as fh:
        expected = [tuple(row.values()) for row in csv.DictReader(fh)]
    named = [name for name, *_ in expected[len(fixture_rows):]]
    missing = [n for n in named if n not in named_rows]
    if missing:
        pytest.fail(MISSING_NAMED_MSG + f"  Missing: {', '.join(missing)}")
    rows = fixture_rows + [named_rows[n] for n in named]
    got = [(r.name, ";".join(map(str, r.witness or ())), r.provenance, r.obstruction)
           for r in rows]
    assert len(got) == 58 + 51
    assert got == expected


def test_paper13_verdicts_match_frozen(paper13_pairs):
    """Every ``paper13`` row, the ten links among them included, keeps the
    sigma, det, k, p, u, c4, genus, witness and provenance frozen in
    perfbench/data/paper13_expected.json, read as perfbench's checker
    reads it."""
    with open(PAPER13_EXPECTED_JSON) as fh:
        frozen = json.load(fh)["rows"]
    _, rows = paper13_pairs
    got = [{"name": r.name, "sigma": r.sigma, "det": r.det, "k": r.components,
            "p": str(r.p), "u": [r.u_lower, r.u_upper], "c4": [r.c4_lower, r.c4_upper],
            "g": None if r.genus is None else str(r.genus),
            "witness": list(r.witness) if r.witness else None,
            "provenance": r.provenance} for r in rows]
    assert len(got) == 24 and sum(r.components > 1 for r in rows) == 10
    assert got == [{key: row[key] for key in got[0]} for row in frozen]
