import codecs
import csv
import json
import random
from pathlib import Path

import pytest

from specalt import unknotting
from specalt.tables import (KnotRecord, load_table, analyze, analyze_all,
                            emit_tables, load_expected, diff_tables, TableError,
                            bound_consistency_ok, natural_key, data_path)
from specalt.cli import main as cli_main
from specalt.lattice import obstruction
from specalt.unknotting import decide_minimal_unlinking
from specalt.diagram import (parse_pd, reduce_nugatory, canonical_key,
                             is_special_alternating, mirror)

from conftest import TREFOIL_PD, SPLIT_TREFOILS_PD, TREFOIL_KINK_PD

PAPER13_CSV = Path(__file__).parent.parent / "perfbench" / "data" / "paper13.csv"


class TestLoadTable:
    def test_bundled_loads_clean(self, bundled):
        assert len(bundled) >= 55

    def test_missing_file(self):
        with pytest.raises(TableError):
            load_table("/nonexistent/table.csv")

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("name,code\nfoo,bar\n")
        with pytest.raises(TableError):
            load_table(str(p))

    def test_per_row_errors_with_line_numbers(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("name,pd,signature,u,genus\n"
                     f'good,"{TREFOIL_PD}",-2,1,1\n'
                     'bad,"X[1,2]",,,\n')
        records, errors = load_table(str(p))
        assert len(records) == 1
        assert len(errors) == 1 and "line 3" in errors[0]

    def test_u_set_cell(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("name,pd,signature,u,genus\n"
                     f'k,"{TREFOIL_PD}",-2,3;4,1\n')
        records, _ = load_table(str(p))
        assert records[0].known_u == frozenset({3, 4})


class TestAnalyze:
    def test_trefoil_record(self):
        rec = KnotRecord("3_1", TREFOIL_PD, known_signature=-2)
        row = analyze(rec)
        assert row.ok
        assert (row.sigma, row.nullity, row.det) == (-2, 0, 3)
        assert row.u_text() == "1" and row.c4_text() == "1"

    def test_signature_mismatch_fails_row(self):
        rec = KnotRecord("bad", TREFOIL_PD, known_signature=2)
        row = analyze(rec)
        assert not row.ok
        assert "sigma" in row.provenance

    @pytest.mark.parametrize("known_u, ok", [(frozenset({2}), False),
                                             (frozenset({2, 3}), False),
                                             (frozenset({1, 2}), True)])
    def test_recorded_u_outside_bounds_fails_row(self, known_u, ok):
        """The trefoil's u is 1: a recorded u set fails the row exactly
        when none of its values lies in the computed bounds."""
        row = analyze(KnotRecord("3_1", TREFOIL_PD, known_u=known_u))
        assert row.ok == ok
        if not ok:
            recorded = ";".join(map(str, sorted(known_u)))
            assert row.provenance == f"computed u 1 excludes recorded {recorded}"

    def test_recorded_genus_mismatch_fails_row(self):
        row = analyze(KnotRecord("3_1", TREFOIL_PD, known_genus=2))
        assert not row.ok
        assert row.provenance == "computed genus 1 != recorded 2"
        assert analyze(KnotRecord("3_1", TREFOIL_PD, known_genus=1)).ok

    def test_non_special_gets_bounds_only(self):
        from specalt.families import rational_link
        rec = KnotRecord("4_1", rational_link([2, 2]).to_pd_text())
        row = analyze(rec)
        assert row.ok
        assert row.u_upper is None
        assert "bounds only" in row.provenance

    @pytest.mark.parametrize("pd, bound", [(SPLIT_TREFOILS_PD, ">=2"),
                                           (TREFOIL_KINK_PD, ">=1")],
                             ids=["two_trefoils", "trefoil_kink"])
    def test_split_link_bounds_use_nullity(self, pd, bound):
        row = analyze(KnotRecord("split", pd))
        assert row.ok and (row.nullity, row.components) == (1, 2)
        assert row.u_text() == bound and row.c4_text() == bound
        assert bound_consistency_ok(row)

    def test_parity_breaking_signature_fails_row(self, monkeypatch):
        """A sigma that breaks sigma + eta = k - 1 (mod 2) fails its row,
        even on the classical-bounds-only path, instead of being rounded."""
        from specalt import invariants
        from specalt.families import rational_link
        real = invariants._gl_invariants

        def shifted(d):
            sigma, eta, det = real(d)
            return sigma + 1, eta, det

        monkeypatch.setattr(invariants, "_gl_invariants", shifted)
        row = analyze(KnotRecord("4_1", rational_link([2, 2]).to_pd_text()))
        assert not row.ok
        assert "not an integer" in row.provenance

    def test_ok_rows_carry_integer_bound_and_genus(self, bundled):
        rows = [row for row in analyze_all(bundled) if row.ok]
        assert len(rows) == len(bundled)
        assert all(type(row.p) is int for row in rows)
        assert all(type(row.genus) is int for row in rows if row.genus is not None)
        assert any(row.genus is not None for row in rows)

    def test_parse_failure_row(self):
        row = analyze(KnotRecord("junk", "X[1,2,3,4] X[1,2,3,4]"))
        assert not row.ok

    def test_mutated_pd_codes_fail_as_rows(self, bundled, tmp_path):
        """100 seeded one-edit mutations of the fixtures with at most 8
        crossings: a label replaced, a quad rotated or dropped, or two
        labels swapped.  Each code is a row error of ``load_table`` or an
        ``analyze`` row that is ok or failed with a provenance; no
        exception escapes."""
        rnd = random.Random(18)
        bases = [rec.diagram.quads for rec in bundled if rec.diagram.n <= 8]
        lines = ["name,pd,signature,u,genus"]
        for i in range(100):
            quads = [list(q) for q in rnd.choice(bases)]
            c, s = rnd.randrange(len(quads)), rnd.randrange(4)
            kind = rnd.choice(("relabel", "rotate", "drop", "swap"))
            if kind == "relabel":
                quads[c][s] = rnd.randint(1, 2 * len(quads) + 1)
            elif kind == "rotate":
                r = s % 3 + 1
                quads[c] = quads[c][r:] + quads[c][:r]
            elif kind == "drop":
                del quads[c]
            else:
                c2, s2 = rnd.randrange(len(quads)), rnd.randrange(4)
                quads[c][s], quads[c2][s2] = quads[c2][s2], quads[c][s]
            pd = " ".join("X[%d,%d,%d,%d]" % tuple(q) for q in quads)
            lines.append(f'{kind}{i},"{pd}",,,')
        path = tmp_path / "mutants.csv"
        path.write_text("\n".join(lines) + "\n")
        records, errors = load_table(path)
        assert len(records) + len(errors) == 100
        rows = [analyze(rec) for rec in records]
        assert all(row.ok or row.provenance for row in rows)
        assert errors and rows

    def test_parallel_matches_serial(self, bundled):
        subset = [r for r in bundled if r.name in ("3_1", "hopf", "7_4", "5_2")]
        serial = analyze_all(subset, jobs=1)
        parallel = analyze_all(subset, jobs=2)
        assert [r.to_json() | {"seconds": 0} for r in serial] == \
            [r.to_json() | {"seconds": 0} for r in parallel]


class TestEmitAndDiff:
    def rows(self):
        recs = [KnotRecord("3_1", TREFOIL_PD, known_signature=-2)]
        return analyze_all(recs)

    def test_markdown(self):
        text = emit_tables(self.rows())
        assert "| 3_1 | 1 | 1 | -2 | 1 |" in text

    def test_csv_roundtrip(self, tmp_path):
        rows = self.rows()
        text = emit_tables(rows, fmt="csv")
        assert text.splitlines()[0] == "K,u,c4,sigma,g"
        assert "3_1,1,1,-2,1" in text
        # emitted tables are themselves valid diff targets
        p = tmp_path / "emitted.csv"
        p.write_text(text)
        result = diff_tables(rows, load_expected(p))
        assert result.clean and not result.loose

    def test_diff_clean(self, tmp_path):
        p = tmp_path / "expected.csv"
        p.write_text("name,u,c4,sigma,genus\n3_1,1,1,-2,1\n")
        result = diff_tables(self.rows(), load_expected(p))
        assert result.clean and not result.loose

    def test_diff_mismatch(self, tmp_path):
        p = tmp_path / "expected.csv"
        p.write_text("name,u,c4,sigma,genus\n3_1,2,1,-2,1\n")
        result = diff_tables(self.rows(), load_expected(p))
        assert not result.clean

    def test_diff_containment_is_loose(self, tmp_path):
        recs = [KnotRecord("9_35", "", None, None, None)]
        from specalt import families
        recs = [KnotRecord("9_35", families.knot_9_35().to_pd_text())]
        p = tmp_path / "expected.csv"
        p.write_text("name,u,c4,sigma,genus\n9_35,3,2,-2,1\n")
        result = diff_tables(analyze_all(recs), load_expected(p))
        assert result.clean          # {2;3} contains 3 and 2: consistent
        assert len(result.loose) == 2

    @pytest.mark.parametrize("got,want,verdict", [
        ((2, None), "2", "loose"),
        ((2, None), "{2;3}", "loose"),
        ((2, 3), ">=2", "loose"),
        ((2, None), ">=1", "loose"),
        ((2, None), "1", "mismatch"),
        ((2, 3), ">=4", "mismatch"),
        ((3, 4), "3;4", "silent"),
        ((3, 4), "{3;4}", "silent"),
        ((3, 4), "4;3", "silent"),
        ((3, None), ">=3", "silent"),
        ((3, 4), "3", "loose"),
        ((3, 5), "3;5", "loose"),
    ])
    def test_diff_open_ended_bounds(self, got, want, verdict, tmp_path):
        """A >=lo cell is the interval [lo, infinity): containment either
        way is consistent, anything else a mismatch.  Cells compare as
        value sets first, so a computed {3;4} against an expected 3;4 is
        silent, while {3;4} against the published 3 stays a loose note."""
        from specalt.tables import ReportRow
        row = ReportRow("k", True, sigma=-2, components=1,
                        u_lower=got[0], u_upper=got[1])
        p = tmp_path / "expected.csv"
        p.write_text(f"name,u,c4,sigma,genus\nk,{want},,,\n")
        result = diff_tables([row], load_expected(p))
        assert (result.clean, len(result.loose)) == \
            {"silent": (True, 0), "loose": (True, 1), "mismatch": (False, 0)}[verdict]

    def test_natural_sort(self):
        names = ["12a1035", "12a144", "12a97", "11a362"]
        assert sorted(names, key=natural_key) == \
            ["11a362", "12a97", "12a144", "12a1035"]

    def test_natural_sort_mixed_shapes(self):
        # digit-led and alpha-led names must compare without type errors
        names = ["hopf", "3_1", "t2_4", "12a97", "ladder_3"]
        ordered = sorted(names, key=natural_key)
        assert set(ordered) == set(names)

    def test_emit_mixed_names(self, bundled):
        rows = analyze_all([r for r in bundled if r.name in ("3_1", "hopf")])
        text = emit_tables(rows)
        assert "3_1" in text and "hopf" in text

    def test_bound_consistency_on_bundled(self, bundled):
        rows = analyze_all([r for r in bundled if r.name in
                            ("3_1", "7_4", "9_35", "hopf", "k23_medial")])
        assert all(bound_consistency_ok(r) for r in rows)

    def test_bundled_regression_diff_clean(self, bundled):
        """Full run against the frozen expected table: byte-level regression
        guard for the entire pipeline."""
        rows = analyze_all(bundled)
        result = diff_tables(rows, load_expected(data_path("fixtures_expected.csv")))
        assert result.clean, result.mismatches
        assert not result.loose, result.loose


class TestCertificateChecks:
    """Cross-checks that guard a certificate raise named errors, which
    ``python -O`` keeps, and fail only the row they belong to."""

    def test_signature_routes_disagree_fails_row(self, monkeypatch):
        """The reported sigma, from ``checkerboard``, and the decision's
        lattice sigma, from the all-(-1) coloring, are checked against
        each other."""
        from specalt import invariants
        real = invariants._gl_invariants

        def shifted(d):
            sigma, eta, det = real(d)
            return sigma + 2, eta, det

        monkeypatch.setattr(invariants, "_gl_invariants", shifted)
        row = analyze(KnotRecord("3_1", TREFOIL_PD))
        assert not row.ok
        assert "Goeritz-route sigma" in row.provenance

    def test_witness_contradicts_obstruction_fails_row(self, monkeypatch):
        from specalt import unknotting
        from specalt.lattice import ObstructionVerdict
        from specalt.invariants import goeritz
        from specalt.diagram import checkerboard_negative
        # an obstructed verdict on the trefoil's own lattice (sigma -2)
        monkeypatch.setattr(
            unknotting, "obstruction",
            lambda d: ObstructionVerdict(False, 1, 2,
                                         goeritz(d, checkerboard_negative(d)),
                                         reason="exhausted"))
        with pytest.raises(unknotting.WitnessContradictsObstruction):
            unknotting.decide_minimal_unlinking(parse_pd(TREFOIL_PD))
        row = analyze(KnotRecord("3_1", TREFOIL_PD))
        assert not row.ok
        assert "lattice is obstructed" in row.provenance

    def test_oracle_error_fails_only_its_row(self, bundled, monkeypatch):
        """A signature route that raises on one diagram fails that row
        alone, which prints ``?`` cells."""
        from specalt import invariants
        from specalt.diagram import DiagramError
        subset = [r for r in bundled if r.name in ("3_1", "hopf", "7_4", "5_2")]
        before = analyze_all(subset, jobs=1)
        bad = canonical_key(reduce_nugatory(
            parse_pd(next(r.pd for r in subset if r.name == "7_4"))))
        real = invariants._gl_invariants

        def flaky(d):
            if canonical_key(d) == bad:
                raise DiagramError("injected signature failure")
            return real(d)

        monkeypatch.setattr(invariants, "_gl_invariants", flaky)
        after = analyze_all(subset, jobs=1)
        assert len(after) == len(subset)
        for old, new in zip(before, after):
            if new.name == "7_4":
                assert not new.ok
                assert "injected signature failure" in new.provenance
            else:
                assert new.to_json() | {"seconds": 0} == \
                    old.to_json() | {"seconds": 0}
        assert "7_4,?,?,?,\n" in emit_tables(after, "csv")
        assert "| 7_4 | ? | ? | ? |  |" in emit_tables(after, "markdown")

    def test_value_error_fails_only_its_row(self, bundled, monkeypatch):
        """A plain ``ValueError`` from the lattice step fails its own row
        and leaves every other bundled row unchanged."""
        from specalt import unknotting
        before = analyze_all(bundled, jobs=1)
        bad = canonical_key(reduce_nugatory(
            parse_pd(next(r.pd for r in bundled if r.name == "8_15"))))
        real = unknotting.obstruction

        def small_target(d):
            if canonical_key(d) == bad:
                raise ValueError("injected: target dimension 0 below rank 2")
            return real(d)

        monkeypatch.setattr(unknotting, "obstruction", small_target)
        after = analyze_all(bundled, jobs=1)
        assert [row.name for row in after] == [row.name for row in before]
        for old, new in zip(before, after):
            if new.name == "8_15":
                assert not new.ok
                assert new.provenance == \
                    "error: injected: target dimension 0 below rank 2"
            else:
                assert new.to_json() | {"seconds": 0} == \
                    old.to_json() | {"seconds": 0}


class TestOracleCalls:
    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        from specalt import seifert
        real = seifert.signature_nullity
        calls = []

        def counting(d):
            calls.append(d)
            return real(d)

        monkeypatch.setattr(seifert, "signature_nullity", counting)
        return calls

    @staticmethod
    def special_alternating(bundled):
        out = []
        for rec in bundled:
            d = reduce_nugatory(parse_pd(rec.pd))
            if is_special_alternating(d) and d.is_connected:
                out.append((rec, d))
        assert len(out) >= 30
        return out

    def test_no_oracle_call_on_any_bundled_row(self, bundled, oracle_calls):
        """analyze never runs the oracle, special alternating or not: the
        reported sigma comes from Gordon-Litherland and the decision reads
        its own from the Goeritz lattice."""
        counts = {}
        for rec in bundled:
            oracle_calls.clear()
            row = analyze(rec)
            assert row.ok, rec.name
            counts[rec.name] = len(oracle_calls)
        assert {name: c for name, c in counts.items() if c} == {}
        assert len(counts) == len(bundled)

    def test_decision_is_oracle_free(self, bundled, oracle_calls):
        from specalt.lattice import obstruction
        from specalt.unknotting import decide_minimal_unlinking
        for rec, d in self.special_alternating(bundled):
            obstruction(d)
            decide_minimal_unlinking(d)
            assert oracle_calls == [], rec.name


class TestCLI:
    def test_analyze_name(self, capsys):
        rc = cli_main(["analyze", "3_1"])
        out = capsys.readouterr().out
        assert rc == 0 and "sigma=-2" in out

    def test_analyze_pd(self, capsys):
        rc = cli_main(["analyze", TREFOIL_PD])
        assert rc == 0

    def test_trailing_global_flags(self, capsys):
        rc = cli_main(["analyze", "3_1", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["u"] == "1"

    @pytest.mark.parametrize("text", ["99a999", "4 6 2", "mixed", "X", "x[1,2,3,4]"],
                             ids=["name", "dt_code", "name_with_x", "bare_x", "lowercase_x"])
    def test_analyze_unknown_name(self, text, capsys):
        """Only an X[...] or X(...) crossing token makes the text a PD code;
        other text is a name, even one with an x in it."""
        rc = cli_main(["analyze", text])
        captured = capsys.readouterr()
        assert rc == 2 and f"unknown knot name {text!r}" in captured.err
        assert "FAILED" not in captured.out

    def test_embed_json(self, capsys):
        rc = cli_main(["--json", "embed", "3_1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["admissible"] is True

    def test_embed_columns_are_crossings(self, capsys):
        """On 8_15 the ``--json`` keys are those of an admissible verdict,
        column c of ``full_matrix`` is e_a - e_b for crossing c's
        ``lattice.edges`` entry (a, b), and each pair names two crossings
        with the same edge.  The text output prints the same rows and
        pairs."""
        rc = cli_main(["--json", "embed", "8_15"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert list(out) == ["admissible", "p", "target_dim", "nodes", "dedup",
                             "reason", "embedding", "pairing"]
        assert list(out["embedding"]) == ["target_dim", "rows", "full_matrix"]
        rec = next(r for r in load_table(data_path("fixtures.csv"))[0] if r.name == "8_15")
        edges = obstruction(reduce_nugatory(rec.diagram)).lattice.edges
        full = out["embedding"]["full_matrix"]
        assert [list(col) for col in zip(*full)] == \
            [[(t == a) - (t == b) for t in range(len(full))] for a, b in edges]
        assert all(edges[a] == edges[b] for a, b, _ in out["pairing"])
        rc = cli_main(["embed", "8_15"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0 and lines[0] == "8_15: admissible embedding into Z^8 (p=2)"
        assert lines[1:-1] == [f"   {row}" for row in full]
        assert lines[-1] == f"  pairs: {[tuple(pair) for pair in out['pairing']]}"

    def test_analyze_named_table_knot(self, capsys):
        """Names missing from the fixtures fall back to the named table,
        where 11a291 is Table 1's u = 4 knot with an obstructed lattice."""
        rc = cli_main(["--json", "analyze", "11a291"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert (out["name"], out["sigma"], out["u"]) == ("11a291", -6, "4")
        assert out["obstruction"] == "obstructed"

    def test_embed_refuses_what_is_not_special_alternating(self, capsys):
        """``embed`` exits 2 on 4_1, as ``decide`` refuses it too: the error
        goes to stderr and nothing to stdout."""
        rc = cli_main(["embed", "4_1"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: obstruction needs a special alternating diagram\n"

    def test_embed_named_table_knot(self, capsys):
        rc = cli_main(["embed", "11a291"])
        out = capsys.readouterr().out
        assert rc == 0 and out.startswith("11a291: obstructed (exhausted; p=3")

    def test_search(self, capsys):
        rc = cli_main(["search", "3_1", "--changes", "1"])
        out = capsys.readouterr().out
        assert rc == 0 and "some" in out

    def test_tables_with_diff(self, tmp_path, capsys):
        csv_path = tmp_path / "small.csv"
        csv_path.write_text("name,pd,signature,u,genus\n"
                            f'3_1,"{TREFOIL_PD}",-2,1,1\n')
        exp = tmp_path / "expected.csv"
        exp.write_text("name,u,c4,sigma,genus\n3_1,1,1,-2,1\n")
        rc = cli_main(["tables", str(csv_path), "--diff", str(exp)])
        assert rc == 0 and "diff: clean" in capsys.readouterr().err

    def test_tables_diff_mismatch_exit_1(self, tmp_path, capsys):
        csv_path = tmp_path / "small.csv"
        csv_path.write_text("name,pd,signature,u,genus\n"
                            f'3_1,"{TREFOIL_PD}",-2,1,1\n')
        exp = tmp_path / "expected.csv"
        exp.write_text("name,u,c4,sigma,genus\n3_1,4,4,-2,1\n")
        rc = cli_main(["tables", str(csv_path), "--diff", str(exp)])
        assert rc == 1

    def test_tables_failed_row_exit_2(self, tmp_path, capsys):
        """A recorded u of 2 contradicts the trefoil's computed u = 1: the
        row fails, stderr names it with its provenance, and the exit is 2."""
        csv_path = tmp_path / "small.csv"
        csv_path.write_text("name,pd,signature,u,genus\n"
                            f'3_1,"{TREFOIL_PD}",-2,2,1\n')
        rc = cli_main(["tables", str(csv_path), "--format", "csv"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "row failed: 3_1: computed u 1 excludes recorded 2\n"

    def test_failed_row_outside_diff_is_not_clean(self, tmp_path, capsys):
        """The row ``bad`` records the wrong signature and fails; the
        expected table lists only 3_1, which matches.  The diff finds no
        mismatch but does not call the table clean, and the exit is 2."""
        csv_path = tmp_path / "small.csv"
        csv_path.write_text("name,pd,signature,u,genus\n"
                            f'3_1,"{TREFOIL_PD}",-2,1,1\n'
                            f'bad,"{TREFOIL_PD}",2,,\n')
        exp = tmp_path / "expected.csv"
        exp.write_text("name,u,c4,sigma,genus\n3_1,1,1,-2,1\n")
        rc = cli_main(["tables", str(csv_path), "--diff", str(exp), "--format", "csv"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "row failed: bad: " in err and "MISMATCH" not in err
        assert "diff: clean" not in err

    def test_tables_nugatory_tangle_flips(self, tmp_path, capsys):
        from test_diagram import NUG_A, NUG_B
        csv_path = tmp_path / "nug.csv"
        csv_path.write_text("name,pd,signature,u,genus\n"
                            f'nug_a,"{NUG_A}",,,\n'
                            f'nug_b,"{NUG_B}",,,\n')
        rc = cli_main(["tables", str(csv_path), "--format", "csv"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert "nug_a,2,2,-3," in out and "nug_b,1,1,1," in out

    def test_analyze_kinked_unknot_admissible(self, capsys):
        rc = cli_main(["analyze", "X[1,1,2,2]", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["obstruction"] == "admissible"

    def test_analyze_split_trefoils(self, capsys):
        rc = cli_main(["analyze", SPLIT_TREFOILS_PD])
        assert rc == 0 and "u=>=2 c4=>=2" in capsys.readouterr().out
        rc = cli_main(["search", SPLIT_TREFOILS_PD, "--changes", "2"])
        assert rc == 0 and "witness: [0, 3]" in capsys.readouterr().out

    def test_tables_split_link(self, tmp_path, capsys):
        csv_path = tmp_path / "split.csv"
        csv_path.write_text(f'name,pd,signature,u,genus\nsplit,"{SPLIT_TREFOILS_PD}",,,\n')
        rc = cli_main(["tables", str(csv_path), "--format", "csv"])
        assert rc == 0 and "split,>=2,>=2,-4," in capsys.readouterr().out.splitlines()

    def test_tables_input_error_exit_2(self, capsys):
        rc = cli_main(["tables", "/nonexistent.csv"])
        assert rc == 2

    @pytest.mark.parametrize("m", ["5", "-1"])
    def test_search_changes_out_of_range_exit_2(self, m, capsys):
        # the reduced trefoil has 3 crossings: m = 5 has no subsets and
        # m = -1 is no subset size
        rc = cli_main(["search", "3_1", "--changes", m])
        cap = capsys.readouterr()
        assert rc == 2
        assert cap.out == "" and "between 0 and 3" in cap.err

    def test_search_all_crossings_allowed(self, capsys):
        rc = cli_main(["search", "3_1", "--changes", "3"])
        assert rc == 0 and "subsets tried: 1" in capsys.readouterr().out


class TestRepeatedNames:
    """A name repeated in a table or an expected table hid a row from
    ``--diff``: both loaders kept only the last row of that name."""

    @pytest.fixture
    def two_tri(self, tmp_path):
        """The trefoil (sigma -2) and its mirror (sigma 2), both named tri."""
        mirror_pd = mirror(parse_pd(TREFOIL_PD)).to_pd_text()
        path = tmp_path / "two_tri.csv"
        path.write_text("name,pd,signature,u,genus\n"
                        f'tri,"{TREFOIL_PD}",,,\n'
                        f'tri,"{mirror_pd}",,,\n')
        return path

    def test_load_table_row_error_names_both_lines(self, two_tri):
        records, errors = load_table(two_tri)
        assert [r.pd for r in records] == [TREFOIL_PD]
        assert errors == ["line 3: tri: name repeats line 2"]

    @pytest.mark.parametrize("sigma, rc", [(2, 1), (-2, 2), (None, 2)])
    def test_tables_exit_code(self, two_tri, sigma, rc, tmp_path, capsys):
        """The mirror's row is a row error (exit 2); against the mirror's
        sigma the trefoil's row is a mismatch (exit 1)."""
        args = ["tables", str(two_tri)]
        if sigma is not None:
            exp = tmp_path / "expected.csv"
            exp.write_text(f"name,u,c4,sigma,genus\ntri,1,1,{sigma},1\n")
            args += ["--diff", str(exp)]
        assert cli_main(args) == rc
        err = capsys.readouterr().err
        assert "row error: line 3: tri: name repeats line 2" in err
        assert ("MISMATCH: tri.sigma" in err) == (rc == 1)
        assert "diff: clean" not in err

    def test_load_expected_rejects_repeat(self, tmp_path, capsys):
        exp = tmp_path / "expected.csv"
        exp.write_text("K,u,c4,sigma,g\ntri,1,1,-2,1\n3_1,1,1,-2,1\ntri,1,1,2,1\n")
        with pytest.raises(TableError, match="line 4: name 'tri' repeats line 2"):
            load_expected(exp)
        table = tmp_path / "t.csv"
        table.write_text(f'name,pd,signature,u,genus\ntri,"{TREFOIL_PD}",,,\n')
        rc = cli_main(["tables", str(table), "--diff", str(exp)])
        cap = capsys.readouterr()
        assert rc == 2 and cap.out == "" and "repeats line 2" in cap.err


class TestUndecided:
    """With no simplifier states to spend, only the greedy pass certifies,
    and a subset it leaves undecided is reported unknown."""

    @pytest.fixture
    def no_states(self, monkeypatch):
        monkeypatch.setattr(unknotting, "SIMPLIFY_NODES", 0)

    @pytest.fixture(scope="class")
    def rec_12a880(self):
        records, errors = load_table(data_path("named_pd_codes.csv"))
        assert not errors
        return next(rec for rec in records if rec.name == "12a880")

    def test_row_is_inconclusive(self, no_states, rec_12a880):
        row = analyze(rec_12a880)
        assert row.ok and row.inconclusive
        assert row.provenance == "all refuted at p; unknown at 3"
        assert row.witness is None and row.u_text() == ">=3"

    def test_analyze_exits_3(self, no_states, capsys):
        assert cli_main(["analyze", "12a880"]) == 3
        assert "provenance: all refuted at p; unknown at 3" in capsys.readouterr().out

    def test_tables_exits_3(self, no_states, rec_12a880, tmp_path, capsys):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text(f'name,pd,signature,u,genus\n12a880,"{rec_12a880.pd}",,,\n')
        assert cli_main(["tables", str(csv_path), "--format", "csv"]) == 3
        assert capsys.readouterr().err == ""

    def test_unknown_subset_does_not_stop_the_search(self, no_states):
        """s13_1's witness (0, 1, 2, 4) needs the simplifier's states; left
        unknown, the search at 4 goes on to the next certifying subset."""
        with open(PAPER13_CSV, newline="") as fh:
            pd = next(row["pd"] for row in csv.DictReader(fh) if row["name"] == "s13_1")
        v = decide_minimal_unlinking(reduce_nugatory(parse_pd(pd)))
        assert v.searches == ((2, "all_refuted"), (3, "all_refuted"), (4, "some"))
        assert (v.result, v.witness, v.u_upper) == ("greater", (0, 1, 4, 5), 4)


class TestTablesInputErrors:
    """Bad ``tables`` input is a TableError, found before any analysis
    runs, and the CLI exits 2."""

    @pytest.fixture
    def small_csv(self, tmp_path, monkeypatch):
        import specalt.tables as tables_mod

        def no_analysis(*args, **kwargs):
            raise AssertionError("analysis ran on bad input")

        monkeypatch.setattr(tables_mod, "analyze", no_analysis)
        path = tmp_path / "small.csv"
        path.write_text("name,pd,signature,u,genus\n"
                        f'3_1,"{TREFOIL_PD}",-2,1,1\n')
        return path

    def test_missing_diff_file(self, small_csv, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        with pytest.raises(TableError):
            load_expected(missing)
        rc = cli_main(["tables", str(small_csv), "--diff", str(missing)])
        assert rc == 2 and "missing.csv" in capsys.readouterr().err

    def test_diff_without_name_column(self, small_csv, tmp_path, capsys):
        exp = tmp_path / "expected.csv"
        exp.write_text("knot,u,c4,sigma,genus\n3_1,1,1,-2,1\n")
        with pytest.raises(TableError):
            load_expected(exp)
        rc = cli_main(["tables", str(small_csv), "--diff", str(exp)])
        assert rc == 2 and "no name or K column" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, jobs, small_csv, capsys):
        rc = cli_main(["tables", str(small_csv), "--jobs", jobs])
        cap = capsys.readouterr()
        assert rc == 2 and cap.out == ""
        assert cap.err == f"error: --jobs must be at least 1; got {jobs}\n"

    def test_directory_as_table(self, tmp_path, capsys):
        with pytest.raises(TableError):
            load_table(tmp_path)
        rc = cli_main(["tables", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: cannot read table")

    def test_non_utf8_table(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("name,pd,signature,u,genus\n"
                         f'n\u00e6ud,"{TREFOIL_PD}",-2,1,1\n'.encode("latin-1"))
        with pytest.raises(TableError):
            load_table(path)
        rc = cli_main(["tables", str(path)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and "not UTF-8" in err

    def test_non_utf8_diff_file(self, small_csv, tmp_path, capsys):
        exp = tmp_path / "expected.csv"
        exp.write_bytes("name,u,c4,sigma,genus\n3_1,1,1,-2,1\n"
                        "n\u00e6ud,,,,\n".encode("latin-1"))
        with pytest.raises(TableError):
            load_expected(exp)
        rc = cli_main(["tables", str(small_csv), "--diff", str(exp)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and "not UTF-8" in err

    def test_byte_order_mark(self, tmp_path, capsys):
        """A UTF-8 byte-order mark is not part of the first header cell:
        BOM-prefixed copies of the bundled fixtures and their expected table
        load as the originals do and diff clean."""
        copies = {}
        for name in ("fixtures.csv", "fixtures_expected.csv"):
            copies[name] = tmp_path / name
            copies[name].write_bytes(codecs.BOM_UTF8 + Path(data_path(name)).read_bytes())
        assert load_table(copies["fixtures.csv"]) == load_table(data_path("fixtures.csv"))
        assert (load_expected(copies["fixtures_expected.csv"])
                == load_expected(data_path("fixtures_expected.csv")))
        rc = cli_main(["tables", str(copies["fixtures.csv"]),
                       "--diff", str(copies["fixtures_expected.csv"])])
        assert rc == 0 and capsys.readouterr().err.endswith("diff: clean\n")

    @pytest.mark.parametrize("col,cell", [("u", "abc"), ("c4", "{3;4"), ("u", "3,4"),
                                          ("sigma", "-2.0"), ("genus", ">=x"),
                                          ("u", ">=-1"), ("c4", "3;")])
    def test_bad_diff_cell(self, col, cell, small_csv, tmp_path, capsys):
        """A malformed cell in the expected table is an input error, found
        when the file is read: exit 2, no analysis, no table printed."""
        cells = {"u": "1", "c4": "1", "sigma": "-2", "genus": "1", col: cell}
        exp = tmp_path / "expected.csv"
        exp.write_text("name,u,c4,sigma,genus\n3_1," +
                       ",".join(f'"{cells[c]}"' for c in ("u", "c4", "sigma", "genus")) + "\n")
        with pytest.raises(TableError, match=f"line 2: bad {col} cell"):
            load_expected(exp)
        rc = cli_main(["tables", str(small_csv), "--diff", str(exp)])
        cap = capsys.readouterr()
        assert rc == 2 and cap.out == ""
        assert cap.err.startswith("error: expected table") and f"bad {col} cell" in cap.err

    def test_diff_cell_forms_of_the_bundled_tables(self, tmp_path):
        """Every cell form the bundled expected tables use reads cleanly."""
        exp = tmp_path / "expected.csv"
        exp.write_text("name,u,c4,sigma,genus\n"
                       "a,?,>=0,0,\n"
                       "b,{2;3},2;3,-4,2\n"
                       "c,3;4,{3;4},-6,3\n")
        assert sorted(load_expected(exp)) == ["a", "b", "c"]

    @pytest.mark.parametrize("row", ["blank,,,,", 'blank,"  ",,,', "blank,PD[],,,"])
    def test_crossing_free_pd(self, row, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text(f"name,pd,signature,u,genus\n{row}\n")
        records, errors = load_table(path)
        assert records == [] and errors == ["line 2: blank: PD has no crossings"]
        rc = cli_main(["tables", str(path)])
        assert rc == 2 and "PD has no crossings" in capsys.readouterr().err


def _named_code_generator():
    """scripts/make_named_codes.py, imported as a module."""
    import importlib.util
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "make_named_codes.py")
    spec = importlib.util.spec_from_file_location("make_named_codes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _knot_crossing_sequence(d):
    """Crossings in the order one traversal of a knot diagram meets them."""
    seq = []
    cur = (0, 2)                      # slot 2 is the outgoing under-strand
    for _ in range(2 * d.n):
        c, s = d.mate(cur)
        seq.append(c)
        cur = (c, (s + 2) % 4)
    return seq


class TestNamedCodes:
    """Guard on the committed named_pd_codes.csv, which
    scripts/make_named_codes.py derives (its --check run takes minutes)."""

    @pytest.fixture(scope="class")
    def rows(self):
        records, errors = load_table(data_path("named_pd_codes.csv"))
        assert not errors, errors
        return records

    def test_rows_cover_the_named_lists(self, rows):
        with open(data_path("table_lists.json")) as fh:
            lists = json.load(fh)
        names = [r.name for r in rows]
        assert len(names) == len(set(names))
        assert set(names) == set(lists["list1_unknown_11a"]) | \
            set(lists["list_unknown_12a"])

    def test_rows_are_reduced_alternating_knots(self, rows):
        from specalt.diagram import (parse_pd, reduce_nugatory,
                                     is_special_alternating,
                                     checkerboard_negative)
        from specalt.invariants import gl_signature
        for rec in rows:
            d = parse_pd(rec.pd)
            crossings = int(rec.name.split("a")[0])
            assert d.n == crossings, rec.name
            assert reduce_nugatory(d).n == crossings, rec.name
            assert d.component_count == 1, rec.name
            assert is_special_alternating(d), rec.name
            assert gl_signature(d, checkerboard_negative(d)) == \
                rec.known_signature < 0, rec.name

    def test_min_dt_codes_increase_with_table_index(self, rows):
        """The names rest on the table order: minimal DT codes, compared
        lexicographically, increase with the index."""
        from specalt.diagram import parse_pd
        gen = _named_code_generator()
        by_crossings = {}
        for rec in rows:
            n, k = rec.name.split("a")
            seq = _knot_crossing_sequence(parse_pd(rec.pd))
            code = min(gen.dt_code(walk[i:] + walk[:i])
                       for walk in (seq, seq[::-1]) for i in range(len(seq)))
            by_crossings.setdefault(int(n), []).append((int(k), code))
        for n, entries in by_crossings.items():
            codes = [code for _, code in sorted(entries)]
            assert all(a < b for a, b in zip(codes, codes[1:])), n

    def test_generator_counts_up_to_9_edges(self):
        gen = _named_code_generator()
        census = gen.Census(9)
        assert census.rooted == {2: 1, 3: 2, 4: 6, 5: 22, 6: 91, 7: 408,
                                 8: 1938, 9: 9614}
        assert census.knot_counts() == {3: 1, 4: 1, 5: 2, 6: 3, 7: 7, 8: 18,
                                        9: 41}
        # knots plus prime alternating links of two or more components
        assert census.class_counts() == {3: 1, 4: 2, 5: 3, 6: 8, 7: 14,
                                         8: 39, 9: 96}
        assert not census.flype_failures
