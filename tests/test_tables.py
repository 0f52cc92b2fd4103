import json

import pytest

from specalt.tables import (KnotRecord, load_table, analyze, analyze_all,
                            emit_tables, load_expected, diff_tables, TableError,
                            bound_consistency_ok, natural_key)
from specalt.cli import main as cli_main
from specalt.diagram import (parse_pd, reduce_nugatory, canonical_key,
                             is_special_alternating)

from conftest import TREFOIL_PD


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

    def test_non_special_gets_bounds_only(self):
        from specalt.families import rational_link
        rec = KnotRecord("4_1", rational_link([2, 2]).to_pd_text())
        row = analyze(rec)
        assert row.ok
        assert row.u_upper is None
        assert "bounds only" in row.provenance

    def test_parse_failure_row(self):
        row = analyze(KnotRecord("junk", "X[1,2,3,4] X[1,2,3,4]"))
        assert not row.ok

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
        from specalt.tables import data_path
        rows = analyze_all(bundled)
        result = diff_tables(rows, load_expected(data_path("fixtures_expected.csv")))
        assert result.clean, result.mismatches
        assert not result.loose, result.loose


class TestJobsEnvVar:
    def test_spec_jobs_env_default(self, bundled, monkeypatch):
        import specalt.tables as tables_mod
        monkeypatch.setenv("SPECALT_JOBS", "2")
        subset = [r for r in bundled if r.name in ("3_1", "hopf")]
        rows = tables_mod.analyze_all(subset)   # jobs=None reads the env var
        assert [r.name for r in rows] == ["3_1", "hopf"]
        assert all(r.ok for r in rows)


class TestCertificateChecks:
    """Cross-checks that guard a certificate raise named errors, which
    ``python -O`` keeps, and fail only the row they belong to."""

    def test_signature_routes_disagree_fails_row(self, monkeypatch):
        from specalt import lattice
        real = lattice.gl_signature
        monkeypatch.setattr(lattice, "gl_signature",
                            lambda d, cb: real(d, cb) + 2)
        with pytest.raises(lattice.SignatureRoutesDisagree):
            lattice.obstruction(parse_pd(TREFOIL_PD))
        row = analyze(KnotRecord("3_1", TREFOIL_PD))
        assert not row.ok
        assert "Goeritz-route sigma" in row.provenance

    def test_witness_contradicts_obstruction_fails_row(self, monkeypatch):
        from specalt import unknotting
        from specalt.lattice import ObstructionVerdict
        monkeypatch.setattr(
            unknotting, "obstruction",
            lambda d, *, sigma=None: ObstructionVerdict(False, 1, 2,
                                                        reason="exhausted"))
        with pytest.raises(unknotting.WitnessContradictsObstruction):
            unknotting.decide_minimal_unlinking(parse_pd(TREFOIL_PD))
        row = analyze(KnotRecord("3_1", TREFOIL_PD))
        assert not row.ok
        assert "lattice is obstructed" in row.provenance

    def test_oracle_error_fails_only_its_row(self, bundled, monkeypatch):
        from specalt import seifert
        subset = [r for r in bundled if r.name in ("3_1", "hopf", "7_4", "5_2")]
        before = analyze_all(subset, jobs=1)
        bad = canonical_key(reduce_nugatory(
            parse_pd(next(r.pd for r in subset if r.name == "7_4"))))
        real = seifert.signature_nullity

        def flaky(d):
            if canonical_key(d) == bad:
                raise seifert.SeifertError("injected oracle failure")
            return real(d)

        monkeypatch.setattr(seifert, "signature_nullity", flaky)
        after = analyze_all(subset, jobs=1)
        assert len(after) == len(subset)
        for old, new in zip(before, after):
            if new.name == "7_4":
                assert not new.ok
                assert "injected oracle failure" in new.provenance
            else:
                assert new.to_json() | {"seconds": 0} == \
                    old.to_json() | {"seconds": 0}


class TestOracleCalls:
    def test_one_oracle_call_per_special_alternating_knot(self, bundled,
                                                          monkeypatch):
        """analyze computes sigma once and hands it down to the decision
        and the obstruction."""
        from specalt import seifert
        real = seifert.signature_nullity
        calls = []

        def counting(d):
            calls.append(d)
            return real(d)

        monkeypatch.setattr(seifert, "signature_nullity", counting)
        counts = {}
        for rec in bundled:
            d = reduce_nugatory(parse_pd(rec.pd))
            if not (is_special_alternating(d) and d.is_connected):
                continue
            calls.clear()
            row = analyze(rec)
            assert row.ok, rec.name
            counts[rec.name] = len(calls)
        assert len(counts) >= 30
        assert {name: c for name, c in counts.items() if c != 1} == {}


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

    def test_analyze_dt_code(self, capsys):
        rc = cli_main(["analyze", "4 6 2", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["determinant"] == 3 and out["genus"] == "1"

    def test_analyze_unknown_name(self, capsys):
        rc = cli_main(["analyze", "99a999"])
        assert rc == 2

    def test_embed_json(self, capsys):
        rc = cli_main(["--json", "embed", "3_1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["admissible"] is True

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
        assert rc == 0

    def test_tables_diff_mismatch_exit_1(self, tmp_path, capsys):
        csv_path = tmp_path / "small.csv"
        csv_path.write_text("name,pd,signature,u,genus\n"
                            f'3_1,"{TREFOIL_PD}",-2,1,1\n')
        exp = tmp_path / "expected.csv"
        exp.write_text("name,u,c4,sigma,genus\n3_1,4,4,-2,1\n")
        rc = cli_main(["tables", str(csv_path), "--diff", str(exp)])
        assert rc == 1

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

    def test_bad_jobs_env_var(self, small_csv, monkeypatch, capsys):
        monkeypatch.setenv("SPECALT_JOBS", "abc")
        records, _ = load_table(small_csv)
        with pytest.raises(TableError):
            analyze_all(records)
        rc = cli_main(["tables", str(small_csv)])
        assert rc == 2 and "SPECALT_JOBS" in capsys.readouterr().err


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
        from specalt.tables import data_path
        records, errors = load_table(data_path("named_pd_codes.csv"))
        assert not errors, errors
        return records

    def test_rows_cover_the_named_lists(self, rows):
        from specalt.tables import data_path
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
