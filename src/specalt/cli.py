"""Command-line front end.

    specalt analyze <name|pd>      invariants, obstruction, decision
    specalt embed <name|pd>        lattice embedding witness / obstruction
                                   (special alternating input only)
    specalt search <name|pd> --changes m    subset search at m changes
    specalt tables <csv> [--diff expected.csv]   full table run

Exit codes: 0 success, 1 diff mismatch, 2 input error or failed row, 3
inconclusive verdicts present.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import _PD_TOKEN, reduce_nugatory, DiagramError
from .tables import (KnotRecord, analyze, analyze_all, load_table, load_expected,
                     emit_tables, diff_tables, TableError,
                     bound_consistency_ok, data_path)
from .unknotting import exhaustive_search
from .lattice import obstruction


def _resolve(text: str) -> KnotRecord:
    """A PD code when ``text`` holds a crossing token ``parse_pd`` reads,
    else a knot name from the bundled fixtures or the named 11a/12a table."""
    if _PD_TOKEN.search(text):
        return KnotRecord(name="input", pd=text)
    for table in ("fixtures.csv", "named_pd_codes.csv"):
        records, _ = load_table(data_path(table))
        for rec in records:
            if rec.name == text:
                return rec
    raise DiagramError(f"unknown knot name {text!r} (not in the bundled fixtures "
                       "or named table) and not a PD code")


def cmd_analyze(args) -> int:
    rec = _resolve(args.knot)
    row = analyze(rec)
    if args.json:
        print(json.dumps(row.to_json(), indent=2))
    else:
        if not row.ok:
            print(f"{rec.name}: FAILED: {row.provenance}")
            return 2
        print(f"{rec.name}: sigma={row.sigma} nullity={row.nullity} "
              f"det={row.det} k={row.components} p={row.p}")
        print(f"  u={row.u_text()} c4={row.c4_text()} g={row.genus_text() or '-'}")
        print(f"  obstruction={row.obstruction or '-'} witness={row.witness}")
        print(f"  provenance: {row.provenance}")
    if not row.ok:
        return 2
    return 3 if row.inconclusive else 0


def cmd_embed(args) -> int:
    rec = _resolve(args.knot)
    verdict = obstruction(reduce_nugatory(rec.diagram))
    if args.json:
        print(json.dumps(verdict.to_json(), indent=2))
        return 0
    if verdict.admissible:
        print(f"{rec.name}: admissible embedding into Z^{verdict.target_dim} "
              f"(p={verdict.p})")
        for row in verdict.embedding.full_matrix:
            print("  ", list(row))
        print("  pairs:", list(verdict.pairing.pairs))
    else:
        print(f"{rec.name}: obstructed ({verdict.reason}; p={verdict.p}, "
              f"target Z^{verdict.target_dim})")
    return 0


def cmd_search(args) -> int:
    rec = _resolve(args.knot)
    d = reduce_nugatory(rec.diagram)
    if not 0 <= args.changes <= d.n:
        print(f"error: --changes must be between 0 and {d.n}, the crossing count "
              f"of the reduced diagram; got {args.changes}", file=sys.stderr)
        return 2
    out = exhaustive_search(d, args.changes)
    if args.json:
        print(json.dumps(out.to_json(), indent=2))
    else:
        print(f"{rec.name} at m={args.changes}: {out.status} "
              f"(subsets tried: {out.subsets_tried})")
        if out.witnesses:
            print("  witness:", list(out.witnesses[0]))
        if out.unknown:
            print("  unknown subsets:", [list(u) for u in out.unknown])
    return 3 if out.status == "inconclusive" else 0


def cmd_tables(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1; got {args.jobs}", file=sys.stderr)
        return 2
    records, row_errors = load_table(args.csv)
    expected = load_expected(args.diff) if args.diff else None
    for err in row_errors:
        print(f"row error: {err}", file=sys.stderr)
    if not records:
        print("error: no valid rows in table", file=sys.stderr)
        return 2
    rows = analyze_all(records, jobs=args.jobs)
    bad_bounds = [r.name for r in rows if not bound_consistency_ok(r)]
    if bad_bounds:
        print(f"bound consistency violated for: {bad_bounds}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([r.to_json() for r in rows], indent=2))
    else:
        print(emit_tables(rows, fmt=args.format), end="")
    failed = [r for r in rows if not r.ok]
    for r in failed:
        print(f"row failed: {r.name}: {r.provenance}", file=sys.stderr)
    rc = 0
    if expected is not None:
        result = diff_tables(rows, expected)
        for note in result.loose:
            print(f"note: {note}", file=sys.stderr)
        for bad in result.mismatches:
            print(f"MISMATCH: {bad}", file=sys.stderr)
        if not result.clean:
            rc = 1
        elif not (result.loose or row_errors or failed):
            print("diff: clean", file=sys.stderr)
    if (row_errors or failed) and rc == 0:
        rc = 2
    if rc == 0 and any(r.inconclusive for r in rows):
        rc = 3
    return rc


def main(argv=None) -> int:
    # --json is accepted before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="JSON output")

    ap = argparse.ArgumentParser(prog="specalt",
                                 description="unlinking-number certification "
                                             "for special alternating links")
    ap.add_argument("--json", action="store_true", help="JSON output")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="full pipeline for one knot")
    p.add_argument("knot")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("embed", parents=[common],
                       help="lattice embedding / obstruction")
    p.add_argument("knot")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("search", parents=[common],
                       help="crossing-change subset search")
    p.add_argument("knot")
    p.add_argument("--changes", type=int, required=True)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("tables", parents=[common],
                       help="analyze a CSV of knots")
    p.add_argument("csv")
    p.add_argument("--diff", help="expected-values CSV to compare against")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers (default 1)")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p.set_defaults(fn=cmd_tables)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (DiagramError, TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
