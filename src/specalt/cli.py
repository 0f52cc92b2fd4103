"""Command-line front end.

    specalt analyze <name|pd>      invariants, obstruction, decision
    specalt embed <name|pd>        lattice embedding witness / obstruction
    specalt search <name|pd> --changes m    subset search at m changes
    specalt tables <csv> [--diff expected.csv]   full table run

Exit codes: 0 success, 1 diff mismatch, 2 input error, 3 inconclusive
verdicts present.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import parse_pd, reduce_nugatory, DiagramError
from .tables import (KnotRecord, analyze, analyze_all, load_table, load_expected,
                     emit_tables, diff_tables, load_bundled_fixtures, TableError,
                     bound_consistency_ok)
from .unknotting import SimplifyBudget, exhaustive_search
from .lattice import obstruction


def _resolve(text: str) -> KnotRecord:
    """A knot name from the bundled fixtures, a PD code, or a knot DT code."""
    if "X" in text or "x" in text:
        return KnotRecord(name="input", pd=text)
    parts = text.replace(",", " ").split()
    if len(parts) > 1 and all(p.lstrip("-").isdigit() for p in parts):
        from .diagram import parse_dt
        return KnotRecord(name="input", pd=parse_dt(text).to_pd_text())
    records, _ = load_bundled_fixtures()
    for rec in records:
        if rec.name == text:
            return rec
    raise DiagramError(f"unknown knot name {text!r} (not in bundled fixtures) "
                       "and not a PD or DT code")


def _budget(args) -> SimplifyBudget:
    return SimplifyBudget(extra=args.budget_extra, nodes=args.budget_nodes)


def cmd_analyze(args) -> int:
    try:
        rec = _resolve(args.knot)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    row = analyze(rec, _budget(args))
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
    if row.u_upper is None and "unknown" in row.provenance:
        return 3
    return 0


def cmd_embed(args) -> int:
    try:
        rec = _resolve(args.knot)
        d = reduce_nugatory(parse_pd(rec.pd))
        verdict = obstruction(d)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(verdict.to_json(), indent=2))
        return 0
    if verdict.admissible:
        print(f"{rec.name}: admissible embedding into Z^{verdict.target_dim} "
              f"(p={verdict.p}, nodes={verdict.nodes})")
        for row in verdict.embedding.full_matrix:
            print("  ", list(row))
        print("  pairs:", list(verdict.pairing.pairs))
    else:
        print(f"{rec.name}: obstructed ({verdict.reason}; p={verdict.p}, "
              f"target Z^{verdict.target_dim}, nodes={verdict.nodes})")
    return 0


def cmd_search(args) -> int:
    try:
        rec = _resolve(args.knot)
        d = reduce_nugatory(parse_pd(rec.pd))
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not 0 <= args.changes <= d.n:
        print(f"error: --changes must be between 0 and {d.n}, the crossing count "
              f"of the reduced diagram; got {args.changes}", file=sys.stderr)
        return 2
    out = exhaustive_search(d, args.changes, _budget(args))
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
    try:
        records, row_errors = load_table(args.csv)
        expected = load_expected(args.diff) if args.diff else None
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for err in row_errors:
        print(f"row error: {err}", file=sys.stderr)
    if not records:
        print("error: no valid rows in table", file=sys.stderr)
        return 2
    try:
        rows = analyze_all(records, _budget(args), jobs=args.jobs)
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bad_bounds = [r.name for r in rows if not bound_consistency_ok(r)]
    if bad_bounds:
        print(f"bound consistency violated for: {bad_bounds}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([r.to_json() for r in rows], indent=2))
    else:
        print(emit_tables(rows, fmt=args.format), end="")
    rc = 0
    if expected is not None:
        result = diff_tables(rows, expected)
        for note in result.loose:
            print(f"note: {note}", file=sys.stderr)
        for bad in result.mismatches:
            print(f"MISMATCH: {bad}", file=sys.stderr)
        if not result.clean:
            rc = 1
        elif not result.mismatches and not result.loose:
            print("diff: clean", file=sys.stderr)
    if row_errors and rc == 0:
        rc = 2
    if rc == 0 and any("unknown" in r.provenance for r in rows if r.ok):
        rc = 3
    return rc


def main(argv=None) -> int:
    def add_common(parser, suppress):
        kw = {"default": argparse.SUPPRESS} if suppress else {}
        parser.add_argument("--budget-extra", type=int,
                            **(kw or {"default": 2}),
                            help="extra crossings the simplifier may add (default 2)")
        parser.add_argument("--budget-nodes", type=int,
                            **(kw or {"default": 1_000_000}),
                            help="diagram states per subset (default 1e6)")
        parser.add_argument("--json", action="store_true",
                            **(kw or {"default": False}), help="JSON output")

    common = argparse.ArgumentParser(add_help=False)
    add_common(common, suppress=True)

    ap = argparse.ArgumentParser(prog="specalt",
                                 description="unlinking-number certification "
                                             "for special alternating links")
    add_common(ap, suppress=False)
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
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel workers (default $SPECALT_JOBS or 1)")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p.set_defaults(fn=cmd_tables)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
