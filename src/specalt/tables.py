"""Knot-table harness: CSV ingestion, per-knot analysis, report emission.

The bundled fixtures CSV has header ``name,pd,signature,u,genus``; the
``u`` cell may be empty or a set like ``3;4``.  Reports carry exact
values or certified bounds, never guesses.
"""

from __future__ import annotations

import csv
import math
import os
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from concurrent.futures import ProcessPoolExecutor

from .diagram import (parse_pd, reduce_nugatory, DiagramError,
                      is_special_alternating)
from .invariants import classical_invariants, unlinking_lower_bound
from .seifert import SeifertError
from .unknotting import SimplifyBudget, bound_text, decide_minimal_unlinking


class TableError(ValueError):
    pass


@dataclass(frozen=True)
class KnotRecord:
    name: str
    pd: str
    known_signature: int | None = None
    known_u: frozenset[int] | None = None
    known_genus: int | None = None


@dataclass(frozen=True)
class ReportRow:
    name: str
    ok: bool
    sigma: int | None = None
    nullity: int | None = None
    det: int | None = None
    components: int | None = None
    p: Fraction | None = None
    u_lower: int | None = None
    u_upper: int | None = None
    c4_lower: int | None = None
    c4_upper: int | None = None
    genus: Fraction | None = None
    provenance: str = ""
    witness: tuple[int, ...] | None = None
    obstruction: str = ""
    seconds: float = 0.0

    def u_text(self) -> str:
        return bound_text(self.u_lower, self.u_upper)

    def c4_text(self) -> str:
        return bound_text(self.c4_lower, self.c4_upper)

    def genus_text(self) -> str:
        if self.genus is None:
            return ""
        return str(int(self.genus)) if self.genus.denominator == 1 else str(self.genus)

    def to_json(self):
        return {"name": self.name, "ok": self.ok, "sigma": self.sigma,
                "nullity": self.nullity, "determinant": self.det,
                "components": self.components,
                "p": None if self.p is None else str(self.p),
                "u": self.u_text(), "c4": self.c4_text(),
                "u_lower": self.u_lower, "u_upper": self.u_upper,
                "c4_lower": self.c4_lower, "c4_upper": self.c4_upper,
                "genus": self.genus_text(), "witness":
                    list(self.witness) if self.witness else None,
                "obstruction": self.obstruction,
                "provenance": self.provenance, "seconds": round(self.seconds, 3)}


def _parse_u_cell(cell: str) -> frozenset[int] | None:
    cell = cell.strip()
    if not cell:
        return None
    parts = re.split(r"[;,]", cell.strip("{} "))
    return frozenset(int(p) for p in parts if p.strip())


HEADER = ["name", "pd", "signature", "u", "genus"]


def load_table(path) -> tuple[list[KnotRecord], list[str]]:
    """Read a fixtures CSV; returns (records, per-row error strings)."""
    if not os.path.exists(path):
        raise TableError(f"no such table file: {path}")
    records: list[KnotRecord] = []
    errors: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableError("empty table file")
        if [h.strip() for h in header] != HEADER:
            raise TableError(f"header mismatch: expected {','.join(HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                errors.append(f"line {lineno}: expected 5 cells, got {len(row)}")
                continue
            name, pd_text, sig, u_cell, genus = [c.strip() for c in row]
            try:
                parse_pd(pd_text)
            except DiagramError as exc:
                errors.append(f"line {lineno}: {name}: unparseable PD: {exc}")
                continue
            try:
                records.append(KnotRecord(
                    name=name,
                    pd=pd_text,
                    known_signature=int(sig) if sig else None,
                    known_u=_parse_u_cell(u_cell),
                    known_genus=int(genus) if genus else None,
                ))
            except ValueError as exc:
                errors.append(f"line {lineno}: {name}: bad cell: {exc}")
    return records, errors


def analyze(record: KnotRecord, budget: SimplifyBudget = SimplifyBudget()) -> ReportRow:
    """parse -> reduce -> invariants -> obstruction -> decide."""
    start = time.monotonic()
    try:
        d = parse_pd(record.pd)
        d = reduce_nugatory(d)
        inv = classical_invariants(d)
        if record.known_signature is not None and inv.signature != record.known_signature:
            return ReportRow(record.name, False, sigma=inv.signature,
                             provenance=f"computed sigma {inv.signature} != "
                                        f"recorded {record.known_signature}",
                             seconds=time.monotonic() - start)
        p, c4b = unlinking_lower_bound(inv.signature, inv.nullity, inv.component_count)
        base = dict(sigma=inv.signature, nullity=inv.nullity, det=inv.determinant,
                    components=inv.component_count, p=p, genus=inv.seifert_genus_report)
        if not (is_special_alternating(d) and d.is_connected):
            return ReportRow(record.name, True,
                             u_lower=math.ceil(p), u_upper=None,
                             c4_lower=math.ceil(c4b), c4_upper=None,
                             provenance="not special alternating: classical bounds only",
                             seconds=time.monotonic() - start, **base)
        verdict = decide_minimal_unlinking(d, budget, sigma=inv.signature)
        return ReportRow(record.name, True,
                         u_lower=verdict.u_lower, u_upper=verdict.u_upper,
                         c4_lower=verdict.c4_lower, c4_upper=verdict.c4_upper,
                         witness=verdict.witness,
                         obstruction=("admissible" if verdict.obstruction_verdict
                                      and verdict.obstruction_verdict.admissible
                                      else "obstructed"),
                         provenance=verdict.provenance,
                         seconds=time.monotonic() - start, **base)
    except (DiagramError, SeifertError) as exc:
        return ReportRow(record.name, False, provenance=f"error: {exc}",
                         seconds=time.monotonic() - start)


def analyze_all(records, budget: SimplifyBudget = SimplifyBudget(),
                jobs: int | None = None) -> list[ReportRow]:
    """Deterministic parallel map; results in input order.  ``jobs``
    defaults to ``$SPECALT_JOBS`` or 1."""
    if jobs is None:
        env = os.environ.get("SPECALT_JOBS", "1")
        try:
            jobs = int(env)
        except ValueError:
            raise TableError(f"SPECALT_JOBS must be an integer, got {env!r}") from None
    if jobs <= 1 or len(records) <= 1:
        return [analyze(r, budget) for r in records]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(analyze, records, [budget] * len(records)))


def natural_key(name: str):
    return tuple((0, int(p), "") if p.isdigit() else (1, 0, p)
                 for p in re.findall(r"\d+|\D+", name))


def emit_tables(rows, fmt: str = "markdown") -> str:
    """Markdown or CSV table, columns K,u,c4,sigma,g, sorted by name."""
    rows = sorted(rows, key=lambda r: natural_key(r.name))
    if not rows:
        raise TableError("no rows to emit")
    if fmt == "csv":
        out = ["K,u,c4,sigma,g"]
        for r in rows:
            out.append(f"{r.name},{r.u_text()},{r.c4_text()},{r.sigma},{r.genus_text()}")
        return "\n".join(out) + "\n"
    if fmt == "markdown":
        out = ["| K | u | c4 | sigma | g |", "|---|---|----|-------|---|"]
        for r in rows:
            out.append(f"| {r.name} | {r.u_text()} | {r.c4_text()} | "
                       f"{r.sigma} | {r.genus_text()} |")
        return "\n".join(out) + "\n"
    raise TableError(f"unknown format {fmt}")


def _cell_set(text: str) -> frozenset[int] | None:
    text = text.strip()
    if not text or text == "?":
        return None
    m = re.match(r">=(\d+)$", text)
    if m:
        return None  # open-ended bounds compare as consistent-only
    return frozenset(int(p) for p in re.split(r"[;,]", text.strip("{} ")) if p.strip())


@dataclass(frozen=True)
class DiffResult:
    mismatches: tuple[str, ...]
    loose: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.mismatches


def load_expected(path) -> dict[str, dict[str, str]]:
    """Read an expected table into {name: row}; accepts both the fixture
    header (name/genus) and the emitted report header (K/g)."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise TableError(f"cannot read expected table {path}: {exc.strerror}") from None
    expected: dict[str, dict[str, str]] = {}
    with fh:
        reader = csv.DictReader(fh, restval="")
        if not {"name", "K"} & set(reader.fieldnames or ()):
            raise TableError(f"expected table {path} has no name or K column")
        for rec in reader:
            rec = {("name" if k == "K" else "genus" if k == "g" else k): v
                   for k, v in rec.items()}
            expected[rec["name"].strip()] = rec
    return expected


def diff_tables(rows, expected: dict[str, dict[str, str]]) -> DiffResult:
    """Compare computed rows against an expected table (columns
    name,u,c4,sigma,genus) as ``load_expected`` reads it.  A cell is
    consistent when one value set contains the other; equal cells are
    silent, consistent-but-unequal cells are listed as loose notes, the
    rest are mismatches."""
    by_name = {r.name: r for r in rows}
    mismatches: list[str] = []
    loose: list[str] = []
    for name in sorted(expected, key=natural_key):
        exp = expected[name]
        row = by_name.get(name)
        if row is None or not row.ok:
            mismatches.append(f"{name}: missing or failed row")
            continue
        checks = [("sigma", str(row.sigma), exp.get("sigma", "").strip()),
                  ("g", row.genus_text(), exp.get("genus", "").strip()),
                  ("u", row.u_text(), exp.get("u", "").strip()),
                  ("c4", row.c4_text(), exp.get("c4", "").strip())]
        for col, got, want in checks:
            if not want:
                continue
            if got == want:
                continue
            sg, sw = _cell_set(got), _cell_set(want)
            if sg is not None and sw is not None and (sg <= sw or sw <= sg):
                loose.append(f"{name}.{col}: computed {got} vs expected {want} (consistent)")
            else:
                mismatches.append(f"{name}.{col}: computed {got} vs expected {want}")
    return DiffResult(tuple(mismatches), tuple(loose))


def bound_consistency_ok(row: ReportRow) -> bool:
    """Post-emission assertion: (|sigma|+k-1)/2 <= c4 <= u on every row."""
    if not row.ok or row.sigma is None:
        return True
    p = Fraction(abs(row.sigma) + (row.components or 1) - 1, 2)
    if row.c4_lower is not None and row.c4_lower < p:
        return False
    if row.u_lower is not None and row.c4_lower is not None and row.u_lower < row.c4_lower:
        return False
    if (row.u_upper is not None and row.c4_upper is not None
            and row.c4_upper > row.u_upper):
        return False
    return True


def data_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "data", name)


def load_bundled_fixtures() -> tuple[list[KnotRecord], list[str]]:
    return load_table(data_path("fixtures.csv"))
