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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

from .diagram import (LinkDiagram, parse_pd, reduce_nugatory, DiagramError,
                      is_special_alternating)
from .invariants import classical_invariants, unlinking_lower_bound
from .unknotting import bound_text, decide_minimal_unlinking


class TableError(ValueError):
    pass


class SignatureRoutesDisagree(DiagramError):
    """The decision's lattice signature, read from the all-(-1) coloring,
    differs from the reported Gordon-Litherland one, read from
    ``checkerboard``; the bound p would be wrong."""


@dataclass(frozen=True)
class KnotRecord:
    name: str
    pd: str
    known_signature: int | None = None
    known_u: frozenset[int] | None = None
    known_genus: int | None = None

    @cached_property
    def diagram(self) -> LinkDiagram:
        """The parsed PD, parsed once per record."""
        return parse_pd(self.pd)


@dataclass(frozen=True)
class ReportRow:
    name: str
    ok: bool
    sigma: int | None = None
    nullity: int | None = None
    det: int | None = None
    components: int | None = None
    p: int | None = None
    u_lower: int | None = None
    u_upper: int | None = None
    c4_lower: int | None = None
    c4_upper: int | None = None
    genus: int | None = None
    provenance: str = ""
    witness: tuple[int, ...] | None = None
    obstruction: str = ""
    seconds: float = 0.0

    @property
    def inconclusive(self) -> bool:
        """A decided row whose search left subsets unknown (exit code 3)."""
        return self.ok and "unknown" in self.provenance

    def u_text(self) -> str:
        return bound_text(self.u_lower, self.u_upper)

    def c4_text(self) -> str:
        return bound_text(self.c4_lower, self.c4_upper)

    def sigma_text(self) -> str:
        return "?" if self.sigma is None else str(self.sigma)

    def genus_text(self) -> str:
        return "" if self.genus is None else str(self.genus)

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


_SET_CELL = re.compile(r"\{(-?\d+(?:;-?\d+)*)\}|(-?\d+(?:;-?\d+)*)")


def _cell_values(text: str) -> list[int]:
    """The integers of a set cell ``N``, ``{N;N;...}`` or ``N;N;...`` (N
    may be negative); any other text raises TableError."""
    m = _SET_CELL.fullmatch(text)
    if m is None:
        raise TableError(f"{text!r} is not an integer set N, {{N;...}} or N;...")
    return [int(x) for x in (m[1] or m[2]).split(";")]


def _parse_u_cell(cell: str) -> frozenset[int] | None:
    return frozenset(_cell_values(cell)) if cell else None


HEADER = ["name", "pd", "signature", "u", "genus"]


@contextmanager
def _open_csv(path, what: str):
    """``path`` opened for CSV reading; a file that cannot be opened or
    is not UTF-8 raises TableError."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise TableError(f"cannot read {what} {path}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise TableError(f"{what} {path} is not UTF-8: {exc.reason}") from None


def load_table(path) -> tuple[list[KnotRecord], list[str]]:
    """Read a fixtures CSV; returns (records, per-row error strings).  A
    name already used by an earlier row is an error of the later row."""
    records: list[KnotRecord] = []
    errors: list[str] = []
    first_line: dict[str, int] = {}
    with _open_csv(path, "table") as fh:
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
            if name in first_line:
                errors.append(f"line {lineno}: {name}: name repeats line {first_line[name]}")
                continue
            first_line[name] = lineno
            try:
                rec = KnotRecord(name, pd_text,
                                 known_signature=int(sig) if sig else None,
                                 known_u=_parse_u_cell(u_cell),
                                 known_genus=int(genus) if genus else None)
                bad_cell = None
            except ValueError as exc:
                rec, bad_cell = KnotRecord(name, pd_text), exc
            try:
                crossing_free = rec.diagram.n == 0
            except DiagramError as exc:
                errors.append(f"line {lineno}: {name}: unparseable PD: {exc}")
                continue
            if crossing_free:
                errors.append(f"line {lineno}: {name}: PD has no crossings")
            elif bad_cell is not None:
                errors.append(f"line {lineno}: {name}: bad cell: {bad_cell}")
            else:
                records.append(rec)
    return records, errors


def analyze(record: KnotRecord) -> ReportRow:
    """parse -> reduce -> invariants -> obstruction -> decide.

    The row fails, its provenance naming the cell, when the record's
    signature or genus differs from the computed one, or when its u set
    has no value inside the computed bounds [u_lower, u_upper]."""
    start = time.monotonic()
    try:
        d = reduce_nugatory(record.diagram)
        inv = classical_invariants(d)
        if record.known_signature is not None and inv.signature != record.known_signature:
            return ReportRow(record.name, False, sigma=inv.signature,
                             provenance=f"computed sigma {inv.signature} != "
                                        f"recorded {record.known_signature}",
                             seconds=time.monotonic() - start)
        genus = inv.seifert_genus_report
        if None not in (genus, record.known_genus) and genus != record.known_genus:
            return ReportRow(record.name, False, genus=genus,
                             provenance=f"computed genus {genus} != "
                                        f"recorded {record.known_genus}",
                             seconds=time.monotonic() - start)
        p, c4b = unlinking_lower_bound(inv.signature, inv.nullity, inv.component_count)
        base = dict(sigma=inv.signature, nullity=inv.nullity, det=inv.determinant,
                    components=inv.component_count, p=p, genus=genus)
        if not is_special_alternating(d):
            row = ReportRow(record.name, True,
                            u_lower=p, c4_lower=c4b,
                            provenance="not special alternating: classical bounds only",
                            **base)
        else:
            verdict = decide_minimal_unlinking(d)
            if verdict.sigma != inv.signature:
                raise SignatureRoutesDisagree(
                    f"Goeritz-route sigma {verdict.sigma} != "
                    f"reported sigma {inv.signature}")
            row = ReportRow(record.name, True,
                            u_lower=verdict.u_lower, u_upper=verdict.u_upper,
                            c4_lower=verdict.u_lower, c4_upper=verdict.u_upper,
                            witness=verdict.witness,
                            obstruction=("admissible"
                                         if verdict.obstruction_verdict.admissible
                                         else "obstructed"),
                            provenance=verdict.provenance, **base)
        u_upper = math.inf if row.u_upper is None else row.u_upper
        if record.known_u is not None and not any(
                row.u_lower <= u <= u_upper for u in record.known_u):
            recorded = ";".join(map(str, sorted(record.known_u)))
            return ReportRow(record.name, False, u_lower=row.u_lower,
                             u_upper=row.u_upper,
                             provenance=f"computed u {row.u_text()} excludes "
                                        f"recorded {recorded}",
                             seconds=time.monotonic() - start)
        return replace(row, seconds=time.monotonic() - start)
    except ValueError as exc:   # DiagramError, linalg errors
        return ReportRow(record.name, False, provenance=f"error: {exc}",
                         seconds=time.monotonic() - start)


def analyze_all(records, jobs: int = 1) -> list[ReportRow]:
    """Deterministic parallel map over ``jobs`` workers; results in input
    order."""
    if jobs <= 1 or len(records) <= 1:
        return [analyze(r) for r in records]
    # Imported here so that a serial run never loads the process pool.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(analyze, records))


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
            out.append(f"{r.name},{r.u_text()},{r.c4_text()},{r.sigma_text()},"
                       f"{r.genus_text()}")
        return "\n".join(out) + "\n"
    if fmt == "markdown":
        out = ["| K | u | c4 | sigma | g |", "|---|---|----|-------|---|"]
        for r in rows:
            out.append(f"| {r.name} | {r.u_text()} | {r.c4_text()} | "
                       f"{r.sigma_text()} | {r.genus_text()} |")
        return "\n".join(out) + "\n"
    raise TableError(f"unknown format {fmt}")


def _cell_set(text: str) -> frozenset[int] | tuple[int, float] | None:
    """A stripped cell as the values it allows: the interval (lo, infinity)
    for an open-ended ``>=lo``, the value set of any other set cell (read
    by ``_cell_values``), None for an empty or unknown ``?`` cell."""
    if not text or text == "?":
        return None
    m = re.fullmatch(r">=(\d+)", text)
    if m:
        return int(m[1]), math.inf
    return frozenset(_cell_values(text))


def _cell_interval(text: str) -> tuple[int, float] | None:
    """A stripped cell as the integer interval (lo, hi) it spans, hi
    infinite for an open-ended ``>=lo``; None for an empty or ``?`` cell."""
    vals = _cell_set(text)
    if isinstance(vals, frozenset):
        return min(vals), max(vals)
    return vals


@dataclass(frozen=True)
class DiffResult:
    mismatches: tuple[str, ...]
    loose: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.mismatches


def load_expected(path) -> dict[str, dict[str, str]]:
    """Read an expected table into {name: row}; accepts both the fixture
    header (name/genus) and the emitted report header (K/g).  Every u, c4,
    sigma and genus cell must read as ``_cell_interval`` reads it, and no
    name may repeat, or the file raises TableError before any row is
    analysed."""
    expected: dict[str, dict[str, str]] = {}
    first_line: dict[str, int] = {}
    with _open_csv(path, "expected table") as fh:
        reader = csv.DictReader(fh, restval="")
        if not {"name", "K"} & set(reader.fieldnames or ()):
            raise TableError(f"expected table {path} has no name or K column")
        for rec in reader:
            rec = {("name" if k == "K" else "genus" if k == "g" else k): v
                   for k, v in rec.items()}
            for col in ("u", "c4", "sigma", "genus"):
                text = rec.get(col, "").strip()
                try:
                    _cell_interval(text)
                except TableError:
                    raise TableError(
                        f"expected table {path} line {reader.line_num}: bad {col} "
                        f"cell {text!r}: expected ?, >=N, N, {{N;...}} or N;..."
                    ) from None
            name = rec["name"].strip()
            if name in first_line:
                raise TableError(f"expected table {path} line {reader.line_num}: "
                                 f"name {name!r} repeats line {first_line[name]}")
            first_line[name] = reader.line_num
            expected[name] = rec
    return expected


def diff_tables(rows, expected: dict[str, dict[str, str]]) -> DiffResult:
    """Compare computed rows against an expected table (columns
    name,u,c4,sigma,genus) as ``load_expected`` reads it.  Cells compare
    as value sets first: cells that allow the same values, such as
    ``{3;4}`` and ``3;4``, are silent.  Otherwise they compare as integer
    intervals, ``>=lo`` meaning [lo, infinity); a cell consistent with the
    other (one interval contains the other) is listed as a loose note, the
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
        checks = [("sigma", row.sigma_text(), exp.get("sigma", "").strip()),
                  ("g", row.genus_text(), exp.get("genus", "").strip()),
                  ("u", row.u_text(), exp.get("u", "").strip()),
                  ("c4", row.c4_text(), exp.get("c4", "").strip())]
        for col, got, want in checks:
            if not want:
                continue
            if _cell_set(got) == _cell_set(want):
                continue
            ig, iw = _cell_interval(got), _cell_interval(want)
            if ig and iw and (iw[0] <= ig[0] <= ig[1] <= iw[1]
                              or ig[0] <= iw[0] <= iw[1] <= ig[1]):
                loose.append(f"{name}.{col}: computed {got} vs expected {want} (consistent)")
            else:
                mismatches.append(f"{name}.{col}: computed {got} vs expected {want}")
    return DiffResult(tuple(mismatches), tuple(loose))


def bound_consistency_ok(row: ReportRow) -> bool:
    """Post-emission assertion: (|sigma|-eta+k-1)/2 <= c4 <= u on every row."""
    if not row.ok or row.sigma is None:
        return True
    c4b = unlinking_lower_bound(row.sigma, row.nullity, row.components or 1)[1]
    if row.c4_lower is not None and row.c4_lower < c4b:
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
