"""The three workloads: their inputs, set-up and operations.

An operation is one knot analysed through ``tables.analyze_all`` or one
``unknotting.exhaustive_search(d, m)`` call.  Operations run as a closed
loop with one client.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import paper13

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "src"))

MAX_EXTRA = 2     # decide_minimal_unlinking's default max_extra_searches


def import_specalt():
    """Import specalt afresh from this checkout's ``src`` directory."""
    for key in [k for k in sys.modules if k == "specalt" or k.startswith("specalt.")]:
        del sys.modules[key]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import specalt
    where = os.path.dirname(os.path.abspath(specalt.__file__))
    if where != os.path.join(SRC, "specalt"):
        raise ImportError(f"specalt imported from {where}, not from {SRC}")
    return specalt


def search_input(pd: str, sigma: int, k: int):
    """The diagram and p that ``decide_minimal_unlinking`` searches on:
    nugatory-reduced, mirrored to sigma <= 0.  p is None when (|sigma|+k-1)/2
    is not an integer, in which case decide does not search."""
    from specalt.diagram import parse_pd, reduce_nugatory, mirror
    d = reduce_nugatory(parse_pd(pd))
    if sigma > 0:
        d = mirror(d)
    p = Fraction(abs(sigma) + k - 1, 2)
    return d, (int(p) if p.denominator == 1 else None)


@dataclass
class Op:
    """One finished operation: its id, seconds, output or the exception."""
    op_id: str
    seconds: float
    output: object = None
    error: str = ""


class TableWorkload:
    """``analyze_all`` over a knot table, one knot per operation."""

    def __init__(self, name: str, table: str):
        self.name = name
        self.table = table          # "fixtures" or "paper13"
        self.records = []
        self.pds: dict[str, str] = {}
        self.graphs: dict | None = None

    def setup(self, seed: int, held_out: int | None):
        from specalt import tables
        if self.table == "fixtures":
            records, errors = tables.load_bundled_fixtures()
        elif held_out is None:
            records, errors = tables.load_table(paper13.TABLE_CSV)
            self.graphs = paper13.read_graphs()
        else:
            records, errors = self._held_out(tables, held_out)
        if errors:
            raise RuntimeError(f"{self.name}: table rows rejected: {errors}")
        random.Random(seed).shuffle(records)
        self.records = records
        self.pds = {r.name: r.pd for r in records}

    def _held_out(self, tables, seed):
        import tempfile
        entries = paper13.generate(seed)
        self.graphs = {name: (nv, edges) for name, _, nv, edges in entries}
        with tempfile.NamedTemporaryFile("w", suffix=".csv", dir=HERE,
                                         delete=False) as fh:
            fh.write(paper13.table_text(entries))
        try:
            return tables.load_table(fh.name)
        finally:
            os.unlink(fh.name)

    def run_pass(self, before_op=lambda op_id: None) -> list[Op]:
        from specalt import tables
        ops = []
        for rec in self.records:
            before_op(rec.name)
            t0 = time.perf_counter()
            try:
                row, = tables.analyze_all([rec], jobs=1)
            except Exception as exc:        # a failed operation, counted
                ops.append(Op(rec.name, time.perf_counter() - t0,
                              error=f"{type(exc).__name__}: {exc}"))
                continue
            ops.append(Op(rec.name, time.perf_counter() - t0, row))
        return ops


class SearchWorkload:
    """The search levels of ``decide_minimal_unlinking`` on ``paper13``:
    ``exhaustive_search(d, m)`` for m = p, p+1, ... up to the first witness,
    at most p+2, with p from the frozen signature."""

    name = "paper13-search"

    def __init__(self):
        self.levels = []            # (op_id, name, diagram, m)
        self.diagrams: dict = {}

    def setup(self, seed: int, held_out: int | None):
        from specalt import tables
        if held_out is None:
            records, errors = tables.load_table(paper13.TABLE_CSV)
            if errors:
                raise RuntimeError(f"{self.name}: table rows rejected: {errors}")
            frozen = {row["name"]: row for row in load_expected()}
            levels = []
            for rec in records:
                exp = frozen[rec.name]
                d, _ = search_input(rec.pd, exp["sigma"], exp["k"])
                self.diagrams[rec.name] = d
                levels += [(f"{rec.name}@{lv['m']}", rec.name, d, lv["m"])
                           for lv in exp["search"]]
        else:
            levels = self._held_out_levels(held_out)
        random.Random(seed).shuffle(levels)
        self.levels = levels

    def _held_out_levels(self, seed):
        """Held-out inputs have no frozen ladder: sigma comes from the
        Seifert oracle and the ladder is walked here, once, in set-up."""
        from specalt.diagram import parse_pd, reduce_nugatory
        from specalt.invariants import signature_nullity
        levels = []
        for name, pd, _, _ in paper13.generate(seed):
            d0 = reduce_nugatory(parse_pd(pd))
            sigma, _ = signature_nullity(d0)
            d, p = search_input(pd, sigma, d0.component_count)
            self.diagrams[name] = d
            if p is None:
                continue
            for lv in paper13.search_ladder(d, p, p + MAX_EXTRA):
                levels.append((f"{name}@{lv['m']}", name, d, lv["m"]))
        return levels

    def run_pass(self, before_op=lambda op_id: None) -> list[Op]:
        from specalt.unknotting import exhaustive_search
        ops = []
        for op_id, _, d, m in self.levels:
            before_op(op_id)
            t0 = time.perf_counter()
            try:
                out = exhaustive_search(d, m)
            except Exception as exc:        # a failed operation, counted
                ops.append(Op(op_id, time.perf_counter() - t0,
                              error=f"{type(exc).__name__}: {exc}"))
                continue
            ops.append(Op(op_id, time.perf_counter() - t0, out))
        return ops


def load_expected() -> list[dict]:
    with open(paper13.EXPECTED_JSON) as fh:
        return json.load(fh)["rows"]


WORKLOADS = {
    "fixtures": lambda: TableWorkload("fixtures", "fixtures"),
    "paper13": lambda: TableWorkload("paper13", "paper13"),
    "paper13-search": SearchWorkload,
}
