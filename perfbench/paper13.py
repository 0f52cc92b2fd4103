"""Seeded generator for the frozen ``paper13`` workload.

Builds random connected, bridgeless, loopless plane bipartite multigraphs
by the growth procedure of ``tests/test_properties.py`` and turns each
into a positive special alternating diagram with
``families.medial_special_alternating``, until it has 8 pairwise
non-isomorphic diagrams at each of 11, 12 and 13 crossings.

Usage, from the repository root:

    python3 perfbench/paper13.py --check     # regenerate, compare to data/
    python3 perfbench/paper13.py --write     # rewrite data/ (inputs + verdicts)

``--write`` freezes the current program's verdicts as the expected ones;
run it only to (re)define the workload, never to make a run pass.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
TABLE_CSV = os.path.join(DATA, "paper13.csv")
GRAPHS_CSV = os.path.join(DATA, "paper13_graphs.csv")
EXPECTED_JSON = os.path.join(DATA, "paper13_expected.json")

FROZEN_SEED = 1
PER_SIZE = 8
SIZES = (11, 12, 13)


def random_plane_bipartite_graph(rnd, grow_steps):
    """Connected bridgeless loopless plane bipartite multigraph, built from
    an even cycle by planarity- and parity-preserving growth moves."""
    m = rnd.choice([2, 3])
    rot = {}
    for i in range(2 * m):
        rot[("v", i)] = [("c", i), ("c", (i - 1) % (2 * m))]
    fresh = [0]

    def new_id(tag):
        fresh[0] += 1
        return (tag, fresh[0])

    def endpoints(eid):
        out = []
        for v, darts in rot.items():
            for pos, d in enumerate(darts):
                if d == eid:
                    out.append((v, pos))
        return out

    for _ in range(grow_steps):
        all_edges = sorted({d for darts in rot.values() for d in darts},
                           key=repr)
        e = rnd.choice(all_edges)
        (u, pu), (v, pv) = endpoints(e)
        op = rnd.choice(["dup", "subdiv", "theta"])
        if op == "dup":
            e2 = new_id("d")
            rot[u].insert(pu + 1, e2)
            (v, pv), = [x for x in endpoints(e) if x[0] == v]
            rot[v].insert(pv, e2)
        elif op == "subdiv":
            x, y = new_id("x"), new_id("x")
            e1, e2, e3 = new_id("s"), new_id("s"), new_id("s")
            rot[u][pu] = e1
            rot[v][pv] = e3
            rot[x] = [e1, e2]
            rot[y] = [e2, e3]
        else:
            a, b = new_id("t"), new_id("t")
            f1, f2, f3 = new_id("f"), new_id("f"), new_id("f")
            rot[u].insert(pu + 1, f1)
            (v, pv), = [x for x in endpoints(e) if x[0] == v]
            rot[v].insert(pv, f3)
            rot[a] = [f1, f2]
            rot[b] = [f2, f3]
    return rot


def graph_edges(rot) -> tuple[int, list[tuple[int, int]]]:
    """(vertex count, edge list over vertex indices) of a rotation system."""
    index = {v: i for i, v in enumerate(sorted(rot, key=repr))}
    ends: dict[object, list[int]] = {}
    for v, darts in rot.items():
        for d in darts:
            ends.setdefault(d, []).append(index[v])
    edges = sorted(tuple(sorted(e)) for e in ends.values())
    return len(index), edges


def generate(seed: int):
    """[(name, pd_text, vertex_count, edges)], 8 per crossing number."""
    from specalt.diagram import canonical_key
    from specalt.families import medial_special_alternating

    rnd = random.Random(seed)
    buckets: dict[int, list] = {n: [] for n in SIZES}
    seen = set()
    while any(len(b) < PER_SIZE for b in buckets.values()):
        rot = random_plane_bipartite_graph(rnd, rnd.randint(2, 6))
        d = medial_special_alternating(rot)
        if d.n not in buckets or len(buckets[d.n]) >= PER_SIZE:
            continue
        key = canonical_key(d)
        if key in seen:
            continue
        seen.add(key)
        nv, edges = graph_edges(rot)
        buckets[d.n].append((d.to_pd_text(), nv, edges))
    out = []
    for n in SIZES:
        for i, (pd, nv, edges) in enumerate(buckets[n], start=1):
            out.append((f"s{n}_{i}", pd, nv, edges))
    return out


def table_text(entries) -> str:
    """The workload as a ``tables.load_table`` CSV (signature left blank)."""
    lines = ["name,pd,signature,u,genus"]
    lines += [f'{name},"{pd}",,,' for name, pd, _, _ in entries]
    return "\n".join(lines) + "\n"


def graphs_text(entries) -> str:
    lines = ["name,vertices,edges"]
    lines += [f"{name},{nv},{' '.join(f'{a}-{b}' for a, b in edges)}"
              for name, _, nv, edges in entries]
    return "\n".join(lines) + "\n"


def read_graphs() -> dict[str, tuple[int, list[tuple[int, int]]]]:
    out = {}
    with open(GRAPHS_CSV) as fh:
        next(fh)
        for line in fh:
            name, nv, edges = line.rstrip("\n").split(",")
            out[name] = (int(nv), [tuple(int(x) for x in e.split("-"))
                                   for e in edges.split()])
    return out


def check_frozen(seed: int = FROZEN_SEED) -> list[str]:
    """Regenerate from the recorded seed; return the files that differ."""
    entries = generate(seed)
    bad = []
    for path, text in ((TABLE_CSV, table_text(entries)),
                       (GRAPHS_CSV, graphs_text(entries))):
        with open(path, newline="") as fh:
            if fh.read() != text:
                bad.append(os.path.relpath(path, HERE))
    return bad


def search_ladder(d, p: int, max_m: int):
    """The search levels of ``decide_minimal_unlinking`` without hints:
    ``exhaustive_search(d, m)`` for m = p.. up to the first witness."""
    from specalt.unknotting import exhaustive_search
    levels = []
    for m in range(p, max_m + 1):
        out = exhaustive_search(d, m)
        levels.append({"m": m, "status": out.status,
                       "witness": list(out.witnesses[0]) if out.witnesses else None})
        if out.status == "some":
            break
    return levels


def freeze_verdicts(entries) -> list[dict]:
    """Expected verdicts, as the current program computes them."""
    from specalt.tables import KnotRecord, analyze
    from workloads import MAX_EXTRA, search_input
    out = []
    for name, pd, _, _ in entries:
        row = analyze(KnotRecord(name, pd))
        if not row.ok:
            raise SystemExit(f"{name}: analysis failed: {row.provenance}")
        d, p = search_input(pd, row.sigma, row.components)
        out.append({"name": name, "sigma": row.sigma, "det": row.det,
                    "k": row.components, "p": str(row.p),
                    "u": [row.u_lower, row.u_upper],
                    "c4": [row.c4_lower, row.c4_upper],
                    "g": None if row.genus is None else str(row.genus),
                    "witness": list(row.witness) if row.witness else None,
                    "provenance": row.provenance,
                    "search": (search_ladder(d, p, p + MAX_EXTRA)
                               if p is not None else [])})
    return out


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(HERE, "..", "src"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=FROZEN_SEED)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    if args.check:
        bad = check_frozen(args.seed)
        print("frozen inputs reproduce" if not bad else f"differ: {bad}")
        return 1 if bad else 0
    entries = generate(args.seed)
    os.makedirs(DATA, exist_ok=True)
    with open(TABLE_CSV, "w", newline="") as fh:
        fh.write(table_text(entries))
    with open(GRAPHS_CSV, "w", newline="") as fh:
        fh.write(graphs_text(entries))
    with open(EXPECTED_JSON, "w") as fh:
        json.dump({"seed": args.seed, "rows": freeze_verdicts(entries)}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
