"""Regenerate src/specalt/data/fixtures.csv from the family constructors.

Every fixture is a non-split alternating diagram.  The signature column
records the Seifert-matrix oracle's value (module ``seifert``), computed at
build time; it freezes the build, and ``tables.analyze`` fails any row
whose Gordon-Litherland sigma differs from it;
the u and genus columns carry classical
table values for the named knots/links and stay empty for synthetic
fixtures.  A fixture that fails a gate (duplicate name, split diagram,
non-alternating diagram, nonzero nullity) is reported as a ``GATE FAILED``
line and the script exits 1 without writing.  Run from the repository
root:

    python scripts/make_fixtures.py
"""

from __future__ import annotations

import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from specalt.diagram import is_special_alternating  # noqa: E402
from specalt.invariants import determinant  # noqa: E402
from specalt.seifert import signature_nullity  # noqa: E402
from specalt import families as F  # noqa: E402

# (name, diagram, known u cell, known genus cell)
ENTRIES = []


def add(name, d, u="", g=""):
    ENTRIES.append((name, d, str(u), str(g)))


def build():
    add("3_1", F.trefoil(), 1, 1)
    add("hopf", F.torus_2q(2), 1, "")
    add("t2_4", F.torus_2q(4), 2, "")
    add("5_1", F.torus_2q(5), 2, 2)
    add("t2_6", F.torus_2q(6), 3, "")
    add("7_1", F.torus_2q(7), 3, 3)
    add("t2_8", F.torus_2q(8), 4, "")
    add("9_1", F.torus_2q(9), 4, 4)

    add("8_15", F.knot_8_15(), 2, 2)
    add("9_35", F.knot_9_35(), 3, 1)
    add("7_4", F.generalized_pretzel(3, 1, 3), 2, 1)

    for lengths in [(3, 1, 1), (3, 3, 1), (5, 1, 1), (5, 3, 1), (5, 3, 3),
                    (5, 5, 1), (5, 5, 3), (7, 1, 1), (7, 3, 1), (7, 5, 1),
                    (7, 3, 3), (3, 1, 1, 1, 1), (3, 3, 1, 1, 1),
                    (3, 3, 3, 1, 1), (3, 3, 3, 3, 1)]:
        add("pretzel_" + "_".join(map(str, lengths)),
            F.generalized_pretzel(*lengths))

    add("4_1", F.rational_link([2, 2]), 1, 1)
    add("5_2", F.rational_link([3, 2]), 1, 1)
    add("6_1", F.rational_link([4, 2]), 1, 1)
    add("6_3", F.rational_link([2, 1, 1, 2]), 1, 2)
    add("7_2", F.rational_link([5, 2]), 1, 1)
    add("8_1", F.rational_link([6, 2]), 1, 1)
    add("9_2", F.rational_link([7, 2]), 1, 1)
    for coeffs in [[2, 1, 2], [3, 1, 3], [2, 2, 2, 2], [3, 3, 2], [2, 2, 3],
                   [4, 1, 4], [2, 3, 2], [5, 1, 2], [3, 2, 3], [2, 4, 2],
                   [4, 3, 2], [6, 1, 2], [2, 1, 2, 1, 2], [3, 1, 2],
                   [2, 1, 4], [3, 2, 2], [4, 2, 2], [5, 3, 2], [2, 2, 2, 2, 2],
                   [3, 1, 1, 1, 3]]:
        add("c_" + "_".join(map(str, coeffs)), F.rational_link(coeffs))

    for n in (3, 4):
        add(f"k2{n}_medial", F.complete_bipartite_k2n(n))
    for n in (3, 4, 5):
        add(f"ladder_{n}", F.ladder(n))


def main():
    build()
    out_path = os.path.join(os.path.dirname(__file__), "..",
                            "src", "specalt", "data", "fixtures.csv")
    rows = []
    failures = []
    seen = set()
    for name, d, u, g in ENTRIES:
        if name in seen:
            failures.append(f"duplicate fixture {name}")
        seen.add(name)
        if not d.is_connected:
            failures.append(f"{name}: split diagram")
        if not d.is_alternating:
            failures.append(f"{name}: not alternating")
        sigma, eta = signature_nullity(d)
        if eta != 0:
            failures.append(f"{name}: nullity {eta}")
        rows.append([name, d.to_pd_text(), str(sigma), u, g])
        print(f"{name}: n={d.n} k={d.component_count} sigma={sigma} "
              f"det={determinant(d)} special={is_special_alternating(d)}")
    if failures:
        for line in failures:
            print("GATE FAILED:", line, file=sys.stderr)
        return 1
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "pd", "signature", "u", "genus"])
        w.writerows(rows)
    print(f"\nwrote {len(rows)} fixtures to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
