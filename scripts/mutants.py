"""Mutation kit: check that the tests kill a list of deliberate faults.

    python scripts/mutants.py

Each mutant names a file, an exact piece of its text, the text that
replaces it, a pytest selection and the fault it stands for.  For each,
the checkout (without ``.git``) is copied to a temporary directory, the
edit is applied there, and ``python -m pytest -x -q <selection>`` runs in
the copy, where ``pyproject.toml`` puts the copy's ``src`` first on the
path.  A mutant survives when its selection still passes.  Before the
mutants, the selections run once on an unedited copy: a selection that
fails there would kill every mutant for nothing.

Prints one line per mutant and exits 1 when a mutant survives, when a
selection fails unedited, or when a mutant's old text does not occur
exactly once in its file.  Nothing is written outside the temporary
directories.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


@dataclass(frozen=True)
class Mutant:
    path: str           # relative to the checkout
    old: str            # must occur exactly once
    new: str
    selection: str      # pytest node ids, space-separated
    reason: str


CERTIFICATES = "tests/test_unknotting.py::TestDecide::test_certificates_match_expected"
PARENT_COMPONENTS = "tests/test_walks.py::test_changed_diagrams_keep_the_parent_components"
SCREEN_AGREES = ("tests/test_unknotting.py::TestLinkingScreen::"
                 "test_screen_agrees_with_built_children")
SCREEN_REPEATS = "tests/test_unknotting.py::TestLinkingScreen::test_repeated_index_hint_is_a_set"
ONE_LATTICE = ("tests/test_lattice_kernel.py::"
               "test_obstruction_builds_one_lattice_of_the_positive_diagram")
MATCH_REFERENCE = "tests/test_lattice_kernel.py::test_obstruction_verdicts_match_reference"
OBSTRUCTED_9_35 = "tests/test_lattice.py::TestObstruction::test_9_35_obstructed"
REFUSES = "tests/test_lattice_kernel.py::test_obstruction_refuses_what_is_not_special_alternating"
AGREE_AT_P = "tests/test_acceptance.py::test_certificates_agree_at_p"
FACE_PASS = "tests/test_goeritz_reader.py::test_face_pass_reads_the_corner_pair_form"
EULER_COUNT = ("tests/test_goeritz_reader.py::"
               "test_euler_count_per_component_is_the_face_index_count")
PAIRING = "tests/test_lattice.py::TestPairingBruteForce::test_matches_disjoint_pair_search"
KEY_PARTITIONS = "tests/test_diagram.py::TestIsomorphism::test_key_partitions_small_codes_exactly"
KEY_REBUILDS = "tests/test_diagram.py::TestIsomorphism::test_key_rebuilds_the_diagram"

MUTANTS = [
    Mutant("src/specalt/moves.py",
           "    order = [c for c in range(d.n) if c not in over[0]] + [first, second]\n",
           "    order = list(range(d.n))\n",
           CERTIFICATES,
           "R3 keeps its crossings in index order: later move sites shift"),
    Mutant("src/specalt/moves.py",
           "[first, second]", "[second, first]",
           CERTIFICATES,
           "R3 puts the over-over strand's two crossings last in the wrong order"),
    Mutant("src/specalt/moves.py",
           "    if not over or not under or len({c for c, _ in face}) != 3:\n"
           "        raise DiagramError(\"triangle is not an r3 site\")\n",
           "",
           "tests/test_moves.py::TestR3::test_refuses_a_triangle_that_is_not_a_site",
           "R3 no longer checks its site"),
    Mutant("src/specalt/diagram.py",
           "d.free_loops + loops))", "d.free_loops + 2 * loops))",
           "tests/test_moves.py",
           "delete_crossings counts each closed strand twice"),
    Mutant("src/specalt/diagram.py",
           "            r = 0 if inc[0] else 2\n",
           "            r = 0\n",
           "tests/test_diagram.py::TestReduceNugatory::test_tangle_flip_keeps_invariants",
           "nugatory untwisting drops the tangle flip's rotate-by-two: a flipped "
           "crossing can keep an outgoing slot 0"),
    Mutant("src/specalt/unknotting.py",
           "    if final.free_loops != k:\n",
           "    if False:\n",
           "tests/test_unknotting.py::TestCertify::test_wrong_loop_count_raises",
           "a crossing-free result with the wrong loop count is certified"),
    Mutant("src/specalt/diagram.py",
           "            a, b = comp[quad[0]], comp[quad[1]]\n",
           "            a, b = comp[quad[0]], comp[quad[2]]\n",
           PARENT_COMPONENTS,
           "component_pairs reads the under strand twice: no crossing joins two "
           "components"),
    Mutant("src/specalt/diagram.py",
           "        child.__dict__[\"component_pairs\"] = d.component_pairs\n",
           "        child.__dict__[\"component_pairs\"] = d.component_pairs[::-1]\n",
           PARENT_COMPONENTS,
           "link children take the parent's component pairs in reversed crossing order"),
    Mutant("src/specalt/invariants.py",
           "    if (sigma + eta + k - 1) % 2:\n",
           "    if False:\n",
           "tests/test_invariants.py::TestLinkingAndBounds::test_half_integer_bound_raises",
           "unlinking_lower_bound rounds a half-integer bound instead of raising"),
    Mutant("src/specalt/unknotting.py",
           "    want_det = 1 if k == 1 else 0\n",
           "    want_det = 1\n",
           "tests/test_unknotting.py::TestDecide::test_torus_links_attain_bound",
           "certify_unlink wants determinant 1 of a link: every link child is refuted"),
    Mutant("src/specalt/unknotting.py",
           "            nodes += 1\n            mv = Move(\"r3\", site)\n",
           "            mv = Move(\"r3\", site)\n",
           "tests/test_simplify_kernel.py::test_fixture_changes_simplify_as_reference",
           "R3 candidates are not charged to the budget: a search builds "
           "candidates and pops states the budget should have stopped"),
    Mutant("src/specalt/seifert.py",
           "        if ca != cb and sa == sb:\n",
           "        if ca != cb:\n",
           "tests/test_seifert.py::TestVogelRobustness::test_vogel_moves_within_bound",
           "the Vogel site drops its same-side test: a move between coherent "
           "circles does not bring the diagram closer to braid form"),
    Mutant("src/specalt/unknotting.py",
           "            changed[pairs[c]] -= signs[c]\n",
           "            changed[pairs[c]] += signs[c]\n",
           SCREEN_AGREES,
           "the linking screen adds a changed crossing's sign instead of "
           "subtracting it"),
    Mutant("src/specalt/unknotting.py",
           "    for c in chosen:\n        if pairs[c] is not None:\n",
           "    for c in subset:\n        if pairs[c] is not None:\n",
           f"{SCREEN_AGREES} {SCREEN_REPEATS}",
           "the linking screen iterates the subset, not its set: a repeated "
           "crossing counts twice"),
    Mutant("src/specalt/unknotting.py",
           "    chosen = _crossing_set(d, subset)\n    changed = dict(lk)\n",
           "    chosen = set(subset)\n    changed = dict(lk)\n",
           "tests/test_unknotting.py::TestLinkingScreen::test_screen_checks_the_range",
           "the linking screen indexes a subset before checking its range: a "
           "negative index wraps (the search checks its hints' range first, so "
           "only a direct call shows it)"),
    Mutant("src/specalt/unknotting.py",
           "if len(s) == m and len(_crossing_set(d, s)) == m))",
           "if len(s) == m and _crossing_set(d, s)))",
           SCREEN_REPEATS,
           "a hint that repeats a crossing is kept: a witness at m makes fewer "
           "than m changes"),
    Mutant("src/specalt/lattice.py",
           "    if d.n and d.signs[0] < 0:\n",
           "    if d.n and d.signs[0] > 0:\n",
           ONE_LATTICE,
           "obstruction mirrors the positive diagram instead of the negative "
           "one: every special alternating diagram is refused"),
    Mutant("src/specalt/lattice.py",
           "(t == a) - (t == b)", "(t == a) + (t == b)",
           MATCH_REFERENCE,
           "an edge column is built as e_a + e_b: the embedding is not the "
           "Tait graph's incidence matrix"),
    Mutant("src/specalt/lattice.py",
           "        for t in range(len(members) // 2):\n",
           "        for t in range(-(-len(members) // 2)):\n",
           OBSTRUCTED_9_35,
           "find_pairing takes ceil(m/2) pairs from a class of m equal columns: "
           "an odd class pairs a column with none"),
    Mutant("src/specalt/lattice.py",
           "    if len(pairs) < p:\n",
           "    if len(pairs) < p - 1:\n",
           PAIRING,
           "find_pairing accepts p - 1 pairs: condition (ii) is one clasp short"),
    Mutant("src/specalt/lattice.py",
           "    if len(pairs) < p:\n",
           "    if len(pairs) < p + 1:\n",
           PAIRING,
           "find_pairing demands p + 1 pairs: condition (ii) asks one clasp too many"),
    Mutant("src/specalt/invariants.py",
           "(face[0][1] % 2 == 0) == (mu[face[0][0]] == 1)",
           "(face[0][1] % 2 == 0) != (mu[face[0][0]] == 1)",
           FACE_PASS,
           "the Goeritz reader's white-face parity is flipped: it reads the "
           "black faces"),
    Mutant("src/specalt/diagram.py",
           "Counter(of[face[0][0]] for face in d.faces if face)",
           "Counter(of[face[0][0]] if face else 0 for face in d.faces)",
           EULER_COUNT,
           "the Euler count puts the free loops' faces in the first crossing "
           "component: a diagram with crossings and free loops is rejected"),
    Mutant("src/specalt/lattice.py",
           "    if -1 in d.signs:\n"
           "        raise NotSpecialAlternating(\"obstruction needs a special alternating diagram\")\n",
           "",
           REFUSES,
           "obstruction drops its sign refusal: a diagram with crossings of "
           "both signs gets a verdict"),
    Mutant("src/specalt/lattice.py",
           "        groups.setdefault(_sign_normal(col), []).append(j)\n",
           "        groups.setdefault(next((i for i, x in enumerate(col) if x), -1), "
           "[]).append(j)\n",
           OBSTRUCTED_9_35,
           "find_pairing keys the multiplicities by one region, the column's "
           "first nonzero row, instead of by the pair"),
    Mutant("src/specalt/lattice.py",
           "    if not is_twist_reduced(d, tw):\n        return ()\n",
           "    return ()\n",
           AGREE_AT_P,
           "clasp_candidates returns nothing: the search at p starts without a hint"),
    Mutant("src/specalt/unknotting.py",
           "    hints = (clasp_candidates(ob),) if ob.admissible else ()\n",
           "    hints = ()\n",
           AGREE_AT_P,
           "decide drops the clasp hint: the first witness found is another subset"),
    Mutant("src/specalt/unknotting.py",
           "for s in first_subsets", "for s in ()",
           AGREE_AT_P,
           "exhaustive_search ignores its first subsets and tries them in "
           "lexicographic order"),
    Mutant("src/specalt/diagram.py",
           "            row: list = [over_in[c]]\n",
           "            row: list = [False]\n",
           KEY_PARTITIONS,
           "canonical_key drops the direction bit: diagrams that differ only "
           "in their strands' directions share a key"),
    Mutant("src/specalt/diagram.py",
           "                row += (ids[mc], ms)\n",
           "                row += (ids[mc], 0)\n",
           KEY_REBUILDS,
           "canonical_key drops the mate slot: the key no longer says which "
           "slot of the mate crossing an edge enters"),
]


def run_pytest(checkout: Path, selection: str) -> bool:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *selection.split()]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    return proc.returncode == 0


def main() -> int:
    bad = 0
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            print(f"BAD ENTRY ({count} occurrences of its old text in {m.path}): {m.reason}")
            bad += 1
    if bad:
        return 1
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        selections = " ".join(dict.fromkeys(m.selection for m in MUTANTS))
        if not run_pytest(copy, selections):
            print(f"UNEDITED COPY FAILS: {selections}")
            return 1
        survivors = []
        for i, m in enumerate(MUTANTS, 1):
            copy = Path(tmp) / f"mutant{i}"
            shutil.copytree(ROOT, copy, ignore=IGNORED)
            target = copy / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            t0 = time.monotonic()
            killed = not run_pytest(copy, m.selection)
            print(f"{'killed  ' if killed else 'SURVIVED'} {m.path}: {m.reason} "
                  f"({time.monotonic() - t0:.1f}s)")
            if not killed:
                survivors.append(m)
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed "
          f"in {time.monotonic() - start:.1f}s")
    for m in survivors:
        print(f"survivor: {m.path}: {m.reason}; selection {m.selection}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
