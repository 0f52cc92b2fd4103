"""specalt benchmark: time to a certified table on three frozen workloads.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs one workload in process, repeating whole passes for ``--seconds``
(at least two), checks every output outside the timed region, prints each
metric by name with its unit, and prints as its last line a JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds two traced passes and reports
the per-layer metrics.  Every timing is in reference seconds: seconds
scaled by the speed of a reference loop probed around them
(``refclock.py``), so that the host's drifting speed cancels.
``--held-out SEED`` swaps the frozen ``paper13`` inputs for a fresh set
generated from SEED.  Exits 1 when any check fails and 2 when specalt
cannot be imported from this checkout.
See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import checks
import paper13
import refclock
import spans
import workloads

MIN_PASSES = 2
SETUPS = 15
TRACED_PASSES = 2
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
OUT_DIR = os.path.join(workloads.HERE, "out")


def tail_percentile(min_ops: int) -> float:
    """The highest ladder percentile with at least ten operations beyond
    it in every run, which measures at least ``min_ops`` operations."""
    return max(q for q in TAIL_LADDER if min_ops * (100 - q) / 100 >= 10)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    vals = sorted(values)
    return vals[max(0, math.ceil(q / 100 * len(vals)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(name: str, seed: int, held_out):
    """Import specalt, load the workload and prepare its inputs."""
    workloads.import_specalt()
    wl = workloads.WORKLOADS[name]()
    wl.setup(seed, held_out)
    return wl


def probe_after(clock: refclock.Clock) -> None:
    """The probes after a pass's last operation, which its scale uses."""
    for _ in range(refclock.WINDOW):
        clock.probe()


def traced_pass(tracer: spans.Tracer, clock: refclock.Clock, name: str,
                seed: int, held_out):
    """Import afresh, then set up and run one pass under the tracer, probed
    like an untraced one; returns (wall, ops, spans, scales): wall and ops
    in reference seconds, and per operation id (and "setup") the factor
    that turns its spans' seconds into reference seconds."""
    workloads.import_specalt()
    gc.collect()
    marks = {}

    def before_op(op_id):
        marks[op_id] = clock.probe()
        tracer.op = op_id

    tracer.install()
    try:
        before_op("setup")
        wl = workloads.WORKLOADS[name]()
        wl.setup(seed, held_out)
        ops = wl.run_pass(before_op=before_op)
        probe_after(clock)
    finally:
        tracer.uninstall()
    ops = [dataclasses.replace(op, seconds=clock.scaled(op.seconds, marks[op.op_id]))
           for op in ops]
    scales = {op_id: clock.scale(k) for op_id, k in marks.items()}
    return sum(op.seconds for op in ops), ops, tracer.take(), scales


def timed_pass(wl, clock: refclock.Clock):
    """One untraced pass, probed before every operation; returns (wall, ops)
    in reference seconds.  The wall time is the sum of the operations."""
    marks = []
    ops = wl.run_pass(before_op=lambda op_id: marks.append(clock.probe()))
    probe_after(clock)
    ops = [dataclasses.replace(op, seconds=clock.scaled(op.seconds, k))
           for op, k in zip(ops, marks)]
    return sum(op.seconds for op in ops), ops


def layer_metrics(recorded, ops, scales: dict) -> tuple[dict, dict]:
    """Per-layer values of one traced pass: (counts, seconds and ratios),
    seconds in reference seconds."""
    self_s = [s * scales[span[4]]
              for s, span in zip(spans.self_times(recorded), recorded)]
    in_search = spans.under(recorded, "unknotting.exhaustive_search")
    in_simplify = spans.under(recorded, "unknotting.reidemeister_simplify")
    counts = {f"{n}.calls": 0 for n in spans.NAMES}
    times = {f"{n}.self_s": 0.0 for n in spans.NAMES}
    for key in ("lattice.nodes", "lattice.dedup", "unknotting.subsets",
                "unknotting.witnesses", "unknotting.search_diagrams",
                "unknotting.simplify_states"):
        counts[key] = 0
    outcomes = ("refuted.linking", "refuted.determinant", "refuted.bracket",
                "refuted.components", "certified.greedy", "certified.search",
                "unknown")
    for key in outcomes:
        counts[f"unknotting.certify_unlink.{key}"] = 0
    simplify_parents = {s[3] for s in recorded
                        if s[0] == "unknotting.reidemeister_simplify"}
    obstruction_s = search_s = 0.0
    for i, (name, t0, t1, _, op_id, tag) in enumerate(recorded):
        counts[f"{name}.calls"] += 1
        times[f"{name}.self_s"] += self_s[i]
        if name == "lattice.obstruction" and tag != "raised":
            counts["lattice.nodes"] += tag[0]
            counts["lattice.dedup"] += tag[1]
            obstruction_s += self_s[i]
        elif name == "unknotting.exhaustive_search" and tag != "raised":
            counts["unknotting.subsets"] += tag[0]
            counts["unknotting.witnesses"] += tag[1] == "some"
            search_s += (t1 - t0) * scales[op_id]
        elif name == "unknotting.certify_unlink":
            if tag == "certified":
                tag += ".search" if i in simplify_parents else ".greedy"
            if f"unknotting.certify_unlink.{tag}" in counts:
                counts[f"unknotting.certify_unlink.{tag}"] += 1
        elif name == "diagram.change_crossings" and in_search[i]:
            counts["unknotting.search_diagrams"] += 1
        elif name == "diagram.canonical_key" and in_simplify[i]:
            counts["unknotting.simplify_states"] += 1
    subsets = counts["unknotting.subsets"]
    knots = len({op.op_id.split("@")[0] for op in ops})
    times.update({
        "lattice.nodes_per_s": counts["lattice.nodes"] / obstruction_s if obstruction_s else 0.0,
        "unknotting.subsets_per_s": subsets / search_s if search_s else 0.0,
        "unknotting.diagrams_per_subset":
            counts["unknotting.search_diagrams"] / subsets if subsets else 0.0,
        "unknotting.witness_yield":
            counts["unknotting.witnesses"] / subsets if subsets else 0.0,
        "seifert.calls_per_knot":
            counts["seifert.signature_nullity.calls"] / knots if knots else 0.0,
    })
    return counts, times


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "_yield", "_per_subset", "_per_knot")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in a process of its own, so that peak memory is per
    workload; nonzero when any of them fails."""
    extra = [] if args.held_out is None else ["--held-out", str(args.held_out)]
    rcs = [subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)] + extra).returncode
           for name in workloads.WORKLOADS
           if args.held_out is None or name != "fixtures"]
    return max(rcs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="'all' runs each workload in its own process, in turn")
    ap.add_argument("--seed", type=int, required=True,
                    help="orders the operations")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", type=int, default=None, metavar="SEED",
                    help="generate fresh paper13-shaped inputs from SEED")
    args = ap.parse_args(argv)
    if args.held_out is not None and args.workload == "fixtures":
        ap.error("--held-out applies to the paper13 workloads")
    if args.workload == "all":
        return run_all(args)

    clock = refclock.Clock()
    setup_times = []

    def timed_set_up():
        k = clock.probe()
        t0 = time.perf_counter()
        wl = set_up(args.workload, args.seed, args.held_out)
        setup_times.append((time.perf_counter() - t0, k))
        gc.collect()
        return wl

    try:
        for _ in range(SETUPS):
            timed_set_up()
    except ImportError as exc:
        print(f"error: cannot import specalt from this checkout: {exc}", file=sys.stderr)
        return 2

    # Whole passes until --seconds are used up: the last pass starts only
    # when at least half of it fits.  Each pass starts from a fresh import,
    # as a table run does, so no state of the program outlives a pass.
    passes = []
    start = time.perf_counter()
    pass_s = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - start + pass_s / 2 < args.seconds:
        wl = timed_set_up()
        t0 = time.perf_counter()
        passes.append(timed_pass(wl, clock))
        pass_s = max(pass_s, time.perf_counter() - t0)
    rss = peak_rss_mb()
    setups = [clock.scaled(s, k) for s, k in setup_times]
    walls = [w for w, _ in passes]
    all_ops = [op for _, ops in passes for op in ops]
    ops_per_pass = len(passes[0][1])

    errors = []
    metrics = {}
    if args.trace:
        tracer = spans.Tracer()
        traced = [traced_pass(tracer, clock, args.workload, args.seed, args.held_out)
                  for _ in range(TRACED_PASSES)]
        layers = [layer_metrics(rec, ops, scales) for _, ops, rec, scales in traced]
        first, second = layers[0][0], layers[1][0]
        for key in first:
            if first[key] != second[key]:
                errors.append(f"counter {key} differs between traced passes: "
                              f"{first[key]} vs {second[key]}")
        metrics.update(first)
        for key in layers[0][1]:
            metrics[key] = statistics.median(lay[1][key] for lay in layers)
        traced_wall = statistics.median(w for w, _, _, _ in traced)
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1
        all_ops += [op for _, ops, _, _ in traced for op in ops]
        os.makedirs(OUT_DIR, exist_ok=True)
        for i, (_, _, rec, _) in enumerate(traced):
            spans.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{i}.csv"), rec)
    else:
        q = tail_percentile(MIN_PASSES * ops_per_pass)
        metrics = {"wall_s": statistics.median(walls),
                   "op_p50_s": statistics.median(op.seconds for op in all_ops),
                   "op_tail_s": percentile([op.seconds for op in all_ops], q),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": rss}

    if args.held_out is None and args.workload != "fixtures":
        errors += [f"regenerating paper13 from seed {paper13.FROZEN_SEED} "
                   f"changes {path}" for path in paper13.check_frozen()]
    checker = checks.Checker(wl, args.held_out)
    failed = 0
    for op in all_ops:
        try:
            why = checker.failures(op)
        except Exception:               # a check that crashes fails its op
            why = [f"{op.op_id}: check raised:\n{traceback.format_exc()}"]
        if why:
            failed += 1
            errors += why

    for err in dict.fromkeys(errors):
        print(f"FAILED: {err}", file=sys.stderr)
    print(f"workload {args.workload}: {len(passes)} passes, {len(all_ops)} operations, "
          f"failed_frac {failed}/{len(all_ops)} = {failed / len(all_ops):g}")
    print("pass seconds: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"reference loop: median {statistics.median(clock.refs) * 1e3:.3f} ms over "
          f"{len(clock.refs)} probes; timings are scaled to {refclock.REF_S * 1e3:g} ms")
    if not args.trace:
        print(f"op_tail_s is the p{q:g} over {len(all_ops)} operations")
    report = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    for key, m in report.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": len(all_ops),
                      "failed": failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
