"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python scripts/bench_pairs.py PARENT CHANGE --pairs 10 --seconds 30 --out BENCH.json
    python scripts/bench_pairs.py PARENT CHANGE --pairs 10 --seconds 30 --out BENCH.json \
        --seed 7 --workload paper13

PARENT and CHANGE are checkout directories.  For each workload named by
``--workload`` (repeatable; by default every workload of CHANGE's
``BENCHMARK.json``, and a name the spec does not hold is refused), pair i
runs ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
once in each checkout, N from ``--seed`` (default 1), the parent first in
odd pairs and the change first in even ones.  The runs are written to
``--out`` in the layout of ``BENCH_21.json``: per workload, one list of
runs per side, each run with ``correct``, ``attempted``, ``failed`` and
every end-to-end metric.  For each workload and metric it then prints
each side's median and quartiles, the pairs the change wins and the
relative change of the medians; next to ``peak_rss_mb``, each side's
median ``attempted``, since peak RSS grows with the passes a run fits in.
Each line also says whether a gain may be claimed on it: at least ten
pairs ran, the change wins at least nine tenths of them, and its median
is better than the parent's by more than the parent's interquartile range.  A line whose
median is worse than the parent's by more than the metric's bound in
``BENCHMARK.json`` (0.12 for ``peak_rss_mb``) is flagged ``OVER BOUND``.
Exits 1 when any run reads ``correct: false`` or fails an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def benchmark_spec(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``: its verdict and metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    out = json.loads(lines[-1])
    run = {key: out[key] for key in ("correct", "attempted", "failed")}
    run.update({key: round(m["value"], 6) for key, m in out["metrics"].items()})
    return run


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def host() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh
                     if line.startswith("model name")]
        model = names[0] if names else model
    except OSError:
        pass
    return f"{os.cpu_count()}-core {model}, Python {platform.python_version()}"


def summary(workloads: dict, end_to_end: list[dict]) -> list[str]:
    lines = []
    for name, sides in workloads.items():
        lines.append(f"{name}:")
        for metric in end_to_end:
            key, lower = metric["name"], metric["better"] == "lower"
            parent = [run[key] for run in sides["parent"]]
            change = [run[key] for run in sides["change"]]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
            gain = pm - cm if lower else cm - pm
            claim = (len(change) >= 10 and 10 * wins >= 9 * len(change)
                     and gain > p3 - p1)
            line = (f"  {key:12s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                    f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
                    f"wins {wins}/{len(change)}  {(cm - pm) / pm:+.1%}  "
                    f"claim {'holds' if claim else 'no'}")
            if -gain > metric["bound"] * pm:
                line += f"  OVER BOUND {metric['bound']:g}"
            if key == "peak_rss_mb":
                pa, ca = (statistics.median(run["attempted"] for run in sides[side])
                          for side in SIDES)
                line += f"  attempted parent {pa:g} change {ca:g}"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True, help="JSON file for the runs")
    ap.add_argument("--seed", type=int, default=1, help="seed of every run (default 1)")
    ap.add_argument("--workload", action="append", dest="workloads", metavar="W",
                    help="a workload to run (repeatable; default every workload)")
    args = ap.parse_args(argv)

    spec = benchmark_spec(args.change)
    names = [wl["name"] for wl in spec["workloads"]]
    unknown = [w for w in args.workloads or () if w not in names]
    if unknown:
        ap.error(f"unknown workload {', '.join(unknown)}; "
                 f"BENCHMARK.json has {', '.join(names)}")
    checkouts = {"parent": args.parent, "change": args.change}
    workloads = {}
    for name in dict.fromkeys(args.workloads or names):
        runs = {side: [] for side in SIDES}
        for i in range(1, args.pairs + 1):
            for side in (SIDES if i % 2 else SIDES[::-1]):
                runs[side].append(run_once(checkouts[side], name, args.seed, args.seconds))
            print(f"{name} pair {i}/{args.pairs} done", file=sys.stderr)
        workloads[name] = runs

    report = {
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": host(),
        "pairs": f"{args.pairs} per workload, alternating which side runs first "
                 f"(parent first in odd pairs)",
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "workloads": workloads,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print("\n".join(summary(workloads, spec["end_to_end"])))
    bad = [(name, side) for name, sides in workloads.items() for side in SIDES
           for run in sides[side] if not run["correct"] or run["failed"]]
    for name, side in dict.fromkeys(bad):
        print(f"FAILED: a {side} run of {name} is not correct", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
