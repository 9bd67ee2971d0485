"""Run the benchmark in alternating pairs from two checkouts; write BENCH_<label>.json.

    python tests/bench_pairs.py PARENT_ROOT CHANGE_ROOT --label NAME

For each workload of CHANGE_ROOT's BENCHMARK.json, each of PAIRS = 10 pairs
runs ``perfbench/run.py --workload W --seed 1 --seconds S --trace 0``, S
being the file's run_seconds, once from each checkout's root, one process
at a time; the side that runs first alternates from pair to pair, so a
drift of the machine's speed falls on both sides alike.  The last stdout
line of each run is its JSON result.  The file, written to the current
directory, holds every run's metrics and, per workload and end-to-end
metric, each side's median, quartiles and IQR, the change/parent median
ratio, the pairs the change wins (by the metric's direction in
CHANGE_ROOT's BENCHMARK.json), and whether either side's IQR is wider than
the metric's bound (a ratio inside such a spread is unresolved).  It also
records the Python and NumPy versions, nproc and both checkouts' commits,
and it is rewritten after every pair, so an interrupted run keeps its
finished pairs.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10  # pairs per workload: the fewest that a claimed gain is judged on


def commit(root: str) -> str:
    """The checkout's HEAD, with '+dirty' when its tracked files differ from it."""
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    dirty = subprocess.run(["git", "-C", root, "diff", "--quiet", "HEAD"]).returncode != 0
    return head + ("+dirty" if dirty else "")


def run_once(root: str, workload: str, seconds: float) -> dict:
    """One benchmark process from root; its JSON result, with the exit status."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=30 * seconds + 600)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit"] = proc.returncode
    result["metrics"] = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    return result


def spread(values: list) -> dict:
    """Median, quartiles and IQR (inclusive quartiles; all equal for one value)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, spec: dict) -> dict:
    """Per end-to-end metric: both sides' spreads, the median ratio and the wins."""
    out = {}
    for name, (better, bound) in spec.items():
        got = [p for p in pairs if all(name in p[s]["metrics"] for s in SIDES)]
        if not got:
            continue
        side = {s: spread([p[s]["metrics"][name] for p in got]) for s in SIDES}
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) < 0
                   for p in got)
        wide = any(side[s]["iqr"] > bound * abs(side[s]["median"]) for s in SIDES)
        out[name] = {
            **{s: side[s] for s in SIDES},
            "ratio": side["change"]["median"] / side["parent"]["median"],
            "change_wins": wins,
            "pairs": len(got),
            "better": better,
            "bound": bound,
            "unresolved": wide,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    path = f"BENCH_{args.label}.json"
    record = {
        "label": args.label,
        "command": f"perfbench/run.py --workload W --seed 1 --seconds {seconds:g} --trace 0",
        "pairs_per_workload": PAIRS,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": os.cpu_count(), "machine": platform.machine()},
        "commits": {s: commit(roots[s]) for s in SIDES},
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        pairs: list = []
        record["workloads"][workload] = {"runs": pairs, "summary": {}}
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for s in order:
                pair[s] = run_once(roots[s], workload, seconds)
                print(f"{workload} pair {i} {s}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in pair[s]["metrics"].items()), file=sys.stderr)
            pairs.append(pair)
            record["workloads"][workload]["summary"] = summarize(pairs, spec)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    for workload, data in record["workloads"].items():
        for name, m in data["summary"].items():
            print(f"{workload} {name}: ratio {m['ratio']:.4f}, change wins "
                  f"{m['change_wins']}/{m['pairs']}, parent IQR {m['parent']['iqr']:.4g}"
                  + (" (unresolved: spread past the bound)" if m["unresolved"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
