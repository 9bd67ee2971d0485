"""Outside-in benchmark of amfrk: time to solution per workload.

    python3 perfbench/run.py --workload ridge2d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
process, one thread, one caller in a closed loop: the next operation starts
when the previous one has returned and been checked.

--trace 0 prints the end-to-end metrics (setup_s, solve_s, dof_steps_per_s,
peak_rss_mb); --trace 1 first times untraced operations, then traced ones,
and prints the per-layer metrics.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A failed correctness gate
withholds the timings and exits 1.  Spans and the environment record are
written to .perfbench_out/.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread; must be set before NumPy loads its BLAS
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import instrument  # noqa: E402
from spans import Patches, Tracer, median, tail_value  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PER_OP = 3  # timed set-ups before each untraced operation
E2E_UNITS = {"setup_s": "s", "solve_s": "s", "dof_steps_per_s": "1/s",
             "peak_rss_mb": "MB"}


class GateFailed(Exception):
    """A correctness gate failed; the run's timings are not reported."""


def import_amfrk():
    """Import the package afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "amfrk" or n.startswith("amfrk.")]:
        del sys.modules[name]
    amfrk = importlib.import_module("amfrk")
    if not os.path.abspath(amfrk.__file__).startswith(SRC + os.sep):
        raise ImportError(f"amfrk imported from {amfrk.__file__}, not {SRC}")
    return amfrk


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Loop:
    """Closed loop of checked operations; counts attempts and failures.

    Set-up (a fresh import of the package plus the workload's prepare) is
    timed SETUP_PER_OP times before each untraced operation, so the set-up
    samples are spread over the run like the operations are.
    """

    def __init__(self, wl, inputs):
        self.wl, self.inputs = wl, inputs
        self.setup_times = []
        self.attempted = 0
        self.failed = 0
        self.set_up()  # warm-up, not timed: may compile bytecode

    def set_up(self):
        gc.collect()
        t0 = time.perf_counter()
        self.amfrk = import_amfrk()
        ctx = self.wl.prepare(self.amfrk, self.inputs)
        return time.perf_counter() - t0, ctx

    def once(self, tracer=None) -> float:
        """One operation: set-up, then the timed call, then its check."""
        wl = self.wl
        if tracer is None:
            for _ in range(SETUP_PER_OP):
                ctx = None  # free the previous context first
                elapsed, ctx = self.set_up()
                self.setup_times.append(elapsed)
        else:  # the patched modules stay: no fresh import
            idx = tracer.open("bench.setup")
            try:
                ctx = wl.prepare(self.amfrk, self.inputs)
            finally:
                tracer.close(idx)
        gc.collect()
        self.attempted += wl.ops_per_run
        try:
            if tracer is not None:
                idx = tracer.open("bench.op")
            t0 = time.perf_counter()
            try:
                result = wl.run(self.amfrk, ctx)
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.close(idx)
            verdicts = wl.check(ctx, result)
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            self.failed += wl.ops_per_run
            raise GateFailed(f"{wl.name}: operation raised")
        bad = [msg for ok, msg in verdicts if not ok]
        if bad:
            self.failed += len(bad)
            for msg in bad:
                print(f"FAIL {wl.name}: {msg}")
            raise GateFailed(f"{wl.name}: {len(bad)} of {len(verdicts)} checks failed")
        return elapsed

    def repeat(self, seconds: float, tracer=None) -> list:
        """At least one operation; more while the next is predicted to fit."""
        times = []
        start = time.perf_counter()
        while True:
            times.append(self.once(tracer))
            if time.perf_counter() - start + min(times) > seconds:
                return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    loop = Loop(wl, wl.make_inputs(seed))
    env = environment()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env}
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("env " + json.dumps(env))
    notes = {}  # metrics of a layer that recorded no call, printed as such
    try:
        if trace:
            start = time.perf_counter()
            untraced = loop.repeat(seconds / 2)
            tracer = Tracer()
            with Patches() as patches:
                instrument.install(loop.amfrk, tracer, patches)
                traced = loop.repeat(seconds - (time.perf_counter() - start), tracer)
            summary = tracer.summary()
            metrics, flags = instrument.layer_metrics(
                summary, tracer.counters, wl.expected, len(traced), median(untraced)
            )
            units = instrument.UNITS
            for key in metrics:
                layer = instrument.metric_layer(key)
                if layer is not None and layer not in summary:
                    notes[key] = ("missing" if layer in wl.expected
                                  else "n/a (not reached by this workload)")
            for layer, got, want, verdict in flags:
                print(f"count {layer}: traced {got} closed form "
                      f"{'-' if want is None else want} {verdict}")
            record["spans"] = tracer.records()
        else:
            times = loop.repeat(seconds)
            record["solve_times"] = times
            solve_s = median(times)
            metrics = {
                "setup_s": median(loop.setup_times),
                "solve_s": solve_s,
                "dof_steps_per_s": wl.work_per_run / solve_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = E2E_UNITS
            pct, tail = tail_value(times)
            print(f"solve_s over {len(times)} operations: median {solve_s:.4f} s, "
                  f"min {min(times):.4f} s, p{pct:.0f} {tail:.4f} s")
            if name == "wedge3d":
                print(f"samples_per_s {wl.n_samples / solve_s:.6g} 1/s")
    except GateFailed as exc:
        print(f"correctness gate failed: {exc}; timings withheld")
        metrics, units = {}, {}
    for key, value in metrics.items():
        print(f"{key} {notes[key]}" if key in notes else f"{key} {value:.6g} {units[key]}")
    print(f"failed_frac {loop.failed / loop.attempted:.6g} "
          f"({loop.failed} of {loop.attempted} operations)")
    correct = loop.failed == 0
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(out, "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    correct, attempted, failed, metrics, status = True, 0, 0, {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})")
            return proc.returncode or 1
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
        status = status or proc.returncode
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "amfrk", "__init__.py")):
        print(f"no package source at {SRC}/amfrk", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
