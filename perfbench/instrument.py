"""Traced run: wrap the package's call-time names and reduce spans to metrics.

Every wrapper replaces a module attribute that the package looks up when it
calls the function, so no call is missed and nothing in the package changes:

    amfrk.integrator   amf_step, solve_pi, apply_full
    amfrk.splitops     apply_direction, solve_direction_factor, factor_direction
    amfrk.harness      integrate, build_problem, weighted_norm,
                       amf_scheme, radau2a_tableau
    amfrk.stability    stability_function
    amfrk              integrate, run_convergence, wedge_stability_scan,
                       build_problem, amf_scheme, radau2a_tableau
                       (the names the benchmark itself calls)

A problem's ``forcing`` is a field, not a module name, so every problem the
wrapped ``build_problem`` returns is copied with ``dataclasses.replace`` and a
traced ``forcing``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from spans import ObjectSet, median, tail_value

BUILDS = "splitops.factor_direction.builds"

# (metric, unit) in the order the traced run prints them
PER_LAYER = [
    ("integrator.integrate.count", "count"),
    ("integrator.integrate.self_s", "s"),
    ("integrator.amf_step.count", "count"),
    ("integrator.amf_step.expected", "count"),
    ("integrator.amf_step.self_s", "s"),
    ("integrator.amf_step.p50_ms", "ms"),
    ("integrator.amf_step.tail_ms", "ms"),
    ("splitops.apply_full.count", "count"),
    ("splitops.apply_full.self_s", "s"),
    ("splitops.apply_direction.count", "count"),
    ("splitops.apply_direction.expected", "count"),
    ("splitops.apply_direction.busy_s", "s"),
    ("splitops.solve_pi.count", "count"),
    ("splitops.solve_pi.expected", "count"),
    ("splitops.solve_pi.self_s", "s"),
    *[
        (f"splitops.solve_direction.{j}.{k}", unit)
        for j in range(3)
        for k, unit in (("count", "count"), ("busy_s", "s"), ("unknowns_per_s", "1/s"))
    ],
    ("splitops.solve_direction.expected", "count"),
    ("splitops.solve_direction.copy_excess_s", "s"),
    ("splitops.solve_direction.flops", "flop"),
    ("splitops.solve_direction.bytes_computed", "B"),
    ("splitops.factor_direction.count", "count"),
    ("splitops.factor_direction.builds", "count"),
    ("splitops.factor_direction.builds_expected", "count"),
    ("splitops.factor_direction.hit_ratio", "ratio"),
    ("splitops.factor_direction.busy_s", "s"),
    ("problems.forcing.count", "count"),
    ("problems.forcing.expected", "count"),
    ("problems.forcing.busy_s", "s"),
    ("problems.build_problem.count", "count"),
    ("problems.build_problem.busy_s", "s"),
    ("tableau.build_s", "s"),
    ("harness.run_convergence.count", "count"),
    ("harness.run_convergence.self_s", "s"),
    ("harness.weighted_norm.count", "count"),
    ("harness.weighted_norm.busy_s", "s"),
    ("stability.stability_function.count", "count"),
    ("stability.stability_function.busy_s", "s"),
    ("stability.stability_function.s_per_1e6_samples", "s"),
    ("stability.wedge_stability_scan.count", "count"),
    ("stability.wedge_stability_scan.self_s", "s"),
    ("trace.ops", "count"),
    ("trace.solve_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.count_mismatches", "count"),
    ("trace.missing_layers", "count"),
]
UNITS = dict(PER_LAYER)

# computed, not measured: the Thomas sweep does 3 flops per unknown forward
# and 2 back (5n - 4 per line of n); each unknown is touched 16 times: 7
# operand accesses forward, 5 back, and a read and a write in each of the two
# layout copies
ACCESSES_PER_UNKNOWN = 16


def flops_per_line(n: int) -> int:
    return 5 * n - 4


def install(amfrk, tracer, patches) -> None:
    """Point the package's call-time names at span-recording wrappers."""
    wrap = tracer.wrap
    builds = ObjectSet()

    def on_factor(fac, args, kwargs):
        if builds.add(fac):
            tracer.add(BUILDS)

    def on_solve(x, args, kwargs):
        op, j = args[0], args[1]
        n = op.grid.n_interior
        tracer.add(f"splitops.solve_direction.{j}.unknowns", x.size)
        tracer.add("splitops.solve_direction.flops", flops_per_line(n) * (x.size // n))
        tracer.add(
            "splitops.solve_direction.bytes_computed",
            ACCESSES_PER_UNKNOWN * x.itemsize * x.size,
        )

    def on_samples(r, args, kwargs):
        tracer.add("stability.samples", int(np.size(r)))

    traced_build = wrap("problems.build_problem", amfrk.build_problem)

    def build_problem(*args, **kwargs):
        problem = traced_build(*args, **kwargs)
        return dataclasses.replace(
            problem, forcing=wrap("problems.forcing", problem.forcing)
        )

    integ, split, harness = amfrk.integrator, amfrk.splitops, amfrk.harness
    for module, attr, name, after in (
        (integ, "amf_step", "integrator.amf_step", None),
        (integ, "solve_pi", "splitops.solve_pi", None),
        (integ, "apply_full", "splitops.apply_full", None),
        (split, "apply_direction", "splitops.apply_direction", None),
        (split, "solve_direction_factor",
         lambda op, j, *a, **k: f"splitops.solve_direction.{j}", on_solve),
        (split, "factor_direction", "splitops.factor_direction", on_factor),
        (harness, "integrate", "integrator.integrate", None),
        (harness, "weighted_norm", "harness.weighted_norm", None),
        (harness, "amf_scheme", "tableau.amf_scheme", None),
        (harness, "radau2a_tableau", "tableau.radau2a_tableau", None),
        (amfrk.stability, "stability_function", "stability.stability_function",
         on_samples),
        (amfrk, "integrate", "integrator.integrate", None),
        (amfrk, "run_convergence", "harness.run_convergence", None),
        (amfrk, "wedge_stability_scan", "stability.wedge_stability_scan", None),
        (amfrk, "amf_scheme", "tableau.amf_scheme", None),
        (amfrk, "radau2a_tableau", "tableau.radau2a_tableau", None),
    ):
        patches.set(module, attr, wrap(name, getattr(module, attr), after))
    patches.set(harness, "build_problem", build_problem)
    patches.set(amfrk, "build_problem", build_problem)


def metric_layer(metric: str):
    """The span name a per-layer metric is read from (None for trace.*)."""
    if metric.startswith("trace."):
        return None
    if metric == "tableau.build_s":
        return "tableau.radau2a_tableau"
    layer = metric.rsplit(".", 1)[0]
    return layer + ".0" if layer == "splitops.solve_direction" else layer


_EMPTY = {"count": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}


def _per_op(value, n_ops: int):
    out = value / n_ops
    return int(out) if isinstance(value, int) and value % n_ops == 0 else out


def layer_metrics(summary: dict, counters: dict, expected: dict, n_ops: int,
                  untraced_solve_s: float):
    """Reduce one traced run to the PER_LAYER metrics, per operation.

    Returns (metrics, flags): flags is one (layer, traced, expected, verdict)
    row per layer the workload is expected to reach, verdict being 'ok',
    'MISMATCH' (a closed form that differs: a flag, not a failure) or
    'missing' (a wrapped layer that recorded no call).
    """
    def rec(name):
        return summary.get(name, _EMPTY)

    def count(name):
        return _per_op(rec(name)["count"], n_ops)

    def busy(name):
        return rec(name)["busy_s"] / n_ops

    def own(name):
        return rec(name)["self_s"] / n_ops

    def counter(key):
        return _per_op(counters.get(key, 0), n_ops)

    m: dict = {}
    m["integrator.integrate.count"] = count("integrator.integrate")
    m["integrator.integrate.self_s"] = own("integrator.integrate")
    steps = rec("integrator.amf_step")["durations"]
    m["integrator.amf_step.count"] = count("integrator.amf_step")
    m["integrator.amf_step.expected"] = expected.get("integrator.amf_step", 0)
    m["integrator.amf_step.self_s"] = own("integrator.amf_step")
    m["integrator.amf_step.p50_ms"] = 1e3 * median(steps) if steps else 0.0
    m["integrator.amf_step.tail_ms"] = 1e3 * tail_value(steps)[1] if steps else 0.0
    m["splitops.apply_full.count"] = count("splitops.apply_full")
    m["splitops.apply_full.self_s"] = own("splitops.apply_full")
    for name in ("apply_direction", "solve_pi"):
        m[f"splitops.{name}.count"] = count(f"splitops.{name}")
        m[f"splitops.{name}.expected"] = expected.get(f"splitops.{name}", 0)
    m["splitops.apply_direction.busy_s"] = busy("splitops.apply_direction")
    m["splitops.solve_pi.self_s"] = own("splitops.solve_pi")
    dirs = [j for j in range(3) if rec(f"splitops.solve_direction.{j}")["count"]]
    for j in range(3):
        key = f"splitops.solve_direction.{j}"
        m[f"{key}.count"] = count(key)
        m[f"{key}.busy_s"] = busy(key)
        m[f"{key}.unknowns_per_s"] = (
            counters[f"{key}.unknowns"] / rec(key)["busy_s"] if j in dirs else 0.0
        )
    m["splitops.solve_direction.expected"] = expected.get("splitops.solve_direction.0", 0)
    m["splitops.solve_direction.copy_excess_s"] = (
        busy("splitops.solve_direction.0") - busy(f"splitops.solve_direction.{dirs[-1]}")
        if dirs else 0.0
    )
    for key in ("flops", "bytes_computed"):
        m[f"splitops.solve_direction.{key}"] = counter(f"splitops.solve_direction.{key}")
    calls = rec("splitops.factor_direction")["count"]
    m["splitops.factor_direction.count"] = count("splitops.factor_direction")
    m[BUILDS] = counter(BUILDS)
    m["splitops.factor_direction.builds_expected"] = expected.get(BUILDS, 0)
    m["splitops.factor_direction.hit_ratio"] = (
        1.0 - counters.get(BUILDS, 0) / calls if calls else 0.0
    )
    m["splitops.factor_direction.busy_s"] = busy("splitops.factor_direction")
    m["problems.forcing.count"] = count("problems.forcing")
    m["problems.forcing.expected"] = expected.get("problems.forcing", 0)
    m["problems.forcing.busy_s"] = busy("problems.forcing")
    m["problems.build_problem.count"] = count("problems.build_problem")
    m["problems.build_problem.busy_s"] = busy("problems.build_problem")
    m["tableau.build_s"] = busy("tableau.radau2a_tableau") + busy("tableau.amf_scheme")
    m["harness.run_convergence.count"] = count("harness.run_convergence")
    m["harness.run_convergence.self_s"] = own("harness.run_convergence")
    m["harness.weighted_norm.count"] = count("harness.weighted_norm")
    m["harness.weighted_norm.busy_s"] = busy("harness.weighted_norm")
    samples = counters.get("stability.samples", 0)
    m["stability.stability_function.count"] = count("stability.stability_function")
    m["stability.stability_function.busy_s"] = busy("stability.stability_function")
    m["stability.stability_function.s_per_1e6_samples"] = (
        rec("stability.stability_function")["busy_s"] / (samples / 1e6) if samples else 0.0
    )
    m["stability.wedge_stability_scan.count"] = count("stability.wedge_stability_scan")
    m["stability.wedge_stability_scan.self_s"] = own("stability.wedge_stability_scan")

    ops = rec("bench.op")
    m["trace.ops"] = n_ops
    m["trace.solve_s"] = median(ops["durations"])
    m["trace.overhead_frac"] = m["trace.solve_s"] / untraced_solve_s - 1.0
    m["trace.unaccounted_frac"] = ops["self_s"] / ops["busy_s"]

    flags = []
    for layer, want in expected.items():
        got = counter(layer) if layer == BUILDS else count(layer)
        if got == 0:
            verdict = "missing"
        elif want is not None and got != want:
            verdict = "MISMATCH"
        else:
            verdict = "ok"
        flags.append((layer, got, want, verdict))
    m["trace.count_mismatches"] = sum(f[3] == "MISMATCH" for f in flags)
    m["trace.missing_layers"] = sum(f[3] == "missing" for f in flags)
    return {name: m[name] for name, _ in PER_LAYER}, flags
