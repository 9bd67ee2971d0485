"""Span arithmetic, count wrappers and the closed-form call counts."""

import gc
import json
import os

import pytest

import amfrk
import instrument
from spans import ObjectSet, Patches, Tracer, tail_value
from workloads import WORKLOADS, integration_counts


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def _spans(tracer, events):
    """Replay ('open', name) / ('close',) events against the tracer."""
    stack = []
    for ev in events:
        if ev[0] == "open":
            stack.append(tracer.open(ev[1]))
        else:
            tracer.close(stack.pop())


def test_self_time_is_duration_minus_children():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    _spans(tracer, [("open", "A"), ("open", "B"), ("close",), ("open", "C"),
                    ("open", "D"), ("close",), ("close",), ("close",)])
    s = tracer.summary()
    assert s["A"]["self_s"] == 10 - 3 - 4
    assert s["B"]["self_s"] == 3
    assert s["C"]["self_s"] == 4 - 1
    assert s["D"]["self_s"] == 1
    assert s["A"]["busy_s"] == 10
    # self times of all spans add up to the root's duration
    assert sum(v["self_s"] for v in s.values()) == 10
    assert tracer.parents == [-1, 0, 0, 2]


def test_busy_counts_only_outermost_span_of_a_name():
    # X [0, 10] holds X [2, 5]: busy 10, count 2, self 7 + 3
    tracer = Tracer(clock=FakeClock([0, 2, 5, 10]))
    _spans(tracer, [("open", "X"), ("open", "X"), ("close",), ("close",)])
    s = tracer.summary()["X"]
    assert (s["count"], s["busy_s"], s["self_s"]) == (2, 10, 10)


def test_open_span_and_out_of_order_close_are_errors():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.summary()
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_wrap_counts_calls_names_from_args_and_sees_results():
    tracer = Tracer()
    seen = []
    traced = tracer.wrap(lambda j, x: f"f.{j}", lambda j, x: x * 2,
                         after=lambda r, args, kwargs: seen.append(r))
    assert [traced(0, 1), traced(1, 2), traced(1, 3)] == [2, 4, 6]
    s = tracer.summary()
    assert s["f.0"]["count"] == 1 and s["f.1"]["count"] == 2
    assert seen == [2, 4, 6]


def test_wrap_closes_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.summary()["boom"]["count"] == 1


def test_object_set_is_not_fooled_by_reused_ids():
    held = ObjectSet()
    for _ in range(50):
        held.add(object())  # freed at once unless the set holds it
        gc.collect()
    assert len(held) == 50
    again = object()
    assert held.add(again) and not held.add(again)


def test_tail_value_leaves_ten_samples_above():
    pct, value = tail_value(range(100))
    assert value == 89 and sum(v > value for v in range(100)) == 10
    assert pct == 90.0
    assert tail_value([3.0, 1.0]) == (100.0, 3.0)


def test_patches_restore_attributes():
    class M:
        f = 1

    with Patches() as p:
        p.set(M, "f", 2)
        assert M.f == 2
    assert M.f == 1


def _traced(run, expected):
    tracer = Tracer()
    with Patches() as patches:
        instrument.install(amfrk, tracer, patches)
        idx = tracer.open("bench.op")
        run()
        tracer.close(idx)
    assert amfrk.integrator.amf_step.__module__ == "amfrk.integrator"
    summary = tracer.summary()
    return instrument.layer_metrics(summary, tracer.counters, expected, 1, 1.0)


@pytest.mark.parametrize("dim,n,q", [(2, 8, 2), (3, 6, 3), (2, 6, 1)])
def test_traced_counts_match_closed_forms(dim, n, q):
    def run():
        problem = amfrk.build_problem(dim, n, 1.0)
        amfrk.integrate(problem, amfrk.amf_scheme(q), amfrk.radau2a_tableau(),
                        q / n, 1.0)

    metrics, flags = _traced(run, integration_counts([(dim, q, n // q)]))
    assert [f for f in flags if f[3] != "ok"] == []
    assert metrics["trace.count_mismatches"] == 0
    assert metrics["trace.missing_layers"] == 0
    assert metrics["splitops.factor_direction.builds"] == dim
    # self times of the layers account for the whole operation
    assert 0.0 <= metrics["trace.unaccounted_frac"] < 0.05


def test_factor_builds_counted_per_fresh_operator():
    cfg = amfrk.StudyConfig(dim=2, beta=0.0, scheme_id="amf1", grid_ns=(4, 8))
    expected = integration_counts([(2, 1, 4), (2, 1, 8)])
    expected["harness.run_convergence"] = 1
    metrics, flags = _traced(lambda: amfrk.run_convergence(cfg), expected)
    assert [f for f in flags if f[3] != "ok"] == []
    assert metrics["splitops.factor_direction.builds"] == 4
    assert metrics["harness.weighted_norm.count"] == 2


def test_missing_layer_and_mismatch_are_flagged_not_failed():
    expected = {"integrator.amf_step": 5, "splitops.solve_pi": None}
    metrics, flags = _traced(lambda: None, expected)
    assert metrics["trace.missing_layers"] == 2
    expected = integration_counts([(2, 2, 3)])  # the run does 4 steps
    metrics, flags = _traced(
        lambda: amfrk.integrate(amfrk.build_problem(2, 8, 0.0), amfrk.amf_scheme(2),
                                amfrk.radau2a_tableau(), 0.25, 1.0),
        expected,
    )
    verdicts = dict((f[0], f[3]) for f in flags)
    assert verdicts["integrator.amf_step"] == "MISMATCH"
    assert verdicts["splitops.factor_direction.builds"] == "ok"


def test_benchmark_json_lists_what_the_benchmark_prints():
    import run

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == instrument.PER_LAYER
