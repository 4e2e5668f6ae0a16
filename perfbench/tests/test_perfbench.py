"""Tests of the benchmark itself (run: python -m pytest perfbench/tests)."""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import tracing
import workloads

ROOT = os.path.dirname(run.HERE)


def _expected_without_seeds():
    return {"capacity_starts_per_slot":
            run.load_expected()["capacity_starts_per_slot"], "seeds": {}}


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    """Every workload at smoke size, writing into a temporary directory."""
    for name, workload in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            workloads.tiny(workload))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload(tiny_workloads, name, trace):
    metrics, checker, lines = run.run_workload(
        name, seed=0, seconds=0.01, trace=trace,
        expected=_expected_without_seeds())
    assert checker.failed == 0, checker.messages()
    assert checker.attempted >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert set(metrics) == {metric for metric, _ in wanted}
    if not trace:
        timings = dict(metrics)
        assert 0 <= timings.pop("sla_miss_ratio") <= 1
        assert all(value > 0 for value in timings.values()), metrics
    else:
        assert metrics["executor.runs" if name.startswith(("offline",
                                                           "online"))
                       else "loop.ticks"] > 0


def test_perturbed_reward_fails_the_output_check(tiny_workloads):
    workload = workloads.WORKLOADS["offline-fig3"]
    ops, _factors = run.run_cycle(workload, 0, str(tiny_workloads))
    rows = [op.row for op in ops]
    perturbed = copy.deepcopy(rows)
    perturbed[0]["total_reward"] *= 1.0 + 1e-6
    expected = _expected_without_seeds()
    expected["seeds"] = {"0": {"offline-fig3": {"rows": perturbed}}}
    _metrics, checker, _lines = run.run_workload(
        "offline-fig3", seed=0, seconds=0.01, trace=False,
        expected=expected)
    assert checker.failed >= 1
    assert any("total_reward" in message for message in checker.messages())


def test_an_operation_that_raises_counts_as_failed(tiny_workloads,
                                                   monkeypatch):
    workload = workloads.WORKLOADS["service-overload"]

    def broken(self, service, tracer=None, probe_slots=False):
        raise RuntimeError("no instance")

    monkeypatch.setattr(type(workload), "run_op", broken)
    _metrics, checker, _lines = run.run_workload(
        "service-overload", seed=0, seconds=0.01, trace=False,
        expected=_expected_without_seeds())
    assert checker.attempted >= 1
    assert checker.failed == checker.attempted
    assert any("raised RuntimeError" in message
               for message in checker.messages())


def test_offered_load_outside_its_band_fails(tiny_workloads, monkeypatch):
    monkeypatch.setitem(workloads.RHO_BANDS, "service-overload",
                        (0.7, 0.95))
    _metrics, checker, _lines = run.run_workload(
        "service-overload", seed=0, seconds=0.01, trace=False,
        expected=_expected_without_seeds())
    assert any("realised rho" in message
               for message in checker.messages())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # root [0, 10] with agg children 0.5; A [1, 4] with agg children
    # 1.0; B [3.5, 6] overlapping A; C [2, 3] inside A (a grandchild).
    spans = [
        (0, 0, "op.x", None, 0.0, 10.0, 0.5),
        (1, 0, "layer.a", 0, 1.0, 4.0, 1.0),
        (2, 0, "layer.b", 0, 3.5, 6.0, 0.0),
        (3, 0, "other.c", 1, 2.0, 3.0, 0.0),
    ]
    assert tracing.span_self_times(spans) == pytest.approx(
        [10.0 - 5.0 - 0.5, 3.0 - 1.0 - 1.0, 2.5, 1.0])


def test_tracer_splits_nested_calls_into_layer_self_times():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    outer = tracing.Site("", "outer.run")
    inner = tracing.Site("", "inner.step")
    hot = tracing.Site("", "hot.eval", keep_span=False)

    def hot_call():
        clock.now += 0.25

    def inner_call():
        clock.now += 1.0
        tracer.call(hot_call, hot, (), {})
        tracer.call(hot_call, hot, (), {})
        clock.now += 1.0

    def outer_call():
        clock.now += 2.0
        tracer.call(inner_call, inner, (), {})
        tracer.call(hot_call, hot, (), {})

    with tracer.op("x"):
        clock.now += 0.5
        tracer.call(outer_call, outer, (), {})
    self_s = tracer.layer_self_s()
    assert self_s["op"] == pytest.approx(0.5)
    assert self_s["outer"] == pytest.approx(2.0)
    assert self_s["inner"] == pytest.approx(2.0)
    assert self_s["hot"] == pytest.approx(0.75)
    assert sum(self_s.values()) == pytest.approx(tracer.op_wall_s())
    assert tracer.layer_busy_s["hot"] == pytest.approx(0.75)
    assert tracer.entry_calls["hot.eval"] == 3


def test_calls_outside_an_operation_are_not_recorded():
    tracer = tracing.Tracer()
    assert tracer.call(lambda: 7, tracing.Site("", "a.b"), (), {}) == 7
    assert not tracer.spans and not tracer.funcs


def test_instrument_restores_every_wrapped_function():
    from repro.core import appro, lp_relaxation
    from repro.solver import interface

    before = (lp_relaxation.build_lp_relaxation,
              appro.build_lp_relaxation, interface.solve_lp, appro.solve_lp)
    with tracing.instrument(tracing.Tracer(), workloads.SITES):
        assert appro.build_lp_relaxation is not before[1]
        assert appro.solve_lp is not before[3]
    assert (lp_relaxation.build_lp_relaxation, appro.build_lp_relaxation,
            interface.solve_lp, appro.solve_lp) == before


def test_slots_are_scaled_by_the_probes_around_their_group(monkeypatch):
    ref = hostspeed.MICRO_REFERENCE_S
    probe_times = iter([ref, ref, 2 * ref])
    monkeypatch.setattr(hostspeed, "micro_probe", lambda: next(probe_times))
    monkeypatch.setattr(hostspeed, "SLOT_PROBE_INTERVAL_S", 0.003)
    probes = hostspeed.SlotProbes()
    slots = [0.002, 0.002, 0.010]
    for index, slot_s in enumerate(slots):
        probes.before(index)
        probes.after(slot_s)
    probes.finish(len(slots))
    # Slots 0 and 1 share the probes at 0 and 2; slot 2 is alone.
    assert [index for index, _ in probes.marks] == [0, 2, 3]
    assert hostspeed.slot_factors(probes.marks) == pytest.approx(
        [1.0, 1.0, 1 / 1.5])
    op = workloads.OpResult(row={}, op_s=sum(slots) + 0.5, slot_s=slots,
                            started=0, requests=0, missed=0, problems=[],
                            slot_probes=probes.marks)
    samples, op_s = run.scaled_op(op, factor=0.5)
    assert samples == pytest.approx([0.002, 0.002, 0.010 / 1.5])
    assert op_s == pytest.approx(sum(samples) + 0.5 * 0.5)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(999) == 98
    assert run.tail_percentile(125) == 92
    samples = list(range(1, 1001))
    assert run.nearest_rank(samples, 99) == 990
    assert sum(1 for s in samples if s > run.nearest_rank(samples, 99)) == 10


def test_benchmark_json_names_every_metric_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] \
        == list(run.WORKLOAD_NAMES)


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline-fig3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
