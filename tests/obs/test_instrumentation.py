"""Integration: the instrumentation threaded through perf, machines, faults.

These tests turn the global tracer on around real library calls and
assert that the spans, events and metrics the observability guide
documents actually appear — the contract `docs/observability.md` states.
"""

import pytest

from repro.faults import FaultEvent, FaultPlan, FaultPolicy
from repro.machine.array_processor import ArrayProcessor, ArraySubtype
from repro.machine.base import machine_label, traced_run
from repro.machine.kernels import simd_vector_add
from repro.obs import REGISTRY, trace, validate_trace
from repro.perf import sweep


@pytest.fixture(autouse=True)
def clean_tracer():
    trace.reset()
    trace.disable()
    yield
    trace.reset()
    trace.disable()


def _square(value):
    return value * value


def _boom(value):
    raise RuntimeError(f"point {value} failed")


def _find(root, name):
    return [s for s in root.walk() if s.name == name]


class TestSweepInstrumentation:
    def test_serial_sweep_records_per_point_spans(self):
        trace.enable()
        result = sweep(_square, [1, 2, 3])
        trace.disable()
        assert list(result) == [1, 4, 9]
        (root,) = trace.tracer().roots
        assert root.name == "perf.sweep"
        assert root.attributes["points"] == 3
        assert set(root.attributes) == {"points", "wall_s", "point_s", "resumed"}
        assert root.attributes["wall_s"] >= 0
        points = _find(root, "perf.point")
        assert [p.attributes["index"] for p in points] == [0, 1, 2]

    def test_sweep_metrics_accumulate_without_tracing(self):
        runs_before = REGISTRY.get("sweep.runs").value
        points_before = REGISTRY.get("sweep.points").value
        wall_before = REGISTRY.get("sweep.wall_s").count
        sweep(_square, [1, 2, 3, 4])
        assert REGISTRY.get("sweep.runs").value == runs_before + 1
        assert REGISTRY.get("sweep.points").value == points_before + 4
        assert REGISTRY.get("sweep.wall_s").count == wall_before + 1

    def test_failing_sweep_marks_the_span(self):
        trace.enable()
        with pytest.raises(RuntimeError, match="point 1 failed"):
            sweep(_boom, [1, 2])
        trace.disable()
        (root,) = trace.tracer().roots
        assert root.name == "perf.sweep"
        assert root.attributes["error"] == "RuntimeError"

    def test_disabled_tracing_leaves_no_spans(self):
        sweep(_square, [1, 2])
        assert trace.tracer().roots == []


class TestMachineInstrumentation:
    def _machine(self, lanes=4, per_lane=4):
        machine = ArrayProcessor(lanes, ArraySubtype.IAP_IV)
        machine.scatter(0, list(range(lanes * per_lane)))
        machine.scatter(64, list(range(lanes * per_lane)))
        return machine

    def test_run_span_carries_label_cycles_and_operations(self):
        machine = self._machine()
        trace.enable()
        result = machine.run(simd_vector_add(4))
        trace.disable()
        (root,) = trace.tracer().roots
        assert root.name == "machine.run"
        assert root.attributes["machine"] == "IAP-IV"
        assert root.attributes["cycles"] == result.cycles
        assert root.attributes["operations"] == result.operations

    def test_counters_accumulate_even_without_tracing(self):
        runs_before = REGISTRY.get("machine.runs").value
        cycles_before = REGISTRY.get("machine.cycles").value
        result = self._machine().run(simd_vector_add(4))
        assert REGISTRY.get("machine.runs").value == runs_before + 1
        assert REGISTRY.get("machine.cycles").value == cycles_before + result.cycles

    def test_machine_label_falls_back_to_class_name(self):
        class Bare:
            pass

        assert machine_label(Bare()) == "Bare"

    def test_traced_run_passes_through_non_execution_results(self):
        class Custom:
            label = "custom"

            @traced_run("machine.run_custom")
            def run(self):
                return {"ok": True}

        trace.enable()
        assert Custom().run() == {"ok": True}
        trace.disable()
        (root,) = trace.tracer().roots
        assert root.name == "machine.run_custom"
        assert root.attributes["machine"] == "custom"
        assert "cycles" not in root.attributes


class TestFaultInstrumentation:
    def test_policy_decisions_surface_as_span_events(self):
        machine = ArrayProcessor(4, ArraySubtype.IAP_IV)
        machine.scatter(0, list(range(16)))
        machine.scatter(64, list(range(16)))
        plan = FaultPlan((FaultEvent(cycle=3, target=1),))
        trace.enable()
        machine.run(simd_vector_add(4), faults=plan, policy=FaultPolicy.remap())
        trace.disable()
        (root,) = trace.tracer().roots
        decisions = [e for e in root.events if e.name == "fault.policy"]
        assert decisions, "expected at least one fault.policy event"
        remap = [e for e in decisions if e.attributes["action"] == "remap"]
        assert remap and remap[0].attributes["machine"] == "IAP-IV"
        assert remap[0].attributes["cycle"] == 3

    def test_abort_decision_is_recorded_before_the_raise(self):
        from repro.core.errors import FaultError

        machine = ArrayProcessor(4, ArraySubtype.IAP_IV)
        machine.scatter(0, list(range(16)))
        machine.scatter(64, list(range(16)))
        plan = FaultPlan((FaultEvent(cycle=2, target=0),))
        trace.enable()
        with pytest.raises(FaultError):
            machine.run(simd_vector_add(4), faults=plan)  # fail-fast default
        trace.disable()
        (root,) = trace.tracer().roots
        actions = [e.attributes["action"] for e in root.events if e.name == "fault.policy"]
        assert "abort" in actions

    def test_no_events_while_disabled(self):
        machine = ArrayProcessor(4, ArraySubtype.IAP_IV)
        machine.scatter(0, list(range(16)))
        machine.scatter(64, list(range(16)))
        plan = FaultPlan((FaultEvent(cycle=3, target=1),))
        machine.run(simd_vector_add(4), faults=plan, policy=FaultPolicy.remap())
        assert trace.tracer().roots == []


class TestEndToEnd:
    def test_traced_analysis_exports_a_valid_payload(self):
        from repro.analysis.resilience import resilience_sweep

        trace.enable()
        resilience_sweep((0.05,), n=4)
        trace.disable()
        payload = trace.tracer().to_dict()
        validate_trace(payload)
        (root,) = payload["spans"]
        assert root["name"] == "analysis.resilience_sweep"
        nested = [child["name"] for child in root["children"]]
        assert "perf.sweep" in nested
