"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import population  # noqa: E402
import run  # noqa: E402
from common import ROOT, Tracer, import_program  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def test_same_seed_same_bodies_other_seed_other_bodies():
    assert inputs.batch_bodies(7, 1024) == inputs.batch_bodies(7, 1024)
    assert inputs.batch_bodies(7, 1024) != inputs.batch_bodies(8, 1024)
    for workload in run.WORKLOADS:
        assert inputs.single_keys(7, workload) == inputs.single_keys(7, workload)
        assert inputs.single_keys(7, workload) != inputs.single_keys(8, workload)
    _, weights = inputs.single_keys(7, "cache-fit")
    assert inputs.key_schedule(7, "single", weights, 50) == inputs.key_schedule(7, "single", weights, 50)
    assert inputs.key_schedule(7, "single", weights, 50) != inputs.key_schedule(8, "single", weights, 50)
    assert inputs.job_seed(7, 0) != inputs.job_seed(8, 0)


def test_input_shapes():
    bodies = inputs.batch_bodies(3)
    items = [json.dumps(item, sort_keys=True) for body in bodies for item in json.loads(body)["items"]]
    assert len(items) == len(set(items)) >= 25 * 1024
    assert all(len(body) < 64 * 1024 for body in bodies)
    for workload, (n_classify, n_costs, _) in inputs.KEY_SETS.items():
        targets, _ = inputs.single_keys(3, workload)
        assert len(set(targets)) == n_classify + n_costs
    fit, _ = inputs.single_keys(3, "cache-fit")
    assert len(fit) < 1024


def test_request_bodies_are_valid_signatures():
    import_program()
    from repro.core.classify import canonical_class
    from repro.core.signature import make_signature

    for item in inputs.batch_items(5, 512) + [dict(s) for s in inputs.STRUCTURES]:
        links = {key.replace("-", "_"): item.get(key) for key in inputs.FIELDS[2:]}
        canonical_class(make_signature(item["ips"], item["dps"], **links))


def test_tracer_self_time():
    tracer = Tracer(True)
    tracer.add("parent", 0.0, 10.0, parent=None)
    tracer.add("child", 2.0, 5.0, parent=0)
    tracer.add("child", 4.0, 6.0, parent=0)
    assert tracer.self_times() == {"parent": 6.0, "child": 5.0}
    assert Tracer(False).add("x", 0.0, 1.0) == -1


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "CYCLES", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(population, "SIZE", 3000)
    monkeypatch.setattr(inputs, "BATCH_POOL", 256 * 26)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, trace):
    status = run.main(["--workload", "cache-fit", "--seed", "5", "--seconds", "1",
                       "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_declared_metrics_match_the_harness():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    program, *arguments = BENCHMARK["command"]
    assert program == "python3"
    proc = subprocess.run(
        [sys.executable, *arguments, "--workload", "cache-fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "src/repro" in proc.stderr
    assert '"metrics"' not in proc.stdout
