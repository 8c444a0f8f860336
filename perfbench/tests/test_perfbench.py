"""The benchmark's own tests: tiny smokes of every workload, the output
contract, and that failed checks surface as failed windows.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from repro.core.invariants import InvariantViolationError, Violation
from repro.core.manager import DyconitSystem
from repro.server.engine import GameServer

from perfbench import harness
from perfbench.harness import END_TO_END, PER_LAYER, run_workload
from perfbench.hostspeed import REFERENCE_PROBE_MS, HostProbe, normalised
from perfbench.tracing import LAYERS, LayerTracer
from perfbench.workloads import REPEATS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def tiny(name: str):
    """The workload with a small fleet and a short warm-up."""
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, bots=min(workload.bots, 8), warmup_ms=300.0)


def units(metrics: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in metrics.items()}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_prints_every_metric(name, trace, tmp_path):
    result = run_workload(tiny(name), seed=3, seconds=1.0, trace=trace, tmp_root=str(tmp_path))
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == result["windows_per_repeat"] * (2 if trace else REPEATS)
    assert units(result["metrics"]) == dict(PER_LAYER if trace else END_TO_END)
    # The on-disk store's per-repeat directories are gone afterwards.
    assert list(tmp_path.iterdir()) == []


def test_traced_run_sees_each_workloads_layers(tmp_path):
    def layers(name):
        result = run_workload(tiny(name), seed=3, seconds=1.0, trace=True, tmp_root=str(tmp_path))
        return {key: entry["value"] for key, entry in result["metrics"].items()}

    hotspot, durable, sharded = (
        layers("hotspot-adaptive"), layers("durable-village"), layers("sharded-parallel")
    )
    assert hotspot["core.share_pct"] > 0.0
    assert hotspot["server.codec.ms_per_tick"] > 0.0
    assert hotspot["backends.store.calls_per_tick"] == 0.0
    assert hotspot["cluster.parent_wait_ms_per_tick"] == 0.0
    assert durable["backends.store.calls_per_tick"] > 0.0
    assert durable["cluster.parent_wait_ms_per_tick"] == 0.0
    assert sharded["cluster.parent_wait_ms_per_tick"] > 0.0
    assert sharded["cluster.worker.flush.ms_per_tick"] > 0.0


def test_seed_changes_fingerprint(tmp_path):
    workload = tiny("durable-village")
    first = run_workload(workload, seed=1, seconds=1.0, trace=False, tmp_root=str(tmp_path))
    again = run_workload(workload, seed=1, seconds=1.0, trace=False, tmp_root=str(tmp_path))
    other = run_workload(workload, seed=2, seconds=1.0, trace=False, tmp_root=str(tmp_path))
    assert first["fingerprints"] == again["fingerprints"]
    assert first["fingerprints"] != other["fingerprints"]
    # Every realization of a run has a fleet of its own.
    assert len(set(map(str, first["fingerprints"]))) == REPEATS


def test_audit_violation_fails_every_window(tmp_path, monkeypatch):
    def violated(server):
        raise InvariantViolationError([Violation("I4.test", "forced", "by the test")])

    monkeypatch.setattr(GameServer, "audit_now", violated)
    result = run_workload(
        tiny("hotspot-adaptive"), seed=1, seconds=1.0, trace=False, tmp_root=str(tmp_path)
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_fingerprint_mismatch_between_setups_fails_every_window(tmp_path, monkeypatch):
    calls = iter(range(2 * REPEATS + 1))
    monkeypatch.setattr(harness, "fingerprint", lambda rig: {"call": next(calls)})
    result = run_workload(
        tiny("sharded-parallel"), seed=1, seconds=1.0, trace=False, tmp_root=str(tmp_path)
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_traced_fingerprint_must_match_untraced(tmp_path, monkeypatch):
    def traced_or_not(rig):
        return {"traced": hasattr(vars(DyconitSystem)["tick"], "__wrapped__")}

    monkeypatch.setattr(harness, "fingerprint", traced_or_not)
    result = run_workload(
        tiny("durable-village"), seed=1, seconds=1.0, trace=True, tmp_root=str(tmp_path)
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_error_inside_a_window_fails_the_run(tmp_path, monkeypatch):
    original = DyconitSystem.tick
    workload = tiny("hotspot-adaptive")

    def tick(self):
        if self.now > workload.warmup_ms:
            raise RuntimeError("forced tick failure")
        return original(self)

    monkeypatch.setattr(DyconitSystem, "tick", tick)
    result = run_workload(workload, seed=1, seconds=1.0, trace=False, tmp_root=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"] == {}


def test_normalised_follows_the_probe_around_each_window():
    steady = normalised([10.0, 20.0, 30.0], [REFERENCE_PROBE_MS] * 3)
    assert steady == pytest.approx([10.0, 20.0, 30.0])
    # The host doubles its speed half-way: each half reads on one scale,
    # and one stray probe does not move the median of its neighbours.
    probes = [2 * REFERENCE_PROBE_MS] * 8 + [REFERENCE_PROBE_MS] * 8
    probes[3] = 9.0
    scaled = normalised([40.0] * 8 + [20.0] * 8, probes, reach=2)
    assert scaled == pytest.approx([20.0] * 16)


def test_probe_measures_without_collecting():
    probe = HostProbe(nodes=1_000, steps=200)
    assert all(probe.measure() > 0.0 for _ in range(3))


def test_tracer_restores_entry_points():
    before = {(cls, name): vars(cls)[name] for _, cls, names in LAYERS for name in names}
    with LayerTracer().installed():
        assert vars(DyconitSystem)["tick"] is not before[(DyconitSystem, "tick")]
    after = {(cls, name): vars(cls)[name] for _, cls, names in LAYERS for name in names}
    assert after == before


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(PER_LAYER)


def test_cli_last_line_is_the_result():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "durable-village",
         "--seed", "5", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert units(result["metrics"]) == dict(END_TO_END)


def test_cli_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "durable-village",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
