"""Smoke tests of the session benchmark: every workload's checks, the
trace bookkeeping, and the agreement of BENCHMARK.json with the output."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT_DIR = Path(__file__).resolve().parents[2]
if str(ROOT_DIR / "src") not in sys.path:
    sys.path.insert(0, str(ROOT_DIR / "src"))

from sessionbench.run import GATED, report, run_workload, unit_of  # noqa: E402
from sessionbench.trace import LAYERS, Tracer  # noqa: E402
from sessionbench.workloads import WORKLOADS  # noqa: E402


@pytest.fixture(autouse=True)
def _pinned_law(monkeypatch: pytest.MonkeyPatch) -> None:
    # The benchmark's entry point clears these; in-process runs must too.
    monkeypatch.delenv("REPRO_FAST_ROUNDS", raising=False)


def _smoke(name: str, tmp_path: Path, trace: bool = True):
    return run_workload(
        name, seed=3, seconds=0, trace=trace, size="smoke", out_dir=tmp_path, warmup=False
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_workload_passes_its_checks(name: str, tmp_path: Path) -> None:
    outcome = _smoke(name, tmp_path)
    assert outcome.verdicts and outcome.failed == 0, outcome.verdicts
    end_to_end = outcome.end_to_end()
    for metric in GATED + WORKLOADS[name].phases:
        assert end_to_end[metric] > 0, metric
    layers = outcome.per_layer()
    # Layer self times add up to the traced wall time.
    assert layers["trace.coverage"] == pytest.approx(1.0, abs=0.05)
    assert sum(layers[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(
        layers["trace.wall_s"], rel=0.05
    )
    assert math.isfinite(layers["trace.overhead_pct"])
    assert (tmp_path / f"spans-{name}.jsonl").is_file()
    assert not list(tmp_path.glob("work-*")), "scratch space left behind"


def test_layer_counts_match_the_workload(tmp_path: Path) -> None:
    sdgr = _smoke("sdgr-session", tmp_path).per_layer()
    assert sdgr["core.fused_rounds"] == 40
    assert sdgr["service.checkpoints"] == 2
    assert sdgr["flooding.runs"] == 1 and sdgr["flooding.completed_ratio"] == 1.0
    sdg = _smoke("sdg-expansion", tmp_path).per_layer()
    assert sdg["analysis.expansion_windows"] == 2
    assert sdg["analysis.probe_replayed"] + sdg["analysis.probe_recomputed"] > 0
    sweep = _smoke("pdgr-sweep", tmp_path).per_layer()
    assert sweep["sweep.cells_executed"] == 3 and sweep["sweep.warm_cells_executed"] == 0
    assert sweep["core.fused_rounds"] == 0
    p2p = _smoke("p2p-overlay", tmp_path).per_layer()
    assert p2p["p2p.ticks"] > 0 and p2p["p2p.dials_ok"] > 0


def test_result_line_has_the_contract_shape(tmp_path: Path, capsys) -> None:
    outcome = _smoke("p2p-overlay", tmp_path, trace=False)
    result = report(outcome, trace=False, size="smoke", seed=3)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == set(GATED)
    assert "provenance" in capsys.readouterr().out


def test_benchmark_json_names_what_the_benchmark_prints(tmp_path: Path) -> None:
    spec = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["sessionbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit_of(name)) for name in GATED
    ]
    printed = _smoke("sdgr-session", tmp_path).per_layer()
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {name: unit_of(name) for name in printed}


def test_tracer_self_times_partition_the_root() -> None:
    owner = types.SimpleNamespace()
    tracer = Tracer()

    def leaf() -> None:
        sum(range(1000))

    def inner(depth: int) -> None:
        owner.leaf()
        if depth:
            owner.inner(depth - 1)  # folds into the same-named parent

    owner.leaf, owner.inner = leaf, inner
    tracer.wrap(owner, "leaf", "core.leaf")
    tracer.wrap(owner, "inner", "models.inner")
    with tracer.span("scenario.root"):
        owner.inner(2)
    tracer.uninstall()
    assert owner.leaf is leaf and owner.inner is inner
    assert tracer.calls("models.inner") == 1 and tracer.calls("core.leaf") == 3
    root = tracer.durations("scenario.root")[0]
    assert sum(tracer.self_times().values()) == pytest.approx(root, rel=1e-9)


def test_exits_nonzero_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(ROOT_DIR / "sessionbench", tmp_path / "sessionbench")
    shutil.copy(ROOT_DIR / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "sessionbench/run.py", "--workload", "p2p-overlay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
