"""Session-level benchmark: run one workload, check it, print its metrics.

Usage (from the repository root)::

    python3 sessionbench/run.py --workload sdgr-session --seed 1 \\
        --seconds 28 --trace 0

The run repeats the workload for ``--seconds`` seconds (at least once),
each iteration on inputs derived from ``--seed`` and the iteration
index, and reports medians over iterations.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
iterations on the same inputs and prints the per-layer metrics of the
traced ones plus the tracing overhead.  Every iteration's outputs are
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT_DIR = Path(__file__).resolve().parent.parent
if str(ROOT_DIR) not in sys.path:
    sys.path.insert(0, str(ROOT_DIR))

from sessionbench.trace import ROOT, Tracer, install_layers, install_phase_clocks, layer_metrics  # noqa: E402
from sessionbench.workloads import SIZES, WORKLOADS, Verdict, Workload  # noqa: E402

#: End-to-end metrics gated per workload (every workload reports them).
GATED = ("wall_s", "setup_s", "peak_rss_mb")

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "flood_s": "s",
    "restore_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}

#: Scratch space (checkpoints, sweep stores) and span files, inside the
#: working directory the benchmark is started from.
OUT_DIR = Path(".sessionbench")


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or metric == "trace.coverage":
        return "ratio"
    return "count"


def iteration_seed(seed: int, index: int) -> int:
    """Input seed of iteration *index* (``-1`` is the untimed warm-up)."""
    import numpy as np

    entropy = [seed & 0xFFFFFFFF, index + 1]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def provenance(workload: Workload, size: str, seed: int) -> dict[str, Any]:
    import numpy as np

    return {
        "workload": workload.name,
        "size": size,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **workload.provenance(size),
    }


@dataclass
class Sample:
    """One timed iteration."""

    wall_s: float
    tracer: Tracer
    facts: dict[str, Any]

    def phase(self, name: str) -> float:
        if name == "setup_s":
            # Session builds, not the rebuild inside Simulation.restore.
            return sum(self.tracer.durations("scenario.init", outside="scenario.restore"))
        if name == "cells_per_s":
            return float(self.facts["cells_per_s"])
        span = {"run_s": "scenario.run", "flood_s": "scenario.flood", "restore_s": "scenario.restore"}[name]
        return sum(self.tracer.durations(span))


@dataclass
class Outcome:
    """Everything one benchmark run measured."""

    workload: Workload
    samples: list[Sample] = field(default_factory=list)
    #: Per-layer metrics of each traced iteration.
    traced: list[dict[str, float]] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    #: Peak resident memory after the first timed iteration: one full-size
    #: session, before heap reuse across iterations blurs it.
    peak_rss_mb: float = 0.0

    @property
    def failed(self) -> int:
        return sum(not verdict.ok for verdict in self.verdicts)

    def end_to_end(self) -> dict[str, float]:
        """Medians over untraced iterations of every applicable metric."""
        metrics = {"wall_s": statistics.median(s.wall_s for s in self.samples)}
        for phase in self.workload.phases:
            metrics[phase] = statistics.median(s.phase(phase) for s in self.samples)
        metrics["peak_rss_mb"] = self.peak_rss_mb
        return metrics

    def per_layer(self) -> dict[str, float]:
        """Medians over traced iterations, plus the tracing overhead."""
        metrics = {
            name: statistics.median(values[name] for values in self.traced)
            for name in self.traced[0]
        }
        untraced = statistics.median(s.wall_s for s in self.samples)
        metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.wall_s"] - untraced) / untraced
        return metrics


def run_iteration(
    workload: Workload,
    params: dict[str, Any],
    seed: int,
    workdir: Path,
    traced: bool,
    first: bool,
    outcome: Outcome,
) -> Sample | None:
    """Execute one iteration, check it, and record its verdicts."""
    tracer = Tracer()
    workdir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    try:
        install_phase_clocks(tracer)
        if traced:
            install_layers(tracer)
        start = time.perf_counter()
        with tracer.span(ROOT):
            facts = workload.execute(params, seed, workdir, tracer)
        wall_s = time.perf_counter() - start
        tracer.uninstall()
        outcome.verdicts.extend(workload.check(params, facts, first))
    except Exception:  # a failing program is a failed operation, not a crash
        tracer.uninstall()
        traceback.print_exc()
        outcome.verdicts.append(Verdict("iteration", False, "raised"))
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Keep the timings, drop the session objects before the next build.
    return Sample(wall_s, tracer, {k: v for k, v in facts.items() if isinstance(v, (int, float))})


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    out_dir: Path = OUT_DIR,
    warmup: bool = True,
) -> Outcome:
    """Repeat workload *name* for about *seconds*; see the module docstring."""
    workload = WORKLOADS[name]
    params = SIZES[name][size]
    outcome = Outcome(workload)
    scratch = out_dir / f"work-{os.getpid()}"
    spans_path = out_dir / f"spans-{name}.jsonl"
    try:
        if warmup:
            # Untimed: imports, first-call allocations and the checks at
            # smoke size, so the first timed iteration is not the coldest.
            run_iteration(
                workload, SIZES[name]["smoke"], iteration_seed(seed, -1),
                scratch / "warmup", False, True, outcome,
            )
        start = time.perf_counter()
        durations: list[float] = []
        index = 0
        while True:
            began = time.perf_counter()
            it_seed = iteration_seed(seed, index)
            sample = run_iteration(
                workload, params, it_seed, scratch / f"it{index}", False, index == 0, outcome
            )
            if sample is not None:
                outcome.samples.append(sample)
            if index == 0:
                outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if trace:
                traced = run_iteration(
                    workload, params, it_seed, scratch / f"it{index}t", True, False, outcome
                )
                if traced is not None:
                    outcome.traced.append(
                        layer_metrics(traced.tracer, traced.wall_s, traced.facts)
                    )
                    if len(outcome.traced) == 1:
                        header = {"provenance": provenance(workload, size, seed)}
                        spans_path.write_text(json.dumps(header) + "\n")
                    traced.tracer.write_spans(spans_path, index, append=True)
            index += 1
            now = time.perf_counter()
            durations.append(now - began)
            # Stop before an iteration as long as the typical one would
            # overrun the budget (the first always runs).
            if now - start + statistics.median(durations) > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return outcome


def report(outcome: Outcome, trace: bool, size: str, seed: int) -> dict[str, Any]:
    """Print the human-readable lines; return the result object."""
    workload = outcome.workload
    print(f"workload {workload.name}: {workload.why}")
    print("provenance " + json.dumps(provenance(workload, size, seed), sort_keys=True))
    for verdict in outcome.verdicts:
        if not verdict.ok:
            print(f"FAILED check {verdict.operation}: {verdict.detail}")
    attempted = len(outcome.verdicts)
    failed = outcome.failed
    result: dict[str, Any] = {
        "correct": failed == 0 and bool(outcome.samples) and (bool(outcome.traced) or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
    }
    if not outcome.samples:
        return result
    end_to_end = outcome.end_to_end()
    count = len(outcome.samples)
    for name, value in end_to_end.items():
        how = "after the first timed iteration" if name == "peak_rss_mb" else f"median of {count}"
        print(f"{name} = {value:.6g} {unit_of(name)} ({how})")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} failed of {attempted})")
    if trace:
        if not outcome.traced:
            return result
        metrics = outcome.per_layer()
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {unit_of(name)} (median of {len(outcome.traced)} traced)")
    else:
        metrics = {name: end_to_end[name] for name in GATED}
    result["metrics"] = {
        name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    src = ROOT_DIR / "src"
    if not (src / "repro").is_dir():
        print(f"sessionbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Each workload pins its backend and law in its specs; process-wide
    # overrides (REPRO_BACKEND, REPRO_FAST_ROUNDS, ...) must not leak in.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]

    OUT_DIR.mkdir(exist_ok=True)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    result = report(outcome, bool(args.trace), args.size, args.seed)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
