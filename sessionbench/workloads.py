"""The four benchmark workloads: inputs, execution and output checks.

Each workload runs a whole session (or sweep) through the public API —
``repro.scenario.ScenarioSpec``/``Simulation`` and ``repro.api.run_fleet``
— pins one backend and one churn law, and checks its own outputs.
``execute`` is the timed part; ``check`` runs after the clock stops and
returns one verdict per operation attempted.

Sizes: ``full`` is what the benchmark times; ``smoke`` runs the same
code paths and checks at tiny n in well under a second, for the tests
and for the untimed warm-up at the start of every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from sessionbench.trace import Tracer

D = 8

#: Per-workload, per-size parameters.  n is the scale; horizon the churn
#: rounds after warm-up; every the observer cadence.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "sdgr-session": {
        "full": {"n": 100_000, "horizon": 2000, "every": 1000, "checkpoint_every": 1000},
        "smoke": {"n": 400, "horizon": 40, "every": 20, "checkpoint_every": 20},
    },
    "sdg-expansion": {
        "full": {
            "n": 100_000,
            "horizon": 200,
            "every": 100,
            "max_size": 64,
            "num_random_sets": 64,
            "greedy_restarts": 4,
        },
        "smoke": {
            "n": 400,
            "horizon": 20,
            "every": 10,
            "max_size": 16,
            "num_random_sets": 16,
            "greedy_restarts": 2,
        },
    },
    "pdgr-sweep": {
        "full": {"n": 1000, "horizon": 1000, "replicas": 3},
        "smoke": {"n": 60, "horizon": 20, "replicas": 3},
    },
    "p2p-overlay": {
        "full": {"n": 200},
        "smoke": {"n": 30},
    },
}

#: A flood "completes within c·log2 n rounds" with this c.
FLOOD_ROUNDS_FACTOR = 2.0


@dataclass
class Verdict:
    """Outcome of checking one operation's output."""

    operation: str
    ok: bool
    detail: str = ""


@dataclass
class Workload:
    name: str
    why: str
    law: str  # "fast" (fast_warm + fused rounds) or "exact" (per-event)
    backend: str
    #: End-to-end phases that apply (printed; a missing phase is omitted).
    phases: tuple[str, ...]
    execute: Callable[[dict[str, Any], int, Path, Tracer], dict[str, Any]]
    check: Callable[[dict[str, Any], dict[str, Any], bool], list[Verdict]]

    def provenance(self, size: str) -> dict[str, Any]:
        params = SIZES[self.name][size]
        return {
            "law": self.law,
            "backend": self.backend,
            "n": params["n"],
            "d": D,
            "horizon": params.get("horizon", 0),
        }


def flood_round_limit(n: int) -> float:
    return FLOOD_ROUNDS_FACTOR * math.log2(n)


# ----------------------------------------------------------------------
# sdgr-session
# ----------------------------------------------------------------------


def _sdgr_execute(params: dict[str, Any], seed: int, workdir: Path, tracer: Tracer) -> dict[str, Any]:
    from repro.scenario import ScenarioSpec, Simulation

    checkpoints = workdir / "checkpoints"
    spec = ScenarioSpec(
        churn="streaming",
        n=params["n"],
        d=D,
        policy="regen",
        churn_params={"fast_warm": True},
        protocol="discrete",
        horizon=params["horizon"],
        seed=seed,
        backend="array",
        fast_rounds=True,
        checkpoint_every=params["checkpoint_every"],
        checkpoint_dir=str(checkpoints),
    )
    every = params["every"]
    sim = Simulation(
        spec,
        observers=[
            {"name": "degrees", "params": {"every": every}},
            {"name": "isolated", "params": {"every": every}},
        ],
    )
    sim.run()
    flood = sim.flood()
    restored = Simulation.restore(checkpoints)
    return {
        "isolated": sim.results()["isolated"]["series"],
        "flood": flood,
        "restored_rounds": restored.rounds_completed,
    }


def _sdgr_check(params: dict[str, Any], facts: dict[str, Any], first: bool) -> list[Verdict]:
    del first
    windows = params["horizon"] // params["every"]
    series = facts["isolated"]
    # With regeneration every node keeps its d out-edges, so the paper's
    # isolated fraction for SDGR is exactly zero at every window.
    isolated_ok = len(series) == windows and all(w["isolated"] == 0 for w in series)
    flood = facts["flood"]
    limit = flood_round_limit(params["n"])
    flood_ok = (
        flood.completed
        and flood.completion_round is not None
        and flood.completion_round <= limit
    )
    return [
        Verdict("session", isolated_ok, f"isolated per window {[w['isolated'] for w in series]}"),
        Verdict(
            "flood",
            flood_ok,
            f"completed={flood.completed} round={flood.completion_round} limit={limit:.1f}",
        ),
        Verdict(
            "restore",
            facts["restored_rounds"] == params["horizon"],
            f"rounds_completed={facts['restored_rounds']}",
        ),
    ]


# ----------------------------------------------------------------------
# sdg-expansion
# ----------------------------------------------------------------------


def _probe_params(params: dict[str, Any]) -> dict[str, Any]:
    return {
        "max_size": params["max_size"],
        "num_random_sets": params["num_random_sets"],
        "greedy_restarts": params["greedy_restarts"],
    }


def _sdg_execute(params: dict[str, Any], seed: int, workdir: Path, tracer: Tracer) -> dict[str, Any]:
    del workdir
    from repro.scenario import ScenarioSpec, Simulation

    spec = ScenarioSpec(
        churn="streaming",
        n=params["n"],
        d=D,
        policy="none",
        churn_params={"fast_warm": True},
        horizon=params["horizon"],
        seed=seed,
        backend="array",
        fast_rounds=True,
    )
    probe_seed = seed % 2**31
    sim = Simulation(
        spec,
        observers=[
            {
                "name": "expansion",
                "params": {
                    "every": params["every"],
                    "seed": probe_seed,
                    "incremental": True,
                    **_probe_params(params),
                },
            }
        ],
    )
    sim.run()
    return {"sim": sim, "probe_seed": probe_seed}


def _sdg_check(params: dict[str, Any], facts: dict[str, Any], first: bool) -> list[Verdict]:
    sim = facts["sim"]
    series = sim.results()["expansion"]["series"]
    ratios = [entry["min_ratio"] for entry in series]
    windows = params["horizon"] // params["every"]
    verdicts = [
        Verdict(
            "session",
            len(ratios) == windows and all(math.isfinite(r) for r in ratios),
            f"ratios={ratios}",
        )
    ]
    if first and series:
        # The last window's incremental probe must equal a cold probe of
        # the same view (no churn ran after the last window).  Costly at
        # full size, so it runs on a run's first iteration only.
        from repro.analysis.expansion import adversarial_expansion_upper_bound

        cold = adversarial_expansion_upper_bound(
            sim.csr_view(), seed=facts["probe_seed"], **_probe_params(params)
        )
        last = series[-1]
        verdicts.append(
            Verdict(
                "cold-probe",
                cold.min_ratio == last["min_ratio"]
                and cold.witness_size == last["witness_size"],
                f"cold={cold.min_ratio}/{cold.witness_size} "
                f"incremental={last['min_ratio']}/{last['witness_size']}",
            )
        )
    return verdicts


# ----------------------------------------------------------------------
# pdgr-sweep
# ----------------------------------------------------------------------


def _pdgr_execute(params: dict[str, Any], seed: int, workdir: Path, tracer: Tracer) -> dict[str, Any]:
    import time

    from repro.api import run_fleet
    from repro.scenario import ScenarioSpec
    from repro.sweep import SweepSpec

    base = ScenarioSpec(
        churn="poisson",
        n=params["n"],
        d=D,
        policy="regen",
        protocol="asynchronous",
        horizon=params["horizon"],
        backend="array",
    )
    sweep = SweepSpec(
        base=base, replicas=params["replicas"], seed=seed, measure="flood_stats"
    )
    store = workdir / "store"
    start = time.perf_counter()
    with tracer.span("sweep.fleet_cold"):
        cold = run_fleet(sweep, store, workers=1, backend="array")
    cold_s = time.perf_counter() - start
    sessions_before = tracer.calls("scenario.init")
    start = time.perf_counter()
    with tracer.span("sweep.fleet_warm"):
        warm = run_fleet(sweep, store, workers=1, backend="array")
    warm_s = time.perf_counter() - start
    return {
        "cold": cold,
        "warm": warm,
        "cells": sweep.num_cells,
        "cells_per_s": sweep.num_cells / cold_s,
        "warm_rerun_s": warm_s,
        "warm_cells_executed": tracer.calls("scenario.init") - sessions_before,
    }


def _pdgr_check(params: dict[str, Any], facts: dict[str, Any], first: bool) -> list[Verdict]:
    del first
    cold, warm = facts["cold"], facts["warm"]
    cells_ok = len(cold.values) == facts["cells"] and all(
        isinstance(value, dict) and "completed" in value for value in cold.values
    )
    verdicts = [
        Verdict(f"cell-{index}", cells_ok, f"{len(cold.values)} values")
        for index in range(facts["cells"])
    ]
    verdicts.append(
        Verdict(
            "warm-sweep",
            cold.digest == warm.digest and facts["warm_cells_executed"] == 0,
            f"digests equal={cold.digest == warm.digest} "
            f"warm cells executed={facts['warm_cells_executed']}",
        )
    )
    return verdicts


# ----------------------------------------------------------------------
# p2p-overlay
# ----------------------------------------------------------------------


def _p2p_execute(params: dict[str, Any], seed: int, workdir: Path, tracer: Tracer) -> dict[str, Any]:
    del workdir
    from repro.scenario import ScenarioSpec, Simulation

    n = params["n"]
    spec = ScenarioSpec(
        churn="bitcoin",
        n=n,
        d=D,
        policy="none",
        protocol="discretized",
        protocol_params={"max_rounds": 40 * int(math.log2(n))},
        seed=seed,
        backend="dict",
    )
    # The isolated observer reads the overlay once, at the end of run()
    # (horizon 0: right after warm-up), before the flood mutates it.
    sim = Simulation(spec, observers=["isolated"])
    sim.run()
    flood = sim.flood()
    return {"isolated": sim.results()["isolated"]["final"], "flood": flood}


def _p2p_check(params: dict[str, Any], facts: dict[str, Any], first: bool) -> list[Verdict]:
    del first
    isolated = facts["isolated"]
    flood = facts["flood"]
    # Poisson lifetimes are memoryless: the source leaves before its first
    # transmission with probability about 1/n, and the flood dies out with
    # only the source ever informed.  That outcome is the churn law's, not
    # a defect (the paper's completion claim is w.h.p.); any other
    # non-completion fails.
    source_left = flood.extinct and flood.max_informed == 1
    return [
        Verdict(
            "session",
            isolated is not None and isolated["isolated"] == 0,
            f"isolated={isolated}",
        ),
        Verdict(
            "flood",
            bool(flood.completed) or source_left,
            f"completed={flood.completed} round={flood.completion_round} "
            f"extinct={flood.extinct} max_informed={flood.max_informed}",
        ),
    ]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sdgr-session",
            why=(
                "baseline SDGR session on the fast law: fused churn, cold CSR "
                "rebuilds, checkpoint I/O, a discrete flood and a restore"
            ),
            law="fast",
            backend="array",
            phases=("setup_s", "run_s", "flood_s", "restore_s"),
            execute=_sdgr_execute,
            check=_sdgr_check,
        ),
        Workload(
            name="sdg-expansion",
            why=(
                "SDG large-set expansion: incremental expansion probes dominate, "
                "churn is light; shares the cold CSR rebuild with sdgr-session"
            ),
            law="fast",
            backend="array",
            phases=("setup_s", "run_s"),
            execute=_sdg_execute,
            check=_sdg_check,
        ),
        Workload(
            name="pdgr-sweep",
            why=(
                "exact-law PDGR replica sweep: per-event churn, asynchronous "
                "floods, and the sweep store written cold then read warm"
            ),
            law="exact",
            backend="array",
            phases=("setup_s", "run_s", "flood_s", "cells_per_s"),
            execute=_pdgr_execute,
            check=_pdgr_check,
        ),
        Workload(
            name="p2p-overlay",
            why=(
                "Bitcoin-like overlay: the p2p address-manager warm-up dominates, "
                "then a discretized flood"
            ),
            law="exact",
            backend="dict",
            phases=("setup_s", "flood_s"),
            execute=_p2p_execute,
            check=_p2p_check,
        ),
    )
}
