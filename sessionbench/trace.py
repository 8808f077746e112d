"""In-memory span recorder and the layer entry points the benchmark wraps.

The program itself carries no instrumentation.  A :class:`Tracer` wraps
public entry points of each layer from the outside (class attributes and
module globals), records one span per call — name, start, end, parent —
in memory, and restores every original on :meth:`Tracer.uninstall`.

Span names are ``<layer>.<what>``; the layer is the part before the
first dot.  A call whose immediate parent span has the same name (a
``super()`` chain or a driver method delegating to a sibling entry
point) is folded into that parent, so call counts are counts of outer
calls.  Self time of a span is its duration minus the time covered by
its direct children; since spans nest strictly (one thread, one stack),
the self times of all spans under the workload's root add up to the
root's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: Layers reported with a ``<layer>.self_s`` metric.  ``scenario`` also
#: owns the workload's root span, so its self time is the residual of
#: ``wall_s`` not covered by any other layer.
LAYERS = (
    "core",
    "models",
    "scenario",
    "analysis",
    "flooding",
    "service",
    "sweep",
    "p2p",
)

#: Root span of one workload iteration.
ROOT = "scenario.workload"

Hook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Latest value of a monotone public counter per object, e.g.
        #: ``p2p.dials_ok -> {id(network): network.successful_dials}``.
        self.gauges: dict[str, dict[int, float]] = defaultdict(dict)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _enter(self, name: str) -> int:
        stack = self._stack
        if stack and self.names[stack[-1]] == name:
            # Folded into the same-named parent, which stays the parent
            # of anything called from here.
            stack.append(stack[-1])
            return -1
        index = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        if index >= 0:
            self.ends[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span around a block."""
        return _SpanContext(self, name)

    def wrap(self, owner: Any, attr: str, name: str, hook: Hook | None = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *owner* is a class or a module; the attribute must be defined on
        it directly (not inherited), so restoring puts back exactly what
        was there.  *hook* runs after the span closes with the call's
        arguments and result, to read counts from public state.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(index)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for span_name in self.names if span_name == name)

    def durations(self, name: str, outside: str | None = None) -> list[float]:
        """Durations of spans called *name*, skipping those whose parent
        is called *outside*."""
        return [
            self.ends[i] - self.starts[i]
            for i, span_name in enumerate(self.names)
            if span_name == name
            and not (
                outside is not None
                and self.parents[i] >= 0
                and self.names[self.parents[i]] == outside
            )
        ]

    def self_times(self) -> dict[str, float]:
        """Self time summed per layer over every recorded span."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            totals[layer] += self.ends[i] - self.starts[i] - covered[i]
        return totals

    def gauge_total(self, name: str) -> float:
        return float(sum(self.gauges[name].values()))

    def write_spans(self, path: Path, iteration: int, append: bool) -> None:
        """Write the spans as JSON lines (times relative to the first)."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "a" if append else "w", encoding="utf-8") as out:
            for i, name in enumerate(self.names):
                out.write(
                    json.dumps(
                        {
                            "iteration": iteration,
                            "id": i,
                            "name": name,
                            "parent": self.parents[i],
                            "start": self.starts[i] - origin,
                            "end": self.ends[i] - origin,
                        }
                    )
                    + "\n"
                )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer._exit(self.index)


# ----------------------------------------------------------------------
# hooks: counts read from public state at the layer boundary
# ----------------------------------------------------------------------


def _fused_rounds(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    from repro.core.backend import GraphBackend

    bound = inspect.signature(GraphBackend.apply_round_batch).bind(*args, **kwargs)
    tracer.counters["core.fused_rounds"] += int(bound.arguments["rounds"])


def _probe_stats(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    stats = args[0].last_stats  # ProbeCache.last_stats of this probe
    tracer.counters["analysis.probe_replayed"] += stats.get("replayed", 0)
    tracer.counters["analysis.probe_recomputed"] += stats.get("recomputed", 0)
    tracer.counters["analysis.candidates_checked"] += result.candidates_checked


def _flood_stats(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["flooding.rounds"] += result.rounds_run
    tracer.counters["flooding.completed"] += bool(result.completed)


def _checkpoint_bytes(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["service.checkpoint_bytes"] += Path(result).stat().st_size


def _store_hit(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["sweep.store_hits"] += result is not None


def _p2p_counts(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    network = args[0]
    key = id(network)
    tracer.gauges["p2p.churn_events"][key] = network.event_count
    tracer.gauges["p2p.dials_ok"][key] = network.successful_dials
    tracer.gauges["p2p.dials_failed"][key] = network.failed_dials


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def install_phase_clocks(tracer: Tracer) -> None:
    """Wrap the session entry points behind the end-to-end phases.

    A handful of calls per session, so this is active on untraced runs
    too: ``setup_s``/``run_s``/``flood_s``/``restore_s`` are read from
    these spans, including the sessions a sweep cell builds internally.
    """
    from repro.scenario.simulation import Simulation

    tracer.wrap(Simulation, "__init__", "scenario.init")
    tracer.wrap(Simulation, "run", "scenario.run")
    tracer.wrap(Simulation, "flood", "scenario.flood")
    tracer.wrap(Simulation, "restore", "scenario.restore")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.api.sweeps as api_sweeps
    import repro.scenario.observers as observers
    import repro.scenario.simulation as simulation
    import repro.service.checkpoint as checkpoint_io
    from repro.analysis.incremental import ProbeCache
    from repro.core.array_backend import ArraySlotBackend
    from repro.core.backend import GraphBackend
    from repro.core.graph import DictBackend
    from repro.flooding.protocols import all_protocols
    from repro.models.base import DynamicNetwork
    from repro.models.poisson import PoissonNetwork
    from repro.models.streaming import StreamingNetwork
    from repro.p2p.network import BitcoinLikeNetwork
    from repro.sweep.store import ResultStore

    # core: backend calls (DictBackend inherits csr_view from the base)
    tracer.wrap(GraphBackend, "csr_view", "core.csr_view")
    tracer.wrap(ArraySlotBackend, "csr_view", "core.csr_view")
    tracer.wrap(ArraySlotBackend, "apply_round_batch", "core.apply_round_batch", _fused_rounds)
    for backend in (ArraySlotBackend, DictBackend):
        tracer.wrap(backend, "remove_node", "core.remove_node")
        tracer.wrap(backend, "add_node", "core.add_node")

    # models: driver build + warm-up, per-event stepping, batched windows
    tracer.wrap(simulation, "build_network", "models.build")
    tracer.wrap(DynamicNetwork, "advance_to_time_batched", "models.advance_batched")
    tracer.wrap(StreamingNetwork, "advance_round", "models.advance_round")
    tracer.wrap(PoissonNetwork, "advance_round", "models.advance_round")
    tracer.wrap(PoissonNetwork, "advance_to_time", "models.advance_round")  # warm-up

    # analysis: what the observers call on each window's view
    tracer.wrap(ProbeCache, "probe", "analysis.expansion", _probe_stats)
    tracer.wrap(observers, "count_isolated", "analysis.census")
    tracer.wrap(observers, "degree_summary", "analysis.census")

    # flooding: every registered protocol's run
    for protocol in all_protocols():
        if "run" in vars(type(protocol)):
            tracer.wrap(type(protocol), "run", "flooding.run", _flood_stats)

    # service: checkpoint I/O as the session calls it
    tracer.wrap(
        checkpoint_io, "write_checkpoint", "service.checkpoint_write", _checkpoint_bytes
    )
    tracer.wrap(checkpoint_io, "load_checkpoint", "service.checkpoint_load")
    tracer.wrap(checkpoint_io, "rebuild_network", "service.rebuild_network")

    # sweep/api: cell execution, the result store, claims, reduction
    tracer.wrap(api_sweeps, "execute_cell", "sweep.cell")
    tracer.wrap(api_sweeps, "collect", "sweep.collect")
    tracer.wrap(ResultStore, "put", "sweep.store_put")
    tracer.wrap(ResultStore, "get", "sweep.store_get", _store_hit)
    tracer.wrap(ResultStore, "claim", "sweep.claim")

    # p2p: one maintenance tick per unit of time
    tracer.wrap(BitcoinLikeNetwork, "advance_round", "p2p.tick", _p2p_counts)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, facts: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    *wall_s* is the iteration's traced wall time; *facts* carries the
    workload-level counts no layer call reports (the warm sweep re-run).
    """

    def total(name: str) -> float:
        return float(sum(tracer.durations(name)))

    def longest(name: str) -> float:
        return float(max(tracer.durations(name), default=0.0))

    counters = tracer.counters
    probed = counters["analysis.probe_replayed"] + counters["analysis.probe_recomputed"]
    runs = tracer.calls("flooding.run")
    gets = tracer.calls("sweep.store_get")
    dials_ok = tracer.gauge_total("p2p.dials_ok")
    dials_failed = tracer.gauge_total("p2p.dials_failed")
    metrics = {
        "core.csr_view_s": total("core.csr_view"),
        "core.csr_view_calls": tracer.calls("core.csr_view"),
        "core.csr_view_max_s": longest("core.csr_view"),
        "core.apply_round_batch_s": total("core.apply_round_batch"),
        "core.fused_rounds": counters["core.fused_rounds"],
        "core.remove_node_s": total("core.remove_node"),
        "core.remove_node_calls": tracer.calls("core.remove_node"),
        "core.remove_node_max_s": longest("core.remove_node"),
        "core.add_node_s": total("core.add_node"),
        "core.add_node_calls": tracer.calls("core.add_node"),
        "models.build_s": total("models.build"),
        "models.advance_batched_s": total("models.advance_batched"),
        "models.advance_batched_calls": tracer.calls("models.advance_batched"),
        "models.advance_round_s": total("models.advance_round"),
        "models.advance_round_calls": tracer.calls("models.advance_round"),
        "models.advance_round_max_s": longest("models.advance_round"),
        "analysis.expansion_s": total("analysis.expansion"),
        "analysis.expansion_windows": tracer.calls("analysis.expansion"),
        "analysis.probe_replayed": counters["analysis.probe_replayed"],
        "analysis.probe_recomputed": counters["analysis.probe_recomputed"],
        "analysis.probe_replay_ratio": _ratio(counters["analysis.probe_replayed"], probed),
        "analysis.candidates_checked": counters["analysis.candidates_checked"],
        "analysis.census_s": total("analysis.census"),
        "flooding.run_s": total("flooding.run"),
        "flooding.runs": runs,
        "flooding.rounds": counters["flooding.rounds"],
        "flooding.completed_ratio": _ratio(counters["flooding.completed"], runs),
        "service.checkpoint_write_s": total("service.checkpoint_write"),
        "service.checkpoints": tracer.calls("service.checkpoint_write"),
        "service.checkpoint_mb": counters["service.checkpoint_bytes"] / 2**20,
        "service.checkpoint_load_s": total("service.checkpoint_load"),
        "service.rebuild_network_s": total("service.rebuild_network"),
        "sweep.cell_s": total("sweep.cell"),
        "sweep.cells_executed": tracer.calls("sweep.cell"),
        "sweep.store_put_s": total("sweep.store_put"),
        "sweep.store_puts": tracer.calls("sweep.store_put"),
        "sweep.store_get_s": total("sweep.store_get"),
        "sweep.store_gets": gets,
        "sweep.store_hit_ratio": _ratio(counters["sweep.store_hits"], gets),
        "sweep.claim_s": total("sweep.claim"),
        "sweep.claims": tracer.calls("sweep.claim"),
        "sweep.collect_s": total("sweep.collect"),
        "sweep.warm_rerun_s": float(facts.get("warm_rerun_s", 0.0)),
        "sweep.warm_cells_executed": float(facts.get("warm_cells_executed", 0)),
        "p2p.tick_s": total("p2p.tick"),
        "p2p.ticks": tracer.calls("p2p.tick"),
        "p2p.churn_events": tracer.gauge_total("p2p.churn_events"),
        "p2p.dials_ok": dials_ok,
        "p2p.dials_failed": dials_failed,
        "p2p.dial_success_ratio": _ratio(dials_ok, dials_ok + dials_failed),
    }
    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.coverage"] = _ratio(sum(self_times.values()), wall_s)
    metrics["trace.spans"] = len(tracer.names)
    return {name: float(value) for name, value in metrics.items()}
