"""Discretized continuous flooding — Definition 4.3.

The worst-case flooding process the paper uses to upper-bound flooding time
in the Poisson models: informed nodes transmit only at integer times, and a
transmission along edge ``{u, v}`` succeeds only if the edge existed *for
the whole unit interval*.

Because edges in the Poisson models are rewired only when an endpoint dies
(regeneration) or never (no regeneration), an edge present at the start of
an interval persists through the whole interval **iff both endpoints are
alive at the end**.  This gives the exact update rule

``I_t = (I_{t−1} ∩ N_t) ∪ {v ∈ N_t : ∃u ∈ I_{t−1} ∩ N_t, {u,v} ∈ E_{t−1}}``,

implemented by :class:`~repro.flooding.frontier.IntervalFrontier` and
driven by the shared round loop :func:`~repro.flooding.frontier.run_rounds`.
"""

from __future__ import annotations

from typing import Iterable

from repro.flooding.frontier import IntervalFrontier, resolve_sources, run_rounds
from repro.flooding.result import FloodingResult
from repro.models.base import DynamicNetwork


def flood_discretized(
    network: DynamicNetwork,
    source: int | None = None,
    max_rounds: int = 10_000,
    stop_when_extinct: bool = True,
    sources: Iterable[int] | None = None,
) -> FloodingResult:
    """Run Definition 4.3 flooding on a (Poisson) dynamic network.

    Args:
        network: the dynamic network driver (typically PDG/PDGR), warm.
        source: initially informed node; defaults to the youngest alive.
        max_rounds: hard cap on the number of unit intervals simulated.
        stop_when_extinct: stop once no informed node is alive.
        sources: start from several informed nodes at once (overrides
            *source*).
    """
    source, initial = resolve_sources(network, source, sources)
    frontier = IntervalFrontier(network.state, initial)
    return run_rounds(
        network, frontier, frontier.neighborhoods, source, max_rounds,
        stop_when_extinct,
    )
