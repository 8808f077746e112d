"""Flooding processes over dynamic graphs.

Three faithful implementations of the paper's three flooding definitions,
plus push/pull gossip and lossy flooding extensions:

* :func:`flood_discrete` — Definition 3.3, the synchronous process used for
  the streaming models: ``I_t = (I_{t−1} ∪ ∂out(I_{t−1})) ∩ N_t``.
* :func:`flood_discretized` — Definition 4.3 for the Poisson models: a node
  is newly informed only if it was the neighbour of an informed node *for a
  whole unit interval* (both endpoints must survive the interval).  This is
  the worst-case process the paper's upper bounds analyse.
* :func:`flood_asynchronous` — Definition 4.2 for the Poisson models:
  messages traverse an edge in exactly one time unit, interleaved with
  churn events on the event engine.
* :func:`gossip_push_pull` — extension (DESIGN.md §5): one random neighbour
  contacted per round instead of all neighbours.
* :func:`flood_lossy` — flooding where each transmission fails
  independently.

The four round-based processes share one round loop,
:func:`repro.flooding.frontier.run_rounds`, and differ only in their
proposal and update rule.  All five are registered by name in
:mod:`repro.flooding.protocols` (``discrete``, ``discretized``,
``asynchronous``, ``gossip``, ``lossy``); the scenario layer selects them
through :func:`get_protocol`.
"""

from repro.flooding.asynchronous import flood_asynchronous
from repro.flooding.discrete import flood_discrete
from repro.flooding.discretized import flood_discretized
from repro.flooding.gossip import gossip_push_pull
from repro.flooding.lossy import flood_lossy
from repro.flooding.protocols import (
    Protocol,
    get_protocol,
    protocol_names,
    register_protocol,
)
from repro.flooding.result import FloodingResult

__all__ = [
    "FloodingResult",
    "Protocol",
    "flood_asynchronous",
    "flood_discrete",
    "flood_discretized",
    "flood_lossy",
    "get_protocol",
    "gossip_push_pull",
    "protocol_names",
    "register_protocol",
]
