"""Registry of information-spreading protocols.

Every spreading process in the library is registered here under a short
name, so the scenario layer (:mod:`repro.scenario`), the CLI and the
smoke matrix can select a protocol declaratively:

=================  ===========================================  ==========
name               process                                      reference
=================  ===========================================  ==========
``discrete``       synchronous flooding                         Def. 3.3
``discretized``    unit-interval flooding (Poisson models)      Def. 4.3
``asynchronous``   continuous-time flooding (Poisson models)    Def. 4.2
``gossip``         push/pull rumour spreading                   DESIGN §5
``lossy``          flooding with per-message loss               extension
=================  ===========================================  ==========

An entry is a name, a one-line description and ``run``, the process
function itself: ``get_protocol(name).run(network, **params)`` is a
direct call with identical defaults, so a registry-driven run is
bit-identical to calling the function.  :meth:`Protocol.check_params`
rejects keys the function does not take, which the scenario layer calls
when a spec is built and when a flood is started.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.flooding.asynchronous import flood_asynchronous
from repro.flooding.discrete import flood_discrete
from repro.flooding.discretized import flood_discretized
from repro.flooding.gossip import gossip_push_pull
from repro.flooding.lossy import flood_lossy
from repro.flooding.result import FloodingResult


class Protocol:
    """One registered spreading protocol.

    Attributes:
        name: registry key (also the JSON scenario spelling).
        description: one-line summary for listings.
        run: the process function, called as ``run(network, **params)``.
    """

    name: str = ""
    description: str = ""
    run: Callable[..., FloodingResult]

    def check_params(self, params: Mapping[str, Any]) -> None:
        """Reject parameter keys ``run`` does not take (the first
        parameter, the network, is not a key)."""
        parameters = list(inspect.signature(self.run).parameters.values())[1:]
        if any(p.kind is p.VAR_KEYWORD for p in parameters):
            return
        known = sorted(
            p.name
            for p in parameters
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        )
        unknown = sorted(set(params) - set(known))
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) {unknown} for protocol {self.name!r}; "
                f"known: {known}"
            )


_REGISTRY: dict[str, Protocol] = {}


def register_protocol(protocol_cls: type[Protocol]) -> type[Protocol]:
    """Class decorator adding a protocol to the registry."""
    protocol = protocol_cls()
    if not protocol.name:
        raise ConfigurationError("protocol must define a name")
    if protocol.name in _REGISTRY:
        raise ConfigurationError(f"duplicate protocol name {protocol.name!r}")
    _REGISTRY[protocol.name] = protocol
    return protocol_cls


def get_protocol(name: str) -> Protocol:
    """Look up a protocol by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown flooding protocol {name!r}; known: {known}"
        ) from None


def protocol_names() -> list[str]:
    """All registered protocol names, sorted."""
    return sorted(_REGISTRY)


def all_protocols() -> list[Protocol]:
    """All registered protocols, sorted by name."""
    return [_REGISTRY[name] for name in protocol_names()]


# One class per entry: each carries its own ``run`` attribute, so a caller
# can wrap one protocol's run on its class without touching the others.


@register_protocol
class DiscreteFlooding(Protocol):
    name = "discrete"
    description = "synchronous flooding (Definition 3.3)"
    run = staticmethod(flood_discrete)


@register_protocol
class DiscretizedFlooding(Protocol):
    name = "discretized"
    description = "unit-interval flooding (Definition 4.3)"
    run = staticmethod(flood_discretized)


@register_protocol
class AsynchronousFlooding(Protocol):
    name = "asynchronous"
    description = "continuous-time flooding (Definition 4.2)"
    run = staticmethod(flood_asynchronous)


@register_protocol
class GossipPushPull(Protocol):
    name = "gossip"
    description = "push/pull gossip (O(1) messages per node per round)"
    run = staticmethod(gossip_push_pull)


@register_protocol
class LossyFlooding(Protocol):
    name = "lossy"
    description = "flooding with per-message loss"
    run = staticmethod(flood_lossy)
