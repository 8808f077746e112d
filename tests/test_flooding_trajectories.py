"""Pinned seeded trajectories of the round-based spreading processes.

Literal expected values for ``flood_discrete``, ``flood_discretized``,
``gossip_push_pull`` and ``flood_lossy`` on both backends (plus the
vectorized gossip/lossy proposals on the array backend).  Any change to
a process's round loop, source handling, completion or extinction test
that alters a seeded run fails here by name.

Each expected record is ``(informed_sizes, network_sizes,
completion_round, extinct, extinction_round)``.  Set-path gossip and
lossy runs draw contacts in neighbour order, which differs between the
backends, so their values are pinned per backend.
"""

from __future__ import annotations

import pytest

from repro.flooding import (
    flood_discrete,
    flood_discretized,
    flood_lossy,
    gossip_push_pull,
)
from repro.models import PDG, PDGR, SDG, SDGR


def _every_13th_alive(net):
    return sorted(net.state.alive_ids())[::13]


def _single_node(backend):
    net = SDGR(n=2, d=1, seed=9, warm=False, backend=backend)
    net.advance_round()
    return flood_discrete(net)


def _multi_source_discrete(backend):
    net = SDGR(n=40, d=4, seed=12, backend=backend)
    return flood_discrete(net, sources=_every_13th_alive(net))


def _multi_source_discretized(backend):
    net = PDGR(n=40, d=8, seed=14, backend=backend)
    return flood_discretized(net, sources=_every_13th_alive(net))


#: case → run(backend) -> FloodingResult
CASES = {
    "discrete": lambda b: flood_discrete(SDGR(n=40, d=4, seed=11, backend=b)),
    "discrete-sources": _multi_source_discrete,
    "discrete-dies-keep-going": lambda b: flood_discrete(
        SDG(n=20, d=1, seed=0, backend=b), source=2, max_rounds=8,
        stop_when_extinct=False,
    ),
    "discrete-single-node": _single_node,
    "discretized": lambda b: flood_discretized(PDGR(n=40, d=8, seed=13, backend=b)),
    "discretized-sources": _multi_source_discretized,
    "discretized-dies-keep-going": lambda b: flood_discretized(
        PDG(n=30, d=1, seed=20, backend=b), max_rounds=12, stop_when_extinct=False
    ),
    "gossip": lambda b: gossip_push_pull(SDGR(n=40, d=4, seed=15, backend=b), seed=3),
    "gossip-push": lambda b: gossip_push_pull(
        SDGR(n=40, d=4, seed=16, backend=b), seed=4, pull=False
    ),
    "gossip-dies": lambda b: gossip_push_pull(
        SDG(n=30, d=1, seed=4, backend=b), seed=4, pull=False, max_rounds=40
    ),
    "lossy": lambda b: flood_lossy(SDGR(n=40, d=4, seed=17, backend=b), loss=0.3, seed=5),
    "lossy-dies-dict": lambda b: flood_lossy(
        SDG(n=30, d=1, seed=2, backend=b), loss=0.5, seed=2, max_rounds=40
    ),
    "lossy-dies-array": lambda b: flood_lossy(
        SDG(n=30, d=1, seed=4, backend=b), loss=0.5, seed=4, max_rounds=40
    ),
    "gossip-vectorized": lambda b: gossip_push_pull(
        SDGR(n=40, d=4, seed=15, backend=b), seed=3, vectorized=True
    ),
    "lossy-vectorized": lambda b: flood_lossy(
        SDGR(n=40, d=4, seed=17, backend=b), loss=0.3, seed=5, vectorized=True
    ),
}

_FULL_40 = [40] * 40
_FULL_30 = [30] * 31

#: Expected values shared by both backends (no neighbour-order draws).
BOTH = {
    "discrete": ([1, 5, 25, 39], _FULL_40[:4], 3, False, None),
    "discrete-sources": ([4, 29, 39], _FULL_40[:3], 2, False, None),
    "discrete-dies-keep-going": (
        [1, 1, 1, 0, 0, 0, 0, 0, 0], [20] * 9, None, True, 8,
    ),
    "discrete-single-node": ([1], [1], 0, False, None),
    "discretized": ([1, 8, 35, 38], [40, 39, 40, 38], 3, False, None),
    "discretized-sources": ([3, 29, 39], [39, 40, 39], 2, False, None),
    "discretized-dies-keep-going": (
        [1, 2, 4, 3, 2, 2, 2, 1, 0, 0, 0, 0, 0],
        [33, 34, 36, 35, 33, 34, 31, 26, 25, 25, 26, 27, 26],
        None, True, 12,
    ),
    "gossip-dies": (
        [1] + [2] * 13 + [1] * 16 + [0], _FULL_30, None, True, 30,
    ),
}

EXPECTED = {
    "dict": {
        **BOTH,
        "gossip": ([1, 3, 7, 10, 21, 34, 39], _FULL_40[:7], 6, False, None),
        "gossip-push": (
            [1, 2, 4, 5, 9, 12, 17, 25, 29, 34, 37, 37, 36, 36, 38, 39],
            _FULL_40[:16], 15, False, None,
        ),
        "lossy": ([1, 4, 17, 34, 39], _FULL_40[:5], 4, False, None),
        "lossy-dies-dict": (
            [1, 1, 1, 2, 4, 4, 4, 3, 3, 3] + [2] * 10 + [1] * 10 + [0],
            _FULL_30, None, True, 30,
        ),
    },
    "array": {
        **BOTH,
        "gossip": ([1, 3, 6, 12, 21, 31, 37, 39], _FULL_40[:8], 7, False, None),
        "gossip-push": (
            [1, 2, 3, 4, 7, 13, 20, 26, 30, 32, 35, 37] + [38] * 11
            + [37, 36, 36, 37, 36, 37, 38, 37, 37, 38, 38, 37, 39],
            _FULL_40[:36], 35, False, None,
        ),
        "lossy": ([1, 3, 14, 32, 39], _FULL_40[:5], 4, False, None),
        "lossy-dies-array": (
            [1, 2, 3, 4, 5, 6, 6, 5, 4, 4, 4, 3, 2, 2] + [1] * 16 + [0],
            _FULL_30, None, True, 30,
        ),
        "gossip-vectorized": ([1, 3, 6, 14, 24, 33, 39], _FULL_40[:7], 6, False, None),
        "lossy-vectorized": ([1, 3, 15, 34, 39], _FULL_40[:5], 4, False, None),
    },
}

PARAMS = [
    (case, backend) for backend in ("dict", "array") for case in sorted(EXPECTED[backend])
]


@pytest.mark.parametrize(("case", "backend"), PARAMS)
def test_seeded_trajectory_is_pinned(case, backend):
    result = CASES[case](backend)
    got = (
        result.informed_sizes,
        result.network_sizes,
        result.completion_round,
        result.extinct,
        result.extinction_round,
    )
    assert got == EXPECTED[backend][case]
    assert result.completed == (result.completion_round is not None)
