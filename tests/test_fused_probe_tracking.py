"""Mutation tracking across fused streaming windows.

A fused window (``advance_to_time_batched`` / ``fast_rounds``) rewrites
the whole slot matrix at once, yet the incremental expansion plane
(:class:`~repro.analysis.incremental.ProbeCache`) needs the ids whose
incident topology it changed.  The array kernel reports the window's net
change; these tests pin that set between the exact edge diff of the
before/after views and the per-event dict kernel's touched set, and
check that incremental probes stay bit-identical to cold ones — with
real replay — when windows advance through the fused path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.expansion import adversarial_expansion_upper_bound
from repro.analysis.incremental import ProbeCache
from repro.models.streaming import SDG, SDGR

PORTFOLIO = {"num_random_sets": 6, "greedy_restarts": 2, "max_size": 12}


def assert_probe_equal(a, b):
    assert a.min_ratio == b.min_ratio
    assert a.witness == b.witness
    assert a.witness_size == b.witness_size
    assert a.candidates_checked == b.candidates_checked


def edge_set(net) -> set[tuple[int, int]]:
    snap = net.snapshot()
    return {
        (u, v) for u in snap.nodes for v in snap.adjacency[u] if u < v
    }


def net_diff(before_nodes, before_edges, after_nodes, after_edges) -> set[int]:
    """Nodes that appeared or vanished, plus endpoints of changed edges."""
    changed = set(before_nodes ^ after_nodes)
    for u, v in before_edges ^ after_edges:
        changed.update((u, v))
    return changed


class TestFusedWindowTouchedSet:
    @pytest.mark.parametrize("factory", [SDG, SDGR], ids=["SDG", "SDGR"])
    @pytest.mark.parametrize("rounds", [3, 70])
    def test_touched_is_net_diff_within_reference(self, factory, rounds):
        n, d, seed = 40, 3, 17
        touched = {}
        for backend in ("array", "dict"):
            net = factory(n, d, seed=seed, backend=backend)
            net.advance_to_time_batched(net.now + 2 * n)
            net.state.track_mutations()
            net.state.drain_touched()
            before_nodes = set(net.snapshot().nodes)
            before_edges = edge_set(net)
            net.advance_to_time_batched(net.now + rounds)
            touched[backend] = net.state.drain_touched()
            diff = net_diff(
                before_nodes,
                before_edges,
                set(net.snapshot().nodes),
                edge_set(net),
            )
            assert diff <= touched[backend]
        assert touched["array"] <= touched["dict"]
        if rounds < n:
            # A short window touches a neighbourhood, not the universe.
            assert len(touched["array"]) < n + rounds


class TestProbeCacheOverFusedWindows:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        regenerate=st.booleans(),
        windows=st.integers(1, 3),
        rounds_between=st.integers(1, 6),
    )
    def test_incremental_bit_identical_after_fused_windows(
        self, seed, regenerate, windows, rounds_between
    ):
        factory = SDGR if regenerate else SDG
        probes = []
        for backend in ("dict", "array"):
            net = factory(120, 3, seed=seed, backend=backend)
            net.advance_to_time_batched(net.now + 120)
            cache = ProbeCache(net.state, **PORTFOLIO)
            for window in range(windows + 1):
                incremental = cache.probe(net.state.csr_view(net.now), seed=seed)
                cold = adversarial_expansion_upper_bound(
                    net.state.csr_view(net.now), seed=seed, **PORTFOLIO
                )
                assert_probe_equal(incremental, cold)
                stats = cache.last_stats
                assert stats["replayed"] + stats["recomputed"] == stats["alive"]
                if backend == "array" and window > 0 and rounds_between <= 2:
                    assert stats["replayed"] > 0
                net.advance_to_time_batched(net.now + rounds_between)
            probes.append(incremental)
        assert_probe_equal(*probes)  # fused windows agree across backends
