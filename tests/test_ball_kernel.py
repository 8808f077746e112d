"""The CSR ball kernel: BFS balls grown as sparse ball-matrix products.

Each radius step computes ``B_{r+1} = B_r @ (A + I)`` for a chunk of
sources.  These tests hold the kernel to the Snapshot reference path
when the sources span many chunks and balls grow through several radii,
and on a dense pair joined by more two-paths than a byte can count — the
case where a path-counting dtype would wrap to zero and scipy's product
would drop the entry, losing a ball member.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.analysis.expansion as expansion
from repro.analysis.expansion import _CSRProbe, adversarial_expansion_upper_bound
from repro.core.csr import csr_view_from_snapshot
from repro.models import SDG
from tests.conftest import cycle_snapshot, path_snapshot, snapshot_from_edges


def assert_probe_equal(a, b):
    assert a.min_ratio == b.min_ratio
    assert a.witness_size == b.witness_size
    assert a.witness == b.witness
    assert a.candidates_checked == b.candidates_checked


def recorded_balls(view, max_size):
    """The kernel's raw stream: (root, radius) -> |B_r|, and kept radii."""
    probe = _CSRProbe(view, 1, max_size)
    probe.ball_phase()
    roots, radius, size, _, _ = probe.recorder.entries()
    sizes = dict(zip(zip(roots.tolist(), radius.tolist()), size.tolist()))
    return sizes, probe.recorder.roots()[1]


def sdg_snapshot():
    net = SDG(n=150, d=2, seed=5, backend="array")
    net.run_rounds(150)
    return net.snapshot()


class TestChunkedDeepBalls:
    @pytest.mark.parametrize(
        "graph,max_size",
        [
            (lambda: cycle_snapshot(41), 20),
            (lambda: path_snapshot(37), 18),
            (sdg_snapshot, 40),
        ],
        ids=["cycle", "path", "SDG"],
    )
    # Budgets far below one ball's width: a root or a few per chunk.
    @pytest.mark.parametrize("budget", [1, 200])
    def test_many_chunks_match_snapshot_path(
        self, monkeypatch, graph, max_size, budget
    ):
        snap = graph()
        view = csr_view_from_snapshot(snap)
        monkeypatch.setattr(expansion, "_BALL_NNZ", budget)
        _, kept = recorded_balls(view, max_size)
        assert kept.max() >= 3
        for num_random_sets, greedy_restarts in [(0, 0), (8, 2)]:
            reference = adversarial_expansion_upper_bound(
                snap,
                seed=3,
                num_random_sets=num_random_sets,
                greedy_restarts=greedy_restarts,
                max_size=max_size,
            )
            fast = adversarial_expansion_upper_bound(
                view,
                seed=3,
                num_random_sets=num_random_sets,
                greedy_restarts=greedy_restarts,
                max_size=max_size,
            )
            assert_probe_equal(fast, reference)

    def test_chunking_does_not_change_the_stream(self, monkeypatch):
        view = csr_view_from_snapshot(sdg_snapshot())
        whole = recorded_balls(view, 40)
        monkeypatch.setattr(expansion, "_BALL_NNZ", 1)
        one_root_per_chunk = recorded_balls(view, 40)
        assert whole[0] == one_root_per_chunk[0]
        assert np.array_equal(whole[1], one_root_per_chunk[1])


class TestManyTwoPaths:
    def test_pair_joined_by_256_two_paths_stays_in_the_ball(self):
        # Hubs 0 and 1 share 256 middle neighbours and are not adjacent:
        # the (0, 1) entry of B_1 @ (A + I) sums 256 paths, which wraps to
        # 0 in an 8-bit count.  Isolated padding puts the hubs' 2-ball
        # (258 nodes) inside the default n // 2 window.
        middles = range(2, 258)
        edges = [(hub, m) for hub in (0, 1) for m in middles]
        snap = snapshot_from_edges(518, edges)
        view = csr_view_from_snapshot(snap)
        sizes, _ = recorded_balls(view, view.n // 2)
        assert sizes[(0, 1)] == 257
        assert sizes[(0, 2)] == 258
        assert sizes[(2, 1)] == 3
        reference = adversarial_expansion_upper_bound(
            snap, seed=0, num_random_sets=4, greedy_restarts=2
        )
        fast = adversarial_expansion_upper_bound(
            view, seed=0, num_random_sets=4, greedy_restarts=2
        )
        assert_probe_equal(fast, reference)
