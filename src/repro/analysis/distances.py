"""Distance structure: diameters and typical path lengths.

Flooding time on a (temporarily) static topology is exactly the source's
eccentricity, so diameters connect the expansion results to the flooding
results; the central-cache baseline [23] explicitly claims an O(log n)
diameter, which EXP-13/EXP-16 verify with these helpers.

Every helper accepts a :class:`~repro.core.snapshot.Snapshot` (readable
dict reference) or a :class:`~repro.core.csr.CSRView` (vectorized
mask-frontier BFS, zero-copy on the array backend) and returns identical
results on either: sources, giant-component selection, random draws, and
the double-sweep far-node choice all follow the same canonical ascending
node-id order, so even tie-bound quantities agree bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Union

import numpy as np

from repro.analysis.components import component_labels
from repro.core.csr import CSRView, sorted_unique
from repro.core.snapshot import Snapshot
from repro.errors import AnalysisError
from repro.util.rng import SeedLike, make_rng

GraphLike = Union[Snapshot, CSRView]


# ----------------------------------------------------------------------
# vectorized single-source BFS (CSR path)
# ----------------------------------------------------------------------


def _bfs_levels_csr(view: CSRView, source_vert: int) -> np.ndarray:
    """Hop distance from *source_vert* over the vert space (−1 unreached)."""
    dist = np.full(view.space, -1, dtype=np.int64)
    dist[source_vert] = 0
    frontier = np.asarray([source_vert], dtype=np.int64)
    level = 0
    while frontier.size:
        flat, _ = view.gather_neighbors(frontier)
        if flat.size == 0:
            break
        flat = sorted_unique(flat)
        flat = flat[dist[flat] < 0]
        dist[flat] = level + 1
        frontier = flat
        level += 1
    return dist


def bfs_distances(graph: GraphLike, source: int) -> dict[int, int]:
    """Hop distances from *source* to every reachable node."""
    if isinstance(graph, CSRView):
        try:
            source_vert = graph.vert_of(source)
        except KeyError:
            raise AnalysisError(f"source {source} not in snapshot") from None
        dist = _bfs_levels_csr(graph, source_vert)
        reached = np.nonzero(dist >= 0)[0]
        return dict(
            zip(
                graph.vert_ids[reached].tolist(),
                dist[reached].tolist(),
            )
        )
    snapshot = graph
    if source not in snapshot.nodes:
        raise AnalysisError(f"source {source} not in snapshot")
    distances = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in snapshot.adjacency[u]:
            if v not in distances:
                distances[v] = distances[u] + 1
                queue.append(v)
    return distances


def eccentricity(graph: GraphLike, source: int) -> int:
    """Largest hop distance from *source* within its component."""
    if isinstance(graph, CSRView):
        try:
            source_vert = graph.vert_of(source)
        except KeyError:
            raise AnalysisError(f"source {source} not in snapshot") from None
        dist = _bfs_levels_csr(graph, source_vert)
        return int(dist.max())
    return max(bfs_distances(graph, source).values())


# ----------------------------------------------------------------------
# giant-component selection (canonical across paths)
# ----------------------------------------------------------------------


def _giant_ids(graph: GraphLike) -> list[int]:
    """Node ids of the giant component, ascending.

    Among components of maximal size the one containing the smallest node
    id wins — the same deterministic rule on both paths, so tie-bound
    downstream quantities (diameter restarts, path samples) agree.
    """
    if isinstance(graph, CSRView):
        if graph.n == 0:
            return []
        labels = component_labels(graph)[graph.alive_verts]
        uniq, inverse, counts = np.unique(
            labels, return_inverse=True, return_counts=True
        )
        winners = np.nonzero(counts == counts.max())[0]
        # graph.ids is ascending, so the first alive vert of a label is
        # its smallest member id; the first winning label encountered
        # along ids order is the one containing the overall smallest id.
        first_member = np.full(uniq.size, graph.n, dtype=np.int64)
        np.minimum.at(first_member, inverse, np.arange(graph.n))
        giant_label = winners[np.argmin(first_member[winners])]
        return graph.ids[inverse == giant_label].tolist()
    components = graph.connected_components()
    if not components:
        return []
    top = max(len(c) for c in components)
    giant = min(
        (c for c in components if len(c) == top), key=min
    )
    return sorted(giant)


def giant_component_diameter(
    graph: GraphLike, exact_limit: int = 600, seed: SeedLike = None
) -> int:
    """Diameter of the largest component.

    Exact (all-pairs via per-node BFS) for components up to *exact_limit*
    nodes; beyond that, a standard double-sweep lower bound refined from
    32 random restarts (tight in practice on expanders).
    """
    giant = _giant_ids(graph)
    if not giant:
        raise AnalysisError("empty snapshot has no diameter")
    if len(giant) == 1:
        return 0
    is_view = isinstance(graph, CSRView)
    if len(giant) <= exact_limit:
        if is_view:
            return max(
                int(_bfs_levels_csr(graph, graph.vert_of(u)).max())
                for u in giant
            )
        return max(_component_eccentricity(graph, u, giant) for u in giant)
    rng = make_rng(seed)
    best = 0
    for _ in range(32):
        start = giant[int(rng.integers(0, len(giant)))]
        far_node, far_distance = _farthest(graph, start)
        best = max(best, far_distance)
        best = max(best, _farthest(graph, far_node)[1])
    return best


def _farthest(graph: GraphLike, source: int) -> tuple[int, int]:
    """The farthest node from *source* (smallest id on ties) and its
    distance — the double-sweep pivot, canonical on both paths."""
    if isinstance(graph, CSRView):
        dist = _bfs_levels_csr(graph, graph.vert_of(source))
        far = int(dist.max())
        at_max = np.nonzero(dist == far)[0]
        return int(graph.vert_ids[at_max].min()), far
    distances = bfs_distances(graph, source)
    far = max(distances.values())
    return min(u for u, d in distances.items() if d == far), far


def average_shortest_path_sample(
    graph: GraphLike, num_sources: int = 16, seed: SeedLike = None
) -> float:
    """Mean hop distance over sampled sources (giant component only)."""
    giant = _giant_ids(graph)
    if len(giant) < 2:
        raise AnalysisError("need a component with at least 2 nodes")
    rng = make_rng(seed)
    picks = rng.choice(len(giant), size=min(num_sources, len(giant)), replace=False)
    is_view = isinstance(graph, CSRView)
    total = 0.0
    count = 0
    for index in picks:
        source = giant[int(index)]
        if is_view:
            dist = _bfs_levels_csr(graph, graph.vert_of(source))
            total += int(dist[dist > 0].sum())
            count += int((dist >= 0).sum()) - 1
        else:
            distances = bfs_distances(graph, source)
            total += sum(d for d in distances.values() if d > 0)
            count += len(distances) - 1
    if count == 0:
        raise AnalysisError("no pairs sampled")
    return total / count


def _component_eccentricity(
    snapshot: Snapshot, source: int, component: Iterable[int]
) -> int:
    distances = bfs_distances(snapshot, source)
    return max(distances[v] for v in component)
