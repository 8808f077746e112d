"""Vertex-expansion measurement (Definition 3.1).

Computing ``h_out(G) = min_{0<|S|≤n/2} |∂out(S)|/|S|`` exactly is NP-hard,
so the module offers three tools:

* :func:`vertex_expansion_exact` — exhaustive enumeration, for ``n ≤ 22``
  (used in tests and the small-n certification of EXP-03);
* :func:`adversarial_expansion_upper_bound` — a *certified upper bound* on
  ``h_out`` from a portfolio of adversarial candidate sets: singletons,
  BFS balls from every node, greedy boundary-minimising local search, and
  random sets.  If even this adversarial bound exceeds the paper's 0.1
  threshold, the graph passes the expander check far more stringently than
  random probing alone;
* :func:`large_set_expansion_probe` — the same portfolio restricted to the
  size window of the large-set lemmas (3.6 and 4.11), including the
  age-extreme sets (oldest-k, youngest-k) that are the natural worst cases
  in models without regeneration.

Both probes run on either graph representation: a frozen dict
:class:`~repro.core.snapshot.Snapshot` (the readable reference path) or a
:class:`~repro.core.csr.CSRView` (the vectorized analysis plane — BFS
balls grown chunk-wise as sparse products with the closed adjacency
``A + I``, gather/`np.bincount` boundary counts, a vectorized greedy
sweep, and batched random-set ratios).  The two paths evaluate the
*identical* candidate portfolio — candidates are ordered canonically
(ascending node id), ties break on
``(ratio, |S|, sorted ids)``, duplicates are removed with the shared
:func:`~repro.core.csr.candidate_key` hashing, and both consume the RNG
identically — so probe minima, witnesses, and ``candidates_checked`` are
equal on both paths and both topology backends (the parity suite in
``tests/test_analysis_csr.py`` asserts this).

All candidates are genuine subsets, so every reported ratio is an exact
expansion of a real set: the minimum over candidates is always a valid
upper bound on ``h_out``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable, Union

import numpy as np
import scipy.sparse as sp

from repro.core.csr import CSRView, candidate_key, candidate_key_array, mix64
from repro.core.snapshot import Snapshot
from repro.errors import AnalysisError
from repro.util.rng import SeedLike, make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.models.base import DynamicNetwork

#: Hard cap for exhaustive enumeration (sum of binomials stays ~ 3M).
EXACT_ENUMERATION_LIMIT = 22

#: Either graph representation accepted by the probes.
GraphLike = Union[Snapshot, CSRView]

#: Stored-entry budget of a ball chunk's widest sparse product (~128 MiB
#: at ~24 bytes per entry across the product, its kept-row slice and the
#: mix gather): sources per chunk shrink as the balls can widen.
_BALL_NNZ = (128 << 20) // 24


@dataclass(frozen=True)
class ExpansionProbe:
    """Outcome of an expansion search.

    Attributes:
        min_ratio: smallest ``|∂out(S)|/|S|`` found (an upper bound on the
            graph's expansion over the probed size window).
        witness_size: ``|S|`` of the minimising set.
        witness: the minimising set itself.
        candidates_checked: number of *distinct* candidate sets evaluated
            (identical candidates — BFS balls from nearby roots often
            coincide — are deduplicated before scoring and count once).
    """

    min_ratio: float
    witness_size: int
    witness: frozenset[int]
    candidates_checked: int


def expansion_of_set(graph: GraphLike, subset: Iterable[int]) -> float:
    """Exact expansion ``|∂out(S)|/|S|`` of one concrete subset."""
    if isinstance(graph, CSRView):
        verts = graph.verts_for(set(subset))
        if verts.size == 0:
            raise ValueError("expansion of the empty set is undefined")
        return graph.boundary_count(verts) / verts.size
    return graph.expansion_of(subset)


def vertex_expansion_exact(snapshot: Snapshot) -> ExpansionProbe:
    """Exhaustive ``h_out`` for small graphs (``n ≤ 22``)."""
    n = snapshot.num_nodes()
    if n < 2:
        raise AnalysisError("vertex expansion needs at least 2 nodes")
    if n > EXACT_ENUMERATION_LIMIT:
        raise AnalysisError(
            f"exact enumeration limited to n <= {EXACT_ENUMERATION_LIMIT}, got {n}"
        )
    nodes = sorted(snapshot.nodes)
    best_ratio = float("inf")
    best_set: tuple[int, ...] = ()
    checked = 0
    for size in range(1, n // 2 + 1):
        for subset in combinations(nodes, size):
            checked += 1
            ratio = len(snapshot.outer_boundary(subset)) / size
            if ratio < best_ratio:
                best_ratio = ratio
                best_set = subset
                if best_ratio == 0.0 and size == 1:
                    # Cannot do worse than an isolated node.
                    return ExpansionProbe(0.0, 1, frozenset(best_set), checked)
    return ExpansionProbe(best_ratio, len(best_set), frozenset(best_set), checked)


# ----------------------------------------------------------------------
# shared minimum tracking (canonical tie-break, shared by both paths)
# ----------------------------------------------------------------------


class _BestCandidate:
    """Tracks the minimising candidate under the canonical tie-break.

    Candidates are compared on ``(ratio, size, sorted id tuple)``, which
    makes the winner independent of evaluation order — the property that
    lets the vectorized path batch candidates in a different schedule
    than the sequential reference while producing the identical witness.
    ``members_fn`` is only invoked when a candidate actually contends,
    so batch paths never materialise losing sets.
    """

    def __init__(self) -> None:
        self.ratio = float("inf")
        self.size = 0
        self.members: tuple[int, ...] = ()

    def offer(
        self,
        ratio: float,
        size: int,
        members_fn: Callable[[], tuple[int, ...]],
    ) -> None:
        if ratio > self.ratio:
            return
        if ratio < self.ratio:
            self.ratio, self.size, self.members = ratio, size, tuple(members_fn())
            return
        if size > self.size:
            return
        members = tuple(members_fn())
        if size < self.size or members < self.members:
            self.size, self.members = size, members


class _MinTracker:
    """Scores snapshot candidates within a size window (reference path).

    Deduplicates identical candidate sets with the canonical
    :func:`~repro.core.csr.candidate_key` before scoring, so coincident
    BFS balls (or a greedy set re-finding a ball) are evaluated — and
    counted — once.
    """

    def __init__(self, snapshot: Snapshot, min_size: int, max_size: int) -> None:
        self.snapshot = snapshot
        self.min_size = min_size
        self.max_size = max_size
        self.best = _BestCandidate()
        self.seen: set[int] = set()
        self.checked = 0

    def consider(self, subset: Iterable[int]) -> None:
        candidate = set(subset)
        size = len(candidate)
        if not (self.min_size <= size <= self.max_size):
            return
        xor = 0
        for u in candidate:
            xor ^= mix64(u)
        key = candidate_key(size, xor)
        if key in self.seen:
            return
        self.seen.add(key)
        self.checked += 1
        ratio = len(self.snapshot.outer_boundary(candidate)) / size
        self.best.offer(ratio, size, lambda: tuple(sorted(candidate)))

    def result(self) -> ExpansionProbe:
        if self.checked == 0:
            raise AnalysisError("no candidate set fell inside the size window")
        return ExpansionProbe(
            min_ratio=self.best.ratio,
            witness_size=self.best.size,
            witness=frozenset(self.best.members),
            candidates_checked=self.checked,
        )


# ----------------------------------------------------------------------
# adversarial portfolio — reference (snapshot) path
# ----------------------------------------------------------------------


def adversarial_expansion_upper_bound(
    graph: GraphLike,
    seed: SeedLike = None,
    num_random_sets: int = 200,
    greedy_restarts: int = 8,
    min_size: int = 1,
    max_size: int | None = None,
) -> ExpansionProbe:
    """Adversarial upper bound on ``h_out`` over sizes in [min_size, max_size].

    Candidate portfolio (every distinct candidate within the size window
    is scored once):

    1. all singletons (equivalently the minimum degree) and each node's
       closed neighbourhood;
    2. BFS balls around every node, all radii until the ball exceeds the
       window;
    3. greedy growth: starting from the lowest-``(degree, id)`` seeds,
       repeatedly absorb the boundary vertex that minimises the resulting
       boundary — the standard local-search heuristic for sparse cuts;
    4. uniformly random sets of random sizes in the window.

    Accepts a :class:`Snapshot` (reference implementation) or a
    :class:`~repro.core.csr.CSRView` (vectorized plane) and returns
    identical results on either.
    """
    if isinstance(graph, CSRView):
        return _adversarial_probe_csr(
            graph, seed, num_random_sets, greedy_restarts, min_size, max_size
        )
    snapshot = graph
    n = snapshot.num_nodes()
    if n < 2:
        raise AnalysisError("vertex expansion needs at least 2 nodes")
    if max_size is None:
        max_size = n // 2
    max_size = min(max_size, n // 2)
    if min_size > max_size:
        raise AnalysisError(f"empty size window [{min_size}, {max_size}]")
    rng = make_rng(seed)
    nodes = sorted(snapshot.nodes)  # canonical candidate order
    tracker = _MinTracker(snapshot, min_size, max_size)

    # 1. singletons and closed neighbourhoods.
    for u in nodes:
        tracker.consider({u})
        tracker.consider({u} | set(snapshot.adjacency[u]))

    # 2. BFS balls from every node.
    for u in nodes:
        ball = {u}
        frontier = {u}
        while frontier and len(ball) < max_size:
            next_frontier: set[int] = set()
            for v in frontier:
                for w in snapshot.adjacency[v]:
                    if w not in ball:
                        next_frontier.add(w)
            if not next_frontier:
                break
            ball |= next_frontier
            frontier = next_frontier
            if len(ball) <= max_size:
                tracker.consider(ball)

    # 3. greedy boundary-minimising growth from low-degree seeds (ties on
    # node id, matching the CSR path's vectorized sweep).
    degrees = snapshot.degrees()
    seeds = sorted(nodes, key=lambda u: (degrees[u], u))[:greedy_restarts]
    for seed_node in seeds:
        _greedy_grow(snapshot, seed_node, max_size, tracker)

    # 4. random sets (index draws over the canonical node order).
    for _ in range(num_random_sets):
        size = int(rng.integers(min_size, max_size + 1))
        chosen = rng.choice(len(nodes), size=size, replace=False)
        tracker.consider({nodes[i] for i in chosen})

    return tracker.result()


def probe_network_expansion(
    network: "DynamicNetwork",
    seed: SeedLike = None,
    num_random_sets: int = 200,
    greedy_restarts: int = 8,
    min_size: int = 1,
    max_size: int | None = None,
) -> ExpansionProbe:
    """Adversarial expansion probe of a live network (CSR fast path).

    Exports the topology backend's state as a zero-copy
    :class:`~repro.core.csr.CSRView` (no dict freeze) and runs the
    vectorized portfolio on it.  Returns exactly what the snapshot-path
    probe would: the two paths share candidate order, tie-breaks, RNG
    consumption, and dedupe keys.
    """
    view = network.state.csr_view(network.now)
    return adversarial_expansion_upper_bound(
        view,
        seed=seed,
        num_random_sets=num_random_sets,
        greedy_restarts=greedy_restarts,
        min_size=min_size,
        max_size=max_size,
    )


def large_set_expansion_probe(
    graph: GraphLike,
    min_size: int,
    max_size: int | None = None,
    seed: SeedLike = None,
    num_random_sets: int = 200,
) -> ExpansionProbe:
    """Adversarial probe restricted to the large-set window of Lemmas 3.6/4.11.

    Adds the age-extreme candidates that stress models without
    regeneration: the ``k`` oldest nodes tend to have lost their out-edges,
    the ``k`` youngest have received few in-edges.  Accepts a
    :class:`Snapshot` or a :class:`~repro.core.csr.CSRView`; the paths
    return identical probes.
    """
    if isinstance(graph, CSRView):
        return _large_set_probe_csr(
            graph, min_size, max_size, seed, num_random_sets
        )
    snapshot = graph
    n = snapshot.num_nodes()
    if max_size is None:
        max_size = n // 2
    max_size = min(max_size, n // 2)
    min_size = max(1, min_size)
    if min_size > max_size:
        raise AnalysisError(f"empty size window [{min_size}, {max_size}]")
    rng = make_rng(seed)
    tracker = _MinTracker(snapshot, min_size, max_size)

    nodes = sorted(snapshot.nodes)  # canonical candidate order
    by_age = sorted(nodes, key=lambda u: (snapshot.age(u), u))
    degrees = snapshot.degrees()
    by_degree = sorted(nodes, key=lambda u: (degrees[u], u))
    sizes = _large_set_sizes(min_size, max_size)
    for size in sizes:
        tracker.consider(by_age[:size])  # youngest
        tracker.consider(by_age[-size:])  # oldest
        tracker.consider(by_degree[:size])

    for _ in range(num_random_sets):
        size = int(rng.integers(min_size, max_size + 1))
        chosen = rng.choice(len(nodes), size=size, replace=False)
        tracker.consider({nodes[i] for i in chosen})

    # Greedy growth through the window as well.
    for seed_node in by_degree[:4]:
        _greedy_grow(snapshot, seed_node, max_size, tracker)

    return tracker.result()


def _large_set_sizes(min_size: int, max_size: int) -> list[int]:
    """The probed sizes of the large-set portfolio (shared by both paths)."""
    return sorted(
        {min_size, max_size, (min_size + max_size) // 2}
        | {int(s) for s in np.linspace(min_size, max_size, num=8)}
    )


def _greedy_grow(
    snapshot: Snapshot, seed_node: int, max_size: int, tracker: _MinTracker
) -> None:
    """Grow a set by absorbing the boundary node minimising the new boundary.

    Classic sparse-cut local search: at each step, move the boundary vertex
    whose absorption shrinks (or least grows) the boundary into the set
    (ties on node id).  Scores every intermediate set against the tracker.
    """
    current = {seed_node}
    boundary = set(snapshot.adjacency[seed_node])
    tracker.consider(current)
    while len(current) < max_size and boundary:
        best_key: tuple[int, int] | None = None
        for v in boundary:
            # Absorbing v removes it from the boundary and adds its
            # outside neighbours.
            new_out = sum(
                1
                for w in snapshot.adjacency[v]
                if w not in current and w not in boundary
            )
            key = (new_out, v)
            if best_key is None or key < best_key:
                best_key = key
        assert best_key is not None
        best_vertex = best_key[1]
        current.add(best_vertex)
        boundary.discard(best_vertex)
        for w in snapshot.adjacency[best_vertex]:
            if w not in current:
                boundary.add(w)
        tracker.consider(current)


# ----------------------------------------------------------------------
# adversarial portfolio — vectorized (CSRView) path
# ----------------------------------------------------------------------


class BallRecorder:
    """Raw ball-phase candidate stream, recorded for one scoring pass.

    Attached to a :class:`_CSRProbe`, the ball kernel appends every
    ``(root id, radius, |B_r|, xor, ratio)`` ball candidate — *before*
    dedupe, because deduplication context changes between observation
    windows — plus each root's final kept-ball radius.  A cold probe
    scores the stream directly with :meth:`_CSRProbe.score_recorded`;
    the incremental plane (:mod:`repro.analysis.incremental`) caches it
    per root, replays the entries of balls churn did not reach, and
    scores the merged stream the same way, reproducing the cold probe
    bit for bit.
    """

    def __init__(self) -> None:
        self._roots: list[np.ndarray] = []
        self._radii: list[np.ndarray] = []
        self._e_root: list[np.ndarray] = []
        self._e_radius: list[np.ndarray] = []
        self._e_size: list[np.ndarray] = []
        self._e_xor: list[np.ndarray] = []
        self._e_ratio: list[np.ndarray] = []

    def add_entries(
        self,
        roots: np.ndarray,
        radii: np.ndarray,
        sizes: np.ndarray,
        xors: np.ndarray,
        ratios: np.ndarray,
    ) -> None:
        """Record one radius step's pending candidates (pre-dedupe)."""
        self._e_root.append(np.asarray(roots, dtype=np.int64))
        self._e_radius.append(np.asarray(radii, dtype=np.int64))
        self._e_size.append(np.asarray(sizes, dtype=np.int64))
        self._e_xor.append(np.asarray(xors, dtype=np.uint64))
        self._e_ratio.append(np.asarray(ratios, dtype=np.float64))

    def add_roots(self, roots: np.ndarray, kept_radii: np.ndarray) -> None:
        """Record a chunk's roots with their final kept-ball radii."""
        self._roots.append(np.asarray(roots, dtype=np.int64))
        self._radii.append(np.asarray(kept_radii, dtype=np.int64))

    @staticmethod
    def _concat(parts: list[np.ndarray], dtype: type) -> np.ndarray:
        if not parts:
            return np.empty(0, dtype=dtype)
        return np.concatenate(parts)

    def roots(self) -> tuple[np.ndarray, np.ndarray]:
        """``(root ids, final kept radii)`` across all recorded chunks."""
        return (
            self._concat(self._roots, np.int64),
            self._concat(self._radii, np.int64),
        )

    def entries(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(root, radius, size, xor, ratio)`` entry arrays, concatenated."""
        return (
            self._concat(self._e_root, np.int64),
            self._concat(self._e_radius, np.int64),
            self._concat(self._e_size, np.int64),
            self._concat(self._e_xor, np.uint64),
            self._concat(self._e_ratio, np.float64),
        )


def _closed_adjacency(view: CSRView) -> sp.csr_matrix:
    """``S = A + I`` over the view's vert space, as a bool CSR matrix.

    Bool data is load-bearing: scipy's sparse product drops entries whose
    sum is 0, so an integer path-count dtype could wrap to 0 and silently
    lose a ball member; bool sums (logical or) never vanish.
    """
    space = view.space
    entries = int(view.indptr[-1]) + space
    index_dtype = np.int32 if entries <= np.iinfo(np.int32).max else np.int64
    indptr = (view.indptr + np.arange(space + 1)).astype(index_dtype)
    diagonal = indptr[:-1]
    indices = np.empty(entries, dtype=index_dtype)
    off_diagonal = np.ones(indices.size, dtype=bool)
    off_diagonal[diagonal] = False
    indices[diagonal] = np.arange(space)
    indices[off_diagonal] = view.indices
    data = np.ones(indices.size, dtype=bool)
    return sp.csr_matrix((data, indices, indptr), shape=(space, space))


class _CSRProbe:
    """One probe run on a :class:`CSRView`: phases + shared dedupe/minimum.

    Mirrors :class:`_MinTracker` exactly — same candidate keys, same
    window, same tie-break — with candidates arriving from vectorized
    sweeps instead of per-set Python evaluation.
    """

    def __init__(
        self,
        view: CSRView,
        min_size: int,
        max_size: int,
        recorder: BallRecorder | None = None,
    ) -> None:
        self.view = view
        self.min_size = min_size
        self.max_size = max_size
        self.best = _BestCandidate()
        self.seen: set[int] = set()
        self.checked = 0
        # The ball kernel records its candidate stream here;
        # score_recorded() scores it and registers the deduplicated keys
        # so the greedy/random phases skip (and count) exactly what the
        # Snapshot path's single pass would.
        self.recorder = BallRecorder() if recorder is None else recorder
        self._ball_keys: np.ndarray | None = None

    def _register(self, key: int) -> bool:
        """Dedupe one candidate key; True when it is fresh (and counted)."""
        if key in self.seen:
            return False
        keys = self._ball_keys
        if keys is not None:
            pos = int(np.searchsorted(keys, np.uint64(key)))
            if pos < keys.size and int(keys[pos]) == key:
                return False
        self.seen.add(key)
        self.checked += 1
        return True

    def result(self) -> ExpansionProbe:
        if self.checked == 0:
            raise AnalysisError("no candidate set fell inside the size window")
        return ExpansionProbe(
            min_ratio=self.best.ratio,
            witness_size=self.best.size,
            witness=frozenset(self.best.members),
            candidates_checked=self.checked,
        )

    # -- one-off candidates (random sets, age/degree prefixes) ---------

    def consider_verts(self, verts: np.ndarray) -> None:
        """Score one explicit candidate (distinct verts)."""
        size = int(verts.size)
        if not (self.min_size <= size <= self.max_size):
            return
        xor = int(np.bitwise_xor.reduce(self.view.mix[verts]))
        if not self._register(candidate_key(size, xor)):
            return
        ratio = self.view.boundary_count(verts) / size
        self.best.offer(ratio, size, lambda: self.view.ids_sorted(verts))

    # -- multi-source BFS balls (covers singletons + neighbourhoods) ---

    def ball_phase(self, sources: np.ndarray | None = None) -> None:
        """Balls of every radius around every node, as sparse matrix products.

        Covers portfolio phases 1+2 of the reference path: the radius-0
        ball is the singleton, radius 1 the closed neighbourhood.  With
        the closed adjacency ``S = A + I``, row ``i`` of ``B_{r+1} = B_r
        @ S`` is the radius-``r+1`` ball of source ``i``, so a chunk of
        sources grows all its balls with one product per radius, and
        ``|shell_{r+1}| = nnz(B_{r+1}) − nnz(B_r)`` row by row.  The next
        shell *is* the outer boundary of ``B_r``, so scoring costs
        nothing beyond the products.  Chunks shrink as balls can widen,
        keeping the widest product within :data:`_BALL_NNZ` entries;
        chunking cannot change results (dedupe keys and the tie-break
        are evaluation-order independent).

        Every ball candidate goes to the probe's :class:`BallRecorder`;
        :meth:`score_recorded` scores the stream.  *sources* defaults to
        every alive vert; the incremental plane passes only the roots
        whose cached balls churn invalidated.
        """
        view = self.view
        if sources is None:
            sources = view.alive_verts
        if sources.size == 0:
            return
        closed = _closed_adjacency(view)
        # A kept ball has at most max_size members, so its next ball at
        # most max_size · (Δ + 1).
        widest = min(view.n, self.max_size * (int(view.degrees.max()) + 1))
        chunk = max(_BALL_NNZ // max(widest, 1), 1)
        for start in range(0, sources.size, chunk):
            self._ball_chunk(sources[start : start + chunk], closed)

    def _ball_chunk(self, src_verts: np.ndarray, closed: sp.csr_matrix) -> None:
        mixv = self.view.mix
        count = src_verts.size
        ball_size = np.ones(count, dtype=np.int64)
        # Pending candidate per source: the current ball, awaiting its
        # boundary count from the next shell.  Radius-0 balls (the
        # singletons) start pending whenever size 1 is inside the window.
        pend_active = np.full(count, self.min_size <= 1 <= self.max_size)
        pend_size = ball_size.copy()
        pend_xor = mixv[src_verts].copy()
        pend_radius = np.zeros(count, dtype=np.int64)
        grow = np.full(count, 1 < self.max_size)
        kept_radius = np.zeros(count, dtype=np.int64)
        radius = 0
        # Sources still growing or pending, and their current balls as
        # the rows of a sparse matrix (None: the radius-0 singletons).
        active = np.arange(count, dtype=np.int64)
        balls: sp.csr_matrix | None = None

        while True:
            grown = closed[src_verts] if balls is None else balls @ closed
            shell_count = np.zeros(count, dtype=np.int64)
            shell_count[active] = np.diff(grown.indptr) - ball_size[active]

            # Record pending balls: ratio = |shell_{r+1}| / |B_r|.
            pending = np.nonzero(pend_active)[0]
            if pending.size:
                self.recorder.add_entries(
                    self.view.vert_ids[src_verts[pending]],
                    pend_radius[pending],
                    pend_size[pending],
                    pend_xor[pending],
                    shell_count[pending] / pend_size[pending],
                )

            # Continuation: a source keeps its ball while it still grows
            # (|B| < max) or the grown ball needs one more shell for
            # scoring (|B_{r+1}| == max exactly).
            growing = grow & (shell_count > 0)
            new_size = ball_size + shell_count
            pend_active = growing & (new_size >= self.min_size) & (
                new_size <= self.max_size
            )
            grow = growing & (new_size < self.max_size)
            keep = pend_active | grow
            if not keep.any():
                break
            keep_rows = np.nonzero(keep[active])[0]
            balls = grown if keep_rows.size == active.size else grown[keep_rows]
            active = active[keep_rows]
            ball_size = np.where(keep, new_size, ball_size)
            radius += 1
            kept_radius = np.where(keep, radius, kept_radius)
            pend_xor[active] = np.where(
                pend_active[active],
                np.bitwise_xor.reduceat(mixv[balls.indices], balls.indptr[:-1]),
                pend_xor[active],
            )
            pend_size = np.where(pend_active, ball_size, pend_size)
            pend_radius = np.where(pend_active, radius, pend_radius)

        self.recorder.add_roots(self.view.vert_ids[src_verts], kept_radius)

    def _ball_members(self, source_vert: int, radius: int) -> np.ndarray:
        """Recompute one ball's member verts (only for contending balls)."""
        view = self.view
        ball = {int(source_vert)}
        frontier = [int(source_vert)]
        for _ in range(radius):
            shell: list[int] = []
            for v in frontier:
                for w in view.neighbors_of_vert(v).tolist():
                    if w not in ball:
                        ball.add(w)
                        shell.append(w)
            if not shell:
                break
            frontier = shell
        return np.fromiter(ball, dtype=np.int64, count=len(ball))

    def score_recorded(
        self,
        roots: np.ndarray,
        radii: np.ndarray,
        sizes: np.ndarray,
        xors: np.ndarray,
        ratios: np.ndarray,
    ) -> None:
        """Score a ball-candidate stream in one vectorized pass.

        The stream may mix freshly-recorded entries with entries
        replayed from a previous window's cache, in arbitrary order —
        dedupe keys, the distinct-candidate count, and the ``(ratio,
        size, members)`` tie-break are all evaluation-order independent,
        so the outcome equals the Snapshot path's one-by-one scoring.
        Must run before the greedy/random phases (their dedupe consults
        the registered ball keys); only candidates achieving the
        stream's minimal ``(ratio, size)`` are offered, with members
        recomputed by a per-root BFS.
        """
        if roots.size == 0:
            return
        keys = candidate_key_array(sizes.astype(np.uint64), xors)
        uniq, first = np.unique(keys, return_index=True)
        self._ball_keys = uniq
        self.checked += int(uniq.size)
        rep_ratio = ratios[first]
        sel = first[rep_ratio == rep_ratio.min()]
        sel_sizes = sizes[sel]
        sel = sel[sel_sizes == sel_sizes.min()]
        view = self.view
        for i in sel.tolist():
            root, radius = int(roots[i]), int(radii[i])
            self.best.offer(
                float(ratios[i]),
                int(sizes[i]),
                lambda root=root, radius=radius: view.ids_sorted(
                    self._ball_members(view.vert_of(root), radius)
                ),
            )

    # -- vectorized greedy boundary-minimising sweep -------------------

    def greedy_phase(self, restarts: int) -> None:
        """Greedy growth from the lowest-``(degree, id)`` seeds.

        Each step scores every boundary vert's absorption in one
        gather + ``np.bincount`` pass (how many of its neighbours lie
        outside the set and its boundary), absorbs the ``(delta, id)``
        minimiser, and offers the grown set — identical to the
        reference's per-vertex Python scan.
        """
        view = self.view
        order = np.lexsort((view.ids, view.degrees))
        seeds = view.alive_verts[order[:restarts]]
        for seed_vert in seeds.tolist():
            self._greedy_grow_csr(seed_vert)

    def _greedy_grow_csr(self, seed_vert: int) -> None:
        view = self.view
        mixv = view.mix
        vert_ids = view.vert_ids
        current = np.zeros(view.space, dtype=bool)
        boundary = np.zeros(view.space, dtype=bool)
        current[seed_vert] = True
        size = 1
        xor = int(mixv[seed_vert])
        bverts = view.neighbors_of_vert(seed_vert).copy()
        boundary[bverts] = True
        self._consider_tracked(size, xor, bverts.size, current)
        while size < self.max_size and bverts.size:
            flat, owner_pos = view.gather_neighbors(bverts)
            outside = ~(current[flat] | boundary[flat])
            new_out = np.bincount(owner_pos[outside], minlength=bverts.size)
            lowest = np.nonzero(new_out == new_out.min())[0]
            pick = lowest[np.argmin(vert_ids[bverts[lowest]])]
            vert = int(bverts[pick])
            current[vert] = True
            boundary[vert] = False
            size += 1
            xor ^= int(mixv[vert])
            nbrs = view.neighbors_of_vert(vert)
            entering = nbrs[~(current[nbrs] | boundary[nbrs])]
            boundary[entering] = True
            bverts = np.concatenate(
                [bverts[np.arange(bverts.size) != pick], entering]
            )
            self._consider_tracked(size, xor, bverts.size, current)

    def _consider_tracked(
        self, size: int, xor: int, boundary_size: int, current: np.ndarray
    ) -> None:
        """Score a set whose boundary size is maintained incrementally."""
        if not (self.min_size <= size <= self.max_size):
            return
        if not self._register(candidate_key(size, xor)):
            return
        ratio = boundary_size / size
        self.best.offer(
            ratio,
            size,
            lambda: self.view.ids_sorted(np.nonzero(current)[0]),
        )

    # -- batched random sets -------------------------------------------

    def random_phase(self, rng: np.random.Generator, count: int) -> None:
        """Uniformly random sets; identical RNG consumption to the
        reference (index draws over the ascending-id node order)."""
        view = self.view
        n = view.n
        for _ in range(count):
            size = int(rng.integers(self.min_size, self.max_size + 1))
            chosen = rng.choice(n, size=size, replace=False)
            self.consider_verts(view.alive_verts[chosen])

    # -- age/degree extreme prefixes (large-set portfolio) -------------

    def extreme_phase(self, sizes: list[int]) -> None:
        view = self.view
        ages = view.time - view.birth[view.alive_verts]
        by_age = view.alive_verts[np.lexsort((view.ids, ages))]
        by_degree = view.alive_verts[np.lexsort((view.ids, view.degrees))]
        for size in sizes:
            self.consider_verts(by_age[:size])  # youngest
            self.consider_verts(by_age[-size:])  # oldest
            self.consider_verts(by_degree[:size])


def _adversarial_probe_csr(
    view: CSRView,
    seed: SeedLike,
    num_random_sets: int,
    greedy_restarts: int,
    min_size: int,
    max_size: int | None,
) -> ExpansionProbe:
    n = view.n
    if n < 2:
        raise AnalysisError("vertex expansion needs at least 2 nodes")
    if max_size is None:
        max_size = n // 2
    max_size = min(max_size, n // 2)
    if min_size > max_size:
        raise AnalysisError(f"empty size window [{min_size}, {max_size}]")
    rng = make_rng(seed)
    probe = _CSRProbe(view, min_size, max_size)
    probe.ball_phase()
    probe.score_recorded(*probe.recorder.entries())
    probe.greedy_phase(greedy_restarts)
    probe.random_phase(rng, num_random_sets)
    return probe.result()


def _large_set_probe_csr(
    view: CSRView,
    min_size: int,
    max_size: int | None,
    seed: SeedLike,
    num_random_sets: int,
) -> ExpansionProbe:
    n = view.n
    if max_size is None:
        max_size = n // 2
    max_size = min(max_size, n // 2)
    min_size = max(1, min_size)
    if min_size > max_size:
        raise AnalysisError(f"empty size window [{min_size}, {max_size}]")
    rng = make_rng(seed)
    probe = _CSRProbe(view, min_size, max_size)
    probe.extreme_phase(_large_set_sizes(min_size, max_size))
    probe.random_phase(rng, num_random_sets)
    probe.greedy_phase(4)
    return probe.result()
