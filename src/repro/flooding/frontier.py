"""The round loop and informed-set strategies of the round-based processes.

Synchronous flooding (Definition 3.3), discretized flooding (Definition
4.3), push/pull gossip and lossy flooding share one round structure,
driven by :func:`run_rounds`: each process supplies a *proposal* read on
the pre-churn topology ``G_{t−1}`` and a frontier whose :meth:`absorb`
turns it into ``I_t`` once the round's churn has been applied.  The
driver records the trajectory and tests completion (``I_t ⊇ N_{t−1} ∩
N_t``) and extinction.  :func:`resolve_sources` is the shared source
handling.

Frontiers (informed-set representations):

* :class:`SetFrontier` — the reference implementation: a Python set of
  node ids, boundary via per-node neighbour unions, gossip/lossy contact
  draws per node.  Works on every backend.
* :class:`MaskFrontier` — a boolean mask over the array backend's rows;
  boundary expansion is ``informed-mask × slot-matrix`` in NumPy
  (see :meth:`~repro.core.array_backend.ArraySlotBackend.boundary_rows`),
  and the gossip/lossy proposals draw all of a round's contacts in a
  handful of array operations over the lazy CSR adjacency.
  Requires ``supports_vectorized_frontier``.
* :class:`IntervalFrontier` — Definition 4.3's set-based update: the
  proposal freezes the informed nodes' neighbourhoods, and absorb keeps
  only the informers that survived the interval.

For the deterministic boundary (plain flooding) the set and mask
strategies compute the identical informed set each round — only the
representation differs — so seeded flooding trajectories match across
backends (the cross-backend parity tests assert exactly this).  The
randomized proposals (:meth:`gossip_proposal`, :meth:`lossy_proposal`)
draw the same *distribution* on either strategy but consume the RNG in
different orders, so mask-based gossip/lossy runs are statistically
equivalent, not bit-identical, to the set-based reference.

The mask variant must scrub rows recycled by same-round births in
:meth:`absorb`: a newborn can reuse the row of a dead informed node, and
without the scrub it would inherit the stale informed bit.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

import numpy as np

from repro.core.backend import GraphBackend
from repro.errors import ConfigurationError
from repro.flooding.result import FloodingResult
from repro.models.base import DynamicNetwork, RoundReport


class Frontier(Protocol):
    """The informed-set operations :func:`run_rounds` needs."""

    def count(self) -> int: ...

    def contains(self, node_id: int) -> bool: ...

    def absorb(self, proposal: object, report: RoundReport) -> None: ...


class SetFrontier:
    """Informed set as a plain set of node ids (any backend)."""

    def __init__(self, state: GraphBackend, informed: Iterable[int]) -> None:
        self.state = state
        self.informed = set(informed)

    def count(self) -> int:
        return len(self.informed)

    def contains(self, node_id: int) -> bool:
        return node_id in self.informed

    def boundary(self) -> set[int]:
        """``∂out(I)`` in the current (pre-churn) topology."""
        return self.state.boundary_of(self.informed)

    def gossip_proposal(
        self, rng: np.random.Generator, push: bool = True, pull: bool = True
    ) -> set[int]:
        """One push/pull gossip round's newly-informed set (pre-churn).

        Every informed node *pushes* to one uniform neighbour; every
        uninformed node not reached by a push *pulls* from one uniform
        neighbour (informed contact ⇒ informed).
        """
        state, informed = self.state, self.informed
        newly: set[int] = set()
        if push:
            for u in informed:
                neighbor = state.random_neighbor(u, rng)
                if neighbor is not None and neighbor not in informed:
                    newly.add(neighbor)
        if pull:
            for u in state.alive_ids():
                if u in informed or u in newly:
                    continue
                neighbor = state.random_neighbor(u, rng)
                if neighbor is not None and neighbor in informed:
                    newly.add(u)
        return newly

    def lossy_proposal(self, rng: np.random.Generator, loss: float) -> set[int]:
        """One lossy-flooding round's delivered set (pre-churn).

        Each (informed node → uninformed neighbour) transmission succeeds
        independently with probability ``1 − loss``; a node already
        delivered this round receives no further transmissions.
        """
        state, informed = self.state, self.informed
        delivered: set[int] = set()
        for u in informed:
            for v in state.neighbors(u):
                if v in informed or v in delivered:
                    continue
                if rng.random() >= loss:
                    delivered.add(v)
        return delivered

    def absorb(self, boundary: set[int], report: RoundReport) -> None:
        """``I ← (I ∪ boundary) ∩ alive`` after the churn."""
        del report  # newborn ids are fresh, so they can never be in I
        self.informed |= boundary
        state = self.state
        self.informed = {u for u in self.informed if state.is_alive(u)}


class IntervalFrontier(SetFrontier):
    """Informed set of Definition 4.3's unit-interval flooding (any backend).

    In the Poisson models an edge present at the start of an interval
    persists through it iff both endpoints are alive at its end, so
    ``I_t = (I_{t−1} ∩ N_t) ∪ {v ∈ N_t : ∃u ∈ I_{t−1} ∩ N_t, {u,v} ∈ E_{t−1}}``.
    """

    def neighborhoods(self) -> dict[int, list[int]]:
        """The informed nodes' neighbourhoods at interval start."""
        state = self.state
        return {u: list(state.neighbors(u)) for u in self.informed}

    def absorb(
        self, neighborhoods: dict[int, list[int]], report: RoundReport
    ) -> None:
        """Surviving informers inform their surviving frozen neighbours."""
        del report  # newborn ids are fresh, so they can never be in I
        state = self.state
        survivors = {u for u in self.informed if state.is_alive(u)}
        newly: set[int] = set()
        for u in survivors:
            for v in neighborhoods[u]:
                if v not in survivors and state.is_alive(v):
                    newly.add(v)
        self.informed = survivors | newly


class MaskFrontier:
    """Informed set as a boolean mask over array-backend rows."""

    def __init__(self, state: GraphBackend, informed: Iterable[int]) -> None:
        self.state = state
        self.mask = np.zeros(state.row_capacity(), dtype=bool)
        rows = state.rows_for(informed)
        if rows.size:
            self.mask[rows] = True

    def count(self) -> int:
        return int(self.mask.sum())

    def contains(self, node_id: int) -> bool:
        row = self.state.row_if_alive(node_id)
        return row is not None and bool(self.mask[row])

    def _padded(self, mask: np.ndarray) -> np.ndarray:
        """Grow *mask* to the backend's current row capacity (births may
        have resized the row arrays since the mask was made)."""
        cap = self.state.row_capacity()
        if len(mask) == cap:
            return mask
        grown = np.zeros(cap, dtype=bool)
        grown[: len(mask)] = mask
        return grown

    def boundary(self) -> np.ndarray:
        """Vectorized ``∂out(I)`` as a row mask (pre-churn topology)."""
        self.mask = self._padded(self.mask)
        return self.state.boundary_rows(self.mask)

    def gossip_proposal(
        self, rng: np.random.Generator, push: bool = True, pull: bool = True
    ) -> np.ndarray:
        """Vectorized push/pull gossip round as a row mask (pre-churn).

        All contact choices of a round are drawn in two ``rng.integers``
        calls over the lazy CSR adjacency — same contact law as
        :meth:`SetFrontier.gossip_proposal`, different RNG consumption.
        """
        state = self.state
        self.mask = self._padded(self.mask)
        informed = self.mask & state.alive_row_mask()
        indptr, indices = state.adjacency_csr()
        degrees = np.diff(indptr)
        newly = np.zeros(len(self.mask), dtype=bool)
        if push:
            rows = np.nonzero(informed & (degrees > 0))[0]
            if rows.size:
                offsets = rng.integers(0, degrees[rows])
                newly[indices[indptr[rows] + offsets]] = True
        if pull:
            rows = np.nonzero(
                state.alive_row_mask() & ~informed & ~newly & (degrees > 0)
            )[0]
            if rows.size:
                offsets = rng.integers(0, degrees[rows])
                contacts = indices[indptr[rows] + offsets]
                newly[rows[informed[contacts]]] = True
        newly &= ~informed
        return newly

    def lossy_proposal(self, rng: np.random.Generator, loss: float) -> np.ndarray:
        """Vectorized lossy-flooding round as a row mask (pre-churn).

        One Bernoulli(1 − loss) draw per (informed → uninformed) directed
        CSR edge; a row is delivered when any incident transmission
        succeeds — the same delivery law as the per-node reference (each
        target's first successful transmission informs it).
        """
        state = self.state
        self.mask = self._padded(self.mask)
        informed = self.mask & state.alive_row_mask()
        indptr, indices = state.adjacency_csr()
        sources = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        candidates = indices[informed[sources] & ~informed[indices]]
        newly = np.zeros(len(self.mask), dtype=bool)
        if candidates.size:
            delivered = candidates[rng.random(candidates.size) >= loss]
            newly[delivered] = True
        return newly

    def absorb(self, boundary: np.ndarray, report: RoundReport) -> None:
        state = self.state
        mask = self._padded(self.mask) | self._padded(boundary)
        # Scrub rows recycled by this round's births: the previous occupant
        # died mid-round, and its informed/boundary bit must not leak onto
        # the newborn (the id-set semantics: newborn ids are never informed).
        for born in report.births:
            row = state.row_if_alive(born)
            if row is not None:
                mask[row] = False
        mask &= state.alive_row_mask()
        self.mask = mask


def make_frontier(state: GraphBackend, informed: Iterable[int]) -> SetFrontier | MaskFrontier:
    """Pick the fastest frontier representation the backend supports."""
    if getattr(state, "supports_vectorized_frontier", False):
        return MaskFrontier(state, informed)
    return SetFrontier(state, informed)


def resolve_spreading_frontier(
    network: DynamicNetwork, informed: Iterable[int], vectorized: bool
) -> SetFrontier | MaskFrontier:
    """Pick the frontier for a randomized spreading process (gossip/lossy).

    Unlike plain flooding (where the mask frontier computes the identical
    boundary and is therefore always safe to auto-select), the randomized
    proposals consume the RNG differently per representation, so the
    vectorized path is opt-in.
    """
    state = network.state
    if not vectorized:
        return SetFrontier(state, informed)
    if not getattr(state, "supports_vectorized_frontier", False):
        raise ConfigurationError(
            "vectorized=True needs a backend with vectorized-frontier "
            "support (the array backend); this network runs on "
            f"{type(state).__name__}"
        )
    return MaskFrontier(state, informed)


def resolve_sources(
    network: DynamicNetwork,
    source: int | None,
    sources: Iterable[int] | None = None,
) -> tuple[int, set[int]]:
    """The run's reported source and its initially informed set.

    *sources* (several informed nodes at once) overrides *source*, and
    the reported source is then the smallest of them.  With neither, the
    youngest alive node starts (the paper floods from the node that joins
    at ``t_0``).
    """
    state = network.state
    if sources is not None:
        initial = set(sources)
        if not initial:
            raise ConfigurationError("sources must be non-empty when given")
        for node in initial:
            if not state.is_alive(node):
                raise ConfigurationError(f"source node {node} is not alive")
        return min(initial), initial
    if source is None:
        source = state.youngest_alive()
    if not state.is_alive(source):
        raise ConfigurationError(f"source node {source} is not alive")
    return source, {source}


def run_rounds(
    network: DynamicNetwork,
    frontier: Frontier,
    propose: Callable[[], object],
    source: int,
    max_rounds: int,
    stop_when_extinct: bool = True,
    done_when_alone: bool = False,
) -> FloodingResult:
    """Drive one round-based spreading process; return its trajectory.

    Each round calls *propose* on the pre-churn topology ``G_{t−1}``,
    advances *network* one round, and lets *frontier* absorb the
    proposal.  The run stops at completion, at extinction (unless
    *stop_when_extinct* is False, in which case later rounds keep
    overwriting ``extinction_round``), or after *max_rounds* rounds.
    *done_when_alone* completes a single-node network at round 0.
    """
    state = network.state
    result = FloodingResult(source=source, start_time=network.now)
    result.record_round(frontier.count(), state.num_alive())
    if done_when_alone and state.num_alive() == 1:
        result.completed = True
        result.completion_round = 0
        return result

    for round_index in range(1, max_rounds + 1):
        proposal = propose()

        report = network.advance_round()

        frontier.absorb(proposal, report)
        informed_count = frontier.count()
        result.record_round(informed_count, state.num_alive())

        # Completion criterion I_t ⊇ N_{t-1} ∩ N_t: every uninformed
        # alive node was born this very round.
        uninformed_count = state.num_alive() - informed_count
        fresh_uninformed = sum(
            1
            for b in report.births
            if state.is_alive(b) and not frontier.contains(b)
        )
        if informed_count and uninformed_count == fresh_uninformed:
            result.completed = True
            result.completion_round = round_index
            return result
        if not informed_count:
            result.extinct = True
            result.extinction_round = round_index
            if stop_when_extinct:
                return result
    return result
