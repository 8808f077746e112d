"""The Bitcoin-like overlay simulator.

A :class:`BitcoinLikeNetwork` is a :class:`~repro.models.base.DynamicNetwork`
(so every flooding process and analysis in the library runs on it
unchanged) with the engineering realities the PDGR model abstracts away:

* node churn is the same Poisson jump chain as PDGR;
* a joining node learns addresses from a *DNS seed* (a uniform sample of
  alive nodes) instead of magically knowing the whole network;
* it dials peers from its address manager up to ``target_outbound`` (8),
  and accepts at most ``max_inbound`` (125) connections;
* a failed dial (dead address) evicts the address and retries;
* when a neighbour dies, the lost out-slot is *not* regenerated instantly:
  the node re-dials during the next maintenance tick (once per time unit);
* once per tick every node gossips a few known addresses to a random
  neighbour (``addr`` messages), keeping tables "sufficiently random";
  the tick's messages are all built from start-of-tick tables.

EXP-14 checks this engineered overlay matches PDGR's qualitative claims.
"""

from __future__ import annotations

import numpy as np

from repro.churn.poisson import PoissonJumpChain
from repro.core.backend import GraphBackend
from repro.core.edge_policy import EdgePolicy
from repro.errors import ConfigurationError
from repro.models.base import DynamicNetwork, RoundReport
from repro.p2p.addrman import AddressTable
from repro.sim.events import (
    EdgeCreated,
    EdgeDestroyed,
    EventRecord,
    NodeBorn,
    NodeDied,
)
from repro.util.rng import SeedLike


class _ManualPolicy(EdgePolicy):
    """Placeholder policy: the network drives all edge decisions itself."""

    def repair_orphans(self, state, orphaned, time, rng, record) -> None:
        del state, orphaned, time, rng, record  # re-dialling happens at ticks


class BitcoinLikeNetwork(DynamicNetwork):
    """Poisson churn + addrman-driven topology maintenance.

    Args:
        n: expected network size (λ=1, µ=1/n as in the paper).
        target_outbound: out-degree target (Bitcoin Core default 8).
        max_inbound: in-degree cap (Bitcoin Core default 125).
        dns_seed_size: addresses handed to a joining node.
        addr_capacity: address-manager table size.
        gossip_fanout: addresses pushed per tick per node.
        dial_attempts: dial retries per missing slot per tick.
        seed: RNG seed.
        warm_time: churn time simulated before hand-over (default 3n).
    """

    def __init__(
        self,
        n: float,
        target_outbound: int = 8,
        max_inbound: int = 125,
        dns_seed_size: int = 16,
        addr_capacity: int = 256,
        gossip_fanout: int = 8,
        dial_attempts: int = 4,
        seed: SeedLike = None,
        warm_time: float | None = None,
        backend: str | GraphBackend | None = None,
    ) -> None:
        if n < 2:
            raise ConfigurationError(f"need n >= 2, got {n}")
        if target_outbound < 1:
            raise ConfigurationError("target_outbound must be >= 1")
        super().__init__(_ManualPolicy(target_outbound), seed, backend=backend)
        self.n = float(n)
        self.chain = PoissonJumpChain(lam=1.0, n=n)
        self.max_inbound = max_inbound
        self.dns_seed_size = dns_seed_size
        self.addr_capacity = addr_capacity
        self.gossip_fanout = gossip_fanout
        self.dial_attempts = dial_attempts
        self.addresses = AddressTable(addr_capacity)
        #: Alive nodes that may have an empty out-slot: joiners left
        #: short, sources orphaned by a death, nodes a tick left short.
        self._short: set[int] = set()
        self.event_count = 0
        self.failed_dials = 0
        self.successful_dials = 0
        if warm_time is None:
            warm_time = 3.0 * float(n)
        ticks = int(warm_time)
        for _ in range(ticks):
            self.advance_round()

    # ------------------------------------------------------------------
    # DynamicNetwork interface
    # ------------------------------------------------------------------

    def advance_round(self) -> RoundReport:
        """One unit of time: churn events, then a maintenance tick."""
        start = self.now
        target = start + 1.0
        report = RoundReport(start_time=start, end_time=target)
        while True:
            jump = self.chain.next_event(self.num_alive(), self.rng)
            event_time = self.now + jump.dt
            if event_time > target:
                self.clock.advance_to(target)
                break
            self.clock.advance_to(event_time)
            report.events.append(self._apply_churn(jump.is_birth))
        self._maintenance_tick()
        return report

    # ------------------------------------------------------------------
    # churn handling
    # ------------------------------------------------------------------

    def _apply_churn(self, is_birth: bool) -> EventRecord:
        self.event_count += 1
        if is_birth or self.num_alive() == 0:
            return self._handle_join()
        victim = self.state.sample_alive(self.rng)
        return self._handle_leave(victim)

    def _handle_join(self) -> EventRecord:
        node_id = self.state.allocate_id()
        self.state.add_node(node_id, birth_time=self.now, num_slots=self.policy.d)
        record = EventRecord(time=self.now, kind=NodeBorn(node_id=node_id))
        self.addresses.open(node_id)
        # DNS bootstrap: a uniform sample of currently-alive nodes.
        seeds = self.state.sample_targets(self.rng, self.dns_seed_size, exclude=node_id)
        self.addresses.add(node_id, seeds, self.rng)
        if self._dial_missing_slots(node_id, record):
            self._short.add(node_id)
        return record

    def _handle_leave(self, node_id: int) -> EventRecord:
        record = EventRecord(time=self.now, kind=NodeDied(node_id=node_id))
        record.edges_destroyed.extend(
            EdgeDestroyed(node_id, neighbor)
            for neighbor in self.state.neighbors(node_id)
        )
        orphaned = self.state.remove_node(node_id, death_time=self.now)
        self.addresses.close(node_id)
        # Peers that lost an outbound slot re-dial at the next tick.
        self._short.discard(node_id)
        self._short.update(source for source, _ in orphaned)
        return record

    # ------------------------------------------------------------------
    # maintenance: re-dialling and addr gossip
    # ------------------------------------------------------------------

    def known_addresses(self, node_id: int) -> list[int]:
        """The addresses in *node_id*'s address table."""
        return self.addresses.known(node_id)

    def _maintenance_tick(self) -> None:
        alive = self.state.alive_ids()
        self._redial(alive)
        self._gossip_addresses(alive)

    def _redial(self, alive: list[int]) -> None:
        """Dial every empty out-slot, visiting nodes in *alive* order.

        Only nodes in the short set can have an empty slot, and dialling
        a node with none draws no randomness, so skipping the rest
        dials exactly as a scan of every alive node would.
        """
        short = self._short
        still_short = set()
        for node_id in alive:
            if node_id in short and self._dial_missing_slots(node_id):
                still_short.add(node_id)
        self._short = still_short

    def _dial_missing_slots(
        self, node_id: int, record: EventRecord | None = None
    ) -> bool:
        """Dial *node_id*'s empty out-slots; True if one is still empty."""
        addresses = self.addresses
        slots = self.state.out_slots_of(node_id)
        short = False
        for slot_index, current in enumerate(slots):
            if current is not None:
                continue
            filled = False
            for _ in range(self.dial_attempts):
                address = addresses.sample(node_id, self.rng)
                if address is None:
                    break
                if not self.state.is_alive(address):
                    addresses.remove(node_id, address)  # stale: evict, retry
                    self.failed_dials += 1
                    continue
                if self.state.in_slot_count(address) >= self.max_inbound:
                    self.failed_dials += 1
                    continue  # peer is full
                self.state.assign_slot(node_id, slot_index, address)
                if record is not None:
                    record.edges_created.append(
                        EdgeCreated(source=node_id, target=address)
                    )
                self.successful_dials += 1
                filled = True
                break
            short = short or not filled
        return short

    def _gossip_addresses(self, alive: list[int]) -> None:
        """Each node pushes a few known addresses to one random neighbour.

        One synchronous step: every peer is drawn from one uniform vector
        over the node's neighbours in ascending-id order (the same on
        every backend), and every message is built from start-of-tick
        tables (:meth:`AddressTable.gossip`).
        """
        neighbor_lists = map(sorted, map(self.state.neighbors, alive))
        senders, candidates = [], []
        for node_id, neighbors in zip(alive, neighbor_lists):
            if neighbors:
                senders.append(node_id)
                candidates.append(neighbors)
        degrees = np.fromiter(map(len, candidates), dtype=np.int64, count=len(senders))
        picks = (self.rng.random(len(senders)) * degrees).astype(np.int64)
        peers = list(map(list.__getitem__, candidates, picks.tolist()))
        self.addresses.gossip(senders, peers, self.gossip_fanout, self.rng)
