"""Tests for the Bitcoin-like P2P overlay substrate."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.components import component_summary
from repro.errors import ConfigurationError
from repro.flooding import flood_discretized
from repro.p2p import BitcoinLikeNetwork
from repro.p2p.addrman import SENTINEL, AddressTable
from repro.util.rng import make_rng
from repro.util.sampling import IndexedSet


def table_with(owner: int, addresses: list[int], capacity: int = 256) -> AddressTable:
    table = AddressTable(capacity)
    table.open(owner)
    table.add(owner, addresses, make_rng(0))
    return table


def assert_rows_valid(table: AddressTable) -> None:
    """Every open row: distinct, owner-free, sorted addresses within
    capacity, then sentinel padding; every free row all sentinel."""
    open_rows = set(table.row_of.values())
    for row in range(len(table.sizes)):
        size = int(table.sizes[row])
        entries = table.table[row]
        assert 0 <= size <= table.capacity
        assert (entries[size:] == SENTINEL).all()
        if row not in open_rows:
            assert size == 0
            continue
        held = entries[:size]
        assert (held != SENTINEL).all()
        assert (np.diff(held) > 0).all()  # sorted, so no duplicates
        assert table.owners[row] not in held


class TestAddressManager:
    """One node's address manager, as a row of the :class:`AddressTable`."""

    def test_add_and_contains(self):
        table = AddressTable(capacity=4)
        table.open(0)
        table.add(0, [1], make_rng(0))
        assert 1 in table.known(0)
        assert len(table.known(0)) == 1

    def test_never_stores_self(self):
        table = table_with(0, [0])
        assert len(table.known(0)) == 0

    def test_capacity_eviction(self):
        table = table_with(0, [1, 2, 3, 4, 5], capacity=3)
        assert len(table.known(0)) == 3
        assert set(table.known(0)) <= {1, 2, 3, 4, 5}

    def test_remove(self):
        table = table_with(0, [7])
        table.remove(0, 7)
        assert 7 not in table.known(0)
        assert len(table.known(0)) == 0

    def test_sample_empty(self):
        table = AddressTable()
        table.open(0)
        assert table.sample(0, make_rng(0)) is None

    def test_sample_member(self):
        table = table_with(0, [1, 2, 3])
        rng = make_rng(3)
        for _ in range(10):
            assert table.sample(0, rng) in {1, 2, 3}

    def test_advertise_subset(self):
        table = table_with(0, list(range(1, 11)))
        (ad,) = table.advertise([0], 4, make_rng(4))
        assert len(ad) == 4
        assert len(set(ad.tolist())) == 4
        assert set(ad.tolist()) <= set(table.known(0))

    def test_advertise_more_than_known(self):
        table = table_with(0, [1])
        (ad,) = table.advertise([0], 10, make_rng(5))
        assert ad[0] == 1
        assert (ad[1:] == SENTINEL).all()

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            AddressTable(capacity=0)

    def test_duplicates_dropped(self):
        table = table_with(0, [3, 3, 1, 3, 1])
        assert sorted(table.known(0)) == [1, 3]

    def test_remove_absent_is_noop(self):
        table = table_with(0, [1, 2])
        table.remove(0, 9)
        assert sorted(table.known(0)) == [1, 2]

    def test_last_insert_into_a_cell_stays(self):
        table = table_with(0, [5, 6, 7], capacity=1)
        assert table.known(0) == [7]

    def test_rows_recycled(self):
        table = table_with(0, [1, 2, 3])
        row = table.row_of[0]
        table.close(0)
        table.open(5)
        assert table.row_of[5] == row
        assert len(table.known(5)) == 0
        assert_rows_valid(table)

    def test_advertise_size_is_min_of_count_and_size(self):
        rng = make_rng(6)
        table = AddressTable(capacity=16)
        for owner, known in enumerate([0, 1, 3, 8, 12]):
            table.open(owner)
            table.add(owner, list(range(100, 100 + known)), rng)
        ads = table.advertise(range(5), 8, rng)
        for owner, ad in enumerate(ads):
            picked = ad[ad != SENTINEL].tolist()
            assert len(picked) == min(8, len(table.known(owner)))
            assert len(set(picked)) == len(picked)
            assert set(picked) <= set(table.known(owner))

    def test_advertise_subsets_uniform(self):
        """χ² over all C(6, 3) = 20 subsets a 3-address advertisement of a
        6-address table can take: the Floyd draw picks each equally."""
        draws = 6000
        table = AddressTable(capacity=8)
        rng = make_rng(7)
        owners = range(1000, 1000 + draws)
        for owner in owners:
            table.open(owner)
            table.add(owner, [10, 11, 12, 13, 14, 15], rng)
        ads = table.advertise(owners, 3, make_rng(8))
        index = {c: i for i, c in enumerate(combinations(range(10, 16), 3))}
        counts = np.zeros(len(index))
        for ad in np.sort(ads, axis=1).tolist():
            counts[index[tuple(ad)]] += 1
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_eviction_uniform(self):
        """χ² over which of a full table's entries one insert evicts."""
        trials = 4000
        table = AddressTable(capacity=5)
        rng = make_rng(9)
        owners = range(1000, 1000 + trials)
        for owner in owners:
            table.open(owner)
            table.add(owner, [10, 11, 12, 13, 14], rng)
        for owner in owners:
            table.add(owner, [99], rng)
        survivors = np.array([table.known(owner) for owner in owners])
        evicted = [
            ({10, 11, 12, 13, 14} - set(row)).pop() for row in survivors.tolist()
        ]
        counts = np.bincount(np.array(evicted) - 10, minlength=5)
        assert stats.chisquare(counts).pvalue > 1e-3


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.integers(0, 11)),
        st.tuples(st.just("close"), st.integers(0, 11)),
        st.tuples(
            st.just("add"),
            st.integers(0, 11),
            st.lists(st.integers(0, 30), max_size=12),
        ),
        st.tuples(st.just("remove"), st.integers(0, 11), st.integers(0, 30)),
        st.tuples(
            st.just("gossip"),
            st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=12),
            st.integers(0, 6),
        ),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, capacity=st.integers(1, 9), seed=st.integers(0, 2**16))
def test_table_rows_stay_valid(ops, capacity, seed):
    """Random open/close/add/remove/gossip sequences keep every row free of
    duplicates and of its owner, within capacity and sentinel-padded."""
    table = AddressTable(capacity)
    rng = make_rng(seed)
    for op in ops:
        kind = op[0]
        if kind == "open" and op[1] not in table.row_of:
            table.open(op[1])
        elif kind == "close" and op[1] in table.row_of:
            table.close(op[1])
        elif kind == "add" and op[1] in table.row_of:
            before = set(table.known(op[1]))
            table.add(op[1], op[2], rng)
            after = set(table.known(op[1]))
            assert after <= before | set(op[2])
            if len(before | set(op[2]) - {op[1]}) <= capacity:
                assert after == before | set(op[2]) - {op[1]}
        elif kind == "remove" and op[1] in table.row_of:
            table.remove(op[1], op[2])
            assert op[2] not in table.known(op[1])
        elif kind == "gossip":
            pairs = [(s, p) for s, p in op[1] if s in table.row_of and p in table.row_of]
            table.gossip([s for s, _ in pairs], [p for _, p in pairs], op[2], rng)
        assert_rows_valid(table)
        for owner in table.row_of:
            for address in table.known(owner):
                assert address in table.known(owner)


class TestBitcoinLikeNetwork:
    @pytest.fixture(scope="class")
    def overlay(self):
        return BitcoinLikeNetwork(n=150, seed=0)

    def test_size_near_n(self, overlay):
        assert 100 <= overlay.num_alive() <= 200

    def test_invariants(self, overlay):
        overlay.state.check_invariants()
        assert set(overlay.addresses.row_of) == set(overlay.state.alive_ids())
        assert_rows_valid(overlay.addresses)

    def test_connected_no_isolated(self, overlay):
        summary = component_summary(overlay.snapshot())
        assert summary.is_connected
        assert summary.num_isolated == 0

    def test_outbound_target_mostly_met(self, overlay):
        snap = overlay.snapshot()
        full = sum(
            1
            for u in snap.nodes
            if sum(1 for t in snap.out_slots[u] if t is not None) == 8
        )
        assert full / snap.num_nodes() > 0.9

    def test_inbound_cap_respected(self, overlay):
        assert all(
            overlay.state.in_slot_count(u) <= 125
            for u in overlay.state.alive_ids()
        )

    def test_dial_statistics_accumulate(self, overlay):
        assert overlay.successful_dials > 0

    def test_flooding_completes(self):
        net = BitcoinLikeNetwork(n=150, seed=1)
        result = flood_discretized(net, max_rounds=60)
        assert result.completed

    def test_addrman_stale_fraction_bounded(self):
        """Stale addresses are evicted on failed dials, so tables settle
        well short of all-dead (a 256-slot table on a 100-node network
        inevitably carries a dead majority tail, but bounded)."""
        net = BitcoinLikeNetwork(n=100, seed=2)
        net.run_rounds(30)
        stale_fractions = []
        for node_id in net.state.alive_ids():
            known = net.known_addresses(node_id)
            if known:
                stale = sum(1 for a in known if not net.state.is_alive(a))
                stale_fractions.append(stale / len(known))
        assert sum(stale_fractions) / len(stale_fractions) < 0.8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BitcoinLikeNetwork(n=1)
        with pytest.raises(ConfigurationError):
            BitcoinLikeNetwork(n=50, target_outbound=0)

    def test_small_cap_variant(self):
        """A tight inbound cap still yields a connected overlay."""
        net = BitcoinLikeNetwork(
            n=80, target_outbound=4, max_inbound=8, seed=3, warm_time=160.0
        )
        net.state.check_invariants()
        assert all(
            net.state.in_slot_count(u) <= 8 for u in net.state.alive_ids()
        )
        assert component_summary(net.snapshot()).giant_fraction > 0.9


# ----------------------------------------------------------------------
# oracles: the dialling scan and the gossip loop the production driver
# replaces
# ----------------------------------------------------------------------


class FullScanOverlay(BitcoinLikeNetwork):
    """Dials from every alive node on every tick, not just the short set."""

    def _redial(self, alive):
        for node_id in alive:
            self._dial_missing_slots(node_id)


TIGHT_CAP = dict(n=80, target_outbound=4, max_inbound=8, warm_time=160.0)


@pytest.mark.parametrize(
    "config",
    [dict(n=120), TIGHT_CAP],
    ids=["default", "tight-cap"],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_short_set_dials_exactly_like_full_scan(config, seed):
    production = BitcoinLikeNetwork(seed=seed, **config)
    oracle = FullScanOverlay(seed=seed, **config)
    for _ in range(2):
        assert production.successful_dials == oracle.successful_dials
        assert production.failed_dials == oracle.failed_dials
        assert production.state.alive_ids() == oracle.state.alive_ids()
        for node_id in production.state.alive_ids():
            assert production.state.out_slots_of(
                node_id
            ) == oracle.state.out_slots_of(node_id)
            assert production.known_addresses(
                node_id
            ) == oracle.known_addresses(node_id)
        production.run_rounds(20)
        oracle.run_rounds(20)


class ReferenceTable:
    """Per-node address managers with sequential inserts: the reference
    law the synchronous :class:`AddressTable` gossip is checked against."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.rows: dict[int, IndexedSet] = {}

    def open(self, owner):
        self.rows[owner] = IndexedSet()

    def close(self, owner):
        del self.rows[owner]

    def add(self, owner, addresses, rng):
        row = self.rows[owner]
        for address in addresses:
            if address == owner or address in row:
                continue
            if len(row) >= self.capacity:
                row.discard(row.sample(rng))
            row.add(address)

    def remove(self, owner, address):
        self.rows[owner].discard(address)

    def sample(self, owner, rng):
        row = self.rows[owner]
        return row.sample(rng) if len(row) else None

    def advertise(self, owner, count, rng):
        items = self.rows[owner].as_list()
        if not items:
            return []
        picks = rng.choice(len(items), size=min(count, len(items)), replace=False)
        return [items[int(i)] for i in picks]

    def known(self, owner):
        return self.rows[owner].as_list()


class SequentialGossipOverlay(BitcoinLikeNetwork):
    """Each node in turn pushes to a random neighbour, and the message lands
    before the next node reads its table (per-node sequential gossip)."""

    @property
    def addresses(self):
        return self.__dict__["_reference"]

    @addresses.setter
    def addresses(self, table):
        self.__dict__["_reference"] = ReferenceTable(table.capacity)

    def _gossip_addresses(self, alive):
        for node_id in alive:
            peer = self.state.random_neighbor(node_id, self.rng)
            if peer is None:
                continue
            payload = self.addresses.advertise(node_id, self.gossip_fanout, self.rng)
            payload.append(node_id)  # self-advertisement
            self.addresses.add(peer, payload, self.rng)


def _overlay_law(cls, seed: int) -> tuple[float, float]:
    # The law does not depend on the backend (the production overlay is
    # bit-identical across backends, see test_backend_parity.py); the
    # dict backend is the faster one for these per-node loops.
    net = cls(n=100, seed=seed, backend="dict")
    fractions = []
    for node_id in net.state.alive_ids():
        known = net.known_addresses(node_id)
        if known:
            stale = sum(1 for a in known if not net.state.is_alive(a))
            fractions.append(stale / len(known))
    dials = net.successful_dials + net.failed_dials
    return float(np.mean(fractions)), net.successful_dials / dials


def test_synchronous_gossip_keeps_the_sequential_law():
    """Two-sample KS at α = 0.01 over 20 seeds per side (n = 100): the
    per-seed mean stale fraction and dial-success ratio of synchronous
    gossip against the sequential reference.

    Power: with 20 samples per side a KS test at α = 0.01 rejects a
    normal location shift of 1σ with probability ≈ 0.39, 1.5σ ≈ 0.83
    and 2σ ≈ 0.99 (4000 simulated pairs each), so it guards against
    shifts of about one and a half seed-to-seed standard deviations
    or more, not against subtler drift.
    """
    synchronous = np.array([_overlay_law(BitcoinLikeNetwork, s) for s in range(20)])
    sequential = np.array(
        [_overlay_law(SequentialGossipOverlay, s) for s in range(100, 120)]
    )
    for column in range(2):
        assert stats.ks_2samp(synchronous[:, column], sequential[:, column]).pvalue > 0.01
