"""Address tables — the known-peers tables of every full node, as one array.

Models Bitcoin Core's ``addrman``: each node keeps a bounded table of peer
addresses, seeded from DNS at start-up and refreshed by ``addr`` gossip.
Addresses of dead peers linger until a failed dial evicts them, exactly the
staleness the paper's §1.1 describes ("a sufficiently random subset of all
nodes").

Every node's table is one row of a dense ``rows × capacity`` int32 array.
A row holds its addresses in ascending order, followed by
:data:`SENTINEL` padding (which sorts last); rows of dead nodes return to
a free list and are recycled by joiners.  The sorted rows are the
membership index: checking a delivery for duplicates is one vectorized
binary search per address, O(payload · log capacity), with no
``payload × capacity`` temporaries and no per-address Python objects.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Padding value of unused table cells: above every node id, so it
#: sorts after a row's addresses.
SENTINEL = int(np.iinfo(np.int32).max)


class AddressTable:
    """Bounded random-eviction address tables of all nodes, one row each."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.capacity = capacity
        self.table = np.full((0, capacity), SENTINEL, dtype=np.int32)
        self.sizes = np.zeros(0, dtype=np.int64)
        self.owners = np.full(0, SENTINEL, dtype=np.int64)
        self.row_of: dict[int, int] = {}
        self._free: list[int] = []

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------

    def open(self, owner: int) -> None:
        """Give *owner* an empty table (a recycled row when one is free)."""
        if not self._free:
            self._grow()
        row = self._free.pop()
        self.row_of[owner] = row
        self.owners[row] = owner

    def close(self, owner: int) -> None:
        """Drop *owner*'s table and return its row to the free list."""
        row = self.row_of.pop(owner)
        self.table[row, : self.sizes[row]] = SENTINEL
        self.sizes[row] = 0
        self.owners[row] = SENTINEL
        self._free.append(row)

    def _grow(self) -> None:
        old = len(self.sizes)
        rows = max(16, 2 * old)
        table = np.full((rows, self.capacity), SENTINEL, dtype=np.int32)
        table[:old] = self.table
        self.table = table
        self.sizes = np.concatenate([self.sizes, np.zeros(rows - old, np.int64)])
        self.owners = np.concatenate(
            [self.owners, np.full(rows - old, SENTINEL, np.int64)]
        )
        # Pop order hands out the lowest new row first.
        self._free.extend(range(rows - 1, old - 1, -1))

    # ------------------------------------------------------------------
    # per-node queries
    # ------------------------------------------------------------------

    def known(self, owner: int) -> list[int]:
        """The addresses in *owner*'s table, in ascending order."""
        row = self.row_of[owner]
        return self.table[row, : self.sizes[row]].tolist()

    def sample(self, owner: int, rng: np.random.Generator) -> int | None:
        """A uniformly random known address, or None if the table is empty."""
        row = self.row_of[owner]
        size = int(self.sizes[row])
        if size == 0:
            return None
        return int(self.table[row, int(rng.integers(0, size))])

    def remove(self, owner: int, address: int) -> None:
        """Evict *address* from *owner*'s table (after a failed dial)."""
        row = self.row_of[owner]
        size = int(self.sizes[row])
        entries = self.table[row]
        column = int(np.searchsorted(entries[:size], address))
        if column == size or entries[column] != address:
            return
        entries[column : size - 1] = entries[column + 1 : size]
        entries[size - 1] = SENTINEL
        self.sizes[row] = size - 1

    # ------------------------------------------------------------------
    # batched operations
    # ------------------------------------------------------------------

    def add(
        self, owner: int, addresses: Sequence[int], rng: np.random.Generator
    ) -> None:
        """Insert *addresses* into *owner*'s table, in order."""
        row = self.row_of[owner]
        self._deliver(
            np.full(len(addresses), row, dtype=np.int64),
            np.asarray(addresses, dtype=np.int64),
            rng,
        )

    def advertise(
        self, owners: Sequence[int], count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``min(count, size)`` distinct random addresses per owner.

        Returns a ``len(owners) × count`` int32 array whose row *i* holds
        a uniform random subset of ``owners[i]``'s table, padded with
        :data:`SENTINEL`.  The subsets come from one vectorized Floyd
        draw: step *i* picks ``t`` uniform in ``[0, j]`` with
        ``j = size - k + i`` and takes ``j`` instead when ``t`` is
        already taken.
        """
        rows = np.fromiter(
            map(self.row_of.__getitem__, owners), dtype=np.int64, count=len(owners)
        )
        out = np.full((len(rows), count), SENTINEL, dtype=np.int32)
        if len(rows) == 0 or count == 0:
            return out
        sizes = self.sizes[rows]
        take = np.minimum(sizes, count)
        tops = (sizes - take)[:, None] + np.arange(count)
        picks = (rng.random(tops.shape) * (tops + 1)).astype(np.int64)
        for step in range(1, count):
            taken = (picks[:, :step] == picks[:, step, None]).any(axis=1)
            np.copyto(picks[:, step], tops[:, step], where=taken)
        chosen = np.arange(count) < take[:, None]
        picks = np.minimum(picks, self.capacity - 1)
        return np.where(chosen, self.table[rows[:, None], picks], out)

    def gossip(
        self,
        senders: Sequence[int],
        peers: Sequence[int],
        count: int,
        rng: np.random.Generator,
    ) -> None:
        """One synchronous ``addr`` round: ``senders[i]`` pushes to ``peers[i]``.

        Every sender advertises ``min(count, size)`` addresses of its
        start-of-round table plus its own address; the messages are
        delivered in sender order (see :meth:`_deliver`).
        """
        payload = np.empty((len(senders), count + 1), dtype=np.int64)
        payload[:, :count] = self.advertise(senders, count, rng)
        payload[:, count] = senders  # self-advertisement, as in Bitcoin
        dest = np.fromiter(
            map(self.row_of.__getitem__, peers), dtype=np.int64, count=len(peers)
        )
        self._deliver(np.repeat(dest, count + 1), payload.ravel(), rng)

    def _deliver(
        self, rows: np.ndarray, addresses: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Insert ``addresses[i]`` into row ``rows[i]``, in order.

        Sentinels, a row's own owner and addresses the row already held
        before this call are dropped, as is every repeat of a
        ``(row, address)`` pair within the call.  Each remaining insert
        appends while its row has room and otherwise overwrites a
        uniformly random cell of the full row; when several inserts hit
        one cell, the last one stays.
        """
        keep = addresses != self.owners[rows]
        keep &= addresses != SENTINEL
        rows, addresses = rows[keep], addresses[keep]
        new = ~self._held(rows, addresses)
        rows, addresses = rows[new], addresses[new]
        if not len(rows):
            return
        # First delivery of each (row, address) pair, in delivery order.
        keys = (rows << 32) | addresses
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if not first.all():
            fresh = np.sort(order[first])
            rows, addresses = rows[fresh], addresses[fresh]
        capacity = self.capacity
        # Rank of each insert among its row's inserts, in delivery order.
        counts = np.bincount(rows, minlength=len(self.sizes))
        order = np.argsort(rows, kind="stable")
        rank = np.empty(len(rows), dtype=np.int64)
        rank[order] = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows[order]]
        slot = self.sizes[rows] + rank
        full = slot >= capacity
        if full.any():
            slot[full] = (rng.random(int(full.sum())) * capacity).astype(np.int64)
            # The last write to each cell wins (NumPy leaves the order of
            # repeated-index assignment unspecified, so pick it here).
            cells = rows * capacity + slot
            order = np.argsort(cells, kind="stable")
            last = np.ones(len(order), dtype=bool)
            np.not_equal(cells[order[1:]], cells[order[:-1]], out=last[:-1])
            winners = order[last]
            rows, slot, addresses = rows[winners], slot[winners], addresses[winners]
        self.table[rows, slot] = addresses
        np.minimum(self.sizes + counts, capacity, out=self.sizes)
        touched = np.flatnonzero(counts)
        self.table[touched] = np.sort(self.table[touched], axis=1)

    def _held(self, rows: np.ndarray, addresses: np.ndarray) -> np.ndarray:
        """Whether ``addresses[i]`` is in row ``rows[i]``.

        A branch-free binary search of the sorted rows, all queries in
        step: ``offset`` ends on the last cell not above the address.
        """
        flat = self.table.reshape(-1)
        addresses = addresses.astype(np.int32)
        offset = rows * self.capacity
        width = self.capacity
        while width > 1:
            half = width // 2
            offset += half * (flat.take(offset + half) <= addresses)
            width -= half
        return flat.take(offset) == addresses
