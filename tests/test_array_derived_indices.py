"""Derived indices of the array backend against the slot matrix.

The slot matrix is the array backend's only source of truth; the CSR
adjacency and the lazily materialized reverse index are derived from
it.  These tests drive random interleavings of every writer — fused
windows, batched births, checkpoint round trips and per-event mutations
— and check after every step that both indices still agree with a
recount from the slots (``check_invariants``), that every orphan list
equals a cold rebuild of the reverse index, and that the CSR equals a
plain ``np.unique`` oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array_backend import ArraySlotBackend, _InRefIndex
from repro.core.round_batch import WindowDrawPlan

D = 3

OPS = (
    "births",
    "birth_slots",
    "window",
    "add",
    "assign",
    "clear",
    "remove",
    "restore",
    "neighbors",
)


class _Harness:
    """Applies one named operation at a time to an ``ArraySlotBackend``."""

    def __init__(self, compact: bool) -> None:
        self.backend = ArraySlotBackend(
            initial_capacity=4, slot_width=D, compact_csr=compact
        )
        self.next_id = 0
        self.now = 0.0

    def _alive(self) -> list[int]:
        return sorted(self.backend.alive_ids())

    def _fresh_ids(self, count: int) -> list[int]:
        ids = list(range(self.next_id, self.next_id + count))
        self.next_id += count
        return ids

    def births(self, rng: np.random.Generator) -> None:
        ids = self._fresh_ids(int(rng.integers(1, 7)))
        self.backend.apply_births(ids, self.now, D, rng)

    def birth_slots(self, rng: np.random.Generator) -> None:
        ids = self._fresh_ids(int(rng.integers(1, 5)))
        pool = np.asarray(self._alive() + ids, dtype=np.int64)
        targets = pool[rng.integers(0, pool.size, size=(len(ids), D))]
        targets[targets == np.asarray(ids)[:, None]] = -1  # no self-loops
        targets[rng.random(targets.shape) < 0.2] = -1
        self.backend.apply_birth_slots(ids, self.now, targets)

    def window(self, rng: np.random.Generator) -> None:
        alive = self._alive()
        n = len(alive)
        contiguous = n >= 3 and alive == list(range(alive[0], alive[0] + n))
        if not contiguous or not all(
            len(self.backend.out_slots_of(u)) == D for u in alive
        ):
            return  # the fused kernel needs the streaming shape
        rounds = int(rng.integers(1, 6))
        plan = WindowDrawPlan(n, D, rounds, rng)
        self.backend.apply_round_batch(
            alive[0], rounds, D, self.now, plan, regenerate=bool(rng.integers(2))
        )
        self.next_id = alive[0] + n + rounds
        self.now += rounds

    def add(self, rng: np.random.Generator) -> None:
        others = self._alive()
        (node,) = self._fresh_ids(1)
        self.backend.add_node(node, self.now, D)
        for slot in range(D):
            if others and rng.random() < 0.8:
                self.backend.assign_slot(
                    node, slot, others[int(rng.integers(len(others)))]
                )

    def assign(self, rng: np.random.Generator) -> None:
        alive = self._alive()
        empty = [
            (u, j)
            for u in alive
            for j, t in enumerate(self.backend.out_slots_of(u))
            if t is None
        ]
        if len(alive) < 2 or not empty:
            return
        source, slot = empty[int(rng.integers(len(empty)))]
        target = source
        while target == source:
            target = alive[int(rng.integers(len(alive)))]
        self.backend.assign_slot(source, slot, target)

    def clear(self, rng: np.random.Generator) -> None:
        assigned = [
            (u, j)
            for u in self._alive()
            for j, t in enumerate(self.backend.out_slots_of(u))
            if t is not None
        ]
        if assigned:
            self.backend.clear_slot(*assigned[int(rng.integers(len(assigned)))])

    def remove(self, rng: np.random.Generator) -> None:
        alive = self._alive()
        if not alive:
            return
        # The oldest node half the time, which keeps the streaming shape.
        if rng.random() < 0.5:
            victim = alive[0]
        else:
            victim = alive[int(rng.integers(len(alive)))]
        backend = self.backend
        row_ids = backend.ids_for_rows(np.arange(backend.row_capacity()))
        cold = _InRefIndex.from_slots(backend.slot_matrix(), row_ids)
        expected = sorted(cold.derived(backend.row_for(victim)))
        assert backend.remove_node(victim, self.now) == expected

    def restore(self, rng: np.random.Generator) -> None:
        del rng
        restored = ArraySlotBackend()
        restored.restore_state(self.backend.dump_state())
        assert restored.dump_state()["alive"] == self.backend.dump_state()["alive"]
        self.backend = restored

    def neighbors(self, rng: np.random.Generator) -> None:
        alive = self._alive()
        if alive:
            node = alive[int(rng.integers(len(alive)))]
            backend = self.backend
            indptr, indices = backend.adjacency_csr()
            row = backend.row_for(node)
            nbr_rows = indices[indptr[row] : indptr[row + 1]]
            assert backend.neighbors(node) == set(
                backend.ids_for_rows(nbr_rows).tolist()
            )


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=30,
    ),
    compact=st.booleans(),
)
def test_random_interleavings_keep_derived_indices_exact(steps, compact):
    harness = _Harness(compact)
    harness.backend.check_invariants()
    for op, seed in steps:
        getattr(harness, op)(np.random.default_rng(seed))
        harness.now += 0.5
        harness.backend.check_invariants()


def _csr_oracle(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cap = slots.shape[0]
    src, col = np.nonzero(slots >= 0)
    tgt = slots[src, col]
    keys = np.unique(np.concatenate([src * cap + tgt, tgt * cap + src]))
    indptr = np.zeros(cap + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // cap, minlength=cap), out=indptr[1:])
    return indptr, keys % cap


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_adjacency_csr_matches_unique_oracle(seed, compact):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 60)), int(rng.integers(1, 6))
    backend = ArraySlotBackend(
        initial_capacity=8, slot_width=d, compact_csr=compact
    )
    ids = list(range(n))
    # Few distinct targets per row, so parallel slots are common ...
    targets = rng.integers(0, max(n // 4, 2), size=(n, d))
    # ... plus reciprocal pairs u -> v, v -> u in slot 0.
    pairs = np.arange(0, n - 1, 2)
    pairs = pairs[rng.random(pairs.size) < 0.5]
    targets[pairs, 0] = pairs + 1
    targets[pairs + 1, 0] = pairs
    targets[targets == np.arange(n)[:, None]] = -1
    backend.apply_birth_slots(ids, 0.0, targets)
    for victim in rng.choice(n, size=n // 5, replace=False).tolist():
        backend.remove_node(victim, 1.0)  # free rows inside the CSR range

    indptr, indices = backend.adjacency_csr()
    want_indptr, want_indices = _csr_oracle(backend.slot_matrix())
    dtype = np.int32 if compact else np.int64
    assert indptr.dtype == dtype and indices.dtype == dtype
    np.testing.assert_array_equal(indptr, want_indptr)
    np.testing.assert_array_equal(indices, want_indices)
    assert backend.num_edges() == want_indices.size // 2
