"""Centralized vs local worklists (Section 7.5).

A *data-driven* GPU implementation keeps pending work (bad triangles,
enabled pointer nodes, ...) in a queue.  The paper observes that one
central queue serializes on its tail pointer ("work elements must be
added and removed atomically") and instead assigns each thread a private
chunk of the element range — a *local worklist* — which, combined with
the memory-layout optimization, pseudo-partitions the graph and reduces
conflicts.

:class:`CentralWorklist` models the shared queue: appends go through a
simulated ``atomicAdd`` on the tail, and the atomic count is what makes
it expensive under the cost model.  :class:`LocalWorklists` partitions an
element range into per-thread contiguous chunks (shared-memory resident;
no atomics).  Both expose the same drain/append surface so DMR can swap
them for the worklist ablation.
"""

from __future__ import annotations

import numpy as np

from ..hooks import TRACER
from ..vgpu.atomics import fetch_add_serialized
from ..vgpu.instrument import trace_gauge
from .counters import OpCounter

__all__ = ["CentralWorklist", "LocalWorklists"]


class CentralWorklist:
    """A single device-global queue with an atomic tail pointer."""

    def __init__(self, capacity: int, counter: OpCounter | None = None) -> None:
        self._items = np.empty(capacity, dtype=np.int64)
        self._tail = np.zeros(1, dtype=np.int64)
        self._counter = counter
        self.atomic_ops = 0

    def __len__(self) -> int:
        return int(self._tail[0])

    def append(self, items: np.ndarray,
               rng: np.random.Generator | None = None) -> None:
        """Concurrent append: every enqueue is one atomicAdd on the tail."""
        items = np.asarray(items, dtype=np.int64)
        if items.size == 0:
            return
        if self._tail[0] + items.size > self._items.size:
            self._items = np.resize(self._items,
                                    max(2 * self._items.size,
                                        int(self._tail[0]) + items.size))
        slots = fetch_add_serialized(self._tail, np.zeros(items.size, dtype=np.int64),
                                     np.ones(items.size, dtype=np.int64), rng)
        self._items[slots] = items
        self.atomic_ops += items.size
        if self._counter is not None:
            self._counter.launch("worklist.append", items=items.size,
                                 atomics=items.size, word_writes=items.size)
        trace_gauge("worklist.central.occupancy", int(self._tail[0]))

    def drain(self) -> np.ndarray:
        """Take the whole queue (bulk-synchronous round granularity)."""
        n = int(self._tail[0])
        out = self._items[:n].copy()
        self._tail[0] = 0
        trace_gauge("worklist.central.drained", n)
        return out

    def snapshot(self) -> np.ndarray:
        return self._items[: int(self._tail[0])].copy()


class LocalWorklists:
    """Per-thread contiguous chunks over an element range (no atomics).

    ``assign(n_elements, n_threads)`` splits ``[0, n)`` into equal chunks,
    the paper's pseudo-partitioning.  New work generated by thread ``t``
    is pushed onto *its own* list, so no synchronization is needed; the
    host redistributes between rounds (``rebalance``).
    """

    def __init__(self, n_threads: int, counter: OpCounter | None = None) -> None:
        if n_threads <= 0:
            raise ValueError("need at least one thread")
        self.n_threads = n_threads
        self._lists: list[list[int]] = [[] for _ in range(n_threads)]
        self._counter = counter

    @classmethod
    def assign(cls, n_elements: int, n_threads: int,
               counter: OpCounter | None = None) -> "LocalWorklists":
        wl = cls(n_threads, counter)
        if n_elements:
            chunk = -(-n_elements // n_threads)
            for t in range(n_threads):
                lo = t * chunk
                if lo >= n_elements:
                    break
                wl._lists[t] = list(range(lo, min(lo + chunk, n_elements)))
        return wl

    def push(self, thread: int, items) -> None:
        items = np.atleast_1d(np.asarray(items, dtype=np.int64))
        self._lists[thread].extend(int(i) for i in items)
        if self._counter is not None:
            self._counter.launch("worklist.local_push", items=items.size,
                                 word_writes=items.size)
        if TRACER.value is not None:
            trace_gauge("worklist.local.total", self.total())

    def local(self, thread: int) -> np.ndarray:
        return np.asarray(self._lists[thread], dtype=np.int64)

    def take_local(self, thread: int) -> np.ndarray:
        out = self.local(thread)
        self._lists[thread] = []
        return out

    def sizes(self) -> np.ndarray:
        return np.asarray([len(l) for l in self._lists], dtype=np.int64)

    def total(self) -> int:
        return int(self.sizes().sum())

    def all_items(self) -> np.ndarray:
        parts = [l for l in self._lists if l]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.asarray(l, dtype=np.int64) for l in parts])

    def rebalance(self) -> None:
        """Host-side between-round redistribution into equal chunks."""
        if TRACER.value is not None:
            trace_gauge("worklist.local.imbalance", self.imbalance())
        items = self.all_items()
        self._lists = [[] for _ in range(self.n_threads)]
        if items.size:
            chunk = -(-items.size // self.n_threads)
            for t in range(self.n_threads):
                lo = t * chunk
                if lo >= items.size:
                    break
                self._lists[t] = items[lo: lo + chunk].tolist()

    def imbalance(self) -> float:
        """max/mean chunk size; 1.0 is perfectly balanced."""
        sizes = self.sizes()
        nonzero = sizes[sizes > 0]
        if nonzero.size == 0:
            return 1.0
        return float(sizes.max() / max(1e-12, sizes.mean()))
