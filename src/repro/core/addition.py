"""Subgraph-addition strategies (Section 7.1).

Four ways to find room for dynamically created graph elements:

* :class:`PreAllocation` — reserve the worst case up front.  Simple and
  fast, "may quickly run out of memory for larger inputs".
* :class:`HostOnly` — the host pre-calculates the next kernel's need and
  ``cudaMalloc``/reallocs; an over-allocation factor amortizes copies.
  DMR grows its triangle arrays this way.
* :class:`KernelHost` — the kernel piggybacks the requirement computation
  and reports one word back to the host, which then grows storage.
  Preferable when the requirement depends on device-resident state.
* :class:`KernelOnly` — in-kernel chunked malloc
  (:class:`~repro.vgpu.memory.ChunkAllocator`); PTA's per-node incoming
  edge lists.

All strategies share the :class:`GrowthStrategy` surface — ``ensure``
grows a device array to a requested length and reports what it cost —
so the addition ablation can swap them under one workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import OutOfDeviceMemory
from ..vgpu.instrument import trace_gauge
from ..vgpu.memory import ChunkAllocator, DeviceAllocator

__all__ = ["GrowthStrategy", "PreAllocation", "HostOnly", "KernelHost",
           "KernelOnly"]


@dataclass
class GrowthStats:
    reallocs: int = 0
    bytes_copied: int = 0
    host_round_trips: int = 0  # host<->device synchronizations incurred
    host_words: int = 0        # words the host reads to decide growth
    wasted_slots: int = 0


class GrowthStrategy:
    """Common surface: grow ``arr`` (rows) to hold ``needed`` elements."""

    def __init__(self, alloc: DeviceAllocator | None = None) -> None:
        self.alloc = alloc or DeviceAllocator()
        self.stats = GrowthStats()

    def ensure(self, arr: np.ndarray, needed: int, fill=None) -> np.ndarray:
        raise NotImplementedError


class PreAllocation(GrowthStrategy):
    """Fixed worst-case reservation; ``ensure`` never grows."""

    def __init__(self, capacity: int, alloc: DeviceAllocator | None = None) -> None:
        super().__init__(alloc)
        self.capacity = capacity

    def allocate(self, shape_tail=(), dtype=np.int64, fill=None) -> np.ndarray:
        return self.alloc.malloc((self.capacity, *shape_tail), dtype, fill)

    def ensure(self, arr: np.ndarray, needed: int, fill=None) -> np.ndarray:
        if needed > arr.shape[0]:
            raise OutOfDeviceMemory(
                f"pre-allocated {arr.shape[0]} rows, {needed} required",
                requested=int(needed), available=int(arr.shape[0]))
        self.stats.wasted_slots = int(arr.shape[0] - needed)
        return arr


class HostOnly(GrowthStrategy):
    """Host pre-calculates and reallocates with an over-allocation factor."""

    def __init__(self, factor: float = 1.5,
                 alloc: DeviceAllocator | None = None) -> None:
        super().__init__(alloc)
        if factor < 1.0:
            raise ValueError("over-allocation factor must be >= 1")
        self.factor = factor

    def ensure(self, arr: np.ndarray, needed: int, fill=None) -> np.ndarray:
        # The host must learn the requirement: it scans the device-side
        # state (one word per current element) to pre-calculate it.
        self.stats.host_round_trips += 1
        self.stats.host_words += int(arr.shape[0])
        if needed <= arr.shape[0]:
            return arr
        target = max(needed, int(arr.shape[0] * self.factor) + 1)
        before = self.alloc.bytes_copied
        out = self.alloc.realloc(arr, target, fill=fill)
        self.stats.reallocs += 1
        self.stats.bytes_copied += self.alloc.bytes_copied - before
        trace_gauge("alloc.bytes_in_use", self.alloc.bytes_in_use)
        trace_gauge("alloc.high_water", self.alloc.high_water)
        trace_gauge("alloc.reallocs", self.stats.reallocs)
        return out


class KernelHost(HostOnly):
    """Kernel computes the requirement; host only reads one word back.

    Mechanically identical growth to :class:`HostOnly`, but the
    requirement computation rides along with the main kernel, so the
    host reads back a single word instead of scanning device state —
    ``ensure`` takes the device-computed ``needed`` directly.
    """

    def ensure(self, arr: np.ndarray, needed: int, fill=None) -> np.ndarray:
        old_rows = int(arr.shape[0])
        out = super().ensure(arr, needed, fill=fill)
        # Refund the host-side scan; only one word crossed the bus.
        self.stats.host_words -= old_rows
        self.stats.host_words += 1
        return out


class KernelOnly(GrowthStrategy):
    """In-kernel chunked allocation; storage is per-node, never moved."""

    def __init__(self, chunk_size: int = 1024,
                 alloc: DeviceAllocator | None = None) -> None:
        super().__init__(alloc)
        self.chunks = ChunkAllocator(chunk_size)

    def ensure(self, arr: np.ndarray, needed: int, fill=None) -> np.ndarray:
        raise TypeError("KernelOnly grows per-node chunk lists, not flat "
                        "arrays; use .chunks (ChunkAllocator) directly")
