"""Hook interfaces and emit helpers for the virtual GPU.

This module is the *hook point* between the simulated device and its
opt-in clients — the :mod:`repro.analysis` sanitizer, the
:mod:`repro.obs` tracer and the :mod:`repro.vgpu.faults` injector — and
deliberately knows nothing about any concrete client.  It defines the
three client interfaces (:class:`SanitizerHooks`, :class:`TracerHooks`,
:class:`FaultHooks`) and the small emit helpers the device and core
layers call.  The active clients themselves live in the
:mod:`repro.hooks` slots (``SANITIZER``, ``TRACER``,
``DEVICE_FAULTS``); when no client is active (the default) each check
is a single attribute load and a ``None`` comparison, so production
runs pay essentially nothing and consume no RNG draws.

A client is installed for a dynamic scope with its slot, or with the
client's own ``activate()``::

    from repro.analysis import RaceDetector

    det = RaceDetector()
    with det.activate():          # SANITIZER.use(det), then a flush
        refine_gpu(mesh)
    det.assert_clean()

Every driver also takes opt-in ``sanitizer=`` / ``tracer=`` keywords
that install the clients through :func:`repro.hooks.driver_entry`.
Tracers are fed through the :func:`trace_span` / :func:`trace_launch`
/ :func:`trace_gauge` helpers sprinkled through the device and core
layers; kernels that perform raw vectorized gathers/stores outside the
atomics API annotate them with :func:`record_read` /
:func:`record_write` so the race detector's shadow memory sees them
too.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..hooks import DEVICE_FAULTS, SANITIZER, TRACER

__all__ = [
    "SanitizerHooks", "record_read", "record_write",
    "TracerHooks", "trace_span", "trace_launch", "trace_gauge",
    "FaultHooks", "fault_malloc", "fault_chunk", "fault_pool",
    "fault_kernel", "fault_transfer",
]


class SanitizerHooks:
    """No-op base interface for device sanitizers.

    The hook vocabulary mirrors what a bulk-synchronous device exposes:

    * kernel scopes (``on_kernel_begin`` / ``on_kernel_end``) group
      accesses for attribution;
    * ``on_barrier`` ends the current intra-kernel phase — accesses in
      different phases are ordered and can never race;
    * ``on_write`` / ``on_read`` record one batch of simulated-thread
      accesses (``kind`` is ``"plain"`` or ``"atomic"``; ``intent`` is
      ``"mark"`` for conflict-engine protocol traffic that is resolved
      by :meth:`on_marking` rather than by phase analysis);
    * ``on_alloc`` / ``on_free`` track :class:`~repro.vgpu.memory.\
DeviceAllocator` extents for bounds / use-after-free checks;
    * ``on_marking`` reports a completed marking protocol (claims plus
      the winner mask) so exclusive ownership can be registered and
      overlapping "exclusive" owners flagged;
    * ``on_spmd_barriers`` reports per-thread barrier counts from
      :func:`repro.vgpu.kernel.spmd_launch` for divergence checking.
    """

    def on_kernel_begin(self, name: str, **info) -> None:
        pass

    def on_kernel_end(self, name: str) -> None:
        pass

    def on_barrier(self) -> None:
        pass

    def on_write(self, arr: np.ndarray, idx, *, tids=None,
                 kind: str = "plain", intent: str = "store") -> None:
        pass

    def on_read(self, arr: np.ndarray, idx, *, tids=None,
                intent: str = "load") -> None:
        pass

    def on_alloc(self, arr: np.ndarray) -> None:
        pass

    def on_free(self, arr: np.ndarray) -> None:
        pass

    def on_marking(self, name: str, claims, winners: np.ndarray, *,
                   scheme: str) -> None:
        pass

    def on_spmd_barriers(self, name: str, counts: np.ndarray) -> None:
        pass


def record_read(arr: np.ndarray, idx, *, tids=None,
                intent: str = "load") -> None:
    """Annotate a raw vectorized gather for the active sanitizer."""
    san = SANITIZER.value
    if san is not None:
        san.on_read(arr, idx, tids=tids, intent=intent)


def record_write(arr: np.ndarray, idx, *, tids=None, kind: str = "plain",
                 intent: str = "store") -> None:
    """Annotate a raw vectorized store for the active sanitizer."""
    san = SANITIZER.value
    if san is not None:
        san.on_write(arr, idx, tids=tids, kind=kind, intent=intent)


# ------------------------------------------------------------------ #
# Tracer hooks (consumed by repro.obs)                               #
# ------------------------------------------------------------------ #

class TracerHooks:
    """No-op base interface for launch-level tracers.

    The vocabulary mirrors how the host observes a bulk-synchronous
    device:

    * span scopes (``on_span_begin`` / ``on_span_end``) delimit
      hierarchical regions — driver runs, do-while iterations, marking
      kernels;
    * ``on_launch`` reports one completed kernel launch (or one
      barrier-separated wave / conflict phase of a running kernel) with
      its operation counts, from which a tracer derives a cost-model
      duration;
    * ``on_gauge`` samples a named scalar (worklist occupancy, bytes
      live, threads-per-block, ...) at the current point of the span
      timeline;
    * ``on_geometry`` reports the launch geometry so barrier crossings
      can be priced for the configuration actually in flight.

    All hooks are *observational*: a tracer must not mutate device
    state and must not draw from any RNG, so traced runs stay
    byte-identical to untraced ones.
    """

    def on_span_begin(self, name: str, cat: str = "span", **args) -> None:
        pass

    def on_span_end(self, **args) -> None:
        pass

    def on_launch(self, name: str, *, cat: str = "kernel.launch",
                  items: int = 0, aborted: int = 0, word_reads: int = 0,
                  word_writes: int = 0, atomics: int = 0, barriers: int = 0,
                  launches: int = 1, issued_lane_steps: int = 0,
                  critical_lane_steps: int = 0) -> None:
        pass

    def on_gauge(self, name: str, value: float) -> None:
        pass

    def on_geometry(self, blocks: int, threads_per_block: int) -> None:
        pass


@contextmanager
def trace_span(name: str, cat: str = "span", **args):
    """Open a tracer span for the ``with`` block (no-op when inactive)."""
    tr = TRACER.value
    if tr is None:
        yield None
        return
    tr.on_span_begin(name, cat=cat, **args)
    try:
        yield tr
    finally:
        tr.on_span_end()


def trace_launch(name: str, **counts) -> None:
    """Report a completed launch/phase to the active tracer, if any."""
    tr = TRACER.value
    if tr is not None:
        tr.on_launch(name, **counts)


def trace_gauge(name: str, value: float) -> None:
    """Sample a gauge on the active tracer, if any."""
    tr = TRACER.value
    if tr is not None:
        tr.on_gauge(name, value)


# ------------------------------------------------------------------ #
# Fault hooks (consumed by repro.vgpu.faults / repro.resilience)     #
# ------------------------------------------------------------------ #

class FaultHooks:
    """No-op base interface for device fault injectors.

    Unlike the sanitizer and tracer — which *observe* — a fault client
    may **raise** from any hook (a typed :class:`repro.errors.\
DeviceFault` subclass) or sleep wall-clock time, modeling the device
    failing underneath the host.  It must still never mutate device
    state or draw from a shared RNG, so a run whose faults are all
    absorbed by the resilience layer stays byte-identical to a
    fault-free run.

    The hook vocabulary covers the device's failure surfaces:

    * ``on_malloc`` — a :class:`~repro.vgpu.memory.DeviceAllocator`
      request (and driver-level array growth): may raise
      :class:`~repro.errors.OutOfDeviceMemory`;
    * ``on_chunk_alloc`` — the §7.1 Kernel-Only chunk pool handing out
      a fresh chunk: may raise :class:`~repro.errors.\
ChunkPoolExhausted`;
    * ``on_pool_release`` — the §7.2 recycle free-list absorbing
      deleted slots: may raise :class:`~repro.errors.\
RecyclePoolExhausted`;
    * ``on_kernel_launch`` — a named launch about to start: may raise
      :class:`~repro.errors.KernelAborted` (the retryable transient);
    * ``on_transfer`` — a host<->device copy of ``words`` words: may
      sleep (slow-PCIe modeling) but must not raise.
    """

    def on_malloc(self, nbytes: int) -> None:
        pass

    def on_chunk_alloc(self) -> None:
        pass

    def on_pool_release(self, n: int) -> None:
        pass

    def on_kernel_launch(self, name: str) -> None:
        pass

    def on_transfer(self, words: int) -> None:
        pass


def fault_malloc(nbytes: int) -> None:
    """Offer an allocation of ``nbytes`` to the active fault client."""
    fc = DEVICE_FAULTS.value
    if fc is not None:
        fc.on_malloc(nbytes)


def fault_chunk() -> None:
    """Offer a chunk-pool allocation to the active fault client."""
    fc = DEVICE_FAULTS.value
    if fc is not None:
        fc.on_chunk_alloc()


def fault_pool(n: int) -> None:
    """Offer a recycle-pool release of ``n`` slots to the fault client."""
    fc = DEVICE_FAULTS.value
    if fc is not None:
        fc.on_pool_release(n)


def fault_kernel(name: str) -> None:
    """Offer a named kernel launch to the active fault client."""
    fc = DEVICE_FAULTS.value
    if fc is not None:
        fc.on_kernel_launch(name)


def fault_transfer(words: int) -> None:
    """Offer a host<->device transfer to the active fault client."""
    fc = DEVICE_FAULTS.value
    if fc is not None:
        fc.on_transfer(words)
