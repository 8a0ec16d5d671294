"""Kernel launch machinery for the virtual GPU.

Two execution styles coexist, mirroring how the repository is built:

* **Vectorized kernels** — production path.  A "kernel" is ordinary NumPy
  array code; :class:`KernelLauncher` wraps it with launch-geometry
  bookkeeping and records the launch in an :class:`OpCounter`.  All four
  morph algorithms use this path.

* **SPMD generator kernels** — a faithful per-thread executor used by
  tests, examples and the conflict-resolution engine's reference
  implementation.  A thread function is a Python *generator*; every
  ``yield`` is a global barrier.  Between barriers, live threads execute
  their code segments in a *randomly shuffled order*, which exposes
  exactly the races the paper's Section 7.3 reasons about (e.g. the
  two-phase race-and-prioritycheck bug).  See :func:`spmd_launch`.
"""

from __future__ import annotations

import inspect
from typing import Callable

import numpy as np

from ..core.counters import OpCounter
from ..errors import MaxRoundsExceeded
from ..hooks import SANITIZER, TRACER
from .device import GpuSpec, LaunchConfig, TESLA_C2070
from .instrument import fault_kernel, trace_span

__all__ = ["KernelLauncher", "spmd_launch"]


class KernelLauncher:
    """Bookkeeping wrapper for vectorized kernels.

    Example::

        launcher = KernelLauncher(counter, LaunchConfig(112, 256))
        with launcher.launch("refine") as rec:
            ...numpy passes...
            rec(items=n_bad, aborted=n_conflicts, atomics=3 * cavity_tris,
                word_reads=..., word_writes=..., barriers=2,
                work_per_thread=cavity_sizes)
    """

    def __init__(self, counter: OpCounter, config: LaunchConfig,
                 spec: GpuSpec = TESLA_C2070) -> None:
        self.counter = counter
        self.config = config
        self.spec = spec
        # Record geometry so the cost model can price barriers correctly.
        counter.scalars.setdefault("cfg_blocks", config.blocks)
        counter.scalars.setdefault("cfg_tpb", config.threads_per_block)
        tr = TRACER.value
        if tr is not None:
            tr.on_geometry(config.blocks, config.threads_per_block)

    def launch(self, name: str):
        return _LaunchRecorder(self, name)

    def record(self, name: str, **kwargs) -> None:
        """One-shot launch record (no context manager)."""
        kwargs.setdefault("warp_size", self.spec.warp_size)
        self.counter.launch(name, **kwargs)


class _LaunchRecorder:
    def __init__(self, launcher: KernelLauncher, name: str) -> None:
        self._launcher = launcher
        self._name = name
        self._recorded = False

    def __enter__(self):
        # The device-fault site: an active injector may refuse the
        # launch here with a (retryable) KernelAborted, before the
        # kernel body runs or the launch is recorded.
        fault_kernel(self._name)
        return self

    def __call__(self, **kwargs) -> None:
        kwargs.setdefault("warp_size", self._launcher.spec.warp_size)
        self._launcher.counter.launch(self._name, **kwargs)
        self._recorded = True

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and not self._recorded:
            # An empty launch still pays the dispatch overhead.
            self._launcher.counter.launch(self._name)
        return False


def spmd_launch(
    n_threads: int,
    thread_fn: Callable,
    *args,
    rng: np.random.Generator | None = None,
    counter: OpCounter | None = None,
    name: str = "spmd",
    max_phases: int = 1_000_000,
) -> int:
    """Execute ``thread_fn(tid, *args)`` for every thread id, SPMD-style.

    ``thread_fn`` may be a plain function (runs to completion in one
    phase) or a generator function, in which case each ``yield``
    corresponds to a device-wide barrier: all threads complete their
    current segment before any thread starts the next one.  Within a
    phase, thread order is shuffled with ``rng`` so that racy writes have
    nondeterministic winners, as on hardware.

    Returns the number of barrier phases executed.  Raises ``RuntimeError``
    if ``max_phases`` is exceeded (a deadlock guard for tests).

    When a sanitizer is active (:data:`repro.hooks.SANITIZER`), every
    barrier is reported to it (so racy same-phase accesses are grouped
    correctly) and the per-thread barrier counts are handed to its
    barrier-divergence checker at kernel exit.  Threads reaching
    different barrier counts are *legal* in this executor (the global
    barrier simply stops waiting for finished threads) but correspond to
    the classic ``__syncthreads`` divergence bug on real hardware, so
    the checker reports them as findings rather than raising.
    """
    rng = rng or np.random.default_rng()  # sta: ignore[STA204] caller-controlled test fallback
    fault_kernel(name)
    san = SANITIZER.value
    if not inspect.isgeneratorfunction(thread_fn):
        if san is not None:
            san.on_kernel_begin(name, threads=n_threads)
        with trace_span(name, cat="kernel.spmd", threads=n_threads):
            order = rng.permutation(n_threads)
            for tid in order:
                thread_fn(int(tid), *args)
            if san is not None:
                san.on_kernel_end(name)
            if counter is not None:
                counter.launch(name, items=n_threads, barriers=0)
        return 1

    if san is not None:
        san.on_kernel_begin(name, threads=n_threads)
    with trace_span(name, cat="kernel.spmd", threads=n_threads):
        gens = [thread_fn(tid, *args) for tid in range(n_threads)]
        live = list(range(n_threads))
        barrier_counts = np.zeros(n_threads, dtype=np.int64)
        phases = 0
        try:
            while live:
                phases += 1
                if phases > max_phases:
                    raise MaxRoundsExceeded(
                        "spmd_launch exceeded max_phases (deadlock?)",
                        rounds=phases)
                order = rng.permutation(len(live))
                survivors = []
                for k in order:
                    idx = live[k]
                    try:
                        next(gens[idx])
                        survivors.append(idx)
                    except StopIteration:
                        pass
                live = survivors
                if live and san is not None:
                    san.on_barrier()
                barrier_counts[survivors] += 1
        finally:
            if san is not None:
                san.on_spmd_barriers(name, barrier_counts)
                san.on_kernel_end(name)
        if counter is not None:
            counter.launch(name, items=n_threads, barriers=phases - 1)
    return phases
