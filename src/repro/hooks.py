"""The one hook mechanism: process-wide slots for opt-in clients.

Three clients watch or perturb the morph kernels: the §7.3 race
sanitizer (:mod:`repro.analysis`), the span tracer (:mod:`repro.obs`)
and the §7.1/§7.2 fault-and-fallback layer (:mod:`repro.vgpu.faults`,
:mod:`repro.serve.faults`, :mod:`repro.resilience`).  Each kind of
client lives in one :class:`Slot`; the device primitives and drivers
read ``SLOT.value`` — a single attribute load, ``None`` when the
client is off — and a client is installed for a dynamic extent with
``SLOT.use(obj)``::

    from repro.hooks import TRACER

    with TRACER.use(tracer):      # what Tracer.activate() does
        refine_gpu(mesh)
    with TRACER.use(None):        # suppress for the block
        ...

This module imports nothing from :mod:`repro`, so any layer can import
it at module top without a cycle.  The client interfaces
(:class:`repro.vgpu.instrument.SanitizerHooks` and friends) and the
emit helpers (``trace_span``, ``record_write``, ``fault_kernel``, ...)
live with their layers and read the slots below.
"""

from __future__ import annotations

import functools
from contextlib import ExitStack, contextmanager
from typing import Generic, TypeVar

__all__ = ["Slot", "SANITIZER", "TRACER", "DEVICE_FAULTS", "JOB_FAULTS",
           "DISK_FAULTS", "instrumented", "driver_entry"]

T = TypeVar("T")


class Slot(Generic[T]):
    """One hook point: the innermost active client, or ``None``."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: T | None = None

    @contextmanager
    def use(self, obj: T | None):
        """Install ``obj`` (``None`` suppresses) for the ``with`` block.

        Uses nest; the outer value is restored on exit, also when the
        block raises.  Yields ``obj``.
        """
        prev = self.value
        self.value = obj
        try:
            yield obj
        finally:
            self.value = prev


#: :class:`repro.vgpu.instrument.SanitizerHooks` (a race detector)
SANITIZER: Slot = Slot("sanitizer")
#: :class:`repro.vgpu.instrument.TracerHooks` (a span tracer)
TRACER: Slot = Slot("tracer")
#: :class:`repro.vgpu.instrument.FaultHooks` (a device fault injector)
DEVICE_FAULTS: Slot = Slot("device_faults")
#: :class:`repro.serve.faults.FaultInjector` (job kill/delay faults)
JOB_FAULTS: Slot = Slot("job_faults")
#: :class:`repro.serve.faults.DiskFaultInjector` (durable-write faults)
DISK_FAULTS: Slot = Slot("disk_faults")


@contextmanager
def instrumented(sanitizer=None, tracer=None, resilience=None):
    """Enter the hooks that are not ``None``; leave the others alone.

    ``resilience`` (a :class:`repro.resilience.Resilience`) is entered
    through its own ``activate()``, which installs its device-fault
    injector when it carries a fault plan.
    """
    with ExitStack() as stack:
        if sanitizer is not None:
            stack.enter_context(SANITIZER.use(sanitizer))
        if tracer is not None:
            stack.enter_context(TRACER.use(tracer))
        if resilience is not None:
            stack.enter_context(resilience.activate())
        yield


def driver_entry(span_name: str):
    """Decorate an algorithm driver's public entry point.

    The wrapper reads the driver's own ``sanitizer=`` / ``tracer=`` /
    ``resilience=`` keywords, enters :func:`instrumented` with them and
    opens a ``cat="driver"`` span named ``span_name`` around the call.
    The keywords are passed on unchanged, so the driver keeps its
    signature.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def entry(*args, **kwargs):
            with instrumented(kwargs.get("sanitizer"), kwargs.get("tracer"),
                              kwargs.get("resilience")):
                tr = TRACER.value
                if tr is None:
                    return fn(*args, **kwargs)
                tr.on_span_begin(span_name, cat="driver")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tr.on_span_end()
        return entry
    return wrap
