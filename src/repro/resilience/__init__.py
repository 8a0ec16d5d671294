"""Graceful degradation policies for the morph drivers.

The paper's §7 strategy menu is not just a performance ablation — it is
a *fallback ladder*: §7.1's Kernel-Only chunked malloc explicitly gives
way to Kernel-Host and Host-Only when in-kernel allocation fails, and
§7.2's Recycling exists precisely to survive allocation pressure.  This
package packages those ladders (plus an engine stall watchdog) as
reusable policies consumed by every driver through an opt-in
``resilience=`` keyword, mirroring ``sanitizer=`` and ``tracer=``:

* :class:`Resilience` / :class:`ResiliencePolicy`
  (:mod:`~repro.resilience.policy`) — the per-run runtime: retry
  budgets, the degradation event log (fed to the tracer as
  ``resilience.*`` gauges), and the device-fault plan activation.
* :class:`FallbackStorage` / :class:`GrowthAndRetry` / :func:`grow_array`
  (:mod:`~repro.resilience.addition`) — the §7.1 addition chain:
  Kernel-Only → Kernel-Host → Host-Only, and growth-and-retry for
  Pre-allocation.
* :class:`ResilientRecyclePool` (:mod:`~repro.resilience.deletion`) —
  the §7.2 chain: Recycling → Marking on pool exhaustion.
* :class:`StallLadder` (:mod:`~repro.resilience.watchdog`) — the
  engine's seeded escalation ladder (re-randomize conflict priorities →
  shrink batch → serialize the worklist) that replaces the old hard
  stall ``RuntimeError`` with a typed
  :class:`repro.errors.EngineStalled` only after every level fails.

Determinism contract: a degraded completion is still deterministic —
the same seed plus the same :class:`repro.vgpu.faults.DeviceFaultPlan`
produces a byte-identical result digest, and a run whose faults are
limited to absorbed OOM/abort/slow-transfer events digests identically
to the fault-free run (degradation is recorded out-of-band, never in
the result payload).
"""

from .addition import FallbackStorage, GrowthAndRetry, grow_array
from .deletion import ResilientRecyclePool
from .policy import Resilience, ResiliencePolicy, launch_ok
from .watchdog import StallLadder

__all__ = ["Resilience", "ResiliencePolicy", "launch_ok",
           "FallbackStorage", "GrowthAndRetry", "grow_array",
           "ResilientRecyclePool", "StallLadder"]
