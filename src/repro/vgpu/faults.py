"""Deterministic device-level fault injection for the virtual GPU.

:mod:`repro.serve.faults` kills and delays *jobs*; this module fails
the *device* — the §7 failure surfaces the paper's strategies exist to
survive: allocator OOM, §7.1 chunk-pool exhaustion, transient kernel
aborts, and slow host transfers.  A :class:`DeviceFaultPlan` is plain,
seeded data (JSON- and pickle-able, like ``serve.FaultPlan``) and
materializes into a :class:`DeviceFaultInjector` — a
:class:`~repro.vgpu.instrument.FaultHooks` client installed in the
:data:`repro.hooks.DEVICE_FAULTS` slot, so it composes with the
sanitizer and tracer slots.

Determinism is the whole design: a fault fires as a pure function of
the plan and the injector's own event counters — *which* malloc, *which*
launch of *which* kernel — never of wall-clock time or any shared RNG.
``rate``-based rules use a counter-indexed hash (splitmix64 finalizer)
of ``(seed, kind, event index)``, so the same plan fails the same
events on every run, and a run whose faults are all absorbed by
:mod:`repro.resilience` produces a byte-identical result digest.

Example::

    plan = DeviceFaultPlan.of(
        DeviceFaultRule("kernel_abort", kernel="refine.apply", at=(2,)),
        DeviceFaultRule("oom", rate=0.05, seed=7),
    )
    with plan.injector().activate() as inj:
        refine_gpu(mesh, cfg, resilience=Resilience())
    assert inj.fired["kernel_abort"] == 1
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import (ChunkPoolExhausted, KernelAborted, OutOfDeviceMemory,
                      RecyclePoolExhausted)
from ..hooks import DEVICE_FAULTS
from . import instrument

__all__ = ["FAULT_KINDS", "DeviceFaultRule", "DeviceFaultPlan",
           "DeviceFaultInjector"]

#: fault kind -> the hook it arms (see :class:`instrument.FaultHooks`)
FAULT_KINDS = ("oom", "chunk_exhausted", "pool_exhausted",
               "kernel_abort", "slow_transfer")


def _hash01(seed: int, kind: str, index: int) -> float:
    """Deterministic uniform-ish value in [0, 1) for event ``index``.

    A splitmix64 finalizer over (seed, kind, index) — no RNG object, no
    shared state, so rate-based rules cannot perturb the run's own
    random stream.  ``kind`` is folded with crc32 (NOT ``hash()``,
    whose per-process salt would make worker processes disagree).
    """
    x = (seed * 0x9E3779B97F4A7C15 + zlib.crc32(kind.encode())
         + index * 0xBF58476D1CE4E5B9)
    x &= 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x / 2.0 ** 64


@dataclass(frozen=True)
class DeviceFaultRule:
    """One seeded fault rule.

    ``kind``
        One of :data:`FAULT_KINDS`.
    ``at``
        1-based event indices the rule fires on (counted per kind, and
        per kernel name when ``kernel`` is set).  Empty = use ``rate``.
    ``rate``
        Probability-like deterministic firing rate in [0, 1]; event
        ``i`` fires iff ``hash01(seed, kind, i) < rate``.
    ``kernel``
        For ``kernel_abort``: only launches whose name equals (or, with
        a trailing ``*``, starts with) this string are counted/failed.
    ``delay_s``
        For ``slow_transfer``: wall-clock seconds to sleep per firing.
    """

    kind: str
    at: tuple[int, ...] = ()
    rate: float = 0.0
    seed: int = 0
    kernel: str | None = None
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown device-fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        object.__setattr__(self, "at", tuple(int(a) for a in self.at))

    def fires(self, index: int) -> bool:
        """Does this rule fire on (1-based) event ``index`` of its kind?"""
        if self.at:
            return index in self.at
        if self.rate <= 0.0:
            return False
        return _hash01(self.seed, self.kind, index) < self.rate

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.at:
            d["at"] = list(self.at)
        if self.rate:
            d["rate"] = self.rate
        if self.seed:
            d["seed"] = self.seed
        if self.kernel is not None:
            d["kernel"] = self.kernel
        if self.delay_s:
            d["delay_s"] = self.delay_s
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "DeviceFaultRule":
        return cls(kind=d["kind"], at=tuple(d.get("at", ())),
                   rate=float(d.get("rate", 0.0)),
                   seed=int(d.get("seed", 0)),
                   kernel=d.get("kernel"),
                   delay_s=float(d.get("delay_s", 0.0)))


@dataclass(frozen=True)
class DeviceFaultPlan:
    """A set of :class:`DeviceFaultRule`\\ s — one job's device weather."""

    rules: tuple[DeviceFaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def of(cls, *rules: DeviceFaultRule) -> "DeviceFaultPlan":
        return cls(rules=rules)

    def to_dict(self) -> dict:
        return {"rules": [r.to_dict() for r in self.rules]}

    @classmethod
    def from_dict(cls, d: Mapping) -> "DeviceFaultPlan":
        return cls(rules=tuple(DeviceFaultRule.from_dict(r)
                               for r in d.get("rules", ())))

    def injector(self) -> "DeviceFaultInjector":
        return DeviceFaultInjector(self)


class DeviceFaultInjector(instrument.FaultHooks):
    """A :class:`DeviceFaultPlan` bound to one run.

    Keeps per-kind (and, for kernel rules, per-kernel-name) event
    counters; ``fired`` tallies what actually went off, for assertions
    and gauges.  Counters are the injector's own — create a fresh
    injector per attempt, exactly like ``serve.FaultInjector``.
    """

    def __init__(self, plan: DeviceFaultPlan) -> None:
        self.plan = plan
        self.events: dict[str, int] = dict.fromkeys(FAULT_KINDS, 0)
        self.kernel_events: dict[str, int] = {}
        self.fired: dict[str, int] = dict.fromkeys(FAULT_KINDS, 0)

    # -- bookkeeping ----------------------------------------------- #

    def _rules(self, kind: str) -> Iterable[DeviceFaultRule]:
        return (r for r in self.plan.rules if r.kind == kind)

    def _bump(self, kind: str) -> int:
        self.events[kind] += 1
        return self.events[kind]

    def _note_fired(self, kind: str) -> None:
        self.fired[kind] += 1
        instrument.trace_gauge(f"faults.{kind}", self.fired[kind])

    # -- FaultHooks ------------------------------------------------- #

    def on_malloc(self, nbytes: int) -> None:
        idx = self._bump("oom")
        for rule in self._rules("oom"):
            if rule.fires(idx):
                self._note_fired("oom")
                raise OutOfDeviceMemory(
                    f"injected device OOM (malloc event {idx}, "
                    f"{nbytes} bytes)", requested=nbytes, unit="bytes",
                    injected=True)

    def on_chunk_alloc(self) -> None:
        idx = self._bump("chunk_exhausted")
        for rule in self._rules("chunk_exhausted"):
            if rule.fires(idx):
                self._note_fired("chunk_exhausted")
                raise ChunkPoolExhausted(
                    f"injected chunk-pool exhaustion (chunk event {idx})",
                    requested=1, available=0, unit="chunks", injected=True)

    def on_pool_release(self, n: int) -> None:
        idx = self._bump("pool_exhausted")
        for rule in self._rules("pool_exhausted"):
            if rule.fires(idx):
                self._note_fired("pool_exhausted")
                raise RecyclePoolExhausted(
                    f"injected recycle-pool exhaustion (release event "
                    f"{idx}, {n} slots)", requested=n, available=0,
                    unit="slots", injected=True)

    def on_kernel_launch(self, name: str) -> None:
        idx = self._bump("kernel_abort")
        bumped: set[str] = set()
        for rule in self._rules("kernel_abort"):
            if rule.kernel is None:
                rule_idx = idx
            elif self._kernel_match(rule.kernel, name):
                key = rule.kernel
                if key not in bumped:       # once per launch, not per rule
                    bumped.add(key)
                    self.kernel_events[key] = \
                        self.kernel_events.get(key, 0) + 1
                rule_idx = self.kernel_events[key]
            else:
                continue
            if rule.fires(rule_idx):
                self._note_fired("kernel_abort")
                raise KernelAborted(kernel=name, event=rule_idx,
                                    injected=True)

    def on_transfer(self, words: int) -> None:
        idx = self._bump("slow_transfer")
        for rule in self._rules("slow_transfer"):
            if rule.fires(idx):
                self._note_fired("slow_transfer")
                if rule.delay_s > 0.0:
                    time.sleep(rule.delay_s)

    @staticmethod
    def _kernel_match(pattern: str, name: str) -> bool:
        if pattern.endswith("*"):
            return name.startswith(pattern[:-1])
        return name == pattern

    # -- convenience ------------------------------------------------ #

    def activate(self):
        """Install this injector in the ``DEVICE_FAULTS`` slot."""
        return DEVICE_FAULTS.use(self)
