"""Worker-pool job execution with timeouts, retries, and resume.

The execution model mirrors a small production queue:

* **Processes, not threads.**  Jobs run in a
  :class:`concurrent.futures.ProcessPoolExecutor`; each worker imports
  the driver stack once and then serves many jobs.  ``workers=0``
  selects an inline, in-process path with identical semantics — that is
  the mode determinism tests use, and it is also what makes
  cross-worker-count byte-identity checks meaningful (the same
  :func:`_execute_job` body runs either way).

* **Retries live inside the worker.**  A pool cannot kill a single
  worker process, so per-attempt control (fault injection, cooperative
  timeout, exponential backoff, checkpoint restore) happens in an
  attempt loop inside :func:`_execute_job` rather than by resubmitting
  futures.  Every attempt gets a *fresh* :class:`OpCounter`; a failed
  attempt's partial tallies are discarded, so the totals of a
  retried-and-resumed job equal those of an uninterrupted run.

* **Timeouts are cooperative.**  The engine's ``round_hook`` checks a
  wall-clock deadline at each round boundary and raises
  :class:`JobTimeout`; drivers without round hooks only honor the
  deadline at job start.  This matches the checkpoint granularity — a
  job can only resume from a round boundary, so that is also where it
  makes sense to give up.

* **Checkpoints make retries cheap.**  When a spec carries
  ``checkpoint_every > 0`` and the batch has a checkpoint directory,
  each attempt first consults the :class:`CheckpointStore`; a fresh
  attempt resumes from the last durable round (restoring the engine's
  RNG state and counter) instead of restarting.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

from ..core.counters import OpCounter
from ..core.engine import EngineCheckpoint
from ..errors import CorruptCheckpoint, FaultInjected
from ..hooks import DEVICE_FAULTS, DISK_FAULTS, JOB_FAULTS
from ..resilience import Resilience
from .checkpoint import CheckpointStore
from .faults import FaultInjector
from .jobs import (JobContext, JobError, JobResult, JobSpec, digest_arrays,
                   get_adapter)

__all__ = ["JobRecord", "JobTimeout", "run_job", "submit_batch"]


class JobTimeout(JobError):
    """A job attempt exceeded its cooperative wall-clock budget."""


@dataclass
class JobRecord:
    """The pool's full account of one job: outcome plus scheduling facts."""

    spec: JobSpec
    status: str = "pending"             # "ok" | "failed"
    result: JobResult | None = None
    attempts: int = 0
    #: one message per failed attempt, oldest first
    failures: list = field(default_factory=list)
    #: seconds between batch submit and the job starting to execute
    queue_wait_s: float = 0.0
    #: seconds spent executing (all attempts, including backoff)
    service_s: float = 0.0
    #: round the successful attempt resumed from (0 = clean start)
    resumed_round: int = 0
    #: the successful attempt degraded gracefully (resilience absorbed
    #: at least one device fault or stall)
    degraded: bool = False
    #: the degradation event log of the successful attempt (out-of-band
    #: — never part of the result digest)
    resilience_events: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _execute_job(spec_dict: dict, checkpoint_dir: str | None,
                 submitted_at: float) -> JobRecord:
    """Run one job to completion (or exhaustion) inside a worker.

    Module-level so it pickles for ``ProcessPoolExecutor``; takes the
    spec as a dict for the same reason.
    """
    spec = JobSpec.from_dict(spec_dict)
    record = JobRecord(spec=spec)
    record.queue_wait_s = max(0.0, time.monotonic() - submitted_at)
    started = time.monotonic()

    store = (CheckpointStore(checkpoint_dir)
             if checkpoint_dir and spec.checkpoint_every > 0 else None)
    adapter = get_adapter(spec.algorithm)
    max_attempts = 1 + max(0, spec.retries)

    for attempt in range(1, max_attempts + 1):
        record.attempts = attempt
        injector = (FaultInjector(spec.fault, attempt=attempt)
                    if spec.fault is not None and not spec.fault.is_device
                    else None)
        device_plan = (spec.fault.device_plan(attempt)
                       if spec.fault is not None else None)
        resil = (Resilience(faults=device_plan)
                 if spec.resilience else None)
        # Without resilience the pool installs the device injector
        # itself, so the typed fault propagates as a retryable failure;
        # with it, the driver's resilience= entry installs it.
        device_injector = (device_plan.injector()
                           if device_plan is not None and resil is None
                           else None)
        # Disk-fault plans target the attempt's durable writes (the
        # checkpoint spool): every atomic_write consults this injector.
        disk_plan = (spec.fault.disk_plan(attempt)
                     if spec.fault is not None else None)
        disk_injector = disk_plan.injector() if disk_plan is not None else None
        deadline = (time.monotonic() + spec.timeout_s
                    if spec.timeout_s is not None else None)

        try:
            resume = store.load(spec.name) if store is not None else None
        except CorruptCheckpoint:
            # The store already quarantined the file; a clean restart is
            # the documented fallback for a lost checkpoint.
            resume = None
        counter = (resume.counter if isinstance(resume, EngineCheckpoint)
                   else OpCounter())

        def round_hook(round_: int) -> None:
            if injector is not None:
                injector.on_round(round_)
            if deadline is not None and time.monotonic() > deadline:
                raise JobTimeout(
                    f"{spec.name}: attempt {attempt} passed "
                    f"{spec.timeout_s}s at round {round_}")

        ctx = JobContext(
            counter=counter,
            round_hook=round_hook,
            checkpoint_every=spec.checkpoint_every,
            save_checkpoint=(
                (lambda ck: store.save(spec.name, ck))
                if store is not None else None),
            resume_state=resume,
            resilience=resil,
        )
        try:
            with ExitStack() as hooks:
                for slot, hook in ((JOB_FAULTS, injector),
                                   (DEVICE_FAULTS, device_injector),
                                   (DISK_FAULTS, disk_injector)):
                    if hook is not None:
                        hooks.enter_context(slot.use(hook))
                if injector is not None:
                    injector.on_job_start()
                if deadline is not None and time.monotonic() > deadline:
                    raise JobTimeout(
                        f"{spec.name}: attempt {attempt} had no budget")
                if spec.params.get("session"):
                    # A session job: stream its mutation batches
                    # incrementally (lazy import — most batches carry
                    # no sessions and should not pay for the package).
                    from ..sessions.serve import run_session_job

                    arrays, summary = run_session_job(spec, ctx)
                else:
                    arrays, summary = adapter(
                        spec.params, spec.strategy, spec.seed, ctx)
        except (FaultInjected, JobError, ValueError, RuntimeError) as exc:
            record.failures.append(
                f"attempt {attempt}: {type(exc).__name__}: {exc}")
            if attempt < max_attempts and spec.backoff_s > 0:
                time.sleep(spec.backoff_s * 2 ** (attempt - 1))
            continue

        if isinstance(resume, EngineCheckpoint):
            record.resumed_round = resume.round
        if resil is not None and resil.degraded:
            record.degraded = True
            record.resilience_events = [dict(e) for e in resil.events]
        record.result = JobResult(
            name=spec.name, algorithm=spec.algorithm,
            digest=digest_arrays(arrays, summary),
            summary=dict(summary), counter=counter)
        record.status = "ok"
        if store is not None:
            store.clear(spec.name)
        break
    else:
        record.status = "failed"

    record.service_s = time.monotonic() - started
    return record


def run_job(spec: JobSpec, checkpoint_dir: str | None = None) -> JobRecord:
    """Execute one spec inline (the ``workers=0`` path)."""
    return _execute_job(spec.to_dict(), checkpoint_dir, time.monotonic())


def submit_batch(specs, *, workers: int = 0,
                 checkpoint_dir: str | None = None,
                 executor=None) -> list[JobRecord]:
    """Run ``specs`` and return records in submission order.

    ``workers=0`` runs every job inline in this process (deterministic,
    no pickling); ``workers>=1`` fans out over a process pool, with
    results still reported in submission order.

    ``executor`` injects a reusable :class:`ProcessPoolExecutor`-shaped
    pool (anything with ``submit``): repeat callers keep their workers
    warm across batches instead of paying process startup per batch —
    the caller owns the executor's lifetime, and it is *not* shut down
    here.  Ignored on the inline path, which stays byte-identical.
    """
    specs = list(specs)
    if workers <= 0 and executor is None:
        return [run_job(s, checkpoint_dir) for s in specs]
    submitted = time.monotonic()
    if executor is not None:
        futures = [executor.submit(_execute_job, s.to_dict(),
                                   checkpoint_dir, submitted)
                   for s in specs]
        return [f.result() for f in futures]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_execute_job, s.to_dict(), checkpoint_dir,
                               submitted)
                   for s in specs]
        return [f.result() for f in futures]
