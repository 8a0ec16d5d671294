"""Concurrent job serving for the morph-algorithm drivers.

The paper's measurements are one-algorithm-at-a-time; this package
treats the six drivers (DMR, mesh point insertion, survey propagation,
points-to analysis, Boruvka MST, and the generic morph engine) as a
*workload* to be scheduled:

* :mod:`.jobs` — :class:`JobSpec` (algorithm + input-generator params +
  strategy + seed + robustness envelope) and the adapter registry;
* :mod:`.pool` — process-pool execution with per-job cooperative
  timeouts, bounded exponential-backoff retries, and checkpoint resume;
* :mod:`.checkpoint` — durable, atomically-written round-state
  checkpoints;
* :mod:`.faults` — deterministic kill/delay and disk fault injection,
  installed through the :mod:`repro.hooks` slots;
* :mod:`.scheduler` — FIFO / SJF batch ordering, per-job tracer spans
  and queue gauges, and the :class:`BatchReport` summary.

Virtual multi-tenancy — pricing what the *modeled GPU* would do if the
batch space-shared one device through CUDA-stream-style partitions —
lives in :mod:`repro.vgpu.streams` and is surfaced through the CLI's
``--streams`` flag.

Run a batch from the shell::

    python -m repro.serve examples/serve_jobs.json --workers 2 --policy sjf
"""

from .checkpoint import CheckpointStore, dumps_state, loads_state
from .faults import (DISK_KINDS, DiskFaultInjector, DiskFaultPlan,
                     DiskFaultRule, FaultInjector, FaultPlan)
from .jobs import (JobContext, JobError, JobResult, JobSpec, digest_arrays,
                   estimate_cost, get_adapter, known_algorithms)
from .mutations import (OPS_BY_ALGORITHM, GraphMutationEffect,
                        apply_clause_mutations, apply_constraint_mutations,
                        apply_graph_mutations, apply_graph_mutations_tracked,
                        apply_point_mutations, check_mutations)
from .pool import JobRecord, JobTimeout, run_job, submit_batch
from .scheduler import BatchReport, Scheduler, order_jobs

__all__ = [
    "CheckpointStore", "dumps_state", "loads_state",
    "FaultInjector", "FaultPlan",
    "DISK_KINDS", "DiskFaultInjector", "DiskFaultPlan", "DiskFaultRule",
    "JobContext", "JobError", "JobResult", "JobSpec", "digest_arrays",
    "estimate_cost", "get_adapter", "known_algorithms",
    "OPS_BY_ALGORITHM", "GraphMutationEffect", "check_mutations",
    "apply_graph_mutations", "apply_graph_mutations_tracked",
    "apply_clause_mutations", "apply_constraint_mutations",
    "apply_point_mutations",
    "JobRecord", "JobTimeout", "run_job", "submit_batch",
    "BatchReport", "Scheduler", "order_jobs",
]
