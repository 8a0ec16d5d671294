"""Shared measurement helpers: percentiles, memory, failure tally and the
environment stamp every result carries."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in [0, 100]); NaN if empty."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def more_time(passes: list, seconds: float) -> bool:
    """Whether another pass fits: always one, then more while the
    passes so far plus one more of median length stay within budget."""
    return not passes or sum(passes) + median(passes) <= seconds


def self_rss_mb() -> float:
    """Peak resident set of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, MB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; it fails unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.exists():
                return target.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def src_digest() -> str:
    """SHA-256 over every source file under ``src/`` (path + bytes): the
    program's identity where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": _git_sha(),
            "src_sha256": src_digest(),
            "platform": platform.platform(),
            "seed": seed}


@dataclass
class Outcome:
    """What one workload run measured, before it becomes metrics."""

    #: seconds of each set-up repetition
    setup: list = field(default_factory=list)
    #: seconds of each timed pass over the workload's fixed batch
    passes: list = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    rss_mb: float = 0.0
    #: output digests, identical across runs with one seed
    digests: dict = field(default_factory=dict)
    #: ``vgpu.modeled_s.*``: the cost model's seconds for each driver
    modeled: dict = field(default_factory=dict)
    #: per-layer metric name -> value (traced runs)
    layers: dict = field(default_factory=dict)
    #: percentile metric name -> how many samples it was taken over
    samples: dict = field(default_factory=dict)
    #: further facts for the result file (sample counts, sizes)
    notes: dict = field(default_factory=dict)
