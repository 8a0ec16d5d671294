"""repro.storage — one durable-write discipline for every artifact.

Three subsystems grew their own temp-file + ``os.replace`` writers
(serve checkpoints, the tune cache, scenario files), and none of them
fsync'd — so the atomicity they promised held against a *process*
crash but not against power loss: ``os.replace`` makes the rename
atomic, but without fsync-file-then-fsync-dir ordering a crash can
publish a name whose *bytes* never reached the platter.  This module
is the single implementation they (and the gateway's write-ahead
journal) now share:

* :func:`atomic_write_bytes` / :func:`atomic_write_json` — write a
  temp file next to the target, ``fsync`` the file, ``os.replace`` it
  over the target, then ``fsync`` the directory, in that order.  The
  published path therefore only ever holds the complete old version or
  the complete new version — never a mix — and the new version is
  durable once the call returns.
* :func:`fsync_dir` — best-effort directory fsync (some filesystems
  refuse it; that is their durability bug, not a crash of ours).
* :func:`quarantine` — the shared move-the-evidence-aside rename every
  loader uses before raising its typed
  :class:`~repro.errors.ArtifactError`.

Every write is also a **disk-fault site**: if a
:class:`repro.serve.faults.DiskFaultInjector` is active (in the
:data:`repro.hooks.DISK_FAULTS` slot), the write consults it and
acts out the fired kind at the exact protocol step it models —
``enospc`` and ``torn_write`` cut the temp write short,
``replace_crash`` dies before the rename, ``fsync_lost`` models power
loss around the publish point (and is the one kind that can corrupt
the *published* file, precisely when the caller opted out of fsync).
The property suite in ``tests/test_storage.py`` kills a write at every
site and asserts old-or-new for every store built on this module.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import DiskFull, FaultInjected, TornWrite
from .hooks import DISK_FAULTS

__all__ = ["atomic_write_bytes", "atomic_write_json", "fsync_dir",
           "quarantine"]


def fsync_dir(path: str | Path) -> None:
    """Best-effort fsync of directory ``path`` (makes a just-renamed
    entry durable).  Filesystems that refuse directory fsync are
    silently tolerated."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _torn(data: bytes) -> bytes:
    """The deterministic torn prefix a cut-short write leaves behind."""
    return data[: len(data) // 2]


def atomic_write_bytes(path: str | Path, data: bytes, *,
                       fsync: bool = True, on_publish=None) -> Path:
    """Atomically and durably publish ``data`` at ``path``.

    Protocol: write ``<name>.tmp`` beside the target, fsync it, rename
    it over the target with ``os.replace``, fsync the directory.  With
    ``fsync=False`` the fsyncs are skipped (a caller that only needs
    atomicity against process crash, or a benchmark isolating fsync
    cost) — and the modeled ``fsync_lost`` disk fault will then tear
    the published file, which is exactly the hazard the flag buys into.

    ``on_publish`` (when given) runs after the temp write and before
    the rename — the historical :mod:`repro.tune` kill site, kept so
    its atomicity property tests keep proving that window empty.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    injector = DISK_FAULTS.value
    kind = injector.on_write(path) if injector is not None else None

    if kind == "enospc":
        # Partial write until the disk filled; the error returns to the
        # caller, so the tmp is what a real ENOSPC leaves behind.
        tmp.write_bytes(_torn(data))
        raise DiskFull(f"injected ENOSPC writing {path} "
                       f"(write event {injector.writes})",
                       path=path, operation="write")
    if kind == "torn_write":
        # Process death mid-write: a torn tmp, nothing published.
        tmp.write_bytes(_torn(data))
        raise TornWrite(f"injected torn write at {path} "
                        f"(write event {injector.writes})",
                        path=path, operation="write")

    with open(tmp, "wb") as fh:
        fh.write(data)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())

    if kind == "replace_crash":
        # Death between the durable tmp and the publishing rename: the
        # complete tmp survives, the target still holds the old version.
        raise FaultInjected(
            f"injected crash before publish rename of {path} "
            f"(write event {injector.writes})")
    if kind == "fsync_lost":
        if fsync:
            # The tmp bytes were fsync'd, so the only thing power loss
            # can take is the rename itself: old version intact.
            raise FaultInjected(
                f"injected power loss; rename of {path} not durable "
                f"(write event {injector.writes})")
        # No fsync ordering: the rename landed but the page cache died
        # with the power — the published file is torn.  This is the
        # corruption quarantine paths exist for.
        os.replace(tmp, path)
        path.write_bytes(_torn(data))
        raise FaultInjected(
            f"injected power loss; unsynced bytes of {path} torn "
            f"(write event {injector.writes})")

    if on_publish is not None:
        on_publish()
    os.replace(tmp, path)
    if fsync:
        fsync_dir(path.parent)
    return path


def atomic_write_json(path: str | Path, obj, *, fsync: bool = True,
                      sort_keys: bool = True, indent: int | None = 1,
                      on_publish=None) -> Path:
    """:func:`atomic_write_bytes` for canonical JSON documents (sorted
    keys, fixed indent, trailing newline — byte-identical for equal
    inputs, the serialization the tune cache and scenarios pin)."""
    text = json.dumps(obj, sort_keys=sort_keys, indent=indent) + "\n"
    return atomic_write_bytes(path, text.encode(), fsync=fsync,
                              on_publish=on_publish)


def quarantine(path: str | Path, suffix: str = ".corrupt") -> Path | None:
    """Move a corrupt artifact aside (never delete the evidence).

    Returns the quarantined path, or ``None`` when even the rename
    failed and the file had to be dropped to keep the slot usable (the
    shared last resort of every loader).
    """
    path = Path(path)
    target = path.with_name(path.name + suffix)
    try:
        os.replace(path, target)
        return target
    except OSError:
        path.unlink(missing_ok=True)
        return None
