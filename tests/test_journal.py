"""Unit tests for the gateway write-ahead journal and its recovery fold.

Tier-1: no worker pools, no HTTP — the journal is a file format plus an
append discipline, and recovery is a pure fold, so both are testable in
milliseconds.  The end-to-end crash-restart behaviour (SIGKILL a serving
gateway, restart, exactly-once) lives in
``python -m repro.gateway smoke --crash-restart``.
"""

from __future__ import annotations

import pytest

from repro.errors import CorruptJournal, DiskFull, FaultInjected, TornWrite
from repro.gateway.journal import (JOURNAL_SCHEMA, Journal, _decode,
                                   _encode, read_journal)
from repro.gateway.recovery import recover_state
from repro.serve.faults import DiskFaultPlan, DiskFaultRule


def _admit(seq, *, kind="job", tenant="acme", name="j", key=None,
           **extra):
    rec = {"t": "admit", "kind": kind, "tenant": tenant, "name": name,
           "seq": seq, "job_id": f"{tenant}:{name}:{seq}", "cost": 1.0,
           **extra}
    if key is not None:
        rec["key"] = key
    return rec


def _done(rec, **result):
    return {"t": "done", "job_id": rec["job_id"],
            "tenant": rec["tenant"], "status": "ok",
            "result": {"job_id": rec["job_id"], "status": "ok",
                       **result}}


# ------------------------------------------------------------------ #
# Record codec                                                        #
# ------------------------------------------------------------------ #

class TestCodec:
    def test_round_trip(self):
        rec = {"t": "admit", "job_id": "a:j:1", "nested": {"x": [1, 2]}}
        assert _decode(_encode(rec)) == rec

    def test_encoding_is_canonical(self):
        a = _encode({"b": 1, "a": 2})
        b = _encode({"a": 2, "b": 1})
        assert a == b

    @pytest.mark.parametrize("line", [
        b"", b"\n", b"short\n",
        b"00000000 {}",                     # no trailing newline
        b"zzzzzzzz {}\n",                   # unparsable checksum
        b"00000000 {}\n",                   # wrong checksum
        b"00000000-{}\n",                   # no separator
    ])
    def test_torn_or_invalid_lines_decode_to_none(self, line):
        assert _decode(line) is None

    def test_flipped_byte_fails_the_checksum(self):
        line = bytearray(_encode({"t": "done", "job_id": "x"}))
        line[-3] ^= 0x01
        assert _decode(bytes(line)) is None


# ------------------------------------------------------------------ #
# Append / replay                                                     #
# ------------------------------------------------------------------ #

class TestJournal:
    def test_missing_file_replays_empty(self, tmp_path):
        replay = read_journal(tmp_path / "gateway.wal")
        assert replay.records == [] and not replay.torn_tail

    def test_fresh_journal_writes_header(self, tmp_path):
        j = Journal(tmp_path)
        j.open()
        j.close()
        replay = read_journal(j.path)
        assert replay.records[0] == {"t": "header",
                                     "schema": JOURNAL_SCHEMA}

    def test_append_replay_round_trip(self, tmp_path):
        j = Journal(tmp_path)
        j.open()
        recs = [_admit(1), _done(_admit(1)), _admit(2, kind="job")]
        for rec in recs:
            j.append(rec)
        j.close()
        assert read_journal(j.path).records[1:] == recs

    def test_torn_tail_is_tolerated_and_truncated_on_reopen(self,
                                                            tmp_path):
        j = Journal(tmp_path)
        j.open()
        j.append(_admit(1))
        j.close()
        with open(j.path, "ab") as fh:
            fh.write(b'deadbeef {"t":"torn mid-app')
        replay = read_journal(j.path)
        assert replay.torn_tail and len(replay.records) == 2

        j2 = Journal(tmp_path)
        replay2 = j2.open()        # truncates the tear
        assert replay2.torn_tail
        j2.append(_admit(2))
        j2.close()
        clean = read_journal(j2.path)
        assert not clean.torn_tail
        assert [r["t"] for r in clean.records] == ["header", "admit",
                                                   "admit"]

    def test_mid_file_corruption_is_typed_with_the_line(self, tmp_path):
        j = Journal(tmp_path)
        j.open()
        j.append(_admit(1))
        j.append(_admit(2))
        j.close()
        raw = j.path.read_bytes().splitlines(keepends=True)
        raw[1] = b"00000000 {}\n"          # damage a non-final record
        j.path.write_bytes(b"".join(raw))
        with pytest.raises(CorruptJournal) as exc:
            read_journal(j.path)
        assert exc.value.line == 2

    def test_bad_header_is_refused(self, tmp_path):
        path = tmp_path / "gateway.wal"
        path.write_bytes(_encode({"t": "admit", "seq": 1}))
        with pytest.raises(CorruptJournal) as exc:
            read_journal(path)
        assert exc.value.line == 1

    def test_unknown_record_type_is_refused(self, tmp_path):
        j = Journal(tmp_path)
        j.open()
        j.close()
        with open(j.path, "ab") as fh:
            fh.write(_encode({"t": "mystery"}))
            fh.write(_encode({"t": "done", "job_id": "x"}))
        with pytest.raises(CorruptJournal):
            read_journal(j.path)

    def test_append_after_close_is_an_error(self, tmp_path):
        j = Journal(tmp_path)
        j.open()
        j.close()
        with pytest.raises(ValueError):
            j.append(_admit(1))


# ------------------------------------------------------------------ #
# Injected append faults                                              #
# ------------------------------------------------------------------ #

class TestJournalFaults:
    def _journal(self, tmp_path, kind, at=2):
        plan = DiskFaultPlan.of(DiskFaultRule(kind=kind, at=(at,)))
        j = Journal(tmp_path, fault_plan=plan)
        j.open()                            # header = write event 1
        return j

    @pytest.mark.parametrize("kind,err", [
        ("enospc", DiskFull), ("torn_write", TornWrite),
    ])
    def test_torn_append_repairs_before_the_next_record(self, tmp_path,
                                                        kind, err):
        j = self._journal(tmp_path, kind)
        with pytest.raises(err):
            j.append(_admit(1))
        # The tear is observable on disk, exactly as a crash would
        # leave it ...
        assert read_journal(j.path).torn_tail
        # ... but the next append repairs it and lands cleanly.
        j.append(_admit(2))
        j.close()
        replay = read_journal(j.path)
        assert not replay.torn_tail
        assert [r.get("seq") for r in replay.records] == [None, 2]

    def test_fsync_lost_loses_exactly_that_record(self, tmp_path):
        j = self._journal(tmp_path, "fsync_lost")
        with pytest.raises(FaultInjected):
            j.append(_admit(1))
        j.append(_admit(2))
        j.close()
        assert [r.get("seq") for r in read_journal(j.path).records] \
            == [None, 2]

    def test_replace_crash_lands_no_bytes(self, tmp_path):
        j = self._journal(tmp_path, "replace_crash")
        size = j.path.stat().st_size
        with pytest.raises(FaultInjected):
            j.append(_admit(1))
        assert j.path.stat().st_size == size
        j.append(_admit(2))
        j.close()
        assert len(read_journal(j.path).records) == 2


# ------------------------------------------------------------------ #
# Recovery fold                                                       #
# ------------------------------------------------------------------ #

class TestRecovery:
    HEADER = {"t": "header", "schema": JOURNAL_SCHEMA}

    def test_empty_journal_recovers_to_fresh_state(self):
        state = recover_state([self.HEADER])
        assert state.next_seq == 1
        assert not state.pending_jobs and not state.completed

    def test_pending_jobs_requeue_in_admission_order(self):
        a1, a2, a3 = _admit(1, name="x"), _admit(2, name="y"), \
            _admit(3, name="z")
        state = recover_state([self.HEADER, a1, a2, a3, _done(a2)])
        assert [r["name"] for r in state.pending_jobs] == ["x", "z"]
        assert state.next_seq == 4

    def test_completed_jobs_are_not_requeued_and_keep_results(self):
        a = _admit(1, key="k1")
        state = recover_state([self.HEADER, a,
                               _done(a, digest="abc")])
        assert state.pending_jobs == []
        assert state.completed[a["job_id"]]["digest"] == "abc"
        assert state.idempotency[("acme", "k1")] == a["job_id"]

    def test_dispatch_and_checkpoint_records_carry_no_state(self):
        a = _admit(1)
        state = recover_state([
            self.HEADER, a,
            {"t": "dispatch", "job_id": a["job_id"], "slot": 0},
            {"t": "checkpoint", "job_id": a["job_id"], "session": "s"},
        ])
        assert [r["job_id"] for r in state.pending_jobs] == [a["job_id"]]

    def test_open_sessions_requeue_every_batch_in_index_order(self):
        b1 = _admit(1, kind="session_batch", name="s",
                    session={"name": "s"}, ops=[], batch_index=1)
        b2 = _admit(2, kind="session_batch", name="s",
                    session={"name": "s"}, ops=[], batch_index=2)
        state = recover_state([self.HEADER, b1, _done(b1), b2])
        skey = ("acme", "s")
        assert state.sessions[skey]["next_index"] == 3
        assert [r["batch_index"] for r in state.session_batches[skey]] \
            == [1, 2]

    def test_closed_sessions_stay_dead(self):
        b = _admit(1, kind="session_batch", name="s",
                   session={"name": "s"}, ops=[], batch_index=1)
        close = {"t": "session_close", "tenant": "acme", "name": "s"}
        state = recover_state([self.HEADER, b, _done(b), close])
        assert state.sessions == {} and state.session_batches == {}

    def test_torn_tail_flag_is_carried(self):
        assert recover_state([self.HEADER], torn_tail=True).torn_tail

    def test_next_seq_never_collides_with_recovered_ids(self):
        state = recover_state([self.HEADER, _admit(7), _admit(3)])
        assert state.next_seq == 8
