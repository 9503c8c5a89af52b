#!/usr/bin/env python3
"""Exactly-once auditor for the bfv_serve job journal.

Decodes a journal.bin (see src/svc/journal.hpp for the record layout) and
asserts the recovery-drill contract over the whole file — which, when the
server ran with --no-compact, spans every process lifetime that appended
to it, crashes included:

  * every job with an `accepted` record has exactly one `done` record
    (no lost jobs, no double execution across a kill -9 + restart);
  * no record other than `accepted` references a job that was never
    accepted;
  * no idempotency key maps to more than one job id within its tenant (a
    duplicated Submit must be deduplicated, never re-admitted under a
    fresh id; keys are scoped per tenant, so two tenants may each use one
    key for a job of their own);
  * every record frame is well-formed (magic, version, event, CRC); a
    torn tail is tolerated and reported, torn *middles* are not.

The server appends only `accepted` and `done` records. Events 2
(`dispatched`) and 3 (`checkpointed`) are legacy records of journals an
older server wrote; they are still accepted, and count only as records.

The summary line reads "journal_check: R record(s), J accepted job(s),
...", so a caller can hold R to 2 x J.

Exit 0 when the contract holds, 1 with a per-violation report otherwise.

Usage:
    journal_check.py JOURNAL_DIR/journal.bin [--expect-jobs N]
"""

import argparse
import struct
import sys
import zlib

MAGIC = b"BFVJ"
VERSION = 1
HEADER = 16
EVENTS = {1: "accepted", 2: "dispatched", 3: "checkpointed", 4: "done"}


class Cursor:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise ValueError("truncated payload")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def string(self):
        (n,) = struct.unpack("<I", self.take(4))
        return self.take(n).decode("utf-8", errors="replace")


def decode_records(data):
    """Yields (event, record-dict); stops at a torn tail, raises on a
    corrupt middle (anything undecodable that is *followed* by more
    bytes that decode — we cannot tell, so any undecodable point simply
    ends the scan and the caller reports the remainder)."""
    off = 0
    records = []
    while off + HEADER <= len(data):
        magic, ver, event, reserved, length, crc = struct.unpack_from(
            "<4sBBHII", data, off)
        if (magic != MAGIC or ver != VERSION or event not in EVENTS
                or reserved != 0):
            break
        if off + HEADER + length > len(data):
            break
        payload = data[off + HEADER:off + HEADER + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break
        c = Cursor(payload)
        try:
            rec = {
                "event": EVENTS[event],
                "job": c.u64(),
                "tenant": c.string(),
                "idem": c.string(),
                "line": c.string(),
                "iteration": c.u64(),
                "status": c.string(),
                "message": c.string(),
                "states": c.f64(),
                "seconds": c.f64(),
            }
        except ValueError:
            break
        if c.pos != len(payload):
            break
        records.append(rec)
        off += HEADER + length
    return records, len(data) - off


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("journal", help="path to journal.bin")
    ap.add_argument("--expect-jobs", type=int, default=0,
                    help="require exactly N accepted jobs (0 = any)")
    args = ap.parse_args()

    with open(args.journal, "rb") as f:
        data = f.read()
    records, tail = decode_records(data)

    accepted = {}   # job -> accepted record
    done = {}       # job -> [done records]
    orphans = []    # non-accepted events with no accepted job
    idem_to_jobs = {}  # (tenant, key) -> job ids
    for rec in records:
        job = rec["job"]
        if rec["event"] == "accepted":
            accepted[job] = rec
            if rec["idem"]:
                idem_to_jobs.setdefault((rec["tenant"], rec["idem"]),
                                        set()).add(job)
        else:
            if job not in accepted:
                orphans.append(rec)
            if rec["event"] == "done":
                done.setdefault(job, []).append(rec)

    failures = []
    for job, rec in sorted(accepted.items()):
        n = len(done.get(job, []))
        if n != 1:
            failures.append(
                f"job {job} ({rec['line'][:50]!r}): {n} done record(s), "
                "want exactly 1")
    for rec in orphans:
        failures.append(
            f"{rec['event']} record for job {rec['job']} with no accepted "
            "record")
    for (tenant, idem), jobs in sorted(idem_to_jobs.items()):
        if len(jobs) > 1:
            failures.append(
                f"idempotency key {idem!r} of tenant {tenant!r} admitted as "
                f"{len(jobs)} distinct jobs: {sorted(jobs)}")
    if args.expect_jobs and len(accepted) != args.expect_jobs:
        failures.append(
            f"{len(accepted)} accepted job(s), expected {args.expect_jobs}")

    statuses = {}
    for recs in done.values():
        for rec in recs:
            statuses[rec["status"]] = statuses.get(rec["status"], 0) + 1
    print(f"journal_check: {len(records)} record(s), {len(accepted)} "
          f"accepted job(s), terminal statuses {statuses or '{}'}"
          + (f", torn tail {tail} byte(s)" if tail else ""))
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("journal_check: every accepted job terminal exactly once")
    return 0


if __name__ == "__main__":
    sys.exit(main())
