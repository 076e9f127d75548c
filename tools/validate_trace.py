#!/usr/bin/env python3
"""Validate execution traces emitted by the benches (stdlib only).

Two formats, selected by extension:

  *.trace.json / *.json  Chrome trace-event JSON (Perfetto-loadable):
      - top level is an object with a "traceEvents" list;
      - every event has name/ph/pid/tid, and a numeric non-negative "ts";
      - non-metadata events appear in non-decreasing "ts" order;
      - "B"/"E" duration events balance per (pid, tid, name) with no
        unclosed or stray ends.

  *.prv  Paraver trace. The sibling .row and .pcf files are validated
      alongside when present:
      - header matches  #Paraver (...):<end>_ns:0:1:1(<threads>:1)
      - every record is  2:cpu:1:1:thread:time:type:value  with
        1 <= thread <= <threads>, 0 <= time <= <end>, non-decreasing times;
      - busy/owned records (types 90000001/90000002) are canonical: no
        record repeats the previous value of its (thread, type);
      - .row declares LEVEL THREAD SIZE <threads> plus one label per thread;
      - .pcf names every event type the .prv uses (and all six tlb types).

Usage:  validate_trace.py FILE [FILE...]   (exit 0 = all valid)
"""

from __future__ import annotations

import json
import os
import re
import sys

TLB_EVENT_TYPES = [90000001, 90000002, 90000003, 90000004, 90000005, 90000006]
# Step-series types: each record is a change of value, never a repeat.
SERIES_EVENT_TYPES = {90000001, 90000002}

PRV_HEADER = re.compile(
    r"^#Paraver \([^)]*\):(?P<end>\d+)_ns:0:1:1\((?P<threads>\d+):1\)$"
)
PRV_RECORD = re.compile(
    r"^2:(?P<cpu>\d+):1:1:(?P<thread>\d+):(?P<time>\d+):"
    r"(?P<type>\d+):(?P<value>-?\d+)$"
)


class ValidationError(Exception):
    pass


def fail(msg: str) -> None:
    raise ValidationError(msg)


def validate_chrome(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a traceEvents list")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("traceEvents must be a non-empty list")

    open_stacks: dict[tuple, int] = {}
    last_ts = None
    durations = 0
    for i, e in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                fail(f"event {i} misses required key {key!r}")
        ph = e["ph"]
        if ph == "M":
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"event {i} ({e['name']!r}) has invalid ts {ts!r}")
        if last_ts is not None and ts < last_ts:
            fail(f"event {i} ({e['name']!r}) ts {ts} < previous {last_ts}")
        last_ts = ts
        key = (e["pid"], e["tid"], e["name"])
        if ph == "B":
            open_stacks[key] = open_stacks.get(key, 0) + 1
            durations += 1
        elif ph == "E":
            if open_stacks.get(key, 0) <= 0:
                fail(f"event {i}: E without matching B for {key}")
            open_stacks[key] -= 1
        elif ph not in ("i", "I", "X"):
            fail(f"event {i} has unknown phase {ph!r}")
    unclosed = {k: n for k, n in open_stacks.items() if n != 0}
    if unclosed:
        fail(f"unclosed B events: {unclosed}")
    if durations == 0:
        fail("trace contains no duration (B/E) events")
    return f"{len(events)} events, {durations} duration pairs"


def validate_prv(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        fail("empty .prv file")
    m = PRV_HEADER.match(lines[0])
    if m is None:
        fail(f"bad header: {lines[0]!r}")
    end_ns = int(m.group("end"))
    threads = int(m.group("threads"))

    used_types = set()
    last_time = 0
    records = 0
    last_value: dict[tuple[int, int], int] = {}
    repeats = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        r = PRV_RECORD.match(line)
        if r is None:
            fail(f"line {lineno}: bad record {line!r}")
        thread = int(r.group("thread"))
        time = int(r.group("time"))
        if not 1 <= thread <= threads:
            fail(f"line {lineno}: thread {thread} outside 1..{threads}")
        if time > end_ns:
            fail(f"line {lineno}: time {time} beyond header end {end_ns}")
        if time < last_time:
            fail(f"line {lineno}: time {time} < previous {last_time}")
        last_time = time
        kind = int(r.group("type"))
        used_types.add(kind)
        records += 1
        if kind in SERIES_EVENT_TYPES:
            value = int(r.group("value"))
            if last_value.get((thread, kind)) == value:
                repeats.append(lineno)
            last_value[(thread, kind)] = value
    if records == 0:
        fail("no event records")
    if repeats:
        fail(f"{len(repeats)} busy/owned records repeat the previous value "
             f"of their (thread, type), first at line {repeats[0]}")

    stem = path[: -len(".prv")]
    extras = []
    row_path = stem + ".row"
    if os.path.exists(row_path):
        with open(row_path, encoding="utf-8") as f:
            row_lines = [l for l in f.read().splitlines() if l]
        if not row_lines or not row_lines[0].startswith("LEVEL THREAD SIZE "):
            fail(f"{row_path}: missing 'LEVEL THREAD SIZE' header")
        declared = int(row_lines[0].rsplit(" ", 1)[1])
        if declared != threads:
            fail(f"{row_path}: declares {declared} threads, .prv has {threads}")
        if len(row_lines) - 1 != threads:
            fail(f"{row_path}: {len(row_lines) - 1} labels for {threads} threads")
        extras.append(".row ok")

    pcf_path = stem + ".pcf"
    if os.path.exists(pcf_path):
        with open(pcf_path, encoding="utf-8") as f:
            pcf = f.read()
        if "EVENT_TYPE" not in pcf:
            fail(f"{pcf_path}: no EVENT_TYPE blocks")
        pcf_types = {
            int(t) for t in re.findall(r"^0\s+(\d+)\s", pcf, flags=re.M)
        }
        missing = used_types - pcf_types
        if missing:
            fail(f"{pcf_path}: event types used but not named: {sorted(missing)}")
        missing_tlb = [t for t in TLB_EVENT_TYPES if t not in pcf_types]
        if missing_tlb:
            fail(f"{pcf_path}: tlb event types not named: {missing_tlb}")
        extras.append(".pcf ok")

    detail = f"{records} records, {threads} threads, {len(used_types)} types"
    return ", ".join([detail] + extras)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    status = 0
    for path in argv[1:]:
        try:
            if path.endswith(".prv"):
                detail = validate_prv(path)
            else:
                detail = validate_chrome(path)
            print(f"OK   {path}: {detail}")
        except ValidationError as e:
            print(f"FAIL {path}: {e}")
            status = 1
        except (OSError, json.JSONDecodeError) as e:
            print(f"FAIL {path}: {e}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
