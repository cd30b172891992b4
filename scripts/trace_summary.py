#!/usr/bin/env python3
"""Summarize an ofl-trace JSONL artifact into a small, diffable JSON record.

Usage: python3 scripts/trace_summary.py TRACE_fleet.jsonl.gz > TRACE_fleet.summary.json

The record holds the event count, the SHA-256 of the decompressed trace,
event counts by category and name, and the engine's batch shape: for each
`engine.dispatch` step kind, how many same-instant runs it had and the
largest one. A run is a stretch of consecutive dispatches of one kind at
one virtual instant; the engine prepares each run as one batch. The trace
is a pure function of the seed, so two runs of the same command must give
the same summary; CI recomputes it from a fresh 256-owner serial trace
and diffs it against the committed TRACE_fleet.summary.json.
"""

import gzip
import hashlib
import json
import sys


def summarize(path):
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as f:
        raw = f.read()
    lines = raw.decode("utf-8").splitlines()
    counts = {}
    runs = {}
    current = None  # (ts, kind) of the dispatch run in progress
    for line in lines[1:]:
        event = json.loads(line)
        by_name = counts.setdefault(event["cat"], {})
        by_name[event["name"]] = by_name.get(event["name"], 0) + 1
        if event["name"] != "engine.dispatch":
            continue
        key = (event["ts"], event["fields"]["ev"])
        shape = runs.setdefault(key[1], {"runs": 0, "largest": 0, "open": 0})
        if key != current:
            current = key
            shape["runs"] += 1
            shape["open"] = 0
        shape["open"] += 1
        shape["largest"] = max(shape["largest"], shape["open"])
    return {
        "format": json.loads(lines[0])["meta"]["format"],
        "events": len(lines) - 1,
        "sha256": hashlib.sha256(raw).hexdigest(),
        "counts": counts,
        "runs": {
            kind: {"runs": shape["runs"], "largest": shape["largest"]}
            for kind, shape in runs.items()
        },
    }


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    json.dump(summarize(sys.argv[1]), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
