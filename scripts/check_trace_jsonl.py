#!/usr/bin/env python3
"""Check a JSONL lifecycle trace (HETSIM_TRACE_FORMAT=jsonl): the file
holds at least one record, and every line is UTF-8 and parses as a JSON
object with an "event" field.

    python3 scripts/check_trace_jsonl.py TRACE.jsonl
"""

import json
import sys


def main(path):
    records = 0
    with open(path, "rb") as trace:
        for lineno, raw in enumerate(trace, 1):
            try:
                record = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as err:
                print(f"{path}:{lineno}: {err}")
                return 1
            if not isinstance(record, dict) or "event" not in record:
                print(f"{path}:{lineno}: not a trace record")
                return 1
            records += 1
    if records == 0:
        print(f"{path}: empty trace")
        return 1
    print(f"{records} trace records, every line valid JSON")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
