#!/usr/bin/env python3
"""Per-table figures from span files of traced runs.

    python3 bench/figures.py bench/traces/*.jsonl

Sums the spans of each (name, table) pair over all given files and prints
one markdown row per pair: calls, events, time per event and time per call.
These are the reference figures of the README. Times are wall-clock, not
scaled to the nominal host speed.
"""

import json
import sys
from collections import defaultdict


def main() -> None:
    agg = defaultdict(lambda: {"n": 0, "s": 0.0, "events": 0, "samples": 0})
    for path in sys.argv[1:]:
        with open(path) as fh:
            for line in fh:
                span = json.loads(line)
                if "header" in span:
                    continue
                a = agg[(span["name"], span.get("tag") or "")]
                a["n"] += 1
                a["s"] += span["end"] - span["start"]
                a["events"] += span["counts"].get("events", 0)
                a["samples"] += span["counts"].get("samples", 0)
    print("| span | table | calls | events | µs/event | ms/call | ms/sample |")
    print("|---|---|---|---|---|---|---|")
    for (name, tag), a in sorted(agg.items()):
        per_event = f"{a['s'] / a['events'] * 1e6:.1f}" if a["events"] else ""
        per_sample = f"{a['s'] / a['samples'] * 1e3:.2f}" if a["samples"] else ""
        print(f"| {name} | {tag} | {a['n']} | {a['events']} | {per_event} | "
              f"{a['s'] / a['n'] * 1e3:.2f} | {per_sample} |")


if __name__ == "__main__":
    main()
