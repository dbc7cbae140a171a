#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics: the evidence for BENCHMARK.json bounds.

    python3 bench/steady.py [--first-seed N]

Runs ``bench/run.py --trace 0`` one process at a time, in two sets of five
runs per workload of BENCHMARK.json, each run with its own seed and
``run_seconds`` long, and writes ``bench/STEADINESS.md``. For every workload and end-to-end
metric it reports each set's median and quartiles, the spread of all runs
(interquartile range over median, as ``statistics.quantiles(n=4)`` gives
it) against the metric's bound, and how far the second set's median moved
from the first's in the worse direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
RUNS = 5
OUT = BENCH / "STEADINESS.md"


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seed = args.first_seed
    results: dict[str, list[list[dict]]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
                if proc.returncode != 0:
                    sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
                lines = proc.stdout.strip().splitlines()
                doc = json.loads(lines[-1])
                doc["seed"] = seed
                doc["wall"] = {parts[2]: float(parts[3]) for parts in map(str.split, lines)
                               if parts[:2] == ["#", "wall-clock"]}
                runs.append(doc)
                print(f"{workload} seed {seed}: correct {doc['correct']} attempted {doc['attempted']} "
                      f"failed {doc['failed']}", flush=True)
                seed += 1
            sets.append(runs)
        results[workload] = sets

    lines = ["# Steadiness of the end-to-end metrics", "",
             f"{SETS} sets x {RUNS} runs per workload, {seconds:g} s per run, seeds "
             f"{args.first_seed}..{seed - 1}, one run at a time. Spread is (Q3 - Q1) / median over all "
             f"runs of the workload; shift is how far the last set's median is worse than the first's. "
             f"Both are shares of the median, to compare with the bound. The wall-clock spread is that of "
             f"the same rates before scaling to the nominal host speed.", ""]
    worst = []
    for workload, sets in results.items():
        lines += [f"## {workload}", "",
                  "| metric | bound | " + " | ".join(f"set {i + 1} Q1 / median / Q3" for i in range(len(sets)))
                  + " | spread | shift | wall-clock spread |",
                  "|---|---|" + "---|" * len(sets) + "---|---|---|"]
        for name, m in metrics.items():
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            cells = []
            for vals in per_set:
                q1, q2, q3 = quartiles(vals)
                cells.append(f"{q1:.5g} / {q2:.5g} / {q3:.5g}")
            allv = [v for vals in per_set for v in vals]
            a1, a2, a3 = quartiles(allv)
            spread = (a3 - a1) / a2
            first, last = statistics.median(per_set[0]), statistics.median(per_set[-1])
            shift = (last - first) / first * (1 if m["better"] == "lower" else -1)
            worst.append((spread / m["bound"], workload, name))
            wall = [r["wall"][name] for runs in sets for r in runs if name in r["wall"]]
            wall_spread = ""
            if len(wall) > 1:
                w1, w2, w3 = quartiles(wall)
                wall_spread = f"{(w3 - w1) / w2:.3f}"
            lines.append(f"| {name} ({m['unit']}) | {m['bound']} | " + " | ".join(cells)
                         + f" | {spread:.3f} | {shift:+.3f} | {wall_spread} |")
        fails = [(r["seed"], r["attempted"], r["failed"], r["correct"]) for runs in sets for r in runs]
        lines += ["", "Runs (seed, attempted, failed, correct): "
                  + ", ".join(f"({s}, {a}, {f}, {c})" for s, a, f, c in fails), ""]
    worst.sort(reverse=True)
    lines += ["Largest spread as a share of its bound: "
              + ", ".join(f"{w}.{n} {r:.2f}" for r, w, n in worst[:5]), ""]
    OUT.write_text("\n".join(lines))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
