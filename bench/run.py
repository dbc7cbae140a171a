#!/usr/bin/env python3
"""Benchmark of the cylbilliards toolkit.

    python3 bench/run.py [--workload {orbit,wide,survey,all}] [--seed N] \
        [--seconds S] [--trace {0,1}]

Runs from the root of a source checkout and imports the package from its
``src`` directory. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run and writes the span file
``bench/traces/<workload>-seed<N>.jsonl``. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

import os

# One BLAS thread per process, set before numpy loads: the 2-worker survey
# then uses no more threads than cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TRACED_SETUPS = 3
NAMES = ("orbit", "wide", "survey")


def import_package():
    """Import cylbilliards from this checkout's src, and nothing else."""
    pkg = SRC / "cylbilliards"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no package source at {pkg}; run from the root of a cylbilliards checkout")
    sys.path.insert(0, str(SRC))
    import cylbilliards

    if Path(cylbilliards.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported cylbilliards from {cylbilliards.__file__}, not from {pkg}")
    return cylbilliards


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, pkg) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cylbilliards": pkg.__version__,
        "git_sha": git_sha(),
    }


def warm_lapack(np) -> None:
    """First LAPACK calls can stall; pay for them before any timed region."""
    a = np.random.default_rng(0).normal(size=(64, 64))
    for _ in range(3):
        np.linalg.svd(a)
        np.linalg.qr(a)
        np.linalg.inv(a)
        np.linalg.solve(a, a[0])
        np.linalg.matrix_rank(a)


def run_one(args) -> dict:
    pkg = import_package()
    import numpy as np

    import oracles
    import workloads
    from tracing import NullTracer, Tracer

    oracles.selftest()
    warm_lapack(np)
    env = environment(np, pkg)
    wl = workloads.WORKLOADS[args.workload]
    work_dir = BENCH / "_work" / f"{wl.name}-{os.getpid()}"
    runner = workloads.Runner(wl, args.seed, work_dir)
    null = NullTracer()
    try:
        if not args.trace:
            setups, before = [], workloads.reference_speed()
            for _ in range(SETUP_REPEATS):
                elapsed = runner.setup(null)
                after = workloads.reference_speed()
                # Seconds at the nominal host speed, like the rates.
                setups.append(elapsed * 0.5 * (before + after) / workloads.REF_NOMINAL)
                before = after
            runner.prepare()
            rounds, spent = [], 0.0
            while spent < args.seconds:
                acc = runner.round(null, traced=False)
                rounds.append(acc)
                spent += workloads.timed_seconds(acc)
            raw = workloads.rates(rounds, column=1)
            values = {"setup_s": workloads.median(setups), **workloads.rates(rounds),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            units = dict(workloads.END_TO_END)
        else:
            tracer = Tracer()
            for _ in range(TRACED_SETUPS):
                with tracer.span("setup"):
                    runner.setup(tracer)
                for name in wl.all_tables():
                    stale = workloads.probe_lattice(runner.tables[name], tracer)
                    if stale and stale not in runner.notes:
                        runner.notes.append(stale)
            runner.prepare()
            plain, traced, spent = [], [], 0.0
            while spent < args.seconds:
                for tr, into in ((null, plain), (tracer, traced)):
                    acc = runner.round(tr, traced=tr is tracer)
                    into.append(acc)
                    spent += workloads.timed_seconds(acc)
            # Work-normalized: each operation's median rate untraced over traced.
            off, on = workloads.rates(plain), workloads.rates(traced)
            overhead = workloads.median([(off[k] / on[k] - 1) * 100 for k in off])
            values = workloads.per_layer(tracer.totals(), TRACED_SETUPS, overhead)
            units = {name: unit for name, unit, _ in workloads.PER_LAYER}
            trace_dir = BENCH / "traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{wl.name}-seed{args.seed}.jsonl",
                         {"workload": wl.name, "seed": args.seed, "env": env})
            rounds = plain + traced
            raw = workloads.rates(plain, column=1)
        problems = runner.final_checks()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# workload {wl.name}  seed {args.seed}  rounds {len(rounds)}  trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for note in runner.notes:
        print(f"# check {note}")
    for msg in runner.failures:
        print(f"# FAILED {msg}")
    for msg in problems:
        print(f"# INCORRECT {msg}")
    print(f"# attempted {runner.attempted}  failed {runner.failed}  singular-flag restarts {runner.singular}")
    for name, value in raw.items():
        print(f"# wall-clock {name:36s} {value:14.6g}")
    for name, value in values.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, val in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = val
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
