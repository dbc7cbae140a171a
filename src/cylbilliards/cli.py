"""Scenario-driven command-line front end.

Subcommands: analyze, simulate, qmonitor, sufficiency, lyapunov, survey.
Exit codes: 0 ok, 2 validation failure, 3 input error, 4 singularity abort.
Stochastic commands (survey, lyapunov) require a seed; every output file
embeds the scenario hash and tool version so runs are reproducible from
(scenario, seed) alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__ as TOOL_VERSION
from .errors import (
    BaseDimTooSmall,
    CylBilliardsError,
    DependentBasis,
    DimensionMismatch,
    RadiusTooLarge,
    SingularityEncountered,
    SingularSegment,
    TableFormatError,
)
from .flow import PhasePoint, evolve, is_singular, random_phase_point
from .geometry import transitivity_report
from .hyperbolicity import ANSATZ, GENERIC, sufficiency, survey_sufficiency
from .tableio import (
    Scenario,
    _flag,
    _number,
    _vector,
    load_scenario,
    lyapunov_to_dict,
    transitivity_to_dict,
    write_events_csv,
    write_json,
    write_qmonitor_csv,
    write_segment_json,
    write_survey_csv,
)
from .tangent import evolve_normal, lyapunov_spectrum, normal_vector

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INPUT = 3
EXIT_SINGULARITY = 4

_VALIDATION_ERRORS = (BaseDimTooSmall, RadiusTooLarge, DependentBasis, DimensionMismatch)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylbilliards",
        description="Cylindric billiard simulation and hyperbolicity analysis",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("analyze", "validate a table and report transitivity"),
        ("simulate", "run the flow and dump the event log"),
        ("qmonitor", "track the infinitesimal Lyapunov function along a segment"),
        ("sufficiency", "neutral-space dimension and sufficiency verdict"),
        ("lyapunov", "finite-time Lyapunov spectrum"),
        ("survey", "statistical sufficiency survey"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        if name != "analyze":
            p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        if name == "survey":
            p.add_argument("--threads", type=int, default=1, help="worker processes")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it as
    it was."""
    return build_parser()


def _diag(code: int, message: str, **extra) -> int:
    doc = {"error": message, "exit_code": code, "tool_version": TOOL_VERSION, **extra}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return code


def _resolve_seed(scenario: Scenario, args, required: bool) -> int | None:
    if args.seed is not None:
        return args.seed
    if scenario.get("seed") is None:
        if required:
            raise TableFormatError("seed", "required for stochastic commands")
        return None
    return _number(scenario, "seed", None, int)


def _resolve_start(scenario: Scenario, args) -> PhasePoint:
    doc = scenario.get("start")
    if doc is not None:
        if not isinstance(doc, dict):
            raise TableFormatError("start", "must be an object {q, v}")
        dim = scenario.table.dim
        q = np.mod(_vector(doc, "q", "start.q", dim), 1.0)
        v = _vector(doc, "v", "start.v", dim)
        norm = float(np.linalg.norm(v))
        if norm == 0:
            raise TableFormatError("start.v", "must be nonzero")
        return PhasePoint(q, v / norm)
    seed = _resolve_seed(scenario, args, required=True)
    return random_phase_point(scenario.table, np.random.default_rng([seed, 0xC0]))


def _out_path(args, scenario: Scenario, name: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = scenario.get("output_stem", "")
    return out / (f"{stem}_{name}" if stem else name)


def cmd_analyze(scenario: Scenario, args) -> int:
    table = scenario.table
    report = transitivity_report([c.base for c in table.cylinders])
    doc = transitivity_to_dict(table, report, {"scenario_hash": scenario.scenario_hash})
    write_json(doc, _out_path(args, scenario, "analyze.json"))
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _evolve_from_scenario(scenario: Scenario, args) -> tuple:
    start = _resolve_start(scenario, args)
    duration = _number(scenario, "duration", 100.0, least=0)
    max_events = _number(scenario, "max_events", 10**6, int, least=1)
    segment = evolve(start, scenario.table, duration, max_events=max_events)
    return start, segment


def cmd_simulate(scenario: Scenario, args) -> int:
    _, segment = _evolve_from_scenario(scenario, args)
    meta = {"scenario_hash": scenario.scenario_hash}
    write_events_csv(segment, _out_path(args, scenario, "events.csv"), meta)
    write_segment_json(segment, _out_path(args, scenario, "events.json"), meta)
    return EXIT_OK


def cmd_qmonitor(scenario: Scenario, args) -> int:
    normal_doc = scenario.get("normal")
    if not isinstance(normal_doc, dict):
        raise TableFormatError("normal", "qmonitor needs a normal vector {z, w}")
    dim = scenario.table.dim
    n = normal_vector(_vector(normal_doc, "z", "normal.z", dim), _vector(normal_doc, "w", "normal.w", dim))
    _, segment = _evolve_from_scenario(scenario, args)
    if segment.singular_flag is not None and is_singular(segment.singular_flag.kind):
        return _diag(EXIT_SINGULARITY, f"segment flagged {segment.singular_flag.kind}")
    samples = evolve_normal(n, segment, rescale=_flag(scenario, "rescale", False))
    meta = {"scenario_hash": scenario.scenario_hash}
    write_qmonitor_csv(samples, _out_path(args, scenario, "qmonitor.csv"), meta)
    return EXIT_OK


def cmd_sufficiency(scenario: Scenario, args) -> int:
    _, segment = _evolve_from_scenario(scenario, args)
    try:
        verdict = sufficiency(segment, scenario.table)
    except SingularSegment as exc:
        return _diag(EXIT_SINGULARITY, str(exc))
    doc = {
        "tool_version": TOOL_VERSION,
        "scenario_hash": scenario.scenario_hash,
        "sufficient": verdict.sufficient,
        "neutral_dim": verdict.neutral_dim,
        "neutral_basis": np.round(verdict.witness.basis, 15).tolist(),
        "advances": [list(a) for a in verdict.witness.advances],
        "method": verdict.witness.method,
        "decided_collisions": verdict.witness.decided,
        "largest_kept_sv": verdict.witness.largest_kept_sv,
        "smallest_dropped_sv": verdict.witness.smallest_dropped_sv,
        "n_collisions": segment.n_events,
        "symbolic": list(segment.symbolic),
    }
    write_json(doc, _out_path(args, scenario, "sufficiency.json"))
    print(json.dumps({k: doc[k] for k in ("sufficient", "neutral_dim", "n_collisions")}))
    return EXIT_OK


def cmd_lyapunov(scenario: Scenario, args) -> int:
    seed = _resolve_seed(scenario, args, required=True)
    start = None
    if scenario.get("start") is not None:
        start = _resolve_start(scenario, args)
    duration = _number(scenario, "duration", 1000.0)
    if not duration > 0:
        raise TableFormatError("duration", "must be positive")
    renorm = _number(scenario, "renorm_interval", 5, int, least=1)
    meta = {"scenario_hash": scenario.scenario_hash, "renorm_interval": renorm}
    try:
        report = lyapunov_spectrum(start, scenario.table, duration,
                                   renorm_interval=renorm, seed=seed,
                                   max_events=_number(scenario, "max_events", 10**6, int, least=1))
    except SingularityEncountered as exc:
        if exc.partial_report is not None:
            write_json(lyapunov_to_dict(exc.partial_report, meta),
                       _out_path(args, scenario, "lyapunov_partial.json"))
        return _diag(EXIT_SINGULARITY, str(exc))
    doc = lyapunov_to_dict(report, meta)
    write_json(doc, _out_path(args, scenario, "lyapunov.json"))
    print(json.dumps({"top_exponent": report.top, "n_events": report.n_events}))
    return EXIT_OK


def cmd_survey(scenario: Scenario, args) -> int:
    seed = _resolve_seed(scenario, args, required=True)
    mode = scenario.get("mode", GENERIC)
    if mode not in (GENERIC, ANSATZ):
        raise TableFormatError("mode", f"must be {GENERIC!r} or {ANSATZ!r}")
    result = survey_sufficiency(
        scenario.table,
        sample_count=_number(scenario, "samples", 100, int, least=0),
        duration=_number(scenario, "duration", 50.0, least=0),
        seed=seed,
        mode=mode,
        max_events=_number(scenario, "max_events", 10_000, int, least=1),
        threads=max(1, args.threads),
    )
    meta = {"scenario_hash": scenario.scenario_hash}
    write_survey_csv(result, _out_path(args, scenario, "survey.csv"), meta)
    summary = {"tool_version": TOOL_VERSION, "scenario_hash": scenario.scenario_hash,
               **result.summary}
    write_json(summary, _out_path(args, scenario, "survey_summary.json"))
    print(json.dumps({k: summary.get(k) for k in
                      ("n_samples", "fraction_sufficient_full_span", "fraction_singular")}))
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "qmonitor": cmd_qmonitor,
    "sufficiency": cmd_sufficiency,
    "lyapunov": cmd_lyapunov,
    "survey": cmd_survey,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
    except TableFormatError as exc:
        return _diag(EXIT_INPUT, str(exc), field=exc.field)
    except (*_VALIDATION_ERRORS, ValueError) as exc:
        return _diag(EXIT_VALIDATION, str(exc))
    try:
        code = _COMMANDS[args.command](scenario, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout left before the summary, which each command
        # prints after its files: the run is complete. Stdout's descriptor
        # goes to devnull, so that the interpreter's final flush cannot raise.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return EXIT_OK
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_OK
    except TableFormatError as exc:
        return _diag(EXIT_INPUT, str(exc), field=exc.field)
    except CylBilliardsError as exc:
        return _diag(EXIT_VALIDATION, str(exc))


if __name__ == "__main__":
    sys.exit(main())
