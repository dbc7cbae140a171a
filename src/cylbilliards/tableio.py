"""Table definition files, scenario files, and machine-readable dumps.

Schemas are JSON; the exact field names are documented in the README. All
float output is lossless (17 significant digits in CSV files, shortest
round-trip repr in JSON) so runs are reproducible bit for bit from
(scenario, seed) alone, and every file embeds the scenario hash and tool
version. Per-event and per-sample rows are rendered from array columns by
one row template per file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__ as TOOL_VERSION
from .errors import TableFormatError
from .flow import OrbitSegment
from .geometry import BilliardTable, build_cylinder, build_table, validate_table
from .hyperbolicity import SurveyResult
from .tangent import LyapunovReport, NormalSamples


# ---------------------------------------------------------------------------
# Table definitions
# ---------------------------------------------------------------------------


def _number(doc, key: str, default, kind=float, least=None):
    """``doc[key]`` (``default`` when absent) converted by ``kind``, float or
    int; TableFormatError naming the field when it is not a number (a boolean
    or a string is not), is NaN, is not integral for int, or falls below
    ``least``."""
    value = doc.get(key, default)
    try:
        number = math.nan if isinstance(value, (bool, str)) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if number != number or (kind is int and number != value):
        raise TableFormatError(key, "must be an integer" if kind is int else "must be a number")
    if least is not None and number < least:
        raise TableFormatError(key, f"must be at least {least}")
    return number


def _vector(doc: dict, key: str, field: str, dim: int) -> np.ndarray:
    """``doc[key]`` as a vector of ``dim`` finite floats; TableFormatError
    naming ``field`` unless it is a list of ``dim`` finite numbers, none of
    them a boolean."""
    if key not in doc:
        raise TableFormatError(field, "missing")
    entries = doc[key]
    vec = None
    if isinstance(entries, list) and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entries):
        vec = np.asarray(entries, dtype=float)
    if vec is None or vec.shape != (dim,) or not np.isfinite(vec).all():
        raise TableFormatError(field, f"must be a list of {dim} finite numbers")
    return vec


def _flag(doc, key: str, default: bool) -> bool:
    """``doc[key]`` (``default`` when absent); TableFormatError naming the
    field unless it is true or false."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise TableFormatError(key, "must be true or false")
    return value


def table_from_dict(doc: dict) -> BilliardTable:
    """Build and validate a table from its definition document."""
    if not isinstance(doc, dict):
        raise TableFormatError("table", "definition must be a JSON object")
    if "dimension" not in doc:
        raise TableFormatError("dimension", "missing")
    dim = _number(doc, "dimension", None, int, least=1)
    cylinders_doc = doc.get("cylinders")
    if not isinstance(cylinders_doc, list) or not cylinders_doc:
        raise TableFormatError("cylinders", "must be a nonempty list")
    cylinders = []
    for i, cyl_doc in enumerate(cylinders_doc):
        field = f"cylinders[{i}]"
        if not isinstance(cyl_doc, dict):
            raise TableFormatError(field, "must be an object")
        for key in ("generator", "translation", "radius"):
            if key not in cyl_doc:
                raise TableFormatError(f"{field}.{key}", "missing")
        generator = cyl_doc["generator"]
        if not isinstance(generator, list):
            raise TableFormatError(f"{field}.generator", "must be a list of integer vectors")
        for row in generator:
            if not isinstance(row, list) or any(not isinstance(x, int) or isinstance(x, bool) for x in row):
                raise TableFormatError(
                    f"{field}.generator", "rows must be lists of integers"
                )
        translation = _vector(cyl_doc, "translation", f"{field}.translation", dim)
        radius = cyl_doc["radius"]
        if not isinstance(radius, (int, float)) or isinstance(radius, bool) or not 0 < radius < math.inf:
            raise TableFormatError(f"{field}.radius", "must be a positive finite number")
        cylinders.append(build_cylinder(generator, translation, float(radius), dim))
    budget = _number(doc, "disjointness_budget", 200_000, int)
    if not _flag(doc, "check_disjointness", True):
        budget = 0
    return validate_table(build_table(cylinders), disjoint_budget=budget)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Scenario:
    """A resolved scenario: table plus command parameters and their hash."""

    doc: dict
    table: BilliardTable
    scenario_hash: str

    def get(self, key, default=None):
        return self.doc.get(key, default)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise TableFormatError("scenario", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise TableFormatError("scenario", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise TableFormatError("scenario", "must be a JSON object")
    if "table" in doc:
        table_doc = doc["table"]
    elif "table_file" in doc:
        ref = (path.parent / doc["table_file"]).resolve()
        try:
            table_doc = json.loads(ref.read_text())
        except OSError as exc:
            raise TableFormatError("table_file", f"cannot read {ref}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise TableFormatError("table_file", f"not valid JSON: {exc}") from None
    else:
        raise TableFormatError("table", "scenario needs 'table' or 'table_file'")
    table = table_from_dict(table_doc)
    resolved = dict(doc)
    resolved.pop("table_file", None)
    resolved["table"] = table_doc
    return Scenario(doc=resolved, table=table, scenario_hash=scenario_hash_of(resolved))


def scenario_hash_of(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def _meta_lines(meta: dict) -> list[str]:
    return [f"# tool_version={TOOL_VERSION}", f"# scenario_hash={meta.get('scenario_hash', '')}"]


def _csv_rows(path, meta: dict, header: list[str], template: str, rows) -> None:
    """Meta lines, then the header and one ``template % row`` per row, with
    the CRLF line ends of csv.writer."""
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(meta):
            fh.write(line + "\n")
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(template % row for row in rows))


def write_events_csv(segment: OrbitSegment, path, meta: dict) -> None:
    """One row per event: time, cylinder index, hit point, velocities, cos(phi)."""
    d = segment.table.dim
    header = (
        ["time", "cylinder_index"]
        + [f"q_hit_{i}" for i in range(d)]
        + [f"v_pre_{i}" for i in range(d)]
        + [f"v_post_{i}" for i in range(d)]
        + ["cos_phi"]
    )
    floats = ",".join(["%.17g"] * d)
    template = f"%.17g,%d,{floats},%s,%s,%.17g\r\n"
    rows = ((t, k, *q, a, b, c) for t, k, q, a, b, c in _event_fields(segment, floats))
    _csv_rows(path, meta, header, template, rows)


def _event_fields(segment: OrbitSegment, velocity: str):
    """Per event: time, cylinder index, q_hit, then v_pre and v_post as the
    text of the ``velocity`` template of d floats, and cos_phi. Along an
    orbit each v_pre is bitwise the v_post before it, so its text is reused
    rather than formatted again."""
    post = [velocity % tuple(row) for row in segment.v_post.tolist()]
    if not post:
        return iter(())
    pre = [""] + post[:-1]
    fresh = (segment.v_pre[1:].view(np.int64) != segment.v_post[:-1].view(np.int64)).any(axis=1)
    for k in [0, *(fresh.nonzero()[0] + 1).tolist()]:
        pre[k] = velocity % tuple(segment.v_pre[k].tolist())
    return zip(segment.time.tolist(), segment.symbolic, segment.q_hit.tolist(), pre, post,
               segment.cos_phi.tolist())


def _segment_head(segment: OrbitSegment, meta: dict) -> dict:
    flag = segment.singular_flag
    return {
        "tool_version": TOOL_VERSION,
        "scenario_hash": meta.get("scenario_hash", ""),
        "duration": segment.duration,
        "symbolic": list(segment.symbolic),
        "singular_flag": None if flag is None else {"kind": flag.kind, "event_index": flag.event_index},
        "start": {"q": list(map(float, segment.start.q)), "v": list(map(float, segment.start.v))},
        "end": {"q": list(map(float, segment.end.q)), "v": list(map(float, segment.end.v))},
    }


def segment_to_dict(segment: OrbitSegment, meta: dict) -> dict:
    return {
        **_segment_head(segment, meta),
        "events": [
            {"time": t, "cylinder_index": k, "q_hit": q, "v_pre": a, "v_post": b, "cos_phi": c}
            for t, k, q, a, b, c in zip(segment.time.tolist(), segment.symbolic, segment.q_hit.tolist(),
                                        segment.v_pre.tolist(), segment.v_post.tolist(), segment.cos_phi.tolist())
        ],
    }


def write_segment_json(segment: OrbitSegment, path, meta: dict) -> None:
    """Write ``segment_to_dict(segment, meta)`` exactly as ``write_json``
    would. The events are rendered by one template that writes floats with
    %r, which is how json writes a finite float, and are spliced into the
    json text of the rest."""
    text = json.dumps({**_segment_head(segment, meta), "events": []}, indent=2, sort_keys=True)
    if segment.n_events:
        floats = ",\n".join(["        %r"] * segment.table.dim)
        template = "\n".join(["    {", '      "cos_phi": %r,', '      "cylinder_index": %d,',
                              f'      "q_hit": [\n{floats}\n      ],', '      "time": %r,',
                              '      "v_post": [\n%s\n      ],', '      "v_pre": [\n%s\n      ]', "    }"])
        events = ",\n".join(template % (c, k, *q, t, b, a) for t, k, q, a, b, c in _event_fields(segment, floats))
        text = text.replace('"events": []', '"events": [\n' + events + "\n  ]", 1)
    Path(path).write_text(text + "\n")


def write_qmonitor_csv(samples: NormalSamples, path, meta: dict) -> None:
    """Rows (time, z coords, w coords, q_value) along a normal-vector run,
    one per sample, rendered from the columns of ``samples``."""
    if not samples:
        raise ValueError("no samples to write")
    d = samples.z.shape[1]
    header = ["time"] + [f"z_{i}" for i in range(d)] + [f"w_{i}" for i in range(d)] + ["Q"]
    template = ",".join(["%.17g"] * (2 * d + 2)) + "\r\n"
    rows = map(tuple, np.column_stack([samples.time, samples.z, samples.w, samples.q_value]).tolist())
    _csv_rows(path, meta, header, template, rows)


def lyapunov_to_dict(report: LyapunovReport, meta: dict) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "scenario_hash": meta.get("scenario_hash", ""),
        "exponents": list(report.exponents),
        "duration": report.duration,
        "renorm_interval": meta.get("renorm_interval"),
        "renorm_count": report.renorm_count,
        "seed": report.seed,
        "n_events": report.n_events,
    }


def write_survey_csv(result: SurveyResult, path, meta: dict) -> None:
    """One row per sample: its ids, richness, sufficiency and flag, with
    "true"/"false" for booleans and an empty cell for an undecided value."""
    header = [
        "sample_id", "seed", "n_collisions", "distinct_cylinders", "span_dim",
        "codim2_ok", "full_span", "neutral_dim", "sufficient", "singular_flag",
    ]

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return value

    template = ",".join(["%s"] * len(header)) + "\r\n"
    rows = ((r.sample_id, r.seed, r.n_collisions, r.distinct_cylinders, cell(r.span_dim), cell(r.codim2_ok),
             cell(r.full_span), cell(r.neutral_dim), cell(r.sufficient), r.singular_flag) for r in result.rows)
    _csv_rows(path, meta, header, template, rows)


def write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def transitivity_to_dict(table: BilliardTable, report, meta: dict) -> dict:
    witness = None
    if report.splitting_witness is not None:
        b1, b2 = report.splitting_witness
        witness = {"B1": np.round(b1, 15).tolist(), "B2": np.round(b2, 15).tolist()}
    return {
        "tool_version": TOOL_VERSION,
        "scenario_hash": meta.get("scenario_hash", ""),
        "dimension": table.dim,
        "n_cylinders": len(table.cylinders),
        "span_dim": report.span_dim,
        "generator_intersection_dim": report.generator_intersection_dim,
        "graph_components": [list(c) for c in report.graph_components],
        "onsp_holds": report.onsp_holds,
        "transitive": report.transitive,
        "splitting_witness": witness,
        "flags": {
            "condition_1_3_disjoint": table.condition_1_3_disjoint,
            "condition_1_4_pairwise_base_intersection": table.condition_1_4_pairwise_base_intersection,
            "transitive": table.transitive,
            "interior_assumptions": table.interior_assumptions,
        },
    }
