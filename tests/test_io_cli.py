"""Table files, scenario loading, dumps, and the command-line interface."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cylbilliards
from cylbilliards import (
    TableFormatError,
    __version__,
    evolve,
    evolve_normal,
    normal_vector,
    phase_point,
    random_phase_point,
)
from cylbilliards.cli import main
from cylbilliards.tableio import (
    load_scenario,
    segment_to_dict,
    table_from_dict,
    write_events_csv,
    write_json,
    write_qmonitor_csv,
    write_segment_json,
    write_survey_csv,
)

ORTHO3_DOC = {
    "dimension": 3,
    "cylinders": [
        {"generator": [[1, 0, 0]], "translation": [0.0, 0.0, 0.0], "radius": 0.2},
        {"generator": [[0, 1, 0]], "translation": [0.5, 0.5, 0.5], "radius": 0.2},
    ],
}


def disc_doc(translation=(0.0, 0.0), **fields):
    """A one-disc 2-D table document, with ``fields`` set on top."""
    return {"dimension": 2, "cylinders": [{"generator": [], "translation": list(translation), "radius": 0.2}],
            **fields}


DISC_START = {"start": {"q": [0.5, 0.1], "v": [0.6, 0.8]}}


def table_to_dict(table) -> dict:
    """The table-file document of ``table``."""
    return {
        "dimension": table.dim,
        "cylinders": [
            {
                "generator": [list(map(int, row)) for row in c.generator.integer_basis],
                "translation": [float(t) for t in c.translation],
                "radius": c.radius,
            }
            for c in table.cylinders
        ],
    }


class TestTableFiles:
    def test_round_trip_identical_flags(self):
        table = table_from_dict(ORTHO3_DOC)
        doc = table_to_dict(table)
        again = table_from_dict(doc)
        assert again.condition_1_3_disjoint == table.condition_1_3_disjoint
        assert (again.condition_1_4_pairwise_base_intersection
                == table.condition_1_4_pairwise_base_intersection)
        assert again.transitive == table.transitive
        assert doc == table_to_dict(again)

    def test_missing_field_named(self):
        with pytest.raises(TableFormatError) as err:
            table_from_dict({"dimension": 2, "cylinders": [{"generator": []}]})
        assert "cylinders[0].translation" in str(err.value)

    def test_bad_radius_named(self):
        doc = {"dimension": 2,
               "cylinders": [{"generator": [], "translation": [0.0, 0.0], "radius": -1}]}
        with pytest.raises(TableFormatError) as err:
            table_from_dict(doc)
        assert err.value.field == "cylinders[0].radius"

    def test_non_integer_generator_named(self):
        doc = {"dimension": 2,
               "cylinders": [{"generator": [[0.5, 1.0]], "translation": [0.0, 0.0],
                               "radius": 0.1}]}
        with pytest.raises(TableFormatError):
            table_from_dict(doc)

    def test_boolean_generator_named(self):
        doc = {"dimension": 3,
               "cylinders": [{"generator": [[True, False, False]], "translation": [0.0, 0.0, 0.0],
                               "radius": 0.1}]}
        with pytest.raises(TableFormatError) as err:
            table_from_dict(doc)
        assert err.value.field == "cylinders[0].generator"


class TestScenario:
    def test_inline_and_file_reference_hash_identically(self, tmp_path):
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(ORTHO3_DOC))
        inline = tmp_path / "inline.json"
        inline.write_text(json.dumps({"table": ORTHO3_DOC, "seed": 7}))
        byref = tmp_path / "byref.json"
        byref.write_text(json.dumps({"table_file": "table.json", "seed": 7}))
        a = load_scenario(inline)
        b = load_scenario(byref)
        assert a.scenario_hash == b.scenario_hash

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(TableFormatError):
            load_scenario(bad)


class TestEventDump:
    def test_csv_17_digit_round_trip(self, tmp_path, sinai2):
        seg = evolve(phase_point([0.51, 0.33], [0.6, 0.8]), sinai2, 5.0)
        path = tmp_path / "events.csv"
        write_events_csv(seg, path, {"scenario_hash": "deadbeef"})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# tool_version=")
        assert lines[1] == "# scenario_hash=deadbeef"
        rows = list(csv.DictReader(lines[2:]))
        assert len(rows) == seg.n_events
        for row, event in zip(rows, seg.events):
            assert float(row["time"]) == event.time  # 17 sig digits are lossless
            assert int(row["cylinder_index"]) == event.cylinder_index
            assert float(row["cos_phi"]) == event.cos_phi
            assert float(row["q_hit_0"]) == event.q_hit[0]


# ---------------------------------------------------------------------------
# The per-event writers as they were before segments became columns. The
# array-fed writers must reproduce their files byte for byte.
# ---------------------------------------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


def _reference_meta(fh, meta):
    fh.write(f"# tool_version={__version__}\n")
    fh.write(f"# scenario_hash={meta.get('scenario_hash', '')}\n")


def reference_events_csv(segment, path, meta):
    d = segment.table.dim
    header = (["time", "cylinder_index"] + [f"q_hit_{i}" for i in range(d)]
              + [f"v_pre_{i}" for i in range(d)] + [f"v_post_{i}" for i in range(d)] + ["cos_phi"])
    with open(path, "w", newline="") as fh:
        _reference_meta(fh, meta)
        writer = csv.writer(fh)
        writer.writerow(header)
        for e in segment.events:
            writer.writerow([_fmt(e.time), e.cylinder_index] + [_fmt(x) for x in e.q_hit]
                            + [_fmt(x) for x in e.v_pre] + [_fmt(x) for x in e.v_post] + [_fmt(e.cos_phi)])


def reference_segment_dict(segment, meta):
    flag = segment.singular_flag
    return {
        "tool_version": __version__,
        "scenario_hash": meta.get("scenario_hash", ""),
        "duration": segment.duration,
        "symbolic": list(segment.symbolic),
        "singular_flag": None if flag is None else {"kind": flag.kind, "event_index": flag.event_index},
        "start": {"q": list(map(float, segment.start.q)), "v": list(map(float, segment.start.v))},
        "end": {"q": list(map(float, segment.end.q)), "v": list(map(float, segment.end.v))},
        "events": [
            {"time": e.time, "cylinder_index": e.cylinder_index, "q_hit": list(map(float, e.q_hit)),
             "v_pre": list(map(float, e.v_pre)), "v_post": list(map(float, e.v_post)), "cos_phi": e.cos_phi}
            for e in segment.events
        ],
    }


def reference_qmonitor_csv(samples, path, meta):
    d = samples[0][1].z.shape[0]
    header = ["time"] + [f"z_{i}" for i in range(d)] + [f"w_{i}" for i in range(d)] + ["Q"]
    with open(path, "w", newline="") as fh:
        _reference_meta(fh, meta)
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, nv, q in samples:
            writer.writerow([_fmt(t)] + [_fmt(x) for x in nv.z] + [_fmt(x) for x in nv.w] + [_fmt(q)])


def writer_segments(table, name):
    """Segments of one table: budget-truncated, cut by duration with a
    tail, without events, and on dense3 the grazing repro."""
    from test_tangent import tangential_dense3_start

    rng = np.random.default_rng(90)
    budget = evolve(random_phase_point(table, rng), table, 1e9, max_events=40)
    segs = [budget, evolve(budget.start, table, 0.5 * (budget.time[4] + budget.time[5])),
            evolve(random_phase_point(table, rng), table, 1e-9)]
    if name == "dense3":
        segs.append(evolve(tangential_dense3_start(), table, 1e12))
    return segs


class TestWritersMatchPerEventReference:
    @pytest.mark.parametrize("name", ["sinai2", "ortho3", "skew3", "parallel3", "dense3", "split4", "hs4x2"])
    def test_files_byte_identical(self, request, tmp_path, name):
        table = request.getfixturevalue(name)
        meta = {"scenario_hash": "0123abcd"}
        kinds = set()
        for i, seg in enumerate(writer_segments(table, name)):
            kinds.add(seg.singular_flag.kind if seg.singular_flag else ("tail" if seg.n_events else "empty"))
            ref, got = tmp_path / f"ref{i}", tmp_path / f"got{i}"
            reference_events_csv(seg, ref.with_suffix(".csv"), meta)
            write_events_csv(seg, got.with_suffix(".csv"), meta)
            assert got.with_suffix(".csv").read_bytes() == ref.with_suffix(".csv").read_bytes()
            write_json(reference_segment_dict(seg, meta), ref.with_suffix(".json"))
            write_segment_json(seg, got.with_suffix(".json"), meta)
            assert got.with_suffix(".json").read_bytes() == ref.with_suffix(".json").read_bytes()
            write_json(segment_to_dict(seg, meta), got.with_suffix(".dict.json"))
            assert got.with_suffix(".dict.json").read_bytes() == ref.with_suffix(".json").read_bytes()
            if seg.singular_flag is not None and seg.singular_flag.kind == "tangential":
                continue
            rng = np.random.default_rng(i)
            n0 = normal_vector(rng.normal(size=table.dim), rng.normal(size=table.dim))
            for rescale in (False, True):
                samples = evolve_normal(n0, seg, rescale=rescale)
                reference_qmonitor_csv(samples, ref.with_suffix(".q.csv"), meta)
                write_qmonitor_csv(samples, got.with_suffix(".q.csv"), meta)
                assert got.with_suffix(".q.csv").read_bytes() == ref.with_suffix(".q.csv").read_bytes()
        assert {"budget_exceeded", "tail", "empty"} <= kinds
        assert name != "dense3" or "tangential" in kinds


    def test_velocities_not_chained_along_an_orbit(self, tmp_path, skew3):
        # The writers reuse a v_post text for the next v_pre only when the two
        # rows are bitwise equal: a signed zero or any other change is written.
        seg = writer_segments(skew3, "skew3")[0]
        v_pre, v_post = seg.v_pre.copy(), seg.v_post.copy()
        v_pre[3] = -v_pre[3]
        v_post[5, 1], v_pre[6, 1] = 0.0, -0.0
        seg = dataclasses.replace(seg, v_pre=v_pre, v_post=v_post)
        meta = {"scenario_hash": ""}
        reference_events_csv(seg, tmp_path / "ref.csv", meta)
        write_events_csv(seg, tmp_path / "got.csv", meta)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        write_json(reference_segment_dict(seg, meta), tmp_path / "ref.json")
        write_segment_json(seg, tmp_path / "got.json", meta)
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert b"-0," in (tmp_path / "got.csv").read_bytes()


def test_survey_csv_content(tmp_path):
    from cylbilliards.hyperbolicity import SAMPLE_ERROR, SurveyResult, SurveyRow

    rows = (SurveyRow(0, 7, 12, 2, 3, True, True, 1, True, "none"),
            SurveyRow(1, 7, 0, 0, None, None, None, None, None, SAMPLE_ERROR, error="StartsInsideScatterer: x"),
            SurveyRow(2, 7, 5, 1, 2, False, False, None, None, "budget_exceeded"))
    write_survey_csv(SurveyResult(rows, {}), tmp_path / "survey.csv", {"scenario_hash": "ab12"})
    assert (tmp_path / "survey.csv").read_bytes() == (
        f"# tool_version={__version__}\n# scenario_hash=ab12\n"
        "sample_id,seed,n_collisions,distinct_cylinders,span_dim,codim2_ok,full_span,neutral_dim,sufficient,"
        "singular_flag\r\n"
        "0,7,12,2,3,true,true,1,true,none\r\n"
        "1,7,0,0,,,,,,error\r\n"
        "2,7,5,1,2,false,false,,,budget_exceeded\r\n").encode()


# Commands that print a summary after writing their files, with the scenario
# entries and the files each writes.
CLOSED_STDOUT_CASES = [
    ("analyze", {}, ["analyze.json"]),
    ("sufficiency", {"duration": 10.0, "start": {"q": [0.25, 0.25, 0.25], "v": [0.6, 0.64, 0.48]}},
     ["sufficiency.json"]),
    ("lyapunov", {"seed": 5, "duration": 20.0}, ["lyapunov.json"]),
    ("survey", {"samples": 4, "duration": 5.0, "seed": 7}, ["survey.csv", "survey_summary.json"]),
]


def _write_scenario(tmp_path, name, extra):
    path = tmp_path / name
    path.write_text(json.dumps({"table": ORTHO3_DOC, **extra}))
    return str(path)


class TestCli:
    def test_analyze_success(self, tmp_path, capsys):
        scen = _write_scenario(tmp_path, "s.json", {})
        code = main(["analyze", "--scenario", scen, "--out", str(tmp_path / "out")])
        assert code == 0
        doc = json.loads((tmp_path / "out" / "analyze.json").read_text())
        assert doc["transitive"] is True
        stdout = json.loads(capsys.readouterr().out)
        assert stdout["transitive"] is True

    def test_analyze_non_transitive_is_still_success(self, tmp_path, capsys):
        table = {
            "dimension": 4,
            "cylinders": [
                {"generator": [[0, 0, 1, 0], [0, 0, 0, 1]],
                 "translation": [0, 0, 0, 0], "radius": 0.2},
                {"generator": [[1, 0, 0, 0], [0, 1, 0, 0]],
                 "translation": [0.5, 0.5, 0.5, 0.5], "radius": 0.2},
            ],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"table": table}))
        code = main(["analyze", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "analyze.json").read_text())
        assert doc["transitive"] is False
        assert doc["splitting_witness"] is not None

    def test_boolean_generator_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"table": {"dimension": 3, "cylinders": [
            {"generator": [[True, False, False]], "translation": [0.0, 0.0, 0.0], "radius": 0.2}]}}))
        assert main(["analyze", "--scenario", str(path), "--out", str(tmp_path)]) == 3
        assert json.loads(capsys.readouterr().err)["field"] == "cylinders[0].generator"

    def test_malformed_table_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"table": {"dimension": 2, "cylinders": [
            {"generator": [], "translation": [0.0], "radius": 0.2}]}}))
        code = main(["analyze", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        diag = json.loads(capsys.readouterr().err)
        assert "translation" in diag["error"]

    @pytest.mark.parametrize("command, extra, field", [
        ("simulate", {"start": {"q": [0.5, 0.1, 0.2], "v": [0.6, 0.8]}}, "start.q"),
        ("simulate", {"start": {"q": [0.5, 0.1], "v": [0.6]}}, "start.v"),
        ("simulate", {"start": {"q": [0.5, 0.1], "v": [0.6, "fast"]}}, "start.v"),
        ("simulate", {"start": {"q": [0.5, float("nan")], "v": [0.6, 0.8]}}, "start.q"),
        ("simulate", {"start": {"q": [0.5, 0.1], "v": [float("inf"), 0.8]}}, "start.v"),
        ("simulate", {"start": {"q": [0.5, 0.1], "v": [0.6, 0.8]}, "duration": "long"}, "duration"),
        ("simulate", {"start": {"q": [0.5, 0.1], "v": [0.6, 0.8]}, "max_events": "many"}, "max_events"),
        ("qmonitor", {"start": {"q": [0.5, 0.1], "v": [0.6, 0.8]},
                      "normal": {"z": [1.0, 0.0, 0.0], "w": [0.0, 1.0]}}, "normal.z"),
        ("qmonitor", {"start": {"q": [0.5, 0.1], "v": [0.6, 0.8]},
                      "normal": {"z": [1.0, 0.0], "w": [0.0]}}, "normal.w"),
        ("lyapunov", {"seed": 1, "renorm_interval": "often"}, "renorm_interval"),
        ("survey", {"seed": "lucky"}, "seed"),
        ("survey", {"seed": 1, "samples": "many"}, "samples"),
        ("survey", {"seed": 1, "samples": -3}, "samples"),
        ("survey", {"seed": 1, "samples": 2, "mode": "bogus"}, "mode"),
        ("survey", {"seed": 1, "samples": 2, "max_events": 0}, "max_events"),
        ("simulate", {"start": {"q": [0.5, 0.1], "v": [0.6, 0.8]}, "max_events": 0}, "max_events"),
        ("sufficiency", {"start": {"q": [0.5, 0.1], "v": [0.6, 0.8]}, "max_events": -2}, "max_events"),
        ("lyapunov", {"seed": 1, "max_events": 0}, "max_events"),
        ("lyapunov", {"seed": 1, "duration": 0}, "duration"),
        ("lyapunov", {"seed": 1, "duration": -5.0}, "duration"),
        ("lyapunov", {"seed": 1, "renorm_interval": 0}, "renorm_interval"),
        ("lyapunov", {"seed": 1, "renorm_interval": -3}, "renorm_interval"),
        ("simulate", {"start": {"q": [0.5, 0.1], "v": [0.6, 0.8]}, "duration": -5}, "duration"),
        ("simulate", {"start": {"q": [0.5, 0.1], "v": [0.6, 0.8]}, "duration": float("nan")}, "duration"),
        ("qmonitor", {"start": {"q": [0.5, 0.1], "v": [0.6, 0.8]}, "duration": -5,
                      "normal": {"z": [1.0, 0.0], "w": [0.0, 1.0]}}, "duration"),
        ("sufficiency", {"start": {"q": [0.5, 0.1], "v": [0.6, 0.8]}, "duration": -5}, "duration"),
        ("survey", {"seed": 1, "samples": 2, "duration": -5}, "duration"),
        ("simulate", {"table": disc_doc(disjointness_budget=None), **DISC_START}, "disjointness_budget"),
        ("simulate", {"table": disc_doc(disjointness_budget="lots"), **DISC_START}, "disjointness_budget"),
        ("simulate", {"table": disc_doc(disjointness_budget=2.5), **DISC_START}, "disjointness_budget"),
        ("simulate", {"table": disc_doc(check_disjointness="false"), **DISC_START}, "check_disjointness"),
        ("simulate", {"table": disc_doc(dimension=2.7), **DISC_START}, "dimension"),
        ("simulate", {"table": disc_doc(dimension=True), **DISC_START}, "dimension"),
        ("simulate", {"table": disc_doc(dimension=-1), **DISC_START}, "dimension"),
        ("simulate", {"table": {**disc_doc(), "cylinders": [{"generator": [], "translation": [0.0, 0.0],
                                                            "radius": float("inf")}]}, **DISC_START},
         "cylinders[0].radius"),
        ("simulate", {"table": disc_doc(("a", 0.0)), **DISC_START}, "cylinders[0].translation"),
        ("simulate", {"table": disc_doc((float("nan"), 0.0)), **DISC_START}, "cylinders[0].translation"),
        ("simulate", {"table": disc_doc((0.0, float("inf"))), **DISC_START}, "cylinders[0].translation"),
        ("simulate", {"table": disc_doc(("0.5", 0.0)), **DISC_START}, "cylinders[0].translation"),
        ("simulate", {"table": disc_doc((0.0, True)), **DISC_START}, "cylinders[0].translation"),
        ("simulate", {"start": {"q": [0.5, False], "v": [0.6, 0.8]}}, "start.q"),
        ("simulate", {"start": {"q": [0.5, 0.1], "v": ["0.6", 0.8]}}, "start.v"),
        ("survey", {"seed": 1, "samples": 2.5}, "samples"),
        ("simulate", {**DISC_START, "duration": "20"}, "duration"),
        ("survey", {"seed": "1", "samples": 2}, "seed"),
        ("survey", {"seed": 1, "samples": True}, "samples"),
        ("survey", {"seed": 1.5, "samples": 2}, "seed"),
        ("survey", {"seed": True, "samples": 2}, "seed"),
        ("simulate", {**DISC_START, "max_events": 7.5}, "max_events"),
        ("simulate", {**DISC_START, "max_events": True}, "max_events"),
        ("lyapunov", {"seed": 1, "renorm_interval": 2.5}, "renorm_interval"),
        ("lyapunov", {"seed": 1, "renorm_interval": True}, "renorm_interval"),
        ("qmonitor", {**DISC_START, "normal": {"z": [1.0, 0.0], "w": [0.0, 1.0]}, "rescale": "false"}, "rescale"),
        ("qmonitor", {**DISC_START, "normal": {"z": [1.0, 0.0], "w": [0.0, 1.0]}, "rescale": 0}, "rescale"),
    ])
    def test_bad_scenario_value_exit_3_names_field(self, tmp_path, capsys, command, extra, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"table": disc_doc(), **extra}))
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 3
        assert json.loads(capsys.readouterr().err)["field"] == field

    def test_consecutive_calls_share_one_parser(self, tmp_path, capsys, monkeypatch):
        from cylbilliards import cli

        runs = [["analyze"], ["simulate", "--seed", "3"], ["--version"], ["survey", "--threads", "2"],
                ["simulate", "--seed", "4"], ["survey", "--seed", "5"], ["frobnicate"], ["sufficiency"]]
        scen = _write_scenario(tmp_path, "s.json", {"seed": 2, "samples": 3, "duration": 6.0})

        def session(tag):
            outputs = []
            for i, run in enumerate(runs):
                argv = run if run[0].startswith("--") else run + ["--scenario", scen, "--out",
                                                                    str(tmp_path / tag / str(i))]
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                files = sorted((p.name, p.read_bytes()) for p in (tmp_path / tag / str(i)).glob("*"))
                outputs.append((code, capsys.readouterr(), files))
            return outputs

        cached = session("cached")
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert session("fresh") == cached
        assert [code for code, _, _ in cached] == [0, 0, 0, 0, 0, 0, 2, 0]
        assert cached[2][1].out.strip() == __version__

    @pytest.mark.parametrize("argv", [["analyze", "--seed", "3", "--threads", "9"], ["simulate", "--threads", "2"]],
                             ids=["analyze", "simulate"])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys, argv):
        scen = _write_scenario(tmp_path, "s.json", {"seed": 2, "duration": 6.0})
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scenario", scen, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validation_failure_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"table": {"dimension": 2, "cylinders": [
            {"generator": [], "translation": [0.0, 0.0], "radius": 0.7}]}}))
        code = main(["analyze", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 2

    def test_simulate_and_outputs(self, tmp_path, capsys):
        scen = _write_scenario(tmp_path, "sim.json", {
            "seed": 7, "duration": 8.0,
            "start": {"q": [0.25, 0.25, 0.25], "v": [0.6, 0.64, 0.48]},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scen, "--out", str(out)]) == 0
        events = json.loads((out / "events.json").read_text())
        assert events["symbolic"]
        assert events["scenario_hash"]
        assert (out / "events.csv").exists()

    def test_missing_seed_for_survey_exit_3(self, tmp_path, capsys):
        scen = _write_scenario(tmp_path, "sv.json", {"samples": 4, "duration": 5.0})
        assert main(["survey", "--scenario", scen, "--out", str(tmp_path)]) == 3

    def test_survey_deterministic_files(self, tmp_path, capsys):
        scen = _write_scenario(tmp_path, "sv.json",
                               {"samples": 6, "duration": 8.0, "seed": 7})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["survey", "--scenario", scen, "--out", str(out1)]) == 0
        assert main(["survey", "--scenario", scen, "--out", str(out2)]) == 0
        assert (out1 / "survey.csv").read_bytes() == (out2 / "survey.csv").read_bytes()
        assert ((out1 / "survey_summary.json").read_bytes()
                == (out2 / "survey_summary.json").read_bytes())

    def test_qmonitor_q_column_non_increasing(self, tmp_path, capsys):
        scen = _write_scenario(tmp_path, "qm.json", {
            "seed": 3, "duration": 6.0,
            "start": {"q": [0.25, 0.3, 0.2], "v": [0.48, 0.6, 0.64]},
            "normal": {"z": [0.2, -0.4, 0.1], "w": [0.3, 0.1, -0.2]},
        })
        out = tmp_path / "out"
        assert main(["qmonitor", "--scenario", scen, "--out", str(out)]) == 0
        lines = (out / "qmonitor.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[2:]))
        q_values = [float(r["Q"]) for r in rows]
        assert len(q_values) > 3
        assert all(b <= a + 1e-9 for a, b in zip(q_values, q_values[1:]))

    def test_lyapunov_report(self, tmp_path, capsys):
        scen = _write_scenario(tmp_path, "ly.json",
                               {"seed": 5, "duration": 80.0, "renorm_interval": 5})
        out = tmp_path / "out"
        assert main(["lyapunov", "--scenario", scen, "--out", str(out)]) == 0
        doc = json.loads((out / "lyapunov.json").read_text())
        assert len(doc["exponents"]) == 4
        assert doc["exponents"][0] > 0
        assert doc["seed"] == 5

    def test_lyapunov_tangential_orbit_writes_partial_report(self, tmp_path, capsys):
        # Nearly along the shared generator, the first collision grazes: the
        # run is a singularity abort (exit 4) with a partial report.
        dense3 = {"dimension": 3, "cylinders": [
            {"generator": [[0, 0, 1]], "translation": [0.0, 0.0, 0.0], "radius": 0.35},
            {"generator": [[0, 0, 1]], "translation": [0.5, 0.5, 0.0], "radius": 0.35},
        ]}
        scen = tmp_path / "tang.json"
        scen.write_text(json.dumps({"table": dense3, "seed": 0, "duration": 1e12,
                                    "start": {"q": [0.5, 0.05, 0.1], "v": [3e-11, 1e-11, 1.0]}}))
        out = tmp_path / "out"
        assert main(["lyapunov", "--scenario", str(scen), "--out", str(out)]) == 4
        doc = json.loads((out / "lyapunov_partial.json").read_text())
        assert doc["n_events"] == 0
        assert all(np.isfinite(doc["exponents"]))
        assert not (out / "lyapunov.json").exists()

    def test_sufficiency_command(self, tmp_path, capsys):
        scen = _write_scenario(tmp_path, "sf.json", {
            "duration": 10.0,
            "start": {"q": [0.25, 0.25, 0.25], "v": [0.6, 0.64, 0.48]},
        })
        out = tmp_path / "out"
        assert main(["sufficiency", "--scenario", scen, "--out", str(out)]) == 0
        doc = json.loads((out / "sufficiency.json").read_text())
        assert doc["neutral_dim"] >= 1
        assert doc["method"] == "advance_system"
        assert 1 <= doc["decided_collisions"] <= doc["n_collisions"]
        assert doc["largest_kept_sv"] < 1e-3
        assert doc["smallest_dropped_sv"] > 1e3

    def test_sufficiency_zero_collisions(self, tmp_path, capsys):
        scen = _write_scenario(tmp_path, "sf0.json", {
            "duration": 1e-4,
            "start": {"q": [0.25, 0.25, 0.25], "v": [0.6, 0.64, 0.48]},
        })
        out = tmp_path / "out"
        assert main(["sufficiency", "--scenario", scen, "--out", str(out)]) == 0
        doc = json.loads((out / "sufficiency.json").read_text())
        assert doc["sufficient"] is False
        assert doc["neutral_dim"] == 3
        # No collision, so no rank decision and nothing dropped.
        assert doc["decided_collisions"] == 0
        assert doc["largest_kept_sv"] == 0.0
        assert doc["smallest_dropped_sv"] is None

    @pytest.mark.parametrize("command, extra, files", CLOSED_STDOUT_CASES)
    def test_files_written_before_a_closed_stdout(self, tmp_path, monkeypatch, command, extra, files):
        # As under `cylbilliards <command> ... | true`: the reader is gone
        # before the summary is printed, and every file must be there.
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        scen = _write_scenario(tmp_path, f"{command}.json", extra)
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main([command, "--scenario", scen, "--out", str(out)]) == 0
        assert all((out / name).stat().st_size > 0 for name in files)

    @pytest.mark.parametrize("command, extra, files", CLOSED_STDOUT_CASES)
    def test_closed_stdout_pipe_exits_ok(self, tmp_path, command, extra, files):
        # A real pipe whose read end is closed, in a fresh interpreter: the
        # summary and the interpreter's final flush both meet EPIPE.
        scen = _write_scenario(tmp_path, f"{command}.json", extra)
        out = tmp_path / "out"
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(cylbilliards.__file__).parents[1]),
                                                           os.environ.get("PYTHONPATH", "")]))
        try:
            proc = subprocess.run([sys.executable, "-m", "cylbilliards.cli", command, "--scenario", scen,
                                   "--out", str(out)], stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert all((out / name).stat().st_size > 0 for name in files)
