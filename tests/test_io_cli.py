"""Table files, scenario loading, dumps, and the command-line interface."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from cylbilliards import TableFormatError, evolve, phase_point
from cylbilliards.cli import main
from cylbilliards.tableio import (
    load_scenario,
    table_from_dict,
    table_to_dict,
    write_events_csv,
)

ORTHO3_DOC = {
    "dimension": 3,
    "cylinders": [
        {"generator": [[1, 0, 0]], "translation": [0.0, 0.0, 0.0], "radius": 0.2},
        {"generator": [[0, 1, 0]], "translation": [0.5, 0.5, 0.5], "radius": 0.2},
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

    def test_malformed_table_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"table": {"dimension": 2, "cylinders": [
            {"generator": [], "translation": [0.0], "radius": 0.2}]}}))
        code = main(["analyze", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        diag = json.loads(capsys.readouterr().err)
        assert "translation" in diag["error"]

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
        assert doc["largest_kept_sv"] == 0.0
        assert doc["smallest_dropped_sv"] is None
