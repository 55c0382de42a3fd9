import math
from pathlib import Path

import pytest

import systola as sy
from systola.errors import ParameterError
from systola.verify import CSV_COLUMNS

GOLDEN = Path(__file__).parent / "golden"


def test_measure_cell_smallest():
    row = sy.measure_cell(1, 3)
    assert row.vertices == 3
    assert row.vertex_budget == 3
    assert row.cover_systole == 3
    assert row.homotopy_radius == 0
    assert row.homology_radius == 0
    assert row.cup_essential is True
    assert row.essential_bound == 3
    assert row.cup_bound == 2
    assert row.ok_all


def test_measure_cell_flags_recomputable():
    row = sy.measure_cell(2, 4)
    assert row.ok_vertex_budget == (row.vertices <= row.vertex_budget)
    assert row.ok_systole == (row.cover_systole == row.s)
    assert row.ok_radius_identity == (row.homotopy_radius == row.s // 2 - 1)
    assert row.ok_essential_bound == (row.vertices >= row.essential_bound)
    assert row.ok_cup_bound == (row.cup_essential is not True
                                or row.vertices >= row.cup_bound)


def test_cup_certificate_skipped_above_cutoff():
    row = sy.measure_cell(4, 3)
    assert row.cup_essential is None
    assert row.ok_cup_bound is True


def test_grid_range_validation():
    with pytest.raises(ParameterError):
        sy.verify_grid(0, 3)
    with pytest.raises(ParameterError):
        sy.verify_grid(5, 3)
    with pytest.raises(ParameterError):
        sy.verify_grid(2, 9)
    for kwargs in ({"n_max": True, "s_max": 3}, {"n_max": 2.0, "s_max": 3},
                   {"n_max": 1, "s_max": 3.0}, {"n_max": 1, "s_max": "3"},
                   {"n_max": 1, "s_max": 3, "seed": "abc"}, {"n_max": 1, "s_max": 3, "seed": -1},
                   {"n_max": 1, "s_max": 3, "threads": 2},
                   {"n_max": 1, "s_max": 3, "threads": True}):
        with pytest.raises(ParameterError):
            sy.verify_grid(**kwargs)


def test_report_rows_ordered_and_serializable():
    report = sy.verify_grid(2, 4, seed=7)
    assert [(r.n, r.s) for r in report.rows] == [(1, 3), (1, 4), (2, 3), (2, 4)]
    csv_text = report.to_csv_text()
    lines = csv_text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5
    assert all(line.split(",")[1] == "7" for line in lines[1:])
    doc = report.to_json_dict()
    assert doc["seed"] == 7
    assert doc["all_passed"] is False  # the (1, 4) bound-gap row
    assert [r["ok_all"] for r in doc["rows"]] == [True, False, True, True]


def test_infinite_values_serialize_as_inf():
    from systola.verify import _csv_cell, _json_cell
    assert _csv_cell(math.inf) == "inf"
    assert _json_cell(math.inf) == "inf"
    assert _csv_cell(True) == "1" and _csv_cell(False) == "0" and _csv_cell(None) == ""


def test_grid_json_matches_golden(grid_report):
    report, _ = grid_report
    assert report.to_json_text() == (GOLDEN / "verify_n4_s8.json").read_text()
