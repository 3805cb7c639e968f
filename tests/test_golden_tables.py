"""Every calibrated suite row and every shipped scenario's variant cost-matrix
row against those recorded with the benchmark in perfbench/references.json,
so that a change to any cycle figure fails the suite, not only the benchmark
run."""

import json
from fractions import Fraction

import pytest

from dptisim.bench import SUITES, run_suites, scenario_matrix
from dptisim.scenario import load_scenario

from conftest import SCENARIOS

REFERENCES = json.loads((SCENARIOS.parent / "perfbench" / "references.json").read_text())
SUITE_ROWS = REFERENCES["suites"]
MATRIX_ROWS = REFERENCES["matrix"]


def _cycles(report):
    return {row.label: str(Fraction(row.cycles)) for row in report.rows}


@pytest.fixture(scope="module")
def suite_tables():
    return {report.title: _cycles(report) for report in run_suites(sorted(SUITES))}


def test_every_suite_table_and_row_is_recorded(suite_tables):
    assert {title: sorted(rows) for title, rows in suite_tables.items()} == {
        title: sorted(rows) for title, rows in SUITE_ROWS.items()
    }


@pytest.mark.parametrize("title, label", [
    (title, label) for title, rows in sorted(SUITE_ROWS.items()) for label in sorted(rows)
])
def test_suite_row_matches_reference(suite_tables, title, label):
    assert suite_tables[title][label] == SUITE_ROWS[title][label]


def test_every_shipped_scenario_has_a_recorded_matrix():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(MATRIX_ROWS)


@pytest.mark.parametrize("stem", sorted(MATRIX_ROWS))
def test_cost_matrix_matches_reference(stem):
    sc = load_scenario(SCENARIOS / f"{stem}.json")
    (report,) = scenario_matrix(sc, sc.cost_table)
    assert _cycles(report) == MATRIX_ROWS[stem]
