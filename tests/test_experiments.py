"""Sweep orchestration: reproducibility, invariants, failure rows."""

import math

import pytest

from slicenet.experiments import AXES, ExperimentPlan, ResultRow, report, run_experiment


def _plan(tmp_path, **kw):
    base = dict(
        axis="density",
        values=(1.0, 2.0),
        variants=("s3",),
        out_dir=str(tmp_path / "out"),
        table_max_size=2,
        table_duration_s=0.5,
    )
    base.update(kw)
    return ExperimentPlan(**base)


def test_plan_validation(tmp_path):
    with pytest.raises(ValueError):
        _plan(tmp_path, axis="weather").validate()
    with pytest.raises(ValueError):
        _plan(tmp_path, variants=()).validate()
    with pytest.raises(ValueError, match="unknown variants"):
        _plan(tmp_path, variants=("s3", "s4")).validate()
    with pytest.raises(ValueError):
        _plan(tmp_path, values=()).validate()
    with pytest.raises(ValueError):
        _plan(tmp_path, table_max_size=9).validate()
    with pytest.raises(ValueError):
        _plan(tmp_path, scenario_path="x.json").validate()
    # non-finite values are refused before any table is built
    for axis, values in (("density", (math.inf,)), ("density", (math.nan,)),
                         ("min_qos", (1e6, math.nan))):
        with pytest.raises(ValueError, match="positive and finite"):
            _plan(tmp_path, axis=axis, values=values).validate()
    assert sorted(AXES) == ["cell_size", "density", "min_qos"]


def test_sweep_is_byte_identical(tmp_path):
    plan = _plan(tmp_path)
    rows1 = run_experiment(plan)
    report(rows1, plan.out_dir)
    first = {
        p.name: p.read_bytes()
        for p in sorted((tmp_path / "out").glob("*.tsv"))
    }
    assert "results.tsv" in first
    rows2 = run_experiment(plan)
    report(rows2, plan.out_dir)
    second = {
        p.name: p.read_bytes()
        for p in sorted((tmp_path / "out").glob("*.tsv"))
    }
    assert first == second
    assert rows1 == rows2


def test_feasible_rows_meet_floors(tmp_path):
    plan = _plan(tmp_path, values=(2.0,), variants=("s2", "s3"))
    rows = run_experiment(plan)
    for row in rows:
        assert not row.error
        for s, sid in enumerate(row.service_ids):
            # four links each hold a floor for every slice
            floor = {1: 1.0e7, 2: 2.0e7}[sid]
            assert row.admitted_bps(s) >= 4 * floor * (1 - 1e-9)
        assert row.objective <= row.oracle_objective * (1 + 1e-6)


def test_infeasible_cells_become_error_rows(tmp_path):
    plan = _plan(
        tmp_path,
        axis="min_qos",
        values=(5e6, 5e9),
        variants=("s3",),
    )
    rows = run_experiment(plan)
    by_value = {row.value: row for row in rows}
    assert not by_value[5e6].error
    assert by_value[5e9].error.startswith("infeasible-")
    assert by_value[5e9].objective == 0.0
    # the sweep recorded both cells despite the failure
    assert len(rows) == 2


def test_close_values_write_their_own_traces(tmp_path):
    # the two floors agree to 6 significant digits
    plan = _plan(tmp_path, axis="min_qos", values=(1234567.0, 1234568.0))
    rows = run_experiment(plan)
    assert not any(row.error for row in rows)
    traces = sorted(p.name for p in (tmp_path / "out").glob("trace_*.tsv"))
    assert traces == ["trace_min_qos_1234567.0_s3.tsv", "trace_min_qos_1234568.0_s3.tsv"]


def test_density_increases_contention(tmp_path):
    plan = _plan(tmp_path, values=(1.0, 6.0), table_max_size=3, table_duration_s=1.0)
    rows = run_experiment(plan)
    lean = next(r for r in rows if r.value == 1.0)
    dense = next(r for r in rows if r.value == 6.0)
    assert dense.objective <= lean.objective


def test_series_files_one_column_per_variant(tmp_path):
    plan = _plan(tmp_path, variants=("s1", "s3"), values=(1.0,))
    rows = run_experiment(plan)
    report(rows, plan.out_dir)
    series = sorted((tmp_path / "out").glob("series_admitted_*.tsv"))
    assert len(series) == 2
    header = series[0].read_text().splitlines()[0].split("\t")
    assert header == ["value", "s1", "s3"]


def test_series_files_hold_one_row_per_sweep_value(tmp_path):
    # one row per value, one cell per variant, blank where a cell is missing
    def row(value, variant, licensed, unlicensed):
        return ResultRow(
            value=value, variant=variant, service_ids=(1, 2), licensed_bps=licensed,
            unlicensed_bps=unlicensed, objective=1.0, oracle_objective=1.0, iterations=3,
        )

    rows = [
        row(2.0, "s3", (1.0, 2.0), (3.0, 4.0)),
        row(1.0, "s3", (5.0, 6.0), (7.0, 8.0)),
        row(1.0, "s1", (0.0, 0.0), (9.0, 10.0)),
    ]
    written = report(rows, tmp_path)
    assert len(written) == 1 + 3 * 2
    series = {p.name: p.read_text().splitlines() for p in written[1:]}
    assert series["series_licensed_s1.tsv"] == ["value\ts1\ts3", "1\t0\t5", "2\t\t1"]
    assert series["series_unlicensed_s2.tsv"] == ["value\ts1\ts3", "1\t10\t8", "2\t\t4"]
    assert series["series_admitted_s2.tsv"] == ["value\ts1\ts3", "1\t10\t14", "2\t\t6"]
    assert all(len(lines) == 3 for lines in series.values())
