"""Sweep orchestration: reproducibility, invariants, failure rows."""

import pytest

from slicenet.experiments import AXES, ExperimentPlan, report, run_experiment


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
    with pytest.raises(ValueError):
        _plan(tmp_path, values=()).validate()
    with pytest.raises(ValueError):
        _plan(tmp_path, table_max_size=9).validate()
    with pytest.raises(ValueError):
        _plan(tmp_path, scenario_path="x.yaml").validate()
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
