"""Command-line behavior: exit codes, file outputs, error categories."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slicenet
from slicenet.cli import main
from slicenet.scenario import ScenarioValidationError, load_scenario, scenario_to_dict

COMMITTED = Path(__file__).resolve().parent.parent / "scenarios" / "two_mno_20mhz.json"


@pytest.fixture()
def workspace(tmp_path):
    scenario = tmp_path / "sc.yaml"
    table = tmp_path / "table.tsv"
    assert main([
        "gen", "--kind", "two-mno-urban", "--seed", "7",
        "--out", str(scenario),
    ]) == 0
    assert main([
        "table", "--max-size", "2", "--duration", "0.5",
        "--out", str(table), "--cache", str(tmp_path / "cache"),
    ]) == 0
    return scenario, table


def test_commands_without_an_lp_never_import_scipy(tmp_path):
    # the LP is solved link by link in closed form, so no command imports
    # scipy, not even solve, game and experiment; a fresh interpreter,
    # because this one has imported scipy already
    table = str(tmp_path / "t.tsv")
    code = (
        "import sys\n"
        "from slicenet.cli import main\n"
        "def run(*argv, code=0):\n"
        "    assert main(list(argv)) == code, argv\n"
        "    assert 'scipy' not in sys.modules, f'scipy imported by {argv[0]}'\n"
        "assert 'scipy' not in sys.modules, 'scipy imported by slicenet.cli'\n"
        f"sc, table = {str(COMMITTED)!r}, {table!r}\n"
        f"run('gen', '--kind', 'grid', '--out', {str(tmp_path / 'g.json')!r})\n"
        "run('sim', '--scenario', sc, '--duration', '0.1')\n"
        "run('table', '--max-size', '2', '--duration', '0.1', '--out', table)\n"
        "run('mboe', '--scenario', sc, '--table', table)\n"
        "run('solve', '--scenario', sc, '--table', table, '--solver', 'lp')\n"
        # infeasible: the blamed family is found link by link too
        "run('solve', '--scenario', sc, '--table', table, '--variant', 's1', code=4)\n"
        "run('game', '--scenario', sc, '--table', table)\n"
        "run('experiment', '--axis', 'min_qos', '--values', '1e6,1e9', '--table-max-size', '2',"
        " '--table-duration', '0.1', '--out', 'res')\n"
    )
    src = str(Path(slicenet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_gen_writes_scenario(tmp_path, capsys):
    out = tmp_path / "g.yaml"
    assert main(["gen", "--kind", "grid", "--out", str(out)]) == 0
    assert out.exists()
    assert "nodes" in capsys.readouterr().out


def test_sim_reports_all_contenders(workspace, capsys):
    scenario, _ = workspace
    assert main(["sim", "--scenario", str(scenario), "--duration", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("id\ttech")
    assert "w1\t" in out


def test_mboe_lists_provenance(workspace, capsys):
    scenario, table = workspace
    assert main([
        "mboe", "--scenario", str(scenario), "--table", str(table), "--fallback",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("vertex\taccess\tprovenance")
    assert "m1b1u1" in out


def test_solve_writes_trace(workspace, tmp_path, capsys):
    scenario, table = workspace
    trace = tmp_path / "trace.tsv"
    assert main([
        "solve", "--scenario", str(scenario), "--table", str(table),
        "--fallback", "--trace", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "objective" in out and "oracle_objective" in out
    assert trace.read_text().startswith("# method\tadmm")


def test_solve_lp_has_no_trace_header(workspace, capsys):
    scenario, table = workspace
    assert main([
        "solve", "--scenario", str(scenario), "--table", str(table),
        "--fallback", "--solver", "lp",
    ]) == 0
    out = capsys.readouterr().out
    assert "oracle_objective" not in out


def test_game_prints_verdict(workspace, capsys):
    scenario, table = workspace
    assert main([
        "game", "--scenario", str(scenario), "--table", str(table), "--fallback",
    ]) == 0
    assert "core\t" in capsys.readouterr().out


def test_missing_scenario_is_io_error(tmp_path, capsys):
    assert main(["sim", "--scenario", str(tmp_path / "nope.yaml")]) == 1
    assert capsys.readouterr().err.startswith("error: io:")


def test_broken_scenario_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("services: [\n")
    assert main(["sim", "--scenario", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: scenario:")


_BAD_OVERRIDE = [{"service": 1, "min_throughput_mbps": [5]}]


@pytest.mark.parametrize(
    "command, overrides, band, message",
    [
        *((command, _BAD_OVERRIDE, {}, "mno 1 override:")
          for command in ("sim", "mboe", "solve", "game")),
        # malformed band fields, each in an otherwise valid document
        ("sim", [], {"carrier_frequency_ghz": "high"},
         "band: field 'carrier_frequency_ghz' is not a number"),
        ("sim", [], {"ssg": {"one": [1]}}, "band ssg one: 'one' is not an integer id"),
        ("sim", [], {"ssg": {"1": 5}}, "band ssg 1: members must be a list"),
    ],
    ids=["sim", "mboe", "solve", "game", "band-carrier", "ssg-key", "ssg-members"],
)
def test_malformed_override_exits_3(tmp_path, capsys, command, overrides, band, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "services": [{"id": 1, "min_throughput_bps": 1e6, "price_per_bit": 1e-6}],
        "mnos": [{"id": 1, "licensed_bandwidth_hz": 2e7, "overrides": overrides}],
        "nodes": [],
        "links": [],
        "band": {"unlicensed_bandwidth_hz": 2e7, **band},
    }))
    argv = [command, "--scenario", str(bad)]
    if command != "sim":
        argv += ["--table", str(tmp_path / "unread.tsv")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: scenario: {message}")


def test_non_numeric_node_field_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "services": [],
        "mnos": [{"id": 1, "licensed_bandwidth_hz": 2e7}],
        "nodes": [{"id": "b1", "kind": "laa", "position_m": [0, 0], "owner": 1,
                   "tx_power_dbm": "loud"}],
        "links": [],
        "band": {"unlicensed_bandwidth_hz": 2e7},
    }))
    assert main(["sim", "--scenario", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: scenario: node b1: field 'tx_power_dbm' is not a number")


def test_yaml_document_exits_3(tmp_path, capsys):
    # hand-written YAML is no scenario file
    bad = tmp_path / "hand.yaml"
    bad.write_text(
        "services: []\nmnos: []\nnodes: []\nlinks: []\n"
        "band: {unlicensed_bandwidth_hz: 2.0e+7}\n"
    )
    assert main(["sim", "--scenario", str(bad)]) == 3
    assert capsys.readouterr().err.startswith(f"error: scenario: {bad}: not a JSON document:")


def test_scenario_not_in_utf8_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"services": "\xff"}')
    assert main(["sim", "--scenario", str(bad)]) == 3
    assert capsys.readouterr().err.startswith(f"error: scenario: {bad}: not a JSON document:")


def test_invalid_scenario_exits_3(tmp_path, capsys):
    service = {"id": 1, "min_throughput_bps": 1.0, "price_per_bit": 1.0}
    cases = [
        ({"unlicensed_bandwidth_hz": -5.0}, [], "band-unlicensed-nonnegative"),
        # an operator's override obeys the service's own sign rules
        *(
            ({"unlicensed_bandwidth_hz": 2e7}, [{"service": 1, field: -1.0}], invariant)
            for field, invariant in (
                ("min_throughput_bps", "mno-override-throughput-nonnegative"),
                ("min_throughput_mbps", "mno-override-throughput-nonnegative"),
                ("price_per_bit", "mno-override-price-nonnegative"),
                ("price_per_mbit", "mno-override-price-nonnegative"),
            )
        ),
    ]
    bad = tmp_path / "bad.json"
    for band, overrides, invariant in cases:
        bad.write_text(json.dumps({
            "services": [service],
            "mnos": [{"id": 1, "licensed_bandwidth_hz": 2e7, "overrides": overrides}],
            "nodes": [],
            "links": [],
            "band": band,
        }))
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(bad)
        assert err.value.invariant == invariant
        assert main(["sim", "--scenario", str(bad)]) == 3
        assert capsys.readouterr().err.startswith(f"error: scenario: {invariant}:")


def test_link_named_like_an_idle_access_point_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(COMMITTED.read_text().replace('"id": "m1b1u1"', '"id": "w1"'))
    assert main(["sim", "--scenario", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: scenario: contender-ids-unique: link w1")


def test_game_on_a_market_with_no_operators_exits_3(workspace, tmp_path, capsys):
    # a Wi-Fi-only deployment solves to 0, but has no coalition to value
    _, table = workspace
    doc = json.loads(COMMITTED.read_text())
    doc["mnos"], doc["links"] = [], []
    doc["nodes"] = [node for node in doc["nodes"] if node["kind"] == "wifi"]
    wifi_only = tmp_path / "wifi_only.json"
    wifi_only.write_text(json.dumps(doc))
    argv = ["--scenario", str(wifi_only), "--table", str(table)]
    assert main(["solve", *argv, "--solver", "lp"]) == 0
    capsys.readouterr()
    assert main(["game", *argv]) == 3
    err = capsys.readouterr().err
    assert err == "error: no-operators: the market has no operators, so there is no game to play\n"


def test_game_on_a_market_past_the_coalition_bound_exits_3(tmp_path, capsys):
    # 9 operators have 511 coalitions, past the table's 8 operators; this
    # used to exit 1 as an unnamed ValueError
    scenario, table = tmp_path / "nine.json", tmp_path / "table.tsv"
    assert main([
        "gen", "--kind", "uniform-random", "--mnos", "9", "--bs-per-mno", "1",
        "--wifi-aps", "0", "--cell-size", "1000", "--seed", "3", "--out", str(scenario),
    ]) == 0
    assert main(["table", "--max-size", "3", "--duration", "0.05", "--out", str(table)]) == 0
    capsys.readouterr()
    assert main(["game", "--scenario", str(scenario), "--table", str(table), "--fallback"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: too-many-operators: 9 operators have 511 coalitions;")


def test_infeasible_problem_exits_4(workspace, tmp_path, capsys):
    scenario, table = workspace
    doc = scenario_to_dict(load_scenario(scenario))
    (service,) = [s for s in doc["services"] if s["id"] == 1]
    service["min_throughput_bps"] = 9e9
    hard = tmp_path / "hard.yaml"
    hard.write_text(json.dumps(doc))
    assert main([
        "solve", "--scenario", str(hard), "--table", str(table), "--fallback",
    ]) == 4
    assert capsys.readouterr().err.startswith("error: infeasible-")


def test_bad_simulation_config_exits_5(workspace, capsys):
    scenario, _ = workspace
    assert main([
        "sim", "--scenario", str(scenario), "--slot-time", "0.1",
    ]) == 5
    assert capsys.readouterr().err.startswith("error: simulation:")


@pytest.mark.parametrize(
    "argv",
    [
        ["sim", "--duration", "nan"],
        ["sim", "--duration", "inf"],
        ["sim", "--duration", "0.01", "--slot-time", "nan"],
        ["sim", "--duration", "0.01", "--arrivals", "poisson", "--arrival-rate", "nan"],
        ["table", "--max-size", "2", "--duration", "nan"],
    ],
    ids=["sim-duration-nan", "sim-duration-inf", "sim-slot-nan", "sim-rate-nan", "table-nan"],
)
def test_non_finite_simulation_setting_exits_5(workspace, tmp_path, capsys, argv):
    # rejected before the event loop starts, which would never end
    scenario, _ = workspace
    inputs = {"sim": ["--scenario", str(scenario)], "table": ["--out", str(tmp_path / "t.tsv")]}
    assert main(argv + inputs[argv[0]]) == 5
    assert capsys.readouterr().err.startswith("error: simulation:")


def test_table_miss_without_fallback_exits_5(workspace, tmp_path, capsys):
    scenario, _ = workspace
    # a singletons-only table cannot cover the sensing pair in the scenario
    small = tmp_path / "tiny.tsv"
    assert main([
        "table", "--max-size", "1", "--duration", "0.5",
        "--out", str(small), "--cache", str(tmp_path / "cache1"),
    ]) == 0
    code = main(["solve", "--scenario", str(scenario), "--table", str(small)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: table-miss")


@pytest.mark.parametrize(
    "edit",
    [
        lambda row: row.rsplit("\t", 1)[0],  # truncated row
        lambda row: row.replace("\t", "\tn/a,", 1),  # non-numeric share
    ],
    ids=["truncated-row", "non-numeric-share"],
)
def test_malformed_table_exits_5(workspace, tmp_path, capsys, edit):
    scenario, table = workspace
    lines = table.read_text().splitlines()
    lines[-1] = edit(lines[-1])
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["mboe", "--scenario", str(scenario), "--table", str(bad)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: table: {bad}:{len(lines)}:")


def test_table_with_duplicate_key_exits_5(workspace, tmp_path, capsys):
    scenario, table = workspace
    lines = table.read_text().splitlines()
    bad = tmp_path / "dup.tsv"
    bad.write_text("\n".join(lines + lines[-1:]) + "\n")
    code = main(["mboe", "--scenario", str(scenario), "--table", str(bad)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: table: {bad}:{len(lines) + 1}: duplicate key ")
    assert err.rstrip().endswith(f"first on line {len(lines)}")


def test_table_of_unknown_version_exits_5(workspace, tmp_path, capsys):
    scenario, table = workspace
    bad = tmp_path / "v2.tsv"
    bad.write_text(table.read_text().replace("access table v1", "access table v2", 1))
    code = main(["mboe", "--scenario", str(scenario), "--table", str(bad)])
    assert code == 5
    assert capsys.readouterr().err.startswith(f"error: table: {bad}:1: unsupported format")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--solver", "quantum"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["mboe", "--scenario", "sc.yaml", "--table", "t.tsv", "--remove", "x"],
        ["experiment", "--axis", "min_qos", "--values", "1e6,abc"],
        # refused before any table is measured
        ["experiment", "--axis", "density", "--values", "1", "--variants", "s4"],
    ],
    ids=["remove-x", "values-abc", "variants-s4"],
)
def test_malformed_list_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected comma-separated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--axis", "density", "--values", "0"],
        ["experiment", "--axis", "density", "--values", "inf"],
        ["experiment", "--axis", "density", "--values", "nan"],
        ["experiment", "--axis", "min_qos", "--values", "1e6,nan"],
        ["experiment", "--axis", "density", "--values", "1", "--table-max-size", "9"],
        ["experiment", "--axis", "density", "--values", "1", "--scenario", "sc.json"],
        # generation parameters, refused before the access table is built
        ["experiment", "--axis", "density", "--values", "1", "--bs-per-mno", "0"],
        ["experiment", "--axis", "density", "--values", "1", "--ues-per-bs", "0"],
        ["experiment", "--axis", "density", "--values", "1", "--cell-size", "50"],
        ["experiment", "--axis", "cell_size", "--values", "400,50"],
        ["experiment", "--axis", "density", "--values", "1", "--table-duration", "0"],
        ["experiment", "--axis", "density", "--values", "1", "--table-duration", "nan"],
        ["experiment", "--axis", "density", "--values", "1", "--table-duration", "inf"],
        ["gen", "--kind", "grid", "--cell-size", "50"],
        ["gen", "--kind", "grid", "--mnos", "0"],
        ["gen", "--kind", "grid", "--wifi-aps", "-5"],
        ["table", "--max-size", "0"],
        ["table", "--max-size", "7"],
    ],
    ids=["values-0", "values-inf", "values-nan", "min-qos-nan", "table-max-size-9",
         "scenario-density", "experiment-bs-per-mno-0", "experiment-ues-per-bs-0",
         "experiment-cell-size-50", "cell-size-values-50", "table-duration-0",
         "table-duration-nan", "table-duration-inf", "cell-size-50", "mnos-0",
         "wifi-aps-negative", "max-size-0", "max-size-7"],
)
def test_parameter_outside_its_domain_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: usage: ")
    # refused before any table is measured or file written
    assert not out.exists()


def test_removing_an_absent_operator_exits_2(workspace, capsys):
    scenario, table = workspace
    code = main([
        "mboe", "--scenario", str(scenario), "--table", str(table), "--fallback",
        "--remove", "2,9",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: usage: --remove: no operator 9 in the scenario")
    assert captured.out == ""


@pytest.mark.parametrize(
    "solver, setting, value",
    [
        ("admm", "--gamma", "-1"),
        ("admm", "--gamma", "0"),
        ("admm", "--gamma", "nan"),
        ("admm", "--tol", "-0.5"),
        ("admm", "--tol", "inf"),
        ("admm", "--max-iter", "-3"),
        ("subgrad", "--max-iter", "-3"),
        ("subgrad", "--step-scale", "nan"),
        ("subgrad", "--step-scale", "-0.5"),
    ],
)
def test_solver_setting_outside_its_domain_exits_2(tmp_path, capsys, solver, setting, value):
    # reported before the scenario is even read
    code = main([
        "solve", "--scenario", str(tmp_path / "none.yaml"), "--table", str(tmp_path / "none.tsv"),
        "--solver", solver, setting, value,
    ])
    assert code == 2
    name = setting[2:].replace("-", "_")
    assert capsys.readouterr().err.startswith(f"error: usage: {name} must be")


def test_zero_iterations_and_zero_step_are_valid_settings(workspace, capsys):
    scenario, table = workspace
    base = ["solve", "--scenario", str(scenario), "--table", str(table), "--fallback"]
    assert main([*base, "--solver", "admm", "--max-iter", "0"]) == 0
    assert "flags\tmax-iterations" in capsys.readouterr().out
    assert main([*base, "--solver", "subgrad", "--step-scale", "0", "--max-iter", "0"]) == 0
    # a setting the chosen solver does not take is not checked
    assert main([*base, "--solver", "lp", "--gamma", "0"]) == 0


def test_each_solver_keeps_its_own_iteration_cap(workspace, tmp_path, capsys):
    # without --max-iter the subgradient runs its own 500 iterations, not
    # ADMM's 2000; with it, both run exactly that many
    scenario, table = workspace
    base = ["solve", "--scenario", str(scenario), "--table", str(table), "--fallback"]
    trace = tmp_path / "trace.tsv"
    assert main([*base, "--solver", "subgrad", "--trace", str(trace)]) == 0
    assert "iterations\t500" in capsys.readouterr().out.splitlines()
    assert trace.read_text().splitlines()[-2].startswith("500\t")
    assert main([*base, "--solver", "admm", "--tol", "0"]) == 0
    assert "iterations\t2000" in capsys.readouterr().out.splitlines()
    for solver in ("admm", "subgrad"):
        assert main([*base, "--solver", solver, "--tol", "0", "--max-iter", "30"]) == 0
        assert "iterations\t30" in capsys.readouterr().out.splitlines()


def test_seed_only_where_it_is_read(workspace, capsys):
    scenario, table = workspace
    # mboe, solve and game draw nothing at random, so they take no --seed
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scenario", str(scenario), "--table", str(table), "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    sim = ["sim", "--scenario", str(scenario), "--duration", "0.2"]
    assert main([*sim, "--seed", "1"]) == 0
    seeded = capsys.readouterr().out
    assert main([*sim, "--seed", "2"]) == 0
    assert capsys.readouterr().out != seeded


def test_experiment_smoke(tmp_path, capsys):
    out_dir = tmp_path / "res"
    assert main([
        "experiment", "--axis", "density", "--values", "1",
        "--variants", "s3", "--table-max-size", "2",
        "--table-duration", "0.5", "--out", str(out_dir),
    ]) == 0
    assert (out_dir / "results.tsv").exists()
    assert "1 rows" in capsys.readouterr().out


def test_reused_parser_leaks_no_state(workspace, capsys):
    # main builds its parser once per process; no call may see another's
    # options or defaults
    _, table = workspace
    base = ["--scenario", str(COMMITTED), "--table", str(table), "--fallback"]
    assert main(["solve", *base]) == 0
    first = capsys.readouterr().out
    assert main(["game", *base]) == 0
    assert main(["solve", *base, "--solver", "subgrad", "--step-scale", "0.5", "--max-iter", "5"]) == 0
    capsys.readouterr()
    assert main(["solve", *base]) == 0
    assert capsys.readouterr().out == first
    with pytest.raises(SystemExit) as exc:
        main(["solve", *base, "--solver", "quantum"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["solve", *base]) == 0
    assert capsys.readouterr().out == first


def _logged(argv):
    """Run ``main`` with stdout and stderr redirected; its exit code and
    the stream its stderr went to."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err


def test_module_entry_logs_at_its_level(tmp_path):
    # run as ``python -m slicenet.cli``, the module is ``__main__``
    src = str(Path(slicenet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = ["table", "--max-size", "1", "--duration", "0.1", "--out", str(tmp_path / "t.tsv")]
    run = subprocess.run(
        [sys.executable, "-m", "slicenet.cli", *argv, "--log-level", "info"],
        env={**os.environ, "PYTHONPATH": path},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines() == [
        "INFO slicenet.cli: measured 1/2 (1;L;0;0)",
        "INFO slicenet.cli: measured 2/2 (1;W;0;0)",
    ]


def test_each_call_logs_at_its_own_level_to_its_own_stderr(tmp_path):
    argv = ["table", "--max-size", "1", "--duration", "0.1", "--out", str(tmp_path / "t.tsv")]
    code, first = _logged([*argv, "--log-level", "info"])
    assert code == 0
    progress = first.getvalue().splitlines()
    assert progress == [
        "INFO slicenet.cli: measured 1/2 (1;L;0;0)",
        "INFO slicenet.cli: measured 2/2 (1;W;0;0)",
    ]
    # a second call prints to its own stream, not to the first one's
    code, second = _logged([*argv, "--log-level", "info"])
    assert code == 0
    assert second.getvalue().splitlines() == progress
    assert first.getvalue().splitlines() == progress
    # and a later call may lower the level again
    code, quiet = _logged([*argv, "--log-level", "warning"])
    assert code == 0
    assert quiet.getvalue() == ""
