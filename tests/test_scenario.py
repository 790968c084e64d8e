"""Scenario model: propagation pins, file round-trips, validation."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import slicenet
from slicenet.cli import main
from slicenet.scenario import (
    BandPlan,
    Link,
    Node,
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
    path_loss_db,
    rate_per_hz,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from slicenet.topology import generate_topology

COMMITTED = Path(__file__).resolve().parent.parent / "scenarios" / "two_mno_20mhz.yaml"


def test_path_loss_pins():
    # 43.3 log10(d) + 11.5 + 20 log10(f)
    assert math.isclose(path_loss_db(10.0, 1.0), 54.8)
    assert math.isclose(path_loss_db(100.0, 5.5), 112.90725378988487)


def test_path_loss_domain():
    with pytest.raises(ValueError):
        path_loss_db(0.0, 5.5)
    with pytest.raises(ValueError):
        path_loss_db(10.0, -1.0)


def test_rate_pins():
    assert math.isclose(rate_per_hz(0.0), 1.0)
    assert math.isclose(rate_per_hz(10.0), math.log2(11.0))


@given(
    st.floats(1.0, 1e4, allow_nan=False),
    st.floats(1.0, 1e4, allow_nan=False),
    st.floats(0.5, 10.0, allow_nan=False),
)
def test_path_loss_monotone_in_distance(d1, d2, f):
    lo, hi = sorted((d1, d2))
    assert path_loss_db(lo, f) <= path_loss_db(hi, f) + 1e-12


@given(st.floats(-30.0, 60.0, allow_nan=False), st.floats(0.0, 30.0, allow_nan=False))
def test_rate_monotone_in_snr(snr, gain):
    assert rate_per_hz(snr + gain) >= rate_per_hz(snr)


def test_json_round_trip(tmp_path):
    sc = generate_topology("two-mno-urban", seed=3)
    assert {n.kind for n in sc.nodes} == {"laa", "wifi"}
    first, *rest = sc.mnos
    sc = dataclasses.replace(
        sc,
        mnos=(
            dataclasses.replace(
                first,
                min_throughput_overrides_bps={2: 3.5e6},
                price_overrides_per_bit={1: 7e-7, 2: 1.25e-6},
            ),
            *rest,
        ),
        links=(dataclasses.replace(sc.links[0], snr_db=-3.25), *sc.links[1:]),
        # int keys, which JSON writes as strings
        band=BandPlan(
            unlicensed_bandwidth_hz=4e7, carrier_frequency_ghz=5.2, ssg={2: frozenset({1})}
        ),
    )
    path = tmp_path / "sc.yaml"
    save_scenario(sc, path)
    assert load_scenario(path) == sc


def test_gen_writes_plain_json(tmp_path):
    out = tmp_path / "g.yaml"
    assert main(["gen", "--kind", "two-mno-urban", "--seed", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["services", "mnos", "nodes", "links", "band"]
    assert scenario_from_dict(doc) == load_scenario(out)


def test_json_runs_never_import_yaml(tmp_path):
    # a fresh interpreter: this one may have imported PyYAML already
    code = (
        "import sys\n"
        "from slicenet.cli import main\n"
        "from slicenet.scenario import load_scenario\n"
        f"out = {str(tmp_path / 'g.yaml')!r}\n"
        "assert main(['gen', '--kind', 'grid', '--out', out]) == 0\n"
        "load_scenario(out)\n"
        "assert 'yaml' not in sys.modules, 'PyYAML imported'\n"
    )
    src = str(Path(slicenet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_committed_yaml_loads_equal_to_its_json(tmp_path):
    with pytest.raises(json.JSONDecodeError):
        json.loads(COMMITTED.read_text())  # so it covers the YAML path
    sc = load_scenario(COMMITTED)
    path = tmp_path / "sc.json"
    save_scenario(sc, path)
    assert load_scenario(path) == sc


def test_yaml_dotless_exponent_is_a_number(tmp_path):
    # PyYAML reads 1e-06 (no dot) as the string "1e-06"
    path = tmp_path / "hand.yaml"
    path.write_text(
        "services:\n- {id: 1, min_throughput_bps: 1e+7, price_per_bit: 1e-06}\n"
        "mnos:\n- id: 1\n  licensed_bandwidth_hz: 2e+7\n"
        "  overrides: [{service: 1, price_per_bit: 3e-06}]\n"
        "nodes: []\nlinks: []\nband: {unlicensed_bandwidth_hz: 2e+7}\n"
    )
    sc = load_scenario(path)
    assert sc.services[0].price_per_bit == 1e-06
    assert sc.services[0].min_throughput_bps == 1e7
    assert sc.price_per_bit(1, 1) == 3e-06
    assert sc.band.unlicensed_bandwidth_hz == 2e7


def _doc(**sections) -> str:
    doc = {"services": [], "mnos": [], "nodes": [], "links": []}
    doc["band"] = {"unlicensed_bandwidth_hz": 2e7}
    return json.dumps({**doc, **sections})


def _node(**fields) -> dict:
    return {"id": "b1", "kind": "laa", "position_m": [0.0, 0.0], "owner": 1, **fields}


def _link(**fields) -> dict:
    return {"id": "l1", "owner": 1, "node": "b1", "ue_position_m": [5.0, 0.0], **fields}


@pytest.mark.parametrize(
    "text",
    [
        "services: [\n",
        "[1, 2]",
        "null",
        '{"services": [], "mnos": [], "nodes": [], "links": []}',
        _doc(band=[]),
        _doc(band={"unlicensed_bandwidth_hz": 2e7, "ssg": [1]}),
        _doc(nodes=[1]),
        _doc(services={}),
        _doc(mnos=[{
            "id": 1,
            "licensed_bandwidth_hz": 2e7,
            "overrides": [{"service": 1, "price_per_bit": "cheap"}],
        }]),
        _doc(nodes=[_node(tx_power_dbm="loud")]),
        _doc(nodes=[_node(position_m=["a", 0.0])]),
        _doc(nodes=[_node(owner="x")]),
        _doc(nodes=[_node(cw_min="wide")]),
        _doc(nodes=[_node(cw_max=None)]),
        _doc(links=[_link(snr_db="loud")]),
        _doc(links=[_link(owner="x")]),
        _doc(links=[_link(ue_position_m=[0.0, None])]),
        # integer fields take whole numbers only
        _doc(mnos=[{"id": 1.5, "licensed_bandwidth_hz": 2e7}]),
        _doc(mnos=[{"id": "ID", "licensed_bandwidth_hz": 2e7}]).replace('"ID"', "1e999"),
        _doc(links=[_link(owner=math.nan)]),
        _doc(nodes=[_node(cw_min=3.7)]),
        _doc(services=[{"id": 2.5, "min_throughput_bps": 1e6, "price_per_bit": 1e-6}]),
        _doc(mnos=[{
            "id": 1,
            "licensed_bandwidth_hz": 2e7,
            "overrides": [{"service": 1.5, "price_per_bit": 1e-6}],
        }]),
        _doc(nodes=[_node(owner=math.inf)]),
        _doc(nodes=[_node(cw_max=7.5)]),
        _doc(nodes=[_node(tx_power_dbm=10**400)]),
        _doc(services=[{"id": True, "min_throughput_bps": 1e6, "price_per_bit": 1e-6}]),
        _doc(nodes=[_node(cw_min=False)]),
        _doc(links=[_link(ue_position_m=[True, 0.0])]),
    ],
    ids=[
        "neither-json-nor-yaml",
        "json-array",
        "json-null",
        "json-missing-section",
        "band-not-a-mapping",
        "ssg-not-a-mapping",
        "node-not-a-mapping",
        "section-not-a-list",
        "override-not-a-number",
        "node-power-not-a-number",
        "node-position-not-numbers",
        "node-owner-not-a-number",
        "node-cw-min-not-a-number",
        "node-cw-max-null",
        "link-snr-not-a-number",
        "link-owner-not-a-number",
        "link-position-not-numbers",
        "mno-id-fraction",
        "mno-id-overflow",
        "link-owner-nan",
        "node-cw-min-fraction",
        "service-id-fraction",
        "override-service-fraction",
        "node-owner-infinite",
        "node-cw-max-fraction",
        "node-power-overflow",
        "service-id-boolean",
        "node-cw-min-boolean",
        "link-position-boolean",
    ],
)
def test_malformed_file_is_a_parse_error(tmp_path, capsys, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioParseError):
        load_scenario(path)
    assert main(["sim", "--scenario", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: scenario:")


def test_integral_numbers_load_as_integers():
    doc = json.loads(_doc(
        services=[{"id": 1.0, "min_throughput_bps": 1e6, "price_per_bit": 1e-6}],
        mnos=[{
            "id": 1,
            "licensed_bandwidth_hz": 2e7,
            "overrides": [{"service": 1.0, "price_per_bit": 2e-6}],
        }],
        nodes=[_node(owner=1.0, cw_min=3.0, cw_max="7")],
        links=[_link(owner=1.0)],
    ))
    sc = scenario_from_dict(doc)
    assert sc.services[0].id == 1 and type(sc.services[0].id) is int
    assert sc.mnos[0].price_overrides_per_bit == {1: 2e-6}
    node, link = sc.nodes[0], sc.links[0]
    assert (node.owner, node.cw_min, node.cw_max, link.owner) == (1, 3, 7, 1)
    assert all(type(v) is int for v in (node.owner, node.cw_min, node.cw_max, link.owner))


def test_dict_round_trip(two_mno_scenario):
    doc = scenario_to_dict(two_mno_scenario)
    assert scenario_from_dict(doc) == two_mno_scenario


def _link_renamed(tmp_path, new_id):
    """A copy of the committed scenario whose link ``m1b1u1`` is named
    ``new_id``."""
    path = tmp_path / "renamed.yaml"
    path.write_text(COMMITTED.read_text().replace("id: m1b1u1\n", f"id: {new_id}\n"))
    return path


def test_link_named_like_an_idle_access_point_is_refused(tmp_path):
    # links and idle Wi-Fi access points contend side by side on the
    # shared band, so their ids must differ; w1 serves no link
    with pytest.raises(ScenarioValidationError, match="contender-ids-unique: link w1") as err:
        load_scenario(_link_renamed(tmp_path, "w1"))
    assert err.value.invariant == "contender-ids-unique"
    # a base station is no contender of its own, so its id is free
    assert load_scenario(_link_renamed(tmp_path, "m2b2")).links[0].id == "m2b2"


def test_wifi_node_must_not_have_owner():
    with pytest.raises(ScenarioValidationError, match="wifi-node-unowned"):
        Node(id="w1", kind="wifi", position_m=(0.0, 0.0), owner=1).validate()


def test_laa_node_needs_owner():
    with pytest.raises(ScenarioValidationError, match="laa-node-owned"):
        Node(id="b1", kind="laa", position_m=(0.0, 0.0)).validate()


def test_contention_window_ordering():
    with pytest.raises(ScenarioValidationError, match="contention-window"):
        Node(
            id="b1", kind="laa", position_m=(0.0, 0.0), owner=1, cw_min=9, cw_max=3
        ).validate()


def test_link_rate_decreases_with_distance(two_mno_scenario):
    sc = two_mno_scenario
    base = sc.links[0]
    node = sc.node(base.node)

    def rate_at(offset_m):
        probe = Link(
            id="probe",
            owner=base.owner,
            node=base.node,
            ue_position_m=(node.position_m[0] + offset_m, node.position_m[1]),
        )
        return sc.link_rate_per_hz(probe)

    assert rate_at(5.0) > rate_at(50.0) > rate_at(900.0)


def test_explicit_snr_override(two_mno_scenario):
    sc = two_mno_scenario
    base = sc.links[0]
    pinned = Link(
        id="p", owner=base.owner, node=base.node,
        ue_position_m=base.ue_position_m, snr_db=7.0,
    )
    assert math.isclose(sc.link_snr_db(pinned), 7.0)
    assert math.isclose(sc.link_rate_per_hz(pinned), rate_per_hz(7.0))
