"""Listen-before-talk engine: closed-form anchors, exclusion, tables."""

import math

import pytest

from slicenet.coexist import (
    AccessTable,
    ContenderSpec,
    SimConfig,
    SimConfigError,
    TableFormatError,
    build_contention_graph,
    entry_seed,
    isolated_access_share,
    measure_table,
    run_coexistence,
    run_lbt,
    unlicensed_contenders,
)
from slicenet.scenario import (
    NODE_DEFAULTS,
    BandPlan,
    Link,
    Mno,
    Node,
    Scenario,
    ServiceType,
    path_loss_db,
)
from slicenet.topology import KINDS, generate_topology


def _spec(cid, tech):
    p = NODE_DEFAULTS[tech]
    return ContenderSpec(
        id=cid,
        tech=tech,
        difs_s=p["difs_s"],
        txop_s=p["txop_s"],
        cw_min=p["cw_min"],
        cw_max=p["cw_max"],
    )


def test_isolated_closed_form_pins():
    # one renewal cycle: DIFS + mean backoff (5 slots of 9 us) + hold
    assert math.isclose(isolated_access_share(25e-6, 2.0e-3, 3, 7), 2000.0 / 2070.0)
    assert math.isclose(isolated_access_share(34e-6, 1.504e-3, 3, 7), 1504.0 / 1583.0)


def test_isolated_simulation_matches_closed_form():
    for tech in ("laa", "wifi"):
        spec = _spec("x", tech)
        out = run_lbt([spec], [0], SimConfig(duration_s=10.0, seed=4))
        closed = isolated_access_share(
            spec.difs_s, spec.txop_s, spec.cw_min, spec.cw_max
        )
        assert abs(out.stats["x"].access_share - closed) < 0.02
        assert out.stats["x"].collision_count == 0


def test_symmetric_pair_splits_evenly():
    specs = [_spec("a", "laa"), _spec("b", "laa")]
    out = run_lbt(specs, [0b10, 0b01], SimConfig(duration_s=10.0, seed=9))
    sa = out.stats["a"].access_share
    sb = out.stats["b"].access_share
    assert abs(sa - sb) < 0.05
    assert 0.3 < sa < 0.7


def test_hidden_pair_acts_isolated():
    specs = [_spec("a", "laa"), _spec("b", "laa")]
    out = run_lbt(specs, [0, 0], SimConfig(duration_s=10.0, seed=2))
    closed = isolated_access_share(25e-6, 2.0e-3, 3, 7)
    for cid in ("a", "b"):
        assert abs(out.stats[cid].access_share - closed) < 0.02


def test_sensing_neighbors_never_overlap_cleanly():
    specs = [_spec("a", "laa"), _spec("b", "wifi"), _spec("c", "laa")]
    # a-b and b-c sense each other; a-c are hidden
    masks = [0b010, 0b101, 0b010]
    out = run_lbt(
        specs, masks, SimConfig(duration_s=5.0, seed=3, record_timeline=True)
    )
    spans = {}
    for cid, start, end, collided in out.timeline:
        spans.setdefault(cid, []).append((start, end, collided))
    for x, y in (("a", "b"), ("b", "c")):
        for s1, e1, c1 in spans.get(x, ()):
            for s2, e2, c2 in spans.get(y, ()):
                if s1 < e2 and s2 < e1:
                    # overlap between mutually sensing contenders only
                    # happens inside the vulnerability slot and both
                    # transmissions must be marked lost
                    assert c1 and c2


def test_airtime_conservation_in_clique():
    specs = [_spec(c, "laa") for c in "abc"]
    masks = [0b110, 0b101, 0b011]
    config = SimConfig(duration_s=10.0, seed=7)
    out = run_lbt(specs, masks, config)
    total = sum(st.airtime_s for st in out.stats.values())
    assert total <= config.duration_s + 2.0e-3


def test_determinism():
    specs = [_spec("a", "laa"), _spec("b", "wifi")]
    cfg = SimConfig(duration_s=3.0, seed=42)
    first = run_lbt(specs, [0b10, 0b01], cfg)
    second = run_lbt(specs, [0b10, 0b01], cfg)
    assert first.stats == second.stats
    third = run_lbt(specs, [0b10, 0b01], SimConfig(duration_s=3.0, seed=43))
    assert third.stats != first.stats


def test_poisson_arrivals_reduce_airtime():
    spec = _spec("x", "laa")
    sat = run_lbt([spec], [0], SimConfig(duration_s=5.0, seed=1))
    thin = run_lbt(
        [spec],
        [0],
        SimConfig(duration_s=5.0, seed=1, arrivals="poisson", arrival_rate_hz=50.0),
    )
    assert thin.stats["x"].airtime_s < sat.stats["x"].airtime_s


def test_config_validation():
    with pytest.raises(SimConfigError):
        SimConfig(duration_s=-1.0).validate()
    with pytest.raises(SimConfigError):
        SimConfig(arrivals="bursty").validate()
    with pytest.raises(SimConfigError):
        SimConfig(occupancy="uniform").validate()


def test_slot_longer_than_difs_rejected():
    spec = _spec("x", "laa")
    with pytest.raises(SimConfigError, match="slot time"):
        run_lbt([spec], [0], SimConfig(duration_s=1.0, slot_time_s=1e-3))


def test_scenario_graph_edges(two_mno_scenario):
    g = build_contention_graph(two_mno_scenario)
    assert sorted(g.ids) == [
        "m1b1u1", "m1b2u1", "m2b1u1", "m2b2u1", "w1", "w2",
    ]
    # only the access point parked next to the first base station is
    # inside carrier-sense range of anything
    assert g.edges == frozenset({("m1b1u1", "w1")})


def _reference_edges(scenario):
    """The scalar graph build, pair by pair: node a hears node b when
    b's power less the path loss reaches a's CCA threshold, co-located
    radios always hear each other, and contenders on one node share a
    radio."""
    nodes = {n.id: n for n in scenario.nodes}
    carrier = scenario.band.carrier_frequency_ghz

    def hears(a, b):
        dist = math.hypot(
            a.position_m[0] - b.position_m[0], a.position_m[1] - b.position_m[1]
        )
        if dist <= 0.0:
            return True
        return b.tx_power_dbm - path_loss_db(dist, carrier) >= a.cca_threshold_dbm

    contenders = unlicensed_contenders(scenario)
    edges = set()
    for i, (spec_a, node_a, _) in enumerate(contenders):
        for spec_b, node_b, _ in contenders[i + 1:]:
            a, b = nodes[node_a], nodes[node_b]
            if node_a == node_b or hears(a, b) or hears(b, a):
                edges.add(tuple(sorted((spec_a.id, spec_b.id))))
    return frozenset(edges)


@pytest.mark.parametrize("kind", KINDS)
def test_graph_build_matches_scalar_reference(kind):
    for seed in range(4):
        scenario = generate_topology(
            kind, seed=seed, bs_per_mno=6, ues_per_bs=3, wifi_aps=12, cell_size_m=150.0
        )
        g = build_contention_graph(scenario)
        assert g.ids == tuple(spec.id for spec, _, _ in unlicensed_contenders(scenario))
        assert g.edges == _reference_edges(scenario)
        assert g.edges  # dense enough that the comparison means something


def _hand_scenario(nodes, links):
    return Scenario(
        services=(ServiceType(id=1, min_throughput_bps=1e6, price_per_bit=1e-6),),
        mnos=(Mno(id=1, licensed_bandwidth_hz=2e7), Mno(id=2, licensed_bandwidth_hz=2e7)),
        nodes=tuple(nodes),
        links=tuple(links),
        band=BandPlan(unlicensed_bandwidth_hz=2e7),
    )


def test_graph_build_one_way_hearing_and_shared_radios():
    # at 30 m the loss is about 90.2 dB: a 23 dBm station reaches
    # -67 dBm, below the default -62 dBm threshold, but a 30 dBm
    # station (or a -70 dBm threshold) makes the hearing one-way
    nodes = [
        Node(id="b1", kind="laa", position_m=(0.0, 0.0), owner=1),
        Node(id="b2", kind="laa", position_m=(30.0, 0.0), owner=2, tx_power_dbm=30.0),
        Node(id="w1", kind="wifi", position_m=(-30.0, 0.0), cca_threshold_dbm=-70.0),
        Node(id="w2", kind="wifi", position_m=(500.0, 500.0)),
        Node(id="w3", kind="wifi", position_m=(500.0, 500.0)),
    ]
    links = [
        Link(id="b1u1", owner=1, node="b1", ue_position_m=(0.0, 10.0)),
        Link(id="b1u2", owner=1, node="b1", ue_position_m=(10.0, 0.0)),
        Link(id="b2u1", owner=2, node="b2", ue_position_m=(30.0, 10.0)),
    ]
    scenario = _hand_scenario(nodes, links)
    g = build_contention_graph(scenario)
    assert g.edges == _reference_edges(scenario)
    assert g.edges == frozenset({
        ("b1u1", "b1u2"),  # one node, one radio
        ("b1u1", "b2u1"), ("b1u2", "b2u1"),  # b1 hears b2, not the reverse
        ("b1u1", "w1"), ("b1u2", "w1"),  # w1 hears b1, not the reverse
        ("w2", "w3"),  # co-located radios
    })


def test_run_coexistence_covers_all_contenders(two_mno_scenario):
    out = run_coexistence(two_mno_scenario, SimConfig(duration_s=1.0, seed=0))
    assert set(out.stats) == {
        "m1b1u1", "m1b2u1", "m2b1u1", "m2b2u1", "w1", "w2",
    }
    for st in out.stats.values():
        assert 0.0 <= st.access_share <= 1.0
        assert 0.0 <= st.normalized_access <= 1.05


def test_table_round_trip(tmp_path, table3):
    assert len(table3.entries) == 15
    path = tmp_path / "t.tsv"
    table3.save(path)
    back = AccessTable.load(path)
    assert back.entries == table3.entries
    assert back.params_line() == table3.params_line()


def test_entry_seed_stable():
    assert entry_seed(0, "somekey") == entry_seed(0, "somekey")
    assert entry_seed(0, "somekey") != entry_seed(1, "somekey")
    assert entry_seed(0, "somekey") != entry_seed(0, "otherkey")


def test_measure_table_cache_hit(tmp_path):
    cfg = SimConfig(duration_s=0.5, seed=0)
    first = measure_table(2, cfg, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("table_2_*.tsv"))) == 1
    again = measure_table(2, cfg, cache_dir=tmp_path)
    assert again.entries == first.entries


def _write_table(tmp_path, table3, edit):
    path = tmp_path / "t.tsv"
    table3.save(path)
    lines = path.read_text().splitlines()
    lines[3] = edit(lines[3])
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: row.rsplit("\t", 1)[0], "expected 3 tab-separated fields"),
        (lambda row: row.replace("\t", "\tabc,", 1), "could not convert"),
        (lambda row: "2;LX;11;1" + row[row.index("\t"):], "bad key"),
        (lambda row: "2;LL;11;1\t0.5\t0.5", "needs 2 values"),
    ],
    ids=["truncated", "non-numeric", "bad-key", "short"],
)
def test_table_load_names_file_and_line(tmp_path, table3, edit, message):
    path = _write_table(tmp_path, table3, edit)
    with pytest.raises(TableFormatError, match=message) as err:
        AccessTable.load(path)
    assert f"{path}:4:" in str(err.value)
