"""Listen-before-talk engine: closed-form anchors, exclusion, tables."""

import math
import os
import random
from collections import deque

import pytest

import slicenet.coexist as coexist
from slicenet.coexist import (
    EXPONENTIAL,
    SATURATED,
    AccessTable,
    ContenderSpec,
    LinkStats,
    SimConfig,
    SimConfigError,
    SimOutcome,
    TableFormatError,
    build_contention_graph,
    entry_seed,
    isolated_access_share,
    measure_entry,
    measure_table,
    run_coexistence,
    run_lbt,
    unlicensed_contenders,
)
from slicenet.contention import enumerate_connected_colored_graphs, graph_from_canonical
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
    for bad in (math.nan, math.inf):
        for config in (
            SimConfig(duration_s=bad),
            SimConfig(slot_time_s=bad),
            SimConfig(arrivals="poisson", arrival_rate_hz=bad),
        ):
            with pytest.raises(SimConfigError, match="finite"):
                config.validate()
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


def _reference_run_lbt(
    specs: list[ContenderSpec],
    neighbor_masks: list[int],
    config: SimConfig,
) -> SimOutcome:
    """The simulator as first written: every event scans all contenders,
    and the draws go through ``Random.randint`` and
    ``Random.expovariate``."""
    config.validate()
    n = len(specs)
    slot = config.slot_time_s
    for s in specs:
        if slot >= s.difs_s:
            raise SimConfigError(
                f"slot time {slot} s must be shorter than DIFS {s.difs_s} s of {s.id}"
            )
        if not (0 <= s.cw_min <= s.cw_max):
            raise SimConfigError(f"bad contention window on {s.id}")
    for i, m in enumerate(neighbor_masks):
        if m >> i & 1:
            raise SimConfigError(f"contender {specs[i].id} senses itself")
        for j in range(n):
            if (m >> j & 1) != (neighbor_masks[j] >> i & 1):
                raise SimConfigError("sense masks are not symmetric")

    if n == 0:
        return SimOutcome(stats={})

    horizon = config.duration_s
    rng = random.Random(config.seed)
    randint = rng.randint
    expo = rng.expovariate

    D = [s.difs_s for s in specs]
    HOLD = [s.txop_s for s in specs]
    LO = [s.cw_min for s in specs]
    HI = [s.cw_max for s in specs]
    masks = neighbor_masks

    saturated = config.arrivals == SATURATED
    rate = config.arrival_rate_hz
    exponential = config.occupancy == EXPONENTIAL
    doubling = config.doubling_backoff
    record = config.record_timeline

    INF = math.inf
    busy = 0
    counting = [False] * n
    anchor = [0.0] * n  # where the current uninterrupted sensing run began
    rem = [0] * n  # whole backoff slots still to complete
    fire_at = [INF] * n  # finite iff counting with a clear channel
    cwhi = list(HI)
    tx_start = [0.0] * n
    tx_end = [INF] * n
    tx_bad = [False] * n
    ready = [0.0] * n  # when the head frame last began contending
    arrivals: list[deque[float]] = [deque() for _ in range(n)]
    next_arr = [INF] * n
    airtime = [0.0] * n
    ok_count = [0] * n
    bad_count = [0] * n
    contention = [0.0] * n
    queue_wait = [0.0] * n
    timeline: list[tuple[str, float, float, bool]] = []

    def hold_time(i: int) -> float:
        return expo(1.0 / HOLD[i]) if exponential else HOLD[i]

    for i in range(n):
        if saturated:
            counting[i] = True
            rem[i] = randint(LO[i], cwhi[i])
            fire_at[i] = D[i] + rem[i] * slot
        else:
            next_arr[i] = expo(rate)

    while True:
        t_end = INF
        b = busy
        while b:
            low = b & -b
            i = low.bit_length() - 1
            b ^= low
            if tx_end[i] < t_end:
                t_end = tx_end[i]
        t_fire = min(fire_at)
        t_arr = min(next_arr) if not saturated else INF

        if min(t_end, t_arr, t_fire) >= horizon:
            break

        if t_end <= t_arr and t_end <= t_fire:
            t = t_end
            b = busy
            while b:
                low = b & -b
                i = low.bit_length() - 1
                b ^= low
                if tx_end[i] != t:
                    continue
                busy ^= low
                tx_end[i] = INF
                if tx_bad[i]:
                    bad_count[i] += 1
                    if doubling:
                        cwhi[i] = min(2 * cwhi[i] + 1, 1023)
                else:
                    ok_count[i] += 1
                    airtime[i] += t - tx_start[i]
                    if doubling:
                        cwhi[i] = HI[i]
                if record:
                    timeline.append((specs[i].id, tx_start[i], t, tx_bad[i]))
                if not saturated:
                    queue_wait[i] += tx_start[i] - arrivals[i].popleft()
                if saturated or arrivals[i]:
                    counting[i] = True
                    rem[i] = randint(LO[i], cwhi[i])
                    ready[i] = t
            # the channel just quieted down for somebody: restart their DIFS
            for j in range(n):
                if counting[j] and fire_at[j] == INF and not busy & masks[j]:
                    anchor[j] = t
                    fire_at[j] = t + D[j] + rem[j] * slot
        elif t_arr <= t_fire:
            t = t_arr
            for i in range(n):
                if next_arr[i] == t:
                    arrivals[i].append(t)
                    next_arr[i] = t + expo(rate)
                    if len(arrivals[i]) == 1 and not busy >> i & 1 and not counting[i]:
                        counting[i] = True
                        rem[i] = randint(LO[i], cwhi[i])
                        ready[i] = t
                        if not busy & masks[i]:
                            anchor[i] = t
                            fire_at[i] = t + D[i] + rem[i] * slot
        else:
            t = t_fire
            # counters expiring within one slot of the first cannot sense
            # the new transmission in time, so the whole batch goes on air
            limit = t + slot * (1.0 - 1e-9)
            batch = [i for i in range(n) if fire_at[i] < limit]
            batch_mask = 0
            for i in batch:
                batch_mask |= 1 << i
            fired = dict()
            for i in batch:
                fired[i] = fire_at[i]
                counting[i] = False
                busy |= 1 << i
                tx_start[i] = fire_at[i]
                tx_end[i] = fire_at[i] + hold_time(i)
                tx_bad[i] = bool(batch_mask & masks[i])
                contention[i] += fire_at[i] - ready[i]
                fire_at[i] = INF
            # bystanders freeze: completed idle slots are banked, the
            # partial slot and all DIFS progress are lost
            for j in range(n):
                if fire_at[j] != INF and busy & masks[j]:
                    beta = min(fired[i] for i in batch if masks[j] >> i & 1)
                    elapsed = beta - anchor[j] - D[j]
                    if elapsed > 0:
                        done = int(elapsed / slot + 1e-7)
                        rem[j] = max(0, rem[j] - done)
                    fire_at[j] = INF

    for i in range(n):
        if busy >> i & 1:
            end = min(tx_end[i], horizon)
            if not tx_bad[i]:
                airtime[i] += max(0.0, end - tx_start[i])
            if record:
                timeline.append((specs[i].id, tx_start[i], end, tx_bad[i]))

    stats = {}
    for i, s in enumerate(specs):
        share = airtime[i] / horizon
        iso = isolated_access_share(s.difs_s, s.txop_s, s.cw_min, s.cw_max, slot)
        stats[s.id] = LinkStats(
            id=s.id,
            tech=s.tech,
            duration_s=horizon,
            airtime_s=airtime[i],
            access_share=share,
            normalized_access=share / iso,
            tx_count=ok_count[i],
            collision_count=bad_count[i],
            contention_s=contention[i],
            queue_wait_s=queue_wait[i],
        )
    return SimOutcome(stats=stats, timeline=tuple(timeline))


def _masks(scenario):
    specs = [spec for spec, _, _ in unlicensed_contenders(scenario)]
    order = {spec.id: i for i, spec in enumerate(specs)}
    masks = [0] * len(specs)
    for a, b in build_contention_graph(scenario).edges:
        masks[order[a]] |= 1 << order[b]
        masks[order[b]] |= 1 << order[a]
    return specs, masks


_SIM_CONFIGS = [
    SimConfig(duration_s=0.4, seed=3),
    SimConfig(duration_s=0.4, seed=4, occupancy="fixed"),
    # fixed holds end together, so ends tie and windows double
    SimConfig(
        duration_s=0.4, seed=5, occupancy="fixed", doubling_backoff=True, record_timeline=True
    ),
    SimConfig(
        duration_s=0.4, seed=6, arrivals="poisson", arrival_rate_hz=400.0, record_timeline=True
    ),
]


@pytest.mark.parametrize("config", _SIM_CONFIGS, ids=["saturated", "fixed", "doubling", "poisson"])
def test_event_local_simulator_matches_reference(config):
    for form in enumerate_connected_colored_graphs(5)[::12]:
        graph = graph_from_canonical(form.size, form.colors, form.edge_bits)
        specs = [_spec(v.id, v.tech) for v in graph.vertices]
        masks = graph.adjacency_masks()
        assert run_lbt(specs, masks, config) == _reference_run_lbt(specs, masks, config), form.key


@pytest.mark.parametrize(
    "kind, config",
    [
        ("two-mno-urban", SimConfig(duration_s=0.1, seed=1, record_timeline=True)),
        (
            "uniform-random",
            SimConfig(duration_s=0.03, seed=2, arrivals="poisson", doubling_backoff=True),
        ),
        # fixed holds end together across many contenders, so the end
        # queue pops ties that must come out in index order
        (
            "two-mno-urban",
            SimConfig(duration_s=0.1, seed=7, occupancy="fixed", doubling_backoff=True),
        ),
    ],
    ids=["urban-saturated", "random-poisson", "urban-fixed-doubling"],
)
def test_event_local_simulator_matches_reference_on_dense_deployments(kind, config):
    # 200 contenders in many overlapping neighbourhoods
    scenario = generate_topology(
        kind, seed=config.seed, bs_per_mno=20, ues_per_bs=4, wifi_aps=40, cell_size_m=200.0
    )
    specs, masks = _masks(scenario)
    assert len(specs) == 200
    assert run_lbt(specs, masks, config) == _reference_run_lbt(specs, masks, config)


def test_inlined_draws_match_the_library():
    # run_lbt draws backoffs and holds without calling randint or
    # expovariate; the stream must stay the one those calls make
    for seed in range(5):
        library, inline = random.Random(seed), random.Random(seed)
        for lo, hi in ((3, 7), (0, 0), (5, 5), (3, 1023), (0, 1)):
            for _ in range(200):
                w = hi - lo + 1
                k = w.bit_length()
                r = inline.getrandbits(k)
                while r >= w:
                    r = inline.getrandbits(k)
                assert lo + r == library.randint(lo, hi)
        for mean in (2.0e-3, 1.504e-3, 1.0 / 1000.0):
            lam = 1.0 / mean
            for _ in range(200):
                assert -math.log(1.0 - inline.random()) / lam == library.expovariate(lam)


@pytest.mark.parametrize(
    "masks, message",
    [
        ([0b01, 0b00], "senses itself"),
        ([0b10, 0b00], "not symmetric"),
        ([0b00, 0b01], "not symmetric"),
        ([0b100, 0b00], "not symmetric"),  # a contender that does not exist
    ],
    ids=["self", "one-way", "one-way-back", "out-of-range"],
)
def test_bad_sense_masks_rejected(masks, message):
    specs = [_spec("a", "laa"), _spec("b", "wifi")]
    with pytest.raises(SimConfigError, match=message):
        run_lbt(specs, masks, SimConfig(duration_s=0.1))


@pytest.mark.parametrize("cpus", [None, 1], ids=["every-cpu", "one-cpu"])
def test_pooled_table_equals_serial_entries(cpus, monkeypatch):
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    config = SimConfig(duration_s=0.2, seed=11)
    forms = enumerate_connected_colored_graphs(3)
    seen = []
    table = measure_table(3, config, progress=lambda *call: seen.append(call))
    assert list(table.entries.values()) == [measure_entry(f, config) for f in forms]
    assert seen == [(i + 1, len(forms), f.key) for i, f in enumerate(forms)]


def test_measure_table_rejects_bad_config_up_front(tmp_path):
    with pytest.raises(SimConfigError):
        measure_table(2, SimConfig(duration_s=0.0))
    # a size below 1 would give an empty table
    for size in (0, -3):
        with pytest.raises(ValueError, match="max_size must be at least 1"):
            measure_table(size, SimConfig(duration_s=0.2), cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_cache_key_covers_defaults_and_stream(tmp_path, monkeypatch):
    table = AccessTable(max_size=2, duration_s=0.5, slot_time_s=9e-6, seed=0)
    key = table.content_key()
    monkeypatch.setattr(coexist, "SIM_STREAM_VERSION", coexist.SIM_STREAM_VERSION + 1)
    assert table.content_key() != key
    monkeypatch.undo()
    wifi = dict(NODE_DEFAULTS["wifi"], txop_s=2.0e-3)
    monkeypatch.setattr(coexist, "NODE_DEFAULTS", dict(NODE_DEFAULTS, wifi=wifi))
    assert table.content_key() != key


def test_cache_write_leaves_only_the_table(tmp_path):
    measure_table(1, SimConfig(duration_s=0.2, seed=0), cache_dir=tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [
        f"table_1_{AccessTable(1, 0.2, 9e-6, 0).content_key()}.tsv"
    ]


def test_table_version_checked(tmp_path, table3):
    path = tmp_path / "t.tsv"
    table3.save(path)
    text = path.read_text()
    assert text.startswith("# slicenet access table v1\n")
    path.write_text(text.replace("table v1", "table v2", 1))
    with pytest.raises(TableFormatError, match=f"{path}:1: unsupported format"):
        AccessTable.load(path)
    # a file without any header still loads
    path.write_text("".join(ln + "\n" for ln in text.splitlines() if not ln.startswith("#")))
    assert AccessTable.load(path).entries == table3.entries
