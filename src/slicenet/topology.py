"""Scenario generators and reference instances.

Generated deployments place LAA base stations (and optionally plain
Wi-Fi access points) on a square service area, attach one user per
link at a random offset inside the cell, and reuse the scenario
defaults for radio parameters.  Everything is driven by one seed, so a
(kind, parameters, seed) triple always reproduces the same scenario
byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .problem import SlicingProblem
from .scenario import (
    NODE_DEFAULTS,
    WIFI,
    BandPlan,
    Link,
    Mno,
    Node,
    Scenario,
    ServiceType,
)

KINDS = ("grid", "uniform-random", "two-mno-urban")

MIN_CELL_M = 100.0
MAX_CELL_M = 1000.0

#: Default slice catalogue: a best-effort class and a premium class.
DEFAULT_SERVICES = (
    ServiceType(id=1, min_throughput_bps=1.0e7, price_per_bit=1.0e-6),
    ServiceType(id=2, min_throughput_bps=2.0e7, price_per_bit=2.0e-6),
)

DEFAULT_LICENSED_HZ = 2.0e7
DEFAULT_UNLICENSED_HZ = 2.0e7


def check_generation(
    kind: str, bs_per_mno: int, ues_per_bs: int, cell_size_m: float, wifi_aps: int,
    n_mnos: int = 2,
) -> None:
    """Raise ``ValueError`` for generation parameters outside their domain."""
    if not MIN_CELL_M <= cell_size_m <= MAX_CELL_M:
        raise ValueError(
            f"cell size {cell_size_m} m outside [{MIN_CELL_M:g}, {MAX_CELL_M:g}] m"
        )
    if kind not in KINDS:
        raise ValueError(f"unknown topology kind {kind!r}; expected one of {KINDS}")
    if n_mnos < 1 or bs_per_mno < 1 or ues_per_bs < 1:
        raise ValueError("operator, station, and user counts must be positive")
    if wifi_aps < 0:
        raise ValueError(f"access point count {wifi_aps} is negative")


def _ue_offset(rng: np.random.Generator, cell_size_m: float) -> tuple[float, float]:
    radius = rng.uniform(10.0, cell_size_m / 2.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return radius * math.cos(angle), radius * math.sin(angle)


def _build(
    rng: np.random.Generator,
    bs_positions: list[tuple[int, tuple[float, float]]],
    wifi_positions: list[tuple[float, float]],
    ues_per_bs: int,
    cell_size_m: float,
    n_mnos: int,
) -> Scenario:
    nodes, links = [], []
    counters = {i: 0 for i in range(1, n_mnos + 1)}
    for owner, raw in bs_positions:
        # plain floats keep scenario files serializable
        pos = (float(raw[0]), float(raw[1]))
        counters[owner] += 1
        node_id = f"m{owner}b{counters[owner]}"
        nodes.append(Node(id=node_id, kind="laa", position_m=pos, owner=owner))
        for j in range(1, ues_per_bs + 1):
            dx, dy = _ue_offset(rng, cell_size_m)
            links.append(
                Link(
                    id=f"{node_id}u{j}",
                    owner=owner,
                    node=node_id,
                    ue_position_m=(pos[0] + float(dx), pos[1] + float(dy)),
                )
            )
    for w, raw in enumerate(wifi_positions, start=1):
        pos = (float(raw[0]), float(raw[1]))
        # dataclass defaults are the cellular timing profile; access
        # points need their own idle/hold durations
        nodes.append(
            Node(id=f"w{w}", kind=WIFI, position_m=pos, **NODE_DEFAULTS[WIFI])
        )
    return Scenario(
        services=DEFAULT_SERVICES,
        mnos=tuple(
            Mno(id=i, licensed_bandwidth_hz=DEFAULT_LICENSED_HZ) for i in range(1, n_mnos + 1)
        ),
        nodes=tuple(nodes),
        links=tuple(links),
        band=BandPlan(unlicensed_bandwidth_hz=DEFAULT_UNLICENSED_HZ),
    )


def generate_topology(
    kind: str,
    seed: int = 0,
    n_mnos: int = 2,
    bs_per_mno: int = 2,
    ues_per_bs: int = 1,
    cell_size_m: float = 400.0,
    wifi_aps: int = 2,
) -> Scenario:
    """Generate a deployment of the given kind.

    ``grid`` interleaves the operators' base stations on a square
    lattice with one cell per station and no background Wi-Fi.
    ``uniform-random`` scatters stations and access points uniformly.
    ``two-mno-urban`` is the dense-downtown picture: two operators on
    a jittered lattice sharing the band with unmanaged coffee-shop
    access points.  Every operator holds ``DEFAULT_LICENSED_HZ`` of
    licensed spectrum and the unlicensed band is ``DEFAULT_UNLICENSED_HZ``
    wide.
    """
    check_generation(kind, bs_per_mno, ues_per_bs, cell_size_m, wifi_aps, n_mnos)
    cell = float(cell_size_m)
    # independent streams per purpose: adding access points must not
    # move the base stations or users of an otherwise identical draw
    rng = np.random.default_rng([seed, 1])
    rng_wifi = np.random.default_rng([seed, 2])
    rng_ue = np.random.default_rng([seed, 3])

    if kind == "two-mno-urban":
        n_mnos = 2
    n_bs = n_mnos * bs_per_mno
    side = math.ceil(math.sqrt(n_bs))
    area = side * cell

    owners = [1 + (i % n_mnos) for i in range(n_bs)]
    bs_positions: list[tuple[int, tuple[float, float]]] = []
    if kind == "grid":
        for i in range(n_bs):
            r, c = divmod(i, side)
            bs_positions.append((owners[i], (cell / 2 + c * cell, cell / 2 + r * cell)))
        wifi_positions: list[tuple[float, float]] = []
    elif kind == "uniform-random":
        for i in range(n_bs):
            bs_positions.append(
                (owners[i], (rng.uniform(0, area), rng.uniform(0, area)))
            )
        wifi_positions = [
            (rng_wifi.uniform(0, area), rng_wifi.uniform(0, area)) for _ in range(wifi_aps)
        ]
    else:
        for i in range(n_bs):
            r, c = divmod(i, side)
            jx, jy = rng.uniform(-cell / 4, cell / 4, size=2)
            bs_positions.append(
                (owners[i], (cell / 2 + c * cell + jx, cell / 2 + r * cell + jy))
            )
        # coffee-shop picture: each access point opens next door to a
        # small cell, inside carrier-sense range, not in an empty field
        wifi_positions = []
        for w in range(wifi_aps):
            host = bs_positions[w % n_bs][1]
            radius = rng_wifi.uniform(5.0, 25.0)
            angle = rng_wifi.uniform(0.0, 2.0 * math.pi)
            wifi_positions.append(
                (host[0] + radius * math.cos(angle), host[1] + radius * math.sin(angle))
            )
    return _build(rng_ue, bs_positions, wifi_positions, ues_per_bs, cell, n_mnos)


# ---------------------------------------------------------------------------
# reference instances


def bottleneck_preset() -> SlicingProblem:
    """Two symmetric operators where each band alone is scarce.

    Every link needs 7.5 MHz-equivalent for its floors but holds only
    10 MHz of pooled licensed spectrum and a half share of a 20 MHz
    unlicensed band, so the single-band variants leave most of the
    premium demand unserved while the joint variant doubles the
    carried load.  Useful as a fixed, solver-free benchmark.
    """
    return SlicingProblem(
        link_ids=("m1b1u1", "m2b1u1"),
        link_owner=(1, 2),
        service_ids=(1, 2),
        members=(1, 2),
        mno_budget_hz=(5.0e6, 5.0e6),
        rate_bps_hz=(4.0, 4.0),
        access=(0.5, 0.5),
        offered=((True, True), (True, True)),
        min_rate_bps=((1.0e7, 2.0e7), (1.0e7, 2.0e7)),
        price_per_bit=((1.0e-6, 2.0e-6), (1.0e-6, 2.0e-6)),
        unlicensed_hz=2.0e7,
        ssg=(frozenset({1, 2}), frozenset({1, 2})),
    )


#: :func:`random_problem` draws 2 to ``RANDOM_MAX_MNOS`` operators and 2
#: to ``RANDOM_MAX_SERVICES`` slices, and loads the busiest link to a
#: fraction of its capacity drawn from ``RANDOM_LOAD_MARGIN``
RANDOM_MAX_MNOS = 4
RANDOM_MAX_SERVICES = 3
RANDOM_LOAD_MARGIN = (0.6, 0.8)


def random_problem(
    rng: np.random.Generator,
    max_links: int = 10,
    feasible_for: str = "s3",
) -> SlicingProblem:
    """Draw a random allocation problem with a controlled load margin.

    The QoS floors are rescaled so the busiest link needs a fraction of
    its capacity drawn from ``RANDOM_LOAD_MARGIN``; capacity means pooled licensed
    plus entitled unlicensed bandwidth under ``feasible_for="s3"``, the
    scarcer of the two bands under ``"all"`` (every variant feasible),
    and own-budget-only capacity under ``"coalitions"`` (every
    sub-coalition feasible).  Floors stay binding either way, which
    keeps the instances away from trivially greedy optima.
    """
    if feasible_for not in ("s3", "all", "coalitions"):
        raise ValueError(f"unknown feasibility mode {feasible_for!r}")
    n_mnos = int(rng.integers(2, RANDOM_MAX_MNOS + 1))
    n_serv = int(rng.integers(2, RANDOM_MAX_SERVICES + 1))
    members = tuple(range(1, n_mnos + 1))
    service_ids = tuple(range(1, n_serv + 1))
    n_links = int(rng.integers(n_mnos, max_links + 1))
    owner = [members[int(rng.integers(0, n_mnos))] for _ in range(n_links)]
    for i, m in enumerate(members):
        owner[i] = m

    budget_of = {m: float(rng.uniform(5e6, 2e7)) for m in members}
    unlicensed = float(rng.uniform(1e7, 3e7))
    pool = sum(budget_of.values())
    rate = [float(rng.uniform(1.0, 6.0)) for _ in range(n_links)]
    xi = [float(rng.uniform(0.2, 0.9)) for _ in range(n_links)]

    base_price = [float(rng.uniform(0.5e-6, 3e-6)) for _ in service_ids]
    price = [
        tuple(b * float(rng.uniform(0.7, 1.4)) for b in base_price)
        for _ in range(n_links)
    ]
    floors = {
        (m, sid): float(rng.uniform(5e6, 2.5e7)) for m in members for sid in service_ids
    }

    def capacity(k: int) -> float:
        own = budget_of[owner[k]]
        entitled = xi[k] * unlicensed
        if feasible_for == "all":
            return min(pool, entitled)
        if feasible_for == "coalitions":
            return own + entitled
        return pool + entitled

    load = max(
        sum(floors[(owner[k], sid)] for sid in service_ids) / (rate[k] * capacity(k))
        for k in range(n_links)
    )
    target = float(rng.uniform(*RANDOM_LOAD_MARGIN))
    scale = target / load
    eta = [
        tuple(floors[(owner[k], sid)] * scale for sid in service_ids)
        for k in range(n_links)
    ]

    return SlicingProblem(
        link_ids=tuple(f"m{owner[k]}x{k}" for k in range(n_links)),
        link_owner=tuple(owner),
        service_ids=service_ids,
        members=members,
        mno_budget_hz=tuple(budget_of[m] for m in members),
        rate_bps_hz=tuple(rate),
        access=tuple(xi),
        offered=tuple(tuple(True for _ in service_ids) for _ in range(n_links)),
        min_rate_bps=tuple(eta),
        price_per_bit=tuple(price),
        unlicensed_hz=unlicensed,
        ssg=tuple(frozenset(members) for _ in service_ids),
    )
