"""Deployment generators and the random problem factory."""

import numpy as np
import pytest

from slicenet.problem import solve_lp_oracle
from slicenet.topology import (
    KINDS,
    bottleneck_preset,
    generate_topology,
    random_problem,
)


def test_kinds_deterministic():
    for kind in KINDS:
        assert generate_topology(kind, seed=5) == generate_topology(kind, seed=5)
        assert generate_topology(kind, seed=5) != generate_topology(kind, seed=6)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        generate_topology("hexgrid")


def test_cell_size_bounds():
    with pytest.raises(ValueError):
        generate_topology("grid", cell_size_m=50.0)
    with pytest.raises(ValueError):
        generate_topology("grid", cell_size_m=5000.0)


def test_grid_has_no_background_wifi():
    sc = generate_topology("grid", n_mnos=2, bs_per_mno=3)
    kinds = {n.kind for n in sc.nodes}
    assert kinds == {"laa"}
    assert len(sc.nodes) == 6
    assert len(sc.links) == 6


def test_adding_access_points_keeps_cellular_geometry():
    # contention sweeps vary the access point count; the base stations
    # and users must not move with it
    lean = generate_topology("two-mno-urban", seed=9, wifi_aps=1)
    dense = generate_topology("two-mno-urban", seed=9, wifi_aps=6)
    lean_bs = {n.id: n.position_m for n in lean.nodes if n.kind == "laa"}
    dense_bs = {n.id: n.position_m for n in dense.nodes if n.kind == "laa"}
    assert lean_bs == dense_bs
    lean_ue = {l.id: l.ue_position_m for l in lean.links}
    dense_ue = {l.id: l.ue_position_m for l in dense.links}
    assert lean_ue == dense_ue
    assert sum(1 for n in dense.nodes if n.kind == "wifi") == 6


def test_urban_access_points_sit_close_to_hosts():
    sc = generate_topology("two-mno-urban", seed=11, wifi_aps=4)
    hosts = [n.position_m for n in sc.nodes if n.kind == "laa"]
    for ap in (n for n in sc.nodes if n.kind == "wifi"):
        nearest = min(
            ((ap.position_m[0] - hx) ** 2 + (ap.position_m[1] - hy) ** 2) ** 0.5
            for hx, hy in hosts
        )
        assert nearest <= 25.0


def test_wide_cells_degrade_rates():
    tight = generate_topology("grid", seed=3, cell_size_m=100.0)
    wide = generate_topology("grid", seed=3, cell_size_m=1000.0)
    tight_mean = np.mean([tight.link_rate_per_hz(l) for l in tight.links])
    wide_mean = np.mean([wide.link_rate_per_hz(l) for l in wide.links])
    assert tight_mean > wide_mean


def test_bottleneck_preset_shape():
    p = bottleneck_preset()
    assert p.members == (1, 2)
    assert p.link_ids == ("m1b1u1", "m2b1u1")
    assert p.access == (0.5, 0.5)
    assert p.mno_budget_hz == (5e6, 5e6)
    # pooled licensed cap per link is both operators' bands
    assert p.budget_hz == (1e7, 1e7)


def test_random_problem_always_feasible():
    rng = np.random.default_rng(41)
    for _ in range(10):
        problem = random_problem(rng)
        solution = solve_lp_oracle(problem)
        assert solution.objective > 0.0
        assert set(problem.link_owner) == set(problem.members)


def test_random_problem_coalition_mode_keeps_singletons_alive():
    from slicenet.game import coalition_values

    rng = np.random.default_rng(43)
    for _ in range(5):
        problem = random_problem(rng, feasible_for="coalitions")
        assert min(coalition_values(problem, [{i} for i in problem.members])) > 0.0


def test_random_problem_mode_validated():
    rng = np.random.default_rng(44)
    with pytest.raises(ValueError):
        random_problem(rng, feasible_for="everything")
