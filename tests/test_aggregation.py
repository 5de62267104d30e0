"""Machine aggregation and network equivalencing.

Oracles: the closed-form chain sum for equal machines on one feeder, a
tree-walk loss computation that never touches the nodal solver, the
branch-by-branch loss sum of `oracles.equal_loss_impedance`, and the
WT-by-WT members and capacity shares of `oracles.shares_by_member`.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import SolvedFarm, random_radial_farm, stiff_grid
from oracles import branch_z_pu, equal_loss_impedance, shares_by_member
from wfdem.aggregation import (AggregationError, aggregate_wts, build_dem,
                               equivalent_network, member_indices,
                               write_dem_json)
from wfdem.cases import case_farm, identical_zero_network_farm, single_wt_farm
from wfdem.clustering import GroupAssignment
from wfdem.farm import (Branch, FarmDescription, GridThevenin, PerUnitBases,
                        WtParams, load_farm, nodal_network)
from wfdem.modal import solve_modes
from wfdem.powerflow import solve_powerflow
from wfdem.wt import dc_link_seconds


def all_in_one_group(farm) -> GroupAssignment:
    return GroupAssignment(group_of={wt.id: 0 for wt, _ in farm.wts},
                           margins={wt.id: 1.0 for wt, _ in farm.wts},
                           merged=())


def singleton_groups(farm) -> GroupAssignment:
    return GroupAssignment(
        group_of={wt.id: k for k, (wt, _) in enumerate(farm.wts)},
        margins={wt.id: 1.0 for wt, _ in farm.wts},
        merged=())


def chain_farm(m: int, span_km: float = 1.0, p: float = 0.8):
    buses = ["poi"]
    branches = []
    wts = []
    prev = "poi"
    for k in range(1, m + 1):
        bus = f"b{k}"
        buses.append(bus)
        branches.append(Branch(prev, bus, span_km, 0.1153, 1.05e-3))
        wts.append((WtParams(id=f"wt{k:02d}", p_m0=p, c_dc=0.09, u_dc0=1.0,
                             kp_dvc=1.0, ki_dvc=300.0), bus))
        prev = bus
    farm = FarmDescription(
        bases=PerUnitBases(1.5, 35.0), buses=tuple(buses), poi="poi",
        branches=tuple(branches), wts=tuple(wts),
        grid=GridThevenin(0.001, 0.01))
    farm.validate()
    return farm


def equivalent_z_pu(farm, br) -> complex:
    return branch_z_pu(farm, br)


# ---------------------------------------------------------------------------
# machine aggregation


def test_homogeneous_group_keeps_per_unit_parameters():
    farm = identical_zero_network_farm(6, p_m0=0.8)
    agg, _ = aggregate_wts(farm, member_indices(farm, all_in_one_group(farm)))
    assert len(agg) == 1
    machine = agg[0]
    wt = farm.wts[0][0]
    assert machine.s_mva == pytest.approx(6 * 1.5, abs=1e-12)
    assert machine.p_m0 == pytest.approx(wt.p_m0, abs=1e-12)
    assert machine.kp_dvc == pytest.approx(wt.kp_dvc, abs=1e-12)
    assert machine.ki_dvc == pytest.approx(wt.ki_dvc, abs=1e-12)
    assert dc_link_seconds(machine, farm.bases) \
        == pytest.approx(dc_link_seconds(wt, farm.bases), abs=1e-12)


def test_two_wt_power_aggregation():
    from dataclasses import replace
    farm = identical_zero_network_farm(2)
    wts = ((replace(farm.wts[0][0], p_m0=1.0), farm.wts[0][1]),
           (replace(farm.wts[1][0], p_m0=0.5), farm.wts[1][1]))
    farm = FarmDescription(bases=farm.bases, buses=farm.buses, poi=farm.poi,
                           branches=farm.branches, wts=wts, grid=farm.grid)
    (agg,), _ = aggregate_wts(farm,
                              member_indices(farm, all_in_one_group(farm)))
    assert agg.s_mva == pytest.approx(3.0, abs=1e-12)
    assert agg.p_m0 == pytest.approx(0.75, abs=1e-12)   # (1.5 + 0.75) / 3


def test_mw_and_mva_conservation(case_b):
    farm = case_b.farm
    _, groups, _ = case_b.dem(3)
    agg, _ = aggregate_wts(farm, member_indices(farm, groups))
    mva = sum(a.s_mva for a in agg)
    mw = sum(a.p_m0 * a.s_mva for a in agg)
    mva_ref = sum(wt.capacity_mva(farm.bases) for wt, _ in farm.wts)
    mw_ref = sum(wt.p_m0 * wt.capacity_mva(farm.bases) for wt, _ in farm.wts)
    assert abs(mva - mva_ref) < 1e-12 * mva_ref
    assert abs(mw - mw_ref) < 1e-12 * mw_ref


# ---------------------------------------------------------------------------
# network equivalencing


def test_single_wt_equivalent_is_the_branch():
    farm = single_wt_farm(link_km=2.0)
    eq = equivalent_network(farm, member_indices(farm, singleton_groups(farm)))
    z_eq = equivalent_z_pu(farm, eq[0])
    z_ref = branch_z_pu(farm, farm.branches[0])
    assert abs(z_eq - z_ref) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 4, 7])
def test_chain_matches_closed_form(m):
    farm = chain_farm(m)
    eq = equivalent_network(farm, member_indices(farm, all_in_one_group(farm)))
    z_span = branch_z_pu(farm, farm.branches[0])
    expected = z_span * (m + 1) * (2 * m + 1) / (6 * m)
    assert abs(equivalent_z_pu(farm, eq[0]) - expected) < 1e-12 * abs(expected)


def assert_equal_loss_identity(farm, groups) -> None:
    """Uniform-voltage injections: sum over branches of |i_b|^2 z_b must
    equal |total group current|^2 z_eq, with branch currents obtained by a
    plain downstream walk of the radial tree."""
    eq = equivalent_network(farm, member_indices(farm, groups))

    children = {}
    for br in farm.branches:
        children.setdefault(br.from_bus, []).append(br)

    p_at = {}
    for wt, bus in farm.wts:
        p_at.setdefault(bus, {}).setdefault(groups.group_of[wt.id], 0.0)
        p_at[bus][groups.group_of[wt.id]] += \
            wt.p_m0 * wt.capacity_ratio(farm.bases)

    def downstream(bus, g):
        total = p_at.get(bus, {}).get(g, 0.0)
        for br in children.get(bus, []):
            total += downstream(br.to_bus, g)
        return total

    for g in sorted(set(groups.group_of.values())):
        loss = 0.0 + 0.0j
        for br in farm.branches:
            loss += branch_z_pu(farm, br) * downstream(br.to_bus, g) ** 2
        p_total = sum(wt.p_m0 * wt.capacity_ratio(farm.bases)
                      for wt, _ in farm.wts if groups.group_of[wt.id] == g)
        z_eq = equivalent_z_pu(farm, eq[g])
        assert abs(loss - p_total**2 * z_eq) < 1e-10


def test_equal_loss_identity_against_tree_walk(case_b):
    _, groups, _ = case_b.dem(3)
    assert_equal_loss_identity(case_b.farm, groups)


def test_equal_loss_identity_on_a_stiff_grid(case_b):
    # the POI on the infinite bus's node, the 33 collector nodes live
    _, groups, _ = case_b.dem(3)
    assert_equal_loss_identity(stiff_grid(case_b.farm), groups)


@pytest.mark.parametrize("grouping", [singleton_groups, all_in_one_group])
@pytest.mark.parametrize("seed", [0, 9, 12, 25, 31])
def test_equal_loss_identity_with_zero_length_spans(seed, grouping):
    # every seed has a zero-length span; on 25 and 31 one meets the POI
    farm = random_radial_farm(seed)
    assert any(br.length_km == 0 for br in farm.branches)
    assert_equal_loss_identity(farm, grouping(farm))


def meshed_case_b() -> FarmDescription:
    """Case b with a tie between two feeder ends, a zero-impedance
    cross-tie between the other two feeders, and a ring from the third
    feeder's end back to the POI."""
    farm = case_farm("b")
    extra = (Branch("f1b11", "f2b11", 2.0, 0.1153, 1.05e-3),
             Branch("f2b6", "f3b6", 0.0, 0.1153, 1.05e-3),
             Branch("f3b11", "poi", 9.0, 0.1153, 1.05e-3))
    farm = dataclasses.replace(farm, branches=farm.branches + extra)
    farm.validate()
    return farm


def test_meshed_collector_matches_the_branch_loss_sum(case_b):
    farm = meshed_case_b()
    _, groups, _ = case_b.dem(3)
    members = member_indices(farm, groups)
    eq = equivalent_network(farm, members)
    for idx, br in zip(members.values(), eq):
        z_ref = equal_loss_impedance(farm, [farm.wts[k] for k in idx])
        assert abs(equivalent_z_pu(farm, br) - z_ref) <= 1e-12 * abs(z_ref)


def test_lossless_collector_gets_lossless_ties(case_b):
    farm = case_b.farm
    farm = dataclasses.replace(
        farm, grid=GridThevenin(0.0, farm.grid.l_pu),
        branches=tuple(dataclasses.replace(br, r_ohm_per_km=0.0)
                       for br in farm.branches))
    _, groups, _ = case_b.dem(3)
    dem = build_dem(farm, groups)
    assert dem.farm.n_wt == 3
    for br in dem.farm.branches:
        assert br.r_ohm_per_km == 0.0 < br.l_h_per_km


def test_poi_named_like_a_dem_bus_is_refused(case_b):
    farm = case_b.farm
    renamed = {farm.poi: "group1_bus"}
    farm = dataclasses.replace(
        farm, poi="group1_bus",
        buses=tuple(renamed.get(bus, bus) for bus in farm.buses),
        branches=tuple(dataclasses.replace(
            br, from_bus=renamed.get(br.from_bus, br.from_bus))
            for br in farm.branches))
    farm.validate()
    _, groups, _ = case_b.dem(3)
    assert 1 in groups.group_of.values()
    with pytest.raises(AggregationError,
                       match="POI id 'group1_bus' .* group 1"):
        build_dem(farm, groups)


def test_singleton_groups_reduce_to_path_impedance():
    farm = chain_farm(3)
    eq = equivalent_network(farm, member_indices(farm, singleton_groups(farm)))
    z_span = branch_z_pu(farm, farm.branches[0])
    for k, br in enumerate(eq):
        assert abs(equivalent_z_pu(farm, br) - z_span * (k + 1)) \
            < 1e-12 * abs(z_span)


# ---------------------------------------------------------------------------
# the assignment


def test_assignment_naming_an_unknown_wt_is_refused(case_b):
    groups = all_in_one_group(case_b.farm)
    groups = dataclasses.replace(groups,
                                 group_of={**groups.group_of, "wt99": 0})
    with pytest.raises(AggregationError,
                       match="^assignment references unknown WT 'wt99'$"):
        build_dem(case_b.farm, groups)


def test_assignment_leaving_out_a_wt_is_refused():
    # five of case b's 33 WTs unassigned would give a 42 MVA DEM of a
    # 49.5 MVA farm; the first left out in farm order is named
    farm = case_farm("b")
    ids = farm.wt_ids
    left_out = {ids[k] for k in (30, 4, 17, 9, 25)}
    groups = GroupAssignment(
        group_of={w: 0 for w in reversed(ids) if w not in left_out},
        margins={w: 1.0 for w in ids}, merged=())
    with pytest.raises(AggregationError,
                       match=f"^assignment leaves out WT {ids[4]!r}$"):
        build_dem(farm, groups)


def machine_table(dem) -> np.ndarray:
    """Every numeric parameter of each DEM machine, one row per machine."""
    return np.array([dataclasses.astuple(wt)[1:] for wt, _ in dem.farm.wts])


def test_dem_ignores_the_insertion_order_of_the_assignment(tmp_path, case_d):
    _, groups, dem = case_d.dem(3)
    reordered = build_dem(case_d.farm, dataclasses.replace(
        groups, group_of=dict(reversed(groups.group_of.items()))))
    write_dem_json(dem, tmp_path / "dem.json")
    write_dem_json(reordered, tmp_path / "reordered.json")
    assert (tmp_path / "reordered.json").read_bytes() \
        == (tmp_path / "dem.json").read_bytes()
    assert np.array_equal(reordered.shares, dem.shares)
    assert list(reordered.members.items()) == list(dem.members.items())
    assert np.array_equal(machine_table(reordered), machine_table(dem))


@st.composite
def assigned_farms(draw):
    """A `random_radial_farm`, some of its WTs re-rated to multiples of
    0.25 MVA, so every capacity total is exact in any order, and an
    assignment over a random set of group ids, in random insertion order."""
    farm = random_radial_farm(draw(st.integers(0, 200)))
    wts = []
    for wt, bus in farm.wts:
        quarters = draw(st.one_of(st.none(), st.integers(1, 12)))
        wts.append((wt if quarters is None
                    else dataclasses.replace(wt, s_mva=quarters / 4), bus))
    farm = dataclasses.replace(farm, wts=tuple(wts))
    farm.validate()
    ids = sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=4)))
    labels = [draw(st.sampled_from(ids)) for _ in farm.wts]
    order = draw(st.permutations(range(farm.n_wt)))
    return farm, {farm.wts[k][0].id: labels[k] for k in order}


@given(assigned_farms())
def test_dem_follows_the_assignment_wt_by_wt(farm_and_assignment):
    farm, group_of = farm_and_assignment
    dem = build_dem(farm, GroupAssignment(
        group_of=group_of, margins={w: 1.0 for w in group_of}, merged=()))
    members, totals, shares = shares_by_member(farm, group_of)
    assert np.array_equal(dem.shares, shares)
    assert [wt.s_mva for wt, _ in dem.farm.wts] == totals
    assert list(dem.members.items()) == list(members.items())
    mw = math.fsum(wt.p_m0 * wt.s_mva for wt, _ in dem.farm.wts)
    mw_ref = math.fsum(wt.p_m0 * wt.capacity_mva(farm.bases)
                       for wt, _ in farm.wts)
    assert abs(mw - mw_ref) <= 1e-12 * mw_ref


# ---------------------------------------------------------------------------
# whole DEM


def test_homogeneous_zero_network_dem_keeps_modes():
    farm = identical_zero_network_farm(8, p_m0=0.9)
    concern = solve_modes(farm, solve_powerflow(farm)).concern
    dem = build_dem(farm, all_in_one_group(farm))
    assert dem.farm.n_wt == 1
    lam_dem = dem.model.concern.eigenvalues[0]
    rel = np.abs(concern.eigenvalues - lam_dem) / np.abs(concern.eigenvalues)
    assert rel.max() < 1e-6


def test_identity_aggregation_is_exact():
    from wfdem.validation import error_Eprime
    farm = identical_zero_network_farm(5, p_m0=0.7)
    concern = solve_modes(farm, solve_powerflow(farm)).concern
    dem = build_dem(farm, singleton_groups(farm))
    assert dem.farm.n_wt == 5
    assert error_Eprime(concern, dem.model.concern) < 1e-9


def test_dem_json_round_trip(tmp_path, case_b):
    _, _, dem = case_b.dem(3)
    path = tmp_path / "dem.json"
    write_dem_json(dem, path)
    loaded = load_farm(path)
    assert loaded.n_wt == 3
    assert {farm_wt.s_mva for farm_wt, _ in loaded.wts} \
        == {wt.capacity_mva(dem.farm.bases) for wt, _ in dem.farm.wts}
    import json
    doc = json.loads(path.read_text())
    assert set(doc["provenance"]["groups"]) == {"0", "1", "2"}


def test_group_capacities_are_keyed_by_group_id(tmp_path, case_b):
    # ids {1, 2} rather than 0..G-1: three WTs in group 1, thirty in group 2
    ids = case_b.farm.wt_ids
    groups = GroupAssignment(
        group_of={wt_id: 1 if k < 3 else 2 for k, wt_id in enumerate(ids)},
        margins={wt_id: 1.0 for wt_id in ids}, merged=())
    dem = build_dem(case_b.farm, groups)
    assert dem.group_capacity_mva == {"1": 4.5, "2": 45.0}
    path = tmp_path / "dem.json"
    write_dem_json(dem, path)
    import json
    doc = json.loads(path.read_text())
    assert doc["provenance"]["group_capacity_mva"] == {"1": 4.5, "2": 45.0}


def test_dem_concern_count_matches_machine_count(case_b):
    _, _, dem = case_b.dem(3)
    assert len(dem.model.concern) == dem.farm.n_wt == 3


@pytest.mark.parametrize("seed,c", [(25, 2), (25, 3), (31, 3), (43, 3),
                                    (60, 2)])
def test_group_on_the_poi_node_gets_an_exact_tie(seed, c):
    """A group whose members all sit on the POI's merged node carries no
    branch current, so its equivalent branch is exactly zero; a
    roundoff-level impedance there makes the DEM power flow singular."""
    from wfdem.validation import error_Eprime
    solved = SolvedFarm(random_radial_farm(seed))
    _, groups, dem = solved.dem(c)

    net = nodal_network(solved.farm)
    node_of = net.node_of
    on_poi = (node_of[solved.farm.poi], net.n_nodes)
    bus_of = {wt.id: bus for wt, bus in solved.farm.wts}
    tied = [g for g in sorted(set(groups.group_of.values()))
            if all(node_of[bus_of[wt]] in on_poi
                   for wt, gg in groups.group_of.items() if gg == g)]
    assert tied
    for g in tied:
        br = dem.farm.branches[g]
        assert br.r_ohm_per_km == br.l_h_per_km == 0.0
    assert np.isfinite(error_Eprime(solved.concern, dem.model.concern))
