"""Machine aggregation and network equivalencing.

Oracles: the closed-form chain sum for equal machines on one feeder, and a
tree-walk loss computation that never touches the nodal solver.
"""

import numpy as np
import pytest

from helpers import SolvedFarm, random_radial_farm
from wfdem.aggregation import (aggregate_wts, build_dem, equivalent_network,
                               write_dem_json)
from wfdem.assembly import linear_model
from wfdem.cases import identical_zero_network_farm, single_wt_farm
from wfdem.clustering import GroupAssignment
from wfdem.farm import (Branch, FarmDescription, GridThevenin, PerUnitBases,
                        WtParams, load_farm, nodal_network)
from wfdem.modal import eig_biorthogonal, select_concern_modes
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


def branch_z_pu(farm, br) -> complex:
    omega = farm.bases.omega_grid
    zb = farm.bases.z_base_ohm
    return (br.r_ohm_per_km + 1j * omega * br.l_h_per_km) * br.length_km / zb


def equivalent_z_pu(farm, br) -> complex:
    return branch_z_pu(farm, br)


# ---------------------------------------------------------------------------
# machine aggregation


def test_homogeneous_group_keeps_per_unit_parameters():
    farm = identical_zero_network_farm(6, p_m0=0.8)
    agg = aggregate_wts(farm, all_in_one_group(farm))
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
    agg = aggregate_wts(farm, all_in_one_group(farm))[0]
    assert agg.s_mva == pytest.approx(3.0, abs=1e-12)
    assert agg.p_m0 == pytest.approx(0.75, abs=1e-12)   # (1.5 + 0.75) / 3


def test_mw_and_mva_conservation(case_b):
    farm = case_b.farm
    _, groups, _ = case_b.dem(3)
    agg = aggregate_wts(farm, groups)
    mva = sum(a.s_mva for a in agg)
    mw = sum(a.p_m0 * a.s_mva for a in agg)
    mva_ref = sum(farm.wt_capacity_mva(wt) for wt, _ in farm.wts)
    mw_ref = sum(wt.p_m0 * farm.wt_capacity_mva(wt) for wt, _ in farm.wts)
    assert abs(mva - mva_ref) < 1e-12 * mva_ref
    assert abs(mw - mw_ref) < 1e-12 * mw_ref


# ---------------------------------------------------------------------------
# network equivalencing


def test_single_wt_equivalent_is_the_branch():
    farm = single_wt_farm(link_km=2.0)
    eq = equivalent_network(farm, singleton_groups(farm))
    z_eq = equivalent_z_pu(farm, eq[0])
    z_ref = branch_z_pu(farm, farm.branches[0])
    assert abs(z_eq - z_ref) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 4, 7])
def test_chain_matches_closed_form(m):
    farm = chain_farm(m)
    eq = equivalent_network(farm, all_in_one_group(farm))
    z_span = branch_z_pu(farm, farm.branches[0])
    expected = z_span * (m + 1) * (2 * m + 1) / (6 * m)
    assert abs(equivalent_z_pu(farm, eq[0]) - expected) < 1e-12 * abs(expected)


def test_equal_loss_identity_against_tree_walk(case_b):
    """Uniform-voltage injections: sum over branches of |i_b|^2 z_b must
    equal |total group current|^2 z_eq, with branch currents obtained by a
    plain downstream walk of the radial tree."""
    farm = case_b.farm
    _, groups, _ = case_b.dem(3)
    eq = equivalent_network(farm, groups)

    children = {}
    for br in farm.branches:
        children.setdefault(br.from_bus, []).append(br)

    p_at = {}
    for wt, bus in farm.wts:
        p_at.setdefault(bus, {}).setdefault(groups.group_of[wt.id], 0.0)
        p_at[bus][groups.group_of[wt.id]] += wt.p_m0 * farm.capacity_ratio(wt)

    def downstream(bus, g):
        total = p_at.get(bus, {}).get(g, 0.0)
        for br in children.get(bus, []):
            total += downstream(br.to_bus, g)
        return total

    for g in sorted(set(groups.group_of.values())):
        loss = 0.0 + 0.0j
        for br in farm.branches:
            loss += branch_z_pu(farm, br) * downstream(br.to_bus, g) ** 2
        p_total = sum(wt.p_m0 * farm.capacity_ratio(wt)
                      for wt, _ in farm.wts if groups.group_of[wt.id] == g)
        z_eq = equivalent_z_pu(farm, eq[g])
        assert abs(loss - p_total**2 * z_eq) < 1e-10


def test_singleton_groups_reduce_to_path_impedance():
    farm = chain_farm(3)
    eq = equivalent_network(farm, singleton_groups(farm))
    z_span = branch_z_pu(farm, farm.branches[0])
    for k, br in enumerate(eq):
        assert abs(equivalent_z_pu(farm, br) - z_span * (k + 1)) \
            < 1e-12 * abs(z_span)


# ---------------------------------------------------------------------------
# whole DEM


def test_homogeneous_zero_network_dem_keeps_modes():
    farm = identical_zero_network_farm(8, p_m0=0.9)
    fss = linear_model(farm, solve_powerflow(farm))
    concern = select_concern_modes(eig_biorthogonal(fss.a_s, fss.labels),
                                   n_expected=8)
    dem = build_dem(farm, all_in_one_group(farm))
    assert dem.farm.n_wt == 1
    lam_dem = dem.concern.eigenvalues[0]
    rel = np.abs(concern.eigenvalues - lam_dem) / np.abs(concern.eigenvalues)
    assert rel.max() < 1e-6


def test_identity_aggregation_is_exact():
    from wfdem.validation import error_Eprime
    farm = identical_zero_network_farm(5, p_m0=0.7)
    fss = linear_model(farm, solve_powerflow(farm))
    concern = select_concern_modes(eig_biorthogonal(fss.a_s, fss.labels),
                                   n_expected=5)
    dem = build_dem(farm, singleton_groups(farm))
    assert dem.farm.n_wt == 5
    assert error_Eprime(concern, dem.concern) < 1e-9


def test_dem_json_round_trip(tmp_path, case_b):
    _, _, dem = case_b.dem(3)
    path = tmp_path / "dem.json"
    write_dem_json(dem, path)
    loaded = load_farm(path)
    assert loaded.n_wt == 3
    assert {farm_wt.s_mva for farm_wt, _ in loaded.wts} \
        == {dem.farm.wt_capacity_mva(wt) for wt, _ in dem.farm.wts}
    import json
    doc = json.loads(path.read_text())
    assert set(doc["provenance"]["groups"]) == {"0", "1", "2"}


def test_dem_concern_count_matches_machine_count(case_b):
    _, _, dem = case_b.dem(3)
    assert len(dem.concern) == dem.farm.n_wt == 3


@pytest.mark.parametrize("seed,c", [(25, 2), (25, 3), (31, 3), (43, 3),
                                    (60, 2)])
def test_group_on_the_poi_node_gets_an_exact_tie(seed, c):
    """A group whose members all sit on the POI's merged node carries no
    branch current, so its equivalent branch is exactly zero; a
    roundoff-level impedance there makes the DEM power flow singular."""
    from wfdem.validation import error_Eprime
    solved = SolvedFarm(random_radial_farm(seed))
    clusters, _, groups = solved.clustered(c)
    dem = build_dem(solved.farm, groups, clusters)

    node_of = nodal_network(solved.farm).node_of
    on_poi = (node_of[solved.farm.poi], -1)
    bus_of = {wt.id: bus for wt, bus in solved.farm.wts}
    tied = [g for g in sorted(set(groups.group_of.values()))
            if all(node_of[bus_of[wt]] in on_poi
                   for wt, gg in groups.group_of.items() if gg == g)]
    assert tied
    for g in tied:
        br = dem.farm.branches[g]
        assert br.r_ohm_per_km == br.l_h_per_km == 0.0
    assert np.isfinite(error_Eprime(solved.concern, dem.concern))
