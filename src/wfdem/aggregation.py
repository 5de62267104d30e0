"""Per-unit machine aggregation and collector-network equivalencing.

The WT grouping alone decides the DEM: one pass over the assignment gives
each sorted group id its members' indices in farm order, and every later
step reads that map.  Each group collapses to one machine whose capacity
base is the member total and whose per-unit parameters are means weighted
by cap / sum(cap), the group's row of `DemModel.shares`; a group of
identical machines aggregates without any parameter change.  The collector
reduces per group to a single series impedance chosen by the equal-loss
criterion: under uniform-voltage injections proportional to member powers,
the equivalent dissipates exactly the losses of the branches it replaces.
All groups come from one solve of the collector with the POI grounded, and
each group's losses are read as p^T v; a group on the POI's node gets an
exact zero tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import GroupAssignment
from .farm import Branch, FarmDescription, WtParams, nodal_network, save_farm
from .modal import FarmModel, solve_modes
from .powerflow import solve_powerflow
from .wt import dc_link_seconds


class AggregationError(ValueError):
    pass


def member_indices(farm: FarmDescription,
                   groups: GroupAssignment) -> dict[int, list[int]]:
    """Each group id, sorted, with its members' indices in `farm.wts`, in
    farm order; an unknown WT, or the first farm WT left out, raises."""
    index = {wt_id: k for k, wt_id in enumerate(farm.wt_ids)}
    members: dict[int, list[int]] = {}
    for wt_id, g in groups.group_of.items():
        if wt_id not in index:
            raise AggregationError(f"assignment references unknown WT {wt_id!r}")
        members.setdefault(g, []).append(index.pop(wt_id))
    if index:
        raise AggregationError(f"assignment leaves out WT {next(iter(index))!r}")
    return {g: sorted(members[g]) for g in sorted(members)}


def aggregate_wts(farm: FarmDescription, members: dict[int, list[int]],
                  ) -> tuple[list[WtParams], np.ndarray]:
    """One equivalent machine per group of `member_indices`, in its order,
    and the capacity shares: row r holds cap_w / sum(cap) of group r's
    members in their farm columns and zero elsewhere."""
    machines: list[WtParams] = []
    shares = np.zeros((len(members), farm.n_wt))
    for row, (g, idx) in enumerate(members.items()):
        wts = [farm.wts[k][0] for k in idx]
        caps = np.array([wt.capacity_mva(farm.bases) for wt in wts])
        s_agg = float(caps.sum())
        weight = caps / s_agg
        shares[row, idx] = weight

        def wmean(values: list[float]) -> float:
            return float(np.dot(weight, values))

        # the capacitance aggregates through its per-unit time constant so
        # homogeneous groups keep identical per-unit dynamics
        c_pu = wmean([dc_link_seconds(wt, farm.bases) for wt in wts])
        c_dc = c_pu * (s_agg * 1e6) / (farm.bases.u_dc_base_kv * 1e3) ** 2
        p_mw = float(np.dot(caps, [wt.p_m0 for wt in wts]))
        machines.append(WtParams(
            id=f"group{g}",
            p_m0=p_mw / s_agg,
            c_dc=c_dc,
            u_dc0=wmean([wt.u_dc0 for wt in wts]),
            kp_dvc=wmean([wt.kp_dvc for wt in wts]),
            ki_dvc=wmean([wt.ki_dvc for wt in wts]),
            kp_pll=wmean([wt.kp_pll for wt in wts]),
            ki_pll=wmean([wt.ki_pll for wt in wts]),
            s_mva=s_agg,
        ))
    return machines, shares


def equivalent_network(farm: FarmDescription,
                       members: dict[int, list[int]]) -> list[Branch]:
    """Equal-loss equivalent branch POI -> aggregate bus, one per group of
    `member_indices`, in its order.

    Each group's members inject their system-base active powers p, summed
    per node (uniform-voltage approximation).  With the POI's node grounded
    they drive v = Y_c^-1 p through the collector alone, one solve for all
    groups, and by Tellegen's theorem the branch losses sum_b z_b |i_b|^2
    equal p^T v, as p is real: z_eq = p^T v / P^2.  Grounding the source
    instead would only shift every collector voltage by v_poi, so the
    Thevenin branch stays out of the equivalent.  A group whose members all
    sit on the POI's node or the infinite bus's drives no live node and
    gets an exact zero tie.
    """
    net = nodal_network(farm)
    live = np.arange(net.n_nodes) != net.node_of[farm.poi]
    p = np.zeros((net.n_nodes + 1, len(members)))
    for col, idx in enumerate(members.values()):
        for k in idx:
            wt, bus = farm.wts[k]
            p[net.node_of[bus], col] += wt.p_system(farm.bases)
    p_live = p[:-1][live]
    v = np.linalg.solve(net.y_red[np.ix_(live, live)], p_live)
    z_eq = (p_live * v).sum(axis=0) / p.sum(axis=0) ** 2

    z_base = farm.bases.z_base_ohm
    omega = farm.bases.omega_grid
    return [Branch(from_bus=farm.poi, to_bus=f"group{g}_bus", length_km=1.0,
                   r_ohm_per_km=z.real * z_base,
                   l_h_per_km=z.imag * z_base / omega)
            for g, z in zip(members, z_eq)]


@dataclass(frozen=True)
class DemModel:
    """Aggregated farm with its own solved linear model."""

    farm: FarmDescription
    # group id -> member WT ids in farm order, groups sorted
    members: dict[int, tuple[str, ...]]
    # row r: each farm WT's capacity share in group list(members)[r], whose
    # machine is the DEM's r-th; columns in farm order
    shares: np.ndarray
    model: FarmModel

    @property
    def group_capacity_mva(self) -> dict[str, float]:
        """Machine capacity base per group id, keyed as in JSON; the DEM
        farm holds one machine per group, in sorted group order."""
        return {str(g): wt.s_mva
                for g, (wt, _) in zip(self.members, self.farm.wts)}


def build_dem(farm: FarmDescription, groups: GroupAssignment) -> DemModel:
    """Assemble the aggregated farm of a grouping and solve it end to end."""
    members = member_indices(farm, groups)
    aggregates, shares = aggregate_wts(farm, members)
    eq_branches = equivalent_network(farm, members)
    for g, br in zip(members, eq_branches):
        if br.to_bus == farm.poi:
            raise AggregationError(
                f"POI id {farm.poi!r} is the DEM bus name of group {g}; "
                "rename the POI")

    buses = (farm.poi,) + tuple(br.to_bus for br in eq_branches)
    dem_farm = FarmDescription(
        bases=farm.bases,
        buses=buses,
        poi=farm.poi,
        branches=tuple(eq_branches),
        wts=tuple((wt, br.to_bus)
                  for wt, br in zip(aggregates, eq_branches)),
        grid=farm.grid,
    )
    dem_farm.validate()

    model = solve_modes(dem_farm, solve_powerflow(dem_farm))
    ids = farm.wt_ids
    return DemModel(
        farm=dem_farm,
        members={g: tuple(ids[k] for k in idx) for g, idx in members.items()},
        shares=shares, model=model)


def write_dem_json(dem: DemModel, path: str | Path) -> None:
    provenance = {
        "groups": {str(g): list(ids) for g, ids in dem.members.items()},
        "group_capacity_mva": dem.group_capacity_mva,
    }
    save_farm(dem.farm, path, provenance=provenance)
