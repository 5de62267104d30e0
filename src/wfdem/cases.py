"""Shipped study farms.

The 33-WT layout is synthesized (the original site's feeder lengths are not
public): three radial feeders of eleven turbines each on a 35 kV collector,
feeder heads 3.0/3.5/4.0 km from the POI and 1.2 km between neighbours.
Electrical parameters (cable per-km values, capacity base, DC capacitance,
grid Thevenin data, steady powers) follow the reference study; the grid
impedance is carried on the per-turbine system base.
"""

from __future__ import annotations

import numpy as np

from .farm import (Branch, FarmDescription, GridThevenin, PerUnitBases,
                   WtParams)

N_WT = 33
FEEDERS = 3
WT_PER_FEEDER = 11
FEEDER_HEAD_KM = (3.0, 3.5, 4.0)
SPAN_KM = 1.2

R_OHM_PER_KM = 0.1153
L_H_PER_KM = 1.05e-3
S_WT_MVA = 1.5
V_COLL_KV = 35.0
C_DC_F = 0.09            # 90000 uF
U_DC0_PU = 1.0

# grid Thevenin data quoted on the aggregate farm capacity; converted to the
# per-turbine system base here
GRID_R_PU = 0.001 / N_WT
GRID_L_PU = 0.01 / N_WT

# steady mechanical powers, assigned in order to wt01..wt33
P_M0 = (
    1.00, 1.00, 0.95, 0.95, 0.95, 0.90, 0.90, 0.85, 0.85, 0.80, 0.80,
    1.00, 0.95, 0.90, 0.90, 0.85, 0.80, 0.80, 0.75, 0.75, 0.70, 0.65,
    1.00, 0.90, 0.85, 0.85, 0.80, 0.70, 0.65, 0.65, 0.60, 0.50, 0.45,
)

# ground-truth controller groups used by cases b, c, d (1-based WT numbers)
GROUP_WT_NUMBERS = {
    0: (3, 8, 9, 12, 13, 15, 28, 29, 30, 31),
    1: (5, 6, 7, 10, 14, 16, 17, 18, 19, 22, 23, 26, 27, 32),
    2: (1, 2, 4, 11, 20, 21, 24, 25, 33),
}

KP_DVC_BY_CASE = {"b": (1.0, 2.0, 3.0)}
KI_DVC_BY_CASE = {"c": (100.0, 300.0, 500.0)}

CASE_D_SEED = 20180731
CASE_D_SPREAD = 0.10


def wt_name(number: int) -> str:
    return f"wt{number:02d}"


def ground_truth_groups() -> dict[str, int]:
    """WT id -> controller-group label for cases b, c, d."""
    out: dict[str, int] = {}
    for g, numbers in GROUP_WT_NUMBERS.items():
        for n in numbers:
            out[wt_name(n)] = g
    return out


def _gains(case: str) -> tuple[np.ndarray, np.ndarray]:
    case = case.lower()
    if case not in ("a", "b", "c", "d"):
        raise ValueError(f"unknown case {case!r}")
    label_of = ground_truth_groups()
    labels = [label_of[wt_name(n)] for n in range(1, N_WT + 1)]
    kp = np.array([KP_DVC_BY_CASE["b"][g] for g in labels]) \
        if case in ("b", "d") else np.ones(N_WT)
    ki = np.array([KI_DVC_BY_CASE["c"][g] for g in labels]) \
        if case == "c" else np.full(N_WT, 300.0)
    if case == "d":
        rng = np.random.default_rng(CASE_D_SEED)
        kp = kp * (1.0 + CASE_D_SPREAD * rng.uniform(-1.0, 1.0, N_WT))
        ki = ki * (1.0 + CASE_D_SPREAD * rng.uniform(-1.0, 1.0, N_WT))
    return kp, ki


def case_farm(case: str) -> FarmDescription:
    """Synthesized 33-WT farm for study case 'a', 'b', 'c', or 'd'."""
    kp, ki = _gains(case)

    buses = ["poi"]
    branches = []
    wts = []
    n = 0
    for f in range(FEEDERS):
        prev = "poi"
        for j in range(WT_PER_FEEDER):
            bus = f"f{f + 1}b{j + 1}"
            buses.append(bus)
            branches.append(Branch(
                from_bus=prev,
                to_bus=bus,
                length_km=FEEDER_HEAD_KM[f] if j == 0 else SPAN_KM,
                r_ohm_per_km=R_OHM_PER_KM,
                l_h_per_km=L_H_PER_KM,
            ))
            n += 1
            wts.append((WtParams(
                id=wt_name(n),
                p_m0=P_M0[n - 1],
                c_dc=C_DC_F,
                u_dc0=U_DC0_PU,
                kp_dvc=float(kp[n - 1]),
                ki_dvc=float(ki[n - 1]),
            ), bus))
            prev = bus

    farm = FarmDescription(
        bases=PerUnitBases(s_wt_mva=S_WT_MVA, v_coll_kv=V_COLL_KV),
        buses=tuple(buses),
        poi="poi",
        branches=tuple(branches),
        wts=tuple(wts),
        grid=GridThevenin(r_pu=GRID_R_PU, l_pu=GRID_L_PU),
    )
    farm.validate()
    return farm


def single_wt_farm(p_m0: float = 0.9, kp_dvc: float = 1.0,
                   ki_dvc: float = 300.0, link_km: float = 0.0,
                   grid_r_pu: float = 0.001, grid_l_pu: float = 0.01,
                   ) -> FarmDescription:
    """One turbine behind an optional cable and the grid Thevenin branch."""
    wt = WtParams(id="wt01", p_m0=p_m0, c_dc=C_DC_F, u_dc0=U_DC0_PU,
                  kp_dvc=kp_dvc, ki_dvc=ki_dvc)
    buses = ("poi",) if link_km == 0 else ("poi", "t1")
    branches = () if link_km == 0 else (
        Branch("poi", "t1", link_km, R_OHM_PER_KM, L_H_PER_KM),)
    farm = FarmDescription(
        bases=PerUnitBases(s_wt_mva=S_WT_MVA, v_coll_kv=V_COLL_KV),
        buses=buses,
        poi="poi",
        branches=branches,
        wts=((wt, buses[-1]),),
        grid=GridThevenin(r_pu=grid_r_pu, l_pu=grid_l_pu),
    )
    farm.validate()
    return farm


def identical_zero_network_farm(n_wt: int = 33, p_m0: float = 0.8,
                                kp_dvc: float = 1.0, ki_dvc: float = 300.0,
                                ) -> FarmDescription:
    """Identical WTs tied to the infinite bus through zero impedance."""
    buses = ["poi"]
    branches = []
    wts = []
    for k in range(1, n_wt + 1):
        bus = f"b{k}"
        buses.append(bus)
        branches.append(Branch("poi", bus, 0.0, R_OHM_PER_KM, L_H_PER_KM))
        wts.append((WtParams(id=wt_name(k), p_m0=p_m0, c_dc=C_DC_F,
                             u_dc0=U_DC0_PU, kp_dvc=kp_dvc, ki_dvc=ki_dvc),
                    bus))
    farm = FarmDescription(
        bases=PerUnitBases(s_wt_mva=S_WT_MVA, v_coll_kv=V_COLL_KV),
        buses=tuple(buses),
        poi="poi",
        branches=tuple(branches),
        wts=tuple(wts),
        grid=GridThevenin(r_pu=0.0, l_pu=0.0),
    )
    farm.validate()
    return farm
