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

# DVC gains of groups 0, 1, 2: kp in cases b and d, ki in case c; every
# other case holds the group-free values kp = 1 and ki = 300
KP_DVC_BY_GROUP = (1.0, 2.0, 3.0)
KI_DVC_BY_GROUP = (100.0, 300.0, 500.0)

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
    kp = np.array([KP_DVC_BY_GROUP[g] for g in labels]) \
        if case in ("b", "d") else np.ones(N_WT)
    ki = np.array([KI_DVC_BY_GROUP[g] for g in labels]) \
        if case == "c" else np.full(N_WT, 300.0)
    if case == "d":
        rng = np.random.default_rng(CASE_D_SEED)
        kp = kp * (1.0 + CASE_D_SPREAD * rng.uniform(-1.0, 1.0, N_WT))
        ki = ki * (1.0 + CASE_D_SPREAD * rng.uniform(-1.0, 1.0, N_WT))
    return kp, ki


def _study_wt(number: int, p_m0: float, kp_dvc: float,
              ki_dvc: float) -> WtParams:
    """Study machine `wt_name(number)`: the study's DC link, the given
    power and DVC gains, and the default PLL gains and capacity."""
    return WtParams(id=wt_name(number), p_m0=p_m0, c_dc=C_DC_F,
                    u_dc0=U_DC0_PU, kp_dvc=kp_dvc, ki_dvc=ki_dvc)


def _study_farm(links: list[tuple[str, str, float]],
                wts: list[tuple[WtParams, str]],
                grid_r_pu: float, grid_l_pu: float) -> FarmDescription:
    """Validated farm on the study's bases: a POI named "poi", then one
    bus per (from, to, km) link of the study cable, in link order."""
    farm = FarmDescription(
        bases=PerUnitBases(s_wt_mva=S_WT_MVA, v_coll_kv=V_COLL_KV),
        buses=("poi", *(to for _, to, _ in links)),
        poi="poi",
        branches=tuple(Branch(a, b, km, R_OHM_PER_KM, L_H_PER_KM)
                       for a, b, km in links),
        wts=tuple(wts),
        grid=GridThevenin(r_pu=grid_r_pu, l_pu=grid_l_pu),
    )
    farm.validate()
    return farm


def case_farm(case: str) -> FarmDescription:
    """Synthesized 33-WT farm for study case 'a', 'b', 'c', or 'd'."""
    kp, ki = _gains(case)
    # span j of feeder f ends at WT bus f<f+1>b<j+1>; span 0 starts at the POI
    links = [(f"f{f + 1}b{j}" if j else "poi", f"f{f + 1}b{j + 1}",
              SPAN_KM if j else FEEDER_HEAD_KM[f])
             for f in range(FEEDERS) for j in range(WT_PER_FEEDER)]
    wts = [(_study_wt(n + 1, P_M0[n], float(kp[n]), float(ki[n])), to)
           for n, (_, to, _) in enumerate(links)]
    return _study_farm(links, wts, GRID_R_PU, GRID_L_PU)


def single_wt_farm(p_m0: float = 0.9, kp_dvc: float = 1.0,
                   ki_dvc: float = 300.0, link_km: float = 0.0,
                   grid_r_pu: float = 0.001, grid_l_pu: float = 0.01,
                   ) -> FarmDescription:
    """One turbine behind an optional cable and the grid Thevenin branch."""
    links = [] if link_km == 0 else [("poi", "t1", link_km)]
    bus = "poi" if link_km == 0 else "t1"
    return _study_farm(links, [(_study_wt(1, p_m0, kp_dvc, ki_dvc), bus)],
                       grid_r_pu, grid_l_pu)


def identical_zero_network_farm(n_wt: int = 33, p_m0: float = 0.8,
                                kp_dvc: float = 1.0, ki_dvc: float = 300.0,
                                ) -> FarmDescription:
    """Identical WTs tied to the infinite bus through zero impedance."""
    links = [("poi", f"b{k}", 0.0) for k in range(1, n_wt + 1)]
    wts = [(_study_wt(k, p_m0, kp_dvc, ki_dvc), f"b{k}")
           for k in range(1, n_wt + 1)]
    return _study_farm(links, wts, 0.0, 0.0)
