"""Seeded radial ladder farms for the benchmark workloads.

`ladder_farm` generalises `wfdem.cases.case_farm` from 3 x 11 to F feeders
x S spans.  It reuses the study farm's cable data, 1.2 km spans and the
3.0/3.5/4.0 km feeder heads (cycled over the feeders), and scales the grid
Thevenin impedance by 1/N on the per-turbine base, as the study does for
N = 33.  The seed draws each WT's steady power and either a planted
controller group or its own DVC gains.
"""

from __future__ import annotations

import numpy as np

from wfdem import cases
from wfdem.farm import (Branch, FarmDescription, GridThevenin, PerUnitBases,
                        WtParams)

P_M0_RANGE = (0.45, 1.0)
PLANTED_KP = (1.0, 2.0, 3.0)      # case b's three DVC groups
PLANTED_KI = 300.0
FREE_KP_RANGE = (1.0, 3.0)
FREE_KI_RANGE = (150.0, 450.0)


def ladder_farm(feeders: int, spans: int, seed: int | tuple[int, ...],
                planted: bool) -> tuple[FarmDescription, dict[str, int]]:
    """F x S radial farm and its planted WT -> group map (empty if free).

    With `planted`, each WT joins one of three DVC groups (kp 1/2/3,
    ki 300).  Without it, each WT draws its own kp in [1, 3] and ki in
    [150, 450], so the farm has no group structure.
    """
    n_wt = feeders * spans
    rng = np.random.default_rng(seed)
    p_m0 = rng.uniform(*P_M0_RANGE, n_wt)
    if planted:
        label = rng.integers(0, len(PLANTED_KP), n_wt)
        kp = np.array(PLANTED_KP)[label]
        ki = np.full(n_wt, PLANTED_KI)
    else:
        label = None
        kp = rng.uniform(*FREE_KP_RANGE, n_wt)
        ki = rng.uniform(*FREE_KI_RANGE, n_wt)

    width = max(2, len(str(n_wt)))
    buses = ["poi"]
    branches = []
    wts = []
    groups: dict[str, int] = {}
    for f in range(feeders):
        prev = "poi"
        for j in range(spans):
            n = f * spans + j
            bus = f"f{f + 1}b{j + 1}"
            buses.append(bus)
            branches.append(Branch(
                from_bus=prev,
                to_bus=bus,
                length_km=(cases.FEEDER_HEAD_KM[f % len(cases.FEEDER_HEAD_KM)]
                           if j == 0 else cases.SPAN_KM),
                r_ohm_per_km=cases.R_OHM_PER_KM,
                l_h_per_km=cases.L_H_PER_KM,
            ))
            wt_id = f"wt{n + 1:0{width}d}"
            wts.append((WtParams(
                id=wt_id,
                p_m0=float(p_m0[n]),
                c_dc=cases.C_DC_F,
                u_dc0=cases.U_DC0_PU,
                kp_dvc=float(kp[n]),
                ki_dvc=float(ki[n]),
            ), bus))
            if label is not None:
                groups[wt_id] = int(label[n])
            prev = bus

    farm = FarmDescription(
        bases=PerUnitBases(s_wt_mva=cases.S_WT_MVA,
                           v_coll_kv=cases.V_COLL_KV),
        buses=tuple(buses),
        poi="poi",
        branches=tuple(branches),
        wts=tuple(wts),
        grid=GridThevenin(r_pu=0.001 / n_wt, l_pu=0.01 / n_wt),
    )
    farm.validate()
    return farm, groups
