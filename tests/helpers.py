"""Pipeline products and random farms shared by the test modules.

Kept out of conftest.py so that test modules import it by a name no other
test suite's conftest shadows.
"""

import dataclasses
import importlib.util
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

from wfdem.aggregation import build_dem
from wfdem.assembly import assemble_farm
from wfdem.cases import case_farm
from wfdem.clustering import cluster_modes, group_wts, superimpose_mpf
from wfdem.farm import (Branch, FarmDescription, GridThevenin, PerUnitBases,
                        WtParams, build_network_matrices)
from wfdem.modal import eig_biorthogonal, select_concern_modes
from wfdem.powerflow import solve_powerflow, wt_operating_point
from wfdem.wt import linearize_wt

ROOT = Path(__file__).resolve().parent.parent


class SolvedFarm:
    """Detailed pipeline products for one farm, computed once."""

    def __init__(self, farm: FarmDescription):
        self.farm = farm
        self.sol = solve_powerflow(farm)
        self.ops = [wt_operating_point(self.sol, wt) for wt, _ in farm.wts]
        self.blocks = [linearize_wt(wt, op, farm.bases)
                       for (wt, _), op in zip(farm.wts, self.ops)]
        self.net = build_network_matrices(farm)
        self.fss = assemble_farm(self.blocks, self.net)
        self.modal = eig_biorthogonal(self.fss.a_s, self.fss.labels)
        self.concern = select_concern_modes(self.modal, n_expected=farm.n_wt)
        self.rep_rows = {wt_id: self.fss.state_index(wt_id, "u_dc")
                         for wt_id in self.fss.wt_order}

    def clustered(self, c: int, seed: int = 42):
        clusters = cluster_modes(self.concern, c, seed)
        features = superimpose_mpf(self.modal, clusters, self.rep_rows)
        groups = group_wts(features)
        return clusters, features, groups

    def dem(self, c: int, seed: int = 42):
        clusters, _, groups = self.clustered(c, seed)
        return clusters, groups, build_dem(self.farm, groups, clusters)


_CACHE: dict[str, SolvedFarm] = {}


def solved_case(case: str) -> SolvedFarm:
    if case not in _CACHE:
        _CACHE[case] = SolvedFarm(case_farm(case))
    return _CACHE[case]


def random_radial_farm(seed: int) -> FarmDescription:
    """Small seeded farm: 1-3 radial feeders, occasional zero-length spans."""
    rng = np.random.default_rng(seed)
    buses = ["poi"]
    branches = []
    wts = []
    n = 0
    for f in range(int(rng.integers(1, 4))):
        prev = "poi"
        for j in range(int(rng.integers(1, 5))):
            bus = f"f{f}b{j}"
            buses.append(bus)
            length = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.1, 4.0))
            branches.append(Branch(prev, bus, length, 0.1153, 1.05e-3))
            n += 1
            wts.append((WtParams(
                id=f"wt{n:02d}",
                p_m0=float(rng.uniform(0.3, 1.0)),
                c_dc=0.09,
                u_dc0=1.0,
                kp_dvc=float(rng.uniform(0.5, 3.0)),
                ki_dvc=float(rng.uniform(100.0, 600.0)),
            ), bus))
            prev = bus
    farm = FarmDescription(
        bases=PerUnitBases(s_wt_mva=1.5, v_coll_kv=35.0),
        buses=tuple(buses),
        poi="poi",
        branches=tuple(branches),
        wts=tuple(wts),
        grid=GridThevenin(r_pu=float(rng.uniform(0.0, 0.002)),
                          l_pu=float(rng.uniform(1e-4, 0.02))),
    )
    farm.validate()
    return farm


def random_pll_grid_farm(seed: int) -> FarmDescription:
    """`random_radial_farm(seed)` with per-WT PLL gains and the grid tie
    drawn wide: kp_pll 0.5-60, ki_pll 5-1400, l_pu 0.01-0.3, r_pu 0-0.03.

    Overdamped PLL modes give near-real pairs, and the weakest ties cannot
    carry the farm's power, so some of these flows do not converge.
    """
    farm = random_radial_farm(seed)
    rng = np.random.default_rng((seed, 1))
    wts = tuple((dataclasses.replace(wt, kp_pll=float(rng.uniform(0.5, 60.0)),
                                     ki_pll=float(rng.uniform(5.0, 1400.0))),
                 bus) for wt, bus in farm.wts)
    grid = GridThevenin(r_pu=float(rng.uniform(0.0, 0.03)),
                        l_pu=float(rng.uniform(0.01, 0.3)))
    farm = dataclasses.replace(farm, wts=wts, grid=grid)
    farm.validate()
    return farm


def ladder_farm(feeders: int, spans: int, seed: int | tuple[int, ...],
                planted: bool = True) -> FarmDescription:
    """The benchmark's seeded F x S ladder farm, with planted DVC groups
    or with free per-WT gains; farm k of a seed-s workload has seed (s, k)."""
    spec = importlib.util.spec_from_file_location(
        "farmgen", ROOT / "perfbench" / "farmgen.py")
    farmgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(farmgen)
    return farmgen.ladder_farm(feeders, spans, seed, planted)[0]


def run_python_bounded(args: list[str], timeout: float,
                       ) -> subprocess.CompletedProcess:
    """`python *args` in a child capped at 1 GiB of address space.

    For code whose failure mode is an endless loop: the child fails on the
    cap or the timeout instead of hanging the suite or exhausting memory.
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, *args], env=env,
                          preexec_fn=cap_memory, capture_output=True,
                          text=True, timeout=timeout)
