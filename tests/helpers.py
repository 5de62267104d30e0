"""Pipeline products and random farms shared by the test modules.

Kept out of conftest.py so that test modules import it by a name no other
test suite's conftest shadows.
"""

import dataclasses
import functools
import importlib.util
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from wfdem.aggregation import build_dem
from wfdem.assembly import linear_model
from wfdem.cases import case_farm
from wfdem.clustering import cluster_modes, group_wts, superimpose_mpf
from wfdem.farm import (Branch, FarmDescription, GridThevenin, PerUnitBases,
                        WtParams, build_network_matrices)
from wfdem.gridcsv import read_grid
from wfdem.modal import solve_modes
from wfdem.powerflow import BusSolution, solve_powerflow
from wfdem.wt import linearize_wt

ROOT = Path(__file__).resolve().parent.parent


class SolvedFarm:
    """Detailed pipeline products for one farm, computed once.

    `fss`, `modal` and `concern` are the parts of `model`; `blocks` and
    `net`, the inputs of the closure, are formed when first asked for.
    """

    def __init__(self, farm: FarmDescription):
        self.farm = farm
        self.sol = solve_powerflow(farm)
        self.model = solve_modes(farm, self.sol)

    fss = property(lambda self: self.model.fss)
    modal = property(lambda self: self.model.modal)
    concern = property(lambda self: self.model.concern)

    @functools.cached_property
    def blocks(self):
        return [linearize_wt(wt, u, self.farm.bases)
                for wt, u in terminal_voltages(self.farm, self.sol)]

    @functools.cached_property
    def net(self):
        return build_network_matrices(self.farm)

    def clustered(self, c: int, seed: int = 42):
        clusters = cluster_modes(self.concern, c, seed)
        features = superimpose_mpf(self.model, clusters)
        groups = group_wts(features)
        return clusters, features, groups

    def dem(self, c: int, seed: int = 42):
        clusters, _, groups = self.clustered(c, seed)
        return clusters, groups, build_dem(self.farm, groups)


def state_matrix(farm: FarmDescription, sol: BusSolution) -> np.ndarray:
    """The closed-loop state matrix of `farm` at the power flow `sol`.

    A solved `FarmModel` keeps none (its `fss.a_s` is None), so this
    rebuilds it through `linear_model`, which `solve_modes` called with the
    same arguments: the same bits."""
    return linear_model(farm, sol).a_s


def terminal_voltages(farm: FarmDescription, sol: BusSolution,
                      ) -> list[tuple[WtParams, complex]]:
    """Each WT of `farm`, in order, with its bus voltage in `sol`."""
    v = dict(zip(sol.bus_ids, sol.v))
    return [(wt, v[bus]) for wt, bus in farm.wts]


_CACHE: dict[str, SolvedFarm] = {}


def solved_case(case: str) -> SolvedFarm:
    if case not in _CACHE:
        _CACHE[case] = SolvedFarm(case_farm(case))
    return _CACHE[case]


def stiff_grid(farm: FarmDescription) -> FarmDescription:
    """`farm` with a zero grid tie: the POI merges with the infinite bus
    while the collector branches stay live."""
    return dataclasses.replace(farm, grid=GridThevenin(0.0, 0.0))


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


@functools.cache
def load_digests_script():
    """`scripts/acceptance_digests.py` as a module, loaded once."""
    spec = importlib.util.spec_from_file_location(
        "acceptance_digests", ROOT / "scripts" / "acceptance_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# How far an artifact may move between two runs that must take the same
# decisions: the largest |difference| over the largest |value| of its
# column (CSV, .npz) or over the larger |value| of the two (JSON numbers),
# as scripts/acceptance_digests.py figures them.  Each bound is ten times
# the largest difference measured between 1 and 2 OpenBLAS threads,
# rounded up to a power of ten, and 1e-12 where nothing moved (the power
# flow and the DEM); measured with numpy 2.4 and its bundled OpenBLAS on
# x86-64: modes 1.2e-12, features 6.7e-12, responses 2.7e-14, groups
# (margins) 5.7e-12, report 5.0e-11, bus_solution and dem 0.  Per-mode MPF
# columns are not bounded: near-coincident modes (case a) have no unique
# columns, only their cluster sums, which `features.csv` holds.
BOUNDS = {"bus_solution.csv": 1e-12, "modes.csv": 1e-10,
          "features.csv": 1e-10, "responses.npz": 1e-12, "dem.json": 1e-12,
          "groups.json": 1e-10, "report.json": 1e-9}
# the discrete columns of `modes.csv`
MODES_EXACT = ("pair_id", "selected", "dominant_wt")
# A JSON number no larger than this in magnitude on both sides is the
# roundoff of an exact zero, and its move is not bounded: the errors and
# NRMSEs of an exact DEM (zero_network's `/nrmse/group0_u_dc` moved once
# from 3.574e-16 to 3.503e-16, 2% relative).  In the shipped-farm runs
# such leaves lie below 7e-16 and every other nonzero number above 2e-5.
ROUNDOFF_FLOOR = 1e-12


def json_difference(a, b) -> float:
    """Largest relative difference of the numeric leaves of two parsed
    JSON documents, over the leaves above `ROUNDOFF_FLOOR`; every other
    leaf, and the set of leaves, must be equal."""
    script = load_digests_script()
    a, b = script.json_leaves(a), script.json_leaves(b)
    assert a.keys() == b.keys()
    floats = []
    for path, x in a.items():
        y = b[path]
        if isinstance(x, float) and isinstance(y, float):
            if not (abs(x) <= ROUNDOFF_FLOOR and abs(y) <= ROUNDOFF_FLOOR):
                floats.append((x, y))
        else:
            assert x == y and type(x) is type(y), path
    return script.array_difference(
        *np.array(floats, dtype=float).reshape(-1, 2).T)[1]


def artifact_difference(name: str, ours: Path, theirs: Path) -> float:
    """The figure `BOUNDS[name]` bounds, for one artifact of two runs;
    the discrete parts (JSON leaves that are not floats, the pair ids,
    selection flags and dominant WTs of `modes.csv`, headers, row labels,
    .npz keys) must be equal."""
    script = load_digests_script()
    if name.endswith(".json"):
        return json_difference(json.loads(ours.read_text()),
                               json.loads(theirs.read_text()))
    if name.endswith(".csv"):
        (h1, l1, a), (h2, l2, b) = read_grid(ours), read_grid(theirs)
        assert (h1, l1) == (h2, l2)
        if name == "modes.csv":
            # the same pairs, the same concern set and the same loop owners
            exact = [h1.index(col) for col in MODES_EXACT]
            assert np.array_equal(a[:, exact], b[:, exact])
        return script.array_difference(a, b)[2]
    with np.load(ours) as x, np.load(theirs) as y:
        assert x.files == y.files
        return max(script.array_difference(x[k], y[k])[2] for k in x.files)


def library_example() -> str:
    """The Python block of the README's "Library use" section."""
    readme = (ROOT / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Library use"))
    return readme[start + len("```python\n"):readme.index("```\n", start + 1)]


def run_python_bounded(args: list[str], timeout: float, blas_threads: int = 1,
                       cwd: Path | None = None,
                       ) -> subprocess.CompletedProcess:
    """`python *args` in a child capped at 1 GiB of address space, with
    OpenBLAS held to `blas_threads` threads, run in `cwd` (default: this
    process's working directory).

    For code whose failure mode is an endless loop: the child fails on the
    cap or the timeout instead of hanging the suite or exhausting memory.
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(
               [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, *args], env=env,
                          preexec_fn=cap_memory, capture_output=True,
                          text=True, timeout=timeout, cwd=cwd)


def traced_peak(fn):
    """fn() and tracemalloc's peak over the call above its start, in
    bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
