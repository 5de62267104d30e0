"""Whole-pipeline relations between runs on transformed farm files.

The first three relations are checked through `run_pipeline` on the study
cases b-d at C = 3, so that the canonical orderings (eigenvalue sort,
k-means tie-break, group numbering) are exercised end to end:

- listing the WTs in another order moves E, E' and the NRMSE values only by
  roundoff and leaves the partition as it is;
- renaming the WTs changes no number;
- one cluster per concern mode gives E = 0 exactly;
- identical WTs on `farms/zero_network.json` form one group and a
  one-machine DEM at C = 1, 2 and 3.
"""

import dataclasses

import numpy as np
import pytest

from helpers import ROOT
from wfdem.cases import case_farm
from wfdem.cli import RunConfig, run_pipeline
from wfdem.farm import FarmDescription, load_farm, save_farm

CASES = ("b", "c", "d")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run `all` on a farm once per tag; later calls reuse the state."""
    done = {}

    def run(tag: str, farm: FarmDescription, clusters: int = 3):
        if tag not in done:
            root = tmp_path_factory.mktemp(tag)
            save_farm(farm, root / "farm.json")
            done[tag] = run_pipeline(RunConfig(
                farm_path=root / "farm.json", out_dir=root / "out",
                clusters=clusters))
        return done[tag]
    return run


def nrmse_by_member_set(state) -> dict:
    """POI and group NRMSE, the groups keyed by their member WT ids.

    Group ids are dense in order of first appearance in the farm, so they
    move when the WTs are listed in another order; member sets do not.
    """
    out = {"poi_p": state.report.nrmse["poi_p"]}
    for g, pairs in state.dem.members.items():
        out[frozenset(wt_id for wt_id, _ in pairs)] = \
            state.report.nrmse[f"group{g}_u_dc"]
    return out


@pytest.mark.parametrize("case", CASES)
def test_wt_order_moves_results_only_by_roundoff(pipeline, case):
    farm = case_farm(case)
    perm = np.random.default_rng(0).permutation(farm.n_wt)
    permuted = dataclasses.replace(farm, wts=tuple(farm.wts[k] for k in perm))
    base = pipeline(case, farm)
    moved = pipeline(f"{case}_permuted", permuted)

    # measured: E and E' within 4e-15, POI NRMSE within 5e-13 relative,
    # group NRMSE within 1e-12 relative
    assert moved.report.e == pytest.approx(base.report.e, rel=0, abs=1e-13)
    assert moved.report.e_prime == pytest.approx(base.report.e_prime, rel=0,
                                                 abs=1e-13)
    want, got = nrmse_by_member_set(base), nrmse_by_member_set(moved)
    assert got.keys() == want.keys()          # the same partition
    assert got["poi_p"] == pytest.approx(want["poi_p"], rel=1e-11, abs=0)
    for members in want:
        assert got[members] == pytest.approx(want[members], rel=1e-10, abs=0)


@pytest.mark.parametrize("case", CASES)
def test_wt_names_change_no_number(pipeline, case):
    farm = case_farm(case)
    # reversed ids sort in another order than the originals
    new_id = {wt.id: f"T{wt.id[::-1]}" for wt, _ in farm.wts}
    renamed = dataclasses.replace(farm, wts=tuple(
        (dataclasses.replace(wt, id=new_id[wt.id]), bus)
        for wt, bus in farm.wts))
    base = dataclasses.asdict(pipeline(case, farm).report)
    got = dataclasses.asdict(pipeline(f"{case}_renamed", renamed).report)

    meta = base["metadata"]
    base["metadata"] = {
        **meta, "farm_sha256": got["metadata"]["farm_sha256"],
        "groups": {new_id[wt]: g for wt, g in meta["groups"].items()}}
    assert got == base


@pytest.mark.filterwarnings("ignore:33 mode clusters vs")
@pytest.mark.parametrize("case", CASES)
def test_one_cluster_per_mode_has_zero_centre_error(pipeline, case):
    farm = case_farm(case)
    state = pipeline(f"{case}_c{farm.n_wt}", farm, clusters=farm.n_wt)
    assert state.clusters.n_clusters == farm.n_wt
    assert state.report.e == 0.0


@pytest.mark.parametrize("clusters", [1, 2, 3])
def test_identical_wts_form_one_group_at_any_count(pipeline, clusters):
    # the 33 coincident modes share one cluster, whatever C asks for
    farm = load_farm(ROOT / "farms" / "zero_network.json")
    state = pipeline(f"zero_network_c{clusters}", farm, clusters=clusters)
    assert state.clusters.n_clusters == 1
    assert state.groups.n_groups == 1
    assert state.dem.farm.n_wt == 1
