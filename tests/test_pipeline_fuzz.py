"""Whole-pipeline fuzz over schema-valid random farms.

Each drawn farm (`helpers.random_pll_grid_farm`) runs `run_pipeline` at
C = min(3, N) and under --auto-clusters.  Every run ends either with finite
E, E' and NRMSE values or with a `StageError` whose cause is an error class
that wfdem defines.  On every farm whose power flow converges, the
eigensolution also equals the SVD reference: overdamped PLL modes are where
near-real pairs show up.
"""

import math
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

from helpers import random_pll_grid_farm, state_matrix
from test_modal import assert_matches_reference
from wfdem.cli import RunConfig, StageError, run_pipeline
from wfdem.farm import save_farm
from wfdem.powerflow import PowerflowError, solve_powerflow


def run_to_the_end(farm_path: Path, out_dir: Path, clusters: int | None):
    try:
        state = run_pipeline(RunConfig(farm_path=farm_path, out_dir=out_dir,
                                       clusters=clusters))
    except StageError as exc:
        assert type(exc.cause).__module__.startswith("wfdem."), repr(exc)
        return
    report = state.report
    assert all(math.isfinite(x) for x in
               (report.e, report.e_prime, *report.nrmse.values()))


@seed(2021)
@settings(max_examples=60)
@given(st.integers(0, 2**16))
def test_pipeline_finishes_or_names_its_error(farm_seed):
    farm = random_pll_grid_farm(farm_seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_farm(farm, root / "farm.json")
        for clusters in (min(3, farm.n_wt), None):
            run_to_the_end(root / "farm.json", root / f"c{clusters}",
                           clusters)
    try:
        sol = solve_powerflow(farm)
    except PowerflowError:
        return
    assert_matches_reference(state_matrix(farm, sol))
