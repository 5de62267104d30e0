"""The shipped-farm runs against the reference committed in tests/reference.

`scripts/acceptance_digests.py --write-reference` wrote, at one OpenBLAS
thread, six artifacts of each of the acceptance set's 16 shipped-farm runs
(`REFERENCE_FILES`).  These tests rerun them the same way and hold every
run to its reference: every discrete leaf is equal (the WT assignment,
merge log and low-margin WTs, `clusters` and `n_groups`, `pair_id` and
`selected`, the DEM's members and machine count), and every number stays
within `helpers.BOUNDS`, the bound that also holds between 1 and 2 BLAS
threads.  So a change that moves a decision fails tier-1, not only the
digest comparison.  A change that moves artifacts on purpose writes the
reference again in the same commit.
"""

import pytest

from helpers import (BOUNDS, ROOT, artifact_difference, load_digests_script,
                     run_python_bounded)

REFERENCE = ROOT / "tests" / "reference"
RUNS = sorted(path.name for path in REFERENCE.iterdir() if path.is_dir())
REFERENCE_FILES = load_digests_script().REFERENCE_FILES


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    proc = run_python_bounded(
        [str(ROOT / "scripts" / "acceptance_digests.py"),
         "--write-reference", str(out)], timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out


def test_the_reference_holds_every_shipped_run(fresh):
    assert len(RUNS) == 16
    assert sorted(path.name for path in fresh.iterdir()
                  if path.is_dir()) == RUNS
    for run in RUNS:
        assert sorted(path.name for path in (REFERENCE / run).iterdir()) \
            == sorted(REFERENCE_FILES), run


@pytest.mark.parametrize("run", RUNS)
def test_run_matches_its_reference(fresh, run):
    for name in REFERENCE_FILES:
        diff = artifact_difference(name, fresh / run / name,
                                   REFERENCE / run / name)
        assert diff <= BOUNDS[name], (name, diff)
