"""Artifacts across BLAS thread counts.

Byte identity holds within one BLAS thread count only: between 1 and 2
OpenBLAS threads the artifacts move by roundoff.  No decision of the method
may move with them: the concern set, the WT groups, the merge log, the
chosen C and the DEM machine count stay equal, and every number stays
within the bound below.  Each bound is ten times the largest difference
measured on these runs, rounded up to a power of ten, and 1e-12 where
nothing moved (the power flow and the DEM's network).  Per-mode
MPF columns are not bounded: near-coincident modes (case a) have no unique
columns, only their cluster sums, which `features.csv` holds.
"""

import json

import numpy as np
import pytest

from helpers import ROOT, load_digests_script, run_python_bounded
from wfdem.gridcsv import read_grid

RUNS = {"case_a_c1": ("case_a.json", 1), "case_a_c3": ("case_a.json", 3),
        "case_b_c3": ("case_b.json", 3)}

CHILD = """
import json, sys
from wfdem.cli import main
out, runs = sys.argv[1], json.loads(sys.argv[2])
for name, (farm, c) in runs.items():
    argv = ["all", "--farm", f"{sys.argv[3]}/{farm}", "--clusters", str(c),
            "--out", f"{out}/{name}"]
    if main(argv) != 0:
        sys.exit(f"wfdem {' '.join(argv)} failed")
"""

# largest |difference| over the largest |value| of its column (CSV, .npz)
# or over the larger |value| of the two (JSON numbers), as
# scripts/acceptance_digests.py figures them; measured with
# numpy 2.4 and its bundled OpenBLAS on x86-64, largest of the three runs:
# modes 1.2e-12, features 6.7e-12, responses 2.7e-14, groups (margins)
# 5.7e-12, report 5.0e-11, bus_solution and dem 0
BOUNDS = {"bus_solution.csv": 1e-12, "modes.csv": 1e-10,
          "features.csv": 1e-10, "responses.npz": 1e-12, "dem.json": 1e-12,
          "groups.json": 1e-10, "report.json": 1e-9}


SCRIPT = load_digests_script()


def json_difference(a, b):
    """Largest relative difference of the numeric leaves; every other leaf,
    and the set of leaves, must be equal."""
    a, b = SCRIPT.json_leaves(a), SCRIPT.json_leaves(b)
    assert a.keys() == b.keys()
    floats = []
    for path, x in a.items():
        y = b[path]
        if isinstance(x, float) and isinstance(y, float):
            floats.append((x, y))
        else:
            assert x == y and type(x) is type(y), path
    return SCRIPT.array_difference(
        *np.array(floats, dtype=float).reshape(-1, 2).T)[1]


def artifact_difference(name, ours, theirs):
    """The figure `BOUNDS` bounds, for one artifact of both runs."""
    if name.endswith(".json"):
        return json_difference(json.loads(ours.read_text()),
                               json.loads(theirs.read_text()))
    if name.endswith(".csv"):
        (h1, l1, a), (h2, l2, b) = read_grid(ours), read_grid(theirs)
        assert (h1, l1) == (h2, l2)
        if name == "modes.csv":
            # pair_id and selected: the same pairs and the same concern set
            assert np.array_equal(a[:, 4:], b[:, 4:])
        return SCRIPT.array_difference(a, b)[2]
    with np.load(ours) as x, np.load(theirs) as y:
        assert x.files == y.files
        return max(SCRIPT.array_difference(x[k], y[k])[2] for k in x.files)


@pytest.fixture(scope="module")
def thread_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("blas_threads")
    for threads in (1, 2):
        proc = run_python_bounded(
            ["-c", CHILD, str(root / str(threads)), json.dumps(RUNS),
             str(ROOT / "farms")], timeout=300, blas_threads=threads)
        assert proc.returncode == 0, proc.stderr
    return root


def test_one_and_two_blas_threads_make_the_same_dem(thread_runs):
    for run in RUNS:
        one, two = thread_runs / "1" / run, thread_runs / "2" / run
        groups = [json.loads((d / "groups.json").read_text())
                  for d in (one, two)]
        assert groups[0]["assignment"] == groups[1]["assignment"], run
        assert groups[0]["merge_log"] == groups[1]["merge_log"], run
        meta = [json.loads((d / "report.json").read_text())["metadata"]
                for d in (one, two)]
        assert meta[0]["clusters"] == meta[1]["clusters"], run
        assert len(meta[0]["group_capacity_mva"]) \
            == len(meta[1]["group_capacity_mva"]), run
        with np.load(one / "mpf.npz") as a, np.load(two / "mpf.npz") as b:
            assert np.array_equal(a["mode"], b["mode"]), run
            assert np.array_equal(a["state"], b["state"]), run
        for name, bound in BOUNDS.items():
            diff = artifact_difference(name, one / name, two / name)
            assert diff <= bound, (run, name, diff)
