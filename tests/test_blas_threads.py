"""Artifacts across BLAS thread counts.

Byte identity holds within one BLAS thread count only: between 1 and 2
OpenBLAS threads the artifacts move by roundoff.  No decision of the method
may move with them: the concern set, the WT groups, the merge log, the
chosen C and the DEM machine count stay equal, and every number stays
within `helpers.BOUNDS`, the rule that `test_reference.py` holds the
shipped-farm runs to as well.
"""

import json

import numpy as np
import pytest

from helpers import BOUNDS, ROOT, artifact_difference, run_python_bounded

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
