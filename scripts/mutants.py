#!/usr/bin/env python3
"""Mutation checks: break the package with one exact text edit and see
whether the tests that guard that code notice.

Each entry of `MUTANTS` names a file of the repository, a text that occurs
in it exactly once, the text that replaces it and the tests (pytest node
ids) that should fail.  Each run copies the parts of the repository the
tests read into a temporary directory and runs `pytest -x -q` there on
the named tests, with `PYTHONPATH` on the copy's `src`; the repository
itself is never edited.

    python3 scripts/mutants.py

First every named test runs once on an unmutated copy; if one fails, the
script prints "baseline fails" with its id and exits 1, because a failure
under a mutant would then prove nothing.  Then each mutant's edit is
applied to a fresh copy.  A mutant is caught when its tests fail (pytest
exit 1), and the line names the first failing test; it survives when they
pass.  Any other outcome (an import or collection error, a test id that
names nothing) is reported as an error with pytest's last output line.
The script exits 1 if a mutant survives or errs, or if an old text does
not occur exactly once.  A run copies the repository once per mutant and
takes tens of seconds, so the test suite does not run it; it only checks
that every old text still occurs exactly once and every test id names a
test function, so that a refactor that removes a mutant's site updates
this list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# what the tests read, copied for each run
COPIED = ("src", "tests", "farms", "perfbench", "scripts", "pyproject.toml",
          "README.md")


class Mutant(NamedTuple):
    name: str
    path: str                # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]   # pytest node ids: "module::test_function"


_DENSE = "tests/test_modal.py::test_loop_participation_matches_the_dense_table"

MUTANTS = (
    Mutant("rank_by_dvc_int", "src/wfdem/modal.py",
           "ranking = [STATE_KINDS.index(kind) for kind in STATE_FILTER]",
           'ranking = [STATE_KINDS.index("dvc_int")]',
           (_DENSE,)),
    Mutant("dominant_argmin", "src/wfdem/modal.py",
           "dominant[cols] = np.argmax(", "dominant[cols] = np.argmin(",
           (_DENSE,)),
    Mutant("superimpose_reversed", "src/wfdem/clustering.py",
           "for col, k in zip(model.mpf.T, clusters.labels):",
           "for col, k in reversed(list(zip(model.mpf.T, clusters.labels))):",
           ("tests/test_clustering.py::"
            "test_superposition_sums_each_cluster_like_python_sum",)),
    Mutant("dvc_kinds_pll", "src/wfdem/modal.py",
           'DVC_KINDS = ("u_dc", "dvc_int")',
           'DVC_KINDS = ("u_dc", "pll_angle")',
           (_DENSE,)),
    Mutant("ranking_reversed", "src/wfdem/modal.py",
           "key=lambda k: (-scores[k],", "key=lambda k: (scores[k],",
           ("tests/test_modal.py::test_pll_filter_selects_disjoint_band",
            "tests/test_modal.py::test_decoupled_farm_selects_stiff_grid_modes")),
    Mutant("kmeanspp_maximum", "src/wfdem/clustering.py",
           "np.minimum(d2, new, out=d2)", "np.maximum(d2, new, out=d2)",
           ("tests/test_clustering.py::"
            "test_batched_kmeans_matches_serial_on_study_cases",)),
    Mutant("error_e_mean", "src/wfdem/validation.py",
           "return float(np.max(centre_errors(concern, clusters)))",
           "return float(np.mean(centre_errors(concern, clusters)))",
           ("tests/test_validation.py::test_error_e_two_mode_example",)),
    Mutant("lone_column_blocks", "src/wfdem/modal.py",
           "_COL_BLOCK = 16", "_COL_BLOCK = 1",
           (_DENSE,)),
    Mutant("merge_last_closest_pair", "src/wfdem/clustering.py",
           "best = int(np.argmin(pairs))",
           "best = len(pairs) - 1 - int(np.argmin(pairs[::-1]))",
           ("tests/test_clustering.py::"
            "test_merges_equal_the_round_by_round_oracle",)),
    Mutant("drop_g_off_add", "src/wfdem/validation.py",
           "spans += g_off[:, None, :]", "pass",
           ("tests/test_validation.py::"
            "test_anchored_time_factors_on_ragged_horizons",)),
    Mutant("drop_zero_mode_tau", "src/wfdem/validation.py",
           "block[zero] = tau", "pass",
           ("tests/test_validation.py::"
            "test_anchored_time_factors_on_any_spectrum",)),
    Mutant("draw_unnormalised_cdf", "src/wfdem/clustering.py",
           "cdf /= cdf[:, -1:]", "pass",
           ("tests/test_clustering.py::"
            "test_batched_draw_is_choice_draw_for_draw",)),
    Mutant("far_set_index_order", "src/wfdem/clustering.py",
           'for i in np.argsort(-far.sum(axis=1), kind="stable"):',
           "for i in range(len(lam)):",
           ("tests/test_clustering.py::"
            "test_far_sets_cut_the_benchmark_sweep",)),
    Mutant("write_f_order_as_c", "src/wfdem/gridcsv.py",
           "val = val.T", "pass",
           ("tests/test_gridcsv.py::"
            "test_write_arrays_writes_the_np_savez_bytes",)),
    Mutant("study_machine_c_dc", "src/wfdem/cases.py",
           "c_dc=C_DC_F,", "c_dc=2 * C_DC_F,",
           ("tests/test_farm.py::"
            "test_shipped_farms_are_what_make_farms_writes",)),
    Mutant("single_wt_link_length", "src/wfdem/cases.py",
           '[("poi", "t1", link_km)]', '[("poi", "t1", 1.0)]',
           ("tests/test_farm.py::"
            "test_single_wt_farm_puts_its_link_behind_the_poi",)),
    Mutant("median_one_middle_entry", "src/wfdem/modal.py",
           "freqs[(len(freqs) - 1) // 2] + freqs[len(freqs) // 2]",
           "2 * freqs[len(freqs) // 2]",
           ("tests/test_modal.py::test_band_warning_reads_the_median",)),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's old text occurs in its file under `root`."""
    return (root / mutant.path).read_text().count(mutant.old)


def copy_repo(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run(tests: list[str] | tuple[str, ...],
        mutant: Mutant | None = None) -> tuple[int, str | None, str, float]:
    """Run `tests` on a copy of the repository, `mutant` applied if given.

    Returns pytest's exit code, the first failed test's id (None if no
    test failed), pytest's last output line and the seconds the run took.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        copy_repo(copy)
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(
                target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    lines = [line for line in (done.stdout + done.stderr).splitlines()
             if line.strip()]
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    return (done.returncode, failed[0] if failed else None,
            lines[-1] if lines else "", seconds)


def main() -> int:
    for m in MUTANTS:
        if occurrences(m) != 1:
            print(f"{m.name}: old text occurs {occurrences(m)} times "
                  f"in {m.path}")
            return 1
    code, first, last, seconds = run(list(dict.fromkeys(
        t for m in MUTANTS for t in m.tests)))
    if code != 0:
        print(f"baseline fails in {seconds:.1f} s: {first or last}")
        return 1
    print(f"baseline passes in {seconds:.1f} s")
    bad = False
    for m in MUTANTS:
        code, first, last, seconds = run(m.tests, m)
        caught = code == 1 and first is not None
        verdict = (f"caught by {first}" if caught else "SURVIVED" if code == 0
                   else f"error (pytest exit {code}): {last}")
        print(f"{m.name}: {verdict} in {seconds:.1f} s")
        bad |= not caught
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
