#!/usr/bin/env python3
"""Run the acceptance set and write the sha256 of every artifact.

The set is 22 `wfdem all` runs, 242 artifacts: `farms/case_{a,b,c,d}.json`
at `--clusters 1`, `--clusters 3` and `--auto-clusters`; `zero_network.json`
at C = 1 and 3; `single_wt.json`; `case_b.json` with its grid tie set to
r = l = 0 at C = 3, so the POI sits on the infinite bus's node while the
collector stays live; and the benchmark's seed-7 `ladder300` and
`auto_sweep100` farms, drawn by `perfbench/farmgen.py`.

    python3 scripts/acceptance_digests.py --out out/acceptance
    python3 scripts/acceptance_digests.py --out out/acceptance \\
        --compare parent/digests.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/acceptance_digests.py \\
        --write-reference

Runs go under --out, next to `digests.json`, which holds the environment
(numpy version, BLAS name, version and thread count) and a
`{run/file: sha256}` map.  Byte identity holds only within one machine, one
numpy/BLAS build and one BLAS thread count, so --compare first says, loudly,
when the other file's environment differs or is not recorded.  It then
lists the keys whose digest differs from the other file's (or that only
one file has), and the exit status is 1 if any do.  The other side's copy
of an artifact is read from the `runs/` directory beside its
`digests.json`.  One rule, `array_difference`, measures how far numbers
moved: the largest absolute and relative difference and the largest
difference over its column's largest |value|; an MPF cell near 1e-17 makes
the relative figure meaningless, the column figure is not.  For a CSV both
sides wrote, read by `gridcsv.read_grid`, the listing adds the columns and
rows only one side has, then those figures over the cells both share
(columns matched by header, rows by label, or by position in a grid
without labels).  For a JSON file it adds every differing leaf, by path,
and the first two figures over the differing numeric leaves.  An `.npz`
that both sides wrote gets the figures per key, after each key's shape and
dtype.

--write-reference [DIR] runs only the 16 runs of the shipped farms (all but
the benchmark farms) and copies the `REFERENCE_FILES` of each to
DIR/<run>/, with the environment in DIR/environment.json; DIR defaults to
`tests/reference`, which `tests/test_reference.py` holds every later run
to.  It runs at OPENBLAS_NUM_THREADS=1 only, so the reference has one
stated thread setting.  A change that moves artifacts on purpose writes
the reference again in the same commit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import farmgen                        # noqa: E402
from run import FARMS                 # noqa: E402
from wfdem import cli                 # noqa: E402
from wfdem.farm import GridThevenin, load_farm, save_farm  # noqa: E402
from wfdem.gridcsv import magnitude, read_grid, write_json  # noqa: E402

SEED = 7
# the artifacts of each shipped-farm run that --write-reference keeps
REFERENCE_FILES = ("bus_solution.csv", "modes.csv", "features.csv",
                   "groups.json", "dem.json", "report.json")


def shipped_runs(farm_dir: Path) -> list[tuple[str, Path, list[str]]]:
    """(run name, farm file, count flags) of the set's 16 runs of the
    shipped farms; the stiff-grid farm is written to `farm_dir`."""
    shipped = ROOT / "farms"
    runs = [(f"case_{x}_{tag}", shipped / f"case_{x}.json", flags)
            for x in "abcd"
            for tag, flags in (("c1", ["--clusters", "1"]),
                               ("c3", ["--clusters", "3"]),
                               ("auto", ["--auto-clusters"]))]
    runs += [(f"zero_network_c{c}", shipped / "zero_network.json",
              ["--clusters", str(c)]) for c in (1, 3)]
    runs.append(("single_wt_c1", shipped / "single_wt.json",
                 ["--clusters", "1"]))
    farm_dir.mkdir(parents=True, exist_ok=True)
    stiff = dataclasses.replace(load_farm(shipped / "case_b.json"),
                                grid=GridThevenin(0.0, 0.0))
    save_farm(stiff, farm_dir / "case_b_stiff.json")
    runs.append(("case_b_stiff_c3", farm_dir / "case_b_stiff.json",
                 ["--clusters", "3"]))
    return runs


def acceptance_runs(farm_dir: Path) -> list[tuple[str, Path, list[str]]]:
    """(run name, farm file, count flags) of every run in the set; the
    stiff-grid and benchmark farms are written to `farm_dir`."""
    runs = shipped_runs(farm_dir)
    for workload, (feeders, spans, planted, flags, n_farms) in FARMS.items():
        for k in range(n_farms):
            farm, _ = farmgen.ladder_farm(feeders, spans, (SEED, k), planted)
            path = farm_dir / f"{workload}_{k}.json"
            save_farm(farm, path)
            runs.append((path.stem, path, flags))
    return runs


def digest_runs(runs: list[tuple[str, Path, list[str]]],
                out_root: Path) -> dict[str, str]:
    """Run each pipeline under out_root/<run> and hash what it wrote."""
    digests = {}
    for name, farm, flags in runs:
        out = out_root / name
        argv = ["all", "--farm", str(farm), "--out", str(out), *flags]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"{name}: wfdem {' '.join(argv)} exited {rc}")
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def write_reference(dest: Path) -> None:
    """Run the shipped-farm runs and copy each one's `REFERENCE_FILES` to
    dest/<run>/, and the environment to dest/environment.json."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = shipped_runs(Path(tmp) / "farms")
        digest_runs(runs, Path(tmp) / "runs")
        for name, _, _ in runs:
            (dest / name).mkdir(parents=True, exist_ok=True)
            for file in REFERENCE_FILES:
                shutil.copyfile(Path(tmp) / "runs" / name / file,
                                dest / name / file)
    write_json(dest / "environment.json", environment())


def blas_threads() -> str:
    """The thread count of numpy's bundled OpenBLAS, asked of the library
    itself; `unknown (...)` with the environment setting when there is
    none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    setting = os.environ.get("OPENBLAS_NUM_THREADS")
    return f"unknown (OPENBLAS_NUM_THREADS={setting})"


def environment() -> dict[str, str]:
    """What the bytes of the artifacts depend on besides the source."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def read_digests(path: Path) -> tuple[dict[str, str] | None, dict[str, str]]:
    """Environment and digests of a `digests.json`; a file written before
    the environment was recorded is the bare digest map."""
    data = json.loads(path.read_text())
    if "digests" in data:
        return data["environment"], data["digests"]
    return None, data


def environment_warning(ours: dict[str, str],
                        theirs: dict[str, str] | None) -> str | None:
    """One loud line when the two sides ran in different environments."""
    if theirs is None:
        return ("WARNING: ENVIRONMENT NOT RECORDED in the other digests; "
                f"ours is {ours}. Digests match only within one numpy/BLAS "
                "build and one BLAS thread count.")
    diffs = [f"{key} {ours.get(key)} != {theirs.get(key)}"
             for key in sorted(ours.keys() | theirs.keys())
             if ours.get(key) != theirs.get(key)]
    if not diffs:
        return None
    return ("WARNING: ENVIRONMENTS DIFFER (ours != theirs): "
            + "; ".join(diffs) + ". Digests can differ with no code change.")


def differing(ours: dict[str, str], theirs: dict[str, str]) -> list[str]:
    return sorted(k for k in ours.keys() | theirs.keys()
                  if ours.get(k) != theirs.get(k))


def indexed_grid(path: Path) -> tuple[list[str], dict[str, int], np.ndarray]:
    """`read_grid` with {row label: row}; a grid without labels is labelled
    by position."""
    columns, labels, cells = read_grid(path)
    if labels is None:
        labels = [str(k) for k in range(len(cells))]
    return columns, {label: k for k, label in enumerate(labels)}, cells


def grid_difference(ours: Path, theirs: Path) -> list[str]:
    """Report lines: the columns and rows only one side has, then the
    `array_difference` figures over the shared cells, matched by column
    header and row label."""
    grids = [indexed_grid(path) for path in (ours, theirs)]
    (our_cols, our_rows, _), (their_cols, their_rows, _) = grids
    cols = [c for c in our_cols if c in their_cols]
    rows = [k for k in our_rows if k in their_rows]
    lines = [f"  {what} only {side}: {', '.join(names)}"
             for what, side, names in (
                 ("columns", "ours", [c for c in our_cols if c not in cols]),
                 ("columns", "theirs",
                  [c for c in their_cols if c not in cols]),
                 ("rows", "ours", [k for k in our_rows if k not in their_rows]),
                 ("rows", "theirs",
                  [k for k in their_rows if k not in our_rows]))
             if names]
    max_abs, max_rel, max_col, worst = array_difference(*(
        cells[np.ix_([index[k] for k in rows], [names.index(c) for c in cols])]
        for names, index, cells in grids))
    lines.append(f"  shared {len(cols)} columns x {len(rows)} rows: "
                 f"max abs diff {max_abs:g}, max rel diff {max_rel:g}, "
                 f"max abs diff / column max |value| {max_col:g}"
                 + (f" ({cols[worst]})" if max_col else ""))
    return lines


def json_leaves(node, path: str = "") -> dict[str, object]:
    """{path: value} of every leaf of a parsed JSON document; keys and list
    indices join with '/', and an empty object or list is a leaf."""
    if isinstance(node, dict) and node:
        items = node.items()
    elif isinstance(node, list) and node:
        items = enumerate(node)
    else:
        return {path: node}
    leaves = {}
    for key, value in items:
        leaves.update(json_leaves(value, f"{path}/{key}"))
    return leaves


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_difference(ours: Path, theirs: Path) -> list[str]:
    """Report lines: each differing leaf, by path, as `ours -> theirs` and
    each leaf only one side has, then the `array_difference` figures over
    the differing leaves that are numbers on both sides.  Leaves differ
    unless they are equal and of one type; two NaNs are equal."""
    our_leaves = json_leaves(json.loads(ours.read_text()))
    their_leaves = json_leaves(json.loads(theirs.read_text()))
    lines = [f"  {path or '/'}: only {side}: {leaves[path]!r}"
             for side, leaves, other in (("ours", our_leaves, their_leaves),
                                         ("theirs", their_leaves, our_leaves))
             for path in leaves if path not in other]
    shared = [(path, a, their_leaves[path])
              for path, a in our_leaves.items() if path in their_leaves]
    changed = [(path, a, b) for path, a, b in shared
               if type(a) is not type(b) or not (a == b or a != a and b != b)]
    lines += [f"  {path or '/'}: {a!r} -> {b!r}" for path, a, b in changed]
    numbers = [(a, b) for _, a, b in changed if is_number(a) and is_number(b)]
    max_abs, max_rel, _, _ = array_difference(
        *np.array(numbers, dtype=float).reshape(-1, 2).T)
    lines.append(f"  numeric leaves: max abs diff {max_abs:g}, "
                 f"max rel diff {max_rel:g}")
    return lines


def array_difference(ours: np.ndarray, theirs: np.ndarray,
                     ) -> tuple[float, float, float, int]:
    """Largest absolute and relative difference of two numeric arrays of
    one shape, the largest over its column's largest finite |value| on
    either side, and the column (of a 1-D array, 0) where that one is.

    Cells compare in a float or complex dtype, so an integer array
    differences without wrapping.  Equal cells, NaN included, differ by 0,
    a non-finite difference is inf, and |z| is `gridcsv.magnitude`, which
    rounds like Python's `abs`.  A 0-d array is one cell.
    """
    a, b = (np.asarray(x, np.result_type(x, 1.0)) for x in (ours, theirs))
    a, b = (x.reshape(len(x) if x.ndim else 1, math.prod(x.shape[1:]))
            for x in (a, b))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        d = magnitude(a - b)
        a_mag, b_mag = magnitude(a), magnitude(b)
        mag = np.fmax(a_mag, b_mag)
        d[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
        d[np.isnan(d)] = np.inf
        rel = np.where(d > 0, d / mag, 0.0)
        rel[np.isinf(d)] = np.inf
        col_abs = d.max(axis=0, initial=0.0)
        a_fin, b_fin = (np.where(np.isfinite(m), m, 0.0)
                        for m in (a_mag, b_mag))
        col_max = np.maximum(a_fin, b_fin).max(axis=0, initial=0.0)
        scaled = np.where(col_max > 0, col_abs / col_max,
                          np.where(col_abs > 0, np.inf, 0.0))
    worst = int(np.argmax(scaled)) if scaled.size else 0
    return (float(d.max(initial=0.0)), float(rel.max(initial=0.0)),
            float(scaled.max(initial=0.0)), worst)


def npz_difference(ours: Path, theirs: Path) -> list[str]:
    """Report lines: the keys only one side has, each shared key whose
    shape, dtype or values differ, then the largest differences over the
    numeric keys of one shape."""
    with np.load(ours, allow_pickle=False) as a, \
            np.load(theirs, allow_pickle=False) as b:
        mine, other = {k: a[k] for k in a.files}, {k: b[k] for k in b.files}
    lines = [f"  keys only {side}: {', '.join(names)}"
             for side, names in (
                 ("ours", [k for k in mine if k not in other]),
                 ("theirs", [k for k in other if k not in mine]))
             if names]
    max_abs = max_rel = max_col = 0.0
    worst = ""
    shared = [k for k in mine if k in other]
    for key in shared:
        x, y = mine[key], other[key]
        if x.shape != y.shape or x.dtype != y.dtype:
            lines.append(f"  {key}: {x.dtype}{list(x.shape)} -> "
                         f"{y.dtype}{list(y.shape)}")
        numeric = [np.issubdtype(z.dtype, np.number) for z in (x, y)]
        if x.shape != y.shape or numeric[0] != numeric[1]:
            continue
        if not numeric[0]:
            if (x != y).any():
                lines.append(f"  {key}: {int((x != y).sum())} of {x.size} "
                             "entries differ")
            continue
        d_abs, d_rel, d_col, col = array_difference(x, y)
        if d_abs:
            lines.append(f"  {key}: max abs diff {d_abs:g}, max rel diff "
                         f"{d_rel:g}, max abs diff / column max |value| "
                         f"{d_col:g}" + (f" (column {col})" if x.ndim > 1
                                         else ""))
        max_abs, max_rel = max(max_abs, d_abs), max(max_rel, d_rel)
        if d_col > max_col:
            max_col, worst = d_col, f" ({key})"
    lines.append(f"  shared {len(shared)} keys: max abs diff {max_abs:g}, "
                 f"max rel diff {max_rel:g}, max abs diff / column max "
                 f"|value| {max_col:g}{worst}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    parser.add_argument("--write-reference", type=Path, nargs="?",
                        const=ROOT / "tests" / "reference", metavar="DIR")
    args = parser.parse_args(argv)
    if args.write_reference is not None:
        if args.out is not None or args.compare is not None:
            parser.error("--write-reference takes no --out or --compare")
        if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
            parser.error("--write-reference runs at OPENBLAS_NUM_THREADS=1")
        write_reference(args.write_reference)
        print(f"{len(REFERENCE_FILES)} artifacts of each shipped-farm run: "
              f"{args.write_reference}")
        return 0
    if args.out is None:
        parser.error("--out is required")

    env = environment()
    if args.compare is not None:
        their_env, theirs = read_digests(args.compare)
        warning = environment_warning(env, their_env)
        if warning:
            print(warning)
    runs = acceptance_runs(args.out / "farms")
    digests = digest_runs(runs, args.out / "runs")
    write_json(args.out / "digests.json",
               {"environment": env, "digests": digests})
    print(f"{len(digests)} artifacts of {len(runs)} runs: "
          f"{args.out / 'digests.json'}")
    if args.compare is None:
        return 0
    changed = differing(digests, theirs)
    print(f"{len(changed)} differ from {args.compare}")
    for key in changed:
        print(key)
        ours = args.out / "runs" / key
        theirs_path = args.compare.parent / "runs" / key
        if not (ours.exists() and theirs_path.exists()):
            continue
        elif key.endswith(".csv"):
            print("\n".join(grid_difference(ours, theirs_path)))
        elif key.endswith(".json"):
            print("\n".join(json_difference(ours, theirs_path)))
        elif key.endswith(".npz"):
            print("\n".join(npz_difference(ours, theirs_path)))
    return 1 if changed else 0

if __name__ == "__main__":
    sys.exit(main())
