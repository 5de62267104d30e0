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

Runs go under --out, next to `digests.json`, which holds the environment
(numpy version, BLAS name, version and thread count) and a
`{run/file: sha256}` map.  Byte identity holds only within one machine, one
numpy/BLAS build and one BLAS thread count, so --compare first says, loudly,
when the other file's environment differs or is not recorded.  It then
lists the keys whose digest differs from the other file's (or that only
one file has), and the exit status is 1 if any do.  The other side's copy
of an artifact is read from the `runs/` directory beside its
`digests.json`.  For a CSV both sides wrote, the listing adds the columns
only one side has and, over the cells both share (matched by header and
row label), the largest absolute and relative difference and the largest
difference over its column's largest |value|; an MPF cell near 1e-17 makes
the relative figure meaningless, the column figure is not.  For a JSON file
it adds every differing leaf, by path, and the largest absolute and
relative difference over the numeric leaves.  An `.npz` that both sides
wrote gets the same figures per key, after each key's shape and dtype.  An
`mpf.npz` or `responses.npz` whose other side is the former `mpf.csv` or
`responses.csv` is rendered as that CSV through `gridcsv.write_grid` and
compared byte for byte, with the cell listing on a mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import farmgen                        # noqa: E402
from run import FARMS                 # noqa: E402
from wfdem import cli                 # noqa: E402
from wfdem.farm import GridThevenin, load_farm, save_farm  # noqa: E402
from wfdem.gridcsv import write_grid  # noqa: E402

SEED = 7


def acceptance_runs(farm_dir: Path) -> list[tuple[str, Path, list[str]]]:
    """(run name, farm file, count flags) of every run in the set; the
    stiff-grid and benchmark farms are written to `farm_dir`."""
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


# header of the leading string column that labels the rows of a grid CSV;
# a grid without one is matched row by row
LABEL_COLUMNS = ("state", "wt_id", "bus_id")


def read_grid(path: Path) -> tuple[list[str], dict[str, dict[str, str]]]:
    """Column names and {row label: {column: cell}} of a grid CSV."""
    with open(path, newline="") as fh:
        header, *body = csv.reader(fh)
    if header[0] in LABEL_COLUMNS:
        return header[1:], {r[0]: dict(zip(header[1:], r[1:])) for r in body}
    return header, {str(k): dict(zip(header, r)) for k, r in enumerate(body)}


def cell_difference(a: float, b: float) -> tuple[float, float]:
    """Absolute and relative difference; equal cells, nan included, differ
    by 0, and a non-finite difference is inf."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    d = abs(a - b)
    if not math.isfinite(d):
        return math.inf, math.inf
    return d, d / max(abs(a), abs(b))


def grid_difference(ours: Path, theirs: Path) -> list[str]:
    """Report lines: the columns and rows only one side has, then the
    largest differences over the shared cells, the last one scaled by the
    largest finite |value| of the cell's column on either side."""
    our_cols, our_rows = read_grid(ours)
    their_cols, their_rows = read_grid(theirs)
    shared = set(our_cols) & set(their_cols)
    cols = [c for c in our_cols if c in shared]
    rows = [k for k in our_rows if k in their_rows]
    lines = [f"  {what} only {side}: {', '.join(names)}"
             for what, side, names in (
                 ("columns", "ours", [c for c in our_cols if c not in shared]),
                 ("columns", "theirs",
                  [c for c in their_cols if c not in shared]),
                 ("rows", "ours", [k for k in our_rows if k not in their_rows]),
                 ("rows", "theirs",
                  [k for k in their_rows if k not in our_rows]))
             if names]
    max_abs = max_rel = max_col = 0.0
    worst = ""
    for c in cols:
        col_abs = col_max = 0.0
        for k in rows:
            a, b = float(our_rows[k][c]), float(their_rows[k][c])
            d_abs, d_rel = cell_difference(a, b)
            col_abs, max_rel = max(col_abs, d_abs), max(max_rel, d_rel)
            col_max = max([col_max] + [abs(x) for x in (a, b)
                                       if math.isfinite(x)])
        max_abs = max(max_abs, col_abs)
        scaled = col_abs / col_max if col_max else math.inf if col_abs else 0.0
        if scaled > max_col:
            max_col, worst = scaled, f" ({c})"
    lines.append(f"  shared {len(cols)} columns x {len(rows)} rows: "
                 f"max abs diff {max_abs:g}, max rel diff {max_rel:g}, "
                 f"max abs diff / column max |value| {max_col:g}{worst}")
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
    each leaf only one side has, then the largest differences over the
    leaves that are numbers on both sides."""
    our_leaves = json_leaves(json.loads(ours.read_text()))
    their_leaves = json_leaves(json.loads(theirs.read_text()))
    lines = [f"  {path or '/'}: only {side}: {leaves[path]!r}"
             for side, leaves, other in (("ours", our_leaves, their_leaves),
                                         ("theirs", their_leaves, our_leaves))
             for path in leaves if path not in other]
    max_abs = max_rel = 0.0
    for path in [p for p in our_leaves if p in their_leaves]:
        a, b = our_leaves[path], their_leaves[path]
        if is_number(a) and is_number(b):
            d_abs, d_rel = cell_difference(float(a), float(b))
            if d_abs == 0.0 and type(a) is type(b):
                continue
            max_abs, max_rel = max(max_abs, d_abs), max(max_rel, d_rel)
        elif a == b and type(a) is type(b):
            continue
        lines.append(f"  {path or '/'}: {a!r} -> {b!r}")
    lines.append(f"  numeric leaves: max abs diff {max_abs:g}, "
                 f"max rel diff {max_rel:g}")
    return lines


def render_npz(path: Path, csv_path: Path) -> None:
    """`mpf.npz` or `responses.npz` written as the CSV it replaced, through
    `write_grid`, with the header and row labels held in the archive."""
    with np.load(path, allow_pickle=False) as npz:
        if path.stem == "mpf":
            write_grid(csv_path, [f"mode{i}" for i in npz["mode"].tolist()],
                       npz["mpf"], labels=("state", npz["state"].tolist()))
        elif path.stem == "responses":
            write_grid(csv_path, npz.files,
                       np.column_stack([npz[key] for key in npz.files]))
        else:
            raise ValueError(f"no CSV layout for {path.name}")


def array_difference(ours: np.ndarray, theirs: np.ndarray,
                     ) -> tuple[float, float, float, int]:
    """Largest absolute and relative difference of two numeric arrays of
    one shape, the largest over its column's largest finite |value| on
    either side, and the column (of a 1-D array, 0) where that one is;
    cells compare as `cell_difference` compares them."""
    a, b = (np.reshape(x, (len(x), -1) if np.ndim(x) else (1, 1))
            for x in (ours, theirs))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        d = np.abs(a - b)
        a_mag, b_mag = np.abs(a), np.abs(b)
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


def rendered_difference(ours: Path, theirs_csv: Path, work: Path,
                        ) -> tuple[bool, list[str]]:
    """Whether our `.npz`, rendered as their former CSV, is theirs byte for
    byte, and the report lines: that verdict, else the cell listing."""
    rendered = work / theirs_csv.name
    rendered.parent.mkdir(parents=True, exist_ok=True)
    render_npz(ours, rendered)
    if rendered.read_bytes() == theirs_csv.read_bytes():
        return True, [f"  rendered as {theirs_csv.name}: identical to theirs"]
    return False, [f"  rendered as {theirs_csv.name}: differs from theirs",
                   *grid_difference(rendered, theirs_csv)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    env = environment()
    if args.compare is not None:
        their_env, theirs = read_digests(args.compare)
        warning = environment_warning(env, their_env)
        if warning:
            print(warning)
    runs = acceptance_runs(args.out / "farms")
    digests = digest_runs(runs, args.out / "runs")
    (args.out / "digests.json").write_text(json.dumps(
        {"environment": env, "digests": digests}, indent=2, sort_keys=True)
        + "\n")
    print(f"{len(digests)} artifacts of {len(runs)} runs: "
          f"{args.out / 'digests.json'}")
    if args.compare is None:
        return 0
    changed = differing(digests, theirs)
    print(f"{len(changed)} differ from {args.compare}")
    rendered_equal = 0
    for key in changed:
        print(key)
        ours = args.out / "runs" / key
        theirs_path = args.compare.parent / "runs" / key
        former = theirs_path.with_suffix(".csv")
        if ours.suffix == ".npz" and not theirs_path.exists() \
                and former.exists():
            same, lines = rendered_difference(
                ours, former, args.out / "rendered" / ours.parent.name)
            rendered_equal += same
            print("\n".join(lines))
        elif not (ours.exists() and theirs_path.exists()):
            continue
        elif key.endswith(".csv"):
            print("\n".join(grid_difference(ours, theirs_path)))
        elif key.endswith(".json"):
            print("\n".join(json_difference(ours, theirs_path)))
        elif key.endswith(".npz"):
            print("\n".join(npz_difference(ours, theirs_path)))
    if rendered_equal:
        print(f"{rendered_equal} of our .npz artifacts render as their "
              "former CSV byte for byte")
    return 1 if changed else 0

if __name__ == "__main__":
    sys.exit(main())
