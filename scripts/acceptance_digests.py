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

Runs go under --out, next to `digests.json`, a `{run/file: sha256}` map.
With --compare, the keys whose digest differs from the other file's (or
that only one file has) are listed, and the exit status is 1 if any do.
For a differing CSV that both sides wrote, the other side's copy is read
from the `runs/` directory beside its `digests.json`, and the listing adds
the columns only one side has and the largest absolute and relative
difference over the cells both share, matched by header and row label.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import farmgen                        # noqa: E402
from run import FARMS                 # noqa: E402
from wfdem import cli                 # noqa: E402
from wfdem.farm import GridThevenin, load_farm, save_farm  # noqa: E402

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
    largest differences over the shared cells."""
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
    max_abs = max_rel = 0.0
    for k in rows:
        for c in cols:
            d_abs, d_rel = cell_difference(float(our_rows[k][c]),
                                           float(their_rows[k][c]))
            max_abs, max_rel = max(max_abs, d_abs), max(max_rel, d_rel)
    lines.append(f"  shared {len(cols)} columns x {len(rows)} rows: "
                 f"max abs diff {max_abs:g}, max rel diff {max_rel:g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    runs = acceptance_runs(args.out / "farms")
    digests = digest_runs(runs, args.out / "runs")
    (args.out / "digests.json").write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"{len(digests)} artifacts of {len(runs)} runs: "
          f"{args.out / 'digests.json'}")
    if args.compare is None:
        return 0
    changed = differing(digests, json.loads(args.compare.read_text()))
    print(f"{len(changed)} differ from {args.compare}")
    for key in changed:
        print(key)
        ours = args.out / "runs" / key
        theirs = args.compare.parent / "runs" / key
        if key.endswith(".csv") and ours.exists() and theirs.exists():
            print("\n".join(grid_difference(ours, theirs)))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
