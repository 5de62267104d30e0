#!/usr/bin/env python3
"""Run the acceptance set and write the sha256 of every artifact.

The set is 21 `wfdem all` runs, 231 artifacts: `farms/case_{a,b,c,d}.json`
at `--clusters 1`, `--clusters 3` and `--auto-clusters`; `zero_network.json`
at C = 1 and 3; `single_wt.json`; and the benchmark's seed-7 `ladder300`
and `auto_sweep100` farms, drawn by `perfbench/farmgen.py`.

    python3 scripts/acceptance_digests.py --out out/acceptance
    python3 scripts/acceptance_digests.py --out out/acceptance \\
        --compare parent/digests.json

Runs go under --out, next to `digests.json`, a `{run/file: sha256}` map.
With --compare, the keys whose digest differs from the other file's (or
that only one file has) are listed, and the exit status is 1 if any do.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import farmgen                        # noqa: E402
from run import FARMS                 # noqa: E402
from wfdem import cli                 # noqa: E402
from wfdem.farm import save_farm      # noqa: E402

SEED = 7


def acceptance_runs(farm_dir: Path) -> list[tuple[str, Path, list[str]]]:
    """(run name, farm file, count flags) of every run in the set; the
    benchmark farms are written to `farm_dir`."""
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
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
