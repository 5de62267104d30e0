#!/usr/bin/env python3
"""Run the four study cases at C = 1 and C = 3 and print the error table.

Writes full artifact sets under out/case_<x>_c<n>/ next to this script's
parent directory (override with --out).
"""

import argparse
from pathlib import Path

from wfdem.cli import RunConfig, run_pipeline

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=ROOT / "out")
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    args = parser.parse_args()

    rows = []
    for case in "abcd":
        farm = ROOT / "farms" / f"case_{case}.json"
        for c in (1, 3):
            cfg = RunConfig(farm_path=farm,
                            out_dir=args.out / f"case_{case}_c{c}",
                            clusters=c, seed=args.seed)
            state = run_pipeline(cfg)
            rows.append((case.upper(), c, state.report.e,
                         state.report.e_prime,
                         state.report.nrmse["poi_p"]))

    print(f"{'case':>4} {'C':>2} {'E':>9} {'E_prime':>9} {'poi NRMSE':>10}")
    for case, c, e, ep, nr in rows:
        print(f"{case:>4} {c:>2} {e:>8.2%} {ep:>8.2%} {nr:>9.2%}")


if __name__ == "__main__":
    main()
