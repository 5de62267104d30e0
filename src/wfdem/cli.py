"""Pipeline driver: load -> flow -> modes -> cluster -> aggregate -> validate.

Each subcommand runs the pipeline prefix it names and writes that prefix's
artifacts under --out with fixed file names, so every intermediate product
is inspectable and two runs with the same farm, config, and seed produce
byte-identical outputs.  The pipeline draws `features.svg` and
`responses.svg` from the artifacts it has just written, with the code that
`wfdem plot` runs, so a redraw writes the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import aggregation, clustering, modal, validation
from .farm import FarmDescription, load_farm
from .gridcsv import read_grid
from .powerflow import BusSolution, solve_powerflow, write_bus_csv
from .svgplot import PALETTE, bars_svg, lines_svg, scatter_svg
from .wt import SagSpec

STAGES = ("load", "flow", "modes", "cluster", "aggregate", "validate")


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    farm_path: Path
    out_dir: Path
    clusters: int | None = None      # None selects the count automatically
    e_target: float = 0.02
    seed: int = 42
    sag: float = 0.05
    horizon: float = 2.0
    dt: float = 1e-3


@dataclass
class PipelineState:
    """Everything computed so far; filled stage by stage."""

    cfg: RunConfig
    upto: str = "validate"           # the last stage this run goes through
    farm: FarmDescription | None = None
    farm_hash: str = ""
    sol: BusSolution | None = None
    model: modal.FarmModel | None = None
    clusters: clustering.ModeClusters | None = None
    features: clustering.FeatureTable | None = None
    groups: clustering.GroupAssignment | None = None
    dem: aggregation.DemModel | None = None
    report: validation.ValidationReport | None = None


def _run_stage(stage: str, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        raise StageError(stage, exc) from exc


def _stage_load(state: PipelineState) -> None:
    path = state.cfg.farm_path
    state.farm = load_farm(path)
    state.farm_hash = hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _stage_flow(state: PipelineState) -> None:
    state.sol = solve_powerflow(state.farm)
    write_bus_csv(state.farm, state.sol,
                  state.cfg.out_dir / "bus_solution.csv")


def _stage_modes(state: PipelineState) -> None:
    state.model = modal.solve_modes(state.farm, state.sol)
    modal.write_modes_csv(state.model, state.cfg.out_dir / "modes.csv")
    modal.write_mpf_csv(state.model, state.cfg.out_dir / "mpf.npz")


def _stage_cluster(state: PipelineState) -> None:
    cfg, concern = state.cfg, state.model.concern
    if cfg.clusters:
        state.clusters = clustering.cluster_modes(concern, cfg.clusters,
                                                  cfg.seed)
    else:
        # E(C) is not monotone in C, so the sweep scans C = 1, 2, ...
        state.clusters = clustering.sweep_cluster_counts(
            concern, cfg.seed, cfg.e_target,
            lambda cl: validation.error_E(concern, cl))
    state.features = clustering.superimpose_mpf(state.model, state.clusters)
    state.groups = clustering.group_wts(state.features)
    clustering.write_features_csv(state.features,
                                  cfg.out_dir / "features.csv")
    emit_plot(cfg.out_dir, "features")
    clustering.write_groups_json(state.groups, cfg.out_dir / "groups.json")
    if state.upto == "cluster":    # else the aggregate stage draws it
        _write_scatter(state)


def _stage_aggregate(state: PipelineState) -> None:
    state.dem = aggregation.build_dem(state.farm, state.groups)
    aggregation.write_dem_json(state.dem, state.cfg.out_dir / "dem.json")
    _write_scatter(state)          # with the DEM modes overlaid


def _stage_validate(state: PipelineState) -> None:
    cfg, dem = state.cfg, state.dem
    sag = SagSpec(fraction=cfg.sag)
    detailed = validation.simulate_linear(
        state.model.fss, state.model.modal, sag, cfg.horizon, cfg.dt,
        dem.shares)
    dem_resp = validation.simulate_linear(
        dem.model.fss, dem.model.modal, sag, cfg.horizon, cfg.dt,
        np.eye(len(dem.shares)))            # each machine is one group
    group_ids = tuple(dem.members)
    nrmse_by_signal = validation.compare_responses(detailed, dem_resp,
                                                   group_ids)
    metadata = {
        "farm": str(cfg.farm_path.name),
        "farm_sha256": state.farm_hash,
        "clusters": state.clusters.n_clusters,
        "clusters_requested": cfg.clusters if cfg.clusters else "auto",
        "seed": cfg.seed,
        "state_filter": list(modal.STATE_FILTER),
        "sag": cfg.sag,
        "horizon": cfg.horizon,
        "dt": cfg.dt,
        "groups": state.groups.group_of,
        "group_capacity_mva": dem.group_capacity_mva,
        "cluster_centres": [[c.real, c.imag] for c in state.clusters.centres],
        "dem_modes": [[lam.real, lam.imag]
                      for lam in dem.model.concern.eigenvalues],
    }
    state.report = validation.build_report(
        state.model, state.clusters, dem, nrmse_by_signal, metadata)
    validation.write_report_json(state.report, cfg.out_dir / "report.json")
    validation.write_responses_csv(detailed, dem_resp, group_ids,
                                   cfg.out_dir / "responses.npz")
    emit_plot(cfg.out_dir, "responses")


_STAGE_FN = {
    "load": _stage_load,
    "flow": _stage_flow,
    "modes": _stage_modes,
    "cluster": _stage_cluster,
    "aggregate": _stage_aggregate,
    "validate": _stage_validate,
}


def run_pipeline(cfg: RunConfig, upto: str = "validate") -> PipelineState:
    """Run the pipeline through stage `upto`, writing artifacts as it goes."""
    if upto not in STAGES:
        raise ValueError(f"unknown stage {upto!r}")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    state = PipelineState(cfg=cfg, upto=upto)
    for stage in STAGES[:STAGES.index(upto) + 1]:
        _run_stage(stage, _STAGE_FN[stage], state)
    return state


# ---------------------------------------------------------------------------
# plots


# The pipeline draws features.svg and responses.svg with `emit_plot`, from
# the artifacts it has just written.  modescatter.svg has one drawer and two
# sources: the pipeline feeds it from memory, since `cluster` and
# `aggregate` runs write no report.json, and `wfdem plot` from report.json,
# which holds the same numbers exactly.


def _xy(z: complex) -> tuple[float, float]:
    return (z.real, z.imag)


def _scatter_svg(out_dir: Path, points: list[list[tuple[float, float]]],
                 centres: list[tuple[float, float]],
                 dem_modes: list[tuple[float, float]] | None) -> None:
    """Concern modes coloured by cluster, centres and DEM modes as crosses."""
    dots = [(f"cluster {c}", pts, PALETTE[c % len(PALETTE)])
            for c, pts in enumerate(points)]
    crosses = [("centres", centres, "#000000")]
    if dem_modes is not None:
        crosses.append(("DEM modes", dem_modes, "#d62728"))
    scatter_svg(out_dir / "modescatter.svg",
                "Concern modes and cluster centres",
                "Re (rad/s)", "Im (rad/s)", dots, crosses)


def _write_scatter(state: PipelineState) -> None:
    concern, clusters = state.model.concern, state.clusters
    # each cluster's points in concern order
    points = [[] for _ in clusters.centres]
    for label, lam in zip(clusters.labels, concern.eigenvalues):
        points[label].append(_xy(lam))
    dem_modes = None if state.dem is None else [
        _xy(lam) for lam in state.dem.model.concern.eigenvalues]
    _scatter_svg(state.cfg.out_dir, points,
                 [_xy(c) for c in clusters.centres], dem_modes)


def _load_report(out_dir: Path) -> dict:
    path = out_dir / "report.json"
    if not path.exists():
        raise FileNotFoundError(f"no report.json under {out_dir}")
    return json.loads(path.read_text())


def emit_plot(out_dir: str | Path, kind: str) -> Path:
    """Redraw one SVG from the artifacts already on disk."""
    out_dir = Path(out_dir)
    if kind == "scatter":
        path = out_dir / "modescatter.svg"
        report = _load_report(out_dir)
        meta = report["metadata"]
        # mode_errors is in concern order, as _write_scatter bins the points
        points = [[] for _ in meta["cluster_centres"]]
        for m in report["mode_errors"]:
            points[m["cluster"]].append((m["re"], m["im"]))
        _scatter_svg(out_dir, points,
                     [tuple(p) for p in meta["cluster_centres"]],
                     [tuple(p) for p in meta["dem_modes"]])
    elif kind == "features":
        # |superimposed MPF| bars per WT, one series per cluster c, whose
        # Re and Im are cell columns 2c and 2c + 1
        path = out_dir / "features.svg"
        _, wt_ids, cells = read_grid(out_dir / "features.csv")
        mags = np.hypot(cells[:, 0::2], cells[:, 1::2]).T.tolist()
        bars_svg(path, "Feature vectors per WT", "WT", "|superimposed MPF|",
                 wt_ids, [(f"cluster {c}", m) for c, m in enumerate(mags)])
    elif kind == "responses":
        path = out_dir / "responses.svg"
        with np.load(out_dir / "responses.npz", allow_pickle=False) as npz:
            t, detailed, dem = (npz[k] for k in (
                "t", "detailed_poi_p", "dem_poi_p"))
        lines_svg(path, "POI active-power deviation under the sag",
                  "t (s)", "dP (p.u.)",
                  [("detailed POI P", t, detailed, PALETTE[0], False),
                   ("DEM POI P", t, dem, PALETTE[1], True)])
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    return path


# ---------------------------------------------------------------------------
# report


def emit_report(out_dir: str | Path) -> str:
    """One-page text summary of a finished run."""
    report = _load_report(Path(out_dir))
    meta = report["metadata"]

    lines = []
    lines.append(f"farm: {meta['farm']}  (sha256 {meta['farm_sha256'][:12]})")
    lines.append(f"clusters: {meta['clusters']}  seed: {meta['seed']}  "
                 f"sag: {meta['sag']:g}  horizon: {meta['horizon']:g} s")
    lines.append("")
    lines.append("concern modes (detailed model):")
    lines.append("      re (rad/s)     im (rad/s)  cluster  centre err  "
                 "nearest DEM err")
    for m in report["mode_errors"]:
        lines.append(f"  {m['re']:12.4f}  {m['im']:13.4f}  {m['cluster']:7d}"
                     f"  {m['centre_error']:10.4%}  {m['nearest_dem_error']:14.4%}")
    lines.append("")
    lines.append("WT groups:")
    groups: dict[str, int] = meta["groups"]
    for g in sorted(set(groups.values())):
        members = sorted(wt for wt, gg in groups.items() if gg == g)
        cap = meta["group_capacity_mva"][str(g)]
        lines.append(f"  group {g} ({cap:g} MVA): {', '.join(members)}")
    lines.append("")
    lines.append(f"E  (cluster-centre error)   : {report['e']:.4%}")
    lines.append(f"E' (nearest-DEM-mode error) : {report['e_prime']:.4%}")
    for name in sorted(report["nrmse"]):
        lines.append(f"NRMSE {name:<16s}: {report['nrmse'][name]:.4%}")
    if report["detailed_unstable"] or report["dem_unstable"]:
        lines.append("WARNING: unstable state matrix flagged")
    text = "\n".join(lines)
    print(text)
    return text


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfdem",
        description="Dynamic equivalent models of wind farms by mode "
                    "clustering")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--farm", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
        count = p.add_mutually_exclusive_group()
        count.add_argument("--clusters", type=int)
        count.add_argument("--auto-clusters", action="store_true")
        p.add_argument("--e-target", type=float)
        p.add_argument("--seed", type=int, default=RunConfig.seed)
        p.add_argument("--sag", type=float, default=RunConfig.sag)
        p.add_argument("--horizon", type=float, default=RunConfig.horizon)
        p.add_argument("--dt", type=float, default=RunConfig.dt)
        return p

    for name, help_text in (
            ("flow", "solve the power flow"),
            ("modes", "assemble the farm model and decompose it"),
            ("cluster", "cluster the concern modes and group the WTs"),
            ("aggregate", "build the aggregated DEM"),
            ("validate", "run the full pipeline and the validation stage"),
            ("all", "full pipeline plus the text summary")):
        add_run_command(name, help_text)

    p = sub.add_parser("report", help="print the summary of a finished run")
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("plot", help="regenerate one SVG from artifacts")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--kind", required=True,
                   choices=["scatter", "features", "responses"])
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.e_target is not None and not args.auto_clusters:
        raise ValueError("--e-target needs --auto-clusters")
    e_target = RunConfig.e_target if args.e_target is None else args.e_target
    for flag, ok, bound in (
            ("--clusters", args.clusters is None or args.clusters >= 1, ">= 1"),
            ("--seed", args.seed >= 0, ">= 0"),
            ("--dt", 0 < args.dt < math.inf, "finite and > 0"),
            ("--horizon", SagSpec.t_start + args.dt <= args.horizon < math.inf,
             f"finite and >= {SagSpec.t_start:g} s (the sag's start) + --dt"),
            ("--sag", 0 < args.sag <= 1, "in (0, 1]"),
            ("--e-target", 0 < e_target < math.inf, "finite and > 0")):
        if not ok:   # NaN fails every comparison
            raise ValueError(f"{flag} must be {bound}")
    return RunConfig(
        farm_path=args.farm,
        out_dir=args.out,
        # single-machine DEM unless told otherwise
        clusters=None if args.auto_clusters else args.clusters or 1,
        e_target=e_target,
        seed=args.seed,
        sag=args.sag,
        horizon=args.horizon,
        dt=args.dt,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            emit_report(args.out)
        elif args.command == "plot":
            emit_plot(args.out, args.kind)
        else:
            upto = "validate" if args.command == "all" else args.command
            cfg = _config_from_args(args)
            run_pipeline(cfg, upto=upto)
            if args.command == "all":
                emit_report(cfg.out_dir)
    except StageError as exc:
        print(f"error in stage {exc.stage}: {exc.cause}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
