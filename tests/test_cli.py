"""Pipeline driver: subcommands, artifacts, determinism, error paths."""

import csv
import hashlib
import importlib.util
import json
import math
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import ROOT, load_digests_script, run_python_bounded
from oracles import cell_difference
from wfdem import cli
from wfdem.cli import (RunConfig, StageError, _build_parser,
                       _config_from_args, emit_plot, emit_report, main,
                       run_pipeline)
from wfdem.modal import ModeCountError
from wfdem.powerflow import PowerflowError

FARMS = Path(__file__).resolve().parent.parent / "farms"

# the files each stage writes
ARTIFACTS = {
    "flow": ("bus_solution.csv",),
    "modes": ("modes.csv", "mpf.npz"),
    "cluster": ("features.csv", "features.svg", "groups.json",
                "modescatter.svg"),
    "aggregate": ("dem.json",),
    "validate": ("report.json", "responses.npz", "responses.svg"),
}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_a")
    code = main(["all", "--farm", str(FARMS / "case_a.json"),
                 "--clusters", "1", "--out", str(out)])
    assert code == 0
    return out


def test_all_artifacts_produced(full_run):
    for files in ARTIFACTS.values():
        for name in files:
            assert (full_run / name).exists(), name


def test_report_content(full_run):
    report = json.loads((full_run / "report.json").read_text())
    assert report["e"] <= 0.02
    assert report["e_prime"] <= 0.02
    assert report["metadata"]["clusters"] == 1
    assert report["metadata"]["seed"] == 42
    assert len(report["metadata"]["farm_sha256"]) == 64
    assert len(report["mode_errors"]) == 33
    assert max(m["centre_error"] for m in report["mode_errors"]) \
        == pytest.approx(report["e"])
    assert max(m["nearest_dem_error"] for m in report["mode_errors"]) \
        == pytest.approx(report["e_prime"])


def test_emit_report_prints_summary(full_run, capsys):
    text = emit_report(full_run)
    out = capsys.readouterr().out
    assert "WT groups" in text
    assert "E  (cluster-centre error)" in out
    assert "wt33" in out


def test_emit_report_missing_artifacts(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_report(tmp_path)


def test_emit_plot_kinds(full_run):
    for kind in ("scatter", "features", "responses"):
        path = emit_plot(full_run, kind)
        assert path.exists()
        assert path.read_text().startswith("<svg")


def test_emit_plot_unknown_kind(full_run):
    with pytest.raises(ValueError, match="unknown plot kind"):
        emit_plot(full_run, "histogram")


def test_missing_farm_fails_in_load_stage(tmp_path, capsys):
    code = main(["all", "--farm", str(tmp_path / "nope.json"),
                 "--clusters", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error in stage load" in err


def test_invalid_farm_fails_in_load_stage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bases": {}}')
    code = main(["flow", "--farm", str(bad), "--out",
                 str(tmp_path / "out")])
    assert code == 2
    assert "error in stage load" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe\x00garbage", "is not valid JSON: 'utf-8' codec"),
    (b"[" * 100_000, "nests JSON too deeply")],
    ids=["non_utf8", "deep_nesting"])
def test_unreadable_farm_file_names_a_wfdem_error(tmp_path, capsys, content,
                                                  message):
    farm = tmp_path / "farm.json"
    farm.write_bytes(content)
    assert main(["all", "--farm", str(farm), "--out",
                 str(tmp_path / "cli")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error in stage load: {farm} {message}")
    with pytest.raises(StageError) as info:
        run_pipeline(RunConfig(farm_path=farm, out_dir=tmp_path / "lib"))
    assert info.value.stage == "load"
    assert type(info.value.cause).__module__.startswith("wfdem.")


@pytest.mark.parametrize("wt, clusters, stage, message", [
    ({"kp_dvc": 10, "ki_dvc": 10, "kp_pll": 60, "ki_pll": 5}, None, "modes",
     "only 0 oscillatory pairs available, 1 requested"),
    ({}, 3, "cluster", "cluster count 3 not in [1, 1]")],
    ids=["too_few_modes", "too_many_clusters"])
def test_single_wt_corners_name_a_wfdem_error(tmp_path, capsys, wt, clusters,
                                              stage, message):
    doc = json.loads((FARMS / "single_wt.json").read_text())
    doc["wts"][0].update(wt)
    farm = tmp_path / "farm.json"
    farm.write_text(json.dumps(doc))
    flags = ["--clusters", str(clusters)] if clusters else []
    assert main(["all", "--farm", str(farm), "--out", str(tmp_path / "cli"),
                 *flags]) == 2
    assert capsys.readouterr().err == f"error in stage {stage}: {message}\n"
    with pytest.raises(StageError) as info:
        run_pipeline(RunConfig(farm_path=farm, out_dir=tmp_path / "lib",
                               clusters=clusters))
    assert info.value.stage == stage
    assert type(info.value.cause).__module__.startswith("wfdem.")
    assert isinstance(info.value.cause, ModeCountError)


def test_overflowing_power_flow_names_a_powerflow_error(tmp_path, capsys):
    # a valid farm whose Newton mismatch overflows; the suite turns any
    # RuntimeWarning on the way into an error
    doc = json.loads((FARMS / "single_wt.json").read_text())
    doc["wts"][0]["s_mva"] = 1e300
    farm = tmp_path / "farm.json"
    farm.write_text(json.dumps(doc))
    assert main(["all", "--farm", str(farm), "--out",
                 str(tmp_path / "cli")]) == 2
    assert capsys.readouterr().err.startswith(
        "error in stage flow: mismatch is not finite at iteration 1; "
        "farm P = 6e+299 p.u.")
    with pytest.raises(StageError) as info:
        run_pipeline(RunConfig(farm_path=farm, out_dir=tmp_path / "lib"))
    assert info.value.stage == "flow"
    assert isinstance(info.value.cause, PowerflowError)


@pytest.mark.parametrize("stage", list(ARTIFACTS))
def test_stage_writes_only_its_artifacts(tmp_path, stage):
    """A subcommand writes the artifacts of its stage and of every earlier
    stage, and nothing else."""
    out = tmp_path / f"{stage}_out"
    code = main([stage, "--farm", str(FARMS / "single_wt.json"),
                 "--out", str(out)])
    assert code == 0
    stages = list(ARTIFACTS)
    expected = {name for s in stages[:stages.index(stage) + 1]
                for name in ARTIFACTS[s]}
    assert {p.name for p in out.iterdir()} == expected


@pytest.mark.parametrize("case,flags", [("b", ["--clusters", "3"]),
                                        ("c", ["--auto-clusters"])])
def test_repeated_runs_write_identical_bytes(tmp_path, case, flags):
    runs = []
    for k in range(2):
        out = tmp_path / f"run{k}"
        code = main(["all", "--farm", str(FARMS / f"case_{case}.json"),
                     "--out", str(out)] + flags)
        assert code == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(runs[0]) == sorted(runs[1])
    for name, data in runs[0].items():
        assert runs[1][name] == data, name


def test_cluster_stage_scatter_has_no_dem_modes(tmp_path):
    out = tmp_path / "cluster_out"
    code = main(["cluster", "--farm", str(FARMS / "single_wt.json"),
                 "--clusters", "1", "--out", str(out)])
    assert code == 0
    svg = (out / "modescatter.svg").read_text()
    assert "DEM modes" not in svg
    assert not (out / "dem.json").exists()


def test_cluster_run_warns_of_fewer_groups_than_clusters(tmp_path):
    # case a at C = 3: no WT peaks in cluster 0 and nothing merges; the
    # cluster stage, where the group count is decided, says so
    cfg = RunConfig(farm_path=FARMS / "case_a.json", out_dir=tmp_path,
                    clusters=3)
    with pytest.warns(UserWarning) as caught:
        state = run_pipeline(cfg, upto="cluster")
    assert [str(w.message) for w in caught] \
        == ["3 mode clusters vs 2 WT groups: no WT peaks in cluster 0"]
    assert caught[0].filename == cli.__file__
    assert state.groups.merged == () and state.dem is None


@pytest.mark.parametrize("upto,dem_modes", [("cluster", False),
                                             ("aggregate", True),
                                             ("validate", True)])
def test_modescatter_is_drawn_once(tmp_path, monkeypatch, upto, dem_modes):
    drawn = []

    def scatter_svg(path, *args):
        drawn.append(path)
        real_scatter_svg(path, *args)
    real_scatter_svg = cli.scatter_svg
    monkeypatch.setattr(cli, "scatter_svg", scatter_svg)
    run_pipeline(RunConfig(farm_path=FARMS / "single_wt.json",
                           out_dir=tmp_path, clusters=1), upto=upto)
    assert drawn == [tmp_path / "modescatter.svg"]
    svg = (tmp_path / "modescatter.svg").read_text()
    assert ("DEM modes" in svg) is dem_modes


def test_auto_cluster_count_picks_one_for_uniform_farm(tmp_path):
    out = tmp_path / "auto_out"
    code = main(["all", "--farm", str(FARMS / "case_a.json"),
                 "--auto-clusters", "--e-target", "0.02",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["clusters"] == 1
    assert report["metadata"]["clusters_requested"] == "auto"


def test_auto_cluster_count_needs_three_for_split_bands(tmp_path):
    cfg = RunConfig(farm_path=FARMS / "case_c.json",
                    out_dir=tmp_path / "auto_c", clusters=None,
                    e_target=0.02)
    state = run_pipeline(cfg, upto="cluster")
    assert state.clusters.n_clusters == 3


def test_case_b_summary_lists_ground_truth_groups(tmp_path, capsys):
    from wfdem.cases import ground_truth_groups
    out = tmp_path / "b"
    code = main(["all", "--farm", str(FARMS / "case_b.json"),
                 "--clusters", "3", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    truth = {}
    for wt, g in ground_truth_groups().items():
        truth.setdefault(g, set()).add(wt)
    listed = {frozenset(line.split(": ", 1)[1].split(", "))
              for line in text.splitlines()
              if line.strip().startswith("group ")}
    assert listed == {frozenset(v) for v in truth.values()}


def test_library_pipeline_prefix(tmp_path):
    cfg = RunConfig(farm_path=FARMS / "case_b.json",
                    out_dir=tmp_path / "prefix", clusters=3)
    state = run_pipeline(cfg, upto="modes")
    assert state.model is not None
    assert state.clusters is None
    assert (tmp_path / "prefix" / "modes.csv").exists()


def test_plot_redraws_the_pipeline_svgs_byte_for_byte(tmp_path):
    # one bar series per cluster in features.svg: C = 1, 3 and the sweep's
    for farm, flags in (("case_b", ["--clusters", "3"]),
                        ("case_b", ["--clusters", "1"]),
                        ("case_c", ["--auto-clusters"])):
        out = tmp_path / f"{farm}_{flags[-1]}"
        code = main(["all", "--farm", str(FARMS / f"{farm}.json"),
                     *flags, "--out", str(out)])
        assert code == 0
        for kind, name in (("scatter", "modescatter.svg"),
                           ("features", "features.svg"),
                           ("responses", "responses.svg")):
            before = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert main(["plot", "--kind", kind, "--out", str(out)]) == 0
            after = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert after == before, (farm, flags, kind)


def test_plot_scatter_needs_the_report(tmp_path):
    out = tmp_path / "cluster_out"
    code = main(["cluster", "--farm", str(FARMS / "single_wt.json"),
                 "--clusters", "1", "--out", str(out)])
    assert code == 0
    before = (out / "modescatter.svg").read_bytes()
    with pytest.raises(FileNotFoundError, match="report.json"):
        emit_plot(out, "scatter")
    assert (out / "modescatter.svg").read_bytes() == before


def test_all_finishes_on_identical_modes(tmp_path):
    # the 33 identical DVC modes put the cluster centre an ulp off them, so
    # the scatter's y axis spans a few ulps; a child keeps a tick loop that
    # cannot advance from hanging the suite
    out = tmp_path / "zero"
    proc = run_python_bounded(
        ["-m", "wfdem.cli", "all", "--farm", str(FARMS / "zero_network.json"),
         "--clusters", "1", "--out", str(out)], timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for files in ARTIFACTS.values():
        for name in files:
            assert (out / name).exists(), name


def test_svgs_escape_wt_ids(tmp_path):
    # features.svg takes its labels from features.csv, where a comma or a
    # double quote makes csv.writer quote the cell
    for k, wt_id in enumerate(("wt<1&2", 'wt "1,2"')):
        farm = json.loads((FARMS / "single_wt.json").read_text())
        farm["wts"][0]["id"] = wt_id
        path = tmp_path / f"odd_id{k}.json"
        path.write_text(json.dumps(farm))
        out = tmp_path / f"odd{k}"
        assert main(["all", "--farm", str(path), "--clusters", "1",
                     "--out", str(out)]) == 0
        for name in ("features.svg", "modescatter.svg", "responses.svg"):
            ET.parse(out / name)
        texts = [el.text for el in ET.parse(out / "features.svg").iter()]
        assert wt_id in texts


@pytest.mark.parametrize("case,chosen", [("b", 3), ("c", 3), ("d", 14)])
def test_auto_clusters_writes_what_its_chosen_count_writes(tmp_path, case,
                                                           chosen):
    runs = {}
    for name, flags in (("auto", ["--auto-clusters"]),
                        ("fixed", ["--clusters", str(chosen)])):
        out = tmp_path / name
        assert main(["all", "--farm", str(FARMS / f"case_{case}.json"),
                     "--out", str(out)] + flags) == 0
        runs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    auto, fixed = runs["auto"], runs["fixed"]
    assert sorted(auto) == sorted(fixed)
    for name in ("features.csv", "groups.json", "dem.json", "responses.npz",
                 "modescatter.svg"):
        assert name in auto
    for name in auto:
        if name != "report.json":
            assert auto[name] == fixed[name], name
    reports = [json.loads(runs[k]["report.json"]) for k in ("auto", "fixed")]
    assert reports[0]["metadata"].pop("clusters_requested") == "auto"
    assert reports[1]["metadata"].pop("clusters_requested") == chosen
    assert reports[0] == reports[1]
    assert reports[0]["metadata"]["clusters"] == chosen


@pytest.mark.parametrize("case,flags", [("b", ["--clusters", "3"]),
                                        ("d", ["--clusters", "3"]),
                                        ("c", ["--auto-clusters"])])
def test_mpf_npz_holds_what_the_features_are_built_from(tmp_path, case,
                                                        flags):
    """Each cluster's `mpf.npz` columns, summed in concern order, print as
    the cells of `features.csv`; a concern mode's cluster is the one
    `report.json` gives it in `mode_errors`, which is in concern order."""
    assert main(["all", "--farm", str(FARMS / f"case_{case}.json"),
                 "--out", str(tmp_path)] + flags) == 0
    with np.load(tmp_path / "mpf.npz", allow_pickle=False) as npz:
        mpf, state = npz["mpf"], npz["state"].tolist()
    report = json.loads((tmp_path / "report.json").read_text())
    table = np.zeros((len(mpf), report["metadata"]["clusters"]),
                     dtype=complex)
    for col, m in zip(mpf.T, report["mode_errors"], strict=True):
        table[:, m["cluster"]] += col
    with open(tmp_path / "features.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 1 + 2 * table.shape[1]
    assert [f"{row[0]}:u_dc" for row in rows] == state
    assert [row[1:] for row in rows] == [
        ["%.12g" % x for x in cells] for cells in table.view(float).tolist()]


def test_bare_run_commands_take_the_run_config_defaults():
    for command in ("flow", "modes", "cluster", "aggregate", "validate",
                    "all"):
        args = _build_parser().parse_args(
            [command, "--farm", "farm.json", "--out", "out"])
        assert _config_from_args(args) \
            == RunConfig(Path("farm.json"), Path("out"), clusters=1)


def test_clusters_and_auto_clusters_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(["all", "--farm", "farm.json", "--out",
                                    "out", "--clusters", "3",
                                    "--auto-clusters"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_e_target_needs_auto_clusters(tmp_path, capsys):
    argv = ["all", "--farm", str(FARMS / "case_a.json"), "--out",
            str(tmp_path / "out"), "--e-target", "0.05"]
    with pytest.raises(ValueError, match="--e-target needs --auto-clusters"):
        _config_from_args(_build_parser().parse_args(argv))
    assert main(argv) == 1
    assert "--e-target needs --auto-clusters" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert _config_from_args(_build_parser().parse_args(
        argv + ["--auto-clusters"])) == RunConfig(
            FARMS / "case_a.json", tmp_path / "out", clusters=None,
            e_target=0.05)


@pytest.mark.parametrize("flags, message", [
    (["--horizon", "0.05"], "--horizon must be finite and >= 0.1 s"),
    (["--horizon", "-1"], "--horizon must be finite and >= 0.1 s"),
    (["--horizon", "nan"], "--horizon must be finite and >= 0.1 s"),
    (["--horizon", "inf"], "--horizon must be finite and >= 0.1 s"),
    # a step past the horizon leaves no sample after the sag starts
    (["--dt", "5"], "--horizon must be finite and >= 0.1 s"),
    (["--dt", "0"], "--dt must be finite and > 0"),
    (["--dt", "nan"], "--dt must be finite and > 0"),
    (["--sag", "0"], "--sag must be in (0, 1]"),
    (["--sag", "nan"], "--sag must be in (0, 1]"),
    (["--sag", "1.5"], "--sag must be in (0, 1]"),
    (["--auto-clusters", "--e-target", "nan"],
     "--e-target must be finite and > 0"),
    (["--auto-clusters", "--e-target", "0"],
     "--e-target must be finite and > 0"),
    (["--clusters", "0"], "--clusters must be >= 1"),
    (["--seed", "-1"], "--seed must be >= 0"),
], ids=["horizon_short", "horizon_negative", "horizon_nan", "horizon_inf",
        "dt_past_horizon", "dt_zero", "dt_nan", "sag_zero", "sag_nan",
        "sag_above_one", "e_target_nan", "e_target_zero", "clusters_zero",
        "seed_negative"])
def test_bad_run_flags_are_named_before_anything_is_written(tmp_path, capsys,
                                                            flags, message):
    out = tmp_path / "out"
    assert main(["all", "--farm", str(FARMS / "case_b.json"), "--out",
                 str(out)] + flags) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_run_flags_at_their_limits_are_accepted():
    args = _build_parser().parse_args(
        ["all", "--farm", "farm.json", "--out", "out", "--sag", "1",
         "--dt", "0.01", "--horizon", "0.11", "--auto-clusters",
         "--e-target", "1e-12", "--seed", "0"])
    assert _config_from_args(args) == RunConfig(
        Path("farm.json"), Path("out"), clusters=None, e_target=1e-12,
        seed=0, sag=1.0, horizon=0.11, dt=0.01)


def test_run_cases_script_prints_the_error_table(tmp_path, monkeypatch,
                                                 capsys):
    spec = importlib.util.spec_from_file_location(
        "run_cases", ROOT / "scripts" / "run_cases.py")
    run_cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_cases)
    monkeypatch.setattr(sys, "argv", ["run_cases.py", "--out", str(tmp_path)])
    # case a's three mode clusters merge into two WT groups
    with pytest.warns(UserWarning, match="3 mode clusters vs 2 WT groups"):
        run_cases.main()
    runs = sorted(p.name for p in tmp_path.iterdir())
    assert runs == [f"case_{x}_c{c}" for x in "abcd" for c in (1, 3)]
    for run in runs:
        assert (tmp_path / run / "report.json").exists(), run
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 9
    assert table[0].split() == ["case", "C", "E", "E_prime", "poi", "NRMSE"]
    assert [row.split()[:2] for row in table[1:]] \
        == [[x.upper(), str(c)] for x in "abcd" for c in (1, 3)]


def test_acceptance_digests_script_hashes_and_compares(tmp_path, capsys):
    script = load_digests_script()
    runs = script.acceptance_runs(tmp_path / "farms")
    assert len(runs) == 22
    assert len({name for name, _, _ in runs}) == 22
    single = [run for run in runs if run[0] == "single_wt_c1"]
    first = script.digest_runs(single, tmp_path / "first")
    second = script.digest_runs(single, tmp_path / "second")
    assert sorted(first) == sorted(
        f"single_wt_c1/{name}" for files in ARTIFACTS.values()
        for name in files)
    assert first == second
    assert script.differing(first, second) == []
    changed = dict(first, **{"single_wt_c1/mpf.npz": "0" * 64})
    del changed["single_wt_c1/dem.json"]
    assert script.differing(first, changed) \
        == ["single_wt_c1/dem.json", "single_wt_c1/mpf.npz"]


def test_acceptance_digests_script_reports_grid_differences(tmp_path):
    script = load_digests_script()
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    # rows matched by label, columns by header, whatever their order
    ours.write_text("wt_id,a_re,a_im,b\r\nw2:u,4,-0,nan\r\nw1:u,1,2,3\r\n")
    theirs.write_text("wt_id,a_abs,a_re,a_im,b\r\n"
                      "w1:u,2.2,1,2,3\r\nw2:u,4,4,0,nan\r\nw3:u,0,0,0,0\r\n")
    assert script.grid_difference(ours, theirs) == [
        "  columns only theirs: a_abs", "  rows only theirs: w3:u",
        "  shared 3 columns x 2 rows: max abs diff 0, max rel diff 0, "
        "max abs diff / column max |value| 0"]
    theirs.write_text("wt_id,a_re,a_im,b\r\nw1:u,1.5,2,3\r\nw2:u,4,0,inf\r\n")
    assert script.grid_difference(ours, theirs)[-1] \
        == "  shared 3 columns x 2 rows: max abs diff inf, max rel diff inf, " \
        "max abs diff / column max |value| inf (b)"
    theirs.write_text("wt_id,a_re,a_im,b\r\nw1:u,1.5,2,3\r\nw2:u,4,0,nan\r\n")
    assert script.grid_difference(ours, theirs) == [
        "  shared 3 columns x 2 rows: max abs diff 0.5, max rel diff 0.333333, "
        "max abs diff / column max |value| 0.125 (a_re)"]
    # a grid without a label column is matched row by row
    ours.write_text("t,p\r\n0,1\r\n1,2\r\n")
    theirs.write_text("t,p\r\n0,1\r\n1,2.5\r\n2,3\r\n")
    assert script.grid_difference(ours, theirs) == [
        "  rows only theirs: 2",
        "  shared 2 columns x 2 rows: max abs diff 0.5, max rel diff 0.2, "
        "max abs diff / column max |value| 0.2 (p)"]


def test_acceptance_digests_script_compares_grids_with_no_shared_row(
        tmp_path):
    script = load_digests_script()
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    ours.write_text("wt_id,a_re,a_im\r\nw1,1,2\r\n")
    theirs.write_text("wt_id,a_re,a_im\r\nw2,1,2\r\nw3,0,0\r\n")
    assert script.grid_difference(ours, theirs) == [
        "  rows only ours: w1", "  rows only theirs: w2, w3",
        "  shared 2 columns x 0 rows: max abs diff 0, max rel diff 0, "
        "max abs diff / column max |value| 0"]


def test_acceptance_digests_script_reports_json_differences(tmp_path):
    script = load_digests_script()
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    ours.write_text(json.dumps({"e": 0.01, "groups": {"w1": 0, "w2": 1},
                                "merged": [], "note": "a", "xs": [1.0, 2.0],
                                "n": 3}))
    theirs.write_text(json.dumps({"e": 0.0125, "groups": {"w1": 0, "w2": 1},
                                  "merged": [[0, 1]], "note": "b",
                                  "xs": [1.0], "n": 3.0, "extra": None}))
    assert script.json_difference(ours, theirs) == [
        "  /merged: only ours: []", "  /xs/1: only ours: 2.0",
        "  /merged/0/0: only theirs: 0", "  /merged/0/1: only theirs: 1",
        "  /extra: only theirs: None",
        "  /e: 0.01 -> 0.0125", "  /note: 'a' -> 'b'", "  /n: 3 -> 3.0",
        "  numeric leaves: max abs diff 0.0025, max rel diff 0.2"]
    assert script.json_difference(ours, ours) == [
        "  numeric leaves: max abs diff 0, max rel diff 0"]


def test_acceptance_digests_script_reports_npz_differences(tmp_path):
    script = load_digests_script()
    ours, theirs = tmp_path / "ours.npz", tmp_path / "theirs.npz"
    z = np.array([[1 + 2j, 0j], [-4j, np.nan]])
    # an int64 key such as mpf.npz's mode indices
    mode = np.array([3, 5], dtype=np.int64)
    with open(ours, "wb") as fh:
        np.savez(fh, z=z, s=np.array(["a", "b"]), t=np.arange(3.0),
                 mode=mode, only=np.zeros(1))
    with open(theirs, "wb") as fh:
        np.savez(fh, z=z, s=np.array(["a", "b"]), t=np.arange(3.0),
                 mode=mode)
    assert script.npz_difference(ours, theirs) == [
        "  keys only ours: only",
        "  shared 4 keys: max abs diff 0, max rel diff 0, "
        "max abs diff / column max |value| 0"]
    z2 = z.copy()
    z2[1, 0] = -5j                          # |dz| 1, column max |value| 5
    with open(theirs, "wb") as fh:
        np.savez(fh, z=z2, s=np.array(["a", "c"]), t=np.arange(4.0),
                 mode=np.array([3, 6], dtype=np.int64),
                 only=np.zeros(1, dtype=np.float32))
    assert script.npz_difference(ours, theirs) == [
        "  z: max abs diff 1, max rel diff 0.2, "
        "max abs diff / column max |value| 0.2 (column 0)",
        "  s: 1 of 2 entries differ",
        "  t: float64[3] -> float64[4]",
        "  mode: max abs diff 1, max rel diff 0.166667, "
        "max abs diff / column max |value| 0.166667",
        "  only: float64[1] -> float32[1]",
        "  shared 5 keys: max abs diff 1, max rel diff 0.2, "
        "max abs diff / column max |value| 0.2 (z)"]


def test_acceptance_digests_script_compares_zero_row_keys(tmp_path):
    script = load_digests_script()
    ours, theirs = tmp_path / "ours.npz", tmp_path / "theirs.npz"
    for path in (ours, theirs):
        with open(path, "wb") as fh:
            np.savez(fh, flat=np.zeros(0), grid=np.zeros((0, 2)))
    assert script.npz_difference(ours, theirs) == [
        "  shared 2 keys: max abs diff 0, max rel diff 0, "
        "max abs diff / column max |value| 0"]


SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0)


@st.composite
def array_pairs(draw):
    """Two arrays of one dtype and shape whose cells are often equal; the
    float parts mix nan, +-inf and +-0 with finite values, and complex ones
    stay below 1e300 so that Python's abs does not overflow."""
    dtype = draw(st.sampled_from(["float64", "complex128", "int64"]))
    shape = draw(st.one_of(st.just(()), st.tuples(st.integers(0, 4)),
                           st.tuples(st.integers(0, 4), st.integers(1, 3))))
    if dtype == "int64":
        cell = st.integers(-2**63, 2**63 - 1)
    elif dtype == "float64":
        cell = st.one_of(st.sampled_from(SPECIAL),
                         st.floats(allow_nan=False, allow_infinity=False))
    else:
        part = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e300, 1e300))
        cell = st.builds(complex, part, part)
    size = math.prod(shape)
    ours = draw(st.lists(cell, min_size=size, max_size=size))
    theirs = [x if keep else y for x, (keep, y) in zip(ours, draw(st.lists(
        st.tuples(st.booleans(), cell), min_size=size, max_size=size)))]
    return tuple(np.array(x, dtype=dtype).reshape(shape)
                 for x in (ours, theirs))


@given(array_pairs())
# |-1 + 5j| as np.abs forms it differs from Python's abs in the last bit
@example((np.array(5j), np.array(1 + 0j)))
def test_array_difference_equals_the_per_cell_rule(pair):
    """The largest absolute and relative differences are the largest of
    `oracles.cell_difference` over the cells, and the column figure is the
    largest per-column one: the largest cell difference over the largest
    finite |value| of either side; cells compare in a float dtype."""
    ours, theirs = pair
    max_abs, max_rel, max_col, worst = \
        load_digests_script().array_difference(ours, theirs)
    a, b = (x.astype(np.result_type(x, 1.0)) for x in pair)
    a, b = (x.tolist() if x.ndim == 2 else x.reshape(-1, 1).tolist()
            for x in (a, b))
    cells = [cell_difference(x, y) for ra, rb in zip(a, b)
             for x, y in zip(ra, rb)]
    assert max_abs == max([d for d, _ in cells], default=0.0)
    assert max_rel == max([r for _, r in cells], default=0.0)
    scaled = []
    for c in range(ours.shape[1] if ours.ndim == 2 else 1):
        col = [(ra[c], rb[c]) for ra, rb in zip(a, b)]
        col_abs = max([cell_difference(x, y)[0] for x, y in col],
                      default=0.0)
        col_max = max([abs(x) for pair in col for x in pair
                       if math.isfinite(abs(x))], default=0.0)
        scaled.append(col_abs / col_max if col_max
                      else math.inf if col_abs else 0.0)
    assert max_col == max(scaled)
    assert worst == scaled.index(max_col)


def test_acceptance_digests_script_records_and_checks_the_environment(
        tmp_path, monkeypatch, capsys):
    script = load_digests_script()
    env = script.environment()
    assert sorted(env) == ["blas", "blas_threads", "numpy"]
    assert env["numpy"] == np.__version__
    single = [run for run in script.acceptance_runs(tmp_path / "farms")
              if run[0] == "single_wt_c1"]
    monkeypatch.setattr(script, "acceptance_runs", lambda farm_dir: single)

    assert script.main(["--out", str(tmp_path / "first")]) == 0
    first = tmp_path / "first" / "digests.json"
    recorded = json.loads(first.read_text())
    assert recorded["environment"] == env
    assert sorted(recorded["digests"]) == sorted(
        f"single_wt_c1/{name}" for files in ARTIFACTS.values()
        for name in files)
    assert script.read_digests(first) == (env, recorded["digests"])
    capsys.readouterr()

    # the same environment: no warning, and no artifact differs
    assert script.main(["--out", str(tmp_path / "second"),
                        "--compare", str(first)]) == 0
    assert not capsys.readouterr().out.startswith("WARNING")

    # another thread count, or none recorded: the first line says so
    recorded["environment"]["blas_threads"] = "99"
    first.write_text(json.dumps(recorded))
    assert script.main(["--out", str(tmp_path / "third"),
                        "--compare", str(first)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "WARNING: ENVIRONMENTS DIFFER (ours != theirs): blas_threads "
        f"{env['blas_threads']} != 99. Digests can differ with no code "
        "change.")
    first.write_text(json.dumps(recorded["digests"]))
    assert script.read_digests(first) == (None, recorded["digests"])
    assert script.main(["--out", str(tmp_path / "fourth"),
                        "--compare", str(first)]) == 0
    assert capsys.readouterr().out.startswith(
        "WARNING: ENVIRONMENT NOT RECORDED")


def test_acceptance_digests_script_writes_a_reference_at_one_thread_only(
        tmp_path, monkeypatch, capsys):
    # the reference states one thread setting, and takes no flag that it
    # would ignore; a refused call writes nothing
    script = load_digests_script()
    for threads, extra in (("2", []), (None, []),
                           ("1", ["--out", str(tmp_path)]),
                           ("1", ["--compare", str(tmp_path)])):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        with pytest.raises(SystemExit) as exc:
            script.main(["--write-reference", str(tmp_path), *extra])
        assert exc.value.code == 2
    assert "--write-reference" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
