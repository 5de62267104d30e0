"""Pipeline driver: subcommands, artifacts, determinism, error paths."""

import hashlib
import json
from pathlib import Path

import pytest

from wfdem.cli import (ARTIFACTS, RunConfig, emit_plot, emit_report, main,
                       run_pipeline)

FARMS = Path(__file__).resolve().parent.parent / "farms"


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
    assert state.chosen_c == 3


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
    assert state.concern is not None
    assert state.clusters is None
    assert (tmp_path / "prefix" / "modes.csv").exists()


def test_plot_redraws_the_pipeline_svgs_byte_for_byte(tmp_path):
    out = tmp_path / "b"
    code = main(["all", "--farm", str(FARMS / "case_b.json"),
                 "--clusters", "3", "--out", str(out)])
    assert code == 0
    for kind, name in (("scatter", "modescatter.svg"),
                       ("features", "features.svg"),
                       ("responses", "responses.svg")):
        before = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert main(["plot", "--kind", kind, "--out", str(out)]) == 0
        after = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert after == before, kind


def test_plot_scatter_needs_the_report(tmp_path):
    out = tmp_path / "cluster_out"
    code = main(["cluster", "--farm", str(FARMS / "single_wt.json"),
                 "--clusters", "1", "--out", str(out)])
    assert code == 0
    before = (out / "modescatter.svg").read_bytes()
    with pytest.raises(FileNotFoundError, match="report.json"):
        emit_plot(out, "scatter")
    assert (out / "modescatter.svg").read_bytes() == before
