import contextlib
import importlib
import io

import pytest

import run
import spans
from spans import Span


def _tree():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] holds [5, 6]
    return [
        Span("cli", 0.0, 10.0, None, 0),
        Span("farm.load_farm", 1.0, 3.0, 0, 0),
        Span("modal.eig_biorthogonal", 4.0, 8.0, 0, 0),
        Span("modal.write_mpf_csv", 5.0, 6.0, 2, 0, {"bytes": 100}),
        Span("cli", 20.0, 22.0, None, 1),
    ]


def test_self_time_subtracts_children():
    assert spans.self_times(_tree()) == [4.0, 2.0, 3.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    tree = [Span("cli", 0.0, 10.0, None, 0),
            Span("svgplot", 1.0, 5.0, 0, 0),
            Span("svgplot", 3.0, 7.0, 0, 0),
            Span("svgplot", 9.0, 12.0, 0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_sum_to_traced_wall():
    m = spans.layer_metrics(_tree(), n_passes=2)
    own = sum(v for k, v in m.items() if k.endswith(".s") or k == "cli.self_s")
    assert m["trace.wall_s"] == pytest.approx(6.0)
    assert own == pytest.approx(m["trace.wall_s"])
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["modal.write_mpf_csv.bytes"] == 50
    assert m["cli.calls"] == 1
    assert m["validation.error_E.calls"] == 0


def _bindings():
    out = {}
    for ns in spans.NAMESPACES:
        mod = importlib.import_module(ns)
        for _, fn_name, _ in spans.TRACED:
            if hasattr(mod, fn_name):
                out[ns, fn_name] = getattr(mod, fn_name)
    return out


def test_wrappers_cover_every_binding_and_are_restored():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        during = _bindings()
        assert all(during[key] is not fn for key, fn in before.items())
        assert during["wfdem.aggregation", "solve_powerflow"] is \
            during["wfdem.powerflow", "solve_powerflow"]
    assert _bindings() == before


def test_wrappers_are_restored_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_traced_run_matches_untraced_bytes(tmp_path):
    from wfdem import cli

    farm = run.ROOT / "farms" / "single_wt.json"
    tracer = spans.Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["all", "--farm", str(farm), "--out",
                         str(tmp_path / "plain")]) == 0
        with tracer.installed():
            assert cli.main(["all", "--farm", str(farm), "--out",
                             str(tmp_path / "traced")]) == 0
    assert run.artifact_digests(tmp_path / "plain") == \
        run.artifact_digests(tmp_path / "traced")
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli"]
    assert {s.pipeline for s in tracer.spans} == {0}
    m = spans.layer_metrics(tracer.spans, n_passes=1)
    assert m["modal.eig_biorthogonal.calls"] == 2      # detailed + DEM
    own = sum(v for k, v in m.items() if k.endswith(".s") or k == "cli.self_s")
    assert own == pytest.approx(m["trace.wall_s"])


def test_group_agreement_is_up_to_relabelling():
    planted = {"a": 0, "b": 0, "c": 1, "d": 2}
    assert run.group_agreement({"a": 5, "b": 5, "c": 0, "d": 1}, planted) == 1.0
    assert run.group_agreement({"a": 5, "b": 0, "c": 0, "d": 1}, planted) == 0.75
    assert run.group_agreement({"a": 0, "b": 0, "c": 0, "d": 0}, planted) == 0.5
