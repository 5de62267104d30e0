"""Spans around wfdem's public functions, installed from outside the package.

`Tracer.installed()` replaces each function in `TRACED` with a wrapper in
every wfdem module namespace that binds it (the package modules import
each other's names with `from .x import y`), and puts the originals back on
exit.  Spans stay in memory; `layer_metrics` turns them into per-layer self
times, call counts and the few quantities read from returned objects.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import asdict, dataclass, field

# (defining module, function, layer metric prefix).  Functions that share a
# prefix are reported together.
TRACED = (
    ("farm", "load_farm", "farm.load_farm"),
    ("farm", "build_network_matrices", "farm.build_network_matrices"),
    ("farm", "nodal_network", "farm.nodal_network"),
    ("powerflow", "solve_powerflow", "powerflow.solve_powerflow"),
    ("powerflow", "write_bus_csv", "powerflow.write_bus_csv"),
    ("wt", "linearize_wt", "wt.linearize_wt"),
    ("assembly", "assemble_farm", "assembly.assemble_farm"),
    ("modal", "eig_biorthogonal", "modal.eig_biorthogonal"),
    ("modal", "select_concern_modes", "modal.select_concern_modes"),
    ("modal", "write_modes_csv", "modal.write_modes_csv"),
    ("modal", "write_mpf_csv", "modal.write_mpf_csv"),
    ("clustering", "cluster_modes", "clustering.cluster_modes"),
    ("clustering", "superimpose_mpf", "clustering.superimpose_mpf"),
    ("clustering", "group_wts", "clustering.group_wts"),
    ("clustering", "write_features_csv", "clustering.write"),
    ("clustering", "write_groups_json", "clustering.write"),
    ("aggregation", "build_dem", "aggregation.build_dem"),
    ("aggregation", "equivalent_network", "aggregation.equivalent_network"),
    ("aggregation", "write_dem_json", "aggregation.write_dem_json"),
    ("validation", "simulate_linear", "validation.simulate_linear"),
    ("validation", "error_E", "validation.error_E"),
    ("validation", "compare_responses", "validation.compare_responses"),
    ("validation", "build_report", "validation.report"),
    ("validation", "write_report_json", "validation.report"),
    ("validation", "write_responses_csv", "validation.write_responses_csv"),
    ("svgplot", "scatter_svg", "svgplot"),
    ("svgplot", "lines_svg", "svgplot"),
    ("svgplot", "bars_svg", "svgplot"),
    ("cli", "main", "cli"),
)

# every namespace searched for bindings of a traced function
NAMESPACES = ("wfdem", "wfdem.farm", "wfdem.powerflow", "wfdem.wt",
              "wfdem.assembly", "wfdem.modal", "wfdem.clustering",
              "wfdem.aggregation", "wfdem.validation", "wfdem.svgplot",
              "wfdem.cli")

# writers -> position of the path argument of the file written
_WRITERS = {"powerflow.write_bus_csv": -1, "modal.write_modes_csv": -1,
            "modal.write_mpf_csv": -1, "clustering.write": -1,
            "aggregation.write_dem_json": -1,
            "validation.write_responses_csv": -1, "svgplot": 0}


@dataclass
class Span:
    name: str                 # layer metric prefix from TRACED
    start: float              # time.perf_counter()
    end: float
    parent: int | None        # index of the enclosing span, if any
    pipeline: int             # index of the root span this one runs under
    info: dict = field(default_factory=dict)


def _observe(name: str, args: tuple, result) -> dict:
    """Quantities read from a traced call's arguments or returned object."""
    if name == "powerflow.solve_powerflow":
        return {"newton_iters": result.iterations}
    if name == "assembly.assemble_farm":
        return {"n_states": result.n_states}
    if name in _WRITERS:
        return {"bytes": os.path.getsize(args[_WRITERS[name]])}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._roots = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            if self._stack:
                parent = self._stack[-1]
            else:
                parent = None
                self._roots += 1
            span = Span(name, 0.0, 0.0, parent, self._roots - 1)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.info = _observe(name, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        modules = [importlib.import_module(ns) for ns in NAMESPACES]
        patched: list[tuple[object, str, object]] = []
        try:
            for mod_name, fn_name, prefix in TRACED:
                original = getattr(importlib.import_module(f"wfdem.{mod_name}"),
                                   fn_name)
                wrapper = self.wrap(prefix, original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        patched.append((mod, fn_name, original))
            yield
        finally:
            for mod, fn_name, original in reversed(patched):
                setattr(mod, fn_name, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans: list[Span], n_passes: int) -> dict[str, float]:
    """Per-pass self time, calls and observed quantities by layer prefix.

    Self times are named `<prefix>.s`, except the CLI's own time, which is
    `cli.self_s`.  `trace.wall_s` is the summed duration of the root spans;
    the self times add up to it.
    """
    out: dict[str, float] = {}
    for _, _, prefix in TRACED:
        out["cli.self_s" if prefix == "cli" else f"{prefix}.s"] = 0.0
        out[f"{prefix}.calls"] = 0.0

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value / n_passes

    for s, own in zip(spans, self_times(spans)):
        add("cli.self_s" if s.name == "cli" else f"{s.name}.s", own)
        add(f"{s.name}.calls", 1)
        if "bytes" in s.info:
            add(f"{s.name}.bytes", s.info["bytes"])
        if "newton_iters" in s.info:
            add("powerflow.newton_iters", s.info["newton_iters"])
        if "n_states" in s.info:
            out["assembly.n_states_max"] = max(
                out.get("assembly.n_states_max", 0), s.info["n_states"])
        if s.parent is None:
            add("trace.wall_s", s.end - s.start)
    return out
