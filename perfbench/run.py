#!/usr/bin/env python3
"""Pipeline benchmark for wfdem.

Runs one workload through `wfdem.cli.main(["all", ...])` in-process, the way
a user runs the CLI, with every artifact written, and checks the outputs.

    python3 perfbench/run.py --workload study_cases --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; wfdem is imported from ./src.
One caller runs pipelines back to back (a closed loop, no worker pool) for
--seconds, in whole passes over the workload's pipelines.  With --trace 0 the
last stdout line is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with --trace 1 each round runs one untraced and one traced
pass, and the JSON holds the per-layer metrics.  Farms, artifacts and spans
go under .perfbench/ in the checkout.  See perfbench/README.md for the
workloads and the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
E_TARGET = 0.02
SETUP_REPEATS = 3
# workload -> (feeders, spans, planted groups, CLI flags, farms per pass).
# One farm's figures depend on its draw: E is a maximum over WTs, and the C
# an --auto-clusters sweep stops at (and with it the sweep's time) moves by
# +-10% from one 100-WT farm to the next.  A pass over several farms drawn
# from the seed keeps the figures steady from seed to seed.
FARMS = {
    "ladder300": (10, 30, True, ["--clusters", "3"], 2),
    "auto_sweep100": (10, 10, False,
                      ["--auto-clusters", "--e-target", str(E_TARGET)], 4),
}
WORKLOADS = ("study_cases", "ladder300", "auto_sweep100")


@dataclass
class Pipeline:
    name: str
    farm: Path
    flags: list[str]
    planted: dict[str, int] | None = None   # WT groups the run must recover
    e_target: float | None = None           # E bound for --auto-clusters


@dataclass
class PassResult:
    pipeline_s: list[float]
    artifact_bytes: int
    reports: list[dict]
    hashes: list[dict[str, str]]
    problems: list[list[str]]               # per pipeline, empty when correct
    warnings: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.pipeline_s)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# workloads


def build_pipelines(workload: str, seed: int, farm_dir: Path) -> list[Pipeline]:
    """The workload's pipelines; generated farms are written to farm_dir."""
    from wfdem import cases
    from wfdem.farm import save_farm

    import farmgen

    if workload == "study_cases":
        truth = cases.ground_truth_groups()
        return [Pipeline(f"case_{x}_c{c}", ROOT / "farms" / f"case_{x}.json",
                         ["--clusters", str(c)],
                         planted=truth if (x != "a" and c == 3) else None)
                for x in "abcd" for c in (1, 3)]
    if workload in FARMS:
        n_feeders, n_spans, planted, flags, n_farms = FARMS[workload]
        pipes = []
        for k in range(n_farms):
            farm, groups = farmgen.ladder_farm(n_feeders, n_spans, (seed, k),
                                               planted)
            path = farm_dir / f"{workload}_{k}.json"
            save_farm(farm, path)
            pipes.append(Pipeline(
                path.stem, path, flags, planted=groups if planted else None,
                e_target=None if planted else E_TARGET))
        return pipes
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one pipeline and its checks


def group_agreement(found: dict[str, int], planted: dict[str, int]) -> float:
    """Fraction of WTs grouped as planted, under the best relabelling."""
    counts = Counter((planted[w], found.get(w)) for w in planted)
    p_labels = sorted(set(planted.values()))
    f_labels = sorted(set(found.values()), key=str)
    if len(f_labels) >= len(p_labels):
        pairings = (zip(p_labels, perm)
                    for perm in itertools.permutations(f_labels, len(p_labels)))
    else:
        pairings = (zip(perm, f_labels)
                    for perm in itertools.permutations(p_labels, len(f_labels)))
    best = max(sum(counts[pair] for pair in pairing) for pairing in pairings)
    return best / len(planted)


def check_outputs(pipe: Pipeline, out: Path, rc: int) -> tuple[list[str], dict]:
    """Problems with one finished pipeline's outputs, and its report."""
    if rc != 0:
        return [f"exit code {rc}"], {}
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report.json: {exc}"], {}
    problems = []
    values = {"e": report.get("e"), "e_prime": report.get("e_prime"),
              **{f"nrmse.{k}": v for k, v in report.get("nrmse", {}).items()}}
    if "nrmse.poi_p" not in values:
        problems.append("report has no POI active-power NRMSE")
    for key, v in values.items():
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{key} = {v!r} is not finite")
    for flag in ("detailed_unstable", "dem_unstable"):
        if report.get(flag) is not False:
            problems.append(f"{flag} = {report.get(flag)!r}")
    if problems:
        return problems, report
    if pipe.planted is not None:
        agree = group_agreement(report["metadata"]["groups"], pipe.planted)
        report["_agreement"] = agree
        if agree != 1.0:
            problems.append(f"planted groups recovered for {agree:.3f} of WTs")
    if pipe.e_target is not None and not report["e"] <= pipe.e_target:
        problems.append(f"E = {report['e']} above the target {pipe.e_target}")
    return problems, report


def artifact_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def run_pass(pipes: list[Pipeline], out_root: Path) -> PassResult:
    """Run every pipeline once; only the `main` calls are timed."""
    from wfdem import cli

    res = PassResult([], 0, [], [], [])
    for pipe in pipes:
        out = out_root / pipe.name
        shutil.rmtree(out, ignore_errors=True)
        argv = ["all", "--farm", str(pipe.farm), "--out", str(out),
                *pipe.flags]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            dt = time.perf_counter() - t0
        res.warnings += [f"{pipe.name}: {w.category.__name__}: {w.message}"
                         for w in caught]
        res.pipeline_s.append(dt)
        problems, report = check_outputs(pipe, out, rc)
        res.problems.append(problems)
        res.reports.append(report)
        res.hashes.append(artifact_digests(out) if out.is_dir() else {})
        res.artifact_bytes += sum(p.stat().st_size for p in out.rglob("*")
                                  if p.is_file()) if out.is_dir() else 0
    return res


def record_pass(res: PassResult, pipes: list[Pipeline],
                reference: PassResult | None, outcome: Outcome,
                label: str) -> None:
    """Count each pipeline; artifacts must match the reference pass."""
    for k, pipe in enumerate(pipes):
        problems = list(res.problems[k])
        if reference is not None and res.hashes[k] != reference.hashes[k]:
            changed = sorted(n for n in set(res.hashes[k]) | set(reference.hashes[k])
                             if res.hashes[k].get(n) != reference.hashes[k].get(n))
            problems.append(f"{label} artifacts differ from the first pass: "
                            f"{', '.join(changed)}")
        outcome.record(pipe.name, problems)


# ---------------------------------------------------------------------------
# set-up and environment


def _import_seconds() -> float:
    """Time to import wfdem in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); import wfdem.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def setup(workload: str, seed: int) -> tuple[list[Pipeline], float]:
    """Import wfdem, write the farms and run an untimed warm-up pipeline.

    Returns the pipelines and the set-up time: the median over
    SETUP_REPEATS rounds of importing wfdem in a fresh interpreter,
    generating and writing the farms, and the warm-up pipeline.
    """
    from wfdem import cli

    farm_dir = WORK / workload / "farms"
    farm_dir.mkdir(parents=True, exist_ok=True)
    warm_out = WORK / workload / "warmup"
    rounds = []
    for _ in range(SETUP_REPEATS):
        import_s = _import_seconds()
        t0 = time.perf_counter()
        pipes = build_pipelines(workload, seed, farm_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["all", "--farm", str(ROOT / "farms" / "single_wt.json"),
                           "--out", str(warm_out)])
        rounds.append(import_s + time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"warm-up pipeline on single_wt.json exited {rc}")
    return pipes, statistics.median(rounds)


def _blas_threads() -> str:
    import ctypes

    import numpy as np

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
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "wfdem").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int) -> list[str]:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"python        {platform.python_version()}",
        f"numpy         {np.__version__}",
        f"scipy         {scipy.__version__}",
        f"blas          {blas.get('name')} {blas.get('version')}",
        f"blas threads  {_blas_threads()}",
        f"nproc         {len(os.sched_getaffinity(0))}",
        f"commit        {_commit()}",
        f"src sha256    {_source_digest()}",
        f"workload      {workload}",
        f"seed          {seed}",
    ]


# ---------------------------------------------------------------------------
# metrics


def _tail(samples: list[float]) -> str:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return f"max {max(samples):.4f}"
    q = math.floor(100 * (1 - 10 / n))
    return f"p{q} {statistics.quantiles(samples, n=100)[q - 1]:.4f}"


def end_to_end(passes: list[PassResult], pipes: list[Pipeline],
               setup_s: float) -> tuple[dict[str, float], list[str]]:
    first = passes[0]
    reports = [r for r, p in zip(first.reports, first.problems) if not p]
    pipeline_s = [t for p in passes for t in p.pipeline_s]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "artifact_mb": statistics.median(p.artifact_bytes for p in passes) / 1e6,
    }
    if len(reports) == len(pipes):
        metrics.update({
            "e_max": max(r["e"] for r in reports),
            "e_prime_max": max(r["e_prime"] for r in reports),
            "nrmse_poi_p_max": max(r["nrmse"]["poi_p"] for r in reports),
            "dem_machines": sum(len(r["metadata"]["group_capacity_mva"])
                                for r in reports),
        })
    agreements = [r["_agreement"] for r in reports if "_agreement" in r]
    notes = [
        f"pipeline_s_p50 {statistics.median(pipeline_s):.4f} s "
        f"(n={len(pipeline_s)}, {_tail(pipeline_s)} s), passes={len(passes)}",
        "group_agreement_min " + (f"{min(agreements):.4f}" if agreements
                                  else "n/a (no planted groups)"),
        "chosen C: " + ", ".join(f"{p.name}={r['metadata']['clusters']}"
                                 for p, r in zip(pipes, first.reports) if r),
        "first pass, s: " + ", ".join(f"{p.name}={t:.3f}"
                                      for p, t in zip(pipes, first.pipeline_s)),
    ]
    notes += sorted({w for p in passes for w in p.warnings})
    return metrics, notes


def top_layers(layer: dict[str, float], k: int = 6) -> list[str]:
    own = {name: v for name, v in layer.items()
           if name.endswith(".s") or name == "cli.self_s"}
    total = layer["trace.wall_s"]
    ranked = sorted(own.items(), key=lambda kv: -kv[1])[:k]
    lines = [f"self-time sum {sum(own.values()):.4f} s, traced wall "
             f"{total:.4f} s per pass; top layers:"]
    lines += [f"  {name:<36s} {v:9.4f} s  {v / total:6.1%}"
              for name, v in ranked]
    return lines


def declared(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


# ---------------------------------------------------------------------------
# entry point


def _limit_blas_threads() -> None:
    """One closed-loop caller; BLAS uses at most the cores it may run on."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= n:
            os.environ[var] = str(n)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wfdem" / "__init__.py").is_file() \
            or not (ROOT / "farms").is_dir():
        print(f"no wfdem source checkout at {ROOT}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    pipes, setup_s = setup(args.workload, args.seed)
    import spans

    out_root = WORK / args.workload / "out"
    outcome = Outcome()
    passes: list[PassResult] = []
    traced: list[PassResult] = []
    tracer = spans.Tracer()
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        res = run_pass(pipes, out_root)
        record_pass(res, pipes, passes[0] if passes else None, outcome,
                    "untraced")
        passes.append(res)
        if args.trace:
            with tracer.installed():
                tres = run_pass(pipes, out_root)
            record_pass(tres, pipes, passes[0], outcome, "traced")
            traced.append(tres)

    lines = ["# environment", *environment(args.workload, args.seed)]
    if args.trace:
        layer = spans.layer_metrics(tracer.spans, len(traced))
        layer["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                     - statistics.median(p.wall_s for p in passes))
        lines += ["# trace", *top_layers(layer)]
        (WORK / args.workload / "spans.json").write_text(
            json.dumps(tracer.dump()) + "\n")
        wanted, values = declared("per_layer"), layer
    else:
        values, notes = end_to_end(passes, pipes, setup_s)
        lines += ["# notes", *notes]
        wanted = declared("end_to_end")
    fail_frac = outcome.failed / outcome.attempted
    lines += [f"fail_frac {fail_frac:.4f} ({outcome.failed} of "
              f"{outcome.attempted} pipelines)", *outcome.problems[:20]]

    metrics = {}
    lines.append("# metrics")
    for name, unit in wanted:
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"{name:<36s} {values[name]:.6g} {unit}")
        elif outcome.failed == 0:
            raise RuntimeError(f"metric {name!r} was not measured")
    print("\n".join(lines))
    print(json.dumps({"correct": outcome.failed == 0 and len(metrics) == len(wanted),
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
