"""Benchmark of nclp's experiment suite, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload (see ``workloads.py``) is a
closed loop with one caller: the next experiment starts when the previous
one returns, and one pass runs every experiment of the workload once.
Passes repeat until the next one would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics from untraced passes;
``wall_s`` is corrected for the host's speed measured during each pass
(``speed.py``).
``--trace 1`` alternates untraced and traced passes and reports per-layer
span counts and self times (medians over traced passes) plus the tracing
overhead.  The last line of stdout is the JSON result; the line before it
holds the run's metadata (environment, per-pass times, mismatches).
"""
from __future__ import annotations

import argparse
import copy
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from spans import Tracer, installed
from speed import NOMINAL_REF_S, SpeedSampler
from workloads import ATTRIBUTE, LAYERS, WORKLOADS, expected_outcome, label

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3     # before and again after the passes, plus one per pass
SETUP_CODE = ("import sys, time; sys.path.insert(0, 'src'); "
              "import numpy, nclp; print(repr(time.monotonic()))")


def load_nclp(root: Path = ROOT):
    """Import nclp from ``root/src``; None when it is not there."""
    if not (root / "src" / "nclp" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(root / "src"))
    return importlib.import_module("nclp")


def experiments() -> list[str]:
    """Every experiment call's label, in workload order, once."""
    out = []
    for _, calls in WORKLOADS.values():
        for e, fields in calls:
            if label(e, fields) not in out:
                out.append(label(e, fields))
    return out


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in reporting order."""
    out = []
    for module, (functions, _) in LAYERS.items():
        for fn in functions:
            out += [(f"{module}.{fn}.calls", "count"),
                    (f"{module}.{fn}.self_s", "s")]
    out += [("pseudoloc.family_gram.flop", "flop"),
            ("pseudoloc.mats_mb", "MiB")]
    out += [(f"harness.{e}.wall_s", "s") for e in experiments()]
    out += [("harness.report.calls", "count"), ("harness.report.self_s", "s"),
            ("harness.cpu_s", "s"), ("trace.overhead_s", "s"),
            ("trace.gap_s", "s"), ("trace.wall_s", "s")]
    return out


def trace_targets() -> list[tuple[str, object, str]]:
    """(span name, module, attribute) for every traced function."""
    targets = []
    for module, (functions, _) in LAYERS.items():
        mod = sys.modules.get(f"nclp.{module}")
        targets += [(f"{module}.{fn}", mod, ATTRIBUTE.get(fn, fn))
                    for fn in functions]
    harness = sys.modules["nclp.harness"]
    targets += [("harness.report", harness, "Suite.report"),
                ("harness.report", harness, "report_json")]
    return targets


class ArrayCounters:
    """Counts computed from array shapes, not measured: the Gram flop count
    (one complex multiply-add is 8 flop, a real one 2) and the largest
    ``DiscOp.mats`` seen."""

    def __init__(self, disc_op_type):
        self.disc_op_type = disc_op_type
        self.flop = 0
        self.mats_bytes = 0

    def __call__(self, name, args, out):
        if name == "pseudoloc.family_gram":
            m, n, _ = args[0].shape
            self.flop += (8 if args[0].dtype.kind == "c" else 2) * m * n ** 3
        for x in out if isinstance(out, tuple) else (out,):
            if isinstance(x, self.disc_op_type):
                self.mats_bytes = max(self.mats_bytes, x.mats.nbytes)


def check_report(experiment: str, report: dict) -> list[str]:
    """Deviations of one report from the workload's expected outcome.

    An assertion deviates when it is missing, its ``measured`` value is not
    a finite number, or its PASS/FAIL differs from the expected one.
    Assertions that are not listed must PASS.
    """
    expected = expected_outcome(experiment)
    found = {a.get("name"): a for a in report.get("assertions", [])}
    if not found:
        return [f"{experiment}: no assertions"] * max(len(expected), 1)
    bad = [f"{experiment}.{n}: missing" for n in expected if n not in found]
    for name, a in found.items():
        measured = a.get("measured")
        if not isinstance(measured, (int, float)) \
                or not math.isfinite(measured):
            bad.append(f"{experiment}.{name}: measured {measured!r}")
        elif a.get("pass") is not expected.get(name, True):
            bad.append(f"{experiment}.{name}: pass={a.get('pass')!r}")
    return bad


def checks_in(experiment: str, report: dict) -> int:
    names = set(expected_outcome(experiment))
    names |= {a.get("name") for a in report.get("assertions", [])}
    return max(len(names), 1)


def run_pass(nclp, calls, seed: int, tracer: Tracer | None = None) -> dict:
    """Run every call once; the gate runs after the timed region.

    An untraced pass samples the host's speed (``speed.py``) and reports
    it as ``ref_s``; a traced pass does not, so that no span holds the
    kernels' time.  ``wall_s`` and ``cpu_s`` exclude the kernels' time.
    """
    harness = nclp.harness
    reports, errors = [], []
    sampler = SpeedSampler() if tracer is None else None
    with sampler or nullcontext():
        cpu0, t0 = time.process_time(), time.perf_counter()
        for experiment, fields in calls:
            cfg = harness.ExperimentConfig(experiment, seed=seed,
                                           **copy.deepcopy(fields))
            span = (tracer.span(f"harness.{label(experiment, fields)}")
                    if tracer else nullcontext())
            report = {"assertions": []}     # what a call that raised reports
            with span:
                try:
                    report = harness.run(cfg)
                    harness.report_json(report)
                except Exception as exc:   # counted, not fatal
                    errors.append(
                        f"{experiment}: {type(exc).__name__}: {exc}")
                    traceback.print_exc(file=sys.stderr)
            reports.append((experiment, report))
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    busy = sampler.busy_s if sampler else 0.0
    mismatches, checks = [], 0
    for experiment, report in reports:
        checks += checks_in(experiment, report)
        mismatches += check_report(experiment, report)
    return {"traced": tracer is not None, "wall_s": wall - busy,
            "cpu_s": cpu - busy, "ref_s": sampler.ref_s() if sampler else None,
            "attempted": len(calls), "failed": len(errors), "errors": errors,
            "checks": checks, "mismatches": mismatches, "tracer": tracer}


def measure_setup(root: Path, repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import numpy,
    nclp`` returns in it, ``repeats`` times."""
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


def blas_threads(np) -> int | None:
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(root: Path) -> dict:
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_lib = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError):
        blas_lib = "unknown"
    src_loc = sum(len(p.read_text(encoding="utf-8").splitlines())
                  for p in sorted((root / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_lib, "blas_threads": blas_threads(np),
            "nproc": os.cpu_count(), "src_loc": src_loc}


def run_passes(nclp, calls, seed: int, seconds: float, trace: bool,
               after_pass=None):
    """Passes until the next one would end after ``seconds``; with tracing,
    untraced and traced passes alternate, at least one of each.
    ``after_pass`` is called between passes, outside their timing."""
    modes = (False, True) if trace else (False,)
    targets = trace_targets() if trace else []
    counters = ArrayCounters(nclp.pseudoloc.DiscOp)
    observe = {name: counters for name, _, _ in targets
               if name.startswith("pseudoloc.")}
    passes, absent = [], set()
    deadline = time.perf_counter() + seconds
    while True:
        traced = modes[len(passes) % len(modes)]
        if len(passes) >= len(modes):
            estimate = statistics.median(p["wall_s"] for p in passes
                                         if p["traced"] == traced)
            if time.perf_counter() + estimate > deadline:
                break
        if traced:
            tracer = Tracer()
            with installed(tracer, targets, observe) as missing:
                passes.append(run_pass(nclp, calls, seed, tracer))
            absent.update(missing)
        else:
            passes.append(run_pass(nclp, calls, seed))
        if after_pass is not None:
            after_pass()
    return passes, counters, sorted(absent)


def layer_metrics(passes, counters) -> dict[str, float]:
    """Per-layer values in reporting order: medians over traced passes.

    ``trace.gap_s`` is the traced pass wall time that no listed function
    covers: harness code and unlisted helpers such as ``Op.__init__``.
    """
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    roots = {f"harness.{e}" for e in experiments()}
    rows = []
    for p in traced:
        spans = p["tracer"].by_name()
        row = {}
        for name, _ in per_layer_metrics():
            span, _, kind = name.rpartition(".")
            if kind in ("calls", "self_s"):
                row[name] = spans.get(span, {}).get(kind, 0)
            elif span in roots:
                row[name] = spans.get(span, {}).get("total_s", 0.0)
        listed = sum(s["self_s"] for n, s in spans.items() if n not in roots)
        row["trace.wall_s"] = p["wall_s"]
        row["trace.gap_s"] = p["wall_s"] - listed
        rows.append(row)
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["pseudoloc.family_gram.flop"] = counters.flop / len(traced)
    out["pseudoloc.mats_mb"] = counters.mats_bytes / 2 ** 20
    out["harness.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    out["trace.overhead_s"] = (out["trace.wall_s"]
                               - statistics.median(p["wall_s"] for p in plain))
    return {name: out[name] for name, _ in per_layer_metrics()}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    """The result as strict JSON: a non-finite value raises ValueError."""
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}},
                      allow_nan=False)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    nclp = load_nclp()
    if nclp is None:
        print(f"perfbench: no nclp package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    why, calls = WORKLOADS[args.workload]
    # Set-up is sampled before, between and after the passes, so that its
    # median spans the run as wall_s does.
    setup = measure_setup(ROOT, SETUP_REPEATS)
    passes, counters, absent = run_passes(
        nclp, calls, args.seed, args.seconds, bool(args.trace),
        after_pass=lambda: setup.extend(measure_setup(ROOT, 1)))
    setup += measure_setup(ROOT, SETUP_REPEATS)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    checks = sum(p["checks"] for p in passes)
    mismatches = [m for p in passes for m in p["mismatches"]]
    if args.trace:
        units = dict(per_layer_metrics())
        metrics = {k: (v, units[k])
                   for k, v in layer_metrics(passes, counters).items()}
    else:
        metrics = {
            "wall_s": (statistics.median(
                p["wall_s"] * NOMINAL_REF_S / p["ref_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MiB"),
            "ok_frac": (1 - failed / attempted, "ratio"),
            "check_match_frac": (1 - len(mismatches) / checks, "ratio"),
        }
    meta = {"workload": args.workload, "why": why, "seed": args.seed,
            "trace": args.trace, "env": environment(ROOT),
            "nominal_ref_s": NOMINAL_REF_S,
            "failed_frac": failed / attempted,
            "check_mismatch": len(mismatches),
            "setup_s": setup,
            "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s", "ref_s")}
                       for p in passes],
            "errors": sorted({e for p in passes for e in p["errors"]}),
            "untraced_targets": absent,
            "mismatches": sorted(set(mismatches))}
    print(json.dumps(meta, allow_nan=False))
    print(result_line(not mismatches and not failed, attempted, failed,
                      metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
