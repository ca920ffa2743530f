"""Same results: every benchmark configuration in the working tree against a
base revision.

    python3 tools/same_results.py [BASE]        # BASE defaults to HEAD

Run from anywhere inside the repository.  The base revision is extracted
with ``git archive`` into a temporary directory.  Each tree runs every
experiment call of ``perfbench/workloads.py`` (the working tree's list) at
seeds 0, 1 and 2 in one subprocess of its own.  The reports drop
``timestamp``, ``timing`` and ``env`` and are compared call by call:

* every assertion outcome and every trial's ``inputs_digest`` must be
  identical;
* every number of the trial metrics, aggregates, summary and assertion
  ``measured`` values must lie within 1e-12*|x| + 1e-14 of the base's x
  (NaN matches only NaN);
* everything else in the report (config, names, thresholds, trial PASS
  flags) must be identical.

The script prints one Markdown table row per workload:experiment and exits
with code 1 when any of these fails.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
REL_TOL, ABS_TOL = 1e-12, 1e-14
DROPPED = ("timestamp", "timing", "env")
NUMERIC = ("metrics", "aggregate", "summary", "measured")
NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}

# Runs in each tree with that tree's src/ first on sys.path; argv[1] is the
# perfbench directory whose workloads are run, argv[2] the seeds.
CHILD = """
import copy, json, sys
sys.path[:0] = ['src', sys.argv[1]]
from nclp import harness
from workloads import WORKLOADS
out = []
for seed in json.loads(sys.argv[2]):
    for workload, (_, calls) in WORKLOADS.items():
        for experiment, fields in calls:
            report = harness.run(harness.ExperimentConfig(
                experiment, seed=seed, **copy.deepcopy(fields)))
            out.append({"workload": workload, "experiment": experiment,
                        "seed": seed,
                        "report": json.loads(harness.report_json(report))})
print(json.dumps(out))
"""


def _number(x) -> float | None:
    """x as a float when it is a number or a non-finite spelling of the
    strict-JSON reports, else None (bools are not numbers)."""
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        return NON_FINITE.get(x)
    return None


def tolerance_used(base: float, change: float) -> float:
    """|change - base| / (REL_TOL*|base| + ABS_TOL): 0 when equal (NaN
    equals NaN), at most 1 within tolerance, inf when one side is not
    finite and the other differs."""
    if base == change or (math.isnan(base) and math.isnan(change)):
        return 0.0
    if not (math.isfinite(base) and math.isfinite(change)):
        return math.inf
    return abs(change - base) / (REL_TOL * abs(base) + ABS_TOL)


@dataclass
class Comparison:
    """One base report against one changed report."""

    outcomes_same: bool = True
    trials: int = 0
    digests_same: int = 0
    values: int = 0
    equal: int = 0
    within: int = 0
    worst: float = 0.0                  # largest tolerance_used
    differences: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.outcomes_same and self.digests_same == self.trials
                and self.within == self.values and not self.differences)


def _walk(base, change, path: str, numeric: bool, cmp: Comparison):
    """Compare two report subtrees: numbers inside a NUMERIC section with
    the tolerance, everything else exactly."""
    if isinstance(base, dict) and isinstance(change, dict) \
            and base.keys() == change.keys():
        for k in base:
            _walk(base[k], change[k], f"{path}.{k}",
                  numeric or k in NUMERIC, cmp)
        return
    if isinstance(base, list) and isinstance(change, list) \
            and len(base) == len(change):
        for i, (b, c) in enumerate(zip(base, change)):
            _walk(b, c, f"{path}[{i}]", numeric, cmp)
        return
    b, c = _number(base), _number(change)
    if numeric and b is not None and c is not None:
        used = tolerance_used(b, c)
        cmp.values += 1
        cmp.equal += used == 0.0
        cmp.within += used <= 1.0
        cmp.worst = max(cmp.worst, used)
        if used > 1.0:
            cmp.differences.append(_difference(path, base, change))
    elif base != change or type(base) is not type(change):
        cmp.differences.append(_difference(path, base, change))


def _difference(path: str, base, change) -> str:
    return f"{path}: {repr(base)[:60]} -> {repr(change)[:60]}"


def compare_reports(base: dict, change: dict) -> Comparison:
    """Outcomes, digests and numbers of two reports of the same call."""
    base, change = ({k: v for k, v in r.items() if k not in DROPPED}
                    for r in (base, change))
    cmp = Comparison()
    outcomes = [[(a.get("name"), a.get("pass"))
                 for a in r.get("assertions", [])] for r in (base, change)]
    cmp.outcomes_same = outcomes[0] == outcomes[1]
    digests = [[t.get("inputs_digest") for t in r.get("trials", [])]
               for r in (base, change)]
    cmp.trials = len(digests[0])
    cmp.digests_same = sum(b == c for b, c in zip(*digests)) \
        if len(digests[0]) == len(digests[1]) else 0
    _walk(base, change, "", False, cmp)
    return cmp


def table(rows: dict) -> str:
    """The Markdown table of (workload:experiment) -> [Comparison per
    seed]."""
    lines = [
        "| workload:experiment | trials | outcomes identical | inputs digests "
        "identical | values compared | values equal (`==`) | values within "
        "tolerance | worst \\|Δ\\| / tolerance |",
        "|---|---|---|---|---|---|---|---|"]
    for name, cmps in rows.items():
        trials = sum(c.trials for c in cmps)
        values = sum(c.values for c in cmps)
        lines.append(
            f"| {name} | {trials} "
            f"| {sum(c.outcomes_same for c in cmps)}/{len(cmps)} "
            f"| {sum(c.digests_same for c in cmps)}/{trials} "
            f"| {values} | {sum(c.equal for c in cmps)}/{values} "
            f"| {sum(c.within for c in cmps)}/{values} "
            f"| {max(c.worst for c in cmps):.3g} |")
    return "\n".join(lines)


def run_tree(tree: Path) -> list[dict]:
    """Every workload call at every seed, run in ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"),
         json.dumps(SEEDS)], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{tree}: the experiments failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def extract(rev: str, into: Path):
    """The committed files of ``rev``, by ``git archive``."""
    done = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True)
    if done.returncode != 0:
        sys.exit(f"git archive {rev}: {done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(into, filter="data")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?", default="HEAD",
                    help="the revision to compare against (default HEAD)")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.base, Path(tmp))
        base = run_tree(Path(tmp))
    change = run_tree(ROOT)
    rows, bad = {}, []
    for b, c in zip(base, change, strict=True):
        name = f"{b['workload']}:{b['experiment']}"
        cmp = compare_reports(b["report"], c["report"])
        rows.setdefault(name, []).append(cmp)
        if not cmp.ok:
            bad.append(f"{name} seed {b['seed']}: outcomes "
                       f"{'same' if cmp.outcomes_same else 'CHANGED'}, "
                       f"digests {cmp.digests_same}/{cmp.trials}, "
                       + "; ".join(cmp.differences[:5]))
    print(table(rows))
    print(f"\nseeds {', '.join(map(str, SEEDS))} against {args.base}; "
          f"tolerance {REL_TOL:g}*|x| + {ABS_TOL:g}; "
          f"{time.perf_counter() - start:.1f} s")
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
