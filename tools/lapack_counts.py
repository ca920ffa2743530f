"""LAPACK counts: the eigen- and singular-value solves of every benchmark
experiment in the working tree against a base revision.

    python3 tools/lapack_counts.py [BASE]       # BASE defaults to HEAD

Run from anywhere inside the repository.  The base revision is extracted
with ``git archive`` as ``tools/same_results.py`` does.  Each tree runs
every experiment call of ``perfbench/workloads.py`` (the working tree's
list) once at seed 0, in one subprocess of its own, with
``np.linalg.eigh``, ``eigvalsh`` and ``svd`` wrapped by counters.  A call
on a stack of shape (*batch, d, d) counts prod(batch) blocks of side d,
under its routine and its ``hermitian`` flag (always true for ``eigh`` and
``eigvalsh``).  Closed forms for d <= 2 make no call and are not counted.
The counts depend on the code and the seed alone, not on the host.

The script prints a Markdown table: one row per workload:experiment,
routine, block side and flag, with the blocks of the base and of the
working tree, then one total row per workload, routine and flag.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from same_results import ROOT, extract

SEED = 0

# Runs in each tree with that tree's src/ first on sys.path; argv[1] is the
# perfbench directory whose workloads are run.  It prints a JSON list of
# [workload:experiment, routine, side, hermitian, blocks].
CHILD = """
import copy, json, math, sys
sys.path[:0] = ['src', sys.argv[1]]
import numpy as np
from nclp import harness
from workloads import WORKLOADS
counts = {}
current = None

def counting(name):
    lapack = getattr(np.linalg, name)
    def counted(a, *args, **kwargs):
        shape = np.shape(a)
        key = (current, name, shape[-1],
               name != 'svd' or bool(kwargs.get('hermitian', False)))
        counts[key] = counts.get(key, 0) + math.prod(shape[:-2])
        return lapack(a, *args, **kwargs)
    return counted

for name in ('eigh', 'eigvalsh', 'svd'):
    setattr(np.linalg, name, counting(name))
for workload, (_, calls) in WORKLOADS.items():
    for experiment, fields in calls:
        current = f'{workload}:{experiment}'
        harness.run(harness.ExperimentConfig(
            experiment, seed=%d, **copy.deepcopy(fields)))
print(json.dumps([list(k) + [v] for k, v in counts.items()]))
""" % SEED


def run_tree(tree: Path) -> dict:
    """(workload:experiment, routine, side, hermitian) -> blocks, from
    every workload call run once in ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench")], cwd=tree,
        capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{tree}: the experiments failed:\n{done.stderr}")
    rows = json.loads(done.stdout.splitlines()[-1])
    return {tuple(r[:4]): r[4] for r in rows}


def table(base: dict, change: dict) -> str:
    """The Markdown table of two count maps of ``run_tree``."""
    lines = ["| workload:experiment | routine | side | hermitian | base "
             "blocks | blocks | Δ |", "|---|---|---|---|---|---|---|"]
    totals = Counter(), Counter()
    for key in sorted(base.keys() | change.keys()):
        b, c = base.get(key, 0), change.get(key, 0)
        name, routine, side, herm = key
        lines.append(f"| {name} | {routine} | {side} | {herm} | {b} | {c} "
                     f"| {c - b:+d} |")
        total = (name.split(":")[0], routine, "all", herm)
        totals[0][total] += b
        totals[1][total] += c
    for key in sorted(totals[0].keys() | totals[1].keys()):
        b, c = totals[0][key], totals[1][key]
        lines.append(f"| **{key[0]}** | {key[1]} | all | {key[3]} | {b} "
                     f"| {c} | {c - b:+d} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?", default="HEAD",
                    help="the revision to compare against (default HEAD)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.base, Path(tmp))
        base = run_tree(Path(tmp))
    change = run_tree(ROOT)
    print(table(base, change))
    print(f"\nseed {SEED}; blocks of LAPACK calls, base {args.base} "
          "against the working tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
