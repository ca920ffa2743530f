"""LAPACK and FFT counts: the eigen- and singular-value solves and the
Fourier transforms of every benchmark experiment in the working tree
against a base revision.

    python3 tools/lapack_counts.py [BASE]       # BASE defaults to HEAD

Run from anywhere inside the repository.  The base revision is extracted
with ``git archive`` as ``tools/same_results.py`` does.  Each tree runs
every experiment call of ``perfbench/workloads.py`` (the working tree's
list) once at seed 0, in one subprocess of its own, with
``np.linalg.eigh``, ``eigvalsh`` and ``svd`` and ``np.fft.fft``, ``ifft``,
``rfft`` and ``irfft`` wrapped by counters.  Each routine counts its calls
and its blocks:

- a LAPACK call on a stack of shape (*batch, d, d) is prod(batch) blocks
  of side d, under its ``hermitian`` flag (always true for ``eigh`` and
  ``eigvalsh``).  Closed forms for d <= 2 make no call and are not
  counted;
- an FFT call is one block per transformed vector, of side the transform
  length n, flag ``-``.  ``DiscOp.apply`` makes one inverse-transform
  call per application of T (``irfft``, or ``ifft`` on complex data), and
  nothing else calls ``irfft``, so its calls count the applications of
  real operators.

The counts depend on the code and the seed alone, not on the host.

The script prints a Markdown table: one row per workload:experiment,
routine, block side and flag, with the calls and blocks of the base and of
the working tree, then one total row per workload, routine and flag.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from same_results import ROOT, extract

SEED = 0

# Runs in each tree with that tree's src/ first on sys.path; argv[1] is the
# perfbench directory whose workloads are run.  It prints a JSON list of
# [workload:experiment, routine, side, flag, calls, blocks].
CHILD = """
import copy, json, math, sys
sys.path[:0] = ['src', sys.argv[1]]
import numpy as np
from nclp import harness
from workloads import WORKLOADS
counts = {}
current = None

def record(key, blocks):
    calls, total = counts.get(key, (0, 0))
    counts[key] = (calls + 1, total + blocks)

def lapack(name):
    solve = getattr(np.linalg, name)
    def counted(a, *args, **kwargs):
        shape = np.shape(a)
        record((current, name, shape[-1],
                name != 'svd' or bool(kwargs.get('hermitian', False))),
               math.prod(shape[:-2]))
        return solve(a, *args, **kwargs)
    return counted

def fourier(name):
    transform = getattr(np.fft, name)
    def counted(a, n=None, axis=-1, *args, **kwargs):
        shape = np.shape(a)
        if n is None:
            n = 2 * (shape[axis] - 1) if name == 'irfft' else shape[axis]
        record((current, name, n, '-'), math.prod(shape) // shape[axis])
        return transform(a, n, axis, *args, **kwargs)
    return counted

for name in ('eigh', 'eigvalsh', 'svd'):
    setattr(np.linalg, name, lapack(name))
for name in ('fft', 'ifft', 'rfft', 'irfft'):
    setattr(np.fft, name, fourier(name))
for workload, (_, calls) in WORKLOADS.items():
    for experiment, fields in calls:
        current = f'{workload}:{experiment}'
        harness.run(harness.ExperimentConfig(
            experiment, seed=%d, **copy.deepcopy(fields)))
print(json.dumps([list(k) + list(v) for k, v in counts.items()]))
""" % SEED


def run_tree(tree: Path) -> dict:
    """(workload:experiment, routine, side, flag) -> (calls, blocks), from
    every workload call run once in ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench")], cwd=tree,
        capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{tree}: the experiments failed:\n{done.stderr}")
    rows = json.loads(done.stdout.splitlines()[-1])
    return {tuple(r[:4]): tuple(r[4:]) for r in rows}


def table(base: dict, change: dict) -> str:
    """The Markdown table of two count maps of ``run_tree``."""
    lines = ["| workload:experiment | routine | side | hermitian | base "
             "calls | calls | Δ calls | base blocks | blocks | Δ blocks |",
             "|---|---|---|---|---|---|---|---|---|---|"]

    def row(name, routine, side, flag, b, c):
        lines.append(f"| {name} | {routine} | {side} | {flag} | {b[0]} "
                     f"| {c[0]} | {c[0] - b[0]:+d} | {b[1]} | {c[1]} "
                     f"| {c[1] - b[1]:+d} |")

    totals = {}     # (workload, routine, flag) -> base and change counts
    for key in sorted(base.keys() | change.keys()):
        b, c = base.get(key, (0, 0)), change.get(key, (0, 0))
        name, routine, side, flag = key
        row(name, routine, side, flag, b, c)
        t = totals.setdefault((name.split(":")[0], routine, flag), [0] * 4)
        t[:] = [x + y for x, y in zip(t, b + c)]
    for (workload, routine, flag), t in sorted(totals.items()):
        row(f"**{workload}**", routine, "all", flag, t[:2], t[2:])
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
    print(f"\nseed {SEED}; calls and blocks of LAPACK and FFT routines, "
          f"base {args.base} against the working tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
