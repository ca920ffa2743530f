"""Command-line entry point: ``nclp <experiment> [options]``."""
from __future__ import annotations

import argparse
import sys

from .errors import ContractViolation, NumericError
from .harness import (EXPERIMENTS, KERNELS, ExperimentConfig, all_pass,
                      report_json, run)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _range_pair(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise ContractViolation(f"bad range {text!r}: expected a..b with "
                                "integers a and b") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nclp",
        description="Numerical experiments for noncommutative martingale "
                    "decompositions and dyadic pseudo-localization.")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p.add_argument("--algebra", default=None,
                   help="tensor:N | grid:n,K,d")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda-exp", default=None, metavar="a..b",
                   help="inclusive range of base-2 exponents for the "
                        "lambda grid")
    p.add_argument("--s", default=None, metavar="a..b",
                   help="inclusive shift range")
    p.add_argument("--kernel", default=None, choices=sorted(KERNELS))
    p.add_argument("--depth", type=int, default=None,
                   help="grid depth K (pseudo-localization suites)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="json",
                   choices=["json", "csv", "both"])
    p.add_argument("--quiet", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lam = None
        if args.lambda_exp is not None:
            a, b = _range_pair(args.lambda_exp)
            lam = list(range(a, b + 1))
        fields = dict(
            algebra=args.algebra,
            trials=args.trials,
            seed=args.seed,
            lambda_exps=lam,
            s_range=_range_pair(args.s) if args.s is not None else None,
            kernel=args.kernel,
            depth=args.depth,
            out=args.out,
            format=args.format,
        )
        # an option left out takes its default from ExperimentConfig
        report = run(ExperimentConfig(args.experiment, **{
            k: v for k, v in fields.items() if v is not None}))
    except ContractViolation as exc:
        print(f"nclp: config/contract error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"nclp: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"nclp: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"nclp: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not args.quiet:
        if args.out:
            for a in report["assertions"]:
                tag = "PASS" if a["pass"] else "FAIL"
                print(f"{tag} {a['name']}: measured {a['measured']:.6g} "
                      f"vs threshold {a['threshold']:.6g}")
        else:
            print(report_json(report), end="")
    return EXIT_OK if all_pass(report) else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
