"""Experiment registry: deterministic random instances, suite execution,
and JSON/CSV reporting."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import platform
import time
from dataclasses import asdict, dataclass, field
from functools import cache, wraps
from pathlib import Path
from typing import Callable

import numpy as np

from . import pseudoloc as pl
from .cuculescu import (cuculescu, cuculescu_report, delta_trunc, ladder_top,
                        pi_family, q_lambda)
from .czkit import (cz_decompose, cz_report, g_off_layer_report, g_off_layers,
                    thmB1_decompose, zeta, zeta_cube_inequalities, zeta_report)
from .errors import ContractViolation
from .filtration import GridFiltration, build_filtration
from .gundy import (cross_experiment, ergodic_coeffs, ergodic_row_bound,
                    gundy, gundy_verify, weak11_experiment)
from .martingale import (CoeffMatrix, Martingale, bmo_norms, function_bmo,
                         l2_identity_check, transform_family)
from .opcore import (Op, _op, l2_inner, l2_norm, mu_function, schatten_norm,
                     weak_l1)

ENVELOPE = 64.0

# trials per call of an experiment's runner: the batched runners stack this
# many martingales, which keeps their arrays, and so the peak memory, small
TRIAL_CHUNK = 8


@dataclass
class ExperimentConfig:
    experiment: str
    algebra: str | None = None
    trials: int | None = None
    seed: int = 0
    lambda_exps: list[int] | None = None
    s_range: tuple[int, int] | None = None
    kernel: str = "lp-bumps"
    depth: int | None = None
    out: str | None = None
    format: str = "json"

    def resolved(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ContractViolation(f"unknown experiment {self.experiment!r}")
        exp = EXPERIMENTS[self.experiment]
        for key, val in exp.defaults.items():
            if getattr(self, key) is None:
                setattr(self, key, val)
        if self.trials is not None and self.trials < 1:
            raise ContractViolation("trials >= 1 required")
        if self.kernel not in KERNELS:
            raise ContractViolation(f"unknown kernel {self.kernel!r}")
        if self.seed < 0:
            raise ContractViolation(f"seed must be >= 0, got {self.seed}")
        if self.lambda_exps is not None and len(self.lambda_exps) == 0:
            raise ContractViolation("empty lambda exponent range")
        # 2^e is a finite positive double exactly for -1074 <= e <= 1023
        for e in self.lambda_exps or []:
            if not -1074 <= e <= 1023:
                raise ContractViolation(f"lambda exponent {e} out of range: "
                                        f"2^{e} is not finite and positive")
        if self.s_range is not None and (
                len(self.s_range) != 2 or self.s_range[0] > self.s_range[1]):
            raise ContractViolation(f"bad shift range {self.s_range!r}: "
                                    "need a..b with a <= b")
        if exp.per_shift:
            self.trials = self.s_range[1] - self.s_range[0] + 1
        return self


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def random_op(algebra, rng, hermitian: bool = True) -> Op:
    g = rng.standard_normal((algebra.nblocks, algebra.d, algebra.d)) \
        + 1j * rng.standard_normal((algebra.nblocks, algebra.d, algebra.d))
    a = Op(g, algebra)
    return a.hermitize() if hermitian else a


def random_positive_top(filtration, rng) -> Op:
    """h = g g* normalized to tau(h) = 1."""
    g = random_op(filtration.algebra, rng, hermitian=False).blocks
    top = Op(np.einsum("bij,bkj->bik", g, g.conj()), filtration.algebra)
    # tau(h) as one np.dot over this trial's blocks alone, which rounds as
    # the draws always have, so every input digest stays; ``Op.trace`` sums
    # in another order
    tau = np.dot(np.einsum("bii->b", top.blocks), filtration.algebra.weights)
    return (1.0 / tau.real) * top


def random_positive_martingale(filtration, rng) -> Martingale:
    """f_k = E_k(h) for h = ``random_positive_top(filtration, rng)``."""
    return Martingale(filtration, random_positive_top(filtration, rng))


def random_positive_batch(filtration, chunk) -> Martingale:
    """The martingales of a chunk's trials as one batched Martingale, the
    trial axis first: each top is ``random_positive_top`` drawn from its
    own trial's generator."""
    return Martingale(filtration, _op(np.stack([
        random_positive_top(filtration, rng).blocks for rng, _ in chunk]),
        filtration.algebra))


def random_coeffs(k_max: int, m_max: int, rng,
                  normalize: str = "row-le-one") -> CoeffMatrix:
    e = rng.standard_normal((k_max, m_max))
    norms = np.sqrt((e ** 2).sum(axis=1, keepdims=True))
    norms[norms == 0] = 1.0
    if normalize == "row-eq-one":
        e = e / norms
    elif normalize == "row-le-one":
        scale = rng.uniform(0.2, 1.0, size=(k_max, 1))
        e = e / norms * scale
    else:
        raise ContractViolation(f"unknown normalization {normalize!r}")
    return CoeffMatrix(e)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, Op):
            h.update(np.ascontiguousarray(p.blocks).tobytes())
        elif isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass
class Suite:
    """Accumulates trial metrics, suite-level numbers (``summary``, such as
    a slope fitted across trials) and threshold rules into a report."""
    config: ExperimentConfig
    trials: list = field(default_factory=list)
    rules: list = field(default_factory=list)      # (assertion, metric, thr)
    summary: dict = field(default_factory=dict)

    def add_trial(self, inputs_digest: str, metrics: dict):
        clean = {}
        for k, v in metrics.items():
            clean[k] = float(v) if isinstance(v, (int, float, np.floating)) \
                else v
        self.trials.append({"id": len(self.trials),
                            "inputs_digest": inputs_digest,
                            "metrics": clean})

    def report(self) -> dict:
        agg = {}
        keys = sorted({k for t in self.trials for k in t["metrics"]
                       if isinstance(t["metrics"][k], float)})
        for k in keys:
            vals = [t["metrics"][k] for t in self.trials
                    if k in t["metrics"]]
            # np.max propagates a NaN wherever it sits; max() may drop it
            agg[k] = {"max": float(np.max(vals)),
                      "mean": sum(vals) / len(vals)}
        assertions = []
        for name, metric, thr in self.rules:
            # no PASS without a finite measurement: a metric missing from
            # the summary and every trial, or aggregating to -inf or NaN,
            # fails the rule
            measured = float(self.summary[metric]) if metric in self.summary \
                else agg.get(metric, {"max": float("nan")})["max"]
            assertions.append({"name": name, "threshold": thr,
                               "measured": measured,
                               "pass": bool(np.isfinite(measured)
                                            and measured <= thr)})
        # a trial answers for the trial-level rules; a metric it lacks is
        # NaN and fails
        for t in self.trials:
            t["pass"] = all(t["metrics"].get(m, np.nan) <= thr
                            for _, m, thr in self.rules
                            if m not in self.summary)
        cfg = {k: v for k, v in asdict(self.config).items()
               if v is not None and k not in ("out", "format")}
        return {"experiment": self.config.experiment,
                "config": cfg,
                "trials": self.trials,
                "aggregate": agg,
                "summary": dict(self.summary),
                "assertions": assertions,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _strict_json(x):
    """A copy of x with each non-finite float spelled "NaN", "Infinity" or
    "-Infinity", so that the report is strict JSON."""
    if isinstance(x, dict):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict_json(v) for v in x]
    if isinstance(x, float) and not np.isfinite(x):
        return "NaN" if np.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
    return x


def report_json(report: dict) -> str:
    return json.dumps(_strict_json(report), sort_keys=True, indent=1,
                      allow_nan=False) + "\n"


def report_csv(report: dict) -> str:
    keys = sorted({k for t in report["trials"] for k in t["metrics"]})
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["id", "inputs_digest", "pass"] + keys)
    for t in report["trials"]:
        w.writerow([t["id"], t["inputs_digest"], t["pass"]]
                   + [t["metrics"].get(k, "") for k in keys])
    return buf.getvalue()


def write_report(report: dict, out: str, fmt: str):
    if fmt in ("json", "both"):
        with open(out + ".json" if not out.endswith(".json") else out,
                  "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    if fmt in ("csv", "both"):
        path = out[:-5] + ".csv" if out.endswith(".json") else out + ".csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(report_csv(report))


def all_pass(report: dict) -> bool:
    return all(a["pass"] for a in report["assertions"])


# ---------------------------------------------------------------------------
# experiment bodies: each trial function returns (inputs to digest, metrics);
# a chunk runner returns one such pair per (rng, t) of its chunk
# ---------------------------------------------------------------------------

def per_trial(trial: Callable) -> Callable:
    """The chunk runner of a runner of one trial, trial(cfg, ctx, rng, t):
    it runs the chunk's trials one at a time, in order."""
    @wraps(trial)
    def run_chunk(cfg, ctx, chunk):
        return [trial(cfg, ctx, rng, t) for rng, t in chunk]
    return run_chunk


def _filtration(cfg):
    return build_filtration(cfg.algebra)


@per_trial
def _norms(cfg, filt, rng, t):
    alg = filt.algebra
    a = random_op(alg, rng)
    b = random_op(alg, rng)
    mu = mu_function(a)
    holder = 0.0
    for p, q in ((2.0, 2.0), (4.0, 4.0 / 3.0), (1.0, np.inf)):
        lhs = abs((a @ b).trace())
        holder = max(holder, lhs - schatten_norm(a, p) * schatten_norm(b, q))
    return (a, b), {
        "holder_excess": max(holder, 0.0),
        "l1_mu_residual": abs(schatten_norm(a, 1) - mu.integral()),
        "weak_sup_residual": abs(weak_l1(a) - mu.sup_t_mu()),
        "l2_inner_residual": abs(l2_inner(a, a) - l2_norm(a) ** 2),
    }


# The runners below reduce their per-threshold arrays with np.max, which
# keeps a NaN wherever it sits: the builtin max(0.0, nan) is 0.0 and would
# turn a failed check into a PASS.

def _max_over_lambda(per_lam: dict, trials: int) -> list[dict]:
    """Each trial's metrics from arrays shaped (lambda, trial): the max over
    the thresholds."""
    return [{key: np.max(val[:, i]) for key, val in per_lam.items()}
            for i in range(trials)]


def _cuculescu(cfg, filt, chunk):
    lams = 2.0 ** np.asarray(cfg.lambda_exps, dtype=float)
    f = random_positive_batch(filt, chunk)
    rep = cuculescu_report(cuculescu(f, lams))
    metrics = _max_over_lambda({
        "commutator": rep["commutator"],
        "compression_excess": rep["compression_excess"],
        "tail_excess": lams[:, None] * rep["tail_trace"] - f.sup_l1,
    }, len(chunk))
    return [((f.top[i], cfg.lambda_exps), m) for i, m in enumerate(metrics)]


@per_trial
def _gundy(cfg, filt, rng, t):
    exps = np.asarray(cfg.lambda_exps)
    f = random_positive_martingale(filt, rng)
    # one recursion on a pi ladder that covers every requested exponent, so
    # each one's truncation is measured; the Gundy split runs on its slice
    l_min = exps.min() - 1
    seq = cuculescu(f, 2.0 ** np.arange(
        l_min, max(exps.max(), ladder_top(f)) + 1, dtype=float))
    pi = pi_family(seq)
    parts = gundy(seq[exps - l_min])
    dg, q = parts.d_gamma, q_lambda(parts.seq)[:, None]
    rep = gundy_verify(parts)
    # max_abs over the whole batch is the max over every threshold
    return (f.top, cfg.lambda_exps), {
        "recon_residual": (parts.d_alpha + parts.d_beta + dg
                           - f.diffs).max_abs(),
        "mart_residual": np.max([f.expect_each(x, lag=1).max_abs()
                                 for x in (parts.d_alpha, parts.d_beta, dg)]),
        "gamma_annihilation": (q @ dg @ q).max_abs(),
        "trunc_residual": delta_trunc(dg, pi, exps).max_abs(),
        "alpha_ratio": np.max(rep["alpha"], initial=0.0),
        "beta_ratio": np.max(rep["beta"], initial=0.0),
        "gamma_ratio": np.max(rep["gamma"], initial=0.0),
    }


@per_trial
def _transform_weak11(cfg, filt, rng, t):
    f = random_positive_martingale(filt, rng)
    xi = random_coeffs(len(f.diffs), 4, rng, "row-eq-one")
    return (f.top, xi.entries), weak11_experiment(f, xi, cfg.lambda_exps)


@per_trial
def _transform_l2(cfg, filt, rng, t):
    f = Martingale(filt, random_op(filt.algebra, rng))
    nsq = max(l2_norm(f.top) ** 2, 1e-300)
    unit = random_coeffs(len(f.diffs), 4, rng, "row-eq-one")
    gen = random_coeffs(len(f.diffs), 4, rng, "row-le-one")
    return (f.top, unit.entries, gen.entries), {
        "unit_row_residual": l2_identity_check(f, unit) / nsq,
        "weighted_residual": l2_identity_check(f, gen) / nsq,
    }


@per_trial
def _bmo(cfg, filt, rng, t):
    f = Martingale(filt, random_op(filt.algebra, rng))
    xi = CoeffMatrix(rng.uniform(-1.0, 1.0, size=(len(f.diffs), 1)))
    g = Martingale(filt, transform_family(f, xi)[0])
    _, _, bf = bmo_norms(f)
    _, _, bg = bmo_norms(g)
    return (f.top, xi.entries), {
        "bmo_f": bf, "bmo_transform": bg,
        "transform_bmo_excess": max(bg - bf, 0.0),
    }


@per_trial
def _ergodic(cfg, filt, rng, t):
    f = random_positive_martingale(filt, rng)
    k_max = len(f.diffs)
    xi = ergodic_coeffs(m_max=k_max + 4)
    xi = CoeffMatrix(xi.entries[:k_max])
    rep = weak11_experiment(f, xi, cfg.lambda_exps)
    nsq = max(l2_norm(f.top) ** 2, 1e-300)
    return (f.top, xi.entries), {
        "row_ratio": rep["row_ratio"],
        "col_ratio": rep["col_ratio"],
        "weighted_residual": l2_identity_check(f, xi) / nsq,
        "row_bound_10k": ergodic_row_bound(10_000),
    }


@per_trial
def _cross(cfg, filt, rng, t):
    f = random_positive_martingale(filt, rng)
    k = len(f.diffs)
    rho = random_coeffs(k, 3, rng, "row-eq-one")
    eta = random_coeffs(k, 3, rng, "row-eq-one")
    return (f.top, rho.entries, eta.entries), cross_experiment(f, rho, eta)


def _cz(cfg, filt, chunk):
    lams = 2.0 ** np.asarray(cfg.lambda_exps, dtype=float)
    f = random_positive_batch(filt, chunk)
    rep = cz_report(cz_decompose(f, lams))
    metrics = _max_over_lambda({
        "reconstruction_residual": rep["reconstruction_residual"],
        "g_d_excess": rep["g_d_l2sq"] - rep["g_d_bound"],
        "b_d_excess": rep["b_d_l1_sum"] - rep["b_d_bound"],
    }, len(chunk))
    return [((f.top[i], cfg.lambda_exps), m) for i, m in enumerate(metrics)]


def _zeta(cfg, filt, chunk):
    lams = 2.0 ** np.asarray(cfg.lambda_exps, dtype=float)
    f = random_positive_batch(filt, chunk)
    parts = cz_decompose(f, lams)
    zd = zeta(parts)
    ineq = zeta_cube_inequalities(zd)
    lay = g_off_layer_report(parts, g_off_layers(parts))
    per_lam = {
        "excised_mass_ratio": zeta_report(zd)["excised_mass_ratio"],
        "cube_ineq_violation": -np.minimum(ineq["strong_min_eig"],
                                           ineq["weak_min_eig"]),
        "layer_sum_residual": lay["sum_residual"],
        "layer_support_residual": lay["support_residual"],
        "layer_orthogonality_residual": lay["layer_orthogonality_residual"],
        "layer_ratio": lay["sup_layer_ratio"]}
    # the max over the thresholds starts at 0, not at _max_over_lambda's
    # first value: cube_ineq_violation is at or below 0 wherever the
    # inequalities hold, and reads 0 there
    return [((f.top[i], cfg.lambda_exps),
             {key: np.max(val[:, i], initial=0.0)
              for key, val in per_lam.items()}) for i in range(len(chunk))]


@per_trial
def _thmB1(cfg, filt, rng, t):
    f = random_positive_martingale(filt, rng)
    xi = random_coeffs(len(f.diffs), 3, rng, "row-eq-one")
    fam = transform_family(f, xi)
    l_max = ladder_top(f)
    split = thmB1_decompose(fam, f, (l_max - 6, l_max))
    recon = split.center + split.a_part + split.b_part - fam
    return (f.top, xi.entries), {
        "reconstruction_residual": recon.max_abs(),
        "center_l2": l2_norm(split.center).max(),
        "a_l2": l2_norm(split.a_part).max(),
        "b_l2": l2_norm(split.b_part).max(),
    }


# -- pseudo-localization suites ---------------------------------------------

# kernel name -> its constructor at depth K
KERNELS = {"lp-bumps": lambda K: pl.lp_bumps_kernel(M=K),
           "hilbert": lambda K: pl.hilbert_kernel(),
           "annuli": lambda K: pl.annuli_kernel(K)}


def _operator(cfg):
    """The normalized operator of the configured kernel at cfg.depth."""
    K = cfg.depth
    return pl.normalized(pl.assemble(KERNELS[cfg.kernel](K), K))


def _localized_scalar(N, K, s, rng):
    """Random f on a short arc with coarse differences removed.

    Cutting below level j0 >= s keeps the finite-grid telescope honest and,
    when j0 >= s+3, leaves the coarse bad sets empty so the 9-fold dilations
    do not swallow the whole torus.
    """
    f = np.zeros(N)
    width = max(N // 64, 2)
    start = int(rng.integers(0, N))
    idx = (start + np.arange(width)) % N
    f[idx] = rng.standard_normal(width)
    j0 = max(min(s + 3, K - 1), s - 1)
    c = pl.haar(f)
    c[:1 << j0] = 0.0                   # f - E_{j0} f
    return pl.ihaar(c, N)


def _row0(T):
    """Row 0 of T's first kernel matrix: c[(-j) mod N] of its column c."""
    return np.roll(T.column[0, ::-1], 1)


def _decay_setup(cfg):
    s_lo, s_hi = cfg.s_range
    for s in (s_lo, s_hi):         # before any shift sizes an index
        pl._check_s(cfg.depth, s)
    T = _operator(cfg)
    # ||Phi_s||: the largest norm of its blocks on the dyadic periods, built
    # once for every shift (T0 = T: rho = T*1 is constant, so Pi_rho = 0);
    # ||Psi_s||: ``psi_s_norm``
    return T, pl.phi_s_blocks(T, s_lo)


@per_trial
def _decay(cfg, ctx, rng, t):
    T, blocks = ctx
    s = cfg.s_range[0] + t
    phi = pl.phi_s_norm(blocks, s)
    psi = pl.psi_s_norm(T, s)
    f = _localized_scalar(T.N, T.K, s, rng)
    chk = pl.commutative_pseudoloc_check(T, f, s)
    return (np.array([s]), _row0(T)), {
        "s": float(s), "phi_norm": phi, "psi_norm": psi,
        "comm_ratio": chk["ratio"],
    }


def _slope(xs, ys):
    """Least-squares slope of log2(y) against x."""
    # identically-zero entries (the torus truncation empties the far
    # truncated pieces) carry no slope information
    pts = [(x, np.log2(y)) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:    # no slope: NaN fails every rule that reads it
        return float("nan")
    return float(np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0])


def _decay_summary(cfg, ctx, trials):
    svals = [m["s"] for m in trials]
    psin = [m["psi_norm"] for m in trials]
    sl_phi = _slope(svals, [m["phi_norm"] for m in trials])
    sl_psi = _slope(svals, psin)
    return dict(psi_zero_count=float(sum(v == 0.0 for v in psin)),
                phi_slope=sl_phi, psi_slope=sl_psi,
                phi_slope_neg=-sl_phi, psi_slope_neg=-sl_psi)


def _ksk_setup(cfg):
    s = cfg.s_range[0]
    if cfg.depth <= s:    # no level k with k + s < depth: nothing to check
        raise ContractViolation(f"ksk needs depth > s, got depth "
                                f"{cfg.depth} and s = {s}")


@per_trial
def _ksk(cfg, ctx, rng, t):
    K, s = cfg.depth + t, cfg.s_range[0]
    T = pl.assemble(KERNELS[cfg.kernel](K), K)
    # fmax skips a level with no far pair (NaN); a trial with none fails
    resid, size_c = 0.0, np.nan
    for k in range(0, min(3, K - s)):
        rep = pl.ksk_check(T, s, k, n_pairs=70, rng=rng)
        resid = np.maximum(resid, rep["max_residual"])
        size_c = np.fmax(size_c, rep["size_constant"])
    return ((np.array([K, s]), _row0(T)),
            {"max_residual": resid, "size_constant": size_c})


@per_trial
def _paraproduct(cfg, T, rng, t):
    f = rng.standard_normal(T.N)
    rep = pl.paraproduct_bound_report(T, f)
    return (f, _row0(T)), {
        "lhs": rep["lhs"], "bound": rep["bound"],
        "excess": max(rep["lhs"] - rep["bound"], 0.0),
    }


def _vanish_setup(cfg):
    T = _operator(cfg)
    s_lo, s_hi = cfg.s_range
    return T, pl.adjoint_one(T), {s: pl.phi_psi_hat(T, s)
                                  for s in range(s_lo, s_hi + 1)}


@per_trial
def _vanish(cfg, ctx, rng, t):
    T, rho, hats = ctx
    worst = worst_rest = 0.0
    for s, hat in hats.items():
        f = _localized_scalar(T.N, T.K, s, rng)
        worst = np.maximum(worst, pl.vanish_check(rho, f, s))
        rest = pl.restriction_identity_residual(T, f, s, hat)
        worst_rest = np.maximum(worst_rest, rest)
    return (np.array([t]), _row0(T)), {
        "vanish_residual": worst,
        "restriction_residual": worst_rest,
    }


def _localization_setup(cfg):
    if cfg.depth < 7:   # r1 is drawn from [4/N, 0.05], which needs N >= 80
        raise ContractViolation(f"localization needs depth >= 7, "
                                f"got {cfg.depth}")
    return _operator(cfg)


@per_trial
def _localization(cfg, T, rng, t):
    x0 = float(rng.uniform(0, 1))
    r1 = float(rng.uniform(4.0 / T.N, 0.05))
    r2 = float(rng.uniform(2.2 * r1, 0.45))
    rep = pl.localization_check(T, x0, r1, r2)
    return (np.array([x0, r1, r2]),), {
        "value": rep["value"], "ratio": rep["ratio"],
    }


def _nc_pseudoloc_setup(cfg):
    filt = _filtration(cfg)
    if not isinstance(filt, GridFiltration) or filt.n != 1:
        raise ContractViolation("nc-pseudoloc needs a grid:1,K,d algebra")
    s_lo, s_hi = cfg.s_range
    for s in (s_lo, s_hi):
        pl._check_s(filt.K, s)
    T = pl.normalized(pl.assemble(KERNELS[cfg.kernel](filt.K), filt.K))
    return filt, T, {s: pl.phi_psi_hat(T, s) for s in range(s_lo, s_hi + 1)}


@per_trial
def _nc_pseudoloc(cfg, ctx, rng, t):
    filt, T, hats = ctx
    f = random_positive_martingale(filt, rng)
    m = {"ratio": 0.0, "identity_residual": 0.0, "zeta_trace": 0.0}
    parts = cz_decompose(f, [1.0, 2.0, 4.0])
    layers = g_off_layers(parts)["layers"]
    for i in range(len(parts.lam)):
        for s, hat in hats.items():
            g_s = layers[i, s - 1]
            if g_s.max_abs() < 1e-13:
                continue
            rep = pl.nc_pseudoloc_check(T, g_s, s, filt, parts.qs[i], hat)
            for key in m:
                m[key] = np.maximum(m[key], rep[key])
    return (f.top,), m


def _nc_scalar_reduction(cfg, ctx, trials):
    """nc-pseudoloc's summary, the d = 1 reduction: commuting projections
    built from the difference supports make zeta_{f,s} the indicator of the
    commutative complement-of-Sigma mask, so the compressed norm must
    reproduce the scalar outside norm.

    The CZ layers themselves are vacuous at d = 1 (q df p = 0 pointwise for
    commuting 0/1 projections), hence the support-driven construction here.
    """
    # the trials' kernel keeps M at the algebra's depth; a kernel rebuilt
    # from the config at the larger K below would not
    T = ctx[1]
    K = max(T.K, cfg.s_range[1] + 5)   # keep coarse bad sets empty
    T = pl.normalized(pl.assemble(T.kernel, K))
    filt1 = GridFiltration(1, K, 1)
    rng = trial_rng(cfg.seed, 10_000)
    worst = 0.0
    for s in range(cfg.s_range[0], cfg.s_range[1] + 1):
        f = _localized_scalar(T.N, K, s, rng)
        good = [np.repeat(~bad, T.N >> k)
                for k, bad in enumerate(pl.support_cubes(f, s, K))]
        q_list = _op(np.array(good)[..., None, None], filt1.algebra)
        fop = Op(f.astype(complex)[:, None, None], filt1.algebra)
        rep = pl.nc_pseudoloc_check(T, fop, s, filt1, q_list)
        chk = pl.commutative_pseudoloc_check(T, f, s)
        worst = np.maximum(worst,
                           abs(rep["compressed_norm"] - chk["outside_norm"]))
    return {"reduction_residual": float(worst)}


def _bmo_czo_setup(cfg):
    K = cfg.depth
    return pl.assemble(pl.annuli_kernel(K), K), GridFiltration(1, K, 1)


@per_trial
def _bmo_czo(cfg, ctx, rng, t):
    T, filt = ctx
    f = rng.uniform(-1.0, 1.0, size=T.N)
    tf = T.apply(f)
    lhs = T.measure * (np.abs(tf) ** 2).sum()
    rhs = T.measure * (np.abs(f - f.mean()) ** 2).sum()
    br, bc = function_bmo(filt, _op(tf[..., None, None], filt.algebra))
    ratio = max(br, bc) / max(np.abs(f).max(), 1e-300)
    return (f,), {
        "annuli_identity_residual": abs(lhs - rhs) / max(rhs, 1e-300),
        "linf_to_bmo_ratio": ratio,
    }


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One experiment as ``run`` executes it.

    ``trial(cfg, ctx, chunk)`` runs a chunk of at most ``TRIAL_CHUNK``
    trials, given as (rng, t) pairs in order, and returns one (inputs to
    digest, metrics) pair per trial; ``per_trial`` makes one from a runner
    of a single trial.  ``defaults`` fills the config fields left at None;
    ``rules`` are (assertion, metric, threshold) triples.  ``setup(cfg)``
    builds the ``ctx`` the trials share and rejects options they cannot run
    with, and ``summary(cfg, ctx, trials)`` maps the trials' metrics to
    suite-level numbers.  With ``per_shift`` the trials are the shifts
    s_lo..s_hi, and all of them draw from the one generator of trial 0.
    """
    trial: Callable
    defaults: dict
    rules: tuple
    setup: Callable = _filtration
    summary: Callable = lambda cfg, ctx, trials: {}
    per_shift: bool = False


EXPERIMENTS = {
    "norms": Experiment(_norms, {"algebra": "tensor:3", "trials": 16}, (
        ("holder", "holder_excess", 1e-8),
        ("l1_equals_mu_integral", "l1_mu_residual", 1e-8),
        ("weak_l1_equals_sup_t_mu", "weak_sup_residual", 1e-8),
        ("l2_inner", "l2_inner_residual", 1e-8))),
    "cuculescu": Experiment(_cuculescu, {
        "algebra": "tensor:4", "trials": 100,
        "lambda_exps": list(range(-2, 5))}, (
        ("commutation", "commutator", 1e-8),
        ("compression_below_lambda", "compression_excess", 1e-8),
        ("maximal_weak_l1_constant_one", "tail_excess", 1e-8))),
    "gundy": Experiment(_gundy, {
        "algebra": "tensor:4", "trials": 12, "lambda_exps": [-1, 0, 1, 2]}, (
        ("reconstruction", "recon_residual", 1e-10),
        ("parts_are_martingales", "mart_residual", 1e-10),
        ("gamma_annihilated", "gamma_annihilation", 1e-10),
        ("gamma_triangular_truncation_vanishes", "trunc_residual", 1e-10),
        ("alpha_envelope", "alpha_ratio", ENVELOPE),
        ("beta_envelope", "beta_ratio", ENVELOPE),
        ("gamma_constant_one", "gamma_ratio", 1.0 + 1e-8))),
    "transform-weak11": Experiment(_transform_weak11, {
        "algebra": "tensor:4", "trials": 12,
        "lambda_exps": list(range(-8, 9))}, (
        ("row_weak11_envelope", "row_ratio", ENVELOPE),
        ("col_weak11_envelope", "col_ratio", ENVELOPE))),
    "transform-l2": Experiment(_transform_l2, {
        "algebra": "tensor:4", "trials": 16}, (
        ("isometry_unit_rows", "unit_row_residual", 1e-10),
        ("weighted_identity", "weighted_residual", 1e-10))),
    "bmo": Experiment(_bmo, {"algebra": "tensor:4", "trials": 12}, (
        ("contractive_transform_bmo", "transform_bmo_excess", 1e-8),)),
    "ergodic": Experiment(_ergodic, {
        "algebra": "tensor:4", "trials": 8,
        "lambda_exps": list(range(-8, 9))}, (
        ("coefficient_rows_at_most_one", "row_bound_10k", 1.0 + 1e-12),
        ("row_weak11_envelope", "row_ratio", ENVELOPE),
        ("col_weak11_envelope", "col_ratio", ENVELOPE),
        ("weighted_identity", "weighted_residual", 1e-10))),
    "cross": Experiment(_cross, {"algebra": "tensor:3", "trials": 8}, (
        ("cross_term_envelope", "ratio", ENVELOPE),)),
    "cz": Experiment(_cz, {
        "algebra": "grid:1,4,2", "trials": 100,
        "lambda_exps": list(range(0, 5))}, (
        ("reconstruction", "reconstruction_residual", 1e-10),
        ("diagonal_good_part_l2", "g_d_excess", 1e-8),
        ("diagonal_bad_part_l1", "b_d_excess", 1e-8))),
    "zeta": Experiment(_zeta, {
        "algebra": "grid:1,4,2", "trials": 25,
        "lambda_exps": list(range(0, 5))}, (
        ("excised_mass_9n", "excised_mass_ratio", 1.0 + 1e-8),
        ("cube_operator_inequalities", "cube_ineq_violation", 1e-8),
        ("off_diagonal_layer_sum", "layer_sum_residual", 1e-10),
        ("layer_support", "layer_support_residual", 1e-10),
        ("layer_orthogonality", "layer_orthogonality_residual", 1e-8),
        ("layer_l2_envelope", "layer_ratio", ENVELOPE))),
    "thmB1": Experiment(_thmB1, {"algebra": "grid:1,4,2", "trials": 8}, (
        ("reconstruction", "reconstruction_residual", 1e-10),)),
    "pseudoloc-decay": Experiment(_decay, {"depth": 8, "s_range": (3, 6)}, (
        ("phi_slope_upper", "phi_slope", -0.35),
        ("phi_slope_lower", "phi_slope_neg", 0.65),
        ("psi_slope_upper", "psi_slope", -0.35),
        ("psi_slope_lower", "psi_slope_neg", 0.65),
        ("pseudoloc_envelope", "comm_ratio", ENVELOPE)),
        _decay_setup, _decay_summary, per_shift=True),
    "ksk": Experiment(_ksk, {"trials": 3, "depth": 6, "s_range": (2, 2)}, (
        ("two_bump_kernel_identity", "max_residual", 1e-8),
        ("kernel_size_envelope", "size_constant", ENVELOPE)), _ksk_setup),
    "paraproduct": Experiment(_paraproduct, {"trials": 16, "depth": 7}, (
        ("paraproduct_bmo_bound", "excess", 1e-8),), _operator),
    "vanish": Experiment(_vanish, {
        "trials": 12, "depth": 7, "s_range": (2, 4)}, (
        ("paraproduct_term_vanishes_outside", "vanish_residual", 1e-10),
        ("restriction_identity", "restriction_residual", 1e-9)),
        _vanish_setup),
    "localization": Experiment(_localization, {"trials": 16, "depth": 8}, (
        ("ball_pairing_log_envelope", "ratio", ENVELOPE),),
        _localization_setup),
    "nc-pseudoloc": Experiment(_nc_pseudoloc, {
        "algebra": "grid:1,6,2", "trials": 6, "s_range": (2, 4)}, (
        ("compressed_norm_envelope", "ratio", ENVELOPE),
        ("restriction_identity", "identity_residual", 1e-9),
        ("scalar_reduction", "reduction_residual", 1e-9)),
        _nc_pseudoloc_setup, _nc_scalar_reduction),
    "bmo-czo": Experiment(_bmo_czo, {"trials": 12, "depth": 7}, (
        ("annuli_square_function_identity", "annuli_identity_residual",
         1e-10),
        ("linf_to_bmo_envelope", "linf_to_bmo_ratio", ENVELOPE)),
        _bmo_czo_setup),
}


@cache
def blas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy loaded (a wheel's
    ``numpy.libs``), asked once per process; None when it is not found."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    """The interpreter, numpy, the BLAS numpy was built against and the
    thread count of the one it loaded."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name, version = blas["name"], blas.get("version", "unknown")
    except (AttributeError, KeyError):
        name = version = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": name, "blas_version": version,
            "blas_threads": blas_threads()}


def run(config: ExperimentConfig) -> dict:
    """Set up, run the trials with their own generators, ``TRIAL_CHUNK`` at
    a time, summarize, and judge the rules; ``timing`` holds the wall time
    of each phase."""
    exp = EXPERIMENTS[config.resolved().experiment]
    suite = Suite(config, rules=list(exp.rules))
    start = time.perf_counter()
    ctx = exp.setup(config)
    set_up = time.perf_counter()
    shared = trial_rng(config.seed, 0)
    for first in range(0, config.trials, TRIAL_CHUNK):
        ts = range(first, min(first + TRIAL_CHUNK, config.trials))
        # with per_shift, every shift draws from trial 0's generator
        chunk = [(shared if exp.per_shift else trial_rng(config.seed, t), t)
                 for t in ts]
        for inputs, metrics in exp.trial(config, ctx, chunk):
            suite.add_trial(digest(*inputs), metrics)
    trials_done = time.perf_counter()
    suite.summary.update(exp.summary(config, ctx,
                                     [t["metrics"] for t in suite.trials]))
    summarized = time.perf_counter()
    report = suite.report()
    report["timing"] = {"setup_s": set_up - start,
                        "trials_s": trials_done - set_up,
                        "summary_s": summarized - trials_done,
                        "wall_s": time.perf_counter() - start}
    report["env"] = environment()
    if config.out:
        write_report(report, config.out, config.format)
    return report
