"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints exactly one
PASS/FAIL line for it (directly to the terminal, bypassing capture) before
asserting.  Shared instance sets are computed once in module fixtures.
"""
import numpy as np
import pytest

from nclp import pseudoloc as pl
from nclp.cuculescu import cuculescu, delta_split, delta_trunc, pi_family
from nclp.filtration import GridFiltration, TensorDyadicFiltration
from nclp.harness import (ExperimentConfig, all_pass, random_op,
                          random_positive_martingale, run, trial_rng)
from nclp.opcore import l2_norm, opnorm


def _report(experiment, **kw):
    return run(ExperimentConfig(experiment, **kw))


def _assertion(report, name):
    for a in report["assertions"]:
        if a["name"] == name:
            return a
    raise KeyError(name)


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def cuculescu_reports():
    lam = list(range(-2, 5))
    return [_report("cuculescu", algebra="tensor:4", trials=100,
                    lambda_exps=lam),
            _report("cuculescu", algebra="grid:1,4,2", trials=100,
                    lambda_exps=lam)]


@pytest.fixture(scope="module")
def gundy_report():
    return _report("gundy", algebra="tensor:4", trials=12,
                   lambda_exps=[-1, 0, 1, 2])


@pytest.fixture(scope="module")
def decay_report():
    return _report("pseudoloc-decay", depth=10, s_range=(3, 8), trials=1)


def test_criterion_01_maximal_weak_l1_constant(capsys, cuculescu_reports):
    worst = max(_assertion(r, "maximal_weak_l1_constant_one")["measured"]
                for r in cuculescu_reports)
    ok = all(_assertion(r, "maximal_weak_l1_constant_one")["pass"]
             for r in cuculescu_reports)
    _emit(capsys, 1, ok,
          f"lambda*tau(1-q) <= sup||f_n||_1 + 1e-8 on 200 instances x 7 "
          f"thresholds (worst excess {worst:.3g})")


def test_criterion_02_projection_properties(capsys, cuculescu_reports):
    names = ("commutation", "compression_below_lambda")
    ok = all(_assertion(r, n)["pass"] for r in cuculescu_reports
             for n in names)
    worst = max(_assertion(r, n)["measured"] for r in cuculescu_reports
                for n in names)
    _emit(capsys, 2, ok,
          f"commutators and compression excess <= 1e-8 (worst {worst:.3g})")


def test_criterion_03_gundy_exactness(capsys, gundy_report):
    names = ("reconstruction", "parts_are_martingales", "gamma_annihilated",
             "gamma_triangular_truncation_vanishes")
    ok = all(_assertion(gundy_report, n)["pass"] for n in names)
    worst = max(_assertion(gundy_report, n)["measured"] for n in names)
    _emit(capsys, 3, ok,
          f"three-part split exact: reconstruction, martingale property, "
          f"annihilation, truncation all <= 1e-10 (worst {worst:.3g})")


def test_criterion_04_gundy_estimates(capsys, gundy_report):
    names = ("alpha_envelope", "beta_envelope", "gamma_constant_one")
    ok = all(_assertion(gundy_report, n)["pass"] for n in names)
    agg = gundy_report["aggregate"]
    _emit(capsys, 4, ok,
          f"normalized alpha/beta/gamma <= 64 with gamma <= 1 (raw maxima "
          f"{agg['alpha_ratio']['max']:.3g}/{agg['beta_ratio']['max']:.3g}/"
          f"{agg['gamma_ratio']['max']:.3g})")


def test_criterion_05_cz_exact_constants(capsys):
    rep = _report("cz", algebra="grid:1,4,2", trials=100,
                  lambda_exps=[0, 1, 2, 3, 4])
    ok = all_pass(rep)
    agg = rep["aggregate"]
    _emit(capsys, 5, ok,
          f"||g_d||_2^2 <= 2^n lam ||f||_1 and sum||b_dk||_1 <= 2||f||_1 on "
          f"100 grid instances (worst excesses {agg['g_d_excess']['max']:.3g}"
          f", {agg['b_d_excess']['max']:.3g}); reconstruction "
          f"{agg['reconstruction_residual']['max']:.3g}")


def test_criterion_06_zeta_lemma(capsys):
    rep = _report("zeta", algebra="grid:1,4,2", trials=25,
                  lambda_exps=[0, 1, 2, 3, 4])
    names = ("excised_mass_9n", "cube_operator_inequalities")
    ok = all(_assertion(rep, n)["pass"] for n in names)
    agg = rep["aggregate"]
    _emit(capsys, 6, ok,
          f"lam*phi(1-zeta) <= 9^n||f||_1 and cube operator inequalities "
          f"(mass ratio {agg['excised_mass_ratio']['max']:.3g}, worst "
          f"violation {agg['cube_ineq_violation']['max']:.3g})")


def test_criterion_07_l2_transform_identity(capsys):
    rep = _report("transform-l2", algebra="tensor:4", trials=16)
    ok = all_pass(rep)
    agg = rep["aggregate"]
    _emit(capsys, 7, ok,
          f"unit-row isometry and weighted identity within 1e-10 (residuals "
          f"{agg['unit_row_residual']['max']:.3g}, "
          f"{agg['weighted_residual']['max']:.3g})")


def test_criterion_08_triangular_truncation(capsys):
    filt = TensorDyadicFiltration(3)
    worst_contract = worst_pyth = -np.inf
    for t in range(20):
        rng = trial_rng(800, t)
        f = random_positive_martingale(filt, rng)
        pi = pi_family(cuculescu(f, 2.0 ** np.arange(-2, 5)))
        x = random_op(filt.algebra, rng, hermitian=False)
        r, c = delta_split(x, pi)
        nx = l2_norm(x)
        for ell in pi.indices():
            worst_contract = max(worst_contract,
                                 l2_norm(delta_trunc(x, pi, ell)) - nx)
        worst_pyth = max(worst_pyth,
                         abs(l2_norm(r) ** 2 + l2_norm(c) ** 2 - nx ** 2))
    ok = worst_contract <= 1e-10 and worst_pyth <= 1e-10
    _emit(capsys, 8, ok,
          f"truncation L2-contractive and split Pythagorean on 20 random x "
          f"(excess {worst_contract:.3g}, residual {worst_pyth:.3g})")


def test_criterion_09_weak11_envelope(capsys):
    rep = _report("transform-weak11", algebra="tensor:4", trials=12,
                  lambda_exps=list(range(-8, 9)))
    ok = all_pass(rep)
    agg = rep["aggregate"]
    _emit(capsys, 9, ok,
          f"row/col weak-(1,1) ratios <= 64 (raw maxima "
          f"{agg['row_ratio']['max']:.3g}, {agg['col_ratio']['max']:.3g})")


def test_criterion_10_kernel_oracle(capsys):
    rep = _report("ksk", trials=3, s_range=(2, 2))   # K = 6, 7, 8; 210 pairs each
    ok = _assertion(rep, "two_bump_kernel_identity")["pass"]
    agg = rep["aggregate"]
    _emit(capsys, 10, ok,
          f"assembled E_k T Delta_(k+s) matches two-bump pairings within "
          f"1e-8 on 630 sampled pairs (worst "
          f"{agg['max_residual']['max']:.3g})")


def test_criterion_11_pseudoloc_decay(capsys, decay_report):
    ok = all_pass(decay_report)
    agg, summary = decay_report["aggregate"], decay_report["summary"]
    _emit(capsys, 11, ok,
          f"depth-10 decay: phi slope {summary['phi_slope']:.3g}, psi "
          f"slope {summary['psi_slope']:.3g} (window [-0.65, -0.35]), "
          f"end-to-end ratio {agg['comm_ratio']['max']:.3g} <= 64")


def test_criterion_12_paraproduct(capsys):
    rep_p = _report("paraproduct", trials=16, depth=7)
    rep_v = _report("vanish", trials=12, depth=7, s_range=(2, 4))
    ok = all_pass(rep_p) and \
        _assertion(rep_v, "paraproduct_term_vanishes_outside")["pass"]
    _emit(capsys, 12, ok,
          f"||Pi_rho f|| <= BMO(R)||f||_2 (excess "
          f"{rep_p['aggregate']['excess']['max']:.3g}) and vanish residual "
          f"{rep_v['aggregate']['vanish_residual']['max']:.3g} <= 1e-10")


def test_criterion_13_schur_cotlar(capsys):
    K = 7
    T = pl.normalized(pl.assemble(pl.lp_bumps_kernel(K), K))
    worst_schur = worst_cotlar = -np.inf

    def norm(A):                # T: L2 -> L2(C^M), components in the rows
        return float(opnorm(A.reshape(-1, T.N)))
    for s in (1, 2, 3):
        fam = pl.lambda_family(T, s)
        worst_cotlar = max(worst_cotlar,
                           norm(sum(fam)) - pl.cotlar_bound(fam))
        for A in fam:
            worst_schur = max(worst_schur, norm(A) - pl.schur_bound(A))
    dec = pl.schur_integrals_decay(T, range(1, 5), range(0, 4))
    env = max(dec["max_S1_normalized"], dec["max_S2_normalized"])
    ok = worst_schur <= 1e-6 and worst_cotlar <= 1e-6 and env <= 64.0
    _emit(capsys, 13, ok,
          f"Schur/Cotlar bounds dominate measured norms (excesses "
          f"{worst_schur:.3g}, {worst_cotlar:.3g}); normalized Schur "
          f"integrals <= 64 (max {env:.3g})")


def test_criterion_14_nc_pseudoloc(capsys):
    rep = _report("nc-pseudoloc", algebra="grid:1,6,2", trials=6,
                  s_range=(2, 4))
    ok = all_pass(rep)
    agg = rep["aggregate"]
    _emit(capsys, 14, ok,
          f"compressed-norm ratio {agg['ratio']['max']:.3g} <= 64 for s in "
          f"[2,4]; d=1 reduction residual "
          f"{rep['summary']['reduction_residual']:.3g} <= 1e-9")


def test_criterion_15_ergodic_coefficients(capsys):
    rep = _report("ergodic", algebra="tensor:4", trials=8,
                  lambda_exps=list(range(-8, 9)))
    ok = all_pass(rep)
    agg = rep["aggregate"]
    _emit(capsys, 15, ok,
          f"sup_k sum_m |xi_km|^2 = {agg['row_bound_10k']['max']:.6g} <= 1 "
          f"at k <= 10^4; induced L2 identity and weak-(1,1) envelopes pass")


def test_criterion_16_annuli_family(capsys):
    rep = _report("bmo-czo", trials=12, depth=7)
    ok = all_pass(rep)
    agg = rep["aggregate"]
    _emit(capsys, 16, ok,
          f"annuli square-function identity within 1e-10 (residual "
          f"{agg['annuli_identity_residual']['max']:.3g}); Linf->BMO ratio "
          f"{agg['linf_to_bmo_ratio']['max']:.3g} <= 64")
