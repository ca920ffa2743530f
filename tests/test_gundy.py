import importlib

import numpy as np
import pytest

from nclp.cuculescu import cuculescu, delta_split, q_lambda
from nclp.errors import ContractViolation
from nclp.gundy import (cross_experiment, ergodic_coeffs, ergodic_row_bound,
                        gundy, gundy_verify, thmA1_decompose,
                        weak11_experiment)
from nclp.harness import (random_coeffs, random_positive_martingale,
                          trial_rng)
from nclp.filtration import (GridFiltration, TensorDyadicFiltration,
                             build_filtration)
from nclp.martingale import (CoeffMatrix, Martingale, col_square, row_square,
                             transform_family)
from nclp.opcore import (ENDPOINT_TOL, Op, annihilation_check, dense_algebra,
                         l2_norm, op_norm, schatten_norm)

from batch_entries import assert_entries_match_scalar_calls
from oracles import stored_full_size, zero


def _mart(seed, filt=None):
    filt = filt or TensorDyadicFiltration(3)
    return random_positive_martingale(filt, trial_rng(seed, 0))


def test_parts_sum_to_differences():
    f = _mart(30)
    parts = gundy(cuculescu(f, 1.0))
    for da, db, dg, df in zip(parts.d_alpha, parts.d_beta, parts.d_gamma,
                              f.diffs):
        assert (da + db + dg - df).max_abs() < 1e-10


def test_alpha_is_conditionally_centered():
    f = _mart(31)
    parts = gundy(cuculescu(f, 1.0))
    assert f.expect_each(parts.d_alpha, lag=1).max_abs() < 1e-10


def test_gamma_annihilated_by_final_projection():
    f = _mart(32)
    for lam in (0.5, 1.0, 2.0):
        rep = gundy_verify(gundy(cuculescu(f, lam)))
        assert rep["gamma_annihilated"]
        assert rep["gamma"] <= 1.0 + 1e-9  # lam*tau(1-q) <= ||f||_1


def test_high_threshold_gives_trivial_split():
    # above sup||f_n||_inf every q_n is the unit: beta and gamma vanish
    f = _mart(33)
    parts = gundy(cuculescu(f, 1e6))
    for db, dg in zip(parts.d_beta, parts.d_gamma):
        assert db.max_abs() < 1e-9
        assert dg.max_abs() < 1e-9


def test_gundy_rejects_bad_lambda():
    with pytest.raises(ContractViolation):
        gundy(cuculescu(_mart(34), 0.0))


def test_thmA1_split_is_exact():
    f = _mart(35)
    xi = random_coeffs(4, 3, trial_rng(36, 0), "row-le-one")
    a_fam, b_fam, pi, shift = thmA1_decompose(f, xi)
    assert shift == 0.0
    for m in range(xi.m_max):
        tm = zero(f.algebra)
        for k in range(xi.k_max):
            tm = tm + xi.entries[k, m] * f.diffs[k]
        assert (a_fam[m] + b_fam[m] - tm).max_abs() < 1e-8


def test_thmA1_shifts_signed_martingales():
    f = _mart(37)
    signed = Martingale(f.filtration,
                        f.top - 2.0 * f.algebra.unit())
    xi = random_coeffs(4, 3, trial_rng(38, 0), "row-le-one")
    a_fam, b_fam, _, shift = thmA1_decompose(signed, xi)
    assert shift > 0.0
    # the split still reproduces the transforms of the *original* input
    for m in range(xi.m_max):
        tm = zero(signed.algebra)
        for k in range(xi.k_max):
            tm = tm + xi.entries[k, m] * signed.diffs[k]
        assert (a_fam[m] + b_fam[m] - tm).max_abs() < 1e-8


def test_thmA1_rejects_a_non_hermitian_top_before_shifting(monkeypatch):
    # 2 + 1.5 e_07 has the positive Hermitian part 2 + 0.75 (e_07 + e_70),
    # floor 1.25; shifting it would build a second martingale that
    # cuculescu then rejects
    filt = TensorDyadicFiltration(3)
    top = filt.algebra.unit() * 2.0
    top.blocks[0, 0, 7] += 1.5
    f = Martingale(filt, top)
    xi = random_coeffs(3, 2, trial_rng(39, 0), "row-le-one")
    built = []
    monkeypatch.setattr(importlib.import_module("nclp.gundy"),
                        "Martingale", lambda *args: built.append(args))
    for call in (lambda: thmA1_decompose(f, xi),
                 lambda: weak11_experiment(f, xi, [0])):
        with pytest.raises(ContractViolation, match=r"^thmA1_decompose "
                           r"needs a Hermitian martingale \(its top is not "
                           r"Hermitian\)$"):
            call()
    assert built == []


def test_weak11_requires_contractive_rows():
    f = _mart(39)
    xi = CoeffMatrix(2.0 * np.eye(4, 3, dtype=complex))
    with pytest.raises(ContractViolation):
        weak11_experiment(f, xi, range(-2, 3))


def test_weak11_ratios_finite_and_ordered():
    f = _mart(40)
    xi = random_coeffs(4, 3, trial_rng(41, 0), "row-le-one")
    rep = weak11_experiment(f, xi, range(-2, 5))
    assert 0.0 <= rep["row_ratio"] <= rep["row_weak_l1"] + 1e-12
    assert 0.0 <= rep["col_ratio"] <= rep["col_weak_l1"] + 1e-12


def weak11_sides_oracle(f, xi, lambda_exps, squares=(row_square, col_square)):
    """weak11_experiment's four numbers from thmA1_decompose's A and B: the
    first of ``squares`` applied to A, the second to B, and each one's
    distribution function read off its eigenvalues, one threshold and one
    eigenvalue at a time."""
    a, b, _, _ = thmA1_decompose(f, xi)
    w, denom = f.algebra.weights, max(f.sup_l1, 1e-300)
    out = {}
    for side, sq in zip(("row", "col"), (squares[0](a), squares[1](b))):
        ev = np.abs(np.linalg.eigvalsh(sq.hermitize().blocks))
        out[side + "_ratio"] = max(
            lam * float(w @ (ev > lam + ENDPOINT_TOL).sum(axis=1))
            for lam in 2.0 ** np.asarray(lambda_exps, dtype=float)) / denom
        out[side + "_weak_l1"] = max(
            (t * float(w @ (ev >= t - ENDPOINT_TOL).sum(axis=1))
             for t in np.unique(ev[ev > 0])), default=0.0) / denom
    return out


@pytest.mark.parametrize("spec", ["tensor:3", "tensor:4", "grid:1,4,2"])
def test_weak11_takes_the_row_square_of_A_and_the_column_square_of_B(spec):
    # the draw of the transform-weak11 runner's first trial at seed 0
    rng = trial_rng(0, 0)
    f = random_positive_martingale(build_filtration(spec), rng)
    xi = random_coeffs(len(f.diffs), 4, rng, "row-eq-one")
    exps = list(range(-8, 9))
    got = weak11_experiment(f, xi, exps)
    want = weak11_sides_oracle(f, xi, exps)
    assert got.keys() == want.keys()
    for key, val in want.items():
        assert abs(got[key] - val) <= 1e-12
    # the draw tells the sides apart: with the squares swapped, the row
    # number moves (tensor:3: 0.82753 -> 0.84100)
    swapped = weak11_sides_oracle(f, xi, exps, (col_square, row_square))
    assert abs(swapped["row_weak_l1"] - want["row_weak_l1"]) > 1e-3


def test_ergodic_coeffs_values():
    xi = ergodic_coeffs(4)
    # [DERIVED] closed form at (k, m) = (2, 3): 2 / (sqrt(3) * 4)
    assert xi.entries[1, 2] == pytest.approx(2.0 / (np.sqrt(3.0) * 4.0))
    assert xi.entries[3, 1] == 0.0  # upper-triangular support k <= m
    assert xi.row_bound <= 1.0 + 1e-12


def test_ergodic_row_bound_matches_rows():
    xi = ergodic_coeffs(50)
    assert ergodic_row_bound(50) == pytest.approx(float(xi.row_sums().max()))
    # the sup over m_max -> infinity of row k sums k^2 sum_{m>=k} 1/(m(m+1)^2)
    # stays below 1 (each tail is < k^2 * integral_{k-1}^\infty dm/m^3)
    assert ergodic_row_bound(4000) < 1.0


def test_cross_experiment_requires_unit_rows():
    f = _mart(42)
    bad = random_coeffs(4, 3, trial_rng(43, 0), "row-le-one")
    with pytest.raises(ContractViolation):
        cross_experiment(f, bad, bad)


def test_cross_experiment_ratio():
    f = _mart(44)
    rho = random_coeffs(4, 3, trial_rng(45, 0), "row-eq-one")
    eta = random_coeffs(4, 2, trial_rng(46, 1), "row-eq-one")
    rep = cross_experiment(f, rho, eta)
    assert rep["lhs"] > 0.0
    assert rep["ratio"] <= 1.0 + 1e-9


def test_cross_experiment_rank_one_oracle():
    # [DERIVED] with a single coefficient rho = eta = e_{11}, the flattened
    # family is {df_0} and lhs = ||df_0||_4 = row = col contribution
    f = _mart(47)
    one = CoeffMatrix(np.ones((1, 1), dtype=complex))
    rep = cross_experiment(f, one, one)
    from nclp.opcore import schatten_norm
    from nclp.martingale import row_square
    direct = schatten_norm(f.diffs[0], 4)
    assert rep["lhs"] == pytest.approx(direct, rel=1e-9)


# -- loop oracles for the batched families ------------------------------------

SPECS = ["tensor:4", "grid:1,4,2", "grid:2,3,2"]


def gundy_loop_oracle(f, lam):
    """The three difference sequences one level at a time."""
    qs = list(stored_full_size(cuculescu(f, lam))[0])
    alpha, beta, gamma = [], [], []
    for i, df in enumerate(f.diffs):
        qk = qs[i]
        qp = qs[i - 1] if i else f.algebra.unit()
        core = qk @ df @ qk
        comp = f.filtration.expect(core, f.levels[i - 1]) if i \
            else zero(f.algebra)
        alpha.append(core - comp)
        beta.append(qp @ df @ qp - core + comp)
        gamma.append(df - qp @ df @ qp)
    return alpha, beta, gamma


def gundy_verify_loop_oracle(parts):
    f, lam = parts.martingale, parts.seq.lam
    acc, alpha = zero(f.algebra), 0.0
    for a in parts.d_alpha:
        acc = acc + a
        alpha = max(alpha, l2_norm(acc) ** 2)
    beta = sum(schatten_norm(d, 1) for d in parts.d_beta)
    q = q_lambda(parts.seq)
    scale = max(max(op_norm(df) for df in f.diffs), 1e-300)
    annihilated = all(annihilation_check(q, dg, tol=1e-10)
                      for dg in parts.d_gamma if op_norm(dg) > 1e-12 * scale)
    denom = max(f.sup_l1, 1e-300)
    return {"alpha": alpha / lam / denom, "beta": beta / denom,
            "gamma_annihilated": annihilated}


def thmA1_loop_oracle(f, xi, pi):
    """A_m and B_m split one difference and one coefficient at a time."""
    splits = [delta_split(df, pi) for df in list(f.diffs)[:xi.k_max]]
    a_ops, b_ops = [], []
    for m in range(xi.m_max):
        am = bm = zero(f.algebra)
        for k in range(xi.k_max):
            am = am + xi.entries[k, m] * splits[k][0]
            bm = bm + xi.entries[k, m] * splits[k][1]
        a_ops.append(am)
        b_ops.append(bm)
    return a_ops, b_ops


@pytest.mark.parametrize("spec", SPECS)
def test_gundy_parts_match_loop_oracle(spec):
    f = _mart(70, build_filtration(spec))
    for lam in (0.5, 1.0, 2.0, 4.0):
        parts = gundy(cuculescu(f, lam))
        for got, ref in zip((parts.d_alpha, parts.d_beta, parts.d_gamma),
                            gundy_loop_oracle(f, lam)):
            assert len(got) == len(ref) == len(f.levels)
            for g, r in zip(got, ref):
                assert (g - r).max_abs() <= 1e-12
        rep = gundy_verify(parts)
        ref = gundy_verify_loop_oracle(parts)
        assert rep["gamma_annihilated"] is ref["gamma_annihilated"]
        for key in ("alpha", "beta"):
            assert abs(rep[key] - ref[key]) <= 1e-12 * abs(ref[key]) + 1e-15


@pytest.mark.parametrize("spec", SPECS)
def test_thmA1_parts_match_loop_oracle(spec):
    f = _mart(71, build_filtration(spec))
    xi = random_coeffs(len(f.levels), 3, trial_rng(72, 0), "row-eq-one")
    a_fam, b_fam, pi, _ = thmA1_decompose(f, xi)
    a_ref, b_ref = thmA1_loop_oracle(f, xi, pi)
    for got, ref in zip(a_fam, a_ref, strict=True):
        assert (got - ref).max_abs() <= 1e-12
    for got, ref in zip(b_fam, b_ref, strict=True):
        assert (got - ref).max_abs() <= 1e-12


def cross_lhs_per_block_oracle(f, rho, eta):
    """||sum T_mn (x) e_{m,n}||_4 assembled one block at a time."""
    k = min(rho.k_max, eta.k_max, len(f.diffs))
    flat = np.einsum("km,kn->kmn", rho.entries[:k], eta.entries[:k])
    fam = list(transform_family(f, CoeffMatrix(flat.reshape(k, -1))))
    alg, M_m, M_n = f.algebra, rho.m_max, eta.m_max
    val4 = 0.0
    for b in range(alg.nblocks):
        tb = np.array([g.blocks[b] for g in fam]).reshape(M_m, M_n, alg.d,
                                                          alg.d)
        bstar = np.einsum("mnab,mqac->nqbc", tb.conj(), tb)
        big = bstar.transpose(0, 2, 1, 3).reshape(M_n * alg.d, M_n * alg.d)
        val4 += alg.weights[b] * float(np.trace(big @ big).real)
    return val4 ** 0.25


@pytest.mark.parametrize("spec", SPECS)
def test_cross_experiment_matches_per_block_oracle(spec):
    f = _mart(73, build_filtration(spec))
    rho = random_coeffs(len(f.levels), 3, trial_rng(74, 0), "row-eq-one")
    eta = random_coeffs(len(f.levels), 2, trial_rng(74, 1), "row-eq-one")
    ref = cross_lhs_per_block_oracle(f, rho, eta)
    assert abs(cross_experiment(f, rho, eta)["lhs"] - ref) <= 1e-12 * ref


# -- the lambda batch against one call per threshold -------------------------

@pytest.mark.parametrize("spec", SPECS)
def test_batch_entries_equal_scalar_calls(spec):
    f = _mart(75, build_filtration(spec))
    lams = 2.0 ** np.arange(-2, 5)
    # descending too: an entry that read another threshold's q would see a
    # larger projection that does not annihilate its d_gamma
    for order in (lams, lams[::-1]):
        parts = gundy(cuculescu(f, order))
        assert parts.d_alpha.batch == order.shape + (len(f.levels),)
        assert_entries_match_scalar_calls(
            parts, order, lambda lam: gundy(cuculescu(f, lam)))
        rep = gundy_verify(parts)
        assert_entries_match_scalar_calls(
            rep, order, lambda lam: gundy_verify(gundy(cuculescu(f, lam))))
        assert all(rep["gamma_annihilated"])
        assert_entries_match_scalar_calls(
            f.expect_each(parts.d_alpha, lag=1), order,
            lambda lam: f.expect_each(gundy(cuculescu(f, lam)).d_alpha,
                                      lag=1))


def test_gundy_experiment_solves_once_per_trial(monkeypatch):
    # the Gundy thresholds are a slice of the pi ladder's recursion
    import nclp.harness as harness
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return cuculescu(*args, **kwargs)

    # the package's own name ``cuculescu`` is the function, not the module
    for name in ("nclp.cuculescu", "nclp.gundy", "nclp.harness"):
        monkeypatch.setattr(importlib.import_module(name), "cuculescu",
                            counted)
    rep = harness.run(harness.ExperimentConfig(
        "gundy", algebra="tensor:2", trials=3, lambda_exps=[2, 0, 1]))
    assert harness.all_pass(rep)
    assert len(calls) == 3
    # each solve runs on the whole ladder from 2^{min - 1} up
    for lam in calls:
        assert len(lam) >= 4
        assert np.array_equal(lam, 2.0 ** np.arange(-1, len(lam) - 1))


def test_tensor_experiments_solve_each_quantity_once(monkeypatch):
    # every np.linalg solve as (routine, stack shape, hermitian)
    from nclp import harness
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(a, *args, _name=name, _lapack=getattr(np.linalg, name),
                    **kwargs):
            calls.append((_name, np.shape(a),
                          _name != "svd" or kwargs.get("hermitian", False)))
            return _lapack(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def general_svds(experiment):
        calls.clear()
        assert harness.all_pass(harness.run(harness.ExperimentConfig(
            experiment, algebra="tensor:4", trials=1)))
        return [shape for name, shape, hermitian in calls
                if name == "svd" and not hermitian]

    # one trial's sup_l1 is one SVD of its top, the batch of one
    assert general_svds("cuculescu") == [(1, 1, 16, 16)]
    # and no solve runs on a level family (levels, nblocks, d, d)
    assert not [c for c in calls if c[1][-4:] == (5, 1, 16, 16)]
    # gundy's and the weak-(1,1) runs' are sup_l1 and sup_linf of the top;
    # every other norm they and bmo and cross take is of a Hermitian operand
    for experiment in ("transform-weak11", "gundy"):
        assert general_svds(experiment) == [(1, 16, 16)] * 2
    # gundy's one full-size family norm is its annihilation check's
    # q(lam) d_gamma q(lam): ||d_gamma|| comes from the level-size solve
    full = [c for c in calls if c[0] == "svd" and c[1][-4:] == (5, 1, 16, 16)]
    assert [c[2] for c in full] == [True]
    assert general_svds("bmo") == general_svds("cross") == []
    # the counter sees the SVD path
    op_norm(Op(np.ones((1, 16, 16)), dense_algebra(16)))
    assert calls[-1] == ("svd", (1, 16, 16), False)
