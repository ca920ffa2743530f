import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nclp.errors import ContractViolation, NumericError
from nclp.filtration import (GridFiltration, TensorDyadicFiltration,
                             build_filtration)
from nclp.harness import (ExperimentConfig, all_pass, random_positive_top,
                          run, trial_rng)
from nclp.martingale import (CoeffMatrix, Martingale, bmo_norms, col_square,
                             function_bmo, l2_identity_check, lp_rc_norm,
                             row_square, split_upper_bound, transform_family)
from nclp.opcore import Op, _op, l2_norm, op_norm
from oracles import abs_op, dirac_coeffs, partition_coeffs

FILT = TensorDyadicFiltration(3)


def rand_mart(seed, filt=FILT, hermitian=True):
    rng = np.random.default_rng(seed)
    alg = filt.algebra
    b = rng.standard_normal((alg.nblocks, alg.d, alg.d)) \
        + 1j * rng.standard_normal((alg.nblocks, alg.d, alg.d))
    top = Op(b, alg)
    return Martingale(filt, top.hermitize() if hermitian else top)


def test_differences_telescope():
    f = rand_mart(0)
    total = f.algebra.zero()
    for d in f.diffs:
        total = total + d
    assert (total - f.top).max_abs() < 1e-12
    assert len(f.diffs) == len(f.levels)


def test_first_difference_is_first_level():
    f = rand_mart(1)
    assert (f.diffs[0] - f.seq[0]).max_abs() == 0


def test_differences_are_orthogonal():
    f = rand_mart(2)
    for i in range(len(f.diffs)):
        for j in range(i):
            inner = (f.diffs[i] @ f.diffs[j].H).trace()
            assert abs(inner) < 1e-12
    # and each is conditionally centered
    assert f.expect_each(f.diffs, lag=1).max_abs() < 1e-12


def test_energy_identity():
    f = rand_mart(3)
    assert l2_norm(f.top) ** 2 == pytest.approx(
        sum(l2_norm(d) ** 2 for d in f.diffs), rel=1e-12)


def test_coeff_matrix_presets():
    d = dirac_coeffs(4)
    assert d.entries.shape[1] == 4
    assert np.allclose(d.row_sums(), 1.0)
    p = partition_coeffs(4, [[0, 2], [1, 3]])
    assert set(np.unique(p.entries)) <= {0.0, 1.0}
    assert np.allclose(p.row_sums(), 1.0)
    assert p.row_bound <= 1.0 + 1e-14


def test_transform_family_dirac_recovers_differences():
    f = rand_mart(4)
    fam = transform_family(f, dirac_coeffs(len(f.diffs)))
    for m, g in enumerate(fam):
        assert (g - f.diffs[m]).max_abs() < 1e-14


def test_transform_too_many_rows_rejected():
    f = rand_mart(5)
    xi = CoeffMatrix(np.ones((len(f.diffs) + 1, 1)))
    with pytest.raises(ContractViolation):
        transform_family(f, xi)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_l2_isometry_unit_rows(seed):
    rng = np.random.default_rng(seed)
    f = rand_mart(seed)
    e = rng.standard_normal((len(f.diffs), 3))
    e /= np.sqrt((e ** 2).sum(axis=1, keepdims=True))
    assert l2_identity_check(f, CoeffMatrix(e)) < 1e-10 * l2_norm(f.top) ** 2


def test_row_col_square_oracle():
    # [DERIVED] for a single self-adjoint g, both squares equal |g|
    f = rand_mart(6)
    fam = transform_family(f, dirac_coeffs(len(f.diffs)))
    g = fam[1]
    r = row_square(transform_family(f, CoeffMatrix(
        np.eye(len(f.diffs))[:, 1:2])))
    assert (r - abs_op(g)).max_abs() < 1e-8


def test_lp_rc_norm_rejects_small_p():
    f = rand_mart(7)
    fam = transform_family(f, dirac_coeffs(len(f.diffs)))
    with pytest.raises(ContractViolation):
        lp_rc_norm(fam, 1.5)
    # p = 2 recovers the flat L2 norm of the family
    flat = np.sqrt(sum(l2_norm(g) ** 2 for g in fam))
    assert lp_rc_norm(fam, 2) == pytest.approx(flat, rel=1e-9)


def test_split_upper_bound_dominates():
    f = rand_mart(8)
    fam = transform_family(f, dirac_coeffs(len(f.diffs)))
    bound = split_upper_bound(fam, fam, 4)
    assert bound >= lp_rc_norm(fam, 4) - 1e-9


def test_bmo_constant_martingale_is_zero():
    one = FILT.algebra.unit()
    f = Martingale(FILT, 3.0 * one)
    assert bmo_norms(f)[2] < 1e-12


def test_bmo_dominates_l2_difference_tail():
    # sup_n ||E_n sum_{k>=n} |df_k|^2|| >= its trace at n = 0
    f = rand_mart(9)
    _, _, b = bmo_norms(f)
    tail = sum(l2_norm(d) ** 2 for d in f.diffs[1:])
    assert b ** 2 >= tail - 1e-10


def test_function_bmo_constant_zero_and_haar_oracle():
    filt = GridFiltration(1, 3, 1)
    const = Op(np.ones((8, 1, 1), dtype=complex), filt.algebra)
    br, bc = function_bmo(filt, const)
    assert max(br, bc) < 1e-12
    # [DERIVED] first Haar function: oscillation 1 on the full cube, 0 on
    # dyadic halves; the half-shifted grid sees the jump at cube scale 1/2
    haar = np.ones(8)
    haar[4:] = -1.0
    h = Op(haar.astype(complex)[:, None, None], filt.algebra)
    br, bc = function_bmo(filt, h)
    assert br == pytest.approx(1.0, abs=1e-12)
    assert bc == pytest.approx(br, abs=1e-12)


# -- loop oracles for the batched families ------------------------------------

SPECS = ["tensor:4", "grid:1,4,2", "grid:2,3,2"]


def _spec_mart(spec, seed, hermitian=False):
    return rand_mart(seed, build_filtration(spec), hermitian=hermitian)


def transform_family_loop_oracle(f, xi):
    """T_m f accumulated one coefficient at a time."""
    out = []
    for m in range(xi.m_max):
        acc = f.algebra.zero()
        for k in range(xi.k_max):
            if xi.entries[k, m] != 0:
                acc = acc + xi.entries[k, m] * f.diffs[k]
        out.append(acc)
    return out


def bmo_loop_oracle(f):
    """bmo_norms with each tail summed level by level."""
    bmo_r = bmo_c = 0.0
    npos = len(f.levels)
    for i in range(min(1, npos - 1), npos):
        tail_r = tail_c = f.algebra.zero()
        for k in range(i, npos):
            d = f.diffs[k]
            tail_r = tail_r + d @ d.H
            tail_c = tail_c + d.H @ d
        bmo_r = max(bmo_r, np.sqrt(max(op_norm(
            f.filtration.expect(tail_r, f.levels[i])), 0.0)))
        bmo_c = max(bmo_c, np.sqrt(max(op_norm(
            f.filtration.expect(tail_c, f.levels[i])), 0.0)))
    return bmo_r, bmo_c, max(bmo_r, bmo_c)


@pytest.mark.parametrize("spec", SPECS)
def test_transform_family_matches_loop_oracle(spec):
    f = _spec_mart(spec, 40)
    rng = np.random.default_rng(41)
    xi = CoeffMatrix(rng.standard_normal((len(f.diffs), 3))
                     + 1j * rng.standard_normal((len(f.diffs), 3)))
    xi.entries[1, 2] = 0.0
    fam = transform_family(f, xi)
    ref = transform_family_loop_oracle(f, xi)
    assert len(fam) == len(ref) == 3
    for got, want in zip(fam, ref):
        assert (got - want).max_abs() <= 1e-12 * want.max_abs()
    # the squares sum over the family axis
    r = row_square(fam)
    c = col_square(fam)
    acc_r = acc_c = f.algebra.zero()
    for g in ref:
        acc_r = acc_r + g @ g.H
        acc_c = acc_c + g.H @ g
    assert ((r @ r) - acc_r).max_abs() <= 1e-12 * acc_r.max_abs()
    assert ((c @ c) - acc_c).max_abs() <= 1e-12 * acc_c.max_abs()


@pytest.mark.parametrize("spec", SPECS)
def test_bmo_tails_match_loop_oracle(spec):
    for seed in (42, 43):
        f = _spec_mart(spec, seed)
        for got, want in zip(bmo_norms(f), bmo_loop_oracle(f)):
            assert abs(got - want) <= 1e-12 * abs(want)


def function_bmo_loop_oracle(filt, members):
    """function_bmo summing the cube oscillations one member at a time."""
    n, K, d, side = filt.n, filt.K, filt.d, filt.side
    bmo_r = bmo_c = 0.0
    for k in filt.levels:
        L = 2 ** (K - k)
        for shift in itertools.product(sorted({0, L // 2}), repeat=n):
            acc_r = acc_c = 0.0
            for g in members:
                sp = np.roll(g.blocks.reshape((side,) * n + (d, d)),
                             shift=[-t for t in shift], axis=tuple(range(n)))
                if n == 1:
                    resh = sp.reshape(2 ** k, L, d, d)
                    dev = resh - resh.mean(axis=1, keepdims=True)
                    g_r = np.einsum("qlab,qlcb->qac", dev, dev.conj()) / L
                    g_c = np.einsum("qlba,qlbc->qac", dev.conj(), dev) / L
                else:
                    resh = sp.reshape(2 ** k, L, 2 ** k, L, d, d)
                    dev = resh - resh.mean(axis=(1, 3), keepdims=True)
                    g_r = np.einsum("qlrmab,qlrmcb->qrac", dev,
                                    dev.conj()) / L ** 2
                    g_c = np.einsum("qlrmba,qlrmbc->qrac", dev.conj(),
                                    dev) / L ** 2
                acc_r = acc_r + g_r.reshape(-1, d, d)
                acc_c = acc_c + g_c.reshape(-1, d, d)
            bmo_r = max(bmo_r, np.sqrt(np.linalg.norm(
                acc_r, ord=2, axis=(1, 2)).max()))
            bmo_c = max(bmo_c, np.sqrt(np.linalg.norm(
                acc_c, ord=2, axis=(1, 2)).max()))
    return bmo_r, bmo_c


@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2), (1, 5, 1)])
def test_function_bmo_of_a_family_matches_loop_oracle(n, K, d):
    filt = GridFiltration(n, K, d)
    rng = np.random.default_rng(44)
    fam = Op(rng.standard_normal((3, filt.algebra.nblocks, d, d))
             + 1j * rng.standard_normal((3, filt.algebra.nblocks, d, d)),
             filt.algebra)
    for got, want in zip(function_bmo(filt, fam),
                         function_bmo_loop_oracle(filt, list(fam))):
        assert abs(got - want) <= 1e-12 * want
    # an unbatched Op is the family of one
    for got, want in zip(function_bmo(filt, fam[1]),
                         function_bmo_loop_oracle(filt, [fam[1]])):
        assert abs(got - want) <= 1e-12 * want


def test_function_bmo_on_grid_2_sees_cubes_shifted_along_one_axis():
    # on grid:2 the shifted grids move by half a side along any set of axes,
    # so a cube shifted along one axis only is seen too; on this draw one
    # of those cubes holds the largest oscillation
    filt = GridFiltration(2, 3, 1)
    side = filt.side
    f = np.random.default_rng(0).standard_normal((side, side))
    osc = {}
    for k in filt.levels:
        L = side >> k
        for shift in itertools.product(sorted({0, L // 2}), repeat=2):
            g = np.roll(f, [-t for t in shift], axis=(0, 1))
            cubes = g.reshape(1 << k, L, 1 << k, L)
            dev = cubes - cubes.mean(axis=(1, 3), keepdims=True)
            osc[k, shift] = np.sqrt((dev ** 2).mean(axis=(1, 3)).max())
    want = max(osc.values())
    assert want > max(v for (_, (a, b)), v in osc.items() if a == b)
    got = function_bmo(filt, Op(f.reshape(-1, 1, 1), filt.algebra))
    assert got == pytest.approx((want, want), rel=1e-12)


@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 3)])
def test_function_bmo_of_zero_is_zero_not_nan(n, d):
    filt = GridFiltration(n, 2, d)
    assert function_bmo(filt, filt.algebra.zero()) == (0.0, 0.0)


def test_bmo_czo_makes_no_svd_call(monkeypatch):
    # np.linalg.norm(ord=2) of a matrix stack calls the svd of the module
    # that defines it, so both bindings are counted
    import importlib
    calls = []
    impl = importlib.import_module(np.linalg.norm.__wrapped__.__module__)
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (np.linalg, impl):
        monkeypatch.setattr(module, "svd", counted)
    assert all_pass(run(ExperimentConfig("bmo-czo", trials=2, depth=6)))
    assert calls == []
    # the counter sees the norm the Grams used to take
    np.linalg.norm(np.eye(2)[None], ord=2, axis=(1, 2))
    assert calls == [1]


# -- a batch of martingales --------------------------------------------------

BATCH_SPECS = ["grid:1,4,2", "grid:2,2,2", "tensor:4"]


def _positive_tops(filt, count, seed=47):
    return np.stack([random_positive_top(filt, trial_rng(seed, t)).blocks
                     for t in range(count)])


@pytest.mark.parametrize("spec", BATCH_SPECS)
def test_a_batch_holds_each_members_own_martingale(spec):
    filt = build_filtration(spec)
    tops = _positive_tops(filt, 4)
    batch = Martingale(filt, Op(tops, filt.algebra))
    assert batch.batch == (4,)
    assert batch.seq.batch == batch.diffs.batch == (4, len(filt.levels))
    for i, top in enumerate(tops):
        f = Martingale(filt, Op(top, filt.algebra))
        assert f.batch == ()
        for got, want in [(batch.seq[i], f.seq), (batch.diffs[i], f.diffs),
                          (batch.top[i], f.top)]:
            assert np.array_equal(got.blocks, want.blocks)
        for got, want in zip(batch.restricted, f.restricted, strict=True):
            assert got.algebra == want.algebra
            assert np.array_equal(got.blocks[i], want.blocks)
        for name in ("sup_l1", "sup_linf", "spectral_floor"):
            assert isinstance(getattr(f, name), float)
        for name in ("sup_l1", "sup_linf", "spectral_floor"):
            assert getattr(batch, name)[i] == getattr(f, name)
    # any batch shape: the level axis stays axis -4
    square = Martingale(filt, Op(tops.reshape((2, 2) + tops.shape[1:]),
                                 filt.algebra))
    assert square.batch == (2, 2)
    for name in ("sup_l1", "sup_linf", "spectral_floor"):
        assert np.array_equal(getattr(square, name),
                              getattr(batch, name).reshape(2, 2))


def test_a_batch_is_positive_only_when_every_member_is():
    filt = GridFiltration(1, 3, 2)
    tops = _positive_tops(filt, 3)
    assert Martingale(filt, Op(tops, filt.algebra)).is_positive()
    tops[2, 5] -= 10.0 * np.eye(2)      # a negative cell in member 2
    members = [Martingale(filt, Op(top, filt.algebra)) for top in tops]
    assert [f.is_positive() for f in members] == [True, True, False]
    assert not Martingale(filt, Op(tops, filt.algebra)).is_positive()


# the 3 trials of this batch would pass for 3 levels of one martingale
def _three_trial_batch():
    filt = GridFiltration(1, 3, 2)
    return Martingale(filt, Op(_positive_tops(filt, 3), filt.algebra))


def test_transform_family_rejects_a_batch():
    f = _three_trial_batch()
    with pytest.raises(ContractViolation, match="one martingale"):
        transform_family(f, CoeffMatrix(np.ones((3, 2))))
    assert len(transform_family(Martingale(f.filtration, f.top[0]),
                                CoeffMatrix(np.ones((3, 2))))) == 2


def test_bmo_norms_rejects_a_batch():
    f = _three_trial_batch()
    with pytest.raises(ContractViolation, match="one martingale"):
        bmo_norms(f)
    assert np.isfinite(bmo_norms(Martingale(f.filtration, f.top[0]))[2])


# -- finiteness at the boundary ----------------------------------------------

@pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                   complex(0.0, np.nan), complex(0.0, -np.inf)],
                         ids=["nan-real", "inf-real", "nan-imag", "inf-imag"])
@pytest.mark.parametrize("spec", ["tensor:3", "grid:1,4,2"])
def test_nonfinite_top_rejected_by_martingale(spec, value):
    # a top computed inside nclp is not checked by Op; the martingale built
    # on it checks it, once
    filt = build_filtration(spec)
    good = random_positive_top(filt, trial_rng(0, 0))
    Martingale(filt, good)
    blocks = good.blocks.copy()
    blocks[-1, -1, 0] = value
    with pytest.raises(NumericError, match="martingale top"):
        Martingale(filt, _op(blocks, filt.algebra))
    # a batch with one bad entry is rejected as a whole
    with pytest.raises(NumericError, match="martingale top"):
        Martingale(filt, _op(np.stack([good.blocks, blocks]), filt.algebra))


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_nonfinite_coefficients_rejected(value):
    e = np.ones((3, 2), dtype=complex)
    e[1, 0] = value
    with pytest.raises(NumericError, match="coefficients"):
        CoeffMatrix(e)
