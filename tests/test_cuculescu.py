import dataclasses
import importlib
import json
import tracemalloc

import numpy as np
import pytest

from nclp.cuculescu import (CuculescuSequence, cuculescu, cuculescu_report,
                            delta_split, delta_trunc, ladder_top, pi_family,
                            q_lambda)
from nclp.czkit import cz_decompose, cz_report
from nclp.errors import ContractViolation, NumericError
from nclp.filtration import (GridFiltration, TensorDyadicFiltration,
                             build_filtration)
from nclp.harness import (TRIAL_CHUNK, ExperimentConfig, Suite, random_op,
                          random_positive_batch, random_positive_martingale,
                          random_positive_top, report_json, run, trial_rng)
from nclp.martingale import Martingale
from nclp.opcore import (ENDPOINT_TOL, Op, annihilation_check, l2_norm,
                         op_norm, schatten_norm)

from batch_entries import assert_entries_match_scalar_calls
from oracles import (is_projection, level_spectral_floor, level_sup_l1,
                     level_sup_linf, proj_meet, stored_full_size, zero)


def ladder(f, l_min, l_max):
    """The recursion of f at the thresholds 2^l, l = l_min..l_max."""
    return cuculescu(f, 2.0 ** np.arange(l_min, l_max + 1))


def closed(specs):
    """Test ids that name the spec and the recursion's closed endpoint
    convention."""
    return [f"{spec}-closed" for spec in specs]


def naive_cuculescu(f, lam):
    """Independent oracle: project out eigenvectors of q f q above lam,
    forcing the complement of range(q) out with a large penalty."""
    alg = f.algebra
    qs = []
    q = alg.unit()
    big = 1e6
    for fn in f.seq:
        comp = (q @ fn @ q + big * (alg.unit() - q)).hermitize()
        w, v = np.linalg.eigh(comp.blocks)
        keep = w <= lam + 1e-9
        blocks = np.einsum("bik,bk,bjk->bij", v, keep.astype(float), v.conj())
        q = Op(blocks, alg)
        qs.append(q)
    return qs


def per_block_cuculescu(f, lam):
    """Oracle: the recursion block by block, diagonalizing V* f_n V on an
    orthonormal basis V of range(q_{n-1}) kept per block."""
    alg = f.algebra
    nb, d = alg.nblocks, alg.d
    bases = [np.eye(d, dtype=complex) for _ in range(nb)]
    qs = []
    for fn in f.seq:
        blocks = np.zeros((nb, d, d), dtype=complex)
        new_bases = []
        for b in range(nb):
            V = bases[b]
            if V.shape[1] == 0:
                new_bases.append(V)
                continue
            h = V.conj().T @ fn.blocks[b] @ V
            h = 0.5 * (h + h.conj().T)
            w, u = np.linalg.eigh(h)
            keep = w <= lam + ENDPOINT_TOL
            W = V @ u[:, keep]
            blocks[b] = W @ W.conj().T
            new_bases.append(W)
        bases = new_bases
        qs.append(Op(blocks, alg))
    return qs


def delta_trunc_oracle(x, pi, ell):
    """Delta_{r,ell}(x) as the double loop over pairs j <= i <= ell."""
    out = zero(x.algebra)
    idx = [i for i, k in enumerate(range(pi.l_min, pi.l_max + 1)) if k <= ell]
    for i in idx:
        for j in idx:
            if i >= j:
                out = out + pi.blocks[i] @ x @ pi.blocks[j]
    return out


def _rank_deficient_case(d=3):
    """A martingale whose every f_k vanishes on one direction shared by all
    cells, so that its compressions keep a kernel, and the projection onto
    that direction."""
    filt = GridFiltration(1, 3, d)
    rng = np.random.default_rng(21)
    basis = np.linalg.qr(rng.standard_normal((d, d - 1)))[0]
    shape = (filt.algebra.nblocks, d - 1, d - 1)
    g = basis @ (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    top = Op(g @ g.conj().transpose(0, 2, 1), filt.algebra)
    return (Martingale(filt, (1.0 / top.trace().real) * top),
            np.eye(d) - basis @ basis.T)


BLOCK_SPECS = ["tensor:4", "grid:1,4,2", "grid:2,3,3", "rank-deficient",
               "rank-deficient-2"]


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=closed(BLOCK_SPECS))
def test_batched_matches_per_block_oracle(spec):
    if spec.startswith("rank-deficient"):
        # d = 2 is the closed-form kernel, d = 3 LAPACK's
        marts = [_rank_deficient_case(2 if spec.endswith("2") else 3)[0]]
    else:
        filt = build_filtration(spec)
        marts = [random_positive_martingale(filt, trial_rng(22, t))
                 for t in range(3)]
    for f in marts:
        for e in range(-2, 5):
            seq = cuculescu(f, 2.0 ** e)
            oracle = per_block_cuculescu(f, 2.0 ** e)
            full = stored_full_size(seq)[0]
            for q, q_ref in zip(full, oracle, strict=True):
                assert np.abs(q.blocks - q_ref.blocks).max() <= 1e-12


def _batch_martingales(spec):
    if spec == "rank-deficient":
        return [_rank_deficient_case()[0]]
    filt = build_filtration(spec)
    return [random_positive_martingale(filt, trial_rng(24, t))
            for t in range(2)]


LAMBDA_SPECS = ["tensor:4", "grid:1,4,2", "grid:2,3,3", "rank-deficient"]


@pytest.mark.parametrize("spec", LAMBDA_SPECS, ids=closed(LAMBDA_SPECS))
def test_lambda_batch_matches_per_lambda_calls(spec):
    lams = 2.0 ** np.arange(-2, 5)
    for f in _batch_martingales(spec):
        seqs = cuculescu(f, lams)
        reports = cuculescu_report(seqs)
        assert {q.batch for q in seqs.restricted} == {lams.shape}
        assert all(np.shape(v) == lams.shape for v in reports.values())
        for i, lam in enumerate(lams):
            one = cuculescu(f, lam)
            assert isinstance(one, CuculescuSequence)
            assert seqs.lam[i] == one.lam == lam
            for q, q_ref in zip(seqs[i].restricted, one.restricted,
                                strict=True):
                assert np.abs(q.blocks - q_ref.blocks).max() <= 1e-12
            ref = cuculescu_report(one)
            assert reports.keys() == ref.keys()
            for key in ref:
                assert abs(reports[key][i] - ref[key]) <= 1e-12


@pytest.mark.parametrize("lam", [[], [[1.0, 2.0]], [1.0, 0.0], [-1.0, 2.0],
                                 [1.0, np.nan], [np.inf], 0.0],
                         ids=["empty", "2-D", "zero", "negative", "nan",
                              "inf", "scalar-zero"])
def test_bad_lambda_batch_raises(lam):
    f = random_positive_martingale(GridFiltration(1, 3, 2), trial_rng(26, 0))
    with pytest.raises(ContractViolation):
        cuculescu(f, lam)


@pytest.mark.parametrize("spec", ["tensor:4", "grid:1,4,2", "rank-deficient"])
def test_q_lambda_equals_proj_meet_oracle(spec):
    for f in _batch_martingales(spec):
        seq = cuculescu(f, 2.0 ** np.arange(-2, 5))
        full = stored_full_size(seq)[0]
        for i in range(len(seq.lam)):
            diff = q_lambda(seq)[i].blocks - proj_meet(full[i]).blocks
            assert np.abs(diff).max() <= 1e-12


@pytest.mark.parametrize("spec", ["tensor:4", "grid:1,4,2", "grid:2,3,3",
                                  "rank-deficient"])
def test_sup_l1_equals_max_schatten_norm(spec):
    # ||f_k||_1 = tau(f_k) is the same at every level of a positive
    # martingale, so signed and non-Hermitian tops are checked as well
    marts = _batch_martingales(spec)
    alg = marts[0].algebra
    for t, hermitian in enumerate((True, False)):
        top = random_op(alg, trial_rng(29, t), hermitian=hermitian)
        marts.append(Martingale(marts[0].filtration, top))
    for f in marts:
        ref = max(schatten_norm(fk, 1) for fk in f.seq)
        assert abs(f.sup_l1 - ref) <= 1e-12


@pytest.mark.parametrize("spec", ["tensor:4", "grid:1,4,2", "grid:2,3,3",
                                  "rank-deficient"])
def test_top_norms_equal_the_level_by_level_oracles(spec):
    # each E_k is a positive unital contraction, so the top decides the
    # sup norms and the floor, for signed and non-Hermitian tops too
    marts = _batch_martingales(spec)
    filt = marts[0].filtration
    for t, hermitian in enumerate((True, False)):
        marts.append(Martingale(filt, random_op(filt.algebra,
                                                trial_rng(30, t), hermitian)))
    # and a (2, 2) batch, with negated tops when there are fewer than four
    tops = np.stack(([f.top.blocks for f in marts]
                     + [-f.top.blocks for f in marts])[:4])
    marts.append(Martingale(filt, Op(tops.reshape((2, 2) + tops.shape[1:]),
                                     filt.algebra)))
    for f in marts:
        # the floor is measured against the size of f: a rank-deficient f
        # has a rounding-level zero floor
        l1, linf = level_sup_l1(f), level_sup_linf(f)
        for got, want, scale in ((f.sup_l1, l1, l1), (f.sup_linf, linf, linf),
                                 (f.spectral_floor, level_spectral_floor(f),
                                  linf)):
            assert np.shape(got) == np.shape(want) == f.batch
            assert np.all(np.abs(np.subtract(got, want)) <= 1e-12 * scale)


@pytest.mark.parametrize("m", range(-4, 12))
def test_default_ladder_top_is_the_least_level_above_the_sup(m):
    # 1 x 1 blocks: the sup of a constant martingale c is |c| exactly
    filt = GridFiltration(1, 2, 1)
    for c in (2.0 ** m, np.nextafter(2.0 ** m, 0), np.nextafter(2.0 ** m, 4e3),
              1.5 * 2.0 ** m, 1e-13):
        f = Martingale(filt, c * filt.algebra.unit())
        assert f.sup_linf == c
        top = ladder_top(f)
        assert 2.0 ** top > c >= 2.0 ** (top - 1)
        with pytest.raises(ContractViolation, match="l_max too small"):
            ladder_top(f, top - 1)


def test_a_non_hermitian_top_is_not_positive():
    # 2 + 1.5 e_07 has the positive Hermitian part 2 + 0.75 (e_07 + e_70),
    # floor 1.25, but a positive operator is self-adjoint
    filt = TensorDyadicFiltration(3)
    top = filt.algebra.unit() * 2.0
    top.blocks[0, 0, 7] += 1.5
    f = Martingale(filt, top)
    assert abs(f.spectral_floor - 1.25) <= 1e-14
    assert not f.top.is_hermitian() and not f.is_positive()
    with pytest.raises(ContractViolation, match=r"positive martingale "
                       r"\(its top is not Hermitian\)$"):
        cuculescu(f, 1.0)
    # one such entry makes a batch not positive
    good = random_positive_martingale(filt, trial_rng(31, 0)).top
    batch = Martingale(filt, Op(np.stack([good.blocks, top.blocks]),
                                filt.algebra))
    assert not batch.is_positive()
    assert Martingale(filt, good).is_positive()
    with pytest.raises(ContractViolation, match="not Hermitian"):
        cuculescu(batch, [1.0, 2.0])


def test_rank_deficient_case_separates_conventions():
    _assert_closed_convention_keeps_the_kernel(3)


def test_closed_form_kernel_separates_conventions():
    # the kernel direction of 2 x 2 blocks meets the closed form
    _assert_closed_convention_keeps_the_kernel(2)


def _assert_closed_convention_keeps_the_kernel(d):
    # the eigenvalue 0 of the shared kernel direction lies in [0, lambda],
    # so every q_n keeps that direction, of trace 1/d, where a half-open
    # (0, lambda] would expel it
    f, kernel = _rank_deficient_case(d)
    for q in stored_full_size(cuculescu(f, 0.25))[0]:
        assert np.abs(q.blocks @ kernel - kernel).max() <= 1e-10


def test_compression_excess_sees_a_projection_above_lambda():
    # q_n = 1 at every level leaves q f q - lam q = f - lam, positive on the
    # spectrum of f above lam; a minimum eigenvalue would read 0 here
    filt = GridFiltration(1, 3, 2)
    f = random_positive_martingale(filt, trial_rng(23, 0))
    w = np.linalg.eigvalsh(f.top.blocks)
    lam = 0.5 * (w.min() + w.max())
    bad = CuculescuSequence(lam, tuple(filt.level_algebra(k).unit()
                                       for k in f.levels), f)
    excess = cuculescu_report(bad)["compression_excess"]
    assert excess >= w.max() - lam - 1e-12 > 0.0
    suite = Suite(ExperimentConfig("cuculescu").resolved(), rules=[
        ("compression_below_lambda", "compression_excess", 1e-8)])
    suite.add_trial("x", {"compression_excess": excess})
    assert suite.report()["assertions"][0]["pass"] is False


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_matches_naive_oracle(lam):
    filt = TensorDyadicFiltration(3)
    f = random_positive_martingale(filt, trial_rng(11, 0))
    seq = cuculescu(f, lam)
    for q, q_ref in zip(stored_full_size(seq)[0], naive_cuculescu(f, lam)):
        assert (q - q_ref).max_abs() < 1e-8


def test_projections_decrease():
    filt = TensorDyadicFiltration(3)
    f = random_positive_martingale(filt, trial_rng(12, 0))
    seq = cuculescu(f, 1.0)
    prev = f.algebra.unit()
    for q in stored_full_size(seq)[0]:
        assert is_projection(q, tol=1e-9)
        assert np.linalg.eigvalsh((prev - q).blocks).min() > -1e-10
        prev = q


def test_classical_properties_report():
    filt = GridFiltration(1, 3, 2)
    f = random_positive_martingale(filt, trial_rng(13, 0))
    for lam in (0.25, 1.0, 4.0):
        rep = cuculescu_report(cuculescu(f, lam))
        assert rep["commutator"] < 1e-8
        assert rep["compression_excess"] < 1e-8
        assert lam * rep["tail_trace"] <= f.sup_l1 + 1e-8


def test_scalar_stopping_time_oracle():
    # [DERIVED] d = 1 grid reduces to the classical dyadic stopping time:
    # q_n is the indicator of cells whose running averages stayed <= lam
    filt = GridFiltration(1, 3, 1)
    vals = np.array([0.1, 0.2, 3.0, 0.4, 0.5, 0.6, 0.7, 0.8])
    f = Martingale(filt, Op(vals.astype(complex)[:, None, None],
                            filt.algebra))
    seq = cuculescu(f, 1.0)
    hit = np.zeros(8, dtype=bool)
    for k in range(4):
        avg = vals.reshape(2 ** k, -1).mean(axis=1)
        hit |= np.repeat(avg > 1.0 + 1e-9, 8 // 2 ** k)
        got = stored_full_size(seq)[0][k].blocks[:, 0, 0].real
        assert np.allclose(got, (~hit).astype(float))


def test_q_lambda_meet():
    filt = TensorDyadicFiltration(3)
    f = random_positive_martingale(filt, trial_rng(14, 0))
    seq = cuculescu(f, 1.0)
    q = q_lambda(seq)
    for qn in stored_full_size(seq)[0]:
        assert np.linalg.eigvalsh((qn - q).blocks).min() > -1e-10


def test_pi_family_partitions_unity():
    filt = TensorDyadicFiltration(3)
    f = random_positive_martingale(filt, trial_rng(15, 0))
    pi = pi_family(ladder(f, -2, 3))
    assert len(pi.blocks) == len(range(pi.l_min, pi.l_max + 1))
    total = zero(f.algebra)
    for b in pi.blocks:
        total = total + b
        assert is_projection(b, tol=1e-8)
    assert (total - f.algebra.unit()).max_abs() < 1e-8


def test_pi_family_range_too_small():
    filt = TensorDyadicFiltration(3)
    f = random_positive_martingale(filt, trial_rng(16, 0))
    f = Martingale(filt, 100.0 * f.top)
    assert 2.0 ** 8 < f.sup_linf < 2.0 ** 9
    with pytest.raises(ContractViolation, match="l_max too small"):
        pi_family(ladder(f, -2, 3))      # 2^3 < sup ||f||_inf
    with pytest.raises(ContractViolation, match="l_max too small"):
        pi_family(ladder(f, 0, 8))
    # the default top is the lowest level that clears the sup
    assert ladder_top(f) == 9 and ladder_top(f, 10) == 10
    assert pi_family(ladder(f, 0, 9)).l_max == 9


@pytest.mark.parametrize("lam", [[1.0, 4.0], [4.0, 2.0], [0.75, 1.5], 2.0])
def test_pi_family_needs_a_consecutive_dyadic_ladder(lam):
    f = random_positive_martingale(TensorDyadicFiltration(3), trial_rng(16, 1))
    with pytest.raises(ContractViolation, match="consecutive"):
        pi_family(cuculescu(f, lam))


def test_delta_split_is_exact_partition():
    filt = TensorDyadicFiltration(3)
    f = random_positive_martingale(filt, trial_rng(17, 0))
    pi = pi_family(ladder(f, -2, 3))
    rng = np.random.default_rng(18)
    alg = f.algebra
    x = Op(rng.standard_normal((alg.nblocks, alg.d, alg.d))
           + 1j * rng.standard_normal((alg.nblocks, alg.d, alg.d)), alg)
    r, c = delta_split(x, pi)
    assert (r + c - x).max_abs() < 1e-10
    # triangular truncations are L2 contractions and orthogonal pieces
    assert l2_norm(r) <= l2_norm(x) + 1e-10
    assert l2_norm(c) <= l2_norm(x) + 1e-10
    assert l2_norm(r) ** 2 + l2_norm(c) ** 2 == pytest.approx(
        l2_norm(x) ** 2, rel=1e-10)


def test_delta_trunc_contraction_and_nesting():
    filt = TensorDyadicFiltration(3)
    f = random_positive_martingale(filt, trial_rng(19, 0))
    pi = pi_family(ladder(f, -2, 3))
    rng = np.random.default_rng(20)
    alg = f.algebra
    x = Op(rng.standard_normal((alg.nblocks, alg.d, alg.d)) + 0j, alg)
    prev = None
    for ell in range(pi.l_min, pi.l_max + 1):
        tr = delta_trunc(x, pi, ell)
        assert l2_norm(tr) <= l2_norm(x) + 1e-10
        prev = tr
    r, _ = delta_split(x, pi)
    assert (prev - r).max_abs() < 1e-10   # full truncation = row part


@pytest.mark.parametrize("spec", ["tensor:3", "grid:1,4,2"])
def test_delta_trunc_matches_pair_loop_oracle(spec):
    filt = build_filtration(spec)
    f = random_positive_martingale(filt, trial_rng(27, 0))
    pi = pi_family(ladder(f, -3, 3))
    rng = np.random.default_rng(28)
    alg = f.algebra
    x = Op(rng.standard_normal((alg.nblocks, alg.d, alg.d))
           + 1j * rng.standard_normal((alg.nblocks, alg.d, alg.d)), alg)
    for ell in range(pi.l_min - 1, pi.l_max + 1):
        got = delta_trunc(x, pi, ell)
        assert (got - delta_trunc_oracle(x, pi, ell)).max_abs() <= 1e-12
    r, _ = delta_split(x, pi)
    assert (r - delta_trunc_oracle(x, pi, pi.l_max)).max_abs() <= 1e-12


def meet_ladder_pairwise_oracle(qs):
    """The meet ladder W_l = meet(W_{l+1}, q_l) built one pair at a time
    down from W_{l_max} = q_{l_max}, and its increments."""
    w = [qs[-1]]
    for q in list(qs)[-2::-1]:
        w.insert(0, proj_meet(Op(np.stack([w[0].blocks, q.blocks]),
                                 q.algebra)))
    return w, [w[0]] + [w[i] - w[i - 1] for i in range(1, len(w))]


@pytest.mark.parametrize("spec", ["tensor:4", "grid:1,4,2", "grid:2,3,2"])
def test_meet_ladder_matches_pairwise_oracle(spec):
    f = random_positive_martingale(build_filtration(spec), trial_rng(30, 0))
    seq = ladder(f, -4, 3)
    pi, qs = pi_family(seq), q_lambda(seq)
    w, blocks = meet_ladder_pairwise_oracle(qs)
    assert pi.l_max == 3 and len(pi.w) == len(w) == 8
    for got, ref in zip(pi.w, w, strict=True):
        assert (got - ref).max_abs() <= 1e-12
    for got, ref in zip(pi.blocks, blocks, strict=True):
        assert (got - ref).max_abs() <= 1e-12


# -- the level-size recursion against the full-size one ---------------------

LEVEL_SPECS = ["tensor:3", "tensor:4", "grid:1,4,2", "grid:2,3,2"]


def full_size_cuculescu(f, lams):
    """The recursion with every level diagonalized at full size, as it ran
    before the level subalgebras had their own coordinates: (lambda,
    position, block, d, d) projections."""
    alg = f.algebra
    one = np.eye(alg.d)
    cut = lams[:, None, None]
    q = np.broadcast_to(one, (lams.size, alg.nblocks, alg.d, alg.d))
    qs = np.empty((lams.size,) + f.seq.blocks.shape, dtype=complex)
    for n, fn in enumerate(f.seq.blocks):
        h = q @ fn @ q + (cut[..., None] + 1.0) * (one - q)
        w, u = np.linalg.eigh(0.5 * (h + h.conj().swapaxes(-1, -2)))
        keep = w <= cut + ENDPOINT_TOL
        u = u * keep[..., None, :]
        q = qs[:, n] = u @ u.conj().swapaxes(-1, -2)
    return qs


def full_size_report(seqs):
    """cuculescu_report at full size: one SVD of every commutator and one
    eigvalsh of every q_n f_n q_n - lam q_n."""
    f = seqs.martingale
    lams = seqs.lam[:, None, None, None, None]
    fs = f.seq.blocks
    qs = stored_full_size(seqs)[0].blocks
    unit = np.broadcast_to(f.algebra.unit().blocks, qs[:, :1].shape)
    qprev = np.concatenate([unit, qs[:, :-1]], axis=1)
    comp = qprev @ fs @ qprev
    comm = np.linalg.svd(qs @ comp - comp @ qs, compute_uv=False)
    h = qs @ fs @ qs - lams * qs
    excess = np.linalg.eigvalsh(0.5 * (h + h.conj().swapaxes(-1, -2)))
    return [{"commutator": comm[i].max(),
             "compression_excess": excess[i].max()}
            for i in range(len(seqs.lam))]


@pytest.mark.parametrize("spec", LEVEL_SPECS, ids=closed(LEVEL_SPECS))
def test_level_size_recursion_matches_full_size_oracle(spec):
    lams = 2.0 ** np.arange(-2, 5)
    f = random_positive_martingale(build_filtration(spec), trial_rng(31, 0))
    seqs = cuculescu(f, lams)
    ref = full_size_cuculescu(f, lams)
    full = stored_full_size(seqs)[0]
    for i in range(len(lams)):
        assert np.abs(full[i].blocks - ref[i]).max() <= 1e-12
    got = cuculescu_report(seqs)
    for i, want in enumerate(full_size_report(seqs)):
        for key, val in want.items():
            assert abs(got[key][i] - val) <= 1e-12


@pytest.mark.parametrize("spec", LEVEL_SPECS, ids=closed(LEVEL_SPECS))
def test_indexed_solve_equals_solving_at_those_thresholds(spec):
    f = random_positive_martingale(build_filtration(spec), trial_rng(34, 0))
    seq = ladder(f, -3, 4)
    for i in ([1, 2, 5], [6, 0, 6], slice(2, 5), np.arange(3, 8)):
        got = seq[i]
        want = cuculescu(f, 2.0 ** np.arange(-3, 5)[i])
        assert np.array_equal(got.lam, want.lam)
        for q, q_want in zip(got.restricted, want.restricted, strict=True):
            assert np.array_equal(q.blocks, q_want.blocks)
        assert got.martingale is f


@pytest.mark.parametrize("spec", LEVEL_SPECS)
def test_q_n_lies_in_its_level(spec):
    filt = build_filtration(spec)
    f = random_positive_martingale(filt, trial_rng(32, 0))
    seq = cuculescu(f, 2.0 ** np.arange(-2, 5))
    for qs in stored_full_size(seq)[0]:
        for k, q in zip(f.levels, qs):
            assert np.array_equal(filt.expect(q, k).blocks, q.blocks)


# -- the lambda batch against one call per threshold -------------------------

BATCH_LAMS = 2.0 ** np.arange(-2, 5)


@pytest.mark.parametrize("spec", ["tensor:4", "grid:1,4,2", "grid:2,3,2"])
def test_batch_entries_equal_scalar_calls(spec):
    f = random_positive_martingale(build_filtration(spec), trial_rng(33, 0))
    # the thresholds in a shuffled order: no entry may lean on its place
    for lams in (BATCH_LAMS, BATCH_LAMS[[3, 0, 6, 2, 5, 1, 4]]):
        seq = cuculescu(f, lams)
        assert {q.batch for q in seq.restricted} == {lams.shape}
        assert_entries_match_scalar_calls(
            seq, lams, lambda lam: cuculescu(f, lam))
        assert_entries_match_scalar_calls(
            cuculescu_report(seq), lams,
            lambda lam: cuculescu_report(cuculescu(f, lam)))
        q_prev = stored_full_size(seq)[1]
        for i, lam in enumerate(lams):
            one = cuculescu(f, lam)
            assert (q_lambda(seq)[i] - q_lambda(one)).max_abs() <= 1e-12
            assert (q_prev[i] - stored_full_size(one)[1]).max_abs() <= 1e-12


# -- a batch of martingales against one call per member ----------------------

def _member_tops(filt, count, seed=35):
    return np.stack([random_positive_top(filt, trial_rng(seed, t)).blocks
                     for t in range(count)])


@pytest.mark.parametrize("spec", ["tensor:4", "grid:1,4,2", "grid:2,2,2"])
def test_trial_batch_entries_equal_each_members_own_call(spec):
    # the thresholds come first, then the martingale's batch axis
    filt = build_filtration(spec)
    tops = _member_tops(filt, 3)
    batch = Martingale(filt, Op(tops, filt.algebra))
    seq = cuculescu(batch, BATCH_LAMS)
    rep = cuculescu_report(seq)
    assert {q.batch for q in seq.restricted} == {BATCH_LAMS.shape + (3,)}
    assert all(np.shape(v) == BATCH_LAMS.shape + (3,) for v in rep.values())
    for i, top in enumerate(tops):
        one = cuculescu(Martingale(filt, Op(top, filt.algebra)), BATCH_LAMS)
        for q, q_one in zip(seq.restricted, one.restricted, strict=True):
            assert np.array_equal(q.blocks[:, i], q_one.blocks)
        for key, val in cuculescu_report(one).items():
            assert np.array_equal(rep[key][:, i], val)
    # a scalar threshold adds no axis in front of the batch
    scalar = cuculescu_report(cuculescu(batch, 2.0))
    assert all(np.shape(v) == (3,) for v in scalar.values())
    assert np.array_equal(scalar["commutator"], rep["commutator"][3])


@pytest.mark.parametrize("spec", ["tensor:4", "grid:1,4,2", "grid:2,2,2"])
def test_a_member_reads_the_same_whatever_shares_its_chunk(spec):
    # one member stacked at every place of chunks of 1-6 with companions
    # drawn afresh for each size: each per-entry value is its own, bit for
    # bit (CZ lives on the grid algebra only)
    filt = build_filtration(spec)
    member = _member_tops(filt, 1, seed=36)
    f = Martingale(filt, Op(member[0], filt.algebra))
    want = [f.sup_l1, f.sup_linf, f.spectral_floor,
            cuculescu_report(cuculescu(f, BATCH_LAMS))]
    if spec.startswith("grid"):
        want.append(cz_report(cz_decompose(f, BATCH_LAMS)))
    for size in range(1, 7):
        companions = _member_tops(filt, size - 1, seed=100 + size) \
            if size > 1 else member[:0]
        for place in range(size):
            tops = np.insert(companions, place, member, axis=0)
            batch = Martingale(filt, Op(tops, filt.algebra))
            got = [batch.sup_l1[place], batch.sup_linf[place],
                   batch.spectral_floor[place],
                   cuculescu_report(cuculescu(batch, BATCH_LAMS))]
            if spec.startswith("grid"):
                got.append(cz_report(cz_decompose(batch, BATCH_LAMS)))
            assert got[:3] == want[:3]
            for rep, one in zip(got[3:], want[3:]):
                for key, val in one.items():
                    entry = rep[key][place] if key == "b_d_bound" \
                        else rep[key][:, place]
                    assert np.array_equal(entry, val)


@pytest.mark.parametrize("shape,bad,named", [
    ((4,), [2], "2"), ((4,), [1, 3], "1"), ((4,), [0], "0"),
    ((2, 2), [3, 1], "0, 1")])
def test_a_batch_that_is_not_positive_names_its_first_bad_entry(
        shape, bad, named):
    filt = GridFiltration(1, 3, 2)
    tops = _member_tops(filt, 4)
    tops[bad, 3] -= 10.0 * np.eye(2)
    f = Martingale(filt, Op(tops.reshape(shape + tops.shape[1:]),
                            filt.algebra))
    with pytest.raises(ContractViolation,
                       match=rf"positive martingale \(entry {named} is not\)$"):
        cuculescu(f, BATCH_LAMS)
    # an unbatched martingale has no entry to name
    with pytest.raises(ContractViolation,
                       match="requires a positive martingale$"):
        cuculescu(Martingale(filt, Op(tops[bad[0]], filt.algebra)), 1.0)


# -- finiteness: checked where data enters, not on every result ----------------

@pytest.mark.parametrize("spec", ["tensor:3", "grid:1,4,2"])
def test_injected_nonfinite_projection_never_passes(spec, monkeypatch):
    # the recursion's projections are not checked once computed, so a NaN
    # arising inside must raise or fail a rule on a "NaN" measurement
    # (the package exports the function ``cuculescu`` under the module's name)
    module = importlib.import_module("nclp.cuculescu")
    real = module.kept_projection

    def poisoned(h, keep):
        out = real(h, keep).astype(complex)
        out[(0,) * (out.ndim - 2)] = np.nan     # the first block
        return out

    monkeypatch.setattr(module, "kept_projection", poisoned)
    try:
        rep = run(ExperimentConfig("cuculescu", algebra=spec, trials=1))
    except NumericError:
        return
    failed = [a for a in json.loads(report_json(rep))["assertions"]
              if not a["pass"]]
    assert any(a["measured"] == "NaN" for a in failed), failed


def test_recursion_makes_no_validating_op_call(monkeypatch):
    f = random_positive_batch(TensorDyadicFiltration(4),
                              [(trial_rng(0, t), t) for t in range(4)])
    calls = []
    real = Op.__init__

    def counted(self, *args):
        calls.append(1)
        real(self, *args)

    monkeypatch.setattr(Op, "__init__", counted)
    rep = cuculescu_report(cuculescu(f, 2.0 ** np.arange(-2, 5)))
    assert np.all(rep["commutator"] <= 1e-8)
    assert calls == []
    # the counter sees the validating constructor
    Op(f.top.blocks, f.algebra)
    assert calls == [1]


# -- q_n in its own level's coordinates, the full-size stacks in the tests ----

CONTRACT_SPECS = ["tensor:4", "grid:1,4,2", "grid:2,3,2"]


def _pair(filt, seed):
    return random_positive_batch(filt, [(trial_rng(seed, t), t)
                                        for t in range(2)])


@pytest.mark.parametrize("lam", [2.0, BATCH_LAMS], ids=["scalar", "vector"])
@pytest.mark.parametrize("spec", CONTRACT_SPECS)
def test_levels_hold_q_n_and_the_full_stacks_extend_them(spec, lam):
    filt = build_filtration(spec)
    f = _pair(filt, 36)
    seq = cuculescu(f, lam)
    # the levels are the only form of q_n the sequence keeps
    assert [fld.name for fld in dataclasses.fields(seq)] \
        == ["lam", "restricted", "martingale"]
    assert not {"qs", "q_prev"} & set(dir(seq))
    assert len(seq.restricted) == len(f.levels)
    for k, q in zip(f.levels, seq.restricted):
        assert q.algebra is filt.level_algebra(k)
        assert q.batch == np.shape(lam) + f.batch
    # the tests' full-size stacks extend the levels, and q_{n-1} at level n
    # is the extension of its refinement into M_n, which the readers use
    qs, q_prev = stored_full_size(seq)
    assert np.array_equal(qs.blocks, filt.extend_levels(seq.restricted).blocks)
    assert np.array_equal(q_prev.blocks[..., 0, :, :, :], np.broadcast_to(
        filt.algebra.unit().blocks, qs.blocks[..., 0, :, :, :].shape))
    for k in f.levels[1:]:
        assert np.array_equal(q_prev.blocks[..., k, :, :, :], filt.extend(
            filt.refine(seq.restricted[k - 1], k), k).blocks)
    # q(lambda) is the top level itself, the last q_n of the full stack
    assert q_lambda(seq) is seq.restricted[-1]
    assert np.array_equal(q_lambda(seq).blocks, qs.blocks[..., -1, :, :, :])


@pytest.mark.parametrize("spec", CONTRACT_SPECS)
def test_indexing_slices_the_levels_and_the_full_stacks_alike(spec):
    seq = cuculescu(_pair(build_filtration(spec), 37), BATCH_LAMS)
    qs_all, q_prev_all = stored_full_size(seq)
    for i in (3, [1, 4, 1], slice(2, 6)):
        got = seq[i]
        assert np.array_equal(got.lam, BATCH_LAMS[i])
        for q, q_all in zip(got.restricted, seq.restricted, strict=True):
            assert np.array_equal(q.blocks, q_all.blocks[i])
        qs, q_prev = stored_full_size(got)
        assert np.array_equal(qs.blocks, qs_all.blocks[i])
        assert np.array_equal(q_prev.blocks, q_prev_all.blocks[i])


@pytest.mark.parametrize("spec", ["tensor:4", "grid:1,4,2"])
def test_cuculescu_runner_builds_no_full_size_stack(spec, monkeypatch):
    import nclp.harness as harness
    seen, real = [], harness.cuculescu_report

    def recorded(seq):
        seen.append(seq)
        return real(seq)

    monkeypatch.setattr(harness, "cuculescu_report", recorded)
    run(ExperimentConfig("cuculescu", algebra=spec, trials=TRIAL_CHUNK))
    [seq] = seen
    assert seq.martingale.batch == (TRIAL_CHUNK,)
    assert not {"seq", "diffs"} & seq.martingale.__dict__.keys()
    assert not {"qs", "q_prev"} & seq.__dict__.keys()


def test_cuculescu_chunk_memory_stays_level_sized():
    # a tensor:4 chunk of 8 trials at 7 thresholds peaked at 3.3 MiB here
    # while every q_n was also stored at full size; kept in its own level's
    # coordinates it peaks at 2.2 MiB
    f = random_positive_batch(TensorDyadicFiltration(4), [
        (trial_rng(5, t), t) for t in range(TRIAL_CHUNK)])
    tracemalloc.start()
    try:
        cuculescu_report(cuculescu(f, BATCH_LAMS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20
