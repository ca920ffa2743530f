import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nclp.cuculescu import CuculescuSequence, q_lambda
from nclp.czkit import (ZetaData, cz_decompose, cz_report, g_off_layer_report,
                        g_off_layers, thmB1_decompose, zeta, zeta_cube_inequalities,
                        zeta_fs, zeta_report)
from nclp.errors import ContractViolation
from nclp.filtration import GridFiltration, TensorDyadicFiltration
from nclp.harness import (random_coeffs, random_positive_batch,
                          random_positive_martingale, trial_rng)
from nclp.martingale import Martingale, transform_family
from nclp.opcore import (ENDPOINT_TOL, Op, l2_norm, op_norm, schatten_norm,
                         singular_values)

from batch_entries import assert_entries_match_scalar_calls, entry
from oracles import (concentric_mask, cube_cells, cubes_at_level,
                     cz_decompose_full_size, dyadic_father, first_cells,
                     is_projection, proj_meet, spectral_projection,
                     stored_full_size, zero,
                     zeta_cube_inequalities_first_cells,
                     zeta_cube_inequalities_pairs, zeta_fs_first_cells)


def _grid_mart(seed, n=1, K=4, d=2):
    filt = GridFiltration(n, K, d)
    return random_positive_martingale(filt, trial_rng(seed, 0))


def pair_sum_oracle(parts):
    """g_d, g_off, b_d, b_off and the b_d terms rebuilt one Op product at a
    time from the recursion projections of ``parts``, each p_k extended
    into the full algebra."""
    f = parts.martingale
    ps = [parts.filtration.extend(p, k) for k, p in enumerate(parts.ps)]
    q, top = q_lambda(parts.seq), f.top
    one = f.algebra.unit()
    g_d = q @ top @ q
    b_d = zero(f.algebra)
    terms = []
    for k in range(len(ps)):
        g_d = g_d + ps[k] @ f.seq[k] @ ps[k]
        terms.append(ps[k] @ (top - f.seq[k]) @ ps[k])
        b_d = b_d + terms[-1]
    g_off = q @ top @ (one - q) + (one - q) @ top @ q
    b_off = zero(f.algebra)
    for i in range(len(ps)):
        for j in range(len(ps)):
            if i != j:
                fij = f.seq[max(i, j)]
                g_off = g_off + ps[i] @ fij @ ps[j]
                b_off = b_off + ps[i] @ (top - fij) @ ps[j]
    return g_d, g_off, b_d, b_off, terms


def thmB1_pair_loop_oracle(tf_family, split):
    """The A and B parts of thmB1_decompose as double loops over the block
    pairs above psi, one family member at a time."""
    psi, blocks = split.pi.w[0], split.pi.blocks
    one = psi.algebra.unit()
    idx = list(range(1, len(blocks)))
    a_ops, b_ops = [], []
    for g in tf_family:
        a = (one - psi) @ g @ psi
        b = psi @ g @ (one - psi)
        for i in idx:
            for j in idx:
                term = blocks[i] @ g @ blocks[j]
                if i >= j:
                    a = a + term
                else:
                    b = b + term
        a_ops.append(a)
        b_ops.append(b)
    return a_ops, b_ops


def cube_xi(parts):
    """xi_Q, the block of q_k on the first cell of each level-k cube Q,
    keyed by (level, cube corner), for the parts at one threshold."""
    filt, qs = parts.filtration, stored_full_size(parts.seq)[0].blocks
    return {(k, Q.corner): b for pos, k in enumerate(parts.martingale.levels)
            for Q, b in zip(cubes_at_level(filt, k),
                            qs[pos, first_cells(filt, k)])}


def cube_inequality_oracle(zd):
    """zeta_cube_inequalities with one eigvalsh per 2x2 block."""
    filt = zd.parts.filtration
    xi = cube_xi(zd.parts)
    worst_strong = worst_weak = np.inf
    for k in zd.parts.martingale.levels[1:]:
        for Q in cubes_at_level(filt, k):
            xi_q = xi[(k, Q.corner)]
            xi_hat = xi[(k - 1, dyadic_father(Q).corner)]
            strong_cap = np.eye(filt.d) - xi_hat + xi_q
            for blk in zd.zeta.blocks[concentric_mask(filt, Q, 9)]:
                h1 = strong_cap - blk
                h2 = xi_q - blk
                worst_strong = min(worst_strong, np.linalg.eigvalsh(
                    0.5 * (h1 + h1.conj().T)).min())
                worst_weak = min(worst_weak, np.linalg.eigvalsh(
                    0.5 * (h2 + h2.conj().T)).min())
    return {"strong_min_eig": worst_strong, "weak_min_eig": worst_weak}


def zeta_per_cube_oracle(parts):
    """xi, psi_k, zeta_k and zeta with the lost blocks added one cube at a
    time onto its 9-fold dilation."""
    f, filt = parts.martingale, parts.filtration
    alg = f.algebra
    qs = stored_full_size(parts.seq)[0]
    xi = {(k, Q.corner): qs[pos].blocks[cube_cells(filt, Q)[0]]
          for pos, k in enumerate(f.levels) for Q in cubes_at_level(filt, k)}
    running = np.zeros((alg.nblocks, alg.d, alg.d), dtype=complex)
    psi, zeta_k = [], []
    for pos, k in enumerate(f.levels):
        if k > parts.m_lambda:
            qprev = qs[pos - 1] if pos > 0 else alg.unit()
            for Q in cubes_at_level(filt, k):
                cell = cube_cells(filt, Q)[0]
                diff = qprev.blocks[cell] - qs[pos].blocks[cell]
                if np.abs(diff).max() <= 1e-14:
                    continue
                running[concentric_mask(filt, Q, 9)] += diff
        psi.append(Op(running.copy(), alg))
        supp = spectral_projection(psi[-1].hermitize(),
                                   lambda w: w > 1e-9 + ENDPOINT_TOL)
        zeta_k.append(alg.unit() - supp)
    return xi, psi, zeta_k, proj_meet(Op(np.stack([z.blocks for z in zeta_k]),
                                         alg))


@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2), (1, 6, 2),
                                   (1, 4, 3), (2, 2, 3)])
def test_zeta_matches_per_cube_oracle(n, K, d):
    # the oracle meets the complements of the supports of the psi_k; zeta
    # takes one null space of the dilated 1 - q_k.  d = 3 runs the eigh
    # projections that the closed-form 2 x 2 blocks skip
    for t in range(3):
        f = random_positive_martingale(GridFiltration(n, K, d),
                                       trial_rng(63, t))
        batch = zeta(cz_decompose(f, 2.0 ** np.arange(0, 5)))
        for i in range(len(batch.parts.seq.lam)):
            zd = entry(batch, i)
            xi, _, _, z = zeta_per_cube_oracle(zd.parts)
            assert cube_xi(zd.parts).keys() == xi.keys()
            assert all(np.array_equal(cube_xi(zd.parts)[key], xi[key])
                       for key in xi)
            assert (zd.zeta - z).max_abs() <= 1e-12


@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2), (1, 3, 3)])
def test_stacked_pair_sums_match_oracle(n, K, d):
    for t in range(2):
        f = random_positive_martingale(GridFiltration(n, K, d),
                                       trial_rng(60, t))
        for e in range(0, 5):
            parts = cz_decompose(f, 2.0 ** e)
            g_d, g_off, b_d, b_off, terms = pair_sum_oracle(parts)
            for got, ref in ((parts.g_d, g_d), (parts.g_off, g_off),
                             (parts.b_d, b_d), (parts.b_off, b_off)):
                assert (got - ref).max_abs() <= 1e-12
            assert len(parts.b_d_l1) == len(terms)
            for got, ref in zip(parts.b_d_l1, terms):
                assert abs(got - schatten_norm(ref, 1)) <= 1e-12


@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2)])
def test_stacked_cube_inequalities_match_oracle(n, K, d):
    f = random_positive_martingale(GridFiltration(n, K, d), trial_rng(61, 0))
    for e in range(0, 5):
        zd = zeta(cz_decompose(f, 2.0 ** e))
        got = zeta_cube_inequalities(zd)
        ref = cube_inequality_oracle(zd)
        for key in ("strong_min_eig", "weak_min_eig"):
            assert abs(got[key] - ref[key]) <= 1e-12


def test_cube_inequalities_reach_the_rim_of_9Q():
    # one dead finest cube Q (cell 20 of 32) and zeta supported on cell 24
    # alone: 24 lies in 9Q but not in 7Q, so only the full dilation sees
    # zeta > xi_Q there
    filt = GridFiltration(1, 5, 1)
    parts = cz_decompose(random_positive_martingale(filt, trial_rng(64, 0)),
                         1.0)
    dead = np.ones((32, 1, 1), dtype=complex)
    dead[20] = 0.0
    qs = tuple(filt.level_algebra(k).unit() for k in range(5)) \
        + (Op(dead, filt.algebra),)
    z = np.zeros((32, 1, 1), dtype=complex)
    z[24] = 1.0
    zd = ZetaData(Op(z, filt.algebra), replace(
        parts, seq=CuculescuSequence(parts.seq.lam, qs, parts.martingale)))
    for rep in (zeta_cube_inequalities(zd), cube_inequality_oracle(zd)):
        assert rep["weak_min_eig"] == pytest.approx(-1.0)
        assert rep["strong_min_eig"] == pytest.approx(-1.0)


@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2), (1, 3, 3)])
def test_lambda_batch_matches_per_lambda_calls(n, K, d):
    lams = 2.0 ** np.arange(0, 5)
    for t in range(2):
        f = random_positive_martingale(GridFiltration(n, K, d),
                                       trial_rng(62, t))
        batch = cz_decompose(f, lams)
        assert batch.seq.lam.shape == batch.m_lambda.shape == lams.shape
        for i, lam in enumerate(lams):
            parts, ref = entry(batch, i), cz_decompose(f, lam)
            assert parts.seq.lam == ref.seq.lam == lam
            assert parts.m_lambda == ref.m_lambda
            for got, want in [(parts.g_d, ref.g_d), (parts.g_off, ref.g_off),
                              (parts.b_d, ref.b_d), (parts.b_off, ref.b_off),
                              (q_lambda(parts.seq), q_lambda(ref.seq)),
                              *zip(parts.seq.restricted, ref.seq.restricted,
                                   strict=True),
                              *zip(parts.ps, ref.ps, strict=True)]:
                assert (got - want).max_abs() <= 1e-12
            assert np.abs(parts.b_d_l1 - ref.b_d_l1).max() <= 1e-12


@pytest.mark.parametrize("lam", [[], [[1.0, 2.0]], [1.0, 0.0], [2.0, -1.0]],
                         ids=["empty", "2-D", "zero", "negative"])
def test_bad_lambda_batch_raises(lam):
    with pytest.raises(ContractViolation):
        cz_decompose(_grid_mart(63), lam)


def test_decomposition_reassembles():
    f = _grid_mart(50)
    for lam in (0.5, 1.0, 2.0, 4.0):
        rep = cz_report(cz_decompose(f, lam))
        assert rep["reconstruction_residual"] < 1e-9


def test_good_part_bounds():
    f = _grid_mart(51)
    for lam in (1.0, 2.0, 4.0):
        rep = cz_report(cz_decompose(f, lam))
        assert rep["g_d_l2sq"] <= rep["g_d_bound"] + 1e-9
        assert rep["b_d_l1_sum"] <= rep["b_d_bound"] + 1e-9


@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2), (1, 3, 3)])
def test_b_d_l1_sum_matches_per_term_norms(n, K, d):
    f = random_positive_martingale(GridFiltration(n, K, d), trial_rng(54, 0))
    lams = 2.0 ** np.arange(0, 5)
    terms = cz_decompose_full_size(f, lams)["b_d_terms"]
    for i, got in enumerate(cz_report(cz_decompose(f, lams))["b_d_l1_sum"]):
        ref = sum(schatten_norm(t, 1) for t in terms[i])
        assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-15


def test_rejects_wrong_algebra_and_bad_lambda():
    f = random_positive_martingale(TensorDyadicFiltration(3),
                                   trial_rng(52, 0))
    with pytest.raises(ContractViolation):
        cz_decompose(f, 1.0)
    with pytest.raises(ContractViolation):
        cz_decompose(_grid_mart(53), -1.0)


def test_m_lambda_scalar_oracle():
    # [DERIVED] d = 1 scalar case: m_lambda is the deepest level at which
    # every dyadic average stays at or below lambda
    filt = GridFiltration(1, 3, 1)
    vals = np.array([4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0])
    f = Martingale(filt, Op(vals.astype(complex)[:, None, None],
                            filt.algebra))
    parts = cz_decompose(f, 1.5)
    # averages: level 0 -> 1; level 1 -> (1,1); level 2 -> (2,0,0,2) exceeds
    assert parts.m_lambda == 1


def test_high_threshold_everything_good():
    f = _grid_mart(54)
    parts = cz_decompose(f, 1e6)
    assert parts.b_d.max_abs() < 1e-9
    assert parts.b_off.max_abs() < 1e-9
    assert (parts.g_d + parts.g_off - f.top).max_abs() < 1e-9


def test_zeta_is_projection_with_mass_bound():
    f = _grid_mart(55)
    for lam in (1.0, 2.0):
        zd = zeta(cz_decompose(f, lam))
        assert is_projection(zd.zeta, tol=1e-8)
        assert zeta_report(zd)["excised_mass_ratio"] <= 1.0 + 1e-9


def test_zeta_scalar_dilation_oracle():
    # [DERIVED] d = 1: a single bad cell at level K excises exactly its
    # 9-cell dilated neighborhood (clipped by wraparound overlaps)
    filt = GridFiltration(1, 3, 1)
    vals = np.full(8, 0.5)
    vals[3] = 4.5
    f = Martingale(filt, Op(vals.astype(complex)[:, None, None],
                            filt.algebra))
    zd = zeta(cz_decompose(f, 2.0))
    mask = zd.zeta.blocks[:, 0, 0].real
    # averages exceed 2 on: level-2 cube {2,3} and level-3 cell {3}; their
    # 9-dilations at the respective levels cover cells 0..7? level-2 cube
    # of width 2 dilated by 9 has width 6 -> cells 0..7 minus none? compute:
    bad = np.zeros(8, dtype=bool)
    for k, cells in ((2, [2, 3]), (3, [3])):
        w = 8 // 2 ** k
        start = (cells[0] // w) * w
        lo = start - 4 * w
        hi = start + 5 * w
        for c in range(lo, hi):
            bad[c % 8] = True
    assert np.allclose(mask, (~bad).astype(float))


def test_zeta_cube_inequalities_hold():
    f = _grid_mart(56)
    rep = zeta_cube_inequalities(zeta(cz_decompose(f, 2.0)))
    assert rep["strong_min_eig"] >= -1e-8
    assert rep["weak_min_eig"] >= -1e-8


def test_g_off_layers_sum_and_support():
    f = _grid_mart(57)
    parts = cz_decompose(f, 1.0)
    layers = g_off_layers(parts)
    rep = g_off_layer_report(parts, layers)
    assert rep["sum_residual"] < 1e-8
    assert rep["layer_orthogonality_residual"] < 1e-8
    assert rep["support_residual"] < 1e-8


def test_thmB1_split_reassembles():
    f = _grid_mart(58, K=3)
    fam = f.diffs[1:3]
    split = thmB1_decompose(fam, f, (-2, 4))
    one = f.algebra.unit()
    for g, c, a, b in zip(fam, split.center, split.a_part, split.b_part):
        assert (c + a + b - g).max_abs() < 1e-8
    assert is_projection(split.pi.w[0], tol=1e-8)
    # the meet ladder increases to the unit at l_max
    assert split.pi.l_max == 4
    assert (split.pi.w[-1] - one).max_abs() < 1e-8


@pytest.mark.parametrize("K,l_range", [(3, (-2, 4)), (4, (-3, 3))])
def test_thmB1_telescoped_parts_match_pair_loop_oracle(K, l_range):
    f = _grid_mart(64, K=K)
    fam = f.diffs[1:]
    split = thmB1_decompose(fam, f, l_range)
    a_ref, b_ref = thmB1_pair_loop_oracle(fam, split)
    for got, ref in zip(split.a_part, a_ref, strict=True):
        assert (got - ref).max_abs() <= 1e-12
    for got, ref in zip(split.b_part, b_ref, strict=True):
        assert (got - ref).max_abs() <= 1e-12


def test_thmB1_range_check():
    f = _grid_mart(59, K=3)
    fam = f.diffs[1:2]
    with pytest.raises(ContractViolation):
        thmB1_decompose(fam, f, (-2, -1))


# -- loop oracles for the batched layers --------------------------------------

def g_off_layers_loop_oracle(parts):
    """The layers g_(s) and their terms one (s, k) pair at a time, plus the
    layer report computed term by term."""
    f, filt = parts.martingale, parts.filtration
    npos = len(f.levels)
    ps = [filt.extend(p, k) for k, p in enumerate(parts.ps)]
    qs = stored_full_size(parts.seq)[0]
    layers, terms = {}, {}
    for s in range(1, npos):
        acc, row = zero(f.algebra), []
        for k in range(npos - s):
            if f.levels[k] <= parts.m_lambda:
                continue
            p, df, qp = ps[k], f.diffs[k + s], qs[k + s - 1]
            t = p @ df @ qp + qp @ df @ p
            row.append((k, t))
            acc = acc + t
        layers[s], terms[s] = acc, row
    l1 = schatten_norm(f.top, 1)
    one = f.algebra.unit()
    total = zero(f.algebra)
    sup_ratio = orth = supp = 0.0
    for s, g in layers.items():
        total = total + g
        nsq = l2_norm(g) ** 2
        sup_ratio = max(sup_ratio, nsq / max(parts.seq.lam * l1, 1e-300))
        orth = max(orth, abs(nsq - sum(l2_norm(t) ** 2 for _, t in terms[s])))
        for k, t in terms[s]:
            rest = one - ps[k]
            supp = max(supp, (rest @ t @ rest).max_abs())
    report = {"sum_residual": (total - parts.g_off).max_abs(),
              "sup_layer_ratio": sup_ratio,
              "layer_orthogonality_residual": orth,
              "support_residual": supp}
    return layers, terms, report


@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2)])
def test_g_off_layers_match_loop_oracle(n, K, d):
    f = random_positive_martingale(GridFiltration(n, K, d), trial_rng(68, 0))
    seen_terms = 0
    batch = cz_decompose(f, 2.0 ** np.arange(-2, 5))
    batch_lay = g_off_layers(batch)
    batch_report = g_off_layer_report(batch, batch_lay)
    for i in range(len(batch.seq.lam)):
        parts, lay = entry(batch, i), entry(batch_lay, i)
        layers, terms, report = g_off_layers_loop_oracle(parts)
        assert len(lay["layers"]) == len(layers)
        for s, ref in layers.items():
            assert (lay["layers"][s - 1] - ref).max_abs() <= 1e-12
        # the batch keeps every (s, k) pair, the term of level j = k + s
        # in M_j; the oracle's are those above m_lambda, and the others
        # are exact zeros
        pairs = {(s, k): t for s, row in terms.items() for k, t in row}
        assert len(lay["terms"]) == len(f.levels) - 1
        for j, level in enumerate(lay["terms"], start=1):
            assert level.algebra is parts.filtration.level_algebra(j)
            assert len(level) == j
            for k, t in enumerate(level):
                if (j - k, k) in pairs:
                    ref = pairs[j - k, k]
                    assert (parts.filtration.extend(t, j) - ref).max_abs() \
                        <= 1e-12
                else:
                    assert f.levels[k] <= parts.m_lambda
                    assert not t.blocks.any()
        seen_terms += len(pairs)
        got = entry(batch_report, i)
        for key, ref in report.items():
            assert abs(got[key] - ref) <= 1e-12 * abs(ref) + 1e-15
    assert seen_terms > 0


@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2)])
def test_thmB1_parts_match_pair_loop_oracle_on_grids(n, K, d):
    f = random_positive_martingale(GridFiltration(n, K, d), trial_rng(69, 0))
    fam = transform_family(f, random_coeffs(len(f.levels), 3,
                                            trial_rng(69, 1), "row-eq-one"))
    l_max = int(np.ceil(np.log2(op_norm(f.top)))) + 1
    split = thmB1_decompose(fam, f, (l_max - 6, l_max))
    a_ref, b_ref = thmB1_pair_loop_oracle(fam, split)
    psi = split.pi.w[0]
    for g, c, a, b, a0, b0 in zip(fam, split.center, split.a_part,
                                  split.b_part, a_ref, b_ref, strict=True):
        assert (c - psi @ g @ psi).max_abs() <= 1e-12
        assert (a - a0).max_abs() <= 1e-12
        assert (b - b0).max_abs() <= 1e-12


# -- the 8-product split and the batched report against the earlier code ----

def eighteen_product_oracle(f, parts):
    """g_d, g_off, b_d, b_off and the b_d terms from the 18 stacked products
    the split used before it relied on Hermitian factors."""
    one = np.eye(f.algebra.d)
    Q = stored_full_size(parts.seq)[0].blocks
    Qprev = np.concatenate([np.broadcast_to(one, Q[:, :1].shape), Q[:, :-1]],
                           axis=1)
    P, F = Qprev - Q, f.seq.blocks
    q, top, u = Q[:, -1], F[-1], one - Qprev
    good_off = (u @ F @ P + P @ F @ u).sum(axis=1)
    b_off = (u @ (top - F) @ P + P @ (top - F) @ u).sum(axis=1)
    g_d = q @ top @ q + (P @ F @ P).sum(axis=1)
    g_off = q @ top @ (one - q) + (one - q) @ top @ q + good_off
    bad = P @ (top - F) @ P
    return g_d, g_off, bad.sum(axis=1), b_off, bad


def per_lambda_cz_report(parts):
    """cz_report one threshold at a time, with its own SVDs."""
    f, lam = parts.martingale, parts.seq.lam
    l1 = schatten_norm(f.top, 1)
    recon = parts.g_d + parts.g_off + parts.b_d + parts.b_off - f.top
    return {
        "reconstruction_residual": recon.max_abs(),
        "g_d_l2sq": float(np.sum(singular_values(parts.g_d) ** 2
                                 * f.algebra.weights[:, None])),
        "g_d_bound": (2.0 ** parts.filtration.n) * lam * l1,
        "b_d_l1_sum": float(sum(schatten_norm(t, 1)
                                for t in pair_sum_oracle(parts)[4])),
        "b_d_bound": 2.0 * l1,
        "m_lambda": parts.m_lambda,
    }


@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2), (1, 3, 3)])
def test_split_matches_eighteen_product_oracle(n, K, d):
    # CZ lives on the grid algebra only: tensor:N is rejected
    for t in range(2):
        f = random_positive_martingale(GridFiltration(n, K, d),
                                       trial_rng(66, t))
        parts = cz_decompose(f, 2.0 ** np.arange(0, 5))
        g_d, g_off, b_d, b_off, terms = eighteen_product_oracle(f, parts)
        for i in range(len(parts.seq.lam)):
            p = entry(parts, i)
            for got, want in ((p.g_d, g_d[i]), (p.g_off, g_off[i]),
                              (p.b_d, b_d[i]), (p.b_off, b_off[i])):
                assert np.abs(got.blocks - want).max() <= 1e-12
            ref = schatten_norm(Op(terms[i], f.algebra), 1)
            assert np.abs(p.b_d_l1 - ref).max() <= 1e-12


@pytest.mark.parametrize("chunk", [0, 8], ids=["lambda-batch", "trial-batch"])
@pytest.mark.parametrize("spec", ["grid:1,4,2", "grid:2,3,2"])
def test_level_loop_equals_full_size_split(spec, chunk):
    # p_k, u_k and f_k in M_k, the products with f at full size one level at
    # a time: the stacked full-size split of the same projections, bit for
    # bit, and the b_d trace norms those of its full-size terms
    filt = GridFiltration(*(int(p) for p in spec.split(":")[1].split(",")))
    f = _chunk_or_one(filt, 79, chunk)
    lams = 2.0 ** np.arange(-2, 5)
    parts, ref = cz_decompose(f, lams), cz_decompose_full_size(f, lams)
    for name in ("g_d", "g_off", "b_d", "b_off"):
        assert np.array_equal(getattr(parts, name).blocks, ref[name].blocks)
    assert np.array_equal(parts.m_lambda, ref["m_lambda"])
    assert len(np.unique(parts.m_lambda)) > 2
    assert np.array_equal(parts.b_d_l1, schatten_norm(ref["b_d_terms"], 1,
                                                      hermitian=True))
    for k, p in enumerate(parts.ps):
        assert p.algebra is filt.level_algebra(k)
        assert np.array_equal(filt.extend(p, k).blocks,
                              ref["ps"].blocks[..., k, :, :, :])


def test_split_and_layers_memory_stays_level_sized():
    # one grid:2,5,2 trial at 5 thresholds, where one full-size (lambda,
    # cell, d, d) stack is 0.31 MiB: with every level's products stacked at
    # full size, cz_decompose peaked at 21.1 MiB here, and with g_off_layers
    # and its report (every (s, k) term at full size) at 29.8 MiB; formed on
    # their levels, the three peak at 9.6 MiB
    f = random_positive_martingale(GridFiltration(2, 5, 2), trial_rng(78, 0))
    tracemalloc.start()
    try:
        parts = cz_decompose(f, 2.0 ** np.arange(0, 5))
        g_off_layer_report(parts, g_off_layers(parts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2 ** 20


@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2), (1, 3, 3)])
def test_batched_report_matches_per_lambda_oracle(n, K, d):
    f = random_positive_martingale(GridFiltration(n, K, d), trial_rng(67, 0))
    parts = cz_decompose(f, 2.0 ** np.arange(0, 5))
    reports = cz_report(parts)
    assert all(np.shape(v) in ((), parts.seq.lam.shape)
               for v in reports.values())
    for i in range(len(parts.seq.lam)):
        p, got = entry(parts, i), entry(reports, i)
        want = per_lambda_cz_report(p)
        assert got.keys() == want.keys()
        one = cz_report(p)
        for key, val in want.items():
            assert abs(got[key] - val) <= 1e-12 * abs(val) + 1e-14
            assert abs(one[key] - val) <= 1e-12 * abs(val) + 1e-14


# -- the lambda batch against one call per threshold -------------------------

@pytest.mark.parametrize("spec", ["grid:1,4,2", "grid:2,3,2"])
def test_batch_entries_equal_scalar_calls(spec):
    # CZ lives on the grid algebra only, so tensor:4 has no entry here
    n, K, d = (int(p) for p in spec.split(":")[1].split(","))
    f = random_positive_martingale(GridFiltration(n, K, d), trial_rng(70, 0))
    lams = 2.0 ** np.arange(-2, 5)
    parts = cz_decompose(f, lams)
    zd = zeta(parts)
    lay = g_off_layers(parts)
    for got, call in (
            (parts, lambda lam: cz_decompose(f, lam)),
            (cz_report(parts), lambda lam: cz_report(cz_decompose(f, lam))),
            (zd, lambda lam: zeta(cz_decompose(f, lam))),
            (zeta_report(zd), lambda lam: zeta_report(zeta(cz_decompose(
                f, lam)))),
            (zeta_cube_inequalities(zd), lambda lam: zeta_cube_inequalities(
                zeta(cz_decompose(f, lam)))),
            (lay, lambda lam: g_off_layers(cz_decompose(f, lam))),
            (g_off_layer_report(parts, lay), lambda lam: g_off_layer_report(
                cz_decompose(f, lam), g_off_layers(cz_decompose(f, lam))))):
        assert_entries_match_scalar_calls(got, lams, call)
    # the (s, k) pairs at or below m_lambda are masked to exact zeros, and
    # the layers keep their sums
    masked = [np.asarray(f.levels[:j]) <= parts.m_lambda[:, None]
              for j in range(1, len(f.levels))]
    assert any(m.any() for m in masked) and not all(m.all() for m in masked)
    for t, m in zip(lay["terms"], masked, strict=True):
        assert not t.blocks[m].any()
    for i in range(len(lams)):
        one = g_off_layers(cz_decompose(f, lams[i]))
        assert np.array_equal(lay["layers"].blocks[i], one["layers"].blocks)


@pytest.mark.parametrize("spec", ["grid:1,4,2", "grid:2,2,2"])
def test_trial_batch_entries_equal_each_members_own_call(spec):
    # the thresholds come first, then the martingale's batch axis
    filt = GridFiltration(*(int(p) for p in spec.split(":")[1].split(",")))
    chunk = [(trial_rng(71, t), t) for t in range(3)]
    batch = random_positive_batch(filt, chunk)
    lams = 2.0 ** np.arange(0, 5)
    parts = cz_decompose(batch, lams)
    rep = cz_report(parts)
    assert parts.m_lambda.shape == lams.shape + (3,)
    assert rep["b_d_bound"].shape == (3,)
    assert all(np.shape(rep[key]) == lams.shape + (3,)
               for key in rep if key != "b_d_bound")
    for i in range(3):
        f = Martingale(filt, batch.top[i])
        one = cz_decompose(f, lams)
        assert np.array_equal(parts.m_lambda[:, i], one.m_lambda)
        assert np.array_equal(parts.b_d_l1[:, i], one.b_d_l1)
        for name in ("g_d", "g_off", "b_d", "b_off"):
            assert np.array_equal(getattr(parts, name).blocks[:, i],
                                  getattr(one, name).blocks)
        for got, want in zip(parts.ps + parts.seq.restricted,
                             one.ps + one.seq.restricted, strict=True):
            assert np.array_equal(got.blocks[:, i], want.blocks)
        for key, want in cz_report(one).items():
            got = rep[key][i] if key == "b_d_bound" else rep[key][:, i]
            assert np.array_equal(got, want)


def _chunk_or_one(filt, seed, chunk):
    """A batch of ``chunk`` trials' martingales, or one martingale for 0."""
    if not chunk:
        return random_positive_martingale(filt, trial_rng(seed, 0))
    return random_positive_batch(filt, [(trial_rng(seed, t), t)
                                        for t in range(chunk)])


@pytest.mark.parametrize("chunk", [0, 4])
@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2), (1, 6, 3)])
def test_offset_walk_equals_pair_array(n, K, d, chunk):
    # grid:1,6,3: the side 64 exceeds 9, so the offsets -4..4 wrap at the
    # rim of the torus, and the 3 x 3 blocks go to LAPACK
    f = _chunk_or_one(GridFiltration(n, K, d), 73, chunk)
    zd = zeta(cz_decompose(f, 2.0 ** np.arange(0, 5)))
    got, want = zeta_cube_inequalities(zd), zeta_cube_inequalities_pairs(zd)
    assert got.keys() == want.keys()
    for key in want:
        assert np.shape(got[key]) == (5,) + f.batch
        assert np.array_equal(got[key], want[key])


@pytest.mark.parametrize("chunk", [0, 3], ids=["lambda-batch", "trial-batch"])
@pytest.mark.parametrize("n,K,d", [(1, 4, 2), (2, 3, 2)])
def test_level_path_equals_first_cell_gather(n, K, d, chunk):
    # zeta, zeta_fs on the first levels (as nc_pseudoloc_check calls it)
    # and the cube inequalities read xi_Q off q_k in M_k's coordinates;
    # the oracles gather it on each cube's first cell of the full-size q_k
    filt = GridFiltration(n, K, d)
    f = _chunk_or_one(filt, 77, chunk)
    # q_0 < 1 at the three lowest thresholds, and q_k = 1 up to level 1
    # or more at the top two
    parts = cz_decompose(f, 2.0 ** np.arange(-2, 3))
    zd = zeta(parts)
    full = stored_full_size(parts.seq)[0]
    # some cell lost mass, so the gathers are compared on live blocks
    assert np.abs(zd.zeta.blocks - np.eye(d)).max() > 0.5
    assert np.array_equal(zd.zeta.blocks, zeta_fs_first_cells(
        filt, full, f.levels).blocks)
    got, want = (zeta_cube_inequalities(zd),
                 zeta_cube_inequalities_first_cells(zd))
    assert got.keys() == want.keys()
    for key in want:
        assert np.shape(got[key]) == (5,) + f.batch
        assert np.array_equal(got[key], want[key])
    for i in range(len(parts.seq.lam)):
        for s in (1, 2):
            levels = list(range(K - s + 1))
            z = zeta_fs(filt, parts.seq[i].restricted[:len(levels)])
            ref = zeta_fs_first_cells(
                filt, full[i][..., :len(levels), :, :, :], levels)
            assert np.array_equal(z.blocks, ref.blocks)


def test_zeta_memory_stays_cell_sized():
    # the pair array of every 9Q peaked at 123 MiB here; the offset walk
    # holds one stack of one block per cell at a time
    f = random_positive_martingale(GridFiltration(2, 4, 2), trial_rng(74, 0))
    parts = cz_decompose(f, 2.0 ** np.arange(0, 5))
    tracemalloc.start()
    try:
        zeta_cube_inequalities(zeta(parts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_zeta_alone_holds_no_level_stack():
    # the per-level psi_k and zeta_k stacks peaked at 10.9 MiB here; the one
    # dilated sum holds a block per cell and threshold, and one level's
    # cube blocks at a time
    f = random_positive_martingale(GridFiltration(2, 5, 2), trial_rng(76, 0))
    parts = cz_decompose(f, 2.0 ** np.arange(0, 5))
    tracemalloc.start()
    try:
        zeta(parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("spec", ["grid:1,4,2", "grid:2,2,2"])
def test_zeta_and_layers_of_a_batch_equal_each_members_own_call(spec):
    # 4 thresholds and 4 trials: a threshold broadcast against the trial
    # axis would pair threshold i with trial i and raise no error
    filt = GridFiltration(*(int(p) for p in spec.split(":")[1].split(",")))
    batch = _chunk_or_one(filt, 75, 4)
    lams = 2.0 ** np.arange(0, 4)
    parts = cz_decompose(batch, lams)
    zd, lay = zeta(parts), g_off_layers(parts)
    reps = (zeta_report(zd), zeta_cube_inequalities(zd),
            g_off_layer_report(parts, lay))
    for i in range(4):
        one = cz_decompose(Martingale(filt, batch.top[i]), lams)
        z1, l1 = zeta(one), g_off_layers(one)
        assert np.array_equal(zd.zeta.blocks[:, i], z1.zeta.blocks)
        for got, want in zip((lay["layers"], *lay["terms"]),
                             (l1["layers"], *l1["terms"]), strict=True):
            assert np.array_equal(got.blocks[:, i], want.blocks)
        for rep, want in zip(reps, (zeta_report(z1), zeta_cube_inequalities(
                z1), g_off_layer_report(one, l1))):
            assert rep.keys() == want.keys()
            for key, val in want.items():
                assert np.shape(rep[key]) == lams.shape + (4,)
                assert np.array_equal(rep[key][:, i], val)


def test_grid_experiments_make_no_lapack_call(monkeypatch):
    # grid:1,4,2 has 2 x 2 blocks, so every spectral kernel is a closed form
    import nclp.harness as harness
    calls = []

    def counting(name):
        lapack = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return lapack(*args, **kwargs)
        return counted

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    for experiment in ("cuculescu", "cz", "zeta"):
        rep = harness.run(harness.ExperimentConfig(
            experiment, algebra="grid:1,4,2", trials=1))
        assert harness.all_pass(rep)
    assert calls == []
    # 3 x 3 blocks go to LAPACK, and the counters see it
    harness.run(harness.ExperimentConfig("cuculescu", algebra="grid:1,3,3",
                                         trials=1))
    assert {"eigh", "eigvalsh", "svd"} <= set(calls)


def test_cz_split_makes_no_validating_op_call(monkeypatch):
    f = _grid_mart(0)
    calls = []
    real = Op.__init__

    def counted(self, *args):
        calls.append(1)
        real(self, *args)

    monkeypatch.setattr(Op, "__init__", counted)
    rep = cz_report(cz_decompose(f, 2.0 ** np.arange(0, 5)))
    assert np.all(rep["reconstruction_residual"] <= 1e-10)
    assert calls == []
    # the counter sees the validating constructor
    Op(f.top.blocks, f.algebra)
    assert calls == [1]
