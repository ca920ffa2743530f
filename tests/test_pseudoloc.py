import math
from dataclasses import replace

import numpy as np
import pytest

from nclp.errors import ContractViolation, NumericError
from nclp.filtration import GridFiltration
from nclp.czkit import cz_decompose
from nclp.harness import (_localized_scalar, random_positive_martingale,
                          trial_rng)
from nclp.opcore import Op, dense_algebra, opnorm
from nclp.pseudoloc import (DiscOp, _ancestor_sums, _cube_cells,
                            _cube_starts, _haar_levels, _on_rows,
                            _torus_offsets, adjoint_one, annuli_kernel,
                            assemble, circulant_haar,
                            commutative_pseudoloc_check, cotlar_bound,
                            ekt_delta, grid_l2,
                            haar, hilbert_kernel, ihaar,
                            ksk_check, lambda_family, localization_check,
                            lp_bumps_kernel, nc_pseudoloc_check, normalized,
                            paraproduct, phi_psi_apply, phi_psi_hat,
                            phi_s_blocks, phi_s_hat, phi_s_norm, psi_s_norm,
                            psi_s_symbol,
                            restriction_identity_residual,
                            rho_bmo, schur_bound, sigma_set, support_cubes,
                            symbol_norm, vanish_check, vanish_sum, zeta_fs)
from oracles import (_parity, concentric_mask, cube_cells, cubes_at_level,
                     half_shift_split, ksk_check_per_pair,
                     paraproduct_correction, proj_join, split_phi_s_hat)


def _T(K=5, M=3):
    return assemble(lp_bumps_kernel(M), K)


def stack_norm(mats):
    """||T|| of kernel matrices (M, rows, cols), T: L2 -> L2(C^M): opnorm
    of the stack with its components folded into the rows (-1 would not
    do: an empty stack may have no columns)."""
    return float(opnorm(mats.reshape(math.prod(mats.shape[:-1]),
                                     mats.shape[-1])))


# -- dense kernel matrices from the Haar-coefficient pieces ------------------
# The dense (M, N, N) forms of the pieces, for any kernel matrices (the
# circulant T.mats, T0 = T - Pi_rho*, random stacks).

def _circulant_index(N):
    """The table (i - j) mod N: entry (i, j) of a circulant is entry
    (i - j) mod N of its first column."""
    i = np.arange(N)
    return (i[:, None] - i[None, :]) % N


def _from_haar(block, N, col_start=0):
    """Kernel matrices (..., N, N) whose Haar-coefficient matrix holds
    ``block`` from row 0 and column ``col_start`` on, and zeros elsewhere."""
    pad = [(0, 0)] * (block.ndim - 1) + [(col_start, 0)]
    return _on_rows(ihaar, ihaar(np.pad(block, pad), N), N)


def haar2(mats):
    """Haar-coefficient matrices H T H^T of kernel matrices (..., N, N)."""
    return _on_rows(haar, haar(mats))


def phi_s(mats, s):
    """Kernel matrices of Phi_s = sum_{k=0}^{K-s} E_k T Delta_{k+s}."""
    return _from_haar(phi_s_hat(haar2(mats), s), mats.shape[-1])


def psi_s(T, s):
    """Kernel matrices of Psi_s = sum_{k=0}^{K-s} (id - E_k) T_{4*2^{-k}}
    Delta_{k+s} for a DiscOp T."""
    hat = dense_psi_s_hat(T, s)
    return _from_haar(hat, T.N, T.N - hat.shape[-1])


def paraproduct_adjoint(rho, g, K):
    """Pi_rho*(g) = sum_j E_{j-1}( conj(Delta_j rho) g ), shaped (N, ..., M)
    for g with cells on axis 0: the sum of conj(rho_Q) g_Q / #Q over Q."""
    # (N, columns of g), row-major: the cube sums run over whole rows
    c = np.ascontiguousarray(_on_rows(haar, g.reshape(len(g), -1)))
    w = haar(rho.T).conj() / _cube_cells(K)           # (M, N)
    out = _ancestor_sums(w[..., None] * c)
    return np.moveaxis(out.reshape(w.shape[:1] + g.shape), 0, -1)


def dense_adjoint_one(mats):
    """rho = T*1 of kernel matrices (M, N, N), shaped (N, M)."""
    return mats.conj().sum(axis=1).T.copy()


# -- reshape-average oracle for the Haar-coefficient pieces -----------------
# E_k T Delta_j by block-averaging the output (row) and input (column) index
# of the kernel matrices, and Phi_s / Psi_s as sums of such pieces.

def avg_rows(X, k):
    """Block-average the output (row) index of kernel matrices (..., N, N)."""
    N = X.shape[-2]
    L = N // (1 << k)
    shp = X.shape[:-2] + (1 << k, L, X.shape[-1])
    m = X.reshape(shp).mean(axis=-2, keepdims=True)
    return np.broadcast_to(m, shp).reshape(X.shape).copy()


def avg_cols(X, k):
    N = X.shape[-1]
    L = N // (1 << k)
    shp = X.shape[:-1] + (1 << k, L)
    m = X.reshape(shp).mean(axis=-1, keepdims=True)
    return np.broadcast_to(m, shp).reshape(X.shape).copy()


def col_deltas(mats):
    """T Delta_j = avg_cols(mats, j) - avg_cols(mats, j - 1) for
    j = 1..K at index j (index 0 unused), from the K + 1 column averages."""
    K = mats.shape[-1].bit_length() - 1
    avgs = [avg_cols(mats, j) for j in range(K + 1)]
    return [None] + [b - a for a, b in zip(avgs, avgs[1:])]


def oracle_ekt_delta(cols, k, j):
    """E_k T Delta_j from ``cols = col_deltas(mats)``."""
    return avg_rows(cols[j], k)


def oracle_phi_s(cols, s):
    """Phi_s = sum_k E_k T Delta_{k+s} from ``cols = col_deltas(mats)``."""
    K = len(cols) - 1
    return sum(oracle_ekt_delta(cols, k, k + s) for k in range(0, K - s + 1))


def truncated_mats(T, eps):
    """Entries of T_eps: zero where torus distance <= eps."""
    far = np.abs(_torus_offsets(T.N)) > eps
    return np.where(far[_circulant_index(T.N)], T.mats, 0.0)


def dense_psi_s_hat(T, s):
    """The Haar coefficients of Psi_s from those of the dense truncated
    stacks T_{4*2^{-k}}, one per k (no circulant structure used): for each
    k >= 4 the level-(k+s-1) column block, rows at level >= k; the columns
    from level s + 3 on (none when K - s < 4, where radius 4*2^{-k} reaches
    the torus diameter 1/2 for every k < 4)."""
    blocks = [np.zeros((T.M, T.N, 0), dtype=T.column.dtype)]
    for k in range(4, T.K - s + 1):
        lev = k + s - 1
        tk = truncated_mats(T, 4.0 * 2.0 ** (-k))
        block = _on_rows(haar, haar(tk)[..., 1 << lev:2 << lev])
        block[..., :1 << k, :] = 0.0
        blocks.append(block)
    return np.concatenate(blocks, axis=-1)


def oracle_psi_s(T, s):
    acc = np.zeros_like(T.mats)
    for k in range(0, T.K - s + 1):
        eps_k = 4.0 * 2.0 ** (-k)
        if eps_k >= 0.5:   # torus l-inf diameter: the truncation empties T
            continue
        tk = truncated_mats(T, eps_k)
        cols = avg_cols(tk, k + s) - avg_cols(tk, k + s - 1)
        acc += cols - avg_rows(cols, k)
    return acc


# -- loop oracles for the scalar dyadic quantities ---------------------------
# The reshape-average-repeat loops that ``pseudoloc`` replaced by sums over
# Haar coefficients, kept here as independent references.

def e_level(f, k):
    """Average a grid function (cells along axis 0) over level-k cubes."""
    L = f.shape[0] >> k
    return np.repeat(f.reshape((1 << k, L) + f.shape[1:]).mean(axis=1), L, 0)


def delta_level(f, j):
    """Martingale difference at level j >= 1 (level 0 differences from zero)."""
    return e_level(f, j) - e_level(f, j - 1) if j else e_level(f, 0)


def oracle_paraproduct(rho, f, K):
    out = np.zeros_like(rho)
    for j in range(1, K + 1):
        out += delta_level(rho, j) * e_level(f, j - 1)[:, None]
    return out


def oracle_paraproduct_adjoint(rho, f, K):
    out = np.zeros_like(rho)
    for j in range(1, K + 1):
        out += e_level(delta_level(rho, j).conj() * f[:, None], j - 1)
    return out


def oracle_paraproduct_adjoint_mats(rho, K):
    N, M = rho.shape
    out = np.zeros((M, N, N), dtype=rho.dtype)
    for j in range(1, K + 1):
        d = delta_level(rho, j).conj()       # (N, M)
        L = N // (1 << (j - 1))
        for b in range(0, N, L):
            out[:, b:b + L, b:b + L] += d[b:b + L].T[:, None, :] / L
    return out


def paraproduct_adjoint_mats(rho, K):
    """Pi_rho* : L2 -> L2 (x) C^M applied to the identity, (M, N, N)."""
    return np.moveaxis(paraproduct_adjoint(rho, np.eye(1 << K), K), -1, 0)


def dense_paraproduct_correction(mats):
    """T0 = T - Pi_rho* with rho = T*1 as kernel matrices, from T's
    (M, N, N); returns (T0, rho)."""
    rho = dense_adjoint_one(mats)
    K = mats.shape[-1].bit_length() - 1
    return mats - paraproduct_adjoint_mats(rho, K), rho


def oracle_rho_bmo(rho, K):
    best = 0.0
    tail = np.zeros(rho.shape[0])        # sum_{j > lev} ||d_j rho||^2
    for lev in range(K, -1, -1):
        best = max(best, float(e_level(tail, lev).max()))
        tail = tail + (np.abs(delta_level(rho, lev)) ** 2).sum(axis=1)
    return float(np.sqrt(best))


def oracle_sigma_set(f, s, K, tol=1e-12):
    N = f.shape[0]
    scale = max(np.abs(f).max(), 1e-300)
    mask = np.zeros(N, dtype=bool)
    for k in range(0, K - s + 1):
        supp = np.abs(delta_level(f, k + s)) > tol * scale
        L = N >> k
        cubes = np.unique(np.nonzero(supp)[0] // L)
        mask[(cubes[:, None] * L + np.arange(-4 * L, 5 * L)) % N] = True
    return mask


def oracle_vanish_sum(rho, f, s, K):
    total = np.zeros((2 ** K, rho.shape[1]), dtype=complex)
    for k in range(0, K - s + 1):
        g = delta_level(f, k + s)
        total += e_level(oracle_paraproduct_adjoint(rho, g, K), k)
    return total


def oracle_vanish_check(rho, f, s, K):
    total = oracle_vanish_sum(rho, f, s, K)
    out = ~oracle_sigma_set(f, s, K)
    f2 = grid_l2(f, K)
    if not out.any():
        return 0.0
    return float(np.abs(total[out]).max() / max(f2, 1e-300))


def _kernel(name, K):
    return {"lp-bumps": lp_bumps_kernel(K), "hilbert": hilbert_kernel(),
            "annuli": annuli_kernel(K)}[name]


# -- grid helpers ------------------------------------------------------------

def test_e_level_oracle():
    f = np.array([1.0, 3.0, 5.0, 7.0])
    assert np.allclose(e_level(f, 1), [2.0, 2.0, 6.0, 6.0])
    assert np.allclose(e_level(f, 0), np.full(4, 4.0))
    assert np.allclose(e_level(f, 2), f)
    assert np.allclose(delta_level(f, 0), e_level(f, 0))
    assert np.allclose(delta_level(f, 1) + delta_level(f, 2)
                       + delta_level(f, 0), f)


def test_avg_rows_cols_oracle():
    X = np.arange(16.0).reshape(4, 4)
    r = avg_rows(X, 1)
    assert np.allclose(r[0], r[1]) and np.allclose(r[0], X[:2].mean(axis=0))
    c = avg_cols(X, 1)
    assert np.allclose(c[:, 0], c[:, 1])
    assert np.allclose(c[:, 0], X[:, :2].mean(axis=1))


def test_haar_orthonormal_and_inverse():
    K = 5
    N = 2 ** K
    H = haar(np.eye(N)).T                  # rows: the Haar basis
    assert np.allclose(H @ H.T, np.eye(N), atol=1e-14)
    # row 0 is the constant, row 2^l + c the level-l wavelet on cube c
    assert np.allclose(H[0], N ** -0.5)
    # (level 2, cube 1: cells 8..15)
    h = 8 ** -0.5
    assert np.allclose(H[5], np.r_[np.zeros(8), np.full(4, h),
                                   np.full(4, -h), np.zeros(16)])
    x = np.random.default_rng(66).standard_normal((3, N)) + 1j
    assert np.allclose(ihaar(haar(x), N), x, atol=1e-13)
    for k in range(K + 1):
        # the first 2^k coefficients carry E_k
        assert np.allclose(ihaar(haar(x)[:, :1 << k], N), e_level(x.T, k).T,
                           atol=1e-13)


@pytest.mark.parametrize("geometry", [_haar_levels, _cube_cells,
                                      _cube_starts])
def test_haar_geometry_is_cached_and_read_only(geometry):
    # one array per depth, shared by every caller, so no caller may write it
    K = 5
    H = haar(np.eye(1 << K)).T                  # rows: the Haar basis
    support = np.abs(H) > 0
    levels = np.r_[-1, np.log2(np.arange(1, 1 << K)).astype(int)]
    want = {_haar_levels: levels, _cube_cells: support.sum(axis=1),
            _cube_starts: support.argmax(axis=1)}[geometry]
    got = geometry(K)
    assert geometry(K) is got and np.array_equal(got, want)
    with pytest.raises(ValueError, match="read-only"):
        got[0] = 7
    with pytest.raises(ValueError, match="read-only"):
        got += 1
    assert np.array_equal(geometry(K), want)


def test_grid_l2_oracle():
    f = np.full(8, 2.0)
    assert grid_l2(f, 3) == pytest.approx(2.0)


# -- assembly ----------------------------------------------------------------

def test_assemble_entry_oracle():
    K, M = 4, 2
    T = _T(K, M)
    N = 2 ** K
    # [DERIVED] entry (m, i, j) = 2^{-K} * 2^m * b(2^m * d(i,j)) with the
    # odd Lipschitz bump b(t) = t (1 - t^2)^2
    i, j, m = 3, 5, 1
    d = ((i - j) / N + 0.5) % 1.0 - 0.5
    t = 2.0 ** (m + 1) * d
    expect = 2.0 ** (-K) * 2.0 ** (m + 1) * (t * (1 - t * t) ** 2
                                             if abs(t) < 1 else 0.0)
    assert T.mats[m, i, j] == pytest.approx(expect, abs=1e-15)
    assert np.allclose(np.diagonal(T.mats, axis1=1, axis2=2), 0.0)


# -- dense N x N oracle for the circulant assembly ----------------------------
# Every kernel evaluated on the full table of torus differences x_i - y_j, and
# the annuli built by filtering each column of the identity.

def dense_torus_diff(N):
    i = np.arange(N)
    return ((i[:, None] - i[None, :]) / N + 0.5) % 1.0 - 0.5


def oracle_assemble(kernel, K):
    N = 2 ** K
    diff = dense_torus_diff(N)
    if kernel.family == "lp-bumps":
        mats = np.empty((kernel.M, N, N))
        for m in range(1, kernel.M + 1):
            scale = 2.0 ** m
            t = scale * diff
            mats[m - 1] = scale * np.where(np.abs(t) < 1.0,
                                           t * (1.0 - t * t) ** 2, 0.0)
    else:
        with np.errstate(divide="ignore"):
            vals = np.where(diff != 0.0,
                            1.0 / np.where(diff == 0.0, 1.0, diff), 0.0)
        vals = np.where(np.abs(diff) > kernel.cutoff, 0.0, vals)
        taper = np.clip(2.0 * (1.0 - np.abs(diff) / kernel.cutoff), 0.0, 1.0)
        mats = (vals * taper)[None, :, :]
    mats *= 2.0 ** (-K)
    mats[:, np.eye(N, dtype=bool)] = 0.0
    return mats


def oracle_annuli(K):
    N = 2 ** K
    freqs = np.fft.fftfreq(N, d=1.0 / N).astype(int)
    eye_hat = np.fft.fft(np.eye(N), axis=0)
    mats = np.empty((K, N, N), dtype=complex)
    for k in range(K):
        lo, hi = 2 ** k, 2 ** (k + 1)
        mask = ((freqs >= lo) & (freqs < hi)) | ((freqs > -hi)
                                                 & (freqs <= -lo))
        mats[k] = np.fft.ifft(mask[:, None] * eye_hat, axis=0)
    return mats


def test_torus_offsets_range_and_antisymmetry():
    N = 16
    d = _torus_offsets(N)[_circulant_index(N)]
    assert np.array_equal(d, dense_torus_diff(N))
    assert d.min() >= -0.5 and d.max() < 0.5
    off = d + d.T
    # antisymmetric except at the -0.5 seam where both entries wrap
    assert np.all((np.abs(off) < 1e-15) | (np.abs(off + 1.0) < 1e-15))
    assert np.allclose(np.diag(d), 0.0)


@pytest.mark.parametrize("K", [4, 7, 9])
def test_assemble_matches_dense_oracle(K):
    for kernel in (lp_bumps_kernel(K), hilbert_kernel()):
        assert np.array_equal(assemble(kernel, K).mats,
                              oracle_assemble(kernel, K))
    T = assemble(annuli_kernel(K), K)
    assert np.abs(T.mats - oracle_annuli(K)).max() <= 1e-15


def test_assemble_rejects_non_finite_kernel():
    # cutoff 0 makes the taper 0/0 at the zero offset
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(NumericError):
        assemble(hilbert_kernel(cutoff=0.0), 4)


def test_assemble_rejects_shallow_grid():
    with pytest.raises(ContractViolation):
        assemble(lp_bumps_kernel(2), 1)


def test_annuli_exact_frequency_action():
    K = 4
    T = assemble(annuli_kernel(K), K)
    N = 2 ** K
    x = np.exp(2j * np.pi * 3 * np.arange(N) / N)   # frequency 3 in [2,4)
    out = T.apply(x)
    assert np.allclose(out[1], x)                   # annulus k=1 keeps it
    for m in (0, 2, 3):
        assert np.abs(out[m]).max() < 1e-12


@pytest.mark.filterwarnings("error")    # e.g. a complex result cast to real
@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli"])
@pytest.mark.parametrize("K", [4, 7, 10])
def test_fft_apply_matches_dense_einsum(K, kernel):
    T = assemble(_kernel(kernel, K), K)
    mats = T.mats
    rng = np.random.default_rng(90 + K)
    for f in (rng.standard_normal(T.N), _complex(rng, T.N),
              _complex(rng, T.N, 2, 2)):
        ref = np.einsum("mij,j...->mi...", mats, f)
        got = T.apply(f)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("experiment,fields", [
    ("pseudoloc-decay", dict(depth=6, s_range=(1, 3))),
    ("vanish", dict(trials=2, depth=6, s_range=(2, 3))),
    ("ksk", dict(trials=1, s_range=(2, 2))),
    ("paraproduct", dict(trials=2, depth=5)),
    ("localization", dict(trials=2, depth=7)),
    ("nc-pseudoloc", dict(algebra="grid:1,5,2", trials=2, s_range=(2, 3))),
    ("bmo-czo", dict(trials=2, depth=5))])
def test_no_experiment_builds_the_dense_stack(experiment, fields,
                                              monkeypatch):
    # the two (M, N, N) builders: the dense stack and E_k T Delta_j as
    # kernel matrices
    import nclp.harness as harness
    import nclp.pseudoloc as pl
    callers, dense, ekt = [], DiscOp.mats, pl.ekt_delta

    def recorded(T):
        callers.append("mats")
        return dense.fget(T)

    def recorded_ekt(*args):
        callers.append("ekt_delta")
        return ekt(*args)

    monkeypatch.setattr(DiscOp, "mats", property(recorded))
    monkeypatch.setattr(pl, "ekt_delta", recorded_ekt)
    rep = harness.run(harness.ExperimentConfig(experiment, **fields))
    assert rep["assertions"]
    assert callers == []


def test_truncated_mats():
    T = _T(4, 2)
    tm = truncated_mats(T, 0.3)
    N = T.N
    dist = np.abs((np.subtract.outer(np.arange(N), np.arange(N)) / N + 0.5)
                  % 1 - 0.5)
    assert np.all(tm[:, dist <= 0.3] == 0.0)
    assert np.allclose(tm[:, dist > 0.3], T.mats[:, dist > 0.3])


# -- norms -------------------------------------------------------------------

@pytest.mark.parametrize("kernel", ["hilbert", "annuli"])
def test_folded_opnorm_exact_vs_svd(kernel):
    # at K = 8 an iterative solve stopped early is off by about 1e-9
    K = 8
    T = assemble(_kernel(kernel, K), K)
    for mats in (T.mats, phi_s(T.mats, 3), ekt_delta(T, 2, 5)):
        top = np.linalg.svd(mats.reshape(-1, T.N), compute_uv=False)[0]
        assert stack_norm(mats) == pytest.approx(top, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_mats_raise_numeric_error(bad):
    T = _T(4, 2)
    mats = T.mats.copy()
    mats[1, 3, 5] = bad
    col = T.column.copy()
    col[1, 5] = bad
    with pytest.raises(NumericError):
        stack_norm(mats)
    with pytest.raises(NumericError):
        normalized(DiscOp(col, T.K, T.kernel))
    with pytest.raises(NumericError):
        cotlar_bound([mats, T.mats])


def test_folded_opnorm_vs_svd_oracle():
    T = _T(4, 2)
    # stack components: the L2 -> L2(H) norm is the top singular value of
    # the (M*N, N) stacked matrix
    stacked = T.mats.reshape(-1, T.N)
    top = float(np.linalg.svd(stacked, compute_uv=False)[0])
    assert stack_norm(T.mats) == pytest.approx(top, rel=1e-8)


def test_normalized_has_unit_norm():
    T = _T(4, 3)
    Tn = normalized(T)
    assert stack_norm(Tn.mats) == pytest.approx(1.0, rel=1e-13)
    # the divisor is the symbol norm of the raw assembly
    est = symbol_norm(T)
    assert est > 1e-12
    assert np.array_equal(Tn.column, T.column / est)


def dense_normalized(T):
    """T / ||T|| with the norm from the dense stack's Gram."""
    est = stack_norm(T.mats)
    if est <= 0:
        raise NumericError("cannot normalize a zero operator")
    return DiscOp(T.column / est, T.K, T.kernel)


@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli"])
@pytest.mark.parametrize("K", range(2, 11))
def test_symbol_norm_matches_dense_oracle(K, kernel):
    T = assemble(_kernel(kernel, K), K)
    dense = stack_norm(T.mats)
    if dense == 0.0:            # the Hilbert kernel at K = 2 is all taper
        assert (kernel, K) == ("hilbert", 2) and symbol_norm(T) == 0.0
        for path in (normalized, dense_normalized):
            with pytest.raises(NumericError, match="zero operator"):
                path(T)
        return
    assert symbol_norm(T) == pytest.approx(dense, rel=1e-13, abs=0.0)
    assert np.allclose(normalized(T).column, T.column / dense, rtol=1e-13,
                       atol=0.0)


@pytest.mark.parametrize("K", range(2, 11))
def test_normalized_annuli_has_unit_norm(K):
    Tn = normalized(assemble(annuli_kernel(K), K))
    assert abs(symbol_norm(Tn) - 1.0) <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_symbol_norm_overflow_raises_numeric_error():
    T = _T(4, 2)
    huge = DiscOp(np.full_like(T.column, 1e300), T.K, T.kernel)
    with pytest.raises(NumericError, match="overflows"):
        normalized(huge)


# -- shifted pieces ----------------------------------------------------------

def test_ekt_delta_annihilates_coarse_functions():
    T = _T(5, 2)
    A = ekt_delta(T, 1, 3)
    f = np.repeat(np.array([1.0, -2.0, 0.5, 3.0]), T.N // 4)  # level-2 fn
    assert np.abs(np.einsum("mij,j->mi", A, f)).max() < 1e-12
    out = np.einsum("mij,j->mi", A, np.random.default_rng(61).standard_normal(T.N))
    # output is level-1 cube-constant
    assert np.abs(out - np.repeat(out[:, ::T.N // 2], T.N // 2, axis=1)).max() < 1e-12


@pytest.mark.parametrize("corrected", [False, True], ids=["T", "T0"])
@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli"])
@pytest.mark.parametrize("K", [4, 6, 8])
def test_haar_pieces_match_oracle(K, kernel, corrected):
    T = normalized(assemble(_kernel(kernel, K), K))
    mats = T.mats
    if corrected:
        mats = dense_paraproduct_correction(mats)[0]
    tol = 1e-12 * np.abs(mats).max()
    eye = np.eye(T.N)
    cols = col_deltas(mats)     # shared by the Phi_s and E_k T Delta_j checks
    for s in range(1, K):
        ref = oracle_phi_s(cols, s)
        assert np.abs(phi_s(mats, s) - ref).max() <= tol
        if corrected:   # Psi_s takes a DiscOp; T0 is a dense stack
            continue
        # Phi_s + Psi_s as the code applies them (Psi_s as the block
        # circulant of its symbol), on the identity, against the oracles
        got = phi_psi_apply(phi_psi_hat(T, s), eye)
        assert np.abs(got - ref - oracle_psi_s(T, s)).max() <= tol
    if corrected:       # ekt_delta takes a DiscOp too
        return
    for j in range(1, K + 1):
        for k in range(0, K + 1):
            assert np.abs(ekt_delta(T, k, j)
                          - oracle_ekt_delta(cols, k, j)).max() <= tol


@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli"])
@pytest.mark.parametrize("K", [4, 7, 9])
def test_circulant_haar_matches_haar2(K, kernel):
    # the cyclic matrices and, with wrap = -1, the negacyclic ones of the
    # same columns (the entries above the diagonal negated)
    raw = assemble(_kernel(kernel, K), K)
    N = raw.N
    upper = np.triu(np.ones((N, N), dtype=bool), 1)     # i < j
    for T, wrap in [(raw, 1), (normalized(raw), 1), (normalized(raw), -1)]:
        ref = haar2(np.where(upper & (wrap < 0), -T.mats, T.mats))
        whole = circulant_haar(T.column, 0, N, wrap=wrap)
        assert whole.shape == ref.shape and whole.dtype == ref.dtype
        assert np.array_equal(whole, ref)
        # column ranges inside one level and across levels, the first rows
        for lo, hi, rows in [(0, 1, None), (1, 2, 1), (N // 4, N // 2, None),
                             (3, N // 2 + 5, 5), (N - 3, N, N),
                             (0, N, N // 8), (N // 2, N, 3)]:
            got = circulant_haar(T.column, lo, hi, rows, wrap)
            assert np.array_equal(got, ref[..., :rows, lo:hi])


@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli"])
@pytest.mark.parametrize("K", [4, 6, 8])
def test_psi_s_symbol_equals_dense_truncated_stacks(K, kernel):
    # the symbol is the DFT over the 16 row blocks of the dense Psi_s built
    # from the truncated stacks, times the normalized wavelet columns of
    # levels s+3..K-1 inside the first level-4 cube, level-major
    T = normalized(assemble(_kernel(kernel, K), K))
    L = T.N // 16
    for s in range(1, K):
        got = psi_s_symbol(T, s)
        if K - s < 4:
            assert got is None
            continue
        idx = np.concatenate([(1 << lev) + np.arange(1 << (lev - 4))
                              for lev in range(s + 3, K)])
        wavelets = ihaar(np.eye(T.N)[idx], T.N).T          # (N, c)
        assert wavelets.shape == (T.N, L - 2 ** (s - 1))
        dense = (psi_s(T, s) @ wavelets).reshape(T.M, 16, L, -1)
        ref = np.fft.fft(dense, axis=1)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("kernel,K", [("lp-bumps", 8), ("lp-bumps", 9),
                                      ("annuli", 8)])
def test_psi_s_symbol_applies_each_t_k_once(kernel, K, monkeypatch):
    # one DiscOp.apply per truncated T_k, k = 4..K-s, on the first wavelet
    # of level k + s - 1 alone: the other columns are its translates, and
    # nothing is spread over cells with np.repeat
    T = normalized(assemble(_kernel(kernel, K), K))
    applies, repeats = [], []
    apply, repeat = DiscOp.apply, np.repeat
    monkeypatch.setattr(DiscOp, "apply", lambda self, f: applies.append(
        np.shape(f)) or apply(self, f))
    monkeypatch.setattr(np, "repeat", lambda *a, **kw: repeats.append(
        a[1:]) or repeat(*a, **kw))
    for s in range(1, K - 3):
        applies.clear()
        assert psi_s_symbol(T, s) is not None
        assert applies == [(T.N,)] * (K - s - 3)
    assert repeats == []


@pytest.mark.parametrize("kernel", ["lp-bumps", "annuli"])
def test_haar_block_norms_equal_piece_norms(kernel):
    # what the decay experiment relies on: H is orthogonal
    K = 7
    T = normalized(assemble(_kernel(kernel, K), K))
    t_hat = haar2(T.mats)
    for s in range(1, K):
        assert stack_norm(phi_s_hat(t_hat, s)) == pytest.approx(
            stack_norm(phi_s(T.mats, s)), rel=1e-12, abs=1e-300)
        assert stack_norm(dense_psi_s_hat(T, s)) == pytest.approx(
            stack_norm(psi_s(T, s)), rel=1e-12, abs=1e-300)


def test_phi_psi_shift_contract():
    T = _T(4, 2)
    with pytest.raises(ContractViolation):
        phi_psi_hat(T, 0)
    with pytest.raises(ContractViolation):
        psi_s_symbol(T, 4)
    with pytest.raises(ContractViolation):
        phi_s_hat(haar2(T.mats), 4)


# -- ||Phi_s|| from its two half-shift parities ------------------------------

@pytest.mark.parametrize("corrected", [False, True], ids=["T", "T0"])
@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli"])
@pytest.mark.parametrize("K", [4, 6, 8, 10])
def test_half_shift_split_phi_norms_match_unsplit(K, kernel, corrected):
    # the rows below level K - s_lo, all that Phi_s reads at s >= s_lo, of
    # T and of T0 = T - Pi_rho* (which commutes with the half shift: rho =
    # T*1 is constant, so Pi_rho* = 0 up to rounding).  At K = 10 the
    # shifts start at 3, as pseudoloc-decay's do: the unsplit references at
    # s = 1, 2 are 1024-sided Grams of up to 5120 rows, 5 s of the 6 s that
    # the four M = 10 cases would take
    s_lo = 1 if K < 10 else 3
    T = normalized(assemble(_kernel(kernel, K), K))
    t_hat = circulant_haar(T.column, 0, T.N, 1 << (K - s_lo))
    if corrected:
        t_hat = paraproduct_correction(t_hat)
    scale = np.abs(t_hat).max()
    parts = _parity(_on_rows(_parity, t_hat))    # [col parity, row parity]
    assert parts.shape == (2, 2, T.M, 1 << (K - s_lo - 1), T.N // 2)
    assert np.abs(parts[[0, 1], [1, 0]]).max() <= 1e-15 * scale
    # Frobenius norms by numpy's pairwise sum: np.linalg.norm's own
    # accumulation of the 5e6 complex entries at K = 10 errs by 4e-14
    def frobenius(x):
        return np.sqrt((np.abs(x) ** 2).sum())
    assert frobenius(parts) == pytest.approx(frobenius(t_hat), rel=1e-14,
                                             abs=0.0)
    split = half_shift_split(t_hat)
    assert np.array_equal(split, parts[[0, 1], [0, 1]])
    for s in range(s_lo, K):
        whole = stack_norm(phi_s_hat(t_hat, s))
        halves = split_phi_s_hat(split, s)
        assert halves.shape == (2, T.M, 1 << (K - s - 1), T.N // 2)
        assert max(map(stack_norm, halves)) == pytest.approx(
            whole, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("K", [4, 6])
def test_half_shift_split_of_an_operator_that_is_not_circulant(K):
    # a random stack plus its conjugate by S commutes with S, and unlike a
    # circulant's its constant Haar row is not 0: the even block's mask must
    # read h_0 at level -1
    N = 1 << K
    A = np.random.default_rng(64).standard_normal((2, N, N))
    t_hat = haar2(A + np.roll(A, (N // 2, N // 2), axis=(-2, -1)))
    split = half_shift_split(t_hat)
    for s in range(1, K):
        assert max(map(stack_norm, split_phi_s_hat(split, s))) \
            == pytest.approx(stack_norm(phi_s_hat(t_hat, s)), rel=1e-13,
                             abs=0.0)


@pytest.mark.parametrize("K", [2, 3, 5])
def test_parity_basis_is_the_half_shift_eigenbasis(K):
    # the rows of the parity transform, in cells: orthonormal, S-even or
    # S-odd, and at the level phi_s_hat's split mask gives them, -1 (even)
    # or 0 (odd) and then 2^{l-1} pairs at each level l >= 1 (a wavelet at
    # level l is constant on level-(l+1) cubes and not on level-l ones)
    N = 1 << K
    vecs = ihaar(_parity(np.eye(N)).swapaxes(-1, -2), N)   # (2, N/2, N)
    flat = vecs.reshape(N, N)
    assert np.allclose(flat @ flat.T, np.eye(N), rtol=0.0, atol=1e-15)
    pairs = [lev for lev in range(1, K) for _ in range(1 << (lev - 1))]
    for sign, first, half in zip((1.0, -1.0), (-1, 0), vecs):
        assert np.allclose(np.roll(half, N // 2, axis=-1), sign * half,
                           rtol=0.0, atol=1e-15)
        for lev, v in zip([first] + pairs, half):
            cubes = [v.reshape(1 << k, -1) for k in (max(lev, 0), lev + 1)]
            flat_on = [np.allclose(c, c[:, :1]) for c in cubes]
            assert flat_on == [lev < 0, True]


def test_half_shift_split_rejects_a_block_that_does_not_commute():
    # one level-2 wavelet column moved by one cell: T h_c becomes
    # (roll T h_c by one), and the cross-parity blocks no longer vanish
    T = normalized(_T(6, 2))
    t_hat = circulant_haar(T.column, 0, T.N)
    c = 4 + 1
    t_hat[..., c] = haar(np.roll(ihaar(t_hat[..., c], T.N), 1, axis=-1))
    with pytest.raises(NumericError, match="does not commute with the half shift"):
        half_shift_split(t_hat)
    with pytest.raises(NumericError, match="does not commute with the half shift"):
        half_shift_split(np.full_like(t_hat, np.nan))


# -- ||Phi_s|| from its blocks on the dyadic periods -------------------------

@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli"])
@pytest.mark.parametrize("K", [4, 6, 8, 10])
def test_dyadic_period_block_norms_match_the_parities_and_dense_phi_s(
        K, kernel):
    # ||Phi_s|| from phi_s_blocks against the larger norm of the two
    # parities of T0's Haar block (the split pseudoloc-decay took before)
    # and, up to K = 8, against the dense Phi_s; at K = 10 the shifts start
    # at 3, as pseudoloc-decay's do
    s_lo = 1 if K < 10 else 3
    T = normalized(assemble(_kernel(kernel, K), K))
    blocks = phi_s_blocks(T, s_lo)
    assert [b.shape for b, _ in blocks] == [
        (T.M, 1 << (K - s_lo - j), T.N >> j) for j in range(1, K - s_lo + 1)
    ] + [(T.M, 1, 1 << s_lo)]
    split = half_shift_split(paraproduct_correction(
        circulant_haar(T.column, 0, T.N, 1 << (K - s_lo))))
    cols = col_deltas(T.mats) if K <= 8 else None
    for s in range(s_lo, K):
        got = phi_s_norm(blocks, s)
        assert got == pytest.approx(max(map(
            stack_norm, split_phi_s_hat(split, s))), rel=1e-13, abs=0.0)
        if cols is not None:
            assert got == pytest.approx(stack_norm(oracle_phi_s(cols, s)),
                                        rel=1e-13, abs=0.0)


def _lifted_haar_vectors(K, J):
    """The Haar vectors on N/2^j cells lifted to N = 2^K cells, in Haar
    order: into V_j (period N/2^{j-1}, antiperiod N/2^j) for j = 1..J, then
    into W_J (period N/2^J); one (N/2^j, N) array each."""
    N = 1 << K
    out = []
    for j in range(1, J + 1):
        g = ihaar(np.eye(N >> j), N >> j)
        out.append(np.tile(np.hstack([g, -g]), 1 << (j - 1)) / 2 ** (j / 2))
    g = ihaar(np.eye(N >> J), N >> J)
    return out + [np.tile(g, 1 << J) / 2 ** (J / 2)]


@pytest.mark.parametrize("K,s_lo", [(2, 1), (3, 1), (5, 1), (5, 3)])
def test_dyadic_period_basis_is_orthonormal_at_the_stated_levels(K, s_lo):
    # the lifted Haar vectors: orthonormal, of the stated period and
    # antiperiod, and each inside the Haar level that phi_s_blocks states
    # for its coefficient (the constant of V_j at level j - 1, a level-l
    # wavelet at level l + j; W's constant at level -1)
    N, J = 1 << K, K - s_lo
    vecs = _lifted_haar_vectors(K, J)
    flat = np.vstack(vecs)
    assert np.allclose(flat @ flat.T, np.eye(N), rtol=0.0, atol=1e-15)
    levels = [lev for _, lev in phi_s_blocks(_T(K, 2), s_lo)]
    assert [len(lev) for lev in levels] == [len(v) for v in vecs]
    for j, (v, lev) in enumerate(zip(vecs, levels), start=1):
        if j <= J:          # V_j
            assert np.allclose(np.roll(v, N >> (j - 1), axis=-1), v,
                               rtol=0.0, atol=1e-15)
            assert np.allclose(np.roll(v, N >> j, axis=-1), -v,
                               rtol=0.0, atol=1e-15)
        else:               # W_J
            assert np.allclose(np.roll(v, N >> J, axis=-1), v,
                               rtol=0.0, atol=1e-15)
        for x, level in zip(haar(v), lev):
            off = _haar_levels(K) != level
            assert np.abs(x[off]).max(initial=0.0) < 1e-15


@pytest.mark.parametrize("kernel", ["lp-bumps", "annuli"])
@pytest.mark.parametrize("K,s_lo", [(3, 1), (5, 1), (6, 2)])
def test_dense_phi_s_is_block_diagonal_on_the_dyadic_periods(K, s_lo,
                                                            kernel):
    # in the lifted basis the dense Phi_s is the direct sum of the masked
    # blocks of phi_s_blocks (zero past their rows), and nothing else
    T = normalized(assemble(_kernel(kernel, K), K))
    basis = np.vstack(_lifted_haar_vectors(K, K - s_lo))
    blocks = phi_s_blocks(T, s_lo)
    for s in range(s_lo, K):
        got = basis @ phi_s(T.mats, s) @ basis.T
        ref = np.zeros_like(got)
        at = 0
        for b, lev in blocks:
            hat = phi_s_hat(b, s, lev)
            ref[:, at:at + hat.shape[-2], at:at + len(lev)] = hat
            at += len(lev)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_phi_s_blocks_reject_a_non_finite_column():
    T = _T(5, 2)
    col = T.column.copy()
    col[1, 3] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        phi_s_blocks(DiscOp(col, T.K, None), 2)
    with pytest.raises(ContractViolation):
        phi_s_blocks(T, 5)


# -- ||Psi_s|| from its 16-block symbol ---------------------------------------

@pytest.mark.parametrize("K,kernel", [
    (K, kernel) for K in range(5, 10)
    for kernel in ("lp-bumps", "hilbert", "annuli")] + [(10, "lp-bumps")])
def test_psi_s_norm_matches_dense_haar_block_norm(K, kernel):
    # the dense reference forms every truncated (M, N, N) stack, so depth 10
    # runs only its cheapest nonzero shift, s = K - 4 (one stack), and the
    # empty ones
    T = normalized(assemble(_kernel(kernel, K), K))
    nonzero = 0
    for s in range(1 if K < 10 else K - 4, K):
        got = psi_s_norm(T, s)
        ref = stack_norm(dense_psi_s_hat(T, s))
        if K - s < 4:        # Psi_s is empty: exact zeros, as _slope reads
            assert got == 0.0 and ref == 0.0
        # abs=0: where every truncated T_k is 0 both sides are exactly 0.0
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
        nonzero += got > 0.0
    # at K = 5 the hilbert Psi_s is its k = 4 term alone, which the cutoff
    # 1/4 = 4 * 2^-4 empties
    assert nonzero > 0 or (kernel, K) == ("hilbert", 5)


@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli"])
@pytest.mark.parametrize("K", [9, 10])
def test_psi_s_norm_reads_nine_symbol_blocks_of_a_real_column(K, kernel,
                                                              monkeypatch):
    # a real column has C(16 - w) = conj C(w): blocks w and 16 - w have the
    # same norm up to eigvalsh's rounding, and psi_s_norm reads w = 0..8;
    # the complex annuli column keeps all 16
    import nclp.pseudoloc as pl
    T = normalized(assemble(_kernel(kernel, K), K))
    real = kernel != "annuli"
    for s in range(1, K - 3):
        norms = [stack_norm(b) for b in psi_s_symbol(T, s).swapaxes(0, 1)]
        if real:
            for w in range(1, 8):
                assert norms[16 - w] == pytest.approx(norms[w], rel=1e-15,
                                                      abs=0.0)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(pl, "opnorm",
                      lambda x: calls.append(x.shape) or opnorm(x))
            got = psi_s_norm(T, s)
        # one call per block, its M components folded into its L rows
        L = T.N >> 4
        assert calls == [(T.M * L, L - 2 ** (s - 1))] * (9 if real else 16)
        assert got == max(norms[:len(calls)])
        # == but for hilbert at K = 10, s = 5, where block 9's eigvalsh
        # rounds one ulp (1.9e-16) above block 7's
        assert got == pytest.approx(max(norms), rel=1e-15, abs=0.0)
        assert got == max(norms) or (kernel, K, s) == ("hilbert", 10, 5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_psi_s_norm_contract_and_non_finite(bad):
    T = normalized(_T(6, 2))
    for s in (0, 6, 7):
        with pytest.raises(ContractViolation):
            psi_s_norm(T, s)
    col = T.column.copy()
    col[1, 40] = bad
    with pytest.raises(NumericError, match="column"):
        psi_s_norm(DiscOp(col, T.K, T.kernel), 1)
    # a finite column whose symbol Gram overflows
    with pytest.raises(NumericError, match="Gram"):
        psi_s_norm(DiscOp(T.column * 1e200, T.K, T.kernel), 1)


@pytest.mark.parametrize("kernel", ["lp-bumps", "annuli"])
@pytest.mark.parametrize("K,s", [(7, 1), (8, 2), (8, 3)])
def test_psi_s_commutes_with_the_level_4_shift_only(K, s, kernel):
    # the symmetry psi_s_norm rests on, on the dense averaging oracle: the
    # shift by N/16 cells commutes exactly; the shift by N/32 does not, so
    # 32 blocks would be wrong.  (The hilbert kernel's k = 4 term is empty,
    # its cutoff 1/4 being the radius 4 * 2^-4, so its Psi_s also commutes
    # with the shift by N/32 and cannot tell the two apart.)
    T = normalized(assemble(_kernel(kernel, K), K))
    P = oracle_psi_s(T, s)
    assert np.array_equal(np.roll(P, (T.N // 16,) * 2, axis=(-2, -1)), P)
    moved = np.roll(P, (T.N // 32,) * 2, axis=(-2, -1)) - P
    assert np.abs(moved).max() > 0.05 * np.abs(P).max()


def test_decay_builds_no_psi_s_block(monkeypatch):
    # Psi_s reaches opnorm only as (M*N/16, N/16 - 2^{s-1}) blocks of its
    # symbol per nonempty shift, never as a Haar block of N - 8*2^s
    # columns; the other norms are those of Phi_s's blocks on V_1..V_{K-s_lo}
    # and W_{K-s_lo} (``phi_s_blocks``), never of its N-column Haar block or
    # of its two (N/2)-column parities; each solves the smaller Gram, and
    # the blocks on V_{K-s+1}..V_{K-s_lo}, empty at shift s, solve none
    import nclp.opcore as opcore
    import nclp.pseudoloc as pl
    import nclp.harness as harness
    calls, built, grams = [], [], []
    for name in ("psi_s_symbol", "opnorm"):
        def recorded(x, *args, name=name, real=getattr(pl, name)):
            calls.append((name, getattr(x, "shape", None)))
            return real(x, *args)
        monkeypatch.setattr(pl, name, recorded)
    def recorded_block(*args, real=pl.circulant_haar, **kwargs):
        out = real(*args, **kwargs)
        built.append(out.shape)
        return out
    monkeypatch.setattr(pl, "circulant_haar", recorded_block)
    monkeypatch.setattr(opcore, "eigvalsh", lambda g, real=opcore.eigvalsh:
                        grams.append(g.shape) or real(g))
    K, N, shifts = 8, 256, range(2, 7)
    rep = harness.run(harness.ExperimentConfig(
        "pseudoloc-decay", depth=K, s_range=(2, 6), kernel="lp-bumps"))
    assert len(rep["trials"]) == len(shifts)
    # built once: V_j's first 2^{K-2-j} rows on N/2^j cells, j = 1..K-2,
    # then W_{K-2}'s row 0 on 4 cells; no N-column or two-parity block
    assert built == [(K, 1 << (K - 2 - j), N >> j) for j in range(1, K - 1)] \
        + [(K, 1, 4)]
    assert not any(len(shape) > 3 or shape[-1] == N for shape in built)
    # per shift: the norms of Phi_s's K - 1 blocks, then psi_s_symbol, then
    # the Psi_s norms (9 of 16 blocks: the column is real)
    marks = [i for i, (name, _) in enumerate(calls) if name == "psi_s_symbol"]
    starts = [0] + [i + 1 + 9 * (K - s >= 4) for s, i in zip(shifts, marks)]
    assert len(marks) == len(shifts)
    phi_ops = [calls[i:j] for i, j in zip(starts, marks)]
    psi_ops = {s: calls[i + 1:j]
               for s, i, j in zip(shifts, marks, starts[1:])}
    assert starts[-1] == len(calls)
    # the M = K components folded into the rows
    assert phi_ops == [[("opnorm", (K << (K - s - j), N >> j))
                        for j in range(1, K - s + 1)]
                       + [("opnorm", (0, N >> j)) for j in range(K - s + 1,
                                                                 K - 1)]
                       + [("opnorm", (K, 4))] for s in shifts]
    L = N // 16                     # symbol blocks: L cells by c wavelets
    assert psi_ops == {s: [("opnorm", (K * L, L - 2 ** (s - 1)))]
                       * (9 if K - s >= 4 else 0) for s in shifts}
    assert not any(shape[-1] in (N, N - 8 * 2 ** s)
                   for s, ops in psi_ops.items() for _, shape in ops)
    # one Gram per nonempty block, of side min(rows, cols)
    assert grams == [(side, side) for s in shifts for side in
                     [min(K << (K - s - j), N >> j)
                      for j in range(1, K - s + 1)] + [min(K, 4)]
                     + [L - 2 ** (s - 1)] * (9 if K - s >= 4 else 0)]


def test_psi_s_norm_peak_memory():
    # depth 10, s = 3, lp-bumps (M = 10): about 29 MiB traced, where the
    # norm of the dense Haar block of Psi_s peaked at 115 MiB
    import tracemalloc
    T = normalized(assemble(_kernel("lp-bumps", 10), 10))
    tracemalloc.start()
    try:
        psi_s_norm(T, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_phi_psi_hat_peak_memory():
    # depth 10, s = 3, lp-bumps (M = 10): about 48 MiB traced; a Haar block
    # of Psi_s, (M, N, N - 8*2^s), peaked at 135 MiB
    import tracemalloc
    T = normalized(assemble(_kernel("lp-bumps", 10), 10))
    tracemalloc.start()
    try:
        phi_psi_hat(T, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_restriction_identity():
    T = normalized(_T(6, 3))
    N = T.N
    f = np.zeros(N)
    f[5 * N // 8: 5 * N // 8 + 2] = [1.0, -1.0]   # narrow mean-zero bump
    s = 2
    # make the differences below level s vanish so the telescope is exact
    f = f - e_level(f, s - 1)
    assert restriction_identity_residual(T, f, s, phi_psi_hat(T, s)) < 1e-10


def test_lambda_family_sums_to_phi():
    T = _T(5, 2)
    s = 2
    fam = lambda_family(T, s)
    assert np.allclose(sum(fam), phi_s(T.mats, s))


def test_ksk_kernel_identity():
    T = normalized(_T(6, 2))
    rep = ksk_check(T, s=2, k=2, n_pairs=50, rng=np.random.default_rng(62))
    assert rep["max_residual"] < 1e-10


def test_gamma_is_read_from_the_kernel():
    # one exponent per operator: its kernel's declared gamma, 1 without one
    T = normalized(_T(6, 2))
    half = DiscOp(T.column, T.K, replace(T.kernel, gamma=0.5))
    bare = DiscOp(T.column, T.K, None)
    assert (T.gamma, half.gamma, bare.gamma) == (1.0, 0.5, 1.0)
    f = np.random.default_rng(63).standard_normal(T.N)
    for op in (T, half):
        chk = commutative_pseudoloc_check(op, f, 2)
        assert chk["ratio"] == pytest.approx(
            chk["outside_norm"] / (2 * 2.0 ** -op.gamma * grid_l2(f, T.K)),
            rel=1e-14)
    # the kernel size bound reads the same exponent, with or without a kernel
    want, got = (ksk_check(op, s=2, k=2, n_pairs=50,
                           rng=np.random.default_rng(64)) for op in (T, bare))
    assert got == want and want["size_constant"] > 0.0


@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli"])
@pytest.mark.parametrize("K", [5, 6, 8])
def test_ksk_check_matches_per_pair_oracle(K, kernel):
    # one T.apply on the stack of all two-bump functions against one per
    # pair: the same draws, the residual within 1e-13 of the kernel scale
    # (both are rounding) and the size constant within 1e-13 relative
    T = normalized(assemble(_kernel(kernel, K), K))
    scale = np.abs(T.column).max() / T.measure
    far = shared = 0
    for s in (1, 2, 3):
        for k in range(K - s + 1):
            rng, ref_rng = (np.random.default_rng([K, s, k]) for _ in "ab")
            got = ksk_check(T, s, k, 70, rng)
            ref = ksk_check_per_pair(T, s, k, 70, ref_rng)
            assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)
            assert abs(got["max_residual"] - ref["max_residual"]) \
                <= 1e-13 * scale
            assert got["size_constant"] == pytest.approx(
                ref["size_constant"], rel=1e-13, abs=0.0, nan_ok=True)
            # 70 pairs over fewer than 70 level-(k+s) cubes: two share one
            shared += (1 << (k + s)) < 70
            # for k <= 1 no y lies outside 3R_x: the size check measures
            # nothing, and says so with NaN on both sides
            if k <= 1:
                assert np.isnan(got["size_constant"])
                assert np.isnan(ref["size_constant"])
            far += got["size_constant"] > 0.0
    assert far > 0 and shared > 0


def test_ksk_check_applies_t_once(monkeypatch):
    T = normalized(_T(6, 2))
    calls, apply = [], DiscOp.apply

    def counted(op, f):
        calls.append(np.shape(f))
        return apply(op, f)

    monkeypatch.setattr(DiscOp, "apply", counted)
    ksk_check(T, s=2, k=2, n_pairs=70, rng=np.random.default_rng(65))
    assert calls == [(T.N, 16)]


def test_schur_dominates_operator_norm():
    T = normalized(_T(5, 3))
    for s in (1, 2):
        for k in (0, 1, 2):
            A = ekt_delta(T, k, k + s)
            assert schur_bound(A) >= stack_norm(A) - 1e-9


def test_cotlar_bound_matches_svd_oracle():
    # [DERIVED] sum over offsets d of sqrt(max_{i-j=d} max(||L_i* L_j||,
    # ||L_i L_j*||)), each composition norm from a dense SVD
    T = normalized(assemble(annuli_kernel(5), 5))
    fam = lambda_family(T, 2)
    A = [L.reshape(-1, T.N) for L in fam]
    best = {}
    for i in range(len(A)):
        for j in range(len(A)):
            n = max(np.linalg.norm(A[i].conj().T @ A[j], 2),
                    np.linalg.norm(A[i] @ A[j].conj().T, 2))
            best[i - j] = max(best.get(i - j, 0.0), n)
    expect = sum(np.sqrt(v) for v in best.values())
    assert cotlar_bound(fam) == pytest.approx(expect, rel=1e-10)


def test_cotlar_dominates_sum_norm():
    T = normalized(_T(5, 3))
    s = 2
    fam = lambda_family(T, s)
    direct = stack_norm(sum(fam))
    assert cotlar_bound(fam) >= direct - 1e-6


# -- paraproduct -------------------------------------------------------------

def test_paraproduct_adjoint_pairing():
    # [DERIVED] <Pi_rho f, g>_{L2(H)} = <f, Pi_rho* g>_{L2} duality
    K, N, M = 4, 16, 3
    rng = np.random.default_rng(63)
    rho = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    pa = paraproduct_adjoint(rho, g, K)
    lhs = sum((paraproduct(rho, f, K)[:, m].conj() * g).sum()
              for m in range(M))
    rhs = sum((f.conj() * pa[:, m]).sum() for m in range(M))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_paraproduct_adjoint_mats_match_direct():
    K, M = 4, 2
    N = 2 ** K
    rng = np.random.default_rng(64)
    rho = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    mats = paraproduct_adjoint_mats(rho, K)
    direct = paraproduct_adjoint(rho, f, K)
    assert np.allclose(np.einsum("mij,j->im", mats, f), direct)


def test_paraproduct_correction_kills_adjoint_one():
    T = _T(5, 2)
    T0, rho = dense_paraproduct_correction(T.mats)
    assert np.allclose(rho, adjoint_one(T))
    # the kernels' rho is rounding; a random complex column's is not
    R = DiscOp(_complex(np.random.default_rng(67), 2, T.N), T.K, None)
    assert np.allclose(adjoint_one(R), dense_adjoint_one(R.mats),
                       rtol=1e-13, atol=0.0)
    # a circulant's column sums: rho is exactly constant, so Pi_rho* = 0
    assert np.array_equal(adjoint_one(T), np.tile(adjoint_one(T)[0], (T.N, 1)))
    assert np.abs(dense_adjoint_one(T0)).max() \
        < 1e-12 * np.abs(rho).max() + 1e-15


@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli",
                                    "random"])
@pytest.mark.parametrize("K", [4, 7])
def test_t0_haar_matrix_matches_dense_correction(K, kernel):
    # the three kernels are circulants, so rho = T*1 is constant and
    # Pi_rho* is rounding; a random T makes the correction of full size
    if kernel == "random":
        rng = np.random.default_rng(80 + K)
        mats = _complex(rng, 2, 1 << K, 1 << K)
    else:
        mats = normalized(assemble(_kernel(kernel, K), K)).mats
    ref = haar2(dense_paraproduct_correction(mats)[0])
    assert _rel_err(paraproduct_correction(haar2(mats)), ref) <= 1e-12
    if kernel == "random":
        assert _rel_err(haar2(mats), ref) > 1e-3
    # T0* 1 is constant: row 0 of its Haar matrix vanishes past column 0
    assert np.abs(ref[:, 0, 1:]).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli",
                                    "random"])
@pytest.mark.parametrize("K", [4, 7, 9])
def test_row_limited_t0_is_the_first_rows_of_the_full_t0(K, kernel):
    # pseudoloc-decay keeps only the rows below 2^{K - s_lo}
    N = 1 << K
    if kernel == "random":      # not a circulant: the correction is large
        t_hat = _complex(np.random.default_rng(90 + K), 2, N, N)
        full = paraproduct_correction(t_hat.copy())
    else:
        col = normalized(assemble(_kernel(kernel, K), K)).column
        full = paraproduct_correction(circulant_haar(col, 0, N))
    for s in range(1, K):
        rows = 1 << (K - s)
        if kernel == "random":
            got = paraproduct_correction(t_hat[..., :rows, :].copy())
        else:
            got = paraproduct_correction(circulant_haar(col, 0, N, rows))
        assert np.array_equal(got, full[..., :rows, :])


def test_rho_bmo_constant_is_zero():
    K, N = 4, 16
    rho = np.ones((N, 2))
    assert rho_bmo(rho, K) == 0.0


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("M", [1, 3])
@pytest.mark.parametrize("K", [4, 7])
def test_paraproduct_and_bmo_match_loop_oracles(K, M):
    N = 2 ** K
    rng = np.random.default_rng(68 + K + M)
    rho = _complex(rng, N, M)
    f = _complex(rng, N)
    assert _rel_err(paraproduct(rho, f, K),
                    oracle_paraproduct(rho, f, K)) <= 1e-12
    assert _rel_err(paraproduct_adjoint(rho, f, K),
                    oracle_paraproduct_adjoint(rho, f, K)) <= 1e-12
    assert _rel_err(paraproduct_adjoint_mats(rho, K),
                    oracle_paraproduct_adjoint_mats(rho, K)) <= 1e-12
    assert rho_bmo(rho, K) == pytest.approx(oracle_rho_bmo(rho, K),
                                            rel=1e-12)


@pytest.mark.parametrize("M", [1, 3])
@pytest.mark.parametrize("K", [4, 7])
def test_vanish_matches_loop_oracle(K, M):
    N = 2 ** K
    rng = np.random.default_rng(70 + K + M)
    rho = _complex(rng, N, M)
    f = rng.standard_normal(N)
    for s in range(1, K):
        assert _rel_err(vanish_sum(rho, f, s, K),
                        oracle_vanish_sum(rho, f, s, K)) <= 1e-12
    # outside Sigma_{f,s} both sums vanish up to rounding, although the
    # random rho makes them nonzero inside
    for s in range(1, K):
        g = _localized_scalar(N, K, s, rng)
        got, ref = vanish_check(rho, g, s), oracle_vanish_check(rho, g, s, K)
        assert got <= 1e-13 and ref <= 1e-13
        assert np.abs(vanish_sum(rho, g, s, K)).max() > 0.1 * grid_l2(g, K)


@pytest.mark.parametrize("K", [4, 7])
def test_sigma_set_matches_cube_loop_oracle(K):
    N = 2 ** K
    rng = np.random.default_rng(72 + K)
    partial = 0
    for s in range(1, K):
        for f in (_localized_scalar(N, K, s, rng), np.eye(N)[rng.integers(N)],
                  rng.standard_normal(N)):
            mask = sigma_set(f, s, K)
            assert np.array_equal(mask, oracle_sigma_set(f, s, K))
            partial += not mask.all()
    # at K = 4 the 9-fold dilation of any cube of level <= 3 is the torus
    assert (partial > 0) == (K > 4)


# -- localization ------------------------------------------------------------

def test_sigma_set_scalar_oracle():
    K = 5
    N = 2 ** K
    f = np.zeros(N)
    f[8] = 1.0
    s = 2
    # at level k, the bad cube is the level-k cube containing cell 8 when
    # Delta_{k+s} f is supported there (always true for a dirac)
    manual = np.zeros(N, dtype=bool)
    for k in range(0, K - s + 1):
        L = N // 2 ** k
        c = 8 // L
        idx = np.arange((c - 4) * L, (c + 5) * L) % N
        manual[idx] = True
    assert np.array_equal(sigma_set(f, s, K), manual)


def test_localization_contract_error():
    T = normalized(_T(5, 2))
    with pytest.raises(ContractViolation):
        localization_check(T, 0.5, 0.1, 0.15)


def test_localization_finite():
    T = normalized(hilbert_kernel_op())
    rep = localization_check(T, 0.5, 0.02, 0.2)
    assert np.isfinite(rep["value"]) and rep["value"] >= 0.0


def hilbert_kernel_op():
    return assemble(hilbert_kernel(), 6)


# -- semicommutative ---------------------------------------------------------

def test_zeta_fs_scalar_complement():
    # [DERIVED] d = 1: a single dead level-4 cube on the 64-cell torus
    # kills exactly its 9-fold dilation, zeta is the complement indicator
    filt = GridFiltration(1, 6, 1)
    N = 64
    good = np.ones(16)
    good[3] = 0.0                     # cube 3 at level 4 (width 4)
    qs = [filt.level_algebra(k).unit() for k in range(4)] \
        + [Op(good[:, None, None], filt.level_algebra(4))]
    z = zeta_fs(filt, qs)
    expect = np.ones(N)
    L = 4
    idx = np.arange((3 - 4) * L, (3 + 5) * L) % N
    expect[idx] = 0.0
    assert np.allclose(z.blocks[:, 0, 0].real, expect)


def zeta_fs_per_cell_join_oracle(filt, q_list, levels):
    """zeta_{f,s} with one proj_join per cell over the lost blocks 1 - xi_Q
    of the 9Q that contain it; also returns the cells no 9Q touches."""
    d = filt.d
    lost = [[] for _ in range(filt.algebra.nblocks)]
    for k, q in zip(levels, q_list):
        for Q in cubes_at_level(filt, k):
            comp = np.eye(d) - q.blocks[cube_cells(filt, Q)[0]]
            if np.abs(comp).max() <= 1e-14:
                continue
            for cell in np.nonzero(concentric_mask(filt, Q, 9))[0]:
                lost[cell].append(comp)
    blocks = np.empty((filt.algebra.nblocks, d, d), dtype=complex)
    for cell, comps in enumerate(lost):
        join = proj_join(Op(np.array(comps)[:, None], dense_algebra(d))) \
            if comps else Op(np.zeros((1, d, d)), dense_algebra(d))
        blocks[cell] = np.eye(d) - join.blocks[0]
    return blocks, np.array([not comps for comps in lost])


def support_q_list(f, K, s, filt1):
    """The support-driven projections of the d = 1 scalar reduction, each
    q_k in M_k's coordinates: q_k drops the level-k cubes on which
    df_{k+s} does not vanish."""
    scale = max(np.abs(f).max(), 1e-300)
    good = []
    for k in range(0, K - s + 1):
        bad = np.abs(delta_level(f, k + s)) > 1e-12 * scale
        cube_bad = bad.reshape(1 << k, -1).any(axis=1)
        good.append(Op(~cube_bad[:, None, None], filt1.level_algebra(k)))
    return good


def test_support_cubes_match_support_q_list():
    K = 7
    filt1 = GridFiltration(1, K, 1)
    rng = trial_rng(69, 0)
    for s in range(1, K):
        f = _localized_scalar(2 ** K, K, s, rng)
        ref = support_q_list(f, K, s, filt1)
        got = support_cubes(f, s, K)
        assert len(got) == len(ref)
        for bad, q in zip(got, ref):
            assert np.array_equal(~bad, q.blocks[:, 0, 0])


def _check_zeta_fs(filt, qs):
    ref, untouched = zeta_fs_per_cell_join_oracle(
        filt, filt.extend_levels(qs), range(len(qs)))
    z = zeta_fs(filt, qs)
    assert np.abs(z.blocks - ref).max() <= 1e-12
    # a cell outside every bad 9Q keeps exactly the identity
    assert np.array_equal(z.blocks[untouched],
                          np.broadcast_to(np.eye(filt.d), ref[untouched].shape))
    return untouched


@pytest.mark.parametrize("n,K,d", [(1, 5, 1), (1, 5, 2), (1, 4, 3),
                                   (2, 3, 2)])
def test_zeta_fs_matches_per_cell_join_oracle(n, K, d):
    filt = GridFiltration(n, K, d)
    touched = 0
    for t in range(2):
        f = random_positive_martingale(filt, trial_rng(66, t))
        parts = cz_decompose(f, 2.0 ** np.arange(0, 4))
        for i in range(len(parts.seq.lam)):
            qs = parts.seq[i].restricted
            for s in (1, 2):
                untouched = _check_zeta_fs(filt, qs[:K - s + 1])
                touched += int((~untouched).sum())
    assert touched > 0


def test_zeta_fs_matches_per_cell_join_oracle_on_support_projections():
    K = 9
    filt1 = GridFiltration(1, K, 1)
    rng = trial_rng(67, 0)
    for s in (2, 3, 4):
        f = _localized_scalar(2 ** K, K, s, rng)
        untouched = _check_zeta_fs(filt1, support_q_list(f, K, s, filt1))
        assert 0 < untouched.sum() < 2 ** K


def test_nc_pseudoloc_rejects_uncertified_projection():
    filt = GridFiltration(1, 4, 2)
    f = random_positive_martingale(filt, trial_rng(65, 0)).top
    T = normalized(_T(4, 2))
    ones = [filt.level_algebra(k).unit() for k in range(4)]
    with pytest.raises(ContractViolation):
        nc_pseudoloc_check(T, f, 1, filt, ones)


@pytest.mark.parametrize("kernel", ["lp-bumps", "hilbert", "annuli"])
@pytest.mark.parametrize("K", [5, 7])
def test_phi_psi_apply_matches_dense_oracle(K, kernel):
    T = normalized(assemble(_kernel(kernel, K), K))
    rng = np.random.default_rng(62)
    x = rng.standard_normal(T.N)
    xm = rng.standard_normal((T.N, 2, 2)) + 1j * rng.standard_normal((T.N, 2, 2))
    for s in range(1, K):
        mats = phi_s(T.mats, s) + psi_s(T, s)
        hat = phi_psi_hat(T, s)
        for v in (x, xm):
            ref = np.einsum("mij,j...->mi...", mats, v)
            got = phi_psi_apply(hat, v)
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def phi_psi_apply_per_call(T, s, x):
    """(Phi_s + Psi_s) x with ``phi_psi_hat`` recomputed on every call."""
    return phi_psi_apply(phi_psi_hat(T, s), x)


def test_shared_phi_psi_hat_gives_identical_output():
    T = normalized(_T(6, 3))
    rng = np.random.default_rng(63)
    for s in range(1, 6):
        hat = phi_psi_hat(T, s)
        for _ in range(3):
            x = rng.standard_normal((T.N, 2, 2))
            assert np.array_equal(phi_psi_apply(hat, x),
                                  phi_psi_apply_per_call(T, s, x))


@pytest.mark.parametrize("experiment,fields", [
    ("vanish", dict(trials=4, depth=7, s_range=(2, 4))),
    ("nc-pseudoloc", dict(algebra="grid:1,6,2", trials=2, s_range=(2, 4)))])
def test_runners_build_phi_psi_once_per_shift(experiment, fields,
                                              monkeypatch):
    import nclp.harness as harness
    calls, real = [], harness.pl.phi_psi_hat

    def counted(T, s):
        calls.append(s)
        return real(T, s)

    monkeypatch.setattr(harness.pl, "phi_psi_hat", counted)
    rep = harness.run(harness.ExperimentConfig(experiment, **fields))
    assert calls and len(calls) == len(set(calls))
    assert all(a["pass"] for a in rep["assertions"])


def test_nc_pseudoloc_checks_the_identity_on_every_trial(monkeypatch):
    import nclp.harness as harness
    calls, real = [], harness.pl.nc_pseudoloc_check

    def recorded(T, f, s, filt, qs, hat=None):
        calls.append((filt.d, hat is not None))
        return real(T, f, s, filt, qs, hat)

    monkeypatch.setattr(harness.pl, "nc_pseudoloc_check", recorded)
    rep = harness.run(harness.ExperimentConfig(
        "nc-pseudoloc", algebra="grid:1,6,2", trials=3, s_range=(2, 4)))
    # the trials run on the d = 2 algebra; the d = 1 scalar reduction of
    # the summary has no Phi_s + Psi_s blocks
    trial_calls = [has_hat for d, has_hat in calls if d == 2]
    assert len(trial_calls) > 3 and all(trial_calls)
    assert all(t["metrics"]["identity_residual"] > 0.0
               for t in rep["trials"])
