"""Three-part martingale decomposition at a threshold, its verification,
the row/column decomposition behind the weak-(1,1) transform bound, the
ergodic-average coefficients and the cross-term experiment."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuculescu import (CuculescuSequence, cuculescu, delta_split,
                        ladder_top, pi_family, q_lambda)
from .errors import ContractViolation
from .martingale import (CoeffMatrix, Martingale, col_square, row_square,
                         transform_family)
from .opcore import (Op, _op, _per_entry, annihilation_check, l2_norm,
                     schatten_norm, tail_trace, weak_l1)


@dataclass
class GundyParts:
    d_alpha: Op                  # each batched over lambda and the levels
    d_beta: Op
    d_gamma: Op
    seq: CuculescuSequence

    @property
    def martingale(self) -> Martingale:
        return self.seq.martingale


def gundy(seq: CuculescuSequence) -> GundyParts:
    """Split f = alpha + beta + gamma along the recursion ``seq`` of f, at
    its threshold or at each entry of its threshold vector.

    d_alpha_k = q_k df_k q_k - E_{k-1}(q_k df_k q_k)
    d_beta_k  = q_{k-1} df_k q_{k-1} - q_k df_k q_k + E_{k-1}(q_k df_k q_k)
    d_gamma_k = df_k - q_{k-1} df_k q_{k-1}
    """
    f = seq.martingale
    qk, qp, df = seq.qs, seq.q_prev, f.diffs
    core = qk @ df @ qk
    comp = f.expect_each(core, lag=1)
    kept = qp @ df @ qp
    return GundyParts(core - comp, kept - core + comp, df - kept, seq)


def gundy_verify(parts: GundyParts) -> dict:
    """The three normalized quantities of the decomposition, per threshold.

    The gamma term uses the certified dominating bound lam*tau(1 - q(lam)):
    supp* d_gamma_k <= 1 - q_{k-1} <= 1 - q(lam), certified via annihilation.
    """
    f = parts.martingale
    lam = parts.seq.lam
    denom = max(f.sup_l1, 1e-300)
    alpha_sums = _op(np.cumsum(parts.d_alpha.blocks, axis=-4), f.algebra)
    alpha_term = (l2_norm(alpha_sums) ** 2).max(axis=-1) / lam
    # the recursion ran on a Hermitian top: df_k, d_beta_k, d_gamma_k are too
    beta_term = f.level_norms(parts.d_beta, 1).sum(axis=-1)
    q = q_lambda(parts.seq)
    scale = max(float(f.level_norms(f.diffs, np.inf).max()), 1e-300)
    gamma = f.level_norms(parts.d_gamma, np.inf)
    dead = gamma <= 1e-12 * scale
    annihilated = annihilation_check(_op(q.blocks[..., None, :, :, :],
                                         f.algebra), parts.d_gamma, 1e-10,
                                     hermitian=True, f_norm=gamma)
    gamma_term = lam * (f.algebra.unit() - q).trace().real
    return {
        "alpha": alpha_term / denom,
        "beta": beta_term / denom,
        "gamma": gamma_term / denom,
        "gamma_annihilated": _per_entry(np.all(annihilated | dead, axis=-1)),
    }


def thmA1_decompose(f: Martingale, xi: CoeffMatrix):
    """Row/column split of the transform family, batched over m.

    A_m = sum_k xi[k,m] Delta_r(df_k),  B_m = sum_k xi[k,m] Delta_c(df_k),
    so A_m + B_m = T_m exactly.  The pi family runs on the ladder from
    min(-2, top - 8) to the top level of ``ladder_top``.  A Hermitian
    martingale that is not positive is first shifted by a multiple of the
    identity to a positive one; the applied shift is returned.
    """
    shift = 0.0
    work = f
    if not f.is_positive():
        if not f.top.is_hermitian():
            raise ContractViolation("thmA1_decompose needs a Hermitian "
                                    "martingale (its top is not Hermitian)")
        shift = -f.spectral_floor + 1e-6
        work = Martingale(f.filtration, f.top + shift * f.algebra.unit())
    top = ladder_top(work)
    pi = pi_family(cuculescu(work, 2.0 ** np.arange(
        min(-2, top - 8), top + 1, dtype=float)))
    row, col = delta_split(f.diffs[:xi.k_max], pi)
    return xi.apply(row), xi.apply(col), pi, shift


def weak11_experiment(f: Martingale, xi: CoeffMatrix,
                      lambda_exps: range | list[int]) -> dict:
    """Measured weak-(1,1) ratios for the row/column decomposition."""
    if xi.row_bound > 1.0 + 1e-9:
        raise ContractViolation("weak11 requires sup_k sum_m |xi_km|^2 <= 1")
    a_fam, b_fam, _, _ = thmA1_decompose(f, xi)
    denom = max(f.sup_l1, 1e-300)
    row = row_square(a_fam)
    col = col_square(b_fam)
    lams = 2.0 ** np.asarray(lambda_exps, dtype=float)
    return {
        "row_ratio": float(np.max(lams * tail_trace(row, lams, True))) / denom,
        "col_ratio": float(np.max(lams * tail_trace(col, lams, True))) / denom,
        "row_weak_l1": weak_l1(row, hermitian=True) / denom,
        "col_weak_l1": weak_l1(col, hermitian=True) / denom,
    }


def ergodic_coeffs(m_max: int) -> CoeffMatrix:
    """xi[k, m] = 1_{k <= m} * k / (sqrt(m) * (m+1)), 1-based indices."""
    if m_max < 1:
        raise ContractViolation("m_max >= 1 required")
    k = np.arange(1, m_max + 1)[:, None].astype(float)
    m = np.arange(1, m_max + 1)[None, :].astype(float)
    xi = np.where(k <= m, k / (np.sqrt(m) * (m + 1.0)), 0.0)
    return CoeffMatrix(xi.astype(complex))


def ergodic_row_bound(k_max: int) -> float:
    """sup_{k <= k_max} sum_{m=k}^{k_max} k^2/(m (m+1)^2) by direct
    summation."""
    m = np.arange(1, k_max + 1).astype(float)
    w = 1.0 / (m * (m + 1.0) ** 2)
    suffix = np.cumsum(w[::-1])[::-1]
    return float((m ** 2 * suffix).max())       # k runs over m's values


def cross_experiment(f: Martingale, rho: CoeffMatrix,
                     eta: CoeffMatrix) -> dict:
    """Cross-term transform T_{mn} f = sum_k rho[k,m] eta[k,n] df_k.

    Measures ||sum T_{mn} f (x) e_{m,n}||_4 against the flattened row/column
    square-function norms (the flattening index is (m, n)).
    """
    for c in (rho, eta):
        if np.abs(c.row_sums() - 1.0).max() > 1e-10:
            raise ContractViolation("cross_experiment requires unit rows")
    kmax = min(rho.k_max, eta.k_max, len(f.diffs))
    flat = np.einsum("km,kn->kmn", rho.entries[:kmax], eta.entries[:kmax])
    flat = flat.reshape(kmax, -1)
    fam = transform_family(f, CoeffMatrix(flat))
    # ||B||_4 with B = sum T_mn (x) e_{m,n}: in every block, assemble
    # (B*B)[n,n'] = sum_m T_mn* T_mn' and take tr((B*B)^2).
    M_m, M_n = rho.m_max, eta.m_max
    alg = f.algebra
    t = fam.blocks.reshape(M_m, M_n, alg.nblocks, alg.d, alg.d)
    big = np.einsum("mnkab,mqkac->knbqc", t.conj(), t).reshape(
        alg.nblocks, M_n * alg.d, M_n * alg.d)
    lhs = float(alg.weights @ np.einsum("kij,kji->k", big, big).real) ** 0.25
    row = schatten_norm(row_square(fam), 4, hermitian=True)
    col = schatten_norm(col_square(fam), 4, hermitian=True)
    return {
        "lhs": lhs,
        "row": row,
        "col": col,
        "ratio": lhs / max(row + col, 1e-300),
    }
