"""Semicommutative Calderon-Zygmund decomposition on the grid algebra,
dilated bad-set projections, off-diagonal layers and the compression split
used for the singular-integral transform bound."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuculescu import PiFamily, cuculescu, meet_ladder, q_lambda
from .errors import ContractViolation
from .filtration import GridFiltration
from .martingale import Martingale
from .opcore import (Interval, Op, is_projection, l2_norm, op_norm, proj_join,
                     proj_meet, schatten_norm, spectral_projection)


@dataclass
class CZParts:
    g_d: Op
    g_off: Op
    b_d: Op
    b_off: Op
    b_d_terms: Op                # p_k (f - f_k) p_k, batched over levels
    qs: Op                       # Cuculescu projections, batched likewise
    ps: Op                       # p_k = q_{k-1} - q_k
    q: Op                        # final meet
    m_lambda: int
    lam: float
    martingale: Martingale

    @property
    def filtration(self) -> GridFiltration:
        return self.martingale.filtration


def m_lambda_of(qs: Op, levels: list[int]) -> int:
    """Largest level with q = 1; -1 if no level qualifies at finite depth."""
    dev = np.abs(qs.blocks - qs.algebra.unit().blocks).max(axis=(1, 2, 3))
    return max((lev for lev, d in zip(levels, dev) if d <= 1e-10), default=-1)


def _adjoint(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def cz_decompose(f: Martingale, lam):
    """f = g_d + g_off + b_d + b_off through the recursion projections, one
    CZParts per entry of a 1-D threshold vector (one for a scalar).

    g_d   = q f q + sum_k p_k f_k p_k
    g_off = sum_{i != j} p_i f_{i v j} p_j + q f q^perp + q^perp f q
    b_d   = sum_k p_k (f - f_k) p_k
    b_off = sum_{i != j} p_i (f - f_{i v j}) p_j
    """
    if not isinstance(f.filtration, GridFiltration):
        raise ContractViolation("cz_decompose lives on the grid algebra")
    seqs = cuculescu(f, np.atleast_1d(lam))
    alg = f.algebra
    one = np.eye(alg.d)
    Q = np.stack([s.qs.blocks for s in seqs])
    Qprev = np.concatenate([np.broadcast_to(one, Q[:, :1].shape), Q[:, :-1]],
                           axis=1)
    P, F = Qprev - Q, f.seq.blocks
    q, top = Q[:, -1], F[-1]
    # the pair sums telescope: u_j = sum_{i<j} p_i = 1 - q_{j-1} and
    # f_{i v j} = f_j for i < j, so sum_{i != j} p_i X_{i v j} p_j is
    # sum_j u_j X_j p_j + p_j X_j u_j: one product per level
    u = one - Qprev
    # f, f_j, u_j and p_j are Hermitian, so p_j X u_j = (u_j X p_j)*: with
    # A = sum_j u_j f_j p_j and B = sum_j u_j f p_j the good pair sum is
    # A + A* and the bad one (B - A) + (B - A)*, and
    # q f (1 - q) + (1 - q) f q = q f + (q f)* - 2 q f q
    FP, fP, qf = F @ P, top @ P, q @ top
    A, B = (u @ FP).sum(axis=1), (u @ fP).sum(axis=1)
    PFP, qfq = P @ FP, qf @ q
    g_d = qfq + PFP.sum(axis=1)
    g_off = qf + _adjoint(qf) - 2.0 * qfq + A + _adjoint(A)
    b_off = B - A + _adjoint(B - A)
    bad = Op(P @ fP - PFP, alg)
    g_d, g_off, b_d, b_off, P = (Op(x, alg) for x in (
        g_d, g_off, bad.blocks.sum(axis=1), b_off, P))
    parts = [CZParts(g_d[i], g_off[i], b_d[i], b_off[i], bad[i], s.qs, P[i],
                     q_lambda(s), m_lambda_of(s.qs, f.levels), s.lam, f)
             for i, s in enumerate(seqs)]
    # the q f p_j and p_i f q cross terms sit in q f q^perp + q^perp f q, so
    # the four parts reassemble f; cz_report measures the residual
    return parts if np.ndim(lam) else parts[0]


def cz_report(parts):
    """Reconstruction residual and the diagonal-part bounds: one report per
    CZParts of a list (all of one martingale, with one stacked SVD over
    every threshold and level), or one for a single CZParts."""
    batch = [parts] if isinstance(parts, CZParts) else list(parts)
    f = batch[0].martingale
    if any(p.martingale is not f for p in batch):
        raise ContractViolation("cz_report needs one martingale")
    n = batch[0].filtration.n
    l1 = schatten_norm(f.top, 1)
    g_d, g_off, b_d, b_off, terms = (
        Op(np.stack([getattr(p, name).blocks for p in batch]), f.algebra)
        for name in ("g_d", "g_off", "b_d", "b_off", "b_d_terms"))
    recon = np.abs((g_d + g_off + b_d + b_off).blocks - f.top.blocks)
    recon = recon.max(axis=(-3, -2, -1))
    g_d_l2sq = l2_norm(g_d) ** 2
    b_d_l1_sum = schatten_norm(terms, 1).sum(axis=-1)
    reports = [{
        "reconstruction_residual": float(recon[i]),
        "g_d_l2sq": float(g_d_l2sq[i]),
        "g_d_bound": (2.0 ** n) * p.lam * l1,
        "b_d_l1_sum": float(b_d_l1_sum[i]),
        "b_d_bound": 2.0 * l1,
        "m_lambda": p.m_lambda,
    } for i, p in enumerate(batch)]
    return reports[0] if isinstance(parts, CZParts) else reports


# ---------------------------------------------------------------------------
# dilated bad-set projections
# ---------------------------------------------------------------------------

@dataclass
class ZetaData:
    lam: float
    psi: Op                      # psi_k, batched over levels
    zeta_k: Op                   # 1 - supp psi_k
    zeta: Op
    xi: dict                     # (level, cube corner) -> d x d projection block
    parts: CZParts


def zeta(f: Martingale, lam: float, parts: CZParts | None = None) -> ZetaData:
    """Bad-set excision: psi_k sums the lost cube blocks smeared over the
    9-fold dilations; zeta(lambda) is the meet of their complements."""
    if parts is None:
        parts = cz_decompose(f, lam)
    filt = parts.filtration
    alg = f.algebra
    d = alg.d
    m_lam = parts.m_lambda
    # xi_Q is the block of q_k on the first cell of the level-k cube Q
    xi = {(k, c): b for pos, k in enumerate(f.levels)
          for c, b in zip(np.ndindex(*(2 ** k,) * filt.n),
                          parts.qs.blocks[pos, filt.first_cells(k)])}
    # the lost blocks q_{k-1} - q_k = p_k of each level, spread over the 9Q
    lost = np.zeros((len(f.levels), alg.nblocks, d * d), dtype=complex)
    for pos, k in enumerate(f.levels):
        if k > m_lam:
            diff = parts.ps.blocks[pos, filt.first_cells(k)]
            diff[np.abs(diff).max(axis=(1, 2)) <= 1e-14] = 0.0
            lost[pos] = filt.dilation_masks(k, 9).T @ diff.reshape(
                len(diff), -1)
    psi = Op(np.cumsum(lost, axis=0).reshape(lost.shape[:2] + (d, d)), alg)
    zeta_k = alg.unit() - spectral_projection(
        psi.hermitize(), Interval(1e-9, None, closed_lo=False))
    return ZetaData(float(lam), psi, zeta_k, proj_meet(zeta_k), xi, parts)


def zeta_report(zd: ZetaData) -> dict:
    f = zd.parts.martingale
    filt = zd.parts.filtration
    n = filt.n
    one = f.algebra.unit()
    lost = float((one - zd.zeta).trace().real)
    return {
        "excised_mass_ratio": zd.lam * lost /
                              max(9.0 ** n * schatten_norm(f.top, 1), 1e-300),
        "is_projection": is_projection(zd.zeta, tol=1e-8),
    }


def zeta_cube_inequalities(zd: ZetaData) -> dict:
    """Property ii): on each 9Q0, zeta <= (1 - xi_{Q0hat} + xi_{Q0}) and
    zeta <= xi_{Q0}, as blockwise operator inequalities.

    Returns the most negative eigenvalue seen for each difference (>= -1e-8
    means the inequality holds).
    """
    filt, qs = zd.parts.filtration, zd.parts.qs
    strong, weak = [], []
    for pos, k in enumerate(zd.parts.martingale.levels[1:], start=1):
        # one (cube, cell) pair per cell of each 9Q; the father of the cube
        # at corner c is the level-(k-1) cube at corner c // 2
        cube, cell = np.nonzero(filt.dilation_masks(k, 9))
        corner = np.unravel_index(cube, (2 ** k,) * filt.n)
        father = np.ravel_multi_index(tuple(c // 2 for c in corner),
                                      (2 ** (k - 1),) * filt.n)
        xi_q = qs[pos].blocks[filt.first_cells(k)[cube]]
        xi_hat = qs[pos - 1].blocks[filt.first_cells(k - 1)[father]]
        zb = zd.zeta.blocks[cell]
        strong.append(np.eye(filt.d) - xi_hat + xi_q - zb)
        weak.append(xi_q - zb)
    h = np.stack([np.concatenate(strong), np.concatenate(weak)])
    w = np.linalg.eigvalsh(0.5 * (h + h.conj().swapaxes(-1, -2)))
    return {"strong_min_eig": float(w[0].min()),
            "weak_min_eig": float(w[1].min())}


# ---------------------------------------------------------------------------
# off-diagonal layers
# ---------------------------------------------------------------------------

def g_off_layers(parts: CZParts) -> dict:
    """g_off = sum_s g_(s) with g_(s) = sum_k p_k df_{k+s} q_{k+s-1}
    + q_{k+s-1} df_{k+s} p_k, the k-sum over levels above m_lambda.

    ``layers`` is batched over s = 1, 2, ...; ``terms`` over every (s, k)
    pair, in the order of the arrays ``s`` and ``k`` (positions)."""
    f = parts.martingale
    npos = len(f.levels)
    lo = sum(lev <= parts.m_lambda for lev in f.levels)
    s, k = np.array([(s, k) for s in range(1, npos)
                     for k in range(lo, npos - s)], dtype=int).reshape(-1, 2).T
    p, df, qprev = parts.ps[k], f.diffs[k + s], parts.qs[k + s - 1]
    terms = p @ df @ qprev + qprev @ df @ p
    layers = np.zeros((npos - 1,) + f.seq.blocks.shape[1:], dtype=complex)
    np.add.at(layers, s - 1, terms.blocks)     # in order: k ascending per s
    return {"layers": Op(layers, f.algebra), "terms": terms, "s": s, "k": k}


def g_off_layer_report(parts: CZParts, layers: dict) -> dict:
    f = parts.martingale
    g, terms = layers["layers"], layers["terms"]
    l1 = schatten_norm(f.top, 1)
    nsq = l2_norm(g) ** 2
    termsum = np.zeros(len(g))
    np.add.at(termsum, layers["s"] - 1, l2_norm(terms) ** 2)
    rest = f.algebra.unit() - parts.ps[layers["k"]]
    return {
        "sum_residual": (g.sum() - parts.g_off).max_abs(),
        "sup_layer_ratio": float((nsq / max(parts.lam * l1, 1e-300)).max(
            initial=0.0)),
        "layer_orthogonality_residual": float(np.abs(nsq - termsum).max(
            initial=0.0)),
        "support_residual": (rest @ terms @ rest).max_abs(),
    }


# ---------------------------------------------------------------------------
# compression split of a transform family
# ---------------------------------------------------------------------------

@dataclass
class B1Split:
    center: Op                   # psi T f psi, batched like the family
    a_part: Op
    b_part: Op
    pi: PiFamily                 # blocks[0] = w[0] is the psi residual


def thmB1_decompose(tf_family: Op, f: Martingale, l_range: tuple[int, int]):
    """Split each component of a transform family against the zeta meets.

    pi_k = meet_{s>=k} zeta(2^s) - meet_{s>=k-1} zeta(2^s); psi is the
    residual meet at the bottom of the ell-range.  Components split as
    T = psi T psi + A + B with A carrying (1-psi)Tpsi plus the lower
    triangle and B the rest.
    """
    l_min, l_max = l_range
    sup = op_norm(f.top)
    if 2.0 ** l_max <= sup:
        raise ContractViolation(f"l_max too small: 2^{l_max} <= {sup:.6g}")
    lams = 2.0 ** np.arange(l_min, l_max + 1, dtype=float)
    pi = meet_ladder(Op(np.stack([zeta(f, parts.lam, parts).zeta.blocks
                                  for parts in cz_decompose(f, lams)]),
                        f.algebra), l_min)
    g, psi, one = tf_family, pi.w[0], f.algebra.unit()
    # the blocks above psi telescope: sum_{l_min < j <= i} pi_j = w_i - psi,
    # so the lower triangle is sum_i pi_i g (w_i - psi) and the strict upper
    # one sum_j (w_{j-1} - psi) g pi_j
    above, w = pi.blocks[1:, None], pi.w[:, None] - psi
    a_part = (one - psi) @ g @ psi + (above @ g @ w[1:]).sum()
    b_part = psi @ g @ (one - psi) + (w[:-1] @ g @ above).sum()
    return B1Split(psi @ g @ psi, a_part, b_part, pi)
