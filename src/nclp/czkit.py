"""Semicommutative Calderon-Zygmund decomposition on the grid algebra,
dilated bad-set projections, off-diagonal layers and the compression split
used for the singular-integral transform bound."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuculescu import cuculescu, q_lambda
from .errors import ContractViolation
from .filtration import GridFiltration
from .martingale import Martingale, OperatorFamily
from .opcore import (Interval, Op, is_projection, l2_norm, op_norm, proj_join,
                     proj_meet, schatten_norm, spectral_projection)


@dataclass
class CZParts:
    g_d: Op
    g_off: Op
    b_d: Op
    b_off: Op
    b_d_terms: list[Op]          # p_k (f - f_k) p_k per level
    qs: list[Op]                 # Cuculescu projections per level
    ps: list[Op]                 # p_k = q_{k-1} - q_k
    q: Op                        # final meet
    m_lambda: int
    lam: float
    martingale: Martingale

    @property
    def filtration(self) -> GridFiltration:
        return self.martingale.filtration


def m_lambda_of(qs: list[Op], levels: list[int], alg) -> int:
    """Largest level with q = 1; -1 if no level qualifies at finite depth."""
    one = alg.unit().blocks
    return max((lev for lev, q in zip(levels, qs)
                if np.abs(q.blocks - one).max() <= 1e-10), default=-1)


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
    Q = np.stack([[q.blocks for q in s.qs] for s in seqs])
    Qprev = np.concatenate([np.broadcast_to(one, Q[:, :1].shape), Q[:, :-1]],
                           axis=1)
    P, F = Qprev - Q, np.stack([fn.blocks for fn in f.seq])
    q, top = Q[:, -1], F[-1]
    # the pair sums telescope: u_j = sum_{i<j} p_i = 1 - q_{j-1} and
    # f_{i v j} = f_j for i < j, so sum_{i != j} p_i X_{i v j} p_j is
    # sum_j u_j X_j p_j + p_j X_j u_j: one product per level
    u = one - Qprev
    good_off = (u @ F @ P + P @ F @ u).sum(axis=1)
    b_off = (u @ (top - F) @ P + P @ (top - F) @ u).sum(axis=1)
    g_d = q @ top @ q + (P @ F @ P).sum(axis=1)
    g_off = q @ top @ (one - q) + (one - q) @ top @ q + good_off
    bad = P @ (top - F) @ P
    parts = [CZParts(Op(gd, alg), Op(go, alg), Op(bd.sum(0), alg), Op(bo, alg),
                     [Op(t, alg) for t in bd], s.qs, [Op(p, alg) for p in ps],
                     q_lambda(s), m_lambda_of(s.qs, f.levels, alg), s.lam, f)
             for gd, go, bd, bo, ps, s in zip(g_d, g_off, bad, b_off, P, seqs)]
    # the q f p_j and p_i f q cross terms sit in q f q^perp + q^perp f q, so
    # the four parts reassemble f; cz_report measures the residual
    return parts if np.ndim(lam) else parts[0]


def cz_report(parts: CZParts) -> dict:
    f = parts.martingale
    n = parts.filtration.n
    lam = parts.lam
    l1 = schatten_norm(f.top, 1)
    # ||t||_1 of every b_d term from one stacked svd
    sv = np.linalg.svd(np.stack([t.blocks for t in parts.b_d_terms]),
                       compute_uv=False)
    recon = parts.g_d + parts.g_off + parts.b_d + parts.b_off - f.top
    return {
        "reconstruction_residual": recon.max_abs(),
        "g_d_l2sq": l2_norm(parts.g_d) ** 2,
        "g_d_bound": (2.0 ** n) * lam * l1,
        "b_d_l1_sum": float((sv.sum(axis=2) @ f.algebra.weights).sum()),
        "b_d_bound": 2.0 * l1,
        "m_lambda": parts.m_lambda,
    }


# ---------------------------------------------------------------------------
# dilated bad-set projections
# ---------------------------------------------------------------------------

@dataclass
class ZetaData:
    lam: float
    psi: list[Op]                # psi_k per level
    zeta_k: list[Op]             # 1 - supp psi_k
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
                          parts.qs[pos].blocks[filt.first_cells(k)])}
    psi_list = []
    zeta_k_list = []
    running = np.zeros((alg.nblocks, d * d), dtype=complex)
    for pos, k in enumerate(f.levels):
        if k > m_lam:
            first = filt.first_cells(k)
            qprev = parts.qs[pos - 1] if pos > 0 else alg.unit()
            diff = qprev.blocks[first] - parts.qs[pos].blocks[first]
            diff[np.abs(diff).max(axis=(1, 2)) <= 1e-14] = 0.0
            running = running + filt.dilation_masks(k, 9).T @ diff.reshape(
                len(first), -1)
        psi = Op(running.reshape(-1, d, d), alg)
        supp = spectral_projection(psi.hermitize(), Interval(1e-9, None,
                                                             closed_lo=False))
        psi_list.append(psi)
        zeta_k_list.append(alg.unit() - supp)
    z = proj_meet(zeta_k_list)
    return ZetaData(float(lam), psi_list, zeta_k_list, z, xi, parts)


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
    + q_{k+s-1} df_{k+s} p_k, the k-sum over levels above m_lambda."""
    f = parts.martingale
    levels = f.levels
    npos = len(levels)
    layers = {}
    terms = {}
    for s in range(1, npos):
        acc = f.algebra.zero()
        row_terms = []
        for ki in range(npos - s):
            if levels[ki] <= parts.m_lambda:
                continue
            pk = parts.ps[ki]
            df = f.diffs[ki + s]
            qprev = parts.qs[ki + s - 1]
            t = pk @ df @ qprev + qprev @ df @ pk
            row_terms.append((ki, t))
            acc = acc + t
        layers[s] = acc
        terms[s] = row_terms
    return {"layers": layers, "terms": terms}


def g_off_layer_report(parts: CZParts, layers: dict) -> dict:
    f = parts.martingale
    lam = parts.lam
    l1 = schatten_norm(f.top, 1)
    total = f.algebra.zero()
    sup_ratio = 0.0
    orth_resid = 0.0
    supp_resid = 0.0
    one = f.algebra.unit()
    for s, g_s in layers["layers"].items():
        total = total + g_s
        nsq = l2_norm(g_s) ** 2
        sup_ratio = max(sup_ratio, nsq / max(lam * l1, 1e-300))
        termsum = sum(l2_norm(t) ** 2 for _, t in layers["terms"][s])
        orth_resid = max(orth_resid, abs(nsq - termsum))
        for ki, t in layers["terms"][s]:
            comp = (one - parts.ps[ki]) @ t @ (one - parts.ps[ki])
            supp_resid = max(supp_resid, comp.max_abs())
    return {
        "sum_residual": (total - parts.g_off).max_abs(),
        "sup_layer_ratio": sup_ratio,
        "layer_orthogonality_residual": orth_resid,
        "support_residual": supp_resid,
    }


# ---------------------------------------------------------------------------
# compression split of a transform family
# ---------------------------------------------------------------------------

@dataclass
class B1Split:
    center: OperatorFamily       # psi T f psi
    a_part: OperatorFamily
    b_part: OperatorFamily
    pi_blocks: dict              # ordered blocks, lowest index = psi residual
    psi: Op
    l_min: int
    l_max: int

    def rho(self, i: int) -> Op:
        return sum((self.pi_blocks[j] for j in range(self.l_min + 1, i + 1)),
                   self.psi)


def thmB1_decompose(tf_family: OperatorFamily, f: Martingale,
                    l_range: tuple[int, int]):
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
    ells = range(l_min, l_max + 1)
    zs = {ell: zeta(f, parts.lam, parts).zeta for ell, parts in
          zip(ells, cz_decompose(f, 2.0 ** np.array(ells, dtype=float)))}
    w = {l_max: zs[l_max]}
    for ell in range(l_max - 1, l_min - 1, -1):
        w[ell] = proj_meet([w[ell + 1], zs[ell]])
    blocks = {l_min: w[l_min]}
    for ell in range(l_min + 1, l_max + 1):
        blocks[ell] = w[ell] - w[ell - 1]
    psi = blocks[l_min]
    one = f.algebra.unit()
    # the blocks above psi telescope: sum_{l_min < j <= i} pi_j = w_i - psi,
    # so the lower triangle is sum_i pi_i g (w_i - psi) and the strict upper
    # one sum_j (w_{j-1} - psi) g pi_j
    center, a_ops, b_ops = [], [], []
    for g in tf_family:
        center.append(psi @ g @ psi)
        a_ops.append(sum((blocks[i] @ g @ (w[i] - psi) for i in ells[1:]),
                         (one - psi) @ g @ psi))
        b_ops.append(sum(((w[i - 1] - psi) @ g @ blocks[i] for i in ells[1:]),
                         psi @ g @ (one - psi)))
    return B1Split(OperatorFamily(center), OperatorFamily(a_ops),
                   OperatorFamily(b_ops), blocks, psi, l_min, l_max)
