"""Semicommutative Calderon-Zygmund decomposition on the grid algebra,
dilated bad-set projections, off-diagonal layers and the compression split
used for the singular-integral transform bound."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuculescu import cuculescu, q_lambda
from .errors import ContractViolation
from .filtration import GridFiltration, dyadic_father
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
    m = -1
    one = alg.unit()
    for lev, q in zip(levels, qs):
        if np.abs(q.blocks - one.blocks).max() <= 1e-10:
            m = lev
    return m


def cz_decompose(f: Martingale, lam: float) -> CZParts:
    """f = g_d + g_off + b_d + b_off through the recursion projections.

    g_d   = q f q + sum_k p_k f_k p_k
    g_off = sum_{i != j} p_i f_{i v j} p_j + q f q^perp + q^perp f q
    b_d   = sum_k p_k (f - f_k) p_k
    b_off = sum_{i != j} p_i (f - f_{i v j}) p_j
    """
    filt = f.filtration
    if not isinstance(filt, GridFiltration):
        raise ContractViolation("cz_decompose lives on the grid algebra")
    if lam <= 0:
        raise ContractViolation("lambda > 0 required")
    if not f.is_positive():
        raise ContractViolation("cz_decompose requires positive f")
    seq = cuculescu(f, lam)
    qs = seq.qs
    ps = [seq.q_at(i - 1) - qs[i] for i in range(len(qs))]
    q = q_lambda(seq)
    top = f.top
    alg = f.algebra
    npos = len(qs)
    one = alg.unit()

    # every p_i X p_j at once, X = f_{i v j} (the good part) or f - f_{i v j}
    P = np.stack([p.blocks for p in ps])
    F = np.stack([fn.blocks for fn in f.seq])
    i, j = np.meshgrid(np.arange(npos), np.arange(npos), indexing="ij")
    fij = F[np.maximum(i, j)]
    good = P[i] @ fij @ P[j]
    bad = P[i] @ (top.blocks - fij) @ P[j]
    off = i != j
    b_d_terms = [Op(t, alg) for t in bad[~off]]
    g_d = q @ top @ q + Op(good[~off].sum(axis=0), alg)
    b_d = Op(bad[~off].sum(axis=0), alg)
    g_off = q @ top @ (one - q) + (one - q) @ top @ q \
        + Op(good[off].sum(axis=0), alg)
    b_off = Op(bad[off].sum(axis=0), alg)
    # q f p_j and p_i f q cross terms: q = q_top meets every p orthogonally,
    # and f - f_{i v j} with the top level present vanishes, so the displayed
    # four parts already reassemble f; see cz_report for the residual.
    return CZParts(g_d, g_off, b_d, b_off, b_d_terms, qs, ps, q,
                   m_lambda_of(qs, f.levels, alg), float(lam), f)


def cz_report(parts: CZParts) -> dict:
    f = parts.martingale
    n = parts.filtration.n
    lam = parts.lam
    l1 = schatten_norm(f.top, 1)
    recon = parts.g_d + parts.g_off + parts.b_d + parts.b_off - f.top
    return {
        "reconstruction_residual": recon.max_abs(),
        "g_d_l2sq": l2_norm(parts.g_d) ** 2,
        "g_d_bound": (2.0 ** n) * lam * l1,
        "b_d_l1_sum": sum(schatten_norm(t, 1) for t in parts.b_d_terms),
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


def cube_constant_blocks(filt: GridFiltration, q: Op, k: int) -> dict:
    """The per-cube blocks xi_Q of a level-k cube-constant projection."""
    out = {}
    for Q in filt.cubes_at_level(k):
        cells = filt.cube_cells(Q)
        out[(k, Q.corner)] = q.blocks[cells[0]]
    return out


def zeta(f: Martingale, lam: float, parts: CZParts | None = None) -> ZetaData:
    """Bad-set excision: psi_k sums the lost cube blocks smeared over the
    9-fold dilations; zeta(lambda) is the meet of their complements."""
    if parts is None:
        parts = cz_decompose(f, lam)
    filt = parts.filtration
    alg = f.algebra
    d = alg.d
    m_lam = parts.m_lambda
    xi = {}
    for pos, k in enumerate(f.levels):
        xi.update(cube_constant_blocks(filt, parts.qs[pos], k))
    psi_list = []
    zeta_k_list = []
    running = np.zeros((alg.nblocks, d, d), dtype=complex)
    for pos, k in enumerate(f.levels):
        if k > m_lam:
            qk = parts.qs[pos]
            qprev = parts.qs[pos - 1] if pos > 0 else alg.unit()
            for Q in filt.cubes_at_level(k):
                cells = filt.cube_cells(Q)
                diff = qprev.blocks[cells[0]] - qk.blocks[cells[0]]
                if np.abs(diff).max() <= 1e-14:
                    continue
                mask = filt.concentric_mask(Q, 9)
                running[mask] += diff
        psi = Op(running.copy(), alg)
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
    filt = zd.parts.filtration
    strong, weak = [], []
    for k in zd.parts.martingale.levels:
        if k == 0:
            continue
        for Q in filt.cubes_at_level(k):
            xi_q = zd.xi[(k, Q.corner)]
            xi_hat = zd.xi[(k - 1, dyadic_father(Q).corner)]
            zb = zd.zeta.blocks[filt.concentric_mask(Q, 9)]
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
        out = self.psi
        for j in range(self.l_min + 1, i + 1):
            out = out + self.pi_blocks[j]
        return out

    def w_ell(self, ell: int) -> Op:
        return self.rho(ell)


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
    zs = {}
    for ell in range(l_min, l_max + 1):
        zs[ell] = zeta(f, 2.0 ** ell).zeta
    w = {l_max: zs[l_max]}
    for ell in range(l_max - 1, l_min - 1, -1):
        w[ell] = proj_meet([w[ell + 1], zs[ell]])
    blocks = {l_min: w[l_min]}
    for ell in range(l_min + 1, l_max + 1):
        blocks[ell] = w[ell] - w[ell - 1]
    psi = blocks[l_min]
    one = f.algebra.unit()
    idx = list(range(l_min, l_max + 1))
    center, a_ops, b_ops = [], [], []
    for g in tf_family:
        c = psi @ g @ psi
        a = (one - psi) @ g @ psi
        b = psi @ g @ (one - psi)
        for i in idx[1:]:
            for j in idx[1:]:
                term = blocks[i] @ g @ blocks[j]
                if i >= j:
                    a = a + term
                else:
                    b = b + term
        center.append(c)
        a_ops.append(a)
        b_ops.append(b)
    return B1Split(OperatorFamily(center), OperatorFamily(a_ops),
                   OperatorFamily(b_ops), blocks, psi, l_min, l_max)
