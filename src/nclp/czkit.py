"""Semicommutative Calderon-Zygmund decomposition on the grid algebra,
dilated bad-set projections, off-diagonal layers and the compression split
used for the singular-integral transform bound."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuculescu import (CuculescuSequence, PiFamily, cuculescu, ladder_top,
                        lam_axes, meet_ladder, q_lambda)
from .errors import ContractViolation
from .filtration import GridFiltration
from .martingale import Martingale
from .opcore import (Op, _adjoint, _op, block_matmul as mm, eigvalsh,
                     hermitian_part, l2_norm, null_projection, schatten_norm)


@dataclass
class CZParts:
    """The four parts at every threshold of ``seq.lam``; each Op carries
    lam's shape and then the martingale's batch axes in front of its own
    axes, and ``m_lambda`` and ``b_d_l1`` have those two in that order."""

    g_d: Op
    g_off: Op
    b_d: Op
    b_off: Op
    b_d_l1: np.ndarray           # ||p_k (f - f_k) p_k||_1, levels last
    ps: tuple[Op, ...]           # p_k = q_{k-1} - q_k in M_k's coordinates
    m_lambda: np.ndarray | int
    seq: CuculescuSequence       # the recursion the parts are split along

    @property
    def martingale(self) -> Martingale:
        return self.seq.martingale

    @property
    def filtration(self) -> GridFiltration:
        return self.martingale.filtration


def m_lambda_of(seq: CuculescuSequence):
    """Largest level with q = 1, per threshold; -1 if no level qualifies at
    finite depth."""
    dev = np.stack([np.abs(q.blocks - q.algebra.unit().blocks).max(
        axis=(-3, -2, -1)) for q in seq.restricted], axis=-1)
    return np.where(dev <= 1e-10, seq.martingale.levels, -1).max(axis=-1)


def cz_decompose(f: Martingale, lam) -> CZParts:
    """f = g_d + g_off + b_d + b_off through the recursion projections, at
    a threshold or at each entry of a 1-D threshold vector, for f or each
    entry of a batched f.

    g_d   = q f q + sum_k p_k f_k p_k
    g_off = sum_{i != j} p_i f_{i v j} p_j + q f q^perp + q^perp f q
    b_d   = sum_k p_k (f - f_k) p_k
    b_off = sum_{i != j} p_i (f - f_{i v j}) p_j
    """
    if not isinstance(f.filtration, GridFiltration):
        raise ContractViolation("cz_decompose lives on the grid algebra")
    seq = cuculescu(f, lam)
    filt, alg = f.filtration, f.algebra
    q, top = q_lambda(seq).blocks, f.top.blocks
    # the pair sums telescope: u_j = sum_{i<j} p_i = 1 - q_{j-1} and
    # f_{i v j} = f_j for i < j, so sum_{i != j} p_i X_{i v j} p_j is
    # sum_j u_j X_j p_j + p_j X_j u_j: one product per level
    # f, f_j, u_j and p_j are Hermitian, so p_j X u_j = (u_j X p_j)*: with
    # A = sum_j u_j f_j p_j and B = sum_j u_j f p_j the good pair sum is
    # A + A* and the bad one (B - A) + (B - A)*.  p_j, u_j and f_j lie in
    # M_j, where their products are formed; those with f are full size
    A, B, g_d, b_d = (np.zeros(q.shape, dtype=complex) for _ in range(4))
    ps, b_d_l1 = [], []
    for k, qk in enumerate(seq.restricted):
        one = qk.algebra.unit()
        qp = filt.refine(seq.restricted[k - 1] if k else one, k)
        p, u = qp - qk, one - qp
        ps.append(p)
        fp = f.restricted[k] @ p
        P, U, UFP, PFP = (filt.extend(x, k).blocks
                          for x in (p, u, u @ fp, p @ fp))
        fP = mm(top, P)
        A += UFP
        B += mm(U, fP)
        g_d += PFP
        bad = mm(P, fP) - PFP
        b_d += bad
        # p_k (f - f_k) p_k is Hermitian: its singular values are the
        # moduli of its eigenvalues
        b_d_l1.append(schatten_norm(_op(bad, alg), 1, hermitian=True))
    # q f q^perp + q^perp f q = q f + (q f)* - 2 q f q holds the q f p_j and
    # p_i f q cross terms, so the four parts reassemble f
    qf = mm(q, top)
    qfq = mm(qf, q)
    g_off = qf + _adjoint(qf) - 2.0 * qfq + A + _adjoint(A)
    return CZParts(*(_op(x, alg) for x in (
        qfq + g_d, g_off, b_d, B - A + _adjoint(B - A))),
        np.stack(b_d_l1, axis=-1), tuple(ps), m_lambda_of(seq), seq)


def cz_report(parts: CZParts) -> dict:
    """Reconstruction residual and the diagonal-part bounds, each shaped
    (*lam.shape, *martingale.batch) (the b_d bound does not depend on
    lambda and has the batch shape); the b_d sum adds the per-level trace
    norms that ``cz_decompose`` measured."""
    f = parts.martingale
    l1, lam = schatten_norm(f.top, 1), lam_axes(parts.seq.lam, f)
    recon = (parts.g_d + parts.g_off + parts.b_d + parts.b_off).blocks
    return {
        "reconstruction_residual": np.abs(recon - f.top.blocks).max(
            axis=(-3, -2, -1)),
        "g_d_l2sq": l2_norm(parts.g_d) ** 2,
        "g_d_bound": (2.0 ** parts.filtration.n) * lam * l1,
        "b_d_l1_sum": parts.b_d_l1.sum(axis=-1),
        "b_d_bound": 2.0 * l1,
        "m_lambda": parts.m_lambda,
    }


# ---------------------------------------------------------------------------
# dilated bad-set projections
# ---------------------------------------------------------------------------

def zeta_fs(filt: GridFiltration, qs) -> Op:
    """zeta_{f,s} = meet_k ( 1 - join_Q (1 - xi_Q) 1_{9Q} ) from the supplied
    level projections q_k = sum_Q xi_Q 1_Q, ``qs[k]`` in M_k's coordinates
    (one block xi_Q per level-k cube, after any leading batch axes).

    On each cell the meet of the projections xi_Q over the 9Q that contain
    it is the null space of S = sum (1 - xi_Q), which each cell gathers one
    level and one dilation offset at a time (``dilation_cubes``)."""
    S = np.zeros(qs[0].batch + (filt.algebra.nblocks, filt.d, filt.d),
                 dtype=np.result_type(float, *(q.blocks.dtype for q in qs)))
    for k, q in enumerate(qs):
        comp = np.eye(filt.d) - q.blocks
        comp[np.abs(comp).max(axis=(-2, -1)) <= 1e-14] = 0.0
        for cubes in filt.dilation_cubes(k, 9):
            S += comp[..., cubes, :, :]
    return null_projection(_op(S, filt.algebra))


@dataclass
class ZetaData:
    zeta: Op                     # batched over lambda and the batch axes
    parts: CZParts


def zeta(parts: CZParts) -> ZetaData:
    """Bad-set excision at every threshold of ``parts``: zeta(lambda) is
    zeta_{f,0} of the Cuculescu projections.  As 1 - q_k = sum_{j<=k} p_j and
    9Q lies in each ancestor's 9-fold dilation, it is the meet of the
    complements of the supports of psi_k (the p_j, j <= k, over their 9Q)."""
    return ZetaData(zeta_fs(parts.filtration, parts.seq.restricted), parts)


def zeta_report(zd: ZetaData) -> dict:
    """The excised mass against its 9^n bound, per threshold and entry."""
    f, n = zd.parts.martingale, zd.parts.filtration.n
    lost = (f.algebra.unit() - zd.zeta).trace().real
    bound = 9.0 ** n * schatten_norm(f.top, 1)
    return {"excised_mass_ratio": lam_axes(zd.parts.seq.lam, f) * lost
            / np.maximum(bound, 1e-300)}


def zeta_cube_inequalities(zd: ZetaData) -> dict:
    """Property ii): on each 9Q0, zeta <= (1 - xi_{Q0hat} + xi_{Q0}) and
    zeta <= xi_{Q0}, as blockwise operator inequalities, where xi_Q is the
    block of q_k on the level-k cube Q.

    Returns the most negative eigenvalue seen for each difference, per
    threshold and entry (>= -1e-8 means the inequality holds).
    """
    filt, zb = zd.parts.filtration, zd.zeta.blocks
    qs = zd.parts.seq.restricted
    low = np.inf
    for k in zd.parts.martingale.levels[1:]:
        # the two differences before zeta, per level-k cube Q; xi_{Qhat} is
        # q_{k-1}'s block on the father Qhat, refined onto Q
        xi_q, xi_hat = qs[k].blocks, filt.refine(qs[k - 1], k).blocks
        cube_part = np.stack([np.eye(filt.d) - xi_hat + xi_q, xi_q])
        # one cell-sized stack per offset: each cell against the cube whose
        # 9Q holds it at that offset
        for cubes in filt.dilation_cubes(k, 9):
            h = cube_part[..., cubes, :, :] - zb
            w = eigvalsh(hermitian_part(h))
            low = np.minimum(low, w.min(axis=(-2, -1)))
    return {"strong_min_eig": low[0], "weak_min_eig": low[1]}


# ---------------------------------------------------------------------------
# off-diagonal layers
# ---------------------------------------------------------------------------

def g_off_layers(parts: CZParts) -> dict:
    """g_off = sum_s g_(s) with g_(s) = sum_k p_k df_{k+s} q_{k+s-1}
    + q_{k+s-1} df_{k+s} p_k, the k-sum over levels above m_lambda.

    ``layers`` is batched over lambda, the martingale's batch axes and
    s = 1, 2, ....  ``terms[j - 1]`` holds the terms of level j = k + s in
    M_j, where p_k, df_j and q_{j-1} lie, batched over lambda, the batch
    axes and k = 0..j-1; those with k <= m_lambda are exact zeros."""
    f, filt, g = parts.martingale, parts.filtration, parts.g_off.blocks
    masked = np.asarray(f.levels) <= np.asarray(parts.m_lambda)[..., None]
    layers = np.zeros(np.insert(g.shape, -3, len(f.levels) - 1), complex)
    terms = []
    for j in f.levels[1:]:
        p = np.stack([filt.refine(pk, j).blocks for pk in parts.ps[:j]],
                     axis=-4)
        df = (f.restricted[j] - filt.refine(f.restricted[j - 1], j)).blocks
        q = filt.refine(parts.seq.restricted[j - 1], j).blocks
        # p_k, df and q are Hermitian, so q df p_k = (p_k df q)*
        x = mm(mm(p, df[..., None, :, :, :]), q[..., None, :, :, :])
        x += _adjoint(x)
        x[masked[..., :j]] = 0.0
        terms.append(_op(x, filt.level_algebra(j)))
        # layer s = j - k receives its terms in order, k ascending; a
        # masked zero leaves a sum unchanged
        layers[..., :j, :, :, :] += filt.extend(terms[-1], j).blocks[
            ..., ::-1, :, :, :]
    return {"layers": _op(layers, f.algebra), "terms": tuple(terms)}


def g_off_layer_report(parts: CZParts, layers: dict) -> dict:
    """Sum, orthogonality and support residuals of the layers and their
    largest L2 ratio, per threshold and entry; each term is read in its
    level's coordinates."""
    f, g, filt = parts.martingale, layers["layers"], parts.filtration
    scale = np.maximum(lam_axes(parts.seq.lam, f) * schatten_norm(f.top, 1),
                       1e-300)
    nsq = l2_norm(g) ** 2
    termsum, support = np.zeros(nsq.shape), 0.0
    for j, t in enumerate(layers["terms"], start=1):
        # layer s = j - k, in order, k ascending
        termsum[..., :j] += (l2_norm(t) ** 2)[..., ::-1]
        for k in range(j):
            rest = np.eye(f.algebra.d) - filt.refine(parts.ps[k], j).blocks
            x = mm(mm(rest, t.blocks[..., k, :, :, :]), rest)
            support = np.maximum(support, np.abs(x).max(axis=(-3, -2, -1)))
    resid = np.abs(g.blocks.sum(axis=-4) - parts.g_off.blocks)
    return {
        "sum_residual": resid.max(axis=(-3, -2, -1)),
        "sup_layer_ratio": (nsq / scale[..., None]).max(axis=-1,
                                                        initial=0.0),
        "layer_orthogonality_residual": np.abs(nsq - termsum).max(
            axis=-1, initial=0.0),
        "support_residual": support,
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
    lams = 2.0 ** np.arange(l_min, ladder_top(f, l_max) + 1, dtype=float)
    pi = meet_ladder(zeta(cz_decompose(f, lams)).zeta, l_min)
    g, psi, one = tf_family, pi.w[0], f.algebra.unit()
    # the blocks above psi telescope: sum_{l_min < j <= i} pi_j = w_i - psi,
    # so the lower triangle is sum_i pi_i g (w_i - psi) and the strict upper
    # one sum_j (w_{j-1} - psi) g pi_j
    above, w = pi.blocks[1:, None], pi.w[:, None] - psi
    a_part = (one - psi) @ g @ psi + (above @ g @ w[1:]).sum()
    b_part = psi @ g @ (one - psi) + (w[:-1] @ g @ above).sum()
    return B1Split(psi @ g @ psi, a_part, b_part, pi)
