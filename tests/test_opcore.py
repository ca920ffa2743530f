import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nclp.errors import ContractViolation, NumericError
from nclp.opcore import (ENDPOINT_TOL, MEET_NULL_TOL, Algebra, Op,
                         annihilation_check, block_matmul, dense_algebra,
                         eigvalsh, kept_projection, l2_inner, l2_norm,
                         mu_function, null_projection, op_norm, opnorm,
                         psd_sqrt, schatten_norm, singular_values, tail_trace,
                         weak_l1)
from oracles import (abs_op, is_projection, proj_join, proj_meet,
                     spectral_projection)

ALG = dense_algebra(4)
BLOCKY = Algebra(3, 2, np.array([1.0 / 8, 1.0 / 4, 1.0 / 8]))


def nonnegative(w):
    """The spectral cut [0, inf), its endpoint snapped by ENDPOINT_TOL."""
    return w >= -ENDPOINT_TOL


def rand_op(alg, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((alg.nblocks, alg.d, alg.d)) \
        + 1j * rng.standard_normal((alg.nblocks, alg.d, alg.d))
    a = Op(b, alg)
    return a.hermitize() if hermitian else a


def test_trace_is_normalized():
    assert ALG.unit().trace() == pytest.approx(1.0)
    assert BLOCKY.unit().trace() == pytest.approx(1.0)


def test_trace_is_tracial():
    a = rand_op(BLOCKY, 1)
    b = rand_op(BLOCKY, 2)
    assert (a @ b).trace() == pytest.approx((b @ a).trace(), abs=1e-12)


def test_nonfinite_rejected():
    bad = np.zeros((1, 4, 4), dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        Op(bad, ALG)


@pytest.mark.parametrize("value", [complex(0.0, np.inf), complex(np.nan, 0.0)])
def test_nonfinite_in_one_part_rejected(value):
    # an inf only in the imaginary part, a NaN only in the real part
    bad = np.zeros((1, 4, 4), dtype=complex)
    bad[0, 1, 2] = value
    with pytest.raises(NumericError):
        Op(bad, ALG)


def test_shape_mismatch_rejected():
    with pytest.raises(ContractViolation):
        Op(np.zeros((2, 4, 4)), ALG)


@pytest.mark.parametrize("op", ["+", "-", "@"])
def test_mixed_algebra_arithmetic_rejected(op):
    # block stacks that broadcast: unchecked, M_2 + (4 blocks of M_2) gives
    # blocks (4, 2, 2) tagged with the one-block algebra, its trace 8
    a = Op(np.eye(2)[None], dense_algebra(2))
    b = Op(np.tile(np.eye(2), (4, 1, 1)), Algebra(4, 2))
    apply = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
             "@": lambda x, y: x @ y}[op]
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ContractViolation, match="algebras"):
            apply(x, y)
    # two Algebra objects of one block shape are one algebra
    c = Op(2.0 * np.eye(2)[None], dense_algebra(2))
    assert apply(a, c).algebra is a.algebra
    assert apply(a, c).blocks.shape == (1, 2, 2)


def test_schatten_known_values():
    # [DERIVED] diag(3, -4) in M_2 with tau = tr/2: ||a||_1 = 7/2,
    # ||a||_2 = 5/sqrt(2), ||a||_inf = 4
    alg = dense_algebra(2)
    a = Op(np.diag([3.0, -4.0]).astype(complex)[None], alg)
    assert schatten_norm(a, 1) == pytest.approx(3.5)
    assert schatten_norm(a, 2) == pytest.approx(np.sqrt(12.5))
    assert op_norm(a) == pytest.approx(4.0)


def test_schatten_p_below_one_rejected():
    with pytest.raises(ContractViolation):
        schatten_norm(rand_op(ALG, 4), 0.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_l1_equals_mu_integral(seed):
    a = rand_op(BLOCKY, seed)
    assert schatten_norm(a, 1) == pytest.approx(mu_function(a).integral(),
                                                abs=1e-9, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_weak_l1_equals_sup_t_mu(seed):
    a = rand_op(BLOCKY, seed)
    assert weak_l1(a) == pytest.approx(mu_function(a).sup_t_mu(),
                                       abs=1e-9, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_holder_l2(seed):
    a = rand_op(BLOCKY, seed)
    b = rand_op(BLOCKY, seed + 1)
    assert abs((a @ b.H).trace()) <= l2_norm(a) * l2_norm(b) + 1e-10
    assert abs(l2_inner(a, b)) <= l2_norm(a) * l2_norm(b) + 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_weak_l1_dominated_by_l1(seed):
    a = rand_op(BLOCKY, seed)
    assert weak_l1(a) <= schatten_norm(a, 1) + 1e-10


def test_tail_trace_counts_strictly_above():
    alg = dense_algebra(2)
    a = Op(np.diag([1.0, 2.0]).astype(complex)[None], alg)
    assert tail_trace(a, 1.0) == pytest.approx(0.5)   # only the 2 survives
    assert tail_trace(a, 2.0) == pytest.approx(0.0)
    assert tail_trace(a, 0.5) == pytest.approx(1.0)


def test_abs_and_singular_values():
    a = rand_op(BLOCKY, 9)
    s = singular_values(a)
    assert np.all(np.diff(s[0]) <= 1e-12) or s[0].ndim == 1
    assert op_norm(abs_op(a)) == pytest.approx(op_norm(a), abs=1e-10)


def test_psd_sqrt_squares_back_and_clips_rounding_negatives():
    a = rand_op(BLOCKY, 10)
    h = a.H @ a
    r = psd_sqrt(h)
    assert (r @ r - h).max_abs() <= 1e-12 * h.max_abs()
    assert np.array_equal(r.blocks, abs_op(a).blocks)
    # an eigenvalue a rounding below zero gives a zero root, not 1e-7
    tiny = Op(np.diag([4.0, -1e-14, 1.0, 0.0])[None], ALG)
    assert np.allclose(psd_sqrt(tiny).blocks[0], np.diag([2.0, 0, 1.0, 0]),
                       rtol=0, atol=1e-15)


def _proj_from(vs, alg):
    q, _ = np.linalg.qr(vs)
    return Op((q @ q.conj().T)[None], alg)


def test_meet_join_against_subspace_oracle():
    # [DERIVED] meet/join of random subspace projections equals projection
    # onto intersection/span computed by rank arithmetic
    alg = dense_algebra(4)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    p = _proj_from(v[:, :2], alg)
    q = _proj_from(v[:, 1:], alg)
    pq = Op(np.concatenate([p.blocks, q.blocks])[:, None], alg)
    m = proj_meet(pq)
    j = proj_join(pq)
    assert is_projection(m) and is_projection(j)
    # shared column v[:,1]: intersection rank 1, span rank 3
    assert m.trace().real * 4 == pytest.approx(1.0, abs=1e-8)
    assert j.trace().real * 4 == pytest.approx(3.0, abs=1e-8)
    # meet <= each factor
    for f in (p, q):
        assert np.linalg.eigvalsh((f - m).blocks[0]).min() > -1e-10


def test_annihilation_check():
    alg = dense_algebra(2)
    p = Op(np.diag([1.0, 0.0]).astype(complex)[None], alg)
    f = Op(np.diag([0.0, 5.0]).astype(complex)[None], alg)
    assert annihilation_check(p, f)
    assert not annihilation_check(p, alg.unit())


# -- batched Ops ---------------------------------------------------------------

def _batch(alg, seed, shape=(3,), hermitian=False):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(shape + (alg.nblocks, alg.d, alg.d)) \
        + 1j * rng.standard_normal(shape + (alg.nblocks, alg.d, alg.d))
    a = Op(b, alg)
    return a.hermitize() if hermitian else a


def test_batched_indexing_iteration_and_arithmetic():
    a = _batch(BLOCKY, 30)
    b = rand_op(BLOCKY, 31)
    assert a.batch == (3,) and len(a) == 3 and b.batch == ()
    assert isinstance(a[1], Op) and a[1].batch == ()
    assert a[1:].batch == (2,)
    assert [m.blocks.tolist() for m in a] == [a.blocks[i].tolist()
                                              for i in range(3)]
    # arithmetic broadcasts an unbatched operand over the batch
    for got, m in zip(a @ b + b, a):
        assert np.array_equal(got.blocks, (m @ b + b).blocks)
    assert np.array_equal(a.sum().blocks, (a[0] + a[1] + a[2]).blocks)
    with pytest.raises(TypeError):
        len(b)
    with pytest.raises(TypeError):
        b[0]


def test_batched_nonfinite_rejected_once_per_family():
    bad = np.zeros((2, 1, 4, 4), dtype=complex)
    bad[1, 0, 2, 3] = np.nan
    with pytest.raises(NumericError):
        Op(bad, ALG)
    with pytest.raises(ContractViolation):
        Op(np.zeros((2, 4, 4)), ALG)


def test_batched_scalars_are_per_entry():
    a = _batch(BLOCKY, 32, shape=(2, 3))
    for fn in (lambda x: x.trace(), l2_norm, op_norm,
               lambda x: schatten_norm(x, 1), lambda x: schatten_norm(x, 3)):
        got = fn(a)
        assert got.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                want = fn(a[i][j])
                assert np.isscalar(want)
                assert got[i, j] == pytest.approx(want, rel=1e-14, abs=1e-300)
    assert singular_values(a).shape == (2, 3, BLOCKY.nblocks, BLOCKY.d)
    assert a.max_abs() == max(m.max_abs() for row in a for m in row)


@pytest.mark.parametrize("alg", [BLOCKY, Algebra(16, 2), Algebra(37, 1)])
@pytest.mark.parametrize("shape", [(2, 3), (7,)])
def test_batched_scalars_are_per_entry_bit_for_bit(alg, shape):
    # bit for bit: a BLAS dot over the whole stack would round an entry by
    # how many rows share it.  p = 3 only to 1e-14: numpy's vectorized
    # power rounds an array entry apart from the same scalar
    a = _batch(alg, 32, shape=shape)
    for fn, rel in ((lambda x: x.trace(), 0.0), (l2_norm, 0.0),
                    (op_norm, 0.0), (lambda x: schatten_norm(x, 1), 0.0),
                    (lambda x: schatten_norm(x, 3), 1e-14)):
        got = fn(a)
        assert got.shape == shape
        for idx in np.ndindex(shape):
            want = fn(Op(a.blocks[idx], alg))
            assert np.isscalar(want)
            assert abs(got[idx] - want) <= rel * abs(want)
    assert singular_values(a).shape == shape + (alg.nblocks, alg.d)
    assert a.max_abs() == np.abs(a.blocks).max()


def test_batched_hermitian_checks_and_projections_per_entry():
    h = _batch(BLOCKY, 33, hermitian=True)
    assert h.is_hermitian()
    # one non-Hermitian entry makes the batch non-Hermitian
    assert not Op(np.concatenate([h.blocks, _batch(BLOCKY, 34).blocks[:1]]),
                  BLOCKY).is_hermitian()
    p = spectral_projection(h, nonnegative)
    for got, m in zip(p, h):
        assert (got - spectral_projection(m, nonnegative)).max_abs() <= 1e-14
    for got, m in zip(abs_op(h), h):
        assert (got - abs_op(m)).max_abs() <= 1e-12


@pytest.mark.parametrize("alg", [ALG, BLOCKY], ids=["d4", "d2"])
def test_null_projection_checks_nothing_it_has_hermitized(alg, monkeypatch):
    # the operand is hermitized on the way in, so no is_hermitian pass runs,
    # and the projection is bit for bit the one spectral_projection (which
    # checks) gives on the hermitized operand; rank-one positive blocks
    # plus a non-Hermitian rounding-size perturbation
    v = _batch(alg, 36, shape=(5,)).blocks[..., :1]
    h = Op(v @ v.conj().swapaxes(-1, -2)
           + 1e-14 * _batch(alg, 37, shape=(5,)).blocks, alg)
    ref = spectral_projection(h.hermitize(),
                              lambda w: w <= MEET_NULL_TOL + ENDPOINT_TOL)
    calls = []
    check = Op.is_hermitian
    monkeypatch.setattr(Op, "is_hermitian", lambda self, *a: calls.append(
        self) or check(self, *a))
    got = null_projection(h)
    assert calls == []
    assert got.algebra == h.algebra
    assert np.array_equal(got.blocks, ref.blocks)
    assert np.all(is_projection(got)) and (h @ got).max_abs() <= 1e-12


def test_proj_meet_runs_over_the_first_axis():
    # a (2, 3) batch: meets of the two projections in each of 3 columns
    h = _batch(ALG, 35, shape=(2, 3), hermitian=True)
    ps = spectral_projection(h, nonnegative)
    meets = proj_meet(ps)
    assert meets.batch == (3,)
    for j in range(3):
        pair = Op(ps.blocks[:, j], ALG)
        assert (meets[j] - proj_meet(pair)).max_abs() <= 1e-14
        assert is_projection(meets[j])
    with pytest.raises(ContractViolation):
        proj_meet(ps[0][0])


def test_annihilation_check_per_entry():
    alg = dense_algebra(2)
    p = Op(np.diag([1.0, 0.0]).astype(complex)[None], alg)
    f = Op(np.stack([np.diag([0.0, 5.0]), np.eye(2)]).astype(complex)[:, None],
           alg)
    assert annihilation_check(p, f).tolist() == [True, False]


def test_l2_norm_is_the_svd_value():
    for alg in (ALG, BLOCKY):
        a = Op(np.stack([rand_op(alg, 30 + i).blocks for i in range(4)]), alg)
        s = singular_values(a)
        ref = np.sqrt(((s ** 2).sum(axis=-1) * alg.weights).sum(axis=-1))
        assert np.all(np.abs(l2_norm(a) - ref) <= 1e-12 * ref)
        assert isinstance(l2_norm(a[0]), float)
        assert abs(l2_norm(a[0]) - ref[0]) <= 1e-12 * ref[0]


def tail_trace_oracle(a, lam):
    """tau(chi_(lam, inf)(|a|)) of one unbatched Op, one threshold."""
    s = np.linalg.svd(a.blocks, compute_uv=False)
    return float(np.dot(a.algebra.weights,
                        (s > lam + ENDPOINT_TOL).sum(axis=1)))


def test_tail_trace_vector_matches_per_lambda_loop():
    # thresholds on and off the singular values, batched and unbatched
    for alg in (ALG, BLOCKY):
        a = Op(np.stack([rand_op(alg, 40 + i).blocks for i in range(3)]), alg)
        s = singular_values(a)
        lams = np.concatenate([[0.1, 1.0, 2.5, 100.0], s[0, 0, :2]])
        got = tail_trace(a, lams)
        assert got.shape == (3, lams.size)
        for i, entry in enumerate(a):
            assert isinstance(tail_trace(entry, lams[0]), float)
            ref = [tail_trace_oracle(entry, lam) for lam in lams]
            assert [tail_trace(entry, lam) for lam in lams] == ref
            assert np.array_equal(got[i], ref)
            assert np.array_equal(tail_trace(entry, lams), ref)
            assert np.array_equal(tail_trace(a, lams[1])[i], ref[1])
    with pytest.raises(ContractViolation):
        tail_trace(a, [1.0, 0.0])


@pytest.mark.parametrize("d", [1, 2, 3, 8])        # both paths: d <= 2, d > 2
@pytest.mark.parametrize("shapes", [((16,), (16,)), ((5, 1, 16), (1, 7, 16)),
                                    ((), (4, 3)), ((0,), (0,)), ((0, 2), (1,))])
@pytest.mark.parametrize("kinds", [(complex, complex), (float, complex),
                                   (float, float)])
def test_block_matmul_matches_matmul(d, shapes, kinds):
    rng = np.random.default_rng(d)

    def draw(shape, kind):
        x = rng.standard_normal(shape + (d, d))
        return x + 1j * rng.standard_normal(x.shape) if kind is complex else x

    a, b = (draw(shape, kind) for shape, kind in zip(shapes, kinds))
    want = np.matmul(a, b)
    got = block_matmul(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    # relative to |a| |b|, the scale of each entry's rounding error
    assert np.all(np.abs(got - want) <= 1e-14 * (np.abs(a) @ np.abs(b)))
    if d > 2:                           # the BLAS path is matmul itself
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shapes", [((3200,), (3200,)),
                                    ((5, 4, 10, 16), (4, 10, 16)),
                                    ((4, 10, 16), (5, 4, 10, 16))])
@pytest.mark.parametrize("kinds", [(complex, complex), (float, complex)])
def test_large_2x2_stacks_multiply_entry_by_entry_to_the_same_bits(shapes,
                                                                   kinds):
    # from 768 blocks on the 2 x 2 products run entry by entry; slices of
    # fewer blocks take the outer-product path, and the bits agree
    rng = np.random.default_rng(7)

    def draw(shape, kind):
        x = rng.standard_normal(shape + (2, 2))
        return x + 1j * rng.standard_normal(x.shape) if kind is complex else x

    a, b = (draw(shape, kind) for shape, kind in zip(shapes, kinds))
    got = block_matmul(a, b)
    want = np.matmul(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.all(np.abs(got - want) <= 1e-14 * (np.abs(a) @ np.abs(b)))
    a, b = np.broadcast_arrays(a, b)
    a, b = a.reshape(-1, 100, 2, 2), b.reshape(-1, 100, 2, 2)
    small = np.stack([block_matmul(x, y) for x, y in zip(a, b)])
    assert np.array_equal(got, small.reshape(got.shape))


def _hermitian_stack(alg, seed, shape=(4,)):
    """Hermitian blocks u diag(w) u* with eigenvalues of both signs and
    zeros: indefinite and rank-deficient."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(shape + (alg.nblocks, alg.d, alg.d)) \
        + 1j * rng.standard_normal(shape + (alg.nblocks, alg.d, alg.d))
    u, _ = np.linalg.qr(z)
    w = rng.choice([-2.5, -1.0, 0.0, 0.0, 0.7, 3.0],
                   size=shape + (alg.nblocks, alg.d))
    if alg.nblocks > 1:
        w[..., -1, :] = 0.0             # a zero block in every entry
    w[..., 0, 0] = 1.0                  # but no entry is zero
    return (Op(u * w[..., None, :], alg)
            @ Op(u.conj().swapaxes(-1, -2), alg)).hermitize()


@pytest.mark.parametrize("p", [1, 4, np.inf])
def test_hermitian_schatten_norm_matches_the_svd(p):
    for seed, alg in enumerate((dense_algebra(2), BLOCKY, ALG)):
        h = _hermitian_stack(alg, 50 + seed)
        got, want = schatten_norm(h, p, hermitian=True), schatten_norm(h, p)
        assert got.shape == want.shape == (4,)
        assert np.all(np.abs(got - want) <= 1e-14 * want)
        assert singular_values(h, hermitian=True).shape == \
            singular_values(h).shape


def test_hermitian_singular_values_read_one_triangle():
    # the caller guarantees Hermitian blocks: eigvalsh reads the lower
    # triangle, so the upper one does not enter
    alg = dense_algebra(2)
    h = Op(np.array([[[2.0, 0.0], [1.0, -3.0]]]), alg)
    full = Op(np.array([[[2.0, 1.0], [1.0, -3.0]]]), alg)
    assert np.allclose(singular_values(h, hermitian=True),
                       singular_values(full), rtol=1e-15, atol=0)
    assert not np.allclose(singular_values(h), singular_values(full))


# -- closed-form spectral kernels for blocks of side <= 2 --------------------

EPS = np.finfo(float).eps
KINDS = ["random", "diagonal", "zero", "identity", "rank-one",
         "near-degenerate"]


def _adj(x):
    return x.conj().swapaxes(-1, -2)


def _hermitian_kind(kind, d, scale, seed, n=64):
    """(n, d, d) Hermitian blocks of one kind, entries of size ``scale``."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    u = np.linalg.qr(z)[0]
    c = rng.standard_normal(n)[:, None]
    w = {"random": rng.standard_normal((n, d)),
         "diagonal": rng.standard_normal((n, d)),
         "zero": np.zeros((n, d)),
         "identity": np.repeat(c, d, axis=1),
         "rank-one": np.eye(d)[-1] * np.abs(c),
         "near-degenerate": c + 1e-10 * np.arange(d)}[kind]
    if kind in ("diagonal", "identity"):
        return scale * (w[..., None] * np.eye(d)).astype(complex)
    if kind == "random":
        return scale * 0.5 * (z + _adj(z))
    return scale * (u * w[:, None, :]) @ _adj(u)


def _lapack_projection(h, keep):
    """sum v v* over the kept eigenvectors of np.linalg.eigh."""
    w, v = np.linalg.eigh(h)
    v = np.where(keep(w)[..., None, :], v, 0.0)
    return v @ _adj(v)


def _size(h):
    """The Frobenius norm of each block."""
    return np.linalg.norm(h, axis=(-2, -1))


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", [1, 2])
def test_closed_form_eigenvalues_match_lapack(d, kind, scale):
    h = _hermitian_kind(kind, d, scale, 100 + d)
    got, want = eigvalsh(h), np.linalg.eigvalsh(h)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.all(np.abs(got - want) <= 8 * EPS * _size(h)[:, None])
    assert np.all(np.diff(got, axis=-1) >= 0)
    if kind in ("zero", "identity"):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", [1, 2])
def test_closed_form_projection_matches_lapack(d, kind, scale):
    h = _hermitian_kind(kind, d, scale, 110 + d)
    w = np.linalg.eigvalsh(h)
    mid = (0.5 * (w[:, 0] + w[:, -1]))[:, None]
    for keep in (lambda x: x <= mid, lambda x: x > mid,
                 lambda x: x < w[:, :1] - scale, lambda x: x > w[:, :1] - scale):
        p = kept_projection(h, keep)
        ref = _lapack_projection(h, keep)
        kept = keep(w).sum(axis=-1)
        # the eigenvectors of a block whose pair is split are accurate to
        # rounding over the gap, in either method
        gap = np.where(kept % d, w[:, -1] - w[:, 0], np.inf)
        tol = 1e-14 + 8 * EPS * _size(h) / gap
        assert np.all(_size(p - ref) <= tol)
        # whatever the gap, p is an exact-Hermitian projection of the kept
        # rank that commutes with h
        assert np.array_equal(p, _adj(p))
        assert np.all(_size(p @ p - p) <= 1e-15)
        assert np.allclose(np.einsum("...ii->...", p).real, kept,
                           rtol=0, atol=1e-15)
        assert np.all(_size(h @ p - p @ h) <= 8 * EPS * _size(h))


@pytest.mark.parametrize("convention", ["closed", "half-open"])
def test_closed_form_projection_at_cuculescu_endpoints(convention):
    # eigenvalues exactly at 0 and at lambda: the closed convention keeps
    # both, the half-open one drops 0
    lam = 0.75

    def keep(w):
        kept = w <= lam + ENDPOINT_TOL
        return kept & (w > ENDPOINT_TOL) if convention == "half-open" else kept

    pairs = np.array([(0.0, lam), (lam, lam), (0.0, 0.0), (lam, lam + 1.0),
                      (0.5 * lam, lam), (0.0, lam + 1.0), (lam + 1.0, lam + 2)])
    kept_ref = keep(pairs).astype(float)
    diag = (pairs[..., None] * np.eye(2)).astype(complex)
    want = kept_ref[..., None] * np.eye(2)
    assert np.array_equal(kept_projection(diag, keep), want)
    rng = np.random.default_rng(120)
    u = np.linalg.qr(rng.standard_normal((len(pairs), 2, 2))
                     + 1j * rng.standard_normal((len(pairs), 2, 2)))[0]
    h = (u * pairs[:, None, :]) @ _adj(u)
    p = kept_projection(h, keep)
    assert np.all(_size(p - _lapack_projection(h, keep)) <= 1e-14)
    assert np.all(_size(p - (u * kept_ref[:, None, :]) @ _adj(u)) <= 1e-14)


def _general_kind(kind, scale, seed, n=64):
    """(n, 2, 2) complex blocks with the named singular values."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((3, n, 2, 2)) + 1j * rng.standard_normal((3, n, 2, 2))
    u, v = np.linalg.qr(z[1])[0], np.linalg.qr(z[2])[0]
    c = np.abs(rng.standard_normal(n))[:, None] + 0.5
    s = {"random": None, "rank-one": c * [1.0, 0.0], "zero": 0 * c,
         "identity": c * [1.0, 1.0], "near-degenerate": c * [1.0, 1 - 1e-8],
         "diagonal": None}[kind]
    if kind == "random":
        return scale * z[0]
    if kind == "diagonal":
        return scale * z[0] * np.eye(2)
    return scale * (u * s[:, None, :]) @ _adj(v)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_singular_values_match_lapack(kind, scale):
    for hermitian in (False, True):
        x = _hermitian_kind(kind, 2, scale, 130) if hermitian \
            else _general_kind(kind, scale, 131)
        got = singular_values(Op(x, Algebra(len(x), 2)), hermitian=hermitian)
        want = np.linalg.svd(x, compute_uv=False, hermitian=hermitian)
        assert got.shape == want.shape
        # rounding of sigma_1, also for sigma_2: sigma_2 = |det| / sigma_1
        # keeps the digits that the textbook difference of roots loses
        assert np.all(np.abs(got - want) <= 8 * EPS * want[:, :1])
        assert np.all(got[:, 0] >= got[:, 1])
    x1 = _general_kind("random", scale, 132)[..., :1, :1]
    assert np.array_equal(singular_values(Op(x1, Algebra(len(x1), 1))),
                          np.abs(x1[..., 0]))


def test_near_equal_singular_values_keep_their_digits():
    # sigma = (1, 1 - 1e-8): the textbook
    # (sqrt(|A|^2 + 2|det|) - sqrt(|A|^2 - 2|det|))/2 is about 1e-8 off
    x = _general_kind("near-degenerate", 1.0, 133)
    got = singular_values(Op(x, Algebra(len(x), 2)))
    want = np.linalg.svd(x, compute_uv=False)
    assert np.all(np.abs(got - want) <= 4 * EPS)
    fro2, det = (np.abs(x) ** 2).sum(axis=(-2, -1)), np.abs(np.linalg.det(x))
    textbook = 0.5 * (np.sqrt(fro2 + 2 * det)
                      - np.sqrt(np.maximum(fro2 - 2 * det, 0.0)))
    assert np.abs(textbook - want[:, 1]).max() > 1e3 * 4 * EPS


@pytest.mark.parametrize("d", [2, 3])
def test_hermitian_kernels_read_the_lower_triangle(d):
    h = _hermitian_kind("random", d, 1.0, 140 + d)
    g = h.copy()
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    g[:, upper] = 1e3 * (1 + 2j)
    keep = lambda w: w <= 0.1             # noqa: E731
    assert np.array_equal(eigvalsh(g), eigvalsh(h))
    assert np.array_equal(kept_projection(g, keep), kept_projection(h, keep))
    alg = Algebra(len(h), d)
    assert np.array_equal(singular_values(Op(g, alg), hermitian=True),
                          singular_values(Op(h, alg), hermitian=True))


@pytest.mark.parametrize("d", [3, 4, 8])
def test_larger_blocks_stay_on_lapack_bit_for_bit(d):
    h = _hermitian_kind("random", d, 1.0, 150 + d)
    keep = lambda w: w <= 0.1             # noqa: E731
    assert np.array_equal(eigvalsh(h), np.linalg.eigvalsh(h))
    assert np.array_equal(kept_projection(h, keep), _lapack_projection(h, keep))
    x = Op(h + np.triu(h), Algebra(len(h), d))
    assert np.array_equal(singular_values(x),
                          np.linalg.svd(x.blocks, compute_uv=False))
    assert np.array_equal(singular_values(Op(h, x.algebra), hermitian=True),
                          np.linalg.svd(h, compute_uv=False, hermitian=True))


def _hermitian_family(kind, d, scale, seed):
    """A (3,)-batch of exactly Hermitian Ops of two d x d blocks: positive,
    signed or positive of rank one, entries of size ``scale``."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((3, 2, d, d)) \
        + 1j * rng.standard_normal((3, 2, d, d))
    h = {"psd": z @ _adj(z), "signed": z + _adj(z),
         "rank-one": z[..., :1] @ _adj(z[..., :1])}[kind]
    return Op(scale * (0.5 * (h + _adj(h))), Algebra(2, d))


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("kind", ["psd", "signed", "rank-one"])
@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_hermitian_paths_of_tail_weak_and_annihilation_match_the_svd(
        d, kind, scale):
    x = _hermitian_family(kind, d, scale, 200 + d)
    tol = 8 * EPS * op_norm(x)                      # per entry
    assert np.all(np.abs(singular_values(x, hermitian=True)
                         - singular_values(x)) <= tol[:, None, None])
    lams = scale * np.array([0.05, 0.5, 2.0])
    assert np.array_equal(tail_trace(x, lams, hermitian=True),
                          tail_trace(x, lams))
    for i, entry in enumerate(x):
        assert abs(weak_l1(entry, hermitian=True) - weak_l1(entry)) <= tol[i]
    # p = the even coordinates annihilates (1 - p) x (1 - p), not x
    p = Op(np.broadcast_to(np.diag(np.arange(d) % 2 == 0), (2, d, d)),
           x.algebra)
    comp = (x.algebra.unit() - p) @ x @ (x.algebra.unit() - p)
    for y, annihilated in ((x, False), (comp, True)):
        want = annihilation_check(p, y)
        assert np.all(want == annihilated)
        assert np.array_equal(annihilation_check(p, y, hermitian=True), want)
        assert np.array_equal(annihilation_check(
            p, y, hermitian=True, f_norm=op_norm(y, hermitian=True)), want)


# -- opnorm: the operator norm of stacked matrices ---------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_opnorm_is_the_spectral_norm(d):
    # tall and wide stacks (smaller side d) of full rank and of rank one, a
    # zero matrix first, at three scales; empty stacks read 0
    rng = np.random.default_rng(46)
    for shape in [(30, 3 * d, d), (30, d, 3 * d)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a[1:10] = a[1:10, :, :1] * a[1:10, :1, :]          # rank one
        a *= np.repeat([1e-8, 1.0, 1e8], 10)[:, None, None]
        a[0] = 0.0
        want = np.linalg.norm(a, ord=2, axis=(1, 2))
        got = opnorm(a)
        assert got.shape == (30,) and got[0] == 0.0 and np.all(want[1:] > 0)
        assert np.all(np.abs(got - want) <= 1e-14 * want)
    for shape in [(4, 0, d), (4, d, 0), (0, d, d), (0, 0)]:
        assert np.array_equal(opnorm(np.zeros(shape)), np.zeros(shape[:-2]))
    # a component stack folded into its rows, T: L2 -> L2(C^M), has the
    # Gram sum_m T_m* T_m
    t = rng.standard_normal((3, 2 * d, 5)) + 1j * rng.standard_normal(
        (3, 2 * d, 5))
    gram = np.einsum("mki,mkj->ij", t.conj(), t)
    assert opnorm(t.reshape(-1, 5)) == pytest.approx(
        np.sqrt(np.linalg.eigvalsh(gram)[-1]), rel=1e-14)


@pytest.mark.parametrize("shape", [(3, 8, 16), (2, 4, 16), (3, 8, 0)],
                         ids=["tall", "wide", "empty"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_opnorm_from_smaller_gram_vs_svd(shape, dtype, monkeypatch):
    import nclp.opcore as opcore
    rng = np.random.default_rng(64)
    mats = rng.standard_normal(shape)
    if dtype is complex:
        mats = mats + 1j * rng.standard_normal(shape)
    A = mats.reshape(shape[0] * shape[1], shape[2])
    top = np.linalg.svd(A, compute_uv=False).max(initial=0.0)
    grams = []
    monkeypatch.setattr(opcore, "eigvalsh", lambda g, real=opcore.eigvalsh:
                        grams.append(g.shape) or real(g))
    assert opnorm(A) == pytest.approx(top, rel=1e-12, abs=0.0)
    # one Gram, of side min(rows, cols) of A; none of an empty A
    assert grams == ([(min(A.shape),) * 2] if A.size else [])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", [(6, 3), (3, 6), (2, 6, 3)],
                         ids=["tall", "wide", "batch"])
def test_opnorm_of_a_non_finite_stack_raises(shape, bad):
    # real, and complex with the bad value in the imaginary part alone
    for dtype, value in [(float, bad), (complex, complex(1.0, bad))]:
        a = np.ones(shape, dtype=dtype)
        a[..., 1, 2] = value
        with pytest.raises(NumericError, match="Gram"):
            opnorm(a)


@pytest.mark.parametrize("side", [1, 2, 3, 8])
@pytest.mark.parametrize("dtype", [float, complex])
def test_opnorm_batch_entries_equal_their_own_calls(side, dtype):
    # the closed forms (side <= 2) and LAPACK alike, tall and wide
    rng = np.random.default_rng(65)
    for shape in [(2, 3, 3 * side, side), (2, 3, side, 2 * side)]:
        a = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal(shape)
        got = opnorm(a)
        assert got.shape == shape[:2]
        for i, j in np.ndindex(*shape[:2]):
            assert got[i, j] == opnorm(a[i, j])
        assert np.array_equal(got[1], opnorm(a[1]))
