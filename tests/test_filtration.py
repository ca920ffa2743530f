import numpy as np
import pytest

from nclp.errors import ContractViolation
from nclp.filtration import (GridFiltration, TensorDyadicFiltration,
                             build_filtration, parse_spec)
from nclp.opcore import Op
from oracles import (DyadicCube, concentric_mask, cube_cells, cube_of_cell,
                     cubes_at_level, dilation_masks, dyadic_father,
                     first_cells)


def rand(filt, seed):
    rng = np.random.default_rng(seed)
    alg = filt.algebra
    b = rng.standard_normal((alg.nblocks, alg.d, alg.d)) \
        + 1j * rng.standard_normal((alg.nblocks, alg.d, alg.d))
    return Op(b, alg).hermitize()


@pytest.mark.parametrize("spec", ["tensor:3", "grid:1,3,2"])
def test_expectation_axioms(spec):
    filt = build_filtration(spec)
    x = rand(filt, 0)
    for k in filt.levels:
        ek = filt.expect(x, k)
        # idempotent, trace preserving, unital
        assert (filt.expect(ek, k) - ek).max_abs() < 1e-12
        assert ek.trace() == pytest.approx(x.trace(), abs=1e-12)
        one = filt.algebra.unit()
        assert (filt.expect(one, k) - one).max_abs() < 1e-12
    # tower property E_j E_k = E_min
    lo, hi = filt.levels[0], filt.levels[-1]
    a = filt.expect(filt.expect(x, hi), lo)
    assert (a - filt.expect(x, lo)).max_abs() < 1e-12


@pytest.mark.parametrize("spec", ["tensor:3", "grid:1,3,2"])
def test_bimodule_property(spec):
    # E_k(a x b) = a E_k(x) b for a, b in the level-k subalgebra
    filt = build_filtration(spec)
    x = rand(filt, 1)
    k = filt.levels[len(filt.levels) // 2]
    a = filt.expect(rand(filt, 2), k)
    b = filt.expect(rand(filt, 3), k)
    lhs = filt.expect(a @ x @ b, k)
    rhs = a @ filt.expect(x, k) @ b
    assert (lhs - rhs).max_abs() < 1e-10


def test_expectation_positivity():
    filt = TensorDyadicFiltration(3)
    x = rand(filt, 4)
    h = x @ x.H
    for k in filt.levels:
        w = np.linalg.eigvalsh(filt.expect(h, k).blocks)
        assert w.min() > -1e-10


def test_tensor_dyadic_oracle():
    # [DERIVED] E_0 on TensorDyadic(1) is (tr/2) (x) id
    filt = TensorDyadicFiltration(1)
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    e0 = filt.expect(Op(m[None], filt.algebra), 0)
    assert np.allclose(e0.blocks[0], np.eye(2) * 2.5)


def test_grid_average_oracle():
    filt = GridFiltration(1, 2, 1)
    vals = np.array([1.0, 3.0, 5.0, 7.0], dtype=complex)
    f = Op(vals[:, None, None], filt.algebra)
    e1 = filt.expect(f, 1).blocks[:, 0, 0]
    assert np.allclose(e1, [2.0, 2.0, 6.0, 6.0])
    e0 = filt.expect(f, 0).blocks[:, 0, 0]
    assert np.allclose(e0, 4.0)


def test_parse_spec_errors():
    with pytest.raises(ContractViolation):
        parse_spec("hex:3")
    with pytest.raises(ContractViolation):
        parse_spec("grid:1,2")
    with pytest.raises(ContractViolation, match="unsupported"):
        parse_spec("corner:3")
    assert parse_spec("grid:1,3,2").label == "grid:1,3,2"


def test_check_level():
    filt = TensorDyadicFiltration(2)
    with pytest.raises(ContractViolation):
        filt.expect(rand(filt, 0), 5)


def test_cube_navigation():
    filt = GridFiltration(1, 3, 1)
    Q = cube_of_cell(filt, 5, 2)
    assert Q.level == 2
    assert 5 in cube_cells(filt, Q)
    father = dyadic_father(Q)
    assert father.level == 1
    assert set(cube_cells(filt, Q)) <= set(cube_cells(filt, father))
    with pytest.raises(ContractViolation):
        dyadic_father(cube_of_cell(filt, 0, 0))


def test_concentric_mask_wraps_and_counts():
    filt = GridFiltration(1, 3, 1)
    Q = cube_of_cell(filt, 0, 3)    # single cell at the finest level
    mask = concentric_mask(filt, Q, 9)
    assert mask.sum() == 8          # 9 cells clipped to the 8-cell torus
    filt4 = GridFiltration(1, 4, 1)
    Q = cube_of_cell(filt4, 0, 4)
    mask = concentric_mask(filt4, Q, 9)
    assert mask.sum() == 9
    assert mask[0] and mask[12] and mask[4]   # wraps around
    with pytest.raises(ContractViolation):
        filt4.dilation_cubes(Q.level, 4)       # even dilation has no center


def test_concentric_father_measure():
    filt = GridFiltration(1, 5, 1)
    Q = cube_of_cell(filt, 3, 5)
    assert DyadicCube(3, Q.corner, 1).measure == pytest.approx(2.0 ** -3)
    # concentric father 9Q of a single-cell cube on a 32-cell torus
    assert concentric_mask(filt, Q, 9).sum() == 9


@pytest.mark.parametrize("n,K", [(1, 3), (1, 4), (1, 6), (1, 9),
                                 (2, 3), (2, 4), (2, 6)])
def test_dilation_masks_match_concentric_mask(n, K):
    # every level, including those where 2^k < 9 and 9Q is the whole torus;
    # n = 2, K = 9 is left out: its finest incidence has 2^36 entries
    filt = GridFiltration(n, K, 1)
    for k in filt.levels:
        cubes = cubes_at_level(filt, k)
        for delta in (1, 3, 9):
            ref = np.stack([concentric_mask(filt, Q, delta) for Q in cubes])
            assert np.array_equal(dilation_masks(filt, k, delta), ref)
        assert np.array_equal(first_cells(filt, k),
                              [cube_cells(filt, Q)[0] for Q in cubes])
    with pytest.raises(ContractViolation):
        dilation_masks(filt, 1, 4)


@pytest.mark.parametrize("n,K", [(1, 3), (1, 6), (1, 9), (2, 3), (2, 5)])
def test_dilation_cubes_pair_each_cell_with_its_dilations_once(n, K):
    # every level: 2^k < delta, where the offsets are all the residues, and
    # 2^k > delta, where -4..4 wrap at the rim of the torus
    filt = GridFiltration(n, K, 1)
    for k in filt.levels:
        for delta in (1, 3, 9):
            walk = filt.dilation_cubes(k, delta)
            assert walk.shape == (min(delta, 2 ** k) ** n, filt.side ** n)
            got = np.stack([walk.ravel(), np.broadcast_to(
                np.arange(walk.shape[1]), walk.shape).ravel()])
            want = np.stack(np.nonzero(np.stack(
                [concentric_mask(filt, Q, delta)
                 for Q in cubes_at_level(filt, k)])))
            # the oracle's (cube, cell) pairs, none twice
            assert np.array_equal(np.unique(got, axis=1), want)
            assert got.shape == want.shape
    with pytest.raises(ContractViolation):
        filt.dilation_cubes(1, 4)


@pytest.mark.parametrize("spec", ["tensor:3", "grid:1,3,2", "grid:2,2,2"])
def test_expect_passes_batch_axes_through(spec):
    filt = build_filtration(spec)
    alg = filt.algebra
    x = Op(np.stack([[rand(filt, 10 + 3 * i + j).blocks for j in range(3)]
                     for i in range(2)]), alg)
    for k in filt.levels:
        got = filt.expect(x, k)
        assert got.batch == (2, 3)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got.blocks[i, j],
                                      filt.expect(x[i][j], k).blocks)


# -- level subalgebras in their own coordinates ----------------------------

SPECS = ["tensor:3", "tensor:4", "grid:1,4,2", "grid:2,3,2"]


def full_size_expect_oracle(filt, x, k):
    """E_k at full size, as the filtrations computed it before the level
    subalgebras had their own coordinates: a partial-trace einsum times
    the identity on tensor:N, a cube mean broadcast back on the grid."""
    if isinstance(filt, TensorDyadicFiltration):
        a, b = 2 ** k, 2 ** (filt.N - k)
        m = x.blocks[..., 0, :, :].reshape(x.batch + (a, b, a, b))
        small = np.einsum("...ibjb->...ij", m) / b
        out = small[..., :, None, :, None] * np.eye(b)[:, None, :]
        return Op(out.reshape(x.batch + (1, a * b, a * b)), filt.algebra)
    cubes = filt.cubes(x.blocks, k)
    axes = (-3,) if filt.n == 1 else (-5, -3)
    m = np.broadcast_to(cubes.mean(axis=axes, keepdims=True), cubes.shape)
    return Op(m.reshape(x.blocks.shape), filt.algebra)


def rand_level(filt, k, seed):
    alg = filt.level_algebra(k)
    rng = np.random.default_rng(seed)
    return Op(rng.standard_normal((2, alg.nblocks, alg.d, alg.d))
              + 1j * rng.standard_normal((2, alg.nblocks, alg.d, alg.d)), alg)


@pytest.mark.parametrize("spec", SPECS)
def test_restrict_of_extend_is_exact(spec):
    filt = build_filtration(spec)
    for k in filt.levels:
        y = rand_level(filt, k, 40 + k)
        z = filt.extend(y, k)
        assert z.algebra is filt.algebra
        assert np.array_equal(filt.restrict(z, k).blocks, y.blocks)


@pytest.mark.parametrize("spec", SPECS)
def test_extend_of_restrict_is_expect(spec):
    filt = build_filtration(spec)
    x = Op(np.stack([rand(filt, 50 + i).blocks for i in range(3)]),
           filt.algebra)
    for k in filt.levels:
        got = filt.extend(filt.restrict(x, k), k)
        assert np.array_equal(got.blocks, filt.expect(x, k).blocks)
        ref = full_size_expect_oracle(filt, x, k)
        assert (got - ref).max_abs() <= 1e-12


@pytest.mark.parametrize("spec", SPECS)
def test_level_algebra_trace_agrees_with_tau(spec):
    filt = build_filtration(spec)
    x = rand(filt, 60)
    sizes = {"tensor": lambda k: (1, 2 ** k),
             "grid": lambda k: (2 ** (filt.n * k), filt.d)}[filt.spec.kind]
    for k in filt.levels:
        alg = filt.level_algebra(k)
        assert (alg.nblocks, alg.d) == sizes(k)
        small = filt.restrict(x, k)
        assert small.algebra is alg
        assert small.trace() == pytest.approx(x.trace(), abs=1e-12)


@pytest.mark.parametrize("spec", ["grid:1,3,1", "grid:1,3,2", "grid:1,3,3",
                                  "grid:2,2,1", "grid:2,2,2", "grid:2,2,3",
                                  "tensor:3"])
def test_refine_is_restrict_of_extend(spec):
    filt = build_filtration(spec)
    for k in filt.levels[1:]:
        y = rand_level(filt, k - 1, 70 + k)
        got = filt.refine(y, k)
        assert got.algebra is filt.level_algebra(k)
        want = filt.restrict(filt.extend(y, k - 1), k)
        assert np.array_equal(got.blocks, want.blocks)
    # from any level i <= k in one step, k itself included
    for k in filt.levels:
        for i in filt.levels[:k + 1]:
            y = rand_level(filt, i, 170 + 10 * k + i)
            got = filt.refine(y, k)
            assert got.algebra is filt.level_algebra(k)
            want = filt.restrict(filt.extend(y, i), k)
            assert np.array_equal(got.blocks, want.blocks)
