import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from bandlim.space import build_space, same_space
from bandlim.operators import (
    BandOperator, OperatorError, Vector, from_triplets, identity, multiplier,
    compose, add, scale, subtract, adjoint, apply_operator, schur_bound, norm2,
    gram_band, save_operator, load_operator, _from_csr, DENSE_SIDE,
)

from conftest import (
    basis, random_band, shift_operator, torus_graph, tridiagonal,
)


class TestConstruction:
    def test_identity_metadata(self, nat_window):
        A = identity(nat_window)
        assert A.propagation == 0
        assert A.entry_sup == 1.0

    def test_shift_propagation(self, nat_window):
        S = shift_operator(nat_window)
        assert S.propagation == 1
        assert S.nnz == nat_window.n - 1

    def test_tridiagonal(self, nat_window):
        T = tridiagonal(nat_window)
        assert T.propagation == 1
        assert T.entry_sup == 1.0

    def test_duplicate_entry_rejected(self, nat_window):
        with pytest.raises(OperatorError, match="duplicate"):
            from_triplets(nat_window, [(0, 0, 1.0), (0, 0, 2.0)])

    def test_bad_index_rejected(self, nat_window):
        with pytest.raises(OperatorError, match="outside"):
            from_triplets(nat_window, [(0, 999, 1.0)])

    def test_bad_index_checked_before_duplicates(self, nat_window):
        # row * n + col keys of (0, n) and (1, 0) collide
        n = nat_window.n
        with pytest.raises(OperatorError, match=rf"\(0, {n}\) outside"):
            BandOperator(nat_window, [0, 1], [n, 0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf),
                                     np.array([[1.0, 0.0], [np.nan, 1.0]])])
    def test_non_finite_entry_rejected(self, nat_window, bad):
        k = np.shape(bad)[0] if np.ndim(bad) else 1
        trip = [(0, 0, np.eye(k) if k > 1 else 1.0), (3, 2, bad)]
        with pytest.raises(OperatorError, match=r"non-finite entry at \(3, 2\)"):
            from_triplets(nat_window, trip, block_dim=k)

    def test_misaligned_arrays_rejected(self, nat_window):
        with pytest.raises(OperatorError, match="differ in length"):
            BandOperator(nat_window, [0, 1], [0], [1.0, 2.0])

    @pytest.mark.parametrize("values, k", [
        ([1.0, np.eye(2)], 1),                  # ragged
        ([np.eye(2), np.eye(3)], 2),            # ragged blocks
        ([1.0, 2.0], 2),                        # scalars for 2-by-2 blocks
        ([np.eye(2), np.eye(2)], 1),            # blocks for scalars
        ([np.ones((2, 3)), np.ones((2, 3))], 2),
        (["a", 1.0], 1),
    ])
    def test_bad_values_rejected(self, nat_window, values, k):
        trip = [(x, x, v) for x, v in enumerate(values)]
        with pytest.raises(OperatorError, match="block"):
            from_triplets(nat_window, trip, block_dim=k)

    @pytest.mark.parametrize("trip", [
        [(0, 0, 1.0), (1, 1, 2.0, 3.0)],        # a stray fourth field
        [(0, 0, 1.0, 3.0), (1, 1, 2.0, 3.0)],
        [(0, 0)],
    ])
    def test_bad_triplets_rejected(self, nat_window, trip):
        with pytest.raises(OperatorError, match="triplets"):
            from_triplets(nat_window, trip)


class TestAlgebra:
    def test_shift_adjoint_identity_on_interior(self, z_window):
        S = shift_operator(z_window)
        P = compose(S, adjoint(S))
        D = P.to_dense()
        # S S* is the identity except at the column that fell off the window
        assert np.allclose(np.diag(D)[1:], 1.0)
        assert D[0, 0] == 0

    def test_compose_with_zero(self, nat_window):
        A = tridiagonal(nat_window)
        Z = from_triplets(nat_window, [])
        assert compose(A, Z).nnz == 0

    def test_tridiagonal_square_matches_dense(self, nat_window):
        T = tridiagonal(nat_window)
        P = compose(T, T)
        assert P.propagation == 2
        assert np.allclose(P.to_dense(), T.to_dense() @ T.to_dense(), atol=0)

    def test_propagation_subadditive_random(self, quad_window):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = random_band(quad_window, 2, rng)
            B = random_band(quad_window, 1, rng)
            assert compose(A, B).propagation <= A.propagation + B.propagation

    def test_add_scale_subtract(self, nat_window):
        rng = np.random.default_rng(5)
        A = random_band(nat_window, 1, rng)
        B = random_band(nat_window, 2, rng)
        assert np.allclose(add(A, B).to_dense(), A.to_dense() + B.to_dense())
        assert np.allclose(scale(A, 2j).to_dense(), 2j * A.to_dense())
        assert subtract(A, A).nnz == 0

    @pytest.mark.parametrize("alpha", [np.inf, complex(1, np.inf), np.nan])
    def test_non_finite_scale_rejected(self, nat_window, alpha):
        with pytest.raises(OperatorError, match="non-finite scale factor"):
            scale(identity(build_space({"kind": "n-window", "upper": 4})), alpha)
        with pytest.raises(OperatorError, match="non-finite scale factor"):
            scale(from_triplets(nat_window, []), alpha)

    def test_overflowing_scale_rejected(self, nat_window):
        A = from_triplets(nat_window, [(0, 0, 1e300), (3, 2, 1e200)])
        with pytest.raises(OperatorError, match=r"non-finite entry at \(0, 0\)"):
            scale(A, 1e10)


class TestApply:
    def test_identity_action(self, nat_window):
        v = basis(nat_window, 7)
        w = apply_operator(identity(nat_window), v)
        assert np.array_equal(w.values, v.values)

    def test_shift_moves_basis(self, nat_window):
        S = shift_operator(nat_window)
        w = apply_operator(S, basis(nat_window, 3))
        assert w.values[4, 0] == 1.0 and w.norm() == 1.0

    def test_against_dense_oracle(self):
        sp = build_space({"kind": "n-window", "upper": 119, "name": "n120"})
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = random_band(sp, 2, rng)
            v = Vector(sp, rng.standard_normal(sp.n) + 1j * rng.standard_normal(sp.n))
            w = apply_operator(A, v)
            oracle = A.to_dense() @ v.flat()
            assert np.max(np.abs(w.flat() - oracle)) <= 1e-12

    def test_block_apply_matches_dense(self, quad_window):
        rng = np.random.default_rng(13)
        A = random_band(quad_window, 1, rng, block_dim=2)
        v = Vector(quad_window,
                   rng.standard_normal((quad_window.n, 2))
                   + 1j * rng.standard_normal((quad_window.n, 2)), block_dim=2)
        w = apply_operator(A, v)
        oracle = A.to_dense() @ v.flat()
        assert np.max(np.abs(w.flat() - oracle)) <= 1e-12

    def test_schur_bound_controls_apply(self, nat_window):
        rng = np.random.default_rng(17)
        for p in (1.5, 2.0, 3.0):
            A = random_band(nat_window, 2, rng)
            bound = schur_bound(A, p)
            for _ in range(5):
                v = Vector(nat_window,
                           rng.standard_normal(nat_window.n), p=p)
                assert apply_operator(A, v).norm() <= bound * v.norm() + 1e-9


class TestSameSpace:
    """compose, add and apply_operator share one rule for the same space."""

    def test_same_size_other_space_rejected(self):
        torus = torus_graph(12)
        for name in ("q12", "torus"):       # a shared name is not enough
            quad = build_space({"kind": "quadrant", "upper": 11, "name": name})
            assert quad.n == torus.n == 144
            A, B = identity(quad), identity(torus)
            for call in (lambda: compose(A, B), lambda: add(A, B),
                         lambda: apply_operator(A, basis(torus, 3))):
                with pytest.raises(OperatorError, match="different spaces"):
                    call()

    def test_equal_descriptor_accepted(self):
        torus, twin = torus_graph(12), torus_graph(12)
        assert torus is not twin
        T = random_band(torus, 1, np.random.default_rng(19))
        D = T.to_dense()
        assert np.allclose(compose(T, identity(twin)).to_dense(), D, atol=0)
        assert np.allclose(add(T, identity(twin)).to_dense(),
                           D + np.eye(torus.n), atol=0)
        w = apply_operator(T, basis(twin, 3))
        assert np.array_equal(w.flat(), D[:, 3])

    @pytest.mark.parametrize("desc, default", [
        ({"kind": "quadrant", "upper": [4, 4]}, {"norm": "linf"}),
        ({"kind": "quadrant", "upper": 4}, {"upper": [4, 4]}),
        ({"kind": "zn-window", "lower": [-3, -2], "upper": [3, 2]},
         {"norm": "linf"}),
        ({"kind": "zn-window", "lower": [-3, -2], "upper": [3, 2]},
         {"center": 17}),                  # the id of the origin
        ({"kind": "box-cycles", "moduli": [5, 8]}, {"cross_distance": 100}),
        ({"kind": "explicit", "matrix": [[0, 1], [1, 0]]}, {"center": 0}),
        ({"kind": "graph", "n": 3, "edges": [[0, 1], [1, 2]]}, {"center": 0}),
    ])
    def test_spelled_out_default_is_one_space(self, desc, default):
        a, b = build_space(desc), build_space({**desc, **default})
        assert same_space(a, b) and same_space(b, a)
        S = add(identity(a), identity(b))
        assert np.array_equal(S.to_dense(), 2 * np.eye(a.n))


class TestNorms:
    def test_schur_identity(self, nat_window):
        assert schur_bound(identity(nat_window)) == 1.0

    def test_schur_tridiagonal(self, nat_window):
        T = tridiagonal(nat_window)
        assert schur_bound(T, 2.0) == 2.0
        assert norm2(T) < 2.0

    def test_schur_shift(self, nat_window):
        assert schur_bound(shift_operator(nat_window)) == 1.0

    def test_schur_at_one_is_max_column_sum(self, nat_window):
        T = from_triplets(nat_window, [(0, 0, 3.0), (1, 0, -4.0), (1, 1, 2.0)])
        assert schur_bound(T, 1.0) == 7.0
        assert schur_bound(identity(nat_window), 1.0) == 1.0

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.inf, math.nan])
    def test_schur_exponent_outside_one_to_inf_rejected(self, nat_window, p):
        with pytest.raises(OperatorError, match="exponent"):
            schur_bound(identity(nat_window), p)

    def test_norm2_identity(self, nat_window):
        assert abs(norm2(identity(nat_window)) - 1.0) < 1e-12

    def test_norm2_tridiagonal_spectrum(self):
        sp = build_space({"kind": "n-window", "upper": 99, "name": "n100"})
        T = tridiagonal(sp)
        expected = np.abs(np.linalg.eigvalsh(T.to_dense().real)).max()
        assert abs(expected - 2 * np.cos(np.pi / 101)) < 1e-12
        assert abs(norm2(T) - expected) < 1e-12

    def test_norm2_neumann_laplacian(self):
        # the all-ones vector spans the kernel; the top is 2 - 2 cos(999 pi / n)
        n = 1000
        sp = build_space({"kind": "n-window", "upper": n - 1})
        trip = [(x, x, float((x > 0) + (x < n - 1))) for x in range(n)]
        trip += [t for x in range(n - 1) for t in ((x, x + 1, -1.0), (x + 1, x, -1.0))]
        want = 2 - 2 * math.cos(999 * math.pi / n)
        assert abs(norm2(from_triplets(sp, trip)) - want) <= 1e-13 * want

    def test_norm2_rank_one(self, nat_window):
        A = from_triplets(nat_window, [(0, 0, 1.0)])
        assert abs(norm2(A) - 1.0) < 1e-12

    def test_norm2_zero(self, nat_window):
        assert norm2(from_triplets(nat_window, [])) == 0.0

    def test_norm2_band_too_wide_rejected(self):
        # entries (0, 0) and (0, n - 1) give A*A the full band of n columns
        n = DENSE_SIDE ** 2 // 1000
        sp = build_space({"kind": "n-window", "upper": n - 1})
        A = from_triplets(sp, [(0, 0, 1.0), (0, n - 1, 1.0)])
        with pytest.raises(OperatorError, match="too wide"):
            norm2(A)
        assert norm2(from_triplets(sp, [(0, 0, 1.0), (n - 1, 0, 1.0)])) \
            == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_norm2_gram_overflow_rejected(self, nat_window):
        # finite entries whose squares overflow: no top eigenvalue to read
        A = from_triplets(nat_window, [(x, x, 1e200) for x in range(5)])
        with pytest.raises(OperatorError, match="non-finite Gram matrix"):
            norm2(A)

    def test_norm2_below_schur_random(self, quad_window):
        rng = np.random.default_rng(43)
        for _ in range(10):
            A = random_band(quad_window, 1, rng)
            assert norm2(A) <= schur_bound(A, 2.0) + 1e-9


class TestFiles:
    def test_round_trip_exact(self, tmp_path, nat_window):
        rng = np.random.default_rng(47)
        A = random_band(nat_window, 2, rng)
        path = tmp_path / "op.bop"
        save_operator(path, A)
        B = load_operator(path, nat_window)
        assert B == A

    def test_block_round_trip(self, tmp_path, quad_window):
        rng = np.random.default_rng(53)
        A = random_band(quad_window, 1, rng, block_dim=3)
        path = tmp_path / "op.bop"
        save_operator(path, A)
        assert load_operator(path, quad_window) == A

    def test_space_name_checked(self, tmp_path, nat_window, z_window):
        path = tmp_path / "op.bop"
        save_operator(path, identity(nat_window))
        with pytest.raises(OperatorError, match="expects space"):
            load_operator(path, z_window)


class TestMultiplier:
    def test_multiplier_diagonal(self, nat_window):
        f = multiplier(nat_window, lambda x: float(x % 2))
        assert f.propagation == 0
        assert f.nnz == nat_window.n // 2


BAND_SPACES = [
    {"kind": "n-window", "upper": 12},
    {"kind": "zn-window", "lower": [-3, -2], "upper": [2, 3], "norm": "l1"},
    {"kind": "quadrant", "upper": 4, "norm": "l2"},
    {"kind": "quadrant", "upper": [5, 3], "norm": "linf"},
    {"kind": "box-cycles", "moduli": [5, 8], "cross_distance": 4},
    {"kind": "graph", "n": 9,
     "edges": [[i, (i + 1) % 9] for i in range(9)] + [[0, 4], [2, 7]]},
    {"kind": "explicit", "matrix": [[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1],
                                    [2, 2, 1, 0]]},
]


@st.composite
def band_operators(draw, block_dims=st.integers(1, 2)):
    """Random band operators: space kind, propagation, density, blocks, field."""
    sp = build_space(draw(st.sampled_from(BAND_SPACES)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_band(sp, draw(st.integers(0, 3)), rng,
                       density=draw(st.sampled_from([0.1, 0.5, 1.0])),
                       block_dim=draw(block_dims), real=draw(st.booleans()))


class TestBandProperties:
    @settings(max_examples=60, deadline=None)
    @given(band_operators())
    def test_schur_bound_dominates_the_dense_norm(self, A):
        # the bound is exact arithmetic; allow only the rounding of the SVD
        assert schur_bound(A, 2) >= np.linalg.norm(A.to_dense(), 2) * (1 - 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(band_operators(block_dims=st.just(1)))
    def test_schur_bound_at_one_dominates_the_dense_one_norm(self, A):
        # at p = 1 the norm of a scalar operator is its max column l1 sum
        assert schur_bound(A, 1.0) >= np.linalg.norm(A.to_dense(), 1) * (1 - 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_block_fold_inverts_the_unfolding(self, data):
        sp = build_space(data.draw(st.sampled_from(BAND_SPACES)))
        k = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        A = random_band(sp, data.draw(st.integers(0, 2)), rng, block_dim=k,
                        real=data.draw(st.booleans()))
        # zero whole blocks and single entries: the unfolding stores them
        blocks = A.blocks.copy()
        blocks[rng.random(A.nnz) < 0.3] = 0
        blocks[rng.random(blocks.shape) < 0.2] = 0
        A = BandOperator(sp, A.rows, A.cols, blocks, block_dim=k, p=A.p)
        live = np.any(blocks != 0, axis=(1, 2))
        expected = BandOperator(sp, A.rows[live], A.cols[live], blocks[live],
                                block_dim=k, p=A.p)
        assert _from_csr(sp, A.csr(), k, A.p) == expected

    @settings(max_examples=60, deadline=None)
    @given(band_operators(), st.data())
    def test_gram_band_dense_is_gram_band_sparse(self, A, data):
        # the two inputs sum G in different orders: the same band, entries
        # equal up to rounding; rounded to integers, entries cancel exactly
        # in both
        M = A.to_dense().real if A.is_real else A.to_dense()
        if data.draw(st.booleans()):
            M = np.round(2 * M)
        cols = data.draw(st.sets(st.integers(0, M.shape[1] - 1), min_size=1))
        M = M[:, sorted(cols)]
        dense, sparse = gram_band(M), gram_band(csr_matrix(M))
        assert dense.shape == sparse.shape and dense.dtype == sparse.dtype
        assert np.abs(dense - sparse).max() <= 1e-14 * np.abs(sparse).max()

    @settings(max_examples=60, deadline=None)
    @given(band_operators())
    def test_norm2_is_the_dense_norm(self, A):
        dense = np.linalg.norm(A.to_dense(), 2)
        assert abs(norm2(A) - dense) <= 1e-12 * dense

    @settings(max_examples=60, deadline=None)
    @given(band_operators(), st.data())
    def test_from_triplets_is_the_entry_loop(self, A, data):
        perm = data.draw(st.permutations(range(A.nnz)))
        vals = A.blocks[:, 0, 0] if A.block_dim == 1 else A.blocks
        trip = [(int(A.rows[i]), int(A.cols[i]), vals[i]) for i in perm]
        assert from_triplets(A.space, trip, A.block_dim) \
            == reference_from_triplets(A.space, trip, A.block_dim) == A

    @settings(max_examples=80, deadline=None)
    @given(band_operators(), st.data())
    def test_entries_is_the_entry_mask(self, A, data):
        n = A.space.n
        cols = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
        pos, i, j = A.entries(cols)
        assert pos.dtype == i.dtype == j.dtype == np.int64
        assert list(zip(pos, i, j)) == reference_entries(A, cols)

    @pytest.mark.parametrize("cols", [[-1], [3, 13]])
    def test_entries_rejects_ids_outside_the_space(self, cols):
        A = tridiagonal(build_space(BAND_SPACES[0]))
        with pytest.raises(OperatorError, match="outside the space"):
            A.entries(cols)


def reference_entries(A, cols):
    """(pos, i, j) of the entries in cols, by a mask over every entry."""
    return [(pos, int(A.rows[pos]), j) for j, y in enumerate(cols)
            for pos in np.flatnonzero(A.cols == y)]    # stored by row within y


def reference_from_triplets(space, triplets, block_dim=1, p=2.0):
    """The per-triplet loop ``from_triplets`` once ran, kept as an oracle."""
    rows, cols, blocks = [], [], []
    k = int(block_dim)
    for x, y, val in triplets:
        x, y = int(x), int(y)
        if x < 0 or x >= space.n or y < 0 or y >= space.n:
            raise OperatorError(f"entry index ({x}, {y}) outside the space")
        rows.append(x)
        cols.append(y)
        b = np.asarray(val, dtype=np.complex128)
        if k == 1 and b.ndim == 0:
            b = b.reshape(1, 1)
        if b.shape != (k, k):
            raise OperatorError(f"entry at ({x}, {y}) has wrong block shape")
        blocks.append(b)
    if not rows:
        return BandOperator(space, [], [], np.zeros((0, k, k)), block_dim=k, p=p)
    return BandOperator(space, rows, cols, np.stack(blocks), block_dim=k, p=p)
