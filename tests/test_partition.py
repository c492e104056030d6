from dataclasses import replace
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from bandlim import partition, space as space_module
from bandlim.space import LATTICE_KINDS, build_space
from bandlim.operators import (
    OperatorError, identity, multiplier, subtract, scale, norm2, schur_bound,
    apply_operator, Vector, _from_csr, _unfold,
)
from bandlim.partition import (
    SparsifyShortfall, BlockSparsifierModel, sparsify, make_partition,
    average, weighted_sum,
)

from conftest import (
    random_band, reference_variation_table, torus_graph, tridiagonal,
)


def interval(n, name):
    return build_space({"kind": "n-window", "upper": n - 1, "name": name})


def count_calls(monkeypatch, cls, names):
    """Record (name, radius or first argument size) of each call to the methods.

    Keyword arguments follow as (name, value) pairs.
    """
    calls = []

    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            arg = args[-1] if name != "pairwise" else len(args[0])
            calls.append((name, arg, *kwargs.items()))
            return method(self, *args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    return calls


def check_sparsification(space, sp):
    seen = set()
    for part in sp.parts:
        assert part == sorted(part)
        assert not (set(part) & seen)
        seen |= set(part)
        ids = np.asarray(part)
        if len(ids) > 1:
            assert space.pairwise(ids, ids).max() <= sp.diameter_bound
    for i in range(len(sp.parts)):
        for j in range(i + 1, len(sp.parts)):
            a, b = np.asarray(sp.parts[i]), np.asarray(sp.parts[j])
            assert space.pairwise(a, b).min() >= sp.separation


class TestSparsify:
    def test_interval_block_pattern(self):
        sp = interval(100, "n100")
        res = sparsify(sp, None, m=3, target_c=0.7, block_length=9)
        check_sparsification(sp, res)
        assert res.diameter_bound <= 9
        # oracle: best offset of the keep-9-drop-3 pattern on 100 points
        best = max(sum(1 for x in range(100) if (x - off) % 12 < 9)
                   for off in range(12))
        assert res.mass_fraction == best / 100.0
        assert res.mass_fraction >= 0.7

    def test_single_atom(self):
        sp = build_space({"kind": "graph", "n": 5,
                          "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]})
        mu = np.zeros(5)
        mu[2] = 3.0
        res = sparsify(sp, mu, m=2, target_c=1.0)
        assert res.parts == [[2]]
        assert res.mass_fraction == 1.0

    def test_two_separated_atoms(self):
        sp = build_space({"kind": "graph", "n": 8,
                          "edges": [[i, i + 1] for i in range(7)]})
        mu = np.zeros(8)
        mu[0] = 1.0
        mu[7] = 2.0
        res = sparsify(sp, mu, m=3, target_c=1.0)
        assert res.mass_fraction == 1.0
        assert sorted(x for part in res.parts for x in part) == [0, 7]

    def test_shortfall_reports_best(self):
        sp = interval(30, "n30")
        with pytest.raises(SparsifyShortfall) as exc:
            sparsify(sp, None, m=10, target_c=0.99, block_length=10)
        assert 0 < exc.value.best.mass_fraction < 0.99

    def test_quadrant_blocks(self):
        sp = build_space({"kind": "quadrant", "upper": 15, "name": "q16"})
        res = sparsify(sp, None, m=2, target_c=0.5, block_length=6)
        check_sparsification(sp, res)
        assert res.mass_fraction >= (6 / 8) ** 2 - 1e-12

    @pytest.mark.parametrize("parts, message", [
        ([[0, 1], [5, 6], [1, 9]], "overlap"),
        # only the first and the last part are closer than 3
        ([[0, 1], [6, 7], [3, 11]], "too close"),
        # the higher id of the close pair lies in the first part
        ([[5, 6], [0, 3]], "too close"),
    ])
    def test_validation_rejects(self, parts, message):
        sp = interval(12, "n12")
        bad = partition.Sparsification(
            parts=parts, separation=3, diameter_bound=8, mass_fraction=0.5,
            measure=np.ones(sp.n), method="greedy")
        with pytest.raises(OperatorError, match=message):
            partition._validate_sparsification(sp, bad)

    def test_validation_is_one_pair_sweep(self, monkeypatch):
        torus = torus_graph(12)
        res = sparsify(torus, None, m=2, target_c=0.1)
        check_sparsification(torus, res)
        calls = count_calls(monkeypatch, type(torus),
                            ("pairwise", "ball", "pairs_within"))
        partition._validate_sparsification(torus, res)
        assert calls == [("pairs_within", res.separation - 1)]

    @pytest.mark.parametrize("length", [-2, 0])
    def test_block_length_below_one_rejected(self, length):
        sp = build_space({"kind": "n-window", "upper": 20})
        with pytest.raises(OperatorError, match="block length must be at least 1"):
            sparsify(sp, None, 2, 0.1, block_length=length)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_measure_rejected(self, bad):
        torus = torus_graph(4)
        mu = np.ones(torus.n)
        mu[5] = bad
        with pytest.raises(OperatorError, match="measure must be finite and nonnegative"):
            sparsify(torus, mu, 1, 0.1)

    def test_model_constants(self):
        model = BlockSparsifierModel()
        assert model.block_length(3) == 9
        assert model.block_length(4) == 12
        assert model.diameter_for(3, 0.75) == 9
        assert model.diameter_for(3, 0.9) == 27


class TestMakePartition:
    def test_equality_compares_the_bumps(self):
        sp = build_space({"kind": "n-window", "upper": 9})
        part = make_partition(sp, 2)
        same = make_partition(build_space({"kind": "n-window", "upper": 9}), 2)
        assert part == same and not part != same
        same.variation(20)      # a longer variation table: the same bumps
        assert part == same
        assert part != replace(part, bumps=2.0 * part.bumps)
        assert part != make_partition(sp, 3)
        assert part != make_partition(sp, 2, p=3.0)
        assert part != make_partition(build_space({"kind": "n-window",
                                                   "upper": 10}), 2)
        assert part != "a partition"

    def test_normalization_exact(self):
        sp = interval(60, "n60")
        for p in (1.5, 2.0, 3.0):
            part = make_partition(sp, 10, p=p)
            for x in range(sp.n):
                total = sum(v ** p for v in part.point_funcs[x].values())
                assert abs(total - 1.0) < 1e-12

    def test_variation_shrinks_with_scale(self):
        sp = interval(120, "n120")
        eps5 = make_partition(sp, 5).variation(1)
        eps20 = make_partition(sp, 20).variation(1)
        assert eps20 < eps5

    def test_single_center_constant_function(self):
        sp = interval(8, "n8")
        part = make_partition(sp, 10)
        assert len(part.centers) == 1
        assert np.all(np.abs(part.bumps.toarray()[:, 0] - 1.0) < 1e-15)
        assert part.variation(3) == 0.0

    def test_multiplicity_bounded(self):
        sp = interval(100, "n100")
        part = make_partition(sp, 7)
        assert part.multiplicity <= 4
        counts = [len(part.point_funcs[x]) for x in range(sp.n)]
        assert max(counts) == part.multiplicity

    def test_variation_monotone_in_r(self):
        sp = interval(80, "n80")
        part = make_partition(sp, 6)
        vals = [part.variation(r) for r in range(1, 19)]
        assert vals == sorted(vals)

    def test_scale_validation(self):
        sp = interval(10, "n10")
        with pytest.raises(Exception):
            make_partition(sp, 0)


class TestAverage:
    def test_identity_fixed(self):
        sp = interval(40, "n40")
        part = make_partition(sp, 5)
        M = average(identity(sp), part)
        assert np.allclose(M.to_dense(), np.eye(sp.n), atol=1e-12)

    def test_diagonal_fixed_exactly(self):
        sp = interval(40, "n40")
        part = make_partition(sp, 5)
        D = multiplier(sp, lambda x: 1.0 + 0.3 * (x % 4))
        M = average(D, part)
        assert np.allclose(M.to_dense(), D.to_dense(), atol=1e-12)

    def test_tridiagonal_converges_with_scale(self):
        sp = build_space({"kind": "zn-window", "lower": [-100], "upper": [100],
                          "name": "zavg"})
        T = tridiagonal(sp)
        gaps = []
        for L in (5, 10, 20):
            M = average(T, make_partition(sp, L))
            gaps.append(norm2(subtract(M, T)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_contractive_in_applied_norm(self):
        sp = interval(60, "n60")
        rng = np.random.default_rng(101)
        for p in (1.5, 2.0, 3.0):
            A = random_band(sp, 1, rng)
            part = make_partition(sp, 6, p=p)
            M = average(A, part)
            for _ in range(4):
                v = Vector(sp, rng.standard_normal(sp.n)
                           + 1j * rng.standard_normal(sp.n), p=p)
                lhs = apply_operator(M, v).norm()
                # |M(A)v|_p never exceeds the certified bound of A itself
                assert lhs <= schur_bound(A, p) * v.norm() + 1e-9

    def test_linear(self):
        sp = interval(30, "n30")
        rng = np.random.default_rng(103)
        A = random_band(sp, 1, rng)
        B = random_band(sp, 1, rng)
        part = make_partition(sp, 4)
        from bandlim.operators import add
        lhs = average(add(A, B), part).to_dense()
        rhs = average(A, part).to_dense() + average(B, part).to_dense()
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestWeightedSum:
    def test_identity_locals_plain(self):
        sp = interval(50, "n50")
        part = make_partition(sp, 6)
        I = identity(sp)
        op, bound = weighted_sum(part, lambda i: I, mode="plain", M=1.0)
        assert np.allclose(op.to_dense(), np.eye(sp.n), atol=1e-12)
        assert bound == 1.0

    def test_diagonal_commutator_vanishes(self):
        sp = interval(50, "n50")
        part = make_partition(sp, 6)
        D = multiplier(sp, lambda x: 2.0 + (x % 3))
        I = identity(sp)
        op, bound = weighted_sum(part, lambda i: I, mode="commutator", A=D,
                                 M=1.0)
        assert op.nnz == 0
        assert bound == 0.0

    def test_tridiagonal_commutator_bound(self):
        sp = build_space({"kind": "zn-window", "lower": [-60], "upper": [60],
                          "name": "zws"})
        T = tridiagonal(sp)
        part = make_partition(sp, 8)
        I = identity(sp)
        op, bound = weighted_sum(part, lambda i: I, mode="commutator", A=T,
                                 M=1.0, norm_a=norm2(T))
        eps = part.variation(1)
        assert abs(bound - eps * 3 * norm2(T)) < 1e-12
        assert norm2(op) <= bound + 1e-12

    def test_commutator_bound_random(self):
        sp = interval(60, "n60")
        rng = np.random.default_rng(107)
        for p in (1.5, 2.0, 3.0):
            part = make_partition(sp, 7, p=p)
            A = random_band(sp, 1, rng, density=0.8)
            locals_ = [scale(identity(sp), 0.5) for _ in part.centers]
            op, bound = weighted_sum(part, locals_, mode="commutator", A=A,
                                     M=0.5, norm_a=schur_bound(A, p))
            # empirical p-norm ratios stay under the certified bound
            for _ in range(6):
                v = Vector(sp, rng.standard_normal(sp.n)
                           + 1j * rng.standard_normal(sp.n), p=p)
                assert apply_operator(op, v).norm() <= bound * v.norm() + 1e-9

    def test_locals_must_be_band_operators(self):
        sp = interval(20, "n20")
        part = make_partition(sp, 4)
        count = len(part.centers)
        I = identity(sp)
        for bad in ({i: I for i in range(count)}, [I] * (count - 1) + [1.0],
                    lambda i: I.to_dense()):
            with pytest.raises(OperatorError, match="one local band operator"):
                weighted_sum(part, bad, mode="plain", M=1.0)

    def test_missing_bound_rejected(self):
        sp = interval(20, "n20")
        part = make_partition(sp, 4)
        with pytest.raises(Exception, match="bound"):
            weighted_sum(part, lambda i: identity(sp), mode="plain")


class TestGreedyBalls:
    def test_ball_indicator_is_one_pair_sweep(self, monkeypatch):
        torus = torus_graph(12)
        calls = count_calls(monkeypatch, type(torus),
                            ("pairwise", "ball", "pairs_within"))
        diameter = BlockSparsifierModel().block_length(2)
        res = partition._sparsify_greedy(torus, np.ones(torus.n), 2, diameter)
        # no ball, and no n-point pairwise: only the parts' own diameters
        assert [c for c in calls if c[0] != "pairwise"] \
            == [("pairs_within", diameter // 2)]
        assert all(size < torus.n for name, size in calls if name == "pairwise")
        assert len(res.parts) > 1
        check_sparsification(torus, res)

    def test_parts_match_the_per_step_greedy(self):
        torus = torus_graph(8)
        mu = np.random.default_rng(3).random(torus.n)
        mu[::5] = 0.0
        for m in (1, 2):
            rho = BlockSparsifierModel().block_length(m) // 2
            available = np.ones(torus.n, dtype=bool)
            parts = []
            while True:
                masses = np.zeros(torus.n)
                for x in np.nonzero(available & (mu > 0))[0]:
                    ball = torus.ball(x, rho)
                    masses[x] = mu[ball[available[ball]]].sum()
                best = int(np.argmax(masses))
                if masses[best] == 0.0:
                    break
                part = [int(y) for y in torus.ball(best, rho)
                        if available[y] and mu[y] > 0]
                parts.append(part)
                for y in range(torus.n):
                    if min(torus.dist(y, z) for z in part) < m:
                        available[y] = False
            assert sparsify(torus, mu, m=m, target_c=0.0).parts == parts


class TestSpaceMismatch:
    def test_same_size_other_space_rejected(self):
        quad = build_space({"kind": "quadrant", "upper": 11, "name": "q12"})
        torus = torus_graph(12)
        assert quad.n == torus.n == 144
        part = make_partition(quad, 3)
        with pytest.raises(OperatorError, match="different spaces"):
            average(identity(torus), part)
        with pytest.raises(OperatorError, match="different spaces"):
            weighted_sum(part, lambda i: identity(torus), mode="plain", M=1.0)
        with pytest.raises(OperatorError, match="different spaces"):
            weighted_sum(part, lambda i: identity(quad), mode="commutator",
                         A=identity(torus), M=1.0)

    def test_equal_descriptor_accepted(self):
        sp = interval(30, "n30")
        twin = interval(30, "n30")
        part = make_partition(sp, 4)
        M = average(identity(twin), part)
        assert np.allclose(M.to_dense(), np.eye(sp.n), atol=1e-12)
        op, _ = weighted_sum(part, lambda i: identity(twin), mode="plain",
                             M=1.0)
        assert np.allclose(op.to_dense(), np.eye(sp.n), atol=1e-12)


def graph_descriptor(n, extra):
    """Connected graph: a path on n vertices plus the given extra edges."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(u % n, v % n) for u, v in extra if u % n != v % n]
    return {"kind": "graph", "n": n, "edges": edges}


small_spaces = st.one_of(
    st.builds(lambda u: {"kind": "n-window", "upper": u},
              st.integers(0, 24)),
    st.builds(lambda lo, hi, norm: {"kind": "zn-window", "lower": lo,
                                    "upper": hi, "norm": norm},
              st.lists(st.integers(-4, 0), min_size=2, max_size=2),
              st.lists(st.integers(0, 4), min_size=2, max_size=2),
              st.sampled_from(["linf", "l1", "l2"])),
    st.builds(lambda hi, norm: {"kind": "quadrant", "upper": hi, "norm": norm},
              st.lists(st.integers(0, 7), min_size=2, max_size=2),
              st.sampled_from(["linf", "l1", "l2"])),
    st.builds(graph_descriptor, st.integers(2, 16),
              st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                       max_size=6)),
    st.builds(lambda mods, cross: {"kind": "box-cycles", "moduli": mods,
                                   "cross_distance": cross},
              st.lists(st.integers(3, 9), min_size=1, max_size=3),
              st.integers(3, 12)),
)


def dense_bumps(space, centers, L, p):
    """Normalized piecewise-linear bumps from the definition, as a dense matrix."""
    ids = np.arange(space.n)
    d = space.pairwise(ids, np.asarray(centers))
    w = np.clip(1.0 - d / (2.0 * L), 0.0, None)
    return w / ((w ** p).sum(axis=1) ** (1.0 / p))[:, None]


def greedy_net(space, L):
    centers = []
    for x in range(space.n):
        if all(space.dist(x, c) > L for c in centers):
            centers.append(x)
    return centers


class TestVariationProperty:
    @settings(max_examples=60, deadline=None)
    @given(desc=small_spaces, L=st.integers(1, 4),
           p=st.sampled_from([1.5, 2.0, 3.0]), extra=st.integers(1, 4),
           block=st.integers(1, 80))
    def test_measured_variation_matches_dense_reference(self, desc, L, p,
                                                        extra, block):
        space = build_space(desc)
        r_lazy = 3 * L + extra
        # any chunk size gives the same table, bit for bit the per-ball one
        with mock.patch.object(space_module, "_PAIR_CHUNK", block):
            part = make_partition(space, L, p=p)
            table = dict(part.variation_table)
            lazy = part.variation(r_lazy)
        assert table == reference_variation_table(part, 3 * L)
        top = max(part.variation_table)
        assert part.variation_table == reference_variation_table(part, top)
        if space.kind not in LATTICE_KINDS:
            assert part.centers == greedy_net(space, L)
        phi = dense_bumps(space, part.centers, L, p)
        got = np.zeros_like(phi)
        for x, f in enumerate(part.point_funcs):
            assert list(f) == sorted(f)
            for i, v in f.items():
                got[x, i] = v
        assert np.max(np.abs(got - phi)) <= 1e-15

        ids = np.arange(space.n)
        dist = space.pairwise(ids, ids)
        gaps = (np.abs(phi[:, None, :] - phi[None, :, :]) ** p).sum(axis=2)

        def reference(r):
            near = (dist <= r) & (dist > 0)
            return gaps[near].max(initial=0.0) ** (1.0 / p)

        assert sorted(table) == list(range(1, 3 * L + 1))
        for r in range(1, 3 * L + 1):
            assert abs(table[r] - reference(r)) <= 1e-12
        assert abs(lazy - reference(r_lazy)) <= 1e-12

        diam = 0
        columns = part.bumps.tocsc()
        for i in range(len(part.centers)):
            sup = np.nonzero(phi[:, i])[0]
            got_sup = columns.indices[columns.indptr[i]:columns.indptr[i + 1]]
            assert got_sup.tolist() == sup.tolist()
            diam = max(diam, int(dist[np.ix_(sup, sup)].max()))
        assert part.support_diameter == diam

    @settings(max_examples=40, deadline=None)
    @given(desc=small_spaces, L=st.integers(1, 3),
           p=st.sampled_from([1.5, 2.0, 3.0]), block=st.integers(1, 80))
    def test_chained_extensions_equal_one_sweep(self, desc, L, p, block):
        space = build_space(desc)
        top = space._largest_distance()
        with mock.patch.object(space_module, "_PAIR_CHUNK", block):
            part = make_partition(space, L, p=p)
            for r in (3 * L + 1, 3 * L + 4, math.inf):
                eps = part.variation(r)
                reach = max(part.variation_table)
                assert sorted(part.variation_table) == list(range(1, reach + 1))
                ref = reference_variation_table(part, reach)
                assert part.variation_table == ref
                assert eps == (ref[min(r, top)] if top else 0.0)


class TestVariationShell:
    @pytest.mark.parametrize("space", [
        build_space({"kind": "quadrant", "upper": 11, "name": "q12"}),
        torus_graph(10),
    ], ids=["quadrant", "graph"])
    def test_a_lazy_extension_sweeps_only_the_new_shell(self, monkeypatch,
                                                        space):
        ids = np.arange(space.n)
        dist = np.triu(space.pairwise(ids, ids), 1)
        received = []
        sweep = type(space).pairs_within

        def counted(self, r, above=0):
            for xs, ys, d in sweep(self, r, above):
                received.append(d)
                yield xs, ys, d

        monkeypatch.setattr(type(space), "pairs_within", counted)

        def assert_swept(lo, hi):
            d = np.concatenate(received)
            assert len(d) == np.count_nonzero((dist > lo) & (dist <= hi))
            assert lo < d.min() and d.max() == hi
            received.clear()

        calls = count_calls(monkeypatch, type(space), ("pairs_within",))
        part = make_partition(space, 2)
        assert_swept(0, 6)
        for lo, hi in ((6, 7), (7, 9)):
            part.variation(hi)
            part.variation(hi - 0.5)            # in the table: no sweep
            assert_swept(lo, hi)
        assert calls == [("pairs_within", 6, ("above", 0)),
                         ("pairs_within", 7, ("above", 6)),
                         ("pairs_within", 9, ("above", 7))]
        assert part.variation_table == reference_variation_table(part, 9)


class TestVariationRadii:
    @pytest.mark.parametrize("L", [2, 3])
    def test_radii_past_the_largest_distance(self, L):
        quad = build_space({"kind": "quadrant", "upper": 7, "name": "q8"})
        part = make_partition(quad, L)
        top = 7                           # the linf distance of the corners
        eps = part.variation(top)
        keys = list(range(1, max(3 * L, top) + 1))
        assert sorted(part.variation_table) == keys
        for r in (top + 0.5, 200000, 1e300, math.inf):
            assert part.variation(r) == eps
        assert sorted(part.variation_table) == keys
        assert eps == reference_variation_table(part, top)[top]
        assert part.variation(-math.inf) == part.variation(0.5) == 0.0

    def test_nan_radius_rejected(self):
        part = make_partition(interval(10, "n10"), 2)
        with pytest.raises(OperatorError, match="variation radius must be a number"):
            part.variation(math.nan)


class TestSweepMemory:
    @pytest.mark.parametrize("L", [1, 3])
    def test_peak_stays_far_below_a_dense_distance_matrix(self, L):
        # about 0.4 M pairs within 9; one n by n int64 matrix is 42 MB, and
        # at scale 1 every point is a center
        quad = build_space({"kind": "quadrant", "upper": 47, "name": "q48"})
        tracemalloc.start()
        try:
            part = make_partition(quad, L)
            part.variation(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(part.variation_table) == list(range(1, 11))
        assert peak < quad.n ** 2 * 8 / 4


def dense_phi(part):
    phi = np.zeros((part.space.n, len(part.centers)))
    for x, f in enumerate(part.point_funcs):
        for i, v in f.items():
            phi[x, i] = v
    return phi


def dense_weighted_sums(part, locals_, A, k):
    """Plain and commutator sums from dense diagonal products."""
    phi = dense_phi(part)
    plain, comm = 0.0, 0.0
    for i, B in enumerate(locals_):
        lead = np.kron(np.diag(phi[:, i] ** (part.p - 1.0)), np.eye(k))
        right = np.kron(np.diag(phi[:, i]), np.eye(k))
        b, a = B.to_dense(), A.to_dense()
        plain = plain + lead @ b @ right
        comm = comm + lead @ b @ (right @ a - a @ right)
    return plain, comm


class TestDenseReference:
    def test_distinct_locals_per_center(self):
        sp = build_space({"kind": "quadrant", "upper": 6, "name": "q7"})
        rng = np.random.default_rng(211)
        for p in (1.5, 2.0, 3.0):
            part = make_partition(sp, 2, p=p)
            locals_ = [random_band(sp, 1, rng) for _ in part.centers]
            A = random_band(sp, 1, rng, density=0.8)
            plain, comm = dense_weighted_sums(part, locals_, A, 1)
            op, _ = weighted_sum(part, locals_, mode="plain", M=1.0)
            assert np.max(np.abs(op.to_dense() - plain)) <= 1e-13
            op, _ = weighted_sum(part, locals_, mode="commutator", A=A, M=1.0)
            assert np.max(np.abs(op.to_dense() - comm)) <= 1e-13

    def test_block_dim_two(self):
        sp = interval(24, "n24")
        rng = np.random.default_rng(223)
        for p in (1.5, 2.0, 3.0):
            part = make_partition(sp, 3, p=p)
            A = random_band(sp, 2, rng, block_dim=2)
            # the average is the plain sum with A as every local operator
            ref, _ = dense_weighted_sums(part, [A] * len(part.centers), A, 2)
            M = average(A, part)
            assert M.block_dim == 2
            assert np.max(np.abs(M.to_dense() - ref)) <= 1e-13

            locals_ = [random_band(sp, 1, rng, block_dim=2)
                       for _ in part.centers]
            plain, comm = dense_weighted_sums(part, locals_, A, 2)
            op, _ = weighted_sum(part, locals_, mode="plain", M=1.0)
            assert op.block_dim == 2
            assert np.max(np.abs(op.to_dense() - plain)) <= 1e-13
            op, _ = weighted_sum(part, locals_, mode="commutator", A=A, M=1.0)
            assert np.max(np.abs(op.to_dense() - comm)) <= 1e-13


def reference_row_sums(mat):
    """The loop partition once used for CSR row sums, kept as an oracle.

    Each row's stored values are added one by one, in storage order, from 0.
    """
    counts = np.diff(mat.indptr)
    total = np.zeros(mat.shape[0])
    rows = np.arange(mat.shape[0])
    for j in range(counts.max(initial=0)):
        rows = rows[counts[rows] > j]
        total[rows] += mat.data[mat.indptr[rows] + j]
    return total


@st.composite
def csr_matrices(draw):
    """CSR matrices with empty rows, unsorted indices and spread magnitudes."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = rng.integers(0, n + 1, size=m) * (rng.random(m) > 0.3)
    indices = np.concatenate([rng.permutation(n)[:c] for c in counts] + [[]])
    data = rng.standard_normal(len(indices)) * 10.0 ** rng.integers(-8, 9, len(indices))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return csr_matrix((data, indices.astype(np.int64), indptr), shape=(m, n))


class TestRowSums:
    @settings(max_examples=200, deadline=None)
    @given(csr_matrices())
    def test_matvec_with_ones_is_the_row_loop(self, mat):
        got = mat @ np.ones(mat.shape[1])
        assert got.tobytes() == reference_row_sums(mat).tobytes()


def reference_weighted_sum(part, locals_, mode, A=None):
    """The per-center loop weighted_sum once ran, kept as an oracle.

    Plain mode scales each center's masked entries of B_i in place;
    commutator mode multiplies one CSR pair per center.  The terms of all
    centers are then stably sorted by (row, col), so that csr_matrix adds
    duplicates in center order.
    """
    space, k = part.space, locals_[0].block_dim
    nk = space.n * k

    def scaled(B, keep, factor):
        r, c, v = _unfold(B.rows[keep], B.cols[keep],
                          B.blocks[keep] * factor[keep][:, None, None])
        return csr_matrix((v, (r, c)), shape=(nk, nk))

    columns = part.bumps.tocsc()
    terms = []
    for i, B in enumerate(locals_):
        sup = columns.indices[columns.indptr[i]:columns.indptr[i + 1]]
        vals = columns.data[columns.indptr[i]:columns.indptr[i + 1]]
        phi, lead = np.zeros(space.n), np.zeros(space.n)
        phi[sup] = vals
        lead[sup] = vals ** (part.p - 1.0)
        if mode == "plain":
            keep = (phi[B.rows] != 0) & (phi[B.cols] != 0)
            rows, cols = B.rows[keep], B.cols[keep]
            terms.append(_unfold(rows, cols, B.blocks[keep]
                                 * lead[rows][:, None, None]
                                 * phi[cols][:, None, None]))
        else:
            jump = phi[A.rows] - phi[A.cols]
            prod = (scaled(B, phi[B.rows] != 0, lead[B.rows])
                    @ scaled(A, jump != 0, jump)).tocoo()
            terms.append((prod.row, prod.col, prod.data))
    r, c, v = (np.concatenate(t) for t in zip(*terms))
    order = np.lexsort((c, r))
    total = csr_matrix((v[order], (r[order], c[order])), shape=(nk, nk))
    return _from_csr(space, total, k, locals_[0].p)


def line_metric(gaps):
    """Explicit space of points on a line with the given positive gaps."""
    pos = np.concatenate(([0], np.cumsum(gaps)))
    return {"kind": "explicit",
            "matrix": np.abs(pos[:, None] - pos[None, :]).tolist()}


# every space kind, at most about 50 points
tiny_spaces = st.one_of(
    st.builds(lambda u: {"kind": "n-window", "upper": u}, st.integers(0, 16)),
    st.builds(lambda lo, hi, norm: {"kind": "zn-window", "lower": lo,
                                    "upper": hi, "norm": norm},
              st.lists(st.integers(-3, 0), min_size=2, max_size=2),
              st.lists(st.integers(0, 3), min_size=2, max_size=2),
              st.sampled_from(["linf", "l1", "l2"])),
    st.builds(lambda hi, norm: {"kind": "quadrant", "upper": hi, "norm": norm},
              st.lists(st.integers(0, 5), min_size=2, max_size=2),
              st.sampled_from(["linf", "l1", "l2"])),
    st.builds(graph_descriptor, st.integers(2, 16),
              st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                       max_size=6)),
    st.builds(lambda mods, cross: {"kind": "box-cycles", "moduli": mods,
                                   "cross_distance": cross},
              st.lists(st.integers(3, 7), min_size=1, max_size=2),
              st.integers(3, 8)),
    st.builds(line_metric, st.lists(st.integers(1, 3), min_size=0, max_size=12)),
)


def same_entries(op, ref):
    return (op.rows.tobytes() == ref.rows.tobytes()
            and op.cols.tobytes() == ref.cols.tobytes()
            and op.blocks.tobytes() == ref.blocks.tobytes())


class TestOneProduct:
    @settings(max_examples=40, deadline=None)
    @given(desc=tiny_spaces, L=st.integers(1, 3),
           p=st.sampled_from([1.5, 2.0, 3.0]), k=st.integers(1, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_per_center_loop(self, desc, L, p, k, seed):
        space = build_space(desc)
        rng = np.random.default_rng(seed)
        part = make_partition(space, L, p=p)
        # distinct locals whose supports overlap from center to center
        locals_ = [random_band(space, 2, rng, block_dim=k) for _ in part.centers]
        A = random_band(space, 1, rng, density=0.7, block_dim=k)
        ident = identity(space, block_dim=k)
        plain, comm = dense_weighted_sums(part, locals_, A, k)

        op, _ = weighted_sum(part, locals_, mode="plain", M=1.0)
        assert same_entries(op, reference_weighted_sum(part, locals_, "plain"))
        assert np.max(np.abs(op.to_dense() - plain), initial=0.0) <= 1e-13

        idents = [ident] * len(part.centers)
        op, _ = weighted_sum(part, idents, mode="commutator", A=A, M=1.0)
        ref = reference_weighted_sum(part, idents, "commutator", A)
        assert same_entries(op, ref)

        op, _ = weighted_sum(part, locals_, mode="commutator", A=A, M=1.0)
        assert np.max(np.abs(op.to_dense() - comm), initial=0.0) <= 1e-13

        diag = multiplier(space, lambda x: (1.0 + x % 3) * np.eye(k),
                          block_dim=k)
        op, _ = weighted_sum(part, locals_, mode="commutator", A=diag, M=1.0)
        assert op.nnz == 0


def reference_sparsify_greedy(space, mu, m, diameter_bound):
    """The per-point greedy scan sparsify once ran, kept as an oracle.

    Each step sums the available mass of every candidate's ball with numpy
    and takes the first strict maximum.
    """
    rho = diameter_bound // 2
    available = np.ones(space.n, dtype=bool)
    balls = [space.ball(x, rho) for x in range(space.n)]
    parts = []
    while True:
        best_mass, best_x = 0.0, None
        for x in range(space.n):
            if not available[x] or mu[x] == 0:
                continue
            ball = balls[x]
            mass = float(mu[ball[available[ball]]].sum())
            if mass > best_mass:
                best_mass, best_x = mass, x
        if best_x is None or best_mass == 0.0:
            break
        part = [int(y) for y in balls[best_x] if available[y] and mu[y] > 0]
        parts.append(sorted(part))
        ids = np.asarray(part, dtype=np.int64)
        dists = space.pairwise(np.arange(space.n), ids).min(axis=1)
        available &= dists > m - 1
    return parts


class TestGreedyMatVec:
    @settings(max_examples=60, deadline=None)
    @given(desc=small_spaces, m=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_integer_measures_give_the_reference_parts(self, desc, m, seed):
        space = build_space(desc)
        rng = np.random.default_rng(seed)
        mu = rng.integers(0, 4, space.n).astype(np.float64)
        mu[rng.integers(space.n)] += 1.0
        diameter = BlockSparsifierModel().block_length(m)
        res = partition._sparsify_greedy(space, mu, m, diameter)
        assert res.parts == reference_sparsify_greedy(space, mu, m, diameter)
        partition._validate_sparsification(space, res)

    @settings(max_examples=60, deadline=None)
    @given(desc=small_spaces, m=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_float_measures_give_valid_parts(self, desc, m, seed):
        space = build_space(desc)
        rng = np.random.default_rng(seed)
        mu = rng.random(space.n) * (rng.random(space.n) > 0.2)
        mu[rng.integers(space.n)] += 0.5
        diameter = BlockSparsifierModel().block_length(m)
        res = partition._sparsify_greedy(space, mu, m, diameter)
        partition._validate_sparsification(space, res)
        assert res.diameter_bound <= 2 * (diameter // 2)
