import sys
import threading
from contextlib import ExitStack
from dataclasses import asdict
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import eigvals_banded, get_lapack_funcs
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix, issparse

from bandlim import lowernorm, operators
from bandlim.space import build_space
from bandlim.operators import (
    BandOperator, OperatorError, from_triplets, identity, multiplier, compose,
    add, scale, subtract, adjoint, schur_bound, norm2, apply_operator,
    gram_band, least_eigenvalue,
)
from bandlim.lowernorm import (
    nu, nu_s, localization_check, essential_nu, witness_cascade,
)
from bandlim.partition import BlockSparsifierModel
from bandlim.serialize import report_dumps

from conftest import (
    nu_brute, random_band, reference_gram_band, reference_witness,
    shift_operator, tridiagonal,
)


def window(n, name):
    half = n // 2
    return build_space({"kind": "zn-window", "lower": [-half], "upper": [half],
                        "name": name})


def three_i_minus_tridiag(space):
    return subtract(scale(identity(space), 3.0), tridiagonal(space))


def dense_route():
    """Send every p = 2 restriction to the dense route."""
    return mock.patch.object(lowernorm, "_DENSE_MAX", 10 ** 9)


def banded_route():
    """Send every p = 2 restriction to the banded route."""
    return mock.patch.object(lowernorm, "_DENSE_MAX", 0)


class TestNu:
    def test_identity_all_p(self, nat_window):
        I = identity(nat_window)
        F = range(nat_window.n)
        for p in (1.5, 2.0, 3.0):
            rep = nu(I, F, p=p)
            assert abs(rep.value - 1.0) < 1e-6
        assert nu(I, F, p=2.0).method == "exact-svd"
        with banded_route():
            rep = nu(I, F, p=2.0)
        assert rep.method == "banded-gram" and abs(rep.value - 1.0) < 1e-6

    def test_shift_isometry_on_interior_columns(self, nat_window):
        S = shift_operator(nat_window)
        F = [x for x in range(nat_window.n) if nat_window.margin(x) >= 1]
        rep = nu(S, F, p=2.0)
        assert abs(rep.value - 1.0) < 1e-10

    def test_three_i_minus_tridiag_spectral_value(self):
        sp = build_space({"kind": "zn-window", "lower": [-50], "upper": [50],
                          "name": "z101"})
        A = three_i_minus_tridiag(sp)
        rep = nu(A, range(sp.n), p=2.0)
        oracle = np.linalg.svd(A.to_dense(), compute_uv=False).min()
        assert abs(oracle - (3 - 2 * np.cos(np.pi / 102))) < 1e-12
        assert abs(rep.value - oracle) < 1e-10

    def test_empty_subset_rejected(self, nat_window):
        I = identity(nat_window)
        for call in (lambda: nu(I, [], p=2.0), lambda: nu_s(I, [], 1),
                     lambda: nu_brute(I, [], 2.0, samples=100)):
            with pytest.raises(OperatorError, match="nonempty column set"):
                call()

    def test_witness_attains_value(self, quad_window):
        rng = np.random.default_rng(61)
        from bandlim.operators import apply_operator
        for p in (1.5, 2.0, 3.0):
            A = random_band(quad_window, 1, rng)
            F = list(range(0, quad_window.n, 2))
            rep = nu(A, F, p=p)
            got = apply_operator(A, rep.witness).norm() / rep.witness.norm()
            assert got <= rep.value + rep.tolerance

    def test_zero_column_gives_zero(self, nat_window):
        A = from_triplets(nat_window, [(0, 0, 1.0)])
        rep = nu(A, [5], p=2.0)
        assert rep.value == 0.0

    def test_iterative_matches_dense(self):
        sp = build_space({"kind": "n-window", "upper": 700, "name": "n701"})
        A = subtract(shift_operator(sp), identity(sp))
        F = list(range(1, 600))
        dense_val = np.linalg.svd(
            A.to_dense()[:, F], compute_uv=False).min()
        rep = nu(A, F, p=2.0)
        assert rep.method == "banded-gram"
        assert abs(rep.value - dense_val) < 1e-9
        assert rep.value - rep.tolerance <= dense_val <= rep.value + 1e-12


class TestColumnSet:
    """Every lower-norm routine reads F as a set of point ids of the space."""

    def operator(self):
        return three_i_minus_tridiag(build_space(
            {"kind": "n-window", "upper": 9, "name": "n10set"}))

    def test_repeated_id_counts_once(self):
        A = self.operator()
        rep, once = nu(A, [3, 3, 4]), nu(A, [3, 4])
        assert abs(rep.value - np.sqrt(5.0)) < 1e-12
        assert rep.subset == once.subset == (3, 4)
        assert body(rep) == body(once)

    @pytest.mark.parametrize("x", [-2, 10])
    def test_id_outside_the_space_raises(self, x):
        A = self.operator()
        with pytest.raises(OperatorError, match=f"point id {x} outside"):
            nu(A, [x])
        with pytest.raises(OperatorError, match=f"point id {x} outside"):
            nu(A, [3, x])
        with pytest.raises(OperatorError, match=f"point id {x} outside"):
            nu_brute(A, [x], 2.0, samples=100)
        with pytest.raises(OperatorError, match=f"point id {x} outside"):
            nu_s(A, [x], 1)
        with pytest.raises(OperatorError, match=f"point id {x} outside"):
            nu_s(A, [3, x], 1)

    @pytest.mark.parametrize("F", [
        {3, 4}, frozenset({4, 3}), (4, 3), range(3, 5),
        np.array([4, 3], dtype=np.int32), np.array([4, 3, 4]),
    ])
    def test_every_iterable_is_the_sorted_list(self, F):
        A = self.operator()
        assert body(nu(A, F)) == body(nu(A, [4, 3]))
        assert body(nu(A, F, p=3.0)) == body(nu(A, [3, 4], p=3.0))

    @pytest.mark.parametrize("F", [
        [True, False], np.array([False, True, True]), [1.5], [3.0, 4.0],
        np.array([3.0, 4.0]), np.array([[3, 4]]), ["3"],
    ])
    def test_ids_that_are_not_integers_raise(self, F):
        # a boolean mask or fractional ids once read as the ids they cast to
        A = self.operator()
        for call in (lambda: nu(A, F), lambda: nu(A, F, p=3.0),
                     lambda: nu_s(A, F, 1),
                     lambda: localization_check(A, 0.5, BlockSparsifierModel(),
                                                [range(5), F])):
            with pytest.raises(OperatorError, match="ids must be integers"):
                call()

    def test_brute_oracle_drops_repeats(self):
        A = self.operator()
        assert nu_brute(A, [4, 3, 3], 2.0, samples=400)[0] \
            == nu_brute(A, [3, 4], 2.0, samples=400)[0]


class TestNuIdentities:
    def test_inverse_norm_identity(self):
        sp = build_space({"kind": "n-window", "upper": 39, "name": "n40"})
        rng = np.random.default_rng(67)
        for _ in range(20):
            A = add(scale(identity(sp), 4.0), random_band(sp, 1, rng, density=0.7))
            dense = A.to_dense()
            inv = np.linalg.inv(dense)
            trip = [(i, j, inv[i, j]) for i in range(sp.n) for j in range(sp.n)
                    if inv[i, j] != 0]
            Ainv = from_triplets(sp, trip)
            lhs = nu(A, range(sp.n), p=2.0).value
            rhs = 1.0 / norm2(Ainv)
            assert abs(lhs - rhs) < 1e-8

    def test_lipschitz_in_schur_bound(self, nat_window):
        rng = np.random.default_rng(71)
        F = range(nat_window.n)
        for _ in range(20):
            A = random_band(nat_window, 1, rng)
            B = random_band(nat_window, 1, rng)
            gap = abs(nu(A, F).value - nu(B, F).value)
            assert gap <= schur_bound(subtract(A, B), 2.0) + 1e-10

    def test_optimizer_matches_svd_at_p2(self, nat_window):
        rng = np.random.default_rng(73)
        from bandlim.lowernorm import _restricted, _nu_descent
        for _ in range(5):
            A = random_band(nat_window, 1, rng, density=0.8)
            F = sorted(rng.choice(nat_window.n, size=20, replace=False))
            Fs, _, sub = _restricted(A, F)
            val, _ = _nu_descent(A, Fs, sub, 2.0)
            exact = nu(A, F, p=2.0).value
            assert abs(val - exact) < 1e-6

    def test_descent_survives_a_negated_warm_start(self):
        # at p = 2 the first step returns the smallest right singular vector
        # of the restriction; a warm start of minus that vector once met
        # v + cand = 0 and damped by 0 / 0
        sp = build_space({"kind": "n-window", "upper": 29, "name": "n30"})
        A = random_band(sp, 1, np.random.default_rng(73), density=0.8)
        F = list(range(20))
        Fs, _, sub = lowernorm._restricted(A, F)
        sigma_min = lowernorm._sigma_min

        def negated(sub):
            val, _, *rest = sigma_min(sub)
            step = np.linalg.svd(sub, full_matrices=False)[2][-1].conj()
            return (val, -step, *rest)

        with mock.patch.object(lowernorm, "_sigma_min", negated):
            val, _ = lowernorm._nu_descent(A, Fs, sub, 2.0)
        assert abs(val - nu(A, F).value) < 1e-6

    def test_brute_oracle_brackets_optimizer(self):
        sp = build_space({"kind": "n-window", "upper": 9, "name": "n10"})
        rng = np.random.default_rng(79)
        for p in (1.5, 3.0):
            A = random_band(sp, 1, rng, density=1.0, real=True)
            F = [3, 4, 5]
            rep = nu(A, F, p=p)
            brute, _ = nu_brute(A, F, p, samples=10 ** 6)
            assert rep.value <= brute + 1e-6
            assert abs(rep.value - brute) <= 1e-2


class TestNuS:
    def test_diagonal_single_point_witness(self, nat_window):
        D = multiplier(nat_window, lambda x: 1.0 if x % 2 else 2.0)
        for s in (0, 3, 10):
            rep = nu_s(D, range(nat_window.n), s)
            assert abs(rep.value - 1.0) < 1e-12

    def test_identity_zero_scale(self, nat_window):
        rep = nu_s(identity(nat_window), range(nat_window.n), 0)
        assert abs(rep.value - 1.0) < 1e-12
        assert rep.support_diameter == 0.0

    def test_monotone_in_scale(self):
        sp = build_space({"kind": "zn-window", "lower": [-100], "upper": [100],
                          "name": "z201"})
        A = three_i_minus_tridiag(sp)
        F = range(sp.n)
        v10 = nu_s(A, F, 10).value
        v50 = nu_s(A, F, 50).value
        assert v50 <= v10 + 1e-12

    def test_dominates_nu(self, quad_window):
        rng = np.random.default_rng(83)
        A = random_band(quad_window, 1, rng)
        F = list(range(0, quad_window.n, 3))
        base = nu(A, F).value
        for s in (1, 2, 5):
            assert nu_s(A, F, s).value >= base - 1e-12

    def test_thread_count_invariance(self, nat_window):
        rng = np.random.default_rng(89)
        A = random_band(nat_window, 1, rng)
        F = range(nat_window.n)
        a = nu_s(A, F, 4, threads=1)
        b = nu_s(A, F, 4, threads=4)
        assert a.value == b.value and a.ball_center == b.ball_center


class TestLocalization:
    def test_interval_sparsifier_verified(self):
        sp = build_space({"kind": "zn-window", "lower": [-40], "upper": [40],
                          "name": "z81"})
        A = three_i_minus_tridiag(sp)
        A = scale(A, 1.0 / schur_bound(A, 2.0) * 2.0)     # norm bound 2
        family = [range(i, i + ln) for ln in (5, 17, 40)
                  for i in range(0, sp.n - ln, 7)]
        rep = localization_check(A, 0.1, BlockSparsifierModel(), family)
        assert rep.verified
        assert rep.worst_gap <= 0.1

    def test_diagonal_zero_gap(self, nat_window):
        D = multiplier(nat_window, lambda x: 1.0 + (x % 5))
        family = [range(0, 30), range(10, 45)]
        rep = localization_check(D, 0.05, BlockSparsifierModel(), family)
        assert rep.verified and rep.worst_gap <= 1e-12

    def test_random_prop1(self, nat_window):
        rng = np.random.default_rng(97)
        A = random_band(nat_window, 1, rng, density=0.9)
        family = [range(i, i + 12) for i in range(0, 39, 3)]
        rep = localization_check(A, 0.05, BlockSparsifierModel(), family)
        assert rep.verified

    def test_unreachable_delta_rejected(self, nat_window):
        A = tridiagonal(nat_window)
        with pytest.raises(OperatorError):
            localization_check(A, 0.0, BlockSparsifierModel(), [])

    def test_empty_family_rejected(self, nat_window):
        # no column set, nothing verified: refused, not reported as verified
        A = three_i_minus_tridiag(nat_window)
        for family in ([], iter([])):
            with pytest.raises(OperatorError, match="family"):
                localization_check(A, 0.5, BlockSparsifierModel(), family)


class TestEssentialNu:
    def test_identity_profile_flat_one(self, nat_window):
        prof = essential_nu(identity(nat_window), [2, 5, 10])
        assert all(abs(rep.value - 1.0) < 1e-12 for _, rep in prof)

    def test_shift_minus_one_tends_to_zero(self):
        sp = build_space({"kind": "n-window", "upper": 300, "name": "n301"})
        A = subtract(shift_operator(sp), identity(sp))
        prof = essential_nu(A, [10, 60, 120])
        vals = [rep.value for _, rep in prof]
        oracle = []
        dense = A.to_dense()
        inter = [x for x in range(sp.n) if sp.margin(x) >= 1]
        crow = sp.row(sp.center)
        for r in (10, 60, 120):
            F = [x for x in inter if crow[x] > r]
            oracle.append(np.linalg.svd(dense[:, F], compute_uv=False).min())
        assert np.allclose(vals, oracle, atol=1e-10)
        assert vals[0] < 0.02

    def test_three_i_minus_tridiag_flat(self):
        sp = build_space({"kind": "zn-window", "lower": [-60], "upper": [60],
                          "name": "z121"})
        A = three_i_minus_tridiag(sp)
        prof = essential_nu(A, [5, 15, 30])
        vals = [rep.value for _, rep in prof]
        assert all(v > 0.9 for v in vals)
        assert max(vals) - min(vals) < 0.12

    def test_exhausted_exclusion_rejected(self, nat_window):
        with pytest.raises(OperatorError, match="exhausts"):
            essential_nu(identity(nat_window), [999])


class TestWitnessCascade:
    def test_identity_every_stage_one(self, nat_window):
        out = witness_cascade(identity(nat_window), None, [2, 5, 11])
        assert [round(v, 12) for _, _, v in out] == [1.0, 1.0, 1.0]

    def test_converges_to_unique_minimum(self, nat_window):
        D = multiplier(nat_window, lambda x: 0.5 if x == 17 else 2.0 + x % 3)
        out = witness_cascade(D, None, [2, 5, 11])
        centers = [c for c, _, _ in out]
        assert all(abs(v - 0.5) < 1e-12 for _, _, v in out)
        last_center, last_s, _ = out[-1]
        assert abs(last_center - 17) <= last_s

    def test_budget_envelope(self):
        sp = build_space({"kind": "zn-window", "lower": [-80], "upper": [80],
                          "name": "z161"})
        A = three_i_minus_tridiag(sp)
        deltas = [0.5, 0.25, 0.125]
        out = witness_cascade(A, deltas, [7, 15, 31])
        base = nu(A, range(sp.n)).value
        for _, _, v in out:
            assert v <= base + sum(deltas) + 1e-9

    def test_schedule_validation(self, nat_window):
        I = identity(nat_window)
        with pytest.raises(OperatorError):
            witness_cascade(I, None, [5, 9])       # not more than doubling
        with pytest.raises(OperatorError):
            witness_cascade(I, [0.5], [2, 5])      # length mismatch


def nu_s_reference(A, F, s, p=2.0):
    """nu over each distinct ball restriction, first strict minimum by center."""
    F = sorted(int(x) for x in F)
    Fset = set(F)
    seen, best = set(), None
    for x in F:
        ball = frozenset(int(y) for y in A.space.ball(x, s) if y in Fset)
        if ball in seen:
            continue
        seen.add(ball)
        rep = nu(A, sorted(ball), p=p)
        if best is None or rep.value < best[1].value:
            best = (x, rep)
    x, rep = best
    rep.ball_center = x
    return rep


def body(rep):
    return report_dumps(rep.to_json())


def quotient(A, rep):
    return apply_operator(A, rep.witness).norm() / rep.witness.norm()


def path_graph(n, extra):
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(u % n, v % n) for u, v in extra if u % n != v % n]
    return {"kind": "graph", "n": n, "edges": edges}


nu_s_spaces = st.one_of(
    st.builds(lambda u: {"kind": "n-window", "upper": u}, st.integers(0, 30)),
    st.builds(lambda lo, hi: {"kind": "zn-window", "lower": [lo], "upper": [hi]},
              st.integers(-15, 0), st.integers(0, 15)),
    st.builds(lambda lo, hi, norm: {"kind": "zn-window", "lower": lo,
                                    "upper": hi, "norm": norm},
              st.lists(st.integers(-3, 0), min_size=2, max_size=2),
              st.lists(st.integers(0, 3), min_size=2, max_size=2),
              st.sampled_from(["linf", "l1", "l2"])),
    st.builds(lambda hi, norm: {"kind": "quadrant", "upper": hi, "norm": norm},
              st.lists(st.integers(0, 6), min_size=2, max_size=2),
              st.sampled_from(["linf", "l1", "l2"])),
    st.builds(path_graph, st.integers(2, 20),
              st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)),
                       max_size=6)),
)


class TestNuSEquivalence:
    """nu_s against the per-ball nu loop: equal report bodies."""

    @settings(max_examples=60, deadline=None)
    @given(desc=nu_s_spaces, seed=st.integers(0, 2 ** 32 - 1),
           block_dim=st.sampled_from([1, 2]), s=st.integers(0, 4),
           prop=st.integers(0, 2), keep=st.floats(0.3, 1.0))
    def test_matches_reference_loop(self, desc, seed, block_dim, s, prop, keep):
        sp = build_space(desc)
        rng = np.random.default_rng(seed)
        A = random_band(sp, prop, rng, density=0.6, block_dim=block_dim)
        F = [x for x in range(sp.n) if rng.random() < keep] or [0]
        rep = nu_s(A, F, s, threads=2)
        assert body(rep) == body(nu_s_reference(A, F, s))
        whole = nu(A, F)
        assert rep.value >= whole.value - whole.tolerance

    @pytest.mark.parametrize("eps", [0.0, 1e-14, -1e-14])
    def test_translation_invariant_ties(self, eps):
        # interior balls are bitwise equal restrictions, so their values tie;
        # a 1e-14 change of one entry makes one ball win by a near tie
        sp = build_space({"kind": "zn-window", "lower": [-60], "upper": [60],
                          "name": "z121"})
        trip = [(x, x, 3.0 + (eps if x == 70 else 0.0)) for x in range(sp.n)]
        trip += [(x, x + 1, -1.0) for x in range(sp.n - 1)]
        trip += [(x + 1, x, -1.0) for x in range(sp.n - 1)]
        A = from_triplets(sp, trip)
        for s in (0, 2, 4):
            assert body(nu_s(A, range(sp.n), s)) == \
                body(nu_s_reference(A, range(sp.n), s))

    def test_plane_translation_invariant(self):
        sp = build_space({"kind": "zn-window", "lower": [-6, -6],
                          "upper": [6, 6], "name": "z13x13"})
        trip = []
        for x in range(sp.n):
            trip.append((x, x, 4.5 + 0.5j))
            for y in sp.ball(x, 1):
                if int(y) != x:
                    trip.append((x, int(y), -0.5))
        A = from_triplets(sp, trip)
        for s in (1, 3):
            assert body(nu_s(A, range(sp.n), s, threads=2)) == \
                body(nu_s_reference(A, range(sp.n), s))

    def test_p3_goes_through_nu(self):
        sp = build_space({"kind": "n-window", "upper": 7, "name": "n8"})
        A = random_band(sp, 1, np.random.default_rng(101), density=0.8)
        assert body(nu_s(A, range(sp.n), 1, p=3.0, threads=2)) == \
            body(nu_s_reference(A, range(sp.n), 1, p=3.0))

    def test_balls_on_both_sides_of_dense_limit(self):
        # s = 40 on 100 points: balls of 41 to 81 columns with Gram band 2, so
        # the screen and nu's banded route meet in one minimum
        sp = build_space({"kind": "n-window", "upper": 99, "name": "n100"})
        A = three_i_minus_tridiag(sp)
        B = add(A, random_band(sp, 1, np.random.default_rng(131), density=0.3))
        for op in (A, B):
            balls = {tuple(sorted(int(y) for y in sp.ball(x, 40)))
                     for x in range(sp.n)}
            routes = {issparse(lowernorm._restricted(op, ball)[2])
                      for ball in balls}
            assert routes == {False, True}
            rep = nu_s(op, range(sp.n), 40, threads=2)
            assert body(rep) == body(nu_s_reference(op, range(sp.n), 40))
        assert nu_s(A, range(sp.n), 40).method == "banded-gram"


def distinct_balls(A, F, s):
    """The distinct restriction sets F & B(x; s), in ascending center order."""
    Fset = set(int(x) for x in F)
    balls = []
    for x in sorted(Fset):
        ball = [int(y) for y in A.space.ball(x, s) if int(y) in Fset]
        if ball not in balls:
            balls.append(ball)
    return [np.array(ball, dtype=np.int64) for ball in balls]


class TestBatchedScreen:
    """The screen's one-gather stacks against ``_restricted`` set by set."""

    @settings(max_examples=60, deadline=None)
    @given(desc=nu_s_spaces, seed=st.integers(0, 2 ** 32 - 1),
           block_dim=st.sampled_from([1, 2]), real=st.booleans(),
           s=st.integers(0, 4), prop=st.integers(0, 2),
           keep=st.floats(0.1, 1.0), density=st.sampled_from([0.15, 0.6]),
           p=st.sampled_from([2.0, 3.0]))
    def test_stacks_are_the_restrictions(self, desc, seed, block_dim, real, s,
                                         prop, keep, density, p):
        sp = build_space(desc)
        rng = np.random.default_rng(seed)
        A = random_band(sp, prop, rng, density=density, block_dim=block_dim,
                        real=real)
        F = [x for x in range(sp.n) if rng.random() < keep] or [0]
        balls = distinct_balls(A, F, s)
        value, stacked, direct, gathered = lowernorm._screen(A, balls, p)
        subs = [lowernorm._restricted(A, ball)[2] for ball in balls]
        # every stacked ball, and every other one alone: the stacks of a
        # subset hold its restrictions only
        for jobs in (stacked, stacked[::2], stacked[1::2]):
            listed = []
            for idx, stack in lowernorm._stacked(gathered, jobs):
                for j, mat in zip(idx.tolist(), stack):
                    sub = subs[j]
                    assert not issparse(sub)
                    assert mat.shape == sub.shape and mat.dtype == sub.dtype
                    assert mat.tobytes() == sub.tobytes()
                    listed.append(j)
            assert sorted(listed) == jobs.tolist()
        kernel = np.flatnonzero(value == 0).tolist()
        assert kernel == [j for j, sub in enumerate(subs)
                          if sub.shape[0] < sub.shape[1]]
        assert np.all(np.isinf(np.delete(value, kernel)))
        assert direct == [j for j, sub in enumerate(subs) if j not in kernel
                          and (p != 2.0 or issparse(sub))]
        assert sorted(stacked.tolist() + kernel + direct) == \
            list(range(len(balls)))

    def test_kernel_and_both_routes_in_one_screen(self):
        # zero columns make kernel balls; s = 40 on 100 points gives balls on
        # both sides of the dense limit
        sp = build_space({"kind": "n-window", "upper": 99, "name": "n100"})
        A = from_triplets(sp, [(x, x, 3.0) for x in range(sp.n) if x % 10]
                          + [(x, x + 1, -1.0) for x in range(sp.n - 1)])
        balls = distinct_balls(A, range(sp.n), 40) + [np.array([0])]
        value, stacked, direct, gathered = lowernorm._screen(A, balls, 2.0)
        stacks = list(lowernorm._stacked(gathered, stacked))
        assert value[-1] == 0.0 and len(stacks) > 1 and direct
        for idx, stack in stacks:
            for j, mat in zip(idx.tolist(), stack):
                assert mat.tobytes() == \
                    lowernorm._restricted(A, balls[j])[2].tobytes()


pruned_spaces = st.one_of(
    st.builds(lambda u: {"kind": "n-window", "upper": u}, st.integers(0, 40)),
    st.builds(lambda hi, norm: {"kind": "quadrant", "upper": hi, "norm": norm},
              st.lists(st.integers(0, 6), min_size=2, max_size=2),
              st.sampled_from(["linf", "l1", "l2"])),
    st.builds(path_graph, st.integers(2, 20),
              st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)),
                       max_size=6)),
)


def bump_tridiagonal(n):
    """3 + 0.04 exp(-x / 30) on the diagonal of an n-window, 0.9 beside it."""
    sp = build_space({"kind": "n-window", "upper": n - 1, "name": f"n{n}"})
    trip = [(x, x, 3.0 + 0.04 * np.exp(-x / 30.0)) for x in range(n)]
    trip += [(x, x + 1, 0.9) for x in range(n - 1)]
    trip += [(x + 1, x, 0.9) for x in range(n - 1)]
    return from_triplets(sp, trip)


class TestPrunedScreen:
    """The batched Cholesky certificate that spares ``nu_s`` most SVDs."""

    @settings(max_examples=80, deadline=None)
    @given(desc=pruned_spaces, seed=st.integers(0, 2 ** 32 - 1),
           block_dim=st.sampled_from([1, 2]), real=st.booleans(),
           s=st.integers(0, 4), prop=st.integers(0, 2),
           density=st.sampled_from([0.3, 0.8]), pick=st.floats(0.0, 1.0),
           factor=st.sampled_from([0.0, 0.5, 1 - 1e-6, 1 - 1e-12, 1.0,
                                   1 + 1e-12, 1 + 1e-6, 2.0]))
    def test_pruned_balls_exceed_the_bound(self, desc, seed, block_dim, real,
                                           s, prop, density, pick, factor):
        sp = build_space(desc)
        A = random_band(sp, prop, np.random.default_rng(seed),
                        density=density, block_dim=block_dim, real=real)
        balls = distinct_balls(A, range(sp.n), s)
        _, stacked, _, gathered = lowernorm._screen(A, balls, 2.0)
        value = {}
        for idx, stack in lowernorm._stacked(gathered, stacked):
            value.update(zip(idx.tolist(), np.linalg.svd(
                stack, compute_uv=False).min(axis=1)))
        value = np.array([value[j] for j in stacked.tolist()])
        if len(value) == 0:
            return
        least = float(np.sort(value)[int(pick * (len(value) - 1))]) * factor
        pruned = lowernorm._pruned(gathered, stacked, least)
        assert np.all(value[pruned] > least)

    def test_most_balls_take_no_svd(self):
        # 210 distinct balls of up to 41 columns: the sample takes 15 SVDs
        # and the certificate rules out nearly all of the rest
        A = bump_tridiagonal(210)
        svd, taken = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            taken.append(1 if a.ndim == 2 else a.shape[0])
            return svd(a, *args, **kwargs)

        with mock.patch.object(np.linalg, "svd", spy):
            rep = nu_s(A, range(210), 20)
        assert sum(taken) <= 210 // 3
        assert body(rep) == body(nu_s_reference(A, range(210), 20))
        # a bound below every value prunes every ball
        _, stacked, _, gathered = lowernorm._screen(
            A, distinct_balls(A, range(210), 20), 2.0)
        assert lowernorm._pruned(gathered, stacked, 0.5).all()
        assert not lowernorm._pruned(gathered, stacked, 2.0).any()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_batched_factor_agrees_with_pbtrf(self, dtype):
        # Gram matrices of 1 to 12 columns and bands 0 to 4 in one strip,
        # shifted 0.1 % below and above their least eigenvalue
        rng = np.random.default_rng(139)
        pbtrf = get_lapack_funcs("pbtrf", dtype=dtype)
        bands, want = [], []
        for m, w in [(1, 1), (5, 2), (12, 3), (9, 5), (12, 2), (7, 4)]:
            B = np.zeros((m + w, m), dtype=dtype)
            for j in range(m):
                B[j:j + w, j] = rng.standard_normal(w)
                if dtype == np.complex128:
                    B[j:j + w, j] += 1j * rng.standard_normal(w)
            ab = gram_band(B)
            lam = np.linalg.eigvalsh(B.conj().T @ B)[0]
            for tau in (0.999 * lam, 1.001 * lam):
                h = ab.copy()
                h[0] -= tau
                want.append(pbtrf(h.copy(), lower=1)[1] == 0)
                bands.append(h)
        got = lowernorm._factors(side_by_side(bands),
                                 [h.shape[1] for h in bands])
        assert got.tolist() == want and want == [True, False] * 6

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), band=st.integers(0, 70),
           complex_=st.booleans(),
           blocks=st.lists(st.tuples(st.integers(1, 74),
                                     st.sampled_from(["below", "above", "last"])),
                           min_size=1, max_size=12))
    @example(seed=5, band=40, complex_=False, blocks=[
        (9, "last"), (30, "above"), (74, "below"), (1, "above"),
        (50, "above"), (33, "last")])
    @example(seed=6, band=70, complex_=True, blocks=[
        (74, "above"), (74, "last"), (2, "below"), (1, "last")])
    def test_restarts_agree_with_pbtrf_per_matrix(self, seed, band, complex_,
                                                  blocks):
        # Gram matrices shifted 0.1 % below ("below") or above ("above")
        # their least eigenvalue, or below it with a negative last diagonal
        # entry ("last": the factorization fails at the last column); bands
        # of 32 and more run dpbtrf's blocked branch.  A dominant diagonal
        # entry of B keeps every Gram matrix well conditioned, so that the
        # shifts decide far above the rounding
        dtype = np.complex128 if complex_ else np.float64
        rng = np.random.default_rng(seed)
        mats = []
        for m, kind in blocks:
            B = np.zeros((m + band, m), dtype=dtype)
            for j in range(m):
                B[j:j + band + 1, j] = rng.standard_normal(band + 1)
                if complex_:
                    B[j:j + band + 1, j] += 1j * rng.standard_normal(band + 1)
                B[j, j] += 3.0
            h = gram_band(B)
            lam = np.linalg.eigvalsh(B.conj().T @ B)[0]
            h[0] -= 1.001 * lam if kind == "above" else 0.999 * lam
            if kind == "last":
                h[0, -1] = -1.0
            mats.append(h)
        strip = side_by_side(mats)
        pbtrf = get_lapack_funcs("pbtrf", dtype=dtype)
        want = []
        for h, (m, kind) in zip(mats, blocks):
            info = pbtrf(side_by_side([h], len(strip)), lower=1)[1]
            assert kind != "last" or info == m
            want.append(info == 0)
        got = lowernorm._factors(strip, [m for m, _ in blocks])
        assert got.tolist() == want

    def test_unproved_ball_factors_no_other(self):
        # an entry of 1e200 overflows the Gram matrix of the 4 balls holding
        # point 0, and pbtrf would carry its NaN on through every later
        # ball; every ball's value lies between 0.5 and 2
        sp = build_space({"kind": "n-window", "upper": 59, "name": "n60"})
        trip = [(x, x, 1e200 if x == 0 else 3.0) for x in range(60)]
        trip += [(x, x + 1, 0.9) for x in range(59)]
        trip += [(x + 1, x, 0.9) for x in range(59)]
        A = from_triplets(sp, trip)
        _, stacked, _, gathered = lowernorm._screen(
            A, distinct_balls(A, range(60), 3), 2.0)
        with np.errstate(over="ignore"):
            assert not lowernorm._pruned(gathered, stacked, 2.0).any()
            assert lowernorm._pruned(gathered, stacked, 0.5)[4:].all()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gram_matrix_does_not_warn(self):
        # the operator of test_unproved_ball_factors_no_other: its certificate
        # overflows |B|_F, the rounding bound and G of the balls holding
        # point 0 without a warning, so nu_s returns under the error filter
        sp = build_space({"kind": "n-window", "upper": 59, "name": "n60"})
        trip = [(x, x, 1e200 if x == 0 else 3.0) for x in range(60)]
        trip += [(x, x + 1, 0.9) for x in range(59)]
        trip += [(x + 1, x, 0.9) for x in range(59)]
        rep = nu_s(from_triplets(sp, trip), range(60), 3)
        assert abs(rep.value - 1.3463) < 1e-4

    @pytest.mark.parametrize("s", [2, 3])
    def test_plane_balls_take_few_svds(self, s):
        # the spectrum workload's stencil, drawn as at its seed 7, on a
        # 20 x 20 quadrant: period 2 in x, 5-point hops; 400 balls.  The
        # least value sits at the edge, so few balls tie with it: 30 SVDs
        # at s = 2 and 56 at s = 3
        q = 20
        sp = build_space({"kind": "quadrant", "upper": q - 1, "name": "q20"})
        rng = np.random.default_rng(7)
        diag = (1.0 + 0.2 * rng.random(), 2.0 + 0.2 * rng.random())
        hop = 0.3 + 0.4 * rng.random((4, 2))
        trip = []
        for cx in range(q):
            for cy in range(q):
                x, par = cx * q + cy, cx % 2
                trip.append((x, x, diag[par]))
                for k, (dx, dy) in enumerate([(1, 0), (-1, 0), (0, 1), (0, -1)]):
                    if 0 <= cx + dx < q and 0 <= cy + dy < q:
                        trip.append(((cx + dx) * q + cy + dy, x, hop[k, par]))
        A = from_triplets(sp, trip)
        svd, taken = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            taken.append(1 if a.ndim == 2 else a.shape[0])
            return svd(a, *args, **kwargs)

        with mock.patch.object(np.linalg, "svd", spy):
            rep = nu_s(A, range(sp.n), s)
        assert sum(taken) <= 100
        assert body(rep) == body(nu_s_reference(A, range(sp.n), s))


def side_by_side(mats, width=None):
    """Band storage matrices side by side in one Fortran-ordered strip of
    ``width`` rows (the widest band's by default), zero where a band is
    narrower."""
    width = width or max(h.shape[0] for h in mats)
    strip = np.zeros((width, sum(h.shape[1] for h in mats)),
                     dtype=mats[0].dtype, order="F")
    at = 0
    for h in mats:
        strip[:h.shape[0], at:at + h.shape[1]] = h
        at += h.shape[1]
    return strip


class TestOutOfRangeArguments:
    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, np.inf, np.nan])
    def test_exponent_outside_one_to_inf_rejected(self, nat_window, p):
        A = three_i_minus_tridiag(nat_window)
        calls = [
            lambda: nu(A, range(5), p=p),
            lambda: nu_brute(A, range(3), p, samples=100),
            lambda: nu_s(A, range(20), 2, p=p),
            lambda: essential_nu(A, [2, 5], p=p),
            lambda: localization_check(A, 0.5, BlockSparsifierModel(),
                                       [range(5)], p=p, norm_bound=8.0),
            lambda: witness_cascade(A, None, [2, 5], p=p),
        ]
        for call in calls:
            with pytest.raises(OperatorError, match="exponent"):
                call()

    def test_exponent_one_accepted(self, nat_window):
        rep = nu(identity(nat_window), range(5), p=1.0)
        assert abs(rep.value - 1.0) < 1e-6

    def test_exponent_one_without_norm_bound(self, nat_window):
        A = three_i_minus_tridiag(nat_window)
        rep = localization_check(A, 0.5, BlockSparsifierModel(), [range(5)],
                                 p=1.0)
        ref = localization_check(A, 0.5, BlockSparsifierModel(), [range(5)],
                                 p=1.0, norm_bound=schur_bound(A, 1.0))
        assert schur_bound(A, 1.0) == 5.0
        assert rep == ref and rep.family_size == 1

    def test_nan_delta_rejected(self, nat_window):
        with pytest.raises(OperatorError, match="delta must be positive"):
            localization_check(tridiagonal(nat_window), float("nan"),
                               BlockSparsifierModel(), [range(5)])

    @pytest.mark.parametrize("desc", [
        {"kind": "zn-window", "lower": [-3, -2], "upper": [3, 2], "norm": "l1"},
        path_graph(12, [(0, 7), (3, 9)]),
    ])
    def test_infinite_scale_is_nu_on_f(self, desc):
        sp = build_space(desc)
        A = random_band(sp, 1, np.random.default_rng(137), density=0.7)
        F = [9, 2, 5, 11, 6]
        rep = nu_s(A, F, np.inf)
        whole = nu(A, F)
        whole.ball_center = 2
        assert body(rep) == body(whole)
        with pytest.raises(OperatorError, match="support scale"):
            nu_s(A, F, float("nan"))
        with pytest.raises(OperatorError, match="support scale"):
            nu_s(A, F, -np.inf)
        for scales in ([2, np.inf], [np.nan, 5], [-np.inf, 2]):
            with pytest.raises(OperatorError, match="support scales"):
                witness_cascade(A, None, scales)


class TestWideRestriction:
    """Fewer nonzero rows than columns: a kernel, so the lower norm is 0."""

    def test_two_columns_one_row(self):
        sp = build_space({"kind": "n-window", "upper": 9, "name": "n10"})
        C = from_triplets(sp, [(0, 0, 1.0), (0, 1, 2.0)]
                          + [(x, x, 1.0) for x in range(2, 10)])
        oracle = np.linalg.svd(C.to_dense()[:, [0, 1]], compute_uv=False).min()
        assert oracle < 1e-15
        for p in (2.0, 3.0):
            rep = nu(C, [0, 1], p=p)
            assert rep.value == 0.0 and rep.method == "kernel"
            assert quotient(C, rep) <= rep.tolerance
        rep = nu_s(C, range(sp.n), 1)
        assert rep.value == 0.0 and rep.ball_center == 0
        assert body(rep) == body(nu_s_reference(C, range(sp.n), 1))

    def test_identity_missing_one_column(self):
        sp = build_space({"kind": "n-window", "upper": 499, "name": "n500"})
        A = from_triplets(sp, [(x, x, 1.0) for x in range(sp.n) if x != 250])
        rep = nu(A, range(sp.n))
        assert rep.value == 0.0 and rep.method == "kernel"
        assert list(rep.witness.support()) == [250]
        assert quotient(A, rep) == 0.0


class TestIterativeFallback:
    """The banded route's inverse iteration and its shift-doubling fallback."""

    def test_singular_gram_named_and_exact(self):
        # column 250 is zero, so the Gram matrix of this tall restriction
        # (461 rows, 460 columns) is singular and has no factor at shift 0
        sp = build_space({"kind": "n-window", "upper": 499, "name": "n500"})
        trip = [(x, x, 1.0) for x in range(sp.n) if x != 250]
        trip += [(x + 1, x, 0.5) for x in range(sp.n - 1) if x != 250]
        A = from_triplets(sp, trip)
        F = list(range(460))
        rep = nu(A, F)
        assert rep.method == "banded-gram"
        oracle = np.linalg.svd(A.to_dense()[:, F], compute_uv=False).min()
        assert abs(rep.value - oracle) <= rep.tolerance
        assert rep.value < 1e-30 and rep.tolerance == 1e-10
        assert list(rep.witness.support()) == [250]
        assert rep.support_diameter == 0.0

    def test_witness_dust_is_zeroed(self):
        # column 40 is zero, so e_40 is the witness; entries of rounding
        # size left on other columns would make its support the whole of F
        sp = build_space({"kind": "n-window", "upper": 79, "name": "n80"})
        trip = [(x, x, 1.0) for x in range(sp.n) if x != 40]
        trip += [(x + 1, x, 0.5) for x in range(sp.n - 1) if x != 40]
        A = from_triplets(sp, trip)
        for route, method in ((dense_route, "exact-svd"),
                              (banded_route, "banded-gram")):
            for F in (range(60), range(75)):
                with route():
                    rep = nu(A, F)
                assert rep.method == method and rep.value == 0.0
                assert list(rep.witness.support()) == [40]
                assert rep.support_diameter == 0.0

    @staticmethod
    def first_factorization_fails(calls):
        """Patch ``pbtrf`` to report failure on its first call; record the
        diagonal of every matrix it is given and whether it factored.  Other
        LAPACK routines pass through."""
        real = operators.get_lapack_funcs

        def funcs(names, arrays):
            func = real(names, arrays)
            if names != "pbtrf":
                return func

            def factor(h, **kwargs):
                diag = h[0].copy()
                out = func(h, **kwargs) if calls else (h, 1)
                calls.append((diag, out[1] == 0))
                return out
            return factor
        return mock.patch.object(operators, "get_lapack_funcs", funcs)

    def test_failed_factorization_doubles_the_shift(self):
        sp = build_space({"kind": "n-window", "upper": 399, "name": "n400"})
        A = three_i_minus_tridiag(sp)
        ab = gram_band(lowernorm._restricted(A, range(sp.n))[2])
        lam = eigvals_banded(ab, lower=True, select="i", select_range=(0, 0))[0]
        mu0 = least_eigenvalue(ab, lambda U: -np.inf, lower=lam)[0]
        calls = []
        with self.first_factorization_fails(calls):
            mu1 = least_eigenvalue(ab, lambda U: -np.inf, lower=lam)[0]
        assert len(calls) == 2 and np.all(calls[1][0] > calls[0][0])
        assert abs((lam - mu1) - 2 * (lam - mu0)) <= 0.01 * (lam - mu0)
        # nu's search: its first shift -d fails, so -2d is tried; every
        # later trial shift lies above that factored one, and the witness
        # steers the search to its end in a handful of factorizations
        d = lam - mu0
        calls = []
        with self.first_factorization_fails(calls):
            rep = nu(A, range(sp.n))
        diags = np.array([diag for diag, _ in calls])
        factored = np.array([ok for _, ok in calls])
        assert factored[:2].tolist() == [False, True]
        assert abs((diags[1] - diags[0]).max() - d) <= 0.2 * d
        assert np.all(diags[2:] < diags[1])
        assert len(calls) <= 12
        sigma = 3 - 2 * np.cos(np.pi / 401)
        assert rep.method == "banded-gram"
        assert rep.value - rep.tolerance <= sigma <= rep.value + 1e-15
        assert abs(rep.value - sigma) < 1e-12


class TestThreadInvariantBodies:
    def test_report_bodies_across_thread_counts(self):
        sp = build_space({"kind": "zn-window", "lower": [-40], "upper": [40],
                          "name": "z81"})
        A = add(three_i_minus_tridiag(sp),
                random_band(sp, 1, np.random.default_rng(103), density=0.3))
        family = [range(0, 40), range(20, 60)]
        out = {}
        for t in (1, 2, 4):
            with mock.patch.object(lowernorm, "nu_s",
                                   partial(lowernorm.nu_s, threads=t)):
                loc = asdict(localization_check(A, 0.5, BlockSparsifierModel(),
                                                family, norm_bound=8.0))
            out[t] = (body(nu_s(A, range(sp.n), 3, threads=t)),
                      report_dumps([[r, rep.to_json()] for r, rep in
                                    essential_nu(A, [5, 20], threads=t)]),
                      report_dumps(loc))
        assert out[1] == out[2] == out[4]

    @staticmethod
    def no_thread():
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")
        return mock.patch.object(threading.Thread, "start", refuse)

    def test_nu_s_starts_no_thread(self):
        # balls of up to 81 columns pass _DENSE_MAX, so nu_s calls nu on them
        sp = build_space({"kind": "n-window", "upper": 199, "name": "n200"})
        A = three_i_minus_tridiag(sp)
        with self.no_thread(), \
                mock.patch.object(lowernorm, "nu", wraps=lowernorm.nu) as spy:
            nu_s(A, range(sp.n), 40, threads=4)
        assert max(len(call.args[1]) for call in spy.call_args_list) \
            > lowernorm._DENSE_MAX

    def test_essential_nu_starts_no_thread(self):
        sp = build_space({"kind": "n-window", "upper": 199, "name": "n200"})
        with self.no_thread():
            assert len(essential_nu(three_i_minus_tridiag(sp), [5, 20],
                                    threads=4)) == 2


real_spaces = st.one_of(
    st.builds(lambda u: {"kind": "n-window", "upper": u}, st.integers(0, 40)),
    st.builds(lambda hi, norm: {"kind": "quadrant", "upper": hi, "norm": norm},
              st.lists(st.integers(0, 6), min_size=2, max_size=2),
              st.sampled_from(["linf", "l1", "l2"])),
)


def lead_entry(rep):
    flat = rep.witness.flat()
    return flat[np.argmax(np.abs(flat))]


class TestRealArithmetic:
    """A real operator and i times it: one method, equal values and norms."""

    @settings(max_examples=60, deadline=None)
    @given(desc=real_spaces, seed=st.integers(0, 2 ** 32 - 1),
           block_dim=st.sampled_from([1, 2]), prop=st.integers(0, 2),
           keep=st.floats(0.2, 1.0))
    def test_real_and_imaginary_routes_agree(self, desc, seed, block_dim,
                                             prop, keep):
        sp = build_space(desc)
        rng = np.random.default_rng(seed)
        A = random_band(sp, prop, rng, density=0.6, block_dim=block_dim,
                        real=True)
        B = scale(A, 1j)
        F = [x for x in range(sp.n) if rng.random() < keep] or [0]
        assert A.is_real and not B.is_real
        assert lowernorm._restricted(A, F)[2].dtype == np.float64
        assert lowernorm._restricted(B, F)[2].dtype == np.complex128
        ra, rb = nu(A, F), nu(B, F)
        assert ra.method == rb.method
        if max(ra.value, rb.value) >= 1e-6:
            assert abs(ra.value - rb.value) <= ra.tolerance + rb.tolerance
        for op, rep in ((A, ra), (B, rb)):
            assert abs(quotient(op, rep) - rep.value) <= rep.tolerance
            lead = lead_entry(rep)
            assert lead.imag == 0.0 and lead.real > 0
        na, nb = norm2(A), norm2(B)
        assert abs(na - nb) <= 1e-12 * max(na, nb)

    def test_iterative_route_is_real(self):
        # 460 columns of Gram band 2: the CSR restriction and the banded route
        sp = build_space({"kind": "n-window", "upper": 499, "name": "n500"})
        A = add(three_i_minus_tridiag(sp),
                random_band(sp, 1, np.random.default_rng(107), density=0.3,
                            real=True))
        B = scale(A, 1j)
        F = list(range(20, 480))
        assert lowernorm._restricted(A, F)[2].dtype == np.float64
        assert lowernorm._restricted(B, F)[2].dtype == np.complex128
        ra, rb = nu(A, F), nu(B, F)
        assert ra.method == rb.method == "banded-gram"
        assert abs(ra.value - rb.value) <= ra.tolerance + rb.tolerance
        oracle = np.linalg.svd(A.to_dense()[:, F], compute_uv=False).min()
        assert abs(ra.value - oracle) <= ra.tolerance
        assert ra.value - ra.tolerance <= oracle <= ra.value + 1e-15
        for op, rep in ((A, ra), (B, rb)):
            assert abs(quotient(op, rep) - rep.value) <= rep.tolerance
            assert lead_entry(rep).imag == 0.0 and lead_entry(rep).real > 0

    def test_descent_stays_complex(self):
        # p = 3 on a real operator: only the p = 2 warm start is real
        sp = build_space({"kind": "n-window", "upper": 7, "name": "n8"})
        A = random_band(sp, 1, np.random.default_rng(109), density=0.8,
                        real=True)
        svd, kinds = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            kinds.append(a.dtype)
            return svd(a, *args, **kwargs)

        with mock.patch.object(np.linalg, "svd", spy):
            nu(A, range(sp.n), p=3.0)
        assert kinds[0] == np.float64
        assert len(kinds) > 1 and set(kinds[1:]) == {np.dtype(np.complex128)}

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_stacks_bounded_by_own_itemsize(self, dtype):
        stack = np.zeros((2000, 30, 20), dtype=dtype)
        chunks = list(lowernorm._stacks([(np.arange(2000), stack)]))
        assert max(len(idx) for idx, _ in chunks) == \
            lowernorm._STACK_BYTES // stack[0].nbytes
        assert all(part.nbytes <= lowernorm._STACK_BYTES for _, part in chunks)
        assert [j for idx, _ in chunks for j in idx] == list(range(2000))
        assert all(np.shares_memory(part, stack) for _, part in chunks)

    def test_chunking_keeps_values(self, monkeypatch):
        # one matrix per stacked SVD call gives the same report
        sp = build_space({"kind": "n-window", "upper": 60, "name": "n61"})
        A = random_band(sp, 2, np.random.default_rng(113), density=0.7,
                        real=True)
        ref = body(nu_s(A, range(sp.n), 3, threads=2))
        monkeypatch.setattr(lowernorm, "_STACK_BYTES", 1)
        assert body(nu_s(A, range(sp.n), 3, threads=2)) == ref


def dense_operator(M):
    """Operator on an n-window whose matrix is the square array M."""
    sp = build_space({"kind": "n-window", "upper": len(M) - 1})
    return from_triplets(sp, [(i, j, M[i, j]) for i, j in zip(*np.nonzero(M))])


def rounding_slack(rep):
    # the test recomputes the quotient through apply_operator, whose rounding
    # differs from the one the tolerance was measured with
    return 1e-12 * max(1.0, rep.value)


class TestDenseWitness:
    """Values-only SVD for the value, banded inverse iteration on the Gram
    matrix for the witness."""

    @settings(max_examples=60, deadline=None)
    @given(desc=nu_s_spaces, seed=st.integers(0, 2 ** 32 - 1),
           block_dim=st.sampled_from([1, 2]), prop=st.integers(0, 2),
           real=st.booleans(), keep=st.floats(0.3, 1.0))
    def test_value_is_values_only_svd(self, desc, seed, block_dim, prop,
                                      real, keep):
        sp = build_space(desc)
        rng = np.random.default_rng(seed)
        A = random_band(sp, prop, rng, density=0.6, block_dim=block_dim,
                        real=real)
        F = [x for x in range(sp.n) if rng.random() < keep] or [0]
        with dense_route():
            rep = nu(A, F)
            sub = lowernorm._restricted(A, F)[2]
        if rep.method == "kernel":
            assert rep.value == 0.0
            assert quotient(A, rep) <= rep.tolerance + rounding_slack(rep)
            return
        assert rep.method == "exact-svd"
        assert rep.value == np.linalg.svd(sub, compute_uv=False).min()
        assert rep.tolerance >= 1e-10
        assert abs(quotient(A, rep) - rep.value) <= \
            rep.tolerance + rounding_slack(rep)

    def test_p2_never_asks_an_svd_for_vectors(self):
        sp = build_space({"kind": "n-window", "upper": 60, "name": "n61"})
        A = random_band(sp, 2, np.random.default_rng(127), density=0.7)
        C = from_triplets(sp, [(0, 0, 1.0), (0, 1, 2.0)]
                          + [(x, x, 1.0) for x in range(2, sp.n)])
        svd, calls = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            calls.append((args, kwargs))
            return svd(a, *args, **kwargs)

        with mock.patch.object(np.linalg, "svd", spy):
            assert nu(A, range(sp.n)).method == "exact-svd"
            assert nu(C, [0, 1]).method == "kernel"      # no zero column
            nu_s(A, range(sp.n), 3, threads=2)
            essential_nu(A, [5, 20], threads=2)
        assert calls
        assert all(args == () and kwargs == {"compute_uv": False}
                   for args, kwargs in calls)

    def test_clustered_spectrum_at_dense_limit(self):
        # 3I - T on 400 points: neighbouring singular values 2e-4 apart
        sp = build_space({"kind": "n-window", "upper": 399, "name": "n400"})
        A = three_i_minus_tridiag(sp)
        with dense_route():
            rep = nu(A, range(sp.n))
        assert rep.method == "exact-svd" and rep.tolerance == 1e-10
        assert abs(rep.value - (3 - 2 * np.cos(np.pi / 401))) < 1e-12
        assert abs(quotient(A, rep) - rep.value) < 1e-15

    def test_two_equal_columns(self):
        M = np.eye(300)
        M[0, 1] = M[1, 0] = 1.0
        A = dense_operator(M)
        with dense_route():
            rep = nu(A, range(300))
        assert rep.method == "exact-svd" and rep.tolerance == 1e-10
        assert rep.value < 1e-15
        assert abs(quotient(A, rep) - rep.value) < 1e-30
        lead = sorted(np.abs(rep.witness.flat()))[-2:]
        assert abs(lead[0] - lead[1]) < 1e-15     # (e0 - e1) / sqrt 2

    def test_neumann_kernel_with_small_gram_gap(self):
        # the path Laplacian on 300 points: kernel the constants, and the
        # next Gram eigenvalue (pi / 300)^4 = 1.2e-8
        n = 300
        M = np.diag([float((x > 0) + (x < n - 1)) for x in range(n)])
        M -= np.eye(n, k=1) + np.eye(n, k=-1)
        A = dense_operator(M)
        with dense_route():
            rep = nu(A, range(n))
        assert rep.method == "exact-svd" and rep.tolerance == 1e-10
        assert rep.value < 1e-15
        assert abs(quotient(A, rep) - rep.value) < 1e-12
        vals = rep.witness.flat()
        assert np.allclose(vals, vals[0], atol=1e-12)

    def test_gram_limit_widens_the_tolerance(self):
        # sigma_1 = 1e-9 and sigma_2 = 1e-7 next to unit values: their Gram
        # eigenvalues 1e-18 and 1e-14 sit below the rounding of G, so the
        # witness mixes the two vectors and the tolerance must say so
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((10, 10)))[0]
        d = np.ones(10)
        d[:2] = 1e-9, 1e-7
        A = dense_operator(Q @ np.diag(d) @ Q.T)
        rep = nu(A, range(10))
        gap = abs(quotient(A, rep) - rep.value)
        assert rep.method == "exact-svd"
        assert abs(rep.value - 1e-9) < 1e-15
        assert 1e-9 < gap <= rep.tolerance + rounding_slack(rep)
        assert rep.tolerance < 1e-6

    def test_zero_pivot_is_perturbed(self):
        # lam - 4 (b + 1) eps |G|_inf is exactly 1, an eigenvalue of
        # G = diag(1, 4): the first factor meets a zero pivot
        eps = np.finfo(float).eps
        lam = 1.0 + 16 * eps
        assert lam - 16 * eps == 1.0
        ab = np.array([[1.0, 4.0]])
        mu = least_eigenvalue(ab, lambda U: -np.inf, lower=lam)[0]
        w = lowernorm._witness_at(ab, lam)
        assert mu == 1.0 - 16 * eps     # the doubled distance
        assert np.all(np.isfinite(w))
        assert abs(abs(w[0]) - 1.0) < 1e-12 and abs(w[1]) < 1e-12

    def test_zero_restriction(self):
        # an explicit zero entry keeps its row: a 1 x 1 zero restriction, G = 0
        sp = build_space({"kind": "n-window", "upper": 3, "name": "n4"})
        A = from_triplets(sp, [(0, 0, 0.0), (1, 1, 1.0), (2, 2, 1.0)])
        rep = nu(A, [0])
        assert rep.value == 0.0 and rep.method == "exact-svd"
        assert rep.tolerance == 1e-10
        assert rep.witness.flat().tolist() == [1.0, 0.0, 0.0, 0.0]


class TestWitnessRecipe:
    """The dense route's witness and the kernel vectors are bitwise the
    three-solve recipe of ``reference_witness``."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2 ** 32 - 1),
           block_dim=st.sampled_from([1, 2]), real=st.booleans())
    def test_dense_witness(self, n, seed, block_dim, real):
        sp = build_space({"kind": "n-window", "upper": n - 1, "name": f"n{n}"})
        rng = np.random.default_rng(seed)
        A = random_band(sp, 2, rng, density=0.7, block_dim=block_dim,
                        real=real)
        F = np.flatnonzero(rng.random(n) < 0.7)
        assume(len(F))
        sub = lowernorm._restricted(A, F)[2]
        assume(sub.shape[0] >= sub.shape[1])
        assert not issparse(sub)
        sigma = float(np.linalg.svd(sub, compute_uv=False).min())
        assert np.array_equal(lowernorm._sigma_min(sub)[1],
                              reference_witness(gram_band(sub), sigma * sigma))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 30), seed=st.integers(0, 2 ** 32 - 1),
           block_dim=st.sampled_from([1, 2]), real=st.booleans(),
           extra=st.sampled_from([1, 2]), data=st.data())
    def test_kernel_witness(self, n, seed, block_dim, real, extra, data):
        # rows 0 .. r - 1 of a full band of propagation 2, restricted to the
        # columns 0 .. r + extra - 1: every column meets a kept row, and
        # there are fewer rows than columns
        r = data.draw(st.integers(1, n - extra))
        sp = build_space({"kind": "n-window", "upper": n - 1, "name": f"n{n}"})
        A = random_band(sp, 2, np.random.default_rng(seed), density=1.0,
                        block_dim=block_dim, real=real)
        keep = multiplier(sp, lambda x: float(x < r) * np.eye(block_dim),
                          block_dim=block_dim)
        sub = lowernorm._restricted(compose(keep, A), range(r + extra))[2]
        assert sub.shape[0] < sub.shape[1]
        assert np.all(np.abs(sub).sum(axis=0) > 0)
        assert np.array_equal(lowernorm._kernel_vector(sub),
                              reference_witness(gram_band(sub), 0.0))


def neumann_operator(n):
    """The path Laplacian: kernel the constants, next Gram eigenvalue about
    (pi / n)^4."""
    M = np.diag([float((x > 0) + (x < n - 1)) for x in range(n)])
    M -= np.eye(n, k=1) + np.eye(n, k=-1)
    return dense_operator(M)


class TestBisectedEigenvalues:
    """The banded route and norm2 bracket their Gram eigenvalue by a search
    on the shift, with banded Cholesky factorizations as the only test."""

    def test_no_band_reduction(self):
        # nu's routes and norm2 ask LAPACK for banded Cholesky factors and
        # solves only, and never for a band eigenvalue routine
        requested = []
        real = operators.get_lapack_funcs

        def spy(names, arrays):
            requested.append(names)
            return real(names, arrays)

        def refuse(*args, **kwargs):
            raise AssertionError("a band eigenvalue routine was called")

        decomp = sys.modules[eigvals_banded.__module__]
        sp = build_space({"kind": "n-window", "upper": 299, "name": "n300"})
        A = three_i_minus_tridiag(sp)
        C = from_triplets(sp, [(0, 0, 1.0), (0, 1, 2.0)]
                          + [(x, x, 1.0) for x in range(2, sp.n)])
        with mock.patch.object(operators, "get_lapack_funcs", spy), \
                mock.patch.object(lowernorm, "get_lapack_funcs", spy), \
                mock.patch.object(decomp, "eigvals_banded", refuse), \
                mock.patch.object(decomp, "eig_banded", refuse):
            methods = [nu(A, range(sp.n)).method, nu(A, range(40)).method,
                       nu(C, range(sp.n)).method]
            norm2(A)
        assert methods == ["banded-gram", "exact-svd", "kernel"]
        assert set(requested) == {"pbtrf", "pbtrs"}
        assert not hasattr(operators, "eigvals_banded")
        assert not hasattr(lowernorm, "eigvals_banded")


def counting_factorizations(calls):
    """Patch ``operators`` to append "pbtrf" to calls at every banded
    Cholesky factorization."""
    real = operators.get_lapack_funcs

    def funcs(names, arrays):
        func = real(names, arrays)
        if names != "pbtrf":
            return func

        def factor(*args, **kwargs):
            calls.append(names)
            return func(*args, **kwargs)
        return factor
    return mock.patch.object(operators, "get_lapack_funcs", funcs)


def laplacian_window(n, band, shift, noise, rng):
    """shift I + L on an n-window: L the Laplacian of the path with weight 1
    on neighbours and 1/4 on second neighbours (band 2), so the constants
    span its kernel and the least singular values cluster at shift; every
    entry then moves by up to ``noise``."""
    M = shift * np.eye(n)
    for d, weight in ((1, 1.0), (2, 0.25))[:band]:
        edge = weight * np.ones(n - d)
        M -= np.diag(edge, d) + np.diag(edge, -d)
        M += np.diag(np.concatenate((edge, np.zeros(d)))
                     + np.concatenate((np.zeros(d), edge)))
    M += noise * np.where(M != 0, rng.uniform(-1, 1, M.shape), 0.0)
    return dense_operator(M)


class TestSteeredSearch:
    """The banded shift search: its witness steers the shift, a completed
    factorization certifies, and a handful of factorizations suffice."""

    def test_nu_factorization_ceilings(self):
        sp = build_space({"kind": "n-window", "upper": 399, "name": "n400"})
        for A, most in ((three_i_minus_tridiag(sp), 12),
                        (neumann_operator(1000), 3)):
            calls = []
            with counting_factorizations(calls):
                rep = nu(A, range(A.space.n))
            assert rep.method == "banded-gram"
            assert 1 <= len(calls) <= most

    def test_norm2_factorization_ceilings(self):
        sp = build_space({"kind": "n-window", "upper": 399, "name": "n400"})
        for A in (three_i_minus_tridiag(sp), neumann_operator(1000)):
            calls = []
            with counting_factorizations(calls):
                value = norm2(A)
            assert 1 <= len(calls) <= 8
            dense = np.linalg.norm(A.to_dense(), 2)
            assert abs(value - dense) <= 1e-12 * dense

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(200, 600), band=st.sampled_from([1, 2]),
           shift=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5]),
           noise=st.sampled_from([0.0, 1e-9, 1e-4]),
           c=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
    def test_clustered_windows(self, n, band, shift, noise, c, seed):
        A = laplacian_window(n, band, shift, noise, np.random.default_rng(seed))
        rep = nu(A, range(n))
        sigma = np.linalg.svd(A.to_dense().real, compute_uv=False)
        assert rep.method == "banded-gram" and rep.tolerance >= 1e-10
        assert rep.value - rep.tolerance <= sigma[-1] <= rep.value + rounding_slack(rep)
        assert abs(norm2(A) - sigma[0]) <= 1e-12 * sigma[0]
        # a repeated bottom eigenvalue: one trial factorization after the
        # first; a repeated top one: none
        sp = build_space({"kind": "n-window", "upper": n - 1})
        cI = scale(identity(sp), c)
        calls = []
        with counting_factorizations(calls):
            rep = nu(cI, range(n))
        assert len(calls) == 2 and rep.tolerance == 1e-10
        assert abs(rep.value - c) <= 1e-15 * c
        calls = []
        with counting_factorizations(calls):
            value = norm2(cI)
        assert len(calls) == 1 and abs(value - c) <= 1e-15 * c


class TestBandedRoute:
    """Witness quotient for the value, a Cholesky-certified lower bound."""

    @settings(max_examples=60, deadline=None)
    @given(desc=nu_s_spaces, seed=st.integers(0, 2 ** 32 - 1),
           block_dim=st.sampled_from([1, 2]), prop=st.integers(0, 2),
           real=st.booleans(), keep=st.floats(0.3, 1.0))
    def test_interval_holds_the_dense_value(self, desc, seed, block_dim, prop,
                                            real, keep):
        sp = build_space(desc)
        rng = np.random.default_rng(seed)
        A = random_band(sp, prop, rng, density=0.6, block_dim=block_dim,
                        real=real)
        F = [x for x in range(sp.n) if rng.random() < keep] or [0]
        with banded_route():
            rep = nu(A, F)
            sub = lowernorm._restricted(A, F)[2]
        dense = np.linalg.norm(A.to_dense(), 2)
        assert abs(norm2(A) - dense) <= 1e-12 * max(1.0, dense)
        assert issparse(sub)
        if rep.method == "kernel":
            assert quotient(A, rep) <= rep.tolerance + rounding_slack(rep)
            return
        sigma = np.linalg.svd(sub.toarray(), compute_uv=False).min()
        assert rep.method == "banded-gram" and rep.tolerance >= 1e-10
        assert rep.value - rep.tolerance <= sigma <= rep.value + rounding_slack(rep)
        assert abs(quotient(A, rep) - rep.value) <= rounding_slack(rep)

    def test_neumann_kernel_is_certified(self):
        # 1000 points: Gram gap (pi / 1000)^4 = 1e-10, where the dense
        # inverse-iteration shift 8 m eps |G|_inf is as large as the gap
        A = neumann_operator(1000)
        rep = nu(A, range(1000))
        assert rep.method == "banded-gram"
        assert rep.value <= 1e-11 and rep.tolerance == 1e-10    # [0, 1e-10]
        assert abs(quotient(A, rep) - rep.value) < 1e-12
        vals = rep.witness.flat()
        assert np.allclose(vals, vals[0], atol=1e-12)

    def test_neumann_kernel_with_small_gram_gap(self):
        # the banded factor of the 300-point Gram matrix is not exact, as the
        # dense LU of the integer matrix is: quotient 2.4e-13, not < 1e-15
        A = neumann_operator(300)
        rep = nu(A, range(300))
        assert rep.method == "banded-gram" and rep.tolerance == 1e-10
        assert rep.value < 1e-12
        assert abs(quotient(A, rep) - rep.value) < 1e-12

    def test_clustered_spectrum(self):
        # 3I - T on 400 points: neighbouring singular values 2e-4 apart
        sp = build_space({"kind": "n-window", "upper": 399, "name": "n400"})
        A = three_i_minus_tridiag(sp)
        rep = nu(A, range(sp.n))
        sigma = 3 - 2 * np.cos(np.pi / 401)
        assert rep.method == "banded-gram" and rep.tolerance == 1e-10
        assert abs(rep.value - sigma) < 1e-12
        assert rep.value - rep.tolerance <= sigma
        assert abs(quotient(A, rep) - rep.value) < 1e-15

    def test_two_equal_columns(self):
        M = np.eye(500)
        M[0, 1] = M[1, 0] = 1.0
        A = dense_operator(M)
        rep = nu(A, range(500))
        assert rep.method == "banded-gram" and rep.tolerance == 1e-10
        assert rep.value < 1e-15
        assert abs(quotient(A, rep) - rep.value) < 1e-15
        lead = sorted(np.abs(rep.witness.flat()))[-2:]
        assert abs(lead[0] - lead[1]) < 1e-15     # (e0 - e1) / sqrt 2

    def test_wide_restriction_kernel_from_the_banded_factor(self):
        # 499 rows, 500 columns and no zero column: the CSR kernel branch
        sp = build_space({"kind": "n-window", "upper": 499, "name": "n500"})
        C = from_triplets(sp, [(0, 0, 1.0), (0, 1, 2.0)]
                          + [(x, x, 1.0) for x in range(2, sp.n)])
        assert issparse(lowernorm._restricted(C, range(sp.n))[2])
        rep = nu(C, range(sp.n))
        assert rep.value == 0.0 and rep.method == "kernel"
        assert quotient(C, rep) <= rep.tolerance
        flat = np.abs(rep.witness.flat())
        assert abs(flat[0] - 2 / np.sqrt(5)) < 1e-12
        assert abs(flat[1] - 1 / np.sqrt(5)) < 1e-12

    def test_non_finite_entry_raises(self):
        # no shift factors a Gram matrix holding inf: the doubling must not
        # run forever, on the value route or the kernel route.  A NaN entry
        # is refused where the operator is built; 1e200 is finite, but its
        # square overflows in G
        sp = build_space({"kind": "n-window", "upper": 499, "name": "n500"})
        with pytest.raises(OperatorError, match="non-finite"):
            from_triplets(sp, [(0, 0, np.nan)]
                          + [(x, x, 1.0) for x in range(1, sp.n)])
        A = from_triplets(sp, [(0, 0, 1e200)]
                          + [(x, x, 1.0) for x in range(1, sp.n)])
        C = from_triplets(sp, [(0, 0, 1e200), (0, 1, 2.0)]
                          + [(x, x, 1.0) for x in range(2, sp.n)])
        for route in (dense_route, banded_route):
            for op in (A, C):      # the value route, the kernel route
                with route(), pytest.raises(OperatorError,
                                            match="non-finite Gram matrix"):
                    nu(op, range(sp.n))

    def test_wide_band_window_goes_banded(self):
        # a 20 x 20 window under the 5-point stencil: 400 columns whose Gram
        # matrix has band 40; past _DENSE_MAX columns the band does not
        # matter, and the dense SVD would cost columns cubed
        sp = build_space({"kind": "zn-window", "lower": [0, 0],
                          "upper": [19, 19], "norm": "l1"})
        A = random_band(sp, 1, np.random.default_rng(151), density=1.0,
                        real=True)
        sub = lowernorm._restricted(A, range(sp.n))[2]
        assert issparse(sub) and gram_band(sub).shape[0] - 1 >= 40
        rep = nu(A, range(sp.n))
        sigma = np.linalg.svd(A.to_dense().real, compute_uv=False).min()
        assert rep.method == "banded-gram" and rep.tolerance >= 1e-10
        assert rep.value - rep.tolerance <= sigma <= rep.value + rounding_slack(rep)
        assert abs(quotient(A, rep) - rep.value) <= rounding_slack(rep)

    def test_gram_limit_widens_the_tolerance(self):
        # sigma_1 = 1e-9 and sigma_2 = 1e-7: their Gram eigenvalues sit below
        # the rounding of G, so no shift above 0 can be certified and the
        # interval reaches down to 0; for some rotations the computed least
        # eigenvalue is 1e-16 or more, so its root would claim too much
        d = np.ones(10)
        d[:2] = 1e-9, 1e-7
        for seed in range(6):
            rng = np.random.default_rng(seed)
            Q = np.linalg.qr(rng.standard_normal((10, 10)))[0]
            A = dense_operator(Q @ np.diag(d) @ Q.T)
            with banded_route():
                rep = nu(A, range(10))
            assert rep.method == "banded-gram"
            assert rep.value - rep.tolerance <= 0.0
            assert 1e-9 <= rep.value + rounding_slack(rep) and rep.value < 1e-6
            assert abs(quotient(A, rep) - rep.value) <= rounding_slack(rep)


def noncanonical_copies(sub, rng):
    """COO, CSC and CSR copies of the sparse matrix ``sub`` in which some
    entries are stored twice as halves, a few stored zeros are added and the
    entries are shuffled, so that no row or column keeps its order."""
    coo = sub.tocoo()
    r, c, v = coo.row, coo.col, coo.data.copy()
    half = rng.random(len(v)) < 0.3
    v[half] /= 2
    k = int(rng.integers(0, 4)) if sub.shape[0] else 0
    r = np.concatenate((r, r[half], rng.integers(0, max(1, sub.shape[0]), k)))
    c = np.concatenate((c, c[half], rng.integers(0, sub.shape[1], k)))
    v = np.concatenate((v, v[half], np.zeros(k, v.dtype)))
    perm = rng.permutation(len(v))
    r, c, v = r[perm], c[perm], v[perm]

    def compressed(kind, major, minor, size):
        order = np.argsort(major, kind="stable")
        ptr = np.concatenate(([0], np.cumsum(np.bincount(major, minlength=size))))
        return kind((v[order], minor[order], ptr), shape=sub.shape)
    return [coo_matrix((v, (r, c)), shape=sub.shape),
            compressed(csc_matrix, c, r, sub.shape[1]),
            compressed(csr_matrix, r, c, sub.shape[0])]


def stored(X):
    """Copies of the arrays that hold a COO, CSC or CSR matrix."""
    arrays = ((X.row, X.col, X.data) if X.format == "coo"
              else (X.data, X.indices, X.indptr))
    return [a.copy() for a in arrays]


class TestGramPairs:
    """A sparse Gram matrix is formed by pairing the entries of each row,
    every entry summed over the rows in ascending order."""

    @settings(max_examples=60, deadline=None)
    @given(desc=nu_s_spaces, seed=st.integers(0, 2 ** 32 - 1),
           block_dim=st.sampled_from([1, 2]), prop=st.integers(0, 2),
           real=st.booleans(), integral=st.booleans(),
           keep=st.floats(0.3, 1.0))
    def test_restrictions_match_the_row_order_reference(
            self, desc, seed, block_dim, prop, real, integral, keep):
        sp = build_space(desc)
        rng = np.random.default_rng(seed)
        A = random_band(sp, prop, rng, density=0.6, block_dim=block_dim,
                        real=real)
        if integral:    # entries of G cancel exactly, zero blocks are stored
            A = BandOperator(sp, A.rows, A.cols, np.round(2 * A.blocks),
                             block_dim=block_dim)
        F = [x for x in range(sp.n) if rng.random() < keep] or [0]
        with banded_route():
            sub = lowernorm._restricted(A, F)[2]
        want = reference_gram_band(sub)
        scale = np.abs(want).max()
        dense = gram_band(sub.toarray())
        assert dense.shape == want.shape and np.abs(dense - want).max() <= 1e-14 * scale
        for X in [sub, *noncanonical_copies(sub, rng)]:
            before = stored(X)
            got = gram_band(X)
            assert all(map(np.array_equal, before, stored(X)))
            assert got.shape == want.shape and got.dtype == want.dtype
            if np.iscomplexobj(want):
                assert np.abs(got - want).max() <= 1e-14 * scale
            else:
                assert np.array_equal(got, want)

    def test_entries_are_summed_in_row_order(self):
        # G[2, 0] takes 1, 1e-16 and -1 from rows 0, 1 and 2: 0 in row
        # order, so the band is 1, but 1e-16 when the rows without column 1
        # are summed first
        M = csr_matrix(np.array([[1.0, 0.0, 1.0], [1e-8, 1.0, 1e-8],
                                 [1.0, 0.0, -1.0]]))
        ab = gram_band(M)
        assert ab.shape == (2, 3) and np.array_equal(ab, reference_gram_band(M))

    def test_no_sparse_product(self):
        # the banded nu, its kernel route, norm2 and the nu_s certificate
        # form G without multiplying two sparse matrices
        def refuse(*args, **kwargs):
            raise AssertionError("a sparse product was formed")

        owners = {cls for kind in (coo_matrix, csc_matrix, csr_matrix)
                  for cls in kind.__mro__ if "_matmul_sparse" in vars(cls)}
        sp = build_space({"kind": "n-window", "upper": 299, "name": "n300"})
        A = three_i_minus_tridiag(sp)
        C = from_triplets(sp, [(0, 0, 1.0), (0, 1, 2.0)]
                          + [(x, x, 1.0) for x in range(2, sp.n)])
        B = bump_tridiagonal(210)
        jobs, real = [], lowernorm._pruned

        def spy(gathered, listed, least):
            jobs.append(len(listed))
            return real(gathered, listed, least)

        with ExitStack() as stack:
            for cls in owners:
                stack.enter_context(mock.patch.object(cls, "_matmul_sparse", refuse))
            stack.enter_context(mock.patch.object(lowernorm, "_pruned", spy))
            with pytest.raises(AssertionError, match="sparse product"):
                A.csr() @ A.csr()
            methods = [nu(A, range(sp.n)).method, nu(C, range(sp.n)).method]
            norm2(A)
            nu_s(B, range(210), 20)
        assert methods == ["banded-gram", "kernel"]
        assert len(jobs) == 1 and jobs[0] > 0
