from dataclasses import asdict
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandlim import lowernorm
from bandlim.space import build_space
from bandlim.operators import (
    OperatorError, from_triplets, identity, multiplier, compose, add, scale,
    subtract, adjoint, schur_bound, norm2, apply_operator,
)
from bandlim.lowernorm import (
    nu, nu_s, nu_brute, localization_check, essential_nu, witness_cascade,
)
from bandlim.partition import BlockSparsifierModel
from bandlim.serialize import report_dumps

from conftest import random_band, shift_operator, tridiagonal


def window(n, name):
    half = n // 2
    return build_space({"kind": "zn-window", "lower": [-half], "upper": [half],
                        "name": name})


def three_i_minus_tridiag(space):
    return subtract(scale(identity(space), 3.0), tridiagonal(space))


class TestNu:
    def test_identity_all_p(self, nat_window):
        I = identity(nat_window)
        F = range(nat_window.n)
        for p in (1.5, 2.0, 3.0):
            rep = nu(I, F, p=p)
            assert abs(rep.value - 1.0) < 1e-6
        assert nu(I, F, p=2.0).method == "exact-svd"

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
        with pytest.raises(OperatorError):
            nu(identity(nat_window), [], p=2.0)

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
        assert rep.method == "iterative-svd"
        assert abs(rep.value - dense_val) < 1e-9


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

    @pytest.mark.parametrize("F", [
        {3, 4}, frozenset({4, 3}), (4, 3), range(3, 5),
        np.array([4, 3], dtype=np.int32), np.array([4, 3, 4]),
    ])
    def test_every_iterable_is_the_sorted_list(self, F):
        A = self.operator()
        assert body(nu(A, F)) == body(nu(A, [4, 3]))
        assert body(nu(A, F, p=3.0)) == body(nu(A, [3, 4], p=3.0))

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
        # s = 399 on 402 points: balls of 400, 401 and 402 columns, so the
        # screen and the iterative nu route meet in one minimum
        sp = build_space({"kind": "n-window", "upper": 401, "name": "n402"})
        A = subtract(scale(identity(sp), 3.0), tridiagonal(sp))
        rep = nu_s(A, range(sp.n), 399, threads=2)
        assert body(rep) == body(nu_s_reference(A, range(sp.n), 399))
        assert rep.method == "iterative-svd"


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
    def test_singular_gram_named_and_exact(self):
        # column 250 is zero, so the Gram matrix of this tall restriction
        # (461 rows, 460 columns) has no factor at shift 0
        sp = build_space({"kind": "n-window", "upper": 499, "name": "n500"})
        trip = [(x, x, 1.0) for x in range(sp.n) if x != 250]
        trip += [(x + 1, x, 0.5) for x in range(sp.n - 1) if x != 250]
        A = from_triplets(sp, trip)
        F = list(range(460))
        rep = nu(A, F)
        assert rep.method == "iterative-svd-shifted"
        oracle = np.linalg.svd(A.to_dense()[:, F], compute_uv=False).min()
        assert abs(rep.value - oracle) <= rep.tolerance


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
        # 460 columns: the CSR restriction and the Gram eigsh route
        sp = build_space({"kind": "n-window", "upper": 499, "name": "n500"})
        A = add(three_i_minus_tridiag(sp),
                random_band(sp, 1, np.random.default_rng(107), density=0.3,
                            real=True))
        B = scale(A, 1j)
        F = list(range(20, 480))
        assert lowernorm._restricted(A, F)[2].dtype == np.float64
        assert lowernorm._restricted(B, F)[2].dtype == np.complex128
        ra, rb = nu(A, F), nu(B, F)
        assert ra.method == rb.method == "iterative-svd"
        assert abs(ra.value - rb.value) <= ra.tolerance + rb.tolerance
        oracle = np.linalg.svd(A.to_dense()[:, F], compute_uv=False).min()
        assert abs(ra.value - oracle) <= ra.tolerance
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
        sub = np.zeros((30, 20), dtype=dtype)
        chunks = list(lowernorm._stacks({sub.shape: [(j, sub) for j in range(2000)]},
                                        threads=1))
        assert max(len(idx) for idx, _ in chunks) == \
            lowernorm._STACK_BYTES // sub.nbytes
        assert all(stack.nbytes <= lowernorm._STACK_BYTES for _, stack in chunks)
        assert [j for idx, _ in chunks for j in idx] == list(range(2000))

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
    """Values-only SVD for the value, LU inverse iteration for the witness."""

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
        rep = nu(A, range(sp.n))
        assert rep.method == "exact-svd" and rep.tolerance == 1e-10
        assert abs(rep.value - (3 - 2 * np.cos(np.pi / 401))) < 1e-12
        assert abs(quotient(A, rep) - rep.value) < 1e-15

    def test_two_equal_columns(self):
        M = np.eye(300)
        M[0, 1] = M[1, 0] = 1.0
        A = dense_operator(M)
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
        # sigma^2 - 8 n eps |G|_inf is exactly 1, an eigenvalue of G = diag(1, 4)
        eps = np.finfo(float).eps
        sigma = np.sqrt(1.0 + 64 * eps)
        assert sigma * sigma - 64 * eps == 1.0
        w = lowernorm._inverse_iteration(np.diag([1.0, 2.0]), sigma)
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
