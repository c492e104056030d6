import ast
import signal
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandlim.space import (
    SpaceError, Template, ball_template, build_space, match_ball_exact,
    pointed_isometric,
)
from bandlim.operators import (
    add, compose, from_triplets, identity, multiplier, norm2, scale,
    subtract,
)
from bandlim.limits import (
    CauchyFailure, Direction, ExtractError, LimitWindow, interior_nu,
    limit_operator, limit_space, sample_spectrum, shift_limit, ghost_profile,
    window_deviation, _certify_windows, _window_stack,
)
from bandlim.partition import sparsify
from bandlim.serialize import report_dumps

from conftest import (
    random_band, reference_dumps, reference_isometries, reference_window_json,
    reference_window_matrix, shift_operator, tridiagonal,
)


def big_nat(upper=600, name="natbig"):
    return build_space({"kind": "n-window", "upper": upper, "name": name})


def z_line(half=150, name="zline"):
    return build_space({"kind": "zn-window", "lower": [-half], "upper": [half],
                        "name": name})


def interval_template(radius):
    pts = list(range(-radius, radius + 1))
    order = sorted(pts, key=lambda v: (abs(v), v))
    dist = np.array([[abs(a - b) for b in order] for a in order])
    return Template(dist, base=0)


def periodic_operator(space, stencil, period):
    """Translation-covariant operator from a period-indexed stencil.

    stencil: dict (offset, residue) -> value; entry at (x+off, x) is
    stencil[(off, x mod period)].
    """
    trip = []
    for x in range(space.n):
        cx = int(space.coords[x, 0])
        for (off, res), val in stencil.items():
            if cx % period == res:
                y = space.lattice_id([cx + off])
                if y is not None and val != 0:
                    trip.append((y, x, val))
    return from_triplets(space, trip)


class TestLimitSpace:
    def test_nat_stabilizes_to_symmetric_interval(self):
        sp = big_nat()
        d = Direction.arithmetic(sp, 10, 10)
        res = limit_space(sp, d, R=3)
        assert not res.diverged
        assert pointed_isometric(res.template, interval_template(3))

    def test_quadrant_horizontal_ray_half_strip(self):
        sp = build_space({"kind": "quadrant", "upper": 40, "name": "q40"})
        d = Direction.ray(sp, [3, 2], [4, 0])
        res = limit_space(sp, d, R=2)
        assert not res.diverged
        # half-plane strip: x free, y in [0, 4]; 5x5 block of the lattice
        assert res.template.size == 25
        ball = sorted(res.template.dist[res.template.base])
        expected_sizes = {0: 1, 1: 8, 2: 16}
        import collections
        counts = collections.Counter(int(v) for v in ball)
        assert dict(counts) == expected_sizes

    def test_single_class_trivial_stabilization(self):
        sp = big_nat()
        d = Direction(basepoints=[100, 100 + 7, 100 + 14], label="three")
        res = limit_space(sp, d, R=2, tol_count=3)
        assert not res.diverged
        assert res.stabilized_from == 0

    def test_divergence_reported_with_classes(self):
        # alternating between interior points and the genuine endpoint ball
        sp = big_nat(60)
        d = Direction(basepoints=[0, 30, 45], label="mixed")
        res = limit_space(sp, d, R=2, tol_count=3)
        assert res.diverged
        assert len(res.classes) == 2

    def test_margin_violation_raises(self):
        sp = big_nat(40)
        d = Direction(basepoints=[38, 39, 40], label="edge")
        with pytest.raises(ExtractError, match="margin|no basepoint"):
            limit_space(sp, d, R=5, tol_count=3)


def _timeout(signum, frame):
    raise TimeoutError("direction walk did not end")


class TestDirections:
    def test_arithmetic_rejects_a_2d_window(self):
        sp = build_space({"kind": "quadrant", "upper": 5})
        with pytest.raises(SpaceError, match="dimension 2"):
            Direction.arithmetic(sp, 0, 1)

    def test_arithmetic_walks_a_1d_window(self):
        sp = big_nat(upper=20)
        d = Direction.arithmetic(sp, 2, 7)
        assert d.basepoints == [2, 9, 16]
        assert d.label == "arith:2,7"

    @pytest.mark.parametrize("make", [
        lambda sp: Direction.arithmetic(sp, 0, 0),
        lambda sp: Direction.ray(sp, [3], [0]),
        lambda sp: Direction.geometric(sp, 4, 0.5),
        lambda sp: Direction.geometric(sp, 4, 1),
        lambda sp: Direction.geometric(sp, 4, -1),
        lambda sp: Direction.geometric(sp, 0, 2),
    ])
    def test_walk_that_cannot_leave_raises(self, make):
        # before the guards these walks looped forever; the alarm turns a
        # regression into a failure instead of a hang
        sp = build_space({"kind": "n-window", "upper": 10})
        old = signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(3)
        try:
            with pytest.raises(ExtractError, match="never leaves"):
                make(sp)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_walks_that_leave_still_build(self):
        sp = build_space({"kind": "n-window", "upper": 40})
        assert Direction.geometric(sp, 2, 1.5).basepoints == \
            [2, 3, 4, 6, 10, 15, 22, 34]
        assert Direction.ray(sp, [38], [1]).basepoints == [38, 39, 40]
        z = build_space({"kind": "zn-window", "lower": [-10], "upper": [10]})
        assert [int(z.coords[b][0]) for b in
                Direction.geometric(z, 1, -2).basepoints] == [1, -2, 4, -8]

    def test_components_needs_a_box_space(self):
        sp = build_space({"kind": "quadrant", "upper": 5})
        with pytest.raises(ExtractError, match="no components"):
            Direction.components(sp)


class TestLimitOperator:
    def test_unilateral_shift_gives_bilateral_stencil(self):
        sp = big_nat(2000, "n2001")
        S = shift_operator(sp)
        d = Direction.arithmetic(sp, 100, 100)
        win = limit_operator(S, d, R=3, tol=1e-12)
        assert win.cauchy_tail == 0.0
        # stencil check: entry 1 exactly at pairs with signed offset +1
        order = sorted(range(-4, 5), key=lambda v: (abs(v), v))
        # reconstruct signed coordinates of the template from one matching
        sp2, op = win.as_operator()
        for i in range(win.size):
            for j in range(win.size):
                expected = 1.0 if order[i] - order[j] == 1 else 0.0
                assert win.entry(i, j)[0, 0] == expected

    def test_slowly_oscillating_multiplier_vanishes(self):
        upper = 13000
        sp = build_space({"kind": "n-window", "upper": upper, "name": "nslow"})
        A = multiplier(sp, lambda x: np.sin(np.log(1.0 + x)))
        pts = [int(np.floor(np.exp(np.pi * n))) for n in (1, 2, 3)]
        d = Direction(basepoints=pts, label="pi-spaced")
        win = limit_operator(A, d, R=2, tol=0.05, tail=2)
        bound = max(abs(np.sin(np.log(1.0 + x + j))) for x in pts[1:]
                    for j in range(-2, 3))
        assert np.max(np.abs(win.matrix)) <= bound + 1e-12
        assert np.max(np.abs(win.matrix)) < 0.01

    def test_stabilized_from_indexes_the_usable_basepoints(self):
        sp = big_nat(60)
        A = tridiagonal(sp)
        d = Direction.arithmetic(sp, 0, 1)
        win = limit_operator(A, d, R=2)
        assert win.stabilized_from > 0
        assert win.basepoints_used == d.usable(sp, 3)[win.stabilized_from:]

    def test_zero_operator(self):
        sp = big_nat()
        Z = from_triplets(sp, [])
        d = Direction.arithmetic(sp, 50, 50)
        win = limit_operator(Z, d, R=2, tol=1e-12)
        assert np.all(win.matrix == 0)

    def test_cauchy_failure_reports_profile(self):
        sp = big_nat(400)
        A = multiplier(sp, lambda x: float(np.sin(0.7 * x)))   # no limit
        d = Direction.arithmetic(sp, 40, 40)
        with pytest.raises(CauchyFailure) as exc:
            limit_operator(A, d, R=1, tol=1e-6)
        assert len(exc.value.profile) >= 2

    def test_contraction_and_propagation(self):
        sp = z_line(80, "zc")
        stencil = {(0, 0): 1.0, (0, 1): -0.5, (1, 0): 0.25, (1, 1): 0.25,
                   (-1, 0): 2.0, (-1, 1): 2.0}
        A = periodic_operator(sp, stencil, 2)
        d = Direction.arithmetic(sp, 0, 14)
        win = limit_operator(A, d, R=6, tol=1e-9)
        assert win.norm_check["window_norm2"] <= norm2(A) + 1e-9
        assert win.propagation() <= A.propagation

    def test_additivity_and_multiplicativity(self):
        sp = z_line(160, "zf")
        rng = np.random.default_rng(11)
        for _ in range(6):
            period = int(rng.integers(1, 4))
            def rand_stencil(prop):
                return {(off, r): complex(rng.standard_normal(),
                                          rng.standard_normal())
                        for off in range(-prop, prop + 1)
                        for r in range(period)}
            A = periodic_operator(sp, rand_stencil(1), period)
            B = periodic_operator(sp, rand_stencil(2), period)
            step = 6 * period
            d = Direction.arithmetic(sp, 0, step)
            R = 3 * (A.propagation + B.propagation) + 2
            wa = limit_operator(A, d, R=R, tol=1e-9)
            wb = limit_operator(B, d, R=R, tol=1e-9)
            wsum = limit_operator(add(A, B), d, R=R, tol=1e-9)
            assert np.max(np.abs(wsum.matrix - (wa.matrix + wb.matrix))) <= 2e-9
            wprod = limit_operator(compose(A, B), d, R=R, tol=1e-9)
            interior = [i for i in range(wa.size)
                        if wa.template.dist[0, i]
                        <= R - A.propagation - B.propagation]
            prod = wa.matrix @ wb.matrix
            gap = np.max(np.abs(wprod.matrix[np.ix_(interior, interior)]
                                - prod[np.ix_(interior, interior)]))
            assert gap <= 3e-9

    def test_basepoint_shift_consistency(self):
        sp = z_line(120, "zshiftc")
        stencil = {(0, 0): 1.5, (0, 1): -0.5, (1, 0): 1.0, (1, 1): 0.0,
                   (-1, 0): 0.0, (-1, 1): 2.0}
        A = periodic_operator(sp, stencil, 2)
        d0 = Direction.arithmetic(sp, 0, 10)
        d1 = Direction(basepoints=[b + 1 for b in d0.basepoints[:-1]],
                       label="shifted")
        R = 4
        w0 = limit_operator(A, d0, R=R, tol=1e-9)
        w1 = limit_operator(A, d1, R=R, tol=1e-9)
        # period-2 operator, odd offset: the windows differ by the induced
        # translation of the template; compare through signed coordinates
        order = sorted(range(-R - 1, R + 2), key=lambda v: (abs(v), v))
        idx = {v: i for i, v in enumerate(order[:w0.size])}
        for a in range(-R + 1, R - 1):
            for b in range(-R + 1, R - 1):
                lhs = w1.entry(idx[a], idx[b])[0, 0]
                rhs_entry = stencil.get((a - b, (b + 1) % 2), 0.0)
                assert lhs == rhs_entry


class TestShiftLimit:
    def test_translation_invariant_equals_stencil(self):
        sp = z_line(60, "zs")
        T = tridiagonal(sp)
        d = Direction.arithmetic(sp, 0, 8)
        win = shift_limit(T, d, R=4, tol=1e-12)
        assert win.cauchy_tail == 0.0
        offs = [ast.literal_eval(l) for l in win.template.labels]
        for i, oi in enumerate(offs):
            for j, oj in enumerate(offs):
                expected = 1.0 if abs(oi - oj) == 1 else 0.0
                assert win.entry(i, j)[0, 0] == expected

    def test_parity_diagonal_stabilizes(self):
        sp = z_line(60, "zp")
        A = multiplier(sp, lambda x: float((sp.coords[x, 0]) % 2))
        d = Direction.arithmetic(sp, 0, 10)     # even basepoints
        win = shift_limit(A, d, R=3, tol=1e-12)
        offs = [ast.literal_eval(l) for l in win.template.labels]
        for i, oi in enumerate(offs):
            assert win.entry(i, i)[0, 0] == float(oi % 2)

    def test_matches_isometry_route_on_periodic_operators(self):
        sp = z_line(100, "zx")
        rng = np.random.default_rng(17)
        tol = 1e-9
        for trial in range(50):
            period = int(rng.integers(1, 4))
            prop = int(rng.integers(0, 3))
            stencil = {(off, r): complex(rng.standard_normal(),
                                         rng.standard_normal())
                       for off in range(-prop, prop + 1) for r in range(period)}
            A = periodic_operator(sp, stencil, period)
            d = Direction.arithmetic(sp, 0, 6 * period)
            R = max(2 * prop + 1, 2)
            w1 = shift_limit(A, d, R=R, tol=tol)
            w2 = limit_operator(A, d, R=R, tol=tol)
            assert window_deviation(w1, w2) <= 2 * tol

    def test_plane_labels_stay_tuples(self):
        sp = build_space({"kind": "zn-window", "lower": [-20, -20],
                          "upper": [20, 20], "name": "z2s"})
        stencil = {(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0,
                   (0, 1): -1.0, (0, -1): -1.0}
        A = from_triplets(sp, [(sp.offset_point(x, off), x, v)
                               for x in range(sp.n)
                               for off, v in stencil.items()
                               if sp.offset_point(x, off) is not None])
        d = Direction([sp.lattice_id([k, 0]) for k in range(2, 15, 2)],
                      "plane")
        tol = 1e-12
        win = shift_limit(A, d, R=2, tol=tol)
        offs = [ast.literal_eval(l) for l in win.template.labels]
        assert all(isinstance(o, tuple) and len(o) == 2 for o in offs)
        assert win.cauchy_tail == 0.0
        for i, oi in enumerate(offs):
            for j, oj in enumerate(offs):
                delta = (oi[0] - oj[0], oi[1] - oj[1])
                assert win.entry(i, j)[0, 0] == stencil.get(delta, 0.0)
        assert window_deviation(win, limit_operator(A, d, R=2, tol=tol)) \
            <= 2 * tol

    def test_offsets_past_the_window_name_the_first_basepoint(self,
                                                             monkeypatch):
        # a usable basepoint always hosts its offsets, so let every one through
        monkeypatch.setattr(Direction, "usable",
                            lambda self, space, margin: self.basepoints)
        sp = z_line(10, "zedge")
        d = Direction.arithmetic(sp, 0, 1)
        with pytest.raises(ExtractError,
                           match=r"^basepoint 19 cannot host radius 2 offsets$"):
            shift_limit(identity(sp), d, R=2)

    def test_non_group_space_rejected(self):
        sp = big_nat(100)
        with pytest.raises(ExtractError, match="group"):
            shift_limit(identity(sp), Direction.arithmetic(sp, 10, 10), R=2)

    def test_quadrant_rejected(self, quad_window):
        d = Direction.ray(quad_window, [2, 2], [1, 1])
        with pytest.raises(ExtractError, match="no group structure"):
            shift_limit(identity(quad_window), d, R=1)

    def test_box_space_rotation_limit(self):
        sp = build_space({"kind": "box-cycles",
                          "moduli": [16, 32, 64, 128, 256],
                          "cross_distance": 100, "name": "boxdir"})
        T = from_triplets(sp, [(sp.offset_point(x, 1), x, 1.0)
                               for x in range(sp.n)])
        d = Direction.components(sp, residue=0)
        win = shift_limit(T, d, R=3, tol=1e-12, tail=3)
        offs = [ast.literal_eval(l) for l in win.template.labels]
        for i, oi in enumerate(offs):
            for j, oj in enumerate(offs):
                expected = 1.0 if oi - oj == 1 else 0.0
                assert win.entry(i, j)[0, 0] == expected


@lru_cache(maxsize=None)
def group_space(kind):
    if kind == "zn-window":
        return z_line(40, "zprop")
    return build_space({"kind": "box-cycles", "moduli": [16, 32, 64, 128],
                        "cross_distance": 100, "name": "boxprop"})


@lru_cache(maxsize=None)
def plane(norm):
    return build_space({"kind": "zn-window", "lower": [-14, -14],
                        "upper": [14, 14], "norm": norm, "name": f"p{norm}"})


def periodic_operator_draw(draw, sp, offsets, residue, period, k):
    """Random operator whose entry at (x + off, x) depends on off and residue[x].

    Each (offset, residue) pair of the stencil is kept with probability 0.7.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    stencil = {(off, r): rng.standard_normal((k, k))
               + 1j * rng.standard_normal((k, k))
               for off in offsets for r in range(period)
               if rng.random() < 0.7}
    trip = []
    for x in range(sp.n):
        for (off, r), val in stencil.items():
            y = sp.offset_point(x, off)
            if residue[x] == r and y is not None:
                trip.append((y, x, val if k > 1 else val[0, 0]))
    return from_triplets(sp, trip, block_dim=k)


@st.composite
def periodic_band_operators(draw):
    """Random periodic band operator on a 1-d group-structured space.

    The entry at (x + off, x) depends on off and on the residue of x modulo
    the period; the direction's basepoints all have residue 0.
    """
    kind = draw(st.sampled_from(["zn-window", "box-cycles"]))
    sp = group_space(kind)
    period = draw(st.sampled_from([1, 2, 4]))
    prop = draw(st.integers(0, 2))
    k = draw(st.sampled_from([1, 2]))
    if kind == "zn-window":
        residue = sp.coords[:, 0] % period
        d = Direction.arithmetic(sp, 0, 2 * period)
    else:
        residue = sp.components[1] % period
        d = Direction.components(sp, residue=0)
    A = periodic_operator_draw(draw, sp, range(-prop, prop + 1), residue,
                               period, k)
    return A, d, prop


@st.composite
def periodic_plane_operators(draw):
    """Random band operator on a 2-d window, periodic in x, with a ray.

    The stencil's offsets are the group offsets within the propagation under
    the window's norm; every ray basepoint has an even x coordinate.
    """
    sp = plane(draw(st.sampled_from(["linf", "l1", "l2"])))
    period = draw(st.integers(1, 2))
    prop = draw(st.integers(0, 1))
    k = draw(st.integers(1, 2))
    A = periodic_operator_draw(draw, sp, sp.group_offsets(prop),
                               sp.coords[:, 0] % period, period, k)
    step = draw(st.sampled_from([[2, 0], [0, 2], [2, 2]]))
    return A, Direction.ray(sp, [0, 0], step), prop


def check_shift_against_matching(A, d, prop):
    """shift_limit within 2 tol of limit_operator; returns its window and R."""
    R, tol = max(2 * prop + 1, 2), 1e-9
    w1 = shift_limit(A, d, R=R, tol=tol, tail=3)
    w2 = limit_operator(A, d, R=R, tol=tol, tail=3)
    assert w1.size == w2.size
    assert window_deviation(w1, w2) <= 2 * tol
    for w, margin in ((w1, R), (w2, R + A.propagation)):
        usable = d.usable(A.space, margin)
        assert w.basepoints_used == usable[w.stabilized_from:]
    return w1, R


class TestShiftLimitProperty:
    @settings(max_examples=40, deadline=None)
    @given(periodic_band_operators())
    def test_agrees_with_limit_operator(self, case):
        w, R = check_shift_against_matching(*case)
        assert w.size == 2 * R + 1

    @settings(max_examples=20, deadline=None)
    @given(periodic_plane_operators())
    def test_agrees_with_limit_operator_on_the_plane(self, case):
        check_shift_against_matching(*case)


class TestSampleSpectrum:
    def test_shift_windows_identical_min_nu_one(self):
        sp = big_nat(2000, "nspec")
        S = shift_operator(sp)
        dirs = [Direction.arithmetic(sp, a, 100, label=f"d{a}")
                for a in (100, 150, 170)]
        windows, summary = sample_spectrum(S, dirs, R=3, tol=1e-12)
        assert len(windows) == 3
        labels = sorted(windows)
        for l2 in labels[1:]:
            assert window_deviation(windows[labels[0]], windows[l2]) == 0.0
        assert abs(summary["min_interior_nu"] - 1.0) < 1e-10
        assert summary["note"] == "sampled, not exhaustive"

    def test_vanishing_multiplier_min_nu_zero(self):
        sp = build_space({"kind": "n-window", "upper": 13000, "name": "nv"})
        A = multiplier(sp, lambda x: np.sin(np.log(1.0 + x)))
        pts = [int(np.floor(np.exp(np.pi * n))) for n in (1, 2, 3)]
        dirs = [Direction(basepoints=pts, label="v")]
        windows, summary = sample_spectrum(A, dirs, R=2, tol=0.05, tail=2)
        assert summary["min_interior_nu"] < 0.01

    def test_identity_min_nu_one(self):
        sp = big_nat(300, "nid")
        dirs = [Direction.arithmetic(sp, 30, 30)]
        _, summary = sample_spectrum(identity(sp), dirs, R=2, tol=1e-12)
        assert abs(summary["min_interior_nu"] - 1.0) < 1e-12


class TestGhosts:
    def test_dyadic_decay_profile(self):
        sp = big_nat(60, "ng")
        trip = []
        for x in range(sp.n):
            for y in range(max(0, x - 1), min(sp.n, x + 2)):
                trip.append((x, y, 2.0 ** (-max(x, y))))
        A = from_triplets(sp, trip)
        prof = ghost_profile(A, radii=[2, 4, 6, 8, 10])
        for r, val in prof:
            assert val <= 2.0 ** (-r + 1)
        vals = [v for _, v in prof]
        assert vals == sorted(vals, reverse=True)
        # sampled windows are entrywise below the profile tail
        d = Direction.arithmetic(sp, 16, 8)
        win = limit_operator(A, d, R=2, tol=1e-3, tail=3)
        assert np.max(np.abs(win.matrix)) <= vals[-1]

    def test_identity_not_ghost(self):
        sp = big_nat(80, "ngi")
        prof = ghost_profile(identity(sp), radii=[5, 10, 20])
        assert all(v == 1.0 for _, v in prof)

    def test_finitely_supported_profile_hits_zero(self):
        sp = big_nat(80, "ngf")
        A = from_triplets(sp, [(2, 3, 5.0), (0, 0, 1.0)])
        prof = ghost_profile(A, radii=[1, 2, 3, 10])
        assert prof[-1][1] == 0.0
        assert prof[0][1] == 5.0


class TestSparsifierInheritance:
    def test_extracted_template_keeps_constants(self):
        # the stabilized window of an interval window is again an interval,
        # so the block sparsifier achieves the same fraction on it
        sp = big_nat(2000, "ninherit")
        S = shift_operator(sp)
        d = Direction.arithmetic(sp, 100, 100)
        win = limit_operator(S, d, R=24, tol=1e-12)
        wsp, _ = win.as_operator()
        res_window = sparsify(wsp, None, m=3, target_c=0.7)
        assert res_window.mass_fraction >= 0.7
        assert res_window.diameter_bound <= 9


window_spaces = st.one_of(
    st.builds(lambda u: {"kind": "n-window", "upper": u}, st.integers(0, 12)),
    st.builds(lambda lo, hi: {"kind": "zn-window", "lower": lo, "upper": hi},
              st.lists(st.integers(-2, 0), min_size=2, max_size=2),
              st.lists(st.integers(0, 2), min_size=2, max_size=2)),
    st.builds(lambda hi: {"kind": "quadrant", "upper": hi},
              st.lists(st.integers(0, 3), min_size=2, max_size=2)),
    st.builds(lambda n, extra: {
        "kind": "graph", "n": n,
        "edges": [(i, i + 1) for i in range(n - 1)]
        + [(u % n, v % n) for u, v in extra if u % n != v % n]},
        st.integers(2, 10),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=4)),
)


class TestWindowMatrix:
    """Pull-back against the dense matrix gathered at the unfolded ids."""

    @settings(max_examples=60, deadline=None)
    @given(desc=window_spaces, block_dim=st.sampled_from([1, 2]),
           prop=st.integers(0, 2), seed=st.integers(0, 2**16),
           data=st.data())
    def test_matches_dense_gather(self, desc, block_dim, prop, seed, data):
        sp = build_space(desc)
        A = random_band(sp, prop, np.random.default_rng(seed),
                        block_dim=block_dim)
        perm = data.draw(st.permutations(range(sp.n)))
        ids = perm[:data.draw(st.integers(0, sp.n))]
        k = block_dim
        unfolded = np.array([x * k + a for x in ids for a in range(k)],
                            dtype=np.int64)
        expected = A.to_dense()[np.ix_(unfolded, unfolded)]
        got = _window_stack(A, [ids])[0]
        assert got.dtype == np.complex128
        assert np.array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(desc=window_spaces, block_dim=st.sampled_from([1, 2]),
           prop=st.integers(0, 2), seed=st.integers(0, 2**16),
           data=st.data())
    def test_stack_is_the_per_window_gather(self, desc, block_dim, prop, seed,
                                            data):
        sp = build_space(desc)
        A = random_band(sp, prop, np.random.default_rng(seed),
                        block_dim=block_dim)
        count = data.draw(st.integers(1, 4))
        # windows smaller than the space hold entries whose rows fall outside
        m = data.draw(st.integers(0, sp.n))
        ids = [data.draw(st.permutations(range(sp.n)))[:m]
               for _ in range(count)]
        got = _window_stack(A, ids)
        k = block_dim
        assert got.shape == (count, m * k, m * k)
        assert got.dtype == np.complex128
        for window, pts in zip(got, ids):
            assert np.array_equal(window, reference_window_matrix(A, pts))

    def test_empty_ids(self):
        sp = big_nat(10, "nempty")
        got = _window_stack(tridiagonal(sp), [[]])[0]
        assert got.shape == (0, 0)


def certify_reference(windows, tol, tail):
    """The O(k^3) suffix loop that _certify_windows replaced."""
    count = len(windows)
    need = min(tail, count)
    profile = [float(np.max(np.abs(w - windows[-1]))) if w.size else 0.0
               for w in windows]

    def suffix_dev(s):
        dev = 0.0
        for i in range(s, count):
            for j in range(i + 1, count):
                dev = max(dev, float(np.max(np.abs(windows[i] - windows[j])))
                          if windows[i].size else 0.0)
        return dev

    best = None
    for s in range(0, count - need + 1):
        dev = suffix_dev(s)
        if dev <= tol:
            best = (s, dev)
            break
    if best is None:
        s = count - need
        raise CauchyFailure(
            f"window matrices deviate by {suffix_dev(s):.3e} over the last "
            f"{need} basepoints (tolerance {tol:.3e})", profile)
    s, dev = best
    tailw = windows[s:]
    if all(np.array_equal(tailw[0], w) for w in tailw[1:]):
        avg = tailw[0].copy()
    else:
        avg = np.mean(np.stack(tailw), axis=0)
    return s, avg, dev, profile


def run_certify(fn, windows, tol, tail):
    try:
        return fn(windows, tol, tail)
    except CauchyFailure as exc:
        return str(exc), exc.profile


def assert_same_certificate(windows, tol, tail):
    got = run_certify(_certify_windows, windows, tol, tail)
    ref = run_certify(certify_reference, windows, tol, tail)
    assert len(got) == len(ref)
    if len(ref) == 2:
        assert got == ref
        return got
    s, avg, dev, profile = got
    assert (s, dev, profile) == (ref[0], ref[2], ref[3])
    assert type(dev) is float
    assert all(type(d) is float for d in profile)
    assert avg.dtype == ref[1].dtype and avg.shape == ref[1].shape
    assert np.array_equal(avg, ref[1])
    assert avg.tobytes() == ref[1].tobytes()
    assert not any(np.shares_memory(avg, w) for w in windows)
    return got


entry_values = st.sampled_from([0.0, 0.25, -0.5, 1.0, 1e-10, 3e-10, 0.1])


@st.composite
def window_families(draw):
    count = draw(st.integers(1, 7))
    m = draw(st.integers(0, 3))
    base = np.zeros((m, m), dtype=np.complex128)
    windows = []
    for _ in range(count):
        w = base.copy()
        for _ in range(draw(st.integers(0, 2)) if m else 0):
            i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            w[i, j] += complex(draw(entry_values), draw(entry_values))
        windows.append(w)
    return windows


class TestCertifyWindows:
    """Pairwise deviation matrix against the per-suffix reference loop."""

    @settings(max_examples=200, deadline=None)
    @given(windows=window_families(),
           tol=st.sampled_from([0.0, 1e-10, 1e-9, 0.25, 0.5, 2.0]),
           tail=st.integers(1, 8))
    def test_matches_reference(self, windows, tol, tail):
        assert_same_certificate(windows, tol, tail)

    def test_bitwise_constant_suffix_is_copied(self):
        w = np.array([[0.1 + 0.2j, 1 / 3], [0.0, -0.7j]])
        windows = [w + 1.0, w.copy(), w.copy(), w.copy()]
        s, avg, dev, _ = assert_same_certificate(windows, 0.0, 3)
        assert (s, dev) == (1, 0.0)
        assert avg.tobytes() == w.tobytes()

    def test_deviation_equal_to_tol_is_admissible(self):
        w = np.eye(2, dtype=np.complex128)
        windows = [w, w + 0.5j, w + 0.25j, w]
        s, _, dev, _ = assert_same_certificate(windows, 0.5, 4)
        assert (s, dev) == (0, 0.5)
        with pytest.raises(CauchyFailure):
            _certify_windows(windows, np.nextafter(0.5, 0), 4)

    def test_fewer_windows_than_tail(self):
        w = np.ones((1, 1), dtype=np.complex128)
        s, avg, dev, _ = assert_same_certificate([w, w * 1.5, w * 1.25], 1.0, 5)
        assert (s, dev) == (0, 0.5)
        assert_same_certificate([w, w * 1.5, w * 1.25], 0.1, 5)

    def test_size_zero_windows(self):
        windows = [np.zeros((0, 0), dtype=np.complex128) for _ in range(4)]
        s, avg, dev, profile = assert_same_certificate(windows, 0.0, 2)
        assert (s, dev, profile, avg.shape) == (0, 0.0, [0.0] * 4, (0, 0))

    def test_first_admissible_start_is_not_the_last(self):
        w = np.full((2, 2), 0.3 + 0.1j)
        windows = [w + 1.0, w, w + 1e-12, w, w + 2e-12]
        s, _, dev, _ = assert_same_certificate(windows, 1e-9, 2)
        assert s == 1 and dev > 0.0     # count - need = 3 is admissible too

    def test_failure_message_and_profile(self):
        windows = [np.full((1, 1), v, dtype=np.complex128)
                   for v in (1.0, 0.5, 0.25, 0.125)]
        message, profile = assert_same_certificate(windows, 1e-3, 3)
        assert "3.750e-01 over the last 3 basepoints" in message
        assert profile == [0.875, 0.375, 0.125, 0.0]

    def test_nan_entry_is_never_certified(self):
        # the reference loop let max(0.0, nan) drop NaN deviations and
        # certified such windows with cauchy_tail 0
        w = np.zeros((2, 2), dtype=np.complex128)
        bad = w.copy()
        bad[1, 0] = np.nan
        for windows in ([w, bad, w], [bad, w, w, w]):
            with pytest.raises(CauchyFailure, match="deviate by nan"):
                _certify_windows(windows, 1e-9, len(windows))
        s, _, dev, _ = _certify_windows([bad, w, w, w], 1e-9, 3)
        assert (s, dev) == (1, 0.0)


def loop_propagation(win):
    out = 0
    for i in range(win.size):
        for j in range(win.size):
            if np.any(win.entry(i, j) != 0):
                out = max(out, int(win.template.dist[i, j]))
    return out


def loop_triplets(win):
    trip = []
    for i in range(win.size):
        for j in range(win.size):
            b = win.entry(i, j)
            if np.any(b != 0):
                trip.append((i, j, b if win.block_dim > 1 else b[0, 0]))
    return trip


def loop_matrix_json(win):
    k = win.block_dim
    trip = []
    for i, j, b in loop_triplets(win):
        b = np.asarray(b).reshape(k, k)
        flat = []
        for bi in range(k):
            for bj in range(k):
                flat.extend([b[bi, bj].real, b[bi, bj].imag])
        trip.append([int(i), int(j)] + flat)
    return trip


def block_window(matrix, block_dim, size):
    pts = list(range(size))
    dist = np.array([[abs(a - b) for b in pts] for a in pts])
    return LimitWindow(
        template=Template(dist, base=0), matrix=matrix, radius=size - 1,
        cauchy_tail=0.0, stabilized_from=0, tol=1e-9, direction_label="t",
        basepoints_used=[3, 4], block_dim=block_dim, p=2.0)


class TestBlockWalks:
    """propagation, as_operator and to_json against per-block loops."""

    def check(self, win):
        assert win.propagation() == loop_propagation(win)
        assert win.to_json()["matrix"] == loop_matrix_json(win)
        assert win.to_json()["propagation"] == loop_propagation(win)
        assert report_dumps(win.to_json()) == reference_dumps(
            reference_window_json(win))
        sp, op = win.as_operator()
        ref = from_triplets(sp, loop_triplets(win), block_dim=win.block_dim,
                            p=win.p)
        assert np.array_equal(sp.row(0), win.template.dist[0])
        assert (op.block_dim, op.p, op.nnz) == (ref.block_dim, ref.p, ref.nnz)
        assert np.array_equal(op.rows, ref.rows)
        assert np.array_equal(op.cols, ref.cols)
        assert op.blocks.tobytes() == ref.blocks.tobytes()
        assert op.propagation == ref.propagation

    def test_imaginary_off_diagonal_component_counts(self):
        m, k = 5, 2
        mat = np.zeros((m * k, m * k), dtype=np.complex128)
        mat[0:2, 0:2] = [[1.0, 0.5], [0.0, 1 / 3 + 0.25j]]
        mat[4:6, 2:4] = [[-2.0, 0.0], [0.0, 1e-17]]
        mat[0, 9] = 0.7j                # block (0, 4): only Im of entry (0, 1)
        win = block_window(mat, k, m)
        self.check(win)
        assert win.propagation() == 4
        assert win.to_json()["matrix"][1] == [0, 4, 0.0, 0.0, 0.0, 0.7,
                                              0.0, 0.0, 0.0, 0.0]

    def test_all_zero_window(self):
        win = block_window(np.zeros((8, 8), dtype=np.complex128), 2, 4)
        self.check(win)
        assert win.propagation() == 0
        assert win.to_json()["matrix"] == []
        assert win.as_operator()[1].nnz == 0

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 6), k=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 2**16))
    def test_random_sparse_blocks(self, m, k, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((m * k, m * k)) \
            + 1j * rng.standard_normal((m * k, m * k))
        keep = rng.random(vals.shape) < 0.15
        win = block_window(np.where(keep, vals, 0), k, m)
        self.check(win)
        assert report_dumps(win.to_json()) == report_dumps(
            {**win.to_json(), "matrix": loop_matrix_json(win)})


# -- one matching pass per basepoint ------------------------------------------


def reference_limit_space(space, direction, R, tol_count):
    """Stabilization index, or the class sizes, by the reference enumerator."""
    usable = direction.usable(space, R)
    templates = [ball_template(space, b, R)[0] for b in usable]

    def iso(t1, t2):
        return bool(reference_isometries(t1, t2, cap=1))

    i0 = len(usable) - 1
    while i0 > 0 and iso(templates[i0 - 1], templates[i0]):
        i0 -= 1
    if len(usable) - i0 >= min(tol_count, len(usable)):
        return i0
    classes = []
    for t in templates:
        for members in classes:
            if iso(members[0], t):
                members.append(t)
                break
        else:
            classes.append([t])
    return [len(members) for members in classes]


def reference_deviation(w1, w2):
    """Window deviation over the reference enumerator's first 256 maps."""
    isos = reference_isometries(w1.template, w2.template)
    if not isos:
        return np.inf
    k = w1.block_dim
    best = np.inf
    for iso in isos:
        perm = np.zeros(w1.size * k, dtype=np.int64)
        for i, p in enumerate(iso):
            perm[i * k:(i + 1) * k] = np.arange(p * k, (p + 1) * k)
        dev = float(np.max(np.abs(w1.matrix - w2.matrix[np.ix_(perm, perm)])))
        best = min(best, dev)
    return best


def bare_window(template, matrix, block_dim=1):
    return LimitWindow(template=template, matrix=matrix, radius=0,
                       cauchy_tail=0.0, stabilized_from=0, tol=0.0,
                       direction_label="w", basepoints_used=[],
                       block_dim=block_dim)


class TestOneMatchingPass:
    def test_divergence_summary_unchanged(self):
        sp = build_space({"kind": "quadrant", "upper": 14, "norm": "l2",
                          "name": "q14"})
        pts = [sp.lattice_id(c) for c in ([0, 0], [1, 0], [2, 1], [0, 4],
                                          [3, 3], [4, 4], [1, 6], [5, 5])]
        res = limit_space(sp, Direction(pts, "zigzag"), R=2, tol_count=4)
        assert res.diverged
        assert res.summary() == {"diverged": True, "radius": 2,
                                 "direction": "zigzag",
                                 "class_sizes": [1, 1, 2, 1, 3]}

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_limit_space_matches_reference(self, data):
        upper = data.draw(st.integers(6, 10))
        norm = data.draw(st.sampled_from(["linf", "l1", "l2"]))
        sp = build_space({"kind": "quadrant", "upper": upper, "norm": norm})
        R = data.draw(st.integers(1, 3))
        inner = [x for x in range(sp.n) if sp.margin(x) >= R]
        pts = data.draw(st.lists(st.sampled_from(inner), min_size=1,
                                 max_size=8, unique=True))
        row = sp.row(sp.center)
        pts.sort(key=lambda x: (row[x], x))
        tol_count = data.draw(st.integers(2, 4))
        d = Direction(pts, "random")
        res = limit_space(sp, d, R, tol_count=tol_count)
        ref = reference_limit_space(sp, d, R, tol_count)
        if res.diverged:
            assert res.summary()["class_sizes"] == ref
            return
        assert res.stabilized_from == ref
        for b in pts[ref:]:
            assert res.matchings[b] == match_ball_exact(sp, res.template, b, R)

    def test_window_deviation_matches_reference(self):
        rng = np.random.default_rng(29)
        lattice = build_space({"kind": "zn-window", "lower": [-6, -6],
                               "upper": [6, 6]})
        discrete = build_space({"kind": "explicit",
                                "matrix": (1 - np.eye(7, dtype=int)).tolist()})
        cases = [ball_template(lattice, lattice.center, 2)[0],
                 ball_template(lattice, 0, 2)[0],
                 ball_template(discrete, 0, 1)[0]]
        for t in cases:
            for k in (1, 2):
                mk = t.size * k
                for _ in range(5):
                    m1, m2 = (rng.integers(-2, 3, (mk, mk)).astype(complex)
                              for _ in range(2))
                    w1 = bare_window(t, m1, k)
                    w2 = bare_window(t, m2, k)
                    assert window_deviation(w1, w2) == reference_deviation(w1, w2)
                    assert window_deviation(w1, w1) == 0.0
        other = ball_template(lattice, lattice.center, 1)[0]
        assert window_deviation(bare_window(cases[0], np.zeros((25, 25))),
                                bare_window(other, np.zeros((9, 9)))) == np.inf
