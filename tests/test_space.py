import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from bandlim import space as space_module
from bandlim.space import (
    SpaceError, Template, build_space, ball_template, ball_templates,
    match_ball_exact, pointed_isometric, save_space, load_space,
    _check_metric_matrix, _isometries, same_space, space_to_json,
)

from conftest import (
    reference_check_metric_matrix, reference_isometries, torus_graph,
)


def brute_growth(space, r):
    return max(len(space.ball(x, r)) for x in range(space.n))


def check_metric_axioms(space):
    d = space.pairwise(np.arange(space.n), np.arange(space.n))
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    off = d + np.eye(space.n, dtype=np.int64)
    assert np.all(off > 0)
    for k in range(space.n):
        assert np.all(d <= d[:, k][:, None] + d[k, :][None, :])


class TestBuildSpace:
    def test_nat_window_basics(self, nat_window):
        assert nat_window.n == 51
        assert nat_window.growth(1) == 3

    def test_quadrant_growth_enumerated(self):
        sp = build_space({"kind": "quadrant", "upper": 6})
        assert sp.growth(1) == 9
        assert sp.growth(1) == brute_growth(sp, 1)
        assert sp.growth(2) == brute_growth(sp, 2)

    def test_unknown_lattice_norm_rejected(self):
        for kind in ("quadrant", "zn-window"):
            with pytest.raises(SpaceError, match="unknown lattice norm"):
                build_space({"kind": kind, "lower": [0, 0], "upper": [3, 3], "norm": "l3"})

    def test_box_space_two_components(self):
        sp = build_space({"kind": "box-cycles", "moduli": [8, 16],
                          "cross_distance": 100})
        assert sp.n == 24
        assert sp.growth(2) == 5
        assert sp.growth(2) == brute_growth(sp, 2)
        assert sp.dist(0, 8) == 100       # first points of each component
        assert sp.dist(0, 7) == 1         # cycle wraparound in Z/8
        assert sp.offset_point(7, 1) == 0  # the rotation wraps within Z/8
        check_metric_axioms(sp)

    def test_growth_monotone(self, quad_window):
        vals = [quad_window.growth(r) for r in range(0, 8)]
        assert vals == sorted(vals)
        assert vals[0] == 1

    @pytest.mark.parametrize("desc", [
        {"kind": "zn-window", "lower": [-3, -2], "upper": [3, 2], "norm": "l1"},
        {"kind": "box-cycles", "moduli": [8, 16], "cross_distance": 100},
        {"kind": "graph", "n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4],
                                            [4, 5], [1, 4]]},
    ])
    def test_infinite_and_nan_growth(self, desc):
        sp = build_space(desc)
        assert sp.growth(math.inf) == sp.n == len(sp.ball(0, math.inf))
        assert sp.growth(-math.inf) == 1
        with pytest.raises(SpaceError, match="nan"):
            sp.growth(math.nan)

    def test_small_spaces_satisfy_axioms(self):
        for desc in (
            {"kind": "quadrant", "upper": 5, "norm": "l2"},
            {"kind": "zn-window", "lower": [-3, -3], "upper": [3, 3], "norm": "l1"},
            {"kind": "graph", "n": 6,
             "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]},
        ):
            check_metric_axioms(build_space(desc))

    def test_explicit_matrix_ceiled(self):
        mat = [[0, 1.2, 2.0], [1.2, 0, 1.0], [2.0, 1.0, 0]]
        sp = build_space({"kind": "explicit", "matrix": mat})
        assert sp.dist(0, 1) == 2
        ids = np.arange(sp.n)
        assert np.unique(sp.pairwise(ids, ids)).tolist() == [0, 1, 2]

    def test_explicit_triangle_violation_rejected(self):
        mat = [[0, 1, 9], [1, 0, 1], [9, 1, 0]]
        with pytest.raises(SpaceError, match="triangle"):
            build_space({"kind": "explicit", "matrix": mat})

    def test_explicit_nonsymmetric_rejected(self):
        mat = [[0, 1, 2], [1, 0, 1], [3, 1, 0]]
        with pytest.raises(SpaceError, match="symmetric"):
            build_space({"kind": "explicit", "matrix": mat})

    def test_l2_window_distances_are_ceiled(self):
        sp = build_space({"kind": "zn-window", "lower": [0, 0], "upper": [4, 4],
                          "norm": "l2"})
        a = sp.lattice_id([0, 0])
        b = sp.lattice_id([3, 4])
        assert sp.dist(a, b) == 5
        c = sp.lattice_id([1, 1])
        assert sp.dist(a, c) == math.ceil(math.sqrt(2))

    def test_graph_disconnected_rejected(self):
        with pytest.raises(SpaceError, match="connected"):
            build_space({"kind": "graph", "n": 4, "edges": [[0, 1], [2, 3]]})

    def test_space_file_round_trip(self, tmp_path, quad_window):
        path = tmp_path / "space.json"
        save_space(path, quad_window)
        sp = load_space(path)
        assert sp.kind == quad_window.kind and sp.n == quad_window.n

    @pytest.mark.parametrize("desc", [
        {"kind": "zn-window", "lower": [np.int64(-2)], "upper": [np.int64(3)]},
        {"kind": "zn-window", "lower": np.array([-1, 0]),
         "upper": np.array([2, 2]), "norm": "l1"},
        {"kind": "n-window", "upper": np.int64(7)},
        {"kind": "quadrant", "upper": np.int32(4)},
    ])
    def test_numpy_bounds_save_and_load(self, tmp_path, desc):
        sp = build_space(desc)
        path = tmp_path / "space.json"
        save_space(path, sp)
        back = load_space(path)
        assert same_space(sp, back) and back.n == sp.n
        assert back.coords.tolist() == sp.coords.tolist()
        assert back.center == sp.center

    def test_same_space_compares_descriptors(self):
        torus = torus_graph(12)
        assert same_space(torus, torus)
        assert same_space(torus, torus_graph(12))
        desc = {"kind": "quadrant", "upper": 11, "name": "torus"}
        assert not same_space(torus, build_space(desc))
        assert not same_space(build_space({**desc, "norm": "linf"}),
                              build_space({**desc, "norm": "l1"}))


class TestBalls:
    def test_nat_interior(self, nat_window):
        assert nat_window.ball(5, 1).tolist() == [4, 5, 6]

    def test_nat_boundary_truncated(self, nat_window):
        assert nat_window.ball(0, 2).tolist() == [0, 1, 2]

    def test_quadrant_interior_ball(self, quad_window):
        center = quad_window.lattice_id([3, 3])
        ball = quad_window.ball(center, 1)
        assert len(ball) == 9
        expected = sorted(quad_window.lattice_id([3 + dx, 3 + dy])
                          for dx in (-1, 0, 1) for dy in (-1, 0, 1))
        assert ball.tolist() == expected

    def test_unknown_point_rejected(self, nat_window):
        with pytest.raises(SpaceError):
            nat_window.ball(999, 1)

    @pytest.mark.parametrize("desc", [
        {"kind": "zn-window", "lower": [-3, -2], "upper": [3, 2], "norm": "l2"},
        {"kind": "graph", "n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4],
                                            [4, 5], [1, 4]]},
    ])
    def test_infinite_and_nan_radius(self, desc):
        sp = build_space(desc)
        for x in (0, sp.n - 1):
            assert sp.ball(x, math.inf).tolist() == list(range(sp.n))
            with pytest.raises(SpaceError, match="nan"):
                sp.ball(x, math.nan)
            with pytest.raises(SpaceError, match="nonnegative"):
                sp.ball(x, -math.inf)

    def test_ball_matches_row_scan(self, quad_window):
        for x in (0, 13, 60):
            for r in (0, 2, 4):
                scan = np.nonzero(quad_window.row(x) <= r)[0]
                assert np.array_equal(quad_window.ball(x, r), scan)


class TestMargins:
    def test_nat_margin_only_right_end(self, nat_window):
        assert nat_window.margin(0) == 50
        assert nat_window.margin(50) == 0

    def test_z_window_margin(self, z_window):
        x = z_window.lattice_id([0])
        assert z_window.margin(x) == 20

    def test_box_margin(self):
        sp = build_space({"kind": "box-cycles", "moduli": [8, 16],
                          "cross_distance": 100})
        assert sp.margin(0) == 2     # Z/8 component: cycle balls look like Z up to r=2
        assert sp.margin(8) == 4

    def test_explicit_margin_infinite(self):
        sp = build_space({"kind": "explicit", "matrix": [[0, 1], [1, 0]]})
        assert sp.margin(0) == math.inf


def brute_pointed_embedding(space, template, center, radius):
    """Oracle: lexicographically least pointed isometric embedding."""
    ball = [int(v) for v in space.ball(center, radius)]
    m = template.size
    best = None
    others = [i for i in range(m) if i != template.base]
    for imgs in itertools.permutations(ball, m - 1):
        cand = {template.base: center}
        cand.update(dict(zip(others, imgs)))
        if len(set(cand.values())) != m:
            continue
        ok = all(space.dist(cand[i], cand[j]) == template.dist[i, j]
                 for i in range(m) for j in range(m))
        if ok:
            seq = tuple(cand[i] for i in range(m))
            if best is None or seq < best:
                best = seq
    return best


def first_embedding(space, template, center, radius):
    """First pointed embedding ``_isometries`` finds in a ball, as ids."""
    ball = space.ball(center, radius)
    bdist = space.pairwise(ball, ball)
    img = next(_isometries(template.dist, template.base, bdist,
                           int(np.searchsorted(ball, center))), None)
    return None if img is None else tuple(int(ball[p]) for p in img)


class TestMatching:
    def test_path_template_lex_least(self, nat_window):
        tdist = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        template = Template(tdist)
        iso = first_embedding(nat_window, template, 10, 3)
        oracle = brute_pointed_embedding(nat_window, template, 10, 3)
        assert iso == oracle
        assert iso == (10, 9, 7)

    def test_single_point_maps_to_center(self, nat_window):
        template = Template(np.zeros((1, 1), dtype=int))
        assert first_embedding(nat_window, template, 17, 2) == (17,)
        assert brute_pointed_embedding(nat_window, template, 17, 2) == (17,)

    def test_diameter_obstruction_absent(self, nat_window):
        tdist = np.array([[0, 7], [7, 0]])
        assert first_embedding(nat_window, tdist_template(tdist), 25, 3) is None
        assert brute_pointed_embedding(nat_window, tdist_template(tdist), 25, 3) \
            is None

    def test_match_preserves_distances_random(self, quad_window):
        rng = np.random.default_rng(7)
        for _ in range(25):
            center = int(rng.integers(0, quad_window.n))
            radius = int(rng.integers(1, 4))
            template, ids = ball_template(quad_window, center, radius)
            iso = first_embedding(quad_window, template, center, radius)
            assert iso is not None
            targets = np.array(iso)
            got = quad_window.pairwise(targets, targets)
            assert np.array_equal(got, template.dist)

    def test_exact_ball_match_across_homogeneous_space(self, z_window):
        template, _ = ball_template(z_window, z_window.lattice_id([0]), 3)
        ids = match_ball_exact(z_window, template, z_window.lattice_id([5]), 3)
        assert ids is not None
        got = z_window.pairwise(np.array(ids), np.array(ids))
        assert np.array_equal(got, template.dist)

    def test_pointed_isometric_classes(self, nat_window):
        t_mid, _ = ball_template(nat_window, 10, 2)
        t_mid2, _ = ball_template(nat_window, 30, 2)
        t_edge, _ = ball_template(nat_window, 0, 2)
        assert pointed_isometric(t_mid, t_mid2)
        assert not pointed_isometric(t_mid, t_edge)


def tdist_template(tdist):
    return Template(np.asarray(tdist))


# -- property tests over every space kind -------------------------------------


norms = st.sampled_from(["linf", "l1", "l2"])


@st.composite
def connected_edges(draw, n):
    """Random spanning tree plus extra edges, self-loops and duplicates."""
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append([u, v] if draw(st.booleans()) else [v, u])
    point = st.integers(0, n - 1)
    edges += draw(st.lists(st.lists(point, min_size=2, max_size=2),
                           max_size=2 * n))
    edges += [[v, v] for v in draw(st.lists(point, max_size=2))]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return draw(st.permutations(edges))


@st.composite
def space_descriptors(draw, explicit=False):
    kinds = ["n-window", "zn-window-1", "zn-window-2", "quadrant",
             "box-cycles", "graph"] + (["explicit"] if explicit else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "n-window":
        return {"kind": kind, "upper": draw(st.integers(0, 20))}
    if kind.startswith("zn-window"):
        dims = int(kind[-1])
        span = 10 if dims == 1 else 4
        lower = [draw(st.integers(-span, 0)) for _ in range(dims)]
        upper = [draw(st.integers(0, span)) for _ in range(dims)]
        return {"kind": "zn-window", "lower": lower, "upper": upper,
                "norm": draw(norms)}
    if kind == "quadrant":
        upper = [draw(st.integers(0, 6)) for _ in range(2)]
        return {"kind": kind, "upper": upper, "norm": draw(norms)}
    if kind == "box-cycles":
        mods = draw(st.lists(st.integers(3, 10), min_size=1, max_size=3))
        top = max(k // 2 for k in mods)
        cross = draw(st.integers(max(1, -(-top // 2)), 8))
        return {"kind": kind, "moduli": mods, "cross_distance": cross}
    n = draw(st.integers(1, 12 if kind == "graph" else 9))
    edges = draw(connected_edges(n))
    if kind == "graph":
        return {"kind": kind, "n": n, "edges": edges}
    # explicit: shortest paths of the graph under integer edge weights
    weights = [draw(st.integers(1, 3)) for _ in edges]
    rows = [u for u, v in edges if u != v]
    cols = [v for u, v in edges if u != v]
    w = [x for (u, v), x in zip(edges, weights) if u != v]
    adj = csr_matrix((w + w, (rows + cols, cols + rows)), shape=(n, n))
    mat = shortest_path(adj, method="D")
    return {"kind": kind, "matrix": mat.astype(int).tolist()}


def relabel(template, perm):
    """Template with label i standing for the old label perm[i]."""
    perm = list(perm)
    return Template(template.dist[np.ix_(perm, perm)],
                    base=perm.index(template.base))


class TestMetricAxioms:
    @settings(max_examples=150, deadline=None)
    @given(space_descriptors())
    def test_every_kind_is_an_integer_metric(self, desc):
        sp = build_space(desc)
        ids = np.arange(sp.n)
        d = sp.pairwise(ids, ids)
        assert np.issubdtype(d.dtype, np.integer)
        _check_metric_matrix(d)

    @staticmethod
    def outcome(check, mat):
        try:
            check(mat)
        except SpaceError as exc:
            return str(exc)
        return None

    def check_against_the_loop(self, mat):
        got = self.outcome(_check_metric_matrix, mat)
        want = self.outcome(reference_check_metric_matrix, mat)
        assert (got is None) == (want is None)
        if got is None or "triangle" not in got:
            assert got == want
            return
        assert "triangle" in want
        i, k, j = map(int, re.search(r"\((\d+), (\d+), (\d+)\)", got).groups())
        sums = mat[:, :, None] + mat[None]
        bad = np.argwhere(sums.min(axis=1) < mat)
        # (i, j) is the first violating pair and k its least minimizer
        assert (i, j) == tuple(bad[0])
        assert mat[i, k] + mat[k, j] < mat[i, j]
        assert k == int(np.argmin(mat[i] + mat[:, j]))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_min_plus_check_is_the_loop(self, data):
        n = data.draw(st.integers(1, 9))
        mat = np.zeros((n, n), dtype=np.int64)
        mat[np.triu_indices(n, 1)] = data.draw(st.lists(
            st.integers(1, 6), min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2))
        mat = mat + mat.T
        for _ in range(data.draw(st.integers(0, 2))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            mat[i, j] = data.draw(st.integers(-1, 6))
        self.check_against_the_loop(mat)

    def test_violation_in_a_late_row_chunk(self):
        n = 150                     # 46 rows per chunk of 2^20 sums
        mat = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        self.check_against_the_loop(mat)
        mat[140, 149] = mat[149, 140] = 10
        with pytest.raises(SpaceError, match=re.escape("(140, 141, 149)")):
            _check_metric_matrix(mat)
        self.check_against_the_loop(mat)


class TestOneSearch:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equal_templates_give_the_least_isometry(self, data):
        sp = build_space(data.draw(space_descriptors(explicit=True)))
        r = data.draw(st.integers(1, 3))
        c1 = data.draw(st.integers(0, sp.n - 1))
        c2 = data.draw(st.integers(0, sp.n - 1))
        t1, _ = ball_template(sp, c1, r)
        t2, ids2 = ball_template(sp, c2, r)
        if np.array_equal(t1.dist, t2.dist):
            assert ids2 == match_ball_exact(sp, t1, c2, r)
        found = bool(reference_isometries(t1, t2, cap=1))
        assert pointed_isometric(t1, t2) == found
        p1 = data.draw(st.permutations(range(t1.size)))
        p2 = data.draw(st.permutations(range(t2.size)))
        assert pointed_isometric(relabel(t1, p1), relabel(t2, p2)) == found

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_enumeration_matches_reference(self, data):
        sp = build_space(data.draw(space_descriptors(explicit=True)))
        r = data.draw(st.integers(1, 3))
        c1 = data.draw(st.integers(0, sp.n - 1))
        c2 = data.draw(st.integers(0, sp.n - 1))
        t1, _ = ball_template(sp, c1, r)
        t2, _ = ball_template(sp, c2, r)
        if t1.size != t2.size:
            return
        got = [iso.tolist() for iso in itertools.islice(
            _isometries(t1.dist, 0, t2.dist, 0), 256)]
        assert got == reference_isometries(t1, t2)
        s1 = relabel(t1, data.draw(st.permutations(range(t1.size))))
        s2 = relabel(t2, data.draw(st.permutations(range(t2.size))))
        ref = reference_isometries(s1, s2)
        if len(ref) < 256:
            got = [tuple(iso.tolist())
                   for iso in _isometries(s1.dist, s1.base, s2.dist, s2.base)]
            assert len(set(got)) == len(got)
            assert sorted(got) == sorted(map(tuple, ref))

    @pytest.mark.parametrize("desc", [
        {"kind": "explicit", "matrix": (1 - np.eye(8, dtype=int)).tolist()},
        {"kind": "graph", "n": 8, "edges": [[0, v] for v in range(1, 8)]},
    ])
    def test_first_256_of_many_maps(self, desc):
        sp = build_space(desc)
        t, _ = ball_template(sp, 0, 1)
        got = [iso.tolist() for iso in itertools.islice(
            _isometries(t.dist, 0, t.dist, 0), 256)]
        assert len(got) == 256
        assert got == reference_isometries(t, t)

    def test_injection_into_a_larger_ball(self, nat_window):
        template = Template(np.array([[0, 1], [1, 0]]))
        ball = nat_window.ball(10, 2)
        bdist = nat_window.pairwise(ball, ball)
        got = [ball[iso].tolist() for iso in
               _isometries(template.dist, 0, bdist, 2)]
        assert got == [[10, 9], [10, 11]]


def reference_row(sp, x):
    """Distances from x, point by point, from each kind's own definition."""
    if sp.coords is not None:
        out = []
        for y in sp.coords.tolist():
            d = [abs(a - b) for a, b in zip(sp.coords[x].tolist(), y)]
            sq = sum(v * v for v in d)
            root = math.isqrt(sq)
            out.append({"linf": max(d), "l1": sum(d),
                        "l2": root + (root * root < sq)}[sp.norm])
    elif sp.components is not None:
        ci, res, mod = (a.tolist() for a in sp.components)
        out = [min(abs(res[x] - res[y]), mod[x] - abs(res[x] - res[y]))
               if ci[x] == ci[y] else sp.cross_distance for y in range(sp.n)]
    else:
        out = sp._matrix[x].tolist()
    return np.array(out, dtype=np.int64)


@st.composite
def zn3_descriptors(draw):
    lower = [draw(st.integers(-2, 0)) for _ in range(3)]
    upper = [draw(st.integers(0, 2)) for _ in range(3)]
    return {"kind": "zn-window", "lower": lower, "upper": upper,
            "norm": draw(st.sampled_from(["l1", "l2"]))}


# radii past the window are checked separately, from the space's diameter
radii = st.one_of(st.just(0), st.integers(0, 6),
                  st.floats(0, 6, allow_nan=False).filter(lambda r: r != int(r)))


@st.composite
def window_descriptors(draw):
    """A zn-window or quadrant in 1 to 3 dims under linf, l1 or l2."""
    dims = draw(st.integers(1, 3))
    upper = [draw(st.integers(0, 4)) for _ in range(dims)]
    if draw(st.booleans()):
        return {"kind": "quadrant", "upper": upper, "norm": draw(norms)}
    lower = [draw(st.integers(-4, 0)) for _ in range(dims)]
    return {"kind": "zn-window", "lower": lower, "upper": upper,
            "norm": draw(norms)}


class TestOneBallRoutine:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_stacked_templates_are_the_one_center_ones(self, data):
        sp = build_space(data.draw(st.one_of(space_descriptors(explicit=True),
                                             window_descriptors())))
        r = data.draw(st.one_of(radii, st.sampled_from([math.inf, 1e30])))
        # few points and up to 12 centers: repeats and clipped balls are common
        centers = data.draw(st.lists(st.integers(0, sp.n - 1), min_size=1,
                                     max_size=12))
        got = ball_templates(sp, centers, r)
        assert len(got) == len(centers)
        for c, (template, ids) in zip(centers, got):
            want, want_ids = ball_template(sp, c, r)
            assert ids == want_ids
            assert template.base == want.base == 0
            assert np.array_equal(template.dist, want.dist)

    def test_translated_balls_share_a_template(self):
        sp = build_space({"kind": "zn-window", "lower": [-6, -6],
                          "upper": [6, 6], "norm": "l2"})
        centers = [sp.lattice_id(c) for c in ([0, 0], [1, -2], [6, 0], [5, 3])]
        got = ball_templates(sp, centers, 2)
        assert got[0][0] is got[1][0]
        assert np.array_equal(got[1][1], np.array(got[0][1]) + centers[1]
                              - centers[0])
        assert got[2][0].size < got[0][0].size
        assert got[3][0] is not got[0][0]

    def test_unknown_center_or_bad_radius_rejected(self, quad_window):
        with pytest.raises(SpaceError, match="unknown point id 121"):
            ball_templates(quad_window, [3, 121], 2)
        with pytest.raises(SpaceError, match="unknown point id -1"):
            ball_templates(quad_window, [-1], 2)
        for r in (-1, math.nan):
            with pytest.raises(SpaceError, match="radius"):
                ball_templates(quad_window, [3, 5], r)
        assert ball_templates(quad_window, [], 2) == []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ball_row_pairwise_and_diameter_agree(self, data):
        sp = build_space(data.draw(st.one_of(space_descriptors(explicit=True),
                                             zn3_descriptors())))
        ref = np.array([reference_row(sp, a) for a in range(sp.n)])
        r = data.draw(radii)
        past = sp.diameter(np.arange(sp.n)) + data.draw(
            st.sampled_from([0, 0.5, 7]))
        for x in range(sp.n):
            assert np.array_equal(sp.row(x), ref[x])
            for rad in (r, 1, 1.5, 2):
                ball = sp.ball(x, rad)
                assert ball.dtype == np.int64
                assert np.array_equal(ball, np.nonzero(sp.row(x) <= rad)[0])
                assert np.array_equal(ball, np.nonzero(ref[x] <= rad)[0])
            assert np.array_equal(sp.ball(x, past), np.arange(sp.n))

        ids = st.integers(0, sp.n - 1)
        xs = np.array(data.draw(st.lists(ids, max_size=8)), dtype=np.int64)
        ys = np.array(data.draw(st.lists(ids, max_size=8)), dtype=np.int64)
        full = sp.pairwise(xs, ys)
        assert np.array_equal(full, ref[np.ix_(xs, ys)])
        assert np.array_equal(full, sp.pair_dist(xs[:, None], ys[None, :]))
        x = data.draw(ids)
        assert np.array_equal(sp.pair_dist(x, ys), ref[x, ys])
        k = min(len(xs), len(ys))
        assert np.array_equal(sp.pair_dist(xs[:k], ys[:k]), ref[xs[:k], ys[:k]])

        subset = data.draw(st.lists(ids, unique=True, max_size=sp.n))
        brute = max((ref[a, b] for a in subset for b in subset), default=0)
        assert sp.diameter(subset) == brute
        assert sp.diameter(np.arange(sp.n)) == ref.max()
        assert sp.diameter([]) == 0
        assert sp.diameter([x]) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_template_order_is_the_key_sort(self, data):
        sp = build_space(data.draw(st.one_of(space_descriptors(explicit=True),
                                             zn3_descriptors())))
        x = data.draw(st.integers(0, sp.n - 1))
        r = data.draw(st.integers(0, 4))
        ball = sp.ball(x, r).tolist()
        d = {a: reference_row(sp, a) for a in ball}
        order = sorted(ball, key=lambda a: (
            d[x][a], sorted(d[a][b] for b in ball), a))
        template, got = ball_template(sp, x, r)
        assert got == order
        assert np.array_equal(template.dist, [[d[a][b] for b in order]
                                              for a in order])

    def test_lattice_id_rejects_a_coordinate_of_the_wrong_length(self):
        sp = build_space({"kind": "quadrant", "upper": 5})
        assert sp.lattice_id([2, 2]) == 14
        for coord in ([2], [2, 2, 2], [[2, 2]]):
            with pytest.raises(SpaceError, match="dimension 2"):
                sp.lattice_id(coord)
        line = build_space({"kind": "n-window", "upper": 9})
        with pytest.raises(SpaceError, match="dimension 1"):
            line.lattice_id([1, 1])


class TestPairsWithin:
    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_pairs_are_the_dense_upper_triangle(self, data):
        sp = build_space(data.draw(st.one_of(space_descriptors(explicit=True),
                                             window_descriptors())))
        ids = np.arange(sp.n)
        dist = sp.pairwise(ids, ids)
        diam = int(dist.max())
        assert sp._largest_distance() == diam
        r = data.draw(st.one_of(radii, st.sampled_from(
            [diam, diam + 1, 1e30, math.inf])))
        chunk = data.draw(st.sampled_from([1, 3, 16, space_module._PAIR_CHUNK]))
        with mock.patch.object(space_module, "_PAIR_CHUNK", chunk):
            chunks = list(sp.pairs_within(r))
        assert all(0 < len(xs) <= max(chunk, sp.n) for xs, _, _ in chunks)
        got = sorted(zip(*(np.concatenate([c[k] for c in chunks]
                                          + [[]]).astype(np.int64).tolist()
                           for k in range(3))))
        i, j = np.nonzero(np.triu(dist <= r, 1))
        assert got == list(zip(i.tolist(), j.tolist(), dist[i, j].tolist()))

    def test_negative_or_nan_radius_rejected(self, quad_window):
        for r in (-1, math.nan):
            with pytest.raises(SpaceError, match="radius"):
                list(quad_window.pairs_within(r))


@st.composite
def group_descriptors(draw):
    if draw(st.booleans()):
        mods = draw(st.lists(st.integers(3, 10), min_size=1, max_size=3))
        return {"kind": "box-cycles", "moduli": mods, "cross_distance": 10}
    dims = draw(st.integers(1, 3))
    return {"kind": "zn-window",
            "lower": [draw(st.integers(-4, 0)) for _ in range(dims)],
            "upper": [draw(st.integers(0, 4)) for _ in range(dims)],
            "norm": draw(norms)}


def reference_offset_point(sp, x, offset):
    if sp.kind == "zn-window":
        return sp.lattice_id(sp.coords[x] + np.asarray(offset))
    ci, res, mod = (int(a[x]) for a in sp.components)
    return x - res + (res + offset) % mod


class TestGroupOffsets:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_batched_offsets_are_the_single_ones(self, data):
        sp = build_space(data.draw(group_descriptors()))
        xs = data.draw(st.lists(st.integers(0, sp.n - 1), min_size=1,
                                max_size=6))
        offsets = sp.group_offsets(data.draw(st.integers(0, 3)))
        got = sp.offset_points(np.array(xs)[:, None], offsets)
        assert got.shape == (len(xs), len(offsets))
        for x, row in zip(xs, got.tolist()):
            for off, y in zip(offsets, row):
                want = reference_offset_point(sp, x, off)
                assert sp.offset_point(x, off) == want
                assert y == (-1 if want is None else want)

    def test_scalar_offsets_and_other_kinds(self, quad_window):
        line = build_space({"kind": "zn-window", "lower": [-3], "upper": [3]})
        assert line.offset_point(5, 1) == 6
        assert line.offset_point(6, 1) is None
        assert quad_window.offset_point(0, (1, 0)) is None
        with pytest.raises(SpaceError, match="no group structure"):
            quad_window.offset_points([0], [(1, 0)])


class TestCenters:
    SPACES = {
        "zn-window": {"kind": "zn-window", "lower": [-2], "upper": [2]},
        "explicit": {"kind": "explicit", "matrix": [[0, 1], [1, 0]]},
        "graph": {"kind": "graph", "n": 3, "edges": [[0, 1], [1, 2]]},
    }

    @pytest.mark.parametrize("kind", sorted(SPACES))
    @pytest.mark.parametrize("past", [False, True])
    def test_center_outside_the_space_rejected(self, kind, past):
        desc = self.SPACES[kind]
        n = build_space(desc).n
        with pytest.raises(SpaceError, match="center"):
            build_space({**desc, "center": n if past else -1})
        assert build_space({**desc, "center": n - 1}).center == n - 1


# lattice bounds of every shape the descriptors meet: Python and numpy
# integers, scalars and lists of up to three axes, some empty or misaligned
lattice_ints = st.builds(lambda v, t: t(v), st.integers(-2, 3),
                         st.sampled_from([int, np.int64, np.int32]))
lattice_bounds = st.one_of(lattice_ints,
                           st.lists(lattice_ints, min_size=0, max_size=3))


@st.composite
def lattice_descriptors(draw):
    kind = draw(st.sampled_from(["n-window", "zn-window", "quadrant"]))
    if kind == "n-window":
        lower, upper = None, draw(st.integers(-2, 12))
    elif draw(st.booleans()):
        # aligned axes, upper mostly at or above lower
        lower = draw(st.lists(lattice_ints, min_size=1, max_size=3))
        upper = [type(l)(l + draw(st.integers(-1, 3))) for l in lower]
    else:
        lower, upper = draw(lattice_bounds), draw(lattice_bounds)
    desc = {"kind": kind, "upper": upper}
    if kind == "zn-window":
        desc["lower"] = lower
        if draw(st.booleans()):
            desc["center"] = draw(st.integers(-1, 20))
    if kind != "n-window" and draw(st.booleans()):
        desc["norm"] = draw(st.sampled_from(["linf", "l1", "l2", "l3"]))
    return desc


def expected_box(desc):
    """(lower, upper, norm, center) a lattice descriptor builds, or None."""
    kind, up = desc["kind"], desc["upper"]
    norm = "l1" if kind == "n-window" else desc.get("norm", "linf")
    if kind == "n-window":
        lower, upper = [0], [int(up)]
    elif kind == "quadrant":
        upper = [int(v) for v in up] if isinstance(up, list) else [int(up)] * 2
        lower = [0] * len(upper)
    elif isinstance(up, list) and isinstance(desc["lower"], list):
        lower, upper = [int(v) for v in desc["lower"]], [int(v) for v in up]
    else:
        return None
    if not upper or len(lower) != len(upper) \
            or any(u < l for l, u in zip(lower, upper)) \
            or norm not in ("linf", "l1", "l2"):
        return None
    origin = [min(max(0, l), u) for l, u in zip(lower, upper)]
    points = list(itertools.product(*(range(l, u + 1)
                                      for l, u in zip(lower, upper))))
    center = desc.get("center", points.index(tuple(origin))) \
        if kind == "zn-window" else 0
    if not 0 <= center < len(points):
        return None
    return lower, upper, norm, center


def model_dist(delta, norm):
    delta = np.abs(delta)
    if norm == "linf":
        return delta.max(axis=-1)
    if norm == "l1":
        return delta.sum(axis=-1)
    # ceil(sqrt(v)) = isqrt(v - 1) + 1 for v >= 1
    return np.array([math.isqrt(v - 1) + 1 if v else 0
                     for v in (delta * delta).sum(axis=-1).tolist()])


def brute_margins(sp, lower, upper, norm):
    """One less than the distance from each point to the nearest point of the
    model lattice (Z^d for a zn-window, N^d otherwise) outside the window."""
    lower, upper = np.array(lower), np.array(upper)
    reach = int((upper - lower).max()) + 1
    offs = np.array(list(itertools.product(range(-reach, reach + 1),
                                           repeat=len(lower))))
    out = []
    for c in sp.coords:
        pts = c + offs
        model = np.ones(len(pts), dtype=bool) if sp.kind == "zn-window" \
            else np.all(pts >= 0, axis=1)
        outside = np.any((pts < lower) | (pts > upper), axis=1)
        out.append(int(model_dist(offs[model & outside], norm).min()) - 1)
    return out


class TestOneLatticeWindow:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_growth_is_the_midpoint_ball(self, data):
        dims = data.draw(st.integers(1, 3))
        lower = [data.draw(st.integers(-3, 0)) for _ in range(dims)]
        upper = [l + data.draw(st.integers(0, 6 if dims < 3 else 4)) for l in lower]
        sp = build_space({"kind": "zn-window", "lower": lower, "upper": upper,
                          "norm": data.draw(norms)})
        for r in range(7):
            assert sp.growth(r) == brute_growth(sp, r)

    @settings(max_examples=200, deadline=None)
    @given(lattice_descriptors(), st.integers(-1, 7))
    def test_descriptor_builds_the_box_or_raises(self, desc, m):
        box = expected_box(desc)
        if box is None:
            with pytest.raises(SpaceError):
                build_space(desc)
            return
        lower, upper, norm, center = box
        sp = build_space(desc)
        assert sp.n == math.prod(u - l + 1 for l, u in zip(lower, upper)) >= 1
        assert sp.center == center and 0 <= sp.center < sp.n
        assert sp.coords.tolist() == [list(c) for c in itertools.product(
            *(range(l, u + 1) for l, u in zip(lower, upper)))]
        assert same_space(sp, build_space(space_to_json(sp)))

        ids = np.arange(sp.n)
        margins = sp.margin(ids)
        assert margins.tolist() == [sp.margin(x) for x in ids]
        assert all(type(sp.margin(x)) is int for x in ids)
        assert margins.tolist() == brute_margins(sp, lower, upper, norm)
        assert sp.interior(m).tolist() == [x for x in range(sp.n)
                                           if margins[x] >= m]

    @settings(max_examples=60, deadline=None)
    @given(space_descriptors(explicit=True), st.integers(-1, 7))
    def test_margin_of_an_id_array_is_the_scalar_margins(self, desc, m):
        sp = build_space(desc)
        ids = np.arange(sp.n)
        scalars = [sp.margin(x) for x in ids]
        assert sp.margin(ids).tolist() == scalars
        assert sp.margin(ids[::-1][:3]).tolist() == scalars[::-1][:3]
        assert sp.interior(m).tolist() == [x for x in ids if scalars[x] >= m]

    @pytest.mark.parametrize("desc", [
        {"kind": "quadrant", "upper": -1},
        {"kind": "quadrant", "upper": [3, -2]},
        {"kind": "quadrant", "upper": 2000},
        {"kind": "n-window", "upper": 500000},
        {"kind": "zn-window", "lower": [0, 0], "upper": [999, 500]},
        {"kind": "zn-window", "lower": [0], "upper": [5], "center": -1},
    ])
    def test_empty_huge_and_off_center_windows_rejected(self, desc):
        with pytest.raises(SpaceError):
            build_space(desc)

    @pytest.mark.parametrize("upper", [np.int64(3), np.int32(3), 3])
    def test_scalar_quadrant_upper_is_the_square(self, upper):
        sp = build_space({"kind": "quadrant", "upper": upper})
        assert sp.n == 16 and sp.params["upper"] == [3, 3]
        assert same_space(sp, build_space({"kind": "quadrant", "upper": [3, 3]}))
