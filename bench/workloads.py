"""Seeded inputs, set-up and query lists of the three benchmark workloads.

A workload is built in three steps:

* ``inputs(rng, size)`` draws everything random from the workload seed: the
  periodic stencil values, the decaying perturbations and the direction start
  offsets.  It returns plain descriptors and triplet lists, so ``bandlim``
  only ever receives generated inputs.
* ``setup(bl, inp)`` builds the spaces and operators with ``build_space`` and
  ``from_triplets``; this is what ``setup_s`` times.
* ``queries(bl, st, inp)`` lists the queries of one pass.  A query is one call into
  a public ``bandlim`` function.  Calls look functions up through the module
  (``bl.limits.limit_operator``) at call time, so the tracer's wrappers see
  them.

Each query carries its oracle, run once on the warm-up result, and for
``nu_s`` and ``essential_nu`` the same call at ``threads=1``, whose report body
must match.  Seeds move values inside narrow ranges and never the sizes, so
the amount of work stays the same from seed to seed.

Why these workloads:

* ``spectrum``: limit extraction; nearly all time is window pull-back and
  Cauchy certification in ``limits`` and ball isometry matching in ``space``
  (2-d balls).  ``lowernorm`` sees only small dense calls; ``partition`` is
  never called.
* ``localize``: lower norms; restricted SVDs and the per-ball overhead of
  ``nu_s`` dominate, and ``space`` answers 1-d fast-path balls.  ``limits``
  and ``partition`` are bypassed.
* ``partition``: partitions of unity and parametrix assembly; pair sweeps and
  point-wise ``Space.dist`` on 2-d lattice and graph spaces dominate, and the
  graph space puts its O(n^3) metric check into set-up.  ``lowernorm`` and
  ``limits`` are not called.
"""

from dataclasses import asdict, dataclass
import math
from typing import Callable, Optional

import numpy as np

# Issue sizes scaled so that one pass takes one to two seconds on a 2-core
# Xeon; "tiny" is for the benchmark's own smoke test.  Every workload has 25
# queries per pass: with a count of 5 mod 10, p50 and p90 fall in the middle
# of one query's samples instead of between two queries, and four passes hold
# the 100 queries that p90 needs.
SIZES = {
    "full": {
        "spectrum": dict(quad=48, ray_step=6, nwin=2000,
                         steps=(60, 66, 72, 78, 84, 90), slow_step=40,
                         zhalf=1000, zsteps=(60, 90), moduli=(16, 32, 64, 128, 256)),
        "localize": dict(n=420, split=400, loc_n=100, known_n=(300, 150, 75),
                         neumann_n=1000, radii=(10, 40, 80, 160), scales=(5, 20),
                         cascade=(3, 7, 15)),
        "partition": dict(quad=12, scales=(3,), torus=12, graph_scales=(3, 2),
                          seps=(1, 2, 3, 4), graph_seps=(1, 2, 3)),
    },
    "tiny": {
        "spectrum": dict(quad=32, ray_step=4, nwin=1000,
                         steps=(60, 64, 68, 72, 76, 80), slow_step=20,
                         zhalf=300, zsteps=(20, 30), moduli=(16, 32, 64)),
        "localize": dict(n=120, split=60, loc_n=80, known_n=(60, 30, 15),
                         neumann_n=1000, radii=(5, 20, 30, 40), scales=(3, 6),
                         cascade=(2, 5, 11)),
        "partition": dict(quad=10, scales=(2,), torus=8, graph_scales=(2, 1),
                          seps=(1, 2, 3, 4), graph_seps=(1, 2, 3)),
    },
}


@dataclass
class Query:
    """One call into ``bandlim`` with its report and its oracle.

    ``call(state)`` makes the call; ``state`` holds the results of the
    queries already run in this pass, by name.  ``report(result)`` gives the
    structure that ``serialize.report_dumps`` turns into the report body.
    ``check(results)`` is the oracle; it sees every warm-up result by name.
    ``expect`` names the exception class the call must raise.
    ``serial`` makes the same call at ``threads=1``.  ``known_defect`` names
    the open item under which an expected oracle failure is tracked; such a
    query still counts as failed.
    """

    name: str
    call: Callable
    report: Callable
    check: Optional[Callable] = None
    expect: Optional[type] = None
    serial: Optional[Callable] = None
    known_defect: Optional[str] = None


def _failure_report(exc):
    return {"raised": type(exc).__name__, "message": str(exc),
            "profile": getattr(exc, "profile", None)}


def _sigma_min(mat):
    return float(np.linalg.svd(mat, compute_uv=False).min())


def _tridiagonal(n, diag, upper, lower, bump=None):
    """Triplets of a tridiagonal operator with period-len(diag) coefficients."""
    trip = []
    p = len(diag)
    for x in range(n):
        d = diag[x % p] + (0.0 if bump is None else bump(x))
        trip.append((x, x, d))
        if x + 1 < n:
            trip.append((x, x + 1, upper[x % p]))
            trip.append((x + 1, x, lower[x % p]))
    return trip


# -- spectrum -------------------------------------------------------------------


def spectrum_inputs(rng, size):
    q = size["quad"]
    # 2-d: period 2 in x; the two diagonal values sit far apart, so a ray
    # with an odd x-step can never certify
    diag = (1.0 + 0.2 * rng.random(), 2.0 + 0.2 * rng.random())
    hop = 0.3 + 0.4 * rng.random((4, 2))        # +x, -x, +y, -y by parity
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    quad_trip = []
    for cx in range(q):
        for cy in range(q):
            x = cx * q + cy
            par = cx % 2
            quad_trip.append((x, x, diag[par]))
            for k, (dx, dy) in enumerate(steps):
                ex, ey = cx + dx, cy + dy
                if 0 <= ex < q and 0 <= ey < q:
                    quad_trip.append((ex * q + ey, x, hop[k, par]))
    # starts move by less than a step, so every ray keeps its basepoint count
    # (the last usable coordinate is q - 5 at R = 3)
    h = size["ray_step"]
    start = lambda: 8 + int(rng.integers(0, 2))
    d0 = 9 + int(rng.integers(0, 2))
    rays = [
        ("edge", (start(), 1), (h, 0)),             # along the genuine edge
        ("row", (start(), q // 2), (h, 0)),          # interior row
        ("column", (start(), start()), (0, h)),
        ("diagonal", (d0, d0), (h - 1, h - 1)),      # parity flips: fails
    ]

    # 1-d: periodic tridiagonal plus a decaying diagonal perturbation
    n = size["nwin"]
    sdiag = (1.0 + 0.2 * rng.random(), 2.0 + 0.2 * rng.random())
    sup = tuple(0.5 + 0.3 * rng.random(2))
    slo = tuple(0.5 + 0.3 * rng.random(2))
    # certification cost grows with the number of windows the perturbation
    # spoils, so its decay and the direction starts vary only a little
    amp, decay = 0.9 + 0.1 * rng.random(), 48.0 + 4.0 * rng.random()
    nwin_trip = _tridiagonal(n + 1, sdiag, sup, slo,
                             bump=lambda x: amp * math.exp(-x / decay))
    even = lambda lo, hi: 2 * int(rng.integers(lo // 2, hi // 2 + 1))
    arith = [(even(100, 110), step) for step in size["steps"]]

    # slowly oscillating multiplier: no limit along any direction
    omega, phase = 0.9 + 0.2 * rng.random(), 2 * math.pi * rng.random()
    slow_trip = [(x, x, math.sin(omega * math.sqrt(x) + phase))
                 for x in range(n + 1)]

    # Z-window with the same periodic stencil, for shift_limit
    zh = size["zhalf"]
    zn_trip = []
    for x in range(2 * zh + 1):
        par = (x - zh) % 2
        zn_trip.append((x, x, sdiag[par]))
        if x + 1 <= 2 * zh:
            zn_trip.append((x, x + 1, sup[par]))
            zn_trip.append((x + 1, x, slo[par]))
    zdirs = [(even(0, 40), step) for step in size["zsteps"]]

    # box space over cyclic groups: a phased rotation
    theta = 2 * math.pi * rng.random()
    residue = int(rng.integers(0, 4))
    return dict(quad=q, quad_trip=quad_trip, rays=rays, nwin=n,
                nwin_trip=nwin_trip, arith=arith, slow_trip=slow_trip,
                slow_step=size["slow_step"], zhalf=zh, zn_trip=zn_trip,
                zdirs=zdirs, moduli=size["moduli"], theta=theta,
                residue=residue)


def spectrum_setup(bl, inp):
    sp, ops = bl.space, bl.operators
    quad = sp.build_space({"kind": "quadrant", "upper": inp["quad"] - 1,
                           "name": "quad"})
    nwin = sp.build_space({"kind": "n-window", "upper": inp["nwin"],
                           "name": "nwin"})
    zwin = sp.build_space({"kind": "zn-window", "lower": [-inp["zhalf"]],
                           "upper": [inp["zhalf"]], "name": "zwin"})
    box = sp.build_space({"kind": "box-cycles", "moduli": list(inp["moduli"]),
                          "cross_distance": 100, "name": "box"})
    rot = np.exp(1j * inp["theta"])
    box_trip = [(box.offset_point(x, 1), x, rot) for x in range(box.n)]
    return dict(
        quad=quad, nwin=nwin, zwin=zwin, box=box,
        A_quad=ops.from_triplets(quad, inp["quad_trip"]),
        A_nwin=ops.from_triplets(nwin, inp["nwin_trip"]),
        A_slow=ops.from_triplets(nwin, inp["slow_trip"]),
        A_zwin=ops.from_triplets(zwin, inp["zn_trip"]),
        A_box=ops.from_triplets(box, box_trip),
    )


def spectrum_queries(bl, st, inp):
    lim = bl.limits
    Direction = lim.Direction
    quad, nwin, zwin, box = st["quad"], st["nwin"], st["zwin"], st["box"]
    rays = [Direction.ray(quad, list(s), list(d), label=lab)
            for lab, s, d in inp["rays"]]
    arith = [Direction.arithmetic(nwin, a, s, label=f"arith:{a},{s}")
             for a, s in inp["arith"]]
    geo = Direction.geometric(nwin, 2, 1.5)
    slow = Direction.arithmetic(nwin, inp["slow_step"], inp["slow_step"])
    zdirs = [Direction.arithmetic(zwin, a, s) for a, s in inp["zdirs"]]
    bdir = Direction.components(box, residue=inp["residue"])
    tol1, tol_exact = 1e-4, 1e-9
    rot = np.exp(1j * inp["theta"])
    win_report = lambda w: w.to_json()
    nu_report = lambda rep: rep.to_json()

    def spectrum_report(res):
        windows, summary = res
        return {"windows": {k: w.to_json() for k, w in windows.items()},
                "summary": summary}

    def check_quad(r):
        windows, summary = r["quad.sample_spectrum"]
        return (sorted(windows) == ["column", "edge", "row"]
                and list(summary["failures"]) == ["diagonal"]
                and all(w.cauchy_tail <= w.tol for w in windows.values()))

    def check_arith(i):
        def check(r):
            w, w0 = r[f"nwin.limit_operator.{i}"], r["nwin.limit_operator.0"]
            return (w.cauchy_tail <= tol1
                    and lim.window_deviation(w, w0) <= 2 * tol1)
        return check

    def interior_query(name, window):
        # oracle: dense smallest singular value of the interior columns
        def check(r):
            w, rep = window(r), r[name]
            base = w.template.dist[w.template.base]
            F = [j for j in range(w.size)
                 if base[j] <= w.radius - w.propagation()]
            return abs(rep.value - _sigma_min(w.matrix[:, F])) <= 1e-9
        return Query(name, lambda s: lim.interior_nu(window(s)), nu_report, check)

    def shift_pair(prefix, A, d, check_shift, **kw):
        def check(r):
            ws, wl = r[f"{prefix}.shift_limit"], r[f"{prefix}.limit_operator"]
            return (check_shift(ws)
                    and lim.window_deviation(ws, wl) <= 2 * kw["tol"])
        return [Query(f"{prefix}.shift_limit",
                      lambda s: lim.shift_limit(A, d, **kw), win_report),
                Query(f"{prefix}.limit_operator",
                      lambda s: lim.limit_operator(A, d, **kw), win_report, check)]

    def exact_rotation(w):
        offs = [int(lab) for lab in w.template.labels]
        want = np.array([[rot if a - b == 1 else 0.0 for b in offs]
                         for a in offs])
        return np.array_equal(w.matrix, want)

    def expected_failure(name, call, min_profile):
        return Query(name, call, _failure_report,
                     lambda r: len(r[name].profile) >= min_profile,
                     expect=lim.CauchyFailure)

    qs = [Query("quad.sample_spectrum",
                lambda s: lim.sample_spectrum(st["A_quad"], rays, R=3, tol=tol_exact),
                spectrum_report, check_quad)]
    for lab in ("edge", "row", "column"):
        qs.append(interior_query(
            f"quad.interior_nu.{lab}",
            lambda r, lab=lab: r["quad.sample_spectrum"][0][lab]))
    for i, d in enumerate(arith):
        qs.append(Query(f"nwin.limit_operator.{i}",
                        lambda s, d=d: lim.limit_operator(st["A_nwin"], d, tol=tol1),
                        win_report, check_arith(i)))
    for i in range(len(arith)):
        qs.append(interior_query(f"nwin.interior_nu.{i}",
                                 lambda r, i=i: r[f"nwin.limit_operator.{i}"]))
    qs.append(expected_failure(
        "nwin.limit_operator.geometric",
        lambda s: lim.limit_operator(st["A_nwin"], geo, tol=tol1), 5))
    qs.append(expected_failure(
        "nwin.limit_operator.slow",
        lambda s: lim.limit_operator(st["A_slow"], slow, R=1, tol=1e-6), 40))
    for i, d in enumerate(zdirs):
        qs += shift_pair(f"zwin.{i}", st["A_zwin"], d,
                         lambda w: w.cauchy_tail == 0.0, tol=tol_exact)
    qs += shift_pair("box", st["A_box"], bdir, exact_rotation,
                     R=3, tol=1e-12, tail=3)
    qs.append(interior_query("box.interior_nu", lambda r: r["box.shift_limit"]))
    return qs


# -- localize -------------------------------------------------------------------


def localize_inputs(rng, size):
    # narrow ranges: the iterative SVD's step count follows the spectrum
    diag = tuple(3.0 + 0.02 * rng.random(2) - 0.01)
    up = tuple(0.89 + 0.02 * rng.random(2))
    lo = tuple(0.89 + 0.02 * rng.random(2))
    amp, decay = 0.04 + 0.01 * rng.random(), 28.0 + 4.0 * rng.random()
    bump = lambda x: amp * math.exp(-x / decay)
    n, m, nn = size["n"], size["loc_n"], size["neumann_n"]
    neumann = []
    for x in range(nn):
        neumann.append((x, x, float((x > 0) + (x < nn - 1))))
        if x + 1 < nn:
            neumann.append((x, x + 1, -1.0))
            neumann.append((x + 1, x, -1.0))
    # nested column sets of the localization window, all in the dense range
    a = int(rng.integers(0, m // 8))
    family = [list(range(m))] + [list(range(a + m // 4, a + m // 4 + m // 2 ** k))
                                 for k in range(1, 5)]
    return dict(split=size["split"], known_n=size["known_n"],
                main=_tridiagonal(n, diag, up, lo, bump),
                local=_tridiagonal(m, diag, up, lo, bump),
                known=[_tridiagonal(k, (3.0,), (-1.0,), (-1.0,))
                       for k in size["known_n"]],
                neumann=neumann, family=family, radii=size["radii"],
                scales=size["scales"], cascade=size["cascade"])


def localize_setup(bl, inp):
    sp, ops = bl.space, bl.operators

    def window(name, trip):
        n = 1 + max(x for x, _, _ in trip)
        space = sp.build_space({"kind": "n-window", "upper": n - 1, "name": name})
        return ops.from_triplets(space, trip)
    st = {key: window(key, inp[key]) for key in ("main", "local", "neumann")}
    st["known"] = [window(f"known{k}", trip)
                   for k, trip in zip(inp["known_n"], inp["known"])]
    return st


def localize_queries(bl, st, inp):
    ln, ops = bl.lowernorm, bl.operators
    A, A_loc, L = st["main"], st["local"], st["neumann"]
    delta = 2.0
    nu_report = lambda rep: rep.to_json()
    norm_report = lambda v: {"norm2": v}
    profile_report = lambda prof: [[r, rep.to_json()] for r, rep in prof]
    dense = {}

    def dense_value(key, op, fn):
        if key not in dense:
            dense[key] = fn(op.to_dense())
        return dense[key]

    def nu_query(name, op, F, known_defect=None):
        # oracle: dense smallest singular value, within the claimed tolerance
        def check(r):
            rep = r[name]
            ref = dense_value(name, op, lambda m: _sigma_min(m[:, F]))
            return abs(rep.value - ref) <= rep.tolerance
        return Query(name, lambda s: ln.nu(op, F), nu_report, check,
                     known_defect=known_defect)

    def norm_query(name, op, want=None, known_defect=None):
        def check(r):
            ref = want if want is not None else dense_value(
                name, op, lambda m: np.linalg.norm(m, 2))
            return abs(r[name] - ref) <= 1e-8 * ref
        return Query(name, lambda s: ops.norm2(op), norm_report, check,
                     known_defect=known_defect)

    def nu_s_query(name, op, F, scale, base):
        # a ball restriction is a column subset, so nu_s >= nu - tol
        def check(r):
            return r[name].value >= r[base].value - r[base].tolerance
        return Query(name, lambda s: ln.nu_s(op, F, scale, threads=2), nu_report,
                     check, serial=lambda: ln.nu_s(op, F, scale, threads=1))

    def essential_query(name, op, radii, floor):
        # columns off a ball are again a subset: every value >= floor(r)
        def check(r):
            lo = floor(r)
            return lo is None or all(rep.value >= lo for _, rep in r[name])
        return Query(name, lambda s: ln.essential_nu(op, radii, threads=2),
                     profile_report, check,
                     serial=lambda: ln.essential_nu(op, radii, threads=1))

    def at_least_nu(base):
        return lambda r: r[base].value - r[base].tolerance

    def check_cascade(r):
        return all(math.isfinite(v) and v >= 0 for _, _, v in r["local.witness_cascade"])

    cols = list(range(A.space.n))
    whole = f"main.nu.{len(cols)}"
    # all columns, and the two sides of nu's dense/iterative threshold
    qs = [nu_query(f"main.nu.{len(F)}", A, F)
          for F in (cols, cols[:inp["split"]], cols[:inp["split"] + 1])]
    qs += [nu_s_query(f"main.nu_s.{k}", A, cols[:len(cols) // 2], k, whole)
           for k in inp["scales"]]
    qs += [
        essential_query("main.essential_nu", A, inp["radii"], at_least_nu(whole)),
        norm_query("main.norm2", A),
        Query("local.localization_check",
              lambda s: ln.localization_check(A_loc, delta,
                                              bl.partition.BlockSparsifierModel(),
                                              inp["family"][:3]),
              asdict, lambda r: r["local.localization_check"].verified),
        Query("local.witness_cascade",
              lambda s: ln.witness_cascade(A_loc, None, inp["cascade"]),
              lambda out: out, check_cascade),
    ]
    qs += [nu_query(f"local.nu.{i}", A_loc, F) for i, F in enumerate(inp["family"])]
    qs += [
        nu_s_query("local.nu_s", A_loc, inp["family"][0], inp["scales"][0],
                   "local.nu.0"),
        essential_query("local.essential_nu", A_loc, inp["radii"][:2],
                        at_least_nu("local.nu.0")),
        norm_query("local.norm2", A_loc),
    ]
    # known answers: 3I - T on n points has spectrum 3 - 2 cos(k pi / (n + 1))
    for K in st["known"]:
        n = K.space.n
        qs.append(Query(f"known.nu.{n}", lambda s, K=K: ln.nu(K, list(range(K.space.n))),
                        nu_report,
                        lambda r, n=n: abs(r[f"known.nu.{n}"].value
                                           - (3.0 - 2.0 * math.cos(math.pi / (n + 1))))
                        <= 1e-9))
    K = st["known"][0]
    n = K.space.n
    qs += [
        essential_query("known.essential_nu", K, inp["radii"][:2],
                        lambda r: 1.0 - 1e-9),
        norm_query("known.norm2", K, want=3.0 + 2.0 * math.cos(math.pi / (n + 1))),
        norm_query("neumann.norm2", L,
                   known_defect="ROADMAP item 4: norm2 silent wrong answer"),
        nu_query("neumann.nu", L, list(range(L.space.n)),
                 known_defect="ROADMAP item 4: nu iterative tolerance overclaimed"),
        essential_query("neumann.essential_nu", L, inp["radii"][::3],
                        lambda r: None),
    ]
    return qs


# -- partition ------------------------------------------------------------------


def _laplacian(n, edges):
    """Triplets of the graph Laplacian (degree minus adjacency)."""
    deg = [0] * n
    trip = []
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        trip += [(u, v, -1.0), (v, u, -1.0)]
    return trip + [(x, x, float(d)) for x, d in enumerate(deg)]


def partition_inputs(rng, size):
    q, g = size["quad"], size["torus"]
    grid = [(cx * q + cy, (cx + dx) * q + cy + dy)
            for cx in range(q) for cy in range(q)
            for dx, dy in ((1, 0), (0, 1)) if cx + dx < q and cy + dy < q]
    torus = [(i * g + j, i * g + (j + 1) % g) for i in range(g) for j in range(g)]
    torus += [(i * g + j, ((i + 1) % g) * g + j) for i in range(g) for j in range(g)]
    diagonal = lambda n: [(x, x, float(v)) for x, v in enumerate(0.5 + rng.random(n))]
    # the block sparsifier scans every offset whatever the measure, so a
    # seeded measure changes its answer but not its work
    measure = 0.5 + rng.random(q * q)
    return dict(quad=q, torus=g, edges=torus, measure=measure,
                scales=size["scales"], graph_scales=size["graph_scales"],
                seps=size["seps"], graph_seps=size["graph_seps"],
                quad_lap=_laplacian(q * q, grid), torus_lap=_laplacian(g * g, torus),
                quad_diag=diagonal(q * q), torus_diag=diagonal(g * g))


def partition_setup(bl, inp):
    sp, ops = bl.space, bl.operators
    st = {"quad": sp.build_space({"kind": "quadrant", "upper": inp["quad"] - 1,
                                  "name": "pquad"}),
          "torus": sp.build_space({"kind": "graph", "n": inp["torus"] ** 2,
                                   "edges": inp["edges"], "name": "torus"})}
    for key in ("quad", "torus"):
        space = st[key]
        st[f"{key}_lap"] = ops.from_triplets(space, inp[f"{key}_lap"])
        st[f"{key}_diag"] = ops.from_triplets(space, inp[f"{key}_diag"])
        st[f"{key}_ident"] = ops.from_triplets(space, [(x, x, 1.0)
                                                       for x in range(space.n)])
    return st


def _partition_sums_to_one(P):
    return all(abs(sum(v ** P.p for v in f.values()) - 1.0) <= 1e-12
               for f in P.point_funcs)


def _variation_reference(P, r_max):
    """Worst-pair variation per distance, from a dense bump matrix."""
    space = P.space
    ids = np.arange(space.n)
    phi = np.zeros((space.n, len(P.centers)))
    for x, f in enumerate(P.point_funcs):
        for i, v in f.items():
            phi[x, i] = v
    dist = space.pairwise(ids, ids)
    worst = np.zeros(r_max + 1)
    for x in range(space.n):
        tot = (np.abs(phi[x][None, :] - phi) ** P.p).sum(axis=1)
        near = dist[x] <= r_max
        np.maximum.at(worst, dist[x][near], tot[near])
    return np.maximum.accumulate(worst) ** (1.0 / P.p)


def _separated(space, sp):
    parts = [np.asarray(p, dtype=np.int64) for p in sp.parts]
    return all(space.pairwise(a, b).min() >= sp.separation
               for i, a in enumerate(parts) for b in parts[i + 1:])


def partition_queries(bl, st, inp):
    pt, ops = bl.partition, bl.operators
    op_report = lambda A: {"rows": A.rows, "cols": A.cols, "blocks": A.blocks[:, 0, 0]}
    dense_norm = lambda A: np.linalg.norm(A.to_dense(), 2)

    def sparsify_queries(key, measure, seps, target):
        def one(m):
            name = f"{key}.sparsify.{m}"

            def check(r):
                res = r[name]
                return res.mass_fraction >= target and _separated(st[key], res)
            return Query(name, lambda s: pt.sparsify(st[key], measure, m, target),
                         lambda res: res.to_json(), check)
        return [one(m) for m in seps]

    def partition_group(key, L):
        """Partition of unity at scale L and the assemblies built on it."""
        pre = f"{key}.L{L}"
        part = f"{pre}.make_partition"
        r_fresh = 3 * L + 1           # beyond the table built on construction
        lap, diag, ident = st[f"{key}_lap"], st[f"{key}_diag"], st[f"{key}_ident"]

        def check_partition(r):
            P = r[part]
            ref = _variation_reference(P, 3 * L)
            return (_partition_sums_to_one(P)
                    and all(abs(P.variation_table[k] - ref[k]) <= 1e-12
                            for k in range(1, 3 * L + 1)))

        def check_variation(r):
            ref = _variation_reference(r[part], r_fresh)
            return abs(r[f"{pre}.variation"]["value"] - ref[r_fresh]) <= 1e-12

        def check_diagonal(r):
            D = r[f"{pre}.average.diagonal"]
            return (np.array_equal(D.rows, diag.rows)
                    and np.max(np.abs(D.blocks - diag.blocks)) <= 1e-12)

        def check_contraction(r):
            # at p = 2 the average is a unital completely positive map
            return dense_norm(r[f"{pre}.average.laplacian"]) <= dense_norm(lap) + 1e-12

        def weighted(mode, locals_, M, **kw):
            name = f"{pre}.weighted_sum.{mode}"

            def check(r):
                op, bound = r[name]
                return dense_norm(op) <= bound * (1 + 1e-12)
            return Query(name,
                         lambda s: pt.weighted_sum(s[part], locals_, mode=mode, M=M, **kw),
                         lambda res: {"op": op_report(res[0]), "bound": res[1]}, check)

        return [
            Query(part, lambda s: pt.make_partition(st[key], L),
                  lambda P: P.to_json(), check_partition),
            Query(f"{pre}.variation",
                  lambda s: {"r": r_fresh, "value": s[part].variation(r_fresh)},
                  lambda out: out, check_variation),
            Query(f"{pre}.average.diagonal", lambda s: pt.average(diag, s[part]),
                  op_report, check_diagonal),
            Query(f"{pre}.average.laplacian", lambda s: pt.average(lap, s[part]),
                  op_report, check_contraction),
            weighted("plain", lambda i: lap, ops.schur_bound(lap)),
            weighted("commutator", lambda i: ident, 1.0, A=lap),
        ]

    qs = sparsify_queries("quad", inp["measure"], inp["seps"], 0.5)
    qs += sparsify_queries("torus", None, inp["graph_seps"], 0.1)
    for L in inp["scales"]:
        qs += partition_group("quad", L)
    for L in inp["graph_scales"]:
        qs += partition_group("torus", L)
    return qs


WORKLOADS = {
    "spectrum": (spectrum_inputs, spectrum_setup, spectrum_queries),
    "localize": (localize_inputs, localize_setup, localize_queries),
    "partition": (partition_inputs, partition_setup, partition_queries),
}
