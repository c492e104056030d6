import json

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs
from scipy.sparse import issparse

from bandlim.space import SpaceError, build_space, _grid
from bandlim.operators import (
    BandOperator, OperatorError, Vector, _check_exponent, _shift_test,
    from_triplets,
)
from bandlim.limits import LimitWindow
from bandlim.lowernorm import NuReport, _restricted, _witness_vector
from bandlim.partition import PPartition, Sparsification
from bandlim.serialize import KeyedRows, round15


@pytest.fixture
def nat_window():
    return build_space({"kind": "n-window", "upper": 50, "name": "nat50"})


@pytest.fixture
def z_window():
    return build_space({"kind": "zn-window", "lower": [-20], "upper": [20],
                        "name": "z20"})


@pytest.fixture
def quad_window():
    return build_space({"kind": "quadrant", "upper": 10, "name": "quad10"})


def random_band(space, prop, rng, density=0.5, block_dim=1, real=False,
                p=2.0):
    """Random band operator with propagation at most prop."""
    triplets = []
    for x in range(space.n):
        for y in space.ball(x, prop):
            if rng.random() > density:
                continue
            if block_dim == 1:
                val = rng.standard_normal() + (0 if real else 1j * rng.standard_normal())
            else:
                val = rng.standard_normal((block_dim, block_dim)) \
                    + (0 if real else 1j * rng.standard_normal((block_dim, block_dim)))
            triplets.append((int(x), int(y), val))
    if not triplets:
        triplets = [(0, 0, 1.0 if block_dim == 1 else np.eye(block_dim))]
    return from_triplets(space, triplets, block_dim=block_dim, p=p)


def basis(space, x):
    """The unit vector at point x."""
    v = np.zeros(space.n, dtype=np.complex128)
    v[x] = 1.0
    return Vector(space, v)


def shift_operator(space, offset=1):
    """Translation-by-offset operator on a 1-d window (entry at (x+off, x))."""
    triplets = []
    for x in range(space.n):
        y = x + offset
        if 0 <= y < space.n:
            triplets.append((y, x, 1.0))
    return from_triplets(space, triplets)


def tridiagonal(space, diag=0.0, off=1.0):
    """Tridiagonal operator on a 1-d window."""
    triplets = []
    for x in range(space.n):
        if diag != 0:
            triplets.append((x, x, diag))
        if x + 1 < space.n:
            triplets.append((x, x + 1, off))
            triplets.append((x + 1, x, off))
    return from_triplets(space, triplets)


def dense(A: BandOperator):
    return A.to_dense()


def reference_check_metric_matrix(mat):
    """The metric-axiom check with one pass over k per triangle inequality."""
    n = mat.shape[0]
    if np.any(np.diag(mat) != 0):
        i = int(np.nonzero(np.diag(mat))[0][0])
        raise SpaceError(f"nonzero self-distance at point {i}")
    off = mat + np.eye(n, dtype=np.int64) * (mat.max() + 1)
    if np.any(off <= 0):
        i, j = np.argwhere(off <= 0)[0]
        raise SpaceError(f"nonpositive distance between distinct points ({i}, {j})")
    if np.any(mat != mat.T):
        i, j = np.argwhere(mat != mat.T)[0]
        raise SpaceError(f"non-symmetric matrix at pair ({i}, {j})")
    for k in range(n):
        slack = mat[:, k][:, None] + mat[k, :][None, :] - mat
        if np.any(slack < 0):
            i, j = np.argwhere(slack < 0)[0]
            raise SpaceError(
                f"triangle inequality violated on triple ({i}, {k}, {j})")


def reference_window_matrix(A, ids):
    """Unfolded matrix of A on the listed points, in order, one window alone."""
    k, m = A.block_dim, len(ids)
    where = np.full(A.space.n, -1)
    where[ids] = np.arange(m)
    i, j = where[A.rows], where[A.cols]
    keep = (i >= 0) & (j >= 0)
    out = np.zeros((m, k, m, k), dtype=np.complex128)
    out[i[keep], :, j[keep], :] = A.blocks[keep]
    return out.reshape(m * k, m * k)


def reference_variation_table(part, r_max, block=32):
    """The per-ball variation sweep, blocks of ``block`` points, as a table.

    Each point's ball is cut to the ids above it; the gaps are CSR row
    differences of Phi, each row added by the mat-vec one value at a time.
    """
    space, phi = part.space, part.bumps
    worst = np.zeros(r_max + 1)
    for start in range(0, space.n, block):
        xs, ys = [], []
        for x in range(start, min(start + block, space.n)):
            ball = space.ball(x, r_max)
            ball = ball[np.searchsorted(ball, x, side="right"):]
            xs.append(np.full(len(ball), x, dtype=np.int64))
            ys.append(ball)
        xs, ys = np.concatenate(xs), np.concatenate(ys)
        if not len(xs):
            continue
        gaps = abs(phi[ys] - phi[xs]).power(part.p) @ np.ones(phi.shape[1])
        np.maximum.at(worst, space.pair_dist(xs, ys), gaps)
    eps = np.maximum.accumulate(worst[1:]) ** (1.0 / part.p)
    return {r: float(eps[r - 1]) for r in range(1, r_max + 1)}


def nu_brute(A, F, p, samples=10 ** 6):
    """Grid oracle for the p lower norm, real coefficients, dimension <= 5.

    Scans a uniform cube grid (about ``samples`` points) of real coefficient
    vectors on F; returns the smallest quotient found.  An upper bound on the
    true lower norm by construction.  ``OperatorError`` if p lies outside
    [1, inf).
    """
    _check_exponent(p)
    Fs, _, sub = _restricted(A, F)
    k = A.block_dim
    m = sub.shape[1]
    if m > 5:
        raise OperatorError("brute-force oracle limited to dimension 5")
    per_axis = max(3, int(round(samples ** (1.0 / m))))
    axis = np.linspace(-1.0, 1.0, per_axis)
    V = _grid([axis] * m)
    V = V[np.any(V != 0, axis=1)]
    best = np.inf
    best_v = None
    for lo in range(0, len(V), 100000):
        chunk = V[lo:lo + 100000]
        W = chunk @ sub.T
        sw = np.sqrt((np.abs(W.reshape(len(chunk), -1, k)) ** 2).sum(axis=2))
        sv = np.sqrt((np.abs(chunk.reshape(len(chunk), -1, k)) ** 2).sum(axis=2))
        num = (sw ** p).sum(axis=1) ** (1.0 / p)
        den = (sv ** p).sum(axis=1) ** (1.0 / p)
        q = num / den
        i = int(np.argmin(q))
        if q[i] < best:
            best = float(q[i])
            best_v = chunk[i]
    return best, _witness_vector(A, Fs, best_v.astype(np.complex128), p)


def reference_witness(ab, lam):
    """The three-solve witness for a known least eigenvalue lam of the Gram
    matrix in lower band storage ab.

    The first completed factor of G - mu I at mu = lam - d, lam - 2d,
    lam - 4d, ... (the test and step d of ``_shift_test``), then three
    ``pbtrs`` solves from ``default_rng(0).standard_normal(m)``, normalizing
    after each; every entry of modulus at most eps max |w_i| is set to 0.
    """
    test, dist, _ = _shift_test(ab)
    while (found := test(lam - dist)) is None:
        dist *= 2.0
    factor = found[0]
    pbtrs = get_lapack_funcs("pbtrs", (factor,))
    w = np.random.default_rng(0).standard_normal(ab.shape[1])
    for _ in range(3):
        w = pbtrs(factor, w, lower=1)[0]
        w /= np.linalg.norm(w)
    size = np.abs(w)
    w[size <= np.finfo(float).eps * size.max()] = 0.0
    return w


def reference_gram_band(M):
    """Lower band storage ab of G = M* M, ab[d, j] = G[j + d, j], for a dense
    or sparse M: G starts at 0 and takes the outer product of each row of M
    in ascending row order, so every entry is summed over the rows in that
    order.  The band is the widest offset of a nonzero entry of G.
    """
    M = M.toarray() if issparse(M) else np.asarray(M)
    G = np.zeros((M.shape[1], M.shape[1]), dtype=M.dtype)
    for row in M:
        G += np.outer(row.conj(), row)
    r, c = np.nonzero(np.tril(G))
    ab = np.zeros((int((r - c).max(initial=0)) + 1, M.shape[1]), dtype=M.dtype)
    ab[r - c, c] = G[r, c]
    return ab


def reference_isometries(t1, t2, cap=256):
    """All pointed isometries t1 -> t2 as label maps (bounded enumeration).

    Recursive reference enumerator: labels are assigned in label order, so for
    base-0 templates the maps come out in lexicographic order.
    """
    if t1.size != t2.size:
        return []
    m = t1.size
    out = []

    def recurse(assign, used):
        if len(out) >= cap:
            return
        k = len(assign)
        if k == m:
            out.append(list(assign))
            return
        for p in range(m):
            if used[p]:
                continue
            if t2.dist[t2.base, p] != t1.dist[t1.base, k] and k != t1.base:
                continue
            if k == t1.base and p != t2.base:
                continue
            ok = all(t2.dist[assign[j], p] == t1.dist[j, k] for j in range(k))
            if ok:
                assign.append(p)
                used[p] = True
                recurse(assign, used)
                assign.pop()
                used[p] = False

    recurse([], np.zeros(m, dtype=bool))
    return out


def reference_clean(obj):
    """The report structure with every number rounded, as plain JSON types."""
    if isinstance(obj, KeyedRows):
        obj = dict(zip(obj.keys.tolist(), obj.values))
    if isinstance(obj, dict):
        return {str(k): reference_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round15(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [round15(obj.real), round15(obj.imag)]
    if isinstance(obj, np.ndarray):
        return reference_clean(obj.tolist())
    return obj


def reference_dumps(obj):
    """Reference report body: clean, then the standard library's encoder."""
    return json.dumps(reference_clean(obj), sort_keys=True, indent=2) + "\n"


def torus_graph(g):
    """The g-by-g discrete torus as a graph space."""
    edges = [(i * g + j, i * g + (j + 1) % g) for i in range(g) for j in range(g)]
    edges += [(i * g + j, ((i + 1) % g) * g + j) for i in range(g) for j in range(g)]
    return build_space({"kind": "graph", "n": g * g, "edges": edges,
                        "name": "torus"})


# -- report structures as to_json built them when it rounded every number -----


def reference_nu_json(rep):
    sup = rep.witness.support()
    blocks = rep.witness.values[sup].tolist()
    wit = {x: [[round15(c.real), round15(c.imag)] for c in block]
           for x, block in zip(sup.tolist(), blocks)}
    return {
        "value": round15(rep.value),
        "method": rep.method,
        "tolerance": round15(rep.tolerance),
        "support_diameter": round15(rep.support_diameter),
        "witness": wit,
        "subset_size": len(rep.subset),
        "ball_center": rep.ball_center,
    }


def reference_window_json(win):
    k = win.block_dim
    i, j, blocks = win._nonzero_blocks()
    flat = np.stack([blocks.real, blocks.imag], axis=-1)
    flat = flat.reshape(len(i), 2 * k * k)
    trip = [[a, b] + [round15(v) for v in vals]
            for a, b, vals in zip(i.tolist(), j.tolist(), flat.tolist())]
    return {
        "template": win.template.to_json(),
        "matrix": trip,
        "radius": int(win.radius),
        "cauchy_tail": round15(win.cauchy_tail),
        "stabilized_from": int(win.stabilized_from),
        "tol": round15(win.tol),
        "direction": win.direction_label,
        "basepoints_used": [int(b) for b in win.basepoints_used],
        "block_dim": int(k),
        "p": round15(win.p),
        "norm_check": {key: round15(v) for key, v in win.norm_check.items()},
        "propagation": int(win.propagation()),
    }


def reference_sparsification_json(res):
    return {
        "parts": [[int(x) for x in part] for part in res.parts],
        "separation": int(res.separation),
        "diameter_bound": int(res.diameter_bound),
        "mass_fraction": round15(res.mass_fraction),
        "method": res.method,
    }


def reference_partition_json(part):
    return {
        "centers": [int(c) for c in part.centers],
        "scale": int(part.scale),
        "p": round15(part.p),
        "multiplicity": int(part.multiplicity),
        "support_diameter": int(part.support_diameter),
        "variation_table": {str(r): round15(v)
                            for r, v in sorted(part.variation_table.items())},
    }


REFERENCE_JSON = {
    NuReport: reference_nu_json,
    LimitWindow: reference_window_json,
    Sparsification: reference_sparsification_json,
    PPartition: reference_partition_json,
}
