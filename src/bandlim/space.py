"""Finite metric spaces with discrete distance values and bounded geometry.

A ``Space`` is a finite ordered set of points (ids ``0..n-1``) with an integer
metric.  Distances are ceil-rounded on ingestion so the attained value set is
always a discrete subset of the nonnegative integers.  Generators cover
lattice windows, box spaces over cyclic quotients, explicit distance matrices
and graph shortest-path metrics.

The lattice kinds are boxes [lower, upper] of Z^d built by one routine,
``_lattice_space``, under one set of checks and a 500,000-point cap.  Every
side of a ``zn-window`` box is an artificial boundary; a ``quadrant`` (N^d)
or ``n-window`` (N under l1) has artificial upper sides only.  The margin of a
point c is its distance to those sides, min(upper - c), and on a
``zn-window`` also min(c - lower).

Each kind has one distance formula, ``Space.pair_dist``, broadcast over id
arrays; ``pairwise``, ``row`` and ``dist`` are views of it, and so is
``diameter`` except on linf and l1 lattice windows, where it has a closed form.
``Space.ball`` is the one ball routine: lattice windows of every dimension
and norm cut the ball from its clipped bounding box in row-major order, the
other kinds scan a row of ``pair_dist``.  ``Space.pairs_within`` is the one
neighbour-pair sweep: every pair x < y within a radius, or only those past a
lower radius, with its distance, in bounded chunks joined from blocks per
lattice offset group or per row block of the distance matrix.
Group offsets have one formula per kind, ``Space.offset_points``.

Besides ball queries the module provides pointed isometry matching between a
finite template and balls of the space, and an interior-margin notion used to
discard truncation artifacts near the window boundary.

Every isometry search runs through one backtracker, ``_isometries``, which
yields the pointed isometries in lexicographic order; ``match_ball_exact``
and ``pointed_isometric`` take its first one.  Equal canonical
``ball_templates`` matrices need no search at all: the balls are pointed
isometric and the template's id list is the least isometry.  On a lattice
window distances depend only on coordinate differences and row-major ids are
linear in the coordinates, so ``ball_templates`` labels one center per extent
pattern of the clipped ball box and translates its ids to the others.
"""

from dataclasses import dataclass
from itertools import product
import json
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .serialize import report_dumps


class SpaceError(ValueError):
    """Raised when a descriptor does not define a valid space."""


LATTICE_KINDS = ("zn-window", "n-window", "quadrant")
GROUP_KINDS = ("zn-window", "box-cycles")
DENSE_CAP = 1500
LATTICE_CAP = 500000
# Elements per ``pairs_within`` chunk.  The variation sweep gathers two sparse
# rows of Phi per pair, so a larger chunk raises its peak memory by more than
# it saves in time.
_PAIR_CHUNK = 2 ** 12


@dataclass
class Template:
    """Finite pointed metric space used for window matching.

    ``dist`` is an integer matrix indexed by labels ``0..m-1``; ``base`` is the
    label of the designated basepoint (always 0 for canonical templates).
    ``labels`` optionally carries human-readable point names such as lattice
    offsets (see ``limits.shift_limit`` for how group offsets are written).
    """

    dist: np.ndarray
    base: int = 0
    labels: list = None

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=np.int64)
        if self.dist.ndim != 2 or self.dist.shape[0] != self.dist.shape[1]:
            raise SpaceError("template distance matrix must be square")

    @property
    def size(self):
        return self.dist.shape[0]

    def signature(self):
        """Isometry-invariant fingerprint: sorted rows, sorted."""
        rows = [tuple(sorted(r)) for r in self.dist.tolist()]
        return tuple(sorted(rows))

    def to_json(self):
        return {
            "size": int(self.size),
            "base": int(self.base),
            "dist": self.dist.reshape(-1).tolist(),
            "labels": None if self.labels is None else [str(l) for l in self.labels],
        }


def _ceil_sqrt_int(sq):
    """Exact integer ceil(sqrt(sq)) for a nonnegative integer array."""
    sq = np.asarray(sq, dtype=np.int64)
    r = np.floor(np.sqrt(sq.astype(np.float64))).astype(np.int64)
    r = np.where((r + 1) * (r + 1) <= sq, r + 1, r)
    r = np.where(r * r > sq, r - 1, r)
    return np.where(r * r == sq, r, r + 1)


def _grid(axes):
    """Row-major product of 1-d axes, one point per row."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def _lattice_dist(delta, norm):
    """Integer distance of coordinate differences under the window norm."""
    delta = np.abs(np.asarray(delta, dtype=np.int64))
    if norm == "linf":
        return delta.max(axis=-1)
    if norm == "l1":
        return delta.sum(axis=-1)
    if norm == "l2":
        return _ceil_sqrt_int((delta * delta).sum(axis=-1))
    raise SpaceError(f"unknown lattice norm {norm!r}")


class Space:
    """Finite strongly discrete metric space with cached geometry queries."""

    def __init__(self, name, kind, params, n, center, coords=None, matrix=None,
                 norm=None, lower=None, upper=None, components=None,
                 cross_distance=None):
        self.name = name
        self.kind = kind
        self.params = params
        self.n = int(n)
        self.center = int(center)
        self.coords = coords            # (n, dims) int64 for lattice kinds
        self.norm = norm
        self.lower = lower
        self.upper = upper
        self.components = components    # box-cycles: (comp_index, residue, modulus) arrays
        self.cross_distance = cross_distance
        self._matrix = matrix           # dense int64 matrix for explicit/graph kinds
        self._growth_cache = {}
        self._dims = None if coords is None else coords.shape[1]

    # -- distance queries ---------------------------------------------------

    def dist(self, x, y):
        return int(self.pair_dist(x, y))

    def pair_dist(self, xs, ys):
        """Distances between two id arrays, broadcast against each other."""
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        if self._matrix is not None:
            return self._matrix[xs, ys]
        if self.coords is not None:
            return _lattice_dist(self.coords[xs] - self.coords[ys], self.norm)
        ci, res, mod = self.components
        diff = np.abs(res[xs] - res[ys])
        return np.where(ci[xs] == ci[ys], np.minimum(diff, mod[xs] - diff),
                        self.cross_distance)

    def pairwise(self, xs, ys):
        """Integer distance matrix between two id arrays."""
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        return self.pair_dist(xs[:, None], ys[None, :])

    def row(self, x):
        """Distances from point x to every point of the space."""
        return self.pair_dist(x, np.arange(self.n))

    def diameter(self, ids):
        """Largest distance within a set of ids, 0 for fewer than two.

        A lattice window under linf takes its widest extent along an axis,
        and under l1 its widest extent along one of the 2^(d-1) sign vectors
        s with s_0 = 1, since |v|_1 = max_s |s.v|.  l2 and the matrix kinds
        take the largest pairwise distance.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if self.norm not in ("linf", "l1"):
            return int(self.pairwise(ids, ids).max(initial=0))
        if not len(ids):
            return 0
        pts = self.coords[ids]
        if self.norm == "l1":
            signs = [(1,) + s for s in product((1, -1), repeat=self._dims - 1)]
            pts = pts @ np.array(signs, dtype=np.int64).T
        return int((pts.max(axis=0) - pts.min(axis=0)).max())

    def ball(self, x, r):
        """Sorted ids of the closed ball about x of radius r.

        Lattice ids combine the clipped per-axis ranges row-major, so they
        come out ascending; a linf ball, and any ball in one dimension, is
        its whole clipped box.  An infinite radius gives every id.
        """
        if x < 0 or x >= self.n:
            raise SpaceError(f"unknown point id {x}")
        if not r >= 0:
            raise SpaceError(f"radius must be nonnegative, got {r}")
        if r == math.inf:
            return np.arange(self.n)
        r = math.floor(r)
        if self.coords is None:
            return np.nonzero(self.row(x) <= r)[0]
        ids = np.zeros(1, dtype=np.int64)
        for c, lo, up in zip(self.coords[x].tolist(), self.lower.tolist(),
                             self.upper.tolist()):
            axis = np.arange(max(lo, c - r) - lo, min(up, c + r) - lo + 1)
            ids = (ids[:, None] * (up - lo + 1) + axis).ravel()
        if self.norm != "linf" and self._dims > 1:
            ids = ids[_lattice_dist(self.coords[ids] - self.coords[x], self.norm) <= r]
        return ids

    def pairs_within(self, r, above=0):
        """Every pair x < y with above < d(x, y) <= r, as chunks (xs, ys, d).

        ``above`` cuts the sweep to a shell: a caller that already holds the
        pairs within ``above`` gets only the farther ones.  The default 0
        keeps every pair, since distinct points lie at distance 1 or more.

        ``_pair_blocks`` finds the pairs block by block, and consecutive
        blocks are joined into chunks of at most ``_PAIR_CHUNK`` pairs, so a
        thin shell comes in a few full chunks rather than many sparse ones.
        A block, and so a chunk, holds at most max(_PAIR_CHUNK, n) pairs.
        """
        if not r >= 0:
            raise SpaceError(f"radius must be nonnegative, got {r}")
        joined, count = [], 0
        for block in self._pair_blocks(r, above):
            if joined and count + len(block[0]) > _PAIR_CHUNK:
                yield tuple(np.concatenate(a) for a in zip(*joined))
                joined, count = [], 0
            joined.append(block)
            count += len(block[0])
        if joined:
            yield tuple(np.concatenate(a) for a in zip(*joined))

    def _pair_blocks(self, r, above):
        """The blocks of ``pairs_within``: per offset group or row block.

        A lattice window keeps its offsets v of positive row-major step and
        above < |v| <= r, ``_PAIR_CHUNK // n`` at a time: x and x + v pair up
        where x + v stays inside along every axis, at distance |v|.  The
        matrix kinds scan the upper triangle of above < ``pair_dist`` <= r in
        row blocks of about ``_PAIR_CHUNK`` distances; ``box-cycles`` does so
        per component, with the later components' columns only once r reaches
        the cross distance.
        """
        if self.coords is not None:
            size = (self.upper - self.lower + 1).tolist()
            offs = _grid([np.arange(-int(min(r, s - 1)), int(min(r, s - 1)) + 1)
                          for s in size])
            step = offs @ np.cumprod([1] + size[:0:-1])[::-1]
            dist = _lattice_dist(offs, self.norm)
            keep = (step > 0) & (dist > above) & (dist <= r)
            offs, step, dist = offs[keep], step[keep], dist[keep]
            group = max(1, _PAIR_CHUNK // self.n)
            for lo in range(0, len(offs), group):
                # x + v stays inside along every axis: the row-major outer
                # product of the per-axis masks
                block = offs[lo:lo + group]
                inside = np.ones((len(block), 1), dtype=bool)
                for s, v in zip(size, block.T[:, :, None]):
                    ok = (np.arange(s) >= -v) & (np.arange(s) < s - v)
                    inside = (inside[:, :, None] & ok[:, None]).reshape(len(v), -1)
                g, xs = np.divmod(np.flatnonzero(inside), self.n)
                yield xs, xs + step[lo + g], dist[lo + g]
            return
        spans = [(0, self.n, self.n)]       # rows [s, e) by columns [s, end)
        if self.components is not None:
            starts = np.flatnonzero(self.components[1] == 0).tolist()
            far = r >= self.cross_distance
            spans = [(s, e, self.n if far else e)
                     for s, e in zip(starts, starts[1:] + [self.n])]
        for s, e, end in spans:
            cols = np.arange(s, end)
            rows = max(1, _PAIR_CHUNK // len(cols))
            for lo in range(s, e, rows):
                xs = np.arange(lo, min(lo + rows, e))
                d = (self.pair_dist(xs[:, None], cols) if self._matrix is None
                     else self._matrix[lo:lo + len(xs), s:end]).ravel()
                k = np.flatnonzero((d > above) & (d <= r)
                                   & (cols > xs[:, None]).ravel())
                if len(k):
                    yield xs[k // len(cols)], cols[k % len(cols)], d[k]

    def _largest_distance(self):
        """Largest distance between two points, 0 on one point."""
        if self.coords is not None:
            return int(_lattice_dist(self.upper - self.lower, self.norm))
        if self._matrix is not None:
            return int(self._matrix.max())
        ci, res, mod = self.components
        return max(self.cross_distance if ci[-1] else 0, int(mod.max()) // 2)

    def lattice_id(self, coord):
        """Id of a single lattice coordinate, or None if outside the window."""
        coord = np.asarray(coord, dtype=np.int64)
        if coord.shape != (self._dims,):
            raise SpaceError(f"coordinate {coord.tolist()} does not fit a "
                             f"window of dimension {self._dims}")
        if np.any(coord < self.lower) or np.any(coord > self.upper):
            return None
        return int(np.ravel_multi_index(tuple(coord - self.lower),
                                        tuple(self.upper - self.lower + 1)))

    # -- derived geometry ---------------------------------------------------

    def growth(self, r):
        """Max ball size N(r) over all centers (bounded geometry constant).

        An infinite radius gives n, as ``ball`` gives every id; a NaN radius
        raises ``SpaceError``.
        """
        if r != r:
            raise SpaceError(f"radius must be a number, got {r}")
        if r == math.inf:
            return self.n
        r = math.floor(max(r, 0))
        if r in self._growth_cache:
            return self._growth_cache[r]
        g = self._compute_growth(r)
        self._growth_cache[r] = g
        return g

    def _compute_growth(self, r):
        if self._matrix is not None:
            return int((self._matrix <= r).sum(axis=1).max())
        if self.coords is not None:
            # along every axis line the clipped ball count is concave and
            # symmetric about the box midpoint, so the midpoint ball is largest
            mid = self.lattice_id((self.lower + self.upper) // 2)
            return len(self.ball(mid, r))
        if self.kind == "box-cycles":
            ci, res, mod = self.components
            mods = [int(k) for k in self.params["moduli"]]
            if r < self.cross_distance:
                return max(min(2 * r + 1, k) for k in mods)
            rest = self.n
            return max(rest - k + min(2 * r + 1, k) for k in mods)
        raise SpaceError(f"no growth rule for kind {self.kind!r}")

    def margin(self, ids):
        """Distance from each id to the artificial window boundary (inf if none).

        Takes one id or an id array and answers in kind.  Balls of radius at
        most margin(x) about x agree with the balls of the infinite model
        space the window was cut from.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if self.coords is not None:
            c = self.coords[ids]
            out = (self.upper - c).min(axis=-1)
            if self.kind == "zn-window":
                out = np.minimum(out, (c - self.lower).min(axis=-1))
        elif self.components is not None:
            out = np.minimum(self.cross_distance - 1, self.components[2][ids] // 4)
        else:
            out = np.full(ids.shape, math.inf)
        return out.item() if out.ndim == 0 else out

    def interior(self, margin):
        """Ids whose window margin is at least ``margin``."""
        return np.nonzero(self.margin(np.arange(self.n)) >= margin)[0]

    # -- group structure ----------------------------------------------------

    @property
    def group_structured(self):
        return self.kind in GROUP_KINDS

    def offset_point(self, x, offset):
        """Point at a group offset from x, or None if it leaves the window."""
        if not self.group_structured:
            return None
        y = int(self.offset_points(x, offset))
        return None if y < 0 else y

    def offset_points(self, xs, offsets):
        """Points at group offsets from xs, broadcast together; -1 outside.

        A ``zn-window`` offset is a vector along the last axis of ``offsets``;
        a ``box-cycles`` offset is an integer added to the residue.
        """
        if self.kind == "zn-window":
            pts = self.coords[xs] + offsets
            inside = np.all((pts >= self.lower) & (pts <= self.upper), axis=-1)
            rel = tuple(np.moveaxis(pts - self.lower, -1, 0))
            ids = np.ravel_multi_index(rel, tuple(self.upper - self.lower + 1),
                                       mode="clip")
            return np.where(inside, ids, -1)
        if self.kind == "box-cycles":
            ci, res, mod = self.components
            return xs - res[xs] + (res[xs] + offsets) % mod[xs]
        raise SpaceError("space has no group structure")

    def group_offsets(self, r):
        """Canonical list of group offsets with model distance at most r.

        Sorted by (distance from the identity, lexicographic order); for
        box-cycles the model group is the integers, matching cycle balls that
        stay within the interior margin.
        """
        r = math.floor(r)
        if self.kind == "zn-window":
            offs = _grid([np.arange(-r, r + 1, dtype=np.int64)] * self._dims)
            d = _lattice_dist(offs, self.norm)
            order = np.lexsort((*offs.T[::-1], d))
            return [tuple(o) for o in offs[order][d[order] <= r].tolist()]
        if self.kind == "box-cycles":
            return sorted(range(-r, r + 1), key=lambda g: (abs(g), g))
        raise SpaceError("space has no group structure")


# -- constructors -------------------------------------------------------------


def _check_metric_matrix(mat):
    """Validate metric axioms on an integer matrix; raise with a witness."""
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
    # the triangle inequality holds iff the min-plus square of mat is >= mat;
    # rows are taken in chunks of at most about 2^20 sums
    step = max(1, 2 ** 20 // (n * n))
    for lo in range(0, n, step):
        sums = mat[lo:lo + step, :, None] + mat[None]
        bad = sums.min(axis=1) < mat[lo:lo + step]
        if bad.any():
            i, j = np.argwhere(bad)[0]
            k = int(sums[i, :, j].argmin())
            raise SpaceError(
                f"triangle inequality violated on triple ({lo + i}, {k}, {j})")


def _lattice_space(name, kind, params):
    """Space of a lattice kind: its bounds and norm, one set of checks, one grid.

    A scalar ``quadrant`` upper means the 2-d square.  Only a ``zn-window``
    has a center param, by default its point nearest the origin; the other
    kinds are centered at id 0.
    """
    if kind == "n-window":
        lower, upper, norm = [0], [params["upper"]], "l1"
    else:
        upper = params["upper"]
        if kind == "quadrant" and np.ndim(upper) == 0:
            upper = [upper, upper]
        lower = params["lower"] if kind == "zn-window" else np.zeros_like(upper)
        norm = params.setdefault("norm", "linf")
    lower = np.asarray(lower, dtype=np.int64)
    upper = np.asarray(upper, dtype=np.int64)
    if lower.ndim != 1 or lower.shape != upper.shape or not len(lower):
        raise SpaceError(f"{kind} bounds must be 1-d, aligned and nonempty")
    if np.any(upper < lower):
        raise SpaceError(f"{kind} upper bound below lower bound")
    if norm not in ("linf", "l1", "l2"):
        raise SpaceError(f"unknown lattice norm {norm!r}")
    if math.prod(u - l + 1 for l, u in zip(lower.tolist(), upper.tolist())) \
            > LATTICE_CAP:
        raise SpaceError(f"lattice window over {LATTICE_CAP} points")
    # the params keep the bounds as Python ints, so they save as JSON
    params["upper"] = int(upper[0]) if kind == "n-window" else upper.tolist()
    if kind == "zn-window":
        params["lower"] = lower.tolist()
    coords = _grid([np.arange(l, u + 1, dtype=np.int64)
                    for l, u in zip(lower, upper)])
    sp = Space(name, kind, params, len(coords), center=0, coords=coords,
               norm=norm, lower=lower, upper=upper)
    if kind == "zn-window":
        cid = sp.lattice_id(np.clip(0, lower, upper))
        sp.center = params["center"] = int(params.get("center", cid))
    return sp


def build_space(descriptor):
    """Construct a Space from a JSON-style descriptor.

    Supported kinds: ``zn-window`` (integer-lattice window with linf/l1/l2
    metric, ceil-rounded), ``n-window`` (initial segment of the naturals),
    ``quadrant`` (nonnegative lattice quadrant window), ``box-cycles`` (box
    space over cyclic quotient graphs), ``explicit`` (distance matrix) and
    ``graph`` (shortest-path metric of a connected graph).  The three lattice
    kinds share ``_lattice_space``.  Every kind's center must be a point of
    the space.

    The space keeps its params with every default filled in (a quadrant's
    scalar ``upper`` as a list), so ``space_to_json`` is canonical: two
    descriptors that differ only in a spelled-out default give one space
    under ``same_space``.
    """
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise SpaceError("descriptor must be a dict with a 'kind' field")
    kind = descriptor["kind"]
    params = {k: v for k, v in descriptor.items() if k not in ("kind", "name")}
    name = descriptor.get("name", kind)

    if kind in LATTICE_KINDS:
        sp = _lattice_space(name, kind, params)
    elif kind == "box-cycles":
        mods = [int(k) for k in params["moduli"]]
        if any(k < 3 for k in mods):
            raise SpaceError("cycle moduli must be at least 3")
        cross = params["cross_distance"] = int(params.get("cross_distance", 100))
        if max(k // 2 for k in mods) > 2 * cross:
            raise SpaceError("cross-component distance too small for triangle inequality")
        ci, res, mod = [], [], []
        for i, k in enumerate(mods):
            ci.extend([i] * k)
            res.extend(range(k))
            mod.extend([k] * k)
        comp = (np.array(ci, dtype=np.int64), np.array(res, dtype=np.int64),
                np.array(mod, dtype=np.int64))
        sp = Space(name, kind, params, len(comp[0]), center=0,
                   components=comp, cross_distance=cross)
    elif kind == "explicit":
        raw = np.asarray(params["matrix"], dtype=np.float64)
        if raw.ndim == 1:
            m = int(round(math.sqrt(len(raw))))
            if m * m != len(raw):
                raise SpaceError("row-major matrix length is not a square")
            raw = raw.reshape(m, m)
        if raw.shape[0] != raw.shape[1]:
            raise SpaceError("distance matrix must be square")
        if raw.shape[0] > DENSE_CAP:
            raise SpaceError("explicit space too large")
        if np.any(raw < 0):
            i, j = np.argwhere(raw < 0)[0]
            raise SpaceError(f"negative distance at pair ({i}, {j})")
        mat = np.ceil(raw - 1e-12).astype(np.int64)
        _check_metric_matrix(mat)
        center = params["center"] = int(params.get("center", 0))
        sp = Space(name, kind, params, mat.shape[0], center=center, matrix=mat)
    elif kind == "graph":
        n = int(params["n"])
        edges = params["edges"]
        rows = [int(u) for u, v in edges] + [int(v) for u, v in edges]
        cols = [int(v) for u, v in edges] + [int(u) for u, v in edges]
        if rows and (max(rows) >= n or min(rows) < 0):
            raise SpaceError("edge endpoint out of range")
        adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        d = shortest_path(adj, method="D", unweighted=True)
        if np.any(np.isinf(d)):
            raise SpaceError("graph is not connected")
        center = params["center"] = int(params.get("center", 0))
        sp = Space(name, kind, params, n, center=center, matrix=d.astype(np.int64))
    else:
        raise SpaceError(f"unknown descriptor kind {kind!r}")
    if not 0 <= sp.center < sp.n:
        raise SpaceError(f"center {sp.center} is not a point of the "
                         f"{sp.n}-point space")
    return sp


def space_to_json(space):
    return {"name": space.name, "kind": space.kind, **space.params}


def same_space(a, b):
    """True when a and b are one space: the same object or equal descriptors."""
    return a is b or (report_dumps(space_to_json(a))
                      == report_dumps(space_to_json(b)))


def save_space(path, space):
    with open(path, "w") as fh:
        json.dump(space_to_json(space), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_space(path):
    with open(path) as fh:
        return build_space(json.load(fh))


# -- isometry matching --------------------------------------------------------


def _isometries(tdist, base, bdist, center_pos):
    """Pointed isometric injections of a template into a ball, lex order.

    Maps template label ``base`` to the ball position ``center_pos``; the
    remaining labels are assigned in label order, trying candidate positions
    ascending.  Yields each image array (ball positions aligned with label
    order), then steps back from the last label for the next one.  Callers
    wanting bijections compare sizes first.
    """
    m = tdist.shape[0]
    nb = bdist.shape[0]
    if m > nb:
        return
    order = [base] + [i for i in range(m) if i != base]
    tdist = tdist.tolist()
    bdist = bdist.tolist()

    # candidate ball positions per template label, ascending id
    base_row = bdist[center_pos]
    cands = [[center_pos]]
    for lbl in order[1:]:
        need = tdist[base][lbl]
        cands.append([p for p in range(nb) if base_row[p] == need])

    assign = [-1] * m      # template label -> ball position
    used = [False] * nb
    choice = [0] * m

    k = 0
    while k >= 0:
        lbl = order[k]
        cand = cands[k]
        for ci in range(choice[k], len(cand)):
            p = cand[ci]
            if used[p]:
                continue
            if all(bdist[assign[prev]][p] == tdist[prev][lbl]
                   for prev in order[:k]):
                break
        else:
            choice[k] = 0
            k -= 1
            if k >= 0:
                used[assign[order[k]]] = False
            continue
        choice[k] = ci + 1
        assign[lbl] = p
        if k == m - 1:
            yield np.array(assign, dtype=np.int64)
            continue
        used[p] = True
        k += 1


def ball_templates(space, centers, radius):
    """Canonical pointed templates of the balls about ``centers``, with ids.

    Returns one (Template, id list) pair per center.  Points are labeled
    deterministically: ascending distance from the center, then by sorted
    distance profile within the ball, then by id.  Label 0 is the center.
    The first two key parts are invariant under pointed isometries, so when
    two balls give equal template matrices they are pointed isometric and the
    second id list is the lexicographically least pointed isometry onto it,
    the one ``match_ball_exact`` returns.  Balls of equal size share one
    ``pair_dist`` call and one ``np.lexsort``.
    """
    centers = np.asarray(centers, dtype=np.int64).reshape(-1)
    bad = (centers < 0) | (centers >= space.n)
    if bad.any():
        raise SpaceError(f"unknown point id {centers[bad][0]}")
    reps, rep_of = centers, np.arange(len(centers))
    if space.coords is not None and radius < math.inf:
        # one center per extent pattern of the clipped ball box, written as
        # one mixed-radix integer; an extent is at most min(r, upper - lower)
        r = np.clip(min(math.floor(radius), space.n), 0,
                    space.upper - space.lower)
        c = space.coords[centers]
        extent = np.hstack([np.minimum(c - space.lower, r),
                            np.minimum(space.upper - c, r)])
        key = np.ravel_multi_index(tuple(extent.T), tuple(np.tile(r + 1, 2)))
        _, first, rep_of = np.unique(key, return_index=True,
                                     return_inverse=True)
        reps = centers[first]
    balls = [space.ball(int(x), radius) for x in reps]
    sizes = np.array([len(b) for b in balls], dtype=np.int64)
    out = [None] * len(centers)
    for m in np.unique(sizes).tolist():
        group = np.nonzero(sizes == m)[0]
        ball = np.stack([balls[g] for g in group])
        dist = space.pair_dist(ball[:, :, None], ball[:, None, :])
        rows = np.arange(len(group))[:, None]
        # np.lexsort reads its keys last to first: center distance, then the
        # sorted rows compared entry by entry, then the id
        order = np.lexsort(np.concatenate([
            ball[None], np.sort(dist, axis=2).transpose(2, 0, 1)[::-1],
            space.pair_dist(ball, reps[group, None])[None]]), axis=-1)
        templates = [Template(d, base=0) for d in
                     dist[rows[:, :, None], order[:, :, None], order[:, None]]]
        members = np.nonzero(sizes[rep_of] == m)[0]
        own = np.searchsorted(group, rep_of[members])
        # a translated ball's ids are its representative's plus the shift
        ids = ball[rows, order][own] + (centers - reps[rep_of])[members, None]
        for x, t, lst in zip(members.tolist(), own.tolist(), ids.tolist()):
            out[x] = (templates[t], lst)
    return out


def ball_template(space, center, radius):
    """``ball_templates`` of one center."""
    return ball_templates(space, [center], radius)[0]


def match_ball_exact(space, template, center, radius):
    """Pointed bijective isometry template -> B(center, radius), or None."""
    ball = space.ball(center, radius)
    if len(ball) != template.size:
        return None
    bdist = space.pairwise(ball, ball)
    center_pos = int(np.searchsorted(ball, center))
    img = next(_isometries(template.dist, template.base, bdist, center_pos),
               None)
    return None if img is None else [int(ball[p]) for p in img]


def pointed_isometric(t1, t2):
    """Whether two pointed templates are isometric (basepoint to basepoint)."""
    if t1.size != t2.size:
        return False
    if t1.base == t2.base and np.array_equal(t1.dist, t2.dist):
        return True
    if t1.signature() != t2.signature():
        return False
    img = next(_isometries(t1.dist, t1.base, t2.dist, t2.base), None)
    return img is not None
