"""Metric sparsification and partitions of unity with measured variation.

``sparsify`` captures a prescribed fraction of any finite measure inside a
union of uniformly bounded, well separated parts: an offset-shifted block
pattern on lattice windows, whose every offset's mass comes from one
``bincount`` over residues, and greedy mass-ordered ball packing (one mat-vec
per step) elsewhere.  ``make_partition`` builds p-partitions of unity from
piecewise-linear bumps on an L-net and stores them once, as the sparse bump
matrix Phi (points by centers).  Their variation is measured exactly from row
differences of Phi over all point pairs within the radius, each pair once:
the table keeps each distance's raw worst pair sum, so a lazy extension
sweeps only the pairs of the new distance shell.  The measured table replaces
analytic variation bounds everywhere downstream.  One neighbour-pair
sweep, ``Space.pairs_within``, feeds the variation, the greedy ball indicator
and the separation check of every sparsification.  ``average`` and
``weighted_sum`` (one sparse product X Y over (center, point) pairs,
center-major) read Phi to assemble the operator combinations these
partitions support, with certified norm bounds attached.
"""
from dataclasses import dataclass, field
import math

import numpy as np
from scipy.sparse import csr_matrix

from .operators import (
    BandOperator, OperatorError, from_triplets, schur_bound, _from_csr, _unfold,
)
from .space import LATTICE_KINDS, SpaceError, _grid, same_space


class SparsifyShortfall(ValueError):
    """Target mass fraction not achievable; carries the best construction."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


@dataclass
class Sparsification:
    """Disjoint parts, pairwise separated, carrying a mass fraction."""

    parts: list                 # sorted id lists
    separation: int
    diameter_bound: int
    mass_fraction: float
    measure: np.ndarray
    method: str

    def to_json(self):
        return {
            "parts": [[int(x) for x in part] for part in self.parts],
            "separation": int(self.separation),
            "diameter_bound": int(self.diameter_bound),
            "mass_fraction": self.mass_fraction,
            "method": self.method,
        }


@dataclass
class BlockSparsifierModel:
    """Constants of the offset-block construction on interval-like spaces.

    Keeping blocks of length L out of every L + m positions captures at least
    L / (L + m) of any measure at separation m; with the default L = 3m the
    captured fraction is 3/4 and the part diameter is bounded by
    block_length(m) = 3m.
    """

    def block_length(self, m, c=None):
        if c is None:
            return 3 * int(m)
        if not 0 < c < 1:
            raise OperatorError("capture fraction must sit in (0, 1)")
        return int(math.ceil(c * m / (1.0 - c) - 1e-9))

    def diameter_for(self, m, c_prime):
        """Part-diameter bound needed to capture fraction c_prime at separation m."""
        return self.block_length(m, c_prime)


def _as_measure(space, measure):
    if measure is None:
        mu = np.ones(space.n)
    elif callable(measure):
        mu = np.array([float(measure(x)) for x in range(space.n)])
    else:
        mu = np.asarray(measure, dtype=np.float64)
    if mu.shape != (space.n,):
        raise OperatorError("measure must assign one value per point")
    if not np.all(np.isfinite(mu) & (mu >= 0)):
        raise OperatorError("measure must be finite and nonnegative")
    if mu.sum() == 0:
        raise OperatorError("measure must not vanish identically")
    return mu


def _sparsify_blocks(space, mu, m, L):
    """Best offset of the keep-L drop-m pattern, applied per axis.

    A ``bincount`` over residues and cyclic window sums give every offset's
    mass in another summation order, so they only shortlist the offsets
    within 1e-9 of the total of the best, which ``mu[keep].sum()`` ranks.
    """
    period = L + m
    dims = space.coords.shape[1]
    rel = space.coords - space.lower[None, :]
    if period ** dims > 200000:
        raise OperatorError("offset search too large for this block length")
    shape = (period,) * dims
    mass = np.bincount(np.ravel_multi_index(tuple((rel % period).T), shape),
                       weights=mu, minlength=period ** dims).reshape(shape)
    for axis in range(dims):
        mass = sum(np.roll(mass, -j, axis=axis) for j in range(L))
    total = mu.sum()
    best = None
    for off in _grid([np.arange(period)] * dims)[
            mass.ravel() >= mass.max() - 1e-9 * total]:
        keep = np.all((rel - off[None, :]) % period < L, axis=1)
        key = (-float(mu[keep].sum()), tuple(int(v) for v in off))
        if best is None or key < best[0]:
            best = (key, off, keep)
    _, off, keep = best
    kept_ids = np.nonzero(keep)[0]
    block_index = (rel[kept_ids] - off[None, :]) // period
    parts = {}
    for pid, bi in zip(kept_ids, block_index):
        parts.setdefault(tuple(int(v) for v in bi), []).append(int(pid))
    part_list = [sorted(parts[key]) for key in sorted(parts)]
    frac = float(mu[kept_ids].sum() / total)
    diam = max((space.diameter(part) for part in part_list), default=0)
    return Sparsification(parts=part_list, separation=m, diameter_bound=diam,
                          mass_fraction=frac, measure=mu, method="blocks")


def _indicator(n, xs, ys):
    """CSR 0/1 matrix of the pairs both ways and the diagonal, rows sorted."""
    key = np.sort(np.concatenate([xs * n + ys, ys * n + xs,
                                  np.arange(n) * (n + 1)]))
    ptr = np.searchsorted(key, np.arange(n + 1) * n)
    return csr_matrix((np.ones(len(key)), key % n, ptr), shape=(n, n))


def _sparsify_greedy(space, mu, m, diameter_bound):
    """Greedy mass-ordered ball packing; parts keep positive-mass points only.

    One ``pairs_within`` sweep gives the CSR ball indicator ``near`` and the
    within-(m - 1) indicator ``close``.  Each step takes every ball's
    available mass as one mat-vec of ``near`` and places a part about the
    first maximum; one mat-vec of ``close`` marks the points it blocks.
    The mat-vec adds left to right, numpy's ``sum`` pairwise from 8 points
    on, so float masses equal to within rounding may tie-break otherwise than
    ``sum`` would; integer-valued measures sum exactly.
    """
    chunks = list(space.pairs_within(diameter_bound // 2))
    xs, ys, d = (np.concatenate([c[k] for c in chunks]
                                + [np.zeros(0, dtype=np.int64)]) for k in range(3))
    near = _indicator(space.n, xs, ys)
    close = _indicator(space.n, xs[d <= m - 1], ys[d <= m - 1])
    live = mu > 0                   # available points of positive mass
    parts = []
    while True:
        mass = np.where(live, near @ np.where(live, mu, 0.0), 0.0)
        best = int(np.argmax(mass))
        if mass[best] == 0.0:
            break
        ball = near.indices[near.indptr[best]:near.indptr[best + 1]]
        part = ball[live[ball]]
        parts.append(part.tolist())
        hit = np.zeros(space.n)
        hit[part] = 1.0
        live &= close @ hit == 0
    captured = sum(float(mu[np.asarray(p, dtype=np.int64)].sum()) for p in parts)
    diam = max((space.diameter(part) for part in parts), default=0)
    return Sparsification(parts=parts, separation=m, diameter_bound=diam,
                          mass_fraction=captured / mu.sum(), measure=mu,
                          method="greedy")


def sparsify(space, measure, m, target_c, block_length=None):
    """Capture at least target_c of the measure in m-separated bounded parts.

    Lattice windows use the offset-shifted block pattern (block length 3m by
    default); other spaces fall back to greedy ball packing with the same
    diameter budget.  Raises SparsifyShortfall (carrying the best achieved
    construction) when the target fraction is out of reach.
    """
    m = int(m)
    if m < 1:
        raise OperatorError("separation must be at least 1")
    mu = _as_measure(space, measure)
    default = BlockSparsifierModel().block_length(m)
    L = default if block_length is None else int(block_length)
    if L < 1:
        raise OperatorError("block length must be at least 1")
    if space.kind in LATTICE_KINDS:
        result = _sparsify_blocks(space, mu, m, L)
    else:
        result = _sparsify_greedy(space, mu, m, default)
    _validate_sparsification(space, result)
    if result.mass_fraction + 1e-12 < target_c:
        raise SparsifyShortfall(
            f"achieved mass fraction {result.mass_fraction:.6f} below target "
            f"{target_c:.6f} (separation {m}, diameter {result.diameter_bound})",
            result)
    return result


def _validate_sparsification(space, sp):
    """Disjoint parts, and no pair closer than the separation across parts."""
    ids = np.concatenate([np.asarray(p, dtype=np.int64) for p in sp.parts]
                         + [np.zeros(0, dtype=np.int64)])
    if len(np.unique(ids)) < len(ids):
        raise OperatorError("sparsification parts overlap")
    label = np.full(space.n, -1)
    label[ids] = np.repeat(np.arange(len(sp.parts)),
                           [len(p) for p in sp.parts])
    for xs, ys, _ in space.pairs_within(sp.separation - 1):
        a, b = label[xs], label[ys]
        if np.any((a >= 0) & (b >= 0) & (a != b)):
            raise OperatorError("sparsification parts too close")


@dataclass
class PPartition:
    """Metric p-partition of unity with measured variation.

    ``bumps`` is the sparse bump matrix Phi (CSR, ``space.n`` by
    ``len(centers)``, Phi[x, i] = phi_i(x)); the p-th powers of each row sum
    to one.  It is the only stored form of the bumps: ``point_funcs[x]`` is
    row x read as a dict from center index to value, in ascending center
    order, and column i holds supp phi_i.  ``variation_table[r]`` is the
    measured worst-pair variation at distance r, from one pair sweep that adds
    each pair's terms one at a time in ascending center order; it extends
    lazily for larger r via ``variation``, which sweeps only the pairs
    farther than the table reaches.  ``_worst[d]`` keeps the worst pair sum
    at distance exactly d that the table is built from.
    """

    space: object
    centers: list
    scale: int
    p: float
    bumps: csr_matrix
    multiplicity: int
    support_diameter: int
    variation_table: dict = field(default_factory=dict)
    _worst: np.ndarray = field(default_factory=lambda: np.zeros(1), repr=False)

    def __eq__(self, other):
        """Equal partitions: one space (``same_space``), the same centers,
        scale, exponent and bump matrix.  The variation table is a lazily
        grown measurement of the bumps and does not count."""
        if not isinstance(other, PPartition):
            return NotImplemented
        return (same_space(self.space, other.space)
                and self.centers == other.centers
                and (self.scale, self.p) == (other.scale, other.p)
                and self.bumps.shape == other.bumps.shape
                and (self.bumps != other.bumps).nnz == 0)

    @property
    def point_funcs(self):
        """Rows of Phi as dicts {center index: value}, rebuilt on each access."""
        idx, val = self.bumps.indices.tolist(), self.bumps.data.tolist()
        ptr = self.bumps.indptr.tolist()
        return [dict(zip(idx[a:b], val[a:b])) for a, b in zip(ptr, ptr[1:])]

    def variation(self, r):
        """Measured epsilon(r): worst pair sum of |phi_i(x) - phi_i(y)|^p.

        Past the largest pair distance (inf too) it is epsilon there.
        """
        if r != r:
            raise OperatorError(f"variation radius must be a number, got {r}")
        if r > len(self.variation_table):       # the table holds 1..len
            r = min(r, self.space._largest_distance())
        r = math.floor(max(r, 0))
        if r == 0:
            return 0.0
        if r not in self.variation_table:
            self._measure_variation(r)
        return self.variation_table[r]

    def _measure_variation(self, r_max):
        """Extend the table from its length to r_max by one shell sweep.

        Only the pairs at distance in (len, r_max] are swept, by
        ``pairs_within(r_max, above=len)``; the table's own pairs are never
        gathered again.  Each chunk's gaps are CSR row differences of Phi:
        the mat-vec adds a pair's terms one at a time in ascending center
        order, from 0.  Maxima do not depend on the order the pairs come in,
        so the table, rebuilt from the whole raw array, equals that of one
        sweep of every pair within r_max.
        """
        done = len(self._worst) - 1             # == len(variation_table)
        phi, ones = self.bumps, np.ones(self.bumps.shape[1])
        worst = np.concatenate([self._worst, np.zeros(r_max - done)])
        for xs, ys, d in self.space.pairs_within(r_max, above=done):
            gaps = abs(phi[ys] - phi[xs]).power(self.p) @ ones
            np.maximum.at(worst, d, gaps)
        self._worst = worst
        eps = np.maximum.accumulate(worst[1:]) ** (1.0 / self.p)
        self.variation_table.update(zip(range(1, r_max + 1), eps.tolist()))

    def to_json(self):
        return {
            "centers": [int(c) for c in self.centers],
            "scale": int(self.scale),
            "p": self.p,
            "multiplicity": int(self.multiplicity),
            "support_diameter": int(self.support_diameter),
            "variation_table": self.variation_table,
        }


def _net(space, L):
    """L-net centers: lattice-aligned on lattice windows, greedy elsewhere."""
    if space.kind in LATTICE_KINDS:
        on_net = np.all((space.coords - space.lower) % L == 0, axis=1)
        return np.nonzero(on_net)[0].tolist()
    # the next center is the first point farther than L from every center
    centers = []
    nearest = np.full(space.n, np.inf)
    far = np.arange(space.n)
    while len(far):
        c = int(far[0])
        centers.append(c)
        nearest = np.minimum(nearest, space.row(c))
        far = np.nonzero(nearest > L)[0]
    return centers


def make_partition(space, scale, p=2.0):
    """Piecewise-linear p-partition of unity at the given scale.

    Centers form an L-net (lattice-aligned on lattice windows, greedy
    elsewhere); bumps fall off linearly to zero at distance 2L and are
    normalized so the p-th powers sum to one.  Variation is measured for all
    distances up to 3L on construction.
    """
    L = int(scale)
    if L < 1:
        raise OperatorError("partition scale must be at least 1")
    centers = _net(space, L)
    if not centers:
        raise SpaceError("net construction failed: no centers at this scale")

    rows, cols, vals = [], [], []
    diam = 0
    for i, c in enumerate(centers):
        ball = space.ball(c, 2 * L - 1)
        w = 1.0 - space.pair_dist(c, ball) / (2.0 * L)
        sup = ball[w > 0]
        rows.append(sup)
        cols.append(np.full(len(sup), i, dtype=np.int64))
        vals.append(w[w > 0])
        diam = max(diam, space.diameter(sup))
    bumps = csr_matrix((np.concatenate(vals),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(space.n, len(centers)))
    bumps.sort_indices()
    counts = np.diff(bumps.indptr)
    if not counts.all():
        x = int(np.argmin(counts))
        raise SpaceError(f"net does not cover point {x} at this scale")
    # CSR mat-vec adds each row's stored values one by one from 0
    mass = bumps.power(p) @ np.ones(len(centers))
    bumps.data /= np.repeat(mass ** (1.0 / p), counts)

    part = PPartition(space=space, centers=centers, scale=L, p=float(p),
                      bumps=bumps, multiplicity=int(counts.max()),
                      support_diameter=diam)
    part._measure_variation(3 * L)
    return part


def _check_space(space, A):
    """Reject an operator built on another space than the partition's."""
    if not same_space(A.space, space):
        raise OperatorError("operator and partition live on different spaces")


def average(A: BandOperator, part: PPartition) -> BandOperator:
    """Partition average sum_i phi_i^(p/q) A phi_i (entrywise damping of A).

    Fixes diagonal operators exactly and contracts certified norms; converges
    to A in norm as the scale grows.  Entry (x, y) is scaled by
    sum_i Phi[x, i]^(p-1) Phi[y, i].
    """
    _check_space(part.space, A)
    left = part.bumps[A.rows]
    left.data **= part.p - 1.0       # p / q for the conjugate exponent q
    # CSR mat-vec adds each row's stored values one by one from 0
    coeff = left.multiply(part.bumps[A.cols]) @ np.ones(len(part.centers))
    keep = coeff != 0
    if not keep.any():
        return from_triplets(A.space, [], block_dim=A.block_dim, p=A.p)
    blocks = A.blocks[keep] * coeff[keep][:, None, None]
    return BandOperator(A.space, A.rows[keep], A.cols[keep], blocks,
                        block_dim=A.block_dim, p=A.p)


def weighted_sum(part: PPartition, locals_, mode="plain", A=None, M=None,
                 norm_a=None):
    """Assemble sum_i phi_i^(p/q) B_i phi_i or sum_i phi_i^(p/q) B_i [phi_i, A].

    ``locals_`` provides one band operator per partition center (callable on
    the center index, or a sequence); M is the caller's uniform bound on their
    norms.  Returns (operator, certified_bound): M in plain mode, eps * N *
    |A| * M in commutator mode with eps the measured variation at prop(A) and
    N the ball bound growth(prop(A)).

    Both modes are one sparse product X Y, differing only in the right factor
    Y: the diag(phi_i), or the [phi_i, A] with entries (phi_i(y) - phi_i(z))
    A(y, z) (empty for a diagonal A), stacked.  The inner index holds only the
    pairs (center i, point y) at which Y has a row, center-major, then by
    point (then block component), so memory grows with the entries.  Column
    (i, y) of X is column y of B_i cut to the rows in supp phi_i and scaled
    there by phi_i^(p-1).  scipy adds each entry's terms in inner order from
    0, so the centers add in center order.
    """
    if M is None:
        raise OperatorError("weighted_sum needs a uniform bound M on the locals")
    if mode not in ("plain", "commutator"):
        raise OperatorError(f"unknown weighted_sum mode {mode!r}")
    if mode == "commutator" and A is None:
        raise OperatorError("commutator mode needs the operator A")
    count = len(part.centers)
    ops = [locals_(i) for i in range(count)] if callable(locals_) else list(locals_)
    if len(ops) != count or not all(isinstance(B, BandOperator) for B in ops):
        raise OperatorError("one local band operator per partition center required")
    space = part.space
    if not ops:
        return from_triplets(space, []), 0.0
    n, k = space.n, ops[0].block_dim
    for B in ops + ([A] if mode == "commutator" else []):
        _check_space(space, B)
        if B.block_dim != k:
            raise OperatorError("block dimension mismatch")

    # the right factor as block entries (center, y, z, block), center-major
    phi = part.bumps.tocsc()
    if mode == "plain":
        center = np.repeat(np.arange(count), np.diff(phi.indptr))
        y = z = phi.indices
        right = phi.data[:, None, None] * np.eye(k)
    else:
        jump = (part.bumps[A.rows] - part.bumps[A.cols]).tocsc()
        center = np.repeat(np.arange(count), np.diff(jump.indptr))
        y, z = A.rows[jump.indices], A.cols[jump.indices]
        right = A.blocks[jump.indices] * jump.data[:, None, None]
    new = np.diff(center * n + y, prepend=-1) != 0
    inner, points = np.cumsum(new) - 1, y[new]
    ptr = np.searchsorted(center[new], np.arange(count + 1))

    where, lead = np.full(n, -1), np.zeros(n)   # inner index of (i, y); phi_i^(p-1)
    terms = []
    for i, B in enumerate(ops):
        sup = phi.indices[phi.indptr[i]:phi.indptr[i + 1]]
        own = points[ptr[i]:ptr[i + 1]]
        lead[sup] = phi.data[phi.indptr[i]:phi.indptr[i + 1]] ** (part.p - 1.0)
        where[own] = np.arange(ptr[i], ptr[i + 1])
        keep = (lead[B.rows] != 0) & (where[B.cols] >= 0)
        rows = B.rows[keep]
        terms.append((rows, where[B.cols[keep]],
                      B.blocks[keep] * lead[rows][:, None, None]))
        lead[sup], where[own] = 0.0, -1
    nk, jk = n * k, len(points) * k
    # csr_matrix sorts each row of X by inner index
    r, c, v = _unfold(*(np.concatenate(t) for t in zip(*terms)))
    X = csr_matrix((v, (r, c)), shape=(nk, jk))
    r, c, v = _unfold(inner, z, right)
    Y = csr_matrix((v, (r, c)), shape=(jk, nk))
    op = _from_csr(space, X @ Y, k, ops[0].p)
    if mode == "plain":
        bound = float(M)
    else:
        eps = part.variation(A.propagation)
        N = space.growth(A.propagation)
        na = schur_bound(A, part.p) if norm_a is None else float(norm_a)
        bound = float(eps * N * na * M)
    return op, bound
