"""Metric sparsification and partitions of unity with measured variation.

``sparsify`` captures a prescribed fraction of any finite measure inside a
union of uniformly bounded, well separated parts: an offset-shifted block
pattern on lattice windows, greedy mass-ordered ball packing elsewhere.
``make_partition`` builds p-partitions of unity from piecewise-linear bumps on
an L-net and stores them once, as the sparse bump matrix Phi (points by
centers).  Their variation is measured exactly from row differences of Phi
over all point pairs within the radius; the measured table replaces analytic
variation bounds everywhere downstream.  ``average`` and ``weighted_sum``
read Phi to assemble the operator combinations these partitions support, with
certified norm bounds attached.
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
    captured fraction is 3/4 and the part diameter is bounded by f(m) = 3m.
    """

    def block_length(self, m, c=None):
        if c is None:
            return 3 * int(m)
        if not 0 < c < 1:
            raise OperatorError("capture fraction must sit in (0, 1)")
        return int(math.ceil(c * m / (1.0 - c) - 1e-9))

    def f(self, m):
        return 3 * int(m)

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
    if np.any(mu < 0):
        raise OperatorError("measure must be nonnegative")
    if mu.sum() == 0:
        raise OperatorError("measure must not vanish identically")
    return mu


def _sparsify_blocks(space, mu, m, L):
    """Best offset of the keep-L drop-m pattern, applied per axis."""
    lower = space.lower
    period = L + m
    dims = space.coords.shape[1]
    rel = space.coords - lower[None, :]
    total = mu.sum()

    if period ** dims > 200000:
        raise OperatorError("offset search too large for this block length")
    best = None
    for off in _grid([np.arange(period)] * dims):
        keep = np.all((rel - off[None, :]) % period < L, axis=1)
        mass = float(mu[keep].sum())
        key = (-mass, tuple(int(v) for v in off))
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


def _sparsify_greedy(space, mu, m, diameter_bound):
    """Greedy mass-ordered ball packing; parts keep positive-mass points only."""
    rho = diameter_bound // 2
    available = np.ones(space.n, dtype=bool)
    total = mu.sum()
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
    captured = sum(float(mu[np.asarray(p, dtype=np.int64)].sum()) for p in parts)
    diam = max((space.diameter(part) for part in parts), default=0)
    return Sparsification(parts=parts, separation=m, diameter_bound=diam,
                          mass_fraction=captured / total, measure=mu,
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
    model = BlockSparsifierModel()
    L = model.block_length(m) if block_length is None else int(block_length)
    if space.kind in LATTICE_KINDS:
        result = _sparsify_blocks(space, mu, m, L)
    else:
        result = _sparsify_greedy(space, mu, m, model.f(m))
    _validate_sparsification(space, result)
    if result.mass_fraction + 1e-12 < target_c:
        raise SparsifyShortfall(
            f"achieved mass fraction {result.mass_fraction:.6f} below target "
            f"{target_c:.6f} (separation {m}, diameter {result.diameter_bound})",
            result)
    return result


def _validate_sparsification(space, sp):
    seen = set()
    for part in sp.parts:
        for x in part:
            if x in seen:
                raise OperatorError("sparsification parts overlap")
            seen.add(x)
    # each part against all later parts at once: |parts| - 1 pairwise calls
    for i in range(len(sp.parts) - 1):
        a = np.asarray(sp.parts[i], dtype=np.int64)
        b = np.concatenate([np.asarray(q, dtype=np.int64)
                            for q in sp.parts[i + 1:]])
        if space.pairwise(a, b).min() < sp.separation:
            raise OperatorError("sparsification parts too close")


# Points per block of the variation sweep: a block holds the pairs of this
# many points with their ball, so memory grows with the ball size, not with n.
_SWEEP_POINTS = 32


@dataclass
class PPartition:
    """Metric p-partition of unity with measured variation.

    ``bumps`` is the sparse bump matrix Phi (CSR, ``space.n`` by
    ``len(centers)``, Phi[x, i] = phi_i(x)); the p-th powers of each row sum
    to one.  It is the only stored form of the bumps: ``point_funcs[x]`` is
    row x read as a dict from center index to value, in ascending center
    order, and ``support(i)`` is column i.  ``variation_table[r]`` is the
    measured worst-pair variation at distance r; it extends lazily for larger
    r via ``variation``.
    """

    space: object
    centers: list
    scale: int
    p: float
    bumps: csr_matrix
    multiplicity: int
    support_diameter: int
    variation_table: dict = field(default_factory=dict)

    @property
    def point_funcs(self):
        """Rows of Phi as dicts {center index: value}, rebuilt on each access."""
        idx, val = self.bumps.indices.tolist(), self.bumps.data.tolist()
        ptr = self.bumps.indptr.tolist()
        return [dict(zip(idx[a:b], val[a:b])) for a, b in zip(ptr, ptr[1:])]

    def phi(self, i, x):
        return float(self.bumps[x, i])

    def support(self, i):
        return self.bumps[:, [i]].nonzero()[0].tolist()

    def variation(self, r):
        """Measured epsilon(r): worst pair sum of |phi_i(x) - phi_i(y)|^p."""
        r = int(r)
        if r <= 0:
            return 0.0
        if r not in self.variation_table:
            self._measure_variation(r)
        return self.variation_table[r]

    def _measure_variation(self, r_max):
        """Fill the table up to r_max from every pair x < y with d(x, y) <= r_max."""
        space, phi = self.space, self.bumps
        worst = np.zeros(r_max + 1)
        for start in range(0, space.n, _SWEEP_POINTS):
            xs, ys = [], []
            for x in range(start, min(start + _SWEEP_POINTS, space.n)):
                ball = space.ball(x, r_max)
                ball = ball[np.searchsorted(ball, x, side="right"):]
                xs.append(np.full(len(ball), x, dtype=np.int64))
                ys.append(ball)
            xs, ys = np.concatenate(xs), np.concatenate(ys)
            if not len(xs):
                continue
            # CSR mat-vec adds each row's stored values one by one from 0
            gaps = abs(phi[ys] - phi[xs]).power(self.p) @ np.ones(phi.shape[1])
            np.maximum.at(worst, space.pair_dist(xs, ys), gaps)
        eps = np.maximum.accumulate(worst[1:]) ** (1.0 / self.p)
        for r in range(1, r_max + 1):
            self.variation_table[r] = float(eps[r - 1])

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


def _local_ops(locals_, count):
    if callable(locals_):
        return [locals_(i) for i in range(count)]
    if isinstance(locals_, dict):
        return [locals_[i] for i in range(count)]
    return list(locals_)


def _scaled(A, keep, factor):
    """Unfolded CSR of the entries of A selected by keep, scaled by factor."""
    nk = A.space.n * A.block_dim
    r, c, v = _unfold(A.rows[keep], A.cols[keep],
                      A.blocks[keep] * factor[keep][:, None, None])
    return csr_matrix((v, (r, c)), shape=(nk, nk))


def weighted_sum(part: PPartition, locals_, mode="plain", A=None, M=None,
                 norm_a=None):
    """Assemble sum_i phi_i^(p/q) B_i phi_i or sum_i phi_i^(p/q) B_i [phi_i, A].

    ``locals_`` provides one bounded operator per partition center (callable,
    dict, or list); M is the caller's uniform bound on their norms.  Returns
    (operator, certified_bound): M in plain mode, eps * N * |A| * M in
    commutator mode with eps the measured variation at prop(A) and N the ball
    bound growth(prop(A)).

    Each B_i is cut to rows in supp phi_i and scaled there by phi_i^(p-1);
    in plain mode it is also cut to columns in supp phi_i and scaled by
    phi_i, in commutator mode it multiplies [phi_i, A], whose entry (x, y) is
    (phi_i(x) - phi_i(y)) A(x, y), so a diagonal A gives exactly zero.
    """
    if M is None:
        raise OperatorError("weighted_sum needs a uniform bound M on the locals")
    if mode not in ("plain", "commutator"):
        raise OperatorError(f"unknown weighted_sum mode {mode!r}")
    if mode == "commutator" and A is None:
        raise OperatorError("commutator mode needs the operator A")
    ops = _local_ops(locals_, len(part.centers))
    if len(ops) != len(part.centers):
        raise OperatorError("one local operator per partition center required")
    space = part.space
    if not ops:
        return from_triplets(space, []), 0.0
    k = ops[0].block_dim
    for B in ops + ([A] if mode == "commutator" else []):
        _check_space(space, B)
        if B.block_dim != k:
            raise OperatorError("block dimension mismatch")

    columns = part.bumps.tocsc()
    terms = []
    for i, B in enumerate(ops):
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
            prod = (_scaled(B, phi[B.rows] != 0, lead[B.rows])
                    @ _scaled(A, jump != 0, jump)).tocoo()
            terms.append((prod.row, prod.col, prod.data))
    r, c, v = (np.concatenate(t) for t in zip(*terms))
    # stably sorted input: csr_matrix adds duplicates in center order
    order = np.lexsort((c, r))
    nk = space.n * k
    total = csr_matrix((v[order], (r[order], c[order])), shape=(nk, nk))
    op = _from_csr(space, total, k, ops[0].p)
    if mode == "plain":
        bound = float(M)
    else:
        eps = part.variation(A.propagation)
        N = space.growth(A.propagation)
        na = schur_bound(A, part.p) if norm_a is None else float(norm_a)
        bound = float(eps * N * na * M)
    return op, bound
