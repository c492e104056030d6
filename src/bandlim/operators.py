"""Sparse band operator algebra over a finite metric space.

A band operator is a point-indexed matrix whose nonzero entries sit within a
fixed distance (the propagation) of the diagonal.  Entries are complex scalars
or small square blocks of a fixed dimension.  The module provides the algebra
operations, vector action in weighted p-norms, certified Schur norm bounds,
and the 2-norm from the top eigenvalue of the banded Gram matrix.  The
extreme eigenvalues of a banded Gram matrix are bracketed by a search on a
shift that inverse iteration with its last banded Cholesky factor steers; a
factor (``pbtrf``) that completes certifies its shift up to a rounding slack.

Entries are finite (NaN and inf are refused) and stored as complex128;
``BandOperator.is_real`` records once whether every imaginary part is zero.
``norm2`` then runs real LAPACK, whose eigenvalues are those over the
complex numbers.
"""

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse import csr_matrix, issparse

from .space import same_space

# largest unfolded side of a dense matrix; norm2's band storage holds at
# most its square in entries
DENSE_SIDE = 4000
_EPS = np.finfo(float).eps
_STEER = 0.5             # least_eigenvalue's margin per unit of U's move
_drawn = np.zeros(0)     # the longest draw of _random_start so far


class OperatorError(ValueError):
    """Raised on malformed operator input (bad ids, duplicates, mismatch)."""


def _check_exponent(p):
    if not 1.0 <= p < np.inf:
        raise OperatorError(f"exponent p must lie in [1, inf), got {p}")


def _block_norms(blocks):
    """Spectral norm of each k-by-k block (absolute value when k = 1)."""
    if blocks.shape[1] == 1:
        return np.abs(blocks[:, 0, 0])
    return np.linalg.svd(blocks, compute_uv=False)[:, 0]


def _unfold(rows, cols, blocks):
    """Scalar (row, col, value) triplets of k-by-k block triplets.

    Block (x, y) lands at rows x*k .. x*k+k-1 and columns y*k .. y*k+k-1 of
    the unfolded (n*k, n*k) matrix.
    """
    k = blocks.shape[1]
    if k == 1:
        return rows, cols, blocks[:, 0, 0]
    bi, bj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    r = (rows[:, None, None] * k + bi[None]).reshape(-1)
    c = (cols[:, None, None] * k + bj[None]).reshape(-1)
    return r, c, blocks.reshape(-1)


class BandOperator:
    """Sparse point-indexed matrix with propagation and entry-bound metadata.

    Entries are stored as coordinate triplets sorted by (row, col); ``blocks``
    has shape (nnz, k, k) with k the block dimension.  Instances are immutable
    after construction and all derived quantities are cached; ``is_real`` is
    true when no entry has a nonzero imaginary part.
    """

    def __init__(self, space, rows, cols, blocks, block_dim=1, p=2.0):
        self.space = space
        self.block_dim = int(block_dim)
        self.p = float(p)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        blocks = np.asarray(blocks, dtype=np.complex128)
        if blocks.ndim == 1:
            blocks = blocks.reshape(-1, 1, 1)
        if blocks.shape[1:] != (self.block_dim, self.block_dim):
            raise OperatorError("block shape does not match block_dim")
        if rows.shape != cols.shape or rows.shape != blocks.shape[:1]:
            raise OperatorError("rows, cols and blocks differ in length")
        # ids first: an out-of-range id can collide with another entry's key
        bad = (rows < 0) | (rows >= space.n) | (cols < 0) | (cols >= space.n)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise OperatorError(
                f"entry index ({rows[i]}, {cols[i]}) outside the space")
        if not np.isfinite(blocks).all():
            i = int(np.argmin(np.isfinite(blocks).all(axis=(1, 2))))
            raise OperatorError(f"non-finite entry at ({rows[i]}, {cols[i]})")
        order = np.lexsort((cols, rows))
        self.rows = rows[order]
        self.cols = cols[order]
        self.blocks = blocks[order]
        dup = np.diff(self.rows * space.n + self.cols) == 0
        if np.any(dup):
            i = int(np.argmax(dup))
            raise OperatorError(
                f"duplicate entry at ({self.rows[i]}, {self.cols[i]})")
        self.is_real = not np.any(self.blocks.imag)
        self._csr = None
        self._col_index = None
        dists = space.pair_dist(self.rows, self.cols)
        self.propagation = int(dists.max()) if len(dists) else 0
        sups = _block_norms(self.blocks) if len(self.blocks) else np.zeros(0)
        self.entry_sup = float(sups.max()) if len(sups) else 0.0

    @property
    def nnz(self):
        return len(self.rows)

    def csr(self):
        """Unfolded (n*k, n*k) sparse matrix; cached."""
        if self._csr is None:
            nk = self.space.n * self.block_dim
            r, c, v = _unfold(self.rows, self.cols, self.blocks)
            self._csr = csr_matrix((v, (r, c)), shape=(nk, nk))
        return self._csr

    def _ids(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        bad = ids[(ids < 0) | (ids >= self.space.n)]
        if len(bad):
            raise OperatorError(f"point id {bad[0]} outside the space")
        return ids

    def entries(self, cols, rows=None):
        """The entries in the listed columns (and rows): (pos, i, j).

        ``pos`` indexes the stored entries; ``j`` is the index of each
        entry's column in ``cols``, and ``i`` that of its row in ``rows``, or
        the row id when rows is None.  Entries come column by column in the
        order of ``cols``, by row within a column.  The gather reads a cached
        column index; an id outside the space raises ``OperatorError``.
        """
        if self._col_index is None:
            counts = np.bincount(self.cols, minlength=self.space.n)
            self._col_index = (np.argsort(self.cols, kind="stable"),
                               np.concatenate(([0], np.cumsum(counts))))
        order, ptr = self._col_index
        cols = self._ids(cols)
        counts = ptr[cols + 1] - ptr[cols]
        ends = np.cumsum(counts)
        pos = order[np.arange(int(counts.sum()))
                    + np.repeat(ptr[cols] - ends + counts, counts)]
        i, j = self.rows[pos], np.repeat(np.arange(len(cols)), counts)
        if rows is not None:
            where = np.full(self.space.n, -1, dtype=np.int64)
            where[self._ids(rows)] = np.arange(len(rows))
            i = where[i]
            pos, i, j = pos[i >= 0], i[i >= 0], j[i >= 0]
        return pos, i, j

    def to_dense(self):
        nk = self.space.n * self.block_dim
        if nk > DENSE_SIDE:
            raise OperatorError("operator too large for a dense matrix")
        return np.asarray(self.csr().todense())

    def __eq__(self, other):
        return (isinstance(other, BandOperator)
                and self.space is other.space
                and self.block_dim == other.block_dim
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.blocks, other.blocks))


class Vector:
    """Finitely supported vector with a p-exponent and block-column values."""

    def __init__(self, space, values, p=2.0, block_dim=1):
        self.space = space
        self.p = float(p)
        self.block_dim = int(block_dim)
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.shape != (space.n, self.block_dim):
            raise OperatorError("vector shape does not match space/block_dim")
        self.values = values

    def flat(self):
        return self.values.reshape(-1)

    def norm(self):
        """(sum over points of |v(x)|^p)^(1/p), point norms Euclidean."""
        site = np.sqrt((np.abs(self.values) ** 2).sum(axis=1))
        if np.all(site == 0):
            return 0.0
        return float((site ** self.p).sum() ** (1.0 / self.p))

    def support(self):
        return np.nonzero(np.any(self.values != 0, axis=1))[0]


def from_triplets(space, triplets, block_dim=1, p=2.0):
    """Build a band operator from (row, col, value) triplets.

    Values are scalars for block_dim 1, else k-by-k arrays.  ``BandOperator``
    rejects duplicate (row, col) pairs and out-of-range ids.
    """
    k = int(block_dim)
    bad = f"triplets are not (row, col, {k}-by-{k} block) entries"
    try:
        rows, cols, vals = list(zip(*triplets, strict=True)) or ((), (), ())
        blocks = np.asarray(vals, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise OperatorError(bad) from exc
    if blocks.size == 0 or (k == 1 and blocks.ndim == 1):
        blocks = blocks.reshape(-1, k, k)
    if blocks.shape != (len(vals), k, k):
        raise OperatorError(bad)
    return BandOperator(space, rows, cols, blocks, block_dim=k, p=p)


def identity(space, block_dim=1, p=2.0):
    eye = np.eye(block_dim, dtype=np.complex128)
    ids = np.arange(space.n)
    return BandOperator(space, ids, ids,
                        np.repeat(eye[None], space.n, axis=0),
                        block_dim=block_dim, p=p)


def multiplier(space, func, block_dim=1, p=2.0):
    """Diagonal operator from a point function (propagation zero)."""
    rows, blocks = [], []
    for x in range(space.n):
        val = func(x) if callable(func) else func[x]
        b = np.asarray(val, dtype=np.complex128)
        if block_dim == 1 and b.ndim == 0:
            b = b.reshape(1, 1)
        if np.any(b != 0):
            rows.append(x)
            blocks.append(b)
    if not rows:
        return from_triplets(space, [], block_dim=block_dim, p=p)
    return BandOperator(space, rows, rows, np.stack(blocks),
                        block_dim=block_dim, p=p)


def _check_compat(A, B):
    if not same_space(A.space, B.space):
        raise OperatorError("operators live on different spaces")
    if A.block_dim != B.block_dim:
        raise OperatorError("block dimension mismatch")


def _from_csr(space, mat, block_dim, p):
    """Band operator of an unfolded matrix: nonzero entries folded into blocks."""
    mat = mat.tocsr(copy=True)
    mat.eliminate_zeros()
    bsr = mat.tobsr((block_dim, block_dim))
    rows = np.repeat(np.arange(space.n), np.diff(bsr.indptr))
    return BandOperator(space, rows, bsr.indices, bsr.data,
                        block_dim=block_dim, p=p)


def compose(A, B):
    """Operator product A B (propagation at most prop(A) + prop(B))."""
    _check_compat(A, B)
    return _from_csr(A.space, A.csr() @ B.csr(), A.block_dim, A.p)


def add(A, B):
    _check_compat(A, B)
    return _from_csr(A.space, (A.csr() + B.csr()).tocsr(), A.block_dim, A.p)


def scale(A, alpha):
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise OperatorError(f"non-finite scale factor {alpha}")
    # an overflowing product is refused as a non-finite entry
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = A.blocks * alpha
    return BandOperator(A.space, A.rows, A.cols, blocks,
                        block_dim=A.block_dim, p=A.p)


def subtract(A, B):
    return add(A, scale(B, -1.0))


def adjoint(A):
    """Transpose-conjugate of A."""
    blocks = np.conj(np.transpose(A.blocks, (0, 2, 1)))
    return BandOperator(A.space, A.cols, A.rows, blocks,
                        block_dim=A.block_dim, p=A.p)


def apply_operator(A, v: Vector) -> Vector:
    """Matrix action (Av)(x) = sum_y A_xy v(y)."""
    if not same_space(A.space, v.space):
        raise OperatorError("operator and vector live on different spaces")
    if A.block_dim != v.block_dim:
        raise OperatorError("block dimension mismatch")
    w = A.csr() @ v.flat()
    return Vector(v.space, w.reshape(v.space.n, v.block_dim), p=v.p,
                  block_dim=v.block_dim)


# -- norm bounds ---------------------------------------------------------------


def schur_bound(A: BandOperator, p=2.0) -> float:
    """Certified upper bound for the p-operator norm.

    The smaller of the ball-count bound entry_sup * growth(prop) and the
    interpolation bound (max column l1)^(1/p) (max row l1)^(1/q), which
    at p = 1 (q = inf) is the max column l1.  ``OperatorError`` unless p
    lies in [1, inf).
    """
    _check_exponent(p)
    if A.nnz == 0:
        return 0.0
    norms = _block_norms(A.blocks)
    row_sums = np.zeros(A.space.n)
    col_sums = np.zeros(A.space.n)
    np.add.at(row_sums, A.rows, norms)
    np.add.at(col_sums, A.cols, norms)
    q = p / (p - 1.0) if p > 1.0 else np.inf
    if p == 2.0:
        interp = float(np.sqrt(col_sums.max() * row_sums.max()))
    else:
        interp = col_sums.max() ** (1.0 / p) * row_sums.max() ** (1.0 / q)
    basic = A.entry_sup * A.space.growth(A.propagation)
    return float(min(interp, basic))


def gram_band(M):
    """Gram matrix G = M* M of a dense or sparse matrix in LAPACK lower band
    storage.

    Returns ab of shape (band + 1, columns) with ab[d, j] = G[j + d, j]; the
    band is the widest row - column offset of a nonzero entry of G, so a
    dense M and its CSR copy give the same band.  Raises ``OperatorError``
    when G holds a non-finite entry (entries whose products overflow), which
    no shift would factor, and when the storage would exceed DENSE_SIDE**2
    entries, the size of the largest dense matrix.
    """
    if issparse(M):
        G = (M.conj().T @ M).tocoo()
        r, c, v = G.row, G.col, G.data
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            G = M.conj().T @ M
        r, c = np.nonzero(G)
        v = G[r, c]
    low = r >= c
    r, c, v = r[low], c[low], v[low]
    if not np.isfinite(v).all():
        raise OperatorError("non-finite Gram matrix")
    off = r - c
    band = int(off.max(initial=0))
    m = M.shape[1]
    if (band + 1) * m > DENSE_SIDE ** 2:
        raise OperatorError(f"Gram band {band} too wide for {m} unfolded columns")
    ab = np.zeros((band + 1, m), dtype=v.dtype)
    ab[off, c] = v
    return ab


def _gamma(n):
    return n * _EPS / (1.0 - n * _EPS)


def _cholesky_rate(b):
    """The rate r at which a completed banded Cholesky factorization of
    H = G - mu I (Gram band b) certifies lambda_min(G) >= mu - r top, with
    top = max |h_ii| the largest entry of the shifted diagonal.

    R is the computed factor.  R* R = fl(H) + E, so H >= -E - D
    with D the rounding of the shifted diagonal, |D| <= eps top.  By
    Higham (ch. 10, Thm 10.3, which holds for any order of the inner
    products) |E| <= gamma_{b+4} |R*| |R| (b + 4 covers complex
    arithmetic); a row of |R*| |R| has at most 2b + 1 entries, each at most
    max diag R* R <= top / (1 - gamma_{b+4}).  The slack r top sums the
    two bounds.
    """
    g = _gamma(b + 4)
    return g / (1.0 - g) * (2 * b + 1) + _EPS


def _shift_test(ab):
    """(test, d, |G|_inf) for the Gram matrix G in lower band storage ab.

    ``test(mu)`` runs the banded Cholesky factorization ``pbtrf`` of
    H = G - mu I: (R, slack) when it completes with factor R, None when it
    fails, with slack = ``_cholesky_rate(b)`` times max |h_ii|:
    lambda_min(G) >= mu - slack.
    d = 4 (b + 1) eps |G|_inf (1 when G = 0) is the step of every shift
    search; ``OperatorError`` when |G|_inf overflows, as no search would
    end.
    """
    b, m = ab.shape[0] - 1, ab.shape[1]
    # row i of |G|: the sum of column i of |ab|, then |ab[d, i - d]| added
    # for d = 1 .. b in turn (bincount adds in input order)
    size = np.abs(ab)
    size[0] = size.sum(axis=0)
    at = np.arange(b + 1)[:, None] + np.arange(m)
    norm = float(np.bincount(at.ravel(), size.ravel(), minlength=m + b)[:m].max())
    dist = 4.0 * (b + 1) * _EPS * norm or 1.0   # G = 0
    if not np.isfinite(dist):
        raise OperatorError("non-finite Gram norm")
    pbtrf = get_lapack_funcs("pbtrf", (ab,))
    rate = _cholesky_rate(b)

    def test(mu):
        h = ab.copy()
        h[0] -= mu
        top = float(np.abs(h[0]).max())
        factor, info = pbtrf(h, lower=1, overwrite_ab=True)
        return (factor, rate * top) if info == 0 else None
    return test, dist, norm


def shift_below(ab, lam):
    """(mu, R, slack): the first of the shifts lam - d, lam - 2d, lam - 4d,
    ... at which G - mu I factors (``_shift_test``), for a known least
    eigenvalue lam of G.  The first fails where lam lies above the computed
    spectrum or meets a zero pivot; the doubling ends, as G - mu I is
    diagonally dominant once mu <= -|G|_inf."""
    test, dist, _ = _shift_test(ab)
    mu, found = _shift_below(test, lam, dist)
    return (mu, *found)


def _shift_below(test, lam, dist):
    while (found := test(lam - dist)) is None:
        dist *= 2.0
    return lam - dist, found


def _random_start(m):
    """``default_rng(0).standard_normal(m)``, the seeded start of every
    inverse iteration.  A longer draw begins with every shorter one, so the
    longest so far is kept (read-only) and sliced; a call slices the array
    it checked, so another thread's draw cannot shorten it."""
    global _drawn
    start = _drawn
    if len(start) < m:
        start = np.random.default_rng(0).standard_normal(m)
        start.flags.writeable = False
        _drawn = start
    return start[:m]


def least_eigenvalue(ab, floor=None, lower=0.0):
    """(mu, R, slack, w): a certified lower end mu of lambda_min of the
    Hermitian G in lower band storage ab, the Cholesky factor R of G - mu I,
    its slack (lambda_min(G) >= mu - slack, ``_shift_test``) and a unit
    witness w.

    From the factor ``_shift_below`` finds under ``lower`` (0 for a Gram
    matrix; None takes -|G|_inf), each round's ``pbtrs`` solve
    v = (G - mu I)^-1 w makes w = v / |v|.  Its Rayleigh quotient
    U = mu + (w, v) / |v|^2 bounds lambda_min above in exact arithmetic, as
    does ``top``, the least of min diag G, every U and every failed shift.
    The search stops once mu >= top - d or mu - slack >= ``floor(U)``.  Else,
    from the second round on, it factors at the lowest stopping shift if
    that lies ``_STEER`` times U's last move (at least d) below ``top``; else
    at ``top`` less that margin, or at the midpoint of [mu, top] if higher;
    after a failure, at the lower of the stopping shift and the midpoint.
    U only steers: only a completed factorization certifies.
    """
    test, dist, norm = _shift_test(ab)
    pbtrs = get_lapack_funcs("pbtrs", (ab,))
    start = -norm if lower is None else lower
    good, (factor, slack) = _shift_below(test, start, dist)
    top, w = float(ab[0].real.min()), _random_start(ab.shape[1])
    w, last, failed = w / np.linalg.norm(w), None, False
    while True:
        v = pbtrs(factor, w, lower=1)[0]
        size = np.linalg.norm(v)
        U = good + np.vdot(w, v).real / (size * size)
        if last is not None:    # no solve raises U in exact arithmetic
            U = min(U, last)
        w, top = v / size, min(top, U)
        end = top - dist if floor is None else min(top - dist, floor(U) + slack)
        if good >= end:
            return good, factor, slack, w
        if last is not None:        # the first trial waits for U to move
            mid = 0.5 * (good + top)
            safe = top - max(_STEER * (last - U), dist)
            trial = (min(end, mid) if failed else end if end <= safe
                     else max(safe, mid))
            found = test(trial)
            failed = found is None
            if failed:
                top = trial
            else:
                good, (factor, slack) = trial, found
        last = U


def largest_eigenvalue(ab):
    """A certified upper end -mu of the largest eigenvalue of the Gram matrix
    in lower band storage ab: ``least_eigenvalue`` of -G from -|G|_inf."""
    return -least_eigenvalue(-ab, lower=None)[0]


def norm2(A: BandOperator) -> float:
    """Largest singular value (p = 2 operator norm), exact up to rounding.

    The square root of the upper end of the certified bracket of the top
    eigenvalue of the Gram matrix G = A*A (``largest_eigenvalue``), read
    from its band storage (``gram_band``), in real arithmetic when A is
    real.  The bracket is at most 4 (b + 1) eps |G|_inf wide (Gram band b).
    ``OperatorError`` when G or |G|_inf overflows.
    """
    if A.nnz == 0:
        return 0.0
    ab = gram_band(A.csr().real if A.is_real else A.csr())
    return float(np.sqrt(largest_eigenvalue(ab)))


# -- operator files ------------------------------------------------------------


def save_operator(path, A: BandOperator):
    """Write header JSON line plus CSV triplet body (exact round trip)."""
    import json
    lines = [json.dumps({"space_name": A.space.name, "block_dim": A.block_dim,
                         "p": A.p}, sort_keys=True)]
    k = A.block_dim
    for r, c, b in zip(A.rows, A.cols, A.blocks):
        cells = [str(int(r)), str(int(c))]
        for bi in range(k):
            for bj in range(k):
                cells.append(repr(float(b[bi, bj].real)))
                cells.append(repr(float(b[bi, bj].imag)))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_operator(path, space):
    import json
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    if header["space_name"] != space.name:
        raise OperatorError(
            f"operator file expects space {header['space_name']!r}, got {space.name!r}")
    k = int(header["block_dim"])
    triplets = []
    for line in lines[1:]:
        if not line.strip():
            continue
        cells = line.split(",")
        x, y = int(cells[0]), int(cells[1])
        vals = [float(c) for c in cells[2:]]
        b = np.array([complex(vals[2 * i], vals[2 * i + 1])
                      for i in range(k * k)]).reshape(k, k)
        triplets.append((x, y, b if k > 1 else b[0, 0]))
    return from_triplets(space, triplets, block_dim=k, p=float(header["p"]))
