"""Sparse band operator algebra over a finite metric space.

A band operator is a point-indexed matrix whose nonzero entries sit within a
fixed distance (the propagation) of the diagonal.  Entries are complex scalars
or small square blocks of a fixed dimension.  The module provides the algebra
operations, vector action in weighted p-norms, certified Schur norm bounds,
and the exact 2-norm from the top eigenvalue of the banded Gram matrix.

Entries are stored as complex128; ``BandOperator.is_real`` records once
whether every imaginary part is zero.  ``norm2`` then runs real LAPACK,
whose eigenvalues are those over the complex numbers.
"""

import numpy as np
from scipy.linalg import eigvals_banded
from scipy.sparse import csr_matrix

from .space import same_space

# largest unfolded side of a dense matrix; norm2's band storage holds at
# most its square in entries
DENSE_SIDE = 4000


class OperatorError(ValueError):
    """Raised on malformed operator input (bad ids, duplicates, mismatch)."""


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

    @classmethod
    def basis(cls, space, x, p=2.0, block_dim=1, component=0):
        v = np.zeros((space.n, block_dim), dtype=np.complex128)
        v[x, component] = 1.0
        return cls(space, v, p=p, block_dim=block_dim)

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
    if A.nnz == 0:
        return A
    return BandOperator(A.space, A.rows, A.cols, A.blocks * complex(alpha),
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
    interpolation bound (max column l1)^(1/p) (max row l1)^(1/q).
    """
    if A.nnz == 0:
        return 0.0
    norms = _block_norms(A.blocks)
    row_sums = np.zeros(A.space.n)
    col_sums = np.zeros(A.space.n)
    np.add.at(row_sums, A.rows, norms)
    np.add.at(col_sums, A.cols, norms)
    q = p / (p - 1.0)
    if p == 2.0:
        interp = float(np.sqrt(col_sums.max() * row_sums.max()))
    else:
        interp = col_sums.max() ** (1.0 / p) * row_sums.max() ** (1.0 / q)
    basic = A.entry_sup * A.space.growth(A.propagation)
    return float(min(interp, basic))


def norm2(A: BandOperator) -> float:
    """Largest singular value (p = 2 operator norm), exact up to rounding.

    The square root of the top eigenvalue of the Gram matrix G = A*A, held
    in LAPACK lower band storage (its band is the widest row - column offset
    of a nonzero entry), in real arithmetic when A is real.  Raises when the
    storage would exceed DENSE_SIDE**2 entries, the size of the largest
    dense matrix.
    """
    if A.nnz == 0:
        return 0.0
    M = A.csr().real if A.is_real else A.csr()
    G = (M.conj().T @ M).tocoo()
    low = G.row >= G.col
    r, c, v = G.row[low], G.col[low], G.data[low]
    band = int((r - c).max(initial=0))
    nk = M.shape[0]
    if (band + 1) * nk > DENSE_SIDE ** 2:
        raise OperatorError(f"Gram band {band} too wide for {nk} unfolded columns")
    ab = np.zeros((band + 1, nk), dtype=v.dtype)
    ab[r - c, c] = v
    top = eigvals_banded(ab, lower=True, select="i", select_range=(nk - 1, nk - 1))
    return float(np.sqrt(max(top[0], 0.0)))


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
