"""Sparse band operator algebra over a finite metric space.

A band operator is a point-indexed matrix whose nonzero entries sit within a
fixed distance (the propagation) of the diagonal.  Entries are complex scalars
or small square blocks of a fixed dimension.  The module provides the algebra
operations, vector action in weighted p-norms, certified Schur norm bounds,
and a deterministic power-iteration 2-norm.

Entries are stored as complex128; ``BandOperator.is_real`` records once
whether every imaginary part is zero.  The dense route of ``norm2`` then
takes the SVD of the real matrix, whose singular values are those over the
complex numbers.
"""

import numpy as np
from scipy.sparse import csr_matrix

from .space import same_space


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
        order = np.lexsort((cols, rows))
        self.rows = rows[order]
        self.cols = cols[order]
        self.blocks = blocks[order]
        if len(self.rows):
            key = self.rows * space.n + self.cols
            if np.any(np.diff(key) == 0):
                i = int(np.nonzero(np.diff(key) == 0)[0][0])
                raise OperatorError(
                    f"duplicate entry at ({self.rows[i]}, {self.cols[i]})")
            if self.rows.min() < 0 or self.rows.max() >= space.n \
                    or self.cols.min() < 0 or self.cols.max() >= space.n:
                raise OperatorError("entry index outside the space")
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

    def col_index(self):
        """Column-ordered view of the entries; cached.

        Returns (order, ptr): ``order`` is a stable argsort of ``cols``, and
        the entries of column y are ``order[ptr[y]:ptr[y + 1]]``, in row order.
        """
        if self._col_index is None:
            order = np.argsort(self.cols, kind="stable")
            counts = np.bincount(self.cols, minlength=self.space.n)
            ptr = np.concatenate(([0], np.cumsum(counts)))
            self._col_index = (order, ptr)
        return self._col_index

    def to_dense(self):
        nk = self.space.n * self.block_dim
        if nk > 4000:
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

    Values are scalars for block_dim 1, else k-by-k arrays.  Duplicate (row,
    col) pairs and out-of-range ids are rejected.
    """
    rows, cols, blocks = [], [], []
    k = int(block_dim)
    for x, y, val in triplets:
        x, y = int(x), int(y)
        if x < 0 or x >= space.n or y < 0 or y >= space.n:
            raise OperatorError(f"entry index ({x}, {y}) outside the space")
        rows.append(x)
        cols.append(y)
        b = np.asarray(val, dtype=np.complex128)
        if k == 1 and b.ndim == 0:
            b = b.reshape(1, 1)
        if b.shape != (k, k):
            raise OperatorError(f"entry at ({x}, {y}) has wrong block shape")
        blocks.append(b)
    if not rows:
        return BandOperator(space, [], [], np.zeros((0, k, k)), block_dim=k, p=p)
    return BandOperator(space, rows, cols, np.stack(blocks), block_dim=k, p=p)


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
    mat = mat.tocoo()
    k = block_dim
    if k == 1:
        keep = mat.data != 0
        return BandOperator(space, mat.row[keep], mat.col[keep],
                            mat.data[keep], block_dim=1, p=p)
    acc = {}
    for r, c, v in zip(mat.row, mat.col, mat.data):
        if v == 0:
            continue
        key = (int(r) // k, int(c) // k)
        b = acc.get(key)
        if b is None:
            b = np.zeros((k, k), dtype=np.complex128)
            acc[key] = b
        b[int(r) % k, int(c) % k] = v
    if not acc:
        return from_triplets(space, [], block_dim=k, p=p)
    keys = sorted(acc)
    rows = [x for x, _ in keys]
    cols = [y for _, y in keys]
    return BandOperator(space, rows, cols, np.stack([acc[key] for key in keys]),
                        block_dim=k, p=p)


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


def norm2(A: BandOperator, rtol=1e-10, max_iter=10000, method="auto") -> float:
    """Largest singular value (p = 2 operator norm).

    ``method='power'`` runs deterministic power iteration on A*A from the
    normalized all-ones vector, stopping when the eigenvalue estimate moves by
    less than rtol relatively; it raises after max_iter without convergence.
    ``'auto'`` uses a dense SVD for small operators (the iteration cap makes
    rtol unreachable when the top of the spectrum clusters) and power
    iteration beyond.  The dense SVD runs in real arithmetic when A is real.
    """
    nk = A.space.n * A.block_dim
    if A.nnz == 0:
        return 0.0
    if method == "auto":
        method = "dense" if nk <= 600 else "power"
    if method == "dense":
        dense = A.to_dense()
        return float(np.linalg.norm(dense.real if A.is_real else dense, 2))
    M = A.csr()
    v = np.ones(nk, dtype=np.complex128) / np.sqrt(nk)
    lam_prev = -1.0
    for _ in range(max_iter):
        w = M @ v
        u = (w.conj() @ M).conj()
        lam = float(np.real(np.vdot(v, u)))
        nu_ = np.linalg.norm(u)
        if nu_ == 0:
            return 0.0
        v = u / nu_
        if lam_prev >= 0 and abs(lam - lam_prev) <= rtol * max(lam, 1e-300):
            return float(np.sqrt(max(lam, 0.0)))
        lam_prev = lam
    raise OperatorError(f"norm2 power iteration did not converge in {max_iter} steps")


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
