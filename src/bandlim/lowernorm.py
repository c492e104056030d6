"""Lower norms of band operators and their support-localized variants.

The lower norm of a column restriction ``A|_F`` is the infimum of
``|A v|_p / |v|_p`` over nonzero vectors supported in F (the restriction acts
from functions on F to functions on the whole space).  For p = 2 this is the
smallest singular value of the restricted matrix; for other exponents a
deterministic multi-start descent is used and tagged as such.  A restriction
with fewer nonzero rows than columns has a kernel, and its lower norm is 0
exactly.
Every restriction comes from ``_gather``: one ``BandOperator.entries`` call
for any number of column sets, with each set's zero rows trimmed.
``_restricted`` is its one-set case.

The p = 2 route is picked by column count: a restriction of at most
``_DENSE_MAX`` columns is solved dense, a wider one banded, by one rule that
``nu`` and the ``nu_s`` screen share.  Every p = 2 witness, kernel vectors
included, comes from inverse iteration with a banded Cholesky factor of the
Gram matrix G = sub* sub in LAPACK band storage (``operators.gram_band``,
which ``norm2`` also reads), shifted just below its least eigenvalue by one
search (``operators.least_eigenvalue``).  A dense restriction takes its value
from LAPACK's values-only SVD, whose square is the search's start, and its
witness from the first factor found (``_witness_at``); the tolerance covers
the witness's computed quotient.  A banded one lets the witness steer the
shift: the value is the witness quotient, an attained upper bound, and the
tolerance reaches down to the bound that the last completed factor
certifies, a checked interval [value - tolerance, value].  No p = 2 route
asks an SVD for singular vectors, and none reduces G to tridiagonal form.

The restriction of a real operator (``BandOperator.is_real``) is real, so
every p = 2 route runs in real arithmetic: its singular values are those over
the complex numbers, and a real singular vector is a complex witness.  The
descent for p != 2 still searches complex vectors: away from p = 2 the
infimum over real vectors need not be the one over complex vectors.  ``nu``
scales every witness so that its first entry of largest modulus is real and
positive, whichever route found it.

``nu_s`` restricts witnesses to ball neighborhoods inside F.  Its screen
builds every distinct ball restriction from one ``_gather`` call.  Kernel
balls get 0 without an SVD, and the balls past the dense limit go through
``nu``.  The balls that ``nu`` would solve by dense SVD are screened in
three steps.  Sample: every k-th of them (k the square root of their
count) takes a values-only SVD, and U is the least value known then.
Certify: ``pbtrf``, the one banded Cholesky here, factors their shifted
Gram matrices in one band strip formed from the gathered entries, and
proves of most other balls that their SVD value exceeds U, counting the
rounding of the Gram matrix, of the factorization and of the SVD, so they
cannot be the minimum.  Survivors: the rest take values-only SVDs.  Every
SVD runs on a zeroed same-shape stack, bitwise the matrices ``_restricted``
builds, with the LAPACK call ``nu`` makes, so the values are ``nu``'s
bitwise.  ``nu`` builds the witness and report of the winning ball.  Every
lower norm runs in the calling thread.

``localization_check`` computes the support bound under which the localized
value provably sits within delta of the global one, given the sparsifier
constants of the underlying space.  ``essential_nu`` sweeps exclusion balls
around the designated center to probe essential behavior, and
``witness_cascade`` drills nested witness balls down a schedule of scales.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse import csr_matrix, issparse

from .operators import (
    _EPS, OperatorError, Vector, _check_exponent, _cholesky_rate, _gamma,
    _unfold, gram_band, least_eigenvalue, schur_bound,
)
from .serialize import KeyedRows

# nu's p = 2 route is dense iff the restriction has at most _DENSE_MAX
# columns: on a 2-core Xeon, BLAS on one thread, a whole nu call took less
# time dense than banded up to 72 columns at Gram band 2 (1-d tridiagonal
# restrictions, the common case), 80 at band 4, 96 to 128 at bands 16 to 32
# and 192 to 256 at band 64, and dense SVD grows as columns cubed past them
_DENSE_MAX = 72
_STACK_BYTES = 1 << 22   # largest stack of restrictions in one SVD call


@dataclass
class NuReport:
    """Result of a lower-norm computation with the attaining witness."""

    value: float
    witness: Vector
    support_diameter: float
    # exact-svd | banded-gram | kernel | optimizer
    method: str
    tolerance: float
    subset: tuple = ()
    ball_center: int = None

    def to_json(self):
        """Report structure for ``report_dumps``.

        The witness is a ``KeyedRows`` block: the witness's support points
        as keys and its complex block values there as rows, written as the
        dict {point: [[re, im], ...]}.
        """
        sup = self.witness.support()
        return {
            "value": self.value,
            "method": self.method,
            "tolerance": self.tolerance,
            "support_diameter": self.support_diameter,
            "witness": KeyedRows(sup, self.witness.values[sup]),
            "subset_size": len(self.subset),
            "ball_center": self.ball_center,
        }


def _column_set(F):
    """F as sorted ids without repeats; ``OperatorError`` if it is empty or
    not a flat set of integer ids (a boolean mask, fractional ids)."""
    F = F if isinstance(F, np.ndarray) else np.array(list(F))
    if F.size == 0:
        raise OperatorError("lower norm needs a nonempty column set")
    if F.ndim != 1 or F.dtype.kind not in "iu":
        raise OperatorError(f"point ids must be integers, got {F.dtype} {F.shape}")
    return np.unique(F.astype(np.int64))


def _gather(A, sets):
    """The unfolded restrictions of A to many column sets, from one gather.

    ``sets`` holds sorted id arrays without repeats.  One ``A.entries`` call
    takes the entries of all sets; one stable argsort of the keys
    set * n + row, with a mask of each key's first occurrence and its
    cumulative sum, ranks each row within its set, trimming the zero rows.
    Returns (row_ids, rows, cols, entries): the nonzero rows' point ids, set
    after set; each restriction's unfolded shape; and the arrays
    (owner, r, c, v), the unfolded triplets within the restriction of set
    ``owner``, float64 when A is real, complex128 otherwise.
    """
    k, n = A.block_dim, A.space.n
    lens = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    pos, rows, j = A.entries(np.concatenate(sets))
    owner = np.repeat(np.arange(len(sets)), lens)[j]
    keys = owner * n + rows
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    first = np.ones(len(keys), dtype=bool)      # a key's first occurrence
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    row_ids = ranked[first]
    rank = np.empty_like(keys)
    rank[order] = first.cumsum()                # 1 + rank among all keys
    counts = np.bincount(row_ids // n, minlength=len(sets))
    blocks = A.blocks[pos].real if A.is_real else A.blocks[pos]
    r, c, v = _unfold(rank - (np.cumsum(counts) - counts + 1)[owner],
                      j - (np.cumsum(lens) - lens)[owner], blocks)
    return (row_ids % n, counts * k, lens * k,
            (np.repeat(owner, k * k), r, c, v))


def _dense_stacks(rows, cols, jobs, entries):
    """The dense restrictions of ``jobs`` from ``_gather``'s output, one
    zeroed (jobs, rows, cols) stack per shape: a list of (job ids, stack).

    Every entry must belong to a listed job.  The stacks are views of one
    buffer, and every entry is scattered straight into its slot; within a
    stack the jobs keep their order in ``jobs``.
    """
    if len(jobs) == 0:
        return []
    owner, r, c, v = entries
    jobs = jobs[np.lexsort((cols[jobs], rows[jobs]))]
    R, C = rows[jobs], cols[jobs]
    sizes = R * C
    offset = np.cumsum(sizes) - sizes
    at = np.empty(len(rows), dtype=np.int64)
    at[jobs] = offset
    buf = np.zeros(offset[-1] + sizes[-1], dtype=v.dtype)
    buf[at[owner] + r * cols[owner] + c] = v
    cuts = (np.flatnonzero((R[1:] != R[:-1]) | (C[1:] != C[:-1])) + 1).tolist()
    bounds = [0, *cuts, len(jobs)]
    return [(jobs[lo:hi], buf[offset[lo]:offset[lo] + (hi - lo) * sizes[lo]]
             .reshape(hi - lo, R[lo], C[lo]))
            for lo, hi in zip(bounds, bounds[1:])]


def _restricted(A, F):
    """Column restriction of A to the set F with zero rows trimmed.

    The one-set case of ``_gather``.  Returns (F, row_ids, sub): F sorted
    without repeats, row_ids the points whose row holds an entry in a column
    of F, and the unfolded restricted matrix.  ``A.entries`` raises
    ``OperatorError`` for an id outside the space, as ``_column_set`` does
    for an empty F.  ``sub`` is a dense array when it has at most
    ``_DENSE_MAX`` (unfolded) columns, CSR otherwise; that rule picks the
    p = 2 route (``_sigma_min``) for ``nu`` and the ``nu_s`` screen alike.
    Dropping all-zero rows leaves the singular values unchanged.  The matrix
    is float64 when A is real, complex128 otherwise.
    """
    F = _column_set(F)
    row_ids, rows, cols, (_, r, c, v) = _gather(A, [F])
    if cols[0] > _DENSE_MAX:
        return F, row_ids, csr_matrix((v, (r, c)), shape=(rows[0], cols[0]))
    sub = np.zeros((rows[0], cols[0]), v.dtype)
    sub[r, c] = v
    return F, row_ids, sub


def _witness_vector(A, F, coeffs, p):
    vals = np.zeros((A.space.n, A.block_dim), dtype=np.complex128)
    vals[F] = coeffs.reshape(len(F), A.block_dim)
    return Vector(A.space, vals, p=p, block_dim=A.block_dim)


def _sigma_min(sub):
    """(value, right singular vector, method, tolerance) of sigma_min.

    Dense ``sub``: the least value sigma of LAPACK's values-only SVD, and
    w = ``_witness_at(gram_band(sub), sigma^2)``, whose quotient
    |sub w| / |w| is computed; the tolerance is
    max(1e-10, |quotient - value|).  CSR ``sub``:
    ``_sigma_min_banded``.  ``sub`` has at least as many rows as columns.
    """
    if issparse(sub):
        return _sigma_min_banded(sub)
    ab = gram_band(sub)
    sigma = float(np.linalg.svd(sub, compute_uv=False).min())
    w = _witness_at(ab, sigma * sigma)
    gap = abs(np.linalg.norm(sub @ w) / np.linalg.norm(w) - sigma)
    return sigma, w, "exact-svd", max(1e-10, gap)


def _sigma_min_banded(sub):
    """sigma_min of a CSR restriction as a checked interval, method
    ``banded-gram``.

    ``operators.least_eigenvalue`` steers the shift on the band storage of
    G = sub* sub (``gram_band``) until the lower bound that its last factor
    certifies, sqrt(max(0, mu - slack - e)) with e ``_formed``'s bound on
    the rounding of G, lies within half the 1e-10 floor of sqrt(U), U its
    witness's Rayleigh quotient, or its bracket is d wide.  One more solve
    polishes the witness w; no solve raises the quotient, so the value
    q = |sub w| / |w|, an attained bound, is at most sqrt(U) in exact
    arithmetic.  sigma_min lies in [value - tolerance, value], tolerance
    max(1e-10, q - lower bound).
    """
    ab = gram_band(sub)
    size = np.abs(sub.data)
    rows = np.repeat(np.arange(sub.shape[0]), np.diff(sub.indptr))
    formed = _formed(int(np.bincount(sub.indices).max()),
                     np.bincount(sub.indices, weights=size).max(),
                     np.bincount(rows, weights=size).max())

    def floor(U):
        root = np.sqrt(max(U, 0.0)) - 0.5e-10
        return root * root + formed if root > 0 else -np.inf
    mu, factor, slack, w = least_eigenvalue(ab, floor)
    w = _inverse_solves(factor, w, 1)
    q = float(np.linalg.norm(sub @ w) / np.linalg.norm(w))
    lower = float(np.sqrt(max(0.0, mu - slack - formed)))
    return q, w, "banded-gram", max(1e-10, q - lower)


def _formed(count, col, row):
    """A bound on the rounding e of a Gram matrix G = sub* sub as formed,
    given the most entries ``count`` of one column of sub, |sub|_1 = ``col``
    and |sub|_inf = ``row`` (arrays too): the products of a column pair have
    at most ``count`` terms, so |dG|_2 <= gamma_{count+2} |sub|_1 |sub|_inf.
    """
    return _gamma(count + 2) * col * row


def _witness_at(ab, lam):
    """Unit vector for a known least eigenvalue lam of the Gram matrix in
    lower band storage ab: three solves of inverse iteration from
    ``operators._random_start`` with the first factor that
    ``operators.least_eigenvalue`` finds below lam.  Its floor of -inf stops
    the search after the first solve; ``_inverse_solves`` runs the other
    two.  The witness of ``_sigma_min``'s dense route and of
    ``_kernel_vector``.
    """
    _, factor, _, w = least_eigenvalue(ab, lambda U: -np.inf, lower=lam)
    return _inverse_solves(factor, w, 2)


def _inverse_solves(factor, w, count):
    """Unit vector from ``count`` ``pbtrs`` solves with the banded Cholesky
    factor of G - mu I from w: inverse iteration at mu.  Every entry of
    modulus at most eps max |w_i| is set to 0: such dust is rounding, and
    left in place it would spread the witness's support over the whole
    restriction.  A real factor gives a real vector.
    """
    pbtrs = get_lapack_funcs("pbtrs", (factor,))
    for _ in range(count):
        w = pbtrs(factor, w, lower=1)[0]
        w /= np.linalg.norm(w)
    size = np.abs(w)
    w[size <= _EPS * size.max()] = 0.0
    return w


def _kernel_vector(sub):
    """Unit vector in the kernel of a restriction with fewer rows than columns.

    The first zero column if there is one, else
    ``_witness_at(gram_band(sub), 0)``, for a dense or CSR ``sub`` alike.
    """
    zero = np.flatnonzero(np.asarray(abs(sub).sum(axis=0)).ravel() == 0)
    if len(zero):
        vec = np.zeros(sub.shape[1], dtype=np.complex128)
        vec[zero[0]] = 1.0
        return vec
    return _witness_at(gram_band(sub), 0.0)


def _site_norms(flat, k):
    return np.sqrt((np.abs(flat.reshape(-1, k)) ** 2).sum(axis=1))


def _pnorm(flat, k, p):
    s = _site_norms(flat, k)
    return float((s ** p).sum() ** (1.0 / p))


def _nu_descent(A, F, sub, p, restarts=16, max_iter=80):
    """Multi-start reweighted descent for the p lower norm of A|_F.

    Each step freezes the site weights s^(p-2) of the current iterate and
    minimizes the resulting weighted 2-norm quotient exactly (a smallest
    singular vector problem); the weights are then refreshed.  At p = 2 the
    weights are constant and the first step is already exact.  Steps that
    fail to decrease the true quotient are damped toward the previous
    iterate, after each step's vector is phase-aligned to it, and the best
    visited value wins.  The search runs over complex vectors even for a real
    restriction.
    """
    k = A.block_dim
    m = sub.shape[1]
    dense = np.asarray(sub.toarray() if issparse(sub) else sub,
                       dtype=np.complex128)
    eps = 1e-10   # site-norm smoothing floor; keeps the weights finite

    def sites(flat):
        s2 = (np.abs(flat.reshape(-1, k)) ** 2).sum(axis=1)
        return np.sqrt(s2 + eps * eps)

    def value(v):
        den = _pnorm(v, k, p)
        if den == 0:
            return np.inf
        return _pnorm(dense @ v, k, p) / den

    def step(v):
        sw = sites(dense @ v)
        sv = sites(v)
        da = np.repeat(sw ** ((p - 2.0) / 2.0), k)
        db = np.repeat(sv ** ((2.0 - p) / 2.0), k)
        B = dense * da[:, None] * db[None, :]
        _, s, vh = np.linalg.svd(B, full_matrices=False)
        v_new = db * vh[-1].conj()
        nrm = np.linalg.norm(v_new)
        return v_new / nrm if nrm > 0 else v

    starts = []
    warm = _sigma_min(sub)[1]
    if np.linalg.norm(warm) > 0:
        starts.append(warm / np.linalg.norm(warm))
    j = 0
    while len(starts) < restarts:
        rng = np.random.default_rng(9000 + j)
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        starts.append(z / np.linalg.norm(z))
        j += 1

    best_val, best_v = np.inf, None
    for v in starts:
        cur = value(v)
        if cur < best_val:
            best_val, best_v = cur, v
        stall = 0
        for _ in range(max_iter):
            cand = step(v)
            dot = np.vdot(cand, v)
            if dot != 0:
                # phase-align to v, so the damped v + cand is never 0
                cand = cand * (dot / abs(dot))
            cval = value(cand)
            if cval >= cur - 1e-14:
                damped = v + cand
                damped /= np.linalg.norm(damped)
                dval = value(damped)
                if dval < cur - 1e-14:
                    cand, cval = damped, dval
                else:
                    stall += 1
                    if stall >= 2:
                        break
            else:
                stall = 0
            if cval < cur:
                v, cur = cand, cval
            if cur < best_val:
                best_val, best_v = cur, v
    return float(best_val), best_v


def nu(A, F, p=2.0):
    """Lower norm of the column restriction A|_F.

    A restriction with fewer (unfolded, nonzero) rows than columns has a
    kernel: its value is 0 exactly, method ``kernel``, and the tolerance is at
    least the computed quotient |Aw|_p / |w|_p of the kernel witness w.
    Otherwise, for p = 2 the smallest singular value of the restricted
    matrix, by the route that ``_restricted``'s column rule picks.  At most
    ``_DENSE_MAX`` columns go dense (``exact-svd``): the value is LAPACK's
    values-only SVD, exact up to rounding, with an inverse-iteration
    witness, and the tolerance covers the witness's computed quotient.
    Wider restrictions go banded (``banded-gram``): a search on the shift
    of the Gram matrix, steered by its own inverse iteration, brackets
    sigma_min within the 1e-10 floor, or sigma_min^2 within about
    4 (b + 1) eps |G|_inf (Gram band b); the value is the witness quotient,
    an attained upper bound, and value - tolerance is the lower bound that
    the last completed banded Cholesky factor certifies, so sigma_min lies
    in [value - tolerance, value].  Every tolerance is at least 1e-10.  Every
    p = 2 route runs in real arithmetic when A is real.  For other exponents
    a 16-start deterministic descent over the quotient |Av|_p / |v|_p over
    complex vectors, warm started from the p = 2 witness.  The unit witness
    is scaled so that its first entry of largest modulus is real and
    positive.
    F is read as a set; ``OperatorError`` if it is empty or holds an id
    outside the space, or if p lies outside [1, inf).
    """
    _check_exponent(p)
    Fs, row_ids, sub = _restricted(A, F)
    k = A.block_dim
    if sub.shape[0] < sub.shape[1]:
        coeffs = _kernel_vector(sub)
        val, method = 0.0, "kernel"
        tol = max(1e-10, _pnorm(sub @ coeffs, k, p) / _pnorm(coeffs, k, p))
    elif p == 2.0:
        val, coeffs, method, tol = _sigma_min(sub)
    else:
        val, coeffs = _nu_descent(A, Fs, sub, p)
        method, tol = "optimizer", 1e-6
    i = np.argmax(np.abs(coeffs))
    if coeffs[i] != 0:
        coeffs = coeffs * (abs(coeffs[i]) / coeffs[i])
        coeffs[i] = abs(coeffs[i])    # drop the rounding left in its phase
    wit = _witness_vector(A, Fs, coeffs, p)
    nrm = wit.norm()
    if nrm > 0:
        wit = Vector(A.space, wit.values / nrm, p=p, block_dim=k)
    return NuReport(value=val, witness=wit,
                    support_diameter=float(A.space.diameter(wit.support())),
                    method=method, tolerance=tol, subset=tuple(Fs.tolist()))


def nu_s(A, F, s, p=2.0, threads=1):
    """Localized lower norm: min of nu over restrictions F & B(x; s), x in F.

    Identical restriction sets are computed once, and ``_screen`` builds
    them all from one gather.  A restriction with fewer rows than columns
    has value 0 without an SVD.  Restrictions that ``nu`` solves by
    ``exact-svd`` (p = 2, dense under ``_restricted``'s column rule) take
    their values from values-only SVDs of same-shape stacks: the matrices
    and the LAPACK call are ``nu``'s, so the values are bitwise those of
    ``nu``.  Every other restriction goes through ``nu`` first.  The dense
    ones are screened in three steps.  Sample: every k-th of the N dense
    balls in job order, k = floor(sqrt(N)), takes its SVD; U is then the
    least value known, kernel zeros and ``nu`` values included.  Certify:
    ``_pruned`` proves with banded Cholesky factors (``pbtrf``) that
    most other balls have an SVD value above U; they cannot be the minimum
    and take no SVD.  Survivors: the rest take their SVDs.  The stride only
    changes the speed.  The first strict minimum in ascending center order
    wins, and its report comes from one ``nu`` call on the winning ball (or
    the call already made).  An infinite scale makes every ball F itself.
    ``threads`` is ignored: it stays only because the benchmark's query
    list passes it, and the next benchmark re-baseline deletes it.
    """
    if not s >= 0:
        raise OperatorError(f"support scale must be nonnegative, got {s}")
    F = A._ids(_column_set(F))
    in_F = np.zeros(A.space.n, dtype=bool)
    in_F[F] = True
    jobs = []
    seen = set()
    for x in F.tolist():
        ball = A.space.ball(x, s)
        ball = ball[in_F[ball]]           # sorted, and holds x
        key = ball.tobytes()
        if key in seen:
            continue
        seen.add(key)
        jobs.append((x, ball))

    balls = [ball for _, ball in jobs]
    value, stacked, direct, gathered = _screen(A, balls, p)
    reports = {j: nu(A, jobs[j][1], p=p) for j in direct}
    for j, rep in reports.items():
        value[j] = rep.value

    def svd(picked):
        for idx, stack in _stacks(_stacked(gathered, picked)):
            value[idx] = np.linalg.svd(stack, compute_uv=False).min(axis=1)

    sample = np.zeros(len(stacked), dtype=bool)
    sample[::max(1, math.isqrt(len(stacked)))] = True
    svd(stacked[sample])
    rest = stacked[~sample]
    svd(rest[~_pruned(gathered, rest, value.min())])

    j = int(np.argmin(value))
    rep = reports[j] if j in reports else nu(A, jobs[j][1], p=p)
    rep.ball_center = int(jobs[j][0])
    return rep


def _screen(A, balls, p):
    """(value, stacked, direct, gathered) of the balls, from one
    ``_gather``: value 0 for a kernel ball (fewer rows than columns), inf
    otherwise; the ids of the balls that ``nu`` solves by ``exact-svd``;
    the rest, which go through ``nu``; and (rows, cols, entries) of the
    gather, which ``_stacked`` and ``_pruned`` read."""
    _, rows, cols, entries = _gather(A, balls)
    kernel = rows < cols
    stacked = ~kernel & (cols <= _DENSE_MAX) & (p == 2.0)
    return (np.where(kernel, 0.0, np.inf), np.flatnonzero(stacked),
            np.flatnonzero(~kernel & ~stacked).tolist(), (rows, cols, entries))


def _entries_of(gathered, jobs):
    """The gathered triplets (owner, r, c, v) of the listed jobs only."""
    rows, _, entries = gathered
    mask = np.zeros(len(rows), dtype=bool)
    mask[jobs] = True
    keep = mask[entries[0]]
    return tuple(a[keep] for a in entries)


def _stacked(gathered, jobs):
    """The ``_dense_stacks`` of the listed jobs of a ``_screen``."""
    rows, cols, _ = gathered
    return _dense_stacks(rows, cols, jobs, _entries_of(gathered, jobs))


def _stacks(stacks):
    """(job ids, matrices) per chunk of each (job ids, stack) pair: slices,
    not copies, each of at most ``_STACK_BYTES`` of matrices (one matrix
    where a single one is larger)."""
    for idx, stack in stacks:
        size = max(1, _STACK_BYTES // stack[0].nbytes)
        for lo in range(0, len(idx), size):
            yield idx[lo:lo + size], stack[lo:lo + size]


def _pruned(gathered, jobs, least):
    """Mask of the listed dense jobs whose values-only SVD value provably
    exceeds ``least``, from banded Cholesky factors of their Gram matrices.

    Ball j's restriction B has R rows and C columns.  Its Gram matrix
    G = B* B is formed from the gathered triplets by one sparse product over
    all listed balls, with rounding e_j at most ``_formed``'s bound, and put
    in one lower band storage strip, ball after ball.  E_j = 16 R C eps |B|_F
    bounds the absolute error of LAPACK's SVD value.  The Householder
    bidiagonalization is backward stable, |dB|_F <= c R C u |B|_F with
    u = eps / 2 and c a small constant (Higham, Lemma 19.3 and Thm 19.4,
    applied from both sides; c = 32 here), each singular value moves by at
    most |dB|_2 (Weyl), and the values of the bidiagonal are found to high
    relative accuracy.  The shift tau_j is set so that tau_j - slack_j - e_j
    >= (least + 2 E_j)^2, slack_j the ``operators._cholesky_rate`` slack of
    the factor of G - tau_j I that ``_factors`` computes in the strip.  Where
    it completes, sigma_min(B) > least + 2 E_j, so the computed SVD value
    exceeds least + E_j > least.
    """
    rows, cols, _ = gathered
    count = len(jobs)
    if count == 0:
        return np.zeros(0, dtype=bool)
    owner, r, c, v = _entries_of(gathered, jobs)
    at = np.empty(len(rows), dtype=np.int64)
    at[jobs] = np.arange(count)
    owner = at[owner]
    R, C = rows[jobs], cols[jobs]
    first_row, first_col = np.cumsum(R) - R, np.cumsum(C) - C
    r += first_row[owner]
    c += first_col[owner]
    size = np.abs(v)

    def most(idx, first, total, weights=None):     # per ball
        return np.maximum.reduceat(
            np.bincount(idx, weights, minlength=total), first)
    formed = _formed(most(c, first_col, C.sum()),
                     most(c, first_col, C.sum(), size),
                     most(r, first_row, R.sum(), size))
    error = 16.0 * R * C * _EPS * np.sqrt(
        np.bincount(owner, size * size, minlength=count))
    B = csr_matrix((v, (r, c)), shape=(R.sum(), C.sum()))
    G = (B.conj().T @ B).tocoo()        # block diagonal, ball after ball
    low = G.row >= G.col
    off = (G.row - G.col)[low]
    band = int(off.max(initial=0))
    ab = np.zeros((band + 1, C.sum()), dtype=v.dtype, order="F")
    ab[off, G.col[low]] = G.data[low]
    with np.errstate(over="ignore", invalid="ignore"):
        want = (least + 2.0 * error) ** 2
        rate = _cholesky_rate(band)
        # top |g_ii - tau| <= max g_ii + tau, as G >= 0 and tau >= 0
        diag = np.maximum.reduceat(ab[0].real, first_col)
        tau = (want + formed + rate * diag) / (1.0 - rate)
        ab[0] -= np.repeat(tau, C)
        top = np.maximum.reduceat(np.abs(ab[0]), first_col)
        proved = tau - rate * top - formed >= want
    # pbtrf factors NaN on: a zero pivot stops it at an unproved ball's start
    ab[0, first_col[~proved]] = 0.0
    return _factors(ab, C) & proved


def _factors(ab, sizes):
    """Mask of the Hermitian matrices of ``sizes`` columns laid side by side
    in ``ab`` (lower band storage, Fortran order, no entry coupling two of
    them) whose Cholesky factorization completes.  ``pbtrf`` factors ``ab``
    in place from column 0; after a pivot that is not positive it marks that
    matrix and starts again, in place, at the next one.  A NaN pivot does
    not stop ``pbtrf``.
    """
    pbtrf = get_lapack_funcs("pbtrf", (ab,))
    ends = np.cumsum(sizes)
    done = np.ones(len(ends), dtype=bool)
    start = 0
    while (info := pbtrf(ab[:, start:], lower=1, overwrite_ab=True)[1]) > 0:
        j = np.searchsorted(ends, start + info - 1, side="right")
        done[j] = False
        start = ends[j]
    if info < 0:
        raise ValueError(f"pbtrf: illegal argument {-info}")
    return done


@dataclass
class LocalizationReport:
    s: int
    verified: bool
    worst_gap: float
    c_prime: float
    separation: int
    family_size: int
    delta: float


def localization_check(A, delta, sparsifier, family, p=2.0, norm_bound=None):
    """Support bound for delta-accurate localized lower norms, then verify.

    The bound s comes from the sparsifier constants: the capture fraction c'
    is raised until the splitting error M ((1-c')/c')^(1/p) plus the rescaling
    error M (c'^(-1/p) - 1) drops below delta, and s is the part diameter the
    sparsifier needs at separation 2 prop(A) + 1 for that fraction.  The
    verification sweep checks nu_s <= nu + delta on every F in the family.
    ``OperatorError`` unless delta > 0 and p lies in [1, inf), and for an
    empty family, which would verify nothing.
    """
    if not delta > 0:
        raise OperatorError("delta must be positive")
    _check_exponent(p)
    family = list(family)
    if not family:
        raise OperatorError("localization family is empty")
    M = schur_bound(A, p) if norm_bound is None else float(norm_bound)
    r = A.propagation
    m = 2 * r + 1

    def err(c):
        return M * ((1.0 - c) / c) ** (1.0 / p) + M * (c ** (-1.0 / p) - 1.0)

    lo, hi = 0.5, 1.0 - 1e-15
    if err(hi) > delta:
        raise OperatorError("delta unreachable for this norm bound")
    while err(lo) <= delta and lo > 1e-12:
        lo /= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if err(mid) <= delta:
            hi = mid
        else:
            lo = mid
    c_prime = hi
    s = sparsifier.diameter_for(m, c_prime)

    worst = 0.0
    count = 0
    for F in family:
        base = nu(A, F, p=p).value
        local = nu_s(A, F, s, p=p).value
        worst = max(worst, local - base)
        count += 1
    return LocalizationReport(s=int(s), verified=bool(worst <= delta + 1e-12),
                              worst_gap=float(worst), c_prime=float(c_prime),
                              separation=int(m), family_size=count,
                              delta=float(delta))


def essential_nu(A, exclusion_radii, p=2.0, threads=1):
    """Lower norms off growing balls around the designated center.

    Columns are restricted to interior-margin points outside each exclusion
    ball; rows are never restricted.  A profile tending to zero flags
    essential spectrum at zero.  A flat positive one bounds A from below
    only: the profile reads A alone, and Fredholmness also needs A* bounded
    below.  ``threads`` is ignored: it stays only because the benchmark's
    query list passes it, and the next benchmark re-baseline deletes it.
    """
    space = A.space
    inter = space.interior(A.propagation)
    outside = space.row(space.center)[inter]

    def work(r):
        F = inter[outside > r]
        if len(F) == 0:
            raise OperatorError(f"exclusion radius {r} exhausts the space")
        return nu(A, F, p=p)

    radii = [float(r) for r in exclusion_radii]
    return [(r, work(r)) for r in radii]


def witness_cascade(A, delta_schedule, s_schedule, p=2.0):
    """Nested witness balls down a schedule of shrinking support scales.

    Scales must be strictly increasing with s[k+1] > 2 s[k]; stages run from
    the largest scale down, the first on ``space.interior(A.propagation)``,
    each later one restricted to the ball found by the previous one.
    Returns (center, radius, value) triples in stage order.
    ``delta_schedule`` is only checked for its length (None gives 2^-k);
    it does not steer the stages.  ``OperatorError`` for a non-finite scale.
    """
    if not np.isfinite(s_schedule).all():
        raise OperatorError("support scales must be finite")
    s_schedule = [int(s) for s in s_schedule]
    if any(b <= a for a, b in zip(s_schedule, s_schedule[1:])):
        raise OperatorError("support schedule must be strictly increasing")
    if any(b <= 2 * a for a, b in zip(s_schedule, s_schedule[1:])):
        raise OperatorError("support schedule must more than double each step")
    if delta_schedule is None:
        delta_schedule = [2.0 ** (-k) for k in range(1, len(s_schedule) + 1)]
    if len(delta_schedule) != len(s_schedule):
        raise OperatorError("schedules have different lengths")

    space = A.space
    F_cur = space.interior(A.propagation).tolist()
    out = []
    for s in reversed(s_schedule):
        rep = nu_s(A, F_cur, s, p=p)
        out.append((int(rep.ball_center), int(s), float(rep.value)))
        ball = set(int(y) for y in space.ball(rep.ball_center, s))
        F_cur = [x for x in F_cur if x in ball]
    return out
