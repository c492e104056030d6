"""Lower norms of band operators and their support-localized variants.

The lower norm of a column restriction ``A|_F`` is the infimum of
``|A v|_p / |v|_p`` over nonzero vectors supported in F (the restriction acts
from functions on F to functions on the whole space).  For p = 2 this is the
smallest singular value of the restricted matrix; for other exponents a
deterministic multi-start descent is used and tagged as such, with a brute
force grid oracle available in small dimension.  A restriction with fewer
nonzero rows than columns has a kernel, and its lower norm is 0 exactly.
Every routine extracts restrictions through ``_restricted``, a gather over
the operator's cached column index.

The restriction of a real operator (``BandOperator.is_real``) is real, so
every p = 2 route runs in real arithmetic: its singular values are those over
the complex numbers, and a real singular vector is a complex witness.  The
descent for p != 2 still searches complex vectors: away from p = 2 the
infimum over real vectors need not be the one over complex vectors.  ``nu``
scales every witness so that its first entry of largest modulus is real and
positive, whichever route found it.

``nu_s`` restricts witnesses to ball neighborhoods inside F.  The balls that
``nu`` would solve by dense SVD are screened with one values-only SVD per
stack of equal-shape restrictions.  The slack e = 8 max(rows, cols) eps
|sub|_F bounds the gap between LAPACK's values-only and vector-computing
SVDs, so only a ball whose screen value minus e is at most the least screen
value plus e can attain the minimum; those balls alone are run again through
the SVD ``nu`` uses.  The witness and report are built once, by ``nu`` on the
winning ball.  ``threads`` sizes the pool that runs the SVD stacks and the
balls that go through ``nu`` one by one.

``localization_check`` computes the support bound under which the localized
value provably sits within delta of the global one, given the sparsifier
constants of the underlying space.  ``essential_nu`` sweeps exclusion balls
around the designated center to probe essential behavior, and
``witness_cascade`` drills nested witness balls down a schedule of scales.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.linalg import eigsh

from .operators import OperatorError, Vector, _unfold, schur_bound
from .space import _grid

_DENSE_COLS = 400        # nu solves by dense SVD up to this many columns
_SLACK = 8.0             # c in the screen slack c max(rows, cols) eps |sub|_F
_STACK_BYTES = 1 << 22   # largest stack of restrictions in one SVD call


@dataclass
class NuReport:
    """Result of a lower-norm computation with the attaining witness."""

    value: float
    witness: Vector
    support_diameter: float
    # exact-svd | iterative-svd | iterative-svd-shifted | kernel | optimizer
    method: str
    tolerance: float
    subset: tuple = ()
    ball_center: int = None

    def to_json(self):
        sup = self.witness.support()
        return {
            "value": self.value,
            "method": self.method,
            "tolerance": self.tolerance,
            "support_diameter": self.support_diameter,
            "witness": dict(zip(sup.tolist(), self.witness.values[sup])),
            "subset_size": len(self.subset),
            "ball_center": self.ball_center,
        }


def _restricted(A, F):
    """Column restriction of A to F with zero rows trimmed.

    Returns (F, row_ids, sub): F sorted, row_ids the points whose row holds an
    entry in a column of F, and the unfolded restricted matrix, dense up to
    ``_DENSE_COLS`` columns and CSR beyond.  The entries are gathered through
    ``A.col_index()``.  Dropping all-zero rows leaves the singular values
    unchanged.  The matrix is float64 when A is real, complex128 otherwise.
    """
    F = np.asarray(sorted(int(x) for x in F), dtype=np.int64)
    k = A.block_dim
    order, ptr = A.col_index()
    counts = ptr[F + 1] - ptr[F]
    ends = np.cumsum(counts)
    pos = order[np.arange(int(counts.sum()))
                + np.repeat(ptr[F] - ends + counts, counts)]
    rows = A.rows[pos]
    row_ids = np.unique(rows)
    blocks = A.blocks[pos].real if A.is_real else A.blocks[pos]
    r, c, v = _unfold(np.searchsorted(row_ids, rows),
                      np.repeat(np.arange(len(F)), counts), blocks)
    shape = (len(row_ids) * k, len(F) * k)
    if shape[1] > _DENSE_COLS:
        return F, row_ids, csr_matrix((v, (r, c)), shape=shape)
    sub = np.zeros(shape, dtype=v.dtype)
    sub[r, c] = v
    return F, row_ids, sub


def _witness_vector(A, F, coeffs, p):
    vals = np.zeros((A.space.n, A.block_dim), dtype=np.complex128)
    vals[F] = coeffs.reshape(len(F), A.block_dim)
    return Vector(A.space, vals, p=p, block_dim=A.block_dim)


def _sigma_min(sub):
    """(value, right singular vector, method) of the smallest singular value.

    Dense LAPACK SVD up to ``_DENSE_COLS`` columns, shift-invert Lanczos on
    the Gram matrix beyond.  ``sub`` has at least as many rows as columns.
    """
    if sub.shape[1] > _DENSE_COLS:
        return _sigma_min_iterative(sub)
    _, s, vh = np.linalg.svd(sub, full_matrices=False)
    i = int(np.argmin(s))
    return float(s[i]), vh[i].conj(), "exact-svd"


def _sigma_min_iterative(sub):
    G = (sub.conj().T @ sub).tocsc()
    m = G.shape[0]
    v0 = np.ones(m) / np.sqrt(m)
    try:
        vals, vecs = eigsh(G, k=1, sigma=0, which="LM", v0=v0, tol=0)
        method = "iterative-svd"
    except RuntimeError:
        # an exactly singular G has no factor at sigma = 0 and ARPACK may not
        # converge (both raise RuntimeError subclasses).  G - sigma I is
        # positive definite for sigma < 0, and the eigenvalue nearest such a
        # sigma is still the smallest one.  (A smallest-algebraic Lanczos run
        # returned 1 for a Gram matrix with a zero column.)
        shift = -1e-8 * float(abs(G).sum(axis=1).max())
        vals, vecs = eigsh(G, k=1, sigma=shift, which="LM", v0=v0, tol=0)
        method = "iterative-svd-shifted"
    lam = max(float(vals[0]), 0.0)
    return float(np.sqrt(lam)), vecs[:, 0], method


def _kernel_vector(sub):
    """Unit vector in the kernel of a restriction with fewer rows than columns.

    The first zero column if there is one, else the last right singular
    vector of a full dense SVD.
    """
    zero = np.flatnonzero(np.asarray(abs(sub).sum(axis=0)).ravel() == 0)
    if len(zero):
        vec = np.zeros(sub.shape[1], dtype=np.complex128)
        vec[zero[0]] = 1.0
        return vec
    dense = sub.toarray() if issparse(sub) else sub
    return np.linalg.svd(dense)[2][-1].conj()


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
    iterate, and the best visited value wins.  The search runs over complex
    vectors even for a real restriction.
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
    _, warm, _ = _sigma_min(sub)
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
    Otherwise, for p = 2 the smallest singular value of the restricted matrix:
    dense up to 400 columns, shift-invert Lanczos on the Gram matrix beyond,
    and method ``iterative-svd-shifted`` where shift-invert at 0 failed and a
    small negative shift was used; both run in real arithmetic when A is
    real.  For other exponents a 16-start deterministic descent over the
    quotient |Av|_p / |v|_p over complex vectors, warm started from the
    p = 2 witness.  The unit witness is scaled so that its first entry of
    largest modulus is real and positive.
    """
    if len(F) == 0:
        raise OperatorError("lower norm needs a nonempty column set")
    Fs, row_ids, sub = _restricted(A, F)
    k = A.block_dim
    if sub.shape[0] < sub.shape[1]:
        coeffs = _kernel_vector(sub)
        val, method = 0.0, "kernel"
        tol = max(1e-10, _pnorm(sub @ coeffs, k, p) / _pnorm(coeffs, k, p))
    elif p == 2.0:
        val, coeffs, method = _sigma_min(sub)
        tol = 1e-10
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
                    method=method, tolerance=tol, subset=tuple(int(x) for x in Fs))


def nu_brute(A, F, p, samples=10 ** 6):
    """Grid oracle for the p lower norm, real coefficients, dimension <= 5.

    Scans a uniform cube grid (about ``samples`` points) of real coefficient
    vectors on F; returns the smallest quotient found.  An upper bound on the
    true lower norm by construction.
    """
    Fs, row_ids, sub = _restricted(A, F)
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


def nu_s(A, F, s, p=2.0, threads=1):
    """Localized lower norm: min of nu over restrictions F & B(x; s), x in F.

    Identical restriction sets are computed once.  A restriction with fewer
    rows than columns has value 0 without an SVD.  Restrictions that ``nu``
    solves by ``exact-svd`` (p = 2, at most 400 columns) are screened by
    values-only SVDs, one stacked call per chunk of equal shapes; screen and
    exact values differ by at most the slack e = 8 max(rows, cols) eps
    |sub|_F.  Those that may attain the minimum within that slack are run
    again through the stacked SVD ``nu`` itself uses, so their values are
    bitwise those of ``nu``; every other restriction goes through ``nu``.  The
    first strict minimum in ascending center order wins, and its report comes
    from one ``nu`` call on the winning ball (or the call already made).
    ``threads`` sizes the pool that runs the SVD chunks and the ``nu`` calls;
    the result is independent of it.
    """
    if s < 0:
        raise OperatorError("support scale must be nonnegative")
    F = sorted(int(x) for x in F)
    if not F:
        raise OperatorError("lower norm needs a nonempty column set")
    Fset = set(F)
    jobs = []
    seen = set()
    for x in F:
        sub = frozenset(int(y) for y in A.space.ball(x, s) if y in Fset)
        if not sub or sub in seen:
            continue
        seen.add(sub)
        jobs.append((x, tuple(sorted(sub))))

    value = np.full(len(jobs), np.inf)    # exact values where computed
    screened = {}                          # shape -> [(job, restriction)]
    direct = []
    for j, (_, ball) in enumerate(jobs):
        sub = _restricted(A, ball)[2]
        if sub.shape[0] < sub.shape[1]:
            value[j] = 0.0
        elif p == 2.0 and sub.shape[1] <= _DENSE_COLS:
            screened.setdefault(sub.shape, []).append((j, sub))
        else:
            direct.append(j)

    def screen(chunk):
        idx, stack = chunk
        sv = np.linalg.svd(stack, compute_uv=False).min(axis=1)
        slack = (_SLACK * max(stack.shape[1:]) * np.finfo(float).eps
                 * np.linalg.norm(stack, axis=(1, 2)))
        return idx, sv, slack

    def exact(chunk):
        idx, stack = chunk
        return idx, np.linalg.svd(stack, full_matrices=False)[1].min(axis=1)

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        run = pool.map if threads > 1 else map
        reports = dict(zip(direct, run(lambda j: nu(A, jobs[j][1], p=p), direct)))
        for j, rep in reports.items():
            value[j] = rep.value
        low, bound = {}, value.min()
        for idx, sv, slack in run(screen, _stacks(screened, threads)):
            low.update(zip(idx, sv - slack))
            bound = min(bound, float((sv + slack).min()))
        near = {shape: [(j, sub) for j, sub in group if low[j] <= bound]
                for shape, group in screened.items()}
        for idx, sv in run(exact, _stacks(near, threads)):
            value[idx] = sv

    j = int(np.argmin(value))
    rep = reports[j] if j in reports else nu(A, jobs[j][1], p=p)
    rep.ball_center = int(jobs[j][0])
    return rep


def _stacks(groups, threads):
    """(job indices, stacked matrices) per chunk of each same-shape group.

    A chunk holds at most ``_STACK_BYTES`` of matrices, and each group is
    split into at least ``threads`` chunks where it has that many members.
    """
    for group in groups.values():
        if not group:
            continue
        size = min(_STACK_BYTES // group[0][1].nbytes,
                   -(-len(group) // max(1, threads)))
        size = max(1, size)
        for lo in range(0, len(group), size):
            part = group[lo:lo + size]
            yield [j for j, _ in part], np.stack([sub for _, sub in part])


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
    """
    if delta <= 0:
        raise OperatorError("delta must be positive")
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
    essential spectrum at zero, a flat positive one is Fredholm-like.
    """
    space = A.space
    inter = [int(x) for x in space.interior(A.propagation)]
    center_row = space.row(space.center)
    out = []

    def work(r):
        F = [x for x in inter if center_row[x] > r]
        if not F:
            raise OperatorError(f"exclusion radius {r} exhausts the space")
        return nu(A, F, p=p)

    radii = [float(r) for r in exclusion_radii]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reps = list(pool.map(work, radii))
    else:
        reps = [work(r) for r in radii]
    for r, rep in zip(radii, reps):
        out.append((r, rep))
    return out


def witness_cascade(A, delta_schedule, s_schedule, p=2.0, F=None):
    """Nested witness balls down a schedule of shrinking support scales.

    Scales must be strictly increasing with s[k+1] > 2 s[k]; stages run from
    the largest scale down, each restricting to the ball found by the
    previous one.  Returns (center, radius, value) triples in stage order.
    """
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
    if F is None:
        F = [int(x) for x in space.interior(A.propagation)]
    F_cur = sorted(int(x) for x in F)
    out = []
    for s in reversed(s_schedule):
        rep = nu_s(A, F_cur, s, p=p)
        out.append((int(rep.ball_center), int(s), float(rep.value)))
        ball = set(int(y) for y in space.ball(rep.ball_center, s))
        F_cur = [x for x in F_cur if x in ball]
    return out
