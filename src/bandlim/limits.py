"""Window extraction of limit operators along directions to infinity.

A Direction is an explicit basepoint sequence walking out of the window, the
computable stand-in for a boundary point at infinity.  ``limit_space`` checks
that the pointed balls around the tail basepoints stabilize to one isometry
class and returns the common template.  All basepoint balls are labeled in
one ``ball_templates`` pass: a ball whose canonical template matrix equals
the stabilized one keeps its id list, which is the least pointed isometry,
and only a ball with another matrix is searched by ``match_ball_exact``.  The
walk back and the divergence classes compare templates through
``pointed_isometric``, which answers equal matrices without a search.

``limit_operator`` pulls the operator entries back through the matched
windows, all of them in one ``A.entries`` gather, certifies that they form a
Cauchy family within the requested tolerance, and averages the stabilized
tail into a LimitWindow.  ``shift_limit`` is the group-structured shortcut
that translates windows to the origin instead of matching them, and must
agree with the matching route.  ``sample_spectrum`` and ``ghost_profile``
provide the sampled operator-spectrum summary and the vanishing-entry
diagnostic.
"""

from dataclasses import dataclass, field
import itertools

import numpy as np

from .space import (
    Space, SpaceError, Template, build_space, ball_templates, match_ball_exact,
    pointed_isometric, _isometries,
)
from .operators import (
    BandOperator, OperatorError, schur_bound, _block_norms,
)
from .lowernorm import nu


class ExtractError(ValueError):
    """Raised when a direction does not admit a stable extraction."""


class CauchyFailure(ExtractError):
    """Window matrices keep moving beyond the tolerance; carries the profile."""

    def __init__(self, message, profile):
        super().__init__(message)
        self.profile = profile      # list of (basepoint, deviation)


@dataclass
class Direction:
    """Basepoint sequence heading to infinity, with a readable label."""

    basepoints: list
    label: str = "dir"

    def validate(self, space):
        if not self.basepoints:
            raise ExtractError("direction has no basepoints")
        row = space.row(space.center)
        dists = [int(row[b]) for b in self.basepoints]
        if any(b < a for a, b in zip(dists, dists[1:])):
            raise ExtractError("direction must march away from the center")
        if len(set(self.basepoints)) != len(self.basepoints):
            raise ExtractError("direction repeats a basepoint")

    def usable(self, space, margin):
        """Basepoints with window margin at least ``margin``, in order."""
        keep = space.margin(self.basepoints) >= margin
        return [b for b, k in zip(self.basepoints, keep) if k]

    @classmethod
    def arithmetic(cls, space, start, step, label=None):
        """1-d lattice rule: coordinates start, start+step, ... while inside."""
        return cls.ray(space, [start], [step], label or f"arith:{start},{step}")

    @classmethod
    def geometric(cls, space, start, ratio, label=None):
        """1-d rule: coordinates floor(start * ratio^n) while inside.

        A walk that cannot leave the window (start 0, or |ratio| <= 1) raises.
        """
        if start == 0 or abs(ratio) <= 1:
            raise ExtractError(f"geometric walk from {start} by {ratio} "
                               f"never leaves the window")
        pts, seen = [], set()
        c = float(start)
        while True:
            pid = space.lattice_id([int(np.floor(c))])
            if pid is None:
                break
            if pid not in seen:
                pts.append(pid)
                seen.add(pid)
            c *= ratio
        return cls(pts, label or f"geo:{start},{ratio}")

    @classmethod
    def ray(cls, space, start, step, label=None):
        """Lattice ray: coordinates start + n * step while inside the window.

        An all-zero step never leaves the window and raises.
        """
        pts = []
        c = np.asarray(start, dtype=np.int64)
        step = np.asarray(step, dtype=np.int64)
        if not step.any():
            raise ExtractError("ray with a zero step never leaves the window")
        while True:
            pid = space.lattice_id(c)
            if pid is None:
                break
            pts.append(pid)
            c = c + step
        return cls(pts, label or f"ray:{tuple(start)},{tuple(step)}")

    @classmethod
    def components(cls, space, residue=0, label=None):
        """Box-space rule: the point with a fixed residue in each component."""
        if space.components is None:
            raise ExtractError(f"space {space.name!r} has no components")
        ci, res, mod = space.components
        pts = []
        for comp in sorted(set(int(c) for c in ci)):
            ids = np.nonzero((ci == comp) & (res == residue % mod[ci == comp][0]))[0]
            if len(ids):
                pts.append(int(ids[0]))
        return cls(pts, label or f"components:{residue}")


@dataclass
class DivergenceReport:
    """Distinct pointed isometry classes seen along a direction."""

    classes: list              # (Template, [basepoint ids]) pairs
    radius: int
    label: str

    @property
    def diverged(self):
        return True

    def summary(self):
        return {
            "diverged": True,
            "radius": int(self.radius),
            "direction": self.label,
            "class_sizes": [len(members) for _, members in self.classes],
        }


@dataclass
class LimitSpaceResult:
    """Stabilized ball template with per-basepoint matchings."""

    template: Template
    basepoints: list           # usable basepoints, in direction order
    stabilized_from: int       # index into basepoints where the class settles
    matchings: dict            # basepoint -> id list aligned with labels

    @property
    def diverged(self):
        return False


def limit_space(space, direction, R, tol_count=5):
    """Stabilized pointed ball template along a direction, radius R.

    The last ``tol_count`` usable basepoints must carry pairwise pointed
    isometric balls; otherwise a DivergenceReport lists the classes seen.
    Basepoints with margin below R violate the precondition and raise.
    """
    direction.validate(space)
    usable = direction.usable(space, R)
    inside = set(usable)
    bad = [b for b in direction.basepoints if b not in inside]
    if not usable:
        raise ExtractError(
            f"no basepoint of {direction.label!r} has margin {R}")
    if bad and len(usable) < tol_count:
        raise ExtractError(
            f"margin violation: basepoints {bad[:5]} sit within {R} of the "
            f"window boundary")

    templates = [(b, t, ids) for b, (t, ids)
                 in zip(usable, ball_templates(space, usable, R))]

    # walk back from the end while consecutive balls stay pointed isometric
    i0 = len(usable) - 1
    while i0 > 0 and pointed_isometric(templates[i0 - 1][1], templates[i0][1]):
        i0 -= 1
    stable_count = len(usable) - i0
    if stable_count < min(tol_count, len(usable)):
        classes = []
        for b, t, _ in templates:
            for ct, members in classes:
                if pointed_isometric(ct, t):
                    members.append(b)
                    break
            else:
                classes.append((t, [b]))
        return DivergenceReport(classes=[(t, m) for t, m in classes],
                                radius=int(R), label=direction.label)

    template = templates[i0][1]
    matchings = {}
    for b, t, ids in templates[i0:]:
        if not np.array_equal(t.dist, template.dist):
            ids = match_ball_exact(space, template, b, R)
            if ids is None:
                raise ExtractError(
                    f"internal matching failure at basepoint {b}")
        matchings[b] = ids
    return LimitSpaceResult(template=template, basepoints=usable,
                            stabilized_from=i0, matchings=matchings)


@dataclass
class LimitWindow:
    """Extracted limit operator on a ball template, with its certificate."""

    template: Template
    matrix: np.ndarray          # (m*k, m*k) complex, unfolded blocks
    radius: int
    cauchy_tail: float
    stabilized_from: int        # index into the usable basepoint list
    tol: float
    direction_label: str
    basepoints_used: list
    block_dim: int = 1
    p: float = 2.0
    deviation_profile: list = field(default_factory=list)
    norm_check: dict = field(default_factory=dict)

    @property
    def size(self):
        return self.template.size

    def entry(self, i, j):
        k = self.block_dim
        return self.matrix[i * k:(i + 1) * k, j * k:(j + 1) * k]

    def _nonzero_blocks(self):
        """(rows, cols, blocks) of the nonzero k-by-k blocks, row-major."""
        m, k = self.size, self.block_dim
        grid = self.matrix.reshape(m, k, m, k)
        i, j = np.nonzero(np.any(grid != 0, axis=(1, 3)))
        return i, j, grid[i, :, j, :]

    def propagation(self):
        i, j, _ = self._nonzero_blocks()
        return int(self.template.dist[i, j].max()) if len(i) else 0

    def as_operator(self):
        """Materialize the window as (explicit Space, BandOperator)."""
        sp = build_space({"kind": "explicit", "name": "window",
                          "matrix": self.template.dist.tolist(), "center": 0})
        i, j, blocks = self._nonzero_blocks()
        return sp, BandOperator(sp, i, j, blocks, block_dim=self.block_dim,
                                p=self.p)

    def to_json(self):
        k = self.block_dim
        i, j, blocks = self._nonzero_blocks()
        # each block flattens to re, im of (0, 0), (0, 1), ... row-major
        flat = np.stack([blocks.real, blocks.imag], axis=-1)
        flat = flat.reshape(len(i), 2 * k * k)
        trip = [[a, b] + vals
                for a, b, vals in zip(i.tolist(), j.tolist(), flat.tolist())]
        return {
            "template": self.template.to_json(),
            "matrix": trip,
            "radius": int(self.radius),
            "cauchy_tail": self.cauchy_tail,
            "stabilized_from": int(self.stabilized_from),
            "tol": self.tol,
            "direction": self.direction_label,
            "basepoints_used": [int(b) for b in self.basepoints_used],
            "block_dim": int(k),
            "p": self.p,
            "norm_check": self.norm_check,
            "propagation": int(self.propagation()),
        }


def _certify_windows(windows, tol, tail):
    """Longest admissible suffix of windows with pairwise deviation <= tol.

    Returns (start index, averaged matrix, deviation over the suffix, profile
    of each window's deviation from the last one).  The pairwise deviations
    are taken once; the deviation of a suffix is the largest row maximum
    within it.  The average is skipped when the suffix is bitwise constant,
    so exactly stabilized extractions come out exact.
    """
    count = len(windows)
    need = min(tail, count)
    stack = np.asarray(windows)
    pair = np.zeros((count, count))
    for i in range(count - 1):
        pair[i, i + 1:] = np.abs(stack[i + 1:] - stack[i]).max(
            axis=(1, 2), initial=0.0)
    # suffix[s] = deviation over windows[s:]
    suffix = np.maximum.accumulate(pair.max(axis=1)[::-1])[::-1]
    ok = np.nonzero(suffix[:count - need + 1] <= tol)[0]
    profile = pair[:, -1].tolist()
    if not len(ok):
        raise CauchyFailure(
            f"window matrices deviate by {suffix[count - need]:.3e} over the "
            f"last {need} basepoints (tolerance {tol:.3e})", profile)
    s = int(ok[0])
    dev = float(suffix[s])
    if dev == 0.0:
        avg = stack[s].copy()
    else:
        avg = np.mean(stack[s:], axis=0)
    return s, avg, dev, profile


def _window_stack(A, ids):
    """Unfolded matrices of A on the rows of ``ids``, a (count, mk, mk) stack.

    One ``A.entries`` gather reads the columns of every window.  Each entry's
    row is ranked within its window by one ``searchsorted`` over the keys
    window * n + id, and entries whose row lies outside the window are
    dropped.
    """
    ids = np.asarray(ids, dtype=np.int64)
    count, m = ids.shape
    k, n = A.block_dim, A.space.n
    pos, i, j = A.entries(ids.reshape(-1))
    win, col = np.divmod(j, m)
    keys = (np.arange(count)[:, None] * n + ids).reshape(-1)
    order = np.argsort(keys)
    want = win * n + i
    at = order[np.minimum(np.searchsorted(keys, want, sorter=order),
                          len(keys) - 1)]
    hit = keys[at] == want
    out = np.zeros((count, m, k, m, k), dtype=np.complex128)
    out[win[hit], at[hit] % m, :, col[hit], :] = A.blocks[pos[hit]]
    return out.reshape(count, m * k, m * k)


def _limit_window(A, template, R, tol, tail, label, basepoints, ids, offset):
    """Certified LimitWindow of A pulled back through ``ids`` at each basepoint.

    ``ids[i]`` lists the points of basepoint ``basepoints[i]`` in template
    label order; ``offset`` is the index of ``basepoints[0]`` in the usable
    basepoint list, so ``stabilized_from`` counts from there.
    """
    s, avg, dev, profile = _certify_windows(_window_stack(A, ids), tol, tail)
    wnorm = float(np.linalg.norm(avg, 2)) if avg.size else 0.0
    return LimitWindow(
        template=template, matrix=avg, radius=int(R), cauchy_tail=float(dev),
        stabilized_from=int(offset + s), tol=float(tol), direction_label=label,
        basepoints_used=[int(b) for b in basepoints[s:]],
        block_dim=A.block_dim, p=A.p,
        deviation_profile=[(int(b), float(d))
                           for b, d in zip(basepoints, profile)],
        norm_check={"window_norm2": wnorm,
                    "operator_bound": float(schur_bound(A, 2.0))},
    )


def default_radius(A):
    return 3 * A.propagation + 2


def limit_operator(A, direction, R=None, tol=1e-9, tail=5):
    """Limit window of A along a direction, radius R.

    The ball geometry must stabilize at radius R + prop(A); the pulled-back
    matrices over the stabilized tail must agree within tol (their spread is
    the certificate ``cauchy_tail``).  Divergent geometry or moving matrices
    raise, reporting what was seen; this mirrors the need to pass to a
    subsequence for operators without entrywise limits along the direction.
    """
    if R is None:
        R = default_radius(A)
    space = A.space
    R_metric = R + A.propagation
    ls = limit_space(space, direction, R_metric, tol_count=tail)
    if ls.diverged:
        raise ExtractError(
            f"ball geometry along {direction.label!r} does not stabilize at "
            f"radius {R_metric}: {ls.summary()['class_sizes']} classes seen")

    # restrict the stabilized template to radius R around the basepoint
    keep = np.nonzero(ls.template.dist[ls.template.base] <= R)[0]
    template = Template(ls.template.dist[np.ix_(keep, keep)], base=0)

    used = ls.basepoints[ls.stabilized_from:]
    ids = np.array([ls.matchings[b] for b in used], dtype=np.int64)[:, keep]
    return _limit_window(A, template, R, tol, tail, direction.label, used, ids,
                         ls.stabilized_from)


def shift_limit(A, direction, R=None, tol=1e-9, tail=5):
    """Limit window via group translations (group-structured spaces only).

    Windows around the basepoints are translated back to the identity using
    the group offsets instead of isometry matching; the result must agree
    with ``limit_operator`` through the canonical matching within 2 tol.

    The template is the distance matrix of the first basepoint's offset
    points.  Within the interior margin it is the model group's: on a
    ``zn-window`` window distances are lattice distances, and on
    ``box-cycles`` a margin of R means 2R <= k/2 on a cycle of length k, so
    no two offsets within R of the identity wrap around.

    The template labels are the group offsets: a rank-1 offset (1-d
    ``zn-window``, ``box-cycles``) is written as its integer, e.g. ``"-1"``,
    and a higher-rank offset as its tuple, e.g. ``"(0, 1)"``, so every space
    whose model group is the integers names its points alike.
    """
    space = A.space
    if not space.group_structured:
        raise ExtractError("space carries no group structure")
    if R is None:
        R = default_radius(A)
    direction.validate(space)
    usable = direction.usable(space, R)
    if not usable:
        raise ExtractError(
            f"no basepoint of {direction.label!r} has margin {R}")
    offsets = space.group_offsets(R)
    # a usable basepoint has margin R, so every offset lands in the window
    ids = space.offset_points(np.asarray(usable)[:, None], offsets)
    labels = [str(o[0]) if isinstance(o, tuple) and len(o) == 1 else str(o)
              for o in offsets]
    template = Template(space.pairwise(ids[0], ids[0]), base=0, labels=labels)
    return _limit_window(A, template, R, tol, tail, direction.label, usable,
                         ids, 0)


def window_deviation(w1: LimitWindow, w2: LimitWindow):
    """Smallest max-entry deviation between two windows over pointed matchings.

    Takes the first 256 pointed isometries of the templates, in the
    backtracker's lexicographic order; inf when there is none.
    """
    t1, t2 = w1.template, w2.template
    if t1.size != t2.size:
        return np.inf
    k = w1.block_dim
    best = np.inf
    for iso in itertools.islice(_isometries(t1.dist, t1.base, t2.dist, t2.base),
                                256):
        perm = (iso[:, None] * k + np.arange(k)).reshape(-1)
        dev = float(np.max(np.abs(w1.matrix - w2.matrix[np.ix_(perm, perm)])))
        best = min(best, dev)
    return best


def interior_nu(window: LimitWindow, p=2.0):
    """Lower norm of the window restricted to interior template columns."""
    reach = window.radius - window.propagation()
    base_row = window.template.dist[window.template.base]
    F = [i for i in range(window.size) if base_row[i] <= reach]
    if not F:
        F = list(range(window.size))
    sp, op = window.as_operator()
    return nu(op, F, p=p)


def sample_spectrum(A, dirs, R=None, tol=1e-9, p=2.0, tail=5):
    """Limit windows along several directions plus a min-lower-norm summary.

    The summary is a sample, never a sweep of every direction to infinity;
    failed extractions are reported per direction and do not abort the rest.
    """
    if not dirs:
        raise ExtractError("sample_spectrum needs at least one direction")
    windows = {}
    failures = {}
    for d in dirs:
        try:
            windows[d.label] = limit_operator(A, d, R=R, tol=tol, tail=tail)
        except (ExtractError, SpaceError, OperatorError) as exc:
            failures[d.label] = str(exc)
    if not windows:
        raise ExtractError(f"all directions failed: {failures}")
    min_nu, argmin = None, None
    for label in sorted(windows):
        rep = interior_nu(windows[label], p=p)
        if min_nu is None or rep.value < min_nu:
            min_nu, argmin = rep.value, label
    summary = {
        "min_interior_nu": float(min_nu),
        "argmin_direction": argmin,
        "note": "sampled, not exhaustive",
        "failures": failures,
    }
    return windows, summary


def ghost_profile(A, radii):
    """Sup entry norm outside F x F for F the balls around the center.

    A profile decreasing to zero is the desk-scale ghost signature: every
    sampled limit window of such an operator is entrywise small.
    """
    space = A.space
    crow = space.row(space.center)
    if A.nnz == 0:
        return [(float(r), 0.0) for r in radii]
    norms = _block_norms(A.blocks)
    out = []
    for r in radii:
        outside = (crow[A.rows] > r) | (crow[A.cols] > r)
        val = float(norms[outside].max()) if outside.any() else 0.0
        out.append((float(r), val))
    return out
