import numpy as np
import pytest

from bandlim.space import build_space
from bandlim.operators import BandOperator, from_triplets


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
