"""Ladder combinatorics written independently of ladderdet.

The generators and the answer checks use only this module, so a change to
`ladderdet.ladders` or `ladderdet.ideals` can change neither the inputs of
a workload nor the answers it is held to.

A ladder is a triple (shape, upper, lower) of plain tuples in the corner
convention of the paper: cell (i, j) belongs to the ladder iff some upper
corner (b, a) has i >= b and j <= a, and some lower corner (d, c) has
i <= d and j >= c.  Minor sizes `t` are tuples, one entry per lower corner.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

GRID_RANGE = (4, 6)


def cells(shape, upper, lower) -> frozenset:
    k, l = shape
    out = []
    for i in range(1, k + 1):
        hi = max((a for b, a in upper if i >= b), default=0)
        lo = min((c for d, c in lower if i <= d), default=l + 1)
        out += [(i, j) for j in range(lo, hi + 1)]
    return frozenset(out)


def minors_inside(cell_set, t: int) -> list[tuple[tuple, tuple]]:
    """All t-minors (rows, cols) whose whole submatrix lies in `cell_set`.

    In a ladder region both ends of each row's interval move right going
    down, so a submatrix lies inside as soon as its NE and SW cells do.
    """
    rows = sorted({i for i, _ in cell_set})
    cols = sorted({j for _, j in cell_set})
    return [
        (r, c)
        for r in combinations(rows, t)
        for c in combinations(cols, t)
        if (r[0], c[-1]) in cell_set and (r[-1], c[0]) in cell_set
    ]


def subladder_cells(cell_set, corner) -> frozenset:
    d, c = corner
    return frozenset((i, j) for i, j in cell_set if i <= d and j >= c)


def has_square(cell_set, t: int) -> bool:
    return max_square(cell_set) >= t


def is_valid(shape, upper, lower, t, cs=None) -> bool:
    """The paper's running assumptions (1)-(3) for the pair (L, t).

    Every listed corner is a cell; every cell lies in some t_j-minor of the
    subladder L_j; neighbouring corners leave the gaps that make the
    summands pairwise incomparable; and every L_j holds a t_j-square.
    """
    cs = cells(shape, upper, lower) if cs is None else cs
    if not cs or len(t) != len(lower) or any(x < 1 for x in t):
        return False
    if not all(c in cs for c in upper) or not all(c in cs for c in lower):
        return False
    for j in range(len(t) - 1):
        (d0, c0), (d1, c1) = lower[j], lower[j + 1]
        if not (d1 - d0 > t[j + 1] - t[j] and c1 - c0 > t[j] - t[j + 1]):
            return False
    covered = set()
    for corner, tj in zip(lower, t):
        sub = subladder_cells(cs, corner)
        if not has_square(sub, tj):
            return False
        for r, c in minors_inside(sub, tj):
            covered.update((i, j) for i in r for j in c)
    return covered == cs


def interior_size(shape, upper, lower, t) -> int:
    """Number of interior cells: lower corners shifted by t_j - 1 to the NE."""
    shifted = [(d - tj + 1, c + tj - 1) for (d, c), tj in zip(lower, t)]
    return sum(
        1 for i, j in cells(shape, upper, lower) if any(i <= d and j >= c for d, c in shifted)
    )


def lattice_paths(cell_set) -> int:
    """Down/right lattice paths inside the ladder from its NW to its SE cell."""
    start = min(cell_set)
    end = max(cell_set)
    count = {}
    for i, j in sorted(cell_set):
        if (i, j) == start:
            count[(i, j)] = 1
        else:
            count[(i, j)] = count.get((i - 1, j), 0) + count.get((i, j - 1), 0)
    return count[end]


def staircase_ladder(rng, k: int, l: int):
    """A random ladder cut from a k x l grid by removing a staircase (a
    Young diagram) at the NE corner and one at the SW corner.

    Corners sit where a row's interval grows, so lower corners strictly
    increase, as unmixed ideals need.  Returns None when the cuts meet.
    """
    ne, sw = [], []
    for cuts in (ne, sw):
        cut = rng.randint(0, l - 1)
        for _ in range(k):
            cuts.append(cut)
            cut = rng.randint(0, cut)
    hi = [l - c for c in ne]
    lo = [1 + c for c in reversed(sw)]
    if any(a > b for a, b in zip(lo, hi)):
        return None
    upper = tuple((i + 1, hi[i]) for i in range(k) if i == 0 or hi[i] > hi[i - 1])
    lower = tuple((i + 1, lo[i]) for i in range(k) if i == k - 1 or lo[i + 1] > lo[i])
    return (k, l), upper, lower


def random_ladder(rng, k: int, l: int):
    """Corner lists drawn directly: up to three upper corners, strictly
    increasing, and up to three lower corners, weakly increasing with no
    repeats, as mixed ladders allow.  Returns None when the draw is not a
    ladder."""
    u = rng.randint(1, min(3, k, l))
    v = rng.randint(1, min(3, k, l))
    bs = sorted(rng.sample(range(1, k + 1), u))
    as_ = sorted(rng.sample(range(1, l + 1), u))
    bs[0], as_[-1] = 1, l
    ds = sorted(rng.choices(range(1, k + 1), k=v))
    cs = sorted(rng.choices(range(1, l + 1), k=v))
    ds[-1], cs[0] = k, 1
    upper = tuple(zip(bs, as_))
    lower = tuple(zip(ds, cs))
    if len(set(bs)) != u or len(set(as_)) != u or len(set(lower)) != v:
        return None
    return (k, l), upper, lower


def max_square(cell_set) -> int:
    """Side of the largest full square of cells."""
    side = {}
    for i, j in sorted(cell_set):
        side[(i, j)] = 1 + min(side.get((i - 1, j), 0), side.get((i, j - 1), 0),
                               side.get((i - 1, j - 1), 0))
    return max(side.values(), default=0)


def monic_minor_text(rows, cols) -> str:
    """The t-minor as text, scaled so its antidiagonal term has coefficient 1.

    Leibniz expansion: the antidiagonal term is the reversal permutation,
    whose sign is (-1)^(t(t-1)/2).
    """
    t = len(rows)
    flip = -1 if (t * (t - 1) // 2) % 2 else 1
    terms = []
    for perm in permutations(range(t)):
        inversions = sum(1 for a in range(t) for b in range(a + 1, t) if perm[a] > perm[b])
        sign = (-1 if inversions % 2 else 1) * flip
        body = "*".join(f"x[{rows[a]},{cols[perm[a]]}]" for a in range(t))
        terms.append(("+ " if sign > 0 else "- ") + body)
    return " ".join(terms)


def unit_step_connected(cell_set) -> bool:
    """True when every cell but the NW one has a cell above or to its left,
    and every cell but the SE one has a cell below or to its right, so
    that every maximal chain of cells is a down/right lattice path."""
    start, end = min(cell_set), max(cell_set)
    return all(
        ((i - 1, j) in cell_set or (i, j - 1) in cell_set or (i, j) == start)
        and ((i + 1, j) in cell_set or (i, j + 1) in cell_set or (i, j) == end)
        for i, j in cell_set
    )


def reference_work() -> None:
    """A fixed piece of pure-Python work of the kind ladderdet does (tuples,
    sets and dicts), timed to tell how fast the CPU runs at the moment."""
    rng = random.Random(0)
    for _ in range(12):
        drawn = staircase_ladder(rng, 5, 5)
        if drawn is not None:
            is_valid(*drawn, (2,) * len(drawn[2]))
