"""Two-sided ladders: validation, subladders, bands, interiors, the
antidiagonal profile, chamfering and width descent.

A ladder is stored by its upper-outside corners (b, a) and lower-outside
corners (d, c) inside a k x l grid.  Cell membership:

    x[i,j] in L  iff  (some upper corner has i >= b, j <= a)
                 and  (some lower corner has i <= d, j >= c).

Row i of a ladder is one column interval, its span: from the least c over
lower corners with d >= i to the greatest a over upper corners with b <= i.
All ladder geometry is read off the spans; `Ladder.cells` is only a view.

Corner lists are kept as given (lower corners may share a row or column,
as in ladders whose first two lower corners sit in the same column).
Sub-regions are cut out by their corners: the subladder L_j keeps the
upper corners and the lower corner (d_j, c_j) alone, and a band clips
every corner to the band.  Their corner lists need not be minimal, so
ladders are compared by their cells, never by their corners.

Corner lemma: a block with rows R and columns C lies in L iff its NE cell
(min R, max C) meets some upper corner (b, a) and its SW cell (max R, min C)
meets some lower corner (d, c), that is iff it fits in the rectangle
[b, d] x [c, a]: every cell of the block lies SW of its NE cell and NE of
its SW cell.  Largest squares, the cells covered by t-minors and the
generating minors themselves (`ideals.minors_in_ladder`) are read off
these corner rectangles.  `Ladder.contains_minor` decides from those two
cells alone whether a block lies in a ladder: the g witness places its
block Y this way.  The profile tests the same two cells of each
square Y_r in its subladder, building neither, and reads each level off
the corners and the row intervals `diagonal_rows` finds by bisection.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import islice

from .poly import Minor, _check_deadline
from .record import Check, Record, set_field

Cell = tuple[int, int]
Span = tuple[int, int]  # (lo, hi) columns of one row; the row is empty when lo > hi


class LadderError(ValueError):
    pass


class ChamferError(LadderError):
    pass


class Ladder(Record):
    """The cells of the k x l grid between the upper corners (b, a) of the NE
    staircase and the lower corners (d, c) of the SW one.  Its `spans` are
    kept in the instance dict, which equality, hash and repr leave out."""

    __slots__ = ("shape", "upper", "lower", "__dict__")

    def __init__(self, shape: tuple[int, int], upper: tuple[tuple[int, int], ...],
                 lower: tuple[tuple[int, int], ...]):
        k, l = shape
        set_field(self, "shape", (int(k), int(l)))
        set_field(self, "upper", tuple((int(b), int(a)) for b, a in upper))
        set_field(self, "lower", tuple((int(d), int(c)) for d, c in lower))
        if k < 1 or l < 1:
            raise LadderError(f"bad shape {self.shape}")
        if bool(self.upper) != bool(self.lower):
            raise LadderError("upper and lower corner lists must be both empty or both nonempty")
        for b, a in self.upper:
            if not (1 <= b <= k and 1 <= a <= l):
                raise LadderError(f"upper corner ({b},{a}) outside {k}x{l} grid")
        for d, c in self.lower:
            if not (1 <= d <= k and 1 <= c <= l):
                raise LadderError(f"lower corner ({d},{c}) outside {k}x{l} grid")
        bs = [b for b, _ in self.upper]
        as_ = [a for _, a in self.upper]
        if sorted(set(bs)) != bs or sorted(set(as_)) != as_:
            raise LadderError("upper corners must strictly increase in both coordinates")
        ds = [d for d, _ in self.lower]
        cs = [c for _, c in self.lower]
        if sorted(ds) != ds or sorted(cs) != cs:
            raise LadderError("lower corners must be nondecreasing in both coordinates")
        if any(self.lower[i] == self.lower[i + 1] for i in range(len(self.lower) - 1)):
            raise LadderError("consecutive lower corners coincide")

    # -- membership

    @cached_property
    def spans(self) -> tuple[Span, ...]:
        """The (lo, hi) columns of each row, read off the corners on first
        use and then kept in the instance dict, where reads find it first."""
        return _spans(self.shape, self.upper, self.lower)

    @property
    def cells(self) -> frozenset[Cell]:
        return frozenset((i, j) for i, (lo, hi) in enumerate(self.spans, start=1)
                         for j in range(lo, hi + 1))

    def contains(self, i: int, j: int) -> bool:
        if not 1 <= i <= self.shape[0]:
            return False
        lo, hi = self.spans[i - 1]
        return lo <= j <= hi

    def contains_minor(self, m: Minor) -> bool:
        """Whether every cell of the minor's block lies in the ladder: its
        NE and SW cells do (corner lemma)."""
        return self.contains(m.rows[0], m.cols[-1]) and self.contains(m.rows[-1], m.cols[0])

    @property
    def is_empty(self) -> bool:
        return all(lo > hi for lo, hi in self.spans)

    @property
    def columns(self) -> tuple[int, int]:
        """The first and last column holding a cell of a nonempty ladder."""
        return min(lo for lo, hi in self.spans if lo <= hi), max(hi for lo, hi in self.spans if lo <= hi)

    # -- derived ladders

    @classmethod
    def full(cls, k: int, l: int) -> "Ladder":
        return cls((k, l), ((1, l),), ((k, 1),))

    def subladder(self, j: int) -> "Ladder":
        """L_j: the cells with row <= d_j and column >= c_j (1-based j)."""
        if not 1 <= j <= len(self.lower):
            raise LadderError(f"subladder index {j} out of range 1..{len(self.lower)}")
        return Ladder(self.shape, self.upper, (self.lower[j - 1],))

    def band(self, axis: str, lo: int, hi: int) -> "Ladder":
        """Intersection with a column band (axis='cols') or row band ('rows').

        Every corner is clipped to the band; where several clip to the same
        value, the one bounding the most cells is kept.
        """
        k, l = self.shape
        limit = l if axis == "cols" else k
        if axis not in ("cols", "rows"):
            raise LadderError(f"axis must be 'cols' or 'rows': {axis}")
        if not (1 <= lo <= hi <= limit):
            raise LadderError(f"band [{lo},{hi}] outside 1..{limit}")
        if axis == "cols":
            upper = {}
            for b, a in reversed(self.upper):
                upper[min(a, hi)] = b  # the smallest row wins
            lower = {}
            for d, c in self.lower:
                lower[max(c, lo)] = d  # the largest row wins
            return Ladder(self.shape, sorted((b, a) for a, b in upper.items()),
                          sorted((d, c) for c, d in lower.items()))
        upper = {}
        for b, a in self.upper:
            upper[max(b, lo)] = a  # the largest column wins
        lower = {}
        for d, c in reversed(self.lower):
            lower[min(d, hi)] = c  # the smallest column wins
        return Ladder(self.shape, sorted(upper.items()), sorted(lower.items()))

    def interior_spans(self, t) -> tuple[Span, ...]:
        """The interior: same upper corners, each lower corner shifted t_j - 1
        steps NE, possibly out of the grid.  A shifted corner lies NE of its
        own corner, so the interior lies in L."""
        t = size_vector(t, len(self.lower))
        shifted = [(d - tj + 1, c + tj - 1) for (d, c), tj in zip(self.lower, t)]
        return _spans(self.shape, self.upper, shifted)

    def max_square_in(self) -> int:
        """Side of the largest full square submatrix inside the ladder: the
        best corner rectangle [b, d] x [c, a] (corner lemma)."""
        return max([0] + [min(d - b, a - c) + 1 for b, a in self.upper for d, c in self.lower])

    def embed(self, shape, row_off: int = 0, col_off: int = 0) -> "Ladder":
        """Translate into a (possibly larger) grid."""
        k, l = shape
        upper = tuple((b + row_off, a + col_off) for b, a in self.upper)
        lower = tuple((d + row_off, c + col_off) for d, c in self.lower)
        return Ladder((k, l), upper, lower)

    # -- serialization and display

    def to_json(self, t=None) -> str:
        obj = {"shape": list(self.shape), "upper": [list(c) for c in self.upper],
               "lower": [list(c) for c in self.lower]}
        if t is not None:
            obj["t"] = list(t)
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> tuple["Ladder", tuple[int, ...] | None]:
        """Parse a ladder file: a JSON object with "shape" [k, l], "upper" and
        "lower" lists of [row, col] corners and an optional "t" (read by
        `size_vector`; absent or null means no sizes).  Raises LadderError
        on anything else."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LadderError(f"malformed JSON at line {exc.lineno} column {exc.colno}") from None
        return cls.from_obj(obj)

    @classmethod
    def from_obj(cls, obj) -> tuple["Ladder", tuple[int, ...] | None]:
        """The ladder and sizes of a decoded ladder file (see `from_json`)."""
        if not isinstance(obj, dict):
            raise LadderError("a ladder file holds a JSON object")
        corners = {}
        for key in ("upper", "lower"):
            if not isinstance(obj.get(key), list):
                raise LadderError(f"{key!r} must be a list of corners, got {obj.get(key)!r}")
            corners[key] = tuple(_int_pair(c, f"{key} corner") for c in obj[key])
        ladder = cls(_int_pair(obj.get("shape"), "shape"), corners["upper"], corners["lower"])
        t = obj.get("t")
        return ladder, None if t is None else size_vector(t, len(ladder.lower))

    def render(self) -> str:
        l = self.shape[1]
        lines = []
        for lo, hi in self.spans:
            _check_deadline()
            lines.append(("." * (lo - 1) + "#" * (hi - lo + 1)).ljust(l, "."))
        return "\n".join(lines)

    def __repr__(self):
        return f"Ladder({self.shape}, upper={list(self.upper)}, lower={list(self.lower)})"


def _spans(shape, upper, lower) -> tuple[Span, ...]:
    """The row spans of the k x l grid cut out by the corners, clipped to
    the grid (see the module docstring).  The corners need not be sorted or
    lie inside the grid.  Checks the time budget once per row."""
    k, l = shape
    out = []
    for i in range(1, k + 1):
        _check_deadline()
        lo = min((c for d, c in lower if d >= i), default=l + 1)
        hi = max((a for b, a in upper if b <= i), default=0)
        out.append((max(lo, 1), min(hi, l)))
    return tuple(out)


def span_size(spans) -> int:
    """The number of cells in the rows `spans`."""
    return sum(hi - lo + 1 for lo, hi in spans if lo <= hi)


def diagonal_rows(spans, r: int) -> Span:
    """The (first, last) interval of rows whose span holds the cell (i, r - i)
    of antidiagonal r; empty when first > last.

    Down the spans `_spans` makes, hi and min(lo, hi + 1) never decrease
    (lo alone may: it drops to l + 1 below a corner shifted past the grid),
    so the rows with hi + i >= r are a suffix, those with
    min(lo, hi + 1) + i <= r a prefix, and no empty row is in both."""
    rows = range(len(spans))
    first = bisect_left(rows, r, key=lambda i: spans[i][1] + i + 1) + 1
    last = bisect_right(rows, r, key=lambda i: min(spans[i][0], spans[i][1] + 1) + i + 1)
    return first, last


def _int_pair(x, what: str) -> tuple[int, int]:
    if not (isinstance(x, list) and len(x) == 2 and all(type(y) is int for y in x)):
        raise LadderError(f"{what} must be a pair of integers, got {x!r}")
    return tuple(x)


def size_vector(t, v: int) -> tuple[int, ...]:
    """The minor sizes (t_1, ..., t_v) of a ladder with v lower corners.

    An int, or a sequence with one entry, gives every corner that size;
    any other sequence needs exactly one entry per corner.  Each size is a
    positive int (not a bool, float, str or list).  Anything else raises
    LadderError.
    """
    sizes = (t,) if type(t) is int else t
    if not isinstance(sizes, (list, tuple)) or not all(type(x) is int and x >= 1 for x in sizes):
        raise LadderError(f"minor sizes must be positive integers: {t!r}")
    if len(sizes) == 1:
        return (sizes[0],) * v
    if len(sizes) != v:
        raise LadderError(f"mixed spec length {len(sizes)} != number of lower corners {v}")
    return tuple(sizes)


# ---------------------------------------------------------------------------
# Validation against the running assumptions


class LadderReport(Record):
    """The running assumptions (1)-(4) of a ladder, one `Check` each in
    order: check i is assumption (i)."""

    __slots__ = ("valid", "u", "v", "checks", "notes")
    _defaults = {"notes": ()}

    def as_text(self) -> str:
        lines = [f"valid={'yes' if self.valid else 'no'} u={self.u} v={self.v}"]
        for n, c in enumerate(self.checks, start=1):
            lines.append(f"  ({n}) {'pass' if c.ok else 'FAIL'}: {c.detail}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def uncovered_cells(L: Ladder, t):
    """The cells of L that no generating minor of the mixed ladder ideal
    meets, row by row in ascending order.

    By the corner lemma, the t_j-minors of L_j cover the union of the
    rectangles [b, d_j] x [c_j, a] over the upper corners (b, a) with room
    for a t_j x t_j block.  Checks the time budget once per row.
    """
    rects = [(b, d, c, a) for (d, c), tj in zip(L.lower, size_vector(t, len(L.lower)))
             for b, a in L.upper if d - b >= tj - 1 and a - c >= tj - 1]
    for i, (lo, hi) in enumerate(L.spans, start=1):
        _check_deadline()
        row = [(c, a) for b, d, c, a in rects if b <= i <= d]
        for j in range(lo, hi + 1):
            if not any(c <= j <= a for c, a in row):
                yield i, j


def validate(L: Ladder, t) -> LadderReport:
    """Check the running assumptions (1)-(4) for the pair (L, t).

    (1) scans each row against the corner rectangles (`uncovered_cells`)
    and (3) reads the largest square of each L_j (`max_square_in`); neither
    enumerates minors.

    (4), minimality of the ambient grid, is reported but kept out of the
    overall verdict, which is that (1)-(3) hold: bands, interiors and
    chamfer outputs legitimately sit inside a larger grid and are read
    relative to their bounding box.
    """
    checks = []
    notes = []
    if L.is_empty:
        return LadderReport(False, 0, 0, (Check("entries-covered", False, "ladder has no cells"),))
    t = size_vector(t, len(L.lower))

    corner_cells_ok = all(L.contains(b, a) for b, a in L.upper) and all(
        L.contains(d, c) for d, c in L.lower
    )
    if not corner_cells_ok:
        notes.append("some listed corner is not a cell of the ladder")

    # (1) every entry appears in a generating minor (the covered rectangles)
    missing = list(islice(uncovered_cells(L, t), 6))
    checks.append(
        Check("entries-covered", not missing,
              "all entries meet a generating minor" if not missing
              else f"uncovered entries: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    )

    # (2) corner sanity: constructor enforces monotonicity; upper corners
    # never share a row or column by strictness, consecutive corners differ.
    checks.append(Check("corners-on-ladder", corner_cells_ok,
                        "corners distinct and on the ladder" if corner_cells_ok
                        else "corner cell missing from ladder"))

    # (3) pairwise non-inclusion of the summands, via the corner/size gaps
    bad = []
    for j in range(len(t) - 1):
        d0, c0 = L.lower[j]
        d1, c1 = L.lower[j + 1]
        if not (d1 - d0 > t[j + 1] - t[j] and c1 - c0 > t[j] - t[j + 1]):
            bad.append(j + 1)
    nonempty = []
    for j, tj in enumerate(t, start=1):
        if L.subladder(j).max_square_in() < tj:
            nonempty.append(j)
    failures = [f"degenerate corner gaps at j={bad}"] if bad else []
    if nonempty:
        failures.append(f"no t_j-minor fits in L_j for j={nonempty}")
    checks.append(Check("summands-incomparable", not failures,
                        "; ".join(failures) or "summands pairwise incomparable"))

    # (4) the ladder spans its ambient grid
    rows = [i for i, (lo, hi) in enumerate(L.spans, start=1) if lo <= hi]
    spans = (rows[0], rows[-1], *L.columns) == (1, L.shape[0], 1, L.shape[1])
    checks.append(Check("spans-grid", spans,
                        "ladder spans the ambient grid" if spans
                        else "a border row or column of the grid is empty"))

    return LadderReport(all(c.ok for c in checks[:3]), len(L.upper), len(L.lower),
                        tuple(checks), tuple(notes))


# ---------------------------------------------------------------------------
# Heights and the antidiagonal profile


def height(L: Ladder, t) -> int:
    """Height of the mixed ladder ideal: the number of interior cells."""
    return span_size(L.interior_spans(t))


class LevelData(Record):
    """One antidiagonal level r: its square Y_r has rows a..b and the
    columns r - b..r - a, gamma = b - a + 1 of each."""

    __slots__ = ("r", "w", "p", "a", "b", "gamma", "count")

    @property
    def minor(self) -> Minor:
        """Y_r, built on demand: its index tuples have gamma entries each."""
        return Minor(tuple(range(self.a, self.b + 1)), tuple(range(self.r - self.b, self.r - self.a + 1)))


class AntidiagonalProfile(Record):
    """The antidiagonal levels of a ladder: `levels` has one `LevelData` per
    level in A, and `witness` the levels of B, those of nonnegative count."""

    __slots__ = ("levels", "witness", "interior_size")

    @property
    def witness_factors(self) -> tuple[Minor, ...]:
        return tuple(ld.minor for ld in self.witness)


class ProfileError(LadderError):
    pass


def antidiagonal_profile(L: Ladder, t) -> AntidiagonalProfile:
    """Per-level data (w_r, p_r, a_r, b_r, gamma_r, Y_r) for the witness.

    w is the last row of antidiagonal r in the interior, p the last j whose
    shifted corner (d_j - t_j + 1, c_j + t_j - 1) lies SW of (w, r - w),
    and Y_r takes the rows first..min(last, d_p, r - c_p) of antidiagonal r
    in L, its cells in L_p.  The levels of B, those with a nonnegative
    count, are kept as `witness`.  Verifies the counting identity: their
    counts add up to the number of interior cells (= the height of the
    mixed ladder ideal).  Checks the time budget once per level.
    """
    t = size_vector(t, len(L.lower))
    shifted = [(d - tj + 1, c + tj - 1) for (d, c), tj in zip(L.lower, t)]
    interior = _spans(L.shape, L.upper, shifted)  # `Ladder.interior_spans`

    levels = []
    for r in range(2, sum(L.shape) + 1):
        _check_deadline()
        first, w = diagonal_rows(interior, r)
        if first > w:
            continue
        p = max(j for j, (dj, cj) in enumerate(shifted, start=1) if w <= dj and r - w >= cj)
        (d, c), tp = L.lower[p - 1], t[p - 1]
        a, last = diagonal_rows(L.spans, r)
        b = min(last, d, r - c)
        # Y_r lies in L_p iff its NE and SW cells do (corner lemma).
        if not all(L.contains(i, r - i) and i <= d and r - i >= c for i in (a, b)):
            raise ProfileError(f"level {r}: antidiagonal square leaves its subladder")
        gamma = b - a + 1
        levels.append(LevelData(r, w, p, a, b, gamma, gamma - tp + 1))

    witness = tuple(ld for ld in levels if ld.count >= 0)
    total, size = sum(ld.count for ld in witness), span_size(interior)
    if total != size:
        raise ProfileError(f"count identity failed: sum of counts {total} != interior size {size}")
    return AntidiagonalProfile(tuple(levels), witness, size)


# ---------------------------------------------------------------------------
# Chamfering


def total_width(t) -> int:
    """Sum over pairs i<j of |t_i - t_j|."""
    t = tuple(t)
    return sum(abs(t[i] - t[j]) for i in range(len(t)) for j in range(i + 1, len(t)))


def chamfer(L: Ladder, t, j: int) -> tuple[Ladder, tuple[int, ...]]:
    """Move lower corner j one step NE and shrink its minor size by one.

    Legality is judged by validating the output (relative to its bounding
    box), not by any a-priori inequality between neighbouring corners.
    When t_j is already 1 the corner disappears together with its summand;
    this requires the remaining corners to keep every cell covered.
    """
    return _move_corner(L, t, j, -1)


def unchamfer(L: Ladder, t, j: int) -> tuple[Ladder, tuple[int, ...]]:
    """Inverse move: corner j one step SW, minor size grown by one.

    Guaranteed to succeed for some j with t_j minimal; may need a larger
    ambient grid (see `reduce_to_unmixed`, which pre-embeds with a margin).
    """
    return _move_corner(L, t, j, +1)


def _move_corner(L: Ladder, t, j: int, step: int) -> tuple[Ladder, tuple[int, ...]]:
    """Lower corner j one diagonal step (-1 NE, +1 SW) with t_j changed by
    `step`; a corner whose size reaches 0 is dropped.  The result must
    validate, else ChamferError."""
    move = "chamfer" if step < 0 else "unchamfer"
    t = size_vector(t, len(L.lower))
    if not 1 <= j <= len(L.lower):
        raise ChamferError(f"corner index {j} out of range")
    (d, c), tj = L.lower[j - 1], t[j - 1] + step
    if tj == 0:
        if len(L.lower) == 1:
            raise ChamferError("cannot chamfer away the only lower corner")
        moved, new_tj = (), ()
    else:
        k, l = L.shape
        if not (1 <= d + step <= k and 1 <= c - step <= l):
            raise ChamferError(f"corner ({d},{c}) cannot move {'NE' if step < 0 else 'SW'} "
                               f"inside the {k}x{l} grid")
        moved, new_tj = ((d + step, c - step),), (tj,)
    new_t = t[: j - 1] + new_tj + t[j:]
    try:
        out = Ladder(L.shape, L.upper, L.lower[: j - 1] + moved + L.lower[j:])
    except LadderError as exc:
        raise ChamferError(f"{move} at corner {j} breaks the ladder: {exc}") from None
    report = validate(out, new_t)
    if not report.valid:
        raise ChamferError(f"{move} at corner {j} yields an invalid ladder:\n{report.as_text()}")
    return out, new_t


class UnmixReduction(Record):
    """Unchamfer trail from (L, t) to an unmixed pair, with replay data:
    `start` is the unmixed ladder inside the padded grid, `moves` the
    chamfer corner indices in replay order, and `offset` the translation of
    the padded embedding."""

    __slots__ = ("original", "original_t", "start", "start_t", "moves", "offset")

    def replay(self) -> tuple[Ladder, tuple[int, ...]]:
        """Chamfer along `moves` from the start pair; returns (L, t)."""
        cur, cur_t = self.start, self.start_t
        for j in self.moves:
            cur, cur_t = chamfer(cur, cur_t, j)
        ro, co = self.offset
        return cur.embed(self.original.shape, -ro, -co), cur_t


def unmix_distance(t) -> int:
    """Moves left before the size vector is constant: sum of max(t) - t_j.

    Strictly drops by one per unchamfer at a minimal entry, and is bounded
    by total_width(t), which gives the advertised step bound.  (Raising a
    minimal entry can *increase* the total width itself once three or more
    corners are in play, e.g. (2,3,2,2) -> (3,3,2,2).)
    """
    t = tuple(t)
    return sum(max(t) - x for x in t)


def reduce_to_unmixed(L: Ladder, t) -> UnmixReduction:
    """Unchamfer at minimal-size corners until the size vector is constant.

    Terminates in unmix_distance(t) <= total_width(t) moves.  The ladder
    is first embedded with a margin so corner moves never leave the grid.
    """
    t = size_vector(t, len(L.lower))
    margin = max(t) - min(t)
    k, l = L.shape
    cur = L.embed((k + margin, l + margin), 0, margin)
    cur_t = t
    moves: list[int] = []
    while len(set(cur_t)) > 1:
        candidates = [j for j in range(1, len(cur_t) + 1) if cur_t[j - 1] == min(cur_t)]
        for j in candidates:
            try:
                nxt, nxt_t = unchamfer(cur, cur_t, j)
            except ChamferError:
                continue
            if unmix_distance(nxt_t) >= unmix_distance(cur_t):
                continue
            cur, cur_t = nxt, nxt_t
            moves.append(j)
            break
        else:
            raise ChamferError("no legal unchamfer at a minimal-size corner; ladder is degenerate")
    return UnmixReduction(L, t, cur, cur_t, tuple(reversed(moves)), (0, margin))


# ---------------------------------------------------------------------------
# Seeded random valid ladders (fixtures for the property suites)

_MAX_T = 3
_SAMPLE_ATTEMPTS = 2000


def random_valid_ladder(rng, max_size: int, mixed: bool = False):
    """A uniform-ish random (ladder, t) pair passing validation, on a grid
    of at most max_size rows and columns, with each t at most `_MAX_T`."""
    for _ in range(_SAMPLE_ATTEMPTS):
        k = rng.randint(2, max_size)
        l = rng.randint(2, max_size)
        u = rng.randint(1, min(3, k, l))
        v = rng.randint(1, min(4 if mixed else 3, k, l))
        try:
            bs = sorted(rng.sample(range(1, k + 1), u))
            as_ = sorted(rng.sample(range(1, l + 1), u))
            if bs[0] != 1:
                bs[0] = 1
            if as_[-1] != l:
                as_[-1] = l
            ds = sorted(rng.choices(range(1, k + 1), k=v))
            cs = sorted(rng.choices(range(1, l + 1), k=v))
            ds[-1] = k
            cs[0] = 1
            ladder = Ladder((k, l), tuple(zip(bs, as_)), tuple(zip(ds, cs)))
        except LadderError:
            continue
        if mixed:
            t = tuple(rng.randint(1, _MAX_T) for _ in range(v))
        else:
            t = (rng.randint(1, _MAX_T),) * v
        try:
            if validate(ladder, t).valid:
                return ladder, t
        except LadderError:
            continue
    raise LadderError(f"could not sample a valid ladder in {_SAMPLE_ATTEMPTS} attempts; "
                      "raise max_size")
