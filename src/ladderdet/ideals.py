"""Generator construction for the determinantal ideal families, the
Frobenius-splitting witness polynomials and their symbolic-power degree
counts.

Every family is an ideal generated by minors, built by `minor_ideal` from
minors that `block_minors` enumerates block by block: a ladder's minors
are the t_j-minors of its corner rectangles [b, d_j] x [c_j, a] (the
corner lemma of `ladders`), a corner ideal takes those of the one-corner
ladder that `corner_ladder` places, Schubert ideals the minors of NW
rectangles, and poset ideals those of a downset of the poset of minors.

Every witness is a product of the antidiagonal squares det(Y_r) that
`ladders.antidiagonal_profile` reads off a ladder; the full-grid witness
`f_of_matrix` is the one of the full ladder at t = 1."""

from __future__ import annotations

import json
from itertools import combinations
from math import factorial

from .fields import QQ, Field
from .groebner import Ideal, InstanceTooLarge, Ring
from .ladders import Ladder, LadderError, _int_pair, antidiagonal_profile, size_vector, span_size
from .poly import (
    Minor,
    Monomial,
    Polynomial,
    _check_deadline,
    check_variable_count,
    expand_minor,
    grid_var,
    mono,
    mono_is_squarefree,
    parse_polynomials,
)
from .record import Record, set_field


def ladder_ring(field: Field, L: Ladder) -> Ring:
    """The polynomial ring on exactly the cells of the ladder, refused on their count.
    Its variables come off the spans in descending order: rows down, each
    row's columns right to left."""
    check_variable_count(span_size(L.spans))
    return Ring(field, tuple(grid_var(i, j) for i, (lo, hi) in enumerate(L.spans, start=1)
                             for j in range(hi, lo - 1, -1)))


def cells_from_json(cells) -> list[tuple[int, int]]:
    """A JSON list of [i, j] cells, each a pair of integers."""
    if not isinstance(cells, list):
        raise ValueError(f"cells must be a list of [i, j] pairs, got {cells!r}")
    return [_int_pair(cell, "cell") for cell in cells]


def ideal_from_obj(obj, field: Field = QQ) -> Ideal:
    """A decoded ideal file: "gens", a list of polynomial strings, over the
    grid "shape" [k, l] or over the listed "cells".  ValueError on anything
    else."""
    if not isinstance(obj, dict):
        raise ValueError("an ideal file holds a JSON object")
    if "cells" in obj:
        ring = Ring.for_cells(field, cells_from_json(obj["cells"]))
    else:
        ring = Ring.for_grid(field, *_int_pair(obj.get("shape"), "shape"))
    return Ideal(ring, parse_polynomials(obj.get("gens"), field))


# ---------------------------------------------------------------------------
# Minors and the ideals they generate


def block_minors(rows, cols, t: int) -> list[Minor]:
    """The t-minors of the block rows x cols (increasing indices), in
    (rows, cols) order.  Checks the time budget once every 256 minors."""
    out = []
    for r in combinations(rows, t):
        for c in combinations(cols, t):
            if not len(out) & 255:
                _check_deadline()
            out.append(Minor(r, c))
    return out


def _distinct(minors) -> list[Minor]:
    """The distinct minors, in (rows, cols) order."""
    by_key = {(m.rows, m.cols): m for m in minors}
    return [by_key[key] for key in sorted(by_key)]


def minor_ideal(ring: Ring, minors) -> Ideal:
    """The ideal of the distinct minors, expanded in the ring, in (rows,
    cols) order."""
    return Ideal(ring, [expand_minor(m, ring.field, ring.packing) for m in _distinct(minors)])


def minors_in_ladder(L: Ladder, t) -> list[Minor]:
    """The generating minors of I_t(L), distinct and in (rows, cols) order:
    the t_j-minors of the corner rectangles [b, d_j] x [c_j, a] over the
    upper corners (b, a), for each lower corner (d_j, c_j) (corner lemma)."""
    return _distinct(
        m for (d, c), tj in zip(L.lower, size_vector(t, len(L.lower))) for b, a in L.upper
        for m in block_minors(range(b, d + 1), range(c, a + 1), tj))


def mixed_ladder_ideal(L: Ladder, t, field: Field = QQ, ring: Ring | None = None) -> Ideal:
    """I_t(L): sum of the t_j-minor ideals of the subladders L_j."""
    return minor_ideal(ring or ladder_ring(field, L), minors_in_ladder(L, t))


# ---------------------------------------------------------------------------
# Witness polynomials


EXPANSION_TERM_CAP = 200_000


def _check_expansion_size(factors) -> None:
    # Largest first, so the figure named does not depend on the factor order.
    bound = 1
    for size in sorted((m.size for m in factors), reverse=True):
        bound *= factorial(size)
        if bound > EXPANSION_TERM_CAP:
            raise InstanceTooLarge(
                "instance too large: expanding this witness could reach "
                f"{bound}+ terms; use the factor list or the certificate instead"
            )


def minor_product(factors, field: Field = QQ) -> Polynomial:
    """The expanded product of the minors, refused when it could be huge."""
    _check_expansion_size(factors)
    result = Polynomial.one(field)
    for m in factors:
        result = result * expand_minor(m, field)
    return result


def minor_product_symbolic_degree(factors, t: int) -> int:
    """Certified symbolic order of a product of minors in I_t.

    Each gamma x gamma determinant lies in the (gamma - t + 1)-st symbolic
    power, so the product lies in I_t^(n) for n the sum of those counts.
    Exact for the unmixed generic/ladder witnesses; for mixed sizes this is
    a sufficient condition only.  ValueError when t is below 1.
    """
    if t < 1:
        raise ValueError(f"minor size t must be at least 1, got {t}")
    return sum(max(m.size - t + 1, 0) for m in factors)


def antidiagonal_lead(factors) -> Monomial:
    """The product of the minors' antidiagonals: the lead of their product
    under an antidiagonal order.  Refused past `MAX_VARIABLES` variables."""
    return mono(*((grid_var(i, j), 1) for m in factors for i, j in m.antidiagonal_cells()))


def f_witness(L: Ladder, t, field: Field = QQ) -> Polynomial:
    """Product of the profile determinants det(Y_r), r in B; lies in
    I_t(L)^(height)."""
    return minor_product(antidiagonal_profile(L, t).witness_factors, field)


def f_of_matrix(k: int, l: int, field: Field = QQ) -> Polynomial:
    """The full-grid witness: the ladder witness of the full k x l grid at
    t = 1, one antidiagonal square per level (the NW and SE squares and
    the full-width bands).

    Its leading term under any antidiagonal order is the product of every
    grid variable.
    """
    return f_witness(Ladder.full(k, l), 1, field)


class GWitnessError(LadderError):
    pass


class GWitnessData(Record):
    __slots__ = ("alpha", "beta", "y_minor", "factors", "lead", "count")

    def __init__(self, alpha: int, beta: int, y_minor: Minor, factors: tuple[Minor, ...],
                 lead: Monomial, count: int):
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)
        set_field(self, "y_minor", y_minor)
        set_field(self, "factors", factors)  # det(Y) first, then det(Y_r) for r in B'
        set_field(self, "lead", lead)  # product of the factors' antidiagonals
        set_field(self, "count", count)  # combinatorial symbolic degree, = height - 1


def g_witness_data(L: Ladder, t) -> GWitnessData:
    """Locate the strong-F-regularity witness g = det(Y) * prod det(Y_r).

    alpha is the last lower corner in row k.  Lower corners are nondecreasing
    in rows, so that is corner v, and L_alpha = L_v as p_beta = v requires;
    two lower corners may share row k.  The distinguished level beta = k +
    c_alpha is the antidiagonal through the lowest corner in column c_alpha,
    and the construction is verified: b_beta = k, p_beta = v, squarefree
    lead avoiding x[k, c_alpha], counts adding to height - 1.
    """
    t = size_vector(t, len(L.lower))
    if t[-1] == 1:
        raise GWitnessError("t_v = 1: the witness construction needs t_v > 1")
    k, l = L.shape
    alpha = len(L.lower)
    d_alpha, c_alpha = L.lower[alpha - 1]
    if d_alpha != k:
        raise GWitnessError("no lower corner in the last row")

    profile = antidiagonal_profile(L, t)
    beta = k + c_alpha
    ld = next((w for w in profile.witness if w.r == beta), None)
    if ld is None:
        raise GWitnessError(f"no admissible level beta = k + c_alpha = {beta}")
    if ld.b != k or ld.p != len(t):
        raise GWitnessError(f"level {beta} fails b_beta = k, p_beta = v: got b={ld.b}, p={ld.p}")

    a_beta = ld.a
    y_rows = tuple(range(a_beta, k))
    y_cols = tuple(range(c_alpha + 1, beta - a_beta + 1))
    if not y_rows or len(y_rows) != len(y_cols):
        raise GWitnessError(f"degenerate Y block rows={y_rows} cols={y_cols}")
    y_minor = Minor(y_rows, y_cols)
    if not L.contains_minor(y_minor):
        raise GWitnessError("Y block leaves the ladder")

    rest = tuple(w for w in profile.witness if w.r != beta)
    factors = (y_minor,) + tuple(w.minor for w in rest)
    lead = antidiagonal_lead(factors)
    if not mono_is_squarefree(lead.value):
        raise GWitnessError("witness lead is not squarefree")
    if grid_var(k, c_alpha) in lead.packing.shift:
        raise GWitnessError(f"witness lead divisible by x[{k},{c_alpha}]")
    # det(Y) has size gamma_beta - 1 and lies in I_{t_v}(L_v)^(gamma_beta - t_v).
    count = max(ld.gamma - t[-1], 0) + sum(w.count for w in rest)
    h = profile.interior_size
    if count != h - 1:
        raise GWitnessError(f"witness symbolic degree {count} != height-1 = {h - 1}")
    return GWitnessData(alpha, beta, y_minor, factors, lead, count)


def g_witness(L: Ladder, t, field: Field = QQ) -> Polynomial:
    return minor_product(g_witness_data(L, t).factors, field)


# ---------------------------------------------------------------------------
# Matrix Schubert ideals


class PartialPermutation(Record):
    """A 0/1 matrix with at most one 1 in each row and column."""

    __slots__ = ("shape", "ones")

    def __init__(self, shape: tuple[int, int], ones: frozenset[tuple[int, int]]):
        shape = tuple(shape)
        ones = frozenset(map(tuple, ones))
        set_field(self, "shape", shape)
        set_field(self, "ones", ones)
        k, l = shape
        if k < 1 or l < 1:
            raise ValueError(f"bad shape {shape}")
        rows = [i for i, _ in ones]
        cols = [j for _, j in ones]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("partial permutation has two ones in a row or column")
        if any(not (1 <= i <= k and 1 <= j <= l) for i, j in ones):
            raise ValueError("one outside the grid")

    def rank(self, r: int, s: int) -> int:
        return sum(1 for i, j in self.ones if i <= r and j <= s)

    def to_json(self) -> str:
        return json.dumps({"shape": list(self.shape), "ones": sorted(map(list, self.ones))})

    @classmethod
    def from_json(cls, text: str) -> "PartialPermutation":
        """Parse {"shape": [k, l], "ones": [[i, j], ...]}; ValueError on
        anything else."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or not isinstance(obj.get("ones"), list):
            raise ValueError('a permutation file holds {"shape": [k, l], "ones": [[i, j], ...]}')
        return cls(_int_pair(obj.get("shape"), "shape"),
                   frozenset(_int_pair(one, "one") for one in obj["ones"]))


def schubert_rank_conditions(w: PartialPermutation) -> list[tuple[int, int, int]]:
    """Non-vacuous, non-implied (r, s, rank bound) triples for I_w."""
    k, l = w.shape
    conditions = []
    for r in range(1, k + 1):
        for s in range(1, l + 1):
            rho = w.rank(r, s)
            if rho + 1 <= min(r, s):
                conditions.append((r, s, rho))
    kept = []
    for (r, s, rho) in conditions:
        implied = any(
            (rp, sp, rhop) != (r, s, rho) and rp <= r and sp <= s and rho - rhop >= (r - rp) + (s - sp)
            for (rp, sp, rhop) in conditions
        )
        if not implied:
            kept.append((r, s, rho))
    return kept


def schubert_ideal(w: PartialPermutation, field: Field = QQ) -> Ideal:
    """I_w: rank(w_{r x s})+1 minors of each NW submatrix, pruned."""
    k, l = w.shape
    return minor_ideal(Ring.for_grid(field, k, l), [
        m for r, s, rho in schubert_rank_conditions(w)
        for m in block_minors(range(1, r + 1), range(1, s + 1), rho + 1)])


# ---------------------------------------------------------------------------
# Corner ideals and the poset of minors


def corner_ladder(k: int, l: int, r: int, s: int, which: str = "nw") -> Ladder:
    """The NW (or SE) r x s corner of the k x l grid, a one-corner ladder."""
    if which == "nw":
        return Ladder((k, l), ((1, s),), ((r, 1),))
    if which == "se":
        return Ladder((k, l), ((k - r + 1, l),), ((k, l - s + 1),))
    raise ValueError("which must be 'nw' or 'se'")


def corner_ideal(k: int, l: int, t: int, r: int, s: int, which: str = "nw",
                 field: Field = QQ) -> Ideal:
    """t-minors of the NW (or SE) r x s corner submatrix."""
    if t < 1 or t > min(r, s):
        raise ValueError(f"no {t}-minors in a {r}x{s} corner")
    return minor_ideal(Ring.for_grid(field, k, l),
                       minors_in_ladder(corner_ladder(k, l, r, s, which), t))


def _check_in_grid(k: int, l: int, minors) -> None:
    """ValueError unless k x l is a grid holding every one of the minors."""
    if k < 1 or l < 1:
        raise ValueError(f"a grid needs at least one row and column, got {k}x{l}")
    for m in minors:
        if m.rows[-1] > k or m.cols[-1] > l:
            raise ValueError(f"minor {m} lies outside the {k}x{l} grid")


def minor_poset(k: int, l: int) -> list[Minor]:
    """All minors of the k x l generic matrix (materialized for small grids)."""
    if k > 4 or l > 4:
        raise ValueError("the poset of minors is materialized only for grids up to 4x4")
    return [m for size in range(1, min(k, l) + 1)
            for m in block_minors(range(1, k + 1), range(1, l + 1), size)]


def minor_leq(a: Minor, b: Minor) -> bool:
    """a <= b in the poset: a at least as large, indices componentwise <=."""
    if a.size < b.size:
        return False
    return all(a.rows[i] <= b.rows[i] and a.cols[i] <= b.cols[i] for i in range(b.size))


def is_poset_ideal(k: int, l: int, omega) -> bool:
    omega_set = {(m.rows, m.cols) for m in omega}
    poset = minor_poset(k, l)
    return all(
        (pi.rows, pi.cols) in omega_set
        for m in omega
        for pi in poset
        if minor_leq(pi, m)
    )


def is_generalized_poset_ideal(k: int, l: int, omega) -> bool:
    omega_set = {(m.rows, m.cols) for m in omega}
    poset = minor_poset(k, l)
    for m in omega:
        r, s = m.rows[-1], m.cols[-1]
        for pi in poset:
            if pi.rows[-1] <= r and pi.cols[-1] <= s and minor_leq(pi, m):
                if (pi.rows, pi.cols) not in omega_set:
                    return False
    return True


def omega_delta_ideal(k: int, l: int, delta: Minor, field: Field = QQ) -> Ideal:
    """Sum formula for the cogenerated poset ideal: column strips, row
    strips, and all (r+1)-minors."""
    _check_in_grid(k, l, [delta])
    rows, cols = range(1, k + 1), range(1, l + 1)
    minors = block_minors(rows, cols, delta.size + 1)
    for tt, (it, jt) in enumerate(zip(delta.rows, delta.cols), start=1):
        minors += block_minors(rows, range(1, jt), tt) + block_minors(range(1, it), cols, tt)
    return minor_ideal(Ring.for_grid(field, k, l), minors)


class PosetIdealSpec(Record):
    """Either an explicit downward-closed set, a cogenerator list, or a
    generalized-ideal generator list."""

    __slots__ = ("kind", "minors")

    def __init__(self, kind: str, minors: tuple[Minor, ...]):
        if kind not in ("explicit", "cogenerators", "generalized"):
            raise ValueError(f"unknown poset spec kind: {kind}")
        set_field(self, "kind", kind)  # "explicit" | "cogenerators" | "generalized"
        set_field(self, "minors", tuple(minors))


def poset_ideal(k: int, l: int, spec: PosetIdealSpec, field: Field = QQ) -> Ideal:
    """The ideal of k[X] generated by an ideal of the poset of minors."""
    _check_in_grid(k, l, spec.minors)
    if spec.kind == "explicit":
        omega = list(spec.minors)
        if not is_poset_ideal(k, l, omega):
            raise ValueError("the given set is not downward closed in the poset")
    elif spec.kind == "cogenerators":
        omega = [pi for pi in minor_poset(k, l)
                 if all(not minor_leq(d, pi) for d in spec.minors)]
    else:
        omega = list(spec.minors)
        if not is_generalized_poset_ideal(k, l, omega):
            raise ValueError("the given set is not a generalized poset ideal")
    return minor_ideal(Ring.for_grid(field, k, l), omega)


def poset_ideal_brute(k: int, l: int, delta: Minor, field: Field = QQ) -> Ideal:
    """Brute-force cogenerated ideal: the cogenerators spec of `poset_ideal`,
    which materializes the complement of the up-set of delta."""
    return poset_ideal(k, l, PosetIdealSpec("cogenerators", (delta,)), field)


def poset_spec_from_json(text: str) -> PosetIdealSpec:
    """A poset spec: {kind: [{"rows": [...], "cols": [...]}, ...]} for one
    kind of `PosetIdealSpec`, indices integers.  ValueError on anything else."""
    obj = json.loads(text)
    for kind in ("explicit", "cogenerators", "generalized"):
        if isinstance(obj, dict) and kind in obj:
            if not isinstance(obj[kind], list):
                raise ValueError(f"{kind} must be a list of minors, got {obj[kind]!r}")
            return PosetIdealSpec(kind, tuple(_minor_from_json(m) for m in obj[kind]))
    raise ValueError("poset spec JSON needs one of: explicit, cogenerators, generalized")


def _minor_from_json(m) -> Minor:
    if not (isinstance(m, dict) and all(
            isinstance(m.get(key), list) and all(type(x) is int for x in m[key])
            for key in ("rows", "cols"))):
        raise ValueError(f'a minor is {{"rows": [...], "cols": [...]}} of integers, got {m!r}')
    return Minor(tuple(m["rows"]), tuple(m["cols"]))
