"""Generator construction for the determinantal ideal families, the
Frobenius-splitting witness polynomials and their symbolic-power degree
counts."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import factorial

from .fields import QQ, Field
from .groebner import Ideal, InstanceTooLarge, Ring
from .ladders import Ladder, LadderError, _int_pair, antidiagonal_profile, height, size_vector
from .poly import (
    Minor,
    Monomial,
    Polynomial,
    _check_deadline,
    expand_minor,
    grid_var,
    mono,
    mono_is_squarefree,
    parse_polynomials,
)


def ladder_ring(field: Field, L: Ladder) -> Ring:
    """The polynomial ring on exactly the cells of the ladder."""
    return Ring.for_cells(field, sorted(L.cells))


def grid_ring(field: Field, k: int, l: int) -> Ring:
    return Ring.for_grid(field, k, l)


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
        ring = grid_ring(field, *_int_pair(obj.get("shape"), "shape"))
    return Ideal(ring, parse_polynomials(obj.get("gens"), field))


# ---------------------------------------------------------------------------
# Ladder determinantal ideals


def minors_in_ladder(L: Ladder, t: int) -> list[Minor]:
    """All t-minors whose full submatrix lies inside the ladder."""
    if t < 1:
        raise ValueError(f"minor size must be positive: {t}")
    k, l = L.shape
    rows_present = sorted({i for i, _ in L.cells})
    cols_present = sorted({j for _, j in L.cells})
    out = []
    for rows in combinations(rows_present, t):
        _check_deadline()
        for cols in combinations(cols_present, t):
            # NE and SW corner cells bound the whole submatrix (corner lemma).
            if (rows[0], cols[-1]) in L.cells and (rows[-1], cols[0]) in L.cells:
                out.append(Minor(rows, cols))
    return out


def mixed_ladder_minors(L: Ladder, t) -> list[Minor]:
    """Deduplicated union of the generating minors over the subladders."""
    seen = {}
    for j, tj in enumerate(size_vector(t, len(L.lower)), start=1):
        for m in minors_in_ladder(L.subladder(j), tj):
            seen[(m.rows, m.cols)] = m
    return [seen[key] for key in sorted(seen)]


def mixed_ladder_ideal(L: Ladder, t, field: Field = QQ, ring: Ring | None = None) -> Ideal:
    """I_t(L): sum of the t_j-minor ideals of the subladders L_j."""
    ring = ring or ladder_ring(field, L)
    gens = [expand_minor(m, field, ring.packing) for m in mixed_ladder_minors(L, t)]
    return Ideal(ring, gens)


# ---------------------------------------------------------------------------
# Witness polynomials


EXPANSION_TERM_CAP = 200_000


def _check_expansion_size(factors) -> None:
    bound = 1
    for m in factors:
        bound *= factorial(m.size)
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


def minor_product_symbolic_degree(factors, t: int, ladder: Ladder | None = None) -> int:
    """Certified symbolic order of a product of minors in I_t.

    Each gamma x gamma determinant lies in the (gamma - t + 1)-st symbolic
    power, so the product lies in I_t^(n) for n the sum of those counts.
    Exact for the unmixed generic/ladder witnesses; for mixed sizes this is
    a sufficient condition only.  ValueError when t is below 1.
    """
    if t < 1:
        raise ValueError(f"minor size t must be at least 1, got {t}")
    total = 0
    for m in factors:
        if ladder is not None and not all(cell in ladder.cells for cell in m.cells()):
            raise ValueError(f"factor {m} not contained in the ladder")
        total += max(m.size - t + 1, 0)
    return total


def f_witness_factors(L: Ladder, t) -> tuple[Minor, ...]:
    """The antidiagonal determinant factors det(Y_r), r in B."""
    return antidiagonal_profile(L, t).witness_factors


def f_witness(L: Ladder, t, field: Field = QQ) -> Polynomial:
    """Product of the profile determinants; lies in I_t(L)^(height)."""
    return minor_product(f_witness_factors(L, t), field)


def f_of_matrix(k: int, l: int, field: Field = QQ) -> Polynomial:
    """The full-grid witness: product of all NW, SE and full-band minors.

    Its leading term under any antidiagonal order is the product of every
    grid variable.
    """
    return minor_product(f_of_matrix_factors(k, l), field)


def f_of_matrix_factors(k: int, l: int) -> tuple[Minor, ...]:
    if k > l:
        return tuple(Minor(m.cols, m.rows) for m in f_of_matrix_factors(l, k))
    factors = []
    for size in range(1, k):
        factors.append(Minor(tuple(range(1, size + 1)), tuple(range(1, size + 1))))
        factors.append(Minor(tuple(range(k - size + 1, k + 1)), tuple(range(l - size + 1, l + 1))))
    for j in range(1, l - k + 2):
        factors.append(Minor(tuple(range(1, k + 1)), tuple(range(j, k + j))))
    return tuple(factors)


class GWitnessError(LadderError):
    pass


@dataclass(frozen=True)
class GWitnessData:
    alpha: int
    beta: int
    y_minor: Minor
    factors: tuple[Minor, ...]   # det(Y) first, then det(Y_r) for r in B'
    lead: Monomial               # product of the factors' antidiagonals
    count: int                   # combinatorial symbolic degree, = height - 1


def g_witness_data(L: Ladder, t) -> GWitnessData:
    """Locate the strong-F-regularity witness g = det(Y) * prod det(Y_r).

    The distinguished level beta is the antidiagonal through the lowest
    corner in column c_alpha; it is located by its stated properties
    (beta in B, b_beta = k, p_beta = v) and the construction is verified:
    squarefree lead avoiding x[k, c_alpha], counts adding to height - 1.
    """
    t = size_vector(t, len(L.lower))
    if t[-1] == 1:
        raise GWitnessError("t_v = 1: the witness construction needs t_v > 1")
    k, l = L.shape
    alpha = None
    for j, (d, c) in enumerate(L.lower, start=1):
        if d == k:
            alpha = j
            break
    if alpha is None:
        raise GWitnessError("no lower corner in the last row")
    c_alpha = L.lower[alpha - 1][1]

    profile = antidiagonal_profile(L, t)
    beta = k + c_alpha
    if beta not in profile.b_levels:
        candidates = [ld.r for ld in profile.levels
                      if ld.r in profile.b_levels and ld.b == k and ld.p == len(t)]
        if not candidates:
            raise GWitnessError(f"no admissible level with b_r = {k} and p_r = {len(t)}")
        beta = candidates[0]
    ld = profile.level(beta)
    if ld.b != k or ld.p != len(t):
        raise GWitnessError(f"level {beta} fails b_beta = k, p_beta = v: got b={ld.b}, p={ld.p}")

    a_beta = ld.a
    y_rows = tuple(range(a_beta, k))
    y_cols = tuple(range(c_alpha + 1, beta - a_beta + 1))
    if not y_rows or len(y_rows) != len(y_cols):
        raise GWitnessError(f"degenerate Y block rows={y_rows} cols={y_cols}")
    y_minor = Minor(y_rows, y_cols)
    if not all(cell in L.cells for cell in y_minor.cells()):
        raise GWitnessError("Y block leaves the ladder")

    rest = tuple(m for r, m in zip(profile.b_levels, profile.witness_factors) if r != beta)
    factors = (y_minor,) + rest
    lead = mono(*((grid_var(i, j), 1) for m in factors for i, j in m.antidiagonal_cells()))
    if not mono_is_squarefree(lead.value):
        raise GWitnessError("witness lead is not squarefree")
    if grid_var(k, c_alpha) in lead.packing.shift:
        raise GWitnessError(f"witness lead divisible by x[{k},{c_alpha}]")
    if len(set(t)) == 1:
        count = minor_product_symbolic_degree(list(factors), t[0])
        h = height(L, t)
        if count != h - 1:
            raise GWitnessError(f"witness symbolic degree {count} != height-1 = {h - 1}")
    else:
        count = (ld.gamma - t[-1]) + sum(c for r, c in zip(profile.b_levels, profile.counts) if r != beta)
    return GWitnessData(alpha, beta, y_minor, factors, lead, count)


def g_witness(L: Ladder, t, field: Field = QQ) -> Polynomial:
    return minor_product(g_witness_data(L, t).factors, field)


# ---------------------------------------------------------------------------
# Matrix Schubert ideals


@dataclass(frozen=True)
class PartialPermutation:
    """A 0/1 matrix with at most one 1 in each row and column."""

    shape: tuple[int, int]
    ones: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))
        object.__setattr__(self, "ones", frozenset(map(tuple, self.ones)))
        k, l = self.shape
        if k < 1 or l < 1:
            raise ValueError(f"bad shape {self.shape}")
        rows = [i for i, _ in self.ones]
        cols = [j for _, j in self.ones]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("partial permutation has two ones in a row or column")
        if any(not (1 <= i <= k and 1 <= j <= l) for i, j in self.ones):
            raise ValueError("one outside the grid")

    @classmethod
    def from_one_line(cls, word, shape=None) -> "PartialPermutation":
        """Permutation in one-line notation: w[i] = column of the 1 in row i."""
        word = list(word)
        n = len(word)
        shape = shape or (n, n)
        return cls(shape, frozenset((i + 1, w) for i, w in enumerate(word) if w))

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
    ring = grid_ring(field, k, l)
    seen = {}
    for (r, s, rho) in schubert_rank_conditions(w):
        size = rho + 1
        for rows in combinations(range(1, r + 1), size):
            for cols in combinations(range(1, s + 1), size):
                seen[(rows, cols)] = Minor(rows, cols)
    gens = [expand_minor(seen[key], field, ring.packing) for key in sorted(seen)]
    return Ideal(ring, gens)


# ---------------------------------------------------------------------------
# Corner ideals and the poset of minors


def corner_minors(k: int, l: int, t: int, r: int, s: int, which: str = "nw") -> list[Minor]:
    if t < 1 or t > min(r, s):
        raise ValueError(f"no {t}-minors in a {r}x{s} corner")
    if which == "nw":
        row_range, col_range = range(1, r + 1), range(1, s + 1)
    elif which == "se":
        row_range, col_range = range(k - r + 1, k + 1), range(l - s + 1, l + 1)
    else:
        raise ValueError("which must be 'nw' or 'se'")
    return [Minor(rows, cols)
            for rows in combinations(row_range, t)
            for cols in combinations(col_range, t)]


def corner_ideal(k: int, l: int, t: int, r: int, s: int, which: str = "nw",
                 field: Field = QQ, ring: Ring | None = None) -> Ideal:
    """t-minors of the NW (or SE) r x s corner submatrix."""
    ring = ring or grid_ring(field, k, l)
    return Ideal(ring, [expand_minor(m, field, ring.packing)
                        for m in corner_minors(k, l, t, r, s, which)])


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
    out = []
    for size in range(1, min(k, l) + 1):
        for rows in combinations(range(1, k + 1), size):
            for cols in combinations(range(1, l + 1), size):
                out.append(Minor(rows, cols))
    return out


def minor_leq(a: Minor, b: Minor) -> bool:
    """a <= b in the poset: a at least as large, indices componentwise <=."""
    if a.size < b.size:
        return False
    return all(a.rows[i] <= b.rows[i] and a.cols[i] <= b.cols[i] for i in range(b.size))


def omega_delta_set(k: int, l: int, delta: Minor) -> list[Minor]:
    """The ideal of the poset cogenerated by delta: all minors not >= delta."""
    return [pi for pi in minor_poset(k, l) if not minor_leq(delta, pi)]


def is_poset_ideal(k: int, l: int, omega) -> bool:
    omega_set = {(m.rows, m.cols) for m in omega}
    return all(
        (pi.rows, pi.cols) in omega_set
        for m in omega
        for pi in minor_poset(k, l)
        if minor_leq(pi, m)
    )


def is_generalized_poset_ideal(k: int, l: int, omega) -> bool:
    omega_set = {(m.rows, m.cols) for m in omega}
    for m in omega:
        r, s = m.rows[-1], m.cols[-1]
        for pi in minor_poset(k, l):
            if pi.rows[-1] <= r and pi.cols[-1] <= s and minor_leq(pi, m):
                if (pi.rows, pi.cols) not in omega_set:
                    return False
    return True


def omega_delta_ideal(k: int, l: int, delta: Minor, field: Field = QQ,
                      ring: Ring | None = None) -> Ideal:
    """Sum formula for the cogenerated poset ideal: column strips, row
    strips, and all (r+1)-minors."""
    _check_in_grid(k, l, [delta])
    ring = ring or grid_ring(field, k, l)
    seen = {}
    r = delta.size
    for tt in range(1, r + 1):
        jt = delta.cols[tt - 1]
        it = delta.rows[tt - 1]
        if jt > 1 and tt <= k:
            for rows in combinations(range(1, k + 1), tt):
                for cols in combinations(range(1, jt), tt):
                    seen[(rows, cols)] = Minor(rows, cols)
        if it > 1 and tt <= l:
            for rows in combinations(range(1, it), tt):
                for cols in combinations(range(1, l + 1), tt):
                    seen[(rows, cols)] = Minor(rows, cols)
    if r + 1 <= min(k, l):
        for rows in combinations(range(1, k + 1), r + 1):
            for cols in combinations(range(1, l + 1), r + 1):
                seen[(rows, cols)] = Minor(rows, cols)
    return Ideal(ring, [expand_minor(seen[key], field, ring.packing) for key in sorted(seen)])


@dataclass(frozen=True)
class PosetIdealSpec:
    """Either an explicit downward-closed set, a cogenerator list, or a
    generalized-ideal generator list."""

    kind: str  # "explicit" | "cogenerators" | "generalized"
    minors: tuple[Minor, ...]

    def __post_init__(self):
        if self.kind not in ("explicit", "cogenerators", "generalized"):
            raise ValueError(f"unknown poset spec kind: {self.kind}")
        object.__setattr__(self, "minors", tuple(self.minors))


def poset_ideal(k: int, l: int, spec: PosetIdealSpec, field: Field = QQ,
                ring: Ring | None = None) -> Ideal:
    """The ideal of k[X] generated by an ideal of the poset of minors."""
    _check_in_grid(k, l, spec.minors)
    ring = ring or grid_ring(field, k, l)
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
    return Ideal(ring, [expand_minor(m, field, ring.packing) for m in
                        sorted(omega, key=lambda m: (m.rows, m.cols))])


def poset_ideal_brute(k: int, l: int, delta: Minor, field: Field = QQ,
                      ring: Ring | None = None) -> Ideal:
    """Brute-force cogenerated ideal: materialize the complement directly."""
    _check_in_grid(k, l, [delta])
    ring = ring or grid_ring(field, k, l)
    return Ideal(ring, [expand_minor(m, field, ring.packing)
                        for m in omega_delta_set(k, l, delta)])


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
