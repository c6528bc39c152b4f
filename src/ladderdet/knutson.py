"""Derivation trees witnessing membership in the Knutson family of a
squarefree-lead witness polynomial, with an engine-backed verifier.

A derivation combines principal ideals of witness factors (leaves) with
sums, intersections, colons, and minimal-prime claims.  Evaluation and
verification share one post-order walk over the distinct nodes of a tree.
The verifier checks, node by node: squarefree initial ideals, the
Groebner-union property at sums, and containment plus height agreement at
minimal-prime claims (primeness itself is an assumption recorded in the
report, not re-proved).  Claims built by the ladder and corner constructors
also carry the band intersection identity they rely on: it names only the
other factor, the first being the claim itself, and the verifier recomputes
child == claimed cap other.

Every leaf is a witness factor det(Y_r) of `ladders.antidiagonal_profile`:
the ladder's own for `ladder_derivation`, the full grid's at t = 1 for
`corner_derivation`.  A base case, a band or corner whose t-minors are a
complete intersection, sums the factors of the levels whose antidiagonal
has exactly t cells in it (`_full_levels`).
"""

from __future__ import annotations

import functools
import json

from .fields import QQ, Field, parse_field
from .groebner import Ideal, Ring, is_groebner_basis
from .ideals import cells_from_json, corner_ladder, ladder_ring, minors_in_ladder
from .ladders import Ladder, antidiagonal_profile, diagonal_rows, size_vector
from .poly import (
    ANTIDIAG,
    Packing,
    Polynomial,
    expand_minor,
    parse_polynomial,
    parse_polynomials,
    poly_to_str,
)
from .record import Record, set_field


class DerivationError(ValueError):
    pass


class Leaf(Record):
    __slots__ = ("factor",)
    _fields = ("factor", "kind")
    kind = "leaf"

    def __init__(self, factor: Polynomial):
        set_field(self, "factor", factor)


class Sum(Record):
    __slots__ = ("children",)
    _fields = ("children", "kind")
    kind = "sum"

    def __init__(self, children: tuple):
        set_field(self, "children", children)


class Intersect(Record):
    __slots__ = ("children",)
    _fields = ("children", "kind")
    kind = "intersect"

    def __init__(self, children: tuple):
        set_field(self, "children", children)


class MinimalPrimeClaim(Record):
    __slots__ = ("child", "claimed", "identity", "label")
    _fields = ("child", "claimed", "identity", "label", "kind")
    kind = "min_prime"

    def __init__(self, child, claimed: tuple[Polynomial, ...], identity: tuple | None = None,
                 label: str = ""):
        # Optional recorded identity for eval(child):
        #   ("intersect", other_gens): child equals Ideal(claimed) cap Ideal(other)
        #   ("equal",): child equals the claimed ideal itself
        set_field(self, "child", child)
        set_field(self, "claimed", claimed)
        set_field(self, "identity", identity)
        set_field(self, "label", label)


class Colon(Record):
    __slots__ = ("child", "divisor")
    _fields = ("child", "divisor", "kind")
    kind = "colon"

    def __init__(self, child, divisor: tuple[Polynomial, ...]):
        set_field(self, "child", child)
        set_field(self, "divisor", divisor)


class KnutsonDerivation(Record):
    __slots__ = ("ring", "f_factors", "root", "label")

    def __init__(self, ring: Ring, f_factors: tuple[Polynomial, ...], root: object,
                 label: str = ""):
        set_field(self, "ring", ring)
        set_field(self, "f_factors", f_factors)
        set_field(self, "root", root)
        set_field(self, "label", label)

    def eval(self) -> Ideal:
        return eval_node(self.root, self.ring, {})


def _post_order(root) -> list:
    """The distinct nodes under `root` (keyed by id), each after its children,
    in the order a left-to-right depth-first walk first finishes them."""
    order, done, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        if expanded:
            done.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        if node.kind in ("sum", "intersect"):
            stack.extend((ch, False) for ch in reversed(node.children))
        elif node.kind in ("min_prime", "colon"):
            stack.append((node.child, False))
    return order


def _eval_step(node, ring: Ring, cache: dict) -> Ideal:
    """The ideal of `node`, its children's ideals already in `cache`."""
    kind = node.kind
    if kind == "leaf":
        return Ideal(ring, [node.factor])
    if kind == "sum":
        return Ideal(ring, [g for ch in node.children for g in cache[id(ch)].gens])
    if kind == "intersect":
        out = cache[id(node.children[0])]
        for ch in node.children[1:]:
            out = out.intersect(cache[id(ch)])
        return out
    if kind == "min_prime":
        return Ideal(ring, list(node.claimed))
    if kind == "colon":
        return cache[id(node.child)].colon(Ideal(ring, list(node.divisor)))
    raise DerivationError(f"unknown node kind: {kind}")


def eval_node(node, ring: Ring, cache: dict) -> Ideal:
    """Evaluate a derivation node to an ideal; `cache` maps id(node) to the
    ideals already evaluated, and gains every node under `node`."""
    for sub in _post_order(node):
        if id(sub) not in cache:
            cache[id(sub)] = _eval_step(sub, ring, cache)
    return cache[id(node)]


# ---------------------------------------------------------------------------
# Verification


class VerifyLine(Record):
    __slots__ = ("node", "check", "ok", "detail")

    def __init__(self, node: str, check: str, ok: bool, detail: str = ""):
        set_field(self, "node", node)
        set_field(self, "check", check)
        set_field(self, "ok", ok)
        set_field(self, "detail", detail)


class VerifyReport(Record):
    __slots__ = ("ok", "lines")

    def __init__(self, ok: bool, lines: tuple[VerifyLine, ...]):
        set_field(self, "ok", ok)
        set_field(self, "lines", lines)

    def as_text(self) -> str:
        out = [f"verified={'yes' if self.ok else 'NO'} ({len(self.lines)} checks)"]
        for ln in self.lines:
            mark = "ok " if ln.ok else "FAIL"
            suffix = f" -- {ln.detail}" if ln.detail else ""
            out.append(f"  [{mark}] {ln.node}: {ln.check}{suffix}")
        return "\n".join(out)


def verify(deriv: KnutsonDerivation) -> VerifyReport:
    """Run every structural check on every node of the derivation."""
    ring = deriv.ring
    cache: dict = {}
    lines: list[VerifyLine] = []
    # The witness factors, monic and in the ring's packing, so that a leaf is
    # compared with them term by term.
    packing = ring.packing
    factors = []
    for f in deriv.f_factors:
        try:
            factors.append(f.repack(packing).monic(ANTIDIAG))
        except ValueError:  # over variables outside the ring: it is no leaf's factor
            pass

    for index, node in enumerate(_post_order(deriv.root)):
        name = f"{node.kind}#{index}"
        ideal = cache[id(node)] = _eval_step(node, ring, cache)

        if ideal.is_zero:
            lines.append(VerifyLine(name, "squarefree-initial", True, "zero ideal"))
        else:
            init = ideal.initial_ideal(ANTIDIAG)
            lines.append(
                VerifyLine(name, "squarefree-initial", init.is_squarefree(),
                           f"{len(init.gens)} lead monomials")
            )

        if node.kind == "leaf":
            ok = node.factor.repack(packing).monic(ANTIDIAG) in factors
            lines.append(VerifyLine(name, "leaf-is-witness-factor", ok))
        elif node.kind == "sum":
            union = [g for ch in node.children for g in cache[id(ch)].groebner_basis(ANTIDIAG)]
            ok = is_groebner_basis(union, ANTIDIAG)
            lines.append(VerifyLine(name, "groebner-union", ok, f"{len(union)} basis elements"))
        elif node.kind == "min_prime":
            child_ideal = cache[id(node.child)]
            claimed = ideal
            ok_containment = claimed.contains_ideal(child_ideal)
            lines.append(VerifyLine(name, "claim-contains-child", ok_containment, node.label))
            if node.identity is None:
                # Complete-intersection style certificate: equal heights force
                # the claimed prime down onto a minimal component (unmixedness
                # of the child, catenarity of the polynomial ring).
                if ok_containment and not child_ideal.is_zero:
                    dim_child = child_ideal.initial_ideal(ANTIDIAG).dim()
                    dim_claim = claimed.initial_ideal(ANTIDIAG).dim()
                    lines.append(
                        VerifyLine(name, "height-equality", dim_child == dim_claim,
                                   f"dim child={dim_child} claim={dim_claim}")
                    )
            elif node.identity[0] == "intersect":
                # The child decomposes as claimed cap other; the claim is a
                # minimal component iff the other factor does not sit inside it.
                other = Ideal(ring, list(node.identity[1]))
                lines.append(
                    VerifyLine(name, "band-intersection-identity",
                               child_ideal.equal(claimed.intersect(other)))
                )
                minimal = (not claimed.contains_ideal(other)) or claimed.equal(other)
                lines.append(
                    VerifyLine(name, "claim-is-minimal-component", minimal,
                               "other intersection factor not inside the claim")
                )
            elif node.identity[0] == "equal":
                lines.append(
                    VerifyLine(name, "band-sum-equality", child_ideal.equal(claimed))
                )
            lines.append(VerifyLine(name, "primeness", True,
                                    "assumed: ladder/corner determinantal ideals are prime"))

    return VerifyReport(all(ln.ok for ln in lines), tuple(lines))


# ---------------------------------------------------------------------------
# Band machinery shared by the ladder and corner theorems


def _full_levels(block: Ladder, t: int) -> list[int]:
    """The levels r, ascending, whose antidiagonal has exactly t cells in the
    block."""
    return [r for r in range(2, sum(block.shape) + 1)
            for first, last in [diagonal_rows(block.spans, r)] if last - first + 1 == t]


def _band_deriver(L: Ladder, t: int, field: Field, factor_polys: dict[int, Polynomial],
                  packing: Packing):
    """`derive(axis, lo, hi)`: the derivation of I_t of the row or column band
    [lo, hi] of L (None for the zero ideal), sharing nodes across overlapping
    windows.  A band at most t wide is a base case: the sum of the witness
    factors of its `_full_levels`.  `factor_polys` maps a level to its
    expanded witness factor det(Y_r); `packing` is the ring's."""

    def expand(minors):
        return tuple(expand_minor(m, field, packing) for m in minors)

    @functools.cache
    def derive(axis: str, lo: int, hi: int):
        band = L.band(axis, lo, hi)
        minors = minors_in_ladder(band, t)
        if not minors:
            return None
        claimed = expand(minors)
        if hi - lo + 1 <= t:
            levels = _full_levels(band, t)
            if not levels:
                raise DerivationError(f"no full antidiagonal slice in {axis} band [{lo},{hi}]")
            missing = [r for r in levels if r not in factor_polys]
            if missing:
                raise DerivationError(f"level {missing[0]} has no witness factor in the profile")
            leaves = [Leaf(factor_polys[r]) for r in levels]
            summed = Sum(tuple(leaves)) if len(leaves) > 1 else leaves[0]
            return MinimalPrimeClaim(summed, claimed, None, f"I_{t}({axis}[{lo},{hi}]) base")
        left = derive(axis, lo, hi - 1)
        right = derive(axis, lo + 1, hi)
        if left is None and right is None:
            raise DerivationError("wide band nonzero but both narrow bands vanish")
        if left is None or right is None:
            # The missing window forces every minor into the other one.
            return left if right is None else right
        if t > 1:
            inner = minors_in_ladder(L.band(axis, lo + 1, hi - 1), t - 1)
            identity = ("intersect", expand(inner))
        else:
            identity = ("equal",)
        return MinimalPrimeClaim(Sum((left, right)), claimed, identity,
                                 f"I_{t}({axis}[{lo},{hi}])")

    return derive


def ladder_derivation(L: Ladder, t, field: Field = QQ) -> KnutsonDerivation:
    """Derivation of the unmixed ladder ideal from the witness factors.

    t is read as `size_vector` reads it; mixed sizes raise DerivationError.
    """
    sizes = set(size_vector(t, len(L.lower)))
    if len(sizes) != 1:
        raise DerivationError("the ladder derivation handles unmixed sizes only")
    (t,) = sizes
    ring = ladder_ring(field, L)
    if not minors_in_ladder(L, t):
        raise DerivationError(f"I_{t} of this ladder is the zero ideal")
    profile = antidiagonal_profile(L, t)
    factor_polys = {ld.r: expand_minor(ld.minor, field, ring.packing) for ld in profile.witness}
    root = _band_deriver(L, t, field, factor_polys, ring.packing)("cols", *L.columns)
    if root is None:
        raise DerivationError("empty derivation")
    return KnutsonDerivation(ring, tuple(factor_polys.values()), root,
                             label=f"ladder I_{t}")


def corner_derivation(k: int, l: int, t: int, r: int, s: int,
                      field: Field = QQ, which: str = "nw") -> KnutsonDerivation:
    """Derivation of I_t of a NW or SE corner submatrix of the full grid."""
    if which not in ("nw", "se"):
        raise DerivationError("which must be 'nw' or 'se'")
    if not (1 <= r <= k and 1 <= s <= l) or t < 1 or t > min(r, s):
        raise DerivationError(f"corner parameters outside the grid: t={t} r={r} s={s}")
    ring = Ring.for_grid(field, k, l)
    L = Ladder.full(k, l)

    # The full grid's t = 1 witness has a factor at every level; by (gamma, r)
    # they run NW 1, SE 1, NW 2, SE 2, ..., then the full-width bands.
    witness = sorted(antidiagonal_profile(L, 1).witness, key=lambda ld: (ld.gamma, ld.r))
    level_polys = {ld.r: expand_minor(ld.minor, field, ring.packing) for ld in witness}

    @functools.cache
    def band_deriver(tt: int):
        return _band_deriver(L, tt, field, level_polys, ring.packing)

    @functools.cache
    def derive(tt: int, rr: int, ss: int):
        if rr == k or ss == l:
            # The corner is a whole column (or row) band of the grid.
            axis, n, width = ("cols", l, ss) if rr == k else ("rows", k, rr)
            lo, hi = (1, width) if which == "nw" else (n - width + 1, n)
            node = band_deriver(tt)(axis, lo, hi)
            if node is None:
                raise DerivationError(f"zero band ideal for t={tt} {axis}[{lo},{hi}]")
            return node
        corner = corner_ladder(k, l, rr, ss, which)
        claimed = tuple(expand_minor(m, field, ring.packing) for m in minors_in_ladder(corner, tt))
        if tt == min(rr, ss):
            levels = _full_levels(corner, tt)
            # SE lists its levels descending: it mirrors NW position by position.
            leaves = [Leaf(level_polys[v]) for v in (levels if which == "nw" else levels[::-1])]
            child = Sum(tuple(leaves)) if len(leaves) > 1 else leaves[0]
            return MinimalPrimeClaim(child, claimed, None,
                                     f"D1 base for I_{tt}({which} {rr}x{ss})")
        children = (
            derive(tt, rr - 1, ss),
            derive(tt, rr, ss - 1),
            derive(tt + 2, rr + 1, ss + 1),
        )
        return MinimalPrimeClaim(Sum(children), claimed, None,
                                 f"D2 step for I_{tt}({which} {rr}x{ss})")

    root = derive(t, r, s)
    return KnutsonDerivation(ring, tuple(level_polys.values()), root,
                             label=f"corner I_{t}({which} {r}x{s})")


# ---------------------------------------------------------------------------
# JSON replay


def _node_to_obj(node):
    kind = node.kind
    if kind == "leaf":
        return {"kind": "leaf", "factor": poly_to_str(node.factor)}
    if kind in ("sum", "intersect"):
        return {"kind": kind, "children": [_node_to_obj(ch) for ch in node.children]}
    if kind == "min_prime":
        obj = {
            "kind": "min_prime",
            "child": _node_to_obj(node.child),
            "claimed": [poly_to_str(g) for g in node.claimed],
            "label": node.label,
        }
        if node.identity is None:
            obj["identity"] = None
        elif node.identity[0] == "intersect":
            # "a", the first factor, is always the claim.  It is still written
            # so that the file format (and every file already written) stays
            # the same, but it is never read: the verifier uses "claimed".
            obj["identity"] = {
                "kind": "intersect",
                "a": obj["claimed"],
                "b": [poly_to_str(g) for g in node.identity[1]],
            }
        else:
            obj["identity"] = {"kind": "equal"}
        return obj
    if kind == "colon":
        return {
            "kind": "colon",
            "child": _node_to_obj(node.child),
            "divisor": [poly_to_str(g) for g in node.divisor],
        }
    raise DerivationError(f"unknown node kind: {kind}")


def _node_from_obj(obj, field: Field):
    kind = obj["kind"]
    if kind == "leaf":
        return Leaf(parse_polynomial(obj["factor"], field))
    if kind == "sum":
        return Sum(tuple(_node_from_obj(ch, field) for ch in obj["children"]))
    if kind == "intersect":
        return Intersect(tuple(_node_from_obj(ch, field) for ch in obj["children"]))
    if kind == "min_prime":
        ident = obj.get("identity")
        identity = None
        if ident:
            if ident["kind"] == "intersect":
                identity = ("intersect", tuple(parse_polynomials(ident["b"], field)))
            else:
                identity = ("equal",)
        return MinimalPrimeClaim(
            _node_from_obj(obj["child"], field),
            tuple(parse_polynomials(obj["claimed"], field)),
            identity,
            obj.get("label", ""),
        )
    if kind == "colon":
        return Colon(
            _node_from_obj(obj["child"], field),
            tuple(parse_polynomials(obj["divisor"], field)),
        )
    raise DerivationError(f"unknown node kind in JSON: {kind}")


def derivation_to_obj(deriv: KnutsonDerivation) -> dict:
    """The derivation as the JSON object of its file."""
    field = deriv.ring.field
    return {
        "field": "q" if field.p is None else f"fp:{field.p}",
        "cells": sorted([v.i, v.j] for v in deriv.ring.variables if not v.is_aux),
        "f_factors": [poly_to_str(f) for f in deriv.f_factors],
        "label": deriv.label,
        "root": _node_to_obj(deriv.root),
    }


def derivation_to_json(deriv: KnutsonDerivation) -> str:
    return json.dumps(derivation_to_obj(deriv))


def derivation_from_json(text: str) -> KnutsonDerivation:
    """A derivation file as written by `derivation_to_json`; polynomials are
    strings and cells pairs of integers.  ValueError, KeyError or TypeError
    on a malformed file."""
    obj = json.loads(text)
    field = parse_field(obj["field"])
    ring = Ring.for_cells(field, cells_from_json(obj["cells"]))
    factors = tuple(parse_polynomials(obj["f_factors"], field))
    root = _node_from_obj(obj["root"], field)
    return KnutsonDerivation(ring, factors, root, obj.get("label", ""))
