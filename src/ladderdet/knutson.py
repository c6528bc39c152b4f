"""Derivation trees witnessing membership in the Knutson family of a
squarefree-lead witness polynomial, with an engine-backed verifier.

A derivation combines principal ideals of witness factors (leaves) with
sums, intersections, colons, and minimal-prime claims.  The verifier
checks, node by node: squarefree initial ideals, the Groebner-union
property at sums, and containment plus height agreement at minimal-prime
claims (primeness itself is an assumption recorded in the report, not
re-proved).  Claims built by the ladder and corner constructors also
carry the band intersection identity they rely on, and the verifier
recomputes it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .fields import QQ, Field, parse_field
from .groebner import Ideal, Ring, is_groebner_basis
from .ideals import (
    cells_from_json,
    corner_minors,
    f_of_matrix_factors,
    grid_ring,
    ladder_ring,
    minors_in_ladder,
)
from .ladders import Ladder, antidiagonal_profile
from .poly import (
    ANTIDIAG,
    Packing,
    Polynomial,
    expand_minor,
    parse_polynomial,
    parse_polynomials,
    poly_to_str,
)


class DerivationError(ValueError):
    pass


@dataclass(frozen=True)
class Leaf:
    factor: Polynomial
    kind: str = dc_field(default="leaf", init=False)


@dataclass(frozen=True)
class Sum:
    children: tuple
    kind: str = dc_field(default="sum", init=False)


@dataclass(frozen=True)
class Intersect:
    children: tuple
    kind: str = dc_field(default="intersect", init=False)


@dataclass(frozen=True)
class MinimalPrimeClaim:
    child: object
    claimed: tuple[Polynomial, ...]
    # Optional recorded identity for eval(child):
    #   ("intersect", gens_a, gens_b): child equals Ideal(a) cap Ideal(b)
    #   ("equal",): child equals the claimed ideal itself
    identity: tuple | None = None
    label: str = ""
    kind: str = dc_field(default="min_prime", init=False)


@dataclass(frozen=True)
class Colon:
    child: object
    divisor: tuple[Polynomial, ...]
    kind: str = dc_field(default="colon", init=False)


@dataclass(frozen=True)
class KnutsonDerivation:
    ring: Ring
    f_factors: tuple[Polynomial, ...]
    root: object
    label: str = ""

    def eval(self) -> Ideal:
        return eval_node(self.root, self.ring, {})


def eval_node(node, ring: Ring, cache: dict) -> Ideal:
    """Evaluate a derivation node to an ideal (memoized per tree walk)."""
    key = id(node)
    if key in cache:
        return cache[key]
    kind = node.kind
    if kind == "leaf":
        out = Ideal(ring, [node.factor])
    elif kind == "sum":
        out = Ideal(ring, [g for ch in node.children for g in eval_node(ch, ring, cache).gens])
    elif kind == "intersect":
        parts = [eval_node(ch, ring, cache) for ch in node.children]
        out = parts[0]
        for part in parts[1:]:
            out = out.intersect(part)
    elif kind == "min_prime":
        eval_node(node.child, ring, cache)
        out = Ideal(ring, list(node.claimed))
    elif kind == "colon":
        out = eval_node(node.child, ring, cache).colon(Ideal(ring, list(node.divisor)))
    else:
        raise DerivationError(f"unknown node kind: {kind}")
    cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class VerifyLine:
    node: str
    check: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    lines: tuple[VerifyLine, ...]

    def as_text(self) -> str:
        out = [f"verified={'yes' if self.ok else 'NO'} ({len(self.lines)} checks)"]
        for ln in self.lines:
            mark = "ok " if ln.ok else "FAIL"
            suffix = f" -- {ln.detail}" if ln.detail else ""
            out.append(f"  [{mark}] {ln.node}: {ln.check}{suffix}")
        return "\n".join(out)


def _node_name(node, index: int) -> str:
    return f"{node.kind}#{index}"


def verify(deriv: KnutsonDerivation) -> VerifyReport:
    """Run every structural check on every node of the derivation."""
    ring = deriv.ring
    cache: dict = {}
    lines: list[VerifyLine] = []
    factors = {f.monic(ANTIDIAG) for f in deriv.f_factors}

    seen: dict[int, str] = {}
    order_counter = [0]

    def walk(node):
        if id(node) in seen:
            return
        for ch in getattr(node, "children", ()) or ():
            walk(ch)
        if hasattr(node, "child"):
            walk(node.child)
        name = _node_name(node, order_counter[0])
        order_counter[0] += 1
        seen[id(node)] = name
        ideal = eval_node(node, ring, cache)

        if ideal.is_zero:
            lines.append(VerifyLine(name, "squarefree-initial", True, "zero ideal"))
        else:
            init = ideal.initial_ideal(ANTIDIAG)
            lines.append(
                VerifyLine(name, "squarefree-initial", init.is_squarefree(),
                           f"{len(init.gens)} lead monomials")
            )

        if node.kind == "leaf":
            ok = node.factor.monic(ANTIDIAG) in factors
            lines.append(VerifyLine(name, "leaf-is-witness-factor", ok))
        elif node.kind == "sum":
            union = [g for ch in node.children for g in eval_node(ch, ring, cache).groebner_basis(ANTIDIAG)]
            ok = is_groebner_basis(union, ANTIDIAG)
            lines.append(VerifyLine(name, "groebner-union", ok, f"{len(union)} basis elements"))
        elif node.kind == "min_prime":
            child_ideal = eval_node(node.child, ring, cache)
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
                _, gens_a, gens_b = node.identity
                other = Ideal(ring, list(gens_b))
                rhs = Ideal(ring, list(gens_a)).intersect(other)
                lines.append(
                    VerifyLine(name, "band-intersection-identity", child_ideal.equal(rhs))
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

    walk(deriv.root)
    return VerifyReport(all(ln.ok for ln in lines), tuple(lines))


# ---------------------------------------------------------------------------
# Band machinery shared by the ladder and corner theorems


def _level_cells(L: Ladder, r: int):
    k, l = L.shape
    return [(i, r - i) for i in range(max(1, r - l), min(k, r - 1) + 1) if (i, r - i) in L.cells]


class _BandDeriver:
    """Builds derivations of I_t(L_{[a,b]}) (or row bands) from the t-wide
    base cases, sharing nodes across overlapping windows."""

    def __init__(self, L: Ladder, t: int, field: Field, factor_polys: dict[int, Polynomial],
                 packing: Packing):
        self.L = L
        self.t = t
        self.field = field
        self.factor_polys = factor_polys       # level -> expanded det(Y_r)
        self.packing = packing                 # of the derivation's ring
        self.memo: dict = {}

    def derive(self, axis: str, lo: int, hi: int):
        key = (axis, lo, hi)
        if key in self.memo:
            return self.memo[key]
        node = self._derive(axis, lo, hi)
        self.memo[key] = node
        return node

    def _derive(self, axis: str, lo: int, hi: int):
        t = self.t
        minors = minors_in_ladder(self.L.band(axis, lo, hi), t)
        if not minors:
            return None
        claimed = tuple(expand_minor(m, self.field, self.packing) for m in minors)
        if hi - lo + 1 <= t:
            return self._base(axis, lo, hi, claimed)
        left = self.derive(axis, lo, hi - 1)
        right = self.derive(axis, lo + 1, hi)
        if left is None and right is None:
            raise DerivationError("wide band nonzero but both narrow bands vanish")
        if left is None or right is None:
            # The missing window forces every minor into the other one.
            return left if right is None else right
        summed = Sum((left, right))
        if t > 1:
            inner = minors_in_ladder(self.L.band(axis, lo + 1, hi - 1), t - 1)
            identity = (
                "intersect",
                claimed,
                tuple(expand_minor(m, self.field, self.packing) for m in inner),
            )
        else:
            identity = ("equal",)
        label = f"I_{t}({axis}[{lo},{hi}])"
        return MinimalPrimeClaim(summed, claimed, identity, label)

    def _base(self, axis: str, lo: int, hi: int, claimed):
        t = self.t
        band = self.L.band(axis, lo, hi)
        levels = []
        for r in range(2, sum(self.L.shape) + 1):
            if len(_level_cells(band, r)) == t:
                levels.append(r)
        if not levels:
            raise DerivationError(f"no full antidiagonal slice in {axis} band [{lo},{hi}]")
        leaves = []
        for r in levels:
            poly = self.factor_polys.get(r)
            if poly is None:
                raise DerivationError(f"level {r} has no witness factor in the profile")
            leaves.append(Leaf(poly))
        summed = Sum(tuple(leaves)) if len(leaves) > 1 else leaves[0]
        label = f"I_{t}({axis}[{lo},{hi}]) base"
        return MinimalPrimeClaim(summed, claimed, None, label)


def ladder_derivation(L: Ladder, t: int, field: Field = QQ) -> KnutsonDerivation:
    """Derivation of the unmixed ladder ideal from the witness factors."""
    if not isinstance(t, int):
        raise DerivationError("the ladder derivation handles unmixed sizes only")
    if not minors_in_ladder(L, t):
        raise DerivationError(f"I_{t} of this ladder is the zero ideal")
    ring = ladder_ring(field, L)
    profile = antidiagonal_profile(L, t)
    factor_polys = {r: expand_minor(m, field, ring.packing)
                    for r, m in zip(profile.b_levels, profile.witness_factors)}
    deriver = _BandDeriver(L, t, field, factor_polys, ring.packing)
    cols = sorted({j for _, j in L.cells})
    root = deriver.derive("cols", cols[0], cols[-1])
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
    ring = grid_ring(field, k, l)
    L = Ladder.full(k, l)

    # Full-grid profile levels coincide with the witness factors.
    level_polys = {m.rows[0] + m.cols[-1]: expand_minor(m, field, ring.packing)
                   for m in f_of_matrix_factors(k, l)}

    memo: dict = {}

    def derive(tt: int, rr: int, ss: int):
        key = (tt, rr, ss)
        if key in memo:
            return memo[key]
        node = _derive(tt, rr, ss)
        memo[key] = node
        return node

    def band_node(tt: int, axis: str, lo: int, hi: int):
        deriver = _BandDeriver(L, tt, field, level_polys, ring.packing)
        node = deriver.derive(axis, lo, hi)
        if node is None:
            raise DerivationError(f"zero band ideal for t={tt} {axis}[{lo},{hi}]")
        return node

    def _derive(tt: int, rr: int, ss: int):
        claimed = tuple(expand_minor(m, field, ring.packing)
                        for m in corner_minors(k, l, tt, rr, ss, which))
        if which == "nw":
            if rr == k:
                return band_node(tt, "cols", 1, ss)
            if ss == l:
                return band_node(tt, "rows", 1, rr)
        else:
            if rr == k:
                return band_node(tt, "cols", l - ss + 1, l)
            if ss == l:
                return band_node(tt, "rows", k - rr + 1, k)
        m_, M_ = min(rr, ss), max(rr, ss)
        if tt == m_:
            leaves = [Leaf(level_polys[level]) for level in _d1_levels(k, l, m_, M_, which)]
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

    def _d1_levels(k, l, m_, M_, which):
        """Levels of the complete-intersection witness factors for D1."""
        # NW: a square of side `size` has level size+1; the j-th band of
        # min(k, l) rows (or columns), shifted by j, has level 1+j+min(k, l).
        levels = [1 + size for size in range(m_, min(M_, k, l) + 1)]
        levels += [1 + j + min(k, l) for j in range(1, M_ - min(M_, k, l) + 1)]
        # SE mirrors NW position by position.
        return levels if which == "nw" else [k + l + 2 - v for v in levels]

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
            obj["identity"] = {
                "kind": "intersect",
                "a": [poly_to_str(g) for g in node.identity[1]],
                "b": [poly_to_str(g) for g in node.identity[2]],
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
                identity = (
                    "intersect",
                    tuple(parse_polynomials(ident["a"], field)),
                    tuple(parse_polynomials(ident["b"], field)),
                )
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


def derivation_to_json(deriv: KnutsonDerivation) -> str:
    field = deriv.ring.field
    return json.dumps(
        {
            "field": "q" if not field.is_modular else f"fp:{field.p}",
            "cells": sorted([v.i, v.j] for v in deriv.ring.variables if not v.is_aux),
            "f_factors": [poly_to_str(f) for f in deriv.f_factors],
            "label": deriv.label,
            "root": _node_to_obj(deriv.root),
        }
    )


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
