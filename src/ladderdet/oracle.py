"""Splitting certificates, the saturation oracle for symbolic powers, Fedder
checks, and the initial-ideal comparison for symbolic powers."""

from __future__ import annotations

import json

from .groebner import Ideal, Ring
from .ideals import antidiagonal_lead, mixed_ladder_ideal
from .ladders import Ladder, antidiagonal_profile, size_vector
from .poly import (
    Monomial,
    Polynomial,
    check_variable_count,
    mono_is_squarefree,
    mono_max_exponent,
)
from .record import Check, Record


# ---------------------------------------------------------------------------
# The symbolic F-splitting certificate


class CertificateError(ValueError):
    pass


class SymbolicCertificate(Record):
    """Finite witness that the mixed ladder ideal is symbolic F-split:
    factors det(Y_r) with counts summing to the height, and a squarefree
    product of their antidiagonals as the leading monomial.  Each of
    `factors` is (Y_r, gamma_r, t_{p_r}, count); `checks` holds one `Check`
    per invariant."""

    __slots__ = ("ladder", "t", "h", "factors", "lead", "checks")

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(c for _, _, _, c in self.factors)

    def to_json(self) -> str:
        return json.dumps(
            {
                "h": self.h,
                "counts": list(self.counts),
                "factors": [
                    {"rows": list(m.rows), "cols": list(m.cols), "gamma": g, "t": tt, "count": c}
                    for m, g, tt, c in self.factors
                ],
                "lead": str(self.lead),
                "checks": {c.name: c.ok for c in self.checks},
            }
        )


def symbolic_fsplit_certificate(L: Ladder, t) -> SymbolicCertificate:
    """Build and verify the splitting certificate for (L, t).

    Raises CertificateError when any invariant fails, and InstanceTooLarge,
    before it packs the lead, when the factor sizes sum past `MAX_VARIABLES`.
    """
    t = size_vector(t, len(L.lower))
    profile = antidiagonal_profile(L, t)
    h = profile.interior_size
    # The factor sizes sum to the lead's variable count, the lead being
    # squarefree, as the certificate requires: refuse before building the
    # factors and packing the lead.
    check_variable_count(sum(ld.gamma for ld in profile.witness))
    factors = [(ld.minor, ld.gamma, t[ld.p - 1], ld.count) for ld in profile.witness]
    lead = antidiagonal_lead(m for m, _, _, _ in factors)

    counts = [c for _, _, _, c in factors]
    checks = (Check("counts_sum_to_height", sum(counts) == h),
              Check("lead_squarefree", mono_is_squarefree(lead.value)),
              Check("counts_nonnegative", all(c >= 0 for c in counts)))
    cert = SymbolicCertificate(L, t, h, tuple(factors), lead, checks)
    failed = [c.name for c in checks if not c.ok]
    if failed:
        raise CertificateError(f"certificate invariants failed: {failed}")
    return cert


# ---------------------------------------------------------------------------
# Saturation-based symbolic powers (tiny instances only)


SATURATION_MAX_VARS = 9
SATURATION_MAX_N = 3
SATURATION_MAX_DEGREE = 12


def symbolic_power_saturation(I: Ideal, n: int, strategy: Ideal) -> Ideal:
    """I^(n) as the saturation of I^n by the strategy ideal.

    Sound when the strategy cuts out the locus where I is not locally a
    complete intersection (for t-minors of a generic matrix: the ideal of
    (t-1)-minors).  Instance caps keep the Groebner work at desk scale.
    """
    if n < 1:
        raise ValueError("symbolic power wants n >= 1")
    if n > SATURATION_MAX_N:
        raise ValueError(f"saturation oracle is capped at n <= {SATURATION_MAX_N}")
    grid_vars = [v for v in I.ring.variables if not v.is_aux]
    if len(grid_vars) > SATURATION_MAX_VARS:
        raise ValueError(f"saturation oracle is capped at {SATURATION_MAX_VARS} variables")
    power = I.power(n)
    if any(g.degree() > SATURATION_MAX_DEGREE for g in power.gens):
        raise ValueError(f"saturation oracle is capped at degree {SATURATION_MAX_DEGREE}")
    saturated, _ = power.saturate(strategy)
    return saturated


def saturation_strategy(L: Ladder, t, ring: Ring) -> Ideal:
    """The ideal to saturate powers of I_t(L) by: I_{t-1}(L) for t > 1.

    t is read as `size_vector` reads it; mixed sizes raise ValueError.
    """
    sizes = set(size_vector(t, len(L.lower)))
    if len(sizes) != 1:
        raise ValueError("the saturation oracle handles unmixed sizes only")
    (t,) = sizes
    if t > 1:
        return mixed_ladder_ideal(L, t - 1, ring.field, ring)
    # The variable ideal is a complete intersection: nothing to saturate.
    return Ideal(ring, [Polynomial.one(ring.field)])


# ---------------------------------------------------------------------------
# Fedder-type F-purity check


def outside_frobenius_power_of_m(m: int, p: int) -> bool:
    """True iff the packed monomial m lies outside m^[p] = (x^p : x a
    variable), that is, every exponent of m is below p."""
    return mono_max_exponent(m) < p


def fedder_check(I: Ideal, p: int, candidate: Polynomial) -> bool:
    """True iff candidate lies in (I^[p] : I) but not in m^[p].

    A true answer certifies that the quotient by I is F-pure at p.
    """
    field = I.ring.field
    if field.p != p:
        raise ValueError(f"Fedder check needs coefficients in GF({p}), got {field}")
    if candidate.field != field:
        raise ValueError("candidate polynomial is over the wrong field")
    if candidate.is_zero:
        return False
    # Membership in the colon, generator by generator: c*g in I^[p] for all g.
    # c and its normal form r modulo I^[p] differ by an element of I^[p], so
    # c*g lies in I^[p] exactly when r*g does: c is reduced once, and each
    # product is formed from r.
    bracket = I.bracket(p)
    r = bracket.normal_form(candidate)
    for g in I.gens:
        if not bracket.contains(r * g):
            return False
    return any(outside_frobenius_power_of_m(m, p) for m in candidate.terms)


# ---------------------------------------------------------------------------
# Initial ideals of symbolic powers


class InitialCompareResult(Record):
    """in(I^(n)) against in(I)^(n): `left` is in(I^(n)) through the
    saturation oracle, `right` is in(I)^(n) through monomial symbolic powers,
    and `witness` is a monomial in the gap when they differ."""

    __slots__ = ("equal", "witness", "left", "right")


def initial_symbolic_compare(I: Ideal, n: int, *, strategy: Ideal) -> InitialCompareResult:
    """Compare in(I^(n)) with the n-th symbolic power of in(I), under the
    antidiagonal order.  I^(n) is the saturation of I^n by `strategy`
    (see `symbolic_power_saturation`), which has no default: the right
    ideal depends on I."""
    init = I.initial_ideal()
    if not init.is_squarefree():
        raise ValueError("initial ideal is not squarefree; comparison out of scope")
    right = init.symbolic_power(n)
    left = symbolic_power_saturation(I, n, strategy).initial_ideal()
    if left.gens == right.gens:
        return InitialCompareResult(True, None, left, right)
    # Distinct minimal generators: one side has a generator outside the other.
    gap = next(g for a, b in ((right, left), (left, right)) for g in a.gens if not b.contains(g))
    return InitialCompareResult(False, Monomial(I.ring.packing, gap), left, right)
