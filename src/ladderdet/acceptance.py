"""The acceptance suite: nine exact pass/fail criteria over the bundled
fixture set plus seeded random ladders.

Each criterion yields one `Check` per reported line, whose detail is the
line as printed; `run_criterion` alone reads them, and a criterion passes
iff all of its checks are ok."""

from __future__ import annotations

import random
import time
from itertools import chain, product
from math import comb

from . import load_fixture
from .fields import GF, QQ
from .groebner import InstanceTooLarge, MonomialIdeal, is_groebner_basis
from .ideals import (
    PartialPermutation,
    f_witness,
    ladder_ring,
    minor_poset,
    mixed_ladder_ideal,
    omega_delta_ideal,
    poset_ideal_brute,
    schubert_ideal,
)
from .knutson import (
    DerivationError,
    corner_derivation,
    ladder_derivation,
    verify as verify_derivation,
)
from .ladders import (
    Ladder,
    ChamferError,
    LadderError,
    chamfer,
    height,
    random_valid_ladder,
    reduce_to_unmixed,
    total_width,
    unchamfer,
    validate,
)
from .oracle import (
    CertificateError,
    fedder_check,
    initial_symbolic_compare,
    saturation_strategy,
    symbolic_fsplit_certificate,
)
from .poly import time_limit
from .record import Check, Record

DEFAULT_SEED = 0


def _fixture_ladders():
    out = []
    for name in ("full2x2", "full2x3", "full3x3", "full3x4", "staircase10"):
        ladder, t = load_fixture(name)
        out.append((name, ladder, t))
    return out


def _legal_unmixed_sizes(L: Ladder):
    return [t for t in range(1, L.max_square_in() + 1) if validate(L, t).valid]


def _random_unmixed(seed: int, count: int, max_size: int):
    rng = random.Random(seed)
    return [random_valid_ladder(rng, max_size, mixed=False) for _ in range(count)]


def _random_mixed(seed: int, count: int, max_size: int):
    """The first `count` draws of `random_valid_ladder(..., mixed=True)`
    whose size vector is mixed, and the number of draws that took."""
    rng = random.Random(seed)
    found, draws = [], 0
    while len(found) < count:
        L, t = random_valid_ladder(rng, max_size, mixed=True)
        draws += 1
        if len(set(t)) > 1:
            found.append((L, t))
    return found, draws


_MIXED_DRAWS = 20


def _polynomial_cases(seed: int):
    """(name, ladder, t) for the criteria that build the ideal of minors,
    and the number of random draws the mixed ones took.

    First the fixtures and 20 random ladders at every legal unmixed size t,
    an int; then, with t a tuple, staircase10 at its fixture sizes and the
    first 20 random draws whose sizes are mixed."""
    cases = [(name, L) for name, L, _ in _fixture_ladders()]
    cases += [(f"random{i}", L) for i, (L, _) in enumerate(_random_unmixed(seed, 20, 6))]
    out = [(name, L, t) for name, L in cases for t in _legal_unmixed_sizes(L)]
    out.append(("staircase10", *load_fixture("staircase10")))
    drawn, draws = _random_mixed(seed, _MIXED_DRAWS, 6)
    out += [(f"mixed{i}", L, t) for i, (L, t) in enumerate(drawn)]
    return out, draws


def _mixed_line(passes: list[bool], draws: int) -> Check:
    """The line that counts the mixed cases and how many of them pass."""
    return Check("mixed size vectors", bool(passes) and all(passes),
                 f"mixed size vectors: {sum(passes)}/{len(passes)} cases pass, "
                 f"{_MIXED_DRAWS} of them from {draws} random draws")


# ---------------------------------------------------------------------------
# Criteria


def criterion_groebner_squarefree(seed: int = DEFAULT_SEED):
    """1. The t-minors are a Groebner basis and the initial ideal is squarefree."""
    cases, draws = _polynomial_cases(seed)
    mixed = []
    for name, L, t in cases:
        I = mixed_ladder_ideal(L, t)
        gens = I.gens
        gb_ok = is_groebner_basis(gens)
        init = MonomialIdeal.from_monomials(I.ring, [g.leading_term()[0] for g in gens])
        sq_ok = init.is_squarefree()
        if not isinstance(t, int):
            mixed.append(gb_ok and sq_ok)
        label = f"{name} t={t}"
        yield Check(label, gb_ok and sq_ok,
                    f"{label}: groebner={gb_ok} squarefree={sq_ok} ({len(gens)} minors)")
    yield _mixed_line(mixed, draws)


def _det(rows):
    """Exact determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, a in enumerate(rows[0]))


def generic_multiplicity(k: int, l: int, t: int) -> int:
    """Multiplicity of R/I_t for the generic k x l matrix:
    det[C(k+l-i-j, k-i)] over i, j = 1..t-1 (Herzog-Trung, Adv. Math. 96)."""
    return _det([[comb(k + l - i - j, k - i) for j in range(1, t)] for i in range(1, t)])


def criterion_height_identity(seed: int = DEFAULT_SEED):
    """2. height = #interior cells = #vars - dim(R/in I), and on full
    matrices the product formula and the Herzog-Trung multiplicity."""
    cases, draws = _polynomial_cases(seed)
    mixed = []
    for name, L, t in cases:
        ring = ladder_ring(QQ, L)
        # The closed forms hold for one size t on the whole matrix.
        full = isinstance(t, int) and all(span == (1, L.shape[1]) for span in L.spans)
        h = height(L, t)
        initial = mixed_ladder_ideal(L, t, QQ, ring).initial_ideal()
        engine_h = ring.nvars - initial.dim()
        line_ok = engine_h == h
        if full:
            k, l = L.shape
            line_ok &= h == (k - t + 1) * (l - t + 1)
        if not isinstance(t, int):
            mixed.append(line_ok)
        label = f"{name} t={t}"
        yield Check(label, line_ok, f"{label}: |interior|={h} engine={engine_h} ok={line_ok}")
        if full:
            e, expected = initial.multiplicity(), generic_multiplicity(k, l, t)
            yield Check(f"{label} multiplicity", e == expected,
                        f"{label}: multiplicity={e} Herzog-Trung={expected} ok={e == expected}")
    yield _mixed_line(mixed, draws)


def criterion_witness_certificate(seed: int = DEFAULT_SEED):
    """3. The splitting certificate passes on every fixture and every valid
    mixed size vector of the staircase fixture.

    `symbolic_fsplit_certificate` raises CertificateError when any of its
    checks fails, which fails the criterion: a certificate built passes."""
    for name, L, _ in _fixture_ladders():
        for t in _legal_unmixed_sizes(L):
            cert = symbolic_fsplit_certificate(L, t)
            label = f"{name} t={t}"
            yield Check(label, True, f"{label}: h={cert.h} counts={cert.counts} ok=True")
    staircase10, _ = load_fixture("staircase10")
    bounds = [staircase10.subladder(j).max_square_in() for j in range(1, len(staircase10.lower) + 1)]
    tried = 0
    for tvec in product(*(range(1, b + 1) for b in bounds)):
        if validate(staircase10, tvec).valid:
            symbolic_fsplit_certificate(staircase10, tvec)
            tried += 1
    yield Check("staircase10 mixed variants", tried > 0,
                f"staircase10 mixed variants: {tried}/{tried} certificates pass")


def criterion_intersection_identity(seed: int = DEFAULT_SEED):
    """4. Sum of neighbouring band ideals equals the wide-band/narrow-band
    intersection (t = 2, delta in {0, 1})."""
    instances = [(2, 3, 2, 0), (3, 4, 2, 0), (3, 4, 2, 1)]
    for k, l, t, delta in instances:
        L = Ladder.full(k, l)
        ring = ladder_ring(QQ, L)
        for j in range(1, l - t - delta + 1):
            lo, hi = j, j + t + delta
            left = mixed_ladder_ideal(L.band("cols", lo, hi - 1), t, QQ, ring)
            right = mixed_ladder_ideal(L.band("cols", lo + 1, hi), t, QQ, ring)
            wide = mixed_ladder_ideal(L.band("cols", lo, hi), t, QQ, ring)
            inner = mixed_ladder_ideal(L.band("cols", lo + 1, hi - 1), t - 1, QQ, ring)
            good = (left + right).equal(wide.intersect(inner))
            label = f"{k}x{l} t={t} delta={delta} j={j}"
            yield Check(label, good, f"{label}: {good}")


def criterion_fedder(seed: int = DEFAULT_SEED):
    """5. Fedder membership certifies F-purity at p = 2 on the three fixtures."""
    F2 = GF(2)
    # (name, ladder, the size of its witness f_witness(L, size)): the
    # determinant's is f_of_matrix, the grid's witness at size 1.
    cases = [("(det X2x2)", Ladder.full(2, 2), 1),
             ("I2(X3x3)", Ladder.full(3, 3), 2),
             ("I2(4x4 sub-ladder)", load_fixture("staircase_sub4x4")[0], 2)]
    for name, L, size in cases:
        good = fedder_check(mixed_ladder_ideal(L, 2, F2), 2, f_witness(L, size, F2))
        yield Check(name, good, f"{name}: {good}")


def criterion_symbolic_initial(seed: int = DEFAULT_SEED):
    """6. in(I^(2)) = in(I)^(2) for the 2-minors of the 3x3 matrix over GF(5)."""
    F5 = GF(5)
    L3 = Ladder.full(3, 3)
    I = mixed_ladder_ideal(L3, 2, F5)
    res = initial_symbolic_compare(I, 2, strategy=saturation_strategy(L3, 2, I.ring))
    yield Check("in(I^(2)) = in(I)^(2)", res.equal,
                f"in(I^(2)) gens={len(res.left.gens)} in(I)^(2) gens={len(res.right.gens)} "
                f"equal={res.equal}")


def criterion_knutson(seed: int = DEFAULT_SEED):
    """7. Ladder and corner derivations verify cleanly on the small fixtures."""
    ladders = [
        ("full2x2", Ladder.full(2, 2)),
        ("full2x3", Ladder.full(2, 3)),
        ("full3x3", Ladder.full(3, 3)),
        ("full3x4", Ladder.full(3, 4)),
        ("staircase_sub4x4", load_fixture("staircase_sub4x4")[0]),
    ]
    corners = [
        (3, 3, 2, 2, 2, "nw"),
        (3, 4, 2, 2, 3, "nw"),
        (3, 4, 2, 2, 4, "nw"),   # s = l: row-band base case
        (4, 4, 2, 3, 3, "nw"),
        (4, 4, 2, 2, 2, "nw"),
        (4, 4, 2, 3, 3, "se"),
        (4, 4, 3, 3, 3, "nw"),
    ]
    # (name, derivation builder, its arguments), drawn one at a time.
    cases = chain(((f"ladder {name} t={t}", ladder_derivation, (L, t))
                   for name, L in ladders for t in _legal_unmixed_sizes(L)),
                  ((f"corner {k}x{l} t={t} r={r} s={s} {which}", corner_derivation,
                    (k, l, t, r, s, QQ, which)) for k, l, t, r, s, which in corners))
    for name, derive, args in cases:
        report = verify_derivation(derive(*args))
        yield Check(name, report.ok,
                    f"{name}: {'pass' if report.ok else 'FAIL'} ({len(report.lines)} checks)")


def criterion_chamfer_descent(seed: int = DEFAULT_SEED):
    """8. Chamfer validity, exact inversion, and bounded replayable descent
    on 100 seeded random mixed ladders, counted by kind of size vector."""
    rng = random.Random(seed)
    moves_checked = reductions = 0
    kinds = [0, 0, 0]  # mixed, unmixed with t > 1, t = 1 at every corner
    replays_good = moves_good = True
    for _ in range(100):
        L, t = random_valid_ladder(rng, 8, mixed=True)
        kinds[0 if len(set(t)) > 1 else 1 if t[0] > 1 else 2] += 1
        try:
            red = reduce_to_unmixed(L, t)
        except ChamferError as exc:
            yield Check("descent", False, f"no descent from {L.to_json(t)}: {exc}")
        else:
            good = len(red.moves) <= total_width(t)
            replayed, rt = red.replay()
            good &= replayed == L and rt == t
            good &= len(set(red.start_t)) == 1
            replays_good &= good
            reductions += 1
        for j in range(1, len(t) + 1):
            if t[j - 1] < 2:
                continue
            try:
                Lc, tc = chamfer(L, t, j)
            except ChamferError:
                continue
            moves_checked += 1
            good = validate(Lc, tc).valid
            Lb, tb = unchamfer(Lc, tc, j)
            good &= Lb == L and tb == t
            moves_good &= good
    yield Check("replay", replays_good, f"{reductions} reductions replay within the width bound")
    yield Check("chamfer moves", moves_good,
                f"{moves_checked} chamfer moves valid and exactly inverted")
    yield Check("size vectors", True,
                f"{kinds[0]} mixed, {kinds[1]} unmixed with t > 1, {kinds[2]} all t = 1")


def criterion_poset_schubert(seed: int = DEFAULT_SEED):
    """9. Cogenerated poset ideals match brute force; Schubert ideals match
    the classical determinantal ideals and have squarefree initial ideals."""
    for k in (2, 3):
        good = True
        for delta in minor_poset(k, k):
            formula = omega_delta_ideal(k, k, delta, QQ)
            brute = poset_ideal_brute(k, k, delta, QQ)
            good &= formula.equal(brute)
        yield Check(f"omega_delta {k}x{k}", good,
                    f"omega_delta formula vs brute on {k}x{k}: {good}")

    for t in (2, 3):
        w = PartialPermutation((3, 3), frozenset((i, i) for i in range(1, t)))
        I_w = schubert_ideal(w, QQ)
        classical = mixed_ladder_ideal(Ladder.full(3, 3), t)
        good = I_w.equal(classical)
        yield Check(f"truncated identity t={t}", good,
                    f"truncated identity t={t} equals I_t(X): {good}")

    rng = random.Random(seed)
    squarefree_ok = 0
    for _ in range(10):
        size = rng.randint(0, 3)
        rows = rng.sample(range(1, 4), size)
        cols = rng.sample(range(1, 4), size)
        w = PartialPermutation((3, 3), frozenset(zip(rows, cols)))
        I_w = schubert_ideal(w, QQ)
        if I_w.is_zero or I_w.initial_ideal().is_squarefree():
            squarefree_ok += 1
    yield Check("random partial permutations", squarefree_ok == 10,
                f"random partial permutations with squarefree in(I_w): {squarefree_ok}/10")


# ---------------------------------------------------------------------------
# Runner


class CriterionResult(Record):
    __slots__ = ("key", "title", "passed", "seconds", "details")
    _defaults = {"details": ()}

    def summary_line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.key}: {self.title} ({self.seconds:.1f}s)"


# key -> (title, criterion); each criterion yields one `Check` per reported
# line.
CRITERIA = {
    "groebner-squarefree": ("minors form a Groebner basis with squarefree initial ideal",
                            criterion_groebner_squarefree),
    "height-identity": ("interior size matches the engine height and the product formula; "
                        "full matrices have the Herzog-Trung multiplicity",
                        criterion_height_identity),
    "witness-certificate": ("splitting certificates pass, counts sum to the height",
                            criterion_witness_certificate),
    "intersection-identity": ("band sums equal the wide/narrow intersections",
                              criterion_intersection_identity),
    "fedder": ("Fedder membership certifies F-purity at p=2",
               criterion_fedder),
    "symbolic-initial": ("initial ideals of symbolic powers match over GF(5)",
                         criterion_symbolic_initial),
    "knutson": ("ladder and corner derivations verify",
                criterion_knutson),
    "chamfer-descent": ("chamfer moves are valid, invertible and reduce to unmixed",
                        criterion_chamfer_descent),
    "poset-schubert": ("poset and Schubert constructions cross-check",
                       criterion_poset_schubert),
}


def criterion_keys() -> list[str]:
    return list(CRITERIA)


def _criterion(key: str):
    """The (title, criterion) pair for `key`; KeyError naming the known keys."""
    try:
        return CRITERIA[key]
    except KeyError:
        raise KeyError(f"unknown criterion: {key!r} (known: {', '.join(CRITERIA)})") from None


def run_criterion(key: str, seed: int = DEFAULT_SEED, seconds: float | None = None) -> CriterionResult:
    """Run one criterion under a time budget of `seconds` (None: unbounded).

    The criterion yields one `Check` per line: it passes iff every check is
    ok, and the details are the checks' details.  A criterion that runs out
    of budget, or whose engine call finds a certificate, derivation or
    ladder check false, fails, with the reason as its detail.
    """
    title, fn = _criterion(key)
    start = time.monotonic()
    try:
        with time_limit(seconds):
            lines = list(fn(seed))
    except (InstanceTooLarge, CertificateError, DerivationError, LadderError) as exc:
        elapsed = time.monotonic() - start
        return CriterionResult(key, title, False, elapsed, (f"{exc} after {elapsed:.2f} s",))
    passed = all(c.ok for c in lines)
    details = tuple(c.detail for c in lines)
    return CriterionResult(key, title, passed, time.monotonic() - start, details)


def run_suite(keys=None, seed: int = DEFAULT_SEED, seconds: float | None = None) -> list[CriterionResult]:
    """Run the criteria in order, each under its own budget of `seconds`."""
    keys = list(keys) if keys else criterion_keys()
    for key in keys:
        _criterion(key)
    return [run_criterion(key, seed, seconds) for key in keys]
