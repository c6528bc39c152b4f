"""The four seeded workloads: inputs, the timed call, and the answer check.

Each workload generates its instances from `random.Random(seed)` with the
corner-list code in `combinatorics`.  Ladders sized for cost are drawn in
fixed strata (instance counts per size class) from the candidates that
make_pools.py stores in pools.json, so that two seeds cost about the same
and set-up stays cheap.  `run` is the timed region: it calls the public
API of ladderdet and returns the verdict.  `check` runs afterwards, untimed, and compares the verdict with
an answer that does not come from the code path under test.

Functions are looked up on the `ladderdet` modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from math import comb
from pathlib import Path

import combinatorics as cb

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE.parent / "src" / "ladderdet" / "fixtures"
POOLS = HERE / "pools.json"


def _ladder(ld, spec):
    return ld.Ladder(tuple(spec["shape"]), tuple(map(tuple, spec["upper"])),
                     tuple(map(tuple, spec["lower"])))


def _spec(shape, upper, lower, **extra):
    return {"shape": list(shape), "upper": [list(c) for c in upper],
            "lower": [list(c) for c in lower], **extra}


def _stratified_ladders(rng, name, quotas):
    """Unmixed (ladder, t) instances, `quotas[key]` of them per stratum.

    Each stratum (t, lo, hi) holds the minor size t >= 2 and the sizes
    lo <= size < hi of the workload's `size(t, cells)`.  Strata are narrow
    size classes, so two seeds get instances of about the same cost.  The
    candidates of each stratum come from `pools.json` (see make_pools.py),
    and the seed draws from them, without replacement where the pool is
    large enough, so set-up costs the same small amount for every seed.
    """
    pools = json.loads(POOLS.read_text())[name]
    out = []
    for key, quota in quotas.items():
        pool = pools[str(key)]
        out += rng.sample(pool, quota) if len(pool) >= quota else rng.choices(pool, k=quota)
    rng.shuffle(out)
    return out


def _unmixed_ladder(rng):
    """A random ladder cut from a 4x4 to 6x6 grid with a random legal
    minor size t >= 2, or None."""
    k, l = rng.randint(*cb.GRID_RANGE), rng.randint(*cb.GRID_RANGE)
    drawn = cb.staircase_ladder(rng, k, l)
    if drawn is None:
        return None
    shape, upper, lower = drawn
    cell_set = cb.cells(shape, upper, lower)
    top = cb.max_square(cell_set)
    if top < 2:
        return None
    t = rng.randint(2, top)
    if not cb.is_valid(shape, upper, lower, (t,) * len(lower), cell_set):
        return None
    return shape, upper, lower, cell_set, t


def _minors(t, cell_set):
    return len(cb.minors_inside(cell_set, t))


def _bins(t, edges, quota):
    """Strata (t, lo, hi) for consecutive edges, `quota` instances each."""
    return {(t, lo, hi): quota for lo, hi in zip(edges, edges[1:])}


# ---------------------------------------------------------------------------
# gb-minors


class GbMinors:
    """Reduced Groebner bases of t-minors of ladders over QQ."""

    name = "gb-minors"
    # (t, fewest, one past most t-minors) -> instance count.  Cost grows
    # with the number of minors: cheap instances come in bins about 15%
    # wide, costly ones with an exact minor count.  Below the six costliest
    # instances come sixteen with 22 3-minors or 9 4-minors, which cost
    # about the same (30-50 ms on a 2-CPU machine), and nothing else costs
    # nearly as much, so the 90th percentile falls inside that group rather
    # than on a step between two groups.
    STRATA = {
        **_bins(2, [5, 8, 10, 12, 14, 16, 19, 22, 25, 28], 5),
        (2, 60, 61): 1, (2, 65, 66): 2, (2, 72, 73): 2, (2, 75, 76): 1,
        **_bins(3, [2, 6, 10], 6),
        (3, 13, 14): 6, (3, 16, 17): 8, (3, 22, 23): 12,
        (4, 5, 6): 7, (4, 9, 10): 4,
    }

    size = staticmethod(_minors)

    def generate(self, rng, workdir):
        return _stratified_ladders(rng, self.name, self.STRATA)

    def run(self, ld, spec):
        L = _ladder(ld, spec)
        ideal = ld.mixed_ladder_ideal(L, spec["t"])
        basis = ideal.groebner_basis()
        return basis, ld.is_groebner_basis(list(ideal.gens))

    def check(self, ld, spec, verdict):
        basis, is_gb = verdict
        cell_set = cb.cells(spec["shape"], spec["upper"], spec["lower"])
        expected = {ld.parse_polynomial(cb.monic_minor_text(r, c))
                    for r, c in cb.minors_inside(cell_set, spec["t"])}
        return is_gb is True and len(basis) == len(expected) and set(basis) == expected


# ---------------------------------------------------------------------------
# cover-height


class CoverHeight:
    """Heights and minimal primes of initial ideals by cover search."""

    name = "cover-height"
    MIN_PRIMES_MAX_CELLS = 17
    # Strata on (cells, height, lattice paths) -> instance count; paths are
    # counted only where min_primes() runs (t = 2, at most 17 cells).  Cover
    # search cost grows steeply with the height and depends on the shape, so
    # each stratum is one exact triple whose ladders cost about the same.
    # Costs on a 2-CPU machine: about 1-3 ms for the first group, 3.5-6.5 ms
    # for the second (where the median falls), 8-13 ms, then 20-40 ms for the
    # last group, which holds the 90th percentile.
    STRATA = {
        (t, size, (*size[:2], size[2] + 1)): quota
        for t, size, quota in [
            (2, (18, 9, 0), 10), (2, (18, 10, 0), 8), (2, (19, 10, 0), 8),
            (2, (19, 11, 0), 8), (4, (28, 4, 0), 6), (4, (29, 5, 0), 4),
            (2, (16, 7, 30), 8), (2, (16, 7, 27), 8), (2, (16, 7, 29), 4),
            (2, (17, 7, 36), 8), (2, (17, 7, 35), 8), (2, (21, 12, 0), 8),
            (2, (23, 12, 0), 8),
            (2, (16, 8, 25), 4), (2, (16, 8, 26), 4), (2, (17, 8, 39), 4),
            (2, (17, 8, 37), 4), (2, (17, 8, 35), 4), (2, (22, 13, 0), 12),
            (2, (20, 12, 0), 4), (3, (27, 9, 0), 8),
            (2, (17, 9, 29), 8), (2, (17, 9, 30), 8), (3, (30, 10, 0), 6),
            (3, (28, 10, 0), 6),
        ]
    }

    @staticmethod
    def size(t, cell_set):
        # The height of in(I_t) is the number of cells that are the NE
        # corner of a t x t square of the ladder.
        height = sum(1 for i, j in cell_set if (i + t - 1, j - t + 1) in cell_set)
        paths = 0
        if t == 2 and len(cell_set) <= CoverHeight.MIN_PRIMES_MAX_CELLS:
            if not cb.unit_step_connected(cell_set):
                return None
            paths = cb.lattice_paths(cell_set)
        return len(cell_set), height, paths

    def generate(self, rng, workdir):
        return _stratified_ladders(rng, self.name, self.STRATA)

    def run(self, ld, spec):
        L = _ladder(ld, spec)
        cell_set = cb.cells(spec["shape"], spec["upper"], spec["lower"])
        ring = ld.ladder_ring(ld.QQ, L)
        monos = [ld.Minor(r, c).antidiagonal_monomial()
                 for r, c in cb.minors_inside(cell_set, spec["t"])]
        initial = ld.MonomialIdeal.from_monomials(ring, monos)
        height = ring.nvars - initial.dim()
        primes = None
        if spec["t"] == 2 and len(cell_set) <= self.MIN_PRIMES_MAX_CELLS:
            primes = [len(p) for p in initial.min_primes()]
        return height, primes

    def check(self, ld, spec, verdict):
        height, primes = verdict
        shape, upper, lower, t = spec["shape"], spec["upper"], spec["lower"], spec["t"]
        tvec = (t,) * len(lower)
        expected = cb.interior_size(shape, upper, lower, tvec)
        ok = height == expected
        ok &= ld.height(_ladder(ld, spec), tvec) == expected
        cell_set = cb.cells(shape, upper, lower)
        k, l = shape
        if len(cell_set) == k * l:
            ok &= height == (k - t + 1) * (l - t + 1)
        if primes is not None:
            ok &= len(primes) == cb.lattice_paths(cell_set)
            ok &= all(size == expected for size in primes)
        return ok


# ---------------------------------------------------------------------------
# elim-saturate

# Catalog of (family, parameters) -> copies per pass, grouped by cost on
# this engine so that the 90th percentile falls inside one group (bands:
# (k, l, t, delta); fedder: (k, l, p); symbolic: (k, l); knutson: (k, l, t)).
ELIM_CATALOG = {
    # about 90-300 ms
    ("band", (4, 4, 2, 1)): 1, ("band", (4, 5, 2, 1)): 1,
    ("knutson-ladder", (3, 4, 2)): 1, ("knutson-ladder", (4, 4, 3)): 1,
    ("symbolic", (2, 3)): 1, ("symbolic", (3, 2)): 1,
    # about 55-70 ms
    ("band", (3, 4, 2, 1)): 4, ("band", (3, 5, 2, 1)): 4, ("band", (4, 4, 3, 0)): 4,
    ("band", (4, 5, 3, 0)): 4, ("fedder", (3, 4, 2)): 1, ("fedder", (4, 3, 2)): 1,
    # about 35-45 ms
    ("band", (3, 5, 3, 1)): 3, ("band", (4, 4, 2, 0)): 3, ("band", (4, 5, 2, 0)): 3,
    # about 10-25 ms
    ("knutson-ladder", (2, 4, 2)): 2, ("knutson-ladder", (3, 3, 2)): 2,
    ("fedder", (3, 3, 2)): 2, ("fedder", (3, 3, 3)): 2,
    ("band", (3, 3, 2, 0)): 5, ("band", (3, 4, 2, 0)): 5, ("band", (3, 5, 2, 0)): 5,
    ("knutson-ladder", (3, 4, 3)): 2,
    # under 5 ms
    **{("fedder", (k, l, p)): 1 for p in (2, 3) for k, l in ((2, 2), (2, 3), (3, 2), (2, 4),
                                                             (4, 2))},
    ("fedder", (2, 2, 2)): 2, ("symbolic", (2, 2)): 2,
    ("knutson-ladder", (2, 3, 2)): 2, ("knutson-ladder", (3, 3, 3)): 2,
}
# Corner derivations with at most this many t-minors verify in under 15 ms.
CORNER_MAX_MINORS = 6


class ElimSaturate:
    """Elimination, colon, saturation and bracket powers, mostly over GF(p)."""

    name = "elim-saturate"
    # Every seed runs each catalog case the same number of times; the seed
    # picks band positions, primes, corner derivations and the order.
    CORNERS = 25

    def generate(self, rng, workdir):
        out = []
        for (kind, params), copies in ELIM_CATALOG.items():
            for _ in range(copies):
                if kind == "band":
                    k, l, t, delta = params
                    out.append({"kind": kind, "k": k, "l": l, "t": t, "delta": delta,
                                "j": rng.randint(1, l - t - delta),
                                "p": rng.choice((2, 3, 5, 7))})
                elif kind == "fedder":
                    out.append({"kind": kind, "k": params[0], "l": params[1], "p": params[2]})
                elif kind == "symbolic":
                    out.append({"kind": kind, "k": params[0], "l": params[1], "p": 5})
                else:
                    out.append({"kind": kind, "k": params[0], "l": params[1], "t": params[2]})
        out += [{"kind": "knutson-corner", **_corner(rng)} for _ in range(self.CORNERS)]
        rng.shuffle(out)
        return out

    def run(self, ld, spec):
        kind = spec["kind"]
        if kind == "band":
            return _band_identity(ld, spec)
        if kind == "fedder":
            F = ld.GF(spec["p"])
            L = ld.Ladder.full(spec["k"], spec["l"])
            ideal = ld.mixed_ladder_ideal(L, 2, F)
            candidate = ld.f_witness(L, 2, F) ** (spec["p"] - 1)
            return ld.fedder_check(ideal, spec["p"], candidate)
        if kind == "symbolic":
            F = ld.GF(spec["p"])
            L = ld.Ladder.full(spec["k"], spec["l"])
            ring = ld.ladder_ring(F, L)
            ideal = ld.mixed_ladder_ideal(L, 2, F, ring)
            return ld.initial_symbolic_compare(ideal, 2, strategy=ring.maximal_ideal()).equal
        if kind == "knutson-ladder":
            deriv = ld.ladder_derivation(ld.Ladder.full(spec["k"], spec["l"]), spec["t"])
            return ld.verify_derivation(deriv).ok
        deriv = ld.corner_derivation(spec["k"], spec["l"], spec["t"], spec["r"], spec["s"],
                                     which=spec["which"])
        return ld.verify_derivation(deriv).ok

    def check(self, ld, spec, verdict):
        # Every instance is a theorem of the paper: the identity holds.
        return verdict is True


def _corner(rng):
    """Parameters of a cheap corner derivation in a 3x3 to 4x4 grid."""
    while True:
        k, l = rng.randint(3, 4), rng.randint(3, 4)
        r, s = rng.randint(2, k), rng.randint(2, l)
        t = rng.randint(2, min(r, s))
        if comb(r, t) * comb(s, t) <= CORNER_MAX_MINORS:
            return {"k": k, "l": l, "t": t, "r": r, "s": s, "which": rng.choice(("nw", "se"))}


def _band_identity(ld, spec):
    """left + right == wide cap inner for neighbouring column bands."""
    F = ld.GF(spec["p"])
    t, delta, j = spec["t"], spec["delta"], spec["j"]
    L = ld.Ladder.full(spec["k"], spec["l"])
    ring = ld.ladder_ring(F, L)
    lo, hi = j, j + t + delta
    left = ld.mixed_ladder_ideal(L.band("cols", lo, hi - 1), t, F, ring)
    right = ld.mixed_ladder_ideal(L.band("cols", lo + 1, hi), t, F, ring)
    wide = ld.mixed_ladder_ideal(L.band("cols", lo, hi), t, F, ring)
    inner = ld.mixed_ladder_ideal(L.band("cols", lo + 1, hi - 1), t - 1, F, ring)
    return (left + right).equal(wide.intersect(inner))


# ---------------------------------------------------------------------------
# cli-jobs

FIXTURES = ("full2x2", "full2x3", "full3x3", "full3x4", "staircase10", "staircase_sub4x4")
SCHUBERT = [(2, 2, 2), (3, 3, 2), (3, 3, 3), (3, 4, 2), (4, 4, 2), (4, 4, 3)]
CLI_FEDDER = [(2, 2, 2), (2, 3, 2), (3, 3, 2), (2, 4, 2), (2, 3, 3), (3, 3, 3)]
CLI_DERIVE = [(2, 3, 2), (3, 3, 2), (2, 4, 2), (3, 4, 3)]
# The sub-second acceptance criteria but chamfer-descent, which fails on
# many seeds: ladders.reduce_to_unmixed rejects some valid mixed ladders
# (see perfbench/README.md, "Known defect").
FAST_CRITERIA = ("witness-certificate", "intersection-identity", "fedder", "knutson",
                 "poset-schubert")


def _mixed_ladder(rng):
    """A random ladder with a mixed size vector, valid or not, plus whether
    the paper's assumptions hold for it."""
    while True:
        k, l = rng.randint(3, 8), rng.randint(3, 8)
        drawn = cb.random_ladder(rng, k, l)
        if drawn is None:
            continue
        shape, upper, lower = drawn
        t = tuple(rng.randint(1, 3) for _ in lower)
        return shape, upper, lower, t, cb.is_valid(shape, upper, lower, t)


class CliJobs:
    """Short requests through `ladderdet.cli.main`, run in-process."""

    name = "cli-jobs"
    COUNTS = {"validate": 50, "chamfer": 25, "reduce": 25, "certificate": 25,
              "derive": 8, "verify": 4, "poset": 10}
    # Ladders for `ideal gb` and `ideal member`, by number of 2-minors.
    STRATA = _bins(2, [6, 10, 16, 25, 40], 10)
    size = staticmethod(_minors)

    def generate(self, rng, workdir):
        def write(name, obj):
            (Path(workdir) / name).write_text(json.dumps(obj))
            return "{dir}/" + name

        jobs = []
        for name in FIXTURES:
            fixture = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
            shape, upper, lower = (tuple(map(tuple, fixture[k])) if k != "shape"
                                   else tuple(fixture[k]) for k in ("shape", "upper", "lower"))
            t = tuple(fixture.get("t") or (2,) * len(lower))
            valid = cb.is_valid(shape, upper, lower, t)
            path = f"{{fixtures}}/{name}.json"
            sizes = [] if "t" in fixture else ["--t", "2"]
            jobs.append({"argv": ["--format", "json", "ladder", "validate", path, *sizes],
                         "expect": {"code": 0 if valid else 1, "valid": valid}})
            jobs.append({"argv": ["--format", "json", "witness", "certificate", "--ladder", path,
                                  *sizes],
                         "expect": {"code": 0, "h": cb.interior_size(shape, upper, lower, t)}})
        for n in range(self.COUNTS["validate"]):
            shape, upper, lower, t, valid = _mixed_ladder(rng)
            path = write(f"validate{n}.json", _spec(shape, upper, lower, t=list(t)))
            jobs.append({"argv": ["--format", "json", "ladder", "validate", path],
                         "expect": {"code": 0 if valid else 1, "valid": valid}})
        for n in range(self.COUNTS["chamfer"]):
            shape, upper, lower, t, j, out_lower, out_t = _chamfer_case(rng)
            path = write(f"chamfer{n}.json", _spec(shape, upper, lower, t=list(t)))
            jobs.append({"argv": ["--format", "json", "ladder", "chamfer", path, "--j", str(j)],
                         "expect": {"code": 0, "ladder": _spec(shape, upper, out_lower,
                                                               t=list(out_t))}})
        for n in range(self.COUNTS["reduce"]):
            shape, upper, lower, t, moves = _chamfered_unmixed(rng)
            path = write(f"reduce{n}.json", _spec(shape, upper, lower, t=list(t)))
            jobs.append({"argv": ["--format", "json", "ladder", "reduce", path],
                         "expect": {"code": 0, "replay_ok": True, "moves": moves,
                                    "start_t": max(t)}})
        for n in range(self.COUNTS["certificate"]):
            shape, upper, lower, t = _valid_mixed(rng)
            path = write(f"cert{n}.json", _spec(shape, upper, lower, t=list(t)))
            field = rng.choice(("q", "fp:2", "fp:3"))
            jobs.append({"argv": ["--format", "json", "--field", field, "witness",
                                  "certificate", "--ladder", path],
                         "expect": {"code": 0, "h": cb.interior_size(shape, upper, lower, t)}})
        ideals = _stratified_ladders(rng, self.name, self.STRATA)
        for n, spec in enumerate(ideals):
            kind = "gb" if n % 2 else "member"
            path = write(f"{kind}{n}.json", {**spec, "t": [spec["t"]]})
            cell_set = cb.cells(spec["shape"], spec["upper"], spec["lower"])
            minors = cb.minors_inside(cell_set, spec["t"])
            if kind == "gb":
                jobs.append({"argv": ["--format", "json", "ideal", "gb", path],
                             "expect": {"code": 0, "basis": [cb.monic_minor_text(r, c)
                                                             for r, c in minors]}})
                continue
            member = rng.random() < 0.5
            if member:
                poly = cb.monic_minor_text(*rng.choice(minors))
            else:
                poly = "x[{},{}]".format(*rng.choice(sorted(cell_set)))
            jobs.append({"argv": ["--format", "json", "ideal", "member", path,
                                  f"--poly={poly}"],
                         "expect": {"code": 0 if member else 1, "member": member}})
        derived = []
        for n in range(self.COUNTS["derive"]):
            if n % 2:
                c = _corner(rng)
                source = ["--corner", f"{c['k']},{c['l']},{c['t']},{c['r']},{c['s']},{c['which']}"]
            else:
                k, l, t = CLI_DERIVE[n // 2]
                source = ["--ladder", write(f"derive{n}.json", _spec((k, l), [(1, l)], [(k, 1)])),
                          "--t", str(t)]
            out = f"{{dir}}/deriv{n}.json"
            derived.append(out)
            jobs.append({"argv": ["knutson", "derive", *source, "--out", out, "--verify"],
                         "expect": {"code": 0, "report": "verified=yes"}})
        for n in range(self.COUNTS["verify"]):
            jobs.append({"argv": ["--format", "json", "knutson", "verify", derived[n]],
                         "expect": {"code": 0, "verified": True}})
        for _ in range(self.COUNTS["poset"]):
            k, l = rng.choice(((2, 2), (2, 3), (3, 3), (3, 2)))
            size = rng.randint(1, min(k, l))
            rows = sorted(rng.sample(range(1, k + 1), size))
            cols = sorted(rng.sample(range(1, l + 1), size))
            delta = ",".join(map(str, rows)) + "|" + ",".join(map(str, cols))
            jobs.append({"argv": ["--format", "json", "poset", "--shape", f"{k},{l}",
                                  "--delta", delta, "--check"],
                         "expect": {"code": 0, "equal": True}})
        for n, (k, l, t) in enumerate(SCHUBERT):
            path = write(f"perm{n}.json", {"shape": [k, l],
                                           "ones": [[i, i] for i in range(1, t)]})
            full = cb.cells((k, l), [(1, l)], [(k, 1)])
            jobs.append({"argv": ["--format", "json", "schubert", "--perm", path, "--gb"],
                         "expect": {"code": 0, "basis": [cb.monic_minor_text(r, c)
                                                         for r, c in cb.minors_inside(full, t)]}})
        for n, (k, l, p) in enumerate(CLI_FEDDER):
            path = write(f"fedder{n}.json", _spec((k, l), [(1, l)], [(k, 1)], t=[2]))
            jobs.append({"argv": ["--format", "json", "fedder", "--ladder", path,
                                  "--p", str(p)],
                         "expect": {"code": 0, "f_pure": True}})
        for key in FAST_CRITERIA:
            jobs.append({"argv": ["--format", "json", "--seed", str(rng.randint(0, 10**6)),
                                  "accept", "run", key],
                         "expect": {"code": 0, "passed": True}})
        rng.shuffle(jobs)
        # Derivations must be written before they are verified.
        verifies = [job for job in jobs if job["argv"][2:4] == ["knutson", "verify"]]
        jobs = [job for job in jobs if job not in verifies] + verifies
        return jobs

    def run(self, ld, spec):
        argv = spec["argv"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ld.cli.main(argv)
        return code, out.getvalue()

    def check(self, ld, spec, verdict):
        code, text = verdict
        expect = spec["expect"]
        if code != expect["code"]:
            return False
        if "report" in expect:
            return any(line.startswith(expect["report"]) for line in text.splitlines())
        payload = json.loads(text)
        if "passed" in expect:
            return all(r["passed"] for r in payload) and len(payload) == 1
        if "ladder" in expect:
            return payload == expect["ladder"]
        if "moves" in expect:
            return (payload["replay_ok"] is True and len(payload["moves"]) == expect["moves"]
                    and set(payload["start"]["t"]) == {expect["start_t"]})
        if "h" in expect:
            return (payload["h"] == expect["h"] and sum(payload["counts"]) == expect["h"]
                    and all(payload["checks"].values()))
        if "basis" in expect:
            got = {ld.parse_polynomial(s) for s in payload["basis"]}
            want = {ld.parse_polynomial(s) for s in expect["basis"]}
            return len(payload["basis"]) == len(want) and got == want
        key = next(k for k in ("valid", "member", "verified", "equal", "f_pure") if k in expect)
        return payload[key] == expect[key]


def _valid_mixed(rng):
    while True:
        shape, upper, lower, t, valid = _mixed_ladder(rng)
        if valid:
            return shape, upper, lower, t


def _chamfer(shape, upper, lower, t, j):
    """Lower corner j one step NE with its minor size one smaller, if the
    result is a valid ladder (own check); else None."""
    d, c = lower[j - 1]
    if t[j - 1] < 2 or d - 1 < 1 or c + 1 > shape[1]:
        return None
    out_lower = lower[: j - 1] + ((d - 1, c + 1),) + lower[j:]
    out_t = t[: j - 1] + (t[j - 1] - 1,) + t[j:]
    ds, cs = [x for x, _ in out_lower], [y for _, y in out_lower]
    if ds != sorted(ds) or cs != sorted(cs) or len(set(out_lower)) != len(out_lower):
        return None
    if not cb.is_valid(shape, upper, out_lower, out_t):
        return None
    return out_lower, out_t


def _chamfer_case(rng):
    """A valid mixed ladder and a corner whose chamfer is again valid."""
    while True:
        shape, upper, lower, t = _valid_mixed(rng)
        j = rng.randint(1, len(lower))
        moved = _chamfer(shape, upper, lower, t, j)
        if moved is not None:
            return shape, upper, lower, t, j, *moved


def _chamfered_unmixed(rng):
    """A mixed ladder made by chamfering a valid unmixed one once or twice,
    with the number of unchamfer moves that lead back to unmixed sizes."""
    while True:
        got = _unmixed_ladder(rng)
        if got is None or len(got[2]) < 2:
            continue
        shape, upper, lower, _, t = got
        t = (t,) * len(lower)
        for _ in range(rng.randint(1, 2)):
            moved = _chamfer(shape, upper, lower, t, rng.randint(1, len(lower)))
            if moved is not None:
                lower, t = moved
        if len(set(t)) > 1:
            return shape, upper, lower, t, sum(max(t) - x for x in t)


WORKLOADS = {w.name: w for w in (GbMinors(), CoverHeight(), ElimSaturate(), CliJobs())}


def generate(name: str, seed: int, workdir) -> list[dict]:
    return WORKLOADS[name].generate(random.Random(seed), workdir)
