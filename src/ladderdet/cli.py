"""Command-line front end: ladder inspection, ideal arithmetic, witnesses,
Fedder checks, symbolic powers, derivations, and the acceptance runner.

Exit status: 0 on success / verified, 1 on a falsified identity or an
oversized instance, 2 on usage errors or malformed input files, 141 when
the reader of standard output closes it early (`| head`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import acceptance
from .fields import GF, parse_field
from .groebner import Ideal, InstanceTooLarge
from .ideals import (
    PartialPermutation,
    f_witness,
    g_witness,
    ideal_from_obj,
    ladder_ring,
    minor_product_symbolic_degree,
    mixed_ladder_ideal,
    omega_delta_ideal,
    poset_ideal,
    poset_ideal_brute,
    poset_spec_from_json,
    schubert_ideal,
)
from .knutson import (
    corner_derivation,
    derivation_from_json,
    derivation_to_obj,
    ladder_derivation,
    verify as verify_derivation,
)
from .ladders import Ladder, LadderError, chamfer, reduce_to_unmixed, size_vector, span_size, validate
from .oracle import (
    fedder_check,
    initial_symbolic_compare,
    saturation_strategy,
    symbolic_fsplit_certificate,
    symbolic_power_saturation,
)
from .poly import Minor, mono_to_str, parse_polynomial, poly_to_str, time_limit


class UsageError(ValueError):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _decode(path: str, build, what: str):
    """`build()`.  Its failure, including the RecursionError that deeply
    nested JSON raises, is a UsageError naming the file."""
    try:
        return build()
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"{path}: not a valid {what} ({exc})") from None


def _load_file(path: str, loader, what: str):
    """`loader` applied to the text of a file, failing as `_decode` does."""
    text = _read_text(path)
    return _decode(path, lambda: loader(text), what)


def _with_sizes(path: str, loaded, t_flag, command=None):
    """(ladder, t) with --t overriding t; t = None is refused if a `command` is named."""
    ladder, t = loaded
    try:
        t = size_vector(t_flag, len(ladder.lower)) if t_flag else t
    except LadderError as exc:
        raise UsageError(f"--t for {path}: {exc}") from None
    if t is None and command:
        raise UsageError(f"{command} needs minor sizes (file t field or --t)")
    return ladder, t


def _load_ladder(path: str, t_flag=None, command=None):
    """The ladder and size vector of a ladder file, as `_with_sizes` gives them."""
    return _with_sizes(path, _load_file(path, Ladder.from_json, "ladder file"), t_flag, command)


def _load_ideal(path: str, field, t_flag=None):
    """An ideal file ({shape|cells, gens}), or a ladder file read as I_t(L).
    The file is read and decoded once."""
    obj = _load_file(path, json.loads, "JSON file")
    if isinstance(obj, dict) and "gens" in obj:
        return _decode(path, lambda: ideal_from_obj(obj, field), "ideal file")
    ladder = _decode(path, lambda: Ladder.from_obj(obj), "ladder file")
    return mixed_ladder_ideal(*_with_sizes(path, ladder, t_flag, "ideal"), field)


def _parse_minor(text: str) -> Minor:
    text = text.strip().strip("[]")
    malformed = UsageError(f"bad minor {text!r}; expected rows|cols like 12|13 or 1,2|1,3")
    if "|" not in text:
        raise malformed
    rows_s, cols_s = text.split("|", 1)

    def indices(s):
        s = s.strip()
        return tuple(int(x) for x in (s.split(",") if "," in s else s))

    try:
        rows, cols = indices(rows_s), indices(cols_s)
    except ValueError:
        raise malformed from None
    try:
        return Minor(rows, cols)
    except ValueError as exc:
        raise UsageError(f"bad minor {text!r}: {exc}") from None


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _emit_basis(args, ideal, extra=()):
    """The reduced basis of `ideal`, a line per element and per key=value of
    `extra`; in JSON, {"basis": [...]} and the `extra` keys."""
    basis = ideal.canonical_strings()
    _emit(args, {"basis": basis, **dict(extra)}, basis + [f"{k}={v}" for k, v in extra])


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns the exit status; `main` has parsed
# `args.field`.


def _cmd_ladder(args) -> int:
    sized = args.action in ("chamfer", "reduce")
    ladder, t = _load_ladder(args.file, args.t, f"ladder {args.action}" if sized else None)
    if args.action == "validate":
        report = validate(ladder, 1 if t is None else t)
        _emit(args, {"valid": report.valid, "u": report.u, "v": report.v,
                     "checks": [{"n": n, "pass": c.ok, "detail": c.detail}
                                for n, c in enumerate(report.checks, start=1)]},
              [report.as_text()])
        return 0 if report.valid else 1
    if args.action == "show":
        cells = span_size(ladder.spans)
        _emit(args, {"shape": list(ladder.shape), "cells": cells, "render": ladder.render()},
              [ladder.render(), f"shape={ladder.shape} cells={cells} t={t}"])
        return 0
    if args.action == "chamfer":
        out, out_t = chamfer(ladder, t, args.j)
        _emit(args, json.loads(out.to_json(out_t)), [out.to_json(out_t)])
        return 0
    red = reduce_to_unmixed(ladder, t)
    replayed, rt = red.replay()
    fidelity = replayed == ladder and rt == t
    _emit(args, {"moves": list(red.moves), "start": json.loads(red.start.to_json(red.start_t)),
                 "replay_ok": fidelity},
          [f"moves={list(red.moves)}", f"start={red.start.to_json(red.start_t)}",
           f"replay_ok={fidelity}"])
    return 0 if fidelity else 1


def _cmd_ideal(args) -> int:
    I = _load_ideal(args.a, args.field, args.t)
    if args.action in ("eq", "sum", "intersect", "colon", "saturate"):
        if not args.b:
            raise UsageError(f"ideal {args.action} needs a second ideal file")
        J = _load_ideal(args.b, args.field, args.t2)
        if J.ring != I.ring:
            J = Ideal(I.ring, J.gens)
    if args.action == "gens":
        gens = [poly_to_str(g) for g in I.gens]
        _emit(args, {"gens": gens}, gens)
        return 0
    if args.action == "eq":
        equal = I.equal(J)
        _emit(args, {"equal": equal}, [f"equal={equal}"])
        return 0 if equal else 1
    if args.action == "member":
        if args.poly is None:
            raise UsageError("ideal member needs --poly")
        member = I.contains(parse_polynomial(args.poly, args.field))
        _emit(args, {"member": member}, [f"member={member}"])
        return 0 if member else 1
    if args.action == "initial":
        init = I.initial_ideal()
        monos = [mono_to_str(m, I.ring.packing) for m in init.gens]
        _emit(args, {"initial": monos, "squarefree": init.is_squarefree()},
              monos + [f"squarefree={init.is_squarefree()}"])
        return 0
    extra = ()
    if args.action == "sum":
        I = I + J
    elif args.action == "intersect":
        I = I.intersect(J)
    elif args.action == "colon":
        I = I.colon(J)
    elif args.action == "saturate":
        I, steps = I.saturate(J)
        extra = [("exponent", steps)]
    _emit_basis(args, I, extra)
    return 0


def _cmd_witness(args) -> int:
    ladder, t = _load_ladder(args.ladder, args.t, f"witness {args.action}")
    if args.action == "certificate":
        cert = symbolic_fsplit_certificate(ladder, t)
        _emit(args, json.loads(cert.to_json()), [cert.to_json()])
        return 0
    build = f_witness if args.action == "f" else g_witness
    witness = poly_to_str(build(ladder, t, args.field))
    _emit(args, {args.action: witness}, [witness])
    return 0


def _cmd_fedder(args) -> int:
    if args.field_given and args.field.p != args.p:
        named = ("q names the rationals" if args.field.p is None
                 else f"fp:{args.field.p} names another prime")
        raise UsageError(f"fedder runs over GF({args.p}) from --p; --field {named}")
    field = GF(args.p)
    ladder, t = _load_ladder(args.ladder, args.t, "fedder")
    I = mixed_ladder_ideal(ladder, t, field)
    if args.candidate:
        candidate = parse_polynomial(args.candidate, field)
    else:
        candidate = f_witness(ladder, t, field) ** (args.p - 1)
    result = fedder_check(I, args.p, candidate)
    _emit(args, {"f_pure": result}, [f"f_pure={result}"])
    return 0 if result else 1


def _cmd_symbolic(args) -> int:
    if args.action == "degree":
        if not args.minors or len(args.t or ()) != 1:
            raise UsageError("symbolic degree needs --minors and one size --t")
        minors = [_parse_minor(s) for s in args.minors.split()]
        n = minor_product_symbolic_degree(minors, args.t[0])
        _emit(args, {"degree": n}, [f"degree={n}"])
        return 0
    if not args.ladder:
        raise UsageError(f"symbolic {args.action} needs --ladder")
    ladder, t = _load_ladder(args.ladder, args.t, f"symbolic {args.action}")
    # The strategy refuses mixed sizes before any minor is expanded.
    ring = ladder_ring(args.field, ladder)
    strategy = saturation_strategy(ladder, t, ring)
    I = mixed_ladder_ideal(ladder, t, args.field, ring)
    if args.action == "power":
        _emit_basis(args, symbolic_power_saturation(I, args.n, strategy))
        return 0
    res = initial_symbolic_compare(I, args.n, strategy=strategy)
    witness = str(res.witness) if res.witness is not None else None
    _emit(args, {"equal": res.equal, "witness": witness},
          [f"equal={res.equal}"] + ([f"witness={witness}"] if witness is not None else []))
    return 0 if res.equal else 1


def _verify_payload(deriv):
    """The verify report of a derivation, with its JSON keys `verified` and
    `checks`: a line's node, check, ok and detail."""
    report = verify_derivation(deriv)
    return report, {"verified": report.ok,
                    "checks": [{"node": node, "check": c.name, "ok": c.ok, "detail": c.detail}
                               for node, c in report.lines]}


def _cmd_knutson(args) -> int:
    if args.action == "verify":
        if not args.file:
            raise UsageError("knutson verify needs a derivation file")
        deriv = _load_file(args.file, derivation_from_json, "derivation file")
        report, payload = _verify_payload(deriv)
        _emit(args, payload, [report.as_text()])
        return 0 if report.ok else 1
    if args.corner:
        sizes, which = args.corner
        deriv = corner_derivation(*sizes, args.field, which)
    elif args.ladder:
        ladder, t = _load_ladder(args.ladder, args.t, "knutson derive")
        deriv = ladder_derivation(ladder, t, args.field)
    else:
        raise UsageError("knutson derive needs --ladder or --corner")
    obj = derivation_to_obj(deriv)
    text = json.dumps(obj)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from None
        obj, text = {"wrote": args.out}, f"wrote {args.out}"
    as_text = args.format != "json"
    if as_text:
        print(text)  # before the verification, which can take a while
    ok = True
    if args.verify:
        report, payload = _verify_payload(deriv)
        obj, ok = {**obj, **payload}, report.ok
        if as_text:
            print(report.as_text())
    if not as_text:
        print(json.dumps(obj))  # one document, the derivation's keys in file order
    return 0 if ok else 1


def _cmd_schubert(args) -> int:
    w = _load_file(args.perm, PartialPermutation.from_json, "partial permutation file")
    I = schubert_ideal(w, args.field)
    if not args.gb:
        gens = [poly_to_str(g) for g in I.gens]
        _emit(args, {"gens": gens}, gens)
        return 0
    squarefree = () if I.is_zero else [("squarefree", I.initial_ideal().is_squarefree())]
    _emit_basis(args, I, squarefree)
    return 0


def _cmd_poset(args) -> int:
    k, l = args.shape
    if args.spec:
        spec = _load_file(args.spec, poset_spec_from_json, "poset spec")
        _emit_basis(args, poset_ideal(k, l, spec, args.field))
        return 0
    if not args.delta:
        raise UsageError("poset needs --delta or --spec")
    delta = _parse_minor(args.delta)
    formula = omega_delta_ideal(k, l, delta, args.field)
    if args.check:
        equal = formula.equal(poset_ideal_brute(k, l, delta, args.field))
        _emit(args, {"equal": equal}, [f"formula_matches_bruteforce={equal}"])
        return 0 if equal else 1
    _emit_basis(args, formula)
    return 0


def _cmd_accept(args) -> int:
    keys = None
    if args.suite and args.suite != "all":
        keys = [args.suite]
    results = acceptance.run_suite(keys, seed=args.seed, seconds=args.timeout)
    if args.format == "json":
        print(json.dumps([{"key": r.key, "passed": r.passed, "seconds": round(r.seconds, 2),
                           "details": list(r.details)} for r in results]))
    else:
        for r in results:
            print(r.summary_line())
            if args.verbose:
                for d in r.details:
                    print(f"    {d}")
        total = sum(r.passed for r in results)
        print(f"{total}/{len(results)} criteria pass")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser wiring


def _positive_seconds(text: str) -> float:
    """A --timeout value: a positive number of seconds; inf means no limit."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not seconds > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"not a positive number of seconds: {text!r}")
    return seconds


def _grid_shape(text: str) -> tuple[int, int]:
    """A --shape value: k,l."""
    try:
        k, l = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not k,l: {text!r}") from None
    return k, l


def _corner(text: str):
    """A --corner value k,l,t,r,s[,nw|se]: ((k, l, t, r, s), which), NW unless named."""
    parts = text.split(",")
    try:
        if len(parts) not in (5, 6):
            raise ValueError
        return tuple(int(x) for x in parts[:5]), parts[5] if len(parts) == 6 else "nw"
    except ValueError:
        raise argparse.ArgumentTypeError(f"not k,l,t,r,s[,nw|se]: {text!r}") from None


def _global_options(parser: argparse.ArgumentParser) -> None:
    """The options that go before the command."""
    parser.add_argument("--field",
                        help="coefficient field: q (the default) or fp:<p>; fedder takes its "
                             "prime from --p and refuses q or another fp:<p>, and witness "
                             "certificate is combinatorial, so no field changes it")
    parser.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                        help="seed for randomized suites")
    parser.add_argument("--timeout", type=_positive_seconds, default=60.0,
                        help="positive time budget in seconds for the ladder row scans, minor "
                             "enumerations, Groebner computations, Leibniz expansions "
                             "and the pivot recursion that gives heights, dimensions "
                             "and minimal primes of the command; accept gives each "
                             "criterion its own budget and fails one that exceeds it")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderdet",
        description="Exact computations with ladder determinantal ideals.",
    )
    _global_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    sizes = argparse.ArgumentParser(add_help=False)
    sizes.add_argument("--t", type=int, nargs="+", help="minor sizes, one per lower corner")

    p = sub.add_parser("ladder", parents=[sizes], help="validate, show, chamfer or reduce a ladder")
    p.add_argument("action", choices=("validate", "show", "chamfer", "reduce"))
    p.add_argument("file")
    p.add_argument("--j", type=int, default=1, help="lower corner index for chamfer")
    p.set_defaults(handler=_cmd_ladder)

    p = sub.add_parser("ideal", parents=[sizes], help="arithmetic on ladder or explicit ideals")
    p.add_argument("action", choices=("gens", "gb", "eq", "sum", "intersect", "colon",
                                      "saturate", "member", "initial"))
    p.add_argument("a", help="ideal file: ladder JSON or {shape|cells, gens}")
    p.add_argument("b", nargs="?", help="second ideal file for binary operations")
    p.add_argument("--t2", type=int, nargs="+", help="minor sizes for the second ladder file")
    p.add_argument("--poly", help="polynomial for membership tests")
    p.set_defaults(handler=_cmd_ideal)

    p = sub.add_parser("witness", parents=[sizes], help="splitting witnesses and certificates")
    p.add_argument("action", choices=("f", "g", "certificate"))
    p.add_argument("--ladder", required=True)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("fedder", parents=[sizes], help="Fedder F-purity check at a small prime")
    p.add_argument("--ladder", required=True)
    p.add_argument("--p", type=int, default=2, choices=(2, 3))
    p.add_argument("--candidate", help="explicit candidate polynomial (default: f^(p-1))")
    p.set_defaults(handler=_cmd_fedder)

    p = sub.add_parser("symbolic", parents=[sizes], help="symbolic degrees, powers and comparisons")
    p.add_argument("action", choices=("degree", "power", "compare"))
    p.add_argument("--ladder")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--minors", help="space-separated minors like '12|12 123|123'")
    p.set_defaults(handler=_cmd_symbolic)

    p = sub.add_parser("knutson", parents=[sizes], help="build or verify derivation trees")
    p.add_argument("action", choices=("derive", "verify"))
    p.add_argument("file", nargs="?", help="derivation JSON for verify")
    p.add_argument("--ladder")
    p.add_argument("--corner", type=_corner, help="k,l,t,r,s[,nw|se]")
    p.add_argument("--out", help="write the derivation JSON here")
    p.add_argument("--verify", action="store_true", help="verify after deriving")
    p.set_defaults(handler=_cmd_knutson)

    p = sub.add_parser("schubert", help="Schubert determinantal ideals")
    p.add_argument("--perm", required=True, help="JSON {shape, ones}")
    p.add_argument("--gb", action="store_true", help="print the reduced basis")
    p.set_defaults(handler=_cmd_schubert)

    p = sub.add_parser("poset", help="poset-of-minors ideals")
    p.add_argument("--shape", required=True, type=_grid_shape, help="grid size k,l")
    p.add_argument("--delta", help="cogenerator minor like 12|12")
    p.add_argument("--spec", help="JSON poset spec: {explicit|cogenerators|generalized: [...]}")
    p.add_argument("--check", action="store_true",
                   help="compare the sum formula against brute force")
    p.set_defaults(handler=_cmd_poset)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("run", choices=("run",))
    p.add_argument("suite", nargs="?", default="all",
                   help=f"criterion key or 'all'; known: {', '.join(acceptance.criterion_keys())}")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=_cmd_accept)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on first use, then kept for the
    process.  It raises the errors of its own arguments, for `main` to
    report."""
    parser = build_parser()
    parser.exit_on_error = False
    return parser


class _Front(argparse.ArgumentParser):
    """The options before the command, then the rest of the command line
    as it is; its errors are reported as `_parser` reports its own."""

    def error(self, message):
        _parser().error(message)


@functools.cache
def _front() -> _Front:
    front = _Front(prog="ladderdet", add_help=False)
    _global_options(front)
    front.add_argument("rest", nargs=argparse.REMAINDER)
    return front


# The status of a process that SIGPIPE ends, as a shell reports it.
EXIT_BROKEN_PIPE = 128 + 13


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        # After an option unknown before the command, argparse takes the
        # next word for the command: name the option instead.
        unknown = _front().parse_known_args(argv)[1]
        parser.error(f"unrecognized arguments: {' '.join(unknown)}" if unknown else str(exc))
    try:
        # Every command checks --field, whether it reads it or not; fedder
        # also needs to know whether --field was given.
        args.field_given = args.field is not None
        args.field = parse_field(args.field if args.field_given else "q")
        with time_limit(args.timeout):
            status = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # Whatever is still buffered goes to devnull, so that the
        # interpreter's final flush is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:  # UsageError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
