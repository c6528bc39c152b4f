"""The per-layer metrics of a traced run, and what each one should move.

Each entry: metric name, unit, better direction, the end-to-end metrics a
change to that layer should move, the workloads on which they should move
(the layer is loaded there: the self-test requires a nonzero call count),
and the workloads on which they should not change (the layer is not called
there: the self-test requires a zero call count).  `poly.mono_divides` is
also loaded by cover-height, where `MonomialIdeal.from_monomials`
minimalizes the generators.
"""

from __future__ import annotations

GB, COVER, ELIM, CLI = "gb-minors", "cover-height", "elim-saturate", "cli-jobs"


def _group(prefix, stats, moves, on, unchanged_on=()):
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "total_s": ("s", "lower"),
             "zero_frac": ("ratio", "lower"), "hit_frac": ("ratio", "higher"),
             "buchberger_per_call": ("count", "lower")}
    return [(f"{prefix}.{stat}", *units[stat], moves, on, unchanged_on) for stat in stats]


METRICS = [
    *_group("poly.mono_lcm", ["calls"], ["wall_s"], [GB, ELIM], [COVER]),
    *_group("poly.mono_divides", ["calls"], ["wall_s"], [GB, ELIM, COVER]),
    *_group("poly.mono_mul", ["calls"], ["wall_s"], [GB, ELIM], [COVER]),
    *_group("poly.mono_div", ["calls"], ["wall_s"], [GB, ELIM], [COVER]),
    *_group("poly.expand_minor", ["calls", "self_s"], ["wall_s", "verdict_p50_ms"], [GB, CLI]),
    *_group("groebner.buchberger", ["calls", "self_s", "total_s"],
            ["wall_s", "verdict_p90_ms"], [GB, ELIM], [COVER]),
    *_group("groebner.is_groebner_basis", ["calls", "self_s", "total_s"],
            ["wall_s", "verdict_p90_ms"], [GB, ELIM], [COVER]),
    *_group("groebner.Reducer.reduce", ["calls", "self_s", "zero_frac"], ["wall_s"], [GB, ELIM]),
    *_group("groebner.s_polynomial", ["calls", "self_s"], ["wall_s"], [GB, ELIM]),
    *_group("groebner.interreduce", ["calls", "self_s"], ["wall_s"], [GB, ELIM]),
    *_group("groebner.Ideal.groebner_basis", ["calls", "hit_frac"],
            ["wall_s", "peak_rss_mb"], [ELIM, CLI]),
    *_group("groebner.Ideal.intersect", ["calls", "self_s", "total_s", "buchberger_per_call"],
            ["wall_s"], [ELIM], [GB]),
    *_group("groebner.Ideal.colon_poly", ["calls", "self_s"], ["wall_s"], [ELIM], [GB]),
    *_group("groebner.Ideal.saturate", ["calls", "total_s"], ["wall_s"], [ELIM], [GB]),
    *_group("groebner.Ideal.bracket", ["calls", "self_s"], ["wall_s"], [ELIM], [GB]),
    *_group("groebner.Ideal.contains", ["calls", "self_s"], ["wall_s"], [ELIM], [GB]),
    *_group("groebner.min_cover_size", ["calls", "self_s"],
            ["wall_s", "verdict_p90_ms"], [COVER], [GB]),
    *_group("groebner.minimal_covers", ["calls", "self_s"],
            ["wall_s", "verdict_p90_ms"], [COVER], [GB]),
    *_group("groebner.MonomialIdeal.symbolic_power", ["calls", "self_s"],
            ["wall_s", "verdict_p90_ms"], [ELIM], [GB]),
    *[m for name in ("validate", "chamfer", "reduce_to_unmixed", "antidiagonal_profile")
      for m in _group(f"ladders.{name}", ["calls", "self_s"],
                      ["verdict_p50_ms"], [CLI])],
    *[m for name in ("minors_in_ladder", "mixed_ladder_ideal", "f_witness")
      for m in _group(f"ideals.{name}", ["calls", "self_s"], ["verdict_p50_ms"],
                      [CLI] if name == "f_witness" else [CLI, GB])],
    *_group("knutson.verify", ["calls", "self_s", "total_s"], ["wall_s"], [ELIM, CLI]),
    *[(f"knutson.{name}.self_s", "s", "lower", ["wall_s"], [ELIM, CLI], [])
      for name in ("ladder_derivation", "corner_derivation")],
    ("oracle.symbolic_fsplit_certificate.self_s", "s", "lower", ["wall_s"], [CLI], []),
    *_group("oracle.fedder_check", ["self_s", "total_s"], ["wall_s"], [ELIM, CLI]),
    ("oracle.initial_symbolic_compare.total_s", "s", "lower", ["wall_s"], [ELIM], []),
    ("oracle.symbolic_power_saturation.total_s", "s", "lower", ["wall_s"], [ELIM], []),
    *_group("acceptance.run_criterion", ["calls", "self_s"], ["verdict_p50_ms"], [CLI]),
    *_group("cli.main", ["calls", "self_s"], ["verdict_p50_ms"], [CLI]),
    ("trace.overhead_s", "s", "lower", [], [GB, COVER, ELIM, CLI], []),
]

NAMES = [m[0] for m in METRICS]
