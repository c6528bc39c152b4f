"""Self-test of the benchmark and its tracer.

    python3 perfbench/selftest.py [--seed N]

For every workload it runs one traced pass under PYTHONHASHSEED=1 and one
under PYTHONHASHSEED=2, and one untraced pass, then checks that:

- BENCHMARK.json names exactly the metrics that run.py and layers.py emit;
- an untraced pass leaves no tracer wrapper bound anywhere in ladderdet,
  and a traced pass finds every traced name;
- every layer metric records calls on each workload that layers.py says
  loads it, and none on each workload where layers.py says it does not
  change;
- every `.calls` count is the same under both hash seeds (a difference is
  reported as a finding, not hidden by pinning the hash seed);
- each workload loads the layer it was chosen for: cover search is more
  than half of cover-height and under 5% of gb-minors, the Buchberger
  family more than half of gb-minors and under 5% of cover-height, and
  the ideal-arithmetic spans cover more than half of elim-saturate.

Exits 1 if any check fails.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import run  # noqa: E402

COVER_SEARCH = ["groebner.min_cover_size", "groebner.minimal_covers"]
BUCHBERGER = ["groebner.buchberger", "groebner.is_groebner_basis", "groebner.Reducer.reduce",
              "groebner.s_polynomial", "groebner.interreduce"]
IDEAL_ARITHMETIC = ["groebner.Ideal.intersect", "groebner.Ideal.colon_poly",
                    "groebner.Ideal.saturate", "groebner.Ideal.bracket",
                    "groebner.Ideal.contains", "knutson.verify"]


def covered_s(spans, names) -> float:
    """Time inside spans of `names`, counting nested ones once."""
    names = set(names)
    by_index = {s[0]: s for s in spans}
    total = 0.0
    for index, name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and by_index[parent][1] not in names:
            parent = by_index[parent][4]
        if parent < 0:
            total += end - start
    return total


def traced_pass(workload, seed, hashseed):
    os.environ["PYTHONHASHSEED"] = str(hashseed)
    path = run.OUT / f"selftest-{workload}-{hashseed}.jsonl.gz"
    p = run.run_child(workload, seed, time.monotonic() + run.RUN_CAP_S, "--trace", str(path))
    with gzip.open(path, "rt") as fh:
        spans = [json.loads(line) for line in fh]
    path.unlink()
    return p, spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args()
    run.OUT.mkdir(exist_ok=True)
    failures = []

    def check(ok, what):
        print(f"[{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check([m["name"] for m in bench["per_layer"]] == layers.NAMES,
          "BENCHMARK.json per_layer lists the metrics of layers.py, in order")
    check({m["name"]: m["unit"] for m in bench["per_layer"]}
          == {name: unit for name, unit, *_ in layers.METRICS},
          "BENCHMARK.json per_layer units match layers.py")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the workloads of run.py")

    shares = {}
    for workload in run.WORKLOADS:
        plain = run.run_child(workload, args.seed, time.monotonic() + run.RUN_CAP_S)
        check(plain.complete and plain.final["wrapped"] == 0,
              f"{workload}: an untraced pass binds no tracer wrapper")
        (first, spans), (second, _) = (traced_pass(workload, args.seed, h) for h in (1, 2))
        check(first.complete and second.complete and first.failures == second.failures == 0,
              f"{workload}: traced passes finish with every verdict right")
        if not (first.complete and second.complete):
            continue
        check(not first.final["missing"], f"{workload}: every traced name exists in ladderdet")
        check(first.final["wrapped"] > 0, f"{workload}: a traced pass binds the wrappers")
        a, b = first.final["trace"], second.final["trace"]
        calls = sorted(name for name in a if name.endswith(".calls"))
        differ = [name for name in calls if a[name] != b[name]]
        check(not differ, f"{workload}: {len(calls)} call counts repeat under two hash seeds"
              + (f"; differ: {differ}" if differ else ""))
        loaded = {name.rsplit(".", 1)[0] for name, _, _, _, on, _ in layers.METRICS
                  if workload in on and name != "trace.overhead_s"}
        for span in sorted(loaded):
            check(a.get(f"{span}.calls", 0) > 0, f"{workload}: {span} is called")
        idle = {name for name, _, _, _, _, unchanged_on in layers.METRICS
                if workload in unchanged_on and name.endswith(".calls")}
        for name in sorted(idle):
            check(a[name] == 0, f"{workload}: {name} is 0")
        wall = first.wall_s
        shares[workload] = {
            "cover search": sum(a[f"{n}.self_s"] for n in COVER_SEARCH) / wall,
            "Buchberger family": sum(a[f"{n}.self_s"] for n in BUCHBERGER) / wall,
            "ideal arithmetic": covered_s(spans, IDEAL_ARITHMETIC) / wall,
        }
        print(f"    {workload}: traced wall {wall:.2f} s, untraced {plain.wall_s:.2f} s, shares "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares[workload].items()))

    if len(shares) == len(run.WORKLOADS):
        check(shares["cover-height"]["cover search"] > 0.5, "cover search > 50% of cover-height")
        check(shares["gb-minors"]["cover search"] < 0.05, "cover search < 5% of gb-minors")
        check(shares["gb-minors"]["Buchberger family"] > 0.5,
              "Buchberger family > 50% of gb-minors")
        check(shares["cover-height"]["Buchberger family"] < 0.05,
              "Buchberger family < 5% of cover-height")
        check(shares["elim-saturate"]["ideal arithmetic"] > 0.5,
              "ideal-arithmetic spans cover > 50% of elim-saturate")
    print(f"{len(failures)} check(s) failed" if failures else "all checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
