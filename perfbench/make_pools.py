"""Rebuild perfbench/pools.json, the candidate ladders of each size stratum.

    python3 perfbench/make_pools.py

Draws random staircase cuts of 4x4 to 6x6 grids with random.Random(0) and
files each valid (ladder, t) under the stratum of every workload whose
`size(t, cells)` falls in it, keeping up to POOL_FACTOR times the
stratum's quota of distinct candidates.  A run's seed then only draws from
these pools, so its set-up does no search.  Uses combinatorics.py alone,
never ladderdet.  Rebuilding changes every workload's inputs and so the
instance digests in run output: record new baseline numbers after it.
"""

from __future__ import annotations

import json
import random
import sys

import combinatorics as cb
import workloads

POOL_FACTOR = 3
MAX_DRAWS = 200_000


def main() -> int:
    rng = random.Random(0)
    stratified = {name: w for name, w in workloads.WORKLOADS.items() if hasattr(w, "STRATA")}
    pools = {name: {key: [] for key in w.STRATA} for name, w in stratified.items()}
    open_strata = sum(len(p) for p in pools.values())
    draws = 0
    while open_strata and draws < MAX_DRAWS:
        draws += 1
        k, l = rng.randint(*cb.GRID_RANGE), rng.randint(*cb.GRID_RANGE)
        drawn = cb.staircase_ladder(rng, k, l)
        if drawn is None:
            continue
        shape, upper, lower = drawn
        cell_set = cb.cells(shape, upper, lower)
        for t in range(2, cb.max_square(cell_set) + 1):
            valid = None
            spec = workloads._spec(shape, upper, lower, t=t)
            for name, w in stratified.items():
                n = w.size(t, cell_set)
                key = next((key for key in w.STRATA
                            if n is not None and key[0] == t and key[1] <= n < key[2]), None)
                pool = pools[name].get(key)
                if pool is None or len(pool) >= POOL_FACTOR * w.STRATA[key] or spec in pool:
                    continue
                if valid is None:
                    valid = cb.is_valid(shape, upper, lower, (t,) * len(lower), cell_set)
                if valid:
                    pool.append(spec)
                    open_strata -= len(pool) == POOL_FACTOR * w.STRATA[key]
    empty = [(name, key) for name, p in pools.items() for key, pool in p.items() if not pool]
    for name, p in pools.items():
        for key, pool in p.items():
            if len(pool) < POOL_FACTOR * stratified[name].STRATA[key]:
                print(f"{name} {key}: {len(pool)} distinct candidates", file=sys.stderr)
    if empty:
        print(f"error: empty strata after {draws} draws: {empty}", file=sys.stderr)
        return 1
    text = json.dumps({name: {str(key): pool for key, pool in p.items()}
                       for name, p in pools.items()}, separators=(",", ":"))
    workloads.POOLS.write_text(text + "\n")
    print(f"{workloads.POOLS.name}: {draws} draws, "
          f"{sum(len(q) for p in pools.values() for q in p.values())} candidates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
