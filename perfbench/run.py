"""Seeded end-to-end benchmark of ladderdet.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: gb-minors, cover-height, elim-saturate, cli-jobs (see
perfbench/README.md).  The load is a closed loop with one client: a fresh
single-threaded child process (perfbench/child.py) per pass runs every
instance of the seeded workload once, each after the previous verdict, so
caches and interned variables start cold in every pass.  A run makes a
fixed number of passes, --seconds / PASS_S, the same for every version of
the program.  Each instance's time to verdict is the fastest of its passes;
wall_s is the sum of these minima (not the wall time of any one pass),
set-up time is the fastest of the passes' set-ups, and memory is the median.
Times are then scaled to a fixed CPU speed: each pass also times a fixed
piece of the benchmark's own work before every fourth instance, this
reference time is taken like an instance's (the fastest of the passes at
each position, averaged over positions), and every time is multiplied by
REF_S / (the reference time).  The unscaled times are printed beside them.
Every verdict is checked; wrong verdicts, exceptions and instances left
unfinished when a child is killed at the run's time cap count as failed.

With --trace 0 the last line of output is the JSON result with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of one
traced pass, and the spans go to perfbench/out/.  Exits 1 without a result
when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("gb-minors", "cover-height", "elim-saturate", "cli-jobs")
DEFAULT_SEED = 1
# Every child is killed by this point, so a run ends within 180 s whatever
# the program does: the engine's own time_limit does not reach every loop.
RUN_CAP_S = 150.0
# Nominal seconds of one pass (child process) on a 2-CPU machine: a pass
# takes 2.5-4 s there.  It only sets the pass count, so the count does not
# depend on the speed of the program measured.
PASS_S = 4.0
# The time of combinatorics.reference_work on a 2-CPU machine.  The speed
# of a shared CPU drifts by a third for tens of seconds at a time, longer
# than a run; the reference work slows with it, while no change to
# ladderdet can change it, so times scaled by it compare across runs.
REF_S = 0.0015

sys.path.insert(0, str(HERE))
import layers  # noqa: E402


class SetupFailed(RuntimeError):
    pass


class Pass:
    """What one child process reported."""

    def __init__(self, lines, seconds):
        self.seconds = seconds
        header = lines[0] if lines and "setup_s" in lines[0] else None
        if header is None:
            raise SetupFailed("the child reported no set-up")
        self.setup_s = header["setup_s"]
        self.instances = header["instances"]
        self.digest = header["digest"]
        self.times = [line["s"] for line in lines if "i" in line]
        self.refs = [line["ref"] for line in lines if "ref" in line]
        self.final = lines[-1] if "peak_rss_mb" in lines[-1] else None

    @property
    def complete(self) -> bool:
        return self.final is not None

    @property
    def failures(self) -> int:
        """Instances without a checked right answer."""
        if self.final is None:
            return self.instances
        return len(self.final["failures"]) + self.instances - len(self.times)

    @property
    def wall_s(self) -> float:
        return sum(self.times) if self.complete else self.seconds

    @property
    def wall_at_ref_s(self) -> float:
        """Summed time to verdict, scaled by this pass's mean reference time."""
        return self.wall_s * REF_S / statistics.mean(self.refs)


def run_child(workload, seed, deadline, *extra):
    workdir = OUT / f"work-{workload}-{seed}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    killed = False
    try:
        out, err = proc.communicate(timeout=max(0.1, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    try:
        result = Pass(lines, time.monotonic() - started)
    except SetupFailed:
        raise SetupFailed(f"{workload}: set-up failed (exit {proc.returncode}):\n{err[-2000:]}")
    if not killed and proc.returncode != 0:
        result.final = None
    if err.strip():
        print(err.rstrip()[-2000:], file=sys.stderr)
    return result


def run_passes(workload, seed, count, deadline):
    """`count` untraced passes.  Fewer only when a pass fails, or when the
    program has become so slow that the next pass would not end by the
    run's time cap."""
    passes = []
    while len(passes) < count:
        p = run_child(workload, seed, deadline)
        passes.append(p)
        if not p.complete or time.monotonic() + p.seconds > deadline:
            break
    return passes


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by Python's default quantile method."""
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ladderdet" / "__init__.py").is_file():
        print(f"error: no ladderdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_CAP_S
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = run_passes(args.workload, args.seed, max(2, int(budget / PASS_S)), deadline)
        traced = None
        if args.trace and passes[-1].complete:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            traced = run_child(args.workload, args.seed, deadline, "--trace", str(spans))
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    everything = passes + ([traced] if traced else [])
    digests = {p.digest for p in everything}
    attempted = sum(p.instances for p in everything)
    failed = sum(p.failures for p in everything)
    complete = [p for p in passes if p.complete]
    # Each instance's time to verdict, and the set-up time, is the fastest
    # of this run's passes: the speed of a shared CPU drifts by a third
    # within seconds, and interference only ever adds time.
    if complete:
        times_ms = [min(p.times[i] for p in complete) * 1000 for i in range(passes[0].instances)]
        wall_s = sum(times_ms) / 1000
    else:
        times_ms = [s * 1000 for p in passes for s in p.times]
        wall_s = passes[-1].wall_s
    # The reference work is timed like one more instance at every
    # REF_EVERY-th position: the fastest of its passes at each position,
    # averaged over the positions.
    ref_s = (statistics.mean(min(p.refs[j] for p in complete)
                             for j in range(len(complete[0].refs))) if complete else REF_S)
    scale = REF_S / ref_s
    raw = {
        "wall_s": (wall_s, "s"),
        "verdict_p50_ms": (statistics.median(times_ms), "ms"),
        "verdict_p90_ms": (percentile(times_ms, 90), "ms"),
        "setup_s": (min(p.setup_s for p in passes), "s"),
    }
    e2e = {
        **{name: (value * scale, unit) for name, (value, unit) in raw.items()},
        "peak_rss_mb": (statistics.median(p.final["peak_rss_mb"] for p in complete)
                        if complete else 0.0, "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }

    print(f"workload {args.workload}  seed {args.seed}  inputs {','.join(sorted(digests))}  "
          f"{passes[0].instances} instances x {len(passes)} passes")
    print(f"  reference work {ref_s * 1000:.4f} ms (nominal {REF_S * 1000:.4f} ms): "
          f"times scaled by {scale:.4f}")
    notes = {"wall_s": f"fastest of {len(complete)} passes per instance, summed",
             "verdict_p50_ms": f"{len(times_ms)} samples, {passes[0].instances} instances",
             "verdict_p90_ms": f"{len(times_ms)} samples, {passes[0].instances} instances",
             "failed_frac": f"{failed} of {attempted} attempted",
             "setup_s": f"fastest of {len(passes)} set-ups"}
    for name, (value, unit) in e2e.items():
        unscaled = f"unscaled {raw[name][0]:.4f}; " if name in raw else ""
        print(f"  {name:<16} {value:12.4f} {unit:<6} {unscaled}{notes.get(name, '')}")
    for p in everything:
        for index, error in (p.final or {}).get("failures", {}).items():
            print(f"  failed instance {index}: {error}")

    if args.trace:
        metrics = {}
        if traced is not None and traced.complete:
            layer = traced.final["trace"]
            layer["trace.overhead_s"] = (traced.wall_at_ref_s
                                         - statistics.median(p.wall_at_ref_s for p in complete))
            for name, unit, *_ in layers.METRICS:
                metrics[name] = {"value": layer.get(name, 0), "unit": unit}
            print(f"  traced pass: {traced.final['spans']} spans, wall {traced.wall_s:.3f} s, "
                  f"spans in {spans.relative_to(ROOT)}")
            for name in traced.final["missing"]:
                print(f"  not traced (missing from ladderdet): {name}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items() if name != "failed_frac"}

    # An untraced pass must run the program unwrapped.
    correct = failed == 0 and len(digests) == 1 and not any(p.final["wrapped"] for p in complete)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
