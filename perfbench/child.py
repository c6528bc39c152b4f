"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/child.py --workload NAME --seed N --workdir DIR
                                  [--trace SPANS_FILE]

Set-up (timed as setup_s) imports ladderdet from this checkout's src/,
generates the seeded instances and writes them to DIR.  The pass then runs
the instances one after another, each after the previous verdict, and
checks every verdict after the pass.  Between instances it also times a
fixed piece of the benchmark's own work (combinatorics.reference_work), so
the parent can tell how fast the CPU ran.  Progress goes to stdout as JSON
lines, one per instance, so the parent knows how far the pass got if it has
to kill this process.  Anything ladderdet prints is sent to stderr instead.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# The pass times the reference work before every REF_EVERY-th instance.
REF_EVERY = 4


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    args = parser.parse_args()

    report = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr

    def emit(obj):
        report.write(json.dumps(obj) + "\n")
        report.flush()

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import ladderdet
    import ladderdet.cli  # noqa: F401  (cli-jobs calls it; loaded for every workload alike)

    if not Path(ladderdet.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"ladderdet imported from {ladderdet.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import combinatorics
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    instances = workloads.generate(args.workload, args.seed, workdir)
    text = json.dumps(instances, sort_keys=True)
    (workdir / "instances.json").write_text(text)
    setup_s = time.perf_counter() - STARTED
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    emit({"setup_s": setup_s, "instances": len(instances), "digest": digest})

    instances = json.loads(text.replace("{dir}", str(workdir))
                           .replace("{fixtures}", str(workloads.FIXTURE_DIR)))
    import tracer as tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    clock = time.perf_counter
    verdicts = []
    for index, spec in enumerate(instances):
        if index % REF_EVERY == 0:
            start = clock()
            combinatorics.reference_work()
            emit({"ref": clock() - start})
        if tracer is not None:
            tracer.instance = index
        error = None
        start = clock()
        try:
            verdict = workload.run(ladderdet, spec)
        except Exception as exc:  # a failed instance is counted, the pass goes on
            verdict, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        verdicts.append((verdict, error))
        emit({"i": index, "s": elapsed})

    result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "wrapped": len(tracing.installed_wrappers())}
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["missing"] = tracer.missing
        result["spans"] = len(tracer.spans)
        tracer.write_spans(args.trace)

    # Answers are checked after the pass, so the checks add no time, memory
    # or traced calls to the measured pass.
    failures = {}
    for index, (spec, (verdict, error)) in enumerate(zip(instances, verdicts)):
        if error is None:
            try:
                if not workload.check(ladderdet, spec, verdict):
                    error = "wrong verdict"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures[index] = error
    result["failures"] = failures
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
