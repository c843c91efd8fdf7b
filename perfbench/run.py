"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest-ionosphere --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate, instrumented run.  The last line of standard
output is the result object; the line before it records the machine and
run details.  ``--smoke`` shrinks every size so the benchmark's own tests
finish in seconds.
"""

from __future__ import annotations

import os

# One BLAS thread per process: pool workers inherit this, and two BLAS
# threads in each of several processes would oversubscribe the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("online-musk", "bulk-arrhythmia", "ingest-ionosphere")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from measure import environment, read_cpu_ticks
    from metrics import END_TO_END, ONLINE_LAYER, PER_LAYER

    if args.workload == "online-musk":
        import online as workload
    elif args.workload == "bulk-arrhythmia":
        import bulk as workload
    else:
        import ingest as workload

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    ctx = types.SimpleNamespace(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        smoke=args.smoke, workdir=workdir,
    )
    ticks = read_cpu_ticks()
    try:
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(ROOT, args.seed, ticks, read_cpu_ticks())

    if args.trace:
        # A layer that does no work on this workload reports 0.
        measured = outcome["layers"]
        catalogue = PER_LAYER
        if args.workload == "online-musk":
            catalogue = {**PER_LAYER, **ONLINE_LAYER}
    else:
        measured = outcome["e2e"]
        catalogue = END_TO_END
    unknown = set(measured) - set(catalogue)
    missing = set(catalogue) - set(measured) if not args.trace else set()
    if unknown or missing:
        raise RuntimeError(f"metric set mismatch: {unknown=} {missing=}")
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, (unit, _better) in catalogue.items()
    }
    print(json.dumps({
        "env": env,
        "workload": args.workload,
        "first_error": outcome["first_error"],
        # End-to-end figures of this run too: in a traced run they show
        # the tracing overhead, and they are not its result.
        "e2e": outcome["e2e"],
        "details": outcome.get("details", {}),
    }))
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
