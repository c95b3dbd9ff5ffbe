"""svfield benchmark: one workload, one seed, one JSON line of results.

    python3 svbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. BLAS threads are pinned, for this process and the CLI processes it
starts, to the CPUs this process may run on. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same work twice (untraced and
checked, then traced), each with one set-up and one round, and prints the
per-layer metrics of the traced pass plus the tracing overhead (traced
minus untraced time of the timed operations), keeping the spans in
``.svbench_work/trace-<workload>-<seed>.json``. The last line of standard
output is the result object. A failed operation ends the run at once: the
result then has ``correct`` false, the operations counted so far and no
metrics, and the exit code is 1. A missing program, or a machine-speed
factor outside ``SPEED_RANGE``, ends it with a non-zero exit code and no
result.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS
os.environ["PYTHONPATH"] = SRC
sys.path[:0] = [SRC, HERE]

SETUPS = 3  # set-ups per run; setup_s is their median
# times scale with the machine's speed factor, rates inversely (harness.Ctx.speed)
SPEED_POWER = {"s": 1, "points/s": -1}
# speed factors the reference machine showed on its own (0.59-1.26 in 120
# runs) with a margin; outside, another load skews the probe and the figures
# are not reported
SPEED_RANGE = (0.5, 1.5)


def peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "svfield", "__init__.py")):
        print(f"no svfield sources under {SRC}", file=sys.stderr)
        return 2

    import harness
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = workloads.WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    work_root = os.path.join(ROOT, ".svbench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    if args.trace == 0:
        passes = [harness.Ctx(work, args.seed, args.seconds, n_setups=SETUPS)]
    else:
        # untraced reference pass, which also runs the checks, then the traced pass
        passes = [harness.Ctx(os.path.join(work, name), args.seed, args.seconds, n_setups=1, max_rounds=1,
                              traced=name == "traced", checking=name == "plain")
                  for name in ("plain", "traced")]
    try:
        if args.trace == 0:
            ctx = passes[0]
            figures = run(ctx)
            print(f"wall-clock figures: {json.dumps(figures)}; speed {ctx.speed:.4f}", file=sys.stderr)
            if not SPEED_RANGE[0] <= ctx.speed <= SPEED_RANGE[1]:
                print(f"speed factor {ctx.speed:.3f} outside {SPEED_RANGE}: another load on this machine "
                      "skews the probe; no result", file=sys.stderr)
                return 3
            figures = {k: v * ctx.speed ** SPEED_POWER.get(unit_of[k], 0) for k, v in figures.items()}
            figures["peak_rss_mb"] = peak_rss_mb()
            listed = spec["end_to_end"]
        else:
            for ctx in passes:
                run(ctx)
            plain, traced = passes
            spans.dump(os.path.join(work_root, f"trace-{args.workload}-{args.seed}.json"), traced.processes)
            figures = spans.layer_metrics(traced.processes)
            figures["trace.overhead_s"] = traced.busy_s * traced.speed - plain.busy_s * plain.speed
            listed = spec["per_layer"]
    except harness.OpFailed as exc:
        print(f"operation failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": sum(p.attempted for p in passes),
                          "failed": sum(p.failed for p in passes), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in listed}
    fails = [f for p in passes for f in p.fails]
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not fails,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
