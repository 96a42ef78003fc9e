"""One workload process: set up, run timed operations, check every output.

Started by run.py, one process at a time, so that ``ru_maxrss`` and the
set-up time belong to one workload.  ``--mode setup`` stops after the
set-up; ``--mode measure`` runs operations for about ``--seconds`` and,
with ``--trace 1``, runs untraced operations, then traced ones, then the
stencil cases.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def timed_ops(workload, seconds, tracer=None):
    """Run operations until the next one would likely end after ``seconds``.

    At least one runs.  An operation fails when it raises or its check finds
    a problem; checks run untimed and untraced.  With a tracer, each
    operation's spans are summarised and kept.  Returns a dict of lists.
    """
    ops = {"walls": [], "cpus": [], "problems": [], "failed": 0, "summaries": [], "spans": []}
    walls = ops["walls"]
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        if tracer is not None:
            tracer.reset()
            tracer.enabled = True
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            output, found = workload.run(), []
        except Exception:
            output, found = None, [traceback.format_exc(limit=3)]
        walls.append(time.perf_counter() - t0)
        ops["cpus"].append(time.process_time() - c0)
        if tracer is not None:
            tracer.enabled = False
            ops["summaries"].append(tracer.summary(walls[-1]))
            ops["spans"].append(tracer.spans())
        if output is not None:
            try:
                found = workload.check(output)
            except Exception:
                found = [traceback.format_exc(limit=3)]
        ops["problems"] += found
        ops["failed"] += bool(found)
    return ops


def environment() -> dict:
    import numpy
    import scipy

    import carlat

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": carlat.kernel_backend,
        "carlat_path": str(Path(carlat.__file__).parent),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spawn-t0", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--workdir", required=True)
    args = p.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, Path(args.workdir))
    result = {"setup_s": time.monotonic() - args.spawn_t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    result["env"] = environment()
    if not args.trace:
        ops = timed_ops(workload, args.seconds)
        attempted = len(ops["walls"])
    else:
        import tracing

        # untraced operations first: their median is the base of the overhead
        ops = timed_ops(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_ops(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        cases, case_problems = tracing.stencil_cases(args.seed)
        ops["problems"] += traced["problems"] + case_problems
        ops["failed"] += traced["failed"] + len(case_problems)
        attempted = len(ops["walls"]) + len(traced["walls"]) + 2 * len(tracing.STENCIL_CASES)
        untraced_wall = statistics.median(ops["walls"])
        traced_wall = statistics.median(traced["walls"])
        summaries = traced["summaries"]
        layers = {k: statistics.median(m[k] for m in summaries) for k in summaries[0]}
        layers.update(cases)
        layers["process.cpu_s"] = statistics.median(ops["cpus"])
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        result["layers"] = layers
        dump = Path(__file__).parent / ".traces" / f"{args.workload}-seed{args.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "fields": ["name", "start", "end", "parent"],
                                    "ops": traced["spans"]}))
    result.update(walls=ops["walls"], problems=ops["problems"], attempted=attempted,
                  failed=ops["failed"],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
