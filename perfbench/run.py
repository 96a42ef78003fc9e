#!/usr/bin/env python3
"""carlat's benchmark: one workload, measured from outside, checked.

    python3 perfbench/run.py --workload carleman_sweep --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  carlat is imported from ``src/``; nothing
is built.  This process imports neither numpy nor carlat: it starts the
workload in fresh processes, one at a time (worker.py), after checking that
enough memory is available for it.  Set-up time is the median over several
processes that only set up, plus the measuring one.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics, from a separate
run in which every call into a carlat layer is wrapped and timed; the spans
are written to ``perfbench/.traces/``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Peak RSS of one workload process in MB, measured on the full sizes, with
# headroom; a workload is refused, as a failed operation, when less memory
# than this is available.  The margin scan's (d,)+R^d meshes dominate.
NEED_MB = {"carleman_sweep": 400, "margin_scan": 2800, "ball_solves": 900, "report_io": 700}
SMOKE_NEED_MB = 300
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6
DEADLINE_S = 170.0


def mem_available_mb() -> float:
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("MemAvailable missing from /proc/meminfo")


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Refused(Exception):
    pass


def spawn(args, mode, workdir, deadline):
    """Run worker.py to completion by ``deadline`` (monotonic); returns its JSON result."""
    need = SMOKE_NEED_MB if args.size == "smoke" else NEED_MB[args.workload]
    available = mem_available_mb()
    if available < need:
        raise Refused(f"MemAvailable {available:.0f} MB < {need} MB needed by {args.workload}")
    env = dict(os.environ)
    # jobs=1 is the single-threaded baseline; an idle BLAS pool only spins
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--spawn-t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=deadline - time.monotonic())
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, workdir):
    """Set-up probes, then the measuring process.  Returns (setups, result)."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [spawn(args, "setup", workdir, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    result = spawn(args, "measure", workdir, deadline)
    return setups + [result["setup_s"]], result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NEED_MB))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: reduced inputs for the harness's own test")
    args = p.parse_args()
    if not (ROOT / "src" / "carlat" / "__init__.py").is_file():
        print(f"error: no carlat source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    env = {"git_sha": git_sha(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "mem_available_mb": mem_available_mb()}
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, result = measure(args, workdir)
    except (Refused, subprocess.TimeoutExpired) as exc:
        print(f"refused, counted as a failed operation: {exc}")
        print("env " + json.dumps(env, sort_keys=True))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env.update(result["env"])
    walls = result["walls"]
    if args.trace:
        values = result["layers"]
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:44} {m['value']:>16.6g} {m['unit']}")
    print(f"  wall_s over {len(walls)} untraced operations: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"  setup_s over {len(setups)} processes: " + " ".join(f"{s:.4f}" for s in setups))
    print(f"  {'fail_frac':44} {result['failed'] / result['attempted']:>16.6g} "
          f"of {result['attempted']} ops")
    for problem in result["problems"]:
        print(f"  problem: {problem.strip()}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
