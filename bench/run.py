"""Benchmark for kwl: one workload per run, printed as one JSON line.

    python3 bench/run.py --workload decide|modelcheck|proofcheck|all \
        --seed N --seconds S --trace 0|1 [--small]

Run from the root of a checkout.  The inputs are drawn from --seed and every
kwl process gets PYTHONHASHSEED = seed mod 2^32, so tableau work repeats
exactly for a seed.  With --trace 0 the result holds the end-to-end metrics,
with --trace 1 the per-layer ones.  --small shrinks every input so that a
pass with every check on takes seconds (see selftest.py).  --workload all
prints one line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 16  # fresh processes timed for setup_s, after one that fills the bytecode cache
TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _worker(args, env, timeout):
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[1]} exited {proc.returncode}: {proc.stderr.strip()}")
    sys.stderr.write(proc.stderr)
    return proc.stdout.strip().splitlines()[-1]


def run_workload(name, seed, seconds, trace, small):
    import workloads

    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    env.pop("PYTHONPATH", None)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=_work_root())
    try:
        inp = workloads.WORKLOADS[name].inputs(seed, small, workdir)
        inp["workload"] = name
        path = os.path.join(workdir, "inputs.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inp, fh)
        setups = [float(_worker([path, "setup"], env, 60)) for _ in range(SETUP_PROBES + 1)][1:]
        out = json.loads(_worker([path, "trace" if trace else "run", str(seconds)], env,
                                 TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in out["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in out["trace"].items()}
    else:
        ms = [ns / 1e6 for ns in out["task_ns"]]
        cuts = statistics.quantiles(ms, n=10, method="inclusive")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "tasks_per_s": {"value": len(ms) / (sum(ms) / 1e3), "unit": "1/s"},
            "task_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "task_p90_ms": {"value": cuts[8], "unit": "ms"},
            "peak_rss_mb": {"value": out["rss_mb"], "unit": "MB"},
        }
    return {"correct": not out["problems"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def _unit(metric):
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _work_root():
    """Where a run keeps its input files: inside the checkout, ignored by git."""
    path = os.path.join(HERE, ".work")
    os.makedirs(path, exist_ok=True)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["decide", "modelcheck", "proofcheck", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kwl", "__init__.py")):
        print(f"no kwl sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = ["decide", "modelcheck", "proofcheck"] if args.workload == "all" else [args.workload]
    try:
        results = [(name, run_workload(name, args.seed, args.seconds, args.trace, args.small))
                   for name in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, result in results:
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
