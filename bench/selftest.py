"""The benchmark's own test: a reduced-size pass of every workload, every check on.

    python3 bench/selftest.py

Runs run.py --small on two seeds, untraced and traced, and checks that every
answer passed the oracle, that the only failures are the kept gen_prop19(6)
task, once a round, that every metric named in BENCHMARK.json is printed,
and that the tableau and tautology counters repeat exactly for a seed.  It also checks the
oracle on facts stated in the README of kwl, and that the benchmark refuses
to run without the kwl sources.  Takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(seed, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           "--workload", "all", "--small", "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def check_oracle():
    import oracle

    with open(os.path.join(ROOT, "fixtures", "m1.json"), encoding="utf-8") as fh:
        m1 = json.load(fh)
    kw = lambda f: ("kw", "i", f)  # noqa: E731
    p, q = ("p", "p"), ("p", "q")
    assert oracle.holds(m1, "s", kw(p))
    assert not oracle.holds(m1, "s", kw(q))
    assert not oracle.holds(m1, "s", ("imp", kw(("imp", p, q)), ("imp", kw(p), kw(q))))
    assert oracle.holds(m1, "s", ("ann", q, kw(q)))  # after announcing q only t is left
    four = ("imp", kw(p), kw(kw(p)))
    assert oracle.valid_on_small_models(four, "K") is not None
    assert oracle.valid_on_small_models(four, "K4") is None
    assert oracle.frame_properties(m1) == {"transitive"}


def main():
    check_oracle()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    counters = {}
    battery = {}
    for seed in (1, 2):
        for trace in (0, 1):
            proc = run(seed, trace)
            assert proc.returncode == 0, proc.stderr
            lines = [json.loads(line) for line in proc.stdout.splitlines()]
            assert [r["workload"] for r in lines] == ["decide", "modelcheck", "proofcheck"]
            for r in lines:
                where = f"{r['workload']} seed {seed} trace {trace}"
                assert r["correct"], f"{where}: {proc.stderr}"
                assert set(r["metrics"]) == names[trace], where
                if r["workload"] == "proofcheck":
                    # gen_prop19(6) fails once a round, so attempted / failed is
                    # the battery size; no failure at all once it checks
                    if r["failed"]:
                        assert r["attempted"] % r["failed"] == 0, where
                        size = battery.setdefault(seed, r["attempted"] // r["failed"])
                        assert r["attempted"] // r["failed"] == size, where
                else:
                    assert r["failed"] == 0, f"{where}: {proc.stderr}"
                if trace:
                    key = (seed, r["workload"])
                    got = {m: r["metrics"][m]["value"] for m in
                           ("decide.prefixes", "decide.branches", "proof.taut_rows")}
                    counters.setdefault(key, got)
                    assert counters[key] == got, f"{where}: {got} != {counters[key]}"
        proc = run(seed, 1)  # a second traced run: the counters repeat exactly
        for r in map(json.loads, proc.stdout.splitlines()):
            got = {m: r["metrics"][m]["value"] for m in
                   ("decide.prefixes", "decide.branches", "proof.taut_rows")}
            assert counters[(seed, r["workload"])] == got, (seed, r["workload"], got)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(1, 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)
    print("selftest ok")


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    main()
