"""Wall time of one-shot kwl processes, in one or more checkouts.

Starts a fresh interpreter for each of a fixed list of calls: `kwl mc`,
`kwl frame`, `kwl check` and `kwl decide` on repository files, run as the
installed `kwl` command runs them, and `import kwl` followed by `parse` and
`load_model`.  Each checkout runs with its own src/ on PYTHONPATH and its own
root as working directory.  Each of ROUNDS (3) rounds runs every call RUNS
(20) times in each checkout, alternating which checkout goes first, and
prints, per call and checkout, the median and the quartiles in ms.  One untimed run per call and
checkout comes first, so that every checkout's bytecode is cached.  A call
that exits with neither 0 nor 1 stops the script.  Standard library only:

    python3 scripts/startup.py CHECKOUT [CHECKOUT ...]
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

ROUNDS = 3
RUNS = 20
CLI = "import sys; from kwl.cli import main; sys.exit(main())"
CALLS = (
    ("kwl mc", ["-c", CLI, "mc", "fixtures/m1.json", "s", "Kw[i]p"]),
    ("kwl frame", ["-c", CLI, "frame", "fixtures/f1.json"]),
    ("kwl check", ["-c", CLI, "check", "proofs/lemma17.prf"]),
    ("kwl decide", ["-c", CLI, "decide", "Kw[i]p -> Kw[i]Kw[i]p", "--class", "K4"]),
    ("import kwl", ["-c", "import kwl; kwl.parse('Kw[i]p'); kwl.load_model('fixtures/m1.json')"]),
)


def run_once(checkout: str, argv: list[str]) -> float:
    """One fresh process of the call in the checkout; its wall time in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = (time.perf_counter() - start) * 1000
    if done.returncode not in (0, 1):
        sys.exit(f"{checkout}: {argv} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit("usage: python3 scripts/startup.py CHECKOUT [CHECKOUT ...]")
    checkouts = [os.path.abspath(c) for c in argv]
    for checkout in checkouts:
        for _, call in CALLS:
            run_once(checkout, call)
    width = max(len(c) for c in checkouts)
    for r in range(ROUNDS):
        times = {(label, c): [] for label, _ in CALLS for c in checkouts}
        for k in range(RUNS):
            order = checkouts if (r + k) % 2 == 0 else checkouts[::-1]
            for label, call in CALLS:
                for checkout in order:
                    times[label, checkout].append(run_once(checkout, call))
        print(f"round {r + 1}: median [quartiles] of {RUNS} runs, ms")
        for label, _ in CALLS:
            for checkout in checkouts:
                q1, med, q3 = statistics.quantiles(times[label, checkout], n=4)
                print(f"  {label:<11} {checkout:<{width}}  {med:7.1f}  [{q1:.1f}, {q3:.1f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
